//! Doorway bottleneck: LEM vs ACO throughput as the doorway shrinks.
//!
//! The paper's corridor has no interior geometry; the scenario subsystem
//! adds it. Here the corridor is pinched to a `gap`-cell doorway at
//! mid-height and both models push the same crowd through. Watch two
//! effects: throughput collapsing as the gap narrows, and ACO's trails
//! helping same-direction pedestrians queue through the opening instead
//! of fighting head-on inside it.
//!
//! All ten (gap, model) replicas run as one concurrent batch on the
//! `pedsim-runner` pool, each stopping as soon as its crowd has fully
//! crossed (or the step budget runs out) instead of burning the budget
//! blind.
//!
//! ```text
//! cargo run --release --example doorway_bottleneck [-- --smoke]
//! ```

use pedsim::prelude::*;
use pedsim::scenario::registry;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // --smoke is the CI scale: a quarter of the crowd on the same grid.
    let (side, per_side, steps) = if smoke {
        (48usize, 120usize, 300u64)
    } else {
        (64usize, 350usize, 900u64)
    };
    let gaps = [side, 16, 8, 4, 2];
    println!(
        "{side}x{side} corridor, {} agents, budget {steps} steps, doorway at mid-height\n",
        per_side * 2
    );

    let jobs: Vec<Job> = gaps
        .iter()
        .flat_map(|&gap| {
            [ModelKind::lem(), ModelKind::aco()].map(|model| {
                let scenario = if gap >= side {
                    // Fully open: the plain paper corridor (row-table routing).
                    registry::paper_corridor(&EnvConfig::small(side, side, per_side).with_seed(29))
                } else {
                    registry::doorway(side, side, per_side, gap).with_seed(29)
                };
                Job::backend(
                    format!("gap{gap:03}/{}", model.name()),
                    SimConfig::from_scenario(&scenario, model),
                    Backend::simt(),
                    StopCondition::arrived_or_steps(steps),
                )
            })
        })
        .collect();
    let report = Batch::auto().run(&jobs);

    println!(
        "{:>8} {:>12} {:>12} {:>10} {:>16}",
        "gap", "LEM crossed", "ACO crossed", "ACO gain", "steps (LEM/ACO)"
    );
    for &gap in &gaps {
        let get = |model: &str| {
            report
                .with_label(&format!("gap{gap:03}/{model}"))
                .next()
                .expect("one result per job")
        };
        let (lem_r, aco_r) = (get("LEM"), get("ACO"));
        let lem = lem_r.throughput.expect("metrics on");
        let aco = aco_r.throughput.expect("metrics on");
        let gain = if lem > 0 {
            format!("{:+.0}%", (aco as f64 / lem as f64 - 1.0) * 100.0)
        } else if aco > 0 {
            "inf".into()
        } else {
            "—".into()
        };
        let label = if gap >= side {
            "open".to_string()
        } else {
            gap.to_string()
        };
        println!(
            "{label:>8} {lem:>12} {aco:>12} {gain:>10} {:>16}",
            format!("{}/{}", lem_r.steps, aco_r.steps)
        );
    }

    println!(
        "\n{} of {} replicas finished before the budget ({} simulated steps total)",
        report.arrived, report.jobs, report.steps_total
    );
    println!(
        "\nthe gap is the capacity limit: once it is narrower than the\n\
         natural lane count, throughput is set by the doorway, not the\n\
         model — but trail-following still decides how orderly the queue\n\
         in front of it is."
    );
}
