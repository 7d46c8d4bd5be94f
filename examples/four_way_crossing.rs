//! Four-way crossing: four orthogonal streams share one plaza.
//!
//! The paper models exactly two opposing streams; the N-group
//! generalisation lifts that limit. Here four groups enter a plaza, one
//! per edge, every one headed for the opposite edge — all four cross
//! mid-grid. Each group routes by its own flow-field plane and follows
//! its own pheromone field, so trails only attract same-direction
//! pedestrians (Jiang et al.'s dynamic-navigation-field setting,
//! arXiv:1705.03569, on the paper's cellular substrate).
//!
//! Every (density, model) replica runs as one concurrent batch on the
//! `pedsim-runner` pool with full early termination.
//!
//! ```text
//! cargo run --release --example four_way_crossing [-- --smoke]
//! ```

use pedsim::grid::cell::Group;
use pedsim::prelude::*;
use pedsim::scenario::registry;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // --smoke is the CI scale: a smaller plaza, thinner streams.
    let (side, per_groups, steps) = if smoke {
        (32usize, vec![20usize, 40], 300u64)
    } else {
        (64usize, vec![60usize, 120, 200], 900u64)
    };
    println!("{side}x{side} plaza, four orthogonal streams, budget {steps} steps\n");

    let jobs: Vec<Job> = per_groups
        .iter()
        .flat_map(|&per| {
            [ModelKind::lem(), ModelKind::aco()].map(|model| {
                let scenario = registry::four_way_crossing(side, per).with_seed(41);
                Job::backend(
                    format!("n{:04}/{}", per * 4, model.name()),
                    SimConfig::from_scenario(&scenario, model),
                    Backend::simt(),
                    StopCondition::settled_or_steps(steps, 2, 40),
                )
            })
        })
        .collect();
    let report = Batch::auto().run(&jobs);

    println!(
        "{:>8} {:>6} {:>10} {:>10} {:>8} {:>10}",
        "agents", "model", "crossed", "of", "steps", "stop"
    );
    for r in &report.results {
        println!(
            "{:>8} {:>6} {:>10} {:>10} {:>8} {:>10}",
            r.agents,
            r.model,
            r.throughput.expect("metrics on"),
            r.agents,
            r.steps,
            r.stop.name()
        );
    }

    // Per-stream breakdown for the densest ACO run: all four directions
    // must make progress, not just the pair the old two-group model knew.
    // (Engines are bit-identical, so re-running on the parallel GPU
    // engine reproduces the batch replica's trajectory exactly.)
    let per = *per_groups.last().expect("at least one density");
    let scenario = registry::four_way_crossing(side, per).with_seed(41);
    let mut e = GpuEngine::new(
        SimConfig::from_scenario(&scenario, ModelKind::aco()),
        pedsim::simt::Device::parallel(),
    );
    e.run_until(&StopCondition::settled_or_steps(steps, 2, 40));
    let m = e.metrics().expect("metrics");
    println!("\nper-stream arrivals at {} agents (ACO):", per * 4);
    for (gi, name) in ["north→south", "south→north", "west→east", "east→west"]
        .iter()
        .enumerate()
    {
        println!("  {name:>12}: {:>5} of {per}", m.crossed(Group::new(gi)));
    }
    println!(
        "\nfour flow-field planes route four streams through one shared\n\
         plaza; per-group pheromone keeps trail-following within each\n\
         direction instead of dragging streams into each other."
    );
}
