//! Batch determinism: the fleet-level extension of the repo's
//! bit-identical single-engine guarantee.
//!
//! * the same job set produces a **byte-identical** deterministic JSON
//!   report across 1, 2, and 8 pool workers;
//! * shuffling the job submission order changes nothing;
//! * `run_until(AllArrived)` agrees with the legacy `run(n)`-then-inspect
//!   protocol on `paper_corridor`.

use pedsim_core::engine::{Backend, Engine, StopCondition, StopReason};
use pedsim_core::params::{ModelKind, SimConfig};
use pedsim_core::prelude::GpuEngine;
use pedsim_grid::EnvConfig;
use pedsim_runner::{Batch, Job};
use pedsim_scenario::sweep;

/// A small but heterogeneous job set: four registry worlds — including
/// the four-group plaza, the shared-exit T-junction, and the asymmetric
/// corridor — × two populations × three seeds × both models, GPU engines,
/// with a CPU replica mixed in.
fn job_set() -> Vec<Job> {
    let mut jobs = Vec::new();
    let worlds = [
        "paper_corridor",
        "four_way_crossing",
        "t_junction_merge",
        "asymmetric_corridor",
    ];
    for point in sweep::grid(&worlds, 24, &[8, 16], &[1, 2, 3]) {
        for model in [ModelKind::lem(), ModelKind::aco()] {
            let label = format!("{}/n{}/{}", point.world, point.per_side * 2, model.name());
            let cfg = SimConfig::from_scenario(&point.scenario, model);
            jobs.push(Job::backend(
                label,
                cfg,
                Backend::simt(),
                StopCondition::settled_or_steps(250, 1, 8),
            ));
        }
    }
    // One CPU reference replica rides along.
    let env = EnvConfig::small(24, 24, 8).with_seed(5);
    jobs.push(Job::backend(
        "corridor/cpu_ref",
        SimConfig::new(env, ModelKind::lem()),
        Backend::scalar(),
        StopCondition::arrived_or_steps(250),
    ));
    jobs
}

#[test]
fn report_is_identical_across_worker_counts() {
    let jobs = job_set();
    let baseline = Batch::new(1).run(&jobs).to_json();
    for workers in [2usize, 8] {
        let json = Batch::new(workers).run(&jobs).to_json();
        assert_eq!(baseline, json, "batch report diverged at {workers} workers");
    }
    // Sanity: the report actually contains every job, multi-group worlds
    // included.
    assert!(baseline.contains("\"jobs\": 49"));
    assert!(baseline.contains("four_way_crossing"));
    assert!(baseline.contains("t_junction_merge"));
    assert!(baseline.contains("asymmetric_corridor"));
}

#[test]
fn cpu_and_gpu_agree_on_multi_group_worlds_in_a_batch() {
    // Bit-identity across engines holds for every new registry world:
    // identical throughput/moves/lane metrics per (world, seed) pair.
    for world in [
        "four_way_crossing",
        "t_junction_merge",
        "asymmetric_corridor",
    ] {
        let scenario = sweep::build_world(world, 24, 12)
            .unwrap_or_else(|| panic!("{world} missing"))
            .with_seed(31);
        let cfg = SimConfig::from_scenario(&scenario, ModelKind::aco());
        let jobs = vec![
            Job::backend(
                "pair",
                cfg.clone(),
                Backend::scalar(),
                StopCondition::Steps(30),
            ),
            Job::backend("pair", cfg, Backend::simt(), StopCondition::Steps(30)),
        ];
        let report = Batch::new(2).run(&jobs);
        let [a, b] = &report.results[..] else {
            panic!("two results")
        };
        assert_eq!(a.throughput, b.throughput, "{world}");
        assert_eq!(a.total_moves, b.total_moves, "{world}");
        assert_eq!(a.lane_index, b.lane_index, "{world}");
    }
}

#[test]
fn report_is_identical_across_job_order() {
    let jobs = job_set();
    let baseline = Batch::new(4).run(&jobs).to_json();

    let mut reversed = jobs.clone();
    reversed.reverse();
    assert_eq!(baseline, Batch::new(4).run(&reversed).to_json());

    // A deterministic interleave (odd indices first, then even).
    let shuffled: Vec<Job> = jobs
        .iter()
        .skip(1)
        .step_by(2)
        .chain(jobs.iter().step_by(2))
        .cloned()
        .collect();
    assert_eq!(baseline, Batch::new(4).run(&shuffled).to_json());
}

#[test]
fn run_until_all_arrived_agrees_with_run_then_inspect() {
    let env = EnvConfig::small(32, 32, 24).with_seed(77);
    let scenario = pedsim_scenario::registry::paper_corridor(&env);
    let budget = 600u64;

    // Legacy protocol: burn the whole budget, inspect afterwards.
    let mut blind = GpuEngine::new(
        SimConfig::from_scenario(&scenario, ModelKind::lem()),
        simt::Device::sequential(),
    );
    blind.run(budget);
    let blind_throughput = blind.metrics().expect("metrics").throughput();
    assert_eq!(
        blind_throughput,
        env.total_agents(),
        "test premise: everyone crosses within the budget"
    );

    // Early termination: stop the moment the last agent arrives.
    let mut early = GpuEngine::new(
        SimConfig::from_scenario(&scenario, ModelKind::lem()),
        simt::Device::sequential(),
    );
    let reason = early.run_until(&StopCondition::arrived_or_steps(budget));
    assert_eq!(reason, StopReason::AllArrived);
    assert!(
        early.steps_done() < budget,
        "early exit should undershoot the budget (took {} steps)",
        early.steps_done()
    );
    assert_eq!(
        early.metrics().expect("metrics").throughput(),
        blind_throughput
    );
}

#[test]
fn gridlock_stop_cannot_misfire_on_success() {
    // Sparse corridor: everyone arrives, then the crowd stands still.
    // With the all-arrived guard, a Gridlocked-first condition must
    // still report AllArrived.
    let env = EnvConfig::small(24, 24, 4).with_seed(11);
    let mut e = GpuEngine::new(
        SimConfig::new(env, ModelKind::lem()),
        simt::Device::sequential(),
    );
    let cond = StopCondition::FirstOf(vec![
        StopCondition::Gridlocked {
            threshold: 1,
            patience: 4,
        },
        StopCondition::AllArrived,
        StopCondition::Steps(2_000),
    ]);
    let reason = e.run_until(&cond);
    assert_eq!(reason, StopReason::AllArrived);
}
