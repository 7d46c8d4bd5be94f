//! Open-boundary acceptance: sources feed, sinks drain, slots recycle,
//! both engines stay bit-identical, batches stay deterministic across
//! pool worker counts, and closed worlds are untouched (their golden
//! trajectory hashes live in tests/multi_group.rs and must keep passing
//! unmodified).

use pedsim::core::engine::cpu::CpuEngine;
use pedsim::core::validate::engines_agree;
use pedsim::prelude::*;
use pedsim::scenario::registry;

fn open_corridor_cfg(seed: u64, model: ModelKind) -> SimConfig {
    let scenario = registry::open_corridor(32, 32, 40, 2.0).with_seed(seed);
    SimConfig::from_scenario(&scenario, model).with_checked(true)
}

#[test]
fn engines_agree_on_open_corridor() {
    for model in [ModelKind::lem(), ModelKind::aco()] {
        assert_eq!(
            engines_agree(open_corridor_cfg(17, model), 120, 10, 4),
            None,
            "{} diverged on open_corridor",
            model.name()
        );
    }
}

#[test]
fn engines_agree_on_open_crossing() {
    for model in [ModelKind::lem(), ModelKind::aco()] {
        let scenario = registry::open_crossing(32, 40, 1.5).with_seed(23);
        let cfg = SimConfig::from_scenario(&scenario, model).with_checked(true);
        assert_eq!(
            engines_agree(cfg, 120, 10, 3),
            None,
            "{} diverged on open_crossing",
            model.name()
        );
    }
}

#[test]
fn open_corridor_reaches_a_flowing_population() {
    let mut e = CpuEngine::new(open_corridor_cfg(5, ModelKind::aco()));
    e.run(200);
    let m = e.metrics().expect("metrics on");
    // The inflow populated the corridor…
    assert!(m.live_count() > 10, "only {} live agents", m.live_count());
    assert!(m.live_density() > 0.0);
    // …and agents have crossed and despawned: cumulative events exceed
    // what is currently live.
    assert!(m.throughput() > 0, "nobody crossed in 200 steps");
    // Sinks drained and slots were recycled: cumulative crossing events
    // exceed the whole 2 × 40 slot pool.
    assert!(
        m.throughput() > 80,
        "only {} crossings — sinks/recycling idle",
        m.throughput()
    );
    assert_eq!(m.live_count(), e.environment().live_count());
    // Flux over the last window is positive once the corridor is warm.
    let flux = m.windowed_flux(64).expect("200 steps observed");
    assert!(flux > 0.0, "zero steady flux");
    e.environment().check_consistency().expect("consistent");
}

#[test]
fn open_world_never_exceeds_capacity_and_all_arrived_never_fires() {
    let scenario = registry::open_corridor(24, 24, 12, 6.0).with_seed(9);
    let cfg = SimConfig::from_scenario(&scenario, ModelKind::lem()).with_checked(true);
    let mut e = CpuEngine::new(cfg);
    for _ in 0..150 {
        e.step();
        let env = e.environment();
        assert!(
            env.live_count() <= 24,
            "live {} > capacity",
            env.live_count()
        );
        let m = e.metrics().expect("metrics");
        assert!(!m.all_arrived(), "open worlds never 'arrive'");
    }
    // With a rate far above the pool, the pool must actually throttle:
    // every one of the 24 slots has been used.
    let env = e.environment();
    assert!(env.live_count() > 0);
    assert!(
        e.metrics().expect("metrics").throughput() >= 24,
        "slots were never recycled"
    );
}

#[test]
fn steady_state_stop_fires_on_a_warm_open_corridor() {
    let scenario = registry::open_corridor(24, 24, 60, 2.0).with_seed(3);
    let cfg = SimConfig::from_scenario(&scenario, ModelKind::aco());
    let mut e = CpuEngine::new(cfg);
    let reason = e.run_until(&StopCondition::steady_or_steps(1_500, 0.6, 64));
    // A free-flowing corridor settles well before the budget.
    assert_eq!(reason, StopReason::SteadyState);
    assert!(e.steps_done() < 1_500);
    let m = e.metrics().expect("metrics");
    assert!(m.windowed_flux(64).expect("window observed") > 0.0);
}

#[test]
fn batch_with_sources_is_deterministic_across_worker_counts() {
    let jobs: Vec<Job> = [1u64, 2, 3]
        .iter()
        .flat_map(|&seed| {
            ["open_corridor", "open_crossing"].map(|world| {
                let scenario = pedsim::scenario::sweep::build_world(world, 24, 16)
                    .expect("registry world")
                    .with_seed(seed);
                Job::backend(
                    format!("{world}/s{seed}"),
                    SimConfig::from_scenario(&scenario, ModelKind::lem()),
                    Backend::simt(),
                    StopCondition::steady_or_steps(220, 0.5, 32),
                )
            })
        })
        .collect();
    let a = Batch::new(1).run(&jobs).to_json();
    let b = Batch::new(4).run(&jobs).to_json();
    assert_eq!(a, b, "open-world batch JSON differs across worker counts");
    assert!(a.contains("\"flux\""));
    assert!(a.contains("open_crossing"));
}

#[test]
fn gpu_download_round_trips_the_lifecycle_state() {
    let cfg = open_corridor_cfg(11, ModelKind::lem());
    let device = pedsim::simt::Device::parallel();
    let mut gpu = GpuEngine::new(cfg.clone(), device);
    let mut cpu = CpuEngine::new(cfg);
    gpu.run(90);
    cpu.run(90);
    let env = gpu.download_environment();
    env.check_consistency().expect("download consistent");
    assert_eq!(env.live_count(), cpu.environment().live_count());
    assert_eq!(env.alive, cpu.environment().alive);
    assert_eq!(env.free, cpu.environment().free);
}

mod recycling_properties {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Recycled slots are never double-occupied: at every step of an
        /// open-world run, each live slot appears exactly once in the
        /// index matrix, dead slots appear nowhere, and the free lists
        /// partition the dead slots.
        #[test]
        fn recycled_slots_are_never_double_occupied(
            seed in 0u64..500,
            rate in 1u32..8,
            world_pick in 0usize..2,
        ) {
            let scenario = if world_pick == 1 {
                registry::open_crossing(24, 20, f64::from(rate))
            } else {
                registry::open_corridor(24, 24, 20, f64::from(rate))
            }
            .with_seed(seed);
            let cfg = SimConfig::from_scenario(&scenario, ModelKind::lem()).with_checked(true);
            let mut e = CpuEngine::new(cfg);
            for _ in 0..60 {
                e.step();
                let env = e.environment();
                let mut seen: HashSet<u32> = HashSet::new();
                for (_, _, v) in env.index.iter_cells() {
                    if v != 0 {
                        prop_assert!(seen.insert(v), "slot {v} occupies two cells");
                        prop_assert!(env.is_alive(v as usize), "dead slot {v} on grid");
                    }
                }
                prop_assert_eq!(seen.len(), env.live_count());
                prop_assert!(env.check_consistency().is_ok());
                // Free lists and the grid partition the slot space.
                let free_total: usize = env.free.iter().map(|f| f.len()).sum();
                prop_assert_eq!(free_total + seen.len(), env.total_agents());
            }
            // The goal of recycling: some slot was reused at least once
            // when inflow exceeds capacity for long enough.
            let m = e.metrics().expect("metrics");
            prop_assert!(m.throughput() <= 60 * 40, "sane crossing count");
        }

        /// Heavy spawn/despawn churn cannot desynchronise the agent
        /// position column `props.pos` that sparse stepping navigates by.
        /// At every step of an open-world run, every backend's world
        /// passes `check_consistency` (`index[pos[a]] = a` and
        /// `pos[a] < w·h` for every live slot), and the scalar agent
        /// loops, the simt cell sweep and sparse pooled stepping stay
        /// byte-identical while slots recycle underneath.
        #[test]
        fn sparse_position_index_survives_spawn_despawn_churn(
            seed in 0u64..500,
            rate in 3u32..9,
            world_pick in 0usize..2,
        ) {
            // Small pools + high inflow force constant recycling.
            let scenario = if world_pick == 1 {
                registry::open_crossing(24, 10, f64::from(rate))
            } else {
                registry::open_corridor(24, 24, 10, f64::from(rate))
            }
            .with_seed(seed);
            let cfg = SimConfig::from_scenario(&scenario, ModelKind::lem()).with_checked(true);
            let mut scalar = CpuEngine::new(cfg.clone());
            let mut simt = GpuEngine::new(cfg.clone(), pedsim::simt::Device::sequential());
            let mut pooled = PooledEngine::new(cfg.with_iteration_mode(IterationMode::Sparse), 2);
            for step in 0..60u32 {
                scalar.step();
                simt.step();
                pooled.step();
                for (tag, checked) in [
                    ("scalar", scalar.environment().check_consistency()),
                    ("pooled", pooled.environment().check_consistency()),
                    ("simt", simt.download_environment().check_consistency()),
                ] {
                    prop_assert!(checked.is_ok(), "{} step {}: {:?}", tag, step, checked);
                }
                for (tag, e) in [("simt", &simt as &dyn Engine), ("pooled", &pooled)] {
                    prop_assert_eq!(
                        e.mat_snapshot(), scalar.mat_snapshot(),
                        "{} diverged from scalar at step {}", tag, step
                    );
                    prop_assert_eq!(e.positions(), scalar.positions());
                }
            }
            // Dead slots keep their last cell on every backend.
            let genv = simt.download_environment();
            prop_assert_eq!(&genv.props.pos, &scalar.environment().props.pos);
            prop_assert_eq!(&pooled.environment().props.pos, &scalar.environment().props.pos);
            // Churn actually happened: crossings exceed the slot pool.
            let m = scalar.metrics().expect("metrics");
            prop_assert!(m.throughput() >= 20, "only {} crossings — no churn", m.throughput());
        }
    }
}
