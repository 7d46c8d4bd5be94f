//! Bounded interleaving exploration of the full pooled backend.
//!
//! The pooled backend claims its trajectories are schedule-independent:
//! the claim bytes commute, every other write is structurally disjoint,
//! and all randomness is counter-based. This suite drives the backend's
//! schedule knob ([`PooledEngine::set_schedule_seed`]) through hundreds
//! of Philox-keyed interleavings of every step's worker plans, in both
//! traversal modes, and asserts bit-identity with the scalar reference
//! throughout — the explorer's whole-engine acceptance case. Under
//! `--features audit-runtime`, every scatter write in these runs is
//! additionally checked by the write-set race detector, and every
//! resolve write by the readiness check.

use pedsim::core::engine::cpu::cpu_engine_small;
use pedsim::core::engine::pooled::pooled_engine_small;
use pedsim::prelude::*;
use pedsim::simt::exec::explore::explore;

/// FNV-1a over the trajectory state (same digest as the parity suites).
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn trajectory_hash(e: &impl Engine) -> u64 {
    let mat = e.mat_snapshot();
    let (row, col) = e.positions();
    let mut bytes: Vec<u8> = mat.as_slice().to_vec();
    for v in row.iter().chain(col.iter()) {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a(bytes)
}

/// 300 explorer schedules per model and traversal mode, every one
/// bit-identical to scalar. Every schedule, in both modes, interleaves
/// the workers' plans of each step's one launch as the claim cursors and
/// readiness waits allow.
#[test]
fn pooled_is_schedule_independent_across_300_interleavings() {
    use pedsim::core::engine::pooled::PooledEngine;
    for model in [ModelKind::lem(), ModelKind::aco()] {
        let mut scalar = cpu_engine_small(20, 20, 24, model, 77);
        scalar.run(15);
        let golden = trajectory_hash(&scalar);
        for mode in [IterationMode::Sparse, IterationMode::Dense] {
            let pooled = |threads: usize| {
                let env = EnvConfig::small(20, 20, 24).with_seed(77);
                let cfg = SimConfig::new(env, model)
                    .with_checked(true)
                    .with_iteration_mode(mode);
                PooledEngine::new(cfg, threads)
            };
            let label = format!("{} {}", model.name(), mode.name());
            let explored = explore(0..150u64, |seed| {
                let mut pooled = pooled(3);
                pooled.set_schedule_seed(Some(seed));
                pooled.run(15);
                trajectory_hash(&pooled)
            })
            .unwrap_or_else(|d| panic!("{label}: schedule divergence: {d}"));
            assert_eq!(
                explored, golden,
                "{label}: explored pooled trajectories diverged from scalar"
            );

            // Same budget again at a different thread count: the schedule
            // space depends on the task and worker counts, so this
            // explores fresh interleavings.
            let explored = explore(150..300u64, |seed| {
                let mut pooled = pooled(5);
                pooled.set_schedule_seed(Some(seed));
                pooled.run(15);
                trajectory_hash(&pooled)
            })
            .unwrap_or_else(|d| panic!("{label}: schedule divergence at 5 threads: {d}"));
            assert_eq!(explored, golden, "{label}: 5-thread divergence");
        }
    }
}

/// Both stage-traversal modes, explicitly: the dense cell sweep and the
/// sparse slot-range iteration each survive 100 explorer schedules
/// bit-identically on a closed LEM corridor. An open ACO corridor with
/// inflow adds sparse slot ranges holding dead and recycled slots, and
/// sparse evaporate-then-deposit. Under `--features audit-runtime` this
/// is the whole-engine acceptance case for the sparse agent-keyed
/// scatters — every slot-range write of every explored run passes the
/// write-set race detector, and every resolve write the sparse
/// readiness check.
#[test]
fn both_iteration_modes_are_schedule_independent() {
    use pedsim::core::engine::cpu::CpuEngine;
    use pedsim::core::engine::pooled::PooledEngine;
    use pedsim::scenario::registry;
    let closed = |mode: IterationMode| {
        let env = EnvConfig::small(20, 20, 24).with_seed(77);
        SimConfig::new(env, ModelKind::lem()).with_iteration_mode(mode)
    };
    let open = registry::open_corridor(20, 20, 24, 2.0).with_seed(77);
    let inputs = [
        ("closed LEM", closed(IterationMode::Dense), 15),
        ("closed LEM", closed(IterationMode::Sparse), 15),
        (
            "open ACO",
            SimConfig::from_scenario(&open, ModelKind::aco())
                .with_iteration_mode(IterationMode::Sparse),
            60,
        ),
    ];
    for (world, cfg, steps) in inputs {
        let cfg = cfg.with_checked(true);
        let mode = cfg.iteration;
        let label = format!("{world} {}", mode.name());
        let mut scalar = CpuEngine::new(cfg.clone());
        scalar.run(steps);
        let golden = trajectory_hash(&scalar);
        if cfg.world_scenario().is_open() {
            // Agents crossed into the sinks and freed their slots, and
            // more agents spawned than there are slots, so the slot
            // ranges held dead and recycled slots.
            let m = scalar.metrics().expect("metrics on");
            assert!(
                m.throughput() + m.live_count() > 48,
                "{label}: no slot recycled"
            );
        }
        let explored = explore(0..100u64, |seed| {
            let mut pooled = PooledEngine::new(cfg.clone(), 3);
            assert_eq!(pooled.iteration_mode(), mode);
            pooled.set_schedule_seed(Some(seed));
            pooled.run(steps);
            trajectory_hash(&pooled)
        })
        .unwrap_or_else(|d| panic!("{label}: schedule divergence: {d}"));
        assert_eq!(
            explored, golden,
            "{label}: explored pooled trajectories diverged from scalar"
        );
    }
}

/// The knob itself is inert: an explorer schedule equals pool dispatch,
/// and switching the seed off mid-run restores pool dispatch cleanly.
#[test]
fn schedule_knob_roundtrip_is_inert() {
    let mut natural = pooled_engine_small(20, 20, 24, ModelKind::lem(), 9, 4);
    natural.run(20);
    let golden = trajectory_hash(&natural);

    let mut toggled = pooled_engine_small(20, 20, 24, ModelKind::lem(), 9, 4);
    toggled.set_schedule_seed(Some(0xA5A5));
    toggled.run(10);
    toggled.set_schedule_seed(None);
    toggled.run(10);
    assert_eq!(trajectory_hash(&toggled), golden);
}
