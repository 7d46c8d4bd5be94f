//! Cross-backend golden parity: every backend in the engine registry —
//! scalar, pooled at any thread count, simt — must produce bit-identical
//! trajectories on every registry world. The pooled backend's claim
//! protocol is *proven* equivalent to the scalar gather in unit tests
//! (`engine::pooled`); this suite pins the whole-trajectory consequence,
//! including the legacy golden hashes captured before the backend
//! registry existed.

use pedsim::core::engine::pooled::band_ranges;
use pedsim::core::engine::Backend;
use pedsim::prelude::*;
use pedsim::scenario::registry;

/// FNV-1a over the trajectory state: the environment matrix plus every
/// agent position (same hash as the multi-group golden suite).
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

/// Run `cfg` for `steps` on every registry backend and return the scalar
/// hash after asserting every other run matches it. Each traversal has
/// two independent implementations held to that hash: the agent loops
/// of `scalar` and sparse `pooled`, and the per-cell sweeps of `simt` and
/// dense `pooled`. Sparse stepping is thereby pinned as a pure
/// traversal-order optimisation of the paper's O(cells) mapping.
fn assert_backends_agree(name: &str, cfg: SimConfig, steps: u64) -> u64 {
    let mut scalar = Backend::scalar().build(cfg.clone()).expect("scalar");
    scalar.run(steps);
    let golden = trajectory_hash(&scalar);
    for mode in [IterationMode::Dense, IterationMode::Sparse] {
        let cfg = cfg.clone().with_iteration_mode(mode);
        let tag = mode.name();
        for threads in [1usize, 2, 4] {
            let mut pooled = Backend::pooled(threads).build(cfg.clone()).expect("pooled");
            pooled.run(steps);
            assert_eq!(
                trajectory_hash(&pooled),
                golden,
                "{name}: pooled/t{threads}/{tag} diverged from scalar"
            );
        }
    }
    let mut simt = Backend::simt().build(cfg).expect("simt");
    simt.run(steps);
    assert_eq!(
        trajectory_hash(&simt),
        golden,
        "{name}: simt diverged from scalar"
    );
    golden
}

/// The legacy golden hashes (captured on the pre-registry scalar build)
/// hold for *every* backend: trajectory equality is anchored to fixed
/// bytes, not merely to mutual agreement.
#[test]
fn legacy_goldens_hold_on_every_backend() {
    let env = EnvConfig::small(32, 32, 30).with_seed(42);
    let cases: [(&str, SimConfig, u64, u64); 3] = [
        (
            "corridor/lem",
            SimConfig::new(env, ModelKind::lem()),
            60,
            0x8136e34d28a027bf,
        ),
        (
            "corridor/aco",
            SimConfig::new(env, ModelKind::aco()),
            60,
            0xbe1dfff579672886,
        ),
        (
            "doorway/lem",
            SimConfig::from_scenario(
                &registry::doorway(32, 32, 60, 5).with_seed(7),
                ModelKind::lem(),
            ),
            60,
            0x37c39781e339da30,
        ),
    ];
    for (name, cfg, steps, golden) in cases {
        let agreed = assert_backends_agree(name, cfg, steps);
        assert_eq!(
            agreed, golden,
            "{name}: backends agree on a wrong trajectory"
        );
    }
}

/// Every registry world (open-boundary lifecycles included) runs
/// bit-identically across the whole backend × thread-count matrix.
#[test]
fn all_registry_worlds_agree_across_backends() {
    for name in registry::names() {
        let scenario = pedsim::scenario::sweep::build_world(name, 32, 12)
            .expect("registry world")
            .with_seed(11);
        for model in [ModelKind::lem(), ModelKind::aco()] {
            let cfg = SimConfig::from_scenario(&scenario, model).with_checked(true);
            assert_backends_agree(&format!("{name}/{}", model.name()), cfg, 30);
        }
    }
}

/// A jammed classic corridor (side 64, 900 agents per side: 44 %
/// occupancy) runs bit-identically across the matrix. At this density
/// many agents are boxed in or have one free neighbour, so pooled's
/// shortcuts on the availability byte decide them without a draw; the
/// `pooled.settled` count shows they fire.
#[test]
fn jammed_corridor_agrees_across_backends() {
    let env = EnvConfig::small(64, 64, 900).with_seed(5);
    for model in [ModelKind::lem(), ModelKind::aco()] {
        let cfg = SimConfig::from_scenario(&registry::paper_corridor(&env), model);
        assert_backends_agree(&format!("jam/{}", model.name()), cfg.clone(), 40);
        let mut pooled = Backend::pooled(1)
            .build(cfg.with_iteration_mode(IterationMode::Dense))
            .expect("pooled");
        pooled.run(40);
        assert!(
            pooled.telemetry().counter("pooled.settled") > 0,
            "jam/{}: no agent was decided by its availability byte alone",
            model.name()
        );
    }
}

mod partition_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The pooled backend's tile partition covers every cell exactly
        /// once for any extent and band count: ranges are contiguous,
        /// orderd, within bounds, and their union is `0..n`.
        #[test]
        fn band_partition_covers_every_cell_exactly_once(
            n in 0usize..10_000,
            parts in 0usize..64,
        ) {
            let ranges = band_ranges(n, parts);
            prop_assert_eq!(ranges.len(), parts.max(1));
            let mut next = 0usize;
            for r in &ranges {
                prop_assert_eq!(r.start, next, "gap or overlap at {}", next);
                prop_assert!(r.end >= r.start);
                next = r.end;
            }
            prop_assert_eq!(next, n, "partition does not cover 0..{}", n);
            // Band sizes differ by at most one (balanced work).
            let sizes: Vec<usize> = ranges.iter().map(|r| r.end - r.start).collect();
            let (min, max) = (
                sizes.iter().copied().min().unwrap_or(0),
                sizes.iter().copied().max().unwrap_or(0),
            );
            prop_assert!(max - min <= 1, "unbalanced bands: {:?}", sizes);
        }
    }
}
