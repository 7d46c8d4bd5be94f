//! Cross-backend golden parity: every selection `engines_agree` holds to
//! the `scalar` oracle — `simt` sequential and parallel, `pooled` at one
//! to four threads in both traversals — must produce bit-identical
//! trajectories on every registry world. The pooled backend's claim
//! protocol is *proven* equivalent to the scalar gather in unit tests
//! (`engine::pooled`); this suite pins the whole-trajectory consequence,
//! including the legacy golden hashes captured before the backend
//! registry existed.

use pedsim::core::engine::pooled::band_ranges;
use pedsim::core::engine::Backend;
use pedsim::prelude::*;
use pedsim::scenario::registry;

mod common;
use common::trajectory_hash;

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
        let mut scalar = CpuEngine::new(cfg.clone());
        scalar.run(steps);
        assert_eq!(trajectory_hash(&scalar), golden, "{name}: wrong trajectory");
        assert_eq!(engines_agree(cfg, steps, steps, None), None, "{name}");
    }
}

/// Every registry world (open-boundary lifecycles included) runs
/// bit-identically on every selection `engines_agree` holds to `scalar`.
#[test]
fn all_registry_worlds_agree_across_backends() {
    for name in registry::names() {
        let scenario = pedsim::scenario::sweep::build_world(name, 32, 12)
            .expect("registry world")
            .with_seed(11);
        for model in [ModelKind::lem(), ModelKind::aco()] {
            let cfg = SimConfig::from_scenario(&scenario, model).with_checked(true);
            let name = format!("{name}/{}", model.name());
            assert_eq!(engines_agree(cfg, 30, 10, None), None, "{name}");
        }
    }
}

/// A jammed classic corridor (side 64, 900 agents per side: 44 %
/// occupancy) runs bit-identically on every selection. At this density
/// many agents are boxed in or have one free neighbour, so pooled's
/// shortcuts on the availability byte decide them without a draw; the
/// `pooled.settled` count shows they fire.
#[test]
fn jammed_corridor_agrees_across_backends() {
    let env = EnvConfig::small(64, 64, 900).with_seed(5);
    for model in [ModelKind::lem(), ModelKind::aco()] {
        let cfg = SimConfig::from_scenario(&registry::paper_corridor(&env), model);
        let name = format!("jam/{}", model.name());
        assert_eq!(engines_agree(cfg.clone(), 40, 10, None), None, "{name}");
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

/// Jammed classic corridors (44 % occupancy) whose heights give the
/// pooled dense sweep row bands of every kind: 8 rows make 2-row bands at
/// every thread count (no row is claimed by one decide alone), 24 rows
/// 3-row bands at two threads (one such row per band), and 64 rows bands
/// of 4 to 16 rows. Every backend agrees on each.
#[test]
fn jammed_corridors_of_every_band_height_agree_across_backends() {
    for (height, per_side) in [(8, 85), (24, 250), (64, 680)] {
        let env = EnvConfig::small(48, height, per_side).with_seed(13);
        for model in [ModelKind::lem(), ModelKind::aco()] {
            let cfg = SimConfig::from_scenario(&registry::paper_corridor(&env), model);
            let name = format!("jam h{height}/{}", model.name());
            assert_eq!(engines_agree(cfg, 40, 10, None), None, "{name}");
        }
    }
}

/// An ACO jam whose τ₀ is swapped mid-run. At τ₀ = 1e-44 (subnormal)
/// `τ₀ · η^β` underflows to 0 away from the target, so a one-candidate
/// agent facing an undeposited cell there stays put. Raised to the
/// default, the step after the swap still reads cells evaporated under
/// the old τ₀, and only the step after it may settle one-candidate agents
/// without reading τ; lowered, the step after the swap still may.
#[test]
fn aco_tau0_swapped_mid_run_agrees_across_backends() {
    let env = EnvConfig::small(48, 24, 250).with_seed(17);
    let tiny = ModelKind::Aco(AcoParams {
        tau0: 1e-44,
        ..AcoParams::default()
    });
    for (from, to, name) in [
        (tiny, ModelKind::aco(), "aco tau0 1e-44 -> 0.1"),
        (ModelKind::aco(), tiny, "aco tau0 0.1 -> 1e-44"),
    ] {
        let cfg = SimConfig::from_scenario(&registry::paper_corridor(&env), from);
        assert_eq!(engines_agree(cfg, 40, 10, Some((15, to))), None, "{name}");
    }
}

/// An ACO jam at β = 200: `η^β` underflows to 0 wherever the distance to
/// the target exceeds about 1.6 cells, so most numerators are 0 and
/// one-candidate agents must each read theirs.
#[test]
fn aco_with_underflowing_eta_beta_agrees_across_backends() {
    let env = EnvConfig::small(48, 24, 250).with_seed(19);
    let steep = ModelKind::Aco(AcoParams {
        beta: 200.0,
        ..AcoParams::default()
    });
    let cfg = SimConfig::from_scenario(&registry::paper_corridor(&env), steep);
    assert_eq!(engines_agree(cfg, 40, 10, None), None);
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
