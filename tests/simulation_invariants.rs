//! Property-based integration tests over the public API: for arbitrary
//! scenario shapes, the simulation must conserve agents, keep one agent
//! per cell, move at most one cell per step, and stay consistent across
//! its three matrices.

use pedsim::prelude::*;
use proptest::prelude::*;

fn arbitrary_model() -> impl Strategy<Value = ModelKind> {
    prop_oneof![
        (0.3f64..3.0, any::<bool>()).prop_map(|(sigma, fp)| {
            ModelKind::Lem(LemParams {
                sigma,
                forward_priority: fp,
                scan_range: 1,
            })
        }),
        (0.2f32..2.0, 0.5f32..4.0, 0.005f32..0.5, any::<bool>()).prop_map(
            |(alpha, beta, rho, fp)| {
                ModelKind::Aco(AcoParams {
                    alpha,
                    beta,
                    rho,
                    q: 4.0,
                    tau0: 0.1,
                    forward_priority: fp,
                })
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs a full simulation
        .. ProptestConfig::default()
    })]

    /// After any number of steps the environment remains internally
    /// consistent: every agent on exactly one cell, labels/indices/
    /// properties in agreement, counts conserved.
    #[test]
    fn world_stays_consistent(
        seed in 0u64..1_000,
        per_side in 10usize..220,
        steps in 1u64..40,
        model in arbitrary_model(),
    ) {
        let env = EnvConfig::small(40, 40, per_side).with_seed(seed);
        let mut e = CpuEngine::new(SimConfig::new(env, model).with_checked(true));
        e.run(steps);
        prop_assert!(e.environment().check_consistency().is_ok());
    }

    /// Each step moves an agent by at most one cell in each axis.
    #[test]
    fn moves_bounded_by_move_range(
        seed in 0u64..1_000,
        per_side in 10usize..200,
        model in arbitrary_model(),
    ) {
        let env = EnvConfig::small(40, 40, per_side).with_seed(seed);
        let mut e = CpuEngine::new(SimConfig::new(env, model).with_checked(true));
        let (mut pr, mut pc) = e.positions();
        for _ in 0..10 {
            e.step();
            let (r, c) = e.positions();
            for i in 1..r.len() {
                let dr = (i64::from(r[i]) - i64::from(pr[i])).abs();
                let dc = (i64::from(c[i]) - i64::from(pc[i])).abs();
                prop_assert!(dr <= 1 && dc <= 1);
            }
            pr = r;
            pc = c;
        }
    }

    /// Throughput is monotone non-decreasing in time and bounded by the
    /// population.
    #[test]
    fn throughput_monotone_and_bounded(
        seed in 0u64..1_000,
        per_side in 20usize..200,
    ) {
        let env = EnvConfig::small(40, 40, per_side).with_seed(seed);
        let mut e = CpuEngine::new(SimConfig::new(env, ModelKind::aco()).with_checked(true));
        let mut last = 0usize;
        for _ in 0..8 {
            e.run(5);
            let t = e.metrics().expect("metrics").throughput();
            prop_assert!(t >= last);
            prop_assert!(t <= 2 * per_side);
            last = t;
        }
    }

    /// Every engine agrees with the scalar oracle for random
    /// configurations (not just the hand-picked ones).
    #[test]
    fn engines_agree_on_random_configs(
        seed in 0u64..500,
        per_side in 10usize..150,
        model in arbitrary_model(),
    ) {
        let cfg = SimConfig::new(
            EnvConfig::small(40, 40, per_side).with_seed(seed),
            model,
        ).with_checked(true);
        prop_assert_eq!(engines_agree(cfg, 12, 6, None), None);
    }
}
