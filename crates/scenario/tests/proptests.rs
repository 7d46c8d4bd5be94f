//! Property-based tests for the classic corridor door.

use pedsim_grid::cell::{CELL_BOTTOM, CELL_TOP};
use pedsim_grid::EnvConfig;
use pedsim_scenario::registry::paper_corridor;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Any buildable corridor is internally consistent and has the exact
    /// requested population confined to its edge bands.
    #[test]
    fn paper_corridors_build_consistent(
        width in 8usize..80,
        height in 8usize..80,
        seed in any::<u64>(),
        fill in 1usize..100,
    ) {
        // Population that always fits: ≤ 40 % of a half-grid band budget.
        let per_side = (width * (height / 2) * fill / 250).max(1);
        let cfg = EnvConfig::small(width, height, per_side).with_seed(seed);
        let rows = cfg.effective_spawn_rows();
        prop_assume!(rows * 2 <= height);
        let env = paper_corridor(&cfg).build_environment();
        prop_assert!(env.check_consistency().is_ok());
        prop_assert_eq!(env.mat.count(CELL_TOP), per_side);
        prop_assert_eq!(env.mat.count(CELL_BOTTOM), per_side);
        // Bands at the right edges.
        for (r, _, v) in env.mat.iter_cells() {
            if v == CELL_TOP {
                prop_assert!(r < rows);
            } else if v == CELL_BOTTOM {
                prop_assert!(r >= height - rows);
            }
        }
        // Placement is seed-deterministic.
        let env2 = paper_corridor(&cfg).build_environment();
        prop_assert_eq!(env.mat, env2.mat);
    }
}
