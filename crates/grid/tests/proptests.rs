//! Property-based tests for the environment substrate.

use pedsim_grid::cell::Group;
use pedsim_grid::{DistanceTables, Matrix, PheromoneField};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Distance tables: forward strictly dominates mid-grid, floors hold,
    /// and group symmetry (top at row r ≡ bottom at row H−1−r).
    #[test]
    fn distance_tables_symmetry(height in 8usize..200, row in 0usize..200) {
        prop_assume!(row < height);
        let t = DistanceTables::new(height);
        let mirror = height - 1 - row;
        for k in 0..8 {
            // Mirror a neighbour offset vertically: (dr,dc) → (−dr,dc),
            // which permutes k: 0↔5, 1↔6, 2↔7, 3↔3, 4↔4.
            let mk = match k {
                0 => 5,
                1 => 6,
                2 => 7,
                5 => 0,
                6 => 1,
                7 => 2,
                other => other,
            };
            let a = t.get(Group::TOP, row, k);
            let b = t.get(Group::BOTTOM, mirror, mk);
            prop_assert!((a - b).abs() < 1e-4, "k={k} mk={mk} a={a} b={b}");
        }
    }

    /// Pheromone evaporation decays monotonically to the floor and deposit
    /// adds exactly the requested amount.
    #[test]
    fn pheromone_dynamics(
        tau0 in 0.01f32..1.0,
        rho in 0.0f32..1.0,
        deposit in 0.0f32..10.0,
        steps in 1usize..200,
    ) {
        let mut p = PheromoneField::new(4, 4, tau0);
        p.deposit(Group::TOP, 1, 1, deposit);
        let mut last = p.of(Group::TOP).get(1, 1);
        prop_assert!((last - (tau0 + deposit)).abs() < 1e-5);
        for _ in 0..steps {
            p.evaporate(rho);
            let now = p.of(Group::TOP).get(1, 1);
            prop_assert!(now <= last + 1e-6);
            prop_assert!(now >= tau0 - 1e-6);
            last = now;
        }
    }

    /// Matrix round-trips under linearisation for any geometry.
    #[test]
    fn matrix_roundtrip(
        w in 1usize..64,
        h in 1usize..64,
        values in prop::collection::vec(any::<u8>(), 1..4096),
    ) {
        prop_assume!(values.len() >= w * h);
        let m = Matrix::from_vec(h, w, values[..w * h].to_vec());
        for r in 0..h {
            for c in 0..w {
                prop_assert_eq!(m.get(r, c), m.as_slice()[m.linear(r, c)]);
            }
        }
        prop_assert_eq!(m.count(values[0]),
            m.as_slice().iter().filter(|&&v| v == values[0]).count());
    }
}
