//! The modified Ant System: eq. (2) transition rule with the target-line
//! heuristic (§II.B, §III).
//!
//! For pedestrian movement the TSP heuristic `η_ij = 1/d_ij` becomes
//! `η_k = 1/D_k` where `D_k` is neighbour `k`'s distance to the agent's
//! target line, and the pheromone `τ` is read from the agent's *own
//! group's* field (followers are attracted to predecessors walking the
//! same way — the paper's "visual proposition to follow predecessors").
//!
//! The scan row stores the numerators `τ_k^α · η_k^β` (zero for
//! unavailable neighbours); selection computes the denominator by
//! reduction and draws from the discrete distribution (the paper's random
//! proportional rule), with the forward-cell priority short-circuit.

use pedsim_grid::cell::{Group, CELL_EMPTY, NEIGHBOR_OFFSETS};
use pedsim_grid::distance::DistRef;
use philox::StreamRng;

use crate::params::AcoParams;

use super::ScanRow;

/// Build an ACO scan row for a group-`g` agent at `(r, c)`: slot `k` holds
/// neighbour `k`'s eq. (2) numerator, or 0 when the neighbour is
/// unavailable.
///
/// `occ` reads cell labels ([`pedsim_grid::CELL_WALL`] outside), `tau`
/// reads the agent's group pheromone field at *global* coordinates, and
/// `dist` is the layout-tagged distance view (row tables or flow field).
#[allow(clippy::too_many_arguments)]
pub fn aco_scan_row(
    occ: &impl Fn(i64, i64) -> u8,
    tau: &impl Fn(i64, i64) -> f32,
    dist: DistRef<'_>,
    params: &AcoParams,
    g: Group,
    r: i64,
    c: i64,
) -> ScanRow {
    let mut row = ScanRow::empty();
    for (k, (dr, dc)) in NEIGHBOR_OFFSETS.iter().enumerate() {
        let (nr, nc) = (r + dr, c + dc);
        let available = occ(nr, nc) == CELL_EMPTY;
        row.idxs[k] = k as u8;
        if available {
            let d = dist.neighbor(g, r, c, k);
            let eta = 1.0 / d;
            row.vals[k] = aco_numerator(tau(nr, nc), eta.powf(params.beta), params.alpha);
        } else {
            row.vals[k] = 0.0;
        }
    }
    row
}

/// Eq. (2)'s numerator `τ^α · η^β` for one neighbour, from its pheromone
/// `tau` (negatives read as 0) and its heuristic term `eta_beta = η^β`
/// already raised to β — the one place the formula lives, shared by
/// [`aco_scan_row`] and the pooled backend (which reads `η^β` from a
/// compiled plane).
///
/// At the default `α = 1` the power is skipped: `x.powf(1.0)` is
/// bit-equal to `x` for every non-negative `f32` (an exhaustive check of
/// the patterns `0..=0x7f80_0000` found no mismatch; the unit test
/// sweeps a stride of them), and `τ.max(0)` is never NaN.
#[inline]
pub(crate) fn aco_numerator(tau: f32, eta_beta: f32, alpha: f32) -> f32 {
    let tau = tau.max(0.0);
    if alpha == 1.0 {
        tau * eta_beta
    } else {
        tau.powf(alpha) * eta_beta
    }
}

/// Apply the random proportional rule to an ACO scan row whose front cell
/// (neighbour slot `front_k`, from [`DistRef::front_k`]) has status
/// `front`. Returns the chosen neighbour index, or `None` when every
/// numerator is zero (boxed in).
///
/// Consumes at most one 32-bit draw.
pub fn aco_select(
    row: &ScanRow,
    front: u8,
    front_k: usize,
    params: &AcoParams,
    rng: &mut StreamRng,
) -> Option<usize> {
    if params.forward_priority && front == CELL_EMPTY {
        // "If the front cell is empty, then the pedestrian decides to move
        // forward immediately" (§IV.c). No randomness consumed.
        return Some(front_k);
    }
    aco_roulette(row, || rng.next_u32())
}

/// The random proportional rule proper: the reduction, then one draw
/// word from `word` (taken only when the denominator is positive) mapped
/// to `[0, denom)` and walked over the positive numerators.
///
/// With exactly one positive numerator `v` the denominator is `v` itself
/// (every other slot adds 0), so every draw lands on that slot, `+inf`
/// included through the round-off fallback. A row whose lone numerator
/// is 0, −0 or NaN returns `None`. The pooled backend settles
/// one-candidate agents on that argument without drawing.
fn aco_roulette(row: &ScanRow, word: impl FnOnce() -> u32) -> Option<usize> {
    // The reduction the paper performs across the agent's 8 worker threads.
    let denom: f32 = row.vals.iter().sum();
    // NaN-safe: a NaN denominator (pathological parameters) must also bail.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(denom > 0.0) {
        return None;
    }
    let u = philox::uniform_f32(word()) * denom;
    let mut acc = 0.0f32;
    let mut chosen = None;
    for (k, &v) in row.vals.iter().enumerate() {
        if v > 0.0 {
            acc += v;
            chosen = Some(k);
            if u < acc {
                return Some(k);
            }
        }
    }
    // Float round-off can leave u ≥ acc by an ulp; fall back to the last
    // positive slot.
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedsim_grid::cell::{CELL_TOP, CELL_WALL};

    fn open_world(r: i64, c: i64) -> u8 {
        if (0..100).contains(&r) && (0..100).contains(&c) {
            CELL_EMPTY
        } else {
            CELL_WALL
        }
    }

    fn flat_tau(_: i64, _: i64) -> f32 {
        0.1
    }

    fn tables() -> pedsim_grid::DistanceTables {
        pedsim_grid::DistanceTables::new(100)
    }

    fn view(t: &pedsim_grid::DistanceTables) -> DistRef<'_> {
        t.dist_ref()
    }

    #[test]
    fn numerators_follow_distance_ordering() {
        let t = tables();
        let p = AcoParams::default();
        let row = aco_scan_row(&open_world, &flat_tau, view(&t), &p, Group::TOP, 50, 50);
        // With flat pheromone, numerator ordering is pure heuristic:
        // forward (k=0) largest, backward diagonals (6,7) smallest.
        assert!(row.vals[0] > row.vals[1]);
        assert!(row.vals[1] > row.vals[3]);
        assert!(row.vals[3] > row.vals[5]);
        assert!(row.vals[5] > row.vals[6]);
        assert!((row.vals[6] - row.vals[7]).abs() < 1e-10);
    }

    #[test]
    fn occupied_neighbours_get_zero() {
        let t = tables();
        let p = AcoParams::default();
        let occ = |r: i64, c: i64| -> u8 {
            if (r, c) == (51, 50) {
                CELL_TOP
            } else {
                open_world(r, c)
            }
        };
        let row = aco_scan_row(&occ, &flat_tau, view(&t), &p, Group::TOP, 50, 50);
        assert_eq!(row.vals[0], 0.0);
        assert!(row.vals[1] > 0.0);
    }

    #[test]
    fn pheromone_biases_choice() {
        let t = tables();
        let p = AcoParams {
            forward_priority: false,
            ..AcoParams::default()
        };
        // Strong trail on the forward-left diagonal (51, 49).
        let tau = |r: i64, c: i64| -> f32 {
            if (r, c) == (51, 49) {
                50.0
            } else {
                0.05
            }
        };
        let row = aco_scan_row(&open_world, &tau, view(&t), &p, Group::TOP, 50, 50);
        let mut rng = StreamRng::new(5, 11);
        let mut left = 0;
        let n = 2000;
        for _ in 0..n {
            if aco_select(&row, CELL_TOP, Group::TOP.forward_index(), &p, &mut rng) == Some(1) {
                left += 1;
            }
        }
        assert!(
            left > n * 6 / 10,
            "trail-following should dominate: {left}/{n}"
        );
    }

    #[test]
    fn forward_priority_short_circuits() {
        let t = tables();
        let p = AcoParams::default();
        let row = aco_scan_row(&open_world, &flat_tau, view(&t), &p, Group::BOTTOM, 50, 50);
        let mut rng = StreamRng::new(0, 1);
        let k = aco_select(
            &row,
            CELL_EMPTY,
            Group::BOTTOM.forward_index(),
            &p,
            &mut rng,
        );
        assert_eq!(k, Some(Group::BOTTOM.forward_index()));
        let mut rng2 = StreamRng::new(0, 1);
        assert_eq!(rng.next_u32(), rng2.next_u32()); // nothing consumed
    }

    #[test]
    fn boxed_in_returns_none() {
        let row = ScanRow {
            vals: [0.0; 8],
            idxs: [0, 1, 2, 3, 4, 5, 6, 7],
        };
        let p = AcoParams::default();
        let mut rng = StreamRng::new(1, 1);
        assert_eq!(
            aco_select(&row, CELL_TOP, Group::TOP.forward_index(), &p, &mut rng),
            None
        );
    }

    #[test]
    fn selection_is_proportional() {
        // Two candidates with 3:1 numerators → ~75/25 split.
        let mut row = ScanRow::empty();
        row.vals[2] = 3.0;
        row.vals[4] = 1.0;
        row.idxs = [0, 1, 2, 3, 4, 5, 6, 7];
        let p = AcoParams {
            forward_priority: false,
            ..AcoParams::default()
        };
        let mut rng = StreamRng::new(77, 0);
        let n = 10_000;
        let mut k2 = 0;
        for _ in 0..n {
            match aco_select(&row, CELL_TOP, Group::TOP.forward_index(), &p, &mut rng) {
                Some(2) => k2 += 1,
                Some(4) => {}
                other => panic!("unexpected selection {other:?}"),
            }
        }
        let frac = k2 as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn zero_beta_ignores_distance() {
        let t = tables();
        let p = AcoParams {
            beta: 0.0,
            forward_priority: false,
            ..AcoParams::default()
        };
        let row = aco_scan_row(&open_world, &flat_tau, view(&t), &p, Group::TOP, 50, 50);
        // All equal numerators with flat pheromone.
        let first = row.vals[0];
        assert!(row.vals.iter().all(|&v| (v - first).abs() < 1e-9));
    }

    /// The default `α = 1` takes the power-free arm; it must be bit-equal
    /// to the literal `τ.max(0).powf(1)` on a strided sweep of every
    /// non-negative pattern, on `τ₀` and on `+inf`.
    #[test]
    fn unit_alpha_skips_powf_bit_exactly() {
        let eta_beta = 0.37f32;
        let tau0 = AcoParams::default().tau0;
        let sweep = (0..=0x7f80_0000u32).step_by(997).map(f32::from_bits);
        for tau in sweep.chain([tau0, f32::INFINITY, -0.0, -1.5, f32::NAN]) {
            let literal = tau.max(0.0).powf(1.0) * eta_beta;
            assert_eq!(
                aco_numerator(tau, eta_beta, 1.0).to_bits(),
                literal.to_bits(),
                "tau bits {:#x}",
                tau.to_bits()
            );
        }
    }

    /// The one-candidate argument the pooled backend settles agents on:
    /// a row with one positive numerator picks its slot for every draw
    /// word, and a lone 0, −0 or NaN picks nothing.
    #[test]
    fn one_candidate_rows_need_no_draw() {
        let positive = [f32::from_bits(1), 1e-30, 1.0, f32::MAX, f32::INFINITY];
        let words = [0u32, 1, 0xFFFF_FF00, u32::MAX];
        for k in 0..8 {
            let mut row = ScanRow::empty();
            for v in positive {
                row.vals[k] = v;
                for w in words {
                    assert_eq!(
                        aco_roulette(&row, || w),
                        Some(k),
                        "slot {k} v {v} word {w:#x}"
                    );
                }
            }
            for v in [0.0, -0.0, f32::NAN] {
                row.vals[k] = v;
                let drawn = std::cell::Cell::new(false);
                let pick = aco_roulette(&row, || {
                    drawn.set(true);
                    0
                });
                assert_eq!(pick, None, "slot {k} v {v}");
                assert!(!drawn.get(), "slot {k} v {v}: no draw for an empty row");
            }
        }
    }
}
