//! The Least Effort Model: eq. (1) scoring and rank selection (§II.A).
//!
//! Eq. (1) scores each neighbour `i` as `C_i = (1 − n_i)(D_min / D_i)` —
//! zero for occupied cells, approaching 1 for the nearest-to-target empty
//! cell. Since `D_min/D_i` is strictly decreasing in `D_i`, ranking
//! candidates by `C_i` descending is identical to ranking by distance
//! ascending; the paper stores the scan row "in the increasing order of
//! value \[distance\]" and we do the same, keeping the paired neighbour
//! index.
//!
//! Selection draws a normal sample, clamps negatives to rank 0 and
//! overflows to the worst rank (§II.A), so the nearest-to-target candidate
//! is chosen most often — the "least effort" in the model's name.

use pedsim_grid::cell::{Group, CELL_EMPTY};
use pedsim_grid::distance::DistRef;
use pedsim_grid::scan::SCAN_INVALID;
use philox::{ClampedNormal, StreamRng};

use crate::params::LemParams;

use super::ScanRow;

/// Build a LEM scan row for a group-`g` agent at `(r, c)`: available
/// neighbours' target distances, sorted ascending (ties broken by
/// neighbour index, so the ordering is total and engine-independent).
///
/// `avail` is the agent's [`availability`](super::availability) byte,
/// which names the available neighbours. `dist` is the layout-tagged
/// distance view — row tables for the paper's corridor, a flow field for
/// obstacle worlds. `scan_range > 1` enables the look-ahead congestion
/// penalty of `extensions::ranges` (paper future work), which reads the
/// cells beyond the neighbours through `occ` (the cell label,
/// [`pedsim_grid::CELL_WALL`] outside the environment); `1` is the paper
/// baseline and never calls `occ`.
pub fn lem_scan_row(
    avail: u8,
    occ: &impl Fn(i64, i64) -> u8,
    dist: DistRef<'_>,
    g: Group,
    r: i64,
    c: i64,
    scan_range: u8,
) -> ScanRow {
    let mut row = ScanRow::empty();
    let mut filled = 0usize;
    let mut bits = avail;
    while bits != 0 {
        let k = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let mut d = dist.neighbor(g, r, c, k);
        if scan_range > 1 {
            let cong = crate::extensions::ranges::ray_congestion(occ, r, c, k, scan_range);
            d = crate::extensions::ranges::penalised_distance(d, cong);
        }
        // Insertion sort into the prefix [0, filled): 8 elements max.
        let mut j = filled;
        while j > 0 && row.vals[j - 1] > d {
            row.vals[j] = row.vals[j - 1];
            row.idxs[j] = row.idxs[j - 1];
            j -= 1;
        }
        row.vals[j] = d;
        row.idxs[j] = k as u8;
        filled += 1;
    }
    row
}

/// Pick the next cell for an agent with scan row `row` whose front cell
/// (neighbour slot `front_k`, from [`DistRef::front_k`]) has status
/// `front`. Returns the chosen neighbour index, or `None` when no move is
/// possible.
///
/// Consumes at most two 32-bit draws from `rng` — call with a stream keyed
/// by the agent index and the step salt so both engines agree.
pub fn lem_select(
    row: &ScanRow,
    front: u8,
    front_k: usize,
    params: &LemParams,
    rng: &mut StreamRng,
) -> Option<usize> {
    if params.forward_priority && front == CELL_EMPTY {
        // The paper's modification: an empty forward cell is taken without
        // further calculation (§III). No randomness consumed.
        return Some(front_k);
    }
    let candidates = row.idxs.iter().take_while(|&&i| i != SCAN_INVALID).count();
    if candidates == 0 {
        return None;
    }
    let cn = ClampedNormal::new(params.sigma);
    let rank = cn.rank(rng.next_u32(), rng.next_u32(), (candidates - 1) as u32);
    Some(row.idxs[rank as usize] as usize)
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

    fn tables() -> pedsim_grid::DistanceTables {
        pedsim_grid::DistanceTables::new(100)
    }

    fn view(t: &pedsim_grid::DistanceTables) -> DistRef<'_> {
        t.dist_ref()
    }

    /// The paper-baseline scan row of the agent at `(r, c)` in `occ`.
    fn scan(occ: &impl Fn(i64, i64) -> u8, dist: DistRef<'_>, g: Group, r: i64, c: i64) -> ScanRow {
        lem_scan_row(crate::model::availability(occ, r, c), occ, dist, g, r, c, 1)
    }

    #[test]
    fn open_neighbourhood_sorted_ascending() {
        let t = tables();
        let row = scan(&open_world, view(&t), Group::TOP, 50, 50);
        // All 8 available; first is the forward cell (k=0), last a backward
        // diagonal (k=6 or 7).
        assert_eq!(row.idxs[0], 0);
        assert!(row.vals.windows(2).all(|w| w[0] <= w[1]));
        assert!(row.idxs.iter().all(|&i| i != SCAN_INVALID));
        // Paper ordering: forward, fwd diagonals, laterals, back, back diagonals.
        assert_eq!(&sorted_pair(row.idxs[1], row.idxs[2]), &[1, 2]);
        assert_eq!(&sorted_pair(row.idxs[3], row.idxs[4]), &[3, 4]);
        assert_eq!(row.idxs[5], 5);
        assert_eq!(&sorted_pair(row.idxs[6], row.idxs[7]), &[6, 7]);
    }

    fn sorted_pair(a: u8, b: u8) -> [u8; 2] {
        if a <= b {
            [a, b]
        } else {
            [b, a]
        }
    }

    #[test]
    fn blocked_cells_excluded() {
        let t = tables();
        // Forward cell occupied.
        let occ = |r: i64, c: i64| -> u8 {
            if (r, c) == (51, 50) {
                CELL_TOP
            } else {
                open_world(r, c)
            }
        };
        let row = scan(&occ, view(&t), Group::TOP, 50, 50);
        assert!(row
            .idxs
            .iter()
            .take(7)
            .all(|&i| i != 0 && i != SCAN_INVALID));
        assert_eq!(row.idxs[7], SCAN_INVALID);
    }

    #[test]
    fn corner_agent_sees_three_neighbours() {
        let t = tables();
        let row = scan(&open_world, view(&t), Group::TOP, 0, 0);
        let n = row.idxs.iter().take_while(|&&i| i != SCAN_INVALID).count();
        assert_eq!(n, 3); // S, SE, E
    }

    #[test]
    fn forward_priority_is_deterministic() {
        let t = tables();
        let row = scan(&open_world, view(&t), Group::TOP, 50, 50);
        let mut rng = StreamRng::new(0, 1);
        let k = lem_select(
            &row,
            CELL_EMPTY,
            Group::TOP.forward_index(),
            &LemParams::default(),
            &mut rng,
        );
        assert_eq!(k, Some(0));
        // No randomness consumed: a fresh stream gives the same answer and
        // the two streams stay aligned.
        let mut rng2 = StreamRng::new(0, 1);
        assert_eq!(rng.next_u32(), rng2.next_u32());
    }

    #[test]
    fn boxed_in_agent_cannot_move() {
        let row = ScanRow::empty();
        let mut rng = StreamRng::new(0, 2);
        assert_eq!(
            lem_select(
                &row,
                CELL_TOP,
                Group::TOP.forward_index(),
                &LemParams::default(),
                &mut rng
            ),
            None
        );
    }

    #[test]
    fn blocked_front_picks_low_ranks_most_often() {
        let t = tables();
        let occ = |r: i64, c: i64| -> u8 {
            if (r, c) == (51, 50) {
                CELL_TOP
            } else {
                open_world(r, c)
            }
        };
        let row = scan(&occ, view(&t), Group::TOP, 50, 50);
        let params = LemParams::default();
        let mut rng = StreamRng::new(42, 9);
        let mut counts = [0usize; 8];
        for _ in 0..4000 {
            let k = lem_select(
                &row,
                CELL_TOP,
                Group::TOP.forward_index(),
                &params,
                &mut rng,
            )
            .unwrap();
            counts[k] += 1;
        }
        // Best-ranked candidates are the forward diagonals (k=1, k=2).
        let diag = counts[1] + counts[2];
        assert!(diag > 2000, "forward diagonals should dominate: {counts:?}");
        // Backward diagonals should be rare.
        assert!(counts[6] + counts[7] < diag / 2, "{counts:?}");
    }

    #[test]
    fn selection_respects_candidate_bound() {
        let t = tables();
        let row = scan(&open_world, view(&t), Group::BOTTOM, 0, 0);
        // Bottom agent at its own target edge: 3 candidates.
        let params = LemParams {
            sigma: 50.0, // extreme spread exercises the clamp
            forward_priority: false,
            ..LemParams::default()
        };
        let mut rng = StreamRng::new(3, 3);
        for _ in 0..500 {
            let k = lem_select(
                &row,
                CELL_TOP,
                Group::TOP.forward_index(),
                &params,
                &mut rng,
            )
            .unwrap();
            assert!(row.idxs[..3].contains(&(k as u8)));
        }
    }
}
