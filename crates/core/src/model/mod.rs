//! Pure model arithmetic shared verbatim by both engines.
//!
//! Every decision in the simulation — scoring (eqs. 1–2), selection, and
//! movement-conflict resolution — is implemented here as a pure function of
//! cell state and counter-based random draws. The CPU reference engine and
//! the virtual-GPU engine call the *same* functions with the same RNG
//! keying, which is why their trajectories are bit-identical (the paper's
//! Figure 6b had to settle for a statistical comparison; we can assert
//! equality and then reproduce the statistical analysis on top).

pub mod aco;
pub mod lem;
pub mod movement;

pub(crate) use aco::aco_numerator;
pub use aco::{aco_scan_row, aco_select};
pub use lem::{lem_scan_row, lem_select};
pub use movement::{gather_winner, Arrival};

use pedsim_grid::cell::{CELL_EMPTY, NEIGHBOR_OFFSETS};

/// One agent's scan row: up to eight `(value, neighbour index)` slots.
///
/// LEM fills it with candidate distances in ascending order (invalid tail
/// slots have `idx = SCAN_INVALID`); ACO fills slot `k` with neighbour
/// `k`'s eq. (2) numerator (0 for unavailable neighbours).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanRow {
    /// Scan values.
    pub vals: [f32; 8],
    /// Neighbour indices, [`pedsim_grid::scan::SCAN_INVALID`] when unused.
    pub idxs: [u8; 8],
}

impl ScanRow {
    /// An all-invalid row.
    pub fn empty() -> Self {
        Self {
            vals: [0.0; 8],
            idxs: [pedsim_grid::scan::SCAN_INVALID; 8],
        }
    }
}

/// The contents of an agent's *front cell* — neighbour slot `front_k` of
/// the agent at `(r, c)` — reading occupancy through `occ` (which must
/// return [`pedsim_grid::CELL_WALL`] outside the environment).
///
/// `front_k` comes from [`pedsim_grid::DistRef::front_k`]: the
/// distance-argmin neighbour, which for the paper's row-distance corridor
/// is exactly the group's row-forward cell (paper Cell #1/#6) and for
/// flow-field worlds points downhill toward the target around obstacles.
#[inline]
pub fn front_status(occ: &impl Fn(i64, i64) -> u8, front_k: usize, r: i64, c: i64) -> u8 {
    let (dr, dc) = NEIGHBOR_OFFSETS[front_k];
    occ(r + dr, c + dc)
}

/// The availability byte of the agent at `(r, c)`: bit `k` is set when
/// neighbour `NEIGHBOR_OFFSETS[k]` is empty, reading occupancy through
/// `occ` (which must return [`pedsim_grid::CELL_WALL`] outside the
/// environment). [`lem_scan_row`] takes it in place of re-reading the
/// neighbours, and the pooled decide pass answers every occupancy
/// question of a decision from it.
#[inline]
pub fn availability(occ: &impl Fn(i64, i64) -> u8, r: i64, c: i64) -> u8 {
    let mut avail = 0u8;
    for (k, &(dr, dc)) in NEIGHBOR_OFFSETS.iter().enumerate() {
        avail |= u8::from(occ(r + dr, c + dc) == CELL_EMPTY) << k;
    }
    avail
}

/// Whether a front-status byte means "free to step into".
#[inline]
pub fn front_is_empty(front: u8) -> bool {
    front == CELL_EMPTY
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedsim_grid::cell::{Group, CELL_TOP, CELL_WALL};

    #[test]
    fn front_status_reads_front_cell() {
        // A 3x3 sandbox: top agent at (1,1), another agent at (2,1).
        let occ = |r: i64, c: i64| -> u8 {
            if !(0..3).contains(&r) || !(0..3).contains(&c) {
                CELL_WALL
            } else if (r, c) == (2, 1) {
                CELL_TOP
            } else {
                CELL_EMPTY
            }
        };
        assert_eq!(
            front_status(&occ, Group::TOP.forward_index(), 1, 1),
            CELL_TOP
        );
        assert_eq!(
            front_status(&occ, Group::BOTTOM.forward_index(), 1, 1),
            CELL_EMPTY
        );
        // At the edge, the forward cell is the wall.
        assert_eq!(
            front_status(&occ, Group::BOTTOM.forward_index(), 0, 1),
            CELL_WALL
        );
        assert!(front_is_empty(CELL_EMPTY));
        assert!(!front_is_empty(CELL_WALL));
        // Corner (0,0): only neighbours 0, 2 and 4 lie inside, all free.
        assert_eq!(availability(&occ, 0, 0), 0b1_0101);
        // The centre sees all 8 neighbours but the agent at (2,1) (k = 0).
        assert_eq!(availability(&occ, 1, 1), 0b1111_1110);
    }
}
