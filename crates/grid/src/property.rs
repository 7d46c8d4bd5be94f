//! The per-agent property table (paper Table I, §IV.a).
//!
//! The paper stores one row per pedestrian plus a 0th sentinel row "to
//! avoid warp divergence within the simulation steps": threads assigned to
//! empty cells read index 0 from the index matrix and harmlessly operate on
//! row 0 instead of branching. The same convention is kept here.
//!
//! The layout is struct-of-arrays rather than the paper's array-of-rows:
//! each simulation kernel then reads and writes *disjoint* field vectors
//! (e.g. the movement kernel reads `future_*` and writes `pos`), which is
//! what lets the Rust engines run the kernels in parallel without locks.
//!
//! Departures from Table I:
//! * ROW and COLUMN are one linear cell, `pos = row·width + col` (`u32`).
//!   The table holds an agent's position once; a kernel that needs the
//!   coordinates derives them as `(pos / width, pos % width)`.
//! * The EMPTY column (unused) is dropped.
//! * The INDEX NO column is implicit: an agent's index *is* its row
//!   number.

/// Sentinel for "no future cell chosen" in `future_row`/`future_col`.
///
/// The paper initialises FUTURE ROW/COLUMN to 0, which is ambiguous with
/// the real cell (0,0); a `u16::MAX` sentinel removes the ambiguity.
pub const NO_FUTURE: u16 = u16::MAX;

/// Struct-of-arrays agent records; index 0 is the sentinel row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyTable {
    /// Group label (1 top, 2 bottom); 0 in the sentinel row.
    pub id: Vec<u8>,
    /// Current cell per agent, linear: `row·width + col` (Table I's ROW
    /// and COLUMN). A dead slot keeps the cell it last stood on.
    pub pos: Vec<u32>,
    /// Chosen next row ([`NO_FUTURE`] when none).
    pub future_row: Vec<u16>,
    /// Chosen next column ([`NO_FUTURE`] when none).
    pub future_col: Vec<u16>,
    /// Contents of the agent's front cell, refreshed each step
    /// (the Table-I FRONT CELL field).
    pub front: Vec<u8>,
    /// Which neighbour slot (0–7) is the agent's front cell this step: the
    /// distance-argmin neighbour. For the paper's row-distance corridor
    /// this is always the group's row-forward cell; flow-field worlds
    /// point it downhill around obstacles.
    pub front_k: Vec<u8>,
}

impl PropertyTable {
    /// A table for `n_agents` agents (rows `1..=n_agents` live, row 0
    /// sentinel).
    pub fn new(n_agents: usize) -> Self {
        let n = n_agents + 1;
        Self {
            id: vec![0; n],
            pos: vec![0; n],
            future_row: vec![NO_FUTURE; n],
            future_col: vec![NO_FUTURE; n],
            front: vec![0; n],
            front_k: vec![0; n],
        }
    }

    /// Number of live agents (excludes the sentinel row).
    #[inline]
    pub fn agent_count(&self) -> usize {
        self.id.len() - 1
    }

    /// Total rows including the sentinel.
    #[inline]
    pub fn rows(&self) -> usize {
        self.id.len()
    }

    /// Register agent `idx` (1-based) at the linear cell `lin` with
    /// `label`.
    pub fn place(&mut self, idx: usize, label: u8, lin: u32) {
        debug_assert!(idx >= 1 && idx < self.rows(), "agent index out of range");
        self.id[idx] = label;
        self.pos[idx] = lin;
        self.future_row[idx] = NO_FUTURE;
        self.future_col[idx] = NO_FUTURE;
        self.front[idx] = 0;
        self.front_k[idx] = 0;
    }

    /// Whether agent `idx` has a pending future cell.
    #[inline]
    pub fn has_future(&self, idx: usize) -> bool {
        self.future_row[idx] != NO_FUTURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_row_exists() {
        let t = PropertyTable::new(10);
        assert_eq!(t.rows(), 11);
        assert_eq!(t.agent_count(), 10);
        assert_eq!(t.id[0], 0);
    }

    #[test]
    fn place_and_query() {
        let mut t = PropertyTable::new(3);
        t.place(2, 1, 5 * 16 + 7);
        assert_eq!(t.pos[2], 87);
        assert_eq!(t.id[2], 1);
        assert!(!t.has_future(2));
        t.future_row[2] = 6;
        t.future_col[2] = 7;
        assert!(t.has_future(2));
    }
}
