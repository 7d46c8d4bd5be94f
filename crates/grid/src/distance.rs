//! Pre-computed distance tables (the paper's constant-memory distance
//! matrix, §IV.a), generalised to N directional groups.
//!
//! For an agent of group *g* standing in row *r*, the paper needs the
//! distance from each of its eight neighbour cells to the agent's target —
//! the far edge of the environment. The distance is measured to the point
//! of the target row directly ahead of the agent, so a lateral offset
//! *does* cost: with vertical distance `d = |target_row − (r + dr)|` and
//! lateral offset `dc`, the table holds `√(d² + dc²)`.
//!
//! This reproduces the strict ordering the paper states for a top agent
//! (§IV.b): Cell #1 (forward, `d−1`) < #2 = #3 (forward diagonals,
//! `√((d−1)²+1)`) < #4 = #5 (lateral, `√(d²+1)`) < #6 (backward, `d+1`)
//! < #7 = #8 (backward diagonals) — and symmetrically for bottom agents.
//!
//! Distances are clamped to a small positive floor so eq. (1)'s
//! `D_min / D_i` and eq. (2)'s `η = 1/D` stay finite for agents standing on
//! the target row itself (the paper requires `D_i ≠ 0`).
//!
//! ## Group indexing
//!
//! A flattened field holds one plane per group, indexed by
//! [`Group::index`]; alongside the planes it carries each group's *forward
//! neighbour slot* (derived from the group's [`crate::cell::Heading`]),
//! which anchors forward-priority movement and flow-field tie-breaking.
//! The row-table fast path is inherently two-group (it encodes "how far is
//! the far edge"); worlds with more groups or non-edge targets route
//! through the grid layout.

use crate::cell::{Group, Heading, NEIGHBOR_OFFSETS};

/// Floor applied to all distances (cells); keeps `1/D` finite.
pub const DISTANCE_FLOOR: f32 = 0.5;

/// Memory layout of a flattened distance field (what the kernels receive
/// in constant memory alongside the raw `&[f32]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceKind {
    /// The paper's row-based tables: `[group][row][neighbour]`, `2·H·8`
    /// entries. Valid only for obstacle-free two-group worlds whose
    /// targets are the full opposite edges.
    Rows,
    /// A per-group flow-field potential: `[group][row][col]`, `G·H·W`
    /// entries holding each cell's (floored) shortest-path distance to the
    /// group's target region; walls and unreachable cells hold `f32::MAX`.
    Grid,
}

/// The default forward slots when a field is built without explicit
/// headings: groups 0/1 keep the paper's down/up corridor convention, and
/// further groups cycle right/left — multi-group scenarios always override
/// this with their derived headings.
pub fn default_forward_slots(groups: usize) -> Vec<u8> {
    const CYCLE: [Heading; 4] = [Heading::Down, Heading::Up, Heading::Right, Heading::Left];
    (0..groups)
        .map(|g| CYCLE[g % 4].forward_index() as u8)
        .collect()
}

/// A borrowed, layout-tagged view over a flattened distance field — the
/// form both engines and all kernels consume, so the constant-memory
/// upload stays a plain `Vec<f32>` (plus, for the grid layout, the `u8`
/// front-slot plane) whichever layout backs it.
#[derive(Debug, Clone, Copy)]
pub struct DistRef<'a> {
    /// Layout of `data`.
    pub kind: DistanceKind,
    /// Environment height.
    pub height: usize,
    /// Environment width.
    pub width: usize,
    /// Group planes held in `data`.
    pub groups: usize,
    /// Per-group forward neighbour slot (`forward[g]` is group `g`'s
    /// heading's [`Heading::forward_index`]).
    pub forward: &'a [u8],
    /// The flattened field.
    pub data: &'a [f32],
    /// The compiled front-slot plane of a grid layout, `[group][row][col]`
    /// (see [`DistanceData::front`]); empty for the row layout.
    pub front: &'a [u8],
}

impl DistRef<'_> {
    /// Index into `data` of the distance [`DistRef::neighbor`] reads for
    /// the `k`-th neighbour of a group-`g` agent at `(r, c)`, or `None`
    /// when that neighbour lies outside the grid (grid layout only).
    /// Tables mapped over `data` are read with this index.
    #[inline]
    pub fn neighbor_index(&self, g: Group, r: i64, c: i64, k: usize) -> Option<usize> {
        debug_assert!(g.index() < self.groups, "group plane out of range");
        match self.kind {
            DistanceKind::Rows => Some((g.index() * self.height + r as usize) * 8 + k),
            DistanceKind::Grid => {
                let (dr, dc) = NEIGHBOR_OFFSETS[k];
                let (nr, nc) = (r + dr, c + dc);
                if nr < 0 || nc < 0 || nr as usize >= self.height || nc as usize >= self.width {
                    None
                } else {
                    Some((g.index() * self.height + nr as usize) * self.width + nc as usize)
                }
            }
        }
    }

    /// Distance from the `k`-th neighbour of a group-`g` agent at `(r, c)`
    /// to that agent's target. Out-of-bounds neighbours (grid layout only)
    /// read as `f32::MAX`; such neighbours are walls to the caller anyway.
    #[inline]
    pub fn neighbor(&self, g: Group, r: i64, c: i64, k: usize) -> f32 {
        self.neighbor_index(g, r, c, k)
            .map_or(f32::MAX, |i| self.data[i])
    }

    /// The forward neighbour slot of group `g` (its heading's
    /// [`Heading::forward_index`]).
    #[inline]
    pub fn forward_k(&self, g: Group) -> usize {
        self.forward[g.index()] as usize
    }

    /// The neighbour slot a group-`g` agent at `(r, c)` treats as its
    /// *front cell* (the forward-priority target): the distance-argmin
    /// neighbour, ties broken toward the group's forward slot.
    ///
    /// For the grid layout this is one read of the compiled front-slot
    /// plane ([`DistanceData::front`]). For the row layout the argmin
    /// provably *is* the forward cell (paper §IV.b's strict ordering; the
    /// only tie is with the backward cell when the agent stands on its own
    /// target row, which the tie-break resolves forward), so this returns
    /// the group's forward slot without touching the data — the legacy
    /// corridor behaviour, bit for bit.
    #[inline]
    pub fn front_k(&self, g: Group, r: i64, c: i64) -> usize {
        match self.kind {
            DistanceKind::Rows => self.forward_k(g),
            DistanceKind::Grid => {
                self.front[(g.index() * self.height + r as usize) * self.width + c as usize]
                    as usize
            }
        }
    }
}

/// Compile the front-slot plane of the field `view` reads: for every
/// (group, cell), the distance-argmin neighbour slot, ties broken toward
/// the group's forward slot — what [`DistRef::front_k`] reads for the grid
/// layout. The row layout needs no plane (its front slot is the forward
/// slot) and gets an empty one. The plane is step-invariant, so it is
/// built once with the field, after its forward slots are fixed.
fn front_plane(view: DistRef<'_>) -> Vec<u8> {
    if view.kind == DistanceKind::Rows {
        return Vec::new();
    }
    let mut plane = Vec::with_capacity(view.groups * view.height * view.width);
    for g in Group::first_n(view.groups) {
        let fwd = view.forward_k(g);
        for r in 0..view.height as i64 {
            for c in 0..view.width as i64 {
                // Starting from the forward slot, only a strictly closer
                // neighbour displaces it: the tie-break.
                let mut best = fwd;
                let mut best_d = view.neighbor(g, r, c, best);
                for k in 0..8 {
                    let d = view.neighbor(g, r, c, k);
                    if d < best_d {
                        best = k;
                        best_d = d;
                    }
                }
                plane.push(best as u8);
            }
        }
    }
    plane
}

/// An owned, layout-tagged flattened distance field — what an engine holds
/// and what gets uploaded into a constant buffer. Built from any
/// [`DistanceField`] implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceData {
    /// Layout of `data`.
    pub kind: DistanceKind,
    /// Environment height.
    pub height: usize,
    /// Environment width (0 for the row layout, which ignores it).
    pub width: usize,
    /// Group planes held in `data`.
    pub groups: usize,
    /// Per-group forward neighbour slots.
    pub forward: Vec<u8>,
    /// The flattened field.
    pub data: Vec<f32>,
    /// The grid layout's compiled front-slot plane, `[group][row][col]`:
    /// each cell's distance-argmin neighbour slot, ties broken toward the
    /// group's forward slot. Empty for the row layout.
    pub front: Vec<u8>,
}

impl DistanceData {
    /// Snapshot a field into owned form, taking the field's own forward
    /// slots ([`DistanceField::forward_slots`]), and compile its
    /// front-slot plane.
    pub fn from_field(field: &impl DistanceField) -> Self {
        let mut out = Self {
            kind: field.kind(),
            height: field.field_height(),
            width: field.field_width(),
            groups: field.field_groups(),
            forward: field.forward_slots(),
            data: field.flat().to_vec(),
            front: Vec::new(),
        };
        out.front = front_plane(out.dist_ref());
        out
    }

    /// The paper's row tables for an obstacle-free two-group corridor of
    /// `height`.
    pub fn rows(height: usize) -> Self {
        Self::from_field(&DistanceTables::new(height))
    }

    /// A layout-tagged borrowed view.
    #[inline]
    pub fn dist_ref(&self) -> DistRef<'_> {
        DistRef {
            kind: self.kind,
            height: self.height,
            width: self.width,
            groups: self.groups,
            forward: &self.forward,
            data: &self.data,
            front: &self.front,
        }
    }
}

/// A distance-to-target field usable by the simulation: the row-based
/// [`DistanceTables`] fast path for obstacle-free two-group corridors, or
/// the per-group [`crate::flowfield::GridDistanceField`] for worlds with
/// interior obstacles, non-edge targets, or more than two groups.
pub trait DistanceField {
    /// Layout of the flattened data.
    fn kind(&self) -> DistanceKind;

    /// Environment height the field was built for.
    fn field_height(&self) -> usize;

    /// Environment width the field was built for.
    fn field_width(&self) -> usize;

    /// Group planes the field holds.
    fn field_groups(&self) -> usize;

    /// Per-group forward neighbour slots
    /// (defaults to [`default_forward_slots`]).
    fn forward_slots(&self) -> Vec<u8> {
        default_forward_slots(self.field_groups())
    }

    /// The flattened field (what gets uploaded to constant memory).
    fn flat(&self) -> &[f32];
}

/// Per-(group, row, neighbour) distances to target for the classic
/// two-group corridor, laid out for constant memory: `[group][row][k]`
/// flattened row-major.
#[derive(Debug, Clone)]
pub struct DistanceTables {
    height: usize,
    /// `2 * height * 8` entries.
    data: Vec<f32>,
}

impl DistanceTables {
    /// Build the tables for an environment of `height` rows.
    pub fn new(height: usize) -> Self {
        assert!(height >= 2, "environment must have at least two rows");
        let mut data = Vec::with_capacity(2 * height * 8);
        for group in Group::BOTH {
            let target = group.target_row(height) as i64;
            for row in 0..height as i64 {
                for (dr, dc) in NEIGHBOR_OFFSETS {
                    let vert = (target - (row + dr)) as f32;
                    let lat = dc as f32;
                    let d = (vert * vert + lat * lat).sqrt();
                    data.push(d.max(DISTANCE_FLOOR));
                }
            }
        }
        Self { height, data }
    }

    /// Distance from the `k`-th neighbour of a group-`g` agent in `row` to
    /// that agent's target.
    #[inline]
    pub fn get(&self, g: Group, row: usize, k: usize) -> f32 {
        debug_assert!(row < self.height && k < 8);
        self.data[(g.index() * self.height + row) * 8 + k]
    }

    /// Minimum over the eight neighbours (eq. (1)'s `D_min`).
    #[inline]
    pub fn min_for(&self, g: Group, row: usize) -> f32 {
        let base = (g.index() * self.height + row) * 8;
        self.data[base..base + 8]
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min)
    }

    /// The raw flattened table (for upload into a `ConstantBuffer`).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Environment height the tables were built for.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// A layout-tagged borrowed view (the paper's two-group forward
    /// convention).
    pub fn dist_ref(&self) -> DistRef<'_> {
        const ROWS_FORWARD: [u8; 2] = [0, 5];
        DistRef {
            kind: DistanceKind::Rows,
            height: self.height,
            width: 0,
            groups: 2,
            forward: &ROWS_FORWARD,
            data: &self.data,
            front: &[],
        }
    }
}

impl DistanceField for DistanceTables {
    fn kind(&self) -> DistanceKind {
        DistanceKind::Rows
    }

    fn field_height(&self) -> usize {
        self.height
    }

    /// The row layout is column-independent; the width slot of the view is
    /// unused.
    fn field_width(&self) -> usize {
        0
    }

    fn field_groups(&self) -> usize {
        2
    }

    fn flat(&self) -> &[f32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ordering_for_top_agent() {
        let t = DistanceTables::new(480);
        let row = 100; // mid-environment, target row 479, d = 379
        let d: Vec<f32> = (0..8).map(|k| t.get(Group::TOP, row, k)).collect();
        // #1 < #2 = #3 < #4 = #5 < #6 < #7 = #8 (0-based indices 0..8)
        assert!(d[0] < d[1]);
        assert!((d[1] - d[2]).abs() < 1e-6);
        assert!(d[2] < d[3]);
        assert!((d[3] - d[4]).abs() < 1e-6);
        assert!(d[4] < d[5]);
        assert!(d[5] < d[6]);
        assert!((d[6] - d[7]).abs() < 1e-6);
    }

    #[test]
    fn paper_ordering_for_bottom_agent_mirrors() {
        let t = DistanceTables::new(480);
        let row = 300; // target row 0
                       // For a bottom agent the forward cell is k=5 (#6).
        let d: Vec<f32> = (0..8).map(|k| t.get(Group::BOTTOM, row, k)).collect();
        assert!(d[5] < d[6]);
        assert!((d[6] - d[7]).abs() < 1e-6);
        assert!(d[6] < d[3]);
        assert!(d[3] < d[0]);
        assert!(d[0] < d[1]);
    }

    #[test]
    fn forward_distance_decrements_per_row() {
        let t = DistanceTables::new(100);
        // Top agent: forward distance from row r is (99 - (r+1)).
        assert!((t.get(Group::TOP, 10, 0) - 88.0).abs() < 1e-5);
        assert!((t.get(Group::TOP, 97, 0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn floor_applies_at_target() {
        let t = DistanceTables::new(100);
        // One row short of the target: the forward cell *is* the target
        // (distance zero) → floored to keep 1/D finite.
        assert_eq!(t.get(Group::TOP, 98, 0), DISTANCE_FLOOR);
        assert_eq!(t.get(Group::BOTTOM, 1, 5), DISTANCE_FLOOR);
        assert!(t.as_slice().iter().all(|&d| d >= DISTANCE_FLOOR));
    }

    #[test]
    fn min_is_forward_cell_mid_grid() {
        let t = DistanceTables::new(480);
        assert_eq!(t.min_for(Group::TOP, 200), t.get(Group::TOP, 200, 0));
        assert_eq!(t.min_for(Group::BOTTOM, 200), t.get(Group::BOTTOM, 200, 5));
    }

    #[test]
    fn dist_ref_matches_tables() {
        let t = DistanceTables::new(64);
        let v = t.dist_ref();
        assert_eq!(v.kind, DistanceKind::Rows);
        assert_eq!(v.groups, 2);
        for row in [0i64, 17, 63] {
            for k in 0..8 {
                assert_eq!(
                    v.neighbor(Group::TOP, row, 30, k),
                    t.get(Group::TOP, row as usize, k)
                );
            }
            // The row fast path's front cell is the group-forward cell.
            assert_eq!(v.front_k(Group::TOP, row, 30), Group::TOP.forward_index());
            assert_eq!(
                v.front_k(Group::BOTTOM, row, 30),
                Group::BOTTOM.forward_index()
            );
        }
    }

    #[test]
    fn row_argmin_is_forward_everywhere() {
        // The claim front_k relies on: over every row, no neighbour beats
        // the group-forward cell (ties allowed).
        for height in [4usize, 17, 480] {
            let t = DistanceTables::new(height);
            for g in Group::BOTH {
                for row in 0..height {
                    let fwd = t.get(g, row, g.forward_index());
                    for k in 0..8 {
                        assert!(
                            t.get(g, row, k) >= fwd - 1e-6,
                            "h={height} {g:?} row={row} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn default_forward_slots_keep_corridor_convention() {
        assert_eq!(default_forward_slots(2), vec![0, 5]);
        assert_eq!(default_forward_slots(4), vec![0, 5, 4, 3]);
    }

    #[test]
    fn forward_slots_anchor_the_front_plane_tie_break() {
        // A right-edge target on an open 6×6 plaza: from (3, 2) the three
        // rightward neighbours (slots 2, 4 and 7) tie at distance 2, so
        // the forward slot alone picks the front cell.
        let (h, w) = (6usize, 6usize);
        let right: Vec<(u16, u16)> = (0..h).map(|r| (r as u16, (w - 1) as u16)).collect();
        let field = crate::flowfield::GridDistanceField::compute(h, w, |_, _| false, &[&right]);
        let d = DistanceData::from_field(&field.clone().with_forward(vec![4]));
        let v = d.dist_ref();
        for k in [2, 4, 7] {
            assert_eq!(v.neighbor(Group::TOP, 3, 2, k), 2.0);
        }
        assert_eq!(v.front_k(Group::TOP, 3, 2), 4);
        let d = DistanceData::from_field(&field.with_forward(vec![2]));
        assert_eq!(d.dist_ref().front_k(Group::TOP, 3, 2), 2);
        assert_eq!(d.front.len(), h * w);
    }
}
