//! Flow-field routing: per-group shortest-path distances to arbitrary
//! target regions around interior obstacles.
//!
//! The paper's constant-memory distance matrix (§IV.a) only encodes "how
//! far is the far edge", which cannot express doorways, pillars, or
//! crossing streams. [`GridDistanceField`] generalises it: a multi-source
//! Dijkstra from each group's target cells over the eight-connected grid
//! (straight steps cost 1, diagonal steps √2 — the same [`MOVE_LEN`]
//! increments the tour kernel accumulates), with obstacle cells
//! impassable. The result is a per-cell *potential*; an agent descending
//! the potential greedily walks a shortest path to its target, and the
//! models consume it through exactly the same `D` slots eq. (1) and
//! eq. (2)'s `η = 1/D` already use. One potential plane is computed per
//! directional group, so any number of intersecting streams (up to
//! [`crate::cell::MAX_GROUPS`]) route independently.
//!
//! Distances are floored at [`DISTANCE_FLOOR`] like the row tables, and
//! walls/unreachable cells hold `f32::MAX` so they sort last and score
//! `η ≈ 0`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::cell::{Group, MAX_GROUPS, MOVE_LEN, NEIGHBOR_OFFSETS};
use crate::distance::{default_forward_slots, DistanceField, DistanceKind, DISTANCE_FLOOR};

/// Sentinel potential for walls and unreachable cells.
pub const UNREACHABLE: f32 = f32::MAX;

/// Per-group grid of (floored) shortest-path distances to the group's
/// target region, laid out `[group][row][col]` for constant memory.
#[derive(Debug, Clone, PartialEq)]
pub struct GridDistanceField {
    height: usize,
    width: usize,
    groups: usize,
    /// Per-group forward neighbour slot (tie-break anchor of `front_k`).
    forward: Vec<u8>,
    /// `groups * height * width` entries.
    data: Vec<f32>,
}

/// Max-heap entry ordered so the *smallest* tentative distance pops first.
struct HeapEntry {
    dist: f32,
    cell: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.cell == other.cell
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed on distance (min-heap behaviour); cell id tie-break
        // keeps the ordering total.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.cell.cmp(&self.cell))
    }
}

impl GridDistanceField {
    /// Compute one flow field per group for a `height × width` world.
    ///
    /// `is_wall(r, c)` marks impassable interior cells; `targets[g]` lists
    /// each group's target cells (wall targets are ignored). Forward slots
    /// default to [`default_forward_slots`]; scenario worlds override them
    /// via [`GridDistanceField::with_forward`]. Panics if a group has no
    /// passable target cell — a world nobody can finish is a scenario bug,
    /// not a simulation state.
    pub fn compute(
        height: usize,
        width: usize,
        is_wall: impl Fn(usize, usize) -> bool,
        targets: &[&[(u16, u16)]],
    ) -> Self {
        assert!(height >= 2 && width >= 1, "world too small");
        let groups = targets.len();
        assert!(
            (1..=MAX_GROUPS).contains(&groups),
            "group count {groups} out of range 1..={MAX_GROUPS}"
        );
        let cells = height * width;
        let mut data = vec![UNREACHABLE; groups * cells];
        let wall_mask: Vec<bool> = (0..cells).map(|i| is_wall(i / width, i % width)).collect();
        for g in Group::first_n(groups) {
            let plane = &mut data[g.index() * cells..(g.index() + 1) * cells];
            let mut raw = vec![f32::INFINITY; cells];
            let mut heap = BinaryHeap::new();
            for &(r, c) in targets[g.index()] {
                let (r, c) = (r as usize, c as usize);
                assert!(r < height && c < width, "target ({r},{c}) out of bounds");
                let cell = r * width + c;
                if wall_mask[cell] {
                    continue;
                }
                if raw[cell] > 0.0 {
                    raw[cell] = 0.0;
                    heap.push(HeapEntry {
                        dist: 0.0,
                        cell: cell as u32,
                    });
                }
            }
            assert!(!heap.is_empty(), "group {g:?} has no passable target cell");
            while let Some(HeapEntry { dist, cell }) = heap.pop() {
                let cell = cell as usize;
                if dist > raw[cell] {
                    continue; // stale entry
                }
                let (r, c) = ((cell / width) as i64, (cell % width) as i64);
                for (k, (dr, dc)) in NEIGHBOR_OFFSETS.iter().enumerate() {
                    let (nr, nc) = (r + dr, c + dc);
                    if nr < 0 || nc < 0 || nr as usize >= height || nc as usize >= width {
                        continue;
                    }
                    let ncell = nr as usize * width + nc as usize;
                    if wall_mask[ncell] {
                        continue;
                    }
                    let nd = dist + MOVE_LEN[k];
                    if nd < raw[ncell] {
                        raw[ncell] = nd;
                        heap.push(HeapEntry {
                            dist: nd,
                            cell: ncell as u32,
                        });
                    }
                }
            }
            for (out, (&d, &wall)) in plane.iter_mut().zip(raw.iter().zip(&wall_mask)) {
                *out = if wall || d.is_infinite() {
                    UNREACHABLE
                } else {
                    d.max(DISTANCE_FLOOR)
                };
            }
        }
        Self {
            height,
            width,
            groups,
            forward: default_forward_slots(groups),
            data,
        }
    }

    /// Override the per-group forward slots (from scenario headings).
    pub fn with_forward(mut self, forward: Vec<u8>) -> Self {
        assert_eq!(
            forward.len(),
            self.groups,
            "forward slots must cover every group plane"
        );
        assert!(forward.iter().all(|&k| (k as usize) < 8));
        self.forward = forward;
        self
    }

    /// Potential of cell `(r, c)` for group `g` ([`UNREACHABLE`] for walls
    /// and cut-off cells).
    #[inline]
    pub fn potential(&self, g: Group, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.height && c < self.width && g.index() < self.groups);
        self.data[(g.index() * self.height + r) * self.width + c]
    }

    /// Whether `(r, c)` can reach group `g`'s target.
    #[inline]
    pub fn reachable(&self, g: Group, r: usize, c: usize) -> bool {
        self.potential(g, r, c) < UNREACHABLE
    }

    /// Environment height.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Environment width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of group planes.
    #[inline]
    pub fn groups(&self) -> usize {
        self.groups
    }
}

impl DistanceField for GridDistanceField {
    fn kind(&self) -> DistanceKind {
        DistanceKind::Grid
    }

    fn field_height(&self) -> usize {
        self.height
    }

    fn field_width(&self) -> usize {
        self.width
    }

    fn field_groups(&self) -> usize {
        self.groups
    }

    fn forward_slots(&self) -> Vec<u8> {
        self.forward.clone()
    }

    fn flat(&self) -> &[f32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceData;

    fn open(_: usize, _: usize) -> bool {
        false
    }

    fn bottom_edge(height: usize, width: usize) -> Vec<(u16, u16)> {
        (0..width)
            .map(|c| ((height - 1) as u16, c as u16))
            .collect()
    }

    fn top_edge(width: usize) -> Vec<(u16, u16)> {
        (0..width).map(|c| (0u16, c as u16)).collect()
    }

    #[test]
    fn open_corridor_matches_vertical_distance() {
        let (h, w) = (12usize, 7usize);
        let (bot, top) = (bottom_edge(h, w), top_edge(w));
        let f = GridDistanceField::compute(h, w, open, &[&bot, &top]);
        for r in 0..h {
            for c in 0..w {
                // Chebyshev-with-diagonals shortest path straight down.
                let expect = ((h - 1 - r) as f32).max(DISTANCE_FLOOR);
                assert!(
                    (f.potential(Group::TOP, r, c) - expect).abs() < 1e-5,
                    "({r},{c})"
                );
                let expect_b = (r as f32).max(DISTANCE_FLOOR);
                assert!((f.potential(Group::BOTTOM, r, c) - expect_b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn wall_row_with_gap_routes_through_the_gap() {
        // 11 rows, 11 cols, full wall on row 5 except column 5.
        let (h, w) = (11usize, 11usize);
        let wall = |r: usize, c: usize| r == 5 && c != 5;
        let (bot, top) = (bottom_edge(h, w), top_edge(w));
        let f = GridDistanceField::compute(h, w, wall, &[&bot, &top]);
        // Above the wall, far from the gap, the detour dominates the
        // straight-line distance.
        let direct = (h - 1) as f32 - 0.0;
        assert!(f.potential(Group::TOP, 0, 0) > direct);
        // The gap cell itself is passable and reachable.
        assert!(f.reachable(Group::TOP, 5, 5));
        // Wall cells are unreachable sentinels.
        assert_eq!(f.potential(Group::TOP, 5, 0), UNREACHABLE);
        // Monotone descent: from anywhere reachable, some neighbour is
        // strictly closer (or we are at the floor already).
        for r in 0..h {
            for c in 0..w {
                if !f.reachable(Group::TOP, r, c) || f.potential(Group::TOP, r, c) <= 1.0 {
                    continue;
                }
                let here = f.potential(Group::TOP, r, c);
                let best = NEIGHBOR_OFFSETS
                    .iter()
                    .filter_map(|(dr, dc)| {
                        let (nr, nc) = (r as i64 + dr, c as i64 + dc);
                        (nr >= 0 && nc >= 0 && (nr as usize) < h && (nc as usize) < w)
                            .then(|| f.potential(Group::TOP, nr as usize, nc as usize))
                    })
                    .fold(f32::INFINITY, f32::min);
                assert!(best < here, "no descent at ({r},{c})");
            }
        }
    }

    #[test]
    fn enclosed_region_is_unreachable() {
        // A 3×3 box of walls around (5,5) in a 10×10 world.
        let wall = |r: usize, c: usize| {
            (4..=6).contains(&r) && (4..=6).contains(&c) && !(r == 5 && c == 5)
        };
        let (bot, top) = (bottom_edge(10, 10), top_edge(10));
        let f = GridDistanceField::compute(10, 10, wall, &[&bot, &top]);
        assert!(!f.reachable(Group::TOP, 5, 5));
        assert!(f.reachable(Group::TOP, 3, 3));
    }

    #[test]
    fn diagonal_steps_cost_sqrt2() {
        // Single target cell at the corner of an open 8×8 world: the
        // opposite corner is 7 diagonal steps away.
        let target = [(7u16, 7u16)];
        let t2 = [(0u16, 0u16)];
        let f = GridDistanceField::compute(8, 8, open, &[&target, &t2]);
        let expect = 7.0 * std::f32::consts::SQRT_2;
        assert!((f.potential(Group::TOP, 0, 0) - expect).abs() < 1e-4);
    }

    #[test]
    fn four_group_planes_route_independently() {
        // Four orthogonal streams on an open 9×9 plaza.
        let (h, w) = (9usize, 9usize);
        let bot = bottom_edge(h, w);
        let top = top_edge(w);
        let right: Vec<(u16, u16)> = (0..h).map(|r| (r as u16, (w - 1) as u16)).collect();
        let left: Vec<(u16, u16)> = (0..h).map(|r| (r as u16, 0u16)).collect();
        let f = GridDistanceField::compute(h, w, open, &[&bot, &top, &right, &left]);
        assert_eq!(f.groups(), 4);
        // Group 2 heads right: its potential falls with the column.
        let g2 = Group::new(2);
        assert!(f.potential(g2, 4, 1) > f.potential(g2, 4, 7));
        assert!((f.potential(g2, 4, 0) - 8.0).abs() < 1e-5);
        // Group 3 heads left.
        let g3 = Group::new(3);
        assert!(f.potential(g3, 4, 7) > f.potential(g3, 4, 1));
        // Row-routed planes are untouched by the extra groups.
        assert!((f.potential(Group::TOP, 0, 4) - 8.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "no passable target")]
    fn all_wall_targets_rejected() {
        let wall = |r: usize, _: usize| r == 9;
        let (bot, top) = (bottom_edge(10, 10), top_edge(10));
        let _ = GridDistanceField::compute(10, 10, wall, &[&bot, &top]);
    }

    #[test]
    #[should_panic(expected = "cover every group plane")]
    fn with_forward_rejects_wrong_arity() {
        let (bot, top) = (bottom_edge(10, 10), top_edge(10));
        let _ = GridDistanceField::compute(10, 10, open, &[&bot, &top]).with_forward(vec![0, 5, 4]);
    }

    #[test]
    fn dist_ref_reads_neighbours() {
        let (h, w) = (6usize, 6usize);
        let (bot, top) = (bottom_edge(h, w), top_edge(w));
        let f = GridDistanceField::compute(h, w, open, &[&bot, &top]);
        let d = DistanceData::from_field(&f);
        let v = d.dist_ref();
        // Neighbour k=0 of (2,3) is (3,3): potential h-1-3 = 2.
        assert!((v.neighbor(Group::TOP, 2, 3, 0) - 2.0).abs() < 1e-6);
        // Out of bounds reads as MAX.
        assert_eq!(v.neighbor(Group::BOTTOM, 0, 0, 5), f32::MAX);
        // Front cell descends the potential.
        assert_eq!(v.front_k(Group::TOP, 2, 3), 0);
        assert_eq!(v.front_k(Group::BOTTOM, 2, 3), 5);
    }

    #[test]
    fn forward_override_steers_tie_breaks() {
        // An open plaza with a single-corner target for group 0: from the
        // far corner the argmin is unique, but from a potential plateau the
        // forward slot anchors the tie-break.
        let (h, w) = (6usize, 6usize);
        let right: Vec<(u16, u16)> = (0..h).map(|r| (r as u16, (w - 1) as u16)).collect();
        let left: Vec<(u16, u16)> = (0..h).map(|r| (r as u16, 0u16)).collect();
        let f = GridDistanceField::compute(h, w, open, &[&right, &left]).with_forward(vec![4, 3]);
        let d = DistanceData::from_field(&f);
        let v = d.dist_ref();
        assert_eq!(v.forward_k(Group::TOP), 4);
        assert_eq!(v.forward_k(Group::BOTTOM), 3);
        // Mid-grid, the rightward group's front cell is its forward slot.
        assert_eq!(v.front_k(Group::TOP, 3, 2), 4);
        assert_eq!(v.front_k(Group::BOTTOM, 3, 2), 3);
    }
}
