//! The assembled simulation environment: `mat`, index matrix, property
//! table, and the scenario geometry (the paper's data-preparation output).

use std::sync::Arc;

use philox::StreamRng;

use crate::cell::{Group, CELL_EMPTY, CELL_WALL, MAX_GROUPS};
use crate::matrix::Matrix;
use crate::placement::place_confined;
use crate::property::PropertyTable;

/// The largest grid side: cell coordinates are `u16` (scenario regions,
/// walls and FUTURE ROW/COLUMN), and the bound also keeps the linear cell
/// `row·width + col` inside `u32`.
pub const MAX_SIDE: usize = u16::MAX as usize;

/// Scenario geometry and population for the paper's classic two-group
/// corridor (scenario worlds describe themselves through
/// `pedsim-scenario` instead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvConfig {
    /// Environment width in cells (the paper uses 480).
    pub width: usize,
    /// Environment height in cells (480).
    pub height: usize,
    /// Pedestrians per group (half the total population).
    pub agents_per_side: usize,
    /// Rows of the spawn band at each edge. `None` derives it from
    /// [`EnvConfig::spawn_fill`].
    pub spawn_rows: Option<usize>,
    /// Target occupancy of the spawn band when deriving `spawn_rows`.
    /// The paper's Figure 2a example has 29 agents in a 3×16 band ≈ 0.6.
    pub spawn_fill: f64,
    /// Placement seed (stream 0/1 of this seed drive the two groups).
    pub seed: u64,
}

impl EnvConfig {
    /// The paper's evaluation geometry: 480×480 cells, spawn bands derived
    /// at 0.6 fill. `total_agents` is split evenly between the groups.
    pub fn paper(total_agents: usize) -> Self {
        Self {
            width: 480,
            height: 480,
            agents_per_side: total_agents / 2,
            spawn_rows: None,
            spawn_fill: 0.6,
            seed: 0,
        }
    }

    /// A reduced geometry for tests and examples.
    pub fn small(width: usize, height: usize, agents_per_side: usize) -> Self {
        Self {
            width,
            height,
            agents_per_side,
            spawn_rows: None,
            spawn_fill: 0.6,
            seed: 0,
        }
    }

    /// Set the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Explicit spawn-band rows (builder style).
    pub fn with_spawn_rows(mut self, rows: usize) -> Self {
        self.spawn_rows = Some(rows);
        self
    }

    /// The effective spawn-band rows: enough rows that the band sits at
    /// roughly [`EnvConfig::spawn_fill`] occupancy (rounded to the nearest
    /// row count), but never fewer than the agents strictly require.
    pub fn effective_spawn_rows(&self) -> usize {
        self.spawn_rows.unwrap_or_else(|| {
            let by_fill =
                (self.agents_per_side as f64 / (self.width as f64 * self.spawn_fill)).round();
            let minimum = self.agents_per_side.div_ceil(self.width);
            (by_fill as usize).max(minimum).max(1)
        })
    }

    /// Total population.
    pub fn total_agents(&self) -> usize {
        self.agents_per_side * 2
    }
}

/// A group's pool of recyclable property slots. An ordered set so both
/// engines share one deterministic reuse rule — `pop_first()` always
/// yields the **smallest** free slot in O(log n) (a sorted `Vec` would
/// memmove kilobytes per despawn at paper scale) — which is part of the
/// cross-engine bit-identity contract for open-boundary worlds.
pub type FreeSlots = std::collections::BTreeSet<u32>;

/// The environment state: cell labels, agent indices, agent properties.
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    /// Cell labels (`mat` in the paper): 0 empty, `g + 1` a group-`g`
    /// pedestrian, 255 interior wall.
    pub mat: Matrix<u8>,
    /// Agent index per cell (0 = none); indexes the property table.
    pub index: Matrix<u32>,
    /// Per-agent records.
    pub props: PropertyTable,
    /// Rows of each spawn band (the classic corridor layout; scenario
    /// worlds record their spawn extent here for reporting only).
    pub spawn_rows: usize,
    /// Per-group populations. Agent indices are assigned contiguously and
    /// 1-based: group `g` owns `1 + Σ sizes[..g] ..= Σ sizes[..=g]` (the
    /// paper's single index sequence over both groups, Figure 2b,
    /// generalised).
    pub group_sizes: Vec<usize>,
    /// Seed the environment was built with.
    pub seed: u64,
    /// Per-cell target-region bitmask ([`Group::target_bit`]); `None` means
    /// the classic corridor convention "crossed = reached the opposite
    /// spawn band".
    pub targets: Option<Arc<Matrix<u8>>>,
    /// Per-slot liveness (index 0 is the sentinel and always dead). Closed
    /// worlds keep every slot alive for the whole run; open-boundary worlds
    /// toggle flags through [`Environment::despawn`] /
    /// [`Environment::spawn_from_free`].
    pub alive: Vec<bool>,
    /// Recyclable property slots per group; `pop_first()` always yields
    /// the smallest free slot — the deterministic recycling order both
    /// engines share.
    pub free: Vec<FreeSlots>,
    /// Live agents currently on the grid (≤ the slot capacity
    /// [`Environment::total_agents`]).
    pub live: usize,
}

impl Environment {
    /// Build and populate a classic two-group corridor.
    ///
    /// Top agents receive indices `1..=per_side`, bottom agents
    /// `per_side+1..=2·per_side` (the paper's single index sequence over
    /// both groups, Figure 2b).
    pub fn new(cfg: &EnvConfig) -> Self {
        assert!(cfg.width >= 2 && cfg.height >= 4, "environment too small");
        assert!(
            cfg.width <= MAX_SIDE && cfg.height <= MAX_SIDE,
            "environment {}x{} exceeds the largest side {MAX_SIDE}",
            cfg.width,
            cfg.height
        );
        let spawn_rows = cfg.effective_spawn_rows();
        assert!(
            spawn_rows * 2 <= cfg.height,
            "spawn bands overlap: {spawn_rows} rows each in height {}",
            cfg.height
        );
        let n = cfg.agents_per_side;
        let mut mat = Matrix::filled(cfg.height, cfg.width, CELL_EMPTY);
        let mut index = Matrix::filled(cfg.height, cfg.width, 0u32);
        let mut props = PropertyTable::new(2 * n);
        // Dedicated placement streams, far away from the per-cell streams
        // the kernels use (which are < width·height): group g draws from
        // stream u64::MAX - 1 - g.
        let mut rng_top = StreamRng::new(cfg.seed, u64::MAX - 1);
        let mut rng_bot = StreamRng::new(cfg.seed, u64::MAX - 2);
        place_confined(
            &mut mat,
            &mut index,
            &mut props,
            Group::TOP,
            n,
            spawn_rows,
            1,
            &mut rng_top,
        );
        place_confined(
            &mut mat,
            &mut index,
            &mut props,
            Group::BOTTOM,
            n,
            spawn_rows,
            (n + 1) as u32,
            &mut rng_bot,
        );
        let mut alive = vec![true; 2 * n + 1];
        alive[0] = false;
        Self {
            mat,
            index,
            props,
            spawn_rows,
            group_sizes: vec![n, n],
            seed: cfg.seed,
            targets: None,
            alive,
            free: vec![FreeSlots::new(), FreeSlots::new()],
            live: 2 * n,
        }
    }

    /// Environment width.
    #[inline]
    pub fn width(&self) -> usize {
        self.mat.width()
    }

    /// Environment height.
    #[inline]
    pub fn height(&self) -> usize {
        self.mat.height()
    }

    /// Current `(row, column)` of slot `idx`, derived from its linear
    /// cell `props.pos[idx]`.
    #[inline]
    pub fn position(&self, idx: usize) -> (usize, usize) {
        let lin = self.props.pos[idx] as usize;
        (lin / self.width(), lin % self.width())
    }

    /// Number of directional groups.
    #[inline]
    pub fn n_groups(&self) -> usize {
        self.group_sizes.len()
    }

    /// Total agents.
    #[inline]
    pub fn total_agents(&self) -> usize {
        self.group_sizes.iter().sum()
    }

    /// First (1-based) agent index of group `g`.
    #[inline]
    pub fn group_start(&self, g: Group) -> usize {
        1 + self.group_sizes[..g.index()].iter().sum::<usize>()
    }

    /// Population of group `g`.
    #[inline]
    pub fn group_size(&self, g: Group) -> usize {
        self.group_sizes[g.index()]
    }

    /// The group of agent `idx` (by the index-range convention).
    #[inline]
    pub fn group_of(&self, idx: usize) -> Group {
        debug_assert!(idx >= 1 && idx <= self.total_agents());
        let mut end = 0usize;
        for (g, &size) in self.group_sizes.iter().enumerate() {
            end += size;
            if idx <= end {
                return Group::new(g);
            }
        }
        unreachable!("agent index {idx} beyond every group range")
    }

    /// Live agents currently on the grid.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Whether slot `idx` currently holds a live agent.
    #[inline]
    pub fn is_alive(&self, idx: usize) -> bool {
        self.alive[idx]
    }

    /// Remove the live agent in slot `idx` (group `g`) from the grid and
    /// recycle its property slot: the cell it stood on becomes empty, the
    /// slot joins the group's free pool (the smallest free slot is reused
    /// first), and the live count drops. The slot's
    /// pos/id records are left in place — dead slots are simply not on
    /// the grid, which is how both engines' kernels already treat them.
    pub fn despawn(&mut self, g: Group, idx: usize) {
        debug_assert!(self.alive[idx], "despawning a dead slot {idx}");
        debug_assert_eq!(self.group_of(idx), g, "slot {idx} is not in group {g:?}");
        let lin = self.props.pos[idx] as usize;
        debug_assert_eq!(self.index.as_slice()[lin], idx as u32);
        self.mat.as_mut_slice()[lin] = CELL_EMPTY;
        self.index.as_mut_slice()[lin] = 0;
        self.alive[idx] = false;
        self.live -= 1;
        self.free[g.index()].insert(idx as u32);
    }

    /// Place a recycled (or never-used) slot of group `g` at the empty cell
    /// `(r, c)`, returning the slot index, or `None` when the group has no
    /// free slot. The smallest free slot is always chosen, so the spawn
    /// order is deterministic and identical on both engines.
    pub fn spawn_from_free(&mut self, g: Group, r: u16, c: u16) -> Option<u32> {
        debug_assert_eq!(self.mat.get(r as usize, c as usize), CELL_EMPTY);
        let idx = self.free[g.index()].pop_first()?;
        self.mat.set(r as usize, c as usize, g.label());
        self.index.set(r as usize, c as usize, idx);
        let lin = self.mat.linear(r as usize, c as usize) as u32;
        self.props.place(idx as usize, g.label(), lin);
        self.alive[idx as usize] = true;
        self.live += 1;
        Some(idx)
    }

    /// Verify the three matrices tell one consistent story; returns a
    /// description of the first inconsistency. Every live slot `a` must
    /// stand on the grid (`props.pos[a] < width·height`) at a cell that
    /// indexes it back (`index[props.pos[a]] == a`).
    pub fn check_consistency(&self) -> Result<(), String> {
        if self.n_groups() > MAX_GROUPS {
            return Err(format!("{} groups exceed MAX_GROUPS", self.n_groups()));
        }
        if self.alive.len() != self.total_agents() + 1 {
            return Err(format!(
                "liveness table holds {} slots for {} agents",
                self.alive.len(),
                self.total_agents() + 1
            ));
        }
        if self.free.len() != self.n_groups() {
            return Err(format!(
                "{} free lists for {} groups",
                self.free.len(),
                self.n_groups()
            ));
        }
        if self.props.pos.len() != self.total_agents() + 1 {
            return Err(format!(
                "position column holds {} slots for {} agents",
                self.props.pos.len(),
                self.total_agents() + 1
            ));
        }
        let cells = self.index.as_slice();
        for i in (1..=self.total_agents()).filter(|&i| self.alive[i]) {
            let lin = self.props.pos[i] as usize;
            match cells.get(lin) {
                Some(&v) if v == i as u32 => {}
                Some(&v) => return Err(format!("live slot {i}: index[pos {lin}] = {v}")),
                None => return Err(format!("live slot {i}: pos {lin} lies off the grid")),
            }
        }
        let mut seen = vec![false; self.total_agents() + 1];
        for (r, c, v) in self.index.iter_cells() {
            let label = self.mat.get(r, c);
            if v == 0 {
                if label != CELL_EMPTY && label != CELL_WALL {
                    return Err(format!("cell ({r},{c}) labelled {label} but index 0"));
                }
                continue;
            }
            let idx = v as usize;
            if idx > self.total_agents() {
                return Err(format!("cell ({r},{c}) holds out-of-range index {idx}"));
            }
            if seen[idx] {
                return Err(format!("agent {idx} appears in two cells"));
            }
            if !self.alive[idx] {
                return Err(format!("dead slot {idx} occupies cell ({r},{c})"));
            }
            seen[idx] = true;
            let in_range = Group::from_label(label)
                .map(|g| g.index() < self.n_groups())
                .unwrap_or(false);
            if !in_range {
                return Err(format!("cell ({r},{c}) indexed but labelled {label}"));
            }
            if self.props.id[idx] != label {
                return Err(format!(
                    "agent {idx}: property id {} != mat label {label}",
                    self.props.id[idx]
                ));
            }
            if self.group_of(idx).label() != label {
                return Err(format!("agent {idx}: index range disagrees with label"));
            }
        }
        if self.live != self.alive.iter().filter(|&&a| a).count() {
            return Err(format!(
                "live count {} disagrees with the liveness table",
                self.live
            ));
        }
        // The free pools are exactly the dead slots, each in its own
        // group's pool (the set ordering makes smallest-first reuse
        // canonical, so there is no order to verify).
        let mut free_seen = vec![false; self.total_agents() + 1];
        for (g, list) in self.free.iter().enumerate() {
            for &slot in list {
                let idx = slot as usize;
                if idx == 0 || idx > self.total_agents() {
                    return Err(format!("free list holds out-of-range slot {idx}"));
                }
                if self.alive[idx] {
                    return Err(format!("live slot {idx} listed as free"));
                }
                if self.group_of(idx).index() != g {
                    return Err(format!("slot {idx} in the wrong group's free list ({g})"));
                }
                if free_seen[idx] {
                    return Err(format!("slot {idx} listed as free twice"));
                }
                free_seen[idx] = true;
            }
        }
        if let Some(orphan) = (1..=self.total_agents()).find(|&i| !self.alive[i] && !free_seen[i]) {
            return Err(format!("dead slot {orphan} is in no free list"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CELL_BOTTOM, CELL_TOP};

    #[test]
    fn paper_config_geometry() {
        let cfg = EnvConfig::paper(2560);
        assert_eq!(cfg.width, 480);
        assert_eq!(cfg.agents_per_side, 1280);
        // 1280 agents at 0.6 fill of 480-wide rows → round(4.44) = 4 rows.
        assert_eq!(cfg.effective_spawn_rows(), 4);
    }

    #[test]
    fn figure_2a_spawn_rows() {
        // The paper's 16×16 sample with 29 agents per side in 3 rows.
        let cfg = EnvConfig::small(16, 16, 29);
        assert_eq!(cfg.effective_spawn_rows(), 3);
    }

    #[test]
    fn build_is_consistent() {
        let env = Environment::new(&EnvConfig::small(32, 32, 40).with_seed(11));
        env.check_consistency().expect("consistent");
        assert_eq!(env.mat.count(CELL_TOP), 40);
        assert_eq!(env.mat.count(CELL_BOTTOM), 40);
        assert_eq!(env.n_groups(), 2);
    }

    #[test]
    fn group_index_ranges() {
        let env = Environment::new(&EnvConfig::small(32, 32, 10));
        assert_eq!(env.group_of(1), Group::TOP);
        assert_eq!(env.group_of(10), Group::TOP);
        assert_eq!(env.group_of(11), Group::BOTTOM);
        assert_eq!(env.group_of(20), Group::BOTTOM);
        assert_eq!(env.group_start(Group::TOP), 1);
        assert_eq!(env.group_start(Group::BOTTOM), 11);
    }

    #[test]
    fn asymmetric_group_ranges() {
        // Hand-build an environment with uneven groups: 3 + 7 agents.
        let mut env = Environment::new(&EnvConfig::small(16, 16, 5));
        env.group_sizes = vec![3, 7];
        assert_eq!(env.total_agents(), 10);
        assert_eq!(env.group_of(3), Group::TOP);
        assert_eq!(env.group_of(4), Group::BOTTOM);
        assert_eq!(env.group_of(10), Group::BOTTOM);
        assert_eq!(env.group_start(Group::BOTTOM), 4);
        assert_eq!(env.group_size(Group::BOTTOM), 7);
    }

    #[test]
    fn walls_are_consistent_with_index_zero() {
        let mut env = Environment::new(&EnvConfig::small(16, 16, 10));
        env.mat.set(8, 8, crate::cell::CELL_WALL);
        env.check_consistency().expect("walls carry index 0");
        // But a wall with a stale index entry is corruption.
        env.index.set(8, 8, 3);
        assert!(env.check_consistency().is_err());
    }

    #[test]
    fn despawn_and_spawn_recycle_slots_smallest_first() {
        let mut env = Environment::new(&EnvConfig::small(16, 16, 3));
        assert_eq!(env.live_count(), 6);
        // Drain two top agents (slots 1 and 2).
        for idx in [2usize, 1] {
            env.despawn(Group::TOP, idx);
        }
        assert_eq!(env.live_count(), 4);
        assert!(!env.is_alive(1) && !env.is_alive(2));
        // The pool is ordered: the smallest slot pops first.
        assert_eq!(env.free[0].iter().copied().collect::<Vec<_>>(), vec![1, 2]);
        env.check_consistency().expect("consistent after despawn");
        // Their cells emptied.
        let (r, c) = env.position(1);
        assert_eq!(env.mat.get(r, c), CELL_EMPTY);
        // Spawn reuses slot 1 first, at the requested cell.
        let idx = env.spawn_from_free(Group::TOP, 8, 8).expect("slot free");
        assert_eq!(idx, 1);
        assert_eq!(env.mat.get(8, 8), CELL_TOP);
        assert_eq!(env.index.get(8, 8), 1);
        assert_eq!(env.position(1), (8, 8));
        assert!(env.is_alive(1));
        assert_eq!(env.live_count(), 5);
        env.check_consistency().expect("consistent after spawn");
        // One more spawn drains the pool; the next returns None.
        assert_eq!(env.spawn_from_free(Group::TOP, 9, 9), Some(2));
        assert_eq!(env.spawn_from_free(Group::TOP, 10, 10), None);
    }

    #[test]
    fn consistency_rejects_lifecycle_corruption() {
        let mut env = Environment::new(&EnvConfig::small(16, 16, 3));
        // A dead slot still sitting on the grid is corruption.
        env.alive[1] = false;
        env.free[0].insert(1);
        assert!(env
            .check_consistency()
            .unwrap_err()
            .contains("dead slot 1 occupies"));
        // A live slot listed as free is corruption.
        let mut env = Environment::new(&EnvConfig::small(16, 16, 3));
        env.free[1].insert(4);
        assert!(env
            .check_consistency()
            .unwrap_err()
            .contains("live slot 4 listed as free"));
        // A despawned slot missing from every free list is corruption.
        let mut env = Environment::new(&EnvConfig::small(16, 16, 3));
        env.despawn(Group::TOP, 1);
        env.free[0].clear();
        assert!(env
            .check_consistency()
            .unwrap_err()
            .contains("in no free list"));
    }

    #[test]
    fn seeds_differ() {
        let a = Environment::new(&EnvConfig::small(32, 32, 40).with_seed(1));
        let b = Environment::new(&EnvConfig::small(32, 32, 40).with_seed(2));
        assert_ne!(a.mat, b.mat);
        let a2 = Environment::new(&EnvConfig::small(32, 32, 40).with_seed(1));
        assert_eq!(a.mat, a2.mat);
    }

    #[test]
    fn consistency_detects_corruption() {
        let mut env = Environment::new(&EnvConfig::small(32, 32, 5));
        // Clobber one agent's label.
        let (r, c) = env.position(1);
        env.mat.set(r, c, CELL_BOTTOM);
        assert!(env.check_consistency().is_err());
    }
}
