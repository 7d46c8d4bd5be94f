//! Throughput and movement metrics (§VI).
//!
//! The paper's headline result metric is **throughput**: "the number of
//! pedestrians able to cross the environment and reach the other side"
//! within the step budget. Crossing is sticky — once an agent has reached
//! its goal it counts even if it later wanders back out. The goal is the
//! opposite spawn band in the classic corridor, or the group's declared
//! target region in scenario worlds (doorways, crossings, halls).
//! [`Metrics`] also tracks per-step movement (for gridlock detection) and a
//! lane-formation index used by the analysis examples.
//!
//! Populations may be asymmetric: [`Geometry`] carries one explicit
//! (1-based, contiguous) agent-index range per directional group rather
//! than assuming `agents_per_side * 2`, so per-group throughput and the
//! `all_arrived` predicate stay correct for any group-size mix.

use std::collections::VecDeque;
use std::sync::Arc;

use pedsim_grid::cell::{Group, CELL_EMPTY, CELL_WALL, MAX_GROUPS};
use pedsim_grid::Matrix;

/// Longest gridlock patience window [`Metrics`] retains movement history
/// for. Bounds the per-engine memory at O(1) regardless of run length; a
/// patience beyond this is a configuration error.
pub const MAX_GRIDLOCK_PATIENCE: u64 = 256;

/// Longest flux window [`Metrics`] retains per-step crossing counts for
/// (the sliding window behind [`Metrics::windowed_flux`] and the
/// steady-state stop condition). Same O(1)-memory rationale as
/// [`MAX_GRIDLOCK_PATIENCE`].
pub const MAX_FLUX_WINDOW: u64 = 256;

/// Window (steps) over which the engines' telemetry evaluates
/// [`Metrics::gridlock_warning`] each step — matched to the runner's
/// flux report window so the live gauge and the batch report read the
/// same trend.
pub const GRIDLOCK_WARNING_WINDOW: u64 = 64;

/// Static scenario geometry the metrics need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Environment width.
    pub width: usize,
    /// Environment height.
    pub height: usize,
    /// Spawn-band rows at each edge (classic corridor; reporting value for
    /// scenario worlds).
    pub spawn_rows: usize,
    /// 1-based start index per group plus an end sentinel: group `g` owns
    /// agents `starts[g]..starts[g + 1]`.
    starts: [u32; MAX_GROUPS + 1],
    n_groups: u8,
}

impl Geometry {
    /// Geometry with one explicit population per directional group.
    /// Agent indices are 1-based and contiguous in group order.
    pub fn with_groups(width: usize, height: usize, spawn_rows: usize, sizes: &[usize]) -> Self {
        assert!(
            (1..=MAX_GROUPS).contains(&sizes.len()),
            "group count {} out of range 1..={MAX_GROUPS}",
            sizes.len()
        );
        let mut starts = [0u32; MAX_GROUPS + 1];
        let mut next = 1u32;
        for (g, &size) in sizes.iter().enumerate() {
            starts[g] = next;
            next += u32::try_from(size).expect("group size fits u32");
        }
        for s in starts.iter_mut().skip(sizes.len()) {
            *s = next;
        }
        Self {
            width,
            height,
            spawn_rows,
            starts,
            n_groups: sizes.len() as u8,
        }
    }

    /// The classic symmetric two-group corridor geometry.
    pub fn two_sided(width: usize, height: usize, spawn_rows: usize, per_side: usize) -> Self {
        Self::with_groups(width, height, spawn_rows, &[per_side, per_side])
    }

    /// Number of directional groups.
    #[inline]
    pub fn n_groups(&self) -> usize {
        self.n_groups as usize
    }

    /// Population of group `g`.
    #[inline]
    pub fn group_size(&self, g: Group) -> usize {
        (self.starts[g.index() + 1] - self.starts[g.index()]) as usize
    }

    /// The 1-based agent-index range of group `g`.
    #[inline]
    pub fn group_range(&self, g: Group) -> std::ops::Range<usize> {
        self.starts[g.index()] as usize..self.starts[g.index() + 1] as usize
    }

    /// Whether a group-`g` agent on the linear cell `lin` is past the
    /// crossing line — the classic corridor's opposite-band convention.
    /// The bands are whole rows, so the test compares `lin` with the
    /// bands' first and last cells and needs no division. Two-group
    /// corridors only; worlds with more groups (or orthogonal streams)
    /// must count arrivals through a per-cell target mask.
    #[inline]
    pub fn has_crossed(&self, g: Group, lin: usize) -> bool {
        assert!(
            self.n_groups == 2,
            "the row-band crossing fallback is two-group only; \
             multi-group worlds must carry a target mask"
        );
        if g == Group::TOP {
            lin >= (self.height - self.spawn_rows) * self.width
        } else {
            lin < self.spawn_rows * self.width
        }
    }

    /// Total agents.
    #[inline]
    pub fn total_agents(&self) -> usize {
        (self.starts[self.n_groups as usize] - 1) as usize
    }

    /// Group of agent `idx` under the index-range convention.
    ///
    /// Agent indices are **1-based**: slot 0 is the unused sentinel and is
    /// not a member of any group.
    #[inline]
    pub fn group_of(&self, idx: usize) -> Group {
        debug_assert!(idx >= 1, "agent indices are 1-based; 0 is the sentinel");
        debug_assert!(idx <= self.total_agents(), "agent index out of range");
        let idx = idx as u32;
        for g in 0..self.n_groups as usize {
            if idx < self.starts[g + 1] {
                return Group::new(g);
            }
        }
        unreachable!("agent index beyond every group range")
    }
}

/// Running simulation metrics.
#[derive(Debug, Clone)]
pub struct Metrics {
    geom: Geometry,
    /// Per-cell target bitmask ([`Group::target_bit`]); `None` uses the
    /// classic opposite-band convention from `geom`.
    targets: Option<Arc<Matrix<u8>>>,
    /// Sticky per-agent crossed flags (index 0 unused).
    crossed: Vec<bool>,
    /// Crossed-agent count per group.
    crossed_per_group: [u32; MAX_GROUPS],
    /// Agents that changed cell in the most recent step.
    pub moved_last_step: usize,
    /// Total cell changes across all steps.
    pub total_moves: u64,
    /// Steps observed.
    pub steps: u64,
    /// Agents moved in each of the last ≤ [`MAX_GRIDLOCK_PATIENCE`]
    /// observed steps (a bounded ring; the gridlock patience window reads
    /// its tail).
    moved_recent: VecDeque<u32>,
    /// New crossings observed in each of the last ≤ [`MAX_FLUX_WINDOW`]
    /// steps (the sliding window behind [`Metrics::windowed_flux`]).
    crossed_recent: VecDeque<u32>,
    /// Live-agent count after each of the last ≤ [`MAX_FLUX_WINDOW`]
    /// observed steps (the density trend behind
    /// [`Metrics::gridlock_warning`]).
    live_recent: VecDeque<u32>,
    /// Per-slot liveness (index 0 unused). Closed worlds keep every slot
    /// live; open-boundary engines report lifecycle events through
    /// [`Metrics::note_spawn`] / [`Metrics::note_despawn`].
    live: Vec<bool>,
    live_count: usize,
    /// Non-wall cells of the world (the denominator of
    /// [`Metrics::live_density`]).
    passable_cells: usize,
    /// Open-boundary mode: throughput counts crossing *events* (recycled
    /// slots may cross repeatedly) and [`Metrics::all_arrived`] never
    /// fires — open runs are measured by flux, not arrival.
    open: bool,
    /// No observation yet: the first one tests every live slot for
    /// arrival, because agents may be placed inside their target.
    fresh: bool,
    /// Slots spawned since the last observation. Like the movers, they
    /// are tested for arrival at the next one; every other agent stood
    /// still where it was already tested.
    pending: Vec<u32>,
}

impl Metrics {
    /// Fresh metrics for a classic corridor (every cell passable).
    pub fn new(geom: Geometry) -> Self {
        Self::with_targets(geom, None, geom.width * geom.height)
    }

    /// Fresh metrics with an optional per-cell target mask (scenario
    /// worlds count arrivals inside the mask instead of past the band
    /// line) over a world of `passable_cells` non-wall cells.
    pub fn with_targets(
        geom: Geometry,
        targets: Option<Arc<Matrix<u8>>>,
        passable_cells: usize,
    ) -> Self {
        let n = geom.total_agents();
        let mut live = vec![true; n + 1];
        live[0] = false;
        Self {
            geom,
            targets,
            crossed: vec![false; n + 1],
            crossed_per_group: [0; MAX_GROUPS],
            moved_last_step: 0,
            total_moves: 0,
            steps: 0,
            moved_recent: VecDeque::with_capacity(MAX_GRIDLOCK_PATIENCE as usize),
            crossed_recent: VecDeque::with_capacity(MAX_FLUX_WINDOW as usize),
            live_recent: VecDeque::with_capacity(MAX_FLUX_WINDOW as usize),
            live,
            live_count: n,
            passable_cells: passable_cells.max(1),
            open: false,
            fresh: true,
            pending: Vec::new(),
        }
    }

    /// Switch to open-boundary accounting: liveness is seeded from the
    /// environment's per-slot flags, throughput counts crossing *events*,
    /// and [`Metrics::all_arrived`] is permanently false (open runs stop
    /// on steps, gridlock, or steady flux instead).
    pub fn enable_open(&mut self, alive: &[bool]) {
        assert_eq!(alive.len(), self.live.len(), "liveness table size");
        self.open = true;
        self.live.copy_from_slice(alive);
        self.live[0] = false;
        self.live_count = self.live.iter().filter(|&&a| a).count();
    }

    /// Observe one finished step. `movers` are the live slots that
    /// changed cell this step, each once; `pos` holds the post-step
    /// agent cells, linear. Only movers and newly placed agents (every live
    /// slot at the first observation, spawned slots after that) can
    /// newly arrive, so only they are tested: the cost is O(movers + newly
    /// placed), not O(slots).
    pub fn observe(&mut self, movers: impl IntoIterator<Item = u32>, pos: &[u32]) {
        let mut moved = 0usize;
        let mut crossings = 0u32;
        for i in movers {
            debug_assert!(self.live[i as usize], "mover {i} is not live");
            moved += 1;
            crossings += self.arrive(i as usize, pos);
        }
        if std::mem::take(&mut self.fresh) {
            for i in 1..=self.geom.total_agents() {
                if self.live[i] {
                    crossings += self.arrive(i, pos);
                }
            }
        }
        let mut pending = std::mem::take(&mut self.pending);
        for &i in &pending {
            // A slot can be spawned and drained again before it is seen.
            if self.live[i as usize] {
                crossings += self.arrive(i as usize, pos);
            }
        }
        pending.clear();
        self.pending = pending;
        self.moved_last_step = moved;
        if self.moved_recent.len() == MAX_GRIDLOCK_PATIENCE as usize {
            self.moved_recent.pop_front();
        }
        // A step with no live agents is idle, not frozen: record a
        // never-below-threshold sentinel so an open world's empty warm-up
        // steps cannot satisfy the gridlock window once the first agent
        // spawns.
        self.moved_recent.push_back(if self.live_count == 0 {
            u32::MAX
        } else {
            moved as u32
        });
        if self.crossed_recent.len() == MAX_FLUX_WINDOW as usize {
            self.crossed_recent.pop_front();
        }
        self.crossed_recent.push_back(crossings);
        if self.live_recent.len() == MAX_FLUX_WINDOW as usize {
            self.live_recent.pop_front();
        }
        self.live_recent.push_back(self.live_count as u32);
        self.total_moves += moved as u64;
        self.steps += 1;
    }

    /// Test the live slot `i` for a new arrival at its cell `pos[i]`;
    /// returns 1 when it newly arrived (sticky), else 0.
    fn arrive(&mut self, i: usize, pos: &[u32]) -> u32 {
        if self.crossed[i] {
            return 0;
        }
        let g = self.geom.group_of(i);
        let lin = pos[i] as usize;
        let arrived = match &self.targets {
            Some(mask) => mask.as_slice()[lin] & g.target_bit() != 0,
            None => self.geom.has_crossed(g, lin),
        };
        if arrived {
            self.crossed[i] = true;
            self.crossed_per_group[g.index()] += 1;
        }
        u32::from(arrived)
    }

    /// Record that the lifecycle removed the agent in slot `i` at its sink
    /// (open-boundary worlds). The slot's sticky crossed flag is cleared so
    /// its next occupant can cross again — the cumulative per-group counts
    /// (and hence [`Metrics::throughput`]) keep the event.
    pub fn note_despawn(&mut self, i: usize) {
        debug_assert!(self.live[i], "despawn of a dead slot {i}");
        self.live[i] = false;
        self.live_count -= 1;
        self.crossed[i] = false;
    }

    /// Record that the lifecycle spawned a new agent into slot `i`
    /// (open-boundary worlds). The slot joins the pending list, so the
    /// next observation tests it for arrival even if it does not move;
    /// its placement is not a move.
    pub fn note_spawn(&mut self, i: usize) {
        debug_assert!(!self.live[i], "spawn into a live slot {i}");
        self.live[i] = true;
        self.live_count += 1;
        self.crossed[i] = false;
        self.pending.push(i as u32);
    }

    /// Live agents currently on the grid (equals the population for closed
    /// worlds).
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Live agents per passable cell — the density axis of the
    /// fundamental diagram.
    #[inline]
    pub fn live_density(&self) -> f64 {
        self.live_count as f64 / self.passable_cells as f64
    }

    /// Mean crossings per step over the last `window` observed steps —
    /// the flux axis of the fundamental diagram. `None` until `window`
    /// steps have been observed. `window` is clamped to ≥ 1 and must not
    /// exceed [`MAX_FLUX_WINDOW`] (asserted).
    pub fn windowed_flux(&self, window: u64) -> Option<f64> {
        assert!(
            window <= MAX_FLUX_WINDOW,
            "flux window {window} exceeds the retained history ({MAX_FLUX_WINDOW} steps)"
        );
        let window = window.max(1) as usize;
        if self.crossed_recent.len() < window {
            return None;
        }
        let sum: u64 = self
            .crossed_recent
            .iter()
            .rev()
            .take(window)
            .map(|&c| u64::from(c))
            .sum();
        Some(sum as f64 / window as f64)
    }

    /// True when the flux has settled: the window is fully observed,
    /// **both** halves saw at least one crossing (a warming-up world whose
    /// first arrivals land in the recent half is ramping, not steady), and
    /// the mean flux of the two halves differs by at most `epsilon`.
    /// `window` must be 2..=[`MAX_FLUX_WINDOW`] (asserted; the halves each
    /// need at least one step).
    pub fn is_steady(&self, epsilon: f64, window: u64) -> bool {
        assert!(
            (2..=MAX_FLUX_WINDOW).contains(&window),
            "steady-state window {window} outside 2..={MAX_FLUX_WINDOW}"
        );
        let window = window as usize;
        if self.crossed_recent.len() < window {
            return false;
        }
        // Newest-first over the ring: the recent half vs the older half
        // before it (no allocation — this runs every step of every open
        // replica through the stop-condition check).
        let half = window / 2;
        let recent: u64 = self
            .crossed_recent
            .iter()
            .rev()
            .take(half)
            .map(|&c| u64::from(c))
            .sum();
        let older: u64 = self
            .crossed_recent
            .iter()
            .rev()
            .skip(half)
            .take(window - half)
            .map(|&c| u64::from(c))
            .sum();
        if recent == 0 || older == 0 {
            return false;
        }
        let recent_mean = recent as f64 / half as f64;
        let older_mean = older as f64 / (window - half) as f64;
        (recent_mean - older_mean).abs() <= epsilon
    }

    /// Least-squares slope per step of the last `window` entries of a
    /// ring, `None` until the window is fully observed. `window` must be
    /// 2..=[`MAX_FLUX_WINDOW`] (asserted; one point has no slope).
    fn ring_slope(ring: &VecDeque<u32>, window: u64) -> Option<f64> {
        assert!(
            (2..=MAX_FLUX_WINDOW).contains(&window),
            "trend window {window} outside 2..={MAX_FLUX_WINDOW}"
        );
        let window = window as usize;
        if ring.len() < window {
            return None;
        }
        // x = 0..window in chronological order; slope = Σ(x-x̄)(y-ȳ)/Σ(x-x̄)².
        let x_mean = (window as f64 - 1.0) / 2.0;
        let y_mean = ring
            .iter()
            .rev()
            .take(window)
            .map(|&y| f64::from(y))
            .sum::<f64>()
            / window as f64;
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (x, &y) in ring.iter().skip(ring.len() - window).enumerate() {
            let dx = x as f64 - x_mean;
            num += dx * (f64::from(y) - y_mean);
            den += dx * dx;
        }
        Some(num / den)
    }

    /// Least-squares slope of per-step crossings over the last `window`
    /// observed steps (crossings per step²): negative while throughput
    /// decays, positive while flow builds. `None` until `window` steps
    /// have been observed; `window` must be 2..=[`MAX_FLUX_WINDOW`]
    /// (asserted).
    pub fn flux_slope(&self, window: u64) -> Option<f64> {
        Self::ring_slope(&self.crossed_recent, window)
    }

    /// Least-squares slope of the live-agent count over the last
    /// `window` observed steps (agents per step): positive while an open
    /// world accumulates more pedestrians than it drains. `None` until
    /// `window` steps have been observed; `window` must be
    /// 2..=[`MAX_FLUX_WINDOW`] (asserted).
    pub fn density_slope(&self, window: u64) -> Option<f64> {
        Self::ring_slope(&self.live_recent, window)
    }

    /// Gridlock early-warning gauge in `[0, 1]`: how strongly the recent
    /// window looks like congestion onset — flux *falling* while live
    /// density *rises*. The two normalized trends (projected loss or
    /// growth over a window, relative to the window mean, clamped to
    /// `[0, 1]`) are combined by geometric mean, so **both** signals must
    /// be present: free flow ramp-up (flux and density rising) and
    /// drain-out (both falling) stay near 0, unlike either slope alone.
    /// Full gridlock also reads 0 — flux is flat at zero by then; this
    /// gauge is the *early* warning, [`Metrics::is_gridlocked`] the
    /// postmortem. `None` until `window` steps have been observed;
    /// `window` must be 2..=[`MAX_FLUX_WINDOW`] (asserted).
    pub fn gridlock_warning(&self, window: u64) -> Option<f64> {
        const EPS: f64 = 1e-9;
        let flux_slope = self.flux_slope(window)?;
        let density_slope = self.density_slope(window)?;
        let w = window.max(1) as f64;
        let mean_flux = self.windowed_flux(window).unwrap_or(0.0);
        let mean_live = self
            .live_recent
            .iter()
            .rev()
            .take(window as usize)
            .map(|&l| f64::from(l))
            .sum::<f64>()
            / w;
        // Projected relative flux loss over one window...
        let loss = ((-flux_slope).max(0.0) * w / (mean_flux + EPS)).min(1.0);
        // ...and projected relative density growth over one window.
        let growth = (density_slope.max(0.0) * w / (mean_live + EPS)).min(1.0);
        Some((loss * growth).sqrt())
    }

    /// Agents of group `g` that have reached their target.
    #[inline]
    pub fn crossed(&self, g: Group) -> usize {
        self.crossed_per_group[g.index()] as usize
    }

    /// Crossed agents of the classic top group (group 0).
    #[inline]
    pub fn crossed_top(&self) -> usize {
        self.crossed(Group::TOP)
    }

    /// Crossed agents of the classic bottom group (group 1).
    #[inline]
    pub fn crossed_bottom(&self) -> usize {
        self.crossed(Group::BOTTOM)
    }

    /// Total crossed agents over all groups — the paper's throughput
    /// number.
    #[inline]
    pub fn throughput(&self) -> usize {
        self.crossed_per_group[..self.geom.n_groups()]
            .iter()
            .map(|&c| c as usize)
            .sum()
    }

    /// Whether agent `i` has crossed.
    #[inline]
    pub fn agent_crossed(&self, i: usize) -> bool {
        self.crossed[i]
    }

    /// Whether every agent has reached its target — a run that can stop
    /// early with nothing left to measure. Always false for open-boundary
    /// worlds: the inflow never "finishes", and the cumulative event count
    /// crossing the slot capacity means nothing there.
    #[inline]
    pub fn all_arrived(&self) -> bool {
        !self.open && self.throughput() == self.geom.total_agents()
    }

    /// True when fewer than `threshold` agents moved in each of the last
    /// `patience` observed steps — the paper's "total gridlock" regime past
    /// 51,200 agents. A finished crowd is *not* gridlocked: once every
    /// agent has arrived, standing still is success, so this returns
    /// `false` regardless of movement. `patience` is clamped to ≥ 1 and
    /// must not exceed [`MAX_GRIDLOCK_PATIENCE`] (asserted), and the
    /// window must be fully observed (fewer than `patience` steps so far
    /// ⇒ not gridlocked) so a single congested step cannot misfire.
    #[inline]
    pub fn is_gridlocked(&self, threshold: usize, patience: u64) -> bool {
        assert!(
            patience <= MAX_GRIDLOCK_PATIENCE,
            "gridlock patience {patience} exceeds the retained history \
             ({MAX_GRIDLOCK_PATIENCE} steps)"
        );
        if self.all_arrived() {
            return false;
        }
        // An empty open world is idle, not stuck: nothing has spawned yet
        // (or everything drained), so zero movement is not gridlock.
        if self.live_count == 0 {
            return false;
        }
        let window = patience.max(1) as usize;
        self.moved_recent.len() >= window
            && self
                .moved_recent
                .iter()
                .rev()
                .take(window)
                .all(|&m| (m as usize) < threshold)
    }

    /// The scenario geometry.
    #[inline]
    pub fn geometry(&self) -> Geometry {
        self.geom
    }
}

/// Lane-formation index of a configuration: for each column, the fraction
/// of its agents belonging to the column's majority group, averaged over
/// non-empty columns, rescaled to [0, 1] (0 = perfectly mixed, 1 = fully
/// segregated columns). Any number of group labels participates; lane
/// formation in directional flow drives this up.
pub fn lane_index(mat: &Matrix<u8>) -> f64 {
    let mut acc = 0.0f64;
    let mut cols = 0usize;
    for c in 0..mat.width() {
        let mut counts = [0usize; MAX_GROUPS];
        for r in 0..mat.height() {
            let label = mat.get(r, c);
            if label != CELL_EMPTY && label != CELL_WALL {
                if let Some(g) = Group::from_label(label) {
                    counts[g.index()] += 1;
                }
            }
        }
        let n: usize = counts.iter().sum();
        if n > 0 {
            let maj = counts.iter().max().copied().unwrap_or(0) as f64 / n as f64;
            // maj ∈ [1/groups, 1]; rescale against the two-group floor so
            // legacy values are unchanged.
            acc += ((maj - 0.5) * 2.0).max(0.0);
            cols += 1;
        }
    }
    if cols == 0 {
        0.0
    } else {
        acc / cols as f64
    }
}

/// Per-row band count of a configuration: scanning each row in column
/// order, count the maximal runs of same-group agents among the occupied
/// cells (empty gaps and walls do not break a run — lanes survive
/// spacing), then average over rows with at least one agent. In a
/// corridor with vertical lanes every row cuts across the lanes, so this
/// estimates the number of lanes; 0 on an empty grid, 1 when each
/// populated row holds a single group.
pub fn band_count(mat: &Matrix<u8>) -> f64 {
    let mut acc = 0.0f64;
    let mut rows = 0usize;
    for r in 0..mat.height() {
        let mut bands = 0u32;
        let mut prev: Option<Group> = None;
        for c in 0..mat.width() {
            let label = mat.get(r, c);
            if label == CELL_EMPTY || label == CELL_WALL {
                continue;
            }
            if let Some(g) = Group::from_label(label) {
                if prev != Some(g) {
                    bands += 1;
                    prev = Some(g);
                }
            }
        }
        if bands > 0 {
            acc += f64::from(bands);
            rows += 1;
        }
    }
    if rows == 0 {
        0.0
    } else {
        acc / rows as f64
    }
}

/// Group segregation index of a configuration in `[0, 1]`: for each
/// agent with at least one occupied 8-neighbor, the fraction of those
/// neighbors sharing its group, rescaled against the two-group mixing
/// floor (`((f - 0.5) * 2).max(0)`) and averaged over the contributing
/// agents. 0 for a well-mixed crowd (or no agent has neighbors), 1 when
/// every agent sits in a single-group cluster. Complements
/// [`lane_index`]: this is orientation-free local order, lanes or not.
pub fn segregation_index(mat: &Matrix<u8>) -> f64 {
    let mut acc = 0.0f64;
    let mut agents = 0usize;
    for r in 0..mat.height() {
        for c in 0..mat.width() {
            let Some(g) = group_at(mat, r as i64, c as i64) else {
                continue;
            };
            let mut same = 0usize;
            let mut occupied = 0usize;
            for dr in -1i64..=1 {
                for dc in -1i64..=1 {
                    if dr == 0 && dc == 0 {
                        continue;
                    }
                    if let Some(ng) = group_at(mat, r as i64 + dr, c as i64 + dc) {
                        occupied += 1;
                        if ng == g {
                            same += 1;
                        }
                    }
                }
            }
            if occupied > 0 {
                let frac = same as f64 / occupied as f64;
                acc += ((frac - 0.5) * 2.0).max(0.0);
                agents += 1;
            }
        }
    }
    if agents == 0 {
        0.0
    } else {
        acc / agents as f64
    }
}

/// The group occupying `(r, c)`, if any (out-of-bounds, empty, and wall
/// cells hold no group).
fn group_at(mat: &Matrix<u8>, r: i64, c: i64) -> Option<Group> {
    if r < 0 || c < 0 || r as usize >= mat.height() || c as usize >= mat.width() {
        return None;
    }
    let label = mat.get(r as usize, c as usize);
    if label == CELL_EMPTY || label == CELL_WALL {
        return None;
    }
    Group::from_label(label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedsim_grid::cell::{CELL_BOTTOM, CELL_EMPTY, CELL_TOP};

    fn geom() -> Geometry {
        Geometry::two_sided(16, 16, 3, 2)
    }

    /// Linear cells of `(row, col)` pairs on the 16-wide test grids.
    fn cells(row: &[u16], col: &[u16]) -> Vec<u32> {
        row.iter()
            .zip(col)
            .map(|(&r, &c)| u32::from(r) * 16 + u32::from(c))
            .collect()
    }

    /// Drives [`Metrics`] from whole position arrays: each observation
    /// passes the live slots whose cell differs from the previous one as
    /// the step's movers (a spawn resets the slot's previous cell).
    struct Feed {
        m: Metrics,
        pos: Vec<u32>,
    }

    impl Feed {
        fn new(m: Metrics, row: &[u16], col: &[u16]) -> Self {
            Self {
                m,
                pos: cells(row, col),
            }
        }

        fn observe(&mut self, row: &[u16], col: &[u16]) {
            let pos = cells(row, col);
            let movers: Vec<u32> = (1..pos.len())
                .filter(|&i| self.m.live[i] && pos[i] != self.pos[i])
                .map(|i| i as u32)
                .collect();
            self.m.observe(movers, &pos);
            self.pos = pos;
        }

        fn note_spawn(&mut self, i: usize, r: u16, c: u16) {
            self.m.note_spawn(i);
            self.pos[i] = u32::from(r) * 16 + u32::from(c);
        }
    }

    impl std::ops::Deref for Feed {
        type Target = Metrics;
        fn deref(&self) -> &Metrics {
            &self.m
        }
    }

    impl std::ops::DerefMut for Feed {
        fn deref_mut(&mut self) -> &mut Metrics {
            &mut self.m
        }
    }

    #[test]
    fn crossing_line_is_the_first_row_of_the_far_band() {
        // 16 rows, 3 spawn rows: top agents cross at row 13, bottom
        // agents at row 2, whatever the column.
        let g = geom();
        let lin = |r: usize, c: usize| r * 16 + c;
        assert!(g.has_crossed(Group::TOP, lin(13, 0)));
        assert!(!g.has_crossed(Group::TOP, lin(12, 15)));
        assert!(g.has_crossed(Group::BOTTOM, lin(2, 5)));
        assert!(!g.has_crossed(Group::BOTTOM, lin(3, 5)));
    }

    #[test]
    fn crossing_is_sticky() {
        let g = geom();
        // Agents 1,2 top; 3,4 bottom. Initial rows 0 and 15.
        let mut m = Feed::new(Metrics::new(g), &[0, 0, 1, 15, 15], &[0, 0, 1, 0, 1]);
        // Agent 1 jumps to row 13 (crossed), agent 3 to row 2 (crossed).
        m.observe(&[0, 13, 1, 2, 15], &[0, 0, 1, 0, 1]);
        assert_eq!(m.crossed_top(), 1);
        assert_eq!(m.crossed_bottom(), 1);
        assert_eq!(m.throughput(), 2);
        assert_eq!(m.moved_last_step, 2);
        // Agent 1 wanders back out of the band — still counted.
        m.observe(&[0, 10, 1, 2, 15], &[0, 0, 1, 0, 1]);
        assert_eq!(m.crossed_top(), 1);
        assert!(m.agent_crossed(1));
        assert_eq!(m.steps, 2);
        assert_eq!(m.total_moves, 3);
    }

    #[test]
    fn first_observation_counts_agents_placed_inside_their_target() {
        let g = geom();
        let mut m = Metrics::new(g);
        // Agent 1 starts in the far band, agent 3 in its own; nobody moves.
        let (row, col) = ([0, 14, 1, 1, 15], [0, 0, 1, 0, 1]);
        m.observe([], &cells(&row, &col));
        assert_eq!(m.crossed_top(), 1);
        assert_eq!(m.crossed_bottom(), 1);
        assert!(m.agent_crossed(1) && m.agent_crossed(3));
        assert_eq!(m.moved_last_step, 0);
        assert_eq!(m.windowed_flux(1), Some(2.0));
        // Only the first observation tests standing agents: a later one
        // with no movers and no spawns records no crossing.
        m.observe([], &cells(&row, &col));
        assert_eq!(m.windowed_flux(1), Some(0.0));
        assert_eq!(m.throughput(), 2);
    }

    #[test]
    fn spawned_slots_are_tested_without_moving() {
        let g = geom();
        let mut m = Metrics::new(g);
        m.enable_open(&[false, true, false, false, true]);
        let (mut row, col) = ([0, 0, 0, 0, 15], [0, 0, 1, 2, 1]);
        m.observe([], &cells(&row, &col));
        assert_eq!(m.throughput(), 0);
        // Slot 2 spawns straight into its target band and never moves;
        // slot 3 spawns and is drained before the next observation.
        row[2] = 14;
        m.note_spawn(2);
        m.note_spawn(3);
        m.note_despawn(3);
        m.observe([], &cells(&row, &col));
        assert_eq!(m.throughput(), 1);
        assert!(m.agent_crossed(2) && !m.agent_crossed(3));
        assert_eq!(m.total_moves, 0);
        // The pending list is spent: nothing is counted twice.
        m.observe([], &cells(&row, &col));
        assert_eq!(m.throughput(), 1);
        // A mover is tested where it landed.
        row[1] = 13;
        m.observe([1], &cells(&row, &col));
        assert_eq!(m.throughput(), 2);
        assert_eq!(m.moved_last_step, 1);
    }

    #[test]
    fn target_mask_counts_region_arrivals() {
        let g = geom();
        // Top group's target is a single interior doorway cell (8, 4);
        // bottom group's target is the top-left corner.
        let mut mask = Matrix::filled(16, 16, 0u8);
        mask.set(8, 4, Group::TOP.target_bit());
        mask.set(0, 0, Group::BOTTOM.target_bit());
        let mut m = Feed::new(
            Metrics::with_targets(g, Some(Arc::new(mask)), 256),
            &[0, 0, 1, 15, 15],
            &[0, 0, 1, 0, 1],
        );
        // Agent 1 reaches row 15 — past the classic band line, but NOT its
        // region → no crossing counted.
        m.observe(&[0, 15, 1, 15, 15], &[0, 9, 1, 0, 1]);
        assert_eq!(m.throughput(), 0);
        // Agent 1 steps onto the doorway cell; agent 3 reaches (0,0).
        m.observe(&[0, 8, 1, 0, 15], &[0, 4, 1, 0, 1]);
        assert_eq!(m.crossed_top(), 1);
        assert_eq!(m.crossed_bottom(), 1);
        // The other group's bit does not count: agent 4 on (8,4).
        m.observe(&[0, 8, 1, 0, 8], &[0, 4, 1, 0, 4]);
        assert_eq!(m.crossed_bottom(), 1);
    }

    #[test]
    fn asymmetric_groups_attribute_crossings_correctly() {
        // 1 top agent, 3 bottom agents — the old `agents_per_side * 2`
        // convention would misclassify agent 2 as Top.
        let g = Geometry::with_groups(16, 16, 3, &[1, 3]);
        assert_eq!(g.total_agents(), 4);
        assert_eq!(g.group_of(1), Group::TOP);
        assert_eq!(g.group_of(2), Group::BOTTOM);
        assert_eq!(g.group_of(4), Group::BOTTOM);
        assert_eq!(g.group_range(Group::TOP), 1..2);
        assert_eq!(g.group_range(Group::BOTTOM), 2..5);
        let mut m = Feed::new(Metrics::new(g), &[0, 0, 15, 15, 15], &[0, 0, 0, 1, 2]);
        // Agent 2 (bottom) reaches row 2: a *bottom* crossing.
        m.observe(&[0, 0, 2, 15, 15], &[0, 0, 0, 1, 2]);
        assert_eq!(m.crossed_bottom(), 1);
        assert_eq!(m.crossed_top(), 0);
        // All four arrive.
        m.observe(&[0, 13, 2, 2, 2], &[0, 0, 0, 1, 2]);
        assert!(m.all_arrived());
        assert_eq!(m.crossed_top(), 1);
        assert_eq!(m.crossed_bottom(), 3);
    }

    #[test]
    fn four_group_geometry_ranges() {
        let g = Geometry::with_groups(32, 32, 2, &[5, 7, 3, 9]);
        assert_eq!(g.n_groups(), 4);
        assert_eq!(g.total_agents(), 24);
        assert_eq!(g.group_range(Group::new(0)), 1..6);
        assert_eq!(g.group_range(Group::new(1)), 6..13);
        assert_eq!(g.group_range(Group::new(2)), 13..16);
        assert_eq!(g.group_range(Group::new(3)), 16..25);
        assert_eq!(g.group_of(13), Group::new(2));
        assert_eq!(g.group_of(24), Group::new(3));
        assert_eq!(g.group_size(Group::new(3)), 9);
    }

    #[test]
    #[should_panic(expected = "two-group only")]
    fn band_fallback_rejects_multi_group() {
        let g = Geometry::with_groups(16, 16, 3, &[2, 2, 2]);
        let _ = g.has_crossed(Group::new(2), 0);
    }

    #[test]
    fn gridlock_detection() {
        let g = geom();
        let mut m = Feed::new(Metrics::new(g), &[0, 5, 5, 10, 10], &[0, 1, 2, 1, 2]);
        assert!(!m.is_gridlocked(1, 1)); // no steps yet
        m.observe(&[0, 5, 5, 10, 10], &[0, 1, 2, 1, 2]); // nobody moved
        assert!(m.is_gridlocked(1, 1));
        assert_eq!(m.moved_last_step, 0);
    }

    #[test]
    fn gridlock_patience_needs_consecutive_low_steps() {
        let g = geom();
        let mut m = Feed::new(Metrics::new(g), &[0, 5, 5, 10, 10], &[0, 1, 2, 1, 2]);
        m.observe(&[0, 5, 5, 10, 10], &[0, 1, 2, 1, 2]); // frozen
        m.observe(&[0, 6, 5, 10, 10], &[0, 1, 2, 1, 2]); // one moved
        m.observe(&[0, 6, 5, 10, 10], &[0, 1, 2, 1, 2]); // frozen
                                                         // Patience 2 needs two consecutive frozen steps; the last two are
                                                         // (moved=1, moved=0), so threshold 1 is not yet gridlock.
        assert!(!m.is_gridlocked(1, 2));
        m.observe(&[0, 6, 5, 10, 10], &[0, 1, 2, 1, 2]); // frozen again
        assert!(m.is_gridlocked(1, 2));
        // A wider window than the history observed never fires.
        assert!(!m.is_gridlocked(1, 64));
    }

    #[test]
    fn gridlock_history_is_bounded() {
        let g = geom();
        let mut m = Feed::new(Metrics::new(g), &[0, 5, 5, 10, 10], &[0, 1, 2, 1, 2]);
        for _ in 0..(MAX_GRIDLOCK_PATIENCE + 50) {
            m.observe(&[0, 5, 5, 10, 10], &[0, 1, 2, 1, 2]);
        }
        assert_eq!(m.moved_recent.len(), MAX_GRIDLOCK_PATIENCE as usize);
        assert!(m.is_gridlocked(1, MAX_GRIDLOCK_PATIENCE));
    }

    #[test]
    #[should_panic(expected = "exceeds the retained history")]
    fn gridlock_patience_beyond_retention_is_rejected() {
        let m = Metrics::new(geom());
        let _ = m.is_gridlocked(1, MAX_GRIDLOCK_PATIENCE + 1);
    }

    #[test]
    fn arrived_crowd_is_not_gridlocked() {
        let g = geom();
        let mut m = Feed::new(Metrics::new(g), &[0, 0, 1, 15, 15], &[0, 0, 1, 0, 1]);
        // Everyone jumps straight into the opposite band, then freezes.
        m.observe(&[0, 14, 14, 1, 1], &[0, 0, 1, 0, 1]);
        m.observe(&[0, 14, 14, 1, 1], &[0, 0, 1, 0, 1]);
        m.observe(&[0, 14, 14, 1, 1], &[0, 0, 1, 0, 1]);
        assert!(m.all_arrived());
        assert_eq!(m.throughput(), g.total_agents());
        // Zero movement for several steps, but the run *succeeded*.
        assert!(!m.is_gridlocked(1, 2));
    }

    #[test]
    fn group_of_uses_one_based_boundary() {
        let g = geom(); // 2 agents per side
        assert_eq!(g.group_of(1), Group::TOP);
        assert_eq!(g.group_of(2), Group::TOP);
        assert_eq!(g.group_of(3), Group::BOTTOM);
        assert_eq!(g.group_of(4), Group::BOTTOM);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    #[cfg(debug_assertions)]
    fn group_of_rejects_sentinel() {
        let _ = geom().group_of(0);
    }

    #[test]
    fn flux_window_counts_crossing_events() {
        let g = geom();
        let mut m = Feed::new(Metrics::new(g), &[0, 0, 1, 15, 15], &[0, 0, 1, 0, 1]);
        assert_eq!(m.windowed_flux(4), None); // nothing observed yet
        m.observe(&[0, 13, 1, 2, 15], &[0, 0, 1, 0, 1]); // 2 crossings
        m.observe(&[0, 13, 1, 2, 15], &[0, 0, 1, 0, 1]); // 0
        assert_eq!(m.windowed_flux(2), Some(1.0));
        assert_eq!(m.windowed_flux(1), Some(0.0));
        assert_eq!(m.windowed_flux(4), None); // window not yet observed
        assert!((m.live_density() - 4.0 / 256.0).abs() < 1e-12);
        assert_eq!(m.live_count(), 4);
    }

    #[test]
    #[should_panic(expected = "exceeds the retained history")]
    fn flux_window_beyond_retention_is_rejected() {
        let m = Metrics::new(geom());
        let _ = m.windowed_flux(MAX_FLUX_WINDOW + 1);
    }

    #[test]
    fn steady_state_needs_flow_and_settled_halves() {
        let g = geom();
        let mut m = Feed::new(Metrics::new(g), &[0, 5, 5, 10, 10], &[0, 1, 2, 1, 2]);
        // Zero-flux steps: fully observed window, but no flow → not steady.
        for _ in 0..8 {
            m.observe(&[0, 5, 5, 10, 10], &[0, 1, 2, 1, 2]);
        }
        assert!(!m.is_steady(0.5, 4));
        // Ramp-up — all crossings in the recent half, older half quiet —
        // is not steady no matter how loose the epsilon.
        let mut m = Feed::new(Metrics::new(g), &[0, 0, 1, 15, 15], &[0, 0, 1, 0, 1]);
        m.observe(&[0, 0, 1, 15, 15], &[0, 0, 1, 0, 1]); // quiet
        m.observe(&[0, 0, 1, 15, 15], &[0, 0, 1, 0, 1]); // quiet
        m.observe(&[0, 13, 1, 15, 15], &[0, 0, 1, 0, 1]); // agent 1 crosses
        m.observe(&[0, 13, 13, 15, 15], &[0, 0, 1, 0, 1]); // agent 2 crosses
        assert!(!m.is_steady(5.0, 4));
        // Sustained flow — one crossing per half — settles even under a
        // tight epsilon.
        let mut m = Feed::new(Metrics::new(g), &[0, 0, 1, 15, 15], &[0, 0, 1, 0, 1]);
        m.observe(&[0, 13, 1, 15, 15], &[0, 0, 1, 0, 1]); // agent 1 crosses
        m.observe(&[0, 13, 1, 15, 15], &[0, 0, 1, 0, 1]); // quiet
        m.observe(&[0, 13, 13, 15, 15], &[0, 0, 1, 0, 1]); // agent 2 crosses
        m.observe(&[0, 13, 13, 15, 15], &[0, 0, 1, 0, 1]); // quiet
        assert!(m.is_steady(0.1, 4));
        // A window whose recent half is flowless is draining, not steady.
        assert!(!m.is_steady(0.1, 3));
    }

    #[test]
    #[should_panic(expected = "outside 2..=")]
    fn steady_window_of_one_is_rejected() {
        let m = Metrics::new(geom());
        let _ = m.is_steady(0.5, 1);
    }

    #[test]
    fn open_mode_recycles_slots_and_never_arrives() {
        let g = geom(); // 2 + 2 slots
        let mut m = Feed::new(
            Metrics::with_targets(g, None, 200),
            &[0, 0, 1, 15, 15],
            &[0, 0, 1, 0, 1],
        );
        // Slot 3 starts dead (a pooled open-world slot).
        let alive = vec![false, true, true, false, true];
        m.enable_open(&alive);
        assert_eq!(m.live_count(), 3);
        assert!((m.live_density() - 3.0 / 200.0).abs() < 1e-12);
        // Agent 1 crosses; the lifecycle drains it.
        m.observe(&[0, 13, 1, 0, 15], &[0, 0, 1, 0, 1]);
        assert_eq!(m.throughput(), 1);
        m.note_despawn(1);
        assert_eq!(m.live_count(), 2);
        // Dead slots are invisible to observation: agent 1's stale
        // position inside the band must not re-count.
        m.observe(&[0, 13, 1, 0, 15], &[0, 0, 1, 0, 1]);
        assert_eq!(m.throughput(), 1);
        // Respawn into slot 1 back at the top; it can cross again, and the
        // jump to the spawn cell is not counted as a move.
        m.note_spawn(1, 0, 4);
        let moves_before = m.total_moves;
        m.observe(&[0, 0, 1, 0, 15], &[0, 4, 1, 0, 1]);
        assert_eq!(m.total_moves, moves_before);
        m.observe(&[0, 14, 1, 0, 15], &[0, 4, 1, 0, 1]);
        assert_eq!(m.throughput(), 2, "recycled slot crossed again");
        // Open worlds never "arrive", even past the slot-capacity count.
        m.observe(&[0, 14, 14, 1, 1], &[0, 4, 1, 0, 1]);
        assert!(m.throughput() >= 2);
        assert!(!m.all_arrived());
    }

    #[test]
    fn empty_open_world_is_not_gridlocked() {
        let g = geom();
        let mut m = Feed::new(Metrics::new(g), &[0, 0, 0, 0, 0], &[0, 0, 0, 0, 0]);
        m.enable_open(&[false, false, false, false, false]);
        assert_eq!(m.live_count(), 0);
        for _ in 0..4 {
            m.observe(&[0, 0, 0, 0, 0], &[0, 0, 0, 0, 0]);
        }
        // Nothing moved, but nothing exists: idle, not stuck.
        assert!(!m.is_gridlocked(1, 2));
        // The first spawn after the idle stretch must not inherit the
        // zero-movement window: patience counts only steps with agents.
        m.note_spawn(1, 0, 0);
        assert!(!m.is_gridlocked(1, 2));
        m.observe(&[0, 0, 0, 0, 0], &[0, 0, 0, 0, 0]); // one frozen live step
        assert!(!m.is_gridlocked(1, 2));
        m.observe(&[0, 0, 0, 0, 0], &[0, 0, 0, 0, 0]); // two in a row
        assert!(m.is_gridlocked(1, 2));
    }

    #[test]
    fn lane_index_extremes() {
        // Fully segregated: column 0 all top, column 1 all bottom.
        let mut seg = Matrix::filled(4, 2, CELL_EMPTY);
        for r in 0..4 {
            seg.set(r, 0, CELL_TOP);
            seg.set(r, 1, CELL_BOTTOM);
        }
        assert!((lane_index(&seg) - 1.0).abs() < 1e-12);

        // Perfectly mixed columns.
        let mut mix = Matrix::filled(4, 2, CELL_EMPTY);
        for r in 0..4 {
            let v = if r % 2 == 0 { CELL_TOP } else { CELL_BOTTOM };
            mix.set(r, 0, v);
            mix.set(r, 1, v);
        }
        assert!(lane_index(&mix).abs() < 1e-12);

        // Empty grid.
        let empty = Matrix::filled(4, 2, CELL_EMPTY);
        assert_eq!(lane_index(&empty), 0.0);
    }

    #[test]
    fn lane_index_sees_all_groups() {
        // Four labels, one per column: fully segregated.
        let mut seg = Matrix::filled(4, 4, CELL_EMPTY);
        for r in 0..4 {
            for c in 0..4u8 {
                seg.set(r, c as usize, c + 1);
            }
        }
        assert!((lane_index(&seg) - 1.0).abs() < 1e-12);
        // One column with a 4-way even mix floors at 0.
        let mut mix = Matrix::filled(4, 1, CELL_EMPTY);
        for r in 0..4u8 {
            mix.set(r as usize, 0, r + 1);
        }
        assert_eq!(lane_index(&mix), 0.0);
    }

    #[test]
    fn flux_window_exactly_at_retention_boundary() {
        // `window == MAX_FLUX_WINDOW` is legal (the assert is strictly
        // `>`); it answers None until exactly MAX_FLUX_WINDOW steps have
        // been observed and Some from then on.
        let g = geom();
        let mut m = Feed::new(Metrics::new(g), &[0, 0, 1, 15, 15], &[0, 0, 1, 0, 1]);
        for _ in 0..(MAX_FLUX_WINDOW - 1) {
            m.observe(&[0, 0, 1, 15, 15], &[0, 0, 1, 0, 1]);
        }
        assert_eq!(m.windowed_flux(MAX_FLUX_WINDOW), None);
        // Step MAX_FLUX_WINDOW: agent 1 crosses — the window is full and
        // contains exactly one crossing.
        m.observe(&[0, 13, 1, 15, 15], &[0, 0, 1, 0, 1]);
        let flux = m.windowed_flux(MAX_FLUX_WINDOW).expect("window observed");
        assert!((flux - 1.0 / MAX_FLUX_WINDOW as f64).abs() < 1e-12);
        assert!(m.gridlock_warning(MAX_FLUX_WINDOW).is_some());
    }

    #[test]
    fn flux_ring_wraparound_forgets_old_crossings() {
        // A burst of crossings older than the ring must vanish from the
        // windowed view once MAX_FLUX_WINDOW quiet steps displace it.
        let g = geom();
        let mut m = Feed::new(Metrics::new(g), &[0, 0, 1, 15, 15], &[0, 0, 1, 0, 1]);
        m.observe(&[0, 13, 1, 2, 15], &[0, 0, 1, 0, 1]); // 2 crossings
        assert_eq!(m.windowed_flux(1), Some(2.0));
        for _ in 0..MAX_FLUX_WINDOW {
            m.observe(&[0, 13, 1, 2, 15], &[0, 0, 1, 0, 1]); // quiet
        }
        // The ring holds exactly MAX_FLUX_WINDOW quiet steps now; the
        // burst has been evicted even at the widest legal window.
        assert_eq!(m.windowed_flux(MAX_FLUX_WINDOW), Some(0.0));
        assert_eq!(m.steps, MAX_FLUX_WINDOW + 1);
    }

    #[test]
    fn empty_open_world_trends_are_flat_not_absent() {
        let g = geom();
        let mut m = Feed::new(Metrics::new(g), &[0, 0, 0, 0, 0], &[0, 0, 0, 0, 0]);
        m.enable_open(&[false, false, false, false, false]);
        assert_eq!(m.gridlock_warning(4), None, "window not yet observed");
        for _ in 0..4 {
            m.observe(&[0, 0, 0, 0, 0], &[0, 0, 0, 0, 0]);
        }
        // Nothing lives, nothing flows: every trend is exactly flat and
        // the warning gauge reads 0, not NaN and not a false alarm.
        assert_eq!(m.flux_slope(4), Some(0.0));
        assert_eq!(m.density_slope(4), Some(0.0));
        assert_eq!(m.gridlock_warning(4), Some(0.0));
        assert_eq!(m.windowed_flux(4), Some(0.0));
    }

    #[test]
    fn gridlock_warning_requires_falling_flux_and_rising_density() {
        let g = geom();
        let freeze = |m: &mut Feed| m.observe(&[0, 5, 5, 10, 10], &[0, 1, 2, 1, 2]);

        // Congestion onset: crossings decay while the live count climbs.
        let mut m = Feed::new(Metrics::new(g), &[0, 0, 1, 15, 15], &[0, 0, 1, 0, 1]);
        m.enable_open(&[false, true, true, false, true]);
        m.observe(&[0, 13, 1, 0, 15], &[0, 0, 1, 0, 1]); // crossing, 3 live
        m.note_spawn(3, 15, 0);
        freeze(&mut m); // quiet, 4 live
        let w = m.gridlock_warning(2).expect("window observed");
        assert!(w > 0.0, "onset must raise the warning, got {w}");
        assert!(w <= 1.0);
        assert!(m.flux_slope(2).unwrap() < 0.0);
        assert!(m.density_slope(2).unwrap() > 0.0);

        // Drain-out: flux decays but density falls too — no warning.
        let mut m = Feed::new(Metrics::new(g), &[0, 0, 1, 15, 15], &[0, 0, 1, 0, 1]);
        m.enable_open(&[false, true, true, true, true]);
        m.observe(&[0, 13, 1, 2, 15], &[0, 0, 1, 0, 1]); // 2 crossings
        m.note_despawn(1);
        m.note_despawn(3);
        freeze(&mut m); // quiet, 2 live
        assert_eq!(m.gridlock_warning(2), Some(0.0));

        // Ramp-up: flux *and* density rising — no warning either.
        let mut m = Feed::new(Metrics::new(g), &[0, 0, 1, 15, 15], &[0, 0, 1, 0, 1]);
        m.enable_open(&[false, true, true, false, true]);
        freeze(&mut m); // quiet, 3 live
        m.note_spawn(3, 15, 0);
        m.observe(&[0, 13, 1, 0, 15], &[0, 0, 1, 0, 1]); // crossing, 4 live
        assert_eq!(m.gridlock_warning(2), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "outside 2..=")]
    fn trend_window_of_one_is_rejected() {
        let m = Metrics::new(geom());
        let _ = m.gridlock_warning(1);
    }

    #[test]
    fn band_count_on_a_hand_built_two_lane_corridor() {
        // Two clean vertical lanes: columns 0-1 top group, columns 2-3
        // bottom group. Every row cuts across 2 bands.
        let mut two_lanes = Matrix::filled(4, 4, CELL_EMPTY);
        for r in 0..4 {
            two_lanes.set(r, 0, CELL_TOP);
            two_lanes.set(r, 1, CELL_TOP);
            two_lanes.set(r, 2, CELL_BOTTOM);
            two_lanes.set(r, 3, CELL_BOTTOM);
        }
        assert!((band_count(&two_lanes) - 2.0).abs() < 1e-12);

        // Gaps inside a lane do not split the band...
        two_lanes.set(1, 1, CELL_EMPTY);
        assert!((band_count(&two_lanes) - 2.0).abs() < 1e-12);
        // ...and a wall does not either (lanes survive spacing).
        two_lanes.set(2, 1, CELL_WALL);
        assert!((band_count(&two_lanes) - 2.0).abs() < 1e-12);

        // Perfect per-cell mixing maximizes the band count.
        let mut mix = Matrix::filled(4, 4, CELL_EMPTY);
        for r in 0..4 {
            for c in 0..4 {
                mix.set(r, c, if c % 2 == 0 { CELL_TOP } else { CELL_BOTTOM });
            }
        }
        assert!((band_count(&mix) - 4.0).abs() < 1e-12);

        // Empty grid: zero bands.
        assert_eq!(band_count(&Matrix::filled(4, 4, CELL_EMPTY)), 0.0);
    }

    #[test]
    fn segregation_index_on_a_hand_built_two_lane_corridor() {
        // The same two-lane picture: interior agents see mostly their own
        // group, only the lane boundary mixes — high but not 1.
        let mut two_lanes = Matrix::filled(4, 4, CELL_EMPTY);
        for r in 0..4 {
            for c in 0..4 {
                two_lanes.set(r, c, if c < 2 { CELL_TOP } else { CELL_BOTTOM });
            }
        }
        let seg = segregation_index(&two_lanes);
        assert!(seg > 0.3, "two lanes should read ordered, got {seg}");
        assert!(seg < 1.0, "the lane boundary still mixes");

        // Fully separated clusters read exactly 1.
        let mut split = Matrix::filled(4, 4, CELL_EMPTY);
        split.set(0, 0, CELL_TOP);
        split.set(0, 1, CELL_TOP);
        split.set(3, 2, CELL_BOTTOM);
        split.set(3, 3, CELL_BOTTOM);
        assert!((segregation_index(&split) - 1.0).abs() < 1e-12);

        // A perfect checkerboard of groups reads 0 (every neighbor
        // fraction is at or below the mixing floor).
        let mut checker = Matrix::filled(4, 4, CELL_EMPTY);
        for r in 0..4 {
            for c in 0..4 {
                checker.set(
                    r,
                    c,
                    if (r + c) % 2 == 0 {
                        CELL_TOP
                    } else {
                        CELL_BOTTOM
                    },
                );
            }
        }
        assert_eq!(segregation_index(&checker), 0.0);

        // No neighbors at all → no contributing agents → 0.
        let mut lone = Matrix::filled(4, 4, CELL_EMPTY);
        lone.set(0, 0, CELL_TOP);
        lone.set(3, 3, CELL_BOTTOM);
        assert_eq!(segregation_index(&lone), 0.0);
        assert_eq!(segregation_index(&Matrix::filled(2, 2, CELL_EMPTY)), 0.0);
    }
}
