//! The tile-parallel pooled CPU backend (`pooled` in the backend
//! registry) — the repo's fast path.
//!
//! A multi-threaded host engine on the `simt` [`WorkerPool`]: the grid is
//! partitioned into contiguous row bands ([`band_ranges`]) — or, in
//! sparse mode, the live agents into count-balanced bucket groups
//! (`RowBuckets`) — and every pass runs with **conflict-free writes**:
//! each output slot is written by exactly one task, so no locks are held
//! in any hot loop.
//!
//! ## The claim protocol: decide, then resolve
//!
//! The scalar reference runs the paper's four kernels as four sweeps and
//! resolves movement per cell with
//! [`gather_winner`](crate::model::gather_winner): scan the 8
//! neighbours in slot order, collect the agents whose FUTURE is this
//! cell, draw one with the *cell's* RNG stream. The pooled backend
//! reaches the identical trajectory in **two pool launches per step**:
//!
//! 1. **Decide** (init + initial calculation + tour, fused): each agent
//!    reads its front cell, scores its neighbourhood only when the
//!    forward-priority short-circuit does not already decide (the scan
//!    row would go unread), draws its move from its own stream, and ORs
//!    one bit into its target cell's claim byte — bit `k` means "the
//!    agent standing at `target + NEIGHBOR_OFFSETS[k]` wants in".
//!    `fetch_or` is commutative, so the byte is schedule-independent.
//!    Neither a scan row nor a FUTURE cell is stored: the claim byte is
//!    all a decision leaves behind, and only empty cells are claimed.
//! 2. **Resolve** (movement, over row bands): each cell with a non-zero
//!    claim byte decodes it — the set bits, read in ascending order, are
//!    exactly the candidate list `gather_winner` builds in slot order, and
//!    the winner is drawn with the same `(seed, cell, salt)` stream —
//!    clears it for the next step, and moves its winner **in place**.
//!    Claimed cells were empty when the step began and every winner's
//!    source cell was occupied, so no two winners touch the same cell and
//!    no task reads a slot another task writes. ACO pheromone is updated
//!    in place too: each band evaporates its cells, then each winner adds
//!    its deposit at its new cell.
//!
//! Sparse mode iterates agents, not cells, so it cannot resolve by target
//! cell: its resolve takes two launches — **decode** (each claimant
//! re-draws its target's winner and keeps its move only if it won; ACO
//! evaporation rides along) and **apply** (winners move in place, clear
//! their target's claim byte, and add their deposit). Evaporating and then
//! adding the deposit is bit-equal to the scalar fused update because
//! `max((1-ρ)τ, τ₀) + 0.0` is exact.
//!
//! Because every draw uses the same stream as the scalar engine and every
//! candidate list is bit-equal, trajectories are **bit-identical to
//! `scalar` at every thread count** — asserted by the cross-backend
//! golden parity tests. The fused decide pass is timed under
//! [`Stage::InitialCalc`]; [`Stage::Init`] and [`Stage::Tour`] have no
//! pass of their own on this backend.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use pedsim_grid::cell::{Group, CELL_EMPTY, CELL_WALL, MOVE_LEN, NEIGHBOR_OFFSETS};
use pedsim_grid::distance::DistRef;
use pedsim_grid::scan::TourLengths;
use pedsim_grid::{DistanceData, EnvConfig, Environment, Matrix, PheromoneField};
use philox::StreamRng;
use simt::exec::pool::WorkerPool;

use crate::metrics::{Geometry, Metrics};
use crate::model::{aco_scan_row, aco_select, front_status, lem_scan_row, lem_select};
use crate::params::{AcoParams, IterationMode, ModelKind, SimConfig};

use super::cpu::HostWorld;
use super::lifecycle::OpenLifecycle;
use super::pipeline::{
    Stage, StageBackend, StepCore, StepTimings, KERNEL_BLOCK_KEYS, KERNEL_LAUNCH_KEYS,
    KERNEL_THREAD_KEYS,
};
use super::{swap_model, Engine, ModelSwapError, KERNEL_MOVE, KERNEL_TOUR};
use crate::world::CompiledWorld;

/// Band oversubscription factor: bands per worker, so a straggler band
/// cannot serialise the stage.
const BANDS_PER_WORKER: usize = 4;

/// Split `0..n` into exactly `parts.max(1)` contiguous ranges covering
/// every index exactly once (sizes differ by at most one; trailing ranges
/// may be empty when `parts > n`). This is the tile partition every
/// pooled stage dispatches over — the partition proptest pins the
/// exactly-once property.
pub fn band_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// Inverse of [`NEIGHBOR_OFFSETS`]: the slot `k` with
/// `NEIGHBOR_OFFSETS[k] == (dr, dc)`.
#[inline]
fn offset_slot(dr: i64, dc: i64) -> usize {
    match (dr, dc) {
        (1, 0) => 0,
        (1, -1) => 1,
        (1, 1) => 2,
        (0, -1) => 3,
        (0, 1) => 4,
        (-1, 0) => 5,
        (-1, -1) => 6,
        (-1, 1) => 7,
        _ => unreachable!("future cell is not a neighbour: ({dr},{dc})"),
    }
}

/// Write-set tracker for the `audit-runtime` tile-race detector: one
/// owner word per slot, `0` = unwritten this phase, `1` = host thread,
/// `b + 2` = pool block `b`. A [`Scatter`] lives for exactly one phase,
/// so "written by two tasks while this Scatter exists" is precisely the
/// structural-disjointness violation the SAFETY contracts rule out (a
/// task may rewrite its own slot).
#[cfg(feature = "audit-runtime")]
struct WriteSet {
    owners: Vec<std::sync::atomic::AtomicU32>,
}

#[cfg(feature = "audit-runtime")]
impl WriteSet {
    fn new(len: usize) -> Self {
        Self {
            owners: (0..len)
                .map(|_| std::sync::atomic::AtomicU32::new(0))
                .collect(),
        }
    }

    /// Record a write to slot `i`, panicking if another task already
    /// wrote it during this Scatter's phase.
    fn note(&self, i: usize) {
        let me = match simt::exec::pool::current_block() {
            Some(b) => b as u32 + 2,
            None => 1,
        };
        // ordering: relaxed — the swap is an atomic claim; detection only
        // needs each slot's own modification order, not cross-slot order.
        let prev = self.owners[i].swap(me, Ordering::Relaxed);
        if prev != 0 && prev != me {
            panic!(
                "tile race: slot {i} written by task {} after task {} in the same phase",
                me.wrapping_sub(2),
                prev.wrapping_sub(2),
            );
        }
    }
}

/// A raw scatter handle over a mutable slice, for disjoint writes from
/// pool tasks (the host-side analogue of `simt::memory::ScatterView`,
/// without the per-slot flag machinery — disjointness here is structural:
/// cell slots are owned by the band holding the cell, agent slots by the
/// unique cell their agent wins). Under `audit-runtime` every write is
/// checked against a per-phase [`WriteSet`] instead of being trusted.
#[cfg_attr(not(feature = "audit-runtime"), derive(Clone, Copy))]
#[cfg_attr(feature = "audit-runtime", derive(Clone))]
struct Scatter<'a, T> {
    ptr: *mut T,
    len: usize,
    #[cfg(feature = "audit-runtime")]
    ws: Arc<WriteSet>,
    _life: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: tasks write disjoint slots (see the struct docs); the barrier
// at the end of every `WorkerPool::run` orders writes before any
// subsequent read.
unsafe impl<T: Send> Sync for Scatter<'_, T> {}
unsafe impl<T: Send> Send for Scatter<'_, T> {}

impl<'a, T: Copy> Scatter<'a, T> {
    fn new(s: &'a mut [T]) -> Self {
        Self {
            ptr: s.as_mut_ptr(),
            len: s.len(),
            #[cfg(feature = "audit-runtime")]
            ws: Arc::new(WriteSet::new(s.len())),
            _life: std::marker::PhantomData,
        }
    }

    /// Write slot `i`.
    ///
    /// SAFETY: `i` must be in bounds and written by at most one concurrent
    /// task; no concurrent task may read slot `i` (except the writer).
    #[inline]
    unsafe fn write(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        #[cfg(feature = "audit-runtime")]
        self.ws.note(i);
        unsafe { *self.ptr.add(i) = v }
    }

    /// Read slot `i`.
    ///
    /// SAFETY: `i` must be in bounds and, within the current phase, only
    /// ever written by the task performing this read.
    #[inline]
    unsafe fn read(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        unsafe { *self.ptr.add(i) }
    }

    /// Rewrite every slot of `range` in place with `f` — a tight,
    /// vectorisable loop for band-owned sweeps.
    ///
    /// SAFETY: as [`Scatter::write`] and [`Scatter::read`], for every slot
    /// of `range`.
    #[inline]
    unsafe fn update_range(&self, range: std::ops::Range<usize>, f: impl Fn(T) -> T) {
        debug_assert!(range.end <= self.len);
        #[cfg(feature = "audit-runtime")]
        for i in range.clone() {
            self.ws.note(i);
        }
        // SAFETY: in bounds (asserted above) and owned by the caller's
        // task per this function's contract.
        let slots =
            unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) };
        for v in slots {
            *v = f(*v);
        }
    }
}

/// ACO evaporation of one band of pheromone slots: the fused update with
/// no deposit. A deposit added afterwards completes the fused update bit
/// for bit, because `max((1-ρ)τ, τ₀) + 0.0` is exactly `max((1-ρ)τ, τ₀)`.
///
/// SAFETY: as [`Scatter::update_range`].
#[inline]
unsafe fn evaporate(plane: &Scatter<'_, f32>, range: std::ops::Range<usize>, p: &AcoParams) {
    // SAFETY: forwarded contract.
    unsafe {
        plane.update_range(range, |tau| {
            PheromoneField::fused_update(tau, p.tau0, p.rho, 0.0)
        })
    };
}

/// Live agents bucketed by contiguous row bands — the sparse iteration
/// surface of the pooled backend.
///
/// Each bucket holds the live slots whose current row falls inside its
/// band; per-slot back-pointers make insert/remove/move O(1). Stage
/// dispatch groups **buckets** into tasks balanced by *agent count*
/// (via [`RowBuckets::task_groups`]), not by row count — at corridor
/// occupancies most rows are empty, so row-balanced bands leave most
/// workers idle (the flat-thread-scaling failure this replaces).
///
/// Maintenance is single-threaded and deterministic: the movement apply
/// phase collects cross-band movers into per-task outboxes merged in
/// task order, and the lifecycle inserts/removes slots in its own
/// slot-ordered phases. Bucket membership never affects trajectories —
/// every sparse-stage write is agent- or cell-keyed — so bucket order
/// only has to be deterministic for reproducible *performance* and for
/// the audit fixtures.
pub(crate) struct RowBuckets {
    rows_per_bucket: usize,
    /// Bucket → live slots (deterministic maintenance order).
    members: Vec<Vec<u32>>,
    /// Slot → owning bucket (`u32::MAX` when dead / unbucketed).
    slot_bucket: Vec<u32>,
    /// Slot → index inside its bucket's member list.
    slot_pos: Vec<u32>,
}

impl RowBuckets {
    /// Buckets covering `height` rows in bands of roughly
    /// `height / buckets_hint` rows, over `capacity + 1` slots.
    pub(crate) fn new(height: usize, capacity: usize, buckets_hint: usize) -> Self {
        let rows_per_bucket = height.div_ceil(buckets_hint.clamp(1, height.max(1))).max(1);
        let n_buckets = height.div_ceil(rows_per_bucket).max(1);
        Self {
            rows_per_bucket,
            members: vec![Vec::new(); n_buckets],
            slot_bucket: vec![u32::MAX; capacity + 1],
            slot_pos: vec![0; capacity + 1],
        }
    }

    /// The bucket owning row `r`.
    #[inline]
    pub(crate) fn bucket_of_row(&self, r: usize) -> usize {
        r / self.rows_per_bucket
    }

    /// Number of buckets.
    pub(crate) fn n_buckets(&self) -> usize {
        self.members.len()
    }

    /// The live slots of bucket `b`.
    #[inline]
    pub(crate) fn members(&self, b: usize) -> &[u32] {
        &self.members[b]
    }

    /// Total bucketed (live) slots.
    pub(crate) fn len(&self) -> usize {
        self.members.iter().map(Vec::len).sum()
    }

    /// Drop all membership and re-insert every live slot in ascending
    /// slot order.
    pub(crate) fn rebuild(&mut self, alive: &[bool], rows: &[u16]) {
        for m in &mut self.members {
            m.clear();
        }
        self.slot_bucket.fill(u32::MAX);
        for (i, &a) in alive.iter().enumerate().skip(1) {
            if a {
                self.insert(i as u32, rows[i]);
            }
        }
    }

    /// Add a live slot standing on `row`.
    pub(crate) fn insert(&mut self, slot: u32, row: u16) {
        debug_assert_eq!(self.slot_bucket[slot as usize], u32::MAX);
        let b = self.bucket_of_row(row as usize);
        self.slot_bucket[slot as usize] = b as u32;
        self.slot_pos[slot as usize] = self.members[b].len() as u32;
        self.members[b].push(slot);
    }

    /// Remove a slot (despawn): O(1) swap-remove, fixing the back-pointer
    /// of the member swapped into its place.
    pub(crate) fn remove(&mut self, slot: u32) {
        let b = self.slot_bucket[slot as usize] as usize;
        debug_assert_ne!(b, u32::MAX as usize, "removing unbucketed slot {slot}");
        let p = self.slot_pos[slot as usize] as usize;
        self.members[b].swap_remove(p);
        if let Some(&moved) = self.members[b].get(p) {
            self.slot_pos[moved as usize] = p as u32;
        }
        self.slot_bucket[slot as usize] = u32::MAX;
    }

    /// Re-home a slot that moved to `row` — a no-op unless the move
    /// crossed a band boundary (moves are ≤ 1 row per step, so this is
    /// the incremental path: most steps touch nothing).
    pub(crate) fn move_to(&mut self, slot: u32, row: u16) {
        let b = self.bucket_of_row(row as usize);
        if self.slot_bucket[slot as usize] as usize != b {
            self.remove(slot);
            self.insert(slot, row);
        }
    }

    /// Partition the buckets into `parts` contiguous groups balanced by
    /// **member count**: group `t` closes once the cumulative count
    /// reaches `⌈(t+1)·total/parts⌉`. Trailing empty buckets may stay
    /// unassigned (they contribute no agents).
    pub(crate) fn task_groups(&self, parts: usize) -> Vec<std::ops::Range<usize>> {
        let parts = parts.max(1);
        let total = self.len();
        let mut out = Vec::with_capacity(parts);
        let mut b = 0;
        let mut acc = 0usize;
        for t in 0..parts {
            let start = b;
            let target = ((t + 1) * total).div_ceil(parts);
            while b < self.n_buckets() && acc < target {
                acc += self.members[b].len();
                b += 1;
            }
            out.push(start..b);
        }
        out
    }

    /// Cross-check the bucket structure against the liveness table: every
    /// live slot bucketed exactly once, in the bucket its row maps to,
    /// with a correct back-pointer; no dead slot bucketed.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn check_consistency(&self, alive: &[bool], rows: &[u16]) -> Result<(), String> {
        let mut seen = vec![false; alive.len()];
        for (b, m) in self.members.iter().enumerate() {
            for (p, &slot) in m.iter().enumerate() {
                let i = slot as usize;
                if seen[i] {
                    return Err(format!("slot {slot} bucketed twice"));
                }
                seen[i] = true;
                if !alive[i] {
                    return Err(format!("dead slot {slot} in bucket {b}"));
                }
                if self.bucket_of_row(rows[i] as usize) != b {
                    return Err(format!("slot {slot} (row {}) in bucket {b}", rows[i]));
                }
                if self.slot_bucket[i] != b as u32 || self.slot_pos[i] != p as u32 {
                    return Err(format!("slot {slot}: stale back-pointer"));
                }
            }
        }
        if let Some(missing) = (1..alive.len()).find(|&i| alive[i] && !seen[i]) {
            return Err(format!("live slot {missing} not bucketed"));
        }
        Ok(())
    }
}

/// The tile-parallel pooled engine.
pub struct PooledEngine {
    core: StepCore,
    backend: PooledBackend,
}

/// The pooled engine's kernel-stage executor: the same host-side world
/// the scalar backend loops over, plus the worker pool and the per-cell
/// claim bytes. Movement updates the world in place, so there is no
/// second grid, scan matrix or pheromone buffer.
struct PooledBackend {
    cfg: SimConfig,
    geom: Geometry,
    env: Environment,
    tour: TourLengths,
    pher: Option<PheromoneField>,
    dist: Arc<DistanceData>,
    seed: u64,
    pool: WorkerPool,
    /// One claim byte per cell: bit `k` set means the agent at
    /// `cell + NEIGHBOR_OFFSETS[k]` targets this cell. All zero between
    /// steps — the movement pass clears every byte it reads.
    claims: Vec<AtomicU8>,
    /// When set, every launch permutes its band issue order with a
    /// Philox schedule keyed by `(seed, launch_counter)` — the
    /// interleaving explorer's handle into this backend. `None` (the
    /// default) dispatches bands in natural order.
    schedule_seed: Option<u64>,
    /// Monotonic pool-launch counter: keys the per-launch permutations
    /// and feeds the launch telemetry.
    launches: std::cell::Cell<u64>,
    /// Traversal mode, resolved from the configuration at build time.
    mode: IterationMode,
    /// Live agents bucketed by row band (`Some` iff sparse mode).
    buckets: Option<RowBuckets>,
    /// Sparse mode only, agent-keyed: the cell (linear) the agent claimed
    /// this step, then — after the decode pass — the cell it won;
    /// `u32::MAX` = stays put.
    won: Vec<u32>,
}

/// Run `f` over `0..parts` on the pool, optionally permuting the issue
/// order with the schedule key. A free function (not a method) so stages
/// can call it while holding field borrows of the backend.
fn dispatch(
    pool: &WorkerPool,
    schedule: Option<(u64, u64)>,
    parts: usize,
    f: &(dyn Fn(usize) + Sync),
) {
    match schedule {
        None => pool.run(parts, f),
        Some((seed, launch)) => {
            let perm = simt::exec::explore::permutation(seed, launch, parts);
            simt::exec::explore::run_permuted(pool, &perm, f);
        }
    }
}

/// In-place scatters over every pheromone plane (empty for LEM).
fn plane_scatters(pher: Option<&mut PheromoneField>) -> Vec<Scatter<'_, f32>> {
    pher.map_or_else(Vec::new, |p| {
        p.planes_mut()
            .iter_mut()
            .map(|m| Scatter::new(m.as_mut_slice()))
            .collect()
    })
}

/// The claimant a non-zero claim byte admits — the parallel equivalent
/// of [`gather_winner`](crate::model::gather_winner): the set bits, in
/// ascending order, are its slot-ordered candidate list, and the draw
/// uses the identical cell-keyed stream (no draw for a lone claimant).
/// Returns the neighbour slot the winner comes from.
#[inline]
fn admitted(bits: u8, seed: u64, cell: usize, counter_base: u64) -> usize {
    debug_assert_ne!(bits, 0, "cell {cell} has no claimant");
    let count = bits.count_ones();
    let pick = if count == 1 {
        0
    } else {
        StreamRng::with_offset(seed, cell as u64, counter_base).bounded_u32(count)
    };
    let mut bits = bits;
    for _ in 0..pick {
        bits &= bits - 1;
    }
    bits.trailing_zeros() as usize
}

/// Telemetry counter keys of the pooled backend's deterministic work
/// counts, in this order: agents that built a scan row (the
/// forward-priority short-circuit did not decide), agents that claimed a
/// target cell, and claimed cells with more than one claimant (a winner
/// draw). They are sums over agents and cells, so they do not depend on
/// the schedule, the thread count or the traversal mode, and they tell
/// less work apart from faster work.
pub const WORK_KEYS: [&str; 3] = ["pooled.scored", "pooled.claimed", "pooled.contested"];

/// One pass's deterministic work counts (see [`WORK_KEYS`]).
#[derive(Debug, Default, Clone, Copy)]
struct Work {
    scored: u64,
    claimed: u64,
    contested: u64,
}

impl Work {
    fn counts(self) -> [u64; 3] {
        [self.scored, self.claimed, self.contested]
    }
}

/// A launch's [`Work`] total: each task adds its local counts once.
#[derive(Default)]
struct WorkSum([AtomicU64; 3]);

impl WorkSum {
    fn add(&self, work: Work) {
        for (sum, n) in self.0.iter().zip(work.counts()) {
            // ordering: relaxed — addition commutes, and the launch
            // barrier publishes every task's addition before `total`.
            sum.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn total(self) -> Work {
        let [scored, claimed, contested] = self.0.map(AtomicU64::into_inner);
        Work {
            scored,
            claimed,
            contested,
        }
    }
}

/// The read-only inputs of one step's decide pass, shared by both
/// traversals.
struct Decide<'a> {
    mat: &'a Matrix<u8>,
    pher: Option<&'a PheromoneField>,
    dist: DistRef<'a>,
    model: ModelKind,
    seed: u64,
    /// Counter base of the tour draws: `(step·4 + KERNEL_TOUR) << 4`.
    counter_base: u64,
    width: usize,
    claims: &'a [AtomicU8],
}

impl Decide<'_> {
    /// Decide the group-`label` agent `a` standing at `(r, c)`: pick its
    /// next cell exactly as the scalar initial-calc + tour kernels do and
    /// claim it, counting into `work`. Returns the claimed cell (linear),
    /// or `None` when the agent stays put.
    #[inline]
    fn agent(&self, a: u32, label: u8, r: i64, c: i64, work: &mut Work) -> Option<usize> {
        let occ = |rr: i64, cc: i64| self.mat.get_or(rr, cc, CELL_WALL);
        let g = Group::from_label(label).expect("agent has a group label");
        let fk = self.dist.front_k(g, r, c);
        let front = front_status(&occ, fk, r, c);
        let k = if self.model.forward_priority() && front == CELL_EMPTY {
            // The selects' own short-circuit (no draw), taken before
            // scoring so the scan row is never built.
            fk
        } else {
            work.scored += 1;
            let mut rng = StreamRng::with_offset(self.seed, u64::from(a), self.counter_base);
            match self.model {
                ModelKind::Lem(p) => {
                    let row = lem_scan_row(&occ, self.dist, g, r, c, p.scan_range);
                    lem_select(&row, front, fk, &p, &mut rng)
                }
                ModelKind::Aco(p) => {
                    let tf = self.pher.expect("ACO has pheromone").of(g);
                    let tau = |rr: i64, cc: i64| tf.get_or(rr, cc, 0.0);
                    let row = aco_scan_row(&occ, &tau, self.dist, &p, g, r, c);
                    aco_select(&row, front, fk, &p, &mut rng)
                }
            }?
        };
        let (dr, dc) = NEIGHBOR_OFFSETS[k];
        let (tr, tc) = (r + dr, c + dc);
        // The selects only pick empty cells; the in-place resolve's
        // race-freedom rests on that, so it is enforced, not assumed.
        if occ(tr, tc) != CELL_EMPTY {
            return None;
        }
        let target = tr as usize * self.width + tc as usize;
        // ordering: relaxed — fetch_or commutes, so only the final claim
        // byte matters, and the launch barrier publishes it before the
        // resolve pass reads.
        self.claims[target].fetch_or(1 << offset_slot(-dr, -dc), Ordering::Relaxed);
        work.claimed += 1;
        Some(target)
    }
}

impl PooledEngine {
    /// Build the engine with `threads` pool workers (runs the
    /// data-preparation stage, like the other backends). A thin
    /// compile-then-construct wrapper over [`PooledEngine::from_world`].
    pub fn new(cfg: SimConfig, threads: usize) -> Self {
        let world = CompiledWorld::compile(&cfg);
        Self::from_world(&world, cfg, threads)
    }

    /// Build per-replica engine state with `threads` pool workers from an
    /// already compiled world. Bit-identical to [`PooledEngine::new`] on
    /// the same configuration.
    pub fn from_world(
        world: &std::sync::Arc<CompiledWorld>,
        cfg: SimConfig,
        threads: usize,
    ) -> Self {
        debug_assert!(
            world.matches(&cfg),
            "CompiledWorld was compiled from a different configuration"
        );
        let env = world.environment();
        let dist = world.distance();
        let geom = world.geometry();
        let core = StepCore::for_world(&cfg, &env, geom);
        let n = env.total_agents();
        let (h, w) = (env.height(), env.width());
        let pher = match cfg.model {
            ModelKind::Aco(p) => Some(PheromoneField::with_groups(h, w, p.tau0, env.n_groups())),
            ModelKind::Lem(_) => None,
        };
        let seed = cfg.env.seed;
        let mode = cfg.iteration.resolve(env.live_count(), h * w);
        let sparse = mode == IterationMode::Sparse;
        let pool = WorkerPool::new(threads);
        let buckets = sparse.then(|| {
            // Finer than the task count so count-balanced grouping has
            // room to equalise (BANDS_PER_WORKER × 4 buckets per worker).
            let hint = pool.workers() * BANDS_PER_WORKER * 4;
            let mut b = RowBuckets::new(h, n, hint);
            b.rebuild(&env.alive, &env.props.row);
            b
        });
        Self {
            core,
            backend: PooledBackend {
                cfg,
                geom,
                tour: TourLengths::new(n),
                pher,
                dist,
                seed,
                pool,
                claims: (0..h * w).map(|_| AtomicU8::new(0)).collect(),
                schedule_seed: None,
                launches: std::cell::Cell::new(0),
                mode,
                buckets,
                won: if sparse {
                    vec![u32::MAX; n + 1]
                } else {
                    Vec::new()
                },
                env,
            },
        }
    }

    /// Number of pool worker threads.
    pub fn threads(&self) -> usize {
        self.backend.pool.workers()
    }

    /// Permute every launch's band issue order with a Philox schedule
    /// keyed on `seed` (or restore natural order with `None`).
    ///
    /// Trajectories are claimed to be schedule-independent; the
    /// interleaving-exploration tests drive this knob over hundreds of
    /// seeds and assert bit-identity against the scalar backend.
    pub fn set_schedule_seed(&mut self, seed: Option<u64>) {
        self.backend.schedule_seed = seed;
    }

    /// Borrow the current environment state. The pooled backend keeps no
    /// FUTURE, front or scan state: those property columns stay at their
    /// initial values.
    pub fn environment(&self) -> &Environment {
        &self.backend.env
    }

    /// Replace the model parameters mid-run (the panic-alarm extension).
    pub fn set_model(&mut self, model: ModelKind) -> Result<(), ModelSwapError> {
        swap_model(&mut self.backend.cfg.model, model)
    }

    /// Borrow the pheromone field (ACO only).
    pub fn pheromone(&self) -> Option<&PheromoneField> {
        self.backend.pher.as_ref()
    }

    /// Borrow accumulated tour lengths.
    pub fn tour_lengths(&self) -> &TourLengths {
        &self.backend.tour
    }
}

impl PooledBackend {
    /// Bands to dispatch per launch.
    fn parts(&self) -> usize {
        self.pool.workers() * BANDS_PER_WORKER
    }

    /// Count one launch and return its schedule key, if permuted dispatch
    /// is on. Call at the *top* of a pass, before taking field borrows.
    fn next_schedule(&self) -> Option<(u64, u64)> {
        let launch = self.launches.get();
        self.launches.set(launch + 1);
        self.schedule_seed.map(|seed| (seed, launch))
    }

    /// The decide pass (§IV.b–c fused, one launch): every live agent
    /// picks and claims its next cell. Dense mode sweeps row bands of
    /// cells; sparse mode walks the bucket groups and also records each
    /// agent's claim in `won` for the decode pass.
    fn decide(&mut self, step_no: u64) -> Work {
        let w = self.geom.width;
        let parts = self.parts();
        let schedule = self.next_schedule();
        let decide = Decide {
            mat: &self.env.mat,
            pher: self.pher.as_ref(),
            dist: self.dist.dist_ref(),
            model: self.cfg.model,
            seed: self.seed,
            counter_base: (step_no * 4 + KERNEL_TOUR) << 4,
            width: w,
            claims: &self.claims,
        };
        let sum = WorkSum::default();
        let Some(buckets) = self.buckets.as_ref() else {
            let (mat, index) = (&self.env.mat, &self.env.index);
            let bands = band_ranges(self.geom.height, parts);
            dispatch(&self.pool, schedule, parts, &|b| {
                let mut work = Work::default();
                for r in bands[b].clone() {
                    for (c, &a) in index.row(r).iter().enumerate() {
                        if a != 0 {
                            decide.agent(a, mat.get(r, c), r as i64, c as i64, &mut work);
                        }
                    }
                }
                sum.add(work);
            });
            return sum.total();
        };
        let groups = buckets.task_groups(parts);
        let props = &self.env.props;
        let won = Scatter::new(&mut self.won);
        dispatch(&self.pool, schedule, parts, &|t| {
            let mut work = Work::default();
            for bkt in groups[t].clone() {
                for &a in buckets.members(bkt) {
                    let ai = a as usize;
                    let (r, c) = (i64::from(props.row[ai]), i64::from(props.col[ai]));
                    let target = decide.agent(a, props.id[ai], r, c, &mut work);
                    // SAFETY: agent-unique slot — each live agent sits in
                    // exactly one bucket and each bucket in exactly one
                    // task group (the audit fixture seeds the violation
                    // of precisely this).
                    unsafe { won.write(ai, target.map_or(u32::MAX, |t| t as u32)) };
                }
            }
            sum.add(work);
        });
        sum.total()
    }

    /// Dense movement (§IV.d, one launch over row bands): each band
    /// evaporates its pheromone cells (ACO), then every claimed cell
    /// admits its winner, clears its claim byte, moves the winner in
    /// place and adds the winner's deposit.
    fn resolve_dense(&mut self, step_no: u64) -> Work {
        let counter_base = (step_no * 4 + KERNEL_MOVE) << 4;
        let (h, w) = (self.geom.height, self.geom.width);
        let parts = self.parts();
        let schedule = self.next_schedule();
        let aco = self.cfg.model.aco_params();
        let (seed, claims, ids) = (self.seed, &self.claims, &self.env.props.id);
        let mat = Scatter::new(self.env.mat.as_mut_slice());
        let index = Scatter::new(self.env.index.as_mut_slice());
        let prow = Scatter::new(&mut self.env.props.row);
        let pcol = Scatter::new(&mut self.env.props.col);
        let ppos = Scatter::new(&mut self.env.pos);
        let tours = Scatter::new(&mut self.tour.len);
        let planes = plane_scatters(self.pher.as_mut());
        let bands = band_ranges(h, parts);
        let sum = WorkSum::default();
        dispatch(&self.pool, schedule, parts, &|b| {
            let mut work = Work::default();
            let cells = bands[b].start * w..bands[b].end * w;
            if let Some(p) = &aco {
                for plane in &planes {
                    // SAFETY: band-owned slots.
                    unsafe { evaporate(plane, cells.clone(), p) };
                }
            }
            let first = cells.start;
            for (i, claim) in claims[cells].iter().enumerate() {
                let lin = first + i;
                // ordering: relaxed — the decide launch's end barrier
                // published every fetch_or; in this pass only this task
                // touches this cell's byte.
                let bits = claim.load(Ordering::Relaxed);
                if bits != 0 {
                    // ordering: relaxed — as above; the next decide
                    // launch's start barrier publishes the zero.
                    claim.store(0, Ordering::Relaxed);
                    work.contested += u64::from(bits.count_ones() > 1);
                    let k = admitted(bits, seed, lin, counter_base);
                    let (dr, dc) = NEIGHBOR_OFFSETS[k];
                    let (r, c) = (lin / w, lin % w);
                    let src = (r as i64 + dr) as usize * w + (c as i64 + dc) as usize;
                    // SAFETY: claimed cells were empty at step start and
                    // the winner's source cell was occupied, so `lin` and
                    // `src` belong to this winner alone: no other task
                    // reads or writes them, or the winner's agent slots,
                    // this pass.
                    unsafe {
                        let a = index.read(src);
                        let ai = a as usize;
                        mat.write(src, CELL_EMPTY);
                        index.write(src, 0);
                        mat.write(lin, ids[ai]);
                        index.write(lin, a);
                        prow.write(ai, r as u16);
                        pcol.write(ai, c as u16);
                        ppos.write(ai, lin as u32);
                        if let Some(p) = aco {
                            let l_new = tours.read(ai) + MOVE_LEN[k];
                            tours.write(ai, l_new);
                            let g = Group::from_label(ids[ai]).expect("winner has group label");
                            let plane = &planes[g.index()];
                            plane.write(lin, plane.read(lin) + p.q / l_new);
                        }
                    }
                }
            }
            sum.add(work);
        });
        sum.total()
    }

    /// Sparse movement (§IV.d, two launches over the bucket groups):
    /// decode — each claimant re-draws its target's winner and keeps its
    /// claim in `won` only if it won, while each task evaporates one band
    /// of pheromone cells — then apply — winners move in place, clear
    /// their target's claim byte and deposit.
    fn resolve_sparse(&mut self, step_no: u64) -> Work {
        let counter_base = (step_no * 4 + KERNEL_MOVE) << 4;
        let w = self.geom.width;
        let parts = self.parts();
        let aco = self.cfg.model.aco_params();
        let groups = self
            .buckets
            .as_ref()
            .expect("sparse mode has buckets")
            .task_groups(parts);

        let sum = WorkSum::default();
        {
            let schedule = self.next_schedule();
            let buckets = self.buckets.as_ref().expect("sparse mode has buckets");
            let (seed, claims, props) = (self.seed, &self.claims, &self.env.props);
            let won = Scatter::new(&mut self.won);
            let planes = plane_scatters(self.pher.as_mut());
            let cell_bands = band_ranges(self.geom.height * w, parts);
            dispatch(&self.pool, schedule, parts, &|t| {
                let mut work = Work::default();
                for bkt in groups[t].clone() {
                    for &a in buckets.members(bkt) {
                        let ai = a as usize;
                        // SAFETY: agent-unique slot (bucket-disjoint tasks).
                        let target = unsafe { won.read(ai) };
                        if target == u32::MAX {
                            continue;
                        }
                        let target = target as usize;
                        // ordering: relaxed — the decide launch's end
                        // barrier published every fetch_or; this pass
                        // only reads the bytes.
                        let bits = claims[target].load(Ordering::Relaxed);
                        let own = offset_slot(
                            i64::from(props.row[ai]) - (target / w) as i64,
                            i64::from(props.col[ai]) - (target % w) as i64,
                        );
                        if admitted(bits, seed, target, counter_base) == own {
                            // Each claimed cell has exactly one winner.
                            work.contested += u64::from(bits.count_ones() > 1);
                        } else {
                            // SAFETY: agent-unique slot, as above.
                            unsafe { won.write(ai, u32::MAX) };
                        }
                    }
                }
                if let Some(p) = &aco {
                    for plane in &planes {
                        // SAFETY: band-disjoint slots.
                        unsafe { evaporate(plane, cell_bands[t].clone(), p) };
                    }
                }
                sum.add(work);
            });
        }

        // Apply, in place: winners' source cells (occupied at step start)
        // and destination cells (empty at step start) are disjoint
        // per-winner-unique sets, so the grid writes cannot conflict;
        // property/tour writes are agent-keyed. Cross-band movers go to
        // per-task outboxes, merged serially in task order below.
        let outboxes: Vec<std::sync::Mutex<Vec<(u32, u16)>>> = (0..parts)
            .map(|_| std::sync::Mutex::new(Vec::new()))
            .collect();
        {
            let schedule = self.next_schedule();
            let buckets = self.buckets.as_ref().expect("sparse mode has buckets");
            let (claims, won, ids) = (&self.claims, &self.won, &self.env.props.id);
            let mat = Scatter::new(self.env.mat.as_mut_slice());
            let index = Scatter::new(self.env.index.as_mut_slice());
            let prow = Scatter::new(&mut self.env.props.row);
            let pcol = Scatter::new(&mut self.env.props.col);
            let ppos = Scatter::new(&mut self.env.pos);
            let tours = Scatter::new(&mut self.tour.len);
            let planes = plane_scatters(self.pher.as_mut());
            dispatch(&self.pool, schedule, parts, &|t| {
                let mut moved: Vec<(u32, u16)> = Vec::new();
                for bkt in groups[t].clone() {
                    for &a in buckets.members(bkt) {
                        let ai = a as usize;
                        let dst = won[ai];
                        if dst == u32::MAX {
                            continue;
                        }
                        let dst = dst as usize;
                        // ordering: relaxed — every claimant of `dst` read
                        // the byte in the decode launch, whose end barrier
                        // orders those reads before this store; the next
                        // decide launch's start barrier publishes it.
                        claims[dst].store(0, Ordering::Relaxed);
                        let (nr, nc) = ((dst / w) as u16, (dst % w) as u16);
                        // SAFETY: `prow`/`pcol`/`ppos`/`tours` slots are
                        // agent-unique; `mat`/`index`/pheromone writes land
                        // on this winner's own source and destination
                        // cells, which are globally unique across winners
                        // (see the phase comment).
                        unsafe {
                            let (or_, oc_) = (prow.read(ai), pcol.read(ai));
                            let src = or_ as usize * w + oc_ as usize;
                            if let Some(p) = aco {
                                let from = offset_slot(
                                    i64::from(or_) - i64::from(nr),
                                    i64::from(oc_) - i64::from(nc),
                                );
                                let l_new = tours.read(ai) + MOVE_LEN[from];
                                tours.write(ai, l_new);
                                let g = Group::from_label(ids[ai]).expect("winner has group label");
                                // The decode pass left max((1-ρ)τ, τ₀) + 0
                                // here; adding the deposit completes the
                                // fused update bit for bit.
                                let plane = &planes[g.index()];
                                plane.write(dst, plane.read(dst) + p.q / l_new);
                            }
                            mat.write(src, CELL_EMPTY);
                            index.write(src, 0);
                            mat.write(dst, ids[ai]);
                            index.write(dst, a);
                            prow.write(ai, nr);
                            pcol.write(ai, nc);
                            ppos.write(ai, dst as u32);
                        }
                        if buckets.bucket_of_row(nr as usize) != bkt {
                            moved.push((a, nr));
                        }
                    }
                }
                if !moved.is_empty() {
                    // One uncontended lock per task, outside the hot loop.
                    *outboxes[t].lock().expect("outbox poisoned") = moved;
                }
            });
        }

        // Serial maintenance: merge the outboxes in task order (a fixed,
        // schedule-independent order).
        let buckets = self.buckets.as_mut().expect("sparse mode has buckets");
        for outbox in outboxes {
            for (a, nr) in outbox.into_inner().expect("outbox poisoned") {
                buckets.move_to(a, nr);
            }
        }
        sum.total()
    }
}

impl StageBackend for PooledBackend {
    fn run_stage(&mut self, stage: Stage, step_no: u64, rec: &mut pedsim_obs::Recorder) {
        let before = self.launches.get();
        let work = match stage {
            // Fused into the decide pass, which runs under InitialCalc.
            Stage::Init | Stage::Tour => Work::default(),
            Stage::InitialCalc => self.decide(step_no),
            Stage::Movement if self.buckets.is_some() => self.resolve_sparse(step_no),
            Stage::Movement => self.resolve_dense(step_no),
            Stage::Lifecycle | Stage::Metrics => unreachable!("core-driven stage"),
        };
        let launches = self.launches.get() - before;
        let k = stage.index();
        rec.inc(KERNEL_LAUNCH_KEYS[k], launches);
        rec.inc(KERNEL_BLOCK_KEYS[k], launches * self.parts() as u64);
        rec.inc(KERNEL_THREAD_KEYS[k], launches * self.pool.workers() as u64);
        for (key, n) in WORK_KEYS.into_iter().zip(work.counts()) {
            rec.inc(key, n);
        }
        #[cfg(debug_assertions)]
        if stage == Stage::Movement {
            // ordering: relaxed — the movement launch's end barrier
            // published every clearing store.
            debug_assert!(
                self.claims.iter().all(|b| b.load(Ordering::Relaxed) == 0),
                "claim bytes left set after movement"
            );
        }
    }

    fn observe(&self, metrics: &mut Metrics) {
        metrics.observe(&self.env.props.row, &self.env.props.col);
    }

    fn run_lifecycle(
        &mut self,
        lifecycle: &OpenLifecycle,
        step: u64,
        metrics: Option<&mut Metrics>,
    ) {
        let mut world = HostWorld {
            env: &mut self.env,
            tour: &mut self.tour,
            buckets: self.buckets.as_mut(),
        };
        lifecycle.run_step(&mut world, step, metrics);
        #[cfg(debug_assertions)]
        if let Some(b) = &self.buckets {
            b.check_consistency(&self.env.alive, &self.env.props.row)
                .expect("buckets consistent after lifecycle");
        }
    }
}

impl Engine for PooledEngine {
    fn step(&mut self) {
        self.core.step(&mut self.backend);
    }

    fn steps_done(&self) -> u64 {
        self.core.steps_done()
    }

    fn metrics(&self) -> Option<&Metrics> {
        self.core.metrics()
    }

    fn step_timings(&self) -> &StepTimings {
        self.core.timings()
    }

    fn telemetry(&self) -> &pedsim_obs::Recorder {
        self.core.recorder()
    }

    fn model(&self) -> ModelKind {
        self.backend.cfg.model
    }

    fn iteration_mode(&self) -> IterationMode {
        self.backend.mode
    }

    fn mat_snapshot(&self) -> Matrix<u8> {
        self.backend.env.mat.clone()
    }

    fn positions(&self) -> (Vec<u16>, Vec<u16>) {
        (
            self.backend.env.props.row.clone(),
            self.backend.env.props.col.clone(),
        )
    }
}

/// Convenience: build a pooled engine for a small classic corridor.
pub fn pooled_engine_small(
    width: usize,
    height: usize,
    per_side: usize,
    model: ModelKind,
    seed: u64,
    threads: usize,
) -> PooledEngine {
    let env = EnvConfig::small(width, height, per_side).with_seed(seed);
    PooledEngine::new(SimConfig::new(env, model).with_checked(true), threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::cpu::cpu_engine_small;
    use crate::model::{gather_winner, Arrival};

    #[test]
    fn offset_slot_inverts_neighbor_offsets() {
        for (k, &(dr, dc)) in NEIGHBOR_OFFSETS.iter().enumerate() {
            assert_eq!(offset_slot(dr, dc), k);
        }
    }

    #[test]
    fn band_ranges_cover_exactly_once() {
        for (n, parts) in [(0, 3), (5, 8), (7, 1), (100, 7), (16, 16)] {
            let bands = band_ranges(n, parts);
            assert_eq!(bands.len(), parts.max(1));
            let mut next = 0;
            for b in &bands {
                assert_eq!(b.start, next, "gap/overlap at {b:?} (n={n}, parts={parts})");
                next = b.end;
            }
            assert_eq!(next, n);
        }
    }

    #[test]
    fn admitted_claimant_matches_gather_winner() {
        // Drive the scalar engine a few steps; at each state give every
        // agent a random empty neighbour as its future, then compare the
        // claim decode against gather_winner on every cell.
        use pedsim_grid::NO_FUTURE;
        let mut e = cpu_engine_small(24, 24, 40, ModelKind::lem(), 13);
        let mut contested = 0;
        for step in 0..12u64 {
            e.step();
            let env = e.environment();
            let (h, w) = (env.mat.height(), env.mat.width());
            let occ = |r: i64, c: i64| env.mat.get_or(r, c, CELL_WALL);
            let mut props = env.props.clone();
            let claims: Vec<AtomicU8> = (0..h * w).map(|_| AtomicU8::new(0)).collect();
            for a in 1..props.row.len() {
                let (r, c) = (i64::from(props.row[a]), i64::from(props.col[a]));
                let free: Vec<usize> = (0..8)
                    .filter(|&k| {
                        let (dr, dc) = NEIGHBOR_OFFSETS[k];
                        occ(r + dr, c + dc) == CELL_EMPTY
                    })
                    .collect();
                let mut rng = StreamRng::new(step, a as u64);
                let Some(&k) = free.get(rng.bounded_u32(free.len() as u32 + 1) as usize) else {
                    props.future_row[a] = NO_FUTURE;
                    props.future_col[a] = NO_FUTURE;
                    continue;
                };
                let (dr, dc) = NEIGHBOR_OFFSETS[k];
                let (fr, fc) = ((r + dr) as usize, (c + dc) as usize);
                props.future_row[a] = fr as u16;
                props.future_col[a] = fc as u16;
                claims[fr * w + fc].fetch_or(1 << offset_slot(-dr, -dc), Ordering::Relaxed);
            }
            let idx = |r: i64, c: i64| env.index.get_or(r, c, 0);
            let fut = |a: u32| (props.future_row[a as usize], props.future_col[a as usize]);
            let counter_base = (step * 4 + KERNEL_MOVE) << 4;
            for r in 0..h {
                for c in 0..w {
                    let lin = r * w + c;
                    let mut rng = StreamRng::with_offset(env.seed, lin as u64, counter_base);
                    let reference = gather_winner(&occ, &idx, &fut, r as i64, c as i64, &mut rng);
                    let bits = claims[lin].load(Ordering::Relaxed);
                    contested += usize::from(bits.count_ones() > 1);
                    let decoded = (bits != 0).then(|| {
                        let k = admitted(bits, env.seed, lin, counter_base);
                        let (dr, dc) = NEIGHBOR_OFFSETS[k];
                        Arrival {
                            agent: env
                                .index
                                .get((r as i64 + dr) as usize, (c as i64 + dc) as usize),
                            from_k: k,
                        }
                    });
                    assert_eq!(decoded, reference, "cell ({r},{c}) at step {step}");
                }
            }
        }
        assert!(contested > 20, "only {contested} contested cells exercised");
    }

    #[test]
    fn pooled_matches_scalar_closed_world() {
        for model in [ModelKind::lem(), ModelKind::aco()] {
            let mut scalar = cpu_engine_small(32, 32, 60, model, 5);
            scalar.run(40);
            for threads in [1, 2, 4] {
                let mut pooled = pooled_engine_small(32, 32, 60, model, 5, threads);
                pooled.run(40);
                assert_eq!(
                    scalar.mat_snapshot(),
                    pooled.mat_snapshot(),
                    "{} diverged at {threads} threads",
                    model.name()
                );
                assert_eq!(scalar.positions(), pooled.positions());
            }
        }
    }

    #[test]
    fn auto_resolves_sparse_on_corridor_occupancy() {
        // 32×32 with 30+30 agents is ~6 % occupancy — Auto goes sparse.
        let e = pooled_engine_small(32, 32, 30, ModelKind::lem(), 1, 1);
        assert_eq!(e.iteration_mode(), IterationMode::Sparse);
        // Near-jammed world stays dense.
        let env = EnvConfig::small(16, 16, 40).with_seed(1);
        let e = PooledEngine::new(SimConfig::new(env, ModelKind::lem()), 1);
        assert_eq!(e.iteration_mode(), IterationMode::Dense);
    }

    #[test]
    fn pooled_consistency_and_progress() {
        let mut e = pooled_engine_small(32, 32, 30, ModelKind::lem(), 42, 3);
        e.run(100);
        e.environment().check_consistency().expect("consistent");
        let m = e.metrics().expect("metrics on");
        assert!(m.total_moves > 0, "nobody moved");
        assert!(m.throughput() > 0, "no crossings");
    }

    /// Seed a deliberate overlap into the tile partition and show the
    /// interleaving explorer catches it: the overlapping rows become
    /// last-writer-wins, so some permuted schedule must diverge.
    #[test]
    fn explorer_catches_seeded_band_overlap() {
        use simt::exec::explore::{explore, permutation, run_permuted_serial};
        let n = 64;
        let parts = 8;
        let mut bands = band_ranges(n, parts);
        // The seeded fault: band 2 grows to also cover band 3's first row.
        bands[2] = bands[2].start..bands[2].end + 1;
        let err = explore(0..128u64, |seed| {
            let mut owner = vec![usize::MAX; n];
            let perm = permutation(seed, 0, parts);
            run_permuted_serial(&perm, &mut |b| {
                for i in bands[b].clone() {
                    owner[i] = b;
                }
            });
            owner
        })
        .expect_err("overlapping partition must be schedule-dependent");
        assert!(err.agreed >= 1);

        // The unmutated partition is schedule-independent.
        let bands = band_ranges(n, parts);
        explore(0..128u64, |seed| {
            let mut owner = vec![usize::MAX; n];
            let perm = permutation(seed, 0, parts);
            run_permuted_serial(&perm, &mut |b| {
                for i in bands[b].clone() {
                    owner[i] = b;
                }
            });
            owner
        })
        .expect("disjoint partition is schedule-independent");
    }

    /// The same seeded overlap, caught at runtime by the write-set race
    /// detector: the doubly-owned slot panics on its second write, and
    /// the pool re-raises on the launching thread.
    #[cfg(feature = "audit-runtime")]
    #[test]
    fn detector_catches_seeded_band_overlap() {
        let pool = WorkerPool::new(4);
        let n = 64;
        let parts = 8;
        let mut bands = band_ranges(n, parts);
        bands[2] = bands[2].start..bands[2].end + 1;
        let mut data = vec![0u32; n];
        let out = Scatter::new(&mut data);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(parts, &|b| {
                for i in bands[b].clone() {
                    // SAFETY: bounds hold; disjointness is deliberately
                    // violated at one slot to exercise the detector.
                    unsafe { out.write(i, b as u32) };
                }
            });
        }));
        let payload = res.expect_err("write-set detector must fire");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("tile race"), "unexpected panic: {msg}");
    }

    /// A clean run under the detector: disjoint bands never fire it.
    #[cfg(feature = "audit-runtime")]
    #[test]
    fn detector_accepts_disjoint_bands() {
        let pool = WorkerPool::new(4);
        let n = 1000;
        let parts = 16;
        let bands = band_ranges(n, parts);
        let mut data = vec![0u32; n];
        let out = Scatter::new(&mut data);
        pool.run(parts, &|b| {
            for i in bands[b].clone() {
                // SAFETY: band-disjoint slots.
                unsafe { out.write(i, b as u32) };
            }
        });
        drop(out);
        for (i, v) in data.iter().enumerate() {
            let owner = bands.iter().position(|r| r.contains(&i)).unwrap();
            assert_eq!(*v, owner as u32, "slot {i}");
        }
    }

    /// A populated bucket structure for the sparse-partition fixtures:
    /// 16 rows in 8 two-row buckets, 48 live slots laid out round-robin
    /// over the rows, so every bucket holds exactly 6 members.
    fn seeded_buckets() -> RowBuckets {
        let mut buckets = RowBuckets::new(16, 48, 8);
        for slot in 1..=48u32 {
            buckets.insert(slot, (slot % 16) as u16);
        }
        buckets
    }

    #[test]
    fn bucket_task_groups_cover_every_bucket_exactly_once() {
        let mut buckets = seeded_buckets();
        assert_eq!(buckets.n_buckets(), 8);
        assert_eq!(buckets.len(), 48);
        for parts in [1usize, 3, 4, 8, 16] {
            let groups = buckets.task_groups(parts);
            assert_eq!(groups.len(), parts);
            let mut next = 0;
            for g in &groups {
                assert_eq!(g.start, next, "gap/overlap at {g:?} (parts={parts})");
                next = g.end;
            }
            assert!(next <= buckets.n_buckets());
            // Unassigned trailing buckets must be empty.
            let stragglers: usize = (next..buckets.n_buckets())
                .map(|b| buckets.members(b).len())
                .sum();
            assert_eq!(stragglers, 0, "non-empty bucket left unassigned");
            // Count-balance: no group exceeds its proportional target.
            for (t, g) in groups.iter().enumerate() {
                let count: usize = g.clone().map(|b| buckets.members(b).len()).sum();
                let cap = (t + 1) * buckets.len() / parts + 6;
                assert!(count <= cap, "group {t} holds {count} members");
            }
        }
        // Churn keeps the partition sound: drain one bucket entirely and
        // re-home a couple of slots across band boundaries.
        for slot in [16u32, 32, 48] {
            buckets.remove(slot);
        }
        buckets.move_to(1, 15);
        buckets.move_to(2, 0);
        let alive: Vec<bool> = (0..49)
            .map(|s| s != 0 && s != 16 && s != 32 && s != 48)
            .collect();
        let mut rows = vec![0u16; 49];
        for slot in 1..=48u32 {
            rows[slot as usize] = (slot % 16) as u16;
        }
        rows[1] = 15;
        rows[2] = 0;
        buckets
            .check_consistency(&alive, &rows)
            .expect("consistent");
        let groups = buckets.task_groups(4);
        let covered: usize = groups
            .iter()
            .flat_map(|g| g.clone())
            .map(|b| buckets.members(b).len())
            .sum();
        assert_eq!(covered, buckets.len(), "member lost by the partition");
    }

    /// Seed a deliberate overlap into the sparse *bucket* partition —
    /// the agent-centric analogue of the band overlap below — and show
    /// the interleaving explorer catches it: the twice-assigned bucket's
    /// agent slots become last-writer-wins, so some permuted schedule
    /// must diverge. The unmutated partition is schedule-independent.
    #[test]
    fn explorer_catches_seeded_bucket_overlap() {
        use simt::exec::explore::{explore, permutation, run_permuted_serial};
        let buckets = seeded_buckets();
        let parts = 4;
        let scatter = |groups: &[std::ops::Range<usize>]| {
            explore(0..128u64, |seed| {
                let mut owner = vec![usize::MAX; 49];
                let perm = permutation(seed, 0, parts);
                run_permuted_serial(&perm, &mut |t| {
                    for b in groups[t].clone() {
                        for &a in buckets.members(b) {
                            owner[a as usize] = t;
                        }
                    }
                });
                owner
            })
        };

        let mut groups = buckets.task_groups(parts);
        // The seeded fault: group 1 re-covers group 0's last bucket.
        groups[1] = groups[1].start - 1..groups[1].end;
        let err = scatter(&groups).expect_err("overlapping bucket groups are schedule-dependent");
        assert!(err.agreed >= 1);

        let groups = buckets.task_groups(parts);
        scatter(&groups).expect("disjoint bucket groups are schedule-independent");
    }

    /// The same seeded bucket overlap, caught at runtime by the
    /// write-set race detector guarding the sparse stages' agent-keyed
    /// scatters: the twice-assigned bucket's agent slot is written by
    /// two tasks in one phase, so the second write panics and the pool
    /// re-raises on the launching thread.
    #[cfg(feature = "audit-runtime")]
    #[test]
    fn detector_catches_seeded_bucket_overlap() {
        let pool = WorkerPool::new(4);
        let buckets = seeded_buckets();
        let parts = 4;
        let mut groups = buckets.task_groups(parts);
        groups[1] = groups[1].start - 1..groups[1].end;
        let mut data = vec![u32::MAX; 49];
        let out = Scatter::new(&mut data);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(parts, &|t| {
                for b in groups[t].clone() {
                    for &a in buckets.members(b) {
                        // SAFETY: bounds hold; agent-uniqueness is
                        // deliberately violated at one bucket to exercise
                        // the detector.
                        unsafe { out.write(a as usize, t as u32) };
                    }
                }
            });
        }));
        let payload = res.expect_err("write-set detector must fire");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("tile race"), "unexpected panic: {msg}");
    }

    /// A clean sparse scatter under the detector: disjoint bucket groups
    /// write each live agent slot exactly once and never fire it.
    #[cfg(feature = "audit-runtime")]
    #[test]
    fn detector_accepts_disjoint_bucket_groups() {
        let pool = WorkerPool::new(4);
        let buckets = seeded_buckets();
        let parts = 4;
        let groups = buckets.task_groups(parts);
        let mut data = vec![u32::MAX; 49];
        let out = Scatter::new(&mut data);
        pool.run(parts, &|t| {
            for b in groups[t].clone() {
                for &a in buckets.members(b) {
                    // SAFETY: agent-unique slots (bucket-disjoint groups).
                    unsafe { out.write(a as usize, t as u32) };
                }
            }
        });
        drop(out);
        for (slot, &got) in data.iter().enumerate().skip(1) {
            let b = buckets.bucket_of_row(slot % 16);
            let owner = groups.iter().position(|g| g.contains(&b)).unwrap();
            assert_eq!(got, owner as u32, "slot {slot}");
        }
    }

    /// The work counters are sums over agents and cells: identical at
    /// every thread count, in both traversal modes and under permuted
    /// schedules. They also show the forward-priority short-circuit
    /// sparing most agents their scan row in free flow.
    #[test]
    fn work_counts_are_schedule_and_mode_independent() {
        let steps = 30;
        let counts = |mode: IterationMode, threads: usize, schedule: Option<u64>| {
            let env = EnvConfig::small(32, 32, 60).with_seed(5);
            let cfg = SimConfig::new(env, ModelKind::aco()).with_iteration_mode(mode);
            let mut e = PooledEngine::new(cfg, threads);
            e.set_schedule_seed(schedule);
            e.run(steps);
            WORK_KEYS.map(|k| e.telemetry().counter(k))
        };
        let reference = counts(IterationMode::Dense, 1, None);
        for mode in [IterationMode::Dense, IterationMode::Sparse] {
            for threads in [1, 3] {
                for schedule in [None, Some(7)] {
                    assert_eq!(
                        counts(mode, threads, schedule),
                        reference,
                        "{mode:?} t{threads} schedule {schedule:?}"
                    );
                }
            }
        }
        let [scored, claimed, contested] = reference;
        let decided = steps * 120;
        assert!(
            scored > 0 && scored < decided / 2,
            "scored {scored} of {decided}"
        );
        assert!(
            claimed > contested && contested > 0,
            "{claimed} claims, {contested} contested"
        );
    }

    /// Permuted dispatch must not change trajectories: a handful of
    /// schedule seeds here, hundreds in tests/audit_soundness.rs.
    #[test]
    fn schedule_permutation_preserves_trajectories() {
        let mut reference = pooled_engine_small(24, 24, 40, ModelKind::lem(), 7, 4);
        reference.run(30);
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            let mut permuted = pooled_engine_small(24, 24, 40, ModelKind::lem(), 7, 4);
            permuted.set_schedule_seed(Some(seed));
            permuted.run(30);
            assert_eq!(
                reference.mat_snapshot(),
                permuted.mat_snapshot(),
                "schedule seed {seed} changed the trajectory"
            );
            assert_eq!(reference.positions(), permuted.positions());
        }
    }

    #[test]
    fn pooled_pheromone_matches_scalar() {
        let mut scalar = cpu_engine_small(24, 24, 30, ModelKind::aco(), 9);
        let mut pooled = pooled_engine_small(24, 24, 30, ModelKind::aco(), 9, 4);
        scalar.run(25);
        pooled.run(25);
        let (sp, pp) = (scalar.pheromone().unwrap(), pooled.pheromone().unwrap());
        for g in 0..sp.groups() {
            let g = Group::new(g);
            assert_eq!(sp.of(g).as_slice(), pp.of(g).as_slice());
        }
        assert_eq!(scalar.tour_lengths(), pooled.tour_lengths());
    }
}
