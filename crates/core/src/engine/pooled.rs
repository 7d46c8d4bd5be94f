//! The tile-parallel pooled CPU backend (`pooled` in the backend
//! registry) — the repo's fast path.
//!
//! A multi-threaded host engine on the `simt` [`WorkerPool`]: the grid is
//! partitioned into contiguous row bands ([`band_ranges`], the pool's own
//! split, so band `b` runs on the same worker in every pass unless that
//! worker falls behind) — or, for the
//! sparse decide pass, the agent slots `1..=n` into one contiguous slot
//! range per worker — and every pass runs with **conflict-free writes**:
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
//! reaches the identical trajectory in **two pool launches per step**,
//! in both traversal modes:
//!
//! 1. **Decide** (init + initial calculation + tour, fused): each agent
//!    reads its front cell, scores its neighbourhood only when the
//!    forward-priority short-circuit does not already decide (the scan
//!    row would go unread), draws its move from its own stream, and ORs
//!    one bit into its target cell's claim byte — bit `k` means "the
//!    agent standing at `target + NEIGHBOR_OFFSETS[k]` wants in".
//!    `fetch_or` is commutative, so the byte is schedule-independent.
//!    Neither a scan row nor a FUTURE cell is stored, and only empty
//!    cells are claimed. Dense mode sweeps row bands of cells; sparse
//!    mode walks slot ranges and also files each claimed cell in the
//!    task's own bin for the target's row band, so the resolve can find
//!    the claimed cells without sweeping the grid.
//! 2. **Resolve** (movement, over row bands): each band evaporates its
//!    pheromone cells (ACO), then every cell of the band with a non-zero
//!    claim byte — found by sweeping the band's claim bytes (dense) or
//!    by walking every task's bin for the band (sparse; a duplicate
//!    entry finds its byte already cleared) — decodes it: the set bits,
//!    read in ascending order, are exactly the candidate list
//!    `gather_winner` builds in slot order, and the winner is drawn once
//!    with the same `(seed, cell, salt)` stream. The cell clears its
//!    byte for the next step, moves its winner **in place** and adds the
//!    winner's deposit. Claimed cells were empty when the step began and
//!    every winner's source cell was occupied, so no two winners touch
//!    the same cell and no task reads a slot another task writes. Each
//!    task also lists the agents it moved in its own mover list, which
//!    the metrics observation reads as the step's movers. Evaporating and
//!    then adding the deposit is bit-equal to the scalar fused update
//!    because `max((1-ρ)τ, τ₀) + 0.0` is exact.
//!
//! The sparse decide pass needs no spatial bookkeeping to keep its
//! writes disjoint: claims commute and each task writes only its own
//! bins. So each worker walks one contiguous range of agent slots,
//! skipping dead ones. Slot ranges are balanced by count by construction;
//! more than one range per worker would only put adjacent ranges, which
//! overlap in space, on different threads at once, fighting over the
//! same claim-byte cache lines.
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

/// The tile partition every pooled pass dispatches over; the partition
/// proptests pin its exactly-once property.
pub use simt::exec::pool::band_ranges;

use crate::metrics::{Geometry, Metrics};
use crate::model::{aco_numerator, aco_select, availability, lem_scan_row, lem_select, ScanRow};
use crate::params::{AcoParams, IterationMode, ModelKind, SimConfig};

use super::cpu::HostWorld;
use super::lifecycle::OpenLifecycle;
use super::pipeline::{
    Stage, StageBackend, StepCore, StepTimings, KERNEL_BLOCK_KEYS, KERNEL_LAUNCH_KEYS,
    KERNEL_THREAD_KEYS,
};
use super::{split_positions, swap_model, Engine, ModelSwapError, KERNEL_MOVE, KERNEL_TOUR};
use crate::world::CompiledWorld;

/// Row-band oversubscription factor: row bands per worker, so a
/// straggler band cannot serialise the stage. The sparse decide pass
/// dispatches one slot range per worker instead.
pub(crate) const BANDS_PER_WORKER: usize = 4;

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

/// The [`availability`] byte of the agent at `(r, c)` in `mat`. An
/// interior agent's 3×3 neighbourhood is three 3-byte row windows of one
/// slice of the row-major cells, from its top-left to its bottom-right
/// neighbour; an agent on the grid's border takes the per-neighbour loop,
/// which reads outside cells as walls.
#[inline]
fn mat_availability(mat: &Matrix<u8>, r: usize, c: usize) -> u8 {
    let (h, w) = (mat.height(), mat.width());
    if r == 0 || c == 0 || r + 1 >= h || c + 1 >= w {
        let occ = |rr: i64, cc: i64| mat.get_or(rr, cc, CELL_WALL);
        return availability(&occ, r as i64, c as i64);
    }
    let cells = &mat.as_slice()[(r - 1) * w + c - 1..][..2 * w + 3];
    let window = |i: usize| [cells[i], cells[i + 1], cells[i + 2]];
    let free = |v: u8| u8::from(v == CELL_EMPTY);
    // Bit k is neighbour NEIGHBOR_OFFSETS[k]: (1,0) (1,-1) (1,1) (0,-1)
    // (0,1) (-1,0) (-1,-1) (-1,1).
    let [sw, s, se] = window(2 * w);
    let [west, _, east] = window(w);
    let [nw, n, ne] = window(0);
    free(s)
        | free(sw) << 1
        | free(se) << 2
        | free(west) << 3
        | free(east) << 4
        | free(n) << 5
        | free(nw) << 6
        | free(ne) << 7
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
/// cell slots are owned by the band holding the cell or by the winner
/// that moves through them, agent slots by the unique cell their agent
/// wins, and per-task lists by their task). Under
/// `audit-runtime` every write is checked against a per-phase
/// [`WriteSet`] instead of being trusted.
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

impl<'a, T> Scatter<'a, T> {
    fn new(s: &'a mut [T]) -> Self {
        Self {
            ptr: s.as_mut_ptr(),
            len: s.len(),
            #[cfg(feature = "audit-runtime")]
            ws: Arc::new(WriteSet::new(s.len())),
            _life: std::marker::PhantomData,
        }
    }

    /// Borrow slot `i` mutably for the rest of the calling task.
    ///
    /// SAFETY: `i` must be in bounds and touched by no other concurrent
    /// task; the caller must not hold two borrows of slot `i` at once.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn slot_mut(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        #[cfg(feature = "audit-runtime")]
        self.ws.note(i);
        // SAFETY: forwarded contract.
        unsafe { &mut *self.ptr.add(i) }
    }
}

impl<T: Copy> Scatter<'_, T> {
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

/// The tile-parallel pooled engine.
pub struct PooledEngine {
    core: StepCore,
    backend: PooledBackend,
}

/// The pooled engine's kernel-stage executor: the same host-side world
/// the scalar backend loops over, plus the worker pool, the per-cell
/// claim bytes, the task partitions and one mover list per resolve
/// band. Movement updates the world
/// in place, so there is no second grid, scan matrix or pheromone
/// buffer.
struct PooledBackend {
    cfg: SimConfig,
    geom: Geometry,
    env: Environment,
    tour: TourLengths,
    pher: Option<PheromoneField>,
    dist: Arc<DistanceData>,
    /// [`eta_beta_plane`] of `dist` under the current model's β.
    eta_beta: Vec<f32>,
    seed: u64,
    pool: WorkerPool,
    /// One claim byte per cell: bit `k` set means the agent at
    /// `cell + NEIGHBOR_OFFSETS[k]` targets this cell. All zero between
    /// steps — the movement pass clears every byte it reads.
    claims: Vec<AtomicU8>,
    /// When set, every launch permutes its task issue order (row bands
    /// or slot ranges) with a Philox schedule keyed by `(seed,
    /// launch_counter)` — the interleaving explorer's handle into this
    /// backend. `None` (the default) dispatches tasks in natural order.
    schedule_seed: Option<u64>,
    /// Monotonic pool-launch counter: keys the per-launch permutations
    /// and feeds the launch telemetry.
    launches: std::cell::Cell<u64>,
    /// Tasks dispatched over all launches, for the launch telemetry.
    blocks: std::cell::Cell<u64>,
    /// Traversal mode, resolved from the configuration at build time.
    mode: IterationMode,
    /// The row bands of the dense decide pass and of every resolve pass,
    /// `BANDS_PER_WORKER` per worker.
    bands: Vec<std::ops::Range<usize>>,
    /// The band holding each grid row.
    band_of_row: Vec<u32>,
    /// The sparse decide pass's slot ranges: slots `1..=n`, one
    /// contiguous range per worker.
    slots: Vec<std::ops::Range<usize>>,
    /// Sparse mode only, `bins[task][band]`: the cells (linear) slot
    /// range `task` claimed this step in row band `band`, one entry per
    /// claim, so a contested cell may appear more than once. Each decide
    /// task rewrites only its own bins; the resolve task of `band` reads
    /// column `band` of every task.
    bins: Vec<Vec<Vec<u32>>>,
    /// One list per resolve band: the slots that band moved this step,
    /// the metrics observation's movers. Each task rewrites only its own
    /// list, so no lock is taken.
    movers: Vec<Vec<u32>>,
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
/// counts, in this order: agents the forward-priority short-circuit did
/// not decide (they reach scoring), agents that claimed a target cell,
/// claimed cells with more than one claimant (a winner draw), and agents
/// among the first count whose availability byte alone decided them —
/// boxed in, or with one candidate — so they opened no stream and built
/// no scan row. They are sums over agents and cells, so they do not
/// depend on the schedule, the thread count or the traversal mode, and
/// they tell less work apart from faster work.
pub const WORK_KEYS: [&str; 4] = [
    "pooled.scored",
    "pooled.claimed",
    "pooled.contested",
    "pooled.settled",
];

/// One pass's deterministic work counts (see [`WORK_KEYS`]).
#[derive(Debug, Default, Clone, Copy)]
struct Work {
    scored: u64,
    claimed: u64,
    contested: u64,
    settled: u64,
}

impl Work {
    fn counts(self) -> [u64; 4] {
        [self.scored, self.claimed, self.contested, self.settled]
    }
}

/// A launch's [`Work`] total: each task adds its local counts once.
#[derive(Default)]
struct WorkSum([AtomicU64; 4]);

impl WorkSum {
    fn add(&self, work: Work) {
        for (sum, n) in self.0.iter().zip(work.counts()) {
            // ordering: relaxed — addition commutes, and the launch
            // barrier publishes every task's addition before `total`.
            sum.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn total(self) -> Work {
        let [scored, claimed, contested, settled] = self.0.map(AtomicU64::into_inner);
        Work {
            scored,
            claimed,
            contested,
            settled,
        }
    }
}

/// The read-only inputs of one step's decide pass, shared by both
/// traversals.
struct Decide<'a> {
    mat: &'a Matrix<u8>,
    pher: Option<&'a PheromoneField>,
    dist: DistRef<'a>,
    /// ACO's `η^β` plane, indexed as [`DistRef::neighbor_index`].
    eta_beta: &'a [f32],
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
    /// claim it, counting into `work`. Returns the claimed cell's row and
    /// linear index (the row files sparse claims under their band without
    /// a division), or `None` when the agent stays put.
    ///
    /// One availability byte — bit `k` set when neighbour `k` is empty —
    /// answers every occupancy question: the forward-priority test, the
    /// outcomes it fixes alone (boxed in: no move; one LEM candidate: the
    /// clamped-normal rank of a one-entry row is 0, so that candidate; one
    /// ACO candidate: its numerator is the whole denominator, so that
    /// candidate when the numerator is positive, else no move), which ACO
    /// numerators to compute, and whether the target is empty. Each
    /// shortcut returns what the select would, and draws are keyed per
    /// (agent, step), so a skipped draw moves no other stream.
    #[inline]
    fn agent(
        &self,
        a: u32,
        label: u8,
        r: usize,
        c: usize,
        work: &mut Work,
    ) -> Option<(usize, usize)> {
        let avail = mat_availability(self.mat, r, c);
        let (r, c) = (r as i64, c as i64);
        let g = Group::from_label(label).expect("agent has a group label");
        let fk = self.dist.front_k(g, r, c);
        let k = if self.model.forward_priority() && avail & (1 << fk) != 0 {
            // The selects' own short-circuit (no draw), taken before
            // scoring so the scan row is never built.
            fk
        } else {
            work.scored += 1;
            if avail == 0 {
                work.settled += 1;
                return None;
            }
            // The selects read the front status only as "empty or not".
            let front = if avail & (1 << fk) != 0 {
                CELL_EMPTY
            } else {
                CELL_WALL
            };
            let stream = || StreamRng::with_offset(self.seed, u64::from(a), self.counter_base);
            match self.model {
                ModelKind::Lem(_) if avail.count_ones() == 1 => {
                    work.settled += 1;
                    avail.trailing_zeros() as usize
                }
                ModelKind::Lem(p) => {
                    // Only the `scan_range > 1` ray penalty reads `occ`.
                    let occ = |rr: i64, cc: i64| self.mat.get_or(rr, cc, CELL_WALL);
                    let row = lem_scan_row(avail, &occ, self.dist, g, r, c, p.scan_range);
                    lem_select(&row, front, fk, &p, &mut stream())?
                }
                ModelKind::Aco(p) => {
                    let tf = self.pher.expect("ACO has pheromone").of(g);
                    let numerator = |k: usize| {
                        let (dr, dc) = NEIGHBOR_OFFSETS[k];
                        let i = self
                            .dist
                            .neighbor_index(g, r, c, k)
                            .expect("an empty neighbour lies inside the grid");
                        let tau = tf.get((r + dr) as usize, (c + dc) as usize);
                        aco_numerator(tau, self.eta_beta[i], p.alpha)
                    };
                    if avail.count_ones() == 1 {
                        work.settled += 1;
                        let k = avail.trailing_zeros() as usize;
                        if numerator(k) > 0.0 {
                            k
                        } else {
                            return None;
                        }
                    } else {
                        let mut row = ScanRow::empty();
                        let mut bits = avail;
                        while bits != 0 {
                            let k = bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            row.vals[k] = numerator(k);
                        }
                        aco_select(&row, front, fk, &p, &mut stream())?
                    }
                }
            }
        };
        // The selects only pick empty cells; the in-place resolve's
        // race-freedom rests on that, so it is enforced, not assumed.
        if avail & (1 << k) == 0 {
            return None;
        }
        let (dr, dc) = NEIGHBOR_OFFSETS[k];
        let row = (r + dr) as usize;
        let target = row * self.width + (c + dc) as usize;
        // ordering: relaxed — fetch_or commutes, so only the final claim
        // byte matters, and the launch barrier publishes it before the
        // resolve pass reads.
        self.claims[target].fetch_or(1 << offset_slot(-dr, -dc), Ordering::Relaxed);
        work.claimed += 1;
        Some((row, target))
    }
}

/// ACO's `η^β` plane: `(1/D)^β` for every entry of the distance field,
/// indexed as [`DistRef::neighbor_index`] — the step-invariant half of
/// eq. (2)'s numerator, computed once per β instead of once per scored
/// neighbour. Empty for LEM, which never reads it.
fn eta_beta_plane(dist: &DistanceData, model: ModelKind) -> Vec<f32> {
    match model.aco_params() {
        Some(p) => dist.data.iter().map(|&d| (1.0 / d).powf(p.beta)).collect(),
        None => Vec::new(),
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
        let eta_beta = eta_beta_plane(&dist, cfg.model);
        let pool = WorkerPool::new(threads);
        let bands = band_ranges(h, pool.workers() * BANDS_PER_WORKER);
        let mut band_of_row = vec![0; h];
        for (b, rows) in bands.iter().enumerate() {
            band_of_row[rows.clone()].fill(b as u32);
        }
        let slots = band_ranges(n, pool.workers())
            .into_iter()
            .map(|r| r.start + 1..r.end + 1)
            .collect::<Vec<_>>();
        let bins = if mode == IterationMode::Sparse {
            vec![vec![Vec::new(); bands.len()]; slots.len()]
        } else {
            Vec::new()
        };
        let backend = PooledBackend {
            cfg,
            geom,
            tour: TourLengths::new(n),
            pher,
            dist,
            eta_beta,
            seed,
            pool,
            claims: (0..h * w).map(|_| AtomicU8::new(0)).collect(),
            schedule_seed: None,
            launches: std::cell::Cell::new(0),
            blocks: std::cell::Cell::new(0),
            mode,
            movers: vec![Vec::new(); bands.len()],
            bands,
            band_of_row,
            slots,
            bins,
            env,
        };
        Self { core, backend }
    }

    /// Number of pool worker threads.
    pub fn threads(&self) -> usize {
        self.backend.pool.workers()
    }

    /// Permute every launch's task issue order with a Philox schedule
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
    /// A new ACO β rebuilds the `η^β` plane.
    pub fn set_model(&mut self, model: ModelKind) -> Result<(), ModelSwapError> {
        let beta = |m: ModelKind| m.aco_params().map(|p| p.beta.to_bits());
        let b = &mut self.backend;
        let old = beta(b.cfg.model);
        swap_model(&mut b.cfg.model, model)?;
        if beta(model) != old {
            b.eta_beta = eta_beta_plane(&b.dist, model);
        }
        Ok(())
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
    /// Count one launch of `parts` tasks and return its schedule key, if
    /// permuted dispatch is on. Call at the *top* of a pass, before
    /// taking field borrows.
    fn next_schedule(&self, parts: usize) -> Option<(u64, u64)> {
        let launch = self.launches.get();
        self.launches.set(launch + 1);
        self.blocks.set(self.blocks.get() + parts as u64);
        self.schedule_seed.map(|seed| (seed, launch))
    }

    /// The decide pass (§IV.b–c fused, one launch): every live agent
    /// picks and claims its next cell. Dense mode sweeps the row bands;
    /// sparse mode walks the slot ranges and files each claimed cell in
    /// its task's bin for the cell's band.
    fn decide(&mut self, step_no: u64) -> Work {
        let w = self.geom.width;
        let sparse = self.mode == IterationMode::Sparse;
        let parts = if sparse {
            self.slots.len()
        } else {
            self.bands.len()
        };
        let schedule = self.next_schedule(parts);
        let decide = Decide {
            mat: &self.env.mat,
            pher: self.pher.as_ref(),
            dist: self.dist.dist_ref(),
            eta_beta: &self.eta_beta,
            model: self.cfg.model,
            seed: self.seed,
            counter_base: (step_no * 4 + KERNEL_TOUR) << 4,
            width: w,
            claims: &self.claims,
        };
        let sum = WorkSum::default();
        if !sparse {
            let (mat, index, bands) = (&self.env.mat, &self.env.index, &self.bands);
            dispatch(&self.pool, schedule, parts, &|b| {
                let mut work = Work::default();
                for r in bands[b].clone() {
                    for (c, &a) in index.row(r).iter().enumerate() {
                        if a != 0 {
                            decide.agent(a, mat.get(r, c), r, c, &mut work);
                        }
                    }
                }
                sum.add(work);
            });
            return sum.total();
        }
        let (alive, props) = (&self.env.alive, &self.env.props);
        let (slots, band_of_row) = (&self.slots, &self.band_of_row);
        let w32 = w as u32;
        let bins = Scatter::new(&mut self.bins);
        dispatch(&self.pool, schedule, parts, &|t| {
            let mut work = Work::default();
            // SAFETY: task `t` owns bin row `t` alone. Its inner lists
            // live in that row's own allocation, so pushing to them
            // writes no cache line another task's row shares.
            let bins = unsafe { bins.slot_mut(t) };
            for bin in bins.iter_mut() {
                bin.clear();
            }
            for ai in slots[t].clone() {
                if !alive[ai] {
                    continue;
                }
                let p = props.pos[ai];
                let r = p / w32;
                let (r, c) = (r as usize, (p - r * w32) as usize);
                if let Some((row, target)) = decide.agent(ai as u32, props.id[ai], r, c, &mut work)
                {
                    bins[band_of_row[row] as usize].push(target as u32);
                }
            }
            sum.add(work);
        });
        sum.total()
    }

    /// Movement (§IV.d, one launch over the row bands): each band
    /// evaporates its pheromone cells (ACO), then every claimed cell of
    /// the band admits its winner, clears its claim byte, moves the
    /// winner in place and adds the winner's deposit. Dense mode finds
    /// the claimed cells by sweeping the band's claim bytes, sparse mode
    /// by walking every decide task's bin for the band.
    fn resolve(&mut self, step_no: u64) -> Work {
        let w = self.geom.width;
        let parts = self.bands.len();
        let schedule = self.next_schedule(parts);
        let (claims, bands, bins) = (&self.claims, &self.bands, &self.bins);
        let sparse = self.mode == IterationMode::Sparse;
        let resolve = Resolve {
            seed: self.seed,
            counter_base: (step_no * 4 + KERNEL_MOVE) << 4,
            width: w,
            aco: self.cfg.model.aco_params(),
            ids: &self.env.props.id,
            mat: Scatter::new(self.env.mat.as_mut_slice()),
            index: Scatter::new(self.env.index.as_mut_slice()),
            pos: Scatter::new(&mut self.env.props.pos),
            tours: Scatter::new(&mut self.tour.len),
            planes: plane_scatters(self.pher.as_mut()),
        };
        let movers = Scatter::new(&mut self.movers);
        let sum = WorkSum::default();
        dispatch(&self.pool, schedule, parts, &|b| {
            let mut work = Work::default();
            // SAFETY: task `b` owns mover list `b` alone.
            let list = unsafe { movers.slot_mut(b) };
            // Fill a local and store it back once: pushing through the
            // shared slot would write its length into a cache line the
            // neighbouring tasks' slots share, once per winner.
            let mut moved = std::mem::take(list);
            moved.clear();
            let cells = bands[b].start * w..bands[b].end * w;
            if let Some(p) = &resolve.aco {
                for plane in &resolve.planes {
                    // SAFETY: band-owned slots.
                    unsafe { evaporate(plane, cells.clone(), p) };
                }
            }
            if sparse {
                for task_bins in bins {
                    for &lin in &task_bins[b] {
                        let (lin, claim) = (lin as usize, &claims[lin as usize]);
                        // ordering: relaxed — the decide launch's end
                        // barrier published every fetch_or; in this pass
                        // only this band's task touches the byte, and a
                        // duplicate entry finds it already cleared.
                        let bits = claim.load(Ordering::Relaxed);
                        if bits != 0 {
                            // SAFETY: every cell in `bins[*][b]` lies in
                            // band `b`.
                            unsafe { resolve.admit(lin, claim, bits, &mut moved, &mut work) };
                        }
                    }
                }
            } else {
                let first = cells.start;
                for (i, claim) in claims[cells].iter().enumerate() {
                    // ordering: relaxed — as above.
                    let bits = claim.load(Ordering::Relaxed);
                    if bits != 0 {
                        // SAFETY: the cell lies in band `b`.
                        unsafe { resolve.admit(first + i, claim, bits, &mut moved, &mut work) };
                    }
                }
            }
            *list = moved;
            sum.add(work);
        });
        sum.total()
    }
}

/// One step's resolve pass: its draw keys and the in-place scatters
/// every band task writes through.
struct Resolve<'a> {
    seed: u64,
    /// Counter base of the winner draws: `(step·4 + KERNEL_MOVE) << 4`.
    counter_base: u64,
    width: usize,
    aco: Option<AcoParams>,
    ids: &'a [u8],
    mat: Scatter<'a, u8>,
    index: Scatter<'a, u32>,
    pos: Scatter<'a, u32>,
    tours: Scatter<'a, f32>,
    planes: Vec<Scatter<'a, f32>>,
}

impl Resolve<'_> {
    /// Admit the winner of claimed cell `lin`, whose claim byte `claim`
    /// holds the non-zero `bits`: clear the byte, draw the winner (once,
    /// and only if the cell is contested), move it in place, add its
    /// deposit (ACO) and push it onto `moved`. Forced inline so that the
    /// dense sweep keeps the body in its loop.
    ///
    /// SAFETY: `lin` must lie in the calling task's row band.
    #[inline(always)]
    unsafe fn admit(
        &self,
        lin: usize,
        claim: &AtomicU8,
        bits: u8,
        moved: &mut Vec<u32>,
        work: &mut Work,
    ) {
        // ordering: relaxed — the next decide launch's start barrier
        // publishes the zero.
        claim.store(0, Ordering::Relaxed);
        work.contested += u64::from(bits.count_ones() > 1);
        let k = admitted(bits, self.seed, lin, self.counter_base);
        let (dr, dc) = NEIGHBOR_OFFSETS[k];
        let src = (lin as i64 + dr * self.width as i64 + dc) as usize;
        let ids = self.ids;
        // SAFETY: claimed cells were empty at step start and the winner's
        // source cell was occupied, so `lin` and `src` belong to this
        // winner alone: no other task reads or writes them, or the
        // winner's agent slots, this pass.
        unsafe {
            let a = self.index.read(src);
            let ai = a as usize;
            moved.push(a);
            self.mat.write(src, CELL_EMPTY);
            self.index.write(src, 0);
            self.mat.write(lin, ids[ai]);
            self.index.write(lin, a);
            self.pos.write(ai, lin as u32);
            if let Some(p) = self.aco {
                let l_new = self.tours.read(ai) + MOVE_LEN[k];
                self.tours.write(ai, l_new);
                let g = Group::from_label(ids[ai]).expect("winner has group label");
                let plane = &self.planes[g.index()];
                plane.write(lin, plane.read(lin) + p.q / l_new);
            }
        }
    }
}

impl StageBackend for PooledBackend {
    fn run_stage(&mut self, stage: Stage, step_no: u64, rec: &mut pedsim_obs::Recorder) {
        let (launches, blocks) = (self.launches.get(), self.blocks.get());
        let work = match stage {
            // Fused into the decide pass, which runs under InitialCalc.
            Stage::Init | Stage::Tour => Work::default(),
            Stage::InitialCalc => self.decide(step_no),
            Stage::Movement => self.resolve(step_no),
            Stage::Lifecycle | Stage::Metrics => unreachable!("core-driven stage"),
        };
        let launches = self.launches.get() - launches;
        let k = stage.index();
        rec.inc(KERNEL_LAUNCH_KEYS[k], launches);
        rec.inc(KERNEL_BLOCK_KEYS[k], self.blocks.get() - blocks);
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
        let movers = self.movers.iter().flatten().copied();
        metrics.observe(movers, &self.env.props.pos);
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
        };
        lifecycle.run_step(&mut world, step, metrics);
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
        let env = &self.backend.env;
        split_positions(&env.props.pos, env.width())
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

    /// The row-window availability byte equals the bounds-checked loop on
    /// every cell: interior and border cells of three registry worlds as
    /// built and with every open cell relabelled at random, a one-row
    /// grid, and every labelling of a 2×2 grid.
    #[test]
    fn fast_availability_matches_the_checked_loop_on_every_cell() {
        use pedsim_grid::cell::{CELL_BOTTOM, CELL_TOP};
        let assert_every_cell = |mat: &Matrix<u8>, what: &str| {
            let occ = |r: i64, c: i64| mat.get_or(r, c, CELL_WALL);
            for r in 0..mat.height() {
                for c in 0..mat.width() {
                    assert_eq!(
                        mat_availability(mat, r, c),
                        availability(&occ, r as i64, c as i64),
                        "{what}: cell ({r},{c})"
                    );
                }
            }
        };
        const LABELS: [u8; 4] = [CELL_EMPTY, CELL_TOP, CELL_BOTTOM, CELL_WALL];
        let mut rng = StreamRng::new(17, 0);
        let worlds = [
            pedsim_scenario::registry::doorway(24, 24, 110, 2),
            pedsim_scenario::registry::pillar_hall(32, 32, 60, 5),
            pedsim_scenario::registry::t_junction_merge(32, 48),
        ];
        for scenario in &worlds {
            let mut mat = scenario.build_environment().mat;
            assert_every_cell(&mat, scenario.name());
            for v in mat.as_mut_slice() {
                if *v != CELL_WALL {
                    *v = LABELS[rng.bounded_u32(3) as usize];
                }
            }
            assert_every_cell(&mat, &format!("{} relabelled", scenario.name()));
        }
        let row = (0..9)
            .map(|_| LABELS[rng.bounded_u32(4) as usize])
            .collect();
        assert_every_cell(&Matrix::from_vec(1, 9, row), "1x9");
        for pattern in 0..LABELS.len().pow(4) {
            let cells = (0..4)
                .map(|i| LABELS[pattern / LABELS.len().pow(i) % 4])
                .collect();
            assert_every_cell(&Matrix::from_vec(2, 2, cells), &format!("2x2 #{pattern}"));
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
            for a in 1..props.pos.len() {
                let p = props.pos[a] as usize;
                let (r, c) = ((p / w) as i64, (p % w) as i64);
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
            for threads in [1, 2, 3] {
                for schedule in [None, Some(7)] {
                    assert_eq!(
                        counts(mode, threads, schedule),
                        reference,
                        "{mode:?} t{threads} schedule {schedule:?}"
                    );
                }
            }
        }
        let [scored, claimed, contested, settled] = reference;
        let decided = steps * 120;
        assert!(
            scored > 0 && scored < decided / 2,
            "scored {scored} of {decided}"
        );
        assert!(
            claimed > contested && contested > 0,
            "{claimed} claims, {contested} contested"
        );
        assert!(settled < scored, "settled {settled} of {scored} scored");
    }

    /// A pooled engine and its scalar oracle on the same scenario.
    fn doorway_pair(
        model: ModelKind,
        mode: IterationMode,
        threads: usize,
    ) -> (crate::engine::cpu::CpuEngine, PooledEngine) {
        let scenario = pedsim_scenario::registry::doorway(24, 24, 110, 2).with_seed(3);
        let cfg = SimConfig::from_scenario(&scenario, model).with_iteration_mode(mode);
        (
            crate::engine::cpu::CpuEngine::new(cfg.clone()),
            PooledEngine::new(cfg, threads),
        )
    }

    fn assert_same_state(
        scalar: &crate::engine::cpu::CpuEngine,
        pooled: &PooledEngine,
        what: &str,
    ) {
        assert_eq!(scalar.mat_snapshot(), pooled.mat_snapshot(), "{what}: mat");
        assert_eq!(scalar.positions(), pooled.positions(), "{what}: positions");
        assert_eq!(
            scalar.tour_lengths(),
            pooled.tour_lengths(),
            "{what}: tours"
        );
        if let (Some(sp), Some(pp)) = (scalar.pheromone(), pooled.pheromone()) {
            for g in Group::first_n(sp.groups()) {
                assert_eq!(
                    sp.of(g).as_slice(),
                    pp.of(g).as_slice(),
                    "{what}: pheromone {g:?}"
                );
            }
        }
    }

    /// On a dense doorway jam the availability-byte shortcuts (boxed in,
    /// one LEM or ACO candidate) really run, and pooled still matches the
    /// scalar oracle step for step in both traversals at one and two
    /// threads. Without forward priority the lone candidate may be an
    /// empty front cell, which the priority arm otherwise takes first.
    #[test]
    fn settled_agents_keep_the_doorway_jam_bit_identical() {
        let aco_unprioritised = ModelKind::Aco(AcoParams {
            forward_priority: false,
            ..AcoParams::default()
        });
        for model in [ModelKind::lem(), ModelKind::aco(), aco_unprioritised] {
            for mode in [IterationMode::Dense, IterationMode::Sparse] {
                for threads in [1, 2] {
                    let (mut scalar, mut pooled) = doorway_pair(model, mode, threads);
                    assert_eq!(pooled.iteration_mode(), mode);
                    for step in 0..40 {
                        scalar.step();
                        pooled.step();
                        let what = format!(
                            "{} fp={} {mode:?} t{threads} step {step}",
                            model.name(),
                            model.forward_priority()
                        );
                        assert_same_state(&scalar, &pooled, &what);
                    }
                    let settled = pooled.telemetry().counter("pooled.settled");
                    assert!(settled > 0, "{} {mode:?}: nothing settled", model.name());
                }
            }
        }
    }

    /// The sparse decide pass files every claim in the bin of its
    /// target's band, once per claimant, and the resolve pass clears every
    /// claimed byte through them — on a doorway jam at three threads with
    /// permuted dispatch, step for step against the scalar oracle.
    #[test]
    fn sparse_bins_file_each_claim_under_its_band() {
        for model in [ModelKind::lem(), ModelKind::aco()] {
            let (mut scalar, mut pooled) = doorway_pair(model, IterationMode::Sparse, 3);
            pooled.set_schedule_seed(Some(11));
            let w = pooled.backend.geom.width;
            let mut contested = 0;
            for step in 0..40 {
                let b = &mut pooled.backend;
                let work = b.decide(step);
                let mut entries: Vec<u32> = Vec::new();
                for task_bins in &b.bins {
                    assert_eq!(task_bins.len(), b.bands.len());
                    for (band, bin) in task_bins.iter().enumerate() {
                        for &lin in bin {
                            let row = lin as usize / w;
                            assert!(b.bands[band].contains(&row), "cell {lin} in bin {band}");
                        }
                        entries.extend(bin);
                    }
                }
                assert_eq!(entries.len() as u64, work.claimed, "step {step}");
                entries.sort_unstable();
                entries.dedup();
                let claimed: Vec<u32> = (0..b.claims.len() as u32)
                    .filter(|&i| b.claims[i as usize].load(Ordering::Relaxed) != 0)
                    .collect();
                assert_eq!(entries, claimed, "step {step}");
                contested += b.resolve(step).contested;
                assert!(
                    b.claims.iter().all(|c| c.load(Ordering::Relaxed) == 0),
                    "step {step}: claim bytes left set"
                );
                scalar.step();
                assert_same_state(&scalar, &pooled, &format!("step {step}"));
            }
            assert!(contested > 0, "{}: no contested cell", model.name());
        }
    }

    /// Every `η^β` entry is bit-equal to the scalar oracle's literal
    /// `(1/D)^β`, on the row tables and on a flow field.
    #[test]
    fn eta_beta_plane_is_bit_equal_to_the_literal_formula() {
        let doorway = pedsim_scenario::registry::doorway(24, 24, 40, 3).distance_data();
        for dist in [DistanceData::rows(48), (*doorway).clone()] {
            for beta in [2.0f32, 0.5, 3.7] {
                let model = ModelKind::Aco(AcoParams {
                    beta,
                    ..AcoParams::default()
                });
                let plane = eta_beta_plane(&dist, model);
                assert_eq!(plane.len(), dist.data.len());
                for (&e, &d) in plane.iter().zip(&dist.data) {
                    assert_eq!(
                        e.to_bits(),
                        (1.0 / d).powf(beta).to_bits(),
                        "D={d} β={beta}"
                    );
                }
            }
            assert!(eta_beta_plane(&dist, ModelKind::lem()).is_empty());
        }
    }

    /// Changing β mid-run rebuilds the `η^β` plane: pooled stays equal to
    /// the scalar oracle (which computes `η^β` literally) through the
    /// switch, on a flow-field world in both traversals.
    #[test]
    fn beta_change_mid_run_keeps_pooled_equal_to_scalar() {
        let switched = ModelKind::Aco(AcoParams {
            alpha: 0.5,
            beta: 4.0,
            ..AcoParams::default()
        });
        for mode in [IterationMode::Dense, IterationMode::Sparse] {
            let (mut scalar, mut pooled) = doorway_pair(ModelKind::aco(), mode, 2);
            for step in 0..30 {
                if step == 10 {
                    scalar.set_model(switched).unwrap();
                    pooled.set_model(switched).unwrap();
                }
                scalar.step();
                pooled.step();
                assert_same_state(&scalar, &pooled, &format!("{mode:?} step {step}"));
            }
            assert_eq!(
                pooled.backend.eta_beta,
                eta_beta_plane(&pooled.backend.dist, switched)
            );
        }
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
