//! The tile-parallel pooled CPU backend (`pooled` in the backend
//! registry) — the repo's fast path.
//!
//! A multi-threaded host engine on the `simt` [`WorkerPool`]: the grid is
//! partitioned into contiguous row bands ([`band_ranges`], the pool's own
//! split, so band `b` belongs to the same worker in every step) — and,
//! for the sparse traversal, the agent slots `1..=n` into one contiguous
//! slot range per worker — and every operation runs with **conflict-free
//! writes**: each output slot is written by exactly one task, so no locks
//! are held in any hot loop.
//!
//! ## The claim protocol: decide, then resolve
//!
//! The scalar reference runs the paper's four kernels as four sweeps and
//! resolves movement per cell with
//! [`gather_winner`](crate::model::gather_winner): scan the 8
//! neighbours in slot order, collect the agents whose FUTURE is this
//! cell, draw one with the *cell's* RNG stream. The pooled backend
//! reaches the identical trajectory with two kinds of operation:
//!
//! 1. **Decide** (init + initial calculation + tour, fused): each agent
//!    reads its front cell, scores its neighbourhood only when the
//!    forward-priority short-circuit does not already decide (the scan
//!    row would go unread), draws its move from its own stream, and ORs
//!    one bit into its target cell's claim byte — bit `k` means "the
//!    agent standing at `target + NEIGHBOR_OFFSETS[k]` wants in"
//!    (`OPPOSITE` maps a move to its bit). Neither a scan row nor a
//!    FUTURE cell is stored, and only empty cells are claimed. Every
//!    occupancy question is answered from the agent's availability byte
//!    (bit `k` set when neighbour `k` is empty). The dense sweep computes
//!    the byte of every cell of a row in one pass over that row and its
//!    two neighbours (`row_availability`, vectorised on interior
//!    columns); the sparse walk builds it per agent from three 3-byte row
//!    windows (`mat_availability`). Both fall back to [`availability`]'s
//!    per-neighbour loop on the grid's border.
//!
//!    The dense sweep skips a row with no agent and classifies every
//!    other row in one branch-free pass (`classify`): agents whose
//!    forward cell is free, agents boxed in, and agents with one
//!    candidate are decided by the byte alone — the per-agent code's own
//!    shortcuts — and only the rest, the drawing agents, go through
//!    `Decide::agent`. One pass per move direction then ORs every
//!    target's bit into the claim rows above, at and below.
//!    An ACO agent with one candidate moves only when that neighbour's
//!    numerator is positive; the pass settles it unread only at steps
//!    where every numerator is provably positive (`settles_one`).
//!
//!    Claims are schedule-independent by construction. A claim row that
//!    several decides reach — a band's first and last rows and the rows
//!    just outside it — takes a commutative `fetch_or`; the rows `start +
//!    1 ..= end − 2` of a dense band only its own decide reaches, and
//!    only its own resolve, which waits for it, reads, so they take plain
//!    byte ORs (`Claims`). The sparse walk `fetch_or`s every claim.
//! 2. **Resolve** (movement) of a row band: the band evaporates its
//!    pheromone cells (ACO), then every cell of the band with a non-zero
//!    claim byte decodes it: the set bits, read in ascending order, are
//!    exactly the candidate list `gather_winner` builds in slot order,
//!    and the winner is drawn once with the same `(seed, cell, salt)`
//!    stream. The cell clears its byte for the next step, moves its
//!    winner **in place** (the winner's label is read from its source
//!    cell before that cell is cleared) and adds the winner's deposit.
//!    Claimed cells were empty when the step began and every winner's
//!    source cell was occupied, so no two winners touch the same cell.
//!    The band also applies the metrics' arrival rule to its winners
//!    ([`Metrics::arrivals`]) and counts them into its own
//!    [`StepTally`]; the tallies are merged in band order, so the
//!    metrics are deterministic by construction and only the serial tail
//!    ([`Metrics::finish_step`]) is left to the observation. Evaporating
//!    and then adding the deposit is bit-equal to the scalar fused update
//!    because `max((1-ρ)τ, τ₀) + 0.0` is exact.
//!
//! ## One pool launch per step
//!
//! Every step, in both traversal modes, is **one** pool launch with one
//! item per worker, scheduled by `Bands`: worker `w` runs its plan, a
//! list of decide and resolve operations. Each decide publishes "decided
//! at step `t`" in its own readiness flag (one `AtomicU64` per decide,
//! release; the value only grows, so it is never reset), and each resolve
//! of band `b` first waits (acquire) for the flags of the decides
//! `needs[b]` names, spinning briefly and then yielding the core. The
//! two modes differ only in what a decide walks and so in the plans:
//!
//! - **Dense:** a decide sweeps one row band's cells. Resolve of band
//!   `b` reads and writes only cells within one row of the band, and
//!   decide reads only cells within its halo (one row, or LEM's scan
//!   range) of its agents. So, with every band at least `halo + 1` rows
//!   tall, resolve of `b` needs only the decides of bands `b − 1`, `b`
//!   and `b + 1`: claims into `b` come only from agents in adjacent rows;
//!   resolve writes source cells in `b ± 1`, which those bands' decide
//!   reads; ACO decide reads pheromone in `b ± 1`, which those bands'
//!   resolve deposits; no band further away reads or writes a cell
//!   resolve of `b` touches. Worker `w` walks its own contiguous run of
//!   bands — even workers from their last band up the grid, odd workers
//!   from their first band down, so two neighbouring workers meet at a
//!   shared edge either first or last — deciding band `b` and then
//!   resolving the band it decided just before. A worker's interior
//!   bands never wait; only the bands at its edges wait on a neighbour.
//! - **Sparse:** a decide walks one contiguous range of agent slots,
//!   skipping dead ones, and files each claimed cell in its own bin for
//!   the target's row band. A slot range can claim into any band, so
//!   every band needs every decide: worker `w`'s plan decides slot range
//!   `w` and then resolves its own bands, each walking every range's bin
//!   for the band (a duplicate entry finds its byte already cleared).
//!   Slot ranges are balanced by count by construction; more than one
//!   range per worker would only put adjacent ranges, which overlap in
//!   space, on different threads at once, fighting over the same
//!   claim-byte cache lines.
//!
//! The workers claim the operations of their plans from one cursor per
//! plan, and a worker that has drained its own plan claims the next
//! operations of the others', so a worker the host stalls does not hold
//! up the whole step. Decides never wait, and a resolve only waits for
//! decides earlier in its own plan or at the start or end of another
//! plan (every sparse plan opens with its only decide); every worker
//! claims its own plan first, so the launch cannot deadlock.
//!
//! Because every draw uses the same stream as the scalar engine and every
//! candidate list is bit-equal, trajectories are **bit-identical to
//! `scalar` at every thread count** — asserted by the cross-backend
//! golden parity tests. The whole step is timed under
//! [`Stage::Movement`] in both modes; [`Stage::Init`],
//! [`Stage::InitialCalc`] and [`Stage::Tour`] have no pass of their own
//! on this backend.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use pedsim_grid::cell::{Group, CELL_EMPTY, CELL_WALL, MOVE_LEN, NEIGHBOR_OFFSETS};
use pedsim_grid::distance::DistRef;
use pedsim_grid::scan::TourLengths;
use pedsim_grid::{DistanceData, DistanceKind, EnvConfig, Environment, Matrix, PheromoneField};
use philox::StreamRng;
use simt::exec::pool::{band_range, WorkerPool};

/// The tile partition every pooled pass dispatches over; the partition
/// proptests pin its exactly-once property.
pub use simt::exec::pool::band_ranges;

use crate::metrics::{Arrivals, Geometry, Metrics, StepTally};
use crate::model::{aco_numerator, aco_select, availability, lem_scan_row, lem_select, ScanRow};
use crate::params::{AcoParams, IterationMode, ModelKind, SimConfig};

use super::cpu::HostWorld;
use super::lifecycle::OpenLifecycle;
use super::pipeline::{
    Stage, StageBackend, KERNEL_BLOCK_KEYS, KERNEL_LAUNCH_KEYS, KERNEL_THREAD_KEYS,
};
use super::{split_positions, Sim, KERNEL_MOVE, KERNEL_TOUR};
use crate::world::CompiledWorld;

/// Row-band oversubscription factor: row bands per worker, where the
/// grid is tall enough, so the dense pipeline's edge waits are a small
/// share of a worker's bands. A sparse plan decides one slot range per
/// worker instead.
const BANDS_PER_WORKER: usize = 4;

/// Readiness polls before a waiting resolve yields its core. A pure spin
/// starves the worker it waits on when there are more workers than cores.
const SPINS_BEFORE_YIELD: u32 = 64;

/// The claim-byte bit of each move: `OPPOSITE[k]` is the slot of
/// `NEIGHBOR_OFFSETS[k]` reversed, so an agent moving by offset `k` sets
/// bit `OPPOSITE[k]` of its target's claim byte — "the agent at `target +
/// NEIGHBOR_OFFSETS[OPPOSITE[k]]` wants in".
const OPPOSITE: [usize; 8] = {
    let mut opposite = [0; 8];
    let mut k = 0;
    while k < 8 {
        let (dr, dc) = NEIGHBOR_OFFSETS[k];
        let mut j = 0;
        while j < 8 {
            if NEIGHBOR_OFFSETS[j].0 == -dr && NEIGHBOR_OFFSETS[j].1 == -dc {
                opposite[k] = j;
            }
            j += 1;
        }
        k += 1;
    }
    opposite
};

/// A read view of a row-major grid: the cells of a [`Scatter`] that
/// other tasks of the same launch write elsewhere.
#[derive(Clone, Copy)]
struct View<'a, T> {
    cells: &'a [T],
    height: usize,
    width: usize,
}

impl<T: Copy> View<'_, T> {
    #[inline]
    fn get(&self, r: usize, c: usize) -> T {
        self.cells[r * self.width + c]
    }

    /// The cell at `(r, c)`, or `fill` outside the grid.
    #[inline]
    fn get_or(&self, r: i64, c: i64, fill: T) -> T {
        if r < 0 || c < 0 || r as usize >= self.height || c as usize >= self.width {
            fill
        } else {
            self.get(r as usize, c as usize)
        }
    }
}

/// The availability byte of a cell whose eight neighbours hold `n`,
/// listed in [`NEIGHBOR_OFFSETS`] order — (1,0) (1,-1) (1,1) (0,-1)
/// (0,1) (-1,0) (-1,-1) (-1,1): bit `k` set when `n[k]` is empty.
#[inline(always)]
fn pack_free(n: [u8; 8]) -> u8 {
    let mut avail = 0;
    for (k, v) in n.into_iter().enumerate() {
        avail |= u8::from(v == CELL_EMPTY) << k;
    }
    avail
}

/// The [`availability`] byte of the agent at `(r, c)` in `mat`, as the
/// sparse walk reads it (the dense sweep uses [`row_availability`]). An
/// interior agent's 3×3 neighbourhood is three 3-byte row windows of one
/// slice of the row-major cells, from its top-left to its bottom-right
/// neighbour; an agent on the grid's border takes the per-neighbour loop,
/// which reads outside cells as walls.
#[inline]
fn mat_availability(mat: View<'_, u8>, r: usize, c: usize) -> u8 {
    let (h, w) = (mat.height, mat.width);
    if r == 0 || c == 0 || r + 1 >= h || c + 1 >= w {
        let occ = |rr: i64, cc: i64| mat.get_or(rr, cc, CELL_WALL);
        return availability(&occ, r as i64, c as i64);
    }
    let cells = &mat.cells[(r - 1) * w + c - 1..][..2 * w + 3];
    let window = |i: usize| [cells[i], cells[i + 1], cells[i + 2]];
    let [sw, s, se] = window(2 * w);
    let [west, _, east] = window(w);
    let [nw, n, ne] = window(0);
    pack_free([s, sw, se, west, east, n, nw, ne])
}

/// The [`availability`] byte of every cell of row `r` of `mat`, into
/// `out` (one byte per column). Interior columns take one branch-free
/// pass over the three row slices above, at and below `r`, which the
/// compiler vectorises; row 0, the last row, columns 0 and `w − 1`, and
/// grids narrower than 3 take [`mat_availability`]'s per-neighbour loop,
/// which reads outside cells as walls.
fn row_availability(mat: View<'_, u8>, r: usize, out: &mut [u8]) {
    let (h, w) = (mat.height, mat.width);
    if r == 0 || r + 1 >= h || w < 3 {
        for (c, v) in out[..w].iter_mut().enumerate() {
            *v = mat_availability(mat, r, c);
        }
        return;
    }
    // Column c + 1's neighbours, for c in 0..n: every slice is `n` long,
    // so the loop carries no bounds checks.
    let n = w - 2;
    let windows = |rr: usize| {
        let cells = &mat.cells[rr * w..][..w];
        (&cells[..n], &cells[1..=n], &cells[2..])
    };
    let (nw, north, ne) = windows(r - 1);
    let (west, _, east) = windows(r);
    let (sw, south, se) = windows(r + 1);
    for (c, v) in out[1..=n].iter_mut().enumerate() {
        *v = pack_free([
            south[c], sw[c], se[c], west[c], east[c], north[c], nw[c], ne[c],
        ]);
    }
    out[0] = mat_availability(mat, r, 0);
    out[w - 1] = mat_availability(mat, r, w - 1);
}

// The row band whose resolve the calling thread is running, if any: the
// write-set detector attributes its writes to the band rather than to the
// pool item running it, because an item runs several bands.
#[cfg(feature = "audit-runtime")]
thread_local! {
    static BAND: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Run `f` as row band `b`'s task (see `BAND`).
#[inline]
fn as_band<R>(b: usize, f: impl FnOnce() -> R) -> R {
    #[cfg(feature = "audit-runtime")]
    let outer = BAND.with(|t| t.replace(Some(b)));
    #[cfg(not(feature = "audit-runtime"))]
    let _ = b;
    let out = f();
    #[cfg(feature = "audit-runtime")]
    BAND.with(|t| t.set(outer));
    out
}

/// Write-set tracker for the `audit-runtime` tile-race detector: one
/// owner word per slot, `0` = unwritten this phase, `1` = host thread,
/// `t + 2` = task `t` (the row band being decided or resolved, else the
/// pool block). A [`Scatter`] lives for exactly one phase, so "written by
/// two tasks while this Scatter exists" is precisely the
/// structural-disjointness violation the SAFETY contracts rule out (a
/// task may rewrite its own slot). Commutative atomic writes, which any
/// number of tasks may make to one slot, are noted as shared
/// ([`WriteSet::note_shared`]): they conflict only with another task's
/// plain write.
#[cfg(feature = "audit-runtime")]
struct WriteSet {
    owners: Vec<std::sync::atomic::AtomicU32>,
}

/// Owner-word flag of a slot written by commutative atomic writes only;
/// with no task in the low bits, by more than one task.
#[cfg(feature = "audit-runtime")]
const SHARED: u32 = 1 << 31;

#[cfg(feature = "audit-runtime")]
impl WriteSet {
    fn new(len: usize) -> Self {
        Self {
            owners: (0..len)
                .map(|_| std::sync::atomic::AtomicU32::new(0))
                .collect(),
        }
    }

    /// The calling task's owner word.
    fn me() -> u32 {
        let task = BAND
            .with(|t| t.get())
            .or_else(simt::exec::pool::current_block);
        match task {
            Some(t) => t as u32 + 2,
            None => 1,
        }
    }

    /// Record a plain write to slot `i`, panicking if another task already
    /// wrote it during this Scatter's phase.
    fn note(&self, i: usize) {
        let me = Self::me();
        // ordering: relaxed — the swap is an atomic claim; detection only
        // needs each slot's own modification order, not cross-slot order.
        let prev = self.owners[i].swap(me, Ordering::Relaxed);
        if prev != 0 && prev & !SHARED != me {
            panic!(
                "tile race: slot {i} written by task {} after task {} in the same phase",
                me.wrapping_sub(2),
                (prev & !SHARED).wrapping_sub(2),
            );
        }
    }

    /// Record a commutative atomic write to slot `i`, panicking if
    /// another task wrote it plainly during this phase.
    fn note_shared(&self, i: usize) {
        let me = Self::me();
        // ordering: relaxed — as in `note`.
        let prev = self.owners[i]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |o| match o {
                0 => Some(SHARED | me),
                o if o & !SHARED == me => None,
                o if o & SHARED != 0 => Some(SHARED),
                _ => None,
            })
            .unwrap_or_else(|o| o);
        if prev != 0 && prev & SHARED == 0 && prev != me {
            panic!(
                "tile race: slot {i} written by task {} after a plain write by task {} in \
                 the same phase",
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
// at the end of every `WorkerPool::run`, and within a launch the
// readiness flags, order writes before any subsequent read.
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

    /// The whole slice, shared, for a launch whose tasks read slots that
    /// other tasks of the same launch write.
    ///
    /// SAFETY: every read of a slot through the view must be ordered
    /// against every write to that slot through this Scatter in the same
    /// phase, before or after it, by an acquire/release pair or by being
    /// on the same thread.
    unsafe fn shared(&self) -> &'a [T] {
        // SAFETY: `ptr..ptr + len` is the live slice this Scatter was made
        // from; the read/write ordering is forwarded to the caller.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
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
    unsafe fn update_range(&self, range: Range<usize>, f: impl Fn(T) -> T) {
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

/// One step's claim bytes as the decides write them, one per cell: a
/// commutative `fetch_or` ([`Claims::or`]) into a row that several decides
/// reach, plain byte ORs ([`Claims::row_mut`]) into a row only the
/// calling decide reaches. Under `audit-runtime` every write is noted in
/// a per-step [`WriteSet`] — the atomic ones as shared — so a plain row
/// that another task also writes is a detected tile race.
#[derive(Clone)]
struct Claims<'a> {
    bytes: &'a [AtomicU8],
    #[cfg(feature = "audit-runtime")]
    ws: Arc<WriteSet>,
}

impl<'a> Claims<'a> {
    fn new(bytes: &'a [AtomicU8]) -> Self {
        Self {
            bytes,
            #[cfg(feature = "audit-runtime")]
            ws: Arc::new(WriteSet::new(bytes.len())),
        }
    }

    /// OR `bits` into claim byte `i`.
    #[inline]
    fn or(&self, i: usize, bits: u8) {
        #[cfg(feature = "audit-runtime")]
        self.ws.note_shared(i);
        // ordering: relaxed — fetch_or commutes, so only the final claim
        // byte matters; the decide's readiness flag publishes it before
        // any resolve reads.
        self.bytes[i].fetch_or(bits, Ordering::Relaxed);
    }

    /// The `width` claim bytes of row `r`, for plain writes.
    ///
    /// SAFETY: no other task may read or write a byte of the row in this
    /// step until the calling task's readiness flag has published the
    /// writes (a release the reader acquires), and the caller must not
    /// hold two borrows of the row at once.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn row_mut(&self, r: usize, width: usize) -> &mut [u8] {
        let row = &self.bytes[r * width..][..width];
        #[cfg(feature = "audit-runtime")]
        for i in r * width..(r + 1) * width {
            self.ws.note(i);
        }
        // SAFETY: `AtomicU8` has the layout of `u8` and its bytes sit in
        // an `UnsafeCell`, so they may be written through a pointer
        // derived from a shared borrow; exclusivity is the caller's
        // contract.
        unsafe { std::slice::from_raw_parts_mut(row.as_ptr().cast::<u8>().cast_mut(), width) }
    }
}

/// ACO evaporation of one band of pheromone slots: the fused update with
/// no deposit. A deposit added afterwards completes the fused update bit
/// for bit, because `max((1-ρ)τ, τ₀) + 0.0` is exactly `max((1-ρ)τ, τ₀)`.
///
/// SAFETY: as [`Scatter::update_range`].
#[inline]
unsafe fn evaporate(plane: &Scatter<'_, f32>, range: Range<usize>, p: &AcoParams) {
    // SAFETY: forwarded contract.
    unsafe {
        plane.update_range(range, |tau| {
            PheromoneField::fused_update(tau, p.tau0, p.rho, 0.0)
        })
    };
}

/// One operation of a step's plan: decide a row band (dense) or a slot
/// range (sparse), or resolve a row band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Decide(usize),
    Resolve(usize),
}

/// A decide operation's readiness flag: the 1-based number of the last
/// step whose decide finished. Padded so that a waiting worker's polls
/// do not share a cache line with another decide's flag.
#[repr(align(128))]
#[derive(Default)]
struct Ready(AtomicU64);

/// A plan's claim cursor, padded like [`Ready`].
#[repr(align(128))]
#[derive(Default)]
struct Cursor(AtomicUsize);

/// The row-band partition of one engine and the step's plan over it.
struct Bands {
    /// Contiguous row bands: `BANDS_PER_WORKER` per worker where the grid
    /// is tall enough, with every band at least one row taller than the
    /// decide halo (see [`decide_halo`]).
    rows: Vec<Range<usize>>,
    /// The band holding each grid row.
    of_row: Vec<u32>,
    /// Per band: the claim rows its dense decide writes with plain byte
    /// ORs, `start + 1 ..= end − 2`. Claims reach one row from an agent,
    /// so no other decide reaches them, and only the band's own resolve
    /// reads them; the band's first and last rows, and the rows just
    /// outside it, take `fetch_or`.
    plain: Vec<Range<usize>>,
    /// Per band `b`: the decides that must have finished before resolve
    /// of `b` starts — bands `b − 1 ..= b + 1` when dense, every slot
    /// range when sparse.
    needs: Vec<Range<usize>>,
    /// Per decide operation: its readiness flag, one per band when dense,
    /// one per slot range when sparse.
    ready: Vec<Ready>,
    /// Per worker: its operations in order.
    plans: Vec<Vec<Op>>,
    /// Per plan: the index of its next unclaimed operation.
    cursors: Vec<Cursor>,
    /// Set when an operation of the current launch panicked.
    aborted: AtomicBool,
}

/// How many rows away from an agent its decide reads a cell: one for the
/// availability byte and ACO's pheromone, LEM's scan range for its ray
/// congestion penalty.
fn decide_halo(model: ModelKind) -> usize {
    match model {
        ModelKind::Lem(p) => usize::from(p.scan_range.max(1)),
        ModelKind::Aco(_) => 1,
    }
}

impl Bands {
    /// The partition of `height` rows for `workers` workers under a decide
    /// halo of `halo` rows, and the plans of a `mode` step over it.
    fn new(height: usize, workers: usize, halo: usize, mode: IterationMode) -> Self {
        let count = (workers * BANDS_PER_WORKER).min(height / (halo + 1)).max(1);
        let rows = band_ranges(height, count);
        let mut of_row = vec![0; height];
        for (b, r) in rows.iter().enumerate() {
            of_row[r.clone()].fill(b as u32);
        }
        let sparse = mode == IterationMode::Sparse;
        let decides = if sparse { workers } else { count };
        let needs = (0..count)
            .map(|b| {
                if sparse {
                    0..workers
                } else {
                    b.saturating_sub(1)..(b + 2).min(count)
                }
            })
            .collect();
        let plans = (0..workers)
            .map(|w| {
                let own = band_range(count, workers, w);
                if sparse {
                    return std::iter::once(Op::Decide(w))
                        .chain(own.map(Op::Resolve))
                        .collect();
                }
                let walk: Vec<usize> = if w % 2 == 0 {
                    own.rev().collect()
                } else {
                    own.collect()
                };
                let mut plan = Vec::with_capacity(2 * walk.len());
                for (i, &b) in walk.iter().enumerate() {
                    plan.push(Op::Decide(b));
                    if i > 0 {
                        plan.push(Op::Resolve(walk[i - 1]));
                    }
                }
                plan.extend(walk.last().map(|&b| Op::Resolve(b)));
                plan
            })
            .collect();
        Self {
            plain: rows
                .iter()
                .map(|r| r.start + 1..r.end.saturating_sub(1))
                .collect(),
            rows,
            of_row,
            needs,
            ready: (0..decides).map(|_| Ready::default()).collect(),
            cursors: (0..workers).map(|_| Cursor::default()).collect(),
            aborted: AtomicBool::new(false),
            plans,
        }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    /// Publish that decide `d` finished at (1-based) step `step`.
    fn publish(&self, d: usize, step: u64) {
        // ordering: release — publishes the decide's claim bytes (and,
        // sparse, its bins) and its finished reads of the cells that
        // resolves write.
        self.ready[d].0.store(step, Ordering::Release);
    }

    /// Whether every decide resolve of `b` needs has published `step`.
    fn resolvable(&self, b: usize, step: u64) -> bool {
        // ordering: acquire — pairs with `publish`: the claims and reads
        // of every needed decide happen before this band's resolve.
        self.needs[b]
            .clone()
            .all(|x| self.ready[x].0.load(Ordering::Acquire) >= step)
    }

    /// Wait until band `b` is resolvable at `step`: spin briefly, then
    /// yield the core between polls. `false` if the launch was aborted
    /// first.
    fn wait(&self, b: usize, step: u64) -> bool {
        let mut spins = 0;
        while !self.resolvable(b, step) {
            // ordering: relaxed — see `claim`.
            if self.aborted.load(Ordering::Relaxed) {
                return false;
            }
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        true
    }

    /// The next operation worker `w` runs: the next of its own plan,
    /// then, once its plan is drained, the next of the other workers'
    /// plans in turn (`w + 1`, `w + 2`, …). `None` when every plan is
    /// drained or the launch was aborted.
    fn claim(&self, w: usize) -> Option<Op> {
        let n = self.plans.len();
        for p in (w..n).chain(0..w) {
            // ordering: relaxed — a stop flag; the pool's end barrier
            // publishes it together with the panic.
            if self.aborted.load(Ordering::Relaxed) {
                return None;
            }
            // ordering: relaxed — a pure claim ticket over an immutable
            // plan; the reset before the launch is published by the pool.
            let i = self.cursors[p].0.fetch_add(1, Ordering::Relaxed);
            if let Some(&o) = self.plans[p].get(i) {
                return Some(o);
            }
        }
        None
    }

    /// Worker `w`'s share of a launch for `step`: claim operations until
    /// every plan is drained, publishing each decide and waiting before
    /// each resolve. Each worker claims its own plan first, decides never
    /// wait, and a resolve only ever waits for decides that come earlier
    /// in its own plan or open or close another plan, so the launch
    /// cannot deadlock. If an operation panics, the launch is aborted: no
    /// other worker claims or starts another operation, so none waits
    /// forever and none resolves a band whose needed decide may still be
    /// running.
    fn run_worker(&self, w: usize, step: u64, op: &(dyn Fn(Op) + Sync)) {
        struct Abort<'a>(&'a AtomicBool);
        impl Drop for Abort<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    // ordering: relaxed — see `claim`.
                    self.0.store(true, Ordering::Relaxed);
                }
            }
        }
        let _abort = Abort(&self.aborted);
        while let Some(o) = self.claim(w) {
            if let Op::Resolve(b) = o {
                if !self.wait(b, step) {
                    return;
                }
            }
            op(o);
            if let Op::Decide(b) = o {
                self.publish(b, step);
            }
        }
    }

    /// Start a launch: every plan undrained, nothing aborted.
    fn reset(&mut self) {
        for c in &mut self.cursors {
            *c.0.get_mut() = 0;
        }
        *self.aborted.get_mut() = false;
    }

    /// Run a launch for `step` on the calling thread, one move at a time,
    /// as the workers would: at each point a Philox stream keyed by
    /// `(seed, step)` picks one worker that can move — one that holds no
    /// operation claims its next ([`Bands::claim`]), one that holds a
    /// decide, or a resolve whose needed decides have published, runs it.
    /// These are the explorer's interleavings of a step: every order the
    /// claim cursors and the readiness waits allow.
    fn run_interleaved(&self, seed: u64, step: u64, op: &dyn Fn(Op)) {
        let mut rng = StreamRng::new(seed, step);
        let mut held: Vec<Option<Op>> = vec![None; self.plans.len()];
        let undrained = || {
            self.cursors
                .iter()
                .zip(&self.plans)
                // ordering: relaxed — single-threaded here.
                .any(|(c, plan)| c.0.load(Ordering::Relaxed) < plan.len())
        };
        loop {
            let movable: Vec<usize> = (0..held.len())
                .filter(|&w| match held[w] {
                    Some(Op::Resolve(b)) => self.resolvable(b, step),
                    Some(Op::Decide(_)) => true,
                    None => undrained(),
                })
                .collect();
            if movable.is_empty() {
                assert!(
                    held.iter().all(Option::is_none),
                    "plan deadlocked at step {step}"
                );
                return;
            }
            let w = movable[rng.bounded_u32(movable.len() as u32) as usize];
            match held[w].take() {
                None => held[w] = self.claim(w),
                Some(o) => {
                    op(o);
                    if let Op::Decide(b) = o {
                        self.publish(b, step);
                    }
                }
            }
        }
    }
}

/// The tile-parallel pooled engine: the [`Sim`] shell over
/// [`PooledBackend`].
pub type PooledEngine = Sim<PooledBackend>;

/// The pooled engine's kernel-stage executor: the same host-side world
/// the scalar backend loops over, plus the worker pool, the per-cell
/// claim bytes, the band partition and one metrics tally per band.
/// Movement updates the world in place, so there is no second grid, scan
/// matrix or pheromone buffer.
pub struct PooledBackend {
    geom: Geometry,
    env: Environment,
    tour: TourLengths,
    pher: Option<PheromoneField>,
    dist: Arc<DistanceData>,
    /// [`eta_beta_plane`] of `dist` under the current model's β.
    eta_beta: Vec<f32>,
    /// [`eta_beta_min`] of `eta_beta`.
    eta_beta_min: f32,
    /// ACO: the least value a pheromone cell holds when the next step's
    /// decides read it — the initial τ₀ before the first step, then the
    /// τ₀ of the last step's evaporation, which rewrites every cell, when
    /// its deposits `Q/L` were not negative; NaN otherwise.
    pher_floor: f32,
    seed: u64,
    pool: WorkerPool,
    /// One claim byte per cell: bit `k` set means the agent at
    /// `cell + NEIGHBOR_OFFSETS[k]` targets this cell. All zero between
    /// steps — the movement pass clears every byte it reads.
    claims: Vec<AtomicU8>,
    /// When set, every step runs the workers' plans on the calling thread
    /// in an interleaving drawn from a Philox stream keyed by `(seed,
    /// step)` ([`Bands::run_interleaved`]) — the interleaving explorer's
    /// handle into this backend. `None` (the default) runs the plans on
    /// the pool.
    schedule_seed: Option<u64>,
    /// Traversal mode, resolved from the configuration at build time.
    mode: IterationMode,
    /// The row bands and the step's plans over them.
    bands: Bands,
    /// The sparse decides' slot ranges: slots `1..=n`, one contiguous
    /// range per worker.
    slots: Vec<Range<usize>>,
    /// Sparse mode only, `bins[range][band]`: the cells (linear) slot
    /// range `range` claimed this step in row band `band`, one entry per
    /// claim, so a contested cell may appear more than once. Each decide
    /// rewrites only its own row of bins; the resolve of `band` reads
    /// column `band` of every row.
    bins: Vec<Vec<Vec<u32>>>,
    /// One movement tally per band, each written by its band's resolve.
    tallies: Vec<StepTally>,
    /// The last movement's tallies, merged in band order.
    tally: StepTally,
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

/// Flags of the dense class pass ([`classify`]), one byte per cell. A
/// byte holds at most one of each, and bits 0 and 5 are far enough apart
/// that sixteen bytes' sum of `CLAIMS | SETTLED` in `u16` keeps both
/// counts ([`count_flags`]).
///
/// The pass claims the agent's target: forward, or the one candidate.
const CLAIMS: u8 = 1;
/// The agent's availability byte alone decided it: boxed in, or with one
/// candidate the pass settles.
const SETTLED: u8 = 1 << 5;
/// The agent is left to [`Decide::agent`].
const DRAWS: u8 = 1 << 7;

/// The class pass of one row of the dense sweep, branch-free so that the
/// compiler vectorises it. Per cell, from its availability byte `avail`
/// and its front bit `front` (`1 << front_k` for an agent, 0 for an empty
/// or wall cell), it writes a flags byte and a one-hot target byte:
///
/// - **forward** (`forward` priority on and the front bit free): claims
///   the front cell;
/// - **boxed in** (no free neighbour): settled, no claim;
/// - **one candidate** (one free neighbour, when `settle_one`): settled,
///   claims it;
/// - **drawing** (anything else): no target yet — [`Decide::agent`]
///   decides it.
///
/// These are [`Decide::agent`]'s own outcomes for the first three
/// classes, with no stream opened and no scan row built.
fn classify(
    avail: &[u8],
    front: &[u8],
    forward: bool,
    settle_one: bool,
    flags: &mut [u8],
    target: &mut [u8],
) {
    let mask = |b: bool| 0u8.wrapping_sub(u8::from(b));
    let (forward, settle_one) = (mask(forward), mask(settle_one));
    let n = avail.len();
    let (front, flags, target) = (&front[..n], &mut flags[..n], &mut target[..n]);
    for c in 0..n {
        let (av, fb) = (avail[c], front[c]);
        let agent = mask(fb != 0);
        let fwd = mask(av & fb & forward != 0);
        let rest = agent & !fwd;
        let boxed = rest & mask(av == 0);
        let one = rest & settle_one & mask((av != 0) & (av & av.wrapping_sub(1) == 0));
        let draws = rest & !boxed & !one;
        target[c] = (fwd & fb) | (one & av);
        flags[c] =
            (fwd & CLAIMS) | (boxed & SETTLED) | (one & (SETTLED | CLAIMS)) | (draws & DRAWS);
    }
}

/// The `(claimed, settled)` counts of a row of [`classify`] flags, summed
/// per 16-byte chunk in `u16`: at most 16 claims in bits 0–4, and the
/// settled count from bit 5.
fn count_flags(flags: &[u8]) -> (u64, u64) {
    let sum = |chunk: &[u8]| -> u16 {
        chunk
            .iter()
            .map(|&f| u16::from(f & (CLAIMS | SETTLED)))
            .sum()
    };
    let chunks = flags.chunks_exact(16);
    let tail = sum(chunks.remainder());
    let (mut claimed, mut settled) = (u64::from(tail & 31), u64::from(tail >> 5));
    for chunk in chunks {
        let s = sum(chunk);
        claimed += u64::from(s & 31);
        settled += u64::from(s >> 5);
    }
    (claimed, settled)
}

/// OR the claims of row `targets`' agents that move by offset `k` into
/// `dst`, the claim bytes of their target row: the agent in column `c`
/// sets bit [`OPPOSITE`]`[k]` of `dst[c + dc]`. Every byte of `dst` in
/// reach is rewritten, claimed or not.
#[inline(always)]
fn or_moves(dst: &mut [u8], targets: &[u8], k: usize) {
    let (from, to) = (1u8 << k, 1u8 << OPPOSITE[k]);
    let n = dst.len() - 1;
    let (dst, targets) = match NEIGHBOR_OFFSETS[k].1 {
        -1 => (&mut dst[..n], &targets[1..]),
        1 => (&mut dst[1..], &targets[..n]),
        _ => (dst, targets),
    };
    for (d, &t) in dst.iter_mut().zip(targets) {
        *d |= if t & from != 0 { to } else { 0 };
    }
}

/// The read-only inputs of one step's decides, shared by both
/// traversals. The dense sweep ([`Decide::rows`]) settles most agents in
/// whole-row passes and hands the rest to [`Decide::agent`]; the sparse
/// walk ([`Decide::slots`]) hands every agent to it.
struct Decide<'a> {
    mat: View<'a, u8>,
    /// The agent index by cell: the dense sweep reads a slot from it only
    /// for an agent that opens a stream.
    index: &'a [u32],
    /// The slot table the sparse walk reads: liveness, cell and group
    /// label per slot.
    alive: &'a [bool],
    pos: &'a [u32],
    ids: &'a [u8],
    /// The band holding each grid row, for filing sparse claims.
    of_row: &'a [u32],
    /// One pheromone plane per group (empty for LEM).
    planes: Vec<View<'a, f32>>,
    dist: DistRef<'a>,
    /// ACO's `η^β` plane, indexed as [`DistRef::neighbor_index`].
    eta_beta: &'a [f32],
    model: ModelKind,
    /// Whether the dense class pass settles one-candidate agents (see
    /// [`settles_one`]).
    settle_one: bool,
    seed: u64,
    /// Counter base of the tour draws: `(step·4 + KERNEL_TOUR) << 4`.
    counter_base: u64,
    claims: Claims<'a>,
}

impl Decide<'_> {
    /// Decide the group-`label` agent standing at `(r, c)`, whose slot
    /// `a` yields (only called when the agent opens a stream) and whose
    /// availability byte is `avail`: pick its next cell exactly as the
    /// scalar initial-calc + tour kernels do, counting into `work` (the
    /// caller counts the claim). Returns the neighbour slot of the cell
    /// it claims, or `None` when it stays put.
    ///
    /// The availability byte — bit `k` set when neighbour `k` is empty —
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
        a: impl Fn() -> u32,
        label: u8,
        avail: u8,
        r: usize,
        c: usize,
        work: &mut Work,
    ) -> Option<usize> {
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
            let stream = || StreamRng::with_offset(self.seed, u64::from(a()), self.counter_base);
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
                    let tf = self.planes[g.index()];
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
        (avail & (1 << k) != 0).then_some(k)
    }

    /// Every cell's front bit in row `r`, whose labels are `labels`:
    /// `1 << front_k` for an agent, 0 for an empty or wall cell. The row
    /// layout's front slot is a constant per group; the grid layout's is
    /// read from its front plane.
    fn front_bits(&self, r: usize, labels: &[u8], out: &mut [u8]) {
        let (h, w) = (self.mat.height, self.mat.width);
        out.fill(0);
        for g in Group::first_n(self.dist.groups) {
            let label = g.label();
            if self.dist.kind == DistanceKind::Rows {
                let bit = 1u8 << self.dist.forward_k(g);
                for (o, &l) in out.iter_mut().zip(labels) {
                    *o |= if l == label { bit } else { 0 };
                }
            } else {
                let front = &self.dist.front[(g.index() * h + r) * w..][..w];
                for ((o, &l), &k) in out.iter_mut().zip(labels).zip(front) {
                    *o |= if l == label { 1 << (k & 7) } else { 0 };
                }
            }
        }
    }

    /// Decide every agent standing in `rows` (the dense sweep), writing
    /// the claim rows `plain` with plain byte ORs and every other claim
    /// row with `fetch_or`. Per row holding an agent: every cell's front
    /// bit and availability byte ([`row_availability`]), the class pass
    /// ([`classify`]), [`Decide::agent`] for the drawing agents only, and
    /// then every target's claim in one pass per move direction. The work
    /// counts of the settled classes are sums over the flags bytes.
    ///
    /// SAFETY: no other task may write or read a claim byte of the rows
    /// `plain` in this step before the calling decide has published
    /// them (as [`Claims::row_mut`]).
    unsafe fn rows(&self, rows: Range<usize>, plain: Range<usize>, work: &mut Work) {
        let (h, w) = (self.mat.height, self.mat.width);
        let mut buf = vec![0; 4 * w];
        let (avail, rest) = buf.split_at_mut(w);
        let (front, rest) = rest.split_at_mut(w);
        let (flags, target) = rest.split_at_mut(w);
        let forward = self.model.forward_priority();
        for r in rows {
            let labels = &self.mat.cells[r * w..][..w];
            self.front_bits(r, labels, front);
            if front.iter().fold(0, |any, &f| any | f) == 0 {
                continue; // no agent stands in the row
            }
            row_availability(self.mat, r, avail);
            classify(avail, front, forward, self.settle_one, flags, target);
            let (claimed, settled) = count_flags(flags);
            work.claimed += claimed;
            work.scored += settled;
            work.settled += settled;
            // The drawing agents, eight flags bytes at a time.
            for (i, word) in flags.chunks(8).enumerate() {
                let mut bytes = [0; 8];
                bytes[..word.len()].copy_from_slice(word);
                let mut draws = u64::from_le_bytes(bytes) & u64::from_le_bytes([DRAWS; 8]);
                while draws != 0 {
                    let c = 8 * i + draws.trailing_zeros() as usize / 8;
                    draws &= draws - 1;
                    let a = || self.index[r * w + c];
                    if let Some(k) = self.agent(a, labels[c], avail[c], r, c, work) {
                        target[c] = 1 << k;
                        work.claimed += 1;
                    }
                }
            }
            for (dr, moves) in [(-1, 5..8), (0, 3..5), (1, 0..3)] {
                let Some(rr) = r.checked_add_signed(dr).filter(|&rr| rr < h) else {
                    continue;
                };
                if plain.contains(&rr) {
                    // SAFETY: forwarded contract; the borrow ends with
                    // this block.
                    let dst = unsafe { self.claims.row_mut(rr, w) };
                    for k in moves {
                        or_moves(dst, target, k);
                    }
                    continue;
                }
                let mask = moves.fold(0u8, |m, k| m | 1 << k);
                for (c, &t) in target.iter().enumerate() {
                    let mut bits = t & mask;
                    while bits != 0 {
                        let k = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let cc = (c as i64 + NEIGHBOR_OFFSETS[k].1) as usize;
                        self.claims.or(rr * w + cc, 1 << OPPOSITE[k]);
                    }
                }
            }
        }
    }

    /// Decide every live agent of the slot range `slots` (the sparse
    /// walk), filing each claimed cell in `bins` under its row band.
    fn slots(&self, slots: Range<usize>, bins: &mut [Vec<u32>], work: &mut Work) {
        for bin in bins.iter_mut() {
            bin.clear();
        }
        let w32 = self.mat.width as u32;
        for ai in slots {
            if !self.alive[ai] {
                continue;
            }
            let p = self.pos[ai];
            let r = p / w32;
            let (r, c) = (r as usize, (p - r * w32) as usize);
            let avail = mat_availability(self.mat, r, c);
            if let Some(k) = self.agent(|| ai as u32, self.ids[ai], avail, r, c, work) {
                let (dr, dc) = NEIGHBOR_OFFSETS[k];
                let row = (r as i64 + dr) as usize;
                let target = row * self.mat.width + (c as i64 + dc) as usize;
                self.claims.or(target, 1 << OPPOSITE[k]);
                work.claimed += 1;
                bins[self.of_row[row] as usize].push(target as u32);
            }
        }
    }
}

/// Whether the dense class pass may settle a one-candidate agent from its
/// availability byte alone, at a step where every pheromone cell holds at
/// least `pher_floor` and every `η^β` an empty neighbour reads is at
/// least `eta_beta_min`. LEM always may. An ACO agent moves only when its
/// lone numerator `τ^α · η^β` is positive, so at `α = 1` it may when
/// `pher_floor · eta_beta_min > 0` in `f32`, with both factors positive:
/// rounded multiplication is monotone, so every numerator is then
/// positive. NaN-safe: a NaN bound fails every comparison.
fn settles_one(model: ModelKind, pher_floor: f32, eta_beta_min: f32) -> bool {
    model.aco_params().is_none_or(|p| {
        p.alpha == 1.0 && pher_floor > 0.0 && eta_beta_min > 0.0 && pher_floor * eta_beta_min > 0.0
    })
}

/// The least `η^β` an ACO decide can read for an empty neighbour, NaN if
/// any of them is NaN: over every entry of the row layout's table, and
/// over the grid layout's non-wall cells (a wall's entry, `(1/f32::MAX)^β`,
/// is never read, and walls never move).
fn eta_beta_min(eta_beta: &[f32], dist: DistRef<'_>, mat: &[u8]) -> f32 {
    let cells = mat.len();
    eta_beta
        .iter()
        .enumerate()
        .filter(|&(i, _)| dist.kind == DistanceKind::Rows || mat[i % cells] != CELL_WALL)
        .fold(
            f32::INFINITY,
            |m, (_, &v)| {
                if v < m || v.is_nan() {
                    v
                } else {
                    m
                }
            },
        )
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
    /// data-preparation stage, like the other backends).
    pub fn new(cfg: SimConfig, threads: usize) -> Self {
        Self::build_cold(cfg, threads)
    }

    /// Build per-replica engine state with `threads` pool workers from an
    /// already compiled world ([`Sim::build`]).
    pub fn from_world(
        world: &std::sync::Arc<CompiledWorld>,
        cfg: SimConfig,
        threads: usize,
    ) -> Self {
        Self::build(world, cfg, threads)
    }

    /// Run every later step on the calling thread in an explorer
    /// interleaving of the workers' plans keyed on `(seed, step)` (see
    /// the backend's `schedule_seed`), or restore pool dispatch with
    /// `None`.
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
    /// Size the per-band state (tallies, and sparse mode's bins) to the
    /// current band partition.
    fn size_band_state(&mut self) {
        let bands = self.bands.len();
        self.tallies = vec![StepTally::default(); bands];
        self.bins = if self.mode == IterationMode::Sparse {
            vec![vec![Vec::new(); bands]; self.slots.len()]
        } else {
            Vec::new()
        };
    }

    /// One step (§IV.b–d) in one launch: every worker runs its plan,
    /// deciding its row bands (dense) or its slot range (sparse) and
    /// resolving each of its bands once the decides it needs have
    /// published.
    fn step(&mut self, step_no: u64, model: ModelKind, metrics: Option<&mut Metrics>) -> Work {
        self.bands.reset();
        let schedule = self.schedule_seed;
        let resolve = Resolve::new(self, step_no, model, metrics);
        // SAFETY: `run_worker` and `run_interleaved` start resolve of band
        // `b` only once every decide of `needs[b]` has published this
        // step, and those are all the decides that read a cell it writes.
        let decide = unsafe { resolve.decide(step_no) };
        let (bands, sum) = (resolve.bands, WorkSum::default());
        let op = |o: Op| {
            let mut work = Work::default();
            match (o, &resolve.bins) {
                // SAFETY: band `b`'s decide, run once per step, is the
                // only writer of the claim rows `plain[b]`, and only band
                // `b`'s resolve, which waits for it, reads them.
                (Op::Decide(b), None) => as_band(b, || unsafe {
                    decide.rows(bands.rows[b].clone(), bands.plain[b].clone(), &mut work)
                }),
                (Op::Decide(t), Some(bins)) => {
                    // SAFETY: decide `t`, run once per step, is the only
                    // operation that writes bin row `t`.
                    let bins = unsafe { bins.slot_mut(t) };
                    decide.slots(resolve.slots[t].clone(), bins, &mut work);
                }
                // SAFETY: band `b`'s resolve runs once, as band `b`'s
                // task, after every decide of `needs[b]` published.
                (Op::Resolve(b), _) => as_band(b, || unsafe { resolve.band(b, &mut work) }),
            }
            sum.add(work);
        };
        let step = step_no + 1;
        match schedule {
            None => resolve
                .pool
                .run(bands.plans.len(), &|w| bands.run_worker(w, step, &op)),
            Some(seed) => bands.run_interleaved(seed, step, &op),
        }
        self.merge_tallies();
        if let Some(p) = model.aco_params() {
            self.pher_floor = if p.q >= 0.0 { p.tau0 } else { f32::NAN };
        }
        sum.total()
    }

    /// Merge the bands' movement tallies in band order.
    fn merge_tallies(&mut self) {
        self.tally = StepTally::default();
        for t in &self.tallies {
            self.tally.merge(t);
        }
    }
}

/// One step's resolve operations: their draw keys, the claims they
/// decode, the in-place scatters every band task writes through, the
/// decides' inputs, and the pool the step runs on.
struct Resolve<'a> {
    pool: &'a WorkerPool,
    seed: u64,
    /// Counter base of the winner draws: `(step·4 + KERNEL_MOVE) << 4`.
    counter_base: u64,
    width: usize,
    aco: Option<AcoParams>,
    bands: &'a Bands,
    claims: Claims<'a>,
    /// Sparse mode: every slot range's bins, `bins[range][band]`, each
    /// row written by its range's decide and read by every resolve.
    bins: Option<Scatter<'a, Vec<Vec<u32>>>>,
    mat: Scatter<'a, u8>,
    index: Scatter<'a, u32>,
    pos: Scatter<'a, u32>,
    tours: Scatter<'a, f32>,
    planes: Vec<Scatter<'a, f32>>,
    /// The arrival rule and the crossed flags it sets, when metrics are
    /// tracked.
    arrivals: Option<(Arrivals<'a>, Scatter<'a, bool>)>,
    tallies: Scatter<'a, StepTally>,
    /// The read-only inputs of the step's decides, taken from the same
    /// borrow of the backend.
    slots: &'a [Range<usize>],
    alive: &'a [bool],
    ids: &'a [u8],
    dist: DistRef<'a>,
    eta_beta: &'a [f32],
    model: ModelKind,
    /// [`settles_one`] at this step.
    settle_one: bool,
    /// The readiness value decide publishes this step (`step + 1`).
    #[cfg(feature = "audit-runtime")]
    step: u64,
}

impl<'a> Resolve<'a> {
    fn new(
        b: &'a mut PooledBackend,
        step_no: u64,
        model: ModelKind,
        metrics: Option<&'a mut Metrics>,
    ) -> Self {
        let sparse = b.mode == IterationMode::Sparse;
        Self {
            pool: &b.pool,
            seed: b.seed,
            counter_base: (step_no * 4 + KERNEL_MOVE) << 4,
            width: b.geom.width,
            aco: model.aco_params(),
            bands: &b.bands,
            claims: Claims::new(&b.claims),
            bins: sparse.then(|| Scatter::new(&mut b.bins)),
            mat: Scatter::new(b.env.mat.as_mut_slice()),
            index: Scatter::new(b.env.index.as_mut_slice()),
            pos: Scatter::new(&mut b.env.props.pos),
            tours: Scatter::new(&mut b.tour.len),
            planes: plane_scatters(b.pher.as_mut()),
            arrivals: metrics.map(|m| {
                let (rule, crossed) = m.arrivals();
                (rule, Scatter::new(crossed))
            }),
            tallies: Scatter::new(&mut b.tallies),
            slots: &b.slots,
            alive: &b.env.alive,
            ids: &b.env.props.id,
            dist: b.dist.dist_ref(),
            eta_beta: &b.eta_beta,
            model,
            settle_one: settles_one(model, b.pher_floor, b.eta_beta_min),
            #[cfg(feature = "audit-runtime")]
            step: step_no + 1,
        }
    }

    /// The step's decide inputs, reading the world through this step's
    /// scatters.
    ///
    /// Dense decide of band `b` reads every cell of rows `start − 1 ..=
    /// end` (the availability bytes of its rows) and, around its agents,
    /// cells within its halo, which only the resolves of `b − 1`, `b` and
    /// `b + 1` write (every band is taller than the halo); a sparse decide
    /// reads its agents' `pos` slots and cells anywhere, so it must
    /// precede every resolve.
    ///
    /// SAFETY: (`Scatter::shared`) the only writers of what a decide
    /// reads are resolves: the caller must run each decide before, and
    /// ordered before, every resolve that writes a cell or slot it reads.
    unsafe fn decide(&self, step_no: u64) -> Decide<'a> {
        let (height, width) = (self.bands.of_row.len(), self.width);
        // SAFETY: forwarded contract.
        let view = |s: &Scatter<'a, u8>| View {
            cells: unsafe { s.shared() },
            height,
            width,
        };
        Decide {
            mat: view(&self.mat),
            // SAFETY: forwarded contract.
            index: unsafe { self.index.shared() },
            alive: self.alive,
            // SAFETY: forwarded contract.
            pos: unsafe { self.pos.shared() },
            ids: self.ids,
            of_row: &self.bands.of_row,
            planes: self
                .planes
                .iter()
                .map(|p| View {
                    // SAFETY: forwarded contract.
                    cells: unsafe { p.shared() },
                    height,
                    width,
                })
                .collect(),
            dist: self.dist,
            eta_beta: self.eta_beta,
            model: self.model,
            settle_one: self.settle_one,
            seed: self.seed,
            counter_base: (step_no * 4 + KERNEL_TOUR) << 4,
            claims: self.claims.clone(),
        }
    }

    /// Resolve row band `b`: evaporate its pheromone cells (ACO), then
    /// admit the winner of every claimed cell of the band — found by
    /// sweeping its claim bytes (dense) or by walking every slot range's
    /// bin for the band (sparse) — and store the band's tally.
    ///
    /// SAFETY: only band `b`'s task may call this, once per step, after
    /// every decide of `needs[b]` has published this step.
    unsafe fn band(&self, b: usize, work: &mut Work) {
        let w = self.width;
        let rows = &self.bands.rows[b];
        let cells = rows.start * w..rows.end * w;
        let mut tally = StepTally::default();
        if let Some(p) = &self.aco {
            for plane in &self.planes {
                // SAFETY: band-owned slots.
                unsafe { evaporate(plane, cells.clone(), p) };
            }
        }
        if let Some(bins) = &self.bins {
            // SAFETY: every decide, the only writer of its bin row, has
            // published this step (`needs[b]` holds every slot range), and
            // this resolve acquired the flags before it started.
            let bins = unsafe { bins.shared() };
            for range_bins in bins {
                for &lin in &range_bins[b] {
                    let (lin, claim) = (lin as usize, &self.claims.bytes[lin as usize]);
                    // ordering: relaxed — every decide's readiness flag,
                    // acquired before this resolve started, published its
                    // fetch_ors; in this step only this band's task
                    // touches the byte after them, and a duplicate entry
                    // finds it already cleared.
                    let bits = claim.load(Ordering::Relaxed);
                    if bits != 0 {
                        // SAFETY: every cell in `bins[*][b]` lies in band
                        // `b`.
                        unsafe { self.admit(lin, claim, bits, &mut tally, work) };
                    }
                }
            }
        } else {
            let first = cells.start;
            for (i, claim) in self.claims.bytes[cells].iter().enumerate() {
                // ordering: relaxed — the readiness flags of the band and
                // its neighbours, acquired before this resolve started,
                // published every fetch_or into it.
                let bits = claim.load(Ordering::Relaxed);
                if bits != 0 {
                    // SAFETY: the cell lies in band `b`.
                    unsafe { self.admit(first + i, claim, bits, &mut tally, work) };
                }
            }
        }
        // SAFETY: band `b` owns tally slot `b`.
        unsafe { self.tallies.write(b, tally) };
    }

    /// Admit the winner of claimed cell `lin`, whose claim byte `claim`
    /// holds the non-zero `bits`: clear the byte, draw the winner (once,
    /// and only if the cell is contested), move it in place, add its
    /// deposit (ACO) and count it into `tally`, testing it for arrival.
    /// Forced inline so that the dense sweep keeps the body in its loop.
    ///
    /// SAFETY: `lin` must lie in the calling task's row band.
    #[inline(always)]
    unsafe fn admit(
        &self,
        lin: usize,
        claim: &AtomicU8,
        bits: u8,
        tally: &mut StepTally,
        work: &mut Work,
    ) {
        // ordering: relaxed — the next step's decide starts after this
        // launch's end barrier, which publishes the zero.
        claim.store(0, Ordering::Relaxed);
        work.contested += u64::from(bits.count_ones() > 1);
        let k = admitted(bits, self.seed, lin, self.counter_base);
        let (dr, dc) = NEIGHBOR_OFFSETS[k];
        let src = (lin as i64 + dr * self.width as i64 + dc) as usize;
        #[cfg(feature = "audit-runtime")]
        {
            self.assert_ready(lin);
            self.assert_ready(src);
        }
        // SAFETY: claimed cells were empty at step start and the winner's
        // source cell was occupied, so `lin` and `src` belong to this
        // winner alone: no other task reads or writes them, or the
        // winner's agent slots, this pass.
        unsafe {
            let a = self.index.read(src);
            let ai = a as usize;
            let label = self.mat.read(src);
            self.mat.write(src, CELL_EMPTY);
            self.index.write(src, 0);
            self.mat.write(lin, label);
            self.index.write(lin, a);
            self.pos.write(ai, lin as u32);
            if let Some(p) = self.aco {
                let l_new = self.tours.read(ai) + MOVE_LEN[k];
                self.tours.write(ai, l_new);
                let g = Group::from_label(label).expect("winner has group label");
                let plane = &self.planes[g.index()];
                plane.write(lin, plane.read(lin) + p.q / l_new);
            }
            tally.moved += 1;
            if let Some((rule, crossed)) = &self.arrivals {
                rule.test(ai, lin, crossed.slot_mut(ai), tally);
            }
        }
    }

    /// The readiness check of the `audit-runtime` detector: before a
    /// resolve writes cell `cell` at `(r, c)`, every decide must have
    /// published this step when sparse, and the decides of the bands of
    /// rows `r − 1 ..= r + 1` when dense.
    #[cfg(feature = "audit-runtime")]
    fn assert_ready(&self, cell: usize) {
        let (r, c) = (cell / self.width, cell % self.width);
        if self.bins.is_some() {
            for (d, ready) in self.bands.ready.iter().enumerate() {
                // ordering: acquire — a detector read, as below.
                let at = ready.0.load(Ordering::Acquire);
                assert!(
                    at >= self.step,
                    "readiness: resolve wrote cell ({r}, {c}) at step {} before decide \
                     published slot range {d}",
                    self.step - 1
                );
            }
            return;
        }
        let of_row = &self.bands.of_row;
        let first = r.saturating_sub(1);
        for (row, &b) in (first..).zip(&of_row[first..(r + 2).min(of_row.len())]) {
            let b = b as usize;
            // ordering: acquire — a detector read; it only has to see the
            // flag a correctly ordered resolve has already acquired.
            let at = self.bands.ready[b].0.load(Ordering::Acquire);
            assert!(
                at >= self.step,
                "readiness: resolve wrote cell ({r}, {c}) at step {} before decide \
                 published row {row} (band {b})",
                self.step - 1
            );
        }
    }
}

impl StageBackend for PooledBackend {
    type Args = usize;

    fn build(world: &CompiledWorld, env: Environment, cfg: SimConfig, threads: usize) -> Self {
        let dist = world.distance();
        let n = env.total_agents();
        let (h, w) = (env.height(), env.width());
        let pher = cfg
            .model
            .aco_params()
            .map(|p| PheromoneField::with_groups(h, w, p.tau0, env.n_groups()));
        let mode = cfg.iteration.resolve(env.live_count(), h * w);
        let eta_beta = eta_beta_plane(&dist, cfg.model);
        let eta_beta_min = eta_beta_min(&eta_beta, dist.dist_ref(), env.mat.as_slice());
        let pher_floor = cfg.model.aco_params().map_or(f32::NAN, |p| p.tau0);
        let pool = WorkerPool::new(threads);
        let slots = band_ranges(n, pool.workers())
            .into_iter()
            .map(|r| r.start + 1..r.end + 1)
            .collect::<Vec<_>>();
        let mut backend = Self {
            bands: Bands::new(h, pool.workers(), decide_halo(cfg.model), mode),
            geom: world.geometry(),
            tour: TourLengths::new(n),
            pher,
            dist,
            eta_beta,
            eta_beta_min,
            pher_floor,
            seed: cfg.env.seed,
            pool,
            claims: (0..h * w).map(|_| AtomicU8::new(0)).collect(),
            schedule_seed: None,
            mode,
            slots,
            bins: Vec::new(),
            tallies: Vec::new(),
            tally: StepTally::default(),
            env,
        };
        backend.size_band_state();
        backend
    }

    fn run_stage(
        &mut self,
        stage: Stage,
        step_no: u64,
        model: ModelKind,
        rec: &mut pedsim_obs::Recorder,
        metrics: Option<&mut Metrics>,
    ) {
        // The whole step is one launch, filed under Movement.
        let (launches, work) = match stage {
            Stage::Init | Stage::InitialCalc | Stage::Tour => (0, Work::default()),
            Stage::Movement => (1, self.step(step_no, model, metrics)),
            Stage::Lifecycle | Stage::Metrics => unreachable!("core-driven stage"),
        };
        // One launch item, one plan, per worker.
        let (k, workers) = (stage.index(), self.pool.workers() as u64);
        rec.inc(KERNEL_LAUNCH_KEYS[k], launches);
        rec.inc(KERNEL_BLOCK_KEYS[k], launches * workers);
        rec.inc(KERNEL_THREAD_KEYS[k], launches * workers);
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
        metrics.finish_step(self.tally, &self.env.props.pos);
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

    /// A new ACO β rebuilds the `η^β` plane, and a new LEM scan range the
    /// band partition.
    fn model_changed(&mut self, old: ModelKind, new: ModelKind) {
        let beta = |m: ModelKind| m.aco_params().map(|p| p.beta.to_bits());
        if beta(new) != beta(old) {
            let (dist, mat) = (self.dist.dist_ref(), self.env.mat.as_slice());
            self.eta_beta = eta_beta_plane(&self.dist, new);
            self.eta_beta_min = eta_beta_min(&self.eta_beta, dist, mat);
        }
        if decide_halo(new) != decide_halo(old) {
            let workers = self.pool.workers();
            self.bands = Bands::new(self.geom.height, workers, decide_halo(new), self.mode);
            self.size_band_state();
        }
    }

    fn iteration_mode(&self) -> IterationMode {
        self.mode
    }

    fn mat_snapshot(&self) -> Matrix<u8> {
        self.env.mat.clone()
    }

    fn positions(&self) -> (Vec<u16>, Vec<u16>) {
        split_positions(&self.env.props.pos, self.env.width())
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
    use crate::engine::Engine;
    use crate::model::{gather_winner, Arrival};
    use crate::params::LemParams;

    #[test]
    fn opposite_inverts_neighbor_offsets() {
        for (k, &(dr, dc)) in NEIGHBOR_OFFSETS.iter().enumerate() {
            assert_eq!(NEIGHBOR_OFFSETS[OPPOSITE[k]], (-dr, -dc), "slot {k}");
            assert_eq!(OPPOSITE[OPPOSITE[k]], k, "slot {k}");
        }
    }

    /// The row-window availability byte (sparse) and the row pass (dense)
    /// equal the bounds-checked loop on every cell: interior and border
    /// cells of three registry worlds as built and with every open cell
    /// relabelled at random, a one-row grid, every labelling of a 2×2
    /// grid, and random labellings of every grid 1–3 cells high and wide.
    #[test]
    fn fast_availability_matches_the_checked_loop_on_every_cell() {
        use pedsim_grid::cell::{CELL_BOTTOM, CELL_TOP};
        let assert_every_cell = |mat: &Matrix<u8>, what: &str| {
            let occ = |r: i64, c: i64| mat.get_or(r, c, CELL_WALL);
            let view = View {
                cells: mat.as_slice(),
                height: mat.height(),
                width: mat.width(),
            };
            let mut row = vec![0; mat.width()];
            for r in 0..mat.height() {
                row_availability(view, r, &mut row);
                for (c, &fast) in row.iter().enumerate() {
                    let want = availability(&occ, r as i64, c as i64);
                    assert_eq!(mat_availability(view, r, c), want, "{what}: cell ({r},{c})");
                    assert_eq!(fast, want, "{what}: row pass, cell ({r},{c})");
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
        for (h, w) in (1..=3).flat_map(|h| (1..=3).map(move |w| (h, w))) {
            for i in 0..16 {
                let cells = (0..h * w)
                    .map(|_| LABELS[rng.bounded_u32(4) as usize])
                    .collect();
                assert_every_cell(&Matrix::from_vec(h, w, cells), &format!("{h}x{w} #{i}"));
            }
        }
    }

    /// The dense class pass agrees with [`Decide::agent`] on every agent
    /// it can meet: every availability byte × label (empty, wall, groups
    /// 1–4) × front slot × forward priority on and off × model — LEM, and
    /// ACO with one-candidate settling both allowed and refused (then the
    /// lone numerator is 0 at about half the cells, so settling it would
    /// claim a cell `agent` leaves) — on both distance layouts, with the
    /// claim rows written plainly and by `fetch_or`. The agent stands at
    /// the centre of a 3×3 grid whose other cells are empty or walls, and
    /// the claim bytes and work counts must match.
    #[test]
    fn class_pass_matches_agent_on_every_byte_label_and_front_slot() {
        use pedsim_grid::cell::CELL_TOP;
        const LABELS: [u8; 6] = [CELL_EMPTY, CELL_WALL, CELL_TOP, 2, 3, 4];
        let (h, w, groups) = (3, 3, 4);
        let cells = h * w;
        let distances: Vec<f32> = (0..groups * h * 8).map(|i| 0.5 + (i % 7) as f32).collect();
        let mut cases = 0;
        for fp in [true, false] {
            let lem = ModelKind::Lem(LemParams {
                forward_priority: fp,
                ..LemParams::default()
            });
            let aco = ModelKind::Aco(AcoParams {
                forward_priority: fp,
                ..AcoParams::default()
            });
            // (model, pheromone floor, whether the plane may hold zeros)
            for (model, floor, zeros) in
                [(lem, f32::NAN, false), (aco, 0.5, false), (aco, 0.0, true)]
            {
                for kind in [DistanceKind::Rows, DistanceKind::Grid] {
                    for fk in 0..8u8 {
                        let forward = [fk; 4];
                        let front = vec![fk; groups * cells];
                        let data = match kind {
                            DistanceKind::Rows => distances.clone(),
                            DistanceKind::Grid => {
                                (0..groups * cells).map(|i| 0.5 + (i % 5) as f32).collect()
                            }
                        };
                        let dist = DistRef {
                            kind,
                            height: h,
                            width: w,
                            groups,
                            forward: &forward,
                            data: &data,
                            front: if kind == DistanceKind::Grid {
                                &front
                            } else {
                                &[]
                            },
                        };
                        let eta_beta: Vec<f32> = match model.aco_params() {
                            Some(p) => data.iter().map(|&d| (1.0 / d).powf(p.beta)).collect(),
                            None => Vec::new(),
                        };
                        let min = eta_beta_min(&eta_beta, dist, &vec![CELL_EMPTY; cells]);
                        let settle_one = settles_one(model, floor, min);
                        assert_eq!(settle_one, !zeros, "{} floor {floor}", model.name());
                        for label in LABELS {
                            for avail in 0..=255u8 {
                                let mut mat = vec![CELL_EMPTY; cells];
                                for (k, &(dr, dc)) in NEIGHBOR_OFFSETS.iter().enumerate() {
                                    if avail & (1 << k) == 0 {
                                        mat[((1 + dr) * 3 + 1 + dc) as usize] = CELL_WALL;
                                    }
                                }
                                mat[4] = label;
                                let tau: Vec<f32> = (0..cells)
                                    .map(|i| {
                                        if zeros && (i + usize::from(avail)) % 2 == 0 {
                                            0.0
                                        } else {
                                            0.5 + i as f32
                                        }
                                    })
                                    .collect();
                                let mut index = vec![0u32; cells];
                                index[4] = 1;
                                let run = |plain: Range<usize>, by_agent: bool| {
                                    let bytes: Vec<AtomicU8> =
                                        (0..cells).map(|_| AtomicU8::new(0)).collect();
                                    let decide = Decide {
                                        mat: View {
                                            cells: &mat,
                                            height: h,
                                            width: w,
                                        },
                                        index: &index,
                                        alive: &[],
                                        pos: &[],
                                        ids: &[],
                                        of_row: &[0; 3],
                                        planes: vec![
                                            View {
                                                cells: &tau,
                                                height: h,
                                                width: w,
                                            };
                                            groups
                                        ],
                                        dist,
                                        eta_beta: &eta_beta,
                                        model,
                                        settle_one,
                                        seed: 9,
                                        counter_base: (5 * 4 + KERNEL_TOUR) << 4,
                                        claims: Claims::new(&bytes),
                                    };
                                    let mut work = Work::default();
                                    if by_agent {
                                        if label != CELL_EMPTY && label != CELL_WALL {
                                            let k =
                                                decide.agent(|| 1, label, avail, 1, 1, &mut work);
                                            if let Some(k) = k {
                                                let (dr, dc) = NEIGHBOR_OFFSETS[k];
                                                let t = ((1 + dr) * 3 + 1 + dc) as usize;
                                                decide.claims.or(t, 1 << OPPOSITE[k]);
                                                work.claimed += 1;
                                            }
                                        }
                                    } else {
                                        // SAFETY: one task.
                                        unsafe { decide.rows(1..2, plain, &mut work) };
                                    }
                                    drop(decide);
                                    let bytes: Vec<u8> =
                                        bytes.into_iter().map(AtomicU8::into_inner).collect();
                                    (bytes, work.counts())
                                };
                                let want = run(0..0, true);
                                for plain in [0..0, 0..3] {
                                    let what = format!(
                                        "{} fp={fp} settle_one={settle_one} {kind:?} front {fk} \
                                         label {label} avail {avail:#010b} plain {plain:?}",
                                        model.name()
                                    );
                                    assert_eq!(run(plain, false), want, "{what}");
                                }
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 2 * 3 * 2 * 8 * LABELS.len() * 256);
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
                claims[fr * w + fc].fetch_or(1 << OPPOSITE[k], Ordering::Relaxed);
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
            let env = EnvConfig::small(32, 32, 60).with_seed(5);
            let cfg = SimConfig::new(env, model).with_checked(true);
            assert_eq!(crate::validate::engines_agree(cfg, 40, 10, None), None);
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

    /// Sparse decides file every claim in the bin of its target's band,
    /// once per claimant, and the resolves clear every claimed byte
    /// through them — on a doorway jam at three threads under explorer
    /// schedules, step for step against the scalar oracle. The world is
    /// closed, so the cells claimed in a step are exactly the cells empty
    /// before it and occupied after it.
    #[test]
    fn sparse_bins_file_each_claim_under_its_band() {
        for model in [ModelKind::lem(), ModelKind::aco()] {
            let (mut scalar, mut pooled) = doorway_pair(model, IterationMode::Sparse, 3);
            pooled.set_schedule_seed(Some(11));
            let counter = |e: &PooledEngine, k: &str| e.telemetry().counter(k);
            for step in 0..40 {
                let before = pooled.mat_snapshot();
                let claimed_before = counter(&pooled, "pooled.claimed");
                pooled.step();
                let claimed = counter(&pooled, "pooled.claimed") - claimed_before;
                let b = &pooled.backend;
                let mut entries: Vec<u32> = Vec::new();
                for range_bins in &b.bins {
                    assert_eq!(range_bins.len(), b.bands.len());
                    for (band, bin) in range_bins.iter().enumerate() {
                        for &lin in bin {
                            let row = lin as usize / b.geom.width;
                            assert!(
                                b.bands.rows[band].contains(&row),
                                "cell {lin} in bin {band}"
                            );
                        }
                        entries.extend(bin);
                    }
                }
                assert_eq!(entries.len() as u64, claimed, "step {step}");
                entries.sort_unstable();
                entries.dedup();
                let after = pooled.mat_snapshot();
                let moved_in: Vec<u32> = (0..)
                    .zip(before.as_slice().iter().zip(after.as_slice()))
                    .filter(|&(_, (&was, &is))| was == CELL_EMPTY && is != CELL_EMPTY)
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(entries, moved_in, "step {step}");
                assert!(
                    b.claims.iter().all(|c| c.load(Ordering::Relaxed) == 0),
                    "step {step}: claim bytes left set"
                );
                scalar.step();
                assert_same_state(&scalar, &pooled, &format!("step {step}"));
            }
            let contested = counter(&pooled, "pooled.contested");
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

    /// Explorer schedules must not change trajectories: a handful of
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

    /// A pooled engine in traversal `mode` and its scalar oracle on the
    /// classic corridor of `height` rows.
    fn corridor_pair(
        height: usize,
        model: ModelKind,
        mode: IterationMode,
        threads: usize,
    ) -> (crate::engine::cpu::CpuEngine, PooledEngine) {
        let env = EnvConfig::small(16, height, 2 * height).with_seed(height as u64);
        let cfg = SimConfig::new(env, model).with_iteration_mode(mode);
        (
            crate::engine::cpu::CpuEngine::new(cfg.clone()),
            PooledEngine::new(cfg, threads),
        )
    }

    /// Every band is taller than the decide halo where the grid allows
    /// it, and the bands cover the rows in order. Each dense plan decides
    /// and then resolves each of its worker's own bands exactly once,
    /// never resolving a band before deciding it; each sparse plan opens
    /// with the decide of its worker's slot range, its only decide, and
    /// then resolves the worker's own bands, every one needing every
    /// slot range.
    #[test]
    fn bands_are_taller_than_the_halo_and_plans_cover_them() {
        for mode in [IterationMode::Dense, IterationMode::Sparse] {
            for height in [1, 2, 3, 5, 7, 12, 20, 61] {
                for workers in 1..=5 {
                    for halo in 1..=3 {
                        let bands = Bands::new(height, workers, halo, mode);
                        let what = format!("{mode:?} h{height} t{workers} halo {halo}");
                        assert_eq!(bands.rows, band_ranges(height, bands.len()), "{what}");
                        if height > halo {
                            assert!(
                                bands.rows.iter().all(|r| r.len() > halo),
                                "{what}: {:?}",
                                bands.rows
                            );
                        }
                        let sparse = mode == IterationMode::Sparse;
                        let decides = if sparse { workers } else { bands.len() };
                        assert_eq!(bands.ready.len(), decides, "{what}");
                        let mut decided = vec![0; decides];
                        let mut resolved = vec![0; bands.len()];
                        for (w, plan) in bands.plans.iter().enumerate() {
                            if sparse {
                                assert_eq!(plan[0], Op::Decide(w), "{what}");
                            }
                            for op in plan {
                                match *op {
                                    Op::Decide(d) => decided[d] += 1,
                                    Op::Resolve(b) if sparse => {
                                        assert_eq!(bands.needs[b], 0..workers, "{what}");
                                        resolved[b] += 1;
                                    }
                                    Op::Resolve(b) => {
                                        assert_eq!(
                                            decided[b], 1,
                                            "{what}: w{w} resolves {b} early"
                                        );
                                        resolved[b] += 1;
                                    }
                                }
                            }
                        }
                        assert!(decided.iter().chain(&resolved).all(|&n| n == 1), "{what}");
                    }
                }
            }
        }
    }

    /// Both traversals match the scalar oracle step for step at one to
    /// four threads on corridors short enough that four bands per worker
    /// would leave bands of fewer than two rows, under ACO, LEM and LEM
    /// with a scan range of 3 (a three-row decide halo). On the shortest
    /// ones there are more plans than bands, so some sparse plans decide
    /// their slot range and resolve nothing.
    #[test]
    fn pipeline_matches_scalar_on_short_bands() {
        let lem3 = ModelKind::Lem(crate::params::LemParams {
            scan_range: 3,
            ..crate::params::LemParams::default()
        });
        for mode in [IterationMode::Dense, IterationMode::Sparse] {
            let mut plans_outnumber_bands = 0;
            for height in [5, 7, 12, 20] {
                for model in [ModelKind::aco(), ModelKind::lem(), lem3] {
                    for threads in 1..=4 {
                        let (mut scalar, mut pooled) = corridor_pair(height, model, mode, threads);
                        let bands = &pooled.backend.bands;
                        plans_outnumber_bands += usize::from(bands.plans.len() > bands.len());
                        for step in 0..30 {
                            scalar.step();
                            pooled.step();
                            let what = format!(
                                "{mode:?} h{height} {} scan {} t{threads} step {step}",
                                model.name(),
                                decide_halo(model)
                            );
                            assert_same_state(&scalar, &pooled, &what);
                        }
                        let (ms, mp) = (scalar.metrics().unwrap(), pooled.metrics().unwrap());
                        assert_eq!(ms.throughput(), mp.throughput());
                        assert_eq!(ms.total_moves, mp.total_moves);
                    }
                }
            }
            assert!(plans_outnumber_bands > 0, "{mode:?}");
        }
    }

    /// A mid-run scan-range change widens the decide halo: the band
    /// partition is rebuilt and pooled stays equal to the scalar oracle.
    #[test]
    fn scan_range_change_mid_run_rebuilds_the_bands() {
        let wide = ModelKind::Lem(crate::params::LemParams {
            scan_range: 4,
            ..crate::params::LemParams::default()
        });
        let (mut scalar, mut pooled) = corridor_pair(24, ModelKind::lem(), IterationMode::Dense, 3);
        assert_eq!(pooled.backend.bands.len(), 12);
        for step in 0..30 {
            if step == 10 {
                scalar.set_model(wide).unwrap();
                pooled.set_model(wide).unwrap();
                assert_eq!(pooled.backend.bands.len(), 4);
            }
            scalar.step();
            pooled.step();
            assert_same_state(&scalar, &pooled, &format!("step {step}"));
        }
    }

    fn mat_hash(e: &PooledEngine) -> u64 {
        pedsim_obs::hash::Fnv64::new()
            .bytes(e.mat_snapshot().as_slice())
            .finish()
    }

    /// The wait a dropped-wait run drops, as the band `b` whose resolve
    /// loses it, `needs[b]` with and without it, and the steps the run
    /// takes. Dense: resolve of band 3, worker 0's last, on decide of band
    /// 4, worker 1's first. Sparse: resolve of band 4, worker 1's first
    /// operation after its decide, on decide of slot range 0, worker 0's
    /// (the upper group's agents, which reach the door in band 4's top
    /// row). Sparse runs take 10 steps: that resolve runs early in about
    /// one step in five, and the sparse readiness check trips on any such
    /// write, so over 20 steps nearly every schedule would trip it.
    fn dropped_wait(mode: IterationMode) -> (usize, Range<usize>, Range<usize>, u64) {
        match mode {
            IterationMode::Sparse => (4, 0..2, 1..2, 10),
            _ => (3, 2..5, 2..4, 20),
        }
    }

    /// A LEM doorway jam in traversal `mode` on two workers with the wait
    /// [`dropped_wait`] names dropped when `drop_wait` is set, run under
    /// the explorer schedule `seed`. Returns the final
    /// state's hash, or `None` if a check panicked.
    fn dropped_wait_run(mode: IterationMode, seed: u64, drop_wait: bool) -> Option<u64> {
        let (_, mut pooled) = doorway_pair(ModelKind::lem(), mode, 2);
        let bands = &mut pooled.backend.bands;
        let (b, full, dropped, steps) = dropped_wait(mode);
        assert_eq!((bands.len(), bands.needs[b].clone()), (8, full));
        let plan_1 = match mode {
            IterationMode::Sparse => [Op::Decide(1), Op::Resolve(4)],
            _ => [Op::Decide(4), Op::Decide(5)],
        };
        assert_eq!(bands.plans[1][..2], plan_1);
        if drop_wait {
            bands.needs[b] = dropped;
        }
        pooled.set_schedule_seed(Some(seed));
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pooled.run(steps);
            mat_hash(&pooled)
        }))
        .ok()
    }

    /// The seeded mis-ordering: with one readiness wait dropped, a resolve
    /// may run before a decide that claims into its band has run, and the
    /// explorer's
    /// interleavings find a schedule that diverges (in a debug or
    /// `audit-runtime` build, a check panics first). With the wait in
    /// place every schedule agrees with natural dispatch.
    #[test]
    fn explorer_catches_a_dropped_readiness_wait() {
        use simt::exec::explore::explore;
        for mode in [IterationMode::Dense, IterationMode::Sparse] {
            let (_, mut natural) = doorway_pair(ModelKind::lem(), mode, 2);
            natural.run(dropped_wait(mode).3);
            let golden = Some(mat_hash(&natural));
            let explored = explore(0..40u64, |seed| dropped_wait_run(mode, seed, false))
                .unwrap_or_else(|d| panic!("{mode:?}: the full wait set diverged: {d}"));
            assert_eq!(explored, golden, "{mode:?}");
            let err = explore(0..40u64, |seed| dropped_wait_run(mode, seed, true)).expect_err(
                &format!("{mode:?}: a dropped wait must be schedule-dependent"),
            );
            assert!(err.agreed >= 1, "{mode:?}");
        }
    }

    /// The same mis-ordering, caught by the `audit-runtime` readiness
    /// check in both modes: some explorer schedule makes resolve write a
    /// cell before a decide it needs has published.
    #[cfg(feature = "audit-runtime")]
    #[test]
    fn readiness_check_catches_a_dropped_wait() {
        for mode in [IterationMode::Dense, IterationMode::Sparse] {
            let caught = (0..40u64).find(|&seed| {
                let (_, mut pooled) = doorway_pair(ModelKind::lem(), mode, 2);
                let (b, _, dropped, steps) = dropped_wait(mode);
                pooled.backend.bands.needs[b] = dropped;
                pooled.set_schedule_seed(Some(seed));
                let res =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pooled.run(steps)));
                res.err().is_some_and(|payload| {
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default();
                    assert!(
                        msg.contains("readiness"),
                        "{mode:?}: unexpected panic: {msg}"
                    );
                    true
                })
            });
            assert!(
                caught.is_some(),
                "{mode:?}: no schedule tripped the readiness check"
            );
        }
    }

    /// The readiness check stays silent on correctly ordered runs of both
    /// traversals, on real threads and under explorer schedules, on the
    /// doorway jam.
    #[cfg(feature = "audit-runtime")]
    #[test]
    fn readiness_check_accepts_ordered_runs() {
        for mode in [IterationMode::Dense, IterationMode::Sparse] {
            for schedule in [None, Some(3)] {
                for threads in [2, 3, 4] {
                    let (mut scalar, mut pooled) = doorway_pair(ModelKind::aco(), mode, threads);
                    pooled.set_schedule_seed(schedule);
                    scalar.run(25);
                    pooled.run(25);
                    assert_same_state(&scalar, &pooled, &format!("{mode:?} t{threads}"));
                }
            }
        }
    }

    /// The plain claim rows under the `audit-runtime` write-set detector,
    /// seeded as the dropped-wait runs are: band 3's plain range widened
    /// by one row reaches its last row, which band 4's decide also claims
    /// into with `fetch_or`, and some explorer schedule of a LEM doorway
    /// jam on two workers trips the detector (dense, 8 bands of 3 rows).
    /// With the bands' own ranges every schedule runs clean and agrees
    /// with the scalar oracle.
    #[cfg(feature = "audit-runtime")]
    #[test]
    fn detector_catches_a_widened_plain_claim_range() {
        let run = |seed: u64, widen: bool| {
            let (mut scalar, mut pooled) = doorway_pair(ModelKind::lem(), IterationMode::Dense, 2);
            let bands = &mut pooled.backend.bands;
            assert_eq!(
                (bands.rows[3].clone(), bands.plain[3].clone()),
                (9..12, 10..11)
            );
            if widen {
                bands.plain[3].end += 1;
            }
            pooled.set_schedule_seed(Some(seed));
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pooled.run(20)));
            match res {
                Ok(()) => {
                    scalar.run(20);
                    assert_same_state(&scalar, &pooled, &format!("schedule {seed}"));
                    None
                }
                Err(payload) => Some(
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default(),
                ),
            }
        };
        for seed in 0..8u64 {
            assert_eq!(
                run(seed, false),
                None,
                "schedule {seed}: the bands' ranges tripped"
            );
        }
        let caught = (0..8u64).find_map(|seed| run(seed, true));
        let msg = caught.expect("no schedule tripped the detector on a widened range");
        assert!(msg.contains("tile race"), "unexpected panic: {msg}");
    }

    /// A worker that has drained its own plan claims the next operations
    /// of another's, in both modes: worker 1 blocks in resolve of band 6
    /// until resolve of band 7, the last operation of its own plan, has
    /// run, so only worker 0 claiming it can finish the launch.
    #[test]
    fn a_drained_worker_claims_operations_of_another_plan() {
        use std::sync::atomic::AtomicBool;
        let pool = WorkerPool::new(2);
        for mode in [IterationMode::Dense, IterationMode::Sparse] {
            let mut bands = Bands::new(32, 2, 1, mode);
            let plan = &bands.plans[1];
            let at = |o: Op| plan.iter().position(|&p| p == o);
            assert_eq!(plan.last(), Some(&Op::Resolve(7)), "{mode:?}");
            assert!(at(Op::Resolve(6)) < at(Op::Resolve(7)), "{mode:?}");
            for step in 1..=20 {
                bands.reset();
                let ran_7 = AtomicBool::new(false);
                let start = std::time::Instant::now();
                let op = |o: Op| match o {
                    Op::Resolve(6) => {
                        // ordering: acquire — pairs with the release below.
                        while !ran_7.load(Ordering::Acquire) {
                            assert!(
                                start.elapsed().as_secs() < 10,
                                "{mode:?}: resolve of band 7 never ran"
                            );
                            std::thread::yield_now();
                        }
                    }
                    // ordering: release — publishes the run to resolve of 6.
                    Op::Resolve(7) => ran_7.store(true, Ordering::Release),
                    _ => {}
                };
                pool.run(2, &|w| bands.run_worker(w, step, &op));
                assert!((0..8).all(|b| bands.resolvable(b, step)), "{mode:?}");
            }
        }
    }

    /// A panicking decide aborts the launch instead of hanging it, in
    /// both modes: the workers waiting on it stop, and the pool re-raises
    /// the panic; the next launch runs clean. A sparse plan's decide is
    /// needed by every band, so every other worker's resolves wait on it.
    #[test]
    fn a_panicking_operation_aborts_the_launch() {
        let pool = WorkerPool::new(3);
        for (mode, faulty) in [(IterationMode::Dense, 4), (IterationMode::Sparse, 1)] {
            let mut bands = Bands::new(36, 3, 1, mode);
            bands.reset();
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(3, &|w| {
                    bands.run_worker(w, 1, &|o| {
                        if o == Op::Decide(faulty) {
                            panic!("decide fault");
                        }
                    })
                });
            }));
            let payload = res.expect_err("the panic reaches the launching thread");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"decide fault"),
                "{mode:?}"
            );
            bands.reset();
            pool.run(3, &|w| bands.run_worker(w, 2, &|_| {}));
            assert!((0..bands.len()).all(|b| bands.resolvable(b, 2)), "{mode:?}");
        }
    }
}
