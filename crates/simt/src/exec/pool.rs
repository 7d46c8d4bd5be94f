//! A persistent worker pool for block dispatch.
//!
//! The virtual device launches on the order of 10⁵ kernels per simulation
//! (four kernels × 25,000 steps), so the pool keeps its workers alive
//! across launches — spawning threads per launch would dominate runtime.
//! The launching thread is worker 0: a pool of `n` spawns `n − 1`
//! threads, so a one-worker pool runs launches inline.
//!
//! Each launch splits its items into one contiguous range per worker
//! ([`band_range`]). Worker `w` claims its own range in order from its own
//! cache-line-padded cursor, then claims from the other workers' cursors
//! in turn (`w + 1`, `w + 2`, …) until every range is drained. Item `i`
//! of a launch of `n` therefore runs on the same worker launch after
//! launch unless that worker falls behind, so a caller that keeps one
//! partition across passes (the pooled backend's row bands) keeps each
//! part's data in one core's cache, as the paper's kernels keep a tile on
//! one SM. Stealing from the other cursors is the GPU block scheduler's
//! "a free SM takes the next block" for the launch's tail.
//!
//! The pool is deliberately not rayon: the launch semantics (one job at a
//! time, all workers on it, caller is worker 0 and then waits for the
//! rest, per-launch profiling) mirror a CUDA stream launch followed by a
//! synchronize, except that the host thread runs blocks while it waits.

use std::panic::AssertUnwindSafe;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

type Kernel<'a> = dyn Fn(usize) + Sync + 'a;
type Panic = Box<dyn std::any::Any + Send>;

/// The pool's single lifetime-erasure site: a `NonNull` handle to the
/// job closure whose scope contract lives here and nowhere else.
///
/// ## Scope contract
///
/// A `JobHandle` is created from the closure passed to [`WorkerPool::run`]
/// and is valid **only inside that call's lifetime**. The caller runs its
/// own items through the real borrow; only spawned workers use the handle:
///
/// 1. `run` installs the handle under the state lock, runs its own items
///    (catching their panics, so it cannot unwind early), then blocks on
///    `done_cv` until every spawned worker has decremented `active` to 0;
/// 2. spawned workers only obtain the handle by copying it out of the
///    installed [`Job`] (under the same lock) and only call
///    [`JobHandle::get`] between that copy and their `active` decrement;
/// 3. `run` clears the job before returning, and the debug-mode
///    `executing` counter (every thread's items, the caller's included)
///    asserts nobody is still inside the closure at that point.
///
/// Together these guarantee the referent outlives every dereference, so
/// the erased lifetime is never actually exceeded.
#[derive(Clone, Copy)]
struct JobHandle {
    f: NonNull<Kernel<'static>>,
}

impl JobHandle {
    fn new(f: &Kernel<'_>) -> Self {
        // SAFETY: lifetime erasure to `'static` for storage only; every
        // dereference happens through `get`, whose contract (the scope
        // contract above) keeps it inside the real borrow.
        let f: &'static Kernel<'static> = unsafe { std::mem::transmute(f) };
        Self { f: f.into() }
    }

    /// Borrow the closure.
    ///
    /// SAFETY: the caller must be inside the scope-contract window above
    /// (worker rule 2) — the installing `run` call has not returned, so
    /// the referent is alive.
    unsafe fn get<'scope>(&self) -> &'scope Kernel<'scope> {
        // SAFETY: non-null by construction from a reference; liveness per
        // this method's contract.
        unsafe { self.f.as_ref() }
    }
}

// SAFETY: the handle is a pointer to a `Sync` closure (`&dyn Fn + Sync`
// is itself Send), moved to workers only inside the scope-contract
// window, during which `run` has not returned and the referent is alive.
unsafe impl Send for JobHandle {}

/// The installed job: a lifetime-erased `Fn(block_index)` and its extent.
#[derive(Clone, Copy)]
struct Job {
    /// Handle to the job closure (see [`JobHandle`] for the contract).
    f: JobHandle,
    /// Number of items (blocks) in the job.
    n: usize,
}

/// One worker's claim cursor: the next unclaimed item of that worker's
/// range. Aligned to two cache lines (the adjacent-line prefetcher pairs
/// them) so a worker's claims never write a line another cursor shares.
#[repr(align(128))]
struct Cursor(AtomicUsize);

struct State {
    /// The in-flight job; also the flag concurrent launchers queue on.
    job: Option<Job>,
    /// Bumped once per job; workers use it to detect new work.
    generation: u64,
    /// Spawned workers still executing the current job.
    active: usize,
    /// First panic payload a spawned worker caught during the current job.
    panic: Option<Panic>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// One cursor per worker, the launching thread's first.
    cursors: Box<[Cursor]>,
    /// Debug-mode check of the [`JobHandle`] scope contract: threads
    /// currently *inside* the job closure. Must be zero whenever `run`
    /// observes `active == 0`.
    #[cfg(debug_assertions)]
    executing: AtomicUsize,
}

// The block index currently executing on this thread, when inside a
// pool job. The pooled backend's write-set race detector uses this to
// attribute scatter writes to tiles.
#[cfg(feature = "audit-runtime")]
thread_local! {
    static CURRENT_BLOCK: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The block index the calling thread is currently executing for its
/// pool, if any (`audit-runtime` builds only).
#[cfg(feature = "audit-runtime")]
pub fn current_block() -> Option<usize> {
    CURRENT_BLOCK.with(|c| c.get())
}

/// A fixed-size pool of block-execution workers.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool of `workers` (≥ 1): the caller plus `workers − 1` threads.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                generation: 0,
                active: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cursors: (0..workers).map(|_| Cursor(AtomicUsize::new(0))).collect(),
            #[cfg(debug_assertions)]
            executing: AtomicUsize::new(0),
        });
        let handles = (1..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("simt-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn simt worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Number of workers per launch, the launching thread included.
    pub fn workers(&self) -> usize {
        self.handles.len() + 1
    }

    /// Execute `f(0..n)` across the pool, the calling thread working as
    /// worker 0; returns when every index ran. Worker `w` first runs
    /// [`band_range`]`(n, workers, w)` in order, then helps drain the
    /// other workers' ranges.
    ///
    /// Launches are serialized: the pool runs one job at a time, and a
    /// concurrent `run` (e.g. two batch replicas sharing one parallel
    /// device) queues until the in-flight job drains instead of
    /// corrupting it.
    ///
    /// Panics are contained per item: the panicking item is abandoned,
    /// the workers drain the rest of the job, and the *first* panic
    /// payload is re-raised here on the launching thread. The pool itself
    /// stays usable — a subsequent `run` starts from clean state.
    pub fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        let mut st = self.shared.state.lock();
        while st.job.is_some() {
            self.shared.done_cv.wait(&mut st);
        }
        let workers = self.workers();
        for (w, cursor) in self.shared.cursors.iter().enumerate() {
            // ordering: relaxed — the cursor reset is published to workers
            // by the state-mutex release below, not by the atomic itself.
            cursor
                .0
                .store(band_range(n, workers, w).start, Ordering::Relaxed);
        }
        // The one lifetime-erasure step (see `JobHandle`).
        st.job = Some(Job {
            f: JobHandle::new(f),
            n,
        });
        st.active = self.handles.len();
        if st.active > 0 {
            st.generation += 1;
            self.shared.work_cv.notify_all();
        }
        drop(st);
        let own_panic = claim_blocks(&self.shared, f, n, 0);
        let mut st = self.shared.state.lock();
        while st.active > 0 {
            self.shared.done_cv.wait(&mut st);
        }
        // JobHandle scope contract, rule 3 (debug builds): no thread may
        // still be inside the closure. ordering: relaxed — the mutex taken
        // around each `active` decrement ordered the workers' `executing`
        // updates before this load.
        #[cfg(debug_assertions)]
        debug_assert_eq!(self.shared.executing.load(Ordering::Relaxed), 0);
        st.job = None;
        let payload = st.panic.take().or(own_panic);
        // Wake any launcher queued behind this job.
        self.shared.done_cv.notify_all();
        drop(st);
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.state.lock().shutdown = true;
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The `i`-th of `parts.max(1)` contiguous ranges that split `0..n`:
/// sizes differ by at most one, the longer ranges come first, and the
/// trailing ranges are empty when `parts > n`. The ranges for `i` in
/// `0..parts` cover every index exactly once. This is the pool's
/// per-worker split and the pooled backend's row-band partition.
pub fn band_range(n: usize, parts: usize, i: usize) -> std::ops::Range<usize> {
    let parts = parts.max(1);
    let (base, extra) = (n / parts, n % parts);
    let start = i * base + i.min(extra);
    start..start + base + usize::from(i < extra)
}

/// All [`band_range`]s of `0..n` in order: exactly `parts.max(1)` of them.
pub fn band_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    (0..parts.max(1)).map(|i| band_range(n, parts, i)).collect()
}

/// Every worker's loop, the caller's included: worker `me` claims the
/// items of its own range in order, then those left in the other
/// workers' ranges (`me + 1`, `me + 2`, …), returning the first panic
/// caught.
fn claim_blocks(shared: &Shared, f: &Kernel<'_>, n: usize, me: usize) -> Option<Panic> {
    // An inline launch may run inside another pool's block (a replica's
    // engine inside a batch job): restore that block on the way out.
    #[cfg(feature = "audit-runtime")]
    let outer_block = current_block();
    let mut first_panic = None;
    let workers = shared.cursors.len();
    for owner in (me..workers).chain(0..me) {
        let (cursor, end) = (&shared.cursors[owner].0, band_range(n, workers, owner).end);
        loop {
            // ordering: relaxed — a pure claim ticket: item data was
            // published by the state mutex, and each ticket is unique.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= end {
                break;
            }
            // ordering: relaxed — debug-only counter, read after the drain in `run`.
            #[cfg(debug_assertions)]
            shared.executing.fetch_add(1, Ordering::Relaxed);
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "audit-runtime")]
                CURRENT_BLOCK.with(|c| c.set(Some(i)));
                f(i);
            }));
            // ordering: relaxed — same debug-counter argument as above.
            #[cfg(debug_assertions)]
            shared.executing.fetch_sub(1, Ordering::Relaxed);
            first_panic = first_panic.or(outcome.err());
        }
    }
    #[cfg(feature = "audit-runtime")]
    CURRENT_BLOCK.with(|c| c.set(outer_block));
    first_panic
}

fn worker_loop(shared: &Shared, me: usize) {
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock();
            while !st.shutdown && st.generation == seen_generation {
                shared.work_cv.wait(&mut st);
            }
            if st.shutdown {
                return;
            }
            seen_generation = st.generation;
            st.job.expect("generation bumped without job")
        };
        // SAFETY: scope-contract window (rule 2 on `JobHandle`) — the
        // installing `run` call cannot return until this worker
        // decrements `active` below, so the closure is alive.
        let payload = claim_blocks(shared, unsafe { job.f.get() }, job.n, me);
        let mut st = shared.state.lock();
        st.panic = st.panic.take().or(payload);
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = WorkerPool::new(4);
        assert_eq!((pool.workers(), pool.handles.len()), (4, 3));
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.run(1000, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn band_ranges_cover_exactly_once() {
        for (n, parts) in [(0, 3), (5, 8), (7, 1), (100, 7), (16, 16), (9, 0)] {
            let bands = band_ranges(n, parts);
            assert_eq!(bands.len(), parts.max(1));
            let mut next = 0;
            for (i, b) in bands.iter().enumerate() {
                assert_eq!(b.start, next, "gap/overlap at {b:?} (n={n}, parts={parts})");
                assert!(b.len() == n / parts.max(1) + usize::from(i < n % parts.max(1)));
                next = b.end;
            }
            assert_eq!(next, n);
        }
    }

    /// Worker 1's first item blocks until its second has run, so only a
    /// steal can finish the launch: the launching thread runs its own
    /// range (items 0 and 1) in order, then takes whichever of items 2 and
    /// 3 worker 1 has not claimed yet.
    #[test]
    fn an_idle_worker_steals_from_a_blocked_one() {
        use std::sync::atomic::AtomicBool;
        let pool = WorkerPool::new(2);
        let caller = std::thread::current().id();
        for _ in 0..20 {
            let ran_3 = AtomicBool::new(false);
            let runs: Vec<Mutex<Vec<std::thread::ThreadId>>> =
                (0..4).map(|_| Mutex::new(Vec::new())).collect();
            pool.run(4, &|i| {
                if i == 2 {
                    // ordering: acquire — pairs with item 3's release store.
                    while !ran_3.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                runs[i].lock().push(std::thread::current().id());
                if i == 3 {
                    // ordering: release — publishes item 3's record to item 2.
                    ran_3.store(true, Ordering::Release);
                }
            });
            let runs: Vec<_> = runs.into_iter().map(Mutex::into_inner).collect();
            assert!(runs.iter().all(|r| r.len() == 1), "{runs:?}");
            assert_eq!((runs[0][0], runs[1][0]), (caller, caller));
            assert!((runs[2][0] == caller) != (runs[3][0] == caller), "{runs:?}");
        }
    }

    #[test]
    fn sequential_jobs_reuse_workers() {
        let pool = WorkerPool::new(3);
        let sum = AtomicU64::new(0);
        for _ in 0..50 {
            pool.run(64, &|i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 50 * (63 * 64 / 2));
    }

    #[test]
    fn zero_items_is_noop() {
        let pool = WorkerPool::new(2);
        pool.run(0, &|_| panic!("must not run"));
    }

    #[test]
    fn single_worker_pool_runs_inline_on_the_caller() {
        let pool = WorkerPool::new(1);
        assert!(pool.handles.is_empty());
        let caller = std::thread::current().id();
        let sum = AtomicU64::new(0);
        pool.run(10, &|i| {
            assert_eq!(std::thread::current().id(), caller);
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn drop_joins_cleanly() {
        let pool = WorkerPool::new(8);
        pool.run(100, &|_| {});
        drop(pool); // must not hang
    }

    #[test]
    fn concurrent_launches_serialize_cleanly() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicU64> = (0..512).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..20 {
                        pool.run(512, &|i| {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        // 4 launchers × 20 jobs, each covering every index exactly once.
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 80));
    }

    #[test]
    fn worker_panic_reraises_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicU64> = (0..200).map(|_| AtomicU64::new(0)).collect();
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(200, &|i| {
                if i == 37 {
                    panic!("kernel fault at {i}");
                }
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = res.expect_err("panic must reach the launching thread");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("kernel fault at 37"), "{msg}");
        // No index ran twice, and the job did not hang.
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1));

        // The next launch starts from clean state and runs every index.
        let sum = AtomicU64::new(0);
        pool.run(64, &|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 63 * 64 / 2);
    }

    #[test]
    fn every_worker_panicking_still_drains() {
        let pool = WorkerPool::new(3);
        for _ in 0..3 {
            let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(48, &|_| panic!("all items fault"));
            }));
            assert!(res.is_err());
        }
        let sum = AtomicU64::new(0);
        pool.run(10, &|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn captures_environment() {
        let pool = WorkerPool::new(2);
        let data = vec![1u64; 256];
        let sum = AtomicU64::new(0);
        pool.run(data.len(), &|i| {
            sum.fetch_add(data[i], Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 256);
    }
}
