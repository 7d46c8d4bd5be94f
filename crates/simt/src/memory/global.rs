//! Global device memory.
//!
//! ## The scatter-to-gather contract
//!
//! The paper's movement kernel avoids CUDA atomics by arranging that **every
//! global slot is written by at most one thread per kernel** (§IV.d, the
//! scatter-to-gather transformation of Scavo \[21\]). On real hardware that
//! contract is invisible — violating it silently corrupts data. Here it is
//! a *checkable invariant*: [`ScatterBuffer`] can carry one atomic flag per
//! slot, and in checked mode a second write to the same slot within one
//! write epoch panics with both indices. The simulation test-suite runs
//! entirely in checked mode; wall-clock benchmarks construct unchecked
//! buffers (flag array absent, zero overhead beyond the raw store).
//!
//! ## Safety model
//!
//! A `ScatterBuffer` may be in one of two phases, managed by the caller
//! (the engine):
//!
//! * **host phase** — no kernel is running; `as_slice`/`as_mut_slice` give
//!   ordinary access;
//! * **launch phase** — a kernel is running; threads write disjoint slots
//!   through [`ScatterView::write`] and must not read the buffer at all.
//!
//! Because `Device::launch` is synchronous, the two phases never overlap in
//! time; the engine guarantees no buffer is both read and scatter-written
//! in the same launch (kernels read the *other* buffer of a double-buffered
//! pair, or a tile snapshot taken before any write).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// A global buffer supporting disjoint scattered writes from many threads.
///
/// See the module docs for the contract. `T` must be `Copy` (plain data,
/// as on a real device).
pub struct ScatterBuffer<T> {
    data: Box<[UnsafeCell<T>]>,
    /// One flag per slot in checked mode; empty when unchecked.
    flags: Box<[AtomicBool]>,
}

// SAFETY: all mutation goes through `ScatterView::write`, whose contract
// (enforced in checked mode) is that distinct threads touch distinct slots
// within a write epoch, and reads never overlap writes (phase discipline
// documented above). `T: Copy + Send + Sync` keeps values plain data.
unsafe impl<T: Copy + Send + Sync> Sync for ScatterBuffer<T> {}
unsafe impl<T: Copy + Send + Sync> Send for ScatterBuffer<T> {}

impl<T: Copy + Send + Sync> ScatterBuffer<T> {
    /// Allocate `len` slots initialised to `init`.
    pub fn new(len: usize, init: T, checked: bool) -> Self {
        let data: Box<[UnsafeCell<T>]> = (0..len).map(|_| UnsafeCell::new(init)).collect();
        let flags: Box<[AtomicBool]> = if checked {
            (0..len).map(|_| AtomicBool::new(false)).collect()
        } else {
            Box::new([])
        };
        Self { data, flags }
    }

    /// Allocate from an existing vector.
    pub fn from_vec(v: Vec<T>, checked: bool) -> Self {
        let len = v.len();
        let data: Box<[UnsafeCell<T>]> = v.into_iter().map(UnsafeCell::new).collect();
        let flags: Box<[AtomicBool]> = if checked {
            (0..len).map(|_| AtomicBool::new(false)).collect()
        } else {
            Box::new([])
        };
        Self { data, flags }
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer has no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether write-conflict checking is enabled.
    #[inline]
    pub fn is_checked(&self) -> bool {
        !self.flags.is_empty()
    }

    /// Host-phase read access.
    ///
    /// Must not be called while a kernel is scatter-writing this buffer
    /// (see module safety model); the engine's synchronous launches make
    /// that straightforward to uphold.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: UnsafeCell<T> has the same layout as T; host phase means
        // no concurrent writers.
        unsafe { std::slice::from_raw_parts(self.data.as_ptr().cast::<T>(), self.data.len()) }
    }

    /// Host-phase mutable access.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: &mut self proves exclusivity.
        unsafe {
            std::slice::from_raw_parts_mut(self.data.as_mut_ptr().cast::<T>(), self.data.len())
        }
    }

    /// Begin a write epoch: clears the conflict flags (checked mode only).
    ///
    /// The engine calls this before every kernel launch that writes the
    /// buffer. Unchecked buffers make this a no-op.
    pub fn begin_epoch(&self) {
        for f in self.flags.iter() {
            // ordering: relaxed — the epoch reset happens in the host
            // phase, before any launch; the launch hand-off synchronises.
            f.store(false, Ordering::Relaxed);
        }
    }

    /// Obtain the launch-phase write view.
    #[inline]
    pub fn view(&self) -> ScatterView<'_, T> {
        ScatterView {
            data: &self.data,
            flags: &self.flags,
        }
    }

    /// Fill every slot (host phase).
    pub fn fill(&mut self, value: T) {
        self.as_mut_slice().fill(value);
    }
}

impl<T: Copy + Send + Sync + Default> ScatterBuffer<T> {
    /// Allocate `len` slots of `T::default()`.
    pub fn zeroed(len: usize, checked: bool) -> Self {
        Self::new(len, T::default(), checked)
    }
}

impl<T: Copy + Send + Sync + std::fmt::Debug> std::fmt::Debug for ScatterBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScatterBuffer")
            .field("len", &self.len())
            .field("checked", &self.is_checked())
            .finish()
    }
}

/// Launch-phase write handle for a [`ScatterBuffer`].
#[derive(Clone, Copy)]
pub struct ScatterView<'a, T> {
    data: &'a [UnsafeCell<T>],
    flags: &'a [AtomicBool],
}

// SAFETY: same argument as for `ScatterBuffer` — disjoint writes are the
// view's contract, checked at runtime in checked mode.
unsafe impl<T: Copy + Send + Sync> Sync for ScatterView<'_, T> {}
unsafe impl<T: Copy + Send + Sync> Send for ScatterView<'_, T> {}

impl<T: Copy + Send + Sync> ScatterView<'_, T> {
    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer has no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read `slot` during a launch.
    ///
    /// Contract (the in-place read-modify-write discipline): within one
    /// epoch, a slot that is read through the view must only ever be
    /// written by the *same* thread that reads it (e.g. a movement thread
    /// reading an agent's tour length before accumulating into it). Slots
    /// owned by other threads must not be read — use an `as_slice` snapshot
    /// of a buffer that is not written this launch instead.
    #[inline]
    pub fn read(&self, slot: usize) -> T {
        // SAFETY: per the contract above there is no concurrent writer for
        // a slot the owning thread reads.
        unsafe { *self.data[slot].get() }
    }

    /// Write `value` into `slot`.
    ///
    /// Panics in checked mode if any thread already wrote `slot` in this
    /// epoch — the scatter-to-gather contract violation the paper's design
    /// rules out.
    #[inline]
    pub fn write(&self, slot: usize, value: T) {
        if !self.flags.is_empty() {
            // ordering: relaxed — the swap's atomicity alone decides the
            // first writer; no other memory is published through the flag.
            let prev = self.flags[slot].swap(true, Ordering::Relaxed);
            assert!(
                !prev,
                "scatter-to-gather violation: slot {slot} written twice in one epoch"
            );
        }
        // SAFETY: bounds-checked by the index below; disjointness across
        // threads is the caller contract (verified above in checked mode).
        unsafe {
            *self.data[slot].get() = value;
        }
    }
}

/// Global memory with hardware-style atomic read-modify-write, for the
/// atomic-operation movement variant the paper compares against
/// (§IV.d: "an atomic operation serialises an application").
///
/// Only `u32` payloads are provided — the CUDA `atomicCAS`/`atomicExch`
/// subset the alternative implementation needs.
#[derive(Debug)]
pub struct AtomicBuffer {
    data: Box<[AtomicU32]>,
}

impl AtomicBuffer {
    /// Allocate `len` slots initialised to `init`.
    pub fn new(len: usize, init: u32) -> Self {
        Self {
            data: (0..len).map(|_| AtomicU32::new(init)).collect(),
        }
    }

    /// Copy values in from a slice.
    pub fn load_from(&self, src: &[u32]) {
        assert_eq!(src.len(), self.data.len());
        for (a, &v) in self.data.iter().zip(src) {
            // ordering: relaxed — host-phase upload; the launch hand-off
            // publishes it to worker threads.
            a.store(v, Ordering::Relaxed);
        }
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer has no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Plain load.
    #[inline]
    pub fn load(&self, slot: usize) -> u32 {
        // ordering: relaxed — mirrors a plain CUDA global load; any
        // cross-thread protocol is built from the AcqRel RMWs below.
        self.data[slot].load(Ordering::Relaxed)
    }

    /// Plain store.
    #[inline]
    pub fn store(&self, slot: usize, value: u32) {
        // ordering: relaxed — plain global store, same model as `load`.
        self.data[slot].store(value, Ordering::Relaxed);
    }

    /// `atomicCAS`: returns the previous value; the swap happened iff the
    /// return equals `expected`.
    #[inline]
    pub fn compare_and_swap(&self, slot: usize, expected: u32, new: u32) -> u32 {
        // ordering: AcqRel on success so a winning claim publishes the
        // claimant's prior writes and the reader of the claim sees them;
        // Acquire on failure so a losing thread observes the winner's.
        match self.data[slot].compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire) {
            Ok(prev) | Err(prev) => prev,
        }
    }

    /// `atomicExch`.
    #[inline]
    pub fn exchange(&self, slot: usize, new: u32) -> u32 {
        // ordering: AcqRel — exchange participates in the same
        // claim-style protocols as `compare_and_swap`.
        self.data[slot].swap(new, Ordering::AcqRel)
    }

    /// Snapshot into a vector (host phase).
    pub fn to_vec(&self) -> Vec<u32> {
        self.data
            .iter()
            // ordering: relaxed — host phase, no concurrent writers.
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_roundtrip() {
        let buf = ScatterBuffer::<u32>::zeroed(16, true);
        buf.begin_epoch();
        let v = buf.view();
        for i in 0..16 {
            v.write(i, (i * i) as u32);
        }
        assert_eq!(buf.as_slice()[5], 25);
    }

    #[test]
    #[should_panic(expected = "scatter-to-gather violation")]
    fn checked_mode_panics_on_double_write() {
        let buf = ScatterBuffer::<u32>::zeroed(4, true);
        buf.begin_epoch();
        let v = buf.view();
        v.write(2, 1);
        v.write(2, 2);
    }

    #[test]
    fn unchecked_mode_allows_overwrite() {
        let buf = ScatterBuffer::<u32>::zeroed(4, false);
        buf.begin_epoch();
        let v = buf.view();
        v.write(2, 1);
        v.write(2, 2);
        assert_eq!(buf.as_slice()[2], 2);
    }

    #[test]
    fn epoch_reset_allows_rewrite() {
        let buf = ScatterBuffer::<u32>::zeroed(4, true);
        buf.begin_epoch();
        buf.view().write(1, 10);
        buf.begin_epoch();
        buf.view().write(1, 20);
        assert_eq!(buf.as_slice()[1], 20);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let buf = ScatterBuffer::<u64>::zeroed(4096, true);
        buf.begin_epoch();
        std::thread::scope(|s| {
            for t in 0..4 {
                let view = buf.view();
                s.spawn(move || {
                    for i in (t..4096).step_by(4) {
                        view.write(i, i as u64);
                    }
                });
            }
        });
        assert!(buf
            .as_slice()
            .iter()
            .enumerate()
            .all(|(i, &v)| v == i as u64));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn write_out_of_bounds_panics() {
        let buf = ScatterBuffer::<u32>::zeroed(4, false);
        buf.view().write(4, 0);
    }

    #[test]
    fn atomic_cas_claims_once() {
        let buf = AtomicBuffer::new(1, 0);
        let buf_ref = &buf;
        let winners: Vec<bool> = std::thread::scope(|s| {
            let hs: Vec<_> = (1..=8)
                .map(|t| s.spawn(move || buf_ref.compare_and_swap(0, 0, t) == 0))
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(winners.iter().filter(|&&w| w).count(), 1);
        assert_ne!(buf.load(0), 0);
    }

    #[test]
    fn from_vec_preserves_order() {
        let buf = ScatterBuffer::from_vec(vec![3u8, 1, 4, 1, 5], true);
        assert_eq!(buf.as_slice(), &[3, 1, 4, 1, 5]);
        assert_eq!(buf.len(), 5);
    }
}
