//! Bounded interleaving exploration for the unsafe concurrency core.
//!
//! The pool's block scheduler (one atomic claim cursor per worker, the
//! idle ones stealing from the rest) hands out blocks in whatever order
//! the OS happens to run the workers, so any single test
//! run observes exactly one interleaving. This module makes schedule
//! variation *reproducible*: a Philox-seeded permutation reorders the
//! block index space before dispatch, and [`explore`] re-runs a workload
//! under hundreds of such schedules asserting every one produces the same
//! result. A schedule-dependent outcome — a lost claim, an
//! order-sensitive reduction, a cross-tile write — surfaces as a
//! [`Divergence`] naming the offending seed, which then reproduces
//! deterministically.
//!
//! This is bounded exploration, not a model checker. [`run_permuted`]
//! permutes the *block issue order* of one pool launch, a pool-level
//! tool that the pool's own interleaving tests use. The pooled backend's
//! steps do not vary by block order: each step is one launch of
//! per-worker plans, and its explorer schedule (the seed given to
//! `PooledEngine::set_schedule_seed`) steps those plans one operation
//! at a time in a seeded order that the claim cursors and readiness
//! waits allow. [`explore`] drives either kind of schedule. Paired with
//! the write-set race detector (`audit-runtime` feature) it covers the
//! two failure modes the pooled backend's claim protocol is designed
//! against: non-commutative claim resolution and cross-tile writes.

use philox::StreamRng;

use super::pool::WorkerPool;

/// Fisher–Yates permutation of `0..n`, keyed by `(seed, launch)` through
/// the same counter-based Philox generator the simulation uses. The same
/// key always yields the same permutation, on every host.
pub fn permutation(seed: u64, launch: u64, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut rng = StreamRng::new(seed, launch);
    // Classic Fisher–Yates: swap slot i with a uniform pick from 0..=i.
    for i in (1..n).rev() {
        let j = rng.bounded_u32(i as u32 + 1) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Run `f` over `perm`'s index space on the pool, issuing block `perm[b]`
/// where an unpermuted launch would issue block `b`. Every index still
/// runs exactly once; only the claim order changes.
pub fn run_permuted(pool: &WorkerPool, perm: &[usize], f: &(dyn Fn(usize) + Sync)) {
    pool.run(perm.len(), &|b| f(perm[b]));
}

/// Run `f` over `perm` serially on the calling thread, in permuted order.
///
/// Use this (not [`run_permuted`]) for workloads that are *expected* to
/// conflict — e.g. seeding a deliberate tile overlap to prove a detector
/// catches it. Racing plain writes on the pool would be undefined
/// behaviour; serial permuted execution exercises the same order
/// sensitivity with none.
pub fn run_permuted_serial(perm: &[usize], f: &mut dyn FnMut(usize)) {
    for &b in perm {
        f(b);
    }
}

/// A schedule under which the workload's result diverged from schedule 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Seed of the diverging schedule.
    pub seed: u64,
    /// Position of that seed in the explored sequence (0-based).
    pub index: usize,
    /// Number of schedules that matched before the divergence.
    pub agreed: usize,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "schedule seed {} (#{}) diverged from the reference after {} agreeing schedule(s)",
            self.seed, self.index, self.agreed
        )
    }
}

/// Run the workload once per seed and require every result to equal the
/// first seed's. Returns the (shared) result, or the first [`Divergence`].
///
/// `run` receives the schedule seed and must be deterministic *given* the
/// seed — typically it wires the seed into
/// `PooledEngine::set_schedule_seed` or [`run_permuted`] and returns a
/// digest of the final state.
pub fn explore<R, I>(seeds: I, mut run: impl FnMut(u64) -> R) -> Result<R, Box<Divergence>>
where
    R: PartialEq,
    I: IntoIterator<Item = u64>,
{
    let mut seeds = seeds.into_iter();
    let first_seed = seeds.next().expect("explore needs at least one schedule");
    let reference = run(first_seed);
    for (i, seed) in seeds.enumerate() {
        if run(seed) != reference {
            return Err(Box::new(Divergence {
                seed,
                index: i + 1,
                agreed: i + 1,
            }));
        }
    }
    Ok(reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn permutation_is_a_bijection() {
        for n in [0usize, 1, 2, 7, 64, 257] {
            let p = permutation(42, 3, n);
            let mut seen = vec![false; n];
            assert_eq!(p.len(), n);
            for &v in &p {
                assert!(!seen[v], "duplicate index {v} for n={n}");
                seen[v] = true;
            }
        }
    }

    #[test]
    fn permutation_is_deterministic_and_keyed() {
        assert_eq!(permutation(7, 0, 100), permutation(7, 0, 100));
        assert_ne!(permutation(7, 0, 100), permutation(7, 1, 100));
        assert_ne!(permutation(7, 0, 100), permutation(8, 0, 100));
    }

    #[test]
    fn run_permuted_covers_every_index_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicU64> = (0..300).map(|_| AtomicU64::new(0)).collect();
        let perm = permutation(11, 0, 300);
        run_permuted(&pool, &perm, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn explore_accepts_schedule_independent_work() {
        // Summation is commutative: every schedule agrees.
        let result = explore(0..32u64, |seed| {
            let perm = permutation(seed, 0, 50);
            let mut sum = 0u64;
            run_permuted_serial(&perm, &mut |i| sum += i as u64);
            sum
        });
        assert_eq!(result.expect("sums agree"), 49 * 50 / 2);
    }

    #[test]
    fn explore_flags_order_dependent_work() {
        // "Last writer wins" depends on issue order: must diverge.
        let err = explore(0..32u64, |seed| {
            let perm = permutation(seed, 0, 50);
            let mut last = 0usize;
            run_permuted_serial(&perm, &mut |i| last = i);
            last
        })
        .expect_err("order-dependent result must diverge");
        assert!(err.index > 0);
        assert!(err.agreed >= 1);
    }
}
