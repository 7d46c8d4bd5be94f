//! Bounded interleaving exploration of the pool's concurrency core.
//!
//! These tests re-run the two protocols that rest on unsafe or atomic
//! code — the fetch_or claim board used by the pooled backend's
//! decide/resolve protocol, and the pool's launch/panic paths — under
//! hundreds of Philox-seeded schedule permutations, asserting schedule
//! independence. Nested launches, inline ones on one-worker pools
//! included, run under forced concurrency.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

use simt::exec::explore::{explore, permutation, run_permuted, run_permuted_serial};
use simt::exec::pool::WorkerPool;

/// The movement kernel's claim idiom: each contender ORs its slot bit
/// into a per-cell byte. The winner is a pure function of the *set* of
/// claimants (lowest set bit), so every schedule must agree.
#[test]
fn claim_board_loses_no_claims_across_schedules() {
    const CELLS: usize = 97;
    const CONTENDERS: usize = 388; // 4 per cell, off-stride of CELLS

    // Serial reference: the claim set with every contender applied.
    let mut expect = vec![0u8; CELLS];
    for c in 0..CONTENDERS {
        expect[c % CELLS] |= 1 << (c / CELLS % 8);
    }

    let pool = WorkerPool::new(4);
    let result = explore(0..300u64, |seed| {
        let claims: Vec<AtomicU8> = (0..CELLS).map(|_| AtomicU8::new(0)).collect();
        let perm = permutation(seed, 0, CONTENDERS);
        run_permuted(&pool, &perm, &|c| {
            // ordering: relaxed — claims are only read after the launch
            // barrier; fetch_or commutes, so issue order is irrelevant.
            claims[c % CELLS].fetch_or(1 << (c / CELLS % 8), Ordering::Relaxed);
        });
        claims
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect::<Vec<u8>>()
    });
    assert_eq!(result.expect("claim board is schedule-independent"), expect);
}

/// Winner resolution (lowest set bit of the claim byte) is schedule
/// independent even though individual fetch_or calls race.
#[test]
fn claim_winner_is_schedule_independent() {
    const CELLS: usize = 64;
    let pool = WorkerPool::new(3);
    let result = explore(0..200u64, |seed| {
        let claims: Vec<AtomicU8> = (0..CELLS).map(|_| AtomicU8::new(0)).collect();
        let perm = permutation(seed, 1, CELLS * 3);
        run_permuted(&pool, &perm, &|c| {
            // ordering: relaxed — commutative claim set, read post-barrier.
            claims[c % CELLS].fetch_or(1 << (c % 5), Ordering::Relaxed);
        });
        claims
            .iter()
            .map(|c| c.load(Ordering::Relaxed).trailing_zeros())
            .collect::<Vec<u32>>()
    });
    result.expect("winner selection must not depend on the schedule");
}

/// The explorer must *detect* schedule dependence: a deliberately
/// overlapping tile partition (two bands both writing one row) produces
/// a last-writer-wins outcome that varies with issue order. Serial
/// permuted execution keeps the conflict order-sensitive but UB-free.
#[test]
fn explorer_catches_overlapping_tile_partition() {
    const ROWS: usize = 40;
    // Bands of 10 rows — but band 1 is mis-partitioned to also cover
    // band 2's first row (row 20), the seeded-overlap acceptance case.
    let bands: Vec<std::ops::Range<usize>> = vec![0..10, 10..21, 20..30, 30..40];

    let err = explore(0..64u64, |seed| {
        let mut owner = vec![usize::MAX; ROWS];
        let perm = permutation(seed, 0, bands.len());
        run_permuted_serial(&perm, &mut |b| {
            for r in bands[b].clone() {
                owner[r] = b;
            }
        });
        owner
    })
    .expect_err("overlapping bands must diverge across schedules");
    assert!(err.agreed >= 1, "reference schedule itself must run");
}

/// Launch/panic paths stay sound under schedule permutation: the first
/// panic payload reaches the launcher, no index runs twice, and the pool
/// survives to run the next (clean) permuted job — across many seeds, on
/// a spawned-worker pool and on a one-worker pool that runs inline.
#[test]
fn panic_paths_survive_schedule_exploration() {
    for pool in [WorkerPool::new(4), WorkerPool::new(1)] {
        panic_paths_survive_on(&pool);
    }
}

fn panic_paths_survive_on(pool: &WorkerPool) {
    for seed in 0..50u64 {
        let perm = permutation(seed, 2, 128);
        let hits: Vec<AtomicU64> = (0..128).map(|_| AtomicU64::new(0)).collect();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_permuted(pool, &perm, &|i| {
                if i == 77 {
                    panic!("fault under seed {seed}");
                }
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(res.is_err(), "panic must reach the launcher (seed {seed})");
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1));

        // The pool must come back clean for the next schedule.
        let count = AtomicUsize::new(0);
        run_permuted(pool, &permutation(seed, 3, 64), &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }
}

/// Launches nest: two outer blocks run at once (a barrier holds each until
/// both are in flight, one on the launching thread and one on the spawned
/// worker), and each launches on a shared one-worker pool (inline on its
/// own thread) and a shared two-worker pool, so the inner launches also
/// queue behind each other. Every (outer, inner, index) triple must run
/// exactly once, round after round.
#[test]
fn nested_launches_cover_every_index_once() {
    let (outer, inline, spawned) = (WorkerPool::new(2), WorkerPool::new(1), WorkerPool::new(2));
    let both_in_flight = std::sync::Barrier::new(2);
    for round in 0..50 {
        let hits: Vec<AtomicU64> = (0..2 * 2 * 32).map(|_| AtomicU64::new(0)).collect();
        // Two items on two workers give chunk 1: a thread held at the
        // barrier owns one item and cannot claim the other.
        outer.run(2, &|o| {
            both_in_flight.wait();
            for (k, inner) in [&inline, &spawned].into_iter().enumerate() {
                inner.run(32, &|i| {
                    hits[(o * 2 + k) * 32 + i].fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "round {round}"
        );
    }
}

/// An inline launch inside another pool's block hands the race detector
/// its own block indices, then restores the outer block when it returns.
#[cfg(feature = "audit-runtime")]
#[test]
fn inline_launch_restores_the_outer_block() {
    use simt::exec::pool::current_block;
    let (outer, inner) = (WorkerPool::new(2), WorkerPool::new(1));
    assert_eq!(current_block(), None);
    outer.run(8, &|o| {
        inner.run(4, &|i| assert_eq!(current_block(), Some(i)));
        assert_eq!(current_block(), Some(o));
    });
    assert_eq!(current_block(), None);
}
