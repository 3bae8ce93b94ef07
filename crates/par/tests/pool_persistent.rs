//! Lifecycle contract of the persistent worker pool.
//!
//! This file must stay a single-test binary: the pool (and its spawn
//! counter) is global to the process, so the phases below only mean
//! something when they run in a controlled order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use v6par::{par_map_cost, pool_threads_spawned, Cost};

/// A hint far above the cutoff, so every call below commits to the
/// parallel path regardless of item count.
const HEAVY: u64 = 1_000_000;

#[test]
fn pool_spawns_once_survives_panics_and_serves_concurrent_callers() {
    // Phase 1 — zero-machinery path: single-thread calls and calls
    // below the work cutoff never touch the pool.
    let items: Vec<u64> = (0..512).collect();
    let seq: Vec<u64> = par_map_cost(1, &items, Cost::per_item_ns(HEAVY), |_, &x| x + 1);
    assert_eq!(seq[511], 512);
    let tiny: Vec<u64> = par_map_cost(8, &items[..4], Cost::per_item_ns(1), |_, &x| x + 1);
    assert_eq!(tiny, vec![1, 2, 3, 4]);
    assert_eq!(
        pool_threads_spawned(),
        0,
        "sequential/inline calls must not spawn pool threads"
    );

    // Phase 2 — first parallel job lazily spawns exactly the helpers it
    // needs: 4 participants = the caller plus 3 pool workers.
    let par: Vec<u64> = par_map_cost(4, &items, Cost::per_item_ns(HEAVY), |_, &x| x * 2);
    assert_eq!(par, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    assert_eq!(
        pool_threads_spawned(),
        3,
        "4 participants need exactly 3 spawned helpers"
    );

    // Phase 3 — reuse: further jobs at the same width spawn nothing.
    for round in 0..20u64 {
        let got: Vec<u64> = par_map_cost(4, &items, Cost::per_item_ns(HEAVY), |_, &x| x + round);
        assert_eq!(got[0], round);
    }
    assert_eq!(
        pool_threads_spawned(),
        3,
        "pool reuse must not spawn new OS threads"
    );

    // Phase 4 — panic in the mapped closure propagates to the caller …
    let result = catch_unwind(AssertUnwindSafe(|| {
        par_map_cost(4, &items, Cost::per_item_ns(HEAVY), |i, &x| {
            if i == 300 {
                panic!("injected closure panic");
            }
            x
        })
    }));
    assert!(result.is_err(), "closure panic must reach the caller");

    // … without poisoning the pool: the next job runs clean on the same
    // threads.
    let after: Vec<u64> = par_map_cost(4, &items, Cost::per_item_ns(HEAVY), |_, &x| x ^ 1);
    assert_eq!(after, items.iter().map(|&x| x ^ 1).collect::<Vec<_>>());
    assert_eq!(pool_threads_spawned(), 3, "panic must not cost threads");

    // Phase 5 — concurrent jobs from independent caller threads share
    // the pool and each get exact, ordered results.
    let done = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let items = &items;
            let done = &done;
            s.spawn(move || {
                for round in 0..8u64 {
                    let got: Vec<u64> =
                        par_map_cost(4, items, Cost::per_item_ns(HEAVY), |_, &x| {
                            x.wrapping_mul(t + 1).wrapping_add(round)
                        });
                    for (i, &v) in got.iter().enumerate() {
                        assert_eq!(v, (i as u64).wrapping_mul(t + 1).wrapping_add(round));
                    }
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(done.load(Ordering::SeqCst), 4);

    // Concurrent same-width callers share the existing workers: the
    // pool only grows when a job wants more helpers than ever spawned.
    assert_eq!(
        pool_threads_spawned(),
        3,
        "concurrent same-width callers must not grow the pool"
    );

    // Phase 6 — a wider job grows the pool deterministically to its
    // helper count and no further.
    let wide: Vec<u64> = par_map_cost(8, &items, Cost::per_item_ns(HEAVY), |_, &x| x + 7);
    assert_eq!(wide[0], 7);
    assert!(
        pool_threads_spawned() <= 7,
        "8 participants never need more than 7 helpers: {}",
        pool_threads_spawned()
    );
}
