//! Property tests for the determinism contract and the pool's `unsafe`:
//! every v6par kernel must produce the same bytes as its sequential
//! counterpart at any thread count, and a panicking body must never
//! double-drop a result or poison the pool.

use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

use proptest::prelude::*;
use proptest::TestRng;
use v6par::{par_for_each_mut, par_map_cost, Cost};

fn pseudo_items(seed: u64, len: usize) -> Vec<u64> {
    (0..len as u64)
        .map(|i| {
            (seed ^ i)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(13)
        })
        .collect()
}

proptest! {
    /// par_map_cost equals the sequential map, element for element.
    #[test]
    fn par_map_equals_map(seed in any::<u64>(), len in 0usize..600, threads in 1usize..9) {
        let items = pseudo_items(seed, len);
        let expect: Vec<u64> = items.iter().map(|x| x.wrapping_mul(3)).collect();
        let got = par_map_cost(threads, &items, Cost::per_item_ns(200), |_, x| x.wrapping_mul(3));
        prop_assert_eq!(got, expect);
    }
}

/// Panic payload for injected failures; the quiet hook below swallows
/// its report so hundreds of expected panics do not flood the output.
struct Injected;

fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Injected>().is_none() {
                default(info);
            }
        }));
    });
}

/// Constructions and drops of [`Tracked`] values in one case.
#[derive(Default)]
struct Counts {
    made: AtomicUsize,
    dropped: AtomicUsize,
}

impl Counts {
    /// `(constructions, drops)` so far.
    fn totals(&self) -> (usize, usize) {
        (
            self.made.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
        )
    }
}

/// A result that counts itself in and out, so a double drop (or a drop
/// of an unwritten slot) shows up as `dropped > made`.
struct Tracked<'a> {
    value: u64,
    counts: &'a Counts,
}

impl<'a> Tracked<'a> {
    fn new(value: u64, counts: &'a Counts) -> Self {
        counts.made.fetch_add(1, Ordering::Relaxed);
        Tracked { value, counts }
    }
}

impl Drop for Tracked<'_> {
    fn drop(&mut self) {
        self.counts.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// The per-item work: a pure function of `(i, x)`. Every 97th item runs
/// a nested parallel map whose heavy hint crosses the cutoff, so nested
/// jobs land on the pool while the outer job still holds it.
fn work(threads: usize, i: usize, x: u64) -> u64 {
    let mixed = x.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ i as u64;
    if !i.is_multiple_of(97) {
        return mixed;
    }
    let inner = [mixed, mixed >> 7, mixed << 3, !mixed];
    let nested = par_map_cost(threads, &inner, Cost::per_item_ns(200_000), |j, &v| {
        v.rotate_left(j as u32)
    });
    nested.iter().fold(mixed, |a, &v| a.wrapping_add(v))
}

/// `par_map_cost` and `par_for_each_mut` across lengths, thread counts
/// and cost hints on both sides of the cutoff, with nested jobs and
/// injected panics: exact output without a panic; with one, the panic
/// reaches the caller, no value is dropped twice, and the next call on
/// the same pool is exact. Runs at least 256 cases (more when
/// `PROPTEST_CASES` asks for more).
#[test]
fn pool_kernels_exact_drop_safe_and_reentrant() {
    quiet_injected_panics();
    let cases: u64 = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .map_or(256, |n: u64| n.max(256));
    for case in 0..cases {
        let mut rng = TestRng::deterministic(proptest::fnv("pool_kernels"), case);
        let len = (0usize..4096).generate(&mut rng);
        let threads = (1usize..9).generate(&mut rng);
        // 1 ns … 200 µs per item, log-spaced across the 100 µs cutoff.
        let hint = (0u32..19)
            .prop_map(|e| (1u64 << e).min(200_000))
            .generate(&mut rng);
        let panic_at =
            (any::<bool>().generate(&mut rng) && len > 0).then(|| (0..len).generate(&mut rng));
        let seed = any::<u64>().generate(&mut rng);
        let ctx =
            format!("case={case} len={len} threads={threads} hint={hint} panic_at={panic_at:?}");

        let items = pseudo_items(seed, len);
        let cost = Cost::per_item_ns(hint);
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| work(threads, i, x))
            .collect();
        let body = |i: usize, x: u64| {
            if Some(i) == panic_at {
                panic_any(Injected);
            }
            work(threads, i, x)
        };

        // par_map_cost: results are constructed inside the body.
        let counts = Counts::default();
        let got = catch_unwind(AssertUnwindSafe(|| {
            par_map_cost(threads, &items, cost, |i, &x| {
                Tracked::new(body(i, x), &counts)
            })
        }));
        match got {
            Ok(out) => {
                assert!(panic_at.is_none(), "{ctx}: panic swallowed");
                let values: Vec<u64> = out.iter().map(|t| t.value).collect();
                assert_eq!(values, expect, "{ctx}: par_map_cost");
                drop(out);
                let (made, dropped) = counts.totals();
                assert_eq!((made, dropped), (len, len), "{ctx}: par_map_cost drops");
            }
            Err(payload) => {
                assert!(
                    payload.downcast_ref::<Injected>().is_some(),
                    "{ctx}: foreign panic"
                );
                let (made, dropped) = counts.totals();
                assert!(dropped <= made, "{ctx}: {dropped} drops of {made} results");
                let again = par_map_cost(threads, &items, cost, |i, &x| work(threads, i, x));
                assert_eq!(again, expect, "{ctx}: par_map_cost after a panic");
            }
        }

        // par_for_each_mut: every item stays owned by the vector, so
        // drops equal constructions exactly, panic or not.
        let counts = Counts::default();
        let mut tracked: Vec<Tracked> = items.iter().map(|&x| Tracked::new(x, &counts)).collect();
        let done = catch_unwind(AssertUnwindSafe(|| {
            par_for_each_mut(threads, &mut tracked, cost, |i, t| {
                t.value = body(i, t.value)
            })
        }));
        match done {
            Ok(()) => {
                assert!(panic_at.is_none(), "{ctx}: panic swallowed");
                let values: Vec<u64> = tracked.iter().map(|t| t.value).collect();
                assert_eq!(values, expect, "{ctx}: par_for_each_mut");
            }
            Err(payload) => {
                assert!(
                    payload.downcast_ref::<Injected>().is_some(),
                    "{ctx}: foreign panic"
                );
                let mut again = items.clone();
                par_for_each_mut(threads, &mut again, cost, |i, x| *x = work(threads, i, *x));
                assert_eq!(again, expect, "{ctx}: par_for_each_mut after a panic");
            }
        }
        drop(tracked);
        let (made, dropped) = counts.totals();
        assert_eq!((made, dropped), (len, len), "{ctx}: par_for_each_mut drops");
    }
}
