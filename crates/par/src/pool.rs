//! Morsel-driven parallel kernels on scoped helper threads.
//!
//! A call whose [`Cost`] estimate is below [`SEQ_CUTOFF_NANOS`] runs
//! inline on the caller. Otherwise its input is split into morsels of
//! ~[`MORSEL_TARGET_NANOS`] on one shared queue, drained by the caller
//! and by helpers spawned in `std::thread::scope`; skewed inputs
//! rebalance by stealing. A helper runs only while it holds one of
//! `threads − 1` process-wide permits, so calls side by side (DAG
//! stages, nested calls) share the cores instead of multiplying
//! threads. A morsel owns its output run or its `&mut` chunk, and its
//! range depends only on the input, so results are byte-identical at
//! any thread count.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Cached handles into the global metrics registry for the kernels.
///
/// All `par.pool.*` metrics describe *scheduling* — how work was split
/// and stolen — which depends on the worker count and OS timing. They
/// are explicitly excluded from the thread-count-invariance contract
/// (the sequential fast path records nothing at all). They are recorded
/// once per call, morsel or participant, never per item.
struct PoolMetrics {
    maps: v6obs::Counter,
    chunks: v6obs::Counter,
    steals: v6obs::Counter,
    chunk_latency: v6obs::Histogram,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        maps: v6obs::counter("par.pool.maps"),
        chunks: v6obs::counter("par.pool.chunks"),
        steals: v6obs::counter("par.pool.steals"),
        chunk_latency: v6obs::histogram("par.pool.chunk_latency"),
    })
}

/// Records a cutoff decision under `par.cutoff.<label>.{inline,parallel}`.
///
/// Only recorded when a real choice existed (`threads > 1`); the
/// zero-machinery single-thread path touches no metrics at all. Once
/// per call, off the hot path.
fn record_cutoff(label: Option<&'static str>, parallel: bool) {
    let which = if parallel { "parallel" } else { "inline" };
    let site = label.unwrap_or("unlabeled");
    v6obs::counter(&format!("par.cutoff.{site}.{which}")).inc();
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// Work below this estimate runs inline on the caller: dispatching even
/// one helper costs a thread spawn and a join, which only pays for
/// itself above roughly this much work.
pub const SEQ_CUTOFF_NANOS: u64 = 100_000;

/// Target work per morsel. Small enough that stealing rebalances skew,
/// large enough that the claim's queue lock and two clock reads are
/// noise (< 0.5% at 50µs).
pub const MORSEL_TARGET_NANOS: u64 = 50_000;

/// A caller-supplied estimate of per-item work, used by the adaptive
/// sequential/parallel cutoff and to size morsels.
///
/// The hint only steers *scheduling* — a wrong hint can cost speed,
/// never correctness, and the chosen schedule is a pure function of the
/// input so results stay thread-count invariant either way.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    per_item_ns: u64,
    label: Option<&'static str>,
}

impl Cost {
    /// A cost hint of `ns` nanoseconds per item (clamped to ≥ 1).
    pub fn per_item_ns(ns: u64) -> Cost {
        Cost {
            per_item_ns: ns.max(1),
            label: None,
        }
    }

    /// Tags the call site so its cutoff decisions show up as
    /// `par.cutoff.<label>.{inline,parallel}` counters.
    pub fn labeled(mut self, label: &'static str) -> Cost {
        self.label = Some(label);
        self
    }
}

/// The morsel/participant plan for one parallel call: `None` means run
/// inline (and carries whether a cutoff decision should be recorded).
fn plan(threads: usize, n: usize, cost: Cost) -> Option<(usize, usize)> {
    let threads = threads.max(1);
    if threads == 1 || n < 2 {
        return None; // zero-machinery path: not even a metrics touch
    }
    let estimate = (n as u64).saturating_mul(cost.per_item_ns);
    let morsels = ((estimate / MORSEL_TARGET_NANOS) as usize).clamp(1, n);
    if estimate < SEQ_CUTOFF_NANOS || morsels < 2 {
        record_cutoff(cost.label, false);
        return None;
    }
    record_cutoff(cost.label, true);
    Some((morsels, threads.min(morsels)))
}

// ---------------------------------------------------------------------------
// Range splitting
// ---------------------------------------------------------------------------

/// Splits `0..len` into `parts` near-equal contiguous ranges (the first
/// `len % parts` ranges get one extra element). Empty ranges are never
/// produced; fewer than `parts` ranges come back when `len < parts`.
pub fn split_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(len.max(1));
    if len == 0 {
        return Vec::new();
    }
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(lo..lo + size);
        lo += size;
    }
    out
}

// ---------------------------------------------------------------------------
// Scoped helpers
// ---------------------------------------------------------------------------

/// Hard ceiling on one call's participants (caller plus helpers), far
/// above any sane `V6_THREADS`.
const MAX_PARTICIPANTS: usize = 256;

/// Helpers running morsels right now, process-wide, and the condvar a
/// waiting helper sleeps on until a permit frees or its call finishes.
static RUNNING: Mutex<usize> = Mutex::new(0);
static FREED: Condvar = Condvar::new();

/// One held permit; dropping it (panic or not) hands it back.
struct Permit;

impl Drop for Permit {
    fn drop(&mut self) {
        *RUNNING.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
        FREED.notify_all();
    }
}

/// Waits for one of `cap` permits, or returns `None` once `finished` is
/// set. The flag is read and written only under the permit mutex: that
/// orders it, and it cannot flip between the check and the wait.
fn acquire(cap: usize, finished: &AtomicBool) -> Option<Permit> {
    let mut count = RUNNING.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        if finished.load(Ordering::Relaxed) {
            return None;
        }
        if *count < cap {
            *count += 1;
            return Some(Permit);
        }
        count = FREED.wait(count).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Runs `work` over every morsel on the caller plus `participants − 1`
/// scoped helpers, all claiming from one shared queue, and returns the
/// outputs in morsel order. Every helper is joined before a panic is
/// re-raised: the caller's first, otherwise the first helper's.
fn run_morsels<M, O, W>(threads: usize, participants: usize, morsels: Vec<M>, work: W) -> Vec<O>
where
    M: Send,
    O: Send,
    W: Fn(M) -> O + Sync,
{
    let metrics = pool_metrics();
    metrics.maps.inc();
    metrics.chunks.add(morsels.len() as u64);
    let participants = participants.min(MAX_PARTICIPANTS);
    // A participant's statically owned morsel count: claims beyond it
    // are steals (a perfectly balanced run records zero steals).
    let share = morsels.len().div_ceil(participants);
    let queue = Mutex::new(morsels.into_iter().enumerate());
    let drain = || {
        let mut done = Vec::new();
        loop {
            let claimed = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((k, morsel)) = claimed else { break };
            let t0 = Instant::now();
            done.push((k, work(morsel)));
            metrics.chunk_latency.record(t0.elapsed().as_nanos() as u64);
        }
        metrics.steals.add(done.len().saturating_sub(share) as u64);
        done
    };
    let cap = threads.min(MAX_PARTICIPANTS) - 1;
    let finished = AtomicBool::new(false);
    let (caller, helpers) = std::thread::scope(|s| {
        let handles: Vec<_> = (1..participants)
            .map(|_| {
                s.spawn(|| match acquire(cap, &finished) {
                    Some(_permit) => drain(),
                    None => Vec::new(),
                })
            })
            .collect();
        let caller = catch_unwind(AssertUnwindSafe(drain));
        let count = RUNNING.lock().unwrap_or_else(PoisonError::into_inner);
        finished.store(true, Ordering::Relaxed);
        drop(count);
        FREED.notify_all();
        let helpers: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (caller, helpers)
    });
    let mut done = caller.unwrap_or_else(|payload| resume_unwind(payload));
    for helper in helpers {
        done.extend(helper.unwrap_or_else(|payload| resume_unwind(payload)));
    }
    done.sort_unstable_by_key(|&(k, _)| k);
    done.into_iter().map(|(_, out)| out).collect()
}

// ---------------------------------------------------------------------------
// par_map_cost / par_for_each_mut
// ---------------------------------------------------------------------------

/// Order-preserving parallel map with a per-item [`Cost`] hint:
/// `out[i] == f(i, &items[i])` for every `i`, regardless of `threads`.
///
/// Below the work cutoff this is a plain sequential map with no thread
/// machinery at all. Above it, participants claim fixed-cost morsels
/// off a shared queue; each morsel maps into its own run, and the runs
/// are concatenated in morsel order.
///
/// If `f` panics the panic propagates to the caller once every helper
/// has stopped, and every result already built is dropped exactly once.
pub fn par_map_cost<T, R, F>(threads: usize, items: &[T], cost: Cost, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let Some((morsels, participants)) = plan(threads, n, cost) else {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    };
    let runs = run_morsels(threads, participants, split_ranges(n, morsels), |range| {
        range.map(|i| f(i, &items[i])).collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(n);
    for run in runs {
        out.extend(run);
    }
    debug_assert_eq!(out.len(), n, "morsels must cover exactly n items");
    out
}

/// In-place parallel mutation: `f(i, &mut items[i])` for every `i`,
/// each item visited exactly once — for callers that own their buffers
/// (e.g. per-shard runs in `v6serve`) and want no copy.
pub fn par_for_each_mut<T, F>(threads: usize, items: &mut [T], cost: Cost, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let Some((morsels, participants)) = plan(threads, n, cost) else {
        for (i, x) in items.iter_mut().enumerate() {
            f(i, x);
        }
        return;
    };
    let mut rest = items;
    let chunks: Vec<(usize, &mut [T])> = split_ranges(n, morsels)
        .into_iter()
        .map(|range| {
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
            rest = tail;
            (range.start, chunk)
        })
        .collect();
    run_morsels(threads, participants, chunks, |(start, chunk)| {
        for (j, x) in chunk.iter_mut().enumerate() {
            f(start + j, x);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_covers_exactly() {
        for len in [0usize, 1, 2, 7, 100, 101] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = split_ranges(len, parts);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, len, "len={len} parts={parts}");
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
            }
        }
    }

    #[test]
    fn par_map_matches_sequential_at_any_thread_count() {
        let items: Vec<u64> = (0..999).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map_cost(threads, &items, Cost::per_item_ns(200), |i, x| {
                assert_eq!(items[i], *x);
                x * 3 + 1
            });
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_unbalanced_work() {
        assert!(par_map_cost(4, &[] as &[u8], Cost::per_item_ns(200), |_, x| *x).is_empty());
        // Skewed cost: later items much more expensive; stealing must
        // still return them in order. The large hint forces the
        // parallel path despite the small item count.
        let items: Vec<usize> = (0..64).collect();
        let got = par_map_cost(8, &items, Cost::per_item_ns(60_000), |_, &x| {
            let mut acc = 0u64;
            for k in 0..(x as u64 * 1000) {
                acc = acc.wrapping_add(k);
            }
            (x, acc)
        });
        for (i, (x, _)) in got.iter().enumerate() {
            assert_eq!(i, *x);
        }
    }

    #[test]
    fn par_map_cost_cutoff_stays_inline_but_exact() {
        // Cheap hint: must take the inline path (observable only through
        // the result being exact; the scheduling metrics are process
        // global and not assertable here).
        let items: Vec<u32> = (0..10_000).collect();
        let got = par_map_cost(8, &items, Cost::per_item_ns(1), |_, &x| x ^ 0xabcd);
        let expect: Vec<u32> = items.iter().map(|&x| x ^ 0xabcd).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn par_for_each_mut_visits_every_item_once() {
        for (threads, per_item) in [(1usize, 1u64), (4, 1), (4, 80_000), (64, 80_000)] {
            let mut items: Vec<u64> = (0..257).collect();
            par_for_each_mut(threads, &mut items, Cost::per_item_ns(per_item), |i, x| {
                assert_eq!(i as u64, *x);
                *x = x.wrapping_mul(7) + 1;
            });
            let expect: Vec<u64> = (0..257u64).map(|x| x.wrapping_mul(7) + 1).collect();
            assert_eq!(items, expect, "threads={threads} per_item={per_item}");
        }
    }
}
