//! Morsel-driven parallel kernels on a persistent worker pool.
//!
//! Three ideas keep parallel from ever costing more than sequential:
//!
//! 1. **Persistent pool** — worker threads are spawned once per process
//!    (lazily, on the first job that wants them) and park on a condvar
//!    between jobs. A job is injected by pushing lightweight references
//!    onto a shared run queue; the submitting thread always participates
//!    in its own job, so progress never depends on a free worker.
//! 2. **Morsel scheduling** — each call estimates its total work from a
//!    caller-supplied [`Cost`] hint, runs inline when the estimate is
//!    below [`SEQ_CUTOFF_NANOS`], and otherwise splits the input into
//!    fixed-cost morsels (~[`MORSEL_TARGET_NANOS`] each) claimed off an
//!    atomic cursor. Tiny inputs pay zero scheduling tax; skewed inputs
//!    rebalance by stealing.
//! 3. **Zero-copy results** — [`par_map_cost`] writes each result
//!    directly into its final slot in the preallocated output's spare
//!    capacity (disjoint indices, one writer per slot), and
//!    [`par_for_each_mut`] mutates items where they lie. Nothing is
//!    cloned and nothing is copied twice.
//!
//! Determinism is structural: every morsel knows its output range and
//! the work estimate depends only on the input — so results are
//! byte-identical at any thread count.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Cached handles into the global metrics registry for the pool.
///
/// All `par.pool.*` metrics describe *scheduling* — how work was split
/// and stolen — which depends on the worker count and OS timing. They
/// are explicitly excluded from the thread-count-invariance contract
/// (the sequential fast path records nothing at all). Workers
/// accumulate locally and flush once per job, never per item.
struct PoolMetrics {
    maps: v6obs::Counter,
    chunks: v6obs::Counter,
    steals: v6obs::Counter,
    threads: v6obs::Gauge,
    chunk_latency: v6obs::Histogram,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        maps: v6obs::counter("par.pool.maps"),
        chunks: v6obs::counter("par.pool.chunks"),
        steals: v6obs::counter("par.pool.steals"),
        threads: v6obs::gauge("par.pool.threads"),
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
/// one helper costs a queue push plus an unpark, which only pays for
/// itself above roughly this much work.
pub const SEQ_CUTOFF_NANOS: u64 = 100_000;

/// Target work per morsel. Small enough that stealing rebalances skew,
/// large enough that the claim `fetch_add` and two clock reads are
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
// The persistent pool
// ---------------------------------------------------------------------------

/// Hard ceiling on pool threads, far above any sane `V6_THREADS`.
const MAX_POOL_THREADS: usize = 256;

/// One job, living on the submitting caller's stack for the duration of
/// [`Pool::run_job`]. Workers reach it through a raw pointer; validity
/// is guaranteed because the caller does not return until `queued` and
/// `active` are both zero.
struct JobCore {
    /// Type-erased `&F` where `F: Fn() + Sync`.
    data: *const (),
    /// Monomorphized trampoline that calls the closure behind `data`.
    call: unsafe fn(*const ()),
    /// Queue entries for this job not yet picked up by a worker.
    queued: AtomicUsize,
    /// Workers currently executing the job body.
    active: AtomicUsize,
    /// The submitting thread, unparked when the job fully drains.
    waiter: std::thread::Thread,
    /// First panic payload captured from a worker, re-thrown by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

/// A queue entry pointing at a [`JobCore`] on some caller's stack.
#[derive(Clone, Copy)]
struct JobRef(*const JobCore);

// SAFETY: a JobRef only crosses threads through the pool queue, and the
// JobCore it points to is kept alive by the submitting caller until the
// queued/active counts — which every queue pop participates in — reach
// zero. The pointee is only used via &-references to Sync fields.
#[allow(unsafe_code)]
unsafe impl Send for JobRef {}

struct Pool {
    /// Jobs awaiting pickup. One entry per requested helper.
    queue: Mutex<VecDeque<JobRef>>,
    /// Wakes parked workers when entries are pushed.
    work_cv: Condvar,
    /// OS threads spawned so far; grows monotonically, never shrinks.
    spawned: AtomicUsize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        work_cv: Condvar::new(),
        spawned: AtomicUsize::new(0),
    })
}

/// OS worker threads the global pool has spawned so far in this process.
///
/// Zero until the first call that crosses the parallel cutoff — the
/// single-thread path never touches the pool. The count only grows
/// (workers park between jobs; they are never joined), and only up to
/// the largest helper count any call has asked for, so steady-state
/// reuse spawns nothing. Exposed for tests and diagnostics; mirrored as
/// the `par.pool.threads` gauge.
pub fn pool_threads_spawned() -> usize {
    // `pool()` lazily constructs an empty Pool, which spawns nothing, so
    // touching it here is observationally free.
    pool().spawned.load(Ordering::Acquire)
}

#[allow(unsafe_code)]
fn worker_loop(pool: &'static Pool) {
    loop {
        let job = {
            let mut q = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                q = pool.work_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        // SAFETY: the queue entry we just popped is counted in `queued`,
        // so the submitting caller is still blocked in `run_job` and the
        // JobCore (and the closure behind it) is alive. We bump `active`
        // *before* releasing our `queued` hold so the caller can never
        // observe the job as drained while we are touching it.
        let core = unsafe { &*job.0 };
        core.active.fetch_add(1, Ordering::AcqRel);
        core.queued.fetch_sub(1, Ordering::AcqRel);
        // SAFETY: `data`/`call` were erased from a live `&F` by `run_job`.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (core.call)(core.data) }));
        if let Err(payload) = result {
            let mut slot = core.panic.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        // Clone the waiter handle while `active` still pins the job: after
        // the fetch_sub below the caller may free the JobCore at any time,
        // so from there on we touch only our own clone. Whoever takes
        // `active` to zero unparks unconditionally: a `queued` read taken
        // here could be stale (the caller's cancel may zero it right
        // after), and a spurious unpark is harmless because the caller's
        // wait loop re-checks both counts.
        let waiter = core.waiter.clone();
        if core.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            waiter.unpark();
        }
    }
}

impl Pool {
    /// Runs `body` on the caller plus up to `helpers` pool workers, all
    /// draining the same closure (jobs are self-scheduling: the body is
    /// a claim-a-morsel loop, so running it on fewer threads — or even
    /// twice on one — is harmless). Blocks until every participant is
    /// done; propagates the first panic without poisoning the pool.
    #[allow(unsafe_code)]
    fn run_job<F: Fn() + Sync>(&'static self, helpers: usize, body: &F) {
        let helpers = helpers.min(MAX_POOL_THREADS);
        if helpers == 0 {
            body();
            return;
        }
        unsafe fn trampoline<F: Fn() + Sync>(data: *const ()) {
            // SAFETY: `data` is the `&F` erased in `run_job` below, alive
            // until run_job returns.
            unsafe { (*(data as *const F))() }
        }
        let core = JobCore {
            data: body as *const F as *const (),
            call: trampoline::<F>,
            queued: AtomicUsize::new(helpers),
            active: AtomicUsize::new(0),
            waiter: std::thread::current(),
            panic: Mutex::new(None),
        };
        let core_ptr: *const JobCore = &core;
        {
            let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            // Deterministic growth: spawn exactly enough workers to cover
            // the largest helper count ever requested, under the queue
            // lock so the spawn counter is exact.
            while self.spawned.load(Ordering::Acquire) < helpers {
                std::thread::Builder::new()
                    .name("v6par-worker".into())
                    .spawn(move || worker_loop(pool()))
                    .expect("spawn v6par pool worker");
                let now = self.spawned.fetch_add(1, Ordering::AcqRel) + 1;
                pool_metrics().threads.set(now as i64);
            }
            for _ in 0..helpers {
                q.push_back(JobRef(core_ptr));
            }
        }
        if helpers == 1 {
            self.work_cv.notify_one();
        } else {
            self.work_cv.notify_all();
        }

        // The caller always participates: even with every worker busy on
        // other jobs, the submitting thread drains its own morsels, so
        // nested jobs and a saturated pool cannot deadlock.
        let caller_result = catch_unwind(AssertUnwindSafe(body));

        // Cancel entries no worker picked up — common when the caller
        // finished the whole job alone — so stale JobRefs never outlive
        // this frame.
        {
            let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            let before = q.len();
            q.retain(|j| !std::ptr::eq(j.0, core_ptr));
            let removed = before - q.len();
            if removed > 0 {
                core.queued.fetch_sub(removed, Ordering::AcqRel);
            }
        }
        // Wait for in-flight workers. The Acquire loads pair with the
        // workers' AcqRel count updates, which also publish every result
        // the workers wrote through shared pointers. The timeout is a
        // belt-and-braces guard against a lost unpark; the common path
        // parks at most once.
        while core.queued.load(Ordering::Acquire) != 0 || core.active.load(Ordering::Acquire) != 0 {
            std::thread::park_timeout(Duration::from_millis(10));
        }
        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        let worker_panic = core.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }
}

/// A raw base pointer to `len` slots that workers write through.
///
/// Safety rests with index distribution, not with this type: every
/// index is claimed by exactly one participant (the atomic morsel
/// cursor), so accesses through the pointer never alias.
struct SendPtr<T> {
    base: *mut T,
    len: usize,
}
impl<T> SendPtr<T> {
    /// The slot at `i`. Going through a method (rather than field
    /// access) makes closures capture the whole `SendPtr` — keeping its
    /// `Send`/`Sync` impls, not the raw pointer's lack of them.
    fn at(&self, i: usize) -> *mut T {
        debug_assert!(i < self.len, "slot {i} out of {} slots", self.len);
        // SAFETY note for callers: `wrapping_add` does no deref; the
        // unsafe read/write happens at the use site.
        self.base.wrapping_add(i)
    }
}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: see the type-level comment — disjointness is enforced by the
// single atomic cursor every participant claims indices from.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for SendPtr<T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Per-participant scheduling tallies, accumulated in locals during the
/// morsel loop and flushed to the registry once per job.
struct MorselStats {
    claimed: u64,
    latencies_ns: Vec<u64>,
}

impl MorselStats {
    fn new() -> MorselStats {
        MorselStats {
            claimed: 0,
            latencies_ns: Vec::new(),
        }
    }

    /// Flushes to `par.pool.*`. `share` is the participant's statically
    /// owned morsel count — claims beyond it are steals (claims up to it
    /// are not: a perfectly balanced run records zero steals).
    fn flush(self, share: u64) {
        if self.claimed == 0 {
            return;
        }
        let metrics = pool_metrics();
        metrics.steals.add(self.claimed.saturating_sub(share));
        for ns in self.latencies_ns {
            metrics.chunk_latency.record(ns);
        }
    }
}

// ---------------------------------------------------------------------------
// par_map_cost / par_for_each_mut
// ---------------------------------------------------------------------------

/// Order-preserving parallel map with a per-item [`Cost`] hint:
/// `out[i] == f(i, &items[i])` for every `i`, regardless of `threads`.
///
/// Below the work cutoff this is a plain sequential map with no thread
/// machinery at all. Above it, participants claim fixed-cost morsels
/// off a shared cursor and write each result straight into its final
/// slot in the output's spare capacity — no per-chunk buffers, no
/// result re-copy, no locks on the data path.
///
/// If `f` panics the panic propagates to the caller; results already
/// written are leaked (not dropped), never double-dropped.
#[allow(unsafe_code)]
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
    let metrics = pool_metrics();
    metrics.maps.inc();
    metrics.chunks.add(morsels as u64);
    let ranges = split_ranges(n, morsels);
    let share = ranges.len().div_ceil(participants) as u64;
    let cursor = AtomicUsize::new(0);
    let covered = AtomicUsize::new(0);
    let mut out: Vec<R> = Vec::with_capacity(n);
    let out_base = SendPtr {
        base: out.as_mut_ptr(),
        len: n,
    };
    let body = || {
        let mut stats = MorselStats::new();
        loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(range) = ranges.get(c) else { break };
            stats.claimed += 1;
            let t0 = Instant::now();
            for i in range.clone() {
                let value = f(i, &items[i]);
                // SAFETY: `i` lies in a morsel this participant claimed
                // exclusively and `out` has capacity `n`, so this writes
                // a distinct, in-bounds, uninitialized slot.
                unsafe { out_base.at(i).write(value) };
            }
            if cfg!(debug_assertions) {
                covered.fetch_add(range.len(), Ordering::Relaxed);
            }
            stats.latencies_ns.push(t0.elapsed().as_nanos() as u64);
        }
        stats.flush(share);
    };
    pool().run_job(participants - 1, &body);
    // Relaxed suffices: run_job's Acquire wait on each participant's
    // AcqRel `active` update orders every add before this load.
    debug_assert_eq!(
        covered.load(Ordering::Relaxed),
        n,
        "claimed morsels must cover exactly n slots"
    );
    // SAFETY: run_job returned without unwinding, so every morsel ran to
    // completion and all `n` slots are initialized. (On panic we never
    // get here: `out` drops with len 0 and written results leak.)
    unsafe { out.set_len(n) };
    out
}

/// In-place parallel mutation: `f(i, &mut items[i])` for every `i`,
/// each item visited exactly once — for callers that own their buffers
/// (e.g. per-shard runs in `v6serve`) and want no copy.
#[allow(unsafe_code)]
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
    let metrics = pool_metrics();
    metrics.maps.inc();
    metrics.chunks.add(morsels as u64);
    let ranges = split_ranges(n, morsels);
    let share = ranges.len().div_ceil(participants) as u64;
    let cursor = AtomicUsize::new(0);
    let base = SendPtr {
        base: items.as_mut_ptr(),
        len: n,
    };
    let body = || {
        let mut stats = MorselStats::new();
        loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(range) = ranges.get(c) else { break };
            stats.claimed += 1;
            let t0 = Instant::now();
            for i in range.clone() {
                // SAFETY: `i` lies in a morsel this participant claimed
                // exclusively, so no other reference to `items[i]` exists.
                f(i, unsafe { &mut *base.at(i) });
            }
            stats.latencies_ns.push(t0.elapsed().as_nanos() as u64);
        }
        stats.flush(share);
    };
    pool().run_job(participants - 1, &body);
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
