//! # v6par — deterministic data parallelism for the hitlist pipeline
//!
//! The paper's substrate is embarrassingly parallel — 27 independent
//! vantage points, per-/48 probing, per-device EUI-64 analysis — but
//! parallel code that changes its answer with the worker count is
//! useless for a reproduction. Everything here therefore honors one
//! contract: **the result is a pure function of the input, bit-identical
//! at any thread count** (including 1).
//!
//! Building blocks:
//!
//! * [`threads`] — the worker count, overridable with `V6_THREADS`.
//! * [`par_map_cost`] — order-preserving parallel map: participants
//!   claim fixed-cost morsels off a shared cursor and write each result
//!   straight into its final output slot.
//! * [`par_for_each_mut`] — in-place parallel mutation under the same
//!   morsel scheduler, for callers that own their buffers.
//! * [`split_ranges`] — near-equal contiguous ranges, for callers that
//!   map over their own shards.
//! * [`radix_sort_u128`] / [`radix_sort_by_key`] / [`radix_sort_f64`] —
//!   sequential adaptive radix sort for 192-bit `(u128, u64)` keys:
//!   trivial digit positions (shared address-prefix bytes) are detected
//!   in one pass and skipped. The ingestion and analysis paths'
//!   replacement for comparison sorting.
//! * [`Cost`] — per-item work hints driving the adaptive
//!   sequential-vs-parallel cutoff ([`SEQ_CUTOFF_NANOS`]) and morsel
//!   sizing ([`MORSEL_TARGET_NANOS`]).
//! * [`Dag`] — an explicit stage dependency graph executed by a worker
//!   pool; independent stages run concurrently, results are retrieved
//!   by name. [`Dag::run`] consults a [`FaultInjector`] once per stage
//!   attempt and retries a failed one up to the injector's budget, so
//!   chaos tests script faults deterministically.
//!
//! The data-parallel kernels all execute on one **persistent,
//! lazily-spawned worker pool** (see [`pool_threads_spawned`]): OS
//! threads are created once per process and park between jobs, so the
//! spawn/join cost that used to be paid per call is paid once.
//! `V6_THREADS=1` (or any call below its work cutoff) never touches the
//! pool at all.
//!
//! Determinism comes from construction, not from luck: `par_map_cost`
//! writes results into their input positions and `par_for_each_mut`
//! visits each item exactly once. Scheduling order may vary run to run;
//! observable output never does.
//!
//! Observability: the DAG runner and the pool record into the global
//! `v6obs` registry — `par.dag.*` (stage completions/failures/retries,
//! injected-fault counts, stage latency, ready-queue peak),
//! `par.pool.*` (parallel calls, morsel counts, steals, pool threads,
//! morsel latency), and `par.cutoff.<site>.{inline,parallel}` (adaptive
//! cutoff decisions per labeled call site). With `V6_TRACE=1` each
//! stage body runs inside a `v6obs` span named after the stage. All
//! `par.*` values describe scheduling, not data, and are exempt from
//! the thread-count-invariance contract above.
//!
//! Safety: this crate contains the workspace's only `unsafe` — the job
//! hand-off to pool workers and the disjoint per-slot writes of
//! `par_map_cost` / `par_for_each_mut` in `pool.rs`, each behind a safe
//! API with its argument documented at the site. Everything else is
//! `#![deny(unsafe_code)]`.

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod dag;
mod pool;
mod radix;

pub use dag::{
    Dag, DagOutputs, DagRun, FailReason, FaultInjector, InjectedFault, StageFailure, StageTiming,
    TaskOutputs,
};
pub use pool::{
    par_for_each_mut, par_map_cost, pool_threads_spawned, split_ranges, Cost, MORSEL_TARGET_NANOS,
    SEQ_CUTOFF_NANOS,
};
pub use radix::{radix_sort_by_key, radix_sort_f64, radix_sort_u128};

/// The worker count the pipeline should use.
///
/// `V6_THREADS` overrides (clamped to ≥ 1); otherwise the machine's
/// available parallelism. Every parallel entry point takes an explicit
/// thread count, so this is only the *default* plumbed in at the top of
/// the pipeline — tests pin counts explicitly and never race on the
/// environment.
pub fn threads() -> usize {
    match std::env::var("V6_THREADS") {
        Ok(v) => v.trim().parse::<usize>().ok().filter(|&n| n >= 1),
        Err(_) => None,
    }
    .unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_is_positive() {
        assert!(threads() >= 1);
    }
}
