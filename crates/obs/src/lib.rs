//! Unified observability layer for the IPv6 hitlist pipeline.
//!
//! `v6obs` is a zero-dependency (std-only) crate providing two facilities
//! that every other workspace crate can lean on without pulling in an
//! external metrics or tracing stack:
//!
//! 1. **Metrics registry** ([`Registry`]): named [`Counter`]s, [`Gauge`]s,
//!    and fixed-bucket latency [`Histogram`]s (log2 buckets; p50/p90/p99/max
//!    summaries). A process-global registry is available through
//!    [`global`], with [`counter`]/[`gauge`]/[`histogram`] conveniences.
//!    [`Registry::render_text`] produces a deterministic Prometheus-style
//!    exposition (one `name value` line per metric, sorted by name) and
//!    [`Registry::render_json`] a JSON snapshot; [`Registry::snapshot`]
//!    yields a typed [`MetricsSnapshot`] for programmatic use.
//!
//! 2. **Span tracing** ([`span`]): lightweight hierarchical wall-clock
//!    spans recorded into per-thread buffers (no cross-thread locking on
//!    the hot path) and merged on demand into a [`TraceReport`] tree with
//!    per-span call counts, wall time, and child rollups. Tracing is off
//!    by default: [`span`] returns an inert guard after a single atomic
//!    load unless `V6_TRACE=1` is set in the environment (or
//!    [`set_enabled`] was called).
//!
//! # Determinism rule
//!
//! Metric **values derived from data** — addresses collected, probes sent,
//! queries served, faults injected — must be invariant under the worker
//! thread count (`V6_THREADS`); integration tests assert this. Timing
//! values (histogram quantiles, span wall times) and scheduling metrics
//! (`par.pool.*` chunk/steal counters, the `par.dag.ready_peak` gauge)
//! are inherently execution-dependent and are excluded from that
//! contract, and from all artifact digests.
//!
//! # Example
//!
//! ```
//! let c = v6obs::counter("example.addresses_in");
//! c.add(42);
//! let h = v6obs::histogram("example.latency");
//! h.record(1_500); // nanoseconds
//! let text = v6obs::render_text();
//! assert!(text.contains("example.addresses_in 42"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod registry;
mod trace;

pub use registry::{Counter, Gauge, Histogram, HistogramSummary, MetricsSnapshot, Registry};
pub use trace::{enabled, set_enabled, span, take_report, SpanGuard, TraceNode, TraceReport};

use std::sync::OnceLock;

/// The process-global metrics registry.
///
/// Most pipeline code records into this registry; `v6serve` keeps a
/// per-store [`Registry`] instead so that independent stores in one
/// process do not share counters.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Fetch (registering on first use) a counter from the global registry.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Fetch (registering on first use) a gauge from the global registry.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Fetch (registering on first use) a histogram from the global registry.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Render the global registry in the deterministic text exposition format.
pub fn render_text() -> String {
    global().render_text()
}

/// Render the global registry as a JSON object string.
pub fn render_json() -> String {
    global().render_json()
}
