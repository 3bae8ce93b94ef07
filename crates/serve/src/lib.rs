//! v6serve: in-process IPv6 hitlist query serving.
//!
//! The measurement pipeline (`v6hitlist`) produces weekly hitlist
//! publications; this crate turns them into a queryable, concurrently
//! readable store, modeling the "serving" half of a hitlist service like
//! the one the paper's measurement platform publishes from.
//!
//! Architecture:
//!
//! - [`snapshot`] — immutable, sharded view of one publication epoch:
//!   prefix-compressed sorted address runs ([`snapshot::CompressedRun`])
//!   plus a per-shard `PrefixMap` of aliased prefixes, partitioned by /48
//!   so density aggregates stay shard-local.
//! - [`store`] — epoch-swapped publication: readers clone an `Arc` to the
//!   current [`snapshot::Snapshot`]; publishing swaps the `Arc` under a
//!   briefly held write lock, so reads never block on ingestion. Once
//!   `HitlistStore::enable_analytics` is called, every publish also
//!   folds its epoch's record into the store's [`v6stream::Analytics`],
//!   which answer the windowed `MovedBetween`/`EntropyShift` queries.
//! - [`ingest`] — [`Ingestor`], which turns each submitted campaign,
//!   weekly release or passive corpus into the next epoch on the
//!   submitting thread, in submission order.
//! - [`query`] — [`QueryEngine`], the store handle a server answers
//!   through; the answers themselves are the front door's
//!   (`v6wire::serve_request_with`), read straight off a [`Snapshot`].
//! - [`persist`] — durable publication through the [`v6store`]
//!   write-ahead epoch log: `HitlistStore::persistent` fsyncs each
//!   epoch before the swap and `HitlistStore::recover` rebuilds the
//!   store from disk after a crash.
//! - [`metrics`] — a per-store [`v6obs::Registry`] facade: publish and
//!   ingest counters, ingest latency histograms and store-size gauges
//!   (and, for persistent stores, the `store.*` log/recovery metrics).
//!   Per-request counters and latencies are the front door's
//!   (`wire.*`).
//!
//! # Observability
//!
//! Each [`store::HitlistStore`] owns a private metrics registry
//! (`store.metrics().registry()`); `render_text()` gives the
//! deterministic exposition. Ingestion additionally opens `V6_TRACE`
//! spans (`serve.normalize`, `serve.merge`) and reconciles injected
//! chaos losses into the process-global `chaos.lost_units` counter when
//! [`Ingestor::finish_report`] runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ingest;
pub mod metrics;
pub mod persist;
pub mod query;
pub mod snapshot;
pub mod store;

pub use ingest::{IngestReport, IngestStats, Ingestor, PublicationUpdate};
pub use metrics::ServeMetrics;
pub use query::QueryEngine;
pub use snapshot::{CompressedRun, ServeStatus, Shard, Snapshot, SnapshotBuilder};
pub use store::{HitlistStore, PublishError, PublishReceipt};
pub use v6store::{RecoverError, RecoveryReport, StoreConfig};
