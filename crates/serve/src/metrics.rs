//! Registry-backed metrics for the serving store.
//!
//! [`ServeMetrics`] is a thin facade over a per-store
//! [`v6obs::Registry`]: counters for every publish and ingest event,
//! latency histograms for ingestion batches, and the
//! `serve.store.bytes.{raw,compressed}` gauges — what the published
//! snapshot's address columns would cost raw versus what the compressed
//! tier actually holds. Each store owns its own registry (not the
//! process-global one) so independent stores in one process never share
//! counters; fetch it with [`ServeMetrics::registry`] for the
//! deterministic text exposition or a JSON snapshot. Requests are
//! counted and timed where they are answered, in the front door's
//! `wire.*` registry.
//!
//! Recording is still relaxed-atomic cheap: handles are resolved once at
//! construction, and the registry mutex is only taken for exposition.
//! Counter values are data-derived and thread-count invariant; the
//! latency histograms are timing observations and are not.

use std::sync::Arc;
use std::time::Duration;

use v6obs::{Counter, Gauge, Histogram, Registry};

/// Metrics shared by a store and its ingestors, recorded into a
/// store-private [`Registry`].
#[derive(Debug)]
pub struct ServeMetrics {
    registry: Arc<Registry>,
    publishes: Counter,
    degraded_publishes: Counter,
    ingested_addresses: Counter,
    store_bytes_raw: Gauge,
    store_bytes_compressed: Gauge,
    ingest_batch_latency: Histogram,
    ingest_normalize_latency: Histogram,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        let registry = Arc::new(Registry::new());
        ServeMetrics {
            publishes: registry.counter("serve.publish.epochs"),
            degraded_publishes: registry.counter("serve.publish.degraded"),
            ingested_addresses: registry.counter("serve.ingest.addresses"),
            store_bytes_raw: registry.gauge("serve.store.bytes.raw"),
            store_bytes_compressed: registry.gauge("serve.store.bytes.compressed"),
            ingest_batch_latency: registry.histogram("serve.ingest.batch_latency"),
            ingest_normalize_latency: registry.histogram("serve.ingest.normalize_latency"),
            registry,
        }
    }
}

impl ServeMetrics {
    pub(crate) fn record_publish(&self) {
        self.publishes.inc();
    }

    pub(crate) fn record_degraded_publish(&self) {
        self.degraded_publishes.inc();
    }

    pub(crate) fn record_ingested(&self, addresses: u64) {
        self.ingested_addresses.add(addresses);
    }

    /// Publishes the current snapshot's memory footprint: what the raw
    /// representation would cost vs what the compressed tier holds.
    pub(crate) fn set_store_bytes(&self, raw: u64, compressed: u64) {
        self.store_bytes_raw.set(raw.min(i64::MAX as u64) as i64);
        self.store_bytes_compressed
            .set(compressed.min(i64::MAX as u64) as i64);
    }

    pub(crate) fn record_ingest_batch_latency(&self, elapsed: Duration) {
        self.ingest_batch_latency.record_duration(elapsed);
    }

    pub(crate) fn record_normalize_latency(&self, elapsed: Duration) {
        self.ingest_normalize_latency.record_duration(elapsed);
    }

    /// The store-private registry behind these metrics: counters named
    /// `serve.publish.*` / `serve.ingest.*`, the `serve.store.bytes.*`
    /// gauges, plus the ingest latency histograms.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Deterministic text exposition of the store's registry
    /// ([`Registry::render_text`]).
    pub fn render_text(&self) -> String {
        self.registry.render_text()
    }

    /// Epochs published so far.
    pub fn publishes(&self) -> u64 {
        self.publishes.get()
    }

    /// Degraded epochs published so far.
    pub fn degraded_publishes(&self) -> u64 {
        self.degraded_publishes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ServeMetrics::default();
        m.record_publish();
        m.record_publish();
        m.record_degraded_publish();
        m.record_ingested(16);
        m.record_ingested(2);
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter("serve.publish.epochs"), Some(2));
        assert_eq!(snap.counter("serve.publish.degraded"), Some(1));
        assert_eq!(snap.counter("serve.ingest.addresses"), Some(18));
        assert_eq!(m.publishes(), 2);
        assert_eq!(m.degraded_publishes(), 1);
    }

    #[test]
    fn store_bytes_gauges_track_latest_publish() {
        let m = ServeMetrics::default();
        m.set_store_bytes(2000, 1200);
        m.set_store_bytes(4000, 2400);
        let text = m.render_text();
        assert!(text.contains("serve.store.bytes.raw 4000\n"));
        assert!(text.contains("serve.store.bytes.compressed 2400\n"));
    }

    #[test]
    fn registry_exposition_matches_counters() {
        let m = ServeMetrics::default();
        m.record_publish();
        m.record_ingested(100);
        m.record_ingest_batch_latency(Duration::from_micros(3));
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter("serve.publish.epochs"), Some(1));
        assert_eq!(snap.counter("serve.ingest.addresses"), Some(100));
        let text = m.render_text();
        assert!(text.contains("serve.publish.epochs 1\n"));
        assert!(text.contains("serve.ingest.batch_latency_count 1\n"));
        // Two stores never share a registry.
        let other = ServeMetrics::default();
        assert_eq!(
            other.registry().snapshot().counter("serve.publish.epochs"),
            Some(0)
        );
    }
}
