//! Registry-backed metrics for the front door.
//!
//! Same idiom as `v6serve::ServeMetrics`: a per-server facade over a
//! private [`v6obs::Registry`], handles resolved once at construction,
//! the registry mutex touched only for exposition. Names:
//!
//! * `wire.conn.*` — connection lifecycle: opens, closes, frames in and
//!   out, protocol errors (bad preamble, framing violations).
//! * `wire.admit.*` — admission verdicts: admitted / throttled / shed,
//!   plus per-class throttle counters
//!   (`wire.admit.throttled.{new,steady,burst,flood}`).
//! * `wire.shed.*` — shed causes: `global_overload`, `too_many_clients`.
//! * `wire.latency.<class>` — per-behavioral-class service latency
//!   histograms for *admitted* requests.

use std::sync::Arc;
use std::time::Duration;

use v6obs::{Counter, Histogram, Registry};

use crate::admit::ClientClass;
use crate::proto::ShedReason;

/// Front-door metrics, recorded into a server-private registry.
#[derive(Debug)]
pub struct WireMetrics {
    registry: Arc<Registry>,
    conn_opened: Counter,
    conn_closed: Counter,
    frames_in: Counter,
    frames_out: Counter,
    protocol_errors: Counter,
    admitted: Counter,
    throttled: Counter,
    shed: Counter,
    throttled_by_class: [Counter; 4],
    shed_global: Counter,
    shed_clients: Counter,
    latency_by_class: [Histogram; 4],
}

impl Default for WireMetrics {
    fn default() -> Self {
        let registry = Arc::new(Registry::new());
        WireMetrics {
            conn_opened: registry.counter("wire.conn.opened"),
            conn_closed: registry.counter("wire.conn.closed"),
            frames_in: registry.counter("wire.conn.frames_in"),
            frames_out: registry.counter("wire.conn.frames_out"),
            protocol_errors: registry.counter("wire.conn.protocol_errors"),
            admitted: registry.counter("wire.admit.admitted"),
            throttled: registry.counter("wire.admit.throttled"),
            shed: registry.counter("wire.admit.shed"),
            throttled_by_class: [
                registry.counter("wire.admit.throttled.new"),
                registry.counter("wire.admit.throttled.steady"),
                registry.counter("wire.admit.throttled.burst"),
                registry.counter("wire.admit.throttled.flood"),
            ],
            shed_global: registry.counter("wire.shed.global_overload"),
            shed_clients: registry.counter("wire.shed.too_many_clients"),
            latency_by_class: [
                registry.histogram("wire.latency.new"),
                registry.histogram("wire.latency.steady"),
                registry.histogram("wire.latency.burst"),
                registry.histogram("wire.latency.flood"),
            ],
            registry,
        }
    }
}

impl WireMetrics {
    /// A fresh metrics facade over its own registry.
    pub fn new() -> Self {
        WireMetrics::default()
    }

    pub(crate) fn record_conn_opened(&self) {
        self.conn_opened.inc();
    }

    pub(crate) fn record_conn_closed(&self) {
        self.conn_closed.inc();
    }

    pub(crate) fn record_frames_in(&self, n: u64) {
        self.frames_in.add(n);
    }

    pub(crate) fn record_frame_out(&self) {
        self.frames_out.inc();
    }

    pub(crate) fn record_protocol_error(&self) {
        self.protocol_errors.inc();
    }

    pub(crate) fn record_admitted(&self) {
        self.admitted.inc();
    }

    pub(crate) fn record_throttled(&self, class: ClientClass) {
        self.throttled.inc();
        self.throttled_by_class[class.as_u8() as usize].inc();
    }

    pub(crate) fn record_shed(&self, reason: ShedReason) {
        self.shed.inc();
        match reason {
            ShedReason::GlobalOverload => self.shed_global.inc(),
            ShedReason::TooManyClients => self.shed_clients.inc(),
        }
    }

    pub(crate) fn record_latency(&self, class: ClientClass, elapsed: Duration) {
        self.latency_by_class[class.as_u8() as usize].record_duration(elapsed);
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted.get()
    }

    /// Requests throttled so far (across all classes).
    pub fn throttled(&self) -> u64 {
        self.throttled.get()
    }

    /// Requests shed so far (across both causes).
    pub fn shed(&self) -> u64 {
        self.shed.get()
    }

    /// The p99 service latency for one behavioral class, in
    /// nanoseconds (log2-bucket upper bound; 0 when unobserved).
    pub fn p99_ns(&self, class: ClientClass) -> u64 {
        self.latency_by_class[class.as_u8() as usize].quantile_ns(0.99)
    }

    /// Samples recorded for one behavioral class.
    pub fn latency_count(&self, class: ClientClass) -> u64 {
        self.latency_by_class[class.as_u8() as usize].count()
    }

    /// The server-private registry: `wire.conn.*` / `wire.admit.*` /
    /// `wire.shed.*` counters plus per-class latency histograms.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_land_in_named_counters() {
        let m = WireMetrics::new();
        m.record_admitted();
        m.record_throttled(ClientClass::Flood);
        m.record_throttled(ClientClass::Flood);
        m.record_shed(ShedReason::GlobalOverload);
        m.record_shed(ShedReason::TooManyClients);
        m.record_latency(ClientClass::Steady, Duration::from_micros(5));
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter("wire.admit.admitted"), Some(1));
        assert_eq!(snap.counter("wire.admit.throttled"), Some(2));
        assert_eq!(snap.counter("wire.admit.throttled.flood"), Some(2));
        assert_eq!(snap.counter("wire.admit.shed"), Some(2));
        assert_eq!(snap.counter("wire.shed.global_overload"), Some(1));
        assert_eq!(snap.counter("wire.shed.too_many_clients"), Some(1));
        assert_eq!(m.latency_count(ClientClass::Steady), 1);
        assert!(m.p99_ns(ClientClass::Steady) > 0);
        assert_eq!(m.latency_count(ClientClass::Flood), 0);
    }
}
