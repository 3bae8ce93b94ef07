//! The front-door server: one admission gate + metrics registry shared
//! by every connection, bound to the `v6serve` store (and analytics)
//! its requests are answered from.

use std::sync::Arc;

use parking_lot::Mutex;
use v6serve::QueryEngine;

use crate::admit::{Admission, AdmissionConfig, AdmitDecision, ClientClass, ClientInfo};
use crate::conn::ServerConn;
use crate::metrics::WireMetrics;

/// The shared front door over one hitlist store.
///
/// Connections ([`WireServer::open_connection`]) are cheap: they share
/// this server's admission gate and metrics, so a client's behavioral
/// class follows it across reconnects (identified by `client_id`).
pub struct WireServer {
    engine: QueryEngine,
    admission: Mutex<Admission>,
    metrics: Arc<WireMetrics>,
}

impl WireServer {
    /// A server over `engine`, with admission starting at `start_us`.
    pub fn new(engine: QueryEngine, cfg: AdmissionConfig, start_us: u64) -> Arc<Self> {
        Arc::new(WireServer {
            engine,
            admission: Mutex::new(Admission::new(cfg, start_us)),
            metrics: Arc::new(WireMetrics::new()),
        })
    }

    /// Opens a connection for the client identified by `client_id`
    /// (the stand-in for a peer address).
    pub fn open_connection(self: &Arc<Self>, client_id: u64) -> ServerConn {
        ServerConn::new(Arc::clone(self), client_id)
    }

    /// The `(store, analytics)` handle admitted requests are answered
    /// from.
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// The front-door metrics (`wire.*`).
    pub fn metrics(&self) -> &Arc<WireMetrics> {
        &self.metrics
    }

    /// One admission decision (used by connections; exposed for tests
    /// driving admission without a byte stream).
    pub fn admit(&self, client_id: u64, now_us: u64) -> AdmitDecision {
        self.admission.lock().admit(client_id, now_us)
    }

    /// One admission decision and the class the client holds after it,
    /// under one lock: what a connection needs per request.
    pub(crate) fn admit_classified(
        &self,
        client_id: u64,
        now_us: u64,
    ) -> (AdmitDecision, ClientClass) {
        let mut admission = self.admission.lock();
        let decision = admission.admit(client_id, now_us);
        let class = admission
            .client_info(client_id)
            .map_or(ClientClass::New, |i| i.class);
        (decision, class)
    }

    /// Full classifier state for a client (tests assert how fast a
    /// flooder was classified).
    pub fn client_info(&self, client_id: u64) -> Option<ClientInfo> {
        self.admission.lock().client_info(client_id)
    }
}

impl std::fmt::Debug for WireServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireServer")
            .field("tracked_clients", &self.admission.lock().tracked_clients())
            .finish_non_exhaustive()
    }
}
