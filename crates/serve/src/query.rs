//! The handle a server answers queries through.
//!
//! Answering itself lives at the front door (`v6wire::serve_request_with`),
//! which clones the store's current snapshot `Arc` once per chunk of
//! requests and answers every one of them from that immutable view; the
//! windowed query family reads the store's own streaming operators
//! ([`HitlistStore::enable_analytics`]).

use std::sync::Arc;

use crate::store::HitlistStore;

/// A cheaply cloneable store handle.
#[derive(Clone)]
pub struct QueryEngine {
    store: Arc<HitlistStore>,
}

impl QueryEngine {
    /// An engine over `store`.
    pub fn new(store: Arc<HitlistStore>) -> Self {
        QueryEngine { store }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<HitlistStore> {
        &self.store
    }
}
