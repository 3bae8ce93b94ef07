//! The handle a server answers queries through: a store plus, when
//! attached, the streaming analytics behind the windowed query family.
//!
//! Answering itself lives at the front door (`v6wire::serve_request_with`),
//! which clones the store's current snapshot `Arc` once per chunk of
//! requests and answers every one of them from that immutable view.

use std::sync::Arc;

use crate::store::HitlistStore;
use crate::stream::StreamAnalytics;

/// A cheaply cloneable `(store, analytics)` handle.
#[derive(Clone)]
pub struct QueryEngine {
    store: Arc<HitlistStore>,
    /// Streaming operators answering the windowed query family;
    /// `None` until attached with [`QueryEngine::with_analytics`].
    analytics: Option<Arc<StreamAnalytics>>,
}

impl QueryEngine {
    /// An engine over `store`.
    pub fn new(store: Arc<HitlistStore>) -> Self {
        QueryEngine {
            store,
            analytics: None,
        }
    }

    /// Attaches streaming analytics, enabling the windowed query
    /// family (`MovedBetween`, `EntropyShift`).
    pub fn with_analytics(mut self, analytics: Arc<StreamAnalytics>) -> Self {
        self.analytics = Some(analytics);
        self
    }

    /// The attached streaming analytics, if any.
    pub fn analytics(&self) -> Option<&Arc<StreamAnalytics>> {
        self.analytics.as_ref()
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<HitlistStore> {
        &self.store
    }
}
