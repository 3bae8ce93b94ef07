//! # v6stream — incremental O(|Δ|) analytics over the epoch stream
//!
//! The service answers two windowed questions about the corpus: which
//! EUI-64 devices moved between /64s in a window of weeks
//! (`MovedBetween`), and how an AS's IID entropy shifted between two
//! weeks (`EntropyShift`). Re-reading the whole corpus per published
//! epoch would be O(corpus) work for answers that changed by O(|Δ|).
//! This crate inverts the cost: each analysis is an *operator* that
//! folds the store's own [`DeltaRecord`](v6store::DeltaRecord)s as they
//! are produced, so per-epoch analytics cost tracks the delta, not the
//! corpus. Only what a request reads is folded; the paper's §5.2 track
//! classes and its rotation row are batch analyses in `v6hitlist`.
//!
//! The layering:
//!
//! * [`kernel`] — the pure per-record folds (network extraction,
//!   EUI-64 MAC recovery, entropy bucketing, the canonical
//!   [`fold_content`] corpus checksum) shared between streaming
//!   operators and batch reference analyses. One kernel, two drivers.
//! * [`AsResolver`] / [`PrefixAsTable`] — address → AS attribution,
//!   since deltas carry only `(bits, week)`.
//! * [`Event`] / [`Attrs`] — the resolved corpus events the operators
//!   fold, each handed the event's already-resolved attributes.
//! * [`EntropyProfile`], [`DeviceTracker`] — the two operators, each a
//!   pure fold with a canonical-state checksum, owned together as an
//!   [`Analytics`] set (whose docs state their contract), which also
//!   holds the one resolver. [`Analytics::apply_delta`] is the one place a delta is
//!   resolved into events (the old week of a removed or re-dated
//!   address is asked of whoever holds the pre-delta corpus — a
//!   serving snapshot, or the driver's map) and [`Analytics::apply`]
//!   the one place an event's address is resolved to its AS and EUI-64
//!   MAC.
//! * [`StreamDriver`] — verified ingestion for consumers that hold no
//!   snapshot of their own (log tails): detects duplicate and
//!   out-of-order deliveries by epoch, detects replay **gaps** by
//!   recomputing each delta's content checksum against its corpus
//!   mirror before mutating anything, and recovers from gaps with an
//!   explicit O(corpus) [`StreamDriver::resync`]. A process that holds
//!   the snapshot needs none of this: `v6serve`'s `HitlistStore` folds
//!   each record it publishes into its own [`Analytics`].
//!
//! The governing invariant, pinned by proptests that drop, repeat and
//! reorder deliveries: **at every epoch boundary, each operator's checksum
//! equals the checksum of the same operator built fresh from the
//! materialized corpus.** Streaming is an optimization, never an
//! approximation — and when delivery faults make the cheap path
//! unsound, the driver *knows* (checksum chain) and says so (lagging
//! state), rather than drifting.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod kernel;
pub mod op;
pub mod resolver;

mod device;
mod driver;
mod entropy;

pub use device::{DeviceTracker, Move};
pub use driver::{Analytics, Offer, StreamDriver};
pub use entropy::{EntropyProfile, EntropyRow};
pub use kernel::{content_term, fold_content};
pub use op::{Attrs, Event};
pub use resolver::{country_code, AsResolver, AsTag, PrefixAsTable};

/// The shared, thread-safe resolver handle an [`Analytics`] set holds.
pub type SharedResolver = std::sync::Arc<dyn AsResolver + Send + Sync>;
