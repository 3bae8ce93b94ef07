//! The event model the operators fold.
//!
//! Raw [`v6store::DeltaRecord`]s conflate "added" with "week-changed"
//! (`added` holds every upsert). [`crate::Analytics::apply_delta`]
//! resolves each delta against the pre-delta corpus into unambiguous
//! [`Event`]s, and [`crate::Analytics::apply`] attributes each event's
//! address once ([`Attrs`]), so operators stay pure folds with no corpus
//! knowledge and no resolver of their own.

use crate::kernel::eui64_mac;
use crate::resolver::{AsResolver, AsTag};

/// One resolved corpus change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `bits` entered the corpus with first-seen `week`.
    Added {
        /// Address bits.
        bits: u128,
        /// First-seen study week.
        week: u32,
    },
    /// `bits` left the corpus; it had first-seen `week`.
    Removed {
        /// Address bits.
        bits: u128,
        /// The first-seen week it held while present.
        week: u32,
    },
    /// `bits` stayed but its first-seen week was rewritten (an upsert
    /// from a re-ingested earlier study week).
    WeekChanged {
        /// Address bits.
        bits: u128,
        /// Week before the upsert.
        old_week: u32,
        /// Week after the upsert.
        new_week: u32,
    },
}

impl Event {
    /// The address the event is about.
    #[inline]
    pub fn bits(&self) -> u128 {
        match *self {
            Event::Added { bits, .. }
            | Event::Removed { bits, .. }
            | Event::WeekChanged { bits, .. } => bits,
        }
    }
}

/// What is known of an event's address beyond its bits, looked up once
/// per event and handed to every operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attrs {
    /// The announcing AS; `None` for unrouted addresses.
    pub tag: Option<AsTag>,
    /// The MAC an EUI-64 IID leaks (see [`eui64_mac`]); `None` for any
    /// other IID.
    pub mac: Option<u64>,
}

impl Attrs {
    /// Attributes `bits`: one longest-prefix match, one EUI-64 screen.
    #[inline]
    pub fn resolve(resolver: &dyn AsResolver, bits: u128) -> Attrs {
        Attrs {
            tag: resolver.resolve(bits),
            mac: eui64_mac(bits),
        }
    }
}
