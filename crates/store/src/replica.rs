//! Node-to-node epoch replication primitives.
//!
//! The write-ahead log ([`crate::log`]) already knows how to express an
//! epoch as a diff from its predecessor and how to replay those diffs;
//! this module exposes that machinery as a public API so a cluster
//! leader can ship the *same* delta records it persists over a
//! [`v6wire`]-style transport, and a follower can replay them into a
//! byte-identical mirror:
//!
//! * [`delta_between`] — compute the [`DeltaRecord`] carrying a mirror
//!   from one epoch's full content to the next;
//! * [`apply`] — replay a record into a mirror in place (remove, then
//!   upsert — exactly what log recovery does).
//!
//! The record *bodies* are [`Enc::delta`] and [`Enc::state`]
//! ([`crate::format`]), and those are what the cluster ships:
//! `v6cluster`'s `ReplMsg` puts the same body behind its own message
//! tag and header (partition, previous epoch), so a follower's
//! catch-up stream and the leader's log hold one encoding without
//! sharing a tag space. Framing (length prefix + FNV-1a 64 checksum) is
//! [`crate::format::frame`] on disk and on the wire alike.
//!
//! [`Enc::delta`]: crate::format::Enc::delta
//! [`Enc::state`]: crate::format::Enc::state
//!
//! ```
//! use v6store::format::{Dec, Enc};
//! use v6store::replica::{apply, delta_between};
//! use v6store::{EpochState, EpochView};
//!
//! let mut leader = EpochState {
//!     name: "doc".into(),
//!     entries: vec![(7, 0)],
//!     ..Default::default()
//! };
//! let mut follower = leader.clone();
//!
//! let next = EpochView {
//!     epoch: 1,
//!     week: 1,
//!     content_checksum: 0xbeef,
//!     missing_shards: &[],
//!     entries: &[(7, 0), (9, 1)],
//!     aliases: &[],
//! };
//! let delta = delta_between(&leader, &next);
//! apply(&mut leader, &delta);
//!
//! // Ship the encoded body; the follower replays it bit-for-bit.
//! let mut enc = Enc::new();
//! enc.delta(&delta);
//! let wire = enc.into_bytes();
//! apply(&mut follower, &Dec::new(&wire).delta().unwrap());
//! assert_eq!(leader, follower);
//! ```
//!
//! [`v6wire`]: ../../v6wire/index.html

use crate::format::AliasEntry;
use crate::log::{self, EpochState, EpochView};

pub use crate::log::DeltaRecord;

/// Computes the delta record that carries a mirror at `prev` to the
/// epoch content in `next`.
///
/// Both sides must be sorted (ascending by bits; aliases by
/// `(bits, len)`) — which [`EpochState`] and [`EpochView`] already
/// guarantee everywhere the store produces them.
pub fn delta_between(prev: &EpochState, next: &EpochView<'_>) -> DeltaRecord {
    let (removed, added) = log::diff_entries(&prev.entries, next.entries);
    let (removed_aliases, added_aliases) = log::diff_aliases(&prev.aliases, next.aliases);
    DeltaRecord {
        epoch: next.epoch,
        week: next.week,
        content_checksum: next.content_checksum,
        missing_shards: next.missing_shards.to_vec(),
        removed,
        added,
        removed_aliases,
        added_aliases,
    }
}

/// The alias half of [`delta_between`] on its own: `(removed keys,
/// added or week-changed registrations)` between two alias lists
/// sorted by `(bits, len)`.
pub fn diff_aliases(old: &[AliasEntry], new: &[AliasEntry]) -> (Vec<(u128, u8)>, Vec<AliasEntry>) {
    log::diff_aliases(old, new)
}

/// Replays a delta record into a mirror in place: remove, then upsert,
/// then adopt the record's epoch/week/checksum/missing-shard header.
pub fn apply(state: &mut EpochState, record: &DeltaRecord) {
    log::apply_delta(state, record);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{checkpoint_payload, decode_checkpoint, decode_delta, delta_payload};

    fn view(state: &EpochState) -> EpochView<'_> {
        EpochView {
            epoch: state.epoch,
            week: state.week,
            content_checksum: state.content_checksum,
            missing_shards: &state.missing_shards,
            entries: &state.entries,
            aliases: &state.aliases,
        }
    }

    #[test]
    fn delta_round_trip_reconstructs_state() {
        let prev = EpochState {
            name: "t".into(),
            epoch: 3,
            entries: vec![(1, 0), (5, 0), (9, 2)],
            aliases: vec![AliasEntry {
                bits: 1 << 80,
                len: 48,
                week: 0,
            }],
            ..Default::default()
        };
        let next = EpochState {
            name: "t".into(),
            epoch: 4,
            week: 7,
            shard_bits: 0,
            content_checksum: 0xabcd,
            missing_shards: vec![2],
            entries: vec![(1, 0), (9, 3), (12, 7)],
            aliases: vec![
                AliasEntry {
                    bits: 1 << 80,
                    len: 48,
                    week: 0,
                },
                AliasEntry {
                    bits: 2 << 80,
                    len: 64,
                    week: 7,
                },
            ],
        };
        let record = delta_between(&prev, &view(&next));
        assert_eq!(record.removed, vec![5]);
        assert_eq!(record.added, vec![(9, 3), (12, 7)]);

        let decoded = decode_delta(&delta_payload(&record)).expect("codec round trip");
        assert_eq!(decoded, record);

        let mut mirror = prev.clone();
        apply(&mut mirror, &decoded);
        assert_eq!(mirror, next);
    }

    #[test]
    fn empty_delta_still_advances_the_header() {
        let prev = EpochState {
            name: "t".into(),
            epoch: 1,
            entries: vec![(42, 0)],
            ..Default::default()
        };
        let mut next_view = view(&prev);
        next_view.epoch = 2;
        next_view.content_checksum = 0xfeed;
        let record = delta_between(&prev, &next_view);
        assert!(record.removed.is_empty() && record.added.is_empty());
        let mut mirror = prev.clone();
        apply(&mut mirror, &record);
        assert_eq!(mirror.epoch, 2);
        assert_eq!(mirror.content_checksum, 0xfeed);
        assert_eq!(mirror.entries, prev.entries);
    }

    #[test]
    fn state_codec_round_trips_and_rejects_deltas() {
        let state = EpochState {
            name: "svc".into(),
            shard_bits: 3,
            epoch: 11,
            week: 4,
            content_checksum: 99,
            missing_shards: vec![1, 6],
            entries: vec![(3, 1), (8, 2)],
            aliases: vec![],
        };
        let bytes = checkpoint_payload(Vec::new(), &state);
        assert_eq!(decode_checkpoint(&bytes), Some(state.clone()));
        // The two payload kinds are tagged; each decoder rejects the
        // other's bytes instead of misparsing them.
        assert_eq!(decode_delta(&bytes), None);
        let record = delta_between(&EpochState::default(), &view(&state));
        assert_eq!(decode_checkpoint(&delta_payload(&record)), None);
    }
}
