//! Damaged-input fuzz for the decoders behind the wire codec: the
//! replication messages ([`ReplMsg`]) and the bare delta / state record
//! bodies ([`Enc::delta`], [`Enc::state`]) that the epoch log, its
//! checkpoints and the catch-up protocol all carry.
//!
//! Every valid encoding is damaged three ways — truncated at a random
//! offset, random bits flipped, random bytes spliced in — and each
//! damaged input must decode to `None` or to a value whose re-encoding
//! decodes to that same value; a panic anywhere fails the test. Each
//! proptest case damages four inputs, so a target sees 64 × 4 = 256 of
//! them per damage kind (every `ReplMsg` shape among them).

use std::fmt::Debug;

use proptest::prelude::*;
use v6cluster::proto::ReplMsg;
use v6store::format::{Dec, Enc};
use v6store::{AliasEntry, DeltaRecord, EpochState};

/// Inputs each proptest case damages.
const ROUNDS: usize = 4;

fn delta() -> impl Strategy<Value = DeltaRecord> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        prop::collection::vec(any::<u32>(), 0..4),
        prop::collection::vec(any::<u128>(), 0..4),
        prop::collection::vec((any::<u128>(), any::<u32>()), 0..4),
        prop::collection::vec((any::<u128>(), any::<u8>()), 0..3),
        aliases(),
    )
        .prop_map(
            |((epoch, week, content_checksum), missing_shards, removed, added, ra, aa)| {
                DeltaRecord {
                    epoch,
                    week,
                    content_checksum,
                    missing_shards,
                    removed,
                    added,
                    removed_aliases: ra,
                    added_aliases: aa,
                }
            },
        )
}

fn aliases() -> impl Strategy<Value = Vec<AliasEntry>> {
    prop::collection::vec(
        (any::<u128>(), any::<u8>(), any::<u32>()).prop_map(|(bits, len, week)| AliasEntry {
            bits,
            len,
            week,
        }),
        0..3,
    )
}

fn state() -> impl Strategy<Value = EpochState> {
    (
        prop::collection::vec(any::<u8>(), 0..12),
        (any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>()),
        prop::collection::vec(any::<u32>(), 0..4),
        prop::collection::vec((any::<u128>(), any::<u32>()), 0..6),
        aliases(),
    )
        .prop_map(
            |(
                name,
                (shard_bits, epoch, week, content_checksum),
                missing_shards,
                mut entries,
                aliases,
            )| {
                // Sorted and deduplicated by bits, as `EpochState` holds
                // its entries (the key-block body encodes nothing else).
                entries.sort_unstable_by_key(|e| e.0);
                entries.dedup_by_key(|e| e.0);
                EpochState {
                    // Lossy decoding keeps the name valid UTF-8 while
                    // still producing multi-byte characters.
                    name: String::from_utf8_lossy(&name).into_owned(),
                    shard_bits,
                    epoch,
                    week,
                    content_checksum,
                    missing_shards,
                    entries,
                    aliases,
                }
            },
        )
}

/// One message of every shape, from shared random fields.
fn repl_msgs() -> impl Strategy<Value = Vec<ReplMsg>> {
    (
        (any::<u32>(), any::<u64>(), any::<u64>()),
        delta(),
        state(),
        prop::collection::vec((any::<u64>(), delta()), 1..4),
        (any::<u128>(), any::<u8>(), any::<u32>()),
    )
        .prop_map(
            |((partition, a, b), delta, state, chain, (bits, flags, week))| {
                vec![
                    ReplMsg::DeltaPush {
                        partition,
                        prev_epoch: a,
                        delta,
                    },
                    ReplMsg::DeltaAck {
                        partition,
                        epoch: a,
                        checksum: b,
                    },
                    ReplMsg::CatchUpReq {
                        partition,
                        have_epoch: a,
                    },
                    ReplMsg::CatchUpResp {
                        partition,
                        base: None,
                        deltas: chain.clone(),
                    },
                    ReplMsg::CatchUpResp {
                        partition,
                        base: Some(state.clone()),
                        deltas: Vec::new(),
                    },
                    ReplMsg::CatchUpResp {
                        partition,
                        base: Some(state),
                        deltas: chain,
                    },
                    ReplMsg::Read { req_id: a, bits },
                    ReplMsg::ReadResp {
                        req_id: a,
                        epoch: b,
                        present: flags & 1 != 0,
                        shard_missing: flags & 2 != 0,
                        first_week: (flags & 4 != 0).then_some(week),
                    },
                ]
            },
        )
}

/// How one input is damaged; every position is taken modulo the
/// input's length.
#[derive(Debug)]
struct Damage {
    cut: usize,
    flips: Vec<(usize, u8)>,
    at: usize,
    splice: Vec<u8>,
}

fn damage() -> impl Strategy<Value = Damage> {
    (
        any::<usize>(),
        prop::collection::vec((any::<usize>(), 0u8..8), 1..4),
        any::<usize>(),
        prop::collection::vec(any::<u8>(), 1..16),
    )
        .prop_map(|(cut, flips, at, splice)| Damage {
            cut,
            flips,
            at,
            splice,
        })
}

impl Damage {
    /// `clean` truncated, bit-flipped, and spliced into.
    fn apply(&self, clean: &[u8]) -> [Vec<u8>; 3] {
        let truncated = clean[..self.cut % clean.len()].to_vec();
        let mut flipped = clean.to_vec();
        for &(pos, bit) in &self.flips {
            flipped[pos % clean.len()] ^= 1 << bit;
        }
        let mut spliced = clean.to_vec();
        let at = self.at % (clean.len() + 1);
        spliced.splice(at..at, self.splice.iter().copied());
        [truncated, flipped, spliced]
    }
}

/// `value`'s encoding decodes back to it, and every damaged form of it
/// decodes to `None` or to a value that survives its own round trip.
fn survives_damage<T: PartialEq + Debug>(
    value: &T,
    damage: &Damage,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<T>,
) {
    let clean = encode(value);
    assert_eq!(decode(&clean).as_ref(), Some(value));
    for damaged in damage.apply(&clean) {
        if let Some(got) = decode(&damaged) {
            assert_eq!(decode(&encode(&got)).as_ref(), Some(&got), "{damaged:?}");
        }
    }
}

fn encode_delta(record: &DeltaRecord) -> Vec<u8> {
    let mut e = Enc::new();
    e.delta(record);
    e.into_bytes()
}

fn encode_state(state: &EpochState) -> Vec<u8> {
    let mut e = Enc::new();
    e.state(state);
    e.into_bytes()
}

proptest! {
    #[test]
    fn damaged_repl_msgs_decode_or_refuse(
        rounds in prop::collection::vec((repl_msgs(), damage()), ROUNDS),
    ) {
        for (msgs, damage) in &rounds {
            for msg in msgs {
                survives_damage(msg, damage, ReplMsg::encode, ReplMsg::decode);
            }
        }
    }

    #[test]
    fn damaged_delta_bodies_decode_or_refuse(
        rounds in prop::collection::vec((delta(), damage()), ROUNDS),
    ) {
        for (record, damage) in &rounds {
            survives_damage(record, damage, encode_delta, |b| Dec::new(b).delta());
        }
    }

    #[test]
    fn damaged_state_bodies_decode_or_refuse(
        rounds in prop::collection::vec((state(), damage()), ROUNDS),
    ) {
        for (state, damage) in &rounds {
            survives_damage(state, damage, encode_state, |b| Dec::new(b).state());
        }
    }
}
