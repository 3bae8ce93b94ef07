//! The node-to-node replication protocol: message shapes and their
//! byte codec.
//!
//! Message bodies are written with the [`v6store::format`] primitives
//! — a delta or a full state inside a message is
//! [`Enc::delta`] / [`Enc::state`], the very body the epoch log and its
//! checkpoints store behind their own tag byte — and travel inside
//! [`v6wire::frame`] frames (length prefix + FNV-checksum), so the
//! replication stream, the front-door wire protocol, and the on-disk
//! epoch log share one codec family. There is no preamble on
//! replication links — both ends are the same build of the same binary.
//!
//! Shapes (see DESIGN.md §14 for the state machine around them):
//!
//! * [`ReplMsg::DeltaPush`] — leader → follower: one epoch's
//!   [`DeltaRecord`] plus the epoch it extends (`prev_epoch`), so a
//!   follower can tell "applies exactly" from "I missed something".
//! * [`ReplMsg::DeltaAck`] — follower → leader: the epoch and content
//!   checksum the follower reached, which the leader checks against
//!   its own chain (`cluster.repl.ack_mismatch`).
//! * [`ReplMsg::CatchUpReq`] — a replica asking a peer for everything
//!   after `have_epoch`.
//! * [`ReplMsg::CatchUpResp`] — the peer's reply: a contiguous chain
//!   of retained deltas, or a full [`EpochState`] bootstrap when its
//!   history no longer reaches back that far.
//! * [`ReplMsg::Read`] / [`ReplMsg::ReadResp`] — the hedged read
//!   coordinator's probe and a replica's labeled answer.

use v6store::format::{Dec, Enc};
use v6store::replica::DeltaRecord;
use v6store::EpochState;

const TAG_DELTA_PUSH: u8 = 0x41;
const TAG_DELTA_ACK: u8 = 0x42;
const TAG_CATCHUP_REQ: u8 = 0x43;
const TAG_CATCHUP_RESP: u8 = 0x44;
const TAG_READ: u8 = 0x45;
const TAG_READ_RESP: u8 = 0x46;

/// Fewest bytes one `(prev_epoch, delta)` link of a catch-up chain
/// encodes to: `prev_epoch`, the delta's epoch, week and checksum, and
/// its five empty list counts.
const CHAINED_DELTA_MIN_BYTES: usize = 8 + 3 * 8 + 5 * 4;

/// One replication-protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplMsg {
    /// Leader → follower: apply `delta` if your mirror is at
    /// `prev_epoch`, otherwise ask to catch up.
    DeltaPush {
        /// Partition the delta belongs to.
        partition: u32,
        /// The epoch the sender's mirror was at before this delta.
        prev_epoch: u64,
        /// The epoch diff itself.
        delta: DeltaRecord,
    },
    /// Follower → leader: the epoch and checksum the follower's store
    /// now serves for this partition.
    DeltaAck {
        /// Partition acknowledged.
        partition: u32,
        /// Epoch the follower reached.
        epoch: u64,
        /// Content checksum of the follower's published snapshot.
        checksum: u64,
    },
    /// Replica → peer: send me everything after `have_epoch`.
    CatchUpReq {
        /// Partition to catch up.
        partition: u32,
        /// The requester's current epoch for that partition.
        have_epoch: u64,
    },
    /// Peer → replica: the catch-up material.
    CatchUpResp {
        /// Partition being caught up.
        partition: u32,
        /// Full-state bootstrap when the delta chain is unavailable.
        base: Option<EpochState>,
        /// Contiguous `(prev_epoch, delta)` chain starting at the
        /// requester's `have_epoch` (empty when `base` is given).
        deltas: Vec<(u64, DeltaRecord)>,
    },
    /// Coordinator → replica: membership probe for one address.
    Read {
        /// Correlates the response with the hedged request.
        req_id: u64,
        /// The probed address as raw bits.
        bits: u128,
    },
    /// Replica → coordinator: the labeled answer.
    ReadResp {
        /// Echoed request id.
        req_id: u64,
        /// Epoch of the snapshot that answered (0 = not hosting).
        epoch: u64,
        /// Whether the address is in the hitlist at that epoch.
        present: bool,
        /// First week the address was observed, when present.
        first_week: Option<u32>,
        /// True when the answering shard is serving quarantined
        /// (possibly stale) content — the coordinator must label.
        shard_missing: bool,
    },
}

/// The payload of a [`ReplMsg::DeltaPush`], from a borrowed record: a
/// leader encodes the push it is about to log without giving the
/// record away.
pub(crate) fn encode_delta_push(partition: u32, prev_epoch: u64, delta: &DeltaRecord) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(TAG_DELTA_PUSH);
    e.u32(partition);
    e.u64(prev_epoch);
    e.delta(delta);
    e.into_bytes()
}

impl ReplMsg {
    /// Encodes the message as a frame payload (the caller wraps it
    /// with [`v6wire::frame::try_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            ReplMsg::DeltaPush {
                partition,
                prev_epoch,
                delta,
            } => return encode_delta_push(*partition, *prev_epoch, delta),
            ReplMsg::DeltaAck {
                partition,
                epoch,
                checksum,
            } => {
                e.u8(TAG_DELTA_ACK);
                e.u32(*partition);
                e.u64(*epoch);
                e.u64(*checksum);
            }
            ReplMsg::CatchUpReq {
                partition,
                have_epoch,
            } => {
                e.u8(TAG_CATCHUP_REQ);
                e.u32(*partition);
                e.u64(*have_epoch);
            }
            ReplMsg::CatchUpResp {
                partition,
                base,
                deltas,
            } => {
                e.u8(TAG_CATCHUP_RESP);
                e.u32(*partition);
                match base {
                    Some(state) => {
                        e.u8(1);
                        e.state(state);
                    }
                    None => e.u8(0),
                }
                e.u32(deltas.len() as u32);
                for (prev, delta) in deltas {
                    e.u64(*prev);
                    e.delta(delta);
                }
            }
            ReplMsg::Read { req_id, bits } => {
                e.u8(TAG_READ);
                e.u64(*req_id);
                e.u128(*bits);
            }
            ReplMsg::ReadResp {
                req_id,
                epoch,
                present,
                first_week,
                shard_missing,
            } => {
                e.u8(TAG_READ_RESP);
                e.u64(*req_id);
                e.u64(*epoch);
                let mut flags = 0u8;
                if *present {
                    flags |= 1;
                }
                if *shard_missing {
                    flags |= 2;
                }
                if first_week.is_some() {
                    flags |= 4;
                }
                e.u8(flags);
                e.u32(first_week.unwrap_or(0));
            }
        }
        e.into_bytes()
    }

    /// Decodes a frame payload. `None` on truncation, trailing bytes,
    /// or an unknown tag — the receiver drops the frame and counts it.
    pub fn decode(payload: &[u8]) -> Option<ReplMsg> {
        let mut d = Dec::new(payload);
        let msg = match d.u8()? {
            TAG_DELTA_PUSH => ReplMsg::DeltaPush {
                partition: d.u32()?,
                prev_epoch: d.u64()?,
                delta: d.delta()?,
            },
            TAG_DELTA_ACK => ReplMsg::DeltaAck {
                partition: d.u32()?,
                epoch: d.u64()?,
                checksum: d.u64()?,
            },
            TAG_CATCHUP_REQ => ReplMsg::CatchUpReq {
                partition: d.u32()?,
                have_epoch: d.u64()?,
            },
            TAG_CATCHUP_RESP => {
                let partition = d.u32()?;
                let base = match d.u8()? {
                    0 => None,
                    1 => Some(d.state()?),
                    _ => return None,
                };
                let count = d.counted(CHAINED_DELTA_MIN_BYTES)?;
                let mut deltas = Vec::with_capacity(count);
                for _ in 0..count {
                    let prev = d.u64()?;
                    deltas.push((prev, d.delta()?));
                }
                ReplMsg::CatchUpResp {
                    partition,
                    base,
                    deltas,
                }
            }
            TAG_READ => ReplMsg::Read {
                req_id: d.u64()?,
                bits: d.u128()?,
            },
            TAG_READ_RESP => {
                let req_id = d.u64()?;
                let epoch = d.u64()?;
                let flags = d.u8()?;
                if flags & !7 != 0 {
                    return None;
                }
                let week = d.u32()?;
                ReplMsg::ReadResp {
                    req_id,
                    epoch,
                    present: flags & 1 != 0,
                    shard_missing: flags & 2 != 0,
                    first_week: (flags & 4 != 0).then_some(week),
                }
            }
            _ => return None,
        };
        d.is_exhausted().then_some(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6store::AliasEntry;

    fn sample_delta() -> DeltaRecord {
        DeltaRecord {
            epoch: 9,
            week: 3,
            content_checksum: 0xdead_beef,
            missing_shards: vec![1],
            removed: vec![5, 70],
            added: vec![(6, 1), (80, 3)],
            removed_aliases: vec![(7, 48)],
            added_aliases: vec![AliasEntry {
                bits: 9 << 80,
                len: 48,
                week: 3,
            }],
        }
    }

    #[test]
    fn every_shape_round_trips() {
        let msgs = vec![
            ReplMsg::DeltaPush {
                partition: 4,
                prev_epoch: 8,
                delta: sample_delta(),
            },
            ReplMsg::DeltaAck {
                partition: 4,
                epoch: 9,
                checksum: 0xdead_beef,
            },
            ReplMsg::CatchUpReq {
                partition: 2,
                have_epoch: 5,
            },
            ReplMsg::CatchUpResp {
                partition: 2,
                base: None,
                deltas: vec![(5, sample_delta()), (9, sample_delta())],
            },
            ReplMsg::CatchUpResp {
                partition: 2,
                base: Some(EpochState {
                    name: "p2".into(),
                    shard_bits: 2,
                    epoch: 9,
                    week: 3,
                    content_checksum: 1,
                    missing_shards: vec![],
                    entries: vec![(1, 0)],
                    aliases: vec![],
                }),
                deltas: vec![],
            },
            ReplMsg::Read {
                req_id: 77,
                bits: 0x2001_0db8 << 96,
            },
            ReplMsg::ReadResp {
                req_id: 77,
                epoch: 9,
                present: true,
                first_week: Some(2),
                shard_missing: false,
            },
            ReplMsg::ReadResp {
                req_id: 78,
                epoch: 0,
                present: false,
                first_week: None,
                shard_missing: true,
            },
        ];
        for msg in msgs {
            let bytes = msg.encode();
            assert_eq!(ReplMsg::decode(&bytes), Some(msg.clone()), "{msg:?}");
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let bytes = ReplMsg::CatchUpReq {
            partition: 1,
            have_epoch: 2,
        }
        .encode();
        for cut in 0..bytes.len() {
            assert_eq!(ReplMsg::decode(&bytes[..cut]), None, "cut at {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(ReplMsg::decode(&padded), None);
        assert_eq!(ReplMsg::decode(&[0x7f, 0, 0]), None, "unknown tag");
    }
}
