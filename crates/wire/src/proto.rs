//! Typed request/response payloads and their binary codec.
//!
//! Every payload is `tag(u8) | request_id(u64 LE) | body`, where the
//! body reuses the bounds-checked [`v6store::format::Enc`]/[`Dec`]
//! primitives. Request tags occupy `0x01..=0x7f`, response tags
//! `0x81..=0xff`, so a peer can never confuse directions even on a
//! misrouted stream.
//!
//! The `request_id` is chosen by the client and echoed verbatim in the
//! response, which lets clients pipeline requests and match answers
//! without ordering assumptions. Admission verdicts ([`Response::Throttled`],
//! [`Response::Shed`]) carry the id of the request they reject — a shed
//! is an explicit labeled frame, never a silent drop.

use v6addr::Prefix;
use v6store::format::{Dec, Enc};

use crate::admit::ClientClass;
use crate::frame::FrameError;

/// Ceiling on addresses in one [`Request::Batch`]; keeps the encoded
/// payload safely under [`crate::frame::MAX_FRAME_PAYLOAD`].
///
/// The binding side is the *response*: a batch answer costs up to 25
/// bytes per address (present flag, optional week, optional full alias
/// prefix, degraded flag), so the cap must satisfy
/// `25 × cap + header < 1 MiB` — 40 000 leaves ~48 KiB of headroom for
/// the response header and a worst-case missing-shard list
/// (`crates/wire/tests/repro_overflow.rs` pins the all-aliased worst
/// case).
pub const MAX_BATCH_ADDRS: usize = 40_000;

const REQ_PING: u8 = 0x01;
const REQ_MEMBERSHIP: u8 = 0x02;
const REQ_MEMBERSHIP_UNALIASED: u8 = 0x03;
const REQ_LOOKUP: u8 = 0x04;
const REQ_DENSITY: u8 = 0x05;
const REQ_NEW_SINCE: u8 = 0x06;
const REQ_BATCH: u8 = 0x07;
const REQ_STATUS: u8 = 0x08;
const REQ_MOVED_BETWEEN: u8 = 0x09;
const REQ_ENTROPY_SHIFT: u8 = 0x0a;

const RESP_PONG: u8 = 0x81;
const RESP_BOOL: u8 = 0x82;
const RESP_LOOKUP: u8 = 0x83;
const RESP_COUNT: u8 = 0x84;
const RESP_BATCH: u8 = 0x85;
const RESP_STATUS: u8 = 0x86;
const RESP_THROTTLED: u8 = 0x87;
const RESP_SHED: u8 = 0x88;
const RESP_ERROR: u8 = 0x89;
const RESP_MOVED: u8 = 0x8a;
const RESP_ENTROPY_SHIFT: u8 = 0x8b;

/// Ceiling on device-move rows in one [`Response::Moved`]. Each row
/// encodes to 28 bytes, so the cap keeps the response frame well under
/// [`crate::frame::MAX_FRAME_PAYLOAD`] with header headroom.
pub const MAX_MOVED_ROWS: usize = 30_000;

/// Fewest bytes one [`WireLookup`] encodes to (four flag bytes): the
/// item size a batch answer count is checked against.
const LOOKUP_MIN_BYTES: usize = 4;

/// Bytes one [`WireMove`] row encodes to.
const MOVE_ROW_BYTES: usize = 28;

/// A client request. Addresses travel as raw `u128` bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered without touching the snapshot.
    Ping,
    /// Exact membership for one address.
    Membership {
        /// The address bits.
        addr: u128,
    },
    /// Membership excluding addresses under aliased prefixes.
    MembershipUnaliased {
        /// The address bits.
        addr: u128,
    },
    /// Full lookup: membership + first week + alias cover.
    Lookup {
        /// The address bits.
        addr: u128,
    },
    /// Published-address count within a prefix.
    Density {
        /// The prefix queried.
        prefix: Prefix,
    },
    /// Count of addresses first published after a study week.
    NewSince {
        /// The study week.
        week: u64,
    },
    /// Batched lookups, all resolved against one epoch.
    Batch {
        /// The address bits, in request order.
        addrs: Vec<u128>,
    },
    /// Service health: epoch, week, size, quarantined shards.
    Status,
    /// Windowed streaming-analytics query: EUI-64 devices that moved
    /// from one /64 to another between two study weeks. Answerable
    /// only when the server runs streaming analytics.
    MovedBetween {
        /// Window start (exclusive): the device was settled at `w0`.
        w0: u32,
        /// Window end (inclusive): the move surfaced in `(w0, w1]`.
        w1: u32,
    },
    /// Windowed streaming-analytics query: entropy-distribution shift
    /// of one AS between the corpus as of `w0` and the additions of
    /// `(w0, w1]`.
    EntropyShift {
        /// Dense AS index (the resolver's attribution space).
        as_index: u16,
        /// Window start (exclusive).
        w0: u32,
        /// Window end (inclusive).
        w1: u32,
    },
}

/// One address's answer inside a lookup or batch response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireLookup {
    /// Is the address in the published hitlist?
    pub present: bool,
    /// Week first published, when present.
    pub first_week: Option<u32>,
    /// Longest aliased prefix covering the address, if any.
    pub alias: Option<Prefix>,
    /// True when the address's shard is quarantined in the answering
    /// epoch (the answer may be stale).
    pub degraded: bool,
}

/// One device move inside a [`Response::Moved`] answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireMove {
    /// The device's MAC (low 48 bits), recovered from its EUI-64 IID.
    pub mac: u64,
    /// The /64 (high 64 address bits) the device sat in before the
    /// window.
    pub from_net: u64,
    /// The /64 it surfaced in inside the window.
    pub to_net: u64,
    /// Week it first appeared in `to_net`.
    pub week: u32,
}

/// A server response. Every variant echoes the request id it answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Boolean answer (membership probes).
    Bool {
        /// The verdict.
        value: bool,
    },
    /// Answer to [`Request::Lookup`].
    Lookup {
        /// Epoch of the answering snapshot.
        epoch: u64,
        /// The per-address answer.
        answer: WireLookup,
    },
    /// Scalar count answer (density, new-since).
    Count {
        /// Epoch of the answering snapshot.
        epoch: u64,
        /// The count.
        value: u64,
    },
    /// Answer to [`Request::Batch`], resolved against one epoch.
    Batch {
        /// Epoch answering every address in the batch.
        epoch: u64,
        /// Quarantined shard indices in that epoch (empty = healthy).
        missing_shards: Vec<u32>,
        /// Per-address answers, in request order.
        answers: Vec<WireLookup>,
        /// How many were present.
        present: u64,
        /// How many fell under an aliased prefix.
        aliased: u64,
    },
    /// Answer to [`Request::Status`].
    Status {
        /// Current epoch.
        epoch: u64,
        /// Latest study week included.
        week: u64,
        /// Total published addresses.
        len: u64,
        /// Number of shards.
        shard_count: u32,
        /// Quarantined shard indices (empty = healthy).
        missing_shards: Vec<u32>,
    },
    /// The request exceeded this client's rate tier; retry later.
    Throttled {
        /// Suggested wait before retrying, in milliseconds.
        retry_after_ms: u32,
        /// The behavioral class that set the tier.
        class: ClientClass,
    },
    /// The server shed the request under global overload.
    Shed {
        /// Why it was shed.
        reason: ShedReason,
    },
    /// The request was structurally valid but unanswerable.
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Answer to [`Request::MovedBetween`].
    Moved {
        /// Epoch the streaming operators reflect.
        epoch: u64,
        /// True when the analytics lag the store after a detected
        /// replay gap — the answer reflects the last verified epoch.
        lagging: bool,
        /// The device moves, ordered by (mac, week, to_net).
        moves: Vec<WireMove>,
    },
    /// Answer to [`Request::EntropyShift`].
    EntropyShift {
        /// Epoch the streaming operators reflect.
        epoch: u64,
        /// True when the analytics lag the store (see
        /// [`Response::Moved::lagging`]).
        lagging: bool,
        /// Total-variation distance in per-mille; `None` when either
        /// window side holds no attributed addresses.
        shift: Option<u32>,
    },
}

/// Why a request was shed rather than answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The global admission budget is exhausted.
    GlobalOverload,
    /// The per-client tracking table is full of *other* active clients.
    TooManyClients,
}

impl ShedReason {
    fn as_u8(self) -> u8 {
        match self {
            ShedReason::GlobalOverload => 0,
            ShedReason::TooManyClients => 1,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(ShedReason::GlobalOverload),
            1 => Some(ShedReason::TooManyClients),
            _ => None,
        }
    }
}

fn enc_opt_week(e: &mut Enc, week: Option<u32>) {
    match week {
        Some(w) => {
            e.u8(1);
            e.u32(w);
        }
        None => e.u8(0),
    }
}

fn dec_opt_week(d: &mut Dec<'_>) -> Option<Option<u32>> {
    match d.u8()? {
        0 => Some(None),
        1 => Some(Some(d.u32()?)),
        _ => None,
    }
}

fn enc_opt_prefix(e: &mut Enc, prefix: Option<Prefix>) {
    match prefix {
        Some(p) => {
            e.u8(1);
            e.u128(p.bits());
            e.u8(p.len());
        }
        None => e.u8(0),
    }
}

fn dec_opt_prefix(d: &mut Dec<'_>) -> Option<Option<Prefix>> {
    match d.u8()? {
        0 => Some(None),
        1 => {
            let bits = d.u128()?;
            let len = d.u8()?;
            if len > 128 {
                return None;
            }
            Some(Some(Prefix::from_bits(bits, len)))
        }
        _ => None,
    }
}

fn enc_lookup(e: &mut Enc, a: &WireLookup) {
    e.u8(u8::from(a.present));
    enc_opt_week(e, a.first_week);
    enc_opt_prefix(e, a.alias);
    e.u8(u8::from(a.degraded));
}

fn dec_lookup(d: &mut Dec<'_>) -> Option<WireLookup> {
    let present = match d.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let first_week = dec_opt_week(d)?;
    let alias = dec_opt_prefix(d)?;
    let degraded = match d.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    Some(WireLookup {
        present,
        first_week,
        alias,
        degraded,
    })
}

impl Request {
    /// Encodes this request as a wire payload (tag + id + body), ready
    /// for [`crate::frame::frame`] ([`Request::encode_into`] a fresh
    /// buffer).
    ///
    /// # Panics
    /// Panics if a batch exceeds [`MAX_BATCH_ADDRS`] — callers split
    /// larger batches.
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(request_id, &mut out);
        out
    }

    /// Appends this request's wire payload to `buf` — inside
    /// [`crate::frame::frame_into`], the frame is written in place.
    ///
    /// # Panics
    /// As [`Request::encode`].
    pub fn encode_into(&self, request_id: u64, buf: &mut Vec<u8>) {
        let mut e = Enc::appending(std::mem::take(buf));
        match self {
            Request::Ping => {
                e.u8(REQ_PING);
                e.u64(request_id);
            }
            Request::Membership { addr } => {
                e.u8(REQ_MEMBERSHIP);
                e.u64(request_id);
                e.u128(*addr);
            }
            Request::MembershipUnaliased { addr } => {
                e.u8(REQ_MEMBERSHIP_UNALIASED);
                e.u64(request_id);
                e.u128(*addr);
            }
            Request::Lookup { addr } => {
                e.u8(REQ_LOOKUP);
                e.u64(request_id);
                e.u128(*addr);
            }
            Request::Density { prefix } => {
                e.u8(REQ_DENSITY);
                e.u64(request_id);
                e.u128(prefix.bits());
                e.u8(prefix.len());
            }
            Request::NewSince { week } => {
                e.u8(REQ_NEW_SINCE);
                e.u64(request_id);
                e.u64(*week);
            }
            Request::Batch { addrs } => {
                assert!(
                    addrs.len() <= MAX_BATCH_ADDRS,
                    "batch of {} addresses exceeds cap {MAX_BATCH_ADDRS}",
                    addrs.len()
                );
                e.u8(REQ_BATCH);
                e.u64(request_id);
                e.u128_list(addrs);
            }
            Request::Status => {
                e.u8(REQ_STATUS);
                e.u64(request_id);
            }
            Request::MovedBetween { w0, w1 } => {
                e.u8(REQ_MOVED_BETWEEN);
                e.u64(request_id);
                e.u32(*w0);
                e.u32(*w1);
            }
            Request::EntropyShift { as_index, w0, w1 } => {
                e.u8(REQ_ENTROPY_SHIFT);
                e.u64(request_id);
                e.u16(*as_index);
                e.u32(*w0);
                e.u32(*w1);
            }
        }
        *buf = e.into_bytes();
    }

    /// Decodes a wire payload into `(request_id, request)`.
    pub fn decode(payload: &[u8]) -> Result<(u64, Request), FrameError> {
        let mut d = Dec::new(payload);
        let tag = d.u8().ok_or(FrameError::Malformed("empty payload"))?;
        let id = d
            .u64()
            .ok_or(FrameError::Malformed("truncated request id"))?;
        let req = match tag {
            REQ_PING => Request::Ping,
            REQ_MEMBERSHIP => Request::Membership {
                addr: d.u128().ok_or(FrameError::Malformed("truncated address"))?,
            },
            REQ_MEMBERSHIP_UNALIASED => Request::MembershipUnaliased {
                addr: d.u128().ok_or(FrameError::Malformed("truncated address"))?,
            },
            REQ_LOOKUP => Request::Lookup {
                addr: d.u128().ok_or(FrameError::Malformed("truncated address"))?,
            },
            REQ_DENSITY => {
                let bits = d
                    .u128()
                    .ok_or(FrameError::Malformed("truncated prefix bits"))?;
                let len = d
                    .u8()
                    .ok_or(FrameError::Malformed("truncated prefix length"))?;
                if len > 128 {
                    return Err(FrameError::Malformed("prefix length out of range"));
                }
                Request::Density {
                    prefix: Prefix::from_bits(bits, len),
                }
            }
            REQ_NEW_SINCE => Request::NewSince {
                week: d.u64().ok_or(FrameError::Malformed("truncated week"))?,
            },
            REQ_BATCH => {
                let addrs = d
                    .u128_list()
                    .ok_or(FrameError::Malformed("truncated batch list"))?;
                if addrs.len() > MAX_BATCH_ADDRS {
                    return Err(FrameError::Malformed("batch exceeds address cap"));
                }
                Request::Batch { addrs }
            }
            REQ_STATUS => Request::Status,
            REQ_MOVED_BETWEEN => Request::MovedBetween {
                w0: d.u32().ok_or(FrameError::Malformed("truncated window"))?,
                w1: d.u32().ok_or(FrameError::Malformed("truncated window"))?,
            },
            REQ_ENTROPY_SHIFT => Request::EntropyShift {
                as_index: d.u16().ok_or(FrameError::Malformed("truncated as index"))?,
                w0: d.u32().ok_or(FrameError::Malformed("truncated window"))?,
                w1: d.u32().ok_or(FrameError::Malformed("truncated window"))?,
            },
            other => return Err(FrameError::UnknownTag(other)),
        };
        if !d.is_exhausted() {
            return Err(FrameError::Malformed("trailing bytes after request"));
        }
        Ok((id, req))
    }
}

impl Response {
    /// Encodes this response as a wire payload (tag + id + body), ready
    /// for [`crate::frame::frame`] ([`Response::encode_into`] a fresh
    /// buffer).
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(request_id, &mut out);
        out
    }

    /// Appends this response's wire payload to `buf` — inside
    /// [`crate::frame::frame_into`], the frame is written in place.
    pub fn encode_into(&self, request_id: u64, buf: &mut Vec<u8>) {
        let mut e = Enc::appending(std::mem::take(buf));
        match self {
            Response::Pong => {
                e.u8(RESP_PONG);
                e.u64(request_id);
            }
            Response::Bool { value } => {
                e.u8(RESP_BOOL);
                e.u64(request_id);
                e.u8(u8::from(*value));
            }
            Response::Lookup { epoch, answer } => {
                e.u8(RESP_LOOKUP);
                e.u64(request_id);
                e.u64(*epoch);
                enc_lookup(&mut e, answer);
            }
            Response::Count { epoch, value } => {
                e.u8(RESP_COUNT);
                e.u64(request_id);
                e.u64(*epoch);
                e.u64(*value);
            }
            Response::Batch {
                epoch,
                missing_shards,
                answers,
                present,
                aliased,
            } => {
                e.u8(RESP_BATCH);
                e.u64(request_id);
                e.u64(*epoch);
                e.u32_list(missing_shards);
                e.u32(answers.len() as u32);
                for a in answers {
                    enc_lookup(&mut e, a);
                }
                e.u64(*present);
                e.u64(*aliased);
            }
            Response::Status {
                epoch,
                week,
                len,
                shard_count,
                missing_shards,
            } => {
                e.u8(RESP_STATUS);
                e.u64(request_id);
                e.u64(*epoch);
                e.u64(*week);
                e.u64(*len);
                e.u32(*shard_count);
                e.u32_list(missing_shards);
            }
            Response::Throttled {
                retry_after_ms,
                class,
            } => {
                e.u8(RESP_THROTTLED);
                e.u64(request_id);
                e.u32(*retry_after_ms);
                e.u8(class.as_u8());
            }
            Response::Shed { reason } => {
                e.u8(RESP_SHED);
                e.u64(request_id);
                e.u8(reason.as_u8());
            }
            Response::Error { message } => {
                e.u8(RESP_ERROR);
                e.u64(request_id);
                e.name(message);
            }
            Response::Moved {
                epoch,
                lagging,
                moves,
            } => {
                e.u8(RESP_MOVED);
                e.u64(request_id);
                e.u64(*epoch);
                e.u8(u8::from(*lagging));
                e.u32(moves.len() as u32);
                for m in moves {
                    e.u64(m.mac);
                    e.u64(m.from_net);
                    e.u64(m.to_net);
                    e.u32(m.week);
                }
            }
            Response::EntropyShift {
                epoch,
                lagging,
                shift,
            } => {
                e.u8(RESP_ENTROPY_SHIFT);
                e.u64(request_id);
                e.u64(*epoch);
                e.u8(u8::from(*lagging));
                enc_opt_week(&mut e, *shift);
            }
        }
        *buf = e.into_bytes();
    }

    /// Decodes a wire payload into `(request_id, response)`.
    pub fn decode(payload: &[u8]) -> Result<(u64, Response), FrameError> {
        let mut d = Dec::new(payload);
        let tag = d.u8().ok_or(FrameError::Malformed("empty payload"))?;
        let id = d
            .u64()
            .ok_or(FrameError::Malformed("truncated request id"))?;
        let resp = match tag {
            RESP_PONG => Response::Pong,
            RESP_BOOL => Response::Bool {
                value: match d.u8().ok_or(FrameError::Malformed("truncated bool"))? {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::Malformed("bool out of range")),
                },
            },
            RESP_LOOKUP => {
                let epoch = d.u64().ok_or(FrameError::Malformed("truncated epoch"))?;
                let answer = dec_lookup(&mut d).ok_or(FrameError::Malformed("truncated lookup"))?;
                Response::Lookup { epoch, answer }
            }
            RESP_COUNT => Response::Count {
                epoch: d.u64().ok_or(FrameError::Malformed("truncated epoch"))?,
                value: d.u64().ok_or(FrameError::Malformed("truncated count"))?,
            },
            RESP_BATCH => {
                let epoch = d.u64().ok_or(FrameError::Malformed("truncated epoch"))?;
                let missing_shards = d
                    .u32_list()
                    .ok_or(FrameError::Malformed("truncated shard list"))?;
                let n = d
                    .counted(LOOKUP_MIN_BYTES)
                    .ok_or(FrameError::Malformed("batch answer count exceeds payload"))?;
                if n > MAX_BATCH_ADDRS {
                    return Err(FrameError::Malformed("batch answers exceed cap"));
                }
                let mut answers = Vec::with_capacity(n);
                for _ in 0..n {
                    answers.push(
                        dec_lookup(&mut d)
                            .ok_or(FrameError::Malformed("truncated batch answer"))?,
                    );
                }
                Response::Batch {
                    epoch,
                    missing_shards,
                    answers,
                    present: d.u64().ok_or(FrameError::Malformed("truncated present"))?,
                    aliased: d.u64().ok_or(FrameError::Malformed("truncated aliased"))?,
                }
            }
            RESP_STATUS => Response::Status {
                epoch: d.u64().ok_or(FrameError::Malformed("truncated epoch"))?,
                week: d.u64().ok_or(FrameError::Malformed("truncated week"))?,
                len: d.u64().ok_or(FrameError::Malformed("truncated len"))?,
                shard_count: d
                    .u32()
                    .ok_or(FrameError::Malformed("truncated shard count"))?,
                missing_shards: d
                    .u32_list()
                    .ok_or(FrameError::Malformed("truncated shard list"))?,
            },
            RESP_THROTTLED => Response::Throttled {
                retry_after_ms: d
                    .u32()
                    .ok_or(FrameError::Malformed("truncated retry hint"))?,
                class: d
                    .u8()
                    .and_then(ClientClass::from_u8)
                    .ok_or(FrameError::Malformed("bad client class"))?,
            },
            RESP_SHED => Response::Shed {
                reason: d
                    .u8()
                    .and_then(ShedReason::from_u8)
                    .ok_or(FrameError::Malformed("bad shed reason"))?,
            },
            RESP_ERROR => Response::Error {
                message: d
                    .name()
                    .ok_or(FrameError::Malformed("truncated error message"))?,
            },
            RESP_MOVED => {
                let epoch = d.u64().ok_or(FrameError::Malformed("truncated epoch"))?;
                let lagging = match d.u8().ok_or(FrameError::Malformed("truncated flag"))? {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::Malformed("lagging flag out of range")),
                };
                let n = d
                    .counted(MOVE_ROW_BYTES)
                    .ok_or(FrameError::Malformed("move count exceeds payload"))?;
                if n > MAX_MOVED_ROWS {
                    return Err(FrameError::Malformed("moves exceed row cap"));
                }
                let mut moves = Vec::with_capacity(n);
                for _ in 0..n {
                    moves.push(WireMove {
                        mac: d.u64().ok_or(FrameError::Malformed("truncated move"))?,
                        from_net: d.u64().ok_or(FrameError::Malformed("truncated move"))?,
                        to_net: d.u64().ok_or(FrameError::Malformed("truncated move"))?,
                        week: d.u32().ok_or(FrameError::Malformed("truncated move"))?,
                    });
                }
                Response::Moved {
                    epoch,
                    lagging,
                    moves,
                }
            }
            RESP_ENTROPY_SHIFT => Response::EntropyShift {
                epoch: d.u64().ok_or(FrameError::Malformed("truncated epoch"))?,
                lagging: match d.u8().ok_or(FrameError::Malformed("truncated flag"))? {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::Malformed("lagging flag out of range")),
                },
                shift: dec_opt_week(&mut d).ok_or(FrameError::Malformed("truncated shift"))?,
            },
            other => return Err(FrameError::UnknownTag(other)),
        };
        if !d.is_exhausted() {
            return Err(FrameError::Malformed("trailing bytes after response"));
        }
        Ok((id, resp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(req: Request) {
        let payload = req.encode(77);
        let (id, back) = Request::decode(&payload).expect("round trip");
        assert_eq!(id, 77);
        assert_eq!(back, req);
    }

    fn round_trip_resp(resp: Response) {
        let payload = resp.encode(0xdead_beef);
        let (id, back) = Response::decode(&payload).expect("round trip");
        assert_eq!(id, 0xdead_beef);
        assert_eq!(back, resp);
    }

    #[test]
    fn every_request_variant_round_trips() {
        round_trip_req(Request::Ping);
        round_trip_req(Request::Membership {
            addr: 0x2001 << 112,
        });
        round_trip_req(Request::MembershipUnaliased { addr: 7 });
        round_trip_req(Request::Lookup { addr: u128::MAX });
        round_trip_req(Request::Density {
            prefix: Prefix::from_bits(0x2001_0db8u128 << 96, 48),
        });
        round_trip_req(Request::NewSince { week: 12 });
        round_trip_req(Request::Batch {
            addrs: vec![1, 2, 3, u128::MAX],
        });
        round_trip_req(Request::Status);
        round_trip_req(Request::MovedBetween { w0: 3, w1: 9 });
        round_trip_req(Request::EntropyShift {
            as_index: 17,
            w0: 0,
            w1: u32::MAX,
        });
    }

    #[test]
    fn every_response_variant_round_trips() {
        round_trip_resp(Response::Pong);
        round_trip_resp(Response::Bool { value: true });
        round_trip_resp(Response::Lookup {
            epoch: 3,
            answer: WireLookup {
                present: true,
                first_week: Some(5),
                alias: Some(Prefix::from_bits(0x2001u128 << 112, 32)),
                degraded: false,
            },
        });
        round_trip_resp(Response::Count { epoch: 2, value: 9 });
        round_trip_resp(Response::Batch {
            epoch: 4,
            missing_shards: vec![1, 3],
            answers: vec![
                WireLookup {
                    present: false,
                    first_week: None,
                    alias: None,
                    degraded: true,
                },
                WireLookup {
                    present: true,
                    first_week: Some(0),
                    alias: None,
                    degraded: false,
                },
            ],
            present: 1,
            aliased: 0,
        });
        round_trip_resp(Response::Status {
            epoch: 9,
            week: 4,
            len: 120,
            shard_count: 16,
            missing_shards: vec![2],
        });
        round_trip_resp(Response::Throttled {
            retry_after_ms: 250,
            class: ClientClass::Flood,
        });
        round_trip_resp(Response::Shed {
            reason: ShedReason::GlobalOverload,
        });
        round_trip_resp(Response::Error {
            message: "week out of range".to_string(),
        });
        round_trip_resp(Response::Moved {
            epoch: 12,
            lagging: true,
            moves: vec![
                WireMove {
                    mac: 0x0050_56ab_cdef,
                    from_net: 0x2001_0db8_0001_0000,
                    to_net: 0x2001_0db8_0002_0000,
                    week: 6,
                },
                WireMove {
                    mac: u64::MAX,
                    from_net: 0,
                    to_net: u64::MAX,
                    week: u32::MAX,
                },
            ],
        });
        round_trip_resp(Response::Moved {
            epoch: 0,
            lagging: false,
            moves: Vec::new(),
        });
        round_trip_resp(Response::EntropyShift {
            epoch: 12,
            lagging: false,
            shift: Some(417),
        });
        round_trip_resp(Response::EntropyShift {
            epoch: 12,
            lagging: true,
            shift: None,
        });
    }

    #[test]
    fn oversized_move_counts_are_rejected() {
        let mut e = Enc::new();
        e.u8(super::RESP_MOVED);
        e.u64(1);
        e.u64(9);
        e.u8(0);
        e.u32(MAX_MOVED_ROWS as u32 + 1);
        assert!(matches!(
            Response::decode(&e.into_bytes()),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_typed_errors() {
        let mut payload = Request::Ping.encode(1);
        payload[0] = 0x40;
        assert_eq!(Request::decode(&payload), Err(FrameError::UnknownTag(0x40)));

        let mut trailing = Request::Ping.encode(1);
        trailing.push(0);
        assert!(matches!(
            Request::decode(&trailing),
            Err(FrameError::Malformed(_))
        ));

        assert!(matches!(
            Response::decode(&[0x82]),
            Err(FrameError::Malformed(_))
        ));
    }
}
