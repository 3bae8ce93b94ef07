//! Wire framing (format v1): the connection preamble and the streaming
//! frame decoder.
//!
//! A connection opens with an 8-byte preamble from each side — the
//! 7-byte magic `V6WIRE1` followed by a protocol-version byte — and then
//! carries length-prefixed, checksummed frames in both directions:
//!
//! ```text
//! preamble := "V6WIRE1" version(u8 = 1)
//! frame    := payload_len(u32 LE) payload(payload_len bytes) fnv64(payload)
//! payload  := tag(u8) request_id(u64 LE) body
//! ```
//!
//! The frame *is* the `v6store` on-disk frame — [`frame_into`] and
//! [`try_frame`] check the wire's smaller cap around
//! [`v6store::format::frame_into`] / [`v6store::format::frame`] — and
//! the payload bodies are written with the same
//! [`v6store::format::Enc`] and [`v6store::format::Dec`] primitives:
//! one codec for disk, wire, and the node-to-node replication stream
//! (`v6cluster` frames its `ReplMsg` payloads, whose delta and state
//! bodies are `Enc::delta` / `Enc::state`, with this same
//! [`try_frame`]/[`FrameDecoder`] pair).
//!
//! # Abuse-hardening contract
//!
//! The decoder is the first thing untrusted bytes touch, so it pins
//! three properties (enforced by the fuzz battery in
//! `crates/wire/tests/fuzz_codec.rs`):
//!
//! * **Never panics.** Any byte sequence — truncated, bit-flipped,
//!   adversarial — yields frames or a typed [`FrameError`], never a
//!   panic.
//! * **Never over-allocates.** A length prefix above
//!   [`MAX_FRAME_PAYLOAD`] is rejected *before* any buffer grows toward
//!   it; the decoder's internal buffer never exceeds
//!   [`FrameDecoder::MAX_BUFFERED`] after a successful feed.
//! * **Incomplete is not an error.** A prefix of a valid stream decodes
//!   to the frames it completes and waits for the rest; only structural
//!   violations (bad magic, oversized prefix, checksum mismatch)
//!   produce errors.
//! * **A bad chunk yields nothing.** A chunk is validated whole before
//!   any of its payloads is handed out ([`FrameDecoder::feed_each`]), so
//!   the valid frames ahead of a violation are never answered.

use v6store::format::fnv64;

/// The 7-byte connection magic. The trailing `1` is the wire
/// generation: peers reject preambles whose magic does not match
/// exactly.
pub const MAGIC: [u8; 7] = *b"V6WIRE1";

/// Current protocol version, the 8th preamble byte.
pub const PROTOCOL_VERSION: u8 = 1;

/// Preamble size: magic + version byte.
pub const PREAMBLE_LEN: usize = 8;

/// Ceiling on a single frame's payload (1 MiB). A length prefix above
/// this is a protocol error, not an allocation.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 20;

/// Bytes a frame adds around its payload: length prefix + checksum.
pub const FRAME_OVERHEAD: usize = 12;

/// Why a byte stream was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The preamble did not start with [`MAGIC`].
    BadMagic,
    /// The magic matched but the version byte is not one we speak.
    UnsupportedVersion(u8),
    /// A frame declared a payload longer than [`MAX_FRAME_PAYLOAD`].
    Oversized {
        /// The declared payload length.
        declared: u32,
    },
    /// A complete frame whose FNV checksum does not match its payload:
    /// corruption in transit.
    BadChecksum,
    /// A payload tag neither side's codec knows.
    UnknownTag(u8),
    /// A payload body that is truncated, has trailing bytes, or holds
    /// an out-of-range field.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "connection preamble magic mismatch"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::Oversized { declared } => write!(
                f,
                "frame declares {declared} payload bytes (cap {MAX_FRAME_PAYLOAD})"
            ),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::UnknownTag(t) => write!(f, "unknown payload tag {t:#04x}"),
            FrameError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// The 8 preamble bytes this side sends.
pub fn preamble() -> [u8; PREAMBLE_LEN] {
    let mut out = [0u8; PREAMBLE_LEN];
    out[..7].copy_from_slice(&MAGIC);
    out[7] = PROTOCOL_VERSION;
    out
}

/// Validates a peer's 8 preamble bytes.
pub fn check_preamble(bytes: &[u8; PREAMBLE_LEN]) -> Result<(), FrameError> {
    if bytes[..7] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    if bytes[7] != PROTOCOL_VERSION {
        return Err(FrameError::UnsupportedVersion(bytes[7]));
    }
    Ok(())
}

/// Appends one wire frame to `buf`, the payload written in place by
/// `write` ([`v6store::format::frame_into`] under the wire's cap): how
/// connections encode into the buffers they reuse.
///
/// # Panics
/// Panics if the payload exceeds [`MAX_FRAME_PAYLOAD`] — for encoders
/// that build payloads from typed requests, which are capped long
/// before this. A payload whose size follows from data (a replicated
/// delta, a full-state bootstrap) goes through [`try_frame`].
pub fn frame_into(buf: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let len = v6store::format::frame_into(buf, write);
    assert!(
        len <= MAX_FRAME_PAYLOAD as usize,
        "encoder produced a {len}-byte payload (cap {MAX_FRAME_PAYLOAD})"
    );
}

/// Wraps a payload in a wire frame: length prefix + payload + FNV-1a 64
/// checksum, in a fresh buffer.
///
/// # Panics
/// As [`frame_into`], on a payload above [`MAX_FRAME_PAYLOAD`].
pub fn frame(payload: &[u8]) -> Vec<u8> {
    try_frame(payload).unwrap_or_else(|_| {
        panic!(
            "encoder produced a {}-byte payload (cap {MAX_FRAME_PAYLOAD})",
            payload.len()
        )
    })
}

/// [`frame`], refusing a payload above [`MAX_FRAME_PAYLOAD`] with
/// [`FrameError::Oversized`] instead of panicking — no receiver would
/// accept the frame, so the sender must not emit it.
pub fn try_frame(payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    if payload.len() > MAX_FRAME_PAYLOAD as usize {
        return Err(FrameError::Oversized {
            declared: u32::try_from(payload.len()).unwrap_or(u32::MAX),
        });
    }
    Ok(v6store::format::frame(payload))
}

/// Gives back the memory of a reused buffer that one burst grew past
/// [`FrameDecoder::MAX_BUFFERED`], keeping its contents, so a connection
/// does not pin the largest burst it ever saw.
pub(crate) fn trim(buf: &mut Vec<u8>) {
    if buf.capacity() > FrameDecoder::MAX_BUFFERED {
        buf.shrink_to_fit();
    }
}

/// Validates every complete frame at the front of `bytes` — length cap
/// and checksum — and returns where the last one ends; what follows is
/// a partial frame.
fn complete_frames(bytes: &[u8]) -> Result<usize, FrameError> {
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.len() < 4 {
            return Ok(pos);
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes checked"));
        if len > MAX_FRAME_PAYLOAD {
            return Err(FrameError::Oversized { declared: len });
        }
        let total = len as usize + FRAME_OVERHEAD;
        if rest.len() < total {
            return Ok(pos);
        }
        let payload = &rest[4..4 + len as usize];
        let sum = u64::from_le_bytes(rest[4 + len as usize..total].try_into().expect("8 bytes"));
        if fnv64(payload) != sum {
            return Err(FrameError::BadChecksum);
        }
        pos += total;
    }
}

/// Incremental frame decoder over an untrusted byte stream.
///
/// Feed it chunks as they arrive; it returns every payload the chunk
/// completes and buffers the partial tail. A structural violation
/// poisons the decoder — the connection must close, there is no way to
/// resynchronize a corrupt length-prefixed stream.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    poisoned: bool,
}

impl FrameDecoder {
    /// Upper bound on bytes the decoder retains after a successful
    /// [`FrameDecoder::feed`]: one maximal partial frame.
    pub const MAX_BUFFERED: usize = MAX_FRAME_PAYLOAD as usize + FRAME_OVERHEAD;

    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Bytes currently buffered (a partial frame awaiting the rest).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// True once a structural violation was seen; every later feed
    /// returns the same class of error.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Consumes a chunk, returning every complete payload it yields
    /// ([`FrameDecoder::feed_each`], each payload copied out).
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Vec<Vec<u8>>, FrameError> {
        let mut out = Vec::new();
        self.feed_each(chunk, |p| out.push(p.to_vec()))?;
        Ok(out)
    }

    /// Consumes a chunk, handing every complete payload it yields to
    /// `each` in stream order, borrowed: straight from `chunk` when no
    /// partial frame was pending, from the decoder's buffer otherwise.
    /// Only the partial tail is copied, and kept. Returns how many
    /// payloads were handed out.
    ///
    /// The whole chunk is validated — every complete frame's length and
    /// checksum — before the first payload is handed out, so a
    /// violation anywhere in the chunk delivers nothing from it: an
    /// oversized length prefix or checksum mismatch fails the feed (the
    /// stream cannot be resynchronized past it) and callers respond by
    /// closing the connection, so nothing is answered from a chunk that
    /// also carried garbage.
    pub fn feed_each(
        &mut self,
        chunk: &[u8],
        mut each: impl FnMut(&[u8]),
    ) -> Result<usize, FrameError> {
        if self.poisoned {
            return Err(FrameError::Malformed("decoder poisoned by earlier error"));
        }
        let direct = self.buf.is_empty();
        if !direct {
            self.buf.extend_from_slice(chunk);
        }
        let bytes = if direct { chunk } else { &self.buf[..] };
        let end = match complete_frames(bytes) {
            Ok(end) => end,
            Err(e) => {
                self.poisoned = true;
                self.buf = Vec::new();
                return Err(e);
            }
        };
        let (mut pos, mut delivered) = (0usize, 0usize);
        while pos < end {
            let len =
                u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("validated")) as usize;
            each(&bytes[pos + 4..pos + 4 + len]);
            pos += len + FRAME_OVERHEAD;
            delivered += 1;
        }
        if direct {
            self.buf.extend_from_slice(&chunk[end..]);
        } else {
            self.buf.drain(..end);
        }
        trim(&mut self.buf);
        debug_assert!(self.buf.len() <= Self::MAX_BUFFERED);
        Ok(delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preamble_round_trip_and_rejection() {
        let p = preamble();
        assert_eq!(p.len(), PREAMBLE_LEN);
        assert_eq!(check_preamble(&p), Ok(()));
        let mut bad = p;
        bad[0] ^= 0xff;
        assert_eq!(check_preamble(&bad), Err(FrameError::BadMagic));
        let mut wrong_version = p;
        wrong_version[7] = 9;
        assert_eq!(
            check_preamble(&wrong_version),
            Err(FrameError::UnsupportedVersion(9))
        );
    }

    #[test]
    fn try_frame_refuses_what_no_decoder_would_accept() {
        let at_cap = vec![7u8; MAX_FRAME_PAYLOAD as usize];
        let framed = try_frame(&at_cap).expect("a payload at the cap frames");
        assert_eq!(framed, frame(&at_cap));
        assert_eq!(FrameDecoder::new().feed(&framed), Ok(vec![at_cap.clone()]));

        let mut over = at_cap;
        over.push(7);
        assert_eq!(
            try_frame(&over),
            Err(FrameError::Oversized {
                declared: MAX_FRAME_PAYLOAD + 1
            })
        );
    }

    #[test]
    fn frames_decode_across_arbitrary_chunk_boundaries() {
        let a = frame(b"first");
        let b = frame(b"second payload");
        let stream: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        for cut in 0..=stream.len() {
            let mut dec = FrameDecoder::new();
            let mut got = dec.feed(&stream[..cut]).expect("prefix never errors");
            got.extend(dec.feed(&stream[cut..]).expect("suffix completes"));
            assert_eq!(got, vec![b"first".to_vec(), b"second payload".to_vec()]);
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocating() {
        let mut dec = FrameDecoder::new();
        let mut bytes = (MAX_FRAME_PAYLOAD + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 32]);
        assert_eq!(
            dec.feed(&bytes),
            Err(FrameError::Oversized {
                declared: MAX_FRAME_PAYLOAD + 1
            })
        );
        assert!(dec.is_poisoned());
        assert_eq!(dec.buffered(), 0);
        // A poisoned decoder refuses further input instead of parsing
        // from a desynchronized offset.
        assert!(dec.feed(&frame(b"later")).is_err());
    }

    #[test]
    fn bit_flip_is_a_checksum_error() {
        let f = frame(b"payload bytes");
        let mut rotten = f.clone();
        rotten[7] ^= 0x20;
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.feed(&rotten), Err(FrameError::BadChecksum));
    }

    #[test]
    fn a_violation_anywhere_in_a_chunk_delivers_nothing_from_it() {
        let mut chunk = frame(b"valid");
        let mut rotten = frame(b"bad");
        rotten[5] ^= 1;
        chunk.extend_from_slice(&rotten);
        let mut seen = 0;
        let mut dec = FrameDecoder::new();
        assert_eq!(
            dec.feed_each(&chunk, |_| seen += 1),
            Err(FrameError::BadChecksum)
        );
        assert_eq!(seen, 0);
    }

    #[test]
    fn valid_frames_before_a_violation_are_returned_by_earlier_feeds() {
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.feed(&frame(b"ok")).unwrap(), vec![b"ok".to_vec()]);
        let mut rotten = frame(b"bad");
        rotten[5] ^= 1;
        assert_eq!(dec.feed(&rotten), Err(FrameError::BadChecksum));
    }
}
