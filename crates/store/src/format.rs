//! The versioned on-disk record format (format v2; v1 is still read).
//!
//! Both store files — the epoch delta log and each checkpoint — share
//! one layout: a fixed 16-byte header followed by length-prefixed,
//! checksummed *frames*. All integers are little-endian.
//!
//! ```text
//! header  := magic(8 = "V6STORE1") kind(u32: 1=log, 2=checkpoint) version(u32 = 2; 1 is read)
//! frame   := payload_len(u32) payload(payload_len bytes) fnv64(payload)
//! payload := tag(u8) body
//! ```
//!
//! Payload tags:
//!
//! | tag | record     | body                                                             |
//! |-----|------------|------------------------------------------------------------------|
//! | 1   | epoch delta| epoch u64, week u64, checksum u64, missing, removed, added, removed_aliases, added_aliases |
//! | 2   | checkpoint (v1, read only) | name, shard_bits u32, epoch u64, week u64, checksum u64, missing, entries, aliases |
//! | 3   | log meta   | name, shard_bits u32                                             |
//! | 4   | checkpoint | name, shard_bits u32, epoch u64, week u64, checksum u64, missing, blocks, aliases |
//!
//! where `name` is `u16 length + UTF-8 bytes`, `missing` is
//! `u32 count + count × u32`, `removed` is `u32 count + count × u128`
//! (address bits dropped since the previous epoch), `added`/`entries`
//! are `u32 count + count × (bits u128, week u32)` sorted ascending by
//! bits, `blocks` is the same content grouped by /64 — `u32 count`,
//! then per block `key u64` (the high 64 bits), `n u32`, `n × low u64`,
//! `n × week u32`, keys and each block's lows strictly ascending, no
//! empty block — at 12 B per address plus 12 B per /64 (the served
//! form; 24 B per address at worst, one address per /64, against a flat
//! 20), `removed_aliases` is `u32 count + count × (bits u128, len u8)`,
//! and `aliases` are `u32 count + count × (bits u128, len u8, week u32)`
//! sorted ascending by `(bits, len)`. A delta's `added` list carries
//! both genuinely new addresses and addresses whose first-seen week
//! changed; applying a delta is remove-then-upsert.
//!
//! The frame checksum is FNV-1a 64 over the payload bytes only; the
//! length prefix is validated structurally (a frame that does not fit in
//! the remaining file is a torn tail). A frame that fits but whose
//! checksum fails is *bit rot* and is quarantined by recovery rather
//! than replayed.

/// The 8-byte file magic. The trailing `1` is the on-disk generation:
/// readers reject files whose magic does not match exactly.
pub const MAGIC: [u8; 8] = *b"V6STORE1";

/// Current format version, written to every header; headers of this
/// version and of version 1 are read.
pub const FORMAT_VERSION: u32 = 2;

/// Header `kind` for the append-only epoch delta log.
pub const KIND_LOG: u32 = 1;

/// Header `kind` for a compacted checkpoint.
pub const KIND_CHECKPOINT: u32 = 2;

/// Total header size: magic + kind + version.
pub const HEADER_LEN: usize = 16;

/// Payload tag of an epoch delta record.
pub const TAG_DELTA: u8 = 1;

/// Payload tag of a format-v1 checkpoint record (flat entries): read,
/// never written.
pub const TAG_CHECKPOINT_V1: u8 = 2;

/// Payload tag of the log's store-identity meta record.
pub const TAG_META: u8 = 3;

/// Payload tag of a checkpoint record (entries as /64 key blocks).
pub const TAG_CHECKPOINT: u8 = 4;

/// Sanity ceiling on a single frame's payload (256 MiB). A length
/// prefix above this is treated as torn/corrupt rather than allocated.
pub const MAX_FRAME_PAYLOAD: u32 = 256 << 20;

pub use v6netsim::rng::{fnv1a, FNV_BASIS};

use crate::log::{DeltaRecord, EpochState};

/// FNV-1a 64 over `bytes` — the per-record checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv1a(FNV_BASIS, bytes)
}

/// One registered aliased prefix: network bits, prefix length, and the
/// study week it became effective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct AliasEntry {
    /// Network bits (host bits zero).
    pub bits: u128,
    /// Prefix length in bits.
    pub len: u8,
    /// Week the alias registration became effective.
    pub week: u32,
}

/// Little-endian byte-buffer encoder for payloads.
#[derive(Debug, Default)]
pub struct Enc(Vec<u8>);

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc(Vec::new())
    }

    /// An encoder that appends to `buf`: a caller that reuses one buffer
    /// moves it in here and takes it back with [`Enc::into_bytes`].
    pub fn appending(buf: Vec<u8>) -> Self {
        Enc(buf)
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128`.
    pub fn u128(&mut self, v: u128) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string (`u16` length).
    ///
    /// # Panics
    /// Panics if the string is longer than `u16::MAX` bytes.
    pub fn name(&mut self, s: &str) {
        let len = u16::try_from(s.len()).expect("store name longer than 64 KiB");
        self.u16(len);
        self.0.extend_from_slice(s.as_bytes());
    }

    /// Appends `items` as a `u32`-counted list, each written by `item`.
    fn list<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.u32(items.len() as u32);
        items.iter().for_each(|v| item(self, v));
    }

    /// Appends a `u32`-counted list of `(bits, week)` entries.
    pub fn entries(&mut self, entries: &[(u128, u32)]) {
        self.list(entries, |e, &(bits, week)| {
            e.u128(bits);
            e.u32(week);
        });
    }

    /// Appends entries sorted by bits as `u32`-counted /64 key blocks
    /// (the `blocks` of the module table).
    pub fn blocks(&mut self, entries: &[(u128, u32)]) {
        let blocks = || entries.chunk_by(|a, b| a.0 >> 64 == b.0 >> 64);
        self.u32(blocks().count() as u32);
        for block in blocks() {
            self.u64((block[0].0 >> 64) as u64);
            self.u32(block.len() as u32);
            block.iter().for_each(|&(bits, _)| self.u64(bits as u64));
            block.iter().for_each(|&(_, week)| self.u32(week));
        }
    }

    /// Appends a `u32`-counted list of alias entries.
    pub fn aliases(&mut self, aliases: &[AliasEntry]) {
        self.list(aliases, |e, a| {
            e.u128(a.bits);
            e.u8(a.len);
            e.u32(a.week);
        });
    }

    /// Appends a `u32`-counted list of raw `u128` values.
    pub fn u128_list(&mut self, values: &[u128]) {
        self.list(values, |e, &v| e.u128(v));
    }

    /// Appends a `u32`-counted list of `u32` values.
    pub fn u32_list(&mut self, values: &[u32]) {
        self.list(values, |e, &v| e.u32(v));
    }

    /// Appends a `u32`-counted list of removed alias keys.
    pub fn removed_aliases(&mut self, removed: &[(u128, u8)]) {
        self.list(removed, |e, &(bits, len)| {
            e.u128(bits);
            e.u8(len);
        });
    }

    /// Appends an epoch delta's body (the tag-1 row of the module
    /// table) — the one encoding the log's delta frame and the
    /// cluster's `DeltaPush` / `CatchUpResp` messages carry.
    pub fn delta(&mut self, record: &DeltaRecord) {
        self.u64(record.epoch);
        self.u64(record.week);
        self.u64(record.content_checksum);
        self.u32_list(&record.missing_shards);
        self.u128_list(&record.removed);
        self.entries(&record.added);
        self.removed_aliases(&record.removed_aliases);
        self.aliases(&record.added_aliases);
    }

    /// Appends a full epoch state's body (the tag-4 row of the module
    /// table) — the one encoding a checkpoint frame and the cluster's
    /// bootstrap `CatchUpResp` carry. `state.entries` must be sorted
    /// and free of duplicates, as [`EpochState`] holds them.
    pub fn state(&mut self, state: &EpochState) {
        self.name(&state.name);
        self.u32(state.shard_bits);
        self.u64(state.epoch);
        self.u64(state.week);
        self.u64(state.content_checksum);
        self.u32_list(&state.missing_shards);
        self.blocks(&state.entries);
        self.aliases(&state.aliases);
    }
}

/// Little-endian cursor decoder; every read is bounds-checked and a
/// short or malformed buffer yields `None` (the caller maps that to a
/// corrupt-record outcome, never a panic).
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// True when every byte has been consumed (well-formed payloads
    /// decode exactly).
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|s| u16::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a `u128`.
    pub fn u128(&mut self) -> Option<u128> {
        self.take(16)
            .map(|s| u128::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn name(&mut self) -> Option<String> {
        let len = usize::from(self.u16()?);
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// Reads a `u32`-counted list of items `item` reads, each at least
    /// `item_size` bytes.
    fn list<T>(
        &mut self,
        item_size: usize,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = self.counted(item_size)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Some(out)
    }

    /// Reads a `u32`-counted list of `(bits, week)` entries.
    pub fn entries(&mut self) -> Option<Vec<(u128, u32)>> {
        self.list(20, |d| Some((d.u128()?, d.u32()?)))
    }

    /// Reads /64 key blocks, as [`Enc::blocks`] wrote them, into flat
    /// entries. `None` on an empty block or on keys, or lows within a
    /// block, that are not strictly ascending.
    pub fn blocks(&mut self) -> Option<Vec<(u128, u32)>> {
        let mut out = Vec::new();
        let mut last_key = None;
        for _ in 0..self.counted(12)? {
            let key = self.u64()?;
            let n = self.counted(12)?;
            if n == 0 || last_key >= Some(key) {
                return None;
            }
            last_key = Some(key);
            let (mut lows, mut weeks) = (Dec::new(self.take(8 * n)?), Dec::new(self.take(4 * n)?));
            for _ in 0..n {
                out.push(((key as u128) << 64 | lows.u64()? as u128, weeks.u32()?));
            }
        }
        strictly_ascending(&out).then_some(out)
    }

    /// Reads a `u32`-counted list of alias entries.
    pub fn aliases(&mut self) -> Option<Vec<AliasEntry>> {
        self.list(21, |d| {
            Some(AliasEntry {
                bits: d.u128()?,
                len: d.u8()?,
                week: d.u32()?,
            })
        })
    }

    /// Reads a `u32`-counted list of raw `u128` values.
    pub fn u128_list(&mut self) -> Option<Vec<u128>> {
        self.list(16, Dec::u128)
    }

    /// Reads a `u32`-counted list of `u32` values.
    pub fn u32_list(&mut self) -> Option<Vec<u32>> {
        self.list(4, Dec::u32)
    }

    /// Reads a `u32`-counted list of removed alias keys.
    pub fn removed_aliases(&mut self) -> Option<Vec<(u128, u8)>> {
        self.list(17, |d| Some((d.u128()?, d.u8()?)))
    }

    /// Reads an epoch delta's body, as [`Enc::delta`] wrote it.
    pub fn delta(&mut self) -> Option<DeltaRecord> {
        Some(DeltaRecord {
            epoch: self.u64()?,
            week: self.u64()?,
            content_checksum: self.u64()?,
            missing_shards: self.u32_list()?,
            removed: self.u128_list()?,
            added: self.entries()?,
            removed_aliases: self.removed_aliases()?,
            added_aliases: self.aliases()?,
        })
    }

    /// Reads a full epoch state's body, as [`Enc::state`] wrote it.
    pub fn state(&mut self) -> Option<EpochState> {
        self.state_with(Dec::blocks)
    }

    /// Reads a format-v1 state body (the tag-2 row), whose entries are a
    /// flat list; `None` unless their bits are strictly ascending.
    pub(crate) fn state_v1(&mut self) -> Option<EpochState> {
        self.state_with(|d| d.entries().filter(|e| strictly_ascending(e)))
    }

    fn state_with(
        &mut self,
        entries: impl FnOnce(&mut Self) -> Option<Vec<(u128, u32)>>,
    ) -> Option<EpochState> {
        Some(EpochState {
            name: self.name()?,
            shard_bits: self.u32()?,
            epoch: self.u64()?,
            week: self.u64()?,
            content_checksum: self.u64()?,
            missing_shards: self.u32_list()?,
            entries: entries(self)?,
            aliases: self.aliases()?,
        })
    }

    /// Reads a `u32` list count and bounds it against the bytes actually
    /// remaining, `item_size` being the fewest bytes one item can encode
    /// to: a count that cannot fit is refused before the caller sizes a
    /// buffer from it, so a corrupt count never drives an allocation.
    /// The one count rule of every decoder built on this module.
    pub fn counted(&mut self, item_size: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        if n.checked_mul(item_size)? > self.buf.len() - self.pos {
            return None;
        }
        Some(n)
    }
}

fn strictly_ascending(entries: &[(u128, u32)]) -> bool {
    entries.windows(2).all(|w| w[0].0 < w[1].0)
}

/// Encodes the 16-byte file header for `kind`.
pub fn header(kind: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out
}

/// Validates a file header, returning its `kind`.
pub fn parse_header(buf: &[u8]) -> Option<u32> {
    if buf.len() < HEADER_LEN || buf[..8] != MAGIC {
        return None;
    }
    let kind = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    let version = u32::from_le_bytes(buf[12..16].try_into().unwrap());
    if !(1..=FORMAT_VERSION).contains(&version) {
        return None;
    }
    Some(kind)
}

/// Appends one frame to `buf` with the payload written in place:
/// reserves the length prefix, lets `write` append the payload, then
/// patches the length and appends the FNV checksum. Returns the payload
/// length. `write` must only append.
pub fn frame_into(buf: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    write(buf);
    let len = buf.len() - start - 4;
    let prefix = u32::try_from(len).expect("frame payload beyond the u32 length prefix");
    buf[start..start + 4].copy_from_slice(&prefix.to_le_bytes());
    let sum = fnv64(&buf[start + 4..]);
    buf.extend_from_slice(&sum.to_le_bytes());
    len
}

/// Wraps a payload in a frame: length prefix + payload + FNV checksum
/// ([`frame_into`] a fresh buffer).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len() + 8);
    frame_into(&mut out, |b| b.extend_from_slice(payload));
    out
}

/// What scanning one frame out of a buffer produced.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameOutcome<'a> {
    /// A complete frame with a valid checksum; `consumed` is its total
    /// on-disk size (length prefix + payload + checksum).
    Valid {
        /// The payload bytes.
        payload: &'a [u8],
        /// Bytes this frame occupies on disk.
        consumed: usize,
    },
    /// The remaining bytes cannot hold a complete frame (or the length
    /// prefix is itself implausible): a torn tail from an interrupted
    /// write. Everything from here on is dropped by recovery.
    Torn,
    /// A complete frame whose checksum does not match: bit rot.
    /// `consumed` is the frame's full on-disk size.
    BitRot {
        /// Bytes the corrupt frame occupies on disk.
        consumed: usize,
    },
}

/// Scans one frame from the front of `buf`.
pub fn read_frame(buf: &[u8]) -> FrameOutcome<'_> {
    if buf.len() < 4 {
        return FrameOutcome::Torn;
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap());
    if len > MAX_FRAME_PAYLOAD {
        return FrameOutcome::Torn;
    }
    let len = len as usize;
    let total = 4 + len + 8;
    if buf.len() < total {
        return FrameOutcome::Torn;
    }
    let payload = &buf[4..4 + len];
    let sum = u64::from_le_bytes(buf[4 + len..total].try_into().unwrap());
    if fnv64(payload) != sum {
        return FrameOutcome::BitRot { consumed: total };
    }
    FrameOutcome::Valid {
        payload,
        consumed: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        // FNV-1a 64 published test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn header_round_trip_and_rejection() {
        let h = header(KIND_LOG);
        assert_eq!(h.len(), HEADER_LEN);
        assert_eq!(parse_header(&h), Some(KIND_LOG));
        assert_eq!(
            parse_header(&header(KIND_CHECKPOINT)),
            Some(KIND_CHECKPOINT)
        );
        assert_eq!(parse_header(&h[..12]), None);
        let mut bad = h.clone();
        bad[0] ^= 0xff;
        assert_eq!(parse_header(&bad), None);
        let mut wrong_version = h;
        wrong_version[12] = 99;
        assert_eq!(parse_header(&wrong_version), None);
    }

    #[test]
    fn frames_round_trip() {
        let f = frame(b"hello");
        match read_frame(&f) {
            FrameOutcome::Valid { payload, consumed } => {
                assert_eq!(payload, b"hello");
                assert_eq!(consumed, f.len());
            }
            other => panic!("expected valid frame, got {other:?}"),
        }
        // In place after bytes already in the buffer: the same frame.
        let mut buf = b"head".to_vec();
        assert_eq!(frame_into(&mut buf, |b| b.extend_from_slice(b"hello")), 5);
        assert_eq!(&buf[..4], b"head");
        assert_eq!(&buf[4..], &f[..]);
    }

    #[test]
    fn torn_and_rotten_frames_classified() {
        let f = frame(b"payload");
        // Every strict prefix is torn, never a panic.
        for cut in 0..f.len() {
            assert_eq!(read_frame(&f[..cut]), FrameOutcome::Torn, "cut={cut}");
        }
        // A flipped payload bit is bit rot, with the frame length intact.
        let mut rotten = f.clone();
        rotten[5] ^= 0x10;
        assert_eq!(
            read_frame(&rotten),
            FrameOutcome::BitRot { consumed: f.len() }
        );
        // An absurd length prefix is torn, not an allocation attempt.
        let mut huge = f;
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(read_frame(&huge), FrameOutcome::Torn);
    }

    #[test]
    fn enc_dec_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.name("svc");
        e.u32(42);
        e.u64(1 << 40);
        e.entries(&[(5, 1), (9, 2)]);
        e.aliases(&[AliasEntry {
            bits: 0xff00,
            len: 48,
            week: 3,
        }]);
        e.u32_list(&[0, 3]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8(), Some(7));
        assert_eq!(d.name().as_deref(), Some("svc"));
        assert_eq!(d.u32(), Some(42));
        assert_eq!(d.u64(), Some(1 << 40));
        assert_eq!(d.entries(), Some(vec![(5, 1), (9, 2)]));
        assert_eq!(
            d.aliases(),
            Some(vec![AliasEntry {
                bits: 0xff00,
                len: 48,
                week: 3
            }])
        );
        assert_eq!(d.u32_list(), Some(vec![0, 3]));
        assert!(d.is_exhausted());
    }

    #[test]
    fn dec_rejects_corrupt_counts() {
        // A count claiming more items than bytes remain must not allocate.
        let mut e = Enc::new();
        e.u32(u32::MAX);
        let bytes = e.into_bytes();
        assert_eq!(Dec::new(&bytes).entries(), None);
        assert_eq!(Dec::new(&bytes).aliases(), None);
        assert_eq!(Dec::new(&bytes).u32_list(), None);
        assert_eq!(Dec::new(&[1, 2]).u32(), None);
    }
}
