//! Immutable, sharded snapshots of one hitlist publication epoch.
//!
//! A [`Snapshot`] is the unit of publication: once built it is never
//! mutated, so any number of reader threads can query it without
//! synchronization while the ingestion pipeline assembles the next epoch.
//!
//! Addresses are partitioned into `2^shard_bits` [`Shard`]s keyed by the
//! *low* bits of each address's /48 prefix ([`v6addr::shard48`]): the high
//! bits would skew badly (announced space concentrates under `2000::/3`),
//! and keeping whole /48s shard-local makes a count inside a prefix of
//! /48 or longer a single-shard operation.
//!
//! Each shard stores its addresses as a [`CompressedRun`] — a
//! prefix-compressed sorted run that factors out the shared high-64 bits
//! real hitlists cluster under ("Clusters in the Expanse", IMC 2018) —
//! with a parallel first-published-week vector. Because the run is
//! sorted, the addresses inside any prefix form one rank range of it,
//! so every prefix count is two rank searches per shard it spans.
//! Aliased prefixes, at any length, live once per snapshot in one
//! [`PrefixMap`] for longest-prefix alias answers.
//!
//! A snapshot holds its shards as `Arc<Shard>` and its alias map as an
//! `Arc<PrefixMap>`, so the next epoch can be derived from this one by
//! [`Snapshot::apply_delta`]: shards the delta's addresses do not touch
//! are shared by pointer, a touched shard is rebuilt by one linear merge
//! of its run with its slice of the delta, and the alias map is copied
//! and patched only when the delta changes aliases.

use std::net::Ipv6Addr;
use std::sync::Arc;

use v6addr::{shard48, Prefix, PrefixMap};
use v6store::DeltaRecord;

/// Keys per step of a [`CompressedRun`]'s fence.
const FENCE: usize = 16;

/// A prefix-compressed sorted run of address bits.
///
/// The sorted `u128` addresses are factored into a sorted array of
/// *distinct* high-64 `keys`, each pointing (via `offsets`) at a dense
/// sorted block of low-64 `lows`. The address at global rank `i` is
/// `(keys[k] as u128) << 64 | lows[i]` where `k` is the block containing
/// `i`. Because hitlist addresses cluster under long shared /48–/64
/// prefixes, many addresses share one key, cutting the 16 bytes/address
/// of a raw `Vec<u128>` to 8 bytes plus an amortized per-key overhead.
///
/// A key search starts in `fence`, every 16th key: a sample small
/// enough to stay cache-resident (8 bytes per 16 keys) that narrows the
/// search to one 16-key window of `keys`, one or two cache lines, in
/// place of the last, cold levels of a search over all of them.
/// Membership then binary-searches one dense `lows` block. Ranks
/// returned by the search methods index the *global* run (and any
/// parallel vector such as a shard's first-week column) exactly as
/// indices into the old sorted vector did.
#[derive(Debug, Clone)]
pub struct CompressedRun {
    /// Distinct high-64 address bits, strictly ascending.
    keys: Vec<u64>,
    /// `fence[i] == keys[(i + 1) * FENCE]`: empty for a run of at most
    /// `FENCE` keys.
    fence: Vec<u64>,
    /// `keys.len() + 1` block boundaries into `lows`; `offsets[k]..offsets[k+1]`
    /// is key `k`'s block. `u32` caps one run at ~4.3B addresses, which the
    /// sharding keeps comfortably out of reach even at paper scale.
    offsets: Vec<u32>,
    /// Low-64 address bits, strictly ascending within each block.
    lows: Vec<u64>,
}

// Not derived: an empty run still needs the leading `0` offset sentinel
// (`offsets.len() == keys.len() + 1` always holds).
impl Default for CompressedRun {
    fn default() -> Self {
        CompressedRun {
            keys: Vec::new(),
            fence: Vec::new(),
            offsets: vec![0],
            lows: Vec::new(),
        }
    }
}

impl CompressedRun {
    /// An empty run with room for `keys` blocks holding `lows` addresses.
    fn with_capacity(keys: usize, lows: usize) -> CompressedRun {
        let mut offsets = Vec::with_capacity(keys + 1);
        offsets.push(0);
        CompressedRun {
            keys: Vec::with_capacity(keys),
            fence: Vec::with_capacity(keys / FENCE),
            offsets,
            lows: Vec::with_capacity(lows),
        }
    }

    /// Builds from strictly-ascending address bits.
    pub fn from_sorted(bits: impl Iterator<Item = u128>) -> CompressedRun {
        let mut run = CompressedRun::default();
        for b in bits {
            run.push(b);
        }
        run
    }

    /// Appends one address; must be strictly greater than the last.
    pub(crate) fn push(&mut self, bits: u128) {
        let hi = (bits >> 64) as u64;
        let lo = bits as u64;
        debug_assert!(
            self.lows.is_empty() || self.get(self.lows.len() - 1) < bits,
            "CompressedRun::push requires strictly ascending input"
        );
        if self.keys.last() != Some(&hi) {
            self.push_key(hi);
            self.offsets.push(self.lows.len() as u32);
        }
        self.lows.push(lo);
        assert!(
            self.lows.len() <= u32::MAX as usize,
            "CompressedRun exceeds u32 offset capacity"
        );
        *self.offsets.last_mut().expect("offsets never empty") = self.lows.len() as u32;
    }

    /// Appends a whole block under a key above every key already held;
    /// `lows` must be non-empty and strictly ascending.
    fn push_block(&mut self, hi: u64, lows: &[u64]) {
        debug_assert!(!lows.is_empty() && self.keys.last().is_none_or(|&last| last < hi));
        self.push_key(hi);
        self.lows.extend_from_slice(lows);
        assert!(
            self.lows.len() <= u32::MAX as usize,
            "CompressedRun exceeds u32 offset capacity"
        );
        self.offsets.push(self.lows.len() as u32);
    }

    /// Appends a key to `keys`, and to `fence` when it lands on a
    /// nonzero multiple of `FENCE`.
    fn push_key(&mut self, hi: u64) {
        if !self.keys.is_empty() && self.keys.len().is_multiple_of(FENCE) {
            self.fence.push(hi);
        }
        self.keys.push(hi);
    }

    /// Iterates `(rank of the block's first address, high-64 key, sorted
    /// low-64 block)` in ascending key order.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = (usize, u64, &[u64])> + '_ {
        self.keys.iter().enumerate().map(move |(k, &hi)| {
            let (start, end) = (self.offsets[k] as usize, self.offsets[k + 1] as usize);
            (start, hi, &self.lows[start..end])
        })
    }

    /// Number of addresses in the run.
    pub fn len(&self) -> usize {
        self.lows.len()
    }

    /// True when the run holds no addresses.
    pub fn is_empty(&self) -> bool {
        self.lows.is_empty()
    }

    /// Number of distinct high-64 keys (compression granularity).
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// The address at global rank `i` (ascending order).
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    pub fn get(&self, i: usize) -> u128 {
        let lo = self.lows[i];
        let k = self
            .offsets
            .partition_point(|&o| o as usize <= i)
            .saturating_sub(1);
        (u128::from(self.keys[k]) << 64) | u128::from(lo)
    }

    /// Iterates all addresses in ascending order.
    pub fn iter(&self) -> RunIter<'_> {
        RunIter {
            run: self,
            key: 0,
            pos: 0,
        }
    }

    /// `keys.binary_search(&hi)`, through the fence: the fence entries
    /// at or below `hi` name the one window of `keys` that holds `hi`
    /// or its insertion point.
    fn find_key(&self, hi: u64) -> Result<usize, usize> {
        let start = self.fence.partition_point(|&f| f <= hi) * FENCE;
        let end = (start + FENCE).min(self.keys.len());
        self.keys[start..end]
            .binary_search(&hi)
            .map(|k| start + k)
            .map_err(|k| start + k)
    }

    /// Global rank of `bits` when present: a fenced search for the key,
    /// then a binary search of its block.
    pub fn rank(&self, bits: u128) -> Option<usize> {
        let hi = (bits >> 64) as u64;
        let lo = bits as u64;
        let k = self.find_key(hi).ok()?;
        let base = self.offsets[k] as usize;
        let block = &self.lows[base..self.offsets[k + 1] as usize];
        block.binary_search(&lo).ok().map(|i| base + i)
    }

    /// Number of addresses strictly below `bits` (global partition point).
    pub fn rank_lower(&self, bits: u128) -> usize {
        self.rank_bound(bits, false)
    }

    /// Number of addresses at or below `bits`.
    pub fn rank_upper(&self, bits: u128) -> usize {
        self.rank_bound(bits, true)
    }

    fn rank_bound(&self, bits: u128, inclusive: bool) -> usize {
        let hi = (bits >> 64) as u64;
        let lo = bits as u64;
        match self.find_key(hi) {
            Ok(k) => {
                let base = self.offsets[k] as usize;
                let block = &self.lows[base..self.offsets[k + 1] as usize];
                let within = if inclusive {
                    block.partition_point(|&l| l <= lo)
                } else {
                    block.partition_point(|&l| l < lo)
                };
                base + within
            }
            // All blocks for keys < hi lie entirely below `bits`.
            Err(k) => self.offsets[k] as usize,
        }
    }

    /// Heap bytes of the compressed representation.
    pub fn heap_bytes(&self) -> usize {
        (self.keys.len() + self.fence.len()) * 8 + self.offsets.len() * 4 + self.lows.len() * 8
    }

    /// Structural invariants: strictly ascending keys sampled by the
    /// fence, monotone offsets bracketing `lows`, strictly ascending lows
    /// within each block.
    fn check_invariants(&self) -> bool {
        if !self
            .fence
            .iter()
            .eq(self.keys.iter().step_by(FENCE).skip(1))
            || self.offsets.len() != self.keys.len() + 1
            || self.offsets.first() != Some(&0)
            || self.offsets.last().copied() != Some(self.lows.len() as u32)
        {
            return false;
        }
        if !self.keys.windows(2).all(|w| w[0] < w[1]) {
            return false;
        }
        // Offsets strictly increase (no empty blocks), lows strictly
        // increase inside each block.
        self.offsets.windows(2).all(|w| {
            w[0] < w[1]
                && self.lows[w[0] as usize..w[1] as usize]
                    .windows(2)
                    .all(|l| l[0] < l[1])
        })
    }
}

/// Ascending iterator over a [`CompressedRun`]'s addresses.
#[derive(Debug, Clone)]
pub struct RunIter<'a> {
    run: &'a CompressedRun,
    /// Block the next address belongs to (once `pos` is inside it).
    key: usize,
    /// Global rank of the next address.
    pos: usize,
}

impl Iterator for RunIter<'_> {
    type Item = u128;

    #[inline]
    fn next(&mut self) -> Option<u128> {
        let lo = *self.run.lows.get(self.pos)?;
        // No block is empty, so this steps at most once.
        while self.pos >= self.run.offsets[self.key + 1] as usize {
            self.key += 1;
        }
        self.pos += 1;
        Some((u128::from(self.run.keys[self.key]) << 64) | u128::from(lo))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.run.lows.len() - self.pos;
        (left, Some(left))
    }
}

/// One partition of a snapshot: the addresses whose /48 low bits select it.
#[derive(Debug, Clone, Default)]
pub struct Shard {
    /// Prefix-compressed sorted, deduplicated address bits.
    pub(crate) run: CompressedRun,
    /// Parallel to the run's global ranks: study week each address was
    /// first published.
    pub(crate) first_week: Vec<u32>,
    /// `(week, newly published count)` pairs, ascending by week.
    pub(crate) week_counts: Vec<(u32, u64)>,
    /// The [`fold_addr`] sum over this shard's entries; a snapshot's
    /// content checksum is the wrapping sum of its shards'.
    pub(crate) checksum: u64,
}

impl Shard {
    /// Number of addresses in this shard.
    pub fn len(&self) -> usize {
        self.run.len()
    }

    /// True when the shard holds no addresses.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }

    /// The compressed address run.
    pub fn run(&self) -> &CompressedRun {
        &self.run
    }

    /// Iterates the sorted address bits.
    pub fn iter_bits(&self) -> RunIter<'_> {
        self.run.iter()
    }

    /// Exact membership of an address (by bits).
    pub fn contains_bits(&self, bits: u128) -> bool {
        self.run.rank(bits).is_some()
    }

    /// The week an address was first published, if present.
    pub fn first_week_of(&self, bits: u128) -> Option<u32> {
        self.run.rank(bits).map(|i| self.first_week[i])
    }

    /// Heap bytes of the address columns as stored (compressed run +
    /// first-week column).
    pub fn stored_bytes(&self) -> usize {
        self.run.heap_bytes() + self.first_week.len() * 4
    }

    /// Heap bytes the old raw representation would need for the same
    /// content: a `Vec<u128>` plus the `Vec<u32>` week column.
    pub fn raw_bytes(&self) -> usize {
        self.run.len() * (16 + 4)
    }

    /// Iterates the `(bits, first week)` entries in ascending order.
    pub fn entries(&self) -> impl Iterator<Item = (u128, u32)> + '_ {
        self.run.iter().zip(self.first_week.iter().copied())
    }

    /// Builds a shard from entries sorted by bits and deduplicated.
    fn from_sorted(entries: &[(u128, u32)]) -> Shard {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let mut shard = Shard {
            first_week: Vec::with_capacity(entries.len()),
            ..Shard::default()
        };
        for &(bits, week) in entries {
            shard.run.push(bits);
            shard.first_week.push(week);
            shard.checksum = fold_addr(shard.checksum, bits, week);
        }
        let mut weeks = shard.first_week.clone();
        weeks.sort_unstable();
        for w in weeks {
            match shard.week_counts.last_mut() {
                Some((last, n)) if *last == w => *n += 1,
                _ => shard.week_counts.push((w, 1)),
            }
        }
        shard
    }

    /// This shard with `removed` taken out and then `upserts` merged in
    /// (an upsert replaces the week of an address already present):
    /// one linear pass over the run and the two sorted slices, in which
    /// a key block the delta does not reach is copied whole. The
    /// checksum and the per-week counts move by one term per entry the
    /// delta changes, so they are independent of the full recomputation
    /// [`Snapshot::verify_integrity`] does on the result.
    fn merged(&self, removed: &[u128], upserts: &[(u128, u32)]) -> Shard {
        let mut m = ShardMerge {
            out: Shard {
                // Room for every upsert being a new address under a new key.
                run: CompressedRun::with_capacity(
                    self.run.key_count() + upserts.len(),
                    self.len() + upserts.len(),
                ),
                first_week: Vec::with_capacity(self.len() + upserts.len()),
                checksum: self.checksum,
                ..Shard::default()
            },
            weeks: (self.week_counts.iter())
                .map(|&(w, n)| (w, n as i64))
                .collect(),
        };
        let mut removed = removed.iter().copied().peekable();
        let mut upserts = upserts.iter().copied().peekable();
        for (start, hi, lows) in self.run.blocks() {
            let first = u128::from(hi) << 64;
            let last = first | u128::from(u64::MAX);
            // Addresses under keys this shard did not hold, and removals
            // of addresses it never held.
            while let Some((b, w)) = upserts.next_if(|u| u.0 < first) {
                m.add(b, w);
            }
            while removed.next_if(|&r| r < first).is_some() {}
            let weeks = &self.first_week[start..start + lows.len()];
            if removed.peek().is_none_or(|&r| r > last) && upserts.peek().is_none_or(|u| u.0 > last)
            {
                m.out.run.push_block(hi, lows);
                m.out.first_week.extend_from_slice(weeks);
                continue;
            }
            for (&lo, &week) in lows.iter().zip(weeks) {
                let bits = first | u128::from(lo);
                while let Some((b, w)) = upserts.next_if(|u| u.0 < bits) {
                    m.add(b, w);
                }
                while removed.next_if(|&r| r < bits).is_some() {}
                let dropped = removed.peek() == Some(&bits);
                match upserts.next_if(|u| u.0 == bits) {
                    Some((b, w)) => {
                        m.take(bits, week);
                        m.add(b, w);
                    }
                    None if dropped => m.take(bits, week),
                    None => {
                        m.out.run.push(bits);
                        m.out.first_week.push(week);
                    }
                }
            }
        }
        for (b, w) in upserts {
            m.add(b, w);
        }
        let ShardMerge { mut out, weeks } = m;
        out.week_counts = weeks
            .into_iter()
            .filter(|&(_, n)| n != 0)
            .map(|(w, n)| (w, n as u64))
            .collect();
        out
    }

    /// Addresses in `first..=last`: one rank range of the sorted run.
    fn count_between(&self, first: u128, last: u128) -> u64 {
        (self.run.rank_upper(last) - self.run.rank_lower(first)) as u64
    }
}

/// The output side of [`Shard::merged`]: the shard being assembled and
/// its per-week counts, the input shard's moved by what the delta adds
/// and takes — a handful of weeks, so a sorted `Vec`.
struct ShardMerge {
    out: Shard,
    weeks: Vec<(u32, i64)>,
}

impl ShardMerge {
    /// Appends an entry the delta brings.
    fn add(&mut self, bits: u128, week: u32) {
        self.out.run.push(bits);
        self.out.first_week.push(week);
        self.out.checksum = fold_addr(self.out.checksum, bits, week);
        self.tally(week, 1);
    }

    /// Accounts for an old entry the delta removes or replaces.
    fn take(&mut self, bits: u128, week: u32) {
        self.out.checksum = self
            .out
            .checksum
            .wrapping_sub(v6stream::content_term(bits, week));
        self.tally(week, -1);
    }

    /// Moves `week`'s count by `by`.
    fn tally(&mut self, week: u32, by: i64) {
        match self.weeks.binary_search_by_key(&week, |w| w.0) {
            Ok(i) => self.weeks[i].1 += by,
            Err(i) => self.weeks.insert(i, (week, by)),
        }
    }
}

/// One shard's slice of a change to a snapshot's addresses (see
/// [`Snapshot::with_changes`]): addresses to take out, and entries to
/// put in or re-date, both sorted by bits.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardChange {
    pub(crate) removed: Vec<u128>,
    pub(crate) upserts: Vec<(u128, u32)>,
}

/// Health of a published epoch, as surfaced to readers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeStatus {
    /// Every shard reflects all ingested updates.
    Ok,
    /// Some shards are quarantined: their content is the last good
    /// merge, not the latest updates. Readers still get answers — they
    /// are just possibly stale for addresses in these shards.
    Degraded {
        /// Shard indices whose latest updates are held in quarantine.
        missing_shards: Vec<u32>,
    },
}

/// An immutable view of one publication epoch.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) name: String,
    pub(crate) epoch: u64,
    pub(crate) week: u64,
    pub(crate) shard_bits: u32,
    pub(crate) shards: Vec<Arc<Shard>>,
    /// Every aliased prefix, at any length (week registered as value).
    pub(crate) aliases: Arc<PrefixMap<u32>>,
    pub(crate) total: u64,
    pub(crate) checksum: u64,
    /// Sorted indices of shards serving stale (pre-quarantine) content.
    pub(crate) missing_shards: Vec<u32>,
}

/// Order-independent content checksum over `(bits, week)` pairs.
///
/// The canonical definition lives in [`v6stream::fold_content`] — the
/// streaming analytics layer maintains this exact sum incrementally
/// (`± content_term` per delta entry) and uses it to verify each
/// [`v6store::DeltaRecord`] against its corpus mirror. Changing the
/// fold changes the wire/disk-visible `content_checksum` everywhere.
#[inline]
fn fold_addr(acc: u64, bits: u128, week: u32) -> u64 {
    v6stream::fold_content(acc, bits, week)
}

impl Snapshot {
    /// An empty snapshot (epoch 0) with `shard_count` shards.
    ///
    /// # Panics
    /// Panics unless `shard_count` is a power of two.
    pub fn empty(name: impl Into<String>, shard_count: usize) -> Self {
        assert!(
            shard_count.is_power_of_two(),
            "shard count must be a power of two, got {shard_count}"
        );
        let shard_bits = shard_count.trailing_zeros();
        // Immutable, so every index can share the one empty shard.
        let empty = Arc::new(Shard::default());
        Snapshot {
            name: name.into(),
            epoch: 0,
            week: 0,
            shard_bits,
            shards: vec![empty; shard_count],
            aliases: Arc::default(),
            total: 0,
            checksum: 0,
            missing_shards: Vec::new(),
        }
    }

    /// Builds from per-shard `(bits, week)` vectors that are already
    /// sorted by bits and deduplicated, plus `(prefix, week)` alias
    /// registrations. This is the O(n) path the builder and recovery use;
    /// the compressed run is assembled directly from the sorted stream,
    /// never materializing a raw `Vec<u128>`.
    pub(crate) fn from_sorted_parts(
        name: impl Into<String>,
        shard_bits: u32,
        shard_data: &[Vec<(u128, u32)>],
        aliases: &[(Prefix, u32)],
    ) -> Self {
        assert_eq!(shard_data.len(), 1usize << shard_bits);
        let shards: Vec<Shard> = shard_data
            .iter()
            .map(|data| Shard::from_sorted(data))
            .collect();
        let mut snap = Snapshot {
            name: name.into(),
            epoch: 0,
            week: 0,
            shard_bits,
            total: shards.iter().map(|s| s.len() as u64).sum(),
            checksum: shards.iter().fold(0, |acc, s| acc.wrapping_add(s.checksum)),
            shards: shards.into_iter().map(Arc::new).collect(),
            aliases: Arc::new(aliases.iter().copied().collect()),
            missing_shards: Vec::new(),
        };
        snap.week = snap.latest_first_week();
        snap
    }

    /// The next epoch: this snapshot with `delta` applied (remove, then
    /// upsert; aliases patched the same way), under the epoch, week and
    /// quarantine list the record carries.
    ///
    /// Shards the delta's addresses do not touch are shared with `self`
    /// by pointer; each touched shard is rebuilt by one linear merge.
    /// The alias map is shared too unless the delta changes aliases. The
    /// content checksum is carried forward as the commutative
    /// [`v6stream::fold_content`] sum, ± one term per changed entry, and
    /// must land on the checksum the record carries: `None` means it
    /// did not — the delta does not belong on this snapshot (a missed
    /// epoch, a corrupted record) and nothing was built.
    pub fn apply_delta(&self, delta: &DeltaRecord) -> Option<Snapshot> {
        let mut changes = vec![ShardChange::default(); self.shards.len()];
        for &bits in &delta.removed {
            changes[shard48(bits, self.shard_bits)].removed.push(bits);
        }
        for &(bits, week) in &delta.added {
            changes[shard48(bits, self.shard_bits)]
                .upserts
                .push((bits, week));
        }
        let mut next = self.with_changes(&changes);
        if !delta.removed_aliases.is_empty() || !delta.added_aliases.is_empty() {
            // Removals come first.
            let aliases = Arc::make_mut(&mut next.aliases);
            for &(bits, len) in &delta.removed_aliases {
                aliases.remove(&Prefix::from_bits(bits, len));
            }
            for a in &delta.added_aliases {
                aliases.insert(Prefix::from_bits(a.bits, a.len), a.week);
            }
        }
        next.epoch = delta.epoch;
        next.week = delta.week;
        next.missing_shards = delta.missing_shards.clone();
        (next.checksum == delta.content_checksum).then_some(next)
    }

    /// This snapshot with one [`ShardChange`] per shard applied, under
    /// the same name, epoch, week, aliases and quarantine list. A shard
    /// whose change is empty is shared with `self` by pointer; every
    /// other is rebuilt by [`Shard::merged`]; the total and the content
    /// checksum move by the difference of each rebuilt shard's.
    pub(crate) fn with_changes(&self, changes: &[ShardChange]) -> Snapshot {
        assert_eq!(changes.len(), self.shards.len());
        let mut next = self.clone();
        for (i, (prev, change)) in self.shards.iter().zip(changes).enumerate() {
            if change.removed.is_empty() && change.upserts.is_empty() {
                continue;
            }
            let shard = prev.merged(&change.removed, &change.upserts);
            next.total = next.total - prev.len() as u64 + shard.len() as u64;
            next.checksum = next
                .checksum
                .wrapping_sub(prev.checksum)
                .wrapping_add(shard.checksum);
            next.shards[i] = Arc::new(shard);
        }
        next
    }

    /// The latest first-published week any address carries (0 when
    /// empty) — the week a snapshot built from content alone reports.
    pub(crate) fn latest_first_week(&self) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.week_counts.last())
            .map(|&(w, _)| u64::from(w))
            .max()
            .unwrap_or(0)
    }

    /// The week `prefix` is registered as aliased from, if it is.
    pub(crate) fn alias_week(&self, prefix: &Prefix) -> Option<u32> {
        self.aliases.get(prefix).copied()
    }

    /// Service name this snapshot was published under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Publication sequence number (0 = never published).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Latest study week included.
    pub fn week(&self) -> u64 {
        self.week
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total addresses across all shards.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when no addresses are published.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The order-independent content checksum over `(bits, week)` pairs.
    ///
    /// Two snapshots with the same addresses and first-seen weeks have
    /// the same checksum regardless of how they were assembled — the
    /// equality the chaos suite uses to prove quarantine recovery
    /// restored the full content. The checksum is a function of content
    /// only: compressed and raw representations of the same set fold to
    /// the same value.
    pub fn content_checksum(&self) -> u64 {
        self.checksum
    }

    /// This epoch's health: `Ok`, or `Degraded` listing stale shards.
    pub fn status(&self) -> ServeStatus {
        if self.missing_shards.is_empty() {
            ServeStatus::Ok
        } else {
            ServeStatus::Degraded {
                missing_shards: self.missing_shards.clone(),
            }
        }
    }

    /// True when any shard is serving stale (quarantined) content.
    pub fn is_degraded(&self) -> bool {
        !self.missing_shards.is_empty()
    }

    /// Sorted indices of shards serving stale content.
    pub fn missing_shards(&self) -> &[u32] {
        &self.missing_shards
    }

    /// True when `addr` falls in a shard serving stale content.
    pub fn shard_missing(&self, addr: Ipv6Addr) -> bool {
        let i = shard48(u128::from(addr), self.shard_bits) as u32;
        self.missing_shards.binary_search(&i).is_ok()
    }

    /// The shards, in index order.
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// The shard an address belongs to.
    pub fn shard_for(&self, addr: Ipv6Addr) -> &Shard {
        &self.shards[shard48(u128::from(addr), self.shard_bits)]
    }

    /// Exact membership.
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        self.shard_for(addr).contains_bits(u128::from(addr))
    }

    /// [`Snapshot::contains`] under the name the frozen benchmark's
    /// `serve.snapshot.member` stage times.
    pub fn membership(&self, addr: Ipv6Addr) -> bool {
        self.contains(addr)
    }

    /// Heap bytes of the address columns as stored across all shards
    /// (compressed runs + week columns).
    pub fn stored_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.stored_bytes() as u64).sum()
    }

    /// Heap bytes the raw (uncompressed) representation would need.
    pub fn raw_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.raw_bytes() as u64).sum()
    }

    /// The week `addr` was first published, if it is in the hitlist.
    pub fn first_week(&self, addr: Ipv6Addr) -> Option<u32> {
        self.shard_for(addr).first_week_of(u128::from(addr))
    }

    /// Longest registered aliased prefix covering `addr`, if any.
    pub fn longest_alias(&self, addr: Ipv6Addr) -> Option<Prefix> {
        self.aliases.longest_match(addr).map(|(p, _)| p)
    }

    /// True when `addr` falls under a registered aliased prefix.
    pub fn is_aliased(&self, addr: Ipv6Addr) -> bool {
        self.longest_alias(addr).is_some()
    }

    /// Number of published addresses inside `prefix`: the rank range
    /// the prefix spans in each sorted run — in its one shard for a
    /// prefix of /48 or longer, summed over every shard for a shorter one.
    pub fn count_within(&self, prefix: &Prefix) -> u64 {
        let (first, last) = (prefix.bits(), u128::from(prefix.last()));
        match prefix.shard48(self.shard_bits) {
            Some(i) => self.shards[i].count_between(first, last),
            None => (self.shards.iter())
                .map(|s| s.count_between(first, last))
                .sum(),
        }
    }

    /// Number of addresses first published *after* study week `week` —
    /// the "what's new since the release I already hold" diff query.
    pub fn new_since(&self, week: u64) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let start = s
                    .week_counts
                    .partition_point(|&(w, _)| u64::from(w) <= week);
                s.week_counts[start..].iter().map(|&(_, n)| n).sum::<u64>()
            })
            .sum()
    }

    /// Recomputes every structural invariant and the content checksum.
    ///
    /// The store calls this before publishing; the end-to-end serving
    /// test calls it on the snapshot left after a publish under load to
    /// prove concurrent publication never exposed a torn view.
    pub fn verify_integrity(&self) -> bool {
        self.verify(None)
    }

    /// [`Snapshot::verify_integrity`], except that a shard shared by
    /// pointer (at the same index) with `verified` — a snapshot that
    /// already passed — is not walked again: it is immutable, so what
    /// held then holds now. Every other shard is fully checked.
    pub(crate) fn verify_since(&self, verified: &Snapshot) -> bool {
        self.verify(Some(verified))
    }

    fn verify(&self, verified: Option<&Snapshot>) -> bool {
        if self.shards.len() != 1usize << self.shard_bits {
            return false;
        }
        if self.missing_shards.windows(2).any(|w| w[0] >= w[1])
            || self
                .missing_shards
                .iter()
                .any(|&i| i as usize >= self.shards.len())
        {
            return false;
        }
        let mut checksum = 0u64;
        let mut total = 0u64;
        for (i, shard) in self.shards.iter().enumerate() {
            checksum = checksum.wrapping_add(shard.checksum);
            total += shard.run.len() as u64;
            if verified.is_some_and(|v| v.shards.get(i).is_some_and(|s| Arc::ptr_eq(s, shard))) {
                continue;
            }
            if !shard.run.check_invariants() {
                return false;
            }
            if shard.run.len() != shard.first_week.len() {
                return false;
            }
            let week_total: u64 = shard.week_counts.iter().map(|&(_, n)| n).sum();
            if week_total != shard.run.len() as u64 {
                return false;
            }
            let mut folded = 0u64;
            for (start, hi, lows) in shard.run.blocks() {
                // The shard key lies inside the /48, so inside the key.
                let first = u128::from(hi) << 64;
                if shard48(first, self.shard_bits) != i {
                    return false;
                }
                for (&lo, &w) in lows.iter().zip(&shard.first_week[start..]) {
                    folded = fold_addr(folded, first | u128::from(lo), w);
                }
            }
            if folded != shard.checksum {
                return false;
            }
        }
        checksum == self.checksum && total == self.total
    }
}

/// Sorts alias registrations by `(bits, len)` and keeps one per prefix,
/// the earliest week.
pub(crate) fn earliest_aliases(aliases: &mut Vec<(Prefix, u32)>) {
    aliases.sort_unstable_by_key(|&(p, w)| (p.bits(), p.len(), w));
    aliases.dedup_by_key(|&mut (p, _)| p);
}

/// Accumulates addresses and aliases, then builds a [`Snapshot`].
///
/// Accepts unsorted input with duplicates; duplicates keep their earliest
/// week (re-publishing an address in a later weekly release must not move
/// its first-seen week).
pub struct SnapshotBuilder {
    name: String,
    shard_bits: u32,
    pending: Vec<(u128, u32)>,
    aliases: Vec<(Prefix, u32)>,
    quarantined: Vec<u32>,
}

impl SnapshotBuilder {
    /// A builder for `shard_count` (power of two) shards.
    pub fn new(name: impl Into<String>, shard_count: usize) -> Self {
        assert!(
            shard_count.is_power_of_two(),
            "shard count must be a power of two, got {shard_count}"
        );
        SnapshotBuilder {
            name: name.into(),
            shard_bits: shard_count.trailing_zeros(),
            pending: Vec::new(),
            aliases: Vec::new(),
            quarantined: Vec::new(),
        }
    }

    /// Marks shards as quarantined in the built snapshot, yielding a
    /// `Degraded` status exactly as the ingest quarantine path does.
    /// Tests (and the wire front door's degraded-labeling suite) use
    /// this to build degraded epochs without staging an ingest failure.
    ///
    /// # Panics
    /// Panics if a shard index is out of range or the list is not
    /// strictly increasing.
    pub fn with_quarantined(mut self, shards: Vec<u32>) -> Self {
        let count = 1u32 << self.shard_bits;
        assert!(
            shards.windows(2).all(|w| w[0] < w[1]),
            "quarantined shard list must be strictly increasing"
        );
        assert!(
            shards.iter().all(|&s| s < count),
            "quarantined shard index out of range (shard count {count})"
        );
        self.quarantined = shards;
        self
    }

    /// Adds one address, first published in `week`.
    pub fn add_address(&mut self, addr: Ipv6Addr, week: u32) {
        self.pending.push((u128::from(addr), week));
    }

    /// Adds raw address bits, first published in `week`.
    pub fn add_bits(&mut self, bits: u128, week: u32) {
        self.pending.push((bits, week));
    }

    /// Registers an aliased prefix (seen from `week` on).
    pub fn add_alias(&mut self, prefix: Prefix, week: u32) {
        self.aliases.push((prefix, week));
    }

    /// Re-adds everything from an existing snapshot (incremental rebuild).
    pub fn merge_snapshot(&mut self, snap: &Snapshot) {
        for shard in &snap.shards {
            self.pending.extend(shard.entries());
        }
        self.aliases
            .extend(snap.aliases.iter().map(|(prefix, &week)| (prefix, week)));
    }

    /// Builds the snapshot (epoch 0 until published through a store).
    pub fn build(mut self) -> Snapshot {
        // Radix-sorting by (bits, week) makes the earliest week the first
        // entry of each equal-bits run, so dedup-keep-first is
        // dedup-keep-min. The radix kernel is exact-equivalent to
        // `sort_unstable` for these integer pairs.
        v6par::radix_sort_by_key(&mut self.pending, |&(b, w)| (b, u64::from(w)));
        self.pending.dedup_by_key(|&mut (b, _)| b);

        let mut shard_data: Vec<Vec<(u128, u32)>> = vec![Vec::new(); 1usize << self.shard_bits];
        for &(b, w) in &self.pending {
            shard_data[shard48(b, self.shard_bits)].push((b, w));
        }
        earliest_aliases(&mut self.aliases);
        let mut snap =
            Snapshot::from_sorted_parts(self.name, self.shard_bits, &shard_data, &self.aliases);
        snap.missing_shards = self.quarantined;
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn sample() -> Snapshot {
        let mut b = SnapshotBuilder::new("test", 4);
        for (a, week) in [
            ("2001:db8:1::1", 0),
            ("2001:db8:1::2", 0),
            ("2001:db8:2::1", 0),
            ("2001:db8:3::1", 2),
            ("2001:db8:1::1", 2),
        ] {
            b.add_address(addr(a), week);
        }
        b.add_alias(pfx("2001:db8:2::/48"), 0);
        b.build()
    }

    #[test]
    fn membership_and_first_week() {
        let s = sample();
        assert_eq!(s.len(), 4);
        assert!(s.contains(addr("2001:db8:1::1")));
        assert!(!s.contains(addr("2001:db8:9::1")));
        // Duplicate re-publication in week 2 keeps the week-0 first-seen.
        assert_eq!(s.first_week(addr("2001:db8:1::1")), Some(0));
        assert_eq!(s.first_week(addr("2001:db8:3::1")), Some(2));
        assert_eq!(s.first_week(addr("2001:db8:9::1")), None);
        assert_eq!(s.week(), 2);
    }

    #[test]
    fn compressed_run_round_trips_and_ranks() {
        let bits: Vec<u128> = vec![
            (1u128 << 64) | 5,
            (1u128 << 64) | 9,
            (2u128 << 64),
            (2u128 << 64) | u128::from(u64::MAX),
            (7u128 << 64) | 3,
        ];
        let run = CompressedRun::from_sorted(bits.iter().copied());
        assert_eq!(run.len(), 5);
        assert_eq!(run.key_count(), 3);
        assert_eq!(run.iter().collect::<Vec<_>>(), bits);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(run.get(i), b);
            assert_eq!(run.rank(b), Some(i));
            assert_eq!(run.rank_lower(b), i);
            assert_eq!(run.rank_upper(b), i + 1);
        }
        assert_eq!(run.rank((1u128 << 64) | 6), None);
        assert_eq!(run.rank_lower(1u128 << 64), 0);
        assert_eq!(run.rank_lower(3u128 << 64), 4);
        assert_eq!(run.rank_upper(u128::MAX), 5);
        // 5 lows × 8 + 3 keys × 8 + 4 offsets × 4 = 80: even this barely
        // clustered run (1.7 addrs/key) matches 5 × 16 raw; real
        // clustering wins outright (see stored_bytes_beat_raw_* below).
        assert_eq!(run.heap_bytes(), bits.len() * 16);
    }

    #[test]
    fn a_stale_fence_entry_fails_verification() {
        let mut b = SnapshotBuilder::new("test", 1);
        // 40 /64 keys: the fence samples keys 16 and 32.
        for net in 0..40u32 {
            b.add_address(addr(&format!("2001:db8:0:{net:x}::1")), 0);
        }
        let s = b.build();
        let run = &s.shards[0].run;
        assert_eq!(run.fence, [run.keys[16], run.keys[32]]);
        assert_eq!(run.heap_bytes(), (40 + 2) * 8 + 41 * 4 + 40 * 8);
        assert!(run.check_invariants() && s.verify_integrity());

        let mut broken = s;
        let run = &mut Arc::make_mut(&mut broken.shards[0]).run;
        run.fence[1] = run.keys[31];
        assert!(!run.check_invariants());
        assert!(!broken.verify_integrity());
    }

    #[test]
    fn alias_lookup_is_longest_match() {
        let mut b = SnapshotBuilder::new("test", 4);
        b.add_address(addr("2001:db8:2::1"), 0);
        b.add_alias(pfx("2001:db8::/32"), 0);
        b.add_alias(pfx("2001:db8:2::/48"), 1);
        let s = b.build();
        assert_eq!(
            s.longest_alias(addr("2001:db8:2::1")),
            Some(pfx("2001:db8:2::/48"))
        );
        assert_eq!(
            s.longest_alias(addr("2001:db8:7::1")),
            Some(pfx("2001:db8::/32"))
        );
        assert!(s.is_aliased(addr("2001:db8:ffff::1")));
        assert!(!s.is_aliased(addr("2001:db9::1")));
    }

    #[test]
    fn counts_and_diffs() {
        let s = sample();
        assert_eq!(s.count_within(&pfx("2001:db8:1::/48")), 2);
        assert_eq!(s.count_within(&pfx("2001:db8::/32")), 4);
        assert_eq!(s.count_within(&pfx("2001:db8:1::/64")), 2);
        assert_eq!(s.count_within(&pfx("2001:db9::/32")), 0);
        assert_eq!(s.new_since(0), 1); // only 2001:db8:3::1 is newer
        assert_eq!(s.new_since(2), 0);
    }

    #[test]
    fn integrity_detects_corruption() {
        let s = sample();
        assert!(s.verify_integrity());
        let mut broken = s.clone();
        let shard = broken.shards.iter_mut().find(|sh| !sh.is_empty()).unwrap();
        Arc::make_mut(shard).first_week[0] ^= 1;
        assert!(!broken.verify_integrity());

        let mut broken = s;
        broken.total += 1;
        assert!(!broken.verify_integrity());
    }

    #[test]
    fn apply_delta_shares_untouched_shards_and_rewalks_rebuilt_ones() {
        let s = sample();
        let gone = u128::from(addr("2001:db8:1::2"));
        let new = u128::from(addr("2001:db8:1::9"));
        let moved = (u128::from(addr("2001:db8:1::1")), 3);
        let mut checksum = s.content_checksum();
        checksum = checksum.wrapping_sub(v6stream::content_term(gone, 0));
        checksum = checksum.wrapping_sub(v6stream::content_term(moved.0, 0));
        checksum = fold_addr(fold_addr(checksum, new, 4), moved.0, moved.1);
        let delta = DeltaRecord {
            epoch: 2,
            week: 4,
            content_checksum: checksum,
            missing_shards: vec![],
            removed: vec![gone],
            added: vec![moved, (new, 4)],
            removed_aliases: vec![],
            added_aliases: vec![],
        };
        let next = s.apply_delta(&delta).expect("checksum carried forward");
        assert_eq!(next.len(), 4);
        assert_eq!(next.first_week(addr("2001:db8:1::1")), Some(3));
        assert!(!next.contains(addr("2001:db8:1::2")));
        assert_eq!(next.new_since(2), 2);
        assert_eq!(next.count_within(&pfx("2001:db8:1::/48")), 2);

        // Only 2001:db8:1::/48's shard was rebuilt; the rest are the
        // previous epoch's, and a verify against it walks only that one.
        let touched = shard48(gone, s.shard_bits);
        for i in 0..s.shard_count() {
            assert_eq!(Arc::ptr_eq(&s.shards[i], &next.shards[i]), i != touched);
        }
        assert!(next.verify_since(&s) && next.verify_integrity());
        let mut broken = next.clone();
        Arc::make_mut(&mut broken.shards[touched]).first_week[0] ^= 1;
        assert!(!broken.verify_since(&s));

        let mut forged = delta;
        forged.content_checksum ^= 1;
        assert!(s.apply_delta(&forged).is_none());
    }

    #[test]
    fn stored_bytes_beat_raw_on_clustered_content() {
        let mut b = SnapshotBuilder::new("test", 4);
        // 32 /64s × 512 structured IIDs: the clustering real hitlists show.
        for net in 0..32u32 {
            for iid in 0..512u32 {
                b.add_address(addr(&format!("2001:db8:{net:x}::{iid:x}")), 0);
            }
        }
        let s = b.build();
        assert_eq!(s.len(), 32 * 512);
        let ratio = s.stored_bytes() as f64 / s.raw_bytes() as f64;
        assert!(ratio < 0.7, "compression ratio {ratio} not under 0.7");
    }

    #[test]
    fn shard_counts_agree() {
        for shard_count in [1usize, 4, 16] {
            let mut b = SnapshotBuilder::new("test", shard_count);
            for i in 0..200u32 {
                b.add_address(addr(&format!("2001:db8:{:x}::{:x}", i % 23, i)), i % 5);
            }
            let s = b.build();
            assert_eq!(s.shard_count(), shard_count);
            assert_eq!(s.len(), 200);
            assert!(s.verify_integrity());
            let per_shard: u64 = s.shards().iter().map(|sh| sh.len() as u64).sum();
            assert_eq!(per_shard, 200);
        }
    }
}
