//! Ingest ≡ batch.
//!
//! The ingestor keeps no copy of the corpus beside the snapshot it
//! last built: each update is filtered against that snapshot and the
//! snapshot is carried forward through what is left. That is only sound
//! if, whatever the order and overlap of the updates, the store ends up
//! serving exactly what one [`SnapshotBuilder`] build over the union of
//! everything submitted would — and if an epoch really shares with its
//! predecessor every shard whose addresses the update did not change
//! (aliases live in the snapshot's one alias map, not in a shard).
//!
//! The universe is small (8 /48s × 2 subnets × 8 IIDs over 4 shards, 6
//! weeks) so updates keep re-publishing held addresses at earlier and
//! later weeks, and one shard starts out quarantined so runs pile up
//! and are released together.
//!
//! Every epoch is checked, not only the last: the `k`-th epoch the
//! ingestor publishes must hold exactly updates `0..=k` in every shard
//! it does not mark missing. The store runs with streaming analytics
//! on, and its operators must sit at the served epoch on a batch build
//! over the served content.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv6Addr;
use std::sync::Arc;

use proptest::prelude::*;

use v6addr::{shard48, Prefix};
use v6chaos::{ScriptedChaos, SiteScript};
use v6serve::persist::flatten_snapshot;
use v6serve::{HitlistStore, Ingestor, PublicationUpdate, Snapshot, SnapshotBuilder, StoreConfig};
use v6stream::{country_code, Analytics, AsTag, PrefixAsTable, SharedResolver};

const SHARDS: usize = 4;
const SHARD_BITS: u32 = 2;
const BASE: u128 = 0x2001_0db8 << 96;
const WEEK_SECS: u32 = 7 * 86_400;

fn bits() -> impl Strategy<Value = u128> {
    (0u128..8, 0u128..2, 0u128..8)
        .prop_map(|(net48, subnet, iid)| BASE | (net48 << 80) | (subnet << 64) | iid)
}

/// An alias under one of the universe's /48s — or above them all: a /32
/// spans every shard, /48 and /64 lie in one.
fn alias() -> impl Strategy<Value = Prefix> {
    (0u128..8, 0usize..3).prop_map(|(net48, len)| {
        let len = [32u8, 48, 64][len];
        Prefix::from_bits((BASE | (net48 << 80)) & Prefix::mask(len), len)
    })
}

/// One update in model form: the week it carries, its addresses (with a
/// second-granularity offset, used by the passive shape) and aliases.
#[derive(Debug, Clone)]
struct Update {
    kind: u8,
    week: u32,
    addrs: Vec<(u128, u32)>,
    aliases: Vec<Prefix>,
}

fn update() -> impl Strategy<Value = Update> {
    (
        0u8..3,
        0u32..6,
        proptest::collection::vec((bits(), 0u32..6), 0..24),
        proptest::collection::vec(alias(), 1..3),
    )
        .prop_map(|(kind, week, addrs, aliases)| Update {
            kind,
            week,
            addrs,
            aliases,
        })
}

impl Update {
    /// The `(bits, week)` entries this update contributes to the union.
    fn entries(&self) -> Vec<(u128, u32)> {
        match self.kind {
            0 => self.addrs.iter().map(|&(b, _)| (b, self.week)).collect(),
            // Passive observations carry their own week each.
            1 => self.addrs.clone(),
            _ => vec![],
        }
    }

    /// The `(prefix, week)` aliases it contributes.
    fn alias_weeks(&self) -> Vec<(Prefix, u32)> {
        match self.kind {
            0 | 1 => vec![],
            _ => self.aliases.iter().map(|&p| (p, self.week)).collect(),
        }
    }

    fn publication(&self) -> PublicationUpdate {
        match self.kind {
            0 => PublicationUpdate::Week {
                week: u64::from(self.week),
                addresses: self.addrs.iter().map(|&(b, _)| Ipv6Addr::from(b)).collect(),
            },
            1 => PublicationUpdate::Passive {
                observations: self
                    .addrs
                    .iter()
                    .map(|&(b, w)| (b, w * WEEK_SECS + 17))
                    .collect(),
            },
            _ => PublicationUpdate::Aliases {
                week: u64::from(self.week),
                prefixes: self.aliases.clone(),
            },
        }
    }
}

/// One batch build over the union of `updates`.
fn build_over(updates: &[Update]) -> Snapshot {
    let mut union = SnapshotBuilder::new("eq", SHARDS);
    for update in updates {
        for (b, w) in update.entries() {
            union.add_bits(b, w);
        }
        for (p, w) in update.alias_weeks() {
            union.add_alias(p, w);
        }
    }
    union.build()
}

fn resolver() -> SharedResolver {
    Arc::new(PrefixAsTable::new(vec![(
        BASE,
        32,
        AsTag {
            index: 1,
            country: country_code(*b"DE"),
        },
    )]))
}

/// Submits one update and returns the epoch it produced.
fn ingest_one(ingest: &mut Ingestor, store: &HitlistStore, update: &Update) -> Arc<Snapshot> {
    let before = store.epoch();
    ingest
        .submit(update.publication())
        .expect("in-memory publish");
    // Every submitted update publishes exactly one epoch before
    // `submit` returns.
    assert_eq!(store.epoch(), before + 1);
    store.snapshot()
}

proptest! {
    #[test]
    fn ingest_matches_one_build_over_the_union(
        updates in proptest::collection::vec(update(), 1..10),
        quarantined in 0usize..SHARDS,
        failures in 0u32..4,
    ) {
        let store = Arc::new(HitlistStore::new("eq", SHARDS));
        store.enable_analytics(resolver());
        let chaos = ScriptedChaos::new().with(
            format!("serve.shard.{quarantined}"),
            SiteScript::transient(failures),
        );
        let mut ingest = Ingestor::with_chaos(store.clone(), Arc::new(chaos));

        // The union's content merged update by update (earliest week
        // wins).
        let mut held: BTreeMap<u128, u32> = BTreeMap::new();
        let mut submitted_distinct = 0u64;

        let mut prev = store.snapshot();
        for (k, update) in updates.iter().enumerate() {
            let entries = update.entries();
            // Shards whose addresses this update changes when nothing is
            // quarantined, and shards it carries any address for at all.
            let mut changed = BTreeSet::new();
            let mut carried = BTreeSet::new();
            let mut earliest: BTreeMap<u128, u32> = BTreeMap::new();
            for &(b, w) in &entries {
                let e = earliest.entry(b).or_insert(w);
                *e = (*e).min(w);
            }
            submitted_distinct += earliest.len() as u64;
            for (&b, &w) in &earliest {
                carried.insert(shard48(b, SHARD_BITS));
                if held.get(&b).is_none_or(|&old| w < old) {
                    held.insert(b, w);
                    changed.insert(shard48(b, SHARD_BITS));
                }
            }

            let next = ingest_one(&mut ingest, &store, update);
            prop_assert!(next.verify_integrity());
            // The epoch holds exactly updates 0..=k: every shard it does
            // not mark missing is that shard of one build over them, and
            // its aliases are those of the build, whatever is quarantined.
            let upto = build_over(&updates[..=k]);
            for i in 0..SHARDS {
                if !next.missing_shards().contains(&(i as u32)) {
                    prop_assert!(
                        next.shards()[i].entries().eq(upto.shards()[i].entries()),
                        "shard {} differs from updates 0..=k", i
                    );
                }
            }
            prop_assert_eq!(flatten_snapshot(&next).1, flatten_snapshot(&upto).1);
            // Read under the operators' lock, which a publish holds
            // across its swap and its fold.
            let (at, served, sums) = store
                .analytics(|epoch, ops| (epoch, store.snapshot(), ops.checksums()))
                .expect("analytics enabled");
            prop_assert_eq!(at, served.epoch());
            let batch = Analytics::from_entries(resolver(), &flatten_snapshot(&served).0);
            prop_assert_eq!(sums, batch.checksums());
            for i in 0..SHARDS {
                let shared = Arc::ptr_eq(&prev.shards()[i], &next.shards()[i]);
                if failures == 0 {
                    // No quarantine: an epoch rebuilds exactly the
                    // shards whose addresses the update changes.
                    prop_assert_eq!(shared, !changed.contains(&i), "shard {}", i);
                } else if i == quarantined && next.missing_shards().contains(&(i as u32)) {
                    // Held in quarantine: last good content, untouched.
                    prop_assert!(shared, "quarantined {}", i);
                } else if i != quarantined && !carried.contains(&i) {
                    prop_assert!(shared, "shard {} rebuilt by an update that skipped it", i);
                }
            }
            prev = next;
        }

        let report = ingest.finish_report();
        prop_assert!(report.is_complete(), "{:?}", report);
        let got = store.snapshot();
        let want = build_over(&updates);
        prop_assert!(got.verify_integrity());
        prop_assert!(!got.is_degraded());
        prop_assert_eq!(got.content_checksum(), want.content_checksum());
        prop_assert_eq!(got.len(), want.len());
        prop_assert_eq!(got.week(), want.week());
        for w in 0..7 {
            prop_assert_eq!(got.new_since(w), want.new_since(w), "new_since({})", w);
        }
        // Every entry with its first week, every alias with its week.
        prop_assert_eq!(flatten_snapshot(&got), flatten_snapshot(&want));
        for (&b, &w) in &held {
            prop_assert_eq!(got.first_week(Ipv6Addr::from(b)), Some(w));
        }
        prop_assert_eq!(report.stats.unique_addresses, held.len() as u64);
        prop_assert_eq!(report.stats.duplicates, submitted_distinct - held.len() as u64);
        prop_assert_eq!(report.stats.updates, updates.len() as u64);
    }
}

/// An `Ingestor` created on a store that already serves content builds
/// on that content: a store recovered from disk (or published through a
/// `SnapshotBuilder`) keeps every earlier address under its original
/// first week, and every alias, when one more week is ingested.
#[test]
fn ingest_on_a_recovered_store_keeps_what_it_served() {
    let dir = v6store::scratch_dir("serve-ingest-recovered");
    let cfg = StoreConfig::new(&dir).with_fsync(false);
    let addr =
        |net: u32, iid: u32| -> Ipv6Addr { format!("2001:db8:{net:x}::{iid:x}").parse().unwrap() };
    let alias: Prefix = "2001:db8:2::/48".parse().unwrap();
    let wide: Prefix = "2001:db8::/32".parse().unwrap();
    {
        let store = HitlistStore::persistent("svc", SHARDS, cfg.clone()).unwrap();
        for week in 0..3u32 {
            let mut b = SnapshotBuilder::new("svc", SHARDS);
            for w in 0..=week {
                for net in 0..4 {
                    b.add_address(addr(net, w + 1), w);
                }
            }
            b.add_alias(alias, 0);
            b.add_alias(wide, 1);
            store.publish(b.build()).unwrap();
        }
        assert_eq!(store.epoch(), 3);
    }

    let (store, report) = HitlistStore::recover(cfg).unwrap();
    assert_eq!(report.recovered_epoch, 3);
    let store = Arc::new(store);
    let before = store.snapshot();
    let mut ingest = Ingestor::new(store.clone());
    ingest
        .submit(PublicationUpdate::Week {
            week: 3,
            // One new address and one re-publication of a week-0 one.
            addresses: vec![addr(1, 9), addr(0, 1)],
        })
        .unwrap();
    let stats = ingest.finish();

    let after = store.snapshot();
    assert_eq!(after.epoch(), 4);
    assert_eq!(stats.unique_addresses, 13);
    assert_eq!(stats.duplicates, 1);
    assert_eq!(after.len(), before.len() + 1);
    assert_eq!(after.first_week(addr(1, 9)), Some(3));
    for (bits, week) in flatten_snapshot(&before).0 {
        assert_eq!(after.first_week(Ipv6Addr::from(bits)), Some(week));
    }
    assert_eq!(flatten_snapshot(&after).1, flatten_snapshot(&before).1);
    assert!(after.is_aliased(addr(2, 77)) && after.is_aliased(addr(9, 1)));
    // Only the new address's shard was rebuilt.
    let touched = shard48(u128::from(addr(1, 9)), SHARD_BITS);
    for i in 0..SHARDS {
        assert_eq!(
            Arc::ptr_eq(&before.shards()[i], &after.shards()[i]),
            i != touched
        );
    }
    assert!(after.verify_integrity());

    // And the log agrees: a second recovery lands on the same content.
    drop(store);
    let rec = v6store::recover(&dir).unwrap();
    assert_eq!(rec.state.epoch, 4);
    assert_eq!(rec.state.content_checksum, after.content_checksum());
    let _ = std::fs::remove_dir_all(&dir);
}
