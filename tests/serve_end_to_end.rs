//! Cross-crate integration: collect a hitlist from the simulator,
//! publish it through the v6serve ingestor, and query the
//! resulting store — the full collect → publish → serve → query loop.

use std::net::Ipv6Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ipv6_hitlists::addr::shard48;
use ipv6_hitlists::chaos::{NoChaos, ScriptedChaos, SiteScript};
use ipv6_hitlists::hitlist::collect::active::collect_hitlist;
use ipv6_hitlists::hitlist::{HitlistService, NtpCorpus};
use ipv6_hitlists::netsim::{SimDuration, SimTime, World, WorldConfig};
use ipv6_hitlists::scan::HitlistCampaignConfig;
use ipv6_hitlists::serve::{HitlistStore, Ingestor, PublicationUpdate, Snapshot, SnapshotBuilder};
use ipv6_hitlists::wire::proto::{Request, Response, WireLookup};
use ipv6_hitlists::wire::serve_request;

/// The front door's `Lookup` answer for `addr`, with its epoch.
fn lookup(snap: &Snapshot, addr: Ipv6Addr) -> (u64, WireLookup) {
    match serve_request(snap, Request::Lookup { addr: addr.into() }) {
        Response::Lookup { epoch, answer } => (epoch, answer),
        other => panic!("expected Lookup, got {other:?}"),
    }
}

#[test]
fn collect_publish_serve_query() {
    // Collect: a 3-week campaign on a tiny world.
    let world = World::build(WorldConfig::tiny(), 909);
    let hl = collect_hitlist(
        &world,
        0,
        &HitlistCampaignConfig {
            weeks: 3,
            ..Default::default()
        },
    );
    let service = HitlistService::from_campaign("integration", &hl.campaign);
    assert!(service.total_responsive() > 0, "campaign found nothing");

    // Publish: week by week, one epoch per update.
    let store = Arc::new(HitlistStore::new("integration", 4));
    let mut ingest = Ingestor::new(store.clone());
    for snap in &service.snapshots {
        ingest
            .submit(PublicationUpdate::Week {
                week: snap.week,
                addresses: snap.new_responsive.clone(),
            })
            .expect("in-memory publish");
    }
    ingest
        .submit(PublicationUpdate::Aliases {
            week: 0,
            prefixes: service.aliased.clone(),
        })
        .expect("in-memory publish");
    let stats = ingest.finish();
    assert_eq!(stats.updates, service.snapshots.len() as u64 + 1);
    assert_eq!(stats.unique_addresses, service.total_responsive());
    assert_eq!(stats.epochs_published, stats.updates);

    // Serve: the final snapshot matches the service's cumulative set.
    let snap = store.snapshot();
    assert!(snap.verify_integrity());
    assert_eq!(snap.len(), service.total_responsive());

    // Query: every published address answers, with its publication week.
    for weekly in &service.snapshots {
        for &a in &weekly.new_responsive {
            let (_, ans) = lookup(&snap, a);
            assert!(ans.present, "{a} missing from the served snapshot");
            assert_eq!(ans.first_week, Some(weekly.week as u32));
        }
    }
    // The alias list is served too.
    for p in &service.aliased {
        assert!(lookup(&snap, p.offset(1)).1.alias.is_some());
    }
    // Density totals across all /48s equal the full set.
    let mut nets: Vec<_> = service
        .responsive_as_of(u64::MAX)
        .iter()
        .map(|&a| ipv6_hitlists::addr::Prefix::of(a, 48))
        .collect();
    nets.dedup();
    let total: u64 = nets
        .iter()
        .map(
            |&prefix| match serve_request(&snap, Request::Density { prefix }) {
                Response::Count { value, .. } => value,
                other => panic!("expected Count, got {other:?}"),
            },
        )
        .sum();
    assert_eq!(total, service.total_responsive());

    // And two reader threads stay consistent while the next weekly
    // epoch lands under them: pre-built, so the publisher's only mid-run
    // work is validate + swap, and published once a quarter of the
    // readers' quota has been answered. Each reader resolves the store's
    // current snapshot per request and stops only after a request it
    // sent once the publish had returned, so the publish lands mid-run
    // (`published` is stored with Release after the swap and loaded with
    // Acquire before the request, which then resolves the new epoch).
    let quota = 50_000u64;
    let pool: Vec<Ipv6Addr> = snap
        .shards()
        .iter()
        .flat_map(|s| s.iter_bits().step_by(7))
        .map(Ipv6Addr::from)
        .collect();
    assert!(!pool.is_empty());
    let mut next = SnapshotBuilder::new(snap.name(), 4);
    next.merge_snapshot(&snap);
    for i in 0..1024u128 {
        next.add_bits(
            (0x2001_0db8u128 << 96) | (i << 40) | i,
            snap.week() as u32 + 1,
        );
    }
    let next = next.build();
    let answered = AtomicU64::new(0);
    let published = AtomicBool::new(false);
    let reader = |offset: usize| {
        // (answers from the first epoch, from a later one, absent)
        let mut seen = (0u64, 0u64, 0u64);
        for (i, &a) in pool.iter().cycle().skip(offset).enumerate() {
            let done = published.load(Ordering::Acquire);
            let (epoch, ans) = lookup(&store.snapshot(), a);
            answered.fetch_add(1, Ordering::Relaxed);
            if epoch > snap.epoch() {
                seen.1 += 1;
            } else {
                seen.0 += 1;
            }
            seen.2 += u64::from(!ans.present);
            if done && i as u64 + 1 >= quota {
                break;
            }
        }
        seen
    };
    let (seen, receipt) = std::thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            while answered.load(Ordering::Relaxed) < quota / 2 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            let receipt = store.publish(next);
            published.store(true, Ordering::Release);
            receipt.expect("mid-run publish must succeed")
        });
        let readers = [0, pool.len() / 2].map(|offset| scope.spawn(move || reader(offset)));
        let seen = readers
            .map(|r| r.join().expect("reader thread panicked"))
            .into_iter()
            .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
        (seen, publisher.join().expect("publisher thread panicked"))
    });
    assert!(seen.0 + seen.1 >= 2 * quota);
    assert_eq!(
        seen.2, 0,
        "a known-present address was reported absent during the run"
    );
    assert!(seen.0 > 0, "no answer predates the publish");
    assert!(
        seen.1 > 0,
        "no answer observed the new epoch; publish did not overlap the load"
    );
    let final_snap = store.snapshot();
    assert!(final_snap.verify_integrity(), "final snapshot corrupted");
    assert_eq!(final_snap.epoch(), receipt.epoch);
}

#[test]
fn degraded_epochs_surface_end_to_end() {
    // The full publication mix — active weekly releases plus the passive
    // NTP corpus — with one shard's merges failing permanently: the
    // store must keep publishing degraded epochs, the query API must
    // flag stale answers, and the ingest report must say exactly what
    // was lost.
    //
    // The two sources split the shard space naturally: campaign
    // discoveries sit in router and hosting /48s whose shard key is 0,
    // while passive client addresses live in delegated /48s spread
    // across every key — so quarantining a passive shard leaves the
    // campaign (and most of the corpus) as survivors.
    let world = World::build(WorldConfig::tiny(), 909);
    let hl = collect_hitlist(
        &world,
        0,
        &HitlistCampaignConfig {
            weeks: 3,
            ..Default::default()
        },
    );
    let service = HitlistService::from_campaign("degraded", &hl.campaign);
    let corpus = NtpCorpus::collect_with(&world, SimTime::START, SimDuration::days(7), 4, &NoChaos);

    // Everything published, deduplicated — the ground truth the served
    // content plus the loss report must add back up to.
    let mut union: Vec<u128> = service
        .responsive_as_of(u64::MAX)
        .iter()
        .map(|&a| u128::from(a))
        .chain(corpus.observations.iter().map(|o| o.addr))
        .collect();
    union.sort_unstable();
    union.dedup();

    // Quarantine the busiest non-zero shard so the campaign survives.
    let shard_bits = 3u32;
    let mut per_shard = vec![0u64; 1 << shard_bits];
    for &b in &union {
        per_shard[shard48(b, shard_bits)] += 1;
    }
    let target = (1..per_shard.len()).max_by_key(|&i| per_shard[i]).unwrap() as u32;
    let in_lost_shard = |b: u128| shard48(b, shard_bits) as u32 == target;
    let lost_count = per_shard[target as usize];
    assert!(
        lost_count > 0 && lost_count < union.len() as u64,
        "need both lost addresses and survivors; got {per_shard:?}"
    );

    let store = Arc::new(HitlistStore::new("degraded", 1 << shard_bits));
    let chaos = ScriptedChaos::new().with(format!("serve.shard.{target}"), SiteScript::permanent());
    // The three weekly epochs publish healthy (the campaign never
    // touches the poisoned shard), then the corpus epoch degrades.
    let mut ingest = Ingestor::with_chaos(store.clone(), Arc::new(chaos));
    for snap in &service.snapshots {
        ingest
            .submit(PublicationUpdate::Week {
                week: snap.week,
                addresses: snap.new_responsive.clone(),
            })
            .expect("in-memory publish");
    }
    ingest
        .submit(PublicationUpdate::from_corpus(&corpus))
        .expect("in-memory publish");
    let report = ingest.finish_report();

    // The loss is accounted, not silently dropped.
    assert!(!report.is_complete());
    assert_eq!(report.quarantined_shards, vec![target]);
    assert!(report.lost_updates.is_empty());
    assert_eq!(report.stats.epochs_published, 4);
    assert_eq!(report.stats.degraded_epochs, 1);
    let loss = report.loss().to_string();
    assert!(
        loss.starts_with(&format!("LOST serve.shard.{target} (")),
        "unexpected loss report: {loss}"
    );

    // The served epoch is degraded but internally consistent: what it
    // holds plus what the report lost is exactly what went in.
    let snap = store.snapshot();
    assert!(snap.verify_integrity());
    assert_eq!(snap.missing_shards(), &[target]);
    assert_eq!(snap.len() + lost_count, union.len() as u64);
    assert!(store.metrics().degraded_publishes() > 0);

    // Readers get the surviving shards' answers plus a Degraded status;
    // every answer touching the stale shard is flagged.
    match serve_request(&snap, Request::Status) {
        Response::Status { missing_shards, .. } => assert_eq!(missing_shards, vec![target]),
        other => panic!("expected Status, got {other:?}"),
    }
    let batch = serve_request(
        &snap,
        Request::Batch {
            addrs: union.clone(),
        },
    );
    let Response::Batch {
        missing_shards,
        answers,
        present,
        ..
    } = batch
    else {
        panic!("expected Batch, got {batch:?}");
    };
    assert_eq!(missing_shards, vec![target]);
    for (&b, ans) in union.iter().zip(&answers) {
        assert_eq!(ans.degraded, in_lost_shard(b), "{b:x}");
        assert_eq!(ans.present, !in_lost_shard(b), "{b:x}");
    }
    assert_eq!(present + lost_count, union.len() as u64);
}
