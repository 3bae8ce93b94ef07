//! Cross-crate integration: collect a hitlist from the simulator,
//! publish it through the v6serve ingestion pipeline, and query the
//! resulting store — the full collect → publish → serve → query loop.

use std::sync::Arc;

use ipv6_hitlists::addr::shard48;
use ipv6_hitlists::chaos::{ScriptedChaos, SiteScript};
use ipv6_hitlists::hitlist::collect::active::collect_hitlist;
use ipv6_hitlists::hitlist::{HitlistService, NtpCorpus};
use ipv6_hitlists::netsim::{SimDuration, SimTime, World, WorldConfig};
use ipv6_hitlists::scan::HitlistCampaignConfig;
use ipv6_hitlists::serve::{
    loadgen, HitlistStore, Ingestor, LoadSpec, PublicationUpdate, QueryEngine, ServeStatus,
    SnapshotBuilder,
};

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

    // Publish: week by week through the concurrent ingestion pipeline.
    let store = Arc::new(HitlistStore::new("integration", 4));
    let ingest = Ingestor::default().spawn(store.clone());
    for snap in &service.snapshots {
        ingest
            .submit(PublicationUpdate::Week {
                week: snap.week,
                addresses: snap.new_responsive.clone(),
            })
            .expect("ingest pipeline alive");
    }
    ingest
        .submit(PublicationUpdate::Aliases {
            week: 0,
            prefixes: service.aliased.clone(),
        })
        .expect("ingest pipeline alive");
    let stats = ingest.finish();
    assert_eq!(stats.updates, service.snapshots.len() as u64 + 1);
    assert_eq!(stats.unique_addresses, service.total_responsive());
    assert_eq!(stats.epochs_published, stats.updates);

    // Serve: the final snapshot matches the service's cumulative set.
    let snap = store.snapshot();
    assert!(snap.verify_integrity());
    assert_eq!(snap.len(), service.total_responsive());
    let engine = QueryEngine::new(store.clone());

    // Query: every published address answers, with its publication week.
    for weekly in &service.snapshots {
        for &a in &weekly.new_responsive {
            let ans = engine.lookup(a);
            assert!(ans.present, "{a} missing from the served snapshot");
            assert_eq!(ans.first_week, Some(weekly.week as u32));
        }
    }
    // The alias list is served too.
    for p in &service.aliased {
        assert!(engine.lookup(p.offset(1)).alias.is_some());
    }
    // Density totals across all /48s equal the full set.
    let mut nets: Vec<_> = service
        .responsive_as_of(u64::MAX)
        .iter()
        .map(|&a| ipv6_hitlists::addr::Prefix::of(a, 48))
        .collect();
    nets.dedup();
    let total: u64 = nets.iter().map(|p| engine.count_within(p)).sum();
    assert_eq!(total, service.total_responsive());

    // And a small deterministic load run stays consistent while the next
    // weekly epoch lands under it: pre-built, so the publisher's only
    // mid-run work is validate + swap, and published once a quarter of
    // the queries have been served.
    let queries = 200_000;
    let mut next = SnapshotBuilder::new(snap.name(), 4);
    next.merge_snapshot(&snap);
    for i in 0..1024u128 {
        next.add_bits(
            (0x2001_0db8u128 << 96) | (i << 40) | i,
            snap.week() as u32 + 1,
        );
    }
    let next = next.build();
    let threshold = store.metrics().queries_total() + queries / 4;
    let (report, receipt) = std::thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            while store.metrics().queries_total() < threshold {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            store.publish(next).expect("mid-run publish must succeed")
        });
        let report = loadgen::run(
            &engine,
            &LoadSpec {
                queries,
                threads: 2,
                ..Default::default()
            },
        );
        (report, publisher.join().expect("publisher thread panicked"))
    });
    assert!(report.queries >= queries);
    assert_eq!(
        report.verification_failures, 0,
        "a known-present address was reported absent during the run"
    );
    assert!(report.present_hits > 0);
    assert!(
        report.last_epoch > report.first_epoch,
        "the weekly publish did not land during the run"
    );
    assert!(
        report.queries_after_publish > 0,
        "no query observed the new epoch; publish did not overlap the load"
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
    let corpus = NtpCorpus::collect_with_threads(&world, SimTime::START, SimDuration::days(7), 4);

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
    // One worker keeps the merge order deterministic: the three weekly
    // epochs publish healthy (the campaign never touches the poisoned
    // shard), then the corpus epoch degrades.
    let ingest = Ingestor {
        workers: 1,
        queue_capacity: 8,
    }
    .spawn_chaos(store.clone(), Arc::new(chaos));
    for snap in &service.snapshots {
        ingest
            .submit(PublicationUpdate::Week {
                week: snap.week,
                addresses: snap.new_responsive.clone(),
            })
            .expect("ingest pipeline alive");
    }
    ingest
        .submit(PublicationUpdate::from_corpus(&corpus))
        .expect("ingest pipeline alive");
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
    let engine = QueryEngine::new(store.clone());
    assert_eq!(
        engine.status(),
        ServeStatus::Degraded {
            missing_shards: vec![target]
        }
    );
    let queries: Vec<std::net::Ipv6Addr> =
        union.iter().map(|&b| std::net::Ipv6Addr::from(b)).collect();
    let batch = engine.batch_lookup(&queries);
    assert_eq!(
        batch.status,
        ServeStatus::Degraded {
            missing_shards: vec![target]
        }
    );
    for (&b, ans) in union.iter().zip(&batch.answers) {
        assert_eq!(ans.degraded, in_lost_shard(b), "{b:x}");
        assert_eq!(ans.present, !in_lost_shard(b), "{b:x}");
    }
    assert_eq!(batch.present + lost_count, union.len() as u64);
}
