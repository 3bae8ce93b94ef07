//! Serving a hitlist: turn a campaign's weekly publications into a
//! concurrently queryable store and ask it the questions a hitlist
//! consumer would.
//!
//! ```sh
//! cargo run --release --example serve_hitlist
//! ```

use std::sync::Arc;

use ipv6_hitlists::addr::Prefix;
use ipv6_hitlists::hitlist::collect::active::collect_hitlist;
use ipv6_hitlists::hitlist::HitlistService;
use ipv6_hitlists::netsim::{World, WorldConfig};
use ipv6_hitlists::scan::HitlistCampaignConfig;
use ipv6_hitlists::serve::{HitlistStore, Ingestor, PublicationUpdate};
use ipv6_hitlists::wire::proto::{Request, Response};
use ipv6_hitlists::wire::serve_request;

fn main() {
    // 1. Run a 3-week hitlist campaign on a tiny synthetic Internet.
    let world = World::build(WorldConfig::tiny(), 42);
    let hl = collect_hitlist(
        &world,
        0,
        &HitlistCampaignConfig {
            weeks: 3,
            ..Default::default()
        },
    );
    let service = HitlistService::from_campaign("IPv6 Hitlist Service", &hl.campaign);
    println!(
        "campaign: {} weekly releases, {} responsive addresses, {} aliased prefixes",
        service.snapshots.len(),
        service.total_responsive(),
        service.aliased.len()
    );

    // 2. Publish it through an ingestor: each submitted update is
    //    normalized into per-shard runs, merged into a sharded, immutable
    //    snapshot and published as the next epoch before `submit`
    //    returns.
    let store = Arc::new(HitlistStore::new(&service.name, 8));
    let mut ingest = Ingestor::new(store.clone());
    ingest
        .submit(PublicationUpdate::Service(service.clone()))
        .expect("in-memory publish");
    let stats = ingest.finish();
    println!(
        "ingested: {} unique addresses ({} duplicates coalesced), epoch {}",
        stats.unique_addresses,
        stats.duplicates,
        store.epoch()
    );

    // 3. Query it the way the wire front door does: take the current
    //    snapshot (an Arc clone, so publication never blocks readers and
    //    vice versa) and answer typed requests from it.
    let snap = store.snapshot();
    let sample = service.snapshots[0].new_responsive[0];
    let ask = |req| serve_request(&snap, req);

    if let Response::Lookup { answer, .. } = ask(Request::Lookup {
        addr: sample.into(),
    }) {
        println!(
            "lookup {sample}: present={}, first seen week {:?}, aliased={}",
            answer.present,
            answer.first_week,
            answer.alias.is_some()
        );
    }

    let net = Prefix::of(sample, 48);
    if let Response::Count { value, .. } = ask(Request::Density { prefix: net }) {
        println!("density: {value} responsive addresses in {net}");
    }

    let first_week = service.snapshots.first().map(|s| s.week).unwrap_or(0);
    if let Response::Count { value, .. } = ask(Request::NewSince { week: first_week }) {
        println!("weekly diff: {value} addresses are new since the week-{first_week} release");
    }

    let addrs: Vec<u128> = service
        .responsive_as_of(u64::MAX)
        .into_iter()
        .take(64)
        .map(u128::from)
        .collect();
    let n = addrs.len();
    if let Response::Batch {
        epoch,
        present,
        aliased,
        ..
    } = ask(Request::Batch { addrs })
    {
        println!("batch of {n}: {present} present, {aliased} aliased (served by epoch {epoch})");
    }

    print!("{}", store.metrics().render_text());
}
