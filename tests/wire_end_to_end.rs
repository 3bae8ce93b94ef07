//! Cross-crate integration: collect a hitlist from the simulator,
//! publish it into the serving store, and query it through the v6wire
//! front door — including over a faulty transport, where the client
//! reconnects and retries until the wire answers match direct snapshot
//! answers byte for byte.

use std::sync::Arc;
use std::time::Duration;

use ipv6_hitlists::chaos::{Chaos, ScriptedChaos, SiteScript};
use ipv6_hitlists::hitlist::collect::active::collect_hitlist;
use ipv6_hitlists::hitlist::HitlistService;
use ipv6_hitlists::netsim::{World, WorldConfig};
use ipv6_hitlists::obs::Registry;
use ipv6_hitlists::scan::HitlistCampaignConfig;
use ipv6_hitlists::serve::{HitlistStore, Ingestor, PublicationUpdate, QueryEngine, Snapshot};
use ipv6_hitlists::wire::proto::{Request, Response};
use ipv6_hitlists::wire::{
    duplex, serve_request, AdmissionConfig, Fabric, Link, OnPanic, WireClient, WireServer,
};

/// Up to about `target` present addresses, spread evenly over `snap`.
fn sample_present(snap: &Snapshot, target: usize) -> Vec<u128> {
    let stride = (snap.len() as usize / target).max(1);
    let shards = snap.shards().iter();
    shards.flat_map(|s| s.iter_bits().step_by(stride)).collect()
}

/// A connection over a `wire` fabric whose client end, `<label>`,
/// corrupts on `Panic`: `(client end, server end)`.
fn faulty_pair(chaos: &Arc<dyn Chaos>, label: &str) -> (Link, Link) {
    let fabric = Fabric::new("wire", Arc::clone(chaos), &Registry::new());
    let server = format!("{label}.server");
    let client_end = fabric.link(label, &server, Some(OnPanic::Corrupt));
    (client_end, fabric.link(&server, label, None))
}

/// Collects a small campaign and publishes it through the ingestion
/// pipeline, returning the store the front door will serve from.
fn published_store() -> Arc<HitlistStore> {
    let world = World::build(WorldConfig::tiny(), 909);
    let hl = collect_hitlist(
        &world,
        0,
        &HitlistCampaignConfig {
            weeks: 2,
            ..Default::default()
        },
    );
    let service = HitlistService::from_campaign("wire-e2e", &hl.campaign);
    assert!(service.total_responsive() > 0, "campaign found nothing");
    let store = Arc::new(HitlistStore::new("wire-e2e", 4));
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
    ingest.finish();
    store
}

#[test]
fn wire_answers_match_direct_queries() {
    let store = published_store();
    let snap = store.snapshot();
    let engine = QueryEngine::new(store.clone());
    let server = WireServer::new(engine, AdmissionConfig::default(), 0);

    let present: Vec<u128> = sample_present(&snap, 64);
    assert!(!present.is_empty());

    let mut conn = server.open_connection(1);
    let (client_end, mut server_end) = duplex();
    let mut client = WireClient::connect(client_end, 0).expect("connect");

    // Pipeline one of each query shape, plus a batch over the sample.
    let mut requests = vec![
        Request::Status,
        Request::NewSince { week: 1 },
        Request::Batch {
            addrs: present.clone(),
        },
    ];
    for &a in present.iter().take(8) {
        requests.push(Request::Lookup { addr: a });
        requests.push(Request::Membership { addr: a });
    }
    for req in &requests {
        client.send(req, 0).expect("send");
    }
    conn.pump(&mut server_end, 0).expect("pump");
    let responses = client.poll(0).expect("poll");
    assert_eq!(responses.len(), requests.len());

    // Every wire answer equals the pure dispatch against the same
    // snapshot: the transport, framing, and admission layers are
    // answer-transparent for an admitted steady client.
    for ((_, got), req) in responses.iter().zip(&requests) {
        assert_eq!(got, &serve_request(&snap, req.clone()), "for {req:?}");
    }
    match &responses[2].1 {
        Response::Batch {
            answers,
            present: n,
            ..
        } => {
            assert_eq!(answers.len(), present.len());
            assert_eq!(*n, present.len() as u64, "sampled addresses all present");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn chaos_corruption_and_loss_survive_reconnect_and_retry() {
    let store = published_store();
    let snap = store.snapshot();
    let engine = QueryEngine::new(store);
    let server = WireServer::new(engine, AdmissionConfig::default(), 0);

    let probe = sample_present(&snap, 1)[0];
    let want = serve_request(&snap, Request::Lookup { addr: probe });

    // Each attempt sends two pings then the lookup, so the lookup is
    // the transport's chunk 3 (preamble = 0). Attempt 0: the lookup
    // frame is corrupted in transit — the flip lands in the payload,
    // the server's checksum catches it, and the connection closes.
    // Attempt 1: the lookup frame is lost. Attempt 2: clean. Sites are
    // sequence-numbered per sending endpoint, so each attempt's fate is
    // scripted exactly.
    let chaos: Arc<dyn Chaos> = Arc::new(
        ScriptedChaos::new()
            .with("wire.c2s0.3", SiteScript::permanent_panic())
            .with("wire.c2s1.3", SiteScript::permanent()),
    );

    let mut answer = None;
    let mut attempts = 0u32;
    while answer.is_none() && attempts < 5 {
        let (faulty, mut server_end) = faulty_pair(&chaos, &format!("c2s{attempts}"));
        let mut conn = server.open_connection(100 + u64::from(attempts));
        let mut client = WireClient::connect(faulty, 0).expect("connect");
        client.send(&Request::Ping, 0).expect("send");
        client.send(&Request::Ping, 0).expect("send");
        let lookup_id = client
            .send(&Request::Lookup { addr: probe }, 0)
            .expect("send");
        // Bounded pump/poll rounds; a lost request never answers and a
        // corrupted one closes the connection — both end in a retry.
        'rounds: for round in 0..4u64 {
            let now = round * 1_000;
            if conn.pump(&mut server_end, now).is_err() {
                break;
            }
            match client.poll(now) {
                Ok(responses) => {
                    for (id, resp) in responses {
                        if id == lookup_id {
                            answer = Some(resp);
                            break 'rounds;
                        }
                    }
                }
                Err(_) => break, // protocol violation or closed: reconnect
            }
        }
        attempts += 1;
    }

    assert_eq!(attempts, 3, "corruption, loss, then a clean attempt");
    assert_eq!(answer.expect("retry converged"), want);
    // The corrupted attempt is visible as a protocol error; nothing was
    // silently mis-served.
    let metrics = server.metrics().registry().snapshot();
    assert_eq!(metrics.counter("wire.conn.protocol_errors"), Some(1));
}

#[test]
fn stalled_requests_answer_late_but_correct() {
    let store = published_store();
    let snap = store.snapshot();
    let engine = QueryEngine::new(store);
    let server = WireServer::new(engine, AdmissionConfig::default(), 0);

    let probe = sample_present(&snap, 1)[0];
    let want = serve_request(&snap, Request::Lookup { addr: probe });

    // The request frame stalls 5 ms in transit (slow peer): invisible
    // to the server until release, answered correctly afterwards.
    let chaos: Arc<dyn Chaos> = Arc::new(ScriptedChaos::new().with(
        "wire.slow.1",
        SiteScript::ok().with_stall(Duration::from_millis(5)),
    ));
    let (client_end, mut server_end) = faulty_pair(&chaos, "slow");
    let mut conn = server.open_connection(7);
    let mut client = WireClient::connect(client_end, 0).expect("connect");
    client
        .send(&Request::Lookup { addr: probe }, 0)
        .expect("send");

    conn.pump(&mut server_end, 1_000).expect("pump");
    assert!(client.poll(1_000).expect("poll").is_empty(), "not due yet");

    // Past the stall deadline the server's own receive releases the
    // chunk: the client does nothing in between.
    conn.pump(&mut server_end, 6_000).expect("pump");
    let responses = client.poll(6_000).expect("poll");
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].1, want);
}
