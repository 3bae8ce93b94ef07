//! Cross-crate integration: collect a hitlist from the simulator,
//! publish it into the serving store, and query it through the v6wire
//! front door — including over a faulty transport, where the client
//! reconnects and retries until the wire answers match direct snapshot
//! answers byte for byte, under scripted faults and under seeded plans.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use ipv6_hitlists::chaos::{Chaos, FaultPlan, FaultSpec, ScriptedChaos, SiteScript};
use ipv6_hitlists::hitlist::collect::active::collect_hitlist;
use ipv6_hitlists::hitlist::HitlistService;
use ipv6_hitlists::netsim::rng::hash64;
use ipv6_hitlists::netsim::{World, WorldConfig};
use ipv6_hitlists::obs::Registry;
use ipv6_hitlists::scan::HitlistCampaignConfig;
use ipv6_hitlists::serve::{
    HitlistStore, Ingestor, PublicationUpdate, QueryEngine, Snapshot, SnapshotBuilder,
};
use ipv6_hitlists::wire::proto::{Request, Response};
use ipv6_hitlists::wire::{
    duplex, serve_request, AdmissionConfig, Fabric, FrameError, Link, OnPanic, WireClient,
    WireClientError, WireServer,
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

/// Collects a small campaign and publishes it through an [`Ingestor`],
/// returning the store the front door will serve from.
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

/// Requests each seeded run must get exact answers to.
const SEEDED_REQUESTS: usize = 48;

/// Reconnects before a seeded run counts as diverged: far above what
/// any seed needs, since every reconnect draws fresh fault sites.
const MAX_RECONNECTS: u64 = 512;

/// Plan seeds for the faulty-wire run: 7, 8, 9 and 31, then 1–16.
fn wire_seeds() -> impl Iterator<Item = u64> {
    [7, 8, 9, 31].into_iter().chain(1..=16)
}

/// Drives `SEEDED_REQUESTS` mixed requests through the front door over
/// a fabric that loses, corrupts and stalls chunks in both directions
/// per `seed`'s plan. The client reconnects and re-sends what is
/// unanswered until every request has an answer, each checked against
/// [`serve_request`] on the same snapshot. Returns the faults the run
/// saw: `[server protocol errors, client checksum errors, chunks lost,
/// chunks stalled]`.
fn seeded_wire_run(seed: u64) -> [u64; 4] {
    let store = Arc::new(HitlistStore::new("wire-seeded", 4));
    let mut b = SnapshotBuilder::new("wire-seeded", 4);
    let probes: Vec<u128> = (0..256u64)
        .map(|i| (0x2001_0db8u128 << 96) | u128::from(hash64(seed ^ i, b"wire-seeded-addr")))
        .collect();
    for (i, &bits) in probes.iter().enumerate() {
        b.add_bits(bits, (i % 5) as u32);
    }
    store.publish(b.build()).expect("publish");
    let snap = store.snapshot();
    let server = WireServer::new(QueryEngine::new(store), AdmissionConfig::default(), 0);

    let requests: Vec<Request> = (0..SEEDED_REQUESTS)
        .map(|i| match i % 4 {
            0 => Request::Lookup {
                addr: probes[i * 5 % probes.len()],
            },
            1 => Request::Membership {
                addr: probes[i * 3 % probes.len()] ^ u128::from(i as u64 % 2),
            },
            2 => Request::NewSince { week: i as u64 % 6 },
            _ => Request::Status,
        })
        .collect();

    let plan = FaultPlan::new(
        seed,
        FaultSpec {
            stall_ms: 2,
            ..FaultSpec::with_permanent(0.35, 0.3)
        },
    );
    let registry = Registry::new();
    let fabric = Fabric::new("wire", Arc::new(plan), &registry);
    let mut pending: Vec<usize> = (0..requests.len()).collect();
    let (mut reconnects, mut bad_checksums) = (0u64, 0u64);
    while !pending.is_empty() {
        assert!(
            reconnects < MAX_RECONNECTS,
            "seed {seed}: {} request(s) unanswered after {reconnects} reconnects",
            pending.len()
        );
        // Fresh connection, fresh fault sites on both directions; both
        // ends corrupt on `Panic`.
        let (c2s, s2c) = (format!("c2s.g{reconnects}"), format!("s2c.g{reconnects}"));
        let client_end = fabric.link(&c2s, &s2c, Some(OnPanic::Corrupt));
        let mut server_end = fabric.link(&s2c, &c2s, Some(OnPanic::Corrupt));
        let mut conn = server.open_connection(1_000 + reconnects);
        let mut client = WireClient::connect(client_end, 0).expect("connect");
        let mut by_id = HashMap::new();
        // One request per round: a corrupted chunk poisons the whole
        // connection, so pipelining the backlog would forfeit all of
        // it to the first flipped bit. The extra rounds at the end let
        // stalled chunks release.
        let mut queue: Vec<usize> = pending.iter().rev().copied().collect();
        for round in 0..queue.len() as u64 + 8 {
            let now = round * 1_000;
            if let Some(idx) = queue.pop() {
                match client.send(&requests[idx], now) {
                    Ok(id) => {
                        by_id.insert(id, idx);
                    }
                    Err(_) => break,
                }
            }
            if conn.pump(&mut server_end, now).is_err() {
                break;
            }
            let responses = match client.poll(now) {
                Ok(responses) => responses,
                Err(e) => {
                    // Corruption or close detected: reconnect.
                    let flipped = WireClientError::Protocol(FrameError::BadChecksum);
                    bad_checksums += u64::from(e == flipped);
                    break;
                }
            };
            for (id, resp) in responses {
                let Some(idx) = by_id.remove(&id) else {
                    continue;
                };
                assert_eq!(
                    resp,
                    serve_request(&snap, requests[idx].clone()),
                    "seed {seed}: wire answer to request {idx} diverged from the snapshot"
                );
                pending.retain(|&p| p != idx);
            }
            if pending.is_empty() {
                break;
            }
        }
        reconnects += 1;
    }

    let net = registry.snapshot();
    let wire = server.metrics().registry().snapshot();
    [
        wire.counter("wire.conn.protocol_errors").unwrap_or(0),
        bad_checksums,
        net.counter("wire.net.lost").unwrap_or(0),
        net.counter("wire.net.stalled").unwrap_or(0),
    ]
}

#[test]
fn seeded_fault_plans_converge_on_exact_answers() {
    let mut seen = [0u64; 4];
    for seed in wire_seeds() {
        for (total, n) in seen.iter_mut().zip(seeded_wire_run(seed)) {
            *total += n;
        }
    }
    // Non-vacuity: the seed set corrupts, loses and stalls chunks, and
    // the server and the client each catch a broken stream.
    let [protocol_errors, bad_checksums, lost, stalled] = seen;
    assert!(protocol_errors > 0, "the server caught no protocol error");
    assert!(bad_checksums > 0, "no flipped bit failed a frame checksum");
    assert!(lost > 0, "no chunk was lost");
    assert!(stalled > 0, "no chunk stalled");
}
