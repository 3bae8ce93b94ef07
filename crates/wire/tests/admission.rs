//! Adversarial-scenario integration tests (ISSUE 8, satellite 3):
//! abusive and well-behaved clients sharing one front door, driven over
//! real wire bytes on simulated time.
//!
//! The fairness contract under attack:
//!
//! * steady pollers keep getting answers — **zero** `Throttled`/`Shed`
//!   frames for them while a flooder hammers the same server;
//! * the flooder is classified `Flood` within a bounded number of
//!   frames and throttled from then on;
//! * every request that reaches the server yields exactly one response
//!   frame — sheds and throttles are explicit, nothing is silently
//!   dropped;
//! * degraded epochs label every affected answer across the wire.

use std::net::Ipv6Addr;
use std::sync::Arc;

use v6serve::{HitlistStore, QueryEngine, SnapshotBuilder};
use v6wire::proto::{Request, Response};
use v6wire::transport::duplex;
use v6wire::{AdmissionConfig, ClientClass, ServerConn, WireClient, WireServer};

fn addr(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

fn engine(quarantined: Vec<u32>) -> QueryEngine {
    let store = HitlistStore::new("front", 4);
    let mut b = SnapshotBuilder::new("front", 4);
    if !quarantined.is_empty() {
        b = b.with_quarantined(quarantined);
    }
    for i in 0..400u32 {
        // Third hextet = shard index (low /48 bits) for 4 shards.
        b.add_address(addr(&format!("2001:db8:{:x}::{:x}", i % 4, i + 1)), i % 5);
    }
    b.add_alias("2001:db8:3::/48".parse().unwrap(), 0);
    store.publish(b.build()).unwrap();
    QueryEngine::new(Arc::new(store))
}

fn test_config() -> AdmissionConfig {
    AdmissionConfig {
        client_rate_per_sec: 400,
        client_burst: 40,
        global_rate_per_sec: 50_000,
        global_burst: 5_000,
        max_clients: 64,
        window_us: 100_000,
        flood_rate_per_sec: 2_000,
        burst_ratio: 8,
        classify_min_frames: 16,
        quiet_windows_to_demote: 20,
        idle_windows_to_evict: 600,
    }
}

/// One scripted client: a wire client plus its server-side connection,
/// sending `rate_per_sec` membership probes on simulated time.
struct Actor {
    client: WireClient<v6wire::PipeTransport>,
    conn: ServerConn,
    server_end: v6wire::PipeTransport,
    interval_us: u64,
    next_send_us: u64,
    sent: u64,
    answers: u64,
    throttled: u64,
    shed: u64,
}

impl Actor {
    fn new(server: &Arc<WireServer>, client_id: u64, rate_per_sec: u64) -> Self {
        let (client_end, server_end) = duplex();
        Actor {
            client: WireClient::connect(client_end, 0).expect("connect"),
            conn: server.open_connection(client_id),
            server_end,
            interval_us: 1_000_000 / rate_per_sec.max(1),
            next_send_us: 0,
            sent: 0,
            answers: 0,
            throttled: 0,
            shed: 0,
        }
    }

    /// Advances to `now_us`: sends due requests, pumps the server,
    /// tallies responses by kind.
    fn step(&mut self, now_us: u64) {
        while self.next_send_us <= now_us {
            let probe = Request::Membership {
                addr: (0x2001_0db8u128 << 96) | u128::from(self.sent % 400 + 1),
            };
            self.client.send(&probe, now_us).expect("send");
            self.sent += 1;
            self.next_send_us += self.interval_us;
        }
        self.conn.pump(&mut self.server_end, now_us).expect("pump");
        for (_, resp) in self.client.poll(now_us).expect("poll") {
            match resp {
                Response::Throttled { .. } => self.throttled += 1,
                Response::Shed { .. } => self.shed += 1,
                _ => self.answers += 1,
            }
        }
    }

    fn responses(&self) -> u64 {
        self.answers + self.throttled + self.shed
    }
}

#[test]
fn steady_pollers_survive_a_query_flood_untouched() {
    // Under the tightened test limits and under the shipped defaults.
    for cfg in [test_config(), AdmissionConfig::default()] {
        flood_beside_steady_pollers(cfg);
    }
}

fn flood_beside_steady_pollers(cfg: AdmissionConfig) {
    let server = WireServer::new(engine(Vec::new()), cfg, 0);
    // Three steady pollers at 100 req/s, one flooder at 20k req/s.
    let mut pollers: Vec<Actor> = (0..3).map(|i| Actor::new(&server, 10 + i, 100)).collect();
    let mut flooder = Actor::new(&server, 666, 20_000);

    // Two simulated seconds in 1 ms ticks.
    for tick in 0..2_000u64 {
        let now = tick * 1_000;
        flooder.step(now);
        for p in &mut pollers {
            p.step(now);
        }
    }
    let drain = 2_000_000;
    flooder.step(drain);
    for p in &mut pollers {
        p.step(drain);
    }

    // Steady pollers: every request answered, zero throttles, zero
    // sheds — the flood never touched them.
    for (i, p) in pollers.iter().enumerate() {
        assert!(p.sent >= 200, "poller {i} sent {}", p.sent);
        assert_eq!(p.responses(), p.sent, "poller {i} lost responses");
        assert_eq!(p.throttled, 0, "poller {i} was throttled");
        assert_eq!(p.shed, 0, "poller {i} was shed");
    }

    // The flooder: classified within 256 frames, overwhelmingly
    // throttled, and every one of its requests still got an explicit
    // response frame.
    let info = server.client_info(666).expect("flooder tracked");
    assert_eq!(info.class, ClientClass::Flood);
    let classified_at = info.classified_at_frame.expect("flooder classified");
    assert!(
        classified_at <= 256,
        "classified only at frame {classified_at}"
    );
    assert_eq!(flooder.responses(), flooder.sent, "silent drops");
    assert!(
        flooder.throttled > flooder.sent * 9 / 10,
        "flood not contained: {} throttled of {}",
        flooder.throttled,
        flooder.sent
    );

    // Metrics tell the same story.
    let snap = server.metrics().registry().snapshot();
    assert_eq!(
        snap.counter("wire.admit.throttled"),
        Some(flooder.throttled)
    );
    assert!(snap.counter("wire.admit.throttled.flood").unwrap() > 0);
    assert_eq!(snap.counter("wire.admit.shed"), Some(0));
    assert_eq!(
        snap.counter("wire.admit.admitted"),
        Some(pollers.iter().map(|p| p.answers).sum::<u64>() + flooder.answers)
    );
    // Admitted traffic landed in the per-class latency histograms.
    assert!(server.metrics().latency_count(ClientClass::Steady) > 0);
    assert!(server.metrics().p99_ns(ClientClass::Steady) > 0);
}

#[test]
fn burst_scraper_is_classified_and_tiered() {
    let server = WireServer::new(engine(Vec::new()), test_config(), 0);
    let mut scraper = Actor::new(&server, 42, 100);
    // Quiet background, then dense bursts: 1 window of 150 requests
    // every 8 windows (mean ≈ 19/window, peak 150 ⇒ ratio ≈ 8).
    let mut now = 0u64;
    for _cycle in 0..12u64 {
        // Burst: 150 requests packed into 10 ms.
        for i in 0..150u64 {
            let t = now + i * 66;
            scraper
                .client
                .send(
                    &Request::Membership {
                        addr: (0x2001_0db8u128 << 96) | u128::from(i + 1),
                    },
                    t,
                )
                .expect("send");
            scraper.sent += 1;
            scraper.conn.pump(&mut scraper.server_end, t).expect("pump");
            for (_, resp) in scraper.client.poll(t).expect("poll") {
                match resp {
                    Response::Throttled { .. } => scraper.throttled += 1,
                    Response::Shed { .. } => scraper.shed += 1,
                    _ => scraper.answers += 1,
                }
            }
        }
        // Then 7 quiet windows.
        now += 8 * 100_000;
    }
    scraper.next_send_us = u64::MAX; // stop the step() auto-sender
    scraper.step(now);

    let info = server.client_info(42).expect("scraper tracked");
    assert!(
        info.class >= ClientClass::Burst,
        "scraper stayed {:?}",
        info.class
    );
    assert!(scraper.throttled > 0, "burst tier never engaged");
    assert_eq!(scraper.responses(), scraper.sent, "silent drops");
}

#[test]
fn degraded_epochs_are_labeled_across_the_wire() {
    // Shard 2 quarantined: every answer touching it must say so.
    let server = WireServer::new(engine(vec![2]), test_config(), 0);
    let mut conn = server.open_connection(7);
    let (client_end, mut server_end) = duplex();
    let mut client = WireClient::connect(client_end, 0).expect("connect");

    let in_missing = addr("2001:db8:2::3"); // shard 2, present
    let healthy = addr("2001:db8:1::2"); // shard 1, present
    client
        .send(
            &Request::Lookup {
                addr: u128::from(in_missing),
            },
            0,
        )
        .unwrap();
    client
        .send(
            &Request::Lookup {
                addr: u128::from(healthy),
            },
            0,
        )
        .unwrap();
    client
        .send(
            &Request::Batch {
                addrs: vec![u128::from(in_missing), u128::from(healthy)],
            },
            0,
        )
        .unwrap();
    client.send(&Request::Status, 0).unwrap();
    conn.pump(&mut server_end, 0).expect("pump");
    let responses = client.poll(0).expect("poll");
    assert_eq!(responses.len(), 4);

    match &responses[0].1 {
        Response::Lookup { answer, .. } => {
            assert!(answer.present);
            assert!(answer.degraded, "quarantined-shard lookup not labeled");
        }
        other => panic!("unexpected {other:?}"),
    }
    match &responses[1].1 {
        Response::Lookup { answer, .. } => {
            assert!(answer.present);
            assert!(!answer.degraded, "healthy-shard lookup mislabeled");
        }
        other => panic!("unexpected {other:?}"),
    }
    match &responses[2].1 {
        Response::Batch {
            missing_shards,
            answers,
            ..
        } => {
            assert_eq!(missing_shards, &vec![2]);
            assert!(answers[0].degraded);
            assert!(!answers[1].degraded);
        }
        other => panic!("unexpected {other:?}"),
    }
    match &responses[3].1 {
        Response::Status { missing_shards, .. } => {
            assert_eq!(missing_shards, &vec![2]);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn pings_survive_throttling_and_chunk_shares_one_epoch() {
    let server = WireServer::new(
        engine(Vec::new()),
        AdmissionConfig {
            client_rate_per_sec: 1,
            client_burst: 2,
            ..test_config()
        },
        0,
    );
    let mut conn = server.open_connection(1);
    let (client_end, mut server_end) = duplex();
    let mut client = WireClient::connect(client_end, 0).expect("connect");

    // Exhaust the 2-token bucket, then interleave pings: the third
    // lookup is throttled, the pings still answer.
    for _ in 0..3 {
        client
            .send(
                &Request::Lookup {
                    addr: 0x2001 << 112,
                },
                0,
            )
            .unwrap();
        client.send(&Request::Ping, 0).unwrap();
    }
    conn.pump(&mut server_end, 0).expect("pump");
    let responses = client.poll(0).expect("poll");
    assert_eq!(responses.len(), 6);
    let pongs = responses
        .iter()
        .filter(|(_, r)| matches!(r, Response::Pong))
        .count();
    assert_eq!(pongs, 3, "pings must bypass admission");
    let throttles = responses
        .iter()
        .filter(|(_, r)| matches!(r, Response::Throttled { .. }))
        .count();
    assert_eq!(throttles, 1, "third lookup must hit the empty bucket");
    let mut epochs: Vec<u64> = responses
        .iter()
        .filter_map(|(_, r)| match r {
            Response::Lookup { epoch, .. } => Some(*epoch),
            _ => None,
        })
        .collect();
    assert_eq!(epochs.len(), 2, "two lookups admitted");
    epochs.dedup();
    assert_eq!(epochs.len(), 1, "one chunk must resolve one epoch");
}
