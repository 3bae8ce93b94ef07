//! Windowed streaming-analytics queries over the wire: `MovedBetween`
//! and `EntropyShift` travel as first-class frames, answered from the
//! store's own operators ([`HitlistStore::enable_analytics`]), which
//! every later publish keeps current — and get a labeled `Error` frame
//! (never a silent drop or a close) from a server running without
//! streaming analytics.

use std::sync::Arc;

use v6serve::{HitlistStore, QueryEngine, SnapshotBuilder};
use v6stream::{country_code, AsTag, PrefixAsTable, SharedResolver};
use v6wire::proto::{Request, Response};
use v6wire::transport::duplex;
use v6wire::{serve_request, AdmissionConfig, WireClient, WireServer};

const MAC: u64 = 0x0050_56ab_cdef;

fn resolver() -> SharedResolver {
    Arc::new(PrefixAsTable::new(vec![(
        0x2001_0db8u128 << 96,
        32,
        AsTag {
            index: 1,
            country: country_code(*b"DE"),
        },
    )]))
}

fn eui_addr(subnet: u64, mac: u64) -> u128 {
    let iid = v6addr::Iid::from_mac(v6addr::Mac::from_u64(mac));
    (0x2001_0db8u128 << 96) | (u128::from(subnet) << 64) | u128::from(iid.as_u64())
}

/// The MAC in /64s 1 (week 1) and 2 (week 5) — plus, with `third`, in
/// /64 5 at week 7 — beside sixteen non-EUI-64 addresses.
fn corpus(third: bool) -> SnapshotBuilder {
    let mut b = SnapshotBuilder::new("front", 4);
    b.add_bits(eui_addr(1, MAC), 1);
    b.add_bits(eui_addr(2, MAC), 5);
    if third {
        b.add_bits(eui_addr(5, MAC), 7);
    }
    for i in 0..8u128 {
        b.add_bits(
            (0x2001_0db8u128 << 96) | (3 << 64) | (0x9e37_79b9 * (i + 1)),
            1,
        );
        b.add_bits((0x2001_0db8u128 << 96) | (4 << 64) | (i + 4), 5);
    }
    b
}

fn store_with_move() -> Arc<HitlistStore> {
    let store = Arc::new(HitlistStore::new("front", 4));
    store.publish(corpus(false).build()).unwrap();
    store
}

#[test]
fn windowed_queries_answer_over_the_wire() {
    let store = store_with_move();
    store.enable_analytics(resolver());
    let engine = QueryEngine::new(Arc::clone(&store));
    let server = WireServer::new(engine, AdmissionConfig::default(), 0);

    let (client_end, mut server_end) = duplex();
    let mut client = WireClient::connect(client_end, 0).unwrap();
    let mut conn = server.open_connection(7);

    client
        .send(&Request::MovedBetween { w0: 2, w1: 6 }, 0)
        .unwrap();
    conn.pump(&mut server_end, 0).unwrap();
    let resps = client.poll(0).unwrap();
    assert_eq!(resps.len(), 1);
    match &resps[0].1 {
        Response::Moved {
            epoch,
            lagging,
            moves,
        } => {
            assert_eq!(*epoch, store.snapshot().epoch());
            assert!(!lagging);
            assert_eq!(moves.len(), 1);
            assert_eq!(moves[0].mac, MAC);
            assert_eq!(moves[0].week, 5);
            assert_ne!(moves[0].from_net, moves[0].to_net);
        }
        other => panic!("expected Moved, got {other:?}"),
    }

    client
        .send(
            &Request::EntropyShift {
                as_index: 1,
                w0: 2,
                w1: 6,
            },
            1_000,
        )
        .unwrap();
    conn.pump(&mut server_end, 1_000).unwrap();
    let resps = client.poll(1_000).unwrap();
    assert_eq!(resps.len(), 1);
    match &resps[0].1 {
        Response::EntropyShift { lagging, shift, .. } => {
            assert!(!lagging);
            assert!(shift.is_some(), "both window sides are populated");
        }
        other => panic!("expected EntropyShift, got {other:?}"),
    }

    // Outside the window the same device never moved, and an AS with no
    // attributed addresses has no shift to report.
    client
        .send(&Request::MovedBetween { w0: 5, w1: 9 }, 2_000)
        .unwrap();
    client
        .send(
            &Request::EntropyShift {
                as_index: 7,
                w0: 2,
                w1: 6,
            },
            2_000,
        )
        .unwrap();
    conn.pump(&mut server_end, 2_000).unwrap();
    let resps = client.poll(2_000).unwrap();
    assert_eq!(resps.len(), 2);
    assert!(
        matches!(&resps[0].1, Response::Moved { moves, .. } if moves.is_empty()),
        "got {:?}",
        resps[0].1
    );
    assert!(
        matches!(&resps[1].1, Response::EntropyShift { shift: None, .. }),
        "got {:?}",
        resps[1].1
    );
    assert!(!conn.is_closed(), "windowed queries are ordinary traffic");

    // The next publish reaches the operators with no further call: the
    // device turns up in a third /64 at week 7, inside the window that
    // was empty a moment ago, and the answer is labeled with the epoch
    // that carries it.
    store.publish(corpus(true).build()).unwrap();
    client
        .send(&Request::MovedBetween { w0: 5, w1: 9 }, 3_000)
        .unwrap();
    conn.pump(&mut server_end, 3_000).unwrap();
    let resps = client.poll(3_000).unwrap();
    assert_eq!(resps.len(), 1);
    match &resps[0].1 {
        Response::Moved {
            epoch,
            lagging,
            moves,
        } => {
            assert_eq!(*epoch, 2);
            assert!(!lagging);
            assert_eq!(moves.len(), 1, "got {moves:?}");
            assert_eq!((moves[0].mac, moves[0].week), (MAC, 7));
            assert_eq!(moves[0].to_net, (0x2001_0db8u64 << 32) | 5);
        }
        other => panic!("expected Moved, got {other:?}"),
    }
}

#[test]
fn servers_without_analytics_answer_with_labeled_errors() {
    let store = store_with_move();
    let snap = store.snapshot();
    // The pure dispatch path: no analytics → typed Error, not a panic.
    for req in [
        Request::MovedBetween { w0: 0, w1: 9 },
        Request::EntropyShift {
            as_index: 1,
            w0: 0,
            w1: 9,
        },
    ] {
        match serve_request(&snap, req) {
            Response::Error { message } => {
                assert!(message.contains("streaming analytics"), "got: {message}")
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    // And over real wire bytes the connection stays open.
    let engine = QueryEngine::new(store);
    let server = WireServer::new(engine, AdmissionConfig::default(), 0);
    let (client_end, mut server_end) = duplex();
    let mut client = WireClient::connect(client_end, 0).unwrap();
    let mut conn = server.open_connection(9);
    client
        .send(&Request::MovedBetween { w0: 0, w1: 9 }, 0)
        .unwrap();
    conn.pump(&mut server_end, 0).unwrap();
    let resps = client.poll(0).unwrap();
    assert!(matches!(resps[0].1, Response::Error { .. }));
    assert!(!conn.is_closed());
}
