//! What a connection answers must not depend on how its bytes arrive:
//! `pump` decodes payloads borrowed from the receive buffer and encodes
//! replies in place, and still answers exactly what `on_bytes` answers,
//! and nothing at all from a chunk that also carries a corrupt frame.

use std::sync::Arc;

use proptest::prelude::*;
use v6addr::Prefix;
use v6serve::{HitlistStore, QueryEngine, SnapshotBuilder};
use v6wire::frame::{frame, preamble, PREAMBLE_LEN};
use v6wire::proto::Request;
use v6wire::{duplex, AdmissionConfig, FrameError, Transport, WireServer};

const NET: u128 = 0x2001_0db8u128 << 96;

fn server() -> Arc<WireServer> {
    let store = Arc::new(HitlistStore::new("contract", 4));
    let mut b = SnapshotBuilder::new("contract", 4);
    for i in 0..64u128 {
        b.add_bits(NET | ((i % 4) << 80) | (i + 1), (i % 3) as u32);
    }
    b.add_alias(Prefix::from_bits(NET | (2 << 80), 48), 0);
    store.publish(b.build()).expect("publish");
    const UNREACHABLE: u64 = 1_000_000_000;
    let admission = AdmissionConfig {
        client_rate_per_sec: UNREACHABLE,
        client_burst: UNREACHABLE,
        global_rate_per_sec: UNREACHABLE,
        global_burst: UNREACHABLE,
        flood_rate_per_sec: UNREACHABLE,
        ..AdmissionConfig::default()
    };
    WireServer::new(QueryEngine::new(store), admission, 0)
}

fn request(kind: u8, bits: u128) -> Request {
    let addr = NET | ((bits % 4) << 80) | (bits % 80);
    match kind {
        0 => Request::Ping,
        1 => Request::Membership { addr },
        2 => Request::Lookup { addr },
        3 => Request::Density {
            prefix: Prefix::from_bits(addr, 48),
        },
        4 => Request::Batch {
            addrs: vec![addr, addr + 1, bits],
        },
        _ => Request::MovedBetween { w0: 0, w1: 2 },
    }
}

#[test]
fn a_chunk_holding_a_corrupt_frame_is_answered_not_at_all() {
    let server = server();
    let mut conn = server.open_connection(1);
    let (mut client_end, mut server_end) = duplex();
    let mut chunk = preamble().to_vec();
    chunk.extend_from_slice(&frame(&Request::Membership { addr: NET | 1 }.encode(1)));
    let mut rotten = frame(&Request::Lookup { addr: NET | 2 }.encode(2));
    rotten[6] ^= 0x10;
    chunk.extend_from_slice(&rotten);
    client_end.send(&chunk, 0).expect("send");

    let out = conn.pump(&mut server_end, 0).expect("pump");
    assert!(out.close);
    assert_eq!(out.error, Some(FrameError::BadChecksum));
    assert!(conn.is_closed());
    // Only the server's preamble came back: no answer to the valid
    // request ahead of the corrupt frame.
    assert_eq!(client_end.recv(0).expect("recv"), preamble().to_vec());
    let metrics = server.metrics().registry().snapshot();
    assert_eq!(metrics.counter("wire.conn.protocol_errors"), Some(1));
    assert_eq!(metrics.counter("wire.conn.frames_out"), Some(0));
    assert_eq!(server.metrics().admitted(), 0);
}

proptest! {
    #[test]
    fn pump_writes_what_on_bytes_returns_for_any_chunking(
        requests in prop::collection::vec((0u8..6, any::<u128>()), 1..12),
        cuts in prop::collection::vec(any::<u16>(), 0..8),
        undecodable_tail in any::<bool>(),
    ) {
        let mut stream = preamble().to_vec();
        for (i, &(kind, bits)) in requests.iter().enumerate() {
            stream.extend_from_slice(&frame(&request(kind, bits).encode(i as u64 + 1)));
        }
        if undecodable_tail {
            // Intact frame, unknown tag: an `Error` frame, then close.
            stream.extend_from_slice(&frame(&[0x40, 0, 0]));
        }
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| usize::from(c) % stream.len()).collect();
        cuts.push(0);
        cuts.push(stream.len());
        cuts.sort_unstable();
        let chunks: Vec<&[u8]> = cuts.windows(2).map(|w| &stream[w[0]..w[1]]).collect();

        let server = server();
        let mut direct = server.open_connection(1);
        let mut pumped = server.open_connection(2);
        let (mut client_end, mut server_end) = duplex();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let (mut want_close, mut got_close) = (None, None);
        for (t, chunk) in chunks.iter().enumerate() {
            let now_us = t as u64;
            if want_close.is_none() {
                let out = direct.on_bytes(chunk, now_us);
                want.extend_from_slice(&out.bytes);
                if out.close {
                    want_close = Some(out.error);
                }
            }
            if got_close.is_none() {
                client_end.send(chunk, now_us).expect("send");
                let out = pumped.pump(&mut server_end, now_us).expect("pump");
                prop_assert!(out.bytes.is_empty(), "pump hands back no bytes");
                client_end.recv_into(now_us, &mut got).expect("recv");
                if out.close {
                    got_close = Some(out.error);
                }
            }
        }
        prop_assert_eq!(&got[..PREAMBLE_LEN], &preamble()[..]);
        prop_assert_eq!(&got[PREAMBLE_LEN..], &want[..]);
        prop_assert_eq!(got_close, want_close);
        prop_assert_eq!(want_close.is_some(), undecodable_tail);
    }
}
