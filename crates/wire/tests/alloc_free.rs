//! The front door allocates nothing of its own in steady state.
//!
//! After warm-up, a single-answer request costs at most one heap
//! allocation on its whole way `WireClient::send → ServerConn::pump →
//! WireClient::poll` — the `Vec` `poll` returns — and a batch only its
//! address and answer lists. Every decoder sizes a list from its count
//! only once the count fits the bytes that remain.
//!
//! Allocations are counted per thread, so tests running beside these do
//! not disturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use v6addr::Prefix;
use v6serve::{HitlistStore, QueryEngine, SnapshotBuilder};
use v6wire::proto::{Request, Response, WireLookup, WireMove};
use v6wire::{
    duplex, AdmissionConfig, FrameError, PipeTransport, ServerConn, WireClient, WireServer,
};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call goes to `System` with the arguments the caller
// vouched for; the only addition is a per-thread counter beside it.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f`; returns the heap allocations and reallocations it made on
/// this thread, with its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const ADDRS: u64 = 4_096;
const NET: u128 = 0x2001_0db8u128 << 96;

/// The `i`-th stored address: 64 /48s of 64 addresses each.
fn stored(i: u64) -> u128 {
    NET | (u128::from(i % 64) << 80) | u128::from(i + 1)
}

struct FrontDoor {
    conn: ServerConn,
    server_end: PipeTransport,
    client: WireClient<PipeTransport>,
    now_us: u64,
}

impl FrontDoor {
    /// One connection to a server over a 4 096-address snapshot, past
    /// the handshake, with limits no test client reaches.
    fn open() -> FrontDoor {
        let mut b = SnapshotBuilder::new("alloc", 8);
        for i in 0..ADDRS {
            b.add_bits(stored(i), (i % 8) as u32);
        }
        b.add_alias(Prefix::from_bits(NET | (3 << 80), 48), 0);
        let store = Arc::new(HitlistStore::new("alloc", 8));
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
        let server = WireServer::new(QueryEngine::new(store), admission, 0);
        let mut conn = server.open_connection(1);
        let (client_end, mut server_end) = duplex();
        let mut client = WireClient::connect(client_end, 0).expect("connect");
        conn.pump(&mut server_end, 0).expect("handshake");
        assert!(client.poll(0).expect("server preamble").is_empty());
        FrontDoor {
            conn,
            server_end,
            client,
            now_us: 0,
        }
    }

    /// One closed-loop request: send, pump, poll.
    fn round_trip(&mut self, req: &Request) -> Vec<(u64, Response)> {
        self.now_us += 1;
        self.client.send(req, self.now_us).expect("send");
        self.conn
            .pump(&mut self.server_end, self.now_us)
            .expect("pump");
        self.client.poll(self.now_us).expect("poll")
    }
}

/// The benchmark's default mix without its batches: membership,
/// unaliased membership, lookup, /48 density, new-since; half hits.
fn point_requests(n: usize) -> Vec<Request> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let r = x >> 33;
            let addr = if r.is_multiple_of(2) {
                stored(r % ADDRS)
            } else {
                NET | (u128::from(r) << 40) | 7
            };
            match r % 95 {
                0..40 => Request::Membership { addr },
                40..55 => Request::MembershipUnaliased { addr },
                55..80 => Request::Lookup { addr },
                80..90 => Request::Density {
                    prefix: Prefix::from_bits(addr, 48),
                },
                _ => Request::NewSince { week: r % 10 },
            }
        })
        .collect()
}

fn batch(first: u64) -> Request {
    Request::Batch {
        addrs: (first..first + 16).map(stored).collect(),
    }
}

/// Grows every buffer on the path to the sizes the requests need. A
/// pipe and its receiver trade buffers on every receive, so each batch
/// size goes through twice in a row.
fn warm_up(door: &mut FrontDoor, requests: &[Request]) {
    for (i, req) in requests.iter().enumerate() {
        assert_eq!(door.round_trip(req).len(), 1);
        for _ in 0..2 {
            assert_eq!(door.round_trip(&batch(i as u64)).len(), 1);
        }
    }
}

#[test]
fn a_single_answer_request_allocates_only_the_vec_poll_returns() {
    let mut door = FrontDoor::open();
    let requests = point_requests(10_000);
    warm_up(&mut door, &requests[..64]);
    let mut total = 0;
    for req in &requests {
        let (allocs, replies) = allocations(|| door.round_trip(req));
        assert_eq!(replies.len(), 1);
        assert!(
            !matches!(
                replies[0].1,
                Response::Throttled { .. } | Response::Shed { .. }
            ),
            "admitted: {:?}",
            replies[0].1
        );
        assert!(allocs <= 1, "{req:?} made {allocs} allocations");
        total += allocs;
    }
    assert!(total <= requests.len() as u64, "{total} allocations");
}

#[test]
fn a_batch_allocates_only_its_address_and_answer_lists() {
    let mut door = FrontDoor::open();
    warm_up(&mut door, &point_requests(64));
    let req = batch(100);
    let (allocs, replies) = allocations(|| door.round_trip(&req));
    let Response::Batch { answers, .. } = &replies[0].1 else {
        panic!("not a batch answer: {:?}", replies[0].1);
    };
    assert_eq!(answers.len(), 16);
    // The server's decoded address list and built answer list, the
    // client's decoded answer list, and the `Vec` `poll` returns.
    assert_eq!(allocs, 4);
}

/// Decodes a response payload whose list count at `count_at` has been
/// raised by one past what its bytes hold; returns the allocations the
/// decode made and its result.
fn decode_with_raised_count(
    payload: &mut [u8],
    count_at: usize,
) -> (u64, Result<(u64, Response), FrameError>) {
    let count = u32::from_le_bytes(payload[count_at..count_at + 4].try_into().unwrap());
    payload[count_at..count_at + 4].copy_from_slice(&(count + 1).to_le_bytes());
    allocations(|| Response::decode(payload))
}

#[test]
fn a_batch_answer_count_past_the_payload_is_refused_before_allocating() {
    let absent = WireLookup {
        present: false,
        first_week: None,
        alias: None,
        degraded: false,
    };
    let mut payload = Response::Batch {
        epoch: 3,
        missing_shards: Vec::new(),
        answers: vec![absent; 2],
        present: 0,
        aliased: 0,
    }
    .encode(1);
    // The 24 bytes after the count (two 4-byte answers, two u64 totals)
    // could hold six minimal answers: six passes the count rule and
    // fails later, truncated; seven is refused at the count.
    let count_at = 1 + 8 + 8 + 4;
    payload[count_at..count_at + 4].copy_from_slice(&6u32.to_le_bytes());
    assert!(
        Response::decode(&payload).is_err(),
        "truncated, not refused"
    );
    let (allocs, decoded) = decode_with_raised_count(&mut payload, count_at);
    assert!(matches!(decoded, Err(FrameError::Malformed(_))));
    assert_eq!(allocs, 0);
}

#[test]
fn a_move_count_past_the_payload_is_refused_before_allocating() {
    let mut payload = Response::Moved {
        epoch: 3,
        lagging: false,
        moves: vec![WireMove {
            mac: 1,
            from_net: 2,
            to_net: 3,
            week: 4,
        }],
    }
    .encode(1);
    let (allocs, decoded) = decode_with_raised_count(&mut payload, 1 + 8 + 8 + 1);
    assert!(matches!(decoded, Err(FrameError::Malformed(_))));
    assert_eq!(allocs, 0);
}
