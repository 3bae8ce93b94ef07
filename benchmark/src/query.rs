//! The query path: `WireClient → duplex pipe → ServerConn::pump →
//! WireClient::poll`, closed loop, one connection, one request
//! outstanding, every reply compared with the model's.
//!
//! Closed loop only: `v6wire` is sans-io and caller-pumped, so there is
//! no accept loop or internal queue for an open loop to fill; an arrival
//! schedule would measure this generator (see README "Known limits").

use std::hint::black_box;
use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::Instant;

use v6addr::Prefix;
use v6serve::{HitlistStore, QueryEngine, Snapshot, SnapshotBuilder};
use v6wire::frame::{frame, preamble};
use v6wire::{
    duplex, serve_request, Admission, AdmissionConfig, FrameDecoder, PipeTransport, Request,
    Response, ServerConn, Transport, WireClient, WireServer,
};

use crate::gen::{as_net, clustered_corpus, random_iid, Corpus, AS_COUNT, WEEKS};
use crate::util::{median, peak_rss_mb, quantile, timed_setup, Outcome, Rng, Tracer};

/// Requests per timed block (about 5 ms). Rates and quantiles are taken
/// per block and the slower-quartile block is reported. On the shared
/// host this was sized on, the clock of a vCPU alternates every few
/// seconds between two speeds 1.27x apart, so the blocks of a run fall
/// into a fast and a slow plateau whose mix differs from run to run: the
/// median block moved by up to 20 % between identical runs, the
/// slower-quartile block (inside the slow plateau, which every run of a
/// few seconds has) by 1 to 3 %. A change to the code moves both alike.
/// The staged replay uses the same blocks: one clock pair per 4 096 calls
/// keeps the clock below 1 % of a span.
const BLOCK: usize = 4_096;
/// Blocks a round of the traced run takes from the request list: plain
/// loop, spanned loop, codec + engine, `on_bytes`, address probes,
/// density probes.
const ROUND_BLOCKS: usize = 6;
const SHARDS: usize = 8;
const BATCH: usize = 16;

struct Spec {
    addrs: usize,
    aliased: usize,
    requests: usize,
    /// Scan-shaped traffic (near-misses in known /64s) or the default mix.
    scan: bool,
    /// The tail percentile, chosen inside a class of requests and not at
    /// the edge of one. Default mix: p99 lies in the slowest 5 %, the
    /// batches. Scan mix: the slowest 4 % are the /32 and /40 density
    /// probes, 16 binary searches over rarely touched `agg48` lines each,
    /// whose latency doubles with what the neighbours leave of the shared
    /// cache (p99 read 2.9 to 6.8 us in ten identical runs); p95 lies
    /// below them, in the /48 probes (2.0 to 2.3 us).
    tail: f64,
}

fn spec(workload: &str, quick: bool) -> Spec {
    let requests = if quick { 1 << 16 } else { 1 << 20 };
    match workload {
        "query-hot" => Spec {
            addrs: 65_536,
            aliased: 16,
            requests,
            scan: false,
            tail: 0.99,
        },
        "query-cold-scan" => Spec {
            addrs: if quick { 1 << 20 } else { 1 << 22 },
            aliased: 256,
            requests,
            scan: true,
            tail: 0.95,
        },
        other => unreachable!("{other} is not a query workload"),
    }
}

/// Limits no single closed-loop client can reach, so nothing is refused;
/// the per-request bookkeeping of `Admission::admit` still runs.
fn admission() -> AdmissionConfig {
    const UNREACHABLE: u64 = 1_000_000_000;
    AdmissionConfig {
        client_rate_per_sec: UNREACHABLE,
        client_burst: UNREACHABLE,
        global_rate_per_sec: UNREACHABLE,
        global_burst: UNREACHABLE,
        flood_rate_per_sec: UNREACHABLE,
        ..AdmissionConfig::default()
    }
}

/// `QueryMix::default()` of `v6serve::loadgen` (40/15/25/10/5/5) at a
/// hit fraction of one half, restated here so that the inputs do not
/// change when `loadgen` does.
fn default_mix(rng: &mut Rng, corpus: &Corpus) -> Request {
    let addr = |rng: &mut Rng| {
        if rng.below(2) == 0 {
            corpus.entries[rng.index(corpus.entries.len())].0
        } else {
            as_net(rng.below(AS_COUNT)) | (u128::from(rng.next_u64()) << 32) | 1
        }
    };
    match rng.below(100) {
        0..40 => Request::Membership { addr: addr(rng) },
        40..55 => Request::MembershipUnaliased { addr: addr(rng) },
        55..80 => Request::Lookup { addr: addr(rng) },
        80..90 => Request::Density {
            prefix: Prefix::from_bits(addr(rng), 48),
        },
        90..95 => Request::NewSince {
            week: rng.below(WEEKS + 2),
        },
        _ => Request::Batch {
            addrs: (0..BATCH).map(|_| addr(rng)).collect(),
        },
    }
}

/// What a target-generation scanner asks: nine in ten probes re-draw
/// the interface identifier inside a known /64 (a near-miss that lands
/// between stored suffixes), one in ten is a hit. Uniform-random misses
/// are not used: they all fall in the same few gaps and probe from
/// cache.
fn scan_mix(rng: &mut Rng, corpus: &Corpus) -> Request {
    let known = corpus.entries[rng.index(corpus.entries.len())].0;
    let addr = if rng.below(10) == 0 {
        known
    } else {
        (known >> 64 << 64) | u128::from(random_iid(rng))
    };
    match rng.below(100) {
        0..50 => Request::Membership { addr },
        50..70 => Request::MembershipUnaliased { addr },
        70..90 => Request::Lookup { addr },
        _ => Request::Density {
            prefix: Prefix::from_bits(addr, [32, 40, 48, 56, 64][rng.index(5)]),
        },
    }
}

struct Fixture {
    corpus: Corpus,
    snapshot: Arc<Snapshot>,
    build_ms: f64,
    server: Arc<WireServer>,
    conn: ServerConn,
    server_end: PipeTransport,
    client: WireClient<PipeTransport>,
    requests: Vec<Request>,
    expected: Vec<Response>,
    /// Origin of the `now_us` clock handed to the wire layer.
    clock: Instant,
}

fn setup(spec: &Spec, seed: u64) -> Fixture {
    let mut rng = Rng::new(seed, "query-corpus");
    let corpus = clustered_corpus(&mut rng, spec.addrs, spec.aliased);

    let mut builder = SnapshotBuilder::new("bench", SHARDS);
    for &(bits, week) in &corpus.entries {
        builder.add_bits(bits, week);
    }
    for &net in &corpus.aliases {
        builder.add_alias(Prefix::from_bits(net, 48), 0);
    }
    let t = Instant::now();
    let built = builder.build();
    let build_ms = t.elapsed().as_secs_f64() * 1e3;

    let store = Arc::new(HitlistStore::new("bench", SHARDS));
    let epoch = store.publish(built).expect("publish the corpus").epoch;
    let snapshot = store.snapshot();
    let server = WireServer::new(QueryEngine::new(store), admission(), 0);
    let mut conn = server.open_connection(1);
    let (client_end, mut server_end) = duplex();
    let mut client = WireClient::connect(client_end, 0).expect("connect");
    conn.pump(&mut server_end, 0).expect("handshake");
    assert!(client.poll(0).expect("server preamble").is_empty());

    let mut rng = Rng::new(seed, "query-requests");
    let requests: Vec<Request> = (0..spec.requests)
        .map(|_| {
            if spec.scan {
                scan_mix(&mut rng, &corpus)
            } else {
                default_mix(&mut rng, &corpus)
            }
        })
        .collect();
    let expected = requests.iter().map(|r| corpus.answer(r, epoch)).collect();
    Fixture {
        corpus,
        snapshot,
        build_ms,
        server,
        conn,
        server_end,
        client,
        requests,
        expected,
        clock: Instant::now(),
    }
}

/// Sends `count` requests starting at `first` (cycling through the
/// pre-generated list), one outstanding at a time; appends each
/// send → decoded-reply latency to `lat` and returns the wall time.
fn closed_loop(
    fx: &mut Fixture,
    first: usize,
    count: usize,
    lat: &mut Vec<u32>,
    out: &mut Outcome,
) -> f64 {
    let started = Instant::now();
    for k in first..first + count {
        let i = k % fx.requests.len();
        let t0 = Instant::now();
        let now_us = t0.duration_since(fx.clock).as_micros() as u64;
        let id = fx.client.send(&fx.requests[i], now_us).expect("send");
        fx.conn.pump(&mut fx.server_end, now_us).expect("pump");
        let replies = fx.client.poll(now_us).expect("poll");
        lat.push(t0.elapsed().as_nanos() as u32);
        // A Throttled/Shed/Error frame differs from the model's answer,
        // so it is counted here like any other wrong reply.
        out.check(replies.len() == 1 && replies[0].0 == id && replies[0].1 == fx.expected[i]);
    }
    started.elapsed().as_secs_f64()
}

/// Runs timed blocks for `seconds`; per block
/// `[requests/s, p50 ns, tail ns]`.
fn timed_blocks(fx: &mut Fixture, seconds: f64, tail: f64, out: &mut Outcome) -> Vec<[f64; 3]> {
    let mut lat = Vec::with_capacity(BLOCK);
    closed_loop(fx, 0, BLOCK, &mut lat, out); // warm-up, not reported
    let mut blocks = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || blocks.len() < 5 {
        lat.clear();
        let wall = closed_loop(fx, (blocks.len() + 1) * BLOCK, BLOCK, &mut lat, out);
        let mut ns: Vec<f64> = lat.iter().map(|&l| f64::from(l)).collect();
        blocks.push([
            BLOCK as f64 / wall,
            quantile(&mut ns, 0.5),
            quantile(&mut ns, tail),
        ]);
    }
    blocks
}

/// The `q`-quantile over the blocks of column `i`.
fn column(blocks: &[[f64; 3]], i: usize, q: f64) -> f64 {
    quantile(&mut blocks.iter().map(|b| b[i]).collect::<Vec<f64>>(), q)
}

pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool, quick: bool) -> Outcome {
    let spec = spec(workload, quick);
    let (mut fx, setup_s) = timed_setup(|| setup(&spec, seed));
    let mut out = Outcome::default();
    out.note(format!(
        "{workload}: {} addresses, {} aliased /48s, {} shards, {} pre-generated requests, \
         closed loop, 1 connection, 1 outstanding, 1 thread",
        fx.corpus.entries.len(),
        fx.corpus.aliases.len(),
        SHARDS,
        fx.requests.len()
    ));
    if trace {
        traced(workload, &mut fx, seconds, &mut out);
        return out;
    }
    let blocks = timed_blocks(&mut fx, seconds, spec.tail, &mut out);
    out.note(format!(
        "{} blocks of {BLOCK} requests; each figure is the slower-quartile block; \
         the tail is p{} of a block ({} samples beyond it)",
        blocks.len(),
        100.0 * spec.tail,
        ((1.0 - spec.tail) * BLOCK as f64).round()
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric("throughput_per_s", column(&blocks, 0, 0.25), "1/s");
    out.metric("latency_p50_us", column(&blocks, 1, 0.75) / 1e3, "us");
    out.metric("latency_tail_us", column(&blocks, 2, 0.75) / 1e3, "us");
    out.metric(
        "bytes_per_addr",
        fx.snapshot.stored_bytes() as f64 / fx.snapshot.len() as f64,
        "B",
    );
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out
}

/// The traced run, round by round: a block through the closed loop
/// plain, a block under a span (the difference is what tracing costs),
/// then blocks replayed one stage at a time. The parts of a round run
/// within milliseconds of each other, so the host's clock changes cancel
/// in their ratios; each part takes a block of its own from the list
/// (the requests are identically distributed), so none finds the
/// snapshot lines another has just pulled into cache.
fn traced(workload: &str, fx: &mut Fixture, seconds: f64, out: &mut Outcome) {
    let mut tr = Tracer::new();
    let mut replay = Replay::new(fx);
    let mut lat = Vec::with_capacity(BLOCK);
    let mean = |lat: &[u32]| lat.iter().map(|&l| f64::from(l)).sum::<f64>() / BLOCK as f64;
    let (mut plain_ns, mut loop_ns): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    closed_loop(fx, 0, BLOCK, &mut lat, out); // warm-up, not reported
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || loop_ns.len() < 5 {
        let b = loop_ns.len();
        let first = b * ROUND_BLOCKS * BLOCK;
        // Whichever loop block comes second finds the loop's own code and
        // buffers warm, so the two take turns.
        for spanned in [b % 2 == 1, b % 2 == 0] {
            lat.clear();
            if spanned {
                tr.begin("query.loop.block", b as u64);
                closed_loop(fx, first + BLOCK, BLOCK, &mut lat, out);
                tr.end();
                loop_ns.push(mean(&lat));
            } else {
                closed_loop(fx, first, BLOCK, &mut lat, out);
                plain_ns.push(mean(&lat));
            }
        }
        replay.round(fx, &mut tr, b as u64, first + 2 * BLOCK);
    }
    tr.write(workload);
    let rounds = loop_ns.len(); // each stage saw one block per round
    let refused = fx.server.metrics().throttled() + fx.server.metrics().shed();

    // Per stage and round: ns per call; reported: the slower-quartile
    // round, as for the end-to-end figures.
    let per_round = |name: &str, calls: &[f64]| -> Vec<f64> {
        let spans = tr.per_id_ns(name);
        assert_eq!(spans.len(), rounds, "one {name} span per round");
        spans
            .iter()
            .zip(calls)
            .map(|(s, n)| s.1 as f64 / n.max(1.0))
            .collect()
    };
    let requests = vec![BLOCK as f64; rounds];
    let stage = |name: &str| per_round(name, &requests);
    let slow = |v: &[f64]| quantile(&mut v.to_vec(), 0.75);
    const CODEC: [&str; 4] = ["req_encode", "req_decode", "resp_encode", "resp_decode"];
    let codec = CODEC.map(|s| stage(&format!("wire.codec.{s}")));
    let (admit, engine, on_bytes) = (
        stage("wire.admit"),
        stage("serve.engine"),
        stage("wire.conn.on_bytes"),
    );
    let (transport, clock) = (stage("wire.transport"), stage("query.loop.clock"));

    for (name, ns) in CODEC.iter().zip(&codec) {
        out.metric(&format!("wire.codec.{name}_ns"), slow(ns), "ns");
    }
    let sent = (rounds * BLOCK) as f64; // one block per round goes through the codec
    out.metric("wire.codec.bytes_per_req", replay.req_bytes / sent, "B");
    out.metric("wire.codec.bytes_per_resp", replay.resp_bytes / sent, "B");
    out.metric("wire.admit.ns", slow(&admit), "ns");
    out.metric("wire.admit.refused", refused as f64, "count");
    out.metric("wire.conn.on_bytes_ns", slow(&on_bytes), "ns");
    let conn_self: Vec<f64> = (0..rounds)
        .map(|b| on_bytes[b] - codec[1][b] - admit[b] - engine[b] - codec[2][b])
        .collect();
    out.metric("wire.conn.self_ns", slow(&conn_self), "ns");
    out.metric("wire.transport.self_ns", slow(&transport), "ns");
    out.metric("serve.engine.ns", slow(&engine), "ns");
    for (name, calls) in [
        ("member", &replay.probes),
        ("alias", &replay.probes),
        ("density", &replay.densities),
    ] {
        let ns = per_round(&format!("serve.snapshot.{name}"), calls);
        out.metric(&format!("serve.snapshot.{name}_ns"), slow(&ns), "ns");
    }
    out.metric("serve.build.ms", fx.build_ms, "ms");
    out.metric("query.loop.clock_ns", slow(&clock), "ns");
    let request_ns = slow(&loop_ns);
    out.metric("query.request_ns", request_ns, "ns");
    // What a request costs beyond the client codec, the pipe, the
    // server's `on_bytes` and the loop's clock: glue between the calls,
    // and whatever running the stages back to back hides or adds. The
    // median over the rounds of each round's own share.
    let mut shares: Vec<f64> = (0..rounds)
        .map(|b| {
            let explained = codec[0][b] + codec[3][b] + transport[b] + on_bytes[b] + clock[b];
            1.0 - explained / loop_ns[b]
        })
        .collect();
    let unattributed = median(&mut shares);
    out.metric("query.unattributed_share", unattributed, "ratio");
    out.metric(
        "trace.overhead_share",
        loop_ns.iter().sum::<f64>() / plain_ns.iter().sum::<f64>() - 1.0,
        "ratio",
    );
    out.check_attributed(unattributed);
    out.note(format!(
        "{rounds} rounds of {ROUND_BLOCKS} blocks of {BLOCK} requests: plain, spanned, replayed by stage"
    ));
}

/// The per-stage replay: its own admission gate, connection, decoders
/// and pipe, kept across blocks as the real ones are.
struct Replay {
    admission: Admission,
    conn: ServerConn,
    server_dec: FrameDecoder,
    client_dec: FrameDecoder,
    pipe: (PipeTransport, PipeTransport),
    req_bytes: f64,
    resp_bytes: f64,
    /// Address and density probes per block.
    probes: Vec<f64>,
    densities: Vec<f64>,
}

impl Replay {
    fn new(fx: &Fixture) -> Replay {
        let mut conn = fx.server.open_connection(2);
        assert!(conn.on_bytes(&preamble(), 0).bytes.is_empty());
        Replay {
            admission: Admission::new(admission(), 0),
            conn,
            server_dec: FrameDecoder::new(),
            client_dec: FrameDecoder::new(),
            pipe: duplex(),
            req_bytes: 0.0,
            resp_bytes: 0.0,
            probes: Vec::new(),
            densities: Vec::new(),
        }
    }

    fn through_pipe(&mut self, tr: &mut Tracer, frames: &[Vec<u8>], b: u64) {
        tr.begin("wire.transport", b);
        for f in frames {
            self.pipe.0.send(f, 0).expect("pipe send");
            black_box(self.pipe.1.recv(0).expect("pipe recv"));
        }
        tr.end();
    }

    /// One round of the replay, one span per stage, over the four blocks
    /// that start at request `first`: every stage that probes the
    /// snapshot gets a block no other stage of the round has touched.
    fn round(&mut self, fx: &Fixture, tr: &mut Tracer, b: u64, first: usize) {
        let snap = &*fx.snapshot;
        let block = |k: usize| {
            let at = (first + k * BLOCK) % fx.requests.len();
            &fx.requests[at..at + BLOCK]
        };
        let encode = |chunk: &[Request]| -> Vec<Vec<u8>> {
            chunk
                .iter()
                .enumerate()
                .map(|(i, r)| frame(&r.encode(i as u64 + 1)))
                .collect()
        };
        let now_us = fx.clock.elapsed().as_micros() as u64;
        tr.begin("query.replay.round", b);

        let chunk = block(0);
        tr.begin("wire.codec.req_encode", b);
        let frames = encode(chunk);
        tr.end();
        self.req_bytes += frames.iter().map(Vec::len).sum::<usize>() as f64;
        self.through_pipe(tr, &frames, b);

        tr.begin("wire.codec.req_decode", b);
        let decoded: Vec<(u64, Request)> = frames
            .iter()
            .map(|f| {
                let payloads = self.server_dec.feed(f).expect("own frame");
                Request::decode(&payloads[0]).expect("own request")
            })
            .collect();
        tr.end();

        tr.begin("wire.admit", b);
        for _ in chunk {
            black_box(self.admission.admit(1, now_us));
        }
        tr.end();

        tr.begin("serve.engine", b);
        let responses: Vec<(u64, Response)> = decoded
            .into_iter()
            .map(|(id, req)| (id, serve_request(snap, req)))
            .collect();
        tr.end();

        tr.begin("wire.codec.resp_encode", b);
        let reply_frames: Vec<Vec<u8>> = responses
            .iter()
            .map(|(id, r)| frame(&r.encode(*id)))
            .collect();
        tr.end();
        self.resp_bytes += reply_frames.iter().map(Vec::len).sum::<usize>() as f64;
        self.through_pipe(tr, &reply_frames, b);

        tr.begin("wire.codec.resp_decode", b);
        for f in &reply_frames {
            let payloads = self.client_dec.feed(f).expect("own frame");
            black_box(Response::decode(&payloads[0]).expect("own response"));
        }
        tr.end();

        let frames = encode(block(1));
        tr.begin("wire.conn.on_bytes", b);
        for f in &frames {
            black_box(self.conn.on_bytes(f, now_us));
        }
        tr.end();

        // The closed loop's own cost per request: two clock reads and
        // the `now_us` conversion.
        tr.begin("query.loop.clock", b);
        for _ in chunk {
            let t0 = Instant::now();
            black_box(t0.duration_since(fx.clock).as_micros() as u64);
            black_box(t0.elapsed().as_nanos() as u32);
        }
        tr.end();

        let mut addrs: Vec<Ipv6Addr> = Vec::new();
        for r in block(2) {
            match r {
                Request::Membership { addr }
                | Request::MembershipUnaliased { addr }
                | Request::Lookup { addr } => addrs.push(Ipv6Addr::from(*addr)),
                Request::Batch { addrs: batch } => {
                    addrs.extend(batch.iter().map(|&a| Ipv6Addr::from(a)))
                }
                _ => {}
            }
        }
        let prefixes: Vec<Prefix> = block(3)
            .iter()
            .filter_map(|r| match r {
                Request::Density { prefix } => Some(*prefix),
                _ => None,
            })
            .collect();
        self.probes.push(addrs.len() as f64);
        self.densities.push(prefixes.len() as f64);
        tr.begin("serve.snapshot.member", b);
        for &a in &addrs {
            black_box(snap.membership(a));
        }
        tr.end();
        tr.begin("serve.snapshot.alias", b);
        for &a in &addrs {
            black_box(snap.longest_alias(a));
        }
        tr.end();
        tr.begin("serve.snapshot.density", b);
        for p in &prefixes {
            black_box(snap.count_within(p));
        }
        tr.end();

        tr.end();
    }
}
