//! The per-connection server state machine.
//!
//! A [`ServerConn`] is sans-io: it consumes raw bytes via
//! [`ServerConn::on_bytes`] and returns the bytes to write back — no
//! sockets, no threads, no clocks beyond the caller's `now_us`. The
//! [`ServerConn::pump`] convenience moves bytes through any
//! [`Transport`].
//!
//! Lifecycle: the connection starts awaiting the client's 8-byte
//! preamble (the server's own preamble is available immediately from
//! [`ServerConn::handshake_bytes`]); once validated it serves frames
//! until a structural violation closes it. Every decoded request gets
//! **exactly one** response frame — an answer, a `Throttled`, a `Shed`,
//! or an `Error` — never a silent drop.
//!
//! Batch coalescing: all requests decoded from one `on_bytes` chunk are
//! answered against a single snapshot clone (one `Arc` bump, one
//! epoch, taken when the first request gets past admission), so
//! pipelined requests cost one snapshot resolution and can never
//! straddle a publication mid-chunk.
//!
//! A chunk with a framing violation anywhere in it (oversized length,
//! bad checksum) is answered not at all: the decoder validates the whole
//! chunk before handing out its first payload, then the connection
//! closes.

use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::Instant;

use v6serve::{HitlistStore, ServeStatus, Snapshot};

use crate::admit::AdmitDecision;
use crate::frame::{check_preamble, frame_into, trim, FrameDecoder, FrameError, PREAMBLE_LEN};
use crate::proto::{Request, Response, WireLookup, WireMove, MAX_MOVED_ROWS};
use crate::server::WireServer;
use crate::transport::{Transport, TransportError};

/// What one [`ServerConn::on_bytes`] call produced.
#[derive(Debug, Default)]
pub struct ConnOutput {
    /// Bytes to write back to the client (response frames, in order).
    /// Empty in what [`ServerConn::pump`] returns: it has already sent
    /// them.
    pub bytes: Vec<u8>,
    /// True when the connection must close (protocol violation or
    /// explicit shutdown); `error` says why.
    pub close: bool,
    /// The violation that closed the connection, if any.
    pub error: Option<FrameError>,
}

#[derive(Debug, PartialEq, Eq)]
enum ConnPhase {
    AwaitPreamble,
    Open,
    Closed,
}

/// Server side of one client connection.
pub struct ServerConn {
    server: Arc<WireServer>,
    client_id: u64,
    phase: ConnPhase,
    preamble_buf: Vec<u8>,
    decoder: FrameDecoder,
    handshake_sent: bool,
    /// What [`ServerConn::pump`] receives into, reused across rounds.
    inbuf: Vec<u8>,
    /// The response frames [`ServerConn::pump`] encodes in place,
    /// reused across rounds.
    outbuf: Vec<u8>,
}

impl ServerConn {
    pub(crate) fn new(server: Arc<WireServer>, client_id: u64) -> Self {
        server.metrics().record_conn_opened();
        ServerConn {
            server,
            client_id,
            phase: ConnPhase::AwaitPreamble,
            preamble_buf: Vec::with_capacity(PREAMBLE_LEN),
            decoder: FrameDecoder::new(),
            handshake_sent: false,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
        }
    }

    /// The client identity this connection authenticated as.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// True once the connection closed (violation or shutdown).
    pub fn is_closed(&self) -> bool {
        self.phase == ConnPhase::Closed
    }

    /// The server's own preamble, to be written before any response
    /// frame.
    pub fn handshake_bytes(&self) -> [u8; PREAMBLE_LEN] {
        crate::frame::preamble()
    }

    /// Consumes client bytes arriving at `now_us`; returns response
    /// bytes and the close verdict.
    pub fn on_bytes(&mut self, bytes: &[u8], now_us: u64) -> ConnOutput {
        let mut out = ConnOutput::default();
        (out.close, out.error) = self.consume(bytes, now_us, &mut out.bytes);
        out
    }

    /// [`ServerConn::on_bytes`] appending the response frames to `out`;
    /// returns the close verdict and the violation behind it.
    fn consume(
        &mut self,
        bytes: &[u8],
        now_us: u64,
        out: &mut Vec<u8>,
    ) -> (bool, Option<FrameError>) {
        if self.phase == ConnPhase::Closed {
            return (true, None);
        }
        let mut rest = bytes;
        if self.phase == ConnPhase::AwaitPreamble {
            let need = PREAMBLE_LEN - self.preamble_buf.len();
            let take = need.min(rest.len());
            self.preamble_buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.preamble_buf.len() < PREAMBLE_LEN {
                return (false, None);
            }
            let fixed: [u8; PREAMBLE_LEN] =
                self.preamble_buf[..].try_into().expect("length checked");
            if let Err(e) = check_preamble(&fixed) {
                return self.fail(e);
            }
            self.phase = ConnPhase::Open;
        }
        if rest.is_empty() {
            return (false, None);
        }

        // One snapshot answers every request in this chunk — batch
        // coalescing at the connection boundary — resolved when the
        // first request needs it.
        let (server, client_id) = (&*self.server, self.client_id);
        let mut snap: Option<Arc<Snapshot>> = None;
        let mut undecodable = None;
        let decoded = self.decoder.feed_each(rest, |payload| {
            if undecodable.is_some() {
                return;
            }
            match Request::decode(payload) {
                Ok((id, req)) => {
                    let resp = answer(server, client_id, &mut snap, req, now_us);
                    frame_into(out, |b| resp.encode_into(id, b));
                }
                Err(e) => {
                    // The frame was intact (checksum passed) but the
                    // payload is not a request we speak: tell the
                    // client, then close.
                    let resp = Response::Error {
                        message: e.to_string(),
                    };
                    frame_into(out, |b| resp.encode_into(0, b));
                    undecodable = Some(e);
                }
            }
            server.metrics().record_frame_out();
        });
        let frames = match decoded {
            Ok(n) => n,
            Err(e) => return self.fail(e),
        };
        if frames > 0 {
            self.server.metrics().record_frames_in(frames as u64);
        }
        match undecodable {
            Some(e) => self.fail(e),
            None => (false, None),
        }
    }

    fn fail(&mut self, error: FrameError) -> (bool, Option<FrameError>) {
        self.server.metrics().record_protocol_error();
        self.close_internal();
        (true, Some(error))
    }

    fn close_internal(&mut self) {
        if self.phase != ConnPhase::Closed {
            self.phase = ConnPhase::Closed;
            self.server.metrics().record_conn_closed();
        }
    }

    /// Explicitly closes the connection (accounted in `wire.conn.*`).
    pub fn close(&mut self) {
        self.close_internal();
    }

    /// Moves bytes through `transport`: sends the server preamble on
    /// the first call, receives whatever the client sent by `now_us`,
    /// processes it as [`ServerConn::on_bytes`] does, and sends the
    /// responses back.
    ///
    /// The connection receives into and encodes into two buffers it
    /// owns and reuses, so a steady round allocates nothing here. The
    /// returned [`ConnOutput`] carries the close verdict of this round
    /// with `bytes` empty — they went to the transport. A buffer one
    /// burst grew past [`FrameDecoder::MAX_BUFFERED`] is shrunk back
    /// before this returns.
    pub fn pump<T: Transport>(
        &mut self,
        transport: &mut T,
        now_us: u64,
    ) -> Result<ConnOutput, TransportError> {
        if !self.handshake_sent {
            transport.send(&self.handshake_bytes(), now_us)?;
            self.handshake_sent = true;
        }
        // Both buffers are empty between rounds; taken out of `self` so
        // that `consume` can borrow the connection beside them.
        let mut inbound = std::mem::take(&mut self.inbuf);
        if let Err(e) = transport.recv_into(now_us, &mut inbound) {
            self.inbuf = inbound;
            self.close_internal();
            return Err(e);
        }
        let mut reply = std::mem::take(&mut self.outbuf);
        let (close, error) = self.consume(&inbound, now_us, &mut reply);
        let sent = if reply.is_empty() {
            Ok(())
        } else {
            transport.send(&reply, now_us)
        };
        for buf in [&mut inbound, &mut reply] {
            buf.clear();
            trim(buf);
        }
        (self.inbuf, self.outbuf) = (inbound, reply);
        sent?;
        if close {
            transport.close();
        }
        Ok(ConnOutput {
            bytes: Vec::new(),
            close,
            error,
        })
    }
}

impl Drop for ServerConn {
    fn drop(&mut self) {
        self.close_internal();
    }
}

/// Admission + dispatch for one decoded request from `client_id`;
/// `snap` is the chunk's snapshot, resolved by the first request that
/// gets past admission.
fn answer(
    server: &WireServer,
    client_id: u64,
    snap: &mut Option<Arc<Snapshot>>,
    req: Request,
    now_us: u64,
) -> Response {
    // Pings are liveness probes: answered before admission so a
    // throttled client can still see the server is up.
    if req == Request::Ping {
        return Response::Pong;
    }
    let metrics = server.metrics();
    let class = match server.admit_classified(client_id, now_us) {
        (AdmitDecision::Admit, class) => {
            metrics.record_admitted();
            class
        }
        (
            AdmitDecision::Throttle {
                retry_after_ms,
                class,
            },
            _,
        ) => {
            metrics.record_throttled(class);
            return Response::Throttled {
                retry_after_ms,
                class,
            };
        }
        (AdmitDecision::Shed { reason }, _) => {
            metrics.record_shed(reason);
            return Response::Shed { reason };
        }
    };
    let snap = snap.get_or_insert_with(|| server.engine().store().snapshot());
    let started = Instant::now();
    let resp = serve_request_with(snap, Some(server.engine().store().as_ref()), req);
    metrics.record_latency(class, started.elapsed());
    resp
}

/// Answers one admitted request from `snap`. Pure — no admission, no
/// metrics — so the golden fixtures and chaos harness can call it
/// directly. Windowed streaming requests get a labeled
/// [`Response::Error`]; servers with streaming analytics use
/// [`serve_request_with`].
pub fn serve_request(snap: &Snapshot, req: Request) -> Response {
    serve_request_with(snap, None, req)
}

/// Answers one admitted request from `snap`, routing the windowed
/// streaming-analytics requests ([`Request::MovedBetween`],
/// [`Request::EntropyShift`]) to the operators of `store`
/// ([`HitlistStore::enable_analytics`]). This is the one dispatcher:
/// served connections and in-process callers alike get their answers
/// here.
///
/// A windowed answer is labeled with the epoch its operators reflect,
/// read under the same lock as its rows. The operators are fed by the
/// store's own publishes and never skip an epoch, so `lagging` is
/// always `false`.
pub fn serve_request_with(snap: &Snapshot, store: Option<&HitlistStore>, req: Request) -> Response {
    match req {
        Request::MovedBetween { w0, w1 } => windowed(store.and_then(|store| {
            store.analytics(|epoch, ops| {
                // The cap stops the scan of the device table, which
                // runs under the lock a publish's fold waits on.
                let moves: Vec<WireMove> = ops
                    .devices
                    .moved_between(w0, w1)
                    .take(MAX_MOVED_ROWS)
                    .map(|m| WireMove {
                        mac: m.mac,
                        from_net: m.from_net,
                        to_net: m.to_net,
                        week: m.week,
                    })
                    .collect();
                Response::Moved {
                    epoch,
                    lagging: false,
                    moves,
                }
            })
        })),
        Request::EntropyShift { as_index, w0, w1 } => windowed(store.and_then(|store| {
            store.analytics(|epoch, ops| Response::EntropyShift {
                epoch,
                lagging: false,
                shift: ops.entropy.shift(as_index, w0, w1),
            })
        })),
        Request::Ping => Response::Pong,
        Request::Membership { addr } => Response::Bool {
            value: snap.contains(Ipv6Addr::from(addr)),
        },
        Request::MembershipUnaliased { addr } => {
            let a = Ipv6Addr::from(addr);
            Response::Bool {
                value: snap.contains(a) && !snap.is_aliased(a),
            }
        }
        Request::Lookup { addr } => Response::Lookup {
            epoch: snap.epoch(),
            answer: lookup_in(snap, addr),
        },
        Request::Density { prefix } => Response::Count {
            epoch: snap.epoch(),
            value: snap.count_within(&prefix),
        },
        Request::NewSince { week } => Response::Count {
            epoch: snap.epoch(),
            value: snap.new_since(week),
        },
        Request::Batch { addrs } => {
            let mut present = 0u64;
            let mut aliased = 0u64;
            let answers: Vec<WireLookup> = addrs
                .iter()
                .map(|&a| {
                    let ans = lookup_in(snap, a);
                    present += u64::from(ans.present);
                    aliased += u64::from(ans.alias.is_some());
                    ans
                })
                .collect();
            Response::Batch {
                epoch: snap.epoch(),
                missing_shards: snap.missing_shards().to_vec(),
                answers,
                present,
                aliased,
            }
        }
        Request::Status => Response::Status {
            epoch: snap.epoch(),
            week: snap.week(),
            len: snap.len(),
            shard_count: snap.shard_count() as u32,
            missing_shards: match snap.status() {
                ServeStatus::Ok => Vec::new(),
                ServeStatus::Degraded { missing_shards } => missing_shards,
            },
        },
    }
}

/// A windowed answer, or the labeled refusal of a server whose store
/// has no streaming analytics.
fn windowed(answer: Option<Response>) -> Response {
    answer.unwrap_or_else(|| Response::Error {
        message: "streaming analytics not enabled on this server".to_string(),
    })
}

fn lookup_in(snap: &Snapshot, addr: u128) -> WireLookup {
    let a = Ipv6Addr::from(addr);
    let first_week = snap.first_week(a);
    WireLookup {
        present: first_week.is_some(),
        first_week,
        alias: snap.longest_alias(a),
        degraded: snap.shard_missing(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{duplex, AdmissionConfig, WireClient, MAX_BATCH_ADDRS};
    use v6addr::Prefix;
    use v6serve::{HitlistStore, QueryEngine, SnapshotBuilder};

    fn addr(s: &str) -> u128 {
        s.parse::<Ipv6Addr>().unwrap().into()
    }

    /// Weeks {0, 0, 3}, with `2001:db8:2::/48` aliased.
    fn snapshot() -> Snapshot {
        let mut b = SnapshotBuilder::new("svc", 4);
        b.add_bits(addr("2001:db8:1::1"), 0);
        b.add_bits(addr("2001:db8:2::1"), 0);
        b.add_bits(addr("2001:db8:3::1"), 3);
        b.add_alias("2001:db8:2::/48".parse().unwrap(), 0);
        b.build()
    }

    fn count(snap: &Snapshot, req: Request) -> u64 {
        match serve_request(snap, req) {
            Response::Count { value, .. } => value,
            other => panic!("expected Count, got {other:?}"),
        }
    }

    fn new_since(snap: &Snapshot, week: u64) -> u64 {
        count(snap, Request::NewSince { week })
    }

    #[test]
    fn typed_requests_answer() {
        let store = HitlistStore::new("svc", 4);
        store.publish(snapshot()).unwrap();
        let snap = store.snapshot();
        let ask = |req| serve_request(&snap, req);
        let bool_of = |req| match ask(req) {
            Response::Bool { value } => value,
            other => panic!("expected Bool, got {other:?}"),
        };
        let (plain, aliased) = (addr("2001:db8:1::1"), addr("2001:db8:2::1"));
        assert!(bool_of(Request::Membership { addr: plain }));
        assert!(bool_of(Request::Membership { addr: aliased }));
        assert!(!bool_of(Request::MembershipUnaliased { addr: aliased }));
        assert!(bool_of(Request::MembershipUnaliased { addr: plain }));

        assert_eq!(
            ask(Request::Lookup {
                addr: addr("2001:db8:3::1")
            }),
            Response::Lookup {
                epoch: 1,
                answer: WireLookup {
                    present: true,
                    first_week: Some(3),
                    alias: None,
                    degraded: false,
                },
            }
        );
        let prefix = "2001:db8::/32".parse().unwrap();
        assert_eq!(count(&snap, Request::Density { prefix }), 3);
        assert_eq!(new_since(&snap, 0), 1);
        assert_eq!(new_since(&snap, 3), 0);

        // A batch resolves against one epoch and counts as it goes.
        let addrs = vec![plain, aliased, addr("2001:db8:9::9")];
        match ask(Request::Batch { addrs }) {
            Response::Batch {
                epoch,
                missing_shards,
                answers,
                present,
                aliased,
            } => {
                assert_eq!(epoch, 1);
                assert!(missing_shards.is_empty());
                assert_eq!(answers.len(), 3);
                assert_eq!((present, aliased), (2, 1));
                assert!(!answers[2].present);
            }
            other => panic!("expected Batch, got {other:?}"),
        }
    }

    #[test]
    fn new_since_edges() {
        // Fresh store, nothing published: the empty epoch-0 snapshot
        // has nothing newer than any week, including week 0.
        let empty = HitlistStore::new("svc", 4).snapshot();
        assert_eq!(empty.epoch(), 0);
        assert_eq!(new_since(&empty, 0), 0);

        // A published but empty epoch answers the same way.
        let store = HitlistStore::new("svc", 4);
        store
            .publish(SnapshotBuilder::new("svc", 4).build())
            .unwrap();
        let snap = store.snapshot();
        assert_eq!(new_since(&snap, 0), 0);
        assert_eq!(new_since(&snap, u64::from(u32::MAX)), 0);

        // Week 0 counts strictly-later first sightings; week numbers
        // beyond every entry count nothing.
        let snap = snapshot();
        assert_eq!(new_since(&snap, 0), 1, "only the week-3 entry is after 0");
        assert_eq!(new_since(&snap, 2), 1);
        assert_eq!(new_since(&snap, 3), 0, "a week is not after itself");
        assert_eq!(new_since(&snap, u64::from(u32::MAX)), 0);
    }

    #[test]
    fn degraded_snapshots_label_status_and_batches() {
        let mut b = SnapshotBuilder::new("svc", 4);
        b.add_bits(addr("2001:db8:1::1"), 0);
        b.add_bits(addr("2001:db8:2::1"), 0);
        b.add_bits(addr("2001:db8:3::1"), 5);
        let snap = b.with_quarantined(vec![0, 2]).build();

        // The diff still answers from the stale-but-consistent corpus…
        assert_eq!(new_since(&snap, 0), 1);
        assert_eq!(new_since(&snap, 5), 0);
        // …and the degraded label travels alongside, never silently.
        match serve_request(&snap, Request::Status) {
            Response::Status { missing_shards, .. } => assert_eq!(missing_shards, vec![0, 2]),
            other => panic!("expected Status, got {other:?}"),
        }
        let addrs = ["2001:db8:1::1", "2001:db8:2::1", "2001:db8:3::1"]
            .map(addr)
            .to_vec();
        match serve_request(&snap, Request::Batch { addrs }) {
            Response::Batch {
                missing_shards,
                answers,
                present,
                ..
            } => {
                assert_eq!(missing_shards, vec![0, 2]);
                assert_eq!(present, 3);
                // 2001:db8:N::/48 lands in shard N of 4.
                let flagged: Vec<bool> = answers.iter().map(|a| a.degraded).collect();
                assert_eq!(flagged, [false, true, false]);
            }
            other => panic!("expected Batch, got {other:?}"),
        }
    }

    #[test]
    fn buffers_a_burst_grew_are_shrunk_back_by_the_pump() {
        let store = Arc::new(HitlistStore::new("burst", 4));
        let mut b = SnapshotBuilder::new("burst", 4);
        b.add_bits(1, 0);
        b.add_alias(Prefix::from_bits(0, 16), 0);
        store.publish(b.build()).expect("publish");
        let server = WireServer::new(QueryEngine::new(store), AdmissionConfig::default(), 0);
        let mut conn = server.open_connection(1);
        let (client_end, mut server_end) = duplex();
        let mut client = WireClient::connect(client_end, 0).expect("connect");
        let bounded = |conn: &ServerConn| {
            for (name, buf) in [("in", &conn.inbuf), ("out", &conn.outbuf)] {
                assert!(
                    buf.capacity() <= FrameDecoder::MAX_BUFFERED,
                    "{name}-buffer keeps {} bytes",
                    buf.capacity()
                );
            }
        };

        // Two maximal batches in one round: ~1.3 MB of requests in and,
        // every address under an alias, ~1.7 MB of answers out.
        let big = Request::Batch {
            addrs: (0..MAX_BATCH_ADDRS as u128).collect(),
        };
        client.send(&big, 0).expect("send");
        client.send(&big, 0).expect("send");
        conn.pump(&mut server_end, 0).expect("pump");
        let answers = client.poll(0).expect("poll");
        assert_eq!(answers.len(), 2);
        assert!(
            matches!(&answers[0].1, Response::Batch { aliased, .. } if *aliased == MAX_BATCH_ADDRS as u64)
        );
        bounded(&conn);

        client.send(&Request::Ping, 1).expect("send");
        conn.pump(&mut server_end, 1).expect("pump");
        assert_eq!(client.poll(1).expect("poll").len(), 1);
        bounded(&conn);
    }
}
