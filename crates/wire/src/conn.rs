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
//! epoch), so pipelined requests cost one snapshot resolution and can
//! never straddle a publication mid-chunk.

use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::Instant;

use v6serve::{ServeStatus, Snapshot, StreamAnalytics};

use crate::admit::AdmitDecision;
use crate::frame::{check_preamble, frame, FrameDecoder, FrameError, PREAMBLE_LEN};
use crate::proto::{Request, Response, WireLookup, WireMove, MAX_MOVED_ROWS};
use crate::server::WireServer;
use crate::transport::{Transport, TransportError};

/// What one [`ServerConn::on_bytes`] call produced.
#[derive(Debug, Default)]
pub struct ConnOutput {
    /// Bytes to write back to the client (response frames, in order).
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
        if self.phase == ConnPhase::Closed {
            out.close = true;
            return out;
        }
        let mut rest = bytes;
        if self.phase == ConnPhase::AwaitPreamble {
            let need = PREAMBLE_LEN - self.preamble_buf.len();
            let take = need.min(rest.len());
            self.preamble_buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.preamble_buf.len() < PREAMBLE_LEN {
                return out;
            }
            let fixed: [u8; PREAMBLE_LEN] =
                self.preamble_buf[..].try_into().expect("length checked");
            if let Err(e) = check_preamble(&fixed) {
                return self.fail(out, e);
            }
            self.phase = ConnPhase::Open;
        }
        if rest.is_empty() {
            return out;
        }
        let payloads = match self.decoder.feed(rest) {
            Ok(p) => p,
            Err(e) => return self.fail(out, e),
        };
        if payloads.is_empty() {
            return out;
        }
        self.server
            .metrics()
            .record_frames_in(payloads.len() as u64);

        // One snapshot resolves every request in this chunk: batch
        // coalescing at the connection boundary.
        let snap = self.server.engine().store().snapshot();
        for payload in &payloads {
            let (id, req) = match Request::decode(payload) {
                Ok(pair) => pair,
                Err(e) => {
                    // The frame was intact (checksum passed) but the
                    // payload is not a request we speak: tell the
                    // client, then close.
                    let resp = Response::Error {
                        message: e.to_string(),
                    };
                    out.bytes.extend_from_slice(&frame(&resp.encode(0)));
                    self.server.metrics().record_frame_out();
                    return self.fail(out, e);
                }
            };
            let resp = self.answer(&snap, req, now_us);
            out.bytes.extend_from_slice(&frame(&resp.encode(id)));
            self.server.metrics().record_frame_out();
        }
        out
    }

    /// Admission + dispatch for one decoded request.
    fn answer(&self, snap: &Snapshot, req: Request, now_us: u64) -> Response {
        // Pings are liveness probes: answered before admission so a
        // throttled client can still see the server is up.
        if req == Request::Ping {
            return Response::Pong;
        }
        let metrics = self.server.metrics();
        let decision = self.server.admit(self.client_id, now_us);
        let class = match decision {
            AdmitDecision::Admit => {
                metrics.record_admitted();
                self.server
                    .client_class(self.client_id)
                    .unwrap_or(crate::admit::ClientClass::New)
            }
            AdmitDecision::Throttle {
                retry_after_ms,
                class,
            } => {
                metrics.record_throttled(class);
                return Response::Throttled {
                    retry_after_ms,
                    class,
                };
            }
            AdmitDecision::Shed { reason } => {
                metrics.record_shed(reason);
                return Response::Shed { reason };
            }
        };
        let started = Instant::now();
        let resp = serve_request_with(snap, self.server.engine().analytics().map(|a| &**a), req);
        metrics.record_latency(class, started.elapsed());
        resp
    }

    fn fail(&mut self, mut out: ConnOutput, error: FrameError) -> ConnOutput {
        self.server.metrics().record_protocol_error();
        self.close_internal();
        out.close = true;
        out.error = Some(error);
        out
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
    /// processes it, and sends the responses back. Returns the close
    /// verdict of this round.
    pub fn pump<T: Transport>(
        &mut self,
        transport: &mut T,
        now_us: u64,
    ) -> Result<ConnOutput, TransportError> {
        if !self.handshake_sent {
            transport.send(&self.handshake_bytes(), now_us)?;
            self.handshake_sent = true;
        }
        let inbound = match transport.recv(now_us) {
            Ok(b) => b,
            Err(TransportError::Closed) => {
                self.close_internal();
                return Err(TransportError::Closed);
            }
        };
        let out = self.on_bytes(&inbound, now_us);
        if !out.bytes.is_empty() {
            transport.send(&out.bytes, now_us)?;
        }
        if out.close {
            transport.close();
        }
        Ok(out)
    }
}

impl Drop for ServerConn {
    fn drop(&mut self) {
        self.close_internal();
    }
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
/// [`Request::EntropyShift`]) to `analytics` when present.
pub fn serve_request_with(
    snap: &Snapshot,
    analytics: Option<&StreamAnalytics>,
    req: Request,
) -> Response {
    match req {
        Request::MovedBetween { w0, w1 } => {
            let Some(analytics) = analytics else {
                return Response::Error {
                    message: "streaming analytics not enabled on this server".to_string(),
                };
            };
            let mut moves: Vec<WireMove> = analytics
                .moved_between(w0, w1)
                .into_iter()
                .map(|m| WireMove {
                    mac: m.mac,
                    from_net: m.from_net,
                    to_net: m.to_net,
                    week: m.week,
                })
                .collect();
            moves.truncate(MAX_MOVED_ROWS);
            return Response::Moved {
                epoch: analytics.epoch(),
                lagging: analytics.is_lagging(),
                moves,
            };
        }
        Request::EntropyShift { as_index, w0, w1 } => {
            let Some(analytics) = analytics else {
                return Response::Error {
                    message: "streaming analytics not enabled on this server".to_string(),
                };
            };
            return Response::EntropyShift {
                epoch: analytics.epoch(),
                lagging: analytics.is_lagging(),
                shift: analytics.entropy_shift(as_index, w0, w1),
            };
        }
        _ => {}
    }
    match req {
        Request::Ping => Response::Pong,
        Request::Membership { addr } => Response::Bool {
            value: snap.membership(Ipv6Addr::from(addr)).is_present(),
        },
        Request::MembershipUnaliased { addr } => {
            let a = Ipv6Addr::from(addr);
            Response::Bool {
                value: snap.membership(a).is_present() && !snap.is_aliased(a),
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
        Request::MovedBetween { .. } | Request::EntropyShift { .. } => {
            unreachable!("windowed requests answered before snapshot dispatch")
        }
    }
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
