//! # v6wire — the hitlist service front door
//!
//! The paper's own warning — *be careful what you wish for* — applies
//! to the service as much as to the hitlist: publish a queryable IPv6
//! hitlist at scale and the first heavy users are scanners and query
//! floods. ROADMAP item 3 therefore asks for a real front door, not an
//! in-process API. This crate is that front door, built sans-io so the
//! whole thing — handshake, framing, admission, abuse defense — runs
//! deterministically in tests with no sockets.
//!
//! Layers, bottom up:
//!
//! - [`frame`] — wire format v1: the `V6WIRE1` preamble and
//!   length-prefixed FNV-checksummed frames, with an incremental
//!   decoder hardened against arbitrary bytes (never panics, never
//!   over-allocates; see the fuzz battery in `tests/fuzz_codec.rs`).
//! - [`proto`] — the typed request/response codec covering every
//!   query the service answers plus batch coalescing, and the explicit
//!   `Throttled` / `Shed` / `Error` verdict frames. The byte layout is
//!   pinned by `tests/golden/wire_format_v1/`.
//! - [`transport`] — the in-repo socket stand-in and the one in-memory
//!   fabric: bare [`transport::duplex`] pipes, and [`transport::Fabric`]
//!   links that inject seeded loss, head-of-line stalls, and a
//!   per-endpoint `Panic` (a flipped bit here, a crashed node in
//!   `v6cluster`) at `<namespace>.<endpoint>.<seq>` fault sites.
//! - [`admit`] — per-client token buckets, a global load-shedding
//!   budget, and the behavioral classifier (steady poller / burst
//!   scraper / query flood) that adapts throttle tiers.
//! - [`conn`] / [`server`] / [`client`] — the per-connection state
//!   machine, the shared server (one admission gate + `wire.*` metrics
//!   registry), and the matching client.
//!
//! Invariants the test battery pins:
//!
//! * every decoded request gets exactly one response frame — sheds and
//!   throttles are explicit labeled frames, never silent drops;
//! * a flooding client is contained by its own throttle tier before it
//!   can drain the shared budget, so steady pollers see zero sheds;
//! * all requests decoded from one inbound chunk are answered against
//!   one snapshot epoch;
//! * degraded epochs label every affected answer (`degraded`,
//!   `missing_shards`) across the wire.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admit;
pub mod client;
pub mod conn;
pub mod frame;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod transport;

pub use admit::{Admission, AdmissionConfig, AdmitDecision, ClientClass, ClientInfo};
pub use client::{WireClient, WireClientError};
pub use conn::{serve_request, serve_request_with, ConnOutput, ServerConn};
pub use frame::{FrameDecoder, FrameError, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION};
pub use metrics::WireMetrics;
pub use proto::{
    Request, Response, ShedReason, WireLookup, WireMove, MAX_BATCH_ADDRS, MAX_MOVED_ROWS,
};
pub use server::WireServer;
pub use transport::{duplex, Fabric, Link, OnPanic, PipeTransport, Transport, TransportError};
