//! Byte transports: the in-repo stand-in for sockets.
//!
//! The front door never touches real sockets in this repo — every test,
//! bench, and chaos run drives connections over [`duplex`] pipes, a
//! pair of in-memory byte queues with explicit microsecond timestamps.
//! [`ChaosTransport`] wraps any transport and injects the three network
//! failure modes from a seeded [`v6chaos`] plan:
//!
//! * [`Fault::Error`] — the chunk is **dropped** (packet loss);
//! * [`Fault::Panic`] — one deterministic **bit flip** inside the chunk
//!   (corruption in transit — the frame checksum must catch it);
//! * [`Fault::Stall`] — delivery of the chunk is **deferred** by the
//!   stall duration (a slow peer), released by a later `recv`.
//!
//! Fault sites are named `wire.<label>.<seq>` where `seq` is the chunk
//! sequence number on that transport, so a seeded plan replays the same
//! loss/corruption pattern on every run.
//!
//! The [`Transport`] trait is also the cluster's node boundary:
//! `v6cluster` links implement it over the same caller-driven clock,
//! with their own fault semantics at `cluster.<node>.<seq>` sites
//! (there, `Panic` kills the sending node rather than flipping a bit).

use std::sync::Arc;

use parking_lot::Mutex;
use v6chaos::{Chaos, Fault};

/// Why a transport operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The peer closed its end and no buffered bytes remain.
    Closed,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport closed by peer"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A bidirectional byte stream with caller-driven time.
///
/// `now_us` is the caller's simulated clock; pipes ignore it, the chaos
/// wrapper uses it to release stalled chunks. Chunk boundaries are NOT
/// preserved end-to-end: a receive may coalesce several sends, exactly
/// like a TCP stream — which is why the frame decoder is incremental.
///
/// Receiving is [`Transport::recv_into`], which appends to a buffer the
/// caller owns and reuses, so a steady connection receives without
/// allocating; [`Transport::recv`] is it over a fresh `Vec`.
pub trait Transport {
    /// Queues `bytes` toward the peer. The transport copies what it
    /// keeps: `bytes` is the caller's to reuse once this returns.
    fn send(&mut self, bytes: &[u8], now_us: u64) -> Result<(), TransportError>;

    /// Appends every byte that has arrived from the peer by `now_us` to
    /// `buf` (nothing when nothing is pending). An implementation may
    /// swap its own buffer with an empty `buf` instead of copying, so
    /// the capacity `buf` comes back with is not necessarily its own.
    fn recv_into(&mut self, now_us: u64, buf: &mut Vec<u8>) -> Result<(), TransportError>;

    /// Takes every byte that has arrived from the peer by `now_us`
    /// (empty when nothing is pending).
    fn recv(&mut self, now_us: u64) -> Result<Vec<u8>, TransportError> {
        let mut out = Vec::new();
        self.recv_into(now_us, &mut out)?;
        Ok(out)
    }

    /// Closes this end; the peer sees [`TransportError::Closed`] once
    /// it drains what was already sent.
    fn close(&mut self);
}

#[derive(Debug, Default)]
struct PipeLane {
    /// Bytes sent and not yet received, in order.
    bytes: Vec<u8>,
    closed: bool,
}

/// One end of an in-memory duplex pipe (see [`duplex`]).
#[derive(Debug, Clone)]
pub struct PipeTransport {
    outgoing: Arc<Mutex<PipeLane>>,
    incoming: Arc<Mutex<PipeLane>>,
}

/// A connected pair of in-memory byte pipes: what one end sends, the
/// other receives, in order, with no loss.
pub fn duplex() -> (PipeTransport, PipeTransport) {
    let a_to_b = Arc::new(Mutex::new(PipeLane::default()));
    let b_to_a = Arc::new(Mutex::new(PipeLane::default()));
    (
        PipeTransport {
            outgoing: Arc::clone(&a_to_b),
            incoming: Arc::clone(&b_to_a),
        },
        PipeTransport {
            outgoing: b_to_a,
            incoming: a_to_b,
        },
    )
}

impl Transport for PipeTransport {
    fn send(&mut self, bytes: &[u8], _now_us: u64) -> Result<(), TransportError> {
        let mut lane = self.outgoing.lock();
        if lane.closed {
            return Err(TransportError::Closed);
        }
        lane.bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn recv_into(&mut self, _now_us: u64, buf: &mut Vec<u8>) -> Result<(), TransportError> {
        let mut lane = self.incoming.lock();
        if lane.bytes.is_empty() {
            return if lane.closed {
                Err(TransportError::Closed)
            } else {
                Ok(())
            };
        }
        if buf.is_empty() {
            // The lane takes the caller's spent buffer in exchange: two
            // buffers circulate and neither side copies or allocates.
            std::mem::swap(buf, &mut lane.bytes);
        } else {
            buf.extend_from_slice(&lane.bytes);
            lane.bytes.clear();
        }
        Ok(())
    }

    fn close(&mut self) {
        self.outgoing.lock().closed = true;
        self.incoming.lock().closed = true;
    }
}

/// A chunk held back by a stall fault until `release_us`.
#[derive(Debug)]
struct Deferred {
    release_us: u64,
    bytes: Vec<u8>,
}

/// Wraps a transport with seeded loss, corruption, and stalls on the
/// *send* path (faults on one direction of a duplex connection are
/// modeled by wrapping that end).
pub struct ChaosTransport<T, C> {
    inner: T,
    chaos: C,
    label: String,
    seq: u32,
    deferred: Vec<Deferred>,
}

impl<T: Transport, C: Chaos> ChaosTransport<T, C> {
    /// Wraps `inner`, naming fault sites `wire.<label>.<seq>`.
    pub fn new(inner: T, chaos: C, label: impl Into<String>) -> Self {
        ChaosTransport {
            inner,
            chaos,
            label: label.into(),
            seq: 0,
            deferred: Vec::new(),
        }
    }

    /// Chunks sent so far (fault-site sequence counter).
    pub fn chunks_sent(&self) -> u32 {
        self.seq
    }

    /// Flushes deferred (stalled) chunks whose release time arrived.
    fn release_due(&mut self, now_us: u64) -> Result<(), TransportError> {
        let mut i = 0;
        while i < self.deferred.len() {
            if self.deferred[i].release_us <= now_us {
                let d = self.deferred.remove(i);
                self.inner.send(&d.bytes, now_us)?;
            } else {
                i += 1;
            }
        }
        Ok(())
    }
}

impl<T: Transport, C: Chaos> Transport for ChaosTransport<T, C> {
    fn send(&mut self, bytes: &[u8], now_us: u64) -> Result<(), TransportError> {
        let site = format!("wire.{}.{}", self.label, self.seq);
        self.seq += 1;
        self.release_due(now_us)?;
        match self.chaos.decide(&site, 0) {
            Fault::None => self.inner.send(bytes, now_us),
            // Loss: the chunk vanishes. The send itself "succeeds" —
            // real networks do not report dropped segments either.
            Fault::Error => Ok(()),
            // Corruption: flip one bit, position derived from the
            // sequence number so runs replay identically.
            Fault::Panic => {
                let mut rotten = bytes.to_vec();
                if !rotten.is_empty() {
                    let pos = self.seq as usize % rotten.len();
                    rotten[pos] ^= 1 << (self.seq % 8);
                }
                self.inner.send(&rotten, now_us)
            }
            Fault::Stall(d) => {
                self.deferred.push(Deferred {
                    release_us: now_us + d.as_micros() as u64,
                    bytes: bytes.to_vec(),
                });
                Ok(())
            }
        }
    }

    fn recv_into(&mut self, now_us: u64, buf: &mut Vec<u8>) -> Result<(), TransportError> {
        self.release_due(now_us)?;
        self.inner.recv_into(now_us, buf)
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use v6chaos::{NoChaos, ScriptedChaos, SiteScript};

    #[test]
    fn duplex_delivers_in_order_and_coalesces() {
        let (mut a, mut b) = duplex();
        a.send(b"one", 0).unwrap();
        a.send(b"two", 0).unwrap();
        assert_eq!(b.recv(0).unwrap(), b"onetwo".to_vec());
        assert_eq!(b.recv(0).unwrap(), Vec::<u8>::new());
        b.send(b"back", 0).unwrap();
        assert_eq!(a.recv(0).unwrap(), b"back".to_vec());
    }

    #[test]
    fn recv_into_appends_to_what_the_buffer_holds() {
        let (mut a, mut b) = duplex();
        a.send(b"one", 0).unwrap();
        let mut buf = b"kept:".to_vec();
        b.recv_into(0, &mut buf).unwrap();
        assert_eq!(buf, b"kept:one".to_vec());
        a.send(b"two", 0).unwrap();
        buf.clear();
        b.recv_into(0, &mut buf).unwrap();
        assert_eq!(buf, b"two".to_vec());
        b.recv_into(0, &mut buf).unwrap();
        assert_eq!(buf, b"two".to_vec(), "nothing pending appends nothing");
    }

    #[test]
    fn close_drains_then_errors() {
        let (mut a, mut b) = duplex();
        a.send(b"tail", 0).unwrap();
        a.close();
        assert_eq!(b.recv(0).unwrap(), b"tail".to_vec());
        assert_eq!(b.recv(0), Err(TransportError::Closed));
        assert_eq!(b.send(b"x", 0), Err(TransportError::Closed));
    }

    #[test]
    fn chaos_error_drops_the_chunk() {
        let (a, mut b) = duplex();
        let chaos = ScriptedChaos::new().with("wire.c2s.0", SiteScript::permanent());
        let mut a = ChaosTransport::new(a, chaos, "c2s");
        a.send(b"lost", 0).unwrap();
        a.send(b"kept", 0).unwrap();
        assert_eq!(b.recv(0).unwrap(), b"kept".to_vec());
    }

    #[test]
    fn chaos_panic_flips_exactly_one_bit() {
        let (a, mut b) = duplex();
        let chaos = ScriptedChaos::new().with("wire.c2s.0", SiteScript::permanent_panic());
        let mut a = ChaosTransport::new(a, chaos, "c2s");
        a.send(&[0u8; 8], 0).unwrap();
        let got = b.recv(0).unwrap();
        let flipped: u32 = got.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped: {got:?}");
    }

    #[test]
    fn chaos_stall_defers_until_release_time() {
        let (a, mut b) = duplex();
        let chaos = ScriptedChaos::new().with(
            "wire.c2s.0",
            SiteScript::ok().with_stall(Duration::from_millis(5)),
        );
        let mut a = ChaosTransport::new(a, chaos, "c2s");
        a.send(b"slow", 0).unwrap();
        assert_eq!(b.recv(0).unwrap(), Vec::<u8>::new());
        // Not due yet at 4 ms...
        a.send(b"", 4_000).unwrap(); // a later send also releases due chunks
        assert_eq!(b.recv(4_000).unwrap(), Vec::<u8>::new());
        // ...due at 5 ms, released by the sender's next recv.
        assert_eq!(a.recv(5_000).unwrap(), Vec::<u8>::new());
        assert_eq!(b.recv(5_000).unwrap(), b"slow".to_vec());
    }

    #[test]
    fn no_chaos_is_transparent() {
        let (a, mut b) = duplex();
        let mut a = ChaosTransport::new(a, NoChaos, "c2s");
        a.send(b"clean", 7).unwrap();
        assert_eq!(b.recv(7).unwrap(), b"clean".to_vec());
        assert_eq!(a.chunks_sent(), 1);
    }
}
