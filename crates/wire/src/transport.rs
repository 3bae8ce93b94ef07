//! Byte transports: the in-repo stand-in for sockets, and the one
//! in-memory fabric every simulated byte crosses.
//!
//! Every connection is a [`Link`], one end of two directed lanes with
//! explicit microsecond timestamps. [`duplex`] makes a bare pair. A
//! [`Fabric`] makes links that cross partition groups, crash marks and
//! a seeded [`v6chaos`] plan, decided per chunk at site
//! `<namespace>.<endpoint>.<seq>` (`seq` counts the sender's chunks
//! over all its links, so one seed replays one fault pattern):
//!
//! * [`Fault::Error`] — the chunk is **dropped**, silently, like a network;
//! * [`Fault::Stall`] — the chunk is **held** until the receiver's
//!   clock passes the stall, and everything sent behind it waits too
//!   (head-of-line, like TCP: a stall never reorders bytes);
//! * [`Fault::Panic`] — what the sender's [`OnPanic`] hook says: a wire
//!   end flips one bit, a cluster node crashes. An endpoint without a
//!   hook is never consulted.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use v6chaos::{Chaos, Fault};
use v6obs::{Counter, Registry};

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
/// `now_us` is the caller's simulated clock; a stalled chunk is
/// released by the receiver's. Chunk boundaries are NOT preserved
/// end-to-end: a receive may coalesce several sends, exactly like a
/// TCP stream — which is why the frame decoder is incremental.
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

/// One directed lane: what one endpoint sent the other.
#[derive(Debug, Default)]
struct Lane {
    /// Bytes released to the receiver and not yet taken, in order.
    ready: Vec<u8>,
    /// `(release_us, chunk)` in send order, headed by a stalled chunk:
    /// anything sent while one is held queues behind it.
    held: VecDeque<(u64, Vec<u8>)>,
    closed: bool,
}

impl Lane {
    fn push(&mut self, bytes: &[u8], release_us: u64, now_us: u64) -> Result<(), TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        if self.held.is_empty() && release_us <= now_us {
            self.ready.extend_from_slice(bytes);
        } else {
            self.held.push_back((release_us, bytes.to_vec()));
        }
        Ok(())
    }

    fn take(&mut self, now_us: u64, buf: &mut Vec<u8>) -> Result<(), TransportError> {
        while self
            .held
            .front()
            .is_some_and(|&(release, _)| release <= now_us)
        {
            let (_, chunk) = self.held.pop_front().expect("front checked");
            self.ready.extend_from_slice(&chunk);
        }
        if self.ready.is_empty() {
            return if self.closed && self.held.is_empty() {
                Err(TransportError::Closed)
            } else {
                Ok(())
            };
        }
        if buf.is_empty() {
            // The lane takes the caller's spent buffer in exchange: two
            // buffers circulate and neither side copies or allocates.
            std::mem::swap(buf, &mut self.ready);
        } else {
            buf.extend_from_slice(&self.ready);
            self.ready.clear();
        }
        Ok(())
    }
}

type SharedLane = Arc<Mutex<Lane>>;

/// What a chaos [`Fault::Panic`] does to a chunk its endpoint sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnPanic {
    /// Flip one bit, at a position derived from the sequence number so
    /// runs replay identically (a wire connection end).
    Corrupt,
    /// Lose the chunk and mark the sender crashed (a cluster node).
    Crash,
}

struct FabricCounters {
    chunks: Counter,
    lost: Counter,
    stalled: Counter,
    kills: Counter,
    partition_drops: Counter,
    dead_drops: Counter,
}

struct FabricCore {
    namespace: &'static str,
    chaos: Arc<dyn Chaos>,
    lanes: BTreeMap<(String, String), SharedLane>,
    /// Per-sender chunk counter (the chaos site sequence).
    seqs: BTreeMap<String, u32>,
    /// Partition group per endpoint; absent = group 0 (connected).
    groups: BTreeMap<String, u8>,
    crashed: BTreeSet<String>,
    counters: FabricCounters,
}

impl FabricCore {
    fn group(&self, endpoint: &str) -> u8 {
        self.groups.get(endpoint).copied().unwrap_or(0)
    }
}

/// The shared fabric links hang off: the chaos plan, the partition
/// groups, the crash marks, and `<namespace>.net.*` counters —
/// `chunks` queued on a lane, `lost`, `stalled` (counted on top),
/// `kills`, `partition_drops` and `dead_drops`.
#[derive(Clone)]
pub struct Fabric {
    core: Arc<Mutex<FabricCore>>,
}

impl Fabric {
    /// A fabric naming fault sites `<namespace>.<endpoint>.<seq>` and
    /// counting into `registry` as `<namespace>.net.*`.
    pub fn new(namespace: &'static str, chaos: Arc<dyn Chaos>, registry: &Registry) -> Fabric {
        let counter = |name: &str| registry.counter(&format!("{namespace}.net.{name}"));
        Fabric {
            core: Arc::new(Mutex::new(FabricCore {
                namespace,
                chaos,
                lanes: BTreeMap::new(),
                seqs: BTreeMap::new(),
                groups: BTreeMap::new(),
                crashed: BTreeSet::new(),
                counters: FabricCounters {
                    chunks: counter("chunks"),
                    lost: counter("lost"),
                    stalled: counter("stalled"),
                    kills: counter("kills"),
                    partition_drops: counter("partition_drops"),
                    dead_drops: counter("dead_drops"),
                },
            })),
        }
    }

    /// `from`'s end of its connection to `to`. Links made for the same
    /// pair share its lanes. `on_panic` is what a chaos `Panic` means
    /// for `from`'s sends; `None` exempts them from chaos entirely.
    pub fn link(&self, from: &str, to: &str, on_panic: Option<OnPanic>) -> Link {
        let (from, to) = (from.to_string(), to.to_string());
        let mut core = self.core.lock();
        let tx = Arc::clone(core.lanes.entry((from.clone(), to.clone())).or_default());
        let rx = Arc::clone(core.lanes.entry((to.clone(), from.clone())).or_default());
        Link {
            tx,
            rx,
            route: Some(Route {
                fabric: self.clone(),
                from,
                to,
                on_panic,
            }),
        }
    }

    /// Imposes a partition: endpoints in different groups lose every
    /// chunk between them. Unlisted endpoints default to group 0.
    pub fn set_groups(&self, groups: &BTreeMap<String, u8>) {
        self.core.lock().groups = groups.clone();
    }

    /// Heals any partition: everything is one group again.
    pub fn heal(&self) {
        self.core.lock().groups.clear();
    }

    /// `endpoint`'s partition group (0 when unlisted or healed).
    pub fn group(&self, endpoint: &str) -> u8 {
        self.core.lock().group(endpoint)
    }

    /// Endpoints marked crashed since they last revived.
    pub fn crashed(&self) -> BTreeSet<String> {
        self.core.lock().crashed.clone()
    }

    /// True when `endpoint` is currently marked crashed.
    pub fn is_crashed(&self, endpoint: &str) -> bool {
        self.core.lock().crashed.contains(endpoint)
    }

    /// Marks an endpoint crashed directly — a driver-initiated kill,
    /// as opposed to a chaos `Panic` mid-send. Counted the same way.
    pub fn crash(&self, endpoint: &str) {
        let mut core = self.core.lock();
        if core.crashed.insert(endpoint.to_string()) {
            core.counters.kills.inc();
        }
    }

    /// Reaps a dead endpoint's connections: every lane to or from it
    /// is wiped (a dead process holds no sockets). The crashed mark
    /// stays until [`Fabric::revive`].
    pub fn disconnect(&self, endpoint: &str) {
        let core = self.core.lock();
        for ((from, to), lane) in &core.lanes {
            if from == endpoint || to == endpoint {
                *lane.lock() = Lane::default();
            }
        }
    }

    /// Brings a restarted endpoint back: clears its crashed mark. Its
    /// chaos site sequence keeps counting where it left off, so one
    /// seed still describes the whole run.
    pub fn revive(&self, endpoint: &str) {
        self.core.lock().crashed.remove(endpoint);
    }
}

/// Where a fabric link's chunks go and what chaos may do to them.
#[derive(Clone)]
struct Route {
    fabric: Fabric,
    from: String,
    to: String,
    on_panic: Option<OnPanic>,
}

/// One end of a connection: sends on one lane, receives on the other.
///
/// A [`duplex`] end takes one lane lock per operation and nothing else;
/// a [`Fabric`] end first passes the fabric's checks, in this order: a
/// crashed sender gets [`TransportError::Closed`] and consumes no
/// sequence number; chaos decides (hooked senders only); a chunk toward
/// a crashed endpoint, then one across a partition, is dropped; the
/// rest is queued (a closed lane refuses it with `Closed`).
#[derive(Clone)]
pub struct Link {
    tx: SharedLane,
    rx: SharedLane,
    route: Option<Route>,
}

/// The name the front door's callers know a [`duplex`] end by.
pub type PipeTransport = Link;

/// A connected pair of in-memory byte pipes: what one end sends, the
/// other receives, in order, with no loss.
pub fn duplex() -> (Link, Link) {
    let (a_to_b, b_to_a) = (SharedLane::default(), SharedLane::default());
    let end = |tx: &SharedLane, rx: &SharedLane| Link {
        tx: Arc::clone(tx),
        rx: Arc::clone(rx),
        route: None,
    };
    (end(&a_to_b, &b_to_a), end(&b_to_a, &a_to_b))
}

impl Transport for Link {
    fn send(&mut self, bytes: &[u8], now_us: u64) -> Result<(), TransportError> {
        let Some(route) = &self.route else {
            return self.tx.lock().push(bytes, now_us, now_us);
        };
        let mut core = route.fabric.core.lock();
        if core.crashed.contains(&route.from) {
            // A dead process can't send; the driver reaps it shortly.
            return Err(TransportError::Closed);
        }
        let mut release_us = now_us;
        let (mut rotten, mut bytes) = (Vec::new(), bytes);
        if let Some(on_panic) = route.on_panic {
            let seq = core.seqs.entry(route.from.clone()).or_insert(0);
            *seq += 1;
            // Chunks sent so far, this one included: the site names the
            // one before, the bit flip uses this.
            let sent = *seq;
            let site = format!("{}.{}.{}", core.namespace, route.from, sent - 1);
            match core.chaos.decide(&site, 0) {
                Fault::None => {}
                Fault::Error => {
                    core.counters.lost.inc();
                    return Ok(());
                }
                Fault::Stall(d) => {
                    core.counters.stalled.inc();
                    release_us = now_us + d.as_micros() as u64;
                }
                Fault::Panic if on_panic == OnPanic::Crash => {
                    core.crashed.insert(route.from.clone());
                    core.counters.kills.inc();
                    return Ok(());
                }
                Fault::Panic => {
                    rotten.extend_from_slice(bytes);
                    if let Some(b) = rotten.get_mut(sent as usize % bytes.len().max(1)) {
                        *b ^= 1 << (sent % 8);
                    }
                    bytes = &rotten;
                }
            }
        }
        if core.crashed.contains(&route.to) {
            core.counters.dead_drops.inc();
            return Ok(());
        }
        if core.group(&route.from) != core.group(&route.to) {
            core.counters.partition_drops.inc();
            return Ok(());
        }
        self.tx.lock().push(bytes, release_us, now_us)?;
        core.counters.chunks.inc();
        Ok(())
    }

    fn recv_into(&mut self, now_us: u64, buf: &mut Vec<u8>) -> Result<(), TransportError> {
        if let Some(route) = &self.route {
            if route.fabric.is_crashed(&route.from) {
                return Err(TransportError::Closed);
            }
        }
        self.rx.lock().take(now_us, buf)
    }

    fn close(&mut self) {
        self.tx.lock().closed = true;
        self.rx.lock().closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use v6chaos::{NoChaos, ScriptedChaos, SiteScript};

    fn fabric(namespace: &'static str, chaos: impl Chaos + 'static) -> (Fabric, Registry) {
        let registry = Registry::new();
        (Fabric::new(namespace, Arc::new(chaos), &registry), registry)
    }

    /// A wire connection's client end, corrupting on `Panic`, and its
    /// hook-less server end.
    fn wire_pair(chaos: impl Chaos + 'static) -> (Link, Link, Registry) {
        let (net, registry) = fabric("wire", chaos);
        let client = net.link("c2s", "s2c", Some(OnPanic::Corrupt));
        (client, net.link("s2c", "c2s", None), registry)
    }

    /// Two cluster nodes, each crashing on `Panic`.
    fn node_pair(chaos: impl Chaos + 'static) -> (Fabric, Link, Link, Registry) {
        let (net, registry) = fabric("cluster", chaos);
        let a = net.link("n0", "n1", Some(OnPanic::Crash));
        let b = net.link("n1", "n0", Some(OnPanic::Crash));
        (net, a, b, registry)
    }

    fn stall_5ms(site: &str) -> ScriptedChaos {
        ScriptedChaos::new().with(site, SiteScript::ok().with_stall(Duration::from_millis(5)))
    }

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
        let chaos = ScriptedChaos::new().with("wire.c2s.0", SiteScript::permanent());
        let (mut a, mut b, _reg) = wire_pair(chaos);
        a.send(b"lost", 0).unwrap();
        a.send(b"kept", 0).unwrap();
        assert_eq!(b.recv(0).unwrap(), b"kept".to_vec());
    }

    #[test]
    fn chaos_panic_flips_exactly_one_bit() {
        let chaos = ScriptedChaos::new().with("wire.c2s.0", SiteScript::permanent_panic());
        let (mut a, mut b, _reg) = wire_pair(chaos);
        a.send(&[0u8; 8], 0).unwrap();
        let got = b.recv(0).unwrap();
        let flipped: u32 = got.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped: {got:?}");
    }

    #[test]
    fn chaos_stall_defers_until_release_time() {
        let (mut a, mut b, _reg) = wire_pair(stall_5ms("wire.c2s.0"));
        a.send(b"slow", 0).unwrap();
        assert_eq!(b.recv(0).unwrap(), Vec::<u8>::new());
        // Not due yet at 4 ms...
        assert_eq!(b.recv(4_000).unwrap(), Vec::<u8>::new());
        // ...due at 5 ms, released by the receiver's own clock.
        assert_eq!(b.recv(5_000).unwrap(), b"slow".to_vec());
    }

    #[test]
    fn no_chaos_is_transparent() {
        let (mut a, mut b, registry) = wire_pair(NoChaos);
        a.send(b"clean", 7).unwrap();
        assert_eq!(b.recv(7).unwrap(), b"clean".to_vec());
        assert_eq!(registry.snapshot().counter("wire.net.chunks"), Some(1));
    }

    #[test]
    fn links_deliver_in_order_between_endpoints() {
        let (_net, mut a, mut b, _reg) = node_pair(NoChaos);
        a.send(b"one", 0).unwrap();
        a.send(b"two", 0).unwrap();
        assert_eq!(b.recv(0).unwrap(), b"onetwo".to_vec());
        b.send(b"back", 0).unwrap();
        assert_eq!(a.recv(0).unwrap(), b"back".to_vec());
    }

    #[test]
    fn partition_groups_drop_cross_group_chunks() {
        let (net, mut a, mut b, reg) = node_pair(NoChaos);
        let groups: BTreeMap<String, u8> = [("n0".to_string(), 0), ("n1".to_string(), 1)]
            .into_iter()
            .collect();
        net.set_groups(&groups);
        a.send(b"lost", 0).unwrap();
        assert_eq!(b.recv(0).unwrap(), Vec::<u8>::new());
        net.heal();
        a.send(b"kept", 0).unwrap();
        assert_eq!(b.recv(0).unwrap(), b"kept".to_vec());
        assert_eq!(
            reg.snapshot().counter("cluster.net.partition_drops"),
            Some(1)
        );
    }

    #[test]
    fn panic_kills_the_sender_until_revived() {
        let chaos = ScriptedChaos::new().with("cluster.n0.0", SiteScript::permanent_panic());
        let (net, mut a, mut b, registry) = node_pair(chaos);
        a.send(b"dying breath", 0).unwrap();
        assert!(net.is_crashed("n0"));
        assert_eq!(b.recv(0).unwrap(), Vec::<u8>::new());
        // Dead endpoints can't send or recv, and chunks toward them
        // are dropped.
        assert_eq!(a.send(b"x", 0), Err(TransportError::Closed));
        assert_eq!(a.recv(0), Err(TransportError::Closed));
        b.send(b"hello?", 0).unwrap();
        net.disconnect("n0");
        net.revive("n0");
        assert!(!net.is_crashed("n0"));
        // The pre-revival chunk died with the connections.
        assert_eq!(a.recv(0).unwrap(), Vec::<u8>::new());
        b.send(b"welcome back", 0).unwrap();
        assert_eq!(a.recv(0).unwrap(), b"welcome back".to_vec());
        assert_eq!(registry.snapshot().counter("cluster.net.kills"), Some(1));
    }

    #[test]
    fn stalls_defer_and_preserve_order() {
        // A cluster node and a wire connection end stall alike: the
        // held chunk blocks the lane, the receiver's clock releases it.
        let (_net, mut a, mut b, _reg) = node_pair(stall_5ms("cluster.n0.0"));
        let (mut c, mut s, _reg) = wire_pair(stall_5ms("wire.c2s.0"));
        for (tx, rx) in [(&mut a, &mut b), (&mut c, &mut s)] {
            tx.send(b"first", 0).unwrap(); // stalled to 5ms
            tx.send(b"second", 0).unwrap();
            // Head-of-line: nothing delivers until the stalled chunk is due.
            assert_eq!(rx.recv(4_000).unwrap(), Vec::<u8>::new());
            assert_eq!(rx.recv(5_000).unwrap(), b"firstsecond".to_vec());
        }
    }

    #[test]
    fn client_endpoint_is_chaos_exempt() {
        // A plan that would kill any hooked endpoint on its first chunk.
        let chaos = ScriptedChaos::new().with("cluster.client.0", SiteScript::permanent_panic());
        let (net, _reg) = fabric("cluster", chaos);
        let mut c = net.link("client", "n0", None);
        let mut n = net.link("n0", "client", Some(OnPanic::Crash));
        c.send(b"probe", 0).unwrap();
        assert!(!net.is_crashed("client"));
        assert_eq!(n.recv(0).unwrap(), b"probe".to_vec());
    }
}
