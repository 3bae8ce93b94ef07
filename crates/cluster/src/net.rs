//! The simulated cluster fabric: in-memory links with node-granularity
//! chaos and partition groups.
//!
//! Every inter-node byte crosses a [`Link`] — an implementation of the
//! [`v6wire::Transport`] trait over a shared [`ClusterNet`] core — so
//! replication is always real messages on a caller-driven clock, never
//! shared memory. The fabric is where the three node-level failure
//! modes live, decided by a seeded [`v6chaos`] plan at
//! `cluster.<node>.<seq>` sites (`seq` counts the node's outbound
//! chunks, so one seed replays one fault pattern):
//!
//! * [`Fault::Error`] — the chunk is dropped (message loss);
//! * [`Fault::Stall`] — delivery defers until the stall elapses, and
//!   the lane preserves order behind it (head-of-line, like TCP);
//! * [`Fault::Panic`] — the **sending node dies**: the chunk is lost,
//!   the node is marked crashed, and the cluster driver reaps it —
//!   drops its in-memory state, wipes its lanes (a dead process holds
//!   no connections) — and later restarts it through crash recovery.
//!
//! Network partitions are **group maps**: endpoints in different
//! groups silently lose every chunk between them (counted, never
//! delivered), exactly the failure mode that makes degraded-read
//! labeling necessary. The read coordinator occupies the reserved
//! endpoint name [`CLIENT`], which is exempt from chaos decisions (the
//! fabric models the service's replication plane; the front door has
//! its own chaos story in `v6wire`) but fully subject to partitions.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use v6chaos::{Chaos, Fault};
use v6obs::{Counter, Registry};
use v6wire::transport::{Transport, TransportError};

/// The reserved endpoint name of the read coordinator.
pub const CLIENT: &str = "client";

/// One directed lane's queue: `(release_us, chunk)` in send order.
type Lane = VecDeque<(u64, Vec<u8>)>;

struct NetCounters {
    chunks: Counter,
    lost: Counter,
    stalled: Counter,
    kills: Counter,
    partition_drops: Counter,
    dead_drops: Counter,
}

impl NetCounters {
    fn new(registry: &Registry) -> NetCounters {
        NetCounters {
            chunks: registry.counter("cluster.net.chunks"),
            lost: registry.counter("cluster.net.lost"),
            stalled: registry.counter("cluster.net.stalled"),
            kills: registry.counter("cluster.net.kills"),
            partition_drops: registry.counter("cluster.net.partition_drops"),
            dead_drops: registry.counter("cluster.net.dead_drops"),
        }
    }
}

struct NetCore {
    lanes: BTreeMap<(String, String), Lane>,
    /// Partition group per endpoint; absent = group 0 (connected).
    groups: BTreeMap<String, u8>,
    crashed: BTreeSet<String>,
    /// Per-sender outbound chunk counter (the chaos site sequence).
    seqs: BTreeMap<String, u32>,
    chaos: Arc<dyn Chaos>,
    counters: NetCounters,
}

impl NetCore {
    fn group(&self, endpoint: &str) -> u8 {
        self.groups.get(endpoint).copied().unwrap_or(0)
    }
}

/// The shared fabric all links hang off.
#[derive(Clone)]
pub struct ClusterNet {
    core: Arc<Mutex<NetCore>>,
}

impl ClusterNet {
    /// A fabric with the given chaos source, counting into `registry`
    /// (`cluster.net.*`).
    pub fn new(chaos: Arc<dyn Chaos>, registry: &Registry) -> ClusterNet {
        ClusterNet {
            core: Arc::new(Mutex::new(NetCore {
                lanes: BTreeMap::new(),
                groups: BTreeMap::new(),
                crashed: BTreeSet::new(),
                seqs: BTreeMap::new(),
                chaos,
                counters: NetCounters::new(registry),
            })),
        }
    }

    /// A directed link endpoint: `from`'s handle for talking to `to`.
    pub fn link(&self, from: impl Into<String>, to: impl Into<String>) -> Link {
        Link {
            core: Arc::clone(&self.core),
            from: from.into(),
            to: to.into(),
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

    /// Endpoints a chaos `Panic` has killed since they last revived.
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
    /// stays until [`ClusterNet::revive`].
    pub fn disconnect(&self, endpoint: &str) {
        let mut core = self.core.lock();
        core.lanes
            .retain(|(from, to), _| from != endpoint && to != endpoint);
    }

    /// Brings a restarted endpoint back: clears its crashed mark. Its
    /// chaos site sequence keeps counting where it left off, so one
    /// seed still describes the whole run.
    pub fn revive(&self, endpoint: &str) {
        self.core.lock().crashed.remove(endpoint);
    }
}

/// One directed transport endpoint on the fabric.
///
/// `send` moves bytes toward `to` (through chaos, unless `from` is the
/// [`CLIENT`]); `recv` takes bytes sent *by* `to` toward `from` that
/// have been released by `now_us`.
pub struct Link {
    core: Arc<Mutex<NetCore>>,
    from: String,
    to: String,
}

impl Transport for Link {
    fn send(&mut self, bytes: &[u8], now_us: u64) -> Result<(), TransportError> {
        let mut core = self.core.lock();
        if core.crashed.contains(&self.from) {
            // A dead process can't send; the driver reaps it shortly.
            return Err(TransportError::Closed);
        }
        let mut release_us = now_us;
        if self.from != CLIENT {
            let seq = {
                let s = core.seqs.entry(self.from.clone()).or_insert(0);
                let cur = *s;
                *s += 1;
                cur
            };
            let site = format!("cluster.{}.{seq}", self.from);
            match core.chaos.decide(&site, 0) {
                Fault::None => {}
                Fault::Error => {
                    core.counters.lost.inc();
                    return Ok(()); // loss is silent, like the network
                }
                Fault::Stall(d) => {
                    core.counters.stalled.inc();
                    release_us = now_us + d.as_micros() as u64;
                }
                Fault::Panic => {
                    // The sending node dies mid-send: the chunk is
                    // lost and the driver will reap the node.
                    core.crashed.insert(self.from.clone());
                    core.counters.kills.inc();
                    return Ok(());
                }
            }
        }
        if core.crashed.contains(&self.to) {
            core.counters.dead_drops.inc();
            return Ok(());
        }
        if core.group(&self.from) != core.group(&self.to) {
            core.counters.partition_drops.inc();
            return Ok(());
        }
        core.counters.chunks.inc();
        core.lanes
            .entry((self.from.clone(), self.to.clone()))
            .or_default()
            .push_back((release_us, bytes.to_vec()));
        Ok(())
    }

    fn recv_into(&mut self, now_us: u64, buf: &mut Vec<u8>) -> Result<(), TransportError> {
        let mut core = self.core.lock();
        if core.crashed.contains(&self.from) {
            return Err(TransportError::Closed);
        }
        if let Some(lane) = core.lanes.get_mut(&(self.to.clone(), self.from.clone())) {
            // FIFO with head-of-line blocking: a stalled chunk delays
            // everything behind it, preserving byte order like TCP.
            while lane.front().is_some_and(|&(release, _)| release <= now_us) {
                let (_, chunk) = lane.pop_front().expect("front checked");
                buf.extend_from_slice(&chunk);
            }
        }
        Ok(())
    }

    fn close(&mut self) {
        // Cluster links close by node death (driver reap), not
        // individually.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use v6chaos::{NoChaos, ScriptedChaos, SiteScript};

    fn quiet_net() -> (ClusterNet, Registry) {
        let registry = Registry::new();
        (ClusterNet::new(Arc::new(NoChaos), &registry), registry)
    }

    #[test]
    fn links_deliver_in_order_between_endpoints() {
        let (net, _reg) = quiet_net();
        let mut a = net.link("n0", "n1");
        let mut b = net.link("n1", "n0");
        a.send(b"one", 0).unwrap();
        a.send(b"two", 0).unwrap();
        assert_eq!(b.recv(0).unwrap(), b"onetwo".to_vec());
        b.send(b"back", 0).unwrap();
        assert_eq!(a.recv(0).unwrap(), b"back".to_vec());
    }

    #[test]
    fn partition_groups_drop_cross_group_chunks() {
        let (net, reg) = quiet_net();
        let mut a = net.link("n0", "n1");
        let mut b = net.link("n1", "n0");
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
        let registry = Registry::new();
        let chaos = ScriptedChaos::new().with("cluster.n0.0", SiteScript::permanent_panic());
        let net = ClusterNet::new(Arc::new(chaos), &registry);
        let mut a = net.link("n0", "n1");
        let mut b = net.link("n1", "n0");
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
        let registry = Registry::new();
        let chaos = ScriptedChaos::new().with(
            "cluster.n0.0",
            SiteScript::ok().with_stall(Duration::from_millis(5)),
        );
        let net = ClusterNet::new(Arc::new(chaos), &registry);
        let mut a = net.link("n0", "n1");
        let mut b = net.link("n1", "n0");
        a.send(b"first", 0).unwrap(); // stalled to 5ms
        a.send(b"second", 0).unwrap();
        // Head-of-line: nothing delivers until the stalled chunk is due.
        assert_eq!(b.recv(4_000).unwrap(), Vec::<u8>::new());
        assert_eq!(b.recv(5_000).unwrap(), b"firstsecond".to_vec());
    }

    #[test]
    fn client_endpoint_is_chaos_exempt() {
        let registry = Registry::new();
        // A plan that would kill any node on its first chunk.
        let chaos = ScriptedChaos::new().with("cluster.client.0", SiteScript::permanent_panic());
        let net = ClusterNet::new(Arc::new(chaos), &registry);
        let mut c = net.link(CLIENT, "n0");
        let mut n = net.link("n0", CLIENT);
        c.send(b"probe", 0).unwrap();
        assert!(!net.is_crashed(CLIENT));
        assert_eq!(n.recv(0).unwrap(), b"probe".to_vec());
    }
}
