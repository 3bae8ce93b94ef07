//! The cluster driver: membership, publish routing, hedged reads,
//! fault orchestration, and the convergence check.
//!
//! A [`Cluster`] owns N simulated [`Node`]s (named `n0..n{N-1}`), the
//! shared [`Fabric`], and a consistent-hash [`Ring`] that
//! assigns every partition a replica set. Time is caller-driven: one
//! [`Cluster::pump_round`] advances the simulated clock by 1 ms, pumps
//! every live node once, then **reaps** nodes a chaos `Panic` (or
//! [`Cluster::kill`]) crashed — their in-memory state drops, their
//! fabric lanes are wiped — and **restarts** nodes whose downtime has
//! elapsed, through real [`Node::restart`] crash recovery.
//!
//! Writes route to the partition's first live replica in ring walk
//! order (leader leases are not modeled; the paper's workload is a
//! single publisher per partition). Reads route through a hedged
//! coordinator on the reserved [`CLIENT`] endpoint: probe the primary,
//! hedge to the next replica every `HEDGE_AFTER_ROUNDS`, and label the
//! answer —
//!
//! * **fresh** when a replica answered at the committed epoch with no
//!   shard quarantined and a read quorum of replicas was reachable;
//! * **degraded** otherwise, whenever *any* answer arrived — stale
//!   epochs and under-quorum answers are served, but always labeled;
//! * **unavailable** when nothing answered by the deadline.
//!
//! Every read is also appended to an audit log, so the invariant
//! "no unlabeled stale answer" is checked against the record, not
//! against the implementation's own opinion of itself.
//!
//! [`Cluster::converge`] runs anti-entropy (behind replicas ask every
//! live peer for catch-up) until every replica of every published
//! partition serves the committed `(epoch, content_checksum)` —
//! byte-identical content — and renders a deterministic
//! [`ConvergenceReport`].

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use v6chaos::{Chaos, NoChaos};
use v6obs::{MetricsSnapshot, Registry};
use v6store::format::AliasEntry;
use v6wire::frame::{frame, FrameDecoder};
use v6wire::transport::{Fabric, Link, OnPanic, Transport};

use crate::node::{Node, NodeOpts};
use crate::proto::ReplMsg;
use crate::ring::{partition_of, Ring};

/// The reserved endpoint name of the read coordinator. Its links are
/// hook-less — exempt from chaos decisions, since the fabric models the
/// service's replication plane — but fully subject to partitions.
pub const CLIENT: &str = "client";

/// Distinguishes scratch directories of clusters built in one process.
static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Virtual nodes per node on the ring.
const VNODES: usize = 64;
/// Delta records each replica retains for catch-up replay; a requester
/// further behind than this gets a full-state bootstrap.
pub(crate) const HISTORY_CAP: usize = 16;
/// Rounds a read coordinator waits before hedging to the next replica.
const HEDGE_AFTER_ROUNDS: u64 = 2;
/// Rounds after which an unanswered read gives up.
const READ_DEADLINE_ROUNDS: u64 = 8;
/// Rounds a killed node stays down before restarting.
const RESTART_AFTER_ROUNDS: u64 = 6;

/// Cluster construction knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Node count; nodes are named `n0..n{nodes-1}`.
    pub nodes: usize,
    /// Replication factor R (capped at the node count by the ring).
    pub replication: usize,
    /// Fixed partition count the /48 space folds into.
    pub partitions: u32,
    /// Shards per partition store (power of two).
    pub shards: usize,
    /// Scratch root for the nodes' epoch logs (removed on drop).
    pub data_root: PathBuf,
    /// Seed recorded for reports; the chaos plan carries its own.
    pub seed: u64,
}

impl ClusterConfig {
    /// Defaults sized for simulation: 8 partitions of 4 shards.
    pub fn new(nodes: usize, replication: usize, seed: u64) -> ClusterConfig {
        let uniq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        ClusterConfig {
            nodes,
            replication,
            partitions: 8,
            shards: 4,
            data_root: std::env::temp_dir().join(format!(
                "v6cluster-{}-{}-{uniq}",
                std::process::id(),
                seed
            )),
            seed,
        }
    }
}

/// A node's slot in the cluster: live, or down awaiting restart.
enum NodeSlot {
    Up(Box<Node>),
    Down { since_round: u64 },
}

/// How a routed publish ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishOutcome {
    /// The leader made the epoch durable and pushed it to followers.
    Committed {
        /// The cluster-assigned epoch number.
        epoch: u64,
        /// Content checksum of the published epoch.
        checksum: u64,
        /// The node that led the publish.
        leader: String,
    },
    /// No live replica could lead; the write must be retried later.
    Deferred,
    /// The leader's local publish failed (counted, epoch number burned).
    Failed,
}

/// Freshness label on a read answer. The invariant: an answer below
/// the committed epoch is **never** labeled [`ReadStatus::Fresh`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStatus {
    /// Answered at the committed epoch, full quorum reachable.
    Fresh,
    /// Answered — but stale, quarantined, or under-quorum. Labeled.
    Degraded,
    /// No replica answered before the deadline.
    Unavailable,
}

impl fmt::Display for ReadStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReadStatus::Fresh => "fresh",
            ReadStatus::Degraded => "degraded",
            ReadStatus::Unavailable => "unavailable",
        })
    }
}

/// A hedged read's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Freshness label (see [`ReadStatus`]).
    pub status: ReadStatus,
    /// Whether the address is in the hitlist at the answering epoch.
    pub present: bool,
    /// First week the address was observed, when present.
    pub first_week: Option<u32>,
    /// Epoch of the snapshot that answered (0 = no answer).
    pub epoch: u64,
    /// The committed epoch the coordinator compared against (0 =
    /// nothing ever committed for the partition).
    pub committed_epoch: u64,
    /// The partition the address routed to.
    pub partition: u32,
    /// Replicas probed before settling.
    pub probes: usize,
}

/// One line of the read audit log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRecord {
    /// Partition probed.
    pub partition: u32,
    /// Committed epoch at read time.
    pub committed_epoch: u64,
    /// Epoch that actually answered (0 = none).
    pub answered_epoch: u64,
    /// The label the coordinator attached.
    pub status: ReadStatus,
}

/// One partition's state in a [`ConvergenceReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionStatus {
    /// Partition id.
    pub partition: u32,
    /// Committed epoch.
    pub epoch: u64,
    /// Committed content checksum.
    pub checksum: u64,
    /// Replica set in ring walk order.
    pub replicas: Vec<String>,
    /// True when every replica serves exactly `(epoch, checksum)`.
    pub in_sync: bool,
}

/// What [`Cluster::converge`] reached; its `Display` output is
/// deterministic per seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// True when every replica of every published partition serves the
    /// committed `(epoch, checksum)` — byte-identical content.
    pub converged: bool,
    /// Rounds the convergence loop ran.
    pub rounds: u64,
    /// Per-partition detail, ascending by partition id.
    pub partitions: Vec<PartitionStatus>,
    /// An order-sensitive fold of every partition's `(id, epoch,
    /// checksum)` — one number that two converged runs can compare.
    pub combined_checksum: u64,
}

impl fmt::Display for ConvergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} after {} rounds: {} partitions, combined {:#018x}",
            if self.converged {
                "CONVERGED"
            } else {
                "DIVERGED"
            },
            self.rounds,
            self.partitions.len(),
            self.combined_checksum
        )?;
        for p in &self.partitions {
            writeln!(
                f,
                "  p{} epoch={} checksum={:#018x} replicas={} {}",
                p.partition,
                p.epoch,
                p.checksum,
                p.replicas.join(","),
                if p.in_sync { "in-sync" } else { "BEHIND" }
            )?;
        }
        Ok(())
    }
}

/// A replica's decoded answer to one read probe.
#[derive(Debug, Clone)]
struct RespData {
    epoch: u64,
    present: bool,
    first_week: Option<u32>,
    shard_missing: bool,
}

/// One live replica's streaming state for a partition:
/// `(node, epoch, [(operator, checksum); 2])`, the operators being
/// `entropy` and `device`.
pub type StreamChecksumRow = (String, u64, [(&'static str, u64); 2]);

/// N simulated nodes, a ring, a fabric, and a caller-driven clock.
pub struct Cluster {
    cfg: ClusterConfig,
    ring: Ring,
    net: Fabric,
    fabric_registry: Registry,
    slots: BTreeMap<String, NodeSlot>,
    /// The coordinator's half of each client↔node lane.
    client_links: BTreeMap<String, Link>,
    client_decoders: BTreeMap<String, FrameDecoder>,
    /// `pid` → committed `(epoch, checksum)`: what a fresh read must
    /// match. Committed means leader-durable.
    committed: BTreeMap<u32, (u64, u64)>,
    /// When set, every node runs per-partition streaming analytics on
    /// its replication stream; restarts re-enable with this resolver.
    stream_resolver: Option<v6stream::SharedResolver>,
    round: u64,
    next_epoch: u64,
    next_req: u64,
    events: Vec<String>,
    reads: Vec<ReadRecord>,
}

impl Cluster {
    /// A cluster with no fault injection.
    pub fn new(cfg: ClusterConfig) -> io::Result<Cluster> {
        Cluster::with_chaos(cfg, Arc::new(NoChaos))
    }

    /// A cluster whose fabric consults `chaos` at
    /// `cluster.<node>.<seq>` sites, where a `Panic` crashes the node
    /// (see [`v6wire::transport`]).
    pub fn with_chaos(cfg: ClusterConfig, chaos: Arc<dyn Chaos>) -> io::Result<Cluster> {
        assert!(cfg.nodes >= 1, "a cluster needs at least one node");
        assert!(
            cfg.partitions >= 1,
            "a cluster needs at least one partition"
        );
        let names: Vec<String> = (0..cfg.nodes).map(|i| format!("n{i}")).collect();
        let ring = Ring::build(names.clone(), VNODES, cfg.replication);
        let fabric_registry = Registry::new();
        let net = Fabric::new("cluster", chaos, &fabric_registry);
        let mut cluster = Cluster {
            ring,
            net,
            fabric_registry,
            slots: BTreeMap::new(),
            client_links: BTreeMap::new(),
            client_decoders: BTreeMap::new(),
            committed: BTreeMap::new(),
            stream_resolver: None,
            round: 0,
            next_epoch: 1,
            next_req: 1,
            events: Vec::new(),
            reads: Vec::new(),
            cfg,
        };
        for name in &names {
            let pids = cluster.pids_of(name);
            let mut node = Node::create(name.clone(), &pids, cluster.node_opts())?;
            cluster.wire_node(&mut node);
            cluster
                .slots
                .insert(name.clone(), NodeSlot::Up(Box::new(node)));
            cluster
                .client_links
                .insert(name.clone(), cluster.net.link(CLIENT, name, None));
            cluster
                .client_decoders
                .insert(name.clone(), FrameDecoder::new());
        }
        Ok(cluster)
    }

    fn node_opts(&self) -> NodeOpts {
        NodeOpts {
            data_root: self.cfg.data_root.clone(),
            shard_count: self.cfg.shards,
            partitions: self.cfg.partitions,
        }
    }

    /// The partitions `name` replicates under the current ring.
    fn pids_of(&self, name: &str) -> Vec<u32> {
        (0..self.cfg.partitions)
            .filter(|&pid| self.ring.replicas_for_partition(pid).contains(&name))
            .collect()
    }

    /// Gives `node` its fabric links: every peer, plus the client.
    fn wire_node(&self, node: &mut Node) {
        for peer in self.ring.nodes() {
            if peer != node.name() {
                let link = self.net.link(node.name(), peer, Some(OnPanic::Crash));
                node.connect(peer, link);
            }
        }
        let link = self.net.link(node.name(), CLIENT, Some(OnPanic::Crash));
        node.connect(CLIENT, link);
    }

    /// Turns on streaming analytics cluster-wide: every live node gets
    /// per-partition [`v6stream::Analytics`] riding its replication
    /// stream, and nodes restarted after a crash re-enable themselves
    /// with the same resolver (rebuilt from their recovered snapshot).
    pub fn enable_streaming(&mut self, resolver: v6stream::SharedResolver) {
        for slot in self.slots.values_mut() {
            if let NodeSlot::Up(node) = slot {
                node.enable_streaming(Arc::clone(&resolver));
            }
        }
        self.stream_resolver = Some(resolver);
    }

    /// Per-replica streaming operator checksums for `pid`, one row per
    /// live hosting node: `(node, epoch, [(operator, checksum); 2])`.
    pub fn stream_checksums(&self, pid: u32) -> Vec<StreamChecksumRow> {
        let mut rows = Vec::new();
        for (name, slot) in &self.slots {
            if let NodeSlot::Up(node) = slot {
                if let (Some(epoch), Some(sums)) =
                    (node.stream_epoch(pid), node.stream_checksums(pid))
                {
                    rows.push((name.clone(), epoch, sums));
                }
            }
        }
        rows
    }

    /// The ring this cluster routes by.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The configuration the cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Rounds pumped so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The simulated clock: 1 ms per round.
    fn now_us(&self) -> u64 {
        self.round * 1000
    }

    /// The committed `(epoch, checksum)` for a partition, if any
    /// publish ever committed there.
    pub fn committed(&self, pid: u32) -> Option<(u64, u64)> {
        self.committed.get(&pid).copied()
    }

    /// The deterministic event log (kills, restarts, publishes,
    /// partitions), deterministic per seed.
    pub fn events(&self) -> &[String] {
        &self.events
    }

    /// The read audit log.
    pub fn read_audit(&self) -> &[ReadRecord] {
        &self.reads
    }

    /// Audited invariant: reads answered below the committed epoch
    /// that were nevertheless labeled fresh. Must always be zero.
    pub fn unlabeled_stale_reads(&self) -> usize {
        self.reads
            .iter()
            .filter(|r| r.answered_epoch < r.committed_epoch && r.status == ReadStatus::Fresh)
            .count()
    }

    /// True when `name` is up, not mid-crash, and on the client's side
    /// of any partition.
    fn is_reachable(&self, name: &str) -> bool {
        self.is_up(name) && self.net.group(name) == self.net.group(CLIENT)
    }

    fn is_up(&self, name: &str) -> bool {
        matches!(self.slots.get(name), Some(NodeSlot::Up(_))) && !self.net.is_crashed(name)
    }

    /// True when no node is down or mid-crash.
    pub fn all_up(&self) -> bool {
        self.ring.nodes().iter().all(|n| self.is_up(n))
    }

    /// Advances the clock one round: pump every live node, then reap
    /// crashed nodes and restart those whose downtime elapsed.
    pub fn pump_round(&mut self) {
        self.round += 1;
        let now = self.now_us();
        for slot in self.slots.values_mut() {
            if let NodeSlot::Up(node) = slot {
                node.pump(now);
            }
        }
        self.reap_and_restart();
    }

    fn reap_and_restart(&mut self) {
        // Reap: a chaos Panic (or Cluster::kill) marked the node
        // crashed; its process state drops here, its sockets die.
        for name in self.net.crashed() {
            if let Some(slot) = self.slots.get_mut(&name) {
                if matches!(slot, NodeSlot::Up(_)) {
                    *slot = NodeSlot::Down {
                        since_round: self.round,
                    };
                    self.net.disconnect(&name);
                    self.events
                        .push(format!("round {}: KILL {name}", self.round));
                }
            }
        }
        // Restart: recover every partition store from disk; the node
        // rejoins with an empty delta history and catches up over the
        // wire like any lagging replica.
        let due: Vec<String> = self
            .slots
            .iter()
            .filter_map(|(name, slot)| match slot {
                NodeSlot::Down { since_round }
                    if self.round - since_round >= RESTART_AFTER_ROUNDS =>
                {
                    Some(name.clone())
                }
                _ => None,
            })
            .collect();
        for name in due {
            let pids = self.pids_of(&name);
            match Node::restart(name.clone(), &pids, self.node_opts()) {
                Ok(mut node) => {
                    self.net.revive(&name);
                    self.wire_node(&mut node);
                    if let Some(resolver) = &self.stream_resolver {
                        node.enable_streaming(Arc::clone(resolver));
                    }
                    self.slots
                        .insert(name.clone(), NodeSlot::Up(Box::new(node)));
                    self.events
                        .push(format!("round {}: RESTART {name}", self.round));
                }
                Err(err) => {
                    self.events.push(format!(
                        "round {}: RESTART-FAILED {name} ({err})",
                        self.round
                    ));
                    self.slots.insert(
                        name,
                        NodeSlot::Down {
                            since_round: self.round,
                        },
                    );
                }
            }
        }
    }

    /// Kills a node outright (driver-initiated; chaos `Panic`s kill
    /// through the fabric). Reaped on the next [`Cluster::pump_round`].
    pub fn kill(&mut self, node: &str) {
        self.net.crash(node);
    }

    /// Imposes a network partition: endpoints in different groups lose
    /// every chunk between them. The [`CLIENT`] defaults to group 0.
    pub fn set_partition(&mut self, groups: &BTreeMap<String, u8>) {
        self.net.set_groups(groups);
        let desc: Vec<String> = groups.iter().map(|(n, g)| format!("{n}={g}")).collect();
        self.events.push(format!(
            "round {}: PARTITION {}",
            self.round,
            desc.join(",")
        ));
    }

    /// Heals any partition.
    pub fn heal(&mut self) {
        self.net.heal();
        self.events.push(format!("round {}: HEAL", self.round));
    }

    /// Publishes the next epoch of `pid` through its first live
    /// replica in ring walk order. Entries and aliases are sorted and
    /// deduplicated here, so callers can pass raw collections.
    pub fn publish(
        &mut self,
        pid: u32,
        week: u64,
        mut entries: Vec<(u128, u32)>,
        mut aliases: Vec<AliasEntry>,
    ) -> PublishOutcome {
        assert!(pid < self.cfg.partitions, "partition out of range");
        entries.sort_unstable_by_key(|&(bits, _)| bits);
        entries.dedup_by_key(|e| e.0);
        aliases.sort_unstable_by_key(|a| (a.bits, a.len));
        aliases.dedup_by_key(|a| (a.bits, a.len));
        let replicas: Vec<String> = self
            .ring
            .replicas_for_partition(pid)
            .iter()
            .map(|s| s.to_string())
            .collect();
        let Some(leader) = replicas.iter().find(|r| self.is_up(r)).cloned() else {
            // Every replica is down; the epoch number is not burned
            // and a later publish (with fresher content) self-heals.
            self.events.push(format!(
                "round {}: DEFER p{pid} (no live replica)",
                self.round
            ));
            return PublishOutcome::Deferred;
        };
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let followers: Vec<String> = replicas.into_iter().filter(|r| *r != leader).collect();
        let now = self.now_us();
        let result = match self.slots.get_mut(&leader) {
            Some(NodeSlot::Up(node)) => {
                node.lead_publish(pid, epoch, week, entries, aliases, &followers, now)
            }
            _ => unreachable!("leader chosen from live slots"),
        };
        match result {
            Ok(checksum) => {
                self.committed.insert(pid, (epoch, checksum));
                self.events.push(format!(
                    "round {}: PUBLISH p{pid} epoch={epoch} leader={leader} checksum={checksum:#018x}",
                    self.round
                ));
                PublishOutcome::Committed {
                    epoch,
                    checksum,
                    leader,
                }
            }
            Err(_) => {
                self.events.push(format!(
                    "round {}: PUBLISH-FAILED p{pid} epoch={epoch} leader={leader}",
                    self.round
                ));
                PublishOutcome::Failed
            }
        }
    }

    /// A hedged read for one address, driven to completion (the clock
    /// advances while the coordinator waits). See the module docs for
    /// the labeling rules; every read lands in the audit log.
    pub fn read(&mut self, bits: u128) -> ReadOutcome {
        let pid = partition_of(bits, self.cfg.partitions);
        let replicas: Vec<String> = self
            .ring
            .replicas_for_partition(pid)
            .iter()
            .map(|s| s.to_string())
            .collect();
        let committed_epoch = self.committed.get(&pid).map_or(0, |&(e, _)| e);
        let deadline = self.round + READ_DEADLINE_ROUNDS;
        let mut req_ids: Vec<u64> = Vec::new();
        let mut responses: BTreeMap<u64, RespData> = BTreeMap::new();
        let mut next_replica = 0usize;
        let mut last_probe_round = self.round;
        loop {
            let hedge_due =
                req_ids.is_empty() || self.round >= last_probe_round + HEDGE_AFTER_ROUNDS;
            if hedge_due && next_replica < replicas.len() {
                let req_id = self.next_req;
                self.next_req += 1;
                let target = &replicas[next_replica];
                next_replica += 1;
                let msg = ReplMsg::Read { req_id, bits };
                let now = self.now_us();
                if let Some(link) = self.client_links.get_mut(target) {
                    let _ = link.send(&frame(&msg.encode()), now);
                }
                req_ids.push(req_id);
                last_probe_round = self.round;
            }
            self.pump_round();
            self.drain_client(&req_ids, &mut responses);
            let fresh_arrived = responses
                .values()
                .any(|r| r.epoch == committed_epoch && !r.shard_missing);
            if fresh_arrived || self.round >= deadline {
                break;
            }
        }
        // The best answer is the freshest; ties break toward the
        // earliest probe (BTreeMap order = probe order).
        let best = responses.values().max_by_key(|r| r.epoch).cloned();
        let reachable = replicas.iter().filter(|r| self.is_reachable(r)).count();
        let quorum = self.ring.replication() / 2 + 1;
        let status = match &best {
            Some(b) if b.epoch == committed_epoch && !b.shard_missing && reachable >= quorum => {
                ReadStatus::Fresh
            }
            Some(_) => ReadStatus::Degraded,
            None => ReadStatus::Unavailable,
        };
        let outcome = ReadOutcome {
            status,
            present: best.as_ref().is_some_and(|b| b.present),
            first_week: best.as_ref().and_then(|b| b.first_week),
            epoch: best.as_ref().map_or(0, |b| b.epoch),
            committed_epoch,
            partition: pid,
            probes: req_ids.len(),
        };
        self.reads.push(ReadRecord {
            partition: pid,
            committed_epoch,
            answered_epoch: outcome.epoch,
            status,
        });
        outcome
    }

    /// Collects [`ReplMsg::ReadResp`]s addressed to this read off the
    /// client lanes. Responses to older (abandoned) reads are dropped.
    fn drain_client(&mut self, req_ids: &[u64], responses: &mut BTreeMap<u64, RespData>) {
        let now = self.now_us();
        for (node, link) in self.client_links.iter_mut() {
            let Ok(bytes) = link.recv(now) else { continue };
            if bytes.is_empty() {
                continue;
            }
            let decoder = self
                .client_decoders
                .get_mut(node)
                .expect("decoder per client lane");
            let Ok(payloads) = decoder.feed(&bytes) else {
                *decoder = FrameDecoder::new();
                continue;
            };
            for payload in payloads {
                if let Some(ReplMsg::ReadResp {
                    req_id,
                    epoch,
                    present,
                    first_week,
                    shard_missing,
                }) = ReplMsg::decode(&payload)
                {
                    if req_ids.contains(&req_id) {
                        responses.insert(
                            req_id,
                            RespData {
                                epoch,
                                present,
                                first_week,
                                shard_missing,
                            },
                        );
                    }
                }
            }
        }
    }

    /// One anti-entropy sweep: every live replica that is behind the
    /// committed epoch of a partition it hosts asks *every* live peer
    /// replica for catch-up (robust to the leader having died since).
    fn anti_entropy(&mut self) {
        let mut requests: Vec<(String, u32, Vec<String>)> = Vec::new();
        for (&pid, &(epoch, _)) in &self.committed {
            let replicas = self.ring.replicas_for_partition(pid);
            for replica in &replicas {
                if !self.is_up(replica) {
                    continue;
                }
                let behind = match self.slots.get(*replica) {
                    Some(NodeSlot::Up(node)) => {
                        node.epoch_checksum(pid).is_none_or(|(e, _)| e < epoch)
                    }
                    _ => continue,
                };
                if behind {
                    let peers: Vec<String> = replicas
                        .iter()
                        .filter(|p| *p != replica && self.is_up(p))
                        .map(|p| p.to_string())
                        .collect();
                    if !peers.is_empty() {
                        requests.push((replica.to_string(), pid, peers));
                    }
                }
            }
        }
        let now = self.now_us();
        for (name, pid, peers) in requests {
            if let Some(NodeSlot::Up(node)) = self.slots.get_mut(&name) {
                for peer in peers {
                    node.request_catchup(pid, &peer, now);
                }
            }
        }
    }

    /// True when every replica of every published partition serves the
    /// committed `(epoch, checksum)`.
    pub fn is_converged(&self) -> bool {
        self.committed.iter().all(|(&pid, &(epoch, checksum))| {
            self.ring.replicas_for_partition(pid).iter().all(|replica| {
                match self.slots.get(*replica) {
                    Some(NodeSlot::Up(node)) => node.epoch_checksum(pid) == Some((epoch, checksum)),
                    _ => false,
                }
            })
        })
    }

    /// Runs anti-entropy rounds until the cluster converges (all nodes
    /// up, all replicas byte-identical) or `max_rounds` elapse. Call
    /// [`Cluster::heal`] first if a partition is still imposed —
    /// convergence across a partition is impossible by construction.
    pub fn converge(&mut self, max_rounds: u64) -> ConvergenceReport {
        let start = self.round;
        while self.round - start < max_rounds {
            if self.all_up() && self.is_converged() {
                break;
            }
            self.anti_entropy();
            self.pump_round();
        }
        let converged = self.all_up() && self.is_converged();
        let mut partitions = Vec::with_capacity(self.committed.len());
        let mut combined = 0u64;
        for (&pid, &(epoch, checksum)) in &self.committed {
            let replicas: Vec<String> = self
                .ring
                .replicas_for_partition(pid)
                .iter()
                .map(|s| s.to_string())
                .collect();
            let in_sync = replicas.iter().all(|r| match self.slots.get(r) {
                Some(NodeSlot::Up(node)) => node.epoch_checksum(pid) == Some((epoch, checksum)),
                _ => false,
            });
            combined = combined.rotate_left(9).wrapping_mul(0x100_0000_01b3)
                ^ checksum
                ^ (u64::from(pid) << 1)
                ^ epoch;
            partitions.push(PartitionStatus {
                partition: pid,
                epoch,
                checksum,
                replicas,
                in_sync,
            });
        }
        ConvergenceReport {
            converged,
            rounds: self.round - start,
            partitions,
            combined_checksum: combined,
        }
    }

    /// Every node's registry (plus the fabric's) folded into one
    /// snapshot: metric names become `<node>.<name>` / `fabric.<name>`.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut parts: Vec<(String, MetricsSnapshot)> =
            vec![("fabric".to_string(), self.fabric_registry.snapshot())];
        for (name, slot) in &self.slots {
            if let NodeSlot::Up(node) = slot {
                parts.push((name.clone(), node.metrics()));
            }
        }
        MetricsSnapshot::merge_prefixed(parts.iter().map(|(n, s)| (n.as_str(), s)))
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // The data root is this cluster's scratch space (unique per
        // construction); nodes' stores close when slots drop first.
        self.slots.clear();
        let _ = std::fs::remove_dir_all(&self.cfg.data_root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> Cluster {
        let mut cfg = ClusterConfig::new(4, 3, seed);
        cfg.partitions = 4;
        Cluster::new(cfg).unwrap()
    }

    fn settle(cluster: &mut Cluster, rounds: u64) {
        for _ in 0..rounds {
            cluster.pump_round();
        }
    }

    #[test]
    fn publish_replicates_to_every_replica() {
        let mut c = tiny(7);
        let out = c.publish(0, 1, vec![(10, 1), (20, 1)], vec![]);
        let PublishOutcome::Committed {
            epoch, checksum, ..
        } = out
        else {
            panic!("publish must commit on a healthy cluster");
        };
        assert_eq!(epoch, 1);
        settle(&mut c, 4);
        assert!(c.is_converged());
        let replicas: Vec<String> = c
            .ring()
            .replicas_for_partition(0)
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(replicas.len(), 3);
        for r in &replicas {
            let NodeSlot::Up(node) = &c.slots[r] else {
                panic!("all up")
            };
            assert_eq!(node.epoch_checksum(0), Some((epoch, checksum)));
        }
    }

    #[test]
    fn reads_label_fresh_and_degraded_correctly() {
        let mut c = tiny(11);
        let bits: u128 = 0x2001_0db8_0042 << 80 | 7;
        let pid = partition_of(bits, 4);
        c.publish(pid, 2, vec![(bits, 2)], vec![]);
        settle(&mut c, 4);

        let fresh = c.read(bits);
        assert_eq!(fresh.status, ReadStatus::Fresh);
        assert!(fresh.present);
        assert_eq!(fresh.first_week, Some(2));

        // Cut the whole replica set off from the client: answers can
        // still arrive from nobody — unavailable, never silently stale.
        let groups: BTreeMap<String, u8> =
            c.ring().nodes().iter().map(|n| (n.clone(), 1u8)).collect();
        c.set_partition(&groups);
        let cut = c.read(bits);
        assert_eq!(cut.status, ReadStatus::Unavailable);
        c.heal();

        assert_eq!(c.unlabeled_stale_reads(), 0);
    }

    #[test]
    fn killed_node_restarts_and_catches_up() {
        let mut c = tiny(13);
        let replicas: Vec<String> = c
            .ring()
            .replicas_for_partition(1)
            .iter()
            .map(|s| s.to_string())
            .collect();
        c.publish(1, 1, vec![(100, 1)], vec![]);
        settle(&mut c, 3);

        // Kill a follower, advance the epoch while it is down.
        let victim = replicas[1].clone();
        c.kill(&victim);
        c.pump_round();
        assert!(!c.all_up());
        c.publish(1, 2, vec![(100, 1), (200, 2)], vec![]);

        let report = c.converge(64);
        assert!(report.converged, "{report}");
        assert!(c.all_up());
        let line = report.to_string();
        assert!(line.starts_with("CONVERGED"), "{line}");
        assert!(c
            .events()
            .iter()
            .any(|e| e.contains(&format!("KILL {victim}"))));
        assert!(c
            .events()
            .iter()
            .any(|e| e.contains(&format!("RESTART {victim}"))));
    }

    /// One round of publishes over every partition of a `tiny` cluster:
    /// `model[pid]` grows by one address first, so each record is a
    /// one-entry trickle.
    fn trickle_round(c: &mut Cluster, model: &mut [Vec<(u128, u32)>], week: u32) {
        for (pid, part) in model.iter_mut().enumerate() {
            part.push(((pid as u128) << 96 | u128::from(week) << 8, week));
            c.publish(pid as u32, u64::from(week), part.clone(), vec![]);
        }
        settle(c, 3);
    }

    fn gauge(snap: &MetricsSnapshot, name: &str) -> i64 {
        let found = snap.gauges.iter().find(|(n, _)| n == name);
        found.unwrap_or_else(|| panic!("no gauge {name}")).1
    }

    #[test]
    fn node_killed_mid_checkpoint_interval_replays_its_log_tail() {
        let mut c = tiny(29);
        let mut model: Vec<Vec<(u128, u32)>> = vec![Vec::new(); 4];
        // Epochs are cluster-wide, so a partition's epoch advances by 4
        // per round; its log checkpoints every 8th append (the first
        // time on the 8th or 9th, epochs starting at 1..=4), not on
        // every one. By round 11 a crash finds two or three frames.
        for week in 1..=11 {
            trickle_round(&mut c, &mut model, week);
        }
        let victim = c.ring().replicas_for_partition(0)[1].to_string();
        let hosted = c.pids_of(&victim);
        c.kill(&victim);
        c.pump_round();
        trickle_round(&mut c, &mut model, 12);

        let report = c.converge(64);
        assert!(report.converged, "{report}");
        assert!(report.partitions.iter().all(|p| p.in_sync));
        let metrics = c.metrics();
        for pid in hosted {
            let name = format!("{victim}.p{pid}.store.recover.replayed");
            let replayed = metrics
                .counter(&name)
                .unwrap_or_else(|| panic!("no {name}"));
            assert!((2..=3).contains(&replayed), "{name} = {replayed}");
            let name = format!("{victim}.p{pid}.store.log.checkpoints");
            // One publish caught up after the restart: nowhere near due.
            assert_eq!(metrics.counter(&name), Some(0), "{name}");
        }
    }

    #[test]
    fn oversized_partition_publish_fails_without_committing() {
        let mut c = tiny(31);
        let huge: Vec<(u128, u32)> = (0..60_000u128).map(|i| (i << 8, 1)).collect();
        assert_eq!(c.publish(0, 1, huge, vec![]), PublishOutcome::Failed);
        assert_eq!(c.committed(0), None);
        // The cluster is not wedged: the next epoch commits and converges.
        let out = c.publish(0, 1, vec![(1, 1)], vec![]);
        assert!(matches!(out, PublishOutcome::Committed { epoch: 2, .. }));
        settle(&mut c, 4);
        assert!(c.is_converged());
    }

    #[test]
    fn resident_bytes_stay_near_the_compressed_snapshot() {
        let resolver: v6stream::SharedResolver = Arc::new(v6stream::PrefixAsTable::new(vec![]));
        for (seed, streaming) in [(37, false), (38, true)] {
            let mut c = tiny(seed);
            if streaming {
                c.enable_streaming(Arc::clone(&resolver));
            }
            // Load: 64 /64s of 64 addresses per partition, then trickle
            // until the load has aged out of every retained delta chain.
            let mut model: Vec<Vec<(u128, u32)>> = (0..4u128)
                .map(|pid| {
                    (0..4096u128)
                        .map(|i| (pid << 96 | (i / 64) << 64 | (i % 64 + 1) << 32, 0))
                        .collect()
                })
                .collect();
            for week in 1..=(HISTORY_CAP as u32 + 1) {
                trickle_round(&mut c, &mut model, week);
            }
            assert!(c.is_converged());
            let metrics = c.metrics();
            for node in c.ring().nodes() {
                let resident = gauge(&metrics, &format!("{node}.cluster.replica.resident_bytes"));
                let compressed: i64 = c
                    .pids_of(node)
                    .iter()
                    .map(|pid| {
                        gauge(
                            &metrics,
                            &format!("{node}.p{pid}.serve.store.bytes.compressed"),
                        )
                    })
                    .sum();
                assert!(compressed > 0);
                // ROADMAP item 1's gate: no copy of the entries beside
                // the snapshot, only the retained deltas — streaming or
                // not.
                assert!(
                    resident >= compressed && resident as f64 <= 1.3 * compressed as f64,
                    "{node} (streaming {streaming}): resident {resident} B vs compressed \
                     {compressed} B"
                );
            }
            // With streaming on the operators really ran: every replica
            // sits at the committed epoch on the batch answer.
            for (pid, part) in model.iter().enumerate().filter(|_| streaming) {
                let want = v6stream::Analytics::from_entries(Arc::clone(&resolver), part);
                let rows = c.stream_checksums(pid as u32);
                assert_eq!(rows.len(), 3);
                for (node, epoch, sums) in rows {
                    assert_eq!(Some(epoch), c.committed(pid as u32).map(|c| c.0), "{node}");
                    assert_eq!(sums, want.checksums(), "{node}");
                }
            }
        }
    }

    #[test]
    fn streaming_operators_converge_across_replicas() {
        let mut c = tiny(23);
        let resolver: v6stream::SharedResolver = Arc::new(v6stream::PrefixAsTable::new(vec![(
            0x2001_0db8u128 << 96,
            32,
            v6stream::AsTag {
                index: 1,
                country: v6stream::country_code(*b"DE"),
            },
        )]));
        c.enable_streaming(Arc::clone(&resolver));

        let base = 0x2001_0db8u128 << 96;
        let mut entries: Vec<(u128, u32)> = Vec::new();
        for week in 1..=4u32 {
            entries.push((base | (u128::from(week) << 64) | u128::from(week), week));
            entries.sort_unstable_by_key(|&(b, _)| b);
            c.publish(0, u64::from(week), entries.clone(), vec![]);
            settle(&mut c, 3);
        }

        // Kill a follower, advance the epoch while it is down, then
        // converge: the restarted node re-enables streaming from its
        // recovered snapshot and heals over catch-up.
        let victim = c.ring().replicas_for_partition(0)[1].to_string();
        c.kill(&victim);
        c.pump_round();
        entries.push((base | (5u128 << 64) | 5, 5));
        entries.sort_unstable_by_key(|&(b, _)| b);
        c.publish(0, 5, entries.clone(), vec![]);
        let report = c.converge(64);
        assert!(report.converged, "{report}");

        // Every live replica's streaming operators match each other
        // AND a from-scratch batch analysis of the final corpus —
        // regardless of whether they rode deltas, restarted, or
        // bootstrapped.
        let rows = c.stream_checksums(0);
        assert_eq!(rows.len(), 3, "every live replica runs streaming");
        let want = v6stream::Analytics::from_entries(Arc::clone(&resolver), &entries).checksums();
        let (epoch, _) = c.committed(0).unwrap();
        for (node, e, sums) in rows {
            assert_eq!(e, epoch, "{node}'s stream lags the committed epoch");
            assert_eq!(sums, want, "{node}'s operators diverged from batch");
        }
    }

    #[test]
    fn merged_metrics_carry_node_prefixes() {
        let mut c = tiny(17);
        c.publish(0, 1, vec![(1, 0)], vec![]);
        settle(&mut c, 3);
        let snap = c.metrics();
        assert!(snap
            .counter("fabric.cluster.net.chunks")
            .is_some_and(|v| v > 0));
        let pushed: u64 = (0..4)
            .filter_map(|i| snap.counter(&format!("n{i}.cluster.repl.deltas_pushed")))
            .sum();
        assert_eq!(pushed, 2, "leader pushed to both followers");
    }
}
