//! One simulated cluster node: its partition replicas, the
//! replication state machine, and the serving half of the read path.
//!
//! A node owns one [`v6serve::HitlistStore`] (backed by a `v6store`
//! epoch log on disk) per partition it replicates, plus a short history
//! of the [`DeltaRecord`]s that built it — what catch-up replays to a
//! lagging peer. The serving snapshot is the replica's only copy of the
//! corpus: a delta is applied to it ([`Snapshot::apply_delta`]), logged
//! as it arrived and retained, and nothing on the per-epoch path ever
//! flattens, clones or re-diffs the partition.
//!
//! The state machine (DESIGN.md §14 has the timeline diagrams):
//!
//! * **Leading** ([`Node::lead_publish`]): build the next epoch, diff
//!   it against the served snapshot shard by shard, check that the
//!   resulting push fits a frame, make the epoch durable locally
//!   (`publish_delta`, write-ahead under the cluster-assigned epoch
//!   number), then push the delta to the followers. Durability strictly
//!   precedes the push, so a leader crash can lose an epoch but never
//!   advertise one it doesn't hold.
//! * **Following** (`DeltaPush`): a delta that extends the served epoch
//!   exactly (`prev_epoch` matches) is applied to the served snapshot
//!   and verified — the content checksum carried forward through the
//!   delta must equal the one the delta carries — published durably,
//!   then acked with that checksum. A stale delta is dropped; a gapped
//!   one triggers a `CatchUpReq`.
//! * **Checking acks** (`DeltaAck`): an acked checksum that differs
//!   from this node's own chain at that epoch counts as
//!   `cluster.repl.ack_mismatch`; epochs the chain lost are skipped.
//! * **Catching up** (`CatchUpReq`/`CatchUpResp`): the peer replays
//!   its retained delta chain when it still reaches back to the
//!   requester's epoch, and otherwise bootstraps with the full state,
//!   flattened from its serving snapshot on demand. A node that just
//!   restarted has an empty history, so its first catch-up always
//!   serves the bootstrap path.
//! * **Serving reads** (`Read`): answer from the local snapshot with
//!   the epoch and the shard-quarantine bit, so the coordinator can
//!   label anything that isn't provably fresh.
//!
//! Every message leaves as exactly one [`v6wire::frame`] frame in one
//! transport chunk. The fabric ([`v6wire::Fabric`]) loses whole chunks,
//! never bytes, so a loss costs a message — the [`FrameDecoder`] on
//! the receiving side stays frame-aligned and catch-up heals the gap.
//! A message too large for a frame is never sent: a leader refuses the
//! publish up front, anything else is dropped and counted
//! (`cluster.repl.oversize`).

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::Ipv6Addr;
use std::path::PathBuf;
use std::sync::Arc;

use v6obs::{Counter, Gauge, MetricsSnapshot, Registry};
use v6serve::persist::{delta_to_content, snapshot_from_state, state_from_snapshot};
use v6serve::{HitlistStore, PublishError, RecoverError, Snapshot, StoreConfig};
use v6store::format::AliasEntry;
use v6store::replica::DeltaRecord;
use v6store::EpochState;
use v6stream::SharedResolver;
use v6wire::frame::{try_frame, FrameDecoder, MAX_FRAME_PAYLOAD};
use v6wire::transport::{Link, Transport};

use crate::proto::{encode_delta_push, ReplMsg};
use crate::ring::partition_of;

/// The store name every replica of partition `pid` publishes under.
///
/// Node-independent on purpose: two replicas of one partition hold
/// byte-identical epoch states, names included, so their content
/// checksums are directly comparable.
pub fn partition_name(pid: u32) -> String {
    format!("p{pid}")
}

/// Construction knobs shared by [`Node::create`] and [`Node::restart`].
#[derive(Debug, Clone)]
pub struct NodeOpts {
    /// Scratch root; partition `p` of node `n` persists under
    /// `<data_root>/<n>/p<p>`.
    pub data_root: PathBuf,
    /// Shards per partition store (power of two).
    pub shard_count: usize,
    /// Total partitions in the cluster — read routing needs it to map
    /// a probed address to the partition it serves.
    pub partitions: u32,
    /// Delta records each replica retains for catch-up replay; a
    /// requester further behind than this gets a full-state bootstrap.
    pub history_cap: usize,
}

impl NodeOpts {
    fn store_cfg(&self, node: &str, pid: u32) -> StoreConfig {
        let dir = self.data_root.join(node).join(partition_name(pid));
        // fsync off: the simulation's durability story is exercised by
        // the injected crash/recover cycle, not by surviving real
        // power loss mid-test.
        let cfg = StoreConfig::new(dir).with_fsync(false);
        // The log counts epochs, and cluster epochs are global: one
        // round of publishes advances every partition's epoch by
        // `partitions`. Scaling the interval by it keeps the cadence at
        // one checkpoint per `checkpoint_interval` of *this* partition's
        // appends rather than one per append.
        let every = cfg.checkpoint_interval * u64::from(self.partitions);
        cfg.checkpoint_every(every)
    }
}

/// One partition's replica on this node: the durable store, whose
/// serving snapshot is the only copy of the content (and whose
/// publishes feed its streaming operators, when enabled), and the
/// retained delta chain.
struct PartitionReplica {
    store: HitlistStore,
    /// `(prev_epoch, delta)` pairs, contiguous by construction —
    /// each delta was applied when the store sat at its `prev_epoch`.
    history: VecDeque<(u64, DeltaRecord)>,
}

impl PartitionReplica {
    fn new(store: HitlistStore) -> PartitionReplica {
        PartitionReplica {
            store,
            history: VecDeque::new(),
        }
    }

    /// Applies a delta that extends the served epoch exactly: carry the
    /// snapshot forward through it (which verifies the checksum),
    /// publish durably, then retain it. Returns the `(epoch, checksum)`
    /// reached, or `None` when the delta was rejected (counted by the
    /// caller).
    fn apply_verified(
        &mut self,
        prev_epoch: u64,
        delta: DeltaRecord,
        history_cap: usize,
    ) -> Option<(u64, u64)> {
        let current = self.store.snapshot();
        debug_assert_eq!(prev_epoch, current.epoch());
        let next = current.apply_delta(&delta)?;
        self.store.publish_delta(next, &delta).ok()?;
        let reached = (delta.epoch, delta.content_checksum);
        self.adopt(prev_epoch, delta, history_cap);
        Some(reached)
    }

    /// After `delta` carried `prev_epoch` to the epoch now published:
    /// retain it for catch-up.
    fn adopt(&mut self, prev_epoch: u64, delta: DeltaRecord, history_cap: usize) {
        self.history.push_back((prev_epoch, delta));
        while self.history.len() > history_cap {
            self.history.pop_front();
        }
    }

    /// The content checksum this replica's chain holds for `epoch`:
    /// the served snapshot's, or a retained delta's. `None` once the
    /// chain no longer reaches that epoch.
    fn checksum_at(&self, epoch: u64) -> Option<u64> {
        let snap = self.store.snapshot();
        if snap.epoch() == epoch {
            return Some(snap.content_checksum());
        }
        self.history
            .iter()
            .find(|(_, d)| d.epoch == epoch)
            .map(|(_, d)| d.content_checksum)
    }

    /// Bytes this replica keeps resident for its corpus: the serving
    /// snapshot's columns and the retained delta chain. Streaming adds
    /// operator state, not a second copy of the entries.
    fn resident_bytes(&self) -> u64 {
        use std::mem::size_of_val;
        let history: usize = self
            .history
            .iter()
            .map(|(_, d)| {
                size_of_val(&d.removed[..])
                    + size_of_val(&d.added[..])
                    + size_of_val(&d.removed_aliases[..])
                    + size_of_val(&d.added_aliases[..])
                    + size_of_val(&d.missing_shards[..])
            })
            .sum();
        self.store.snapshot().stored_bytes() + history as u64
    }
}

/// Per-node replication/read counters (registered in the node's own
/// [`Registry`]; the cluster merges them under a `<node>.` prefix).
struct NodeCounters {
    deltas_pushed: Counter,
    deltas_applied: Counter,
    dup_pushes: Counter,
    gap_pushes: Counter,
    acks: Counter,
    ack_mismatch: Counter,
    catchup_reqs: Counter,
    catchup_chains: Counter,
    catchup_bootstraps: Counter,
    catchup_applied: Counter,
    reads_served: Counter,
    rejected: Counter,
    bad_frames: Counter,
    bad_payloads: Counter,
    oversize: Counter,
    resident_bytes: Gauge,
}

impl NodeCounters {
    fn new(registry: &Registry) -> NodeCounters {
        NodeCounters {
            deltas_pushed: registry.counter("cluster.repl.deltas_pushed"),
            deltas_applied: registry.counter("cluster.repl.deltas_applied"),
            dup_pushes: registry.counter("cluster.repl.dup_pushes"),
            gap_pushes: registry.counter("cluster.repl.gap_pushes"),
            acks: registry.counter("cluster.repl.acks"),
            ack_mismatch: registry.counter("cluster.repl.ack_mismatch"),
            catchup_reqs: registry.counter("cluster.repl.catchup_reqs"),
            catchup_chains: registry.counter("cluster.repl.catchup_chains"),
            catchup_bootstraps: registry.counter("cluster.repl.catchup_bootstraps"),
            catchup_applied: registry.counter("cluster.repl.catchup_applied"),
            reads_served: registry.counter("cluster.read.served"),
            rejected: registry.counter("cluster.repl.rejected"),
            bad_frames: registry.counter("cluster.repl.bad_frames"),
            bad_payloads: registry.counter("cluster.repl.bad_payloads"),
            oversize: registry.counter("cluster.repl.oversize"),
            resident_bytes: registry.gauge("cluster.replica.resident_bytes"),
        }
    }
}

struct Peer {
    link: Link,
    decoder: FrameDecoder,
}

/// One simulated node: named, with its own metrics registry, hosting
/// a set of partition replicas and talking to peers over fabric links.
pub struct Node {
    name: String,
    opts: NodeOpts,
    registry: Registry,
    counters: NodeCounters,
    replicas: BTreeMap<u32, PartitionReplica>,
    peers: BTreeMap<String, Peer>,
}

impl Node {
    /// Creates a fresh node hosting `pids`, wiping any previous store
    /// state under its data directories.
    pub fn create(name: impl Into<String>, pids: &[u32], opts: NodeOpts) -> io::Result<Node> {
        let name = name.into();
        let registry = Registry::new();
        let counters = NodeCounters::new(&registry);
        let mut replicas = BTreeMap::new();
        for &pid in pids {
            let store = HitlistStore::persistent(
                partition_name(pid),
                opts.shard_count,
                opts.store_cfg(&name, pid),
            )?;
            replicas.insert(pid, PartitionReplica::new(store));
        }
        Ok(Node {
            name,
            opts,
            registry,
            counters,
            replicas,
            peers: BTreeMap::new(),
        })
    }

    /// Restarts a node after a crash: every partition store goes
    /// through [`HitlistStore::recover`]. The delta history does not
    /// survive (it was process memory), so this node's first catch-up
    /// request is answered with a full-state bootstrap — exactly the
    /// degraded-history path the protocol is designed around.
    pub fn restart(
        name: impl Into<String>,
        pids: &[u32],
        opts: NodeOpts,
    ) -> Result<Node, RecoverError> {
        let name = name.into();
        let registry = Registry::new();
        let counters = NodeCounters::new(&registry);
        let mut replicas = BTreeMap::new();
        for &pid in pids {
            let (store, _report) = HitlistStore::recover(opts.store_cfg(&name, pid))?;
            replicas.insert(pid, PartitionReplica::new(store));
        }
        Ok(Node {
            name,
            opts,
            registry,
            counters,
            replicas,
            peers: BTreeMap::new(),
        })
    }

    /// This node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attaches (or replaces) the fabric link toward `peer`.
    pub fn connect(&mut self, peer: impl Into<String>, link: Link) {
        self.peers.insert(
            peer.into(),
            Peer {
                link,
                decoder: FrameDecoder::new(),
            },
        );
    }

    /// True when this node replicates partition `pid`.
    pub fn hosts(&self, pid: u32) -> bool {
        self.replicas.contains_key(&pid)
    }

    /// Turns on incremental streaming analytics for every hosted
    /// partition ([`HitlistStore::enable_analytics`]), built from the
    /// serving snapshots. From here on every epoch the replica
    /// publishes — a delta it leads or follows, or a bootstrap it
    /// adopts — updates the operators in O(Δ). Re-enabling rebuilds
    /// from scratch.
    pub fn enable_streaming(&mut self, resolver: SharedResolver) {
        for replica in self.replicas.values() {
            replica.store.enable_analytics(Arc::clone(&resolver));
        }
    }

    /// The epoch the streaming operators of `pid` reflect, when
    /// streaming is enabled there.
    pub fn stream_epoch(&self, pid: u32) -> Option<u64> {
        self.replicas.get(&pid)?.store.analytics(|epoch, _| epoch)
    }

    /// `(operator name, checksum)` for `pid`'s two streaming operators,
    /// `entropy` and `device` — the cross-replica convergence witness:
    /// equal corpus, equal checksums, regardless of the delta/bootstrap
    /// path each replica took.
    pub fn stream_checksums(&self, pid: u32) -> Option<[(&'static str, u64); 2]> {
        self.replicas
            .get(&pid)?
            .store
            .analytics(|_, ops| ops.checksums())
    }

    /// The `(epoch, content_checksum)` this node's store currently
    /// serves for `pid`, when hosted.
    pub fn epoch_checksum(&self, pid: u32) -> Option<(u64, u64)> {
        let r = self.replicas.get(&pid)?;
        let snap = r.store.snapshot();
        Some((snap.epoch(), snap.content_checksum()))
    }

    /// The serving snapshot for `pid`, when hosted.
    pub fn snapshot(&self, pid: u32) -> Option<Arc<Snapshot>> {
        self.replicas.get(&pid).map(|r| r.store.snapshot())
    }

    /// This node's metrics: its own replication and read counters, the
    /// `cluster.replica.resident_bytes` gauge (computed here, on read),
    /// and under `p<pid>.` each hosted store's write-ahead log,
    /// recovery and footprint metrics (`store.*`, `serve.store.*`).
    pub fn metrics(&self) -> MetricsSnapshot {
        let resident: u64 = self
            .replicas
            .values()
            .map(PartitionReplica::resident_bytes)
            .sum();
        self.counters.resident_bytes.set(resident as i64);
        let mut snap = self.registry.snapshot();
        let stores: Vec<(String, MetricsSnapshot)> = self
            .replicas
            .iter()
            .map(|(&pid, r)| (partition_name(pid), r.store.metrics().registry().snapshot()))
            .collect();
        let stores = MetricsSnapshot::merge_prefixed(stores.iter().map(|(n, s)| (n.as_str(), s)));
        // `p<pid>.store.*` and `p<pid>.serve.store.*`; the query-side
        // metrics of a replica's store are not the cluster's concern.
        let kept = |name: &str| name.contains(".store.");
        snap.counters
            .extend(stores.counters.into_iter().filter(|(n, _)| kept(n)));
        snap.gauges
            .extend(stores.gauges.into_iter().filter(|(n, _)| kept(n)));
        snap.histograms
            .extend(stores.histograms.into_iter().filter(|(n, _)| kept(n)));
        snap
    }

    /// Publishes the next epoch of `pid` as its leader.
    ///
    /// `entries` must be sorted ascending by bits and deduplicated;
    /// `aliases` sorted by `(bits, len)` — the cluster driver
    /// guarantees both. The epoch is made durable locally first, then
    /// the delta is pushed to `followers`. Returns the content
    /// checksum of the published epoch.
    ///
    /// A delta whose push would not fit one frame is refused with
    /// [`PublishError::Oversized`] before anything is logged: an epoch
    /// the followers can never be sent must not commit.
    #[allow(clippy::too_many_arguments)] // the full epoch description
    pub fn lead_publish(
        &mut self,
        pid: u32,
        epoch: u64,
        week: u64,
        entries: Vec<(u128, u32)>,
        aliases: Vec<AliasEntry>,
        followers: &[String],
        now_us: u64,
    ) -> Result<u64, PublishError> {
        let replica = self
            .replicas
            .get_mut(&pid)
            .expect("leader must host the partition it publishes");
        let current = replica.store.snapshot();
        let prev_epoch = current.epoch();
        let delta = delta_to_content(&current, epoch, week, &entries, &aliases);
        let checksum = delta.content_checksum;
        let push = if followers.is_empty() {
            None
        } else {
            let payload = encode_delta_push(pid, prev_epoch, &delta);
            Some(try_frame(&payload).map_err(|_| PublishError::Oversized {
                bytes: payload.len(),
                cap: MAX_FRAME_PAYLOAD as usize,
            })?)
        };
        // Cannot miss for sorted, deduplicated input: the delta was
        // derived from this very snapshot.
        let next = current
            .apply_delta(&delta)
            .ok_or(PublishError::IntegrityFailure)?;
        // Durable before visible, visible before pushed: a crash
        // here loses an epoch, never advertises a phantom one.
        replica.store.publish_delta(next, &delta)?;
        replica.adopt(prev_epoch, delta, self.opts.history_cap);
        if let Some(framed) = push {
            for follower in followers {
                self.counters.deltas_pushed.inc();
                self.send_framed(follower, &framed, now_us);
            }
        }
        Ok(checksum)
    }

    /// Asks `peer` for everything after this node's current epoch of
    /// `pid` — the anti-entropy probe the cluster driver fires while
    /// converging.
    pub fn request_catchup(&mut self, pid: u32, peer: &str, now_us: u64) {
        let Some(replica) = self.replicas.get(&pid) else {
            return;
        };
        let have_epoch = replica.store.epoch();
        self.counters.catchup_reqs.inc();
        self.send(
            peer,
            &ReplMsg::CatchUpReq {
                partition: pid,
                have_epoch,
            },
            now_us,
        );
    }

    /// Drains every peer link once and handles each decoded message.
    /// The caller-driven clock makes one `pump` per node per round.
    pub fn pump(&mut self, now_us: u64) {
        let peers: Vec<String> = self.peers.keys().cloned().collect();
        for peer in peers {
            for msg in self.drain(&peer, now_us) {
                self.handle(&peer, msg, now_us);
            }
        }
    }

    fn drain(&mut self, peer: &str, now_us: u64) -> Vec<ReplMsg> {
        let Some(p) = self.peers.get_mut(peer) else {
            return Vec::new();
        };
        let Ok(bytes) = p.link.recv(now_us) else {
            // This node is crashed; the driver reaps it shortly.
            return Vec::new();
        };
        let payloads = match p.decoder.feed(&bytes) {
            Ok(payloads) => payloads,
            Err(_) => {
                // Unreachable on this fabric (chunks are lost whole,
                // never corrupted), but a poisoned decoder must reset
                // or the peer is deaf forever.
                self.counters.bad_frames.inc();
                p.decoder = FrameDecoder::new();
                return Vec::new();
            }
        };
        let mut out = Vec::with_capacity(payloads.len());
        for payload in payloads {
            match ReplMsg::decode(&payload) {
                Some(msg) => out.push(msg),
                None => self.counters.bad_payloads.inc(),
            }
        }
        out
    }

    fn handle(&mut self, peer: &str, msg: ReplMsg, now_us: u64) {
        match msg {
            ReplMsg::DeltaPush {
                partition,
                prev_epoch,
                delta,
            } => self.on_delta_push(peer, partition, prev_epoch, delta, now_us),
            ReplMsg::DeltaAck {
                partition,
                epoch,
                checksum,
            } => {
                self.counters.acks.inc();
                let own = self
                    .replicas
                    .get(&partition)
                    .and_then(|r| r.checksum_at(epoch));
                if own.is_some_and(|own| own != checksum) {
                    self.counters.ack_mismatch.inc();
                }
            }
            ReplMsg::CatchUpReq {
                partition,
                have_epoch,
            } => self.on_catchup_req(peer, partition, have_epoch, now_us),
            ReplMsg::CatchUpResp {
                partition,
                base,
                deltas,
            } => self.on_catchup_resp(peer, partition, base, deltas, now_us),
            ReplMsg::Read { req_id, bits } => self.on_read(peer, req_id, bits, now_us),
            // Nodes never originate reads; only the coordinator
            // (outside any node) consumes responses.
            ReplMsg::ReadResp { .. } => {}
        }
    }

    fn on_delta_push(
        &mut self,
        peer: &str,
        pid: u32,
        prev_epoch: u64,
        delta: DeltaRecord,
        now_us: u64,
    ) {
        let Some(replica) = self.replicas.get_mut(&pid) else {
            return;
        };
        let have_epoch = replica.store.epoch();
        if delta.epoch <= have_epoch {
            self.counters.dup_pushes.inc();
            return;
        }
        if prev_epoch != have_epoch {
            // A gap: we missed at least one push. Ask the sender for
            // the chain instead of applying out of order.
            self.counters.gap_pushes.inc();
            self.request_catchup(pid, peer, now_us);
            return;
        }
        match replica.apply_verified(prev_epoch, delta, self.opts.history_cap) {
            Some((epoch, checksum)) => {
                self.counters.deltas_applied.inc();
                self.send(
                    peer,
                    &ReplMsg::DeltaAck {
                        partition: pid,
                        epoch,
                        checksum,
                    },
                    now_us,
                );
            }
            None => self.counters.rejected.inc(),
        }
    }

    fn on_catchup_req(&mut self, peer: &str, pid: u32, have_epoch: u64, now_us: u64) {
        let Some(replica) = self.replicas.get(&pid) else {
            return;
        };
        let current = replica.store.snapshot();
        if current.epoch() <= have_epoch {
            // Nothing to offer; the requester is at or ahead of us.
            return;
        }
        // The history is contiguous, so a chain exists iff some
        // retained delta starts exactly at the requester's epoch.
        let resp = match replica
            .history
            .iter()
            .position(|&(prev, _)| prev == have_epoch)
        {
            Some(i) => {
                self.counters.catchup_chains.inc();
                ReplMsg::CatchUpResp {
                    partition: pid,
                    base: None,
                    deltas: replica.history.iter().skip(i).cloned().collect(),
                }
            }
            None => {
                self.counters.catchup_bootstraps.inc();
                ReplMsg::CatchUpResp {
                    partition: pid,
                    base: Some(state_from_snapshot(&current)),
                    deltas: Vec::new(),
                }
            }
        };
        self.send(peer, &resp, now_us);
    }

    fn on_catchup_resp(
        &mut self,
        peer: &str,
        pid: u32,
        base: Option<EpochState>,
        deltas: Vec<(u64, DeltaRecord)>,
        now_us: u64,
    ) {
        let Some(replica) = self.replicas.get_mut(&pid) else {
            return;
        };
        let mut reached = None;
        if let Some(state) = base {
            // Full-state bootstrap: adopt only if it moves us forward
            // and its content matches its checksum.
            if state.epoch > replica.store.epoch() {
                let snap = snapshot_from_state(&state);
                if snap.content_checksum() == state.content_checksum
                    && replica.store.publish_as(snap, state.epoch).is_ok()
                {
                    reached = Some((state.epoch, state.content_checksum));
                    // The chain that built the old epoch is now
                    // meaningless; future catch-ups we serve bootstrap.
                    replica.history.clear();
                } else {
                    self.counters.rejected.inc();
                }
            }
        }
        for (prev, delta) in deltas {
            let have_epoch = replica.store.epoch();
            if delta.epoch <= have_epoch {
                continue; // already have it (e.g. raced with a push)
            }
            if prev != have_epoch {
                break; // chain no longer lines up; a later round retries
            }
            match replica.apply_verified(prev, delta, self.opts.history_cap) {
                Some(r) => reached = Some(r),
                None => {
                    self.counters.rejected.inc();
                    break;
                }
            }
        }
        if let Some((epoch, checksum)) = reached {
            self.counters.catchup_applied.inc();
            self.send(
                peer,
                &ReplMsg::DeltaAck {
                    partition: pid,
                    epoch,
                    checksum,
                },
                now_us,
            );
        }
    }

    fn on_read(&mut self, peer: &str, req_id: u64, bits: u128, now_us: u64) {
        let pid = partition_of(bits, self.opts.partitions);
        let resp = match self.replicas.get(&pid) {
            None => ReplMsg::ReadResp {
                // Not hosting: epoch 0 tells the coordinator this
                // answer carries no information.
                req_id,
                epoch: 0,
                present: false,
                first_week: None,
                shard_missing: false,
            },
            Some(replica) => {
                let snap = replica.store.snapshot();
                let addr = Ipv6Addr::from(bits);
                let first_week = snap.first_week(addr);
                ReplMsg::ReadResp {
                    req_id,
                    epoch: snap.epoch(),
                    present: first_week.is_some(),
                    first_week,
                    shard_missing: snap.shard_missing(addr),
                }
            }
        };
        self.counters.reads_served.inc();
        self.send(peer, &resp, now_us);
    }

    /// Frames and sends one message toward `peer`. A message too large
    /// for a frame (a bootstrap of a partition past the frame cap, a
    /// long chain of large deltas) is dropped and counted: no receiver
    /// would accept it.
    fn send(&mut self, peer: &str, msg: &ReplMsg, now_us: u64) {
        match try_frame(&msg.encode()) {
            Ok(framed) => self.send_framed(peer, &framed, now_us),
            Err(_) => self.counters.oversize.inc(),
        }
    }

    /// Sends one already-framed message toward `peer`. Exactly one
    /// frame per chunk (see the module docs); send errors mean this
    /// node is crashed and are ignored — the driver reaps it.
    fn send_framed(&mut self, peer: &str, framed: &[u8], now_us: u64) {
        if let Some(p) = self.peers.get_mut(peer) {
            let _ = p.link.send(framed, now_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CLIENT;
    use v6chaos::NoChaos;
    use v6wire::frame::frame;
    use v6wire::{Fabric, OnPanic};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("v6cluster-node-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts(root: &std::path::Path) -> NodeOpts {
        NodeOpts {
            data_root: root.to_path_buf(),
            shard_count: 4,
            partitions: 4,
            history_cap: 4,
        }
    }

    fn quiet_net() -> Fabric {
        Fabric::new("cluster", Arc::new(NoChaos), &Registry::new())
    }

    fn wire(net: &Fabric, a: &mut Node, b: &mut Node) {
        let (an, bn) = (a.name().to_string(), b.name().to_string());
        a.connect(&bn, net.link(&an, &bn, Some(OnPanic::Crash)));
        b.connect(&an, net.link(&bn, &an, Some(OnPanic::Crash)));
    }

    #[test]
    fn push_apply_ack_round_trip() {
        let root = scratch("push");
        let net = quiet_net();
        let mut leader = Node::create("n0", &[1], opts(&root)).unwrap();
        let mut follower = Node::create("n1", &[1], opts(&root)).unwrap();
        wire(&net, &mut leader, &mut follower);

        let checksum = leader
            .lead_publish(1, 1, 0, vec![(10, 0), (20, 0)], vec![], &["n1".into()], 0)
            .unwrap();
        follower.pump(1_000);
        leader.pump(2_000);

        assert_eq!(follower.epoch_checksum(1), Some((1, checksum)));
        let m = leader.metrics();
        assert_eq!(m.counter("cluster.repl.acks"), Some(1));
        assert_eq!(m.counter("cluster.repl.ack_mismatch"), Some(0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn gap_triggers_catchup_chain_replay() {
        let root = scratch("gap");
        let net = quiet_net();
        let mut leader = Node::create("n0", &[0], opts(&root)).unwrap();
        let mut follower = Node::create("n1", &[0], opts(&root)).unwrap();
        wire(&net, &mut leader, &mut follower);

        // Epoch 1 never reaches the follower (no pump before the next
        // publish drains the lane into the decoder in order — simulate
        // loss by publishing twice, then dropping the first chunk).
        let drop_link = net.link("n1", "n0", Some(OnPanic::Crash));
        leader
            .lead_publish(0, 1, 0, vec![(1, 0)], vec![], &["n1".into()], 0)
            .unwrap();
        {
            // Steal epoch 1's chunk off the lane before the follower
            // sees it.
            let mut l = drop_link;
            let _ = v6wire::transport::Transport::recv(&mut l, 0);
        }
        leader
            .lead_publish(0, 2, 1, vec![(1, 0), (2, 1)], vec![], &["n1".into()], 0)
            .unwrap();

        follower.pump(1_000); // sees epoch 2 push, detects the gap, asks
        leader.pump(2_000); // serves the chain
        follower.pump(3_000); // replays epochs 1..=2
        leader.pump(4_000); // collects the ack

        assert_eq!(
            follower.epoch_checksum(0).map(|(e, _)| e),
            Some(2),
            "follower caught up through the chain"
        );
        assert_eq!(
            leader.epoch_checksum(0),
            follower.epoch_checksum(0),
            "byte-identical content checksums"
        );
        let m = leader.metrics();
        assert_eq!(m.counter("cluster.repl.acks"), Some(1));
        assert_eq!(m.counter("cluster.repl.ack_mismatch"), Some(0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn forged_ack_checksum_is_counted_as_a_mismatch() {
        let root = scratch("forged-ack");
        let net = quiet_net();
        let mut leader = Node::create("n0", &[1], opts(&root)).unwrap();
        leader.connect("n1", net.link("n0", "n1", Some(OnPanic::Crash)));
        let mut forger = net.link("n1", "n0", None);
        let checksum = leader
            .lead_publish(1, 1, 0, vec![(10, 0), (20, 0)], vec![], &[], 0)
            .unwrap();

        // An honest ack, a forged checksum at the held epoch, and an
        // epoch the leader's chain never held.
        for (epoch, acked) in [(1, checksum), (1, checksum ^ 1), (7, 0)] {
            let ack = ReplMsg::DeltaAck {
                partition: 1,
                epoch,
                checksum: acked,
            };
            forger.send(&frame(&ack.encode()), 0).unwrap();
        }
        leader.pump(1_000);

        let m = leader.metrics();
        assert_eq!(m.counter("cluster.repl.acks"), Some(3));
        assert_eq!(m.counter("cluster.repl.ack_mismatch"), Some(1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn restart_recovers_the_store_and_catches_up_forward() {
        let root = scratch("restart");
        let net = quiet_net();
        let mut leader = Node::create("n0", &[2], opts(&root)).unwrap();
        let mut follower = Node::create("n1", &[2], opts(&root)).unwrap();
        wire(&net, &mut leader, &mut follower);

        leader
            .lead_publish(2, 1, 0, vec![(5, 0)], vec![], &["n1".into()], 0)
            .unwrap();
        follower.pump(1_000);
        assert_eq!(follower.epoch_checksum(2).map(|(e, _)| e), Some(1));

        // Kill the follower (drop it), advance the leader while it is
        // down, then restart it from disk.
        drop(follower);
        leader
            .lead_publish(2, 2, 1, vec![(5, 0), (6, 1)], vec![], &[], 0)
            .unwrap();

        let mut follower = Node::restart("n1", &[2], opts(&root)).unwrap();
        wire(&net, &mut leader, &mut follower);
        assert_eq!(
            follower.epoch_checksum(2).map(|(e, _)| e),
            Some(1),
            "recovery restored the pre-crash epoch"
        );

        follower.request_catchup(2, "n0", 10_000);
        leader.pump(11_000); // empty requester history upstream is
                             // irrelevant; the leader still has its
                             // chain and replays epoch 2
        follower.pump(12_000);
        assert_eq!(leader.epoch_checksum(2), follower.epoch_checksum(2));
        assert_eq!(follower.epoch_checksum(2).map(|(e, _)| e), Some(2));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// 60 000 fresh entries, one per /64, encode to 1.2 MB as a delta
    /// and 1.44 MB as a state: more than one frame holds.
    fn oversized_content() -> Vec<(u128, u32)> {
        (0..60_000u128).map(|i| (i << 64, 1)).collect()
    }

    #[test]
    fn oversized_push_is_refused_before_anything_commits() {
        let root = scratch("oversize-push");
        let net = quiet_net();
        let mut leader = Node::create("n0", &[0], opts(&root)).unwrap();
        let mut follower = Node::create("n1", &[0], opts(&root)).unwrap();
        wire(&net, &mut leader, &mut follower);
        let small = leader
            .lead_publish(0, 1, 0, vec![(7, 0)], vec![], &["n1".into()], 0)
            .unwrap();

        let err = leader
            .lead_publish(0, 2, 1, oversized_content(), vec![], &["n1".into()], 0)
            .unwrap_err();
        assert!(matches!(err, PublishError::Oversized { bytes, cap } if bytes > cap));
        // Nothing half-committed: not visible, not acked, not logged,
        // not pushed.
        assert_eq!(leader.epoch_checksum(0), Some((1, small)));
        let m = leader.metrics();
        assert_eq!(m.counter("cluster.repl.acks"), Some(0));
        assert_eq!(m.counter("cluster.repl.ack_mismatch"), Some(0));
        let logged = v6store::recover(&root.join("n0").join(partition_name(0))).unwrap();
        assert_eq!(logged.state.epoch, 1);
        follower.pump(1_000);
        assert_eq!(follower.epoch_checksum(0), Some((1, small)));
        assert_eq!(
            follower.metrics().counter("cluster.repl.gap_pushes"),
            Some(0)
        );

        // The same content with nobody to push to is a local matter.
        leader
            .lead_publish(0, 3, 1, oversized_content(), vec![], &[], 0)
            .unwrap();
        assert_eq!(leader.epoch_checksum(0).map(|(e, _)| e), Some(3));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn oversized_bootstrap_is_dropped_and_counted() {
        let root = scratch("oversize-bootstrap");
        let net = quiet_net();
        let mut leader = Node::create("n0", &[0], opts(&root)).unwrap();
        leader
            .lead_publish(0, 1, 1, oversized_content(), vec![], &[], 0)
            .unwrap();
        // A restart forgets the delta chain, so the next catch-up is
        // served as a bootstrap of the whole partition.
        drop(leader);
        let mut leader = Node::restart("n0", &[0], opts(&root)).unwrap();
        let mut follower = Node::create("n1", &[0], opts(&root)).unwrap();
        wire(&net, &mut leader, &mut follower);

        follower.request_catchup(0, "n0", 0);
        leader.pump(1_000);
        follower.pump(2_000);

        let m = leader.metrics();
        assert_eq!(m.counter("cluster.repl.catchup_bootstraps"), Some(1));
        assert_eq!(m.counter("cluster.repl.oversize"), Some(1));
        assert_eq!(follower.epoch_checksum(0).map(|(e, _)| e), Some(0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reads_answer_with_epoch_and_quarantine_bit() {
        let root = scratch("read");
        let net = quiet_net();
        let mut node = Node::create("n0", &[0, 1, 2, 3], opts(&root)).unwrap();
        node.connect(CLIENT, net.link("n0", CLIENT, Some(OnPanic::Crash)));
        let mut client = net.link(CLIENT, "n0", None);

        let bits: u128 = 0x2001_0db8 << 96 | 0x1;
        let pid = partition_of(bits, 4);
        node.lead_publish(pid, 1, 3, vec![(bits, 3)], vec![], &[], 0)
            .unwrap();

        client
            .send(&frame(&ReplMsg::Read { req_id: 9, bits }.encode()), 0)
            .unwrap();
        node.pump(1_000);
        let bytes = client.recv(2_000).unwrap();
        let mut dec = FrameDecoder::new();
        let payloads = dec.feed(&bytes).unwrap();
        assert_eq!(payloads.len(), 1);
        assert_eq!(
            ReplMsg::decode(&payloads[0]),
            Some(ReplMsg::ReadResp {
                req_id: 9,
                epoch: 1,
                present: true,
                first_week: Some(3),
                shard_missing: false,
            })
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
