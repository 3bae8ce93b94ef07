//! v6cluster: multi-node cluster simulation for the hitlist service.
//!
//! Scales the service past one process — the ROADMAP item-4 node
//! boundary. N simulated nodes each own a set of partition replicas
//! (each a [`v6serve::HitlistStore`] backed by a [`v6store`] epoch
//! log), joined by a consistent-hash [`ring::Ring`] (virtual nodes,
//! replication factor R) that maps the /48 address space to replica
//! sets through a fixed partition layer ([`ring::partition_of`]).
//!
//! Everything between nodes is a real message: epoch replication
//! streams [`v6store::replica::DeltaRecord`]s framed with the
//! [`v6wire`] frame codec over [`v6wire::Link`]s of one
//! [`v6wire::Fabric`], never shared memory. The protocol
//! ([`proto::ReplMsg`]) is the classic replicated-log shape:
//!
//! * the partition **leader** publishes an epoch locally (write-ahead,
//!   durable-before-visible) and pushes the delta to its followers;
//! * a **follower** applies the delta when it extends its mirror
//!   exactly, acks with the resulting content checksum, and otherwise
//!   requests **catch-up** — a replay of the missed delta chain, or a
//!   full-state bootstrap when the chain is gone (e.g. across a
//!   restart);
//! * **reads** route through a hedged coordinator that answers fresh
//!   when a replica serves the committed epoch and otherwise labels
//!   the answer degraded — never silently stale.
//!
//! Faults are node-granular [`v6chaos`] decisions at
//! `cluster.<node>.<seq>` sites: `Error` drops a chunk (message
//! loss), `Stall` defers it, and `Panic` **kills the sending node** —
//! its in-memory state is dropped and it later restarts through
//! [`v6serve::HitlistStore::recover`] crash recovery, exactly like a
//! process dying (each node's links carry the fabric's
//! [`v6wire::OnPanic::Crash`] hook; the read coordinator's are
//! hook-less). Network partitions are group maps on the fabric.
//! The convergence invariant (pinned by `tests/cluster_end_to_end.rs`
//! over seeded kill/partition schedules): after faults heal, all R
//! replicas of every partition reach byte-identical epoch
//! `content_checksum`s, and every read answered below the committed
//! epoch was labeled degraded.
//!
//! Observability: each node keeps its own [`v6obs::Registry`]; the
//! cluster folds them (plus the fabric registry) into one snapshot
//! with [`v6obs::MetricsSnapshot::merge_prefixed`]. See DESIGN.md §14
//! and the README "Running a cluster" section.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cluster;
pub mod node;
pub mod proto;
pub mod ring;

pub use cluster::{
    Cluster, ClusterConfig, ConvergenceReport, PartitionStatus, PublishOutcome, ReadOutcome,
    ReadRecord, ReadStatus, CLIENT,
};
pub use node::{partition_name, Node, NodeOpts};
pub use proto::ReplMsg;
pub use ring::{partition_of, Ring};
