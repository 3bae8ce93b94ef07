//! # ipv6-hitlists
//!
//! A full reproduction of *IPv6 Hitlists at Scale: Be Careful What You
//! Wish For* (Rye & Levin, SIGCOMM 2023) as a Rust workspace:
//!
//! * [`addr`] (`v6addr`) — IPv6 address mechanics: prefixes, IIDs,
//!   entropy, EUI-64/MAC/OUI, IPv4 embeddings, address sets, prefix index.
//! * [`netsim`] (`v6netsim`) — the deterministic synthetic Internet the
//!   study runs against.
//! * [`ntp`] (`v6ntp`) — RFC 5905 NTP and the NTP Pool model.
//! * [`scan`] (`v6scan`) — ZMap6/Yarrp-style active measurement, alias
//!   detection, target generation, campaign baselines.
//! * [`geo`] (`v6geo`) — MaxMind-like and wardriving-like geolocation
//!   substrates.
//! * [`par`] (`v6par`) — the morsel-driven kernels on scoped helpers and
//!   the stage DAG behind the parallel pipeline; deterministic by
//!   construction (bit-identical artifacts at any thread count,
//!   `V6_THREADS` knob).
//! * [`hitlist`] (`v6hitlist`) — the paper's contribution: passive NTP
//!   corpus collection, dataset comparison, entropy/lifetime/pattern
//!   analyses, backscanning, EUI-64 tracking, the geolocation attack,
//!   and the ethical /48 release.
//! * [`serve`] (`v6serve`) — the serving half of a hitlist service:
//!   sharded immutable snapshots, epoch-swapped publication, concurrent
//!   ingestion, and durable recovery; [`wire`] answers queries from them.
//! * [`store`] (`v6store`) — durable epoch persistence behind the
//!   serving store: an append-only checksummed delta log with compacted
//!   checkpoints, torn-tail/bit-rot classifying crash recovery, and
//!   read-only time travel to any logged epoch.
//! * [`chaos`] (`v6chaos`) — seeded deterministic fault injection for
//!   the pipeline and the serving path, plus the loss-report accounting
//!   the chaos test suite pins over many seeds per invariant.
//! * [`wire`] (`v6wire`) — the service front door: a versioned,
//!   checksummed binary wire protocol over in-repo byte transports,
//!   with admission control (per-client token buckets, global
//!   load-shedding, behavioral classification of abusive clients) and
//!   a fuzz/golden-pinned codec.
//! * [`cluster`] (`v6cluster`) — multi-node cluster simulation: a
//!   consistent-hash ring (virtual nodes, replication factor R) over
//!   the /48 space, leader→follower epoch replication streaming the
//!   `v6store` delta log over the `v6wire` transport, hedged reads
//!   with degraded labeling, and node-granularity chaos (kill/restart,
//!   loss, partitions) with a byte-identical convergence invariant.
//! * [`stream`] (`v6stream`) — incremental O(Δ) analytics over the
//!   epoch stream: per-epoch operators (density, entropy profiles,
//!   EUI-64 device tracking, rotation estimation) folding `v6store`
//!   delta records with a pinned streaming ≡ batch equivalence
//!   invariant, replay-gap/duplicate detection, and explicit
//!   snapshot resync — replacing whole-corpus batch re-analysis.
//! * [`obs`] (`v6obs`) — the observability layer: a metrics registry
//!   (counters, gauges, latency histograms, deterministic exposition)
//!   and hierarchical span tracing (`V6_TRACE` knob); data-derived
//!   counters are thread-count invariant like every other artifact.
//!
//! Quick start:
//!
//! ```no_run
//! use ipv6_hitlists::hitlist::{Experiment, ExperimentConfig};
//!
//! let experiment = Experiment::run(ExperimentConfig::tiny(42));
//! println!("collected {} unique IPv6 addresses", experiment.ntp.len());
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use v6addr as addr;
pub use v6chaos as chaos;
pub use v6cluster as cluster;
pub use v6geo as geo;
pub use v6hitlist as hitlist;
pub use v6netsim as netsim;
pub use v6ntp as ntp;
pub use v6obs as obs;
pub use v6par as par;
pub use v6scan as scan;
pub use v6serve as serve;
pub use v6store as store;
pub use v6stream as stream;
pub use v6wire as wire;
