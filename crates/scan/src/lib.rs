//! # v6scan — active IPv6 measurement tooling
//!
//! The active-measurement half of the *IPv6 Hitlists at Scale* (SIGCOMM
//! 2023) reproduction: the tools the paper's comparison datasets were
//! built with, re-implemented against the synthetic Internet.
//!
//! * [`icmp`] — ICMPv6 codec (echo, time exceeded, unreachable) with real
//!   pseudo-header checksums.
//! * [`prober`] — the probing abstraction ([`Prober`]) and the
//!   world-backed implementation.
//! * [`zmap6`] — ZMap6-style stateless scanning: keyed permutation order,
//!   MAC-in-ident/seq stateless validation, rate pacing.
//! * [`yarrp`] — Yarrp-style randomized traceroute with state carried in
//!   the probe payload and path reconstruction.
//! * [`alias`] — aliased-prefix detection and alias-list filtering.
//! * [`target_gen`] — low-IID targets, CAIDA routed-/48 target expansion,
//!   and a pattern-mining TGA.
//! * [`campaign`] — the two end-to-end baselines: the weekly IPv6-Hitlist
//!   campaign and the CAIDA routed-/48 campaign.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod campaign;
pub mod icmp;
pub mod prober;
pub mod range_tga;
pub mod target_gen;
pub mod yarrp;
pub mod zmap6;

pub use alias::{AliasDetector, AliasList};
pub use campaign::{
    run_caida_campaign, run_hitlist_campaign, CaidaCampaignConfig, CampaignResult, Discovery,
    HitlistCampaignConfig,
};
pub use icmp::{IcmpError, Icmpv6Message};
pub use prober::{FnProber, Prober, WorldProber};
pub use range_tga::RangeTga;
pub use target_gen::{caida_routed48_targets, low_iid_targets, PatternTga};
pub use yarrp::{trace, HopRecord, YarrpConfig, YarrpResult};
pub use zmap6::{scan, Responsive, ScanResult, ScanStats, Zmap6Config};
