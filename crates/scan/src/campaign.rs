//! End-to-end active measurement campaigns: the paper's two baselines.
//!
//! * [`run_hitlist_campaign`] emulates the **TUM IPv6 Hitlist** (§3):
//!   weekly cycles that seed from public server addresses, expand with a
//!   TGA and low-IID probing, traceroute into routed space (discovering
//!   routers and CPE), detect aliased prefixes, filter, and publish the
//!   responsive set.
//! * [`run_caida_campaign`] emulates the **CAIDA routed /48** dataset
//!   (§3): one Yarrp pass over the `::1` of every (sampled) routed /48.
//!
//! Both run against the same synthetic world the passive NTP collection
//! observes, so Table 1's cross-dataset comparison compares
//! *methodologies*, as the paper does.

use std::collections::BTreeSet;
use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use v6addr::Prefix;
use v6netsim::{ProbeKind, SimDuration, SimTime, World};

use crate::alias::{AliasDetector, AliasList};
use crate::prober::WorldProber;
use crate::target_gen::{caida_routed48_targets, low_iid_targets, PatternTga};
use crate::yarrp::{trace, YarrpConfig};
use crate::zmap6::{scan, Zmap6Config};

/// Cached `scan.*` handles in the global `v6obs` registry.
///
/// All counters are recorded at the orchestration level, from totals the
/// campaign already computed with order-preserving merges — so every one
/// of them is thread-count invariant. The sweep-latency histograms are
/// timing observations and are not.
struct ScanMetrics {
    zmap6_targets: v6obs::Counter,
    zmap6_probes: v6obs::Counter,
    zmap6_responsive: v6obs::Counter,
    yarrp_targets: v6obs::Counter,
    yarrp_probes: v6obs::Counter,
    yarrp_hops: v6obs::Counter,
    yarrp_reached: v6obs::Counter,
    alias_candidates: v6obs::Counter,
    alias_detected: v6obs::Counter,
    campaign_weeks: v6obs::Counter,
    campaign_discoveries: v6obs::Counter,
    campaign_published_new: v6obs::Counter,
    zmap6_sweep_latency: v6obs::Histogram,
    yarrp_sweep_latency: v6obs::Histogram,
    alias_sweep_latency: v6obs::Histogram,
}

fn scan_metrics() -> &'static ScanMetrics {
    static METRICS: std::sync::OnceLock<ScanMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| ScanMetrics {
        zmap6_targets: v6obs::counter("scan.zmap6.targets"),
        zmap6_probes: v6obs::counter("scan.zmap6.probes"),
        zmap6_responsive: v6obs::counter("scan.zmap6.responsive"),
        yarrp_targets: v6obs::counter("scan.yarrp.targets"),
        yarrp_probes: v6obs::counter("scan.yarrp.probes"),
        yarrp_hops: v6obs::counter("scan.yarrp.hops"),
        yarrp_reached: v6obs::counter("scan.yarrp.reached"),
        alias_candidates: v6obs::counter("scan.alias.candidates"),
        alias_detected: v6obs::counter("scan.alias.detected"),
        campaign_weeks: v6obs::counter("scan.campaign.weeks"),
        campaign_discoveries: v6obs::counter("scan.campaign.discoveries"),
        campaign_published_new: v6obs::counter("scan.campaign.published_new"),
        zmap6_sweep_latency: v6obs::histogram("scan.zmap6.sweep_latency"),
        yarrp_sweep_latency: v6obs::histogram("scan.yarrp.sweep_latency"),
        alias_sweep_latency: v6obs::histogram("scan.alias.sweep_latency"),
    })
}

/// One timestamped discovery by an active campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Discovery {
    /// The responsive (or hop) address.
    pub addr: Ipv6Addr,
    /// When it was observed.
    pub t: SimTime,
}

/// Output of an active campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignResult {
    /// All discoveries (may repeat addresses across weeks).
    pub discoveries: Vec<Discovery>,
    /// The alias list the campaign accumulated.
    pub aliased: Vec<Prefix>,
    /// Probes sent in total.
    pub probes_sent: u64,
    /// New unique addresses per weekly cycle (diagnostics).
    pub weekly_new: Vec<u64>,
}

impl CampaignResult {
    /// Distinct discovered addresses.
    pub fn unique_addresses(&self) -> Vec<Ipv6Addr> {
        let mut v: Vec<u128> = self
            .discoveries
            .iter()
            .map(|d| u128::from(d.addr))
            .collect();
        v.sort_unstable();
        v.dedup();
        v.into_iter().map(Ipv6Addr::from).collect()
    }
}

/// Hitlist campaign configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HitlistCampaignConfig {
    /// Number of weekly cycles (the paper compares Feb–Aug ≈ 28 weeks).
    pub weeks: u32,
    /// Low-IID probes per routed /32 per week (spread over its /48s).
    pub low_iid_per_as: u64,
    /// TGA candidate budget per week.
    pub tga_budget: usize,
    /// Yarrp targets per week (traceroutes into routed space).
    pub yarrp_targets: usize,
    /// Campaign-wide scan key.
    pub seed: u64,
}

impl Default for HitlistCampaignConfig {
    fn default() -> Self {
        HitlistCampaignConfig {
            weeks: 8,
            low_iid_per_as: 64,
            tga_budget: 4_096,
            yarrp_targets: 2_048,
            seed: 0x41c7_13e1,
        }
    }
}

/// Runs the IPv6-Hitlist-style campaign from vantage point `vp_id`, with
/// the per-/48 probing, traceroutes and alias sweeps sharded across
/// `threads` workers.
///
/// Weeks stay sequential (each week's targets depend on the previous
/// week's discoveries), but everything inside a week that is
/// embarrassingly parallel — low-IID target generation per routed
/// prefix, the ZMap6 passes, the Yarrp pass, and alias detection — runs
/// sharded with order-preserving merges. Output is bit-identical to the
/// sequential campaign at any thread count.
pub fn run_hitlist_campaign(
    world: &World,
    vp_id: u16,
    cfg: &HitlistCampaignConfig,
    threads: usize,
) -> CampaignResult {
    let prober = WorldProber::new(world, vp_id);
    let mut result = CampaignResult::default();
    let mut known: BTreeSet<u128> = BTreeSet::new();
    let mut alias_list = AliasList::new();
    let detector = AliasDetector::default();
    let routed = world.routed_prefixes();

    // Seeds: addresses public in DNS/CT — the Hitlist's bootstrap corpus.
    let seeds: Vec<Ipv6Addr> = world.public_servers();
    let metrics = scan_metrics();

    for week in 0..cfg.weeks {
        let _week_span = v6obs::span("campaign.week");
        metrics.campaign_weeks.inc();
        let t0 = SimTime::START + SimDuration(SimDuration::WEEK.as_secs() * week as u64);
        let mut targets: Vec<Ipv6Addr> = Vec::new();
        targets.extend(&seeds);
        // Re-probe everything previously responsive (weekly refresh).
        targets.extend(known.iter().map(|&b| Ipv6Addr::from(b)));
        // Low-IID probing across routed space: spread this week's budget
        // over each AS's /48s, hash-scattering the probed window so both
        // infrastructure and customer halves get coverage over time.
        // Each routed prefix's window is independent, so the per-/48
        // expansion fans out across workers; concatenating per-prefix
        // target lists in prefix order reproduces the sequential order.
        // Cost hint: `low_iid_per_as` hashed /48 picks plus two target
        // expansions each, ~300 ns per pick.
        let prefix_cost =
            v6par::Cost::per_item_ns(cfg.low_iid_per_as.max(1) * 300).labeled("scan.lowiid");
        let per_prefix = v6par::par_map_cost(threads, &routed, prefix_cost, |_, (p, _)| {
            let n48 = p.subprefix_count(48).min(1 << 16);
            let mut out = Vec::with_capacity(cfg.low_iid_per_as as usize * 2);
            for k in 0..cfg.low_iid_per_as {
                let idx = v6netsim::rng::hash64(
                    cfg.seed ^ (week as u64) << 32,
                    &(p.bits() as u64 ^ k).to_be_bytes(),
                ) % n48;
                let p48 = p.subprefix(48, idx);
                out.extend(low_iid_targets(&p48, 2));
            }
            out
        });
        for mut chunk in per_prefix {
            targets.append(&mut chunk);
        }
        // TGA expansion trained on everything known so far.
        let mut tga = PatternTga::new();
        tga.observe_all(known.iter().map(|&b| Ipv6Addr::from(b)));
        tga.observe_all(seeds.iter().copied());
        targets.extend(tga.generate(cfg.tga_budget));

        // Drop targets inside known aliased prefixes (best practice §4.2).
        targets.retain(|a| !alias_list.contains(*a));
        targets.sort_unstable_by_key(|a| u128::from(*a));
        targets.dedup();

        // ZMap6 passes — one per protocol the Hitlist scans (§3). The
        // union of responsive targets feeds publication; ICMP-quiet web
        // servers only ever appear via the TCP passes.
        let mut responsive: Vec<crate::zmap6::Responsive> = Vec::new();
        for (i, probe) in [
            ProbeKind::IcmpEcho,
            ProbeKind::TcpSyn(80),
            ProbeKind::TcpSyn(443),
            ProbeKind::UdpDatagram(53),
        ]
        .into_iter()
        .enumerate()
        {
            let zcfg = Zmap6Config {
                seed: cfg.seed ^ ((week as u64) << 8) ^ i as u64,
                rate_pps: 100_000,
                start: t0 + SimDuration::hours(i as u64),
                probe,
            };
            let zr = metrics
                .zmap6_sweep_latency
                .time(|| scan(&prober, &targets, &zcfg, threads));
            metrics.zmap6_targets.add(targets.len() as u64);
            metrics.zmap6_probes.add(zr.stats.sent);
            metrics.zmap6_responsive.add(zr.responsive.len() as u64);
            result.probes_sent += zr.stats.sent;
            responsive.extend(zr.responsive);
        }
        responsive.sort_by_key(|r| (u128::from(r.target), r.t));
        responsive.dedup_by_key(|r| u128::from(r.target));
        let zr = crate::zmap6::ScanResult {
            responsive,
            stats: Default::default(),
        };

        // Yarrp pass: trace toward a hash-sample of this week's probe
        // targets. Every trace crosses transit (router discovery); traces
        // entering active customer delegations reveal the CPE periphery
        // no echo scan would find.
        let yarrp_targets: Vec<Ipv6Addr> = if targets.len() <= cfg.yarrp_targets {
            targets.clone()
        } else {
            let step = targets.len() / cfg.yarrp_targets;
            targets.iter().step_by(step.max(1)).copied().collect()
        };
        let ycfg = YarrpConfig {
            seed: cfg.seed ^ 0x7000 ^ week as u64,
            start: t0 + SimDuration::hours(12),
            ..Default::default()
        };
        let yr = metrics
            .yarrp_sweep_latency
            .time(|| trace(&prober, &yarrp_targets, &ycfg, threads));
        metrics.yarrp_targets.add(yarrp_targets.len() as u64);
        metrics.yarrp_probes.add(yr.sent);
        metrics.yarrp_hops.add(yr.hops.len() as u64);
        metrics.yarrp_reached.add(yr.reached.len() as u64);
        result.probes_sent += yr.sent;

        // Alias detection on /48s with implausibly broad responsiveness.
        let mut hot48: BTreeSet<u128> = BTreeSet::new();
        for r in &zr.responsive {
            hot48.insert(Prefix::of(r.target, 48).bits());
        }
        let candidates: Vec<Prefix> = hot48
            .iter()
            .map(|&b| Prefix::from_bits(b, 48))
            .filter(|p| !alias_list.covers_prefix(p))
            .collect();
        let detected = metrics
            .alias_sweep_latency
            .time(|| detector.sweep(&prober, &candidates, t0 + SimDuration::DAY, threads));
        metrics.alias_candidates.add(candidates.len() as u64);
        metrics.alias_detected.add(detected.len() as u64);
        // Generalize upward (the Hitlist publishes the broadest fully
        // aliased prefix): keep halving the prefix length while the
        // parent still detects as aliased. Each detected prefix broadens
        // independently; inserting in sweep order keeps the alias list
        // identical to the sequential pass.
        // Cost hint: up to four parent-detection attempts per prefix,
        // each a 16-probe sweep.
        let broaden_cost = v6par::Cost::per_item_ns(64_000).labeled("scan.broaden");
        let broadened = v6par::par_map_cost(threads, &detected, broaden_cost, |_, &p| {
            let mut broadest = p;
            for len in [44u8, 40, 36, 33] {
                if len >= broadest.len() {
                    continue;
                }
                let parent = broadest.truncate(len);
                if detector.detect(&prober, &parent, t0 + SimDuration::DAY) {
                    broadest = parent;
                } else {
                    break;
                }
            }
            broadest
        });
        for p in broadened {
            alias_list.insert(p);
        }

        // Publish this week's responsive set, alias-filtered.
        let mut new_this_week = 0u64;
        let mut publish = |addr: Ipv6Addr, t: SimTime| {
            if alias_list.contains(addr) {
                return;
            }
            if known.insert(u128::from(addr)) {
                new_this_week += 1;
            }
            result.discoveries.push(Discovery { addr, t });
        };
        for r in &zr.responsive {
            publish(r.target, r.t);
        }
        for h in &yr.hops {
            publish(h.hop, t0 + SimDuration::hours(12));
        }
        for &(a, _, t) in &yr.reached {
            publish(a, t);
        }
        metrics.campaign_published_new.add(new_this_week);
        result.weekly_new.push(new_this_week);
    }
    metrics
        .campaign_discoveries
        .add(result.discoveries.len() as u64);
    result.aliased = alias_list.prefixes();
    result
}

/// CAIDA campaign configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaidaCampaignConfig {
    /// Probe every `stride`-th /48 (1 = full methodology).
    pub stride: u64,
    /// Scan key.
    pub seed: u64,
    /// Campaign start.
    pub start: SimTime,
    /// Campaign length (the real one ran ~9 weeks, Feb–Apr 2022).
    pub duration: SimDuration,
}

impl Default for CaidaCampaignConfig {
    fn default() -> Self {
        CaidaCampaignConfig {
            stride: 64,
            seed: 0xca1d_a048,
            start: SimTime::START + SimDuration::days(9), // Feb 3 in paper time
            duration: SimDuration::days(62),
        }
    }
}

/// Runs the CAIDA routed-/48 Yarrp campaign from vantage point `vp_id`,
/// with the per-/48 traceroutes sharded across `threads` workers.
/// Bit-identical at any thread count.
pub fn run_caida_campaign(
    world: &World,
    vp_id: u16,
    cfg: &CaidaCampaignConfig,
    threads: usize,
) -> CampaignResult {
    let prober = WorldProber::new(world, vp_id);
    let routed = world.routed_prefixes();
    let targets = caida_routed48_targets(&routed, cfg.stride);
    // Pace the whole campaign across its duration.
    let probes = targets.len() as u64 * 12;
    let rate = (probes / cfg.duration.as_secs().max(1)).max(1);
    let ycfg = YarrpConfig {
        seed: cfg.seed,
        ttl_min: 1,
        ttl_max: 12,
        rate_pps: rate,
        start: cfg.start,
    };
    let metrics = scan_metrics();
    let yr = metrics
        .yarrp_sweep_latency
        .time(|| trace(&prober, &targets, &ycfg, threads));
    metrics.yarrp_targets.add(targets.len() as u64);
    metrics.yarrp_probes.add(yr.sent);
    metrics.yarrp_hops.add(yr.hops.len() as u64);
    metrics.yarrp_reached.add(yr.reached.len() as u64);
    let mut result = CampaignResult {
        probes_sent: yr.sent,
        ..Default::default()
    };
    for h in &yr.hops {
        result.discoveries.push(Discovery {
            addr: h.hop,
            t: cfg.start,
        });
    }
    for &(a, _, t) in &yr.reached {
        result.discoveries.push(Discovery { addr: a, t });
    }
    metrics
        .campaign_discoveries
        .add(result.discoveries.len() as u64);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6netsim::{AsKind, WorldConfig};

    fn world() -> World {
        World::build(WorldConfig::tiny(), 66)
    }

    #[test]
    fn hitlist_campaign_finds_servers_and_infrastructure() {
        let w = world();
        let cfg = HitlistCampaignConfig {
            weeks: 2,
            ..Default::default()
        };
        let r = run_hitlist_campaign(&w, 0, &cfg, v6par::threads());
        let unique = r.unique_addresses();
        assert!(!unique.is_empty());
        // Must rediscover a good share of the public servers.
        let servers = w.public_servers();
        let found = servers.iter().filter(|s| unique.contains(s)).count();
        assert!(
            found as f64 / servers.len() as f64 > 0.7,
            "{found}/{} public servers found",
            servers.len()
        );
        // Must include transit-router hops (traceroute fodder).
        let transit = unique
            .iter()
            .filter(|a| {
                w.as_index_of(**a)
                    .map(|i| w.ases[i as usize].info.kind == AsKind::Transit)
                    .unwrap_or(false)
            })
            .count();
        assert!(transit > 0, "no transit routers discovered");
    }

    #[test]
    fn hitlist_detects_hosting_aliases() {
        let w = world();
        let cfg = HitlistCampaignConfig {
            weeks: 1,
            ..Default::default()
        };
        let r = run_hitlist_campaign(&w, 0, &cfg, v6par::threads());
        // The TGA/low-iid probing hits hosting alias space eventually; at
        // minimum the alias list must not contain clean eyeball /48s.
        for p in &r.aliased {
            let ai = w.as_index_of(p.network()).unwrap() as usize;
            let asr = &w.ases[ai];
            let ok = asr.info.clients_aliased()
                || asr
                    .alias_48s
                    .iter()
                    .any(|a| a.contains_prefix(p) || p.contains_prefix(a));
            assert!(ok, "false alias {p} in {}", asr.info.name);
        }
    }

    #[test]
    fn hitlist_discoveries_are_alias_filtered() {
        let w = world();
        let r = run_hitlist_campaign(
            &w,
            0,
            &HitlistCampaignConfig {
                weeks: 2,
                ..Default::default()
            },
            v6par::threads(),
        );
        let list = AliasList::from_prefixes(r.aliased.iter().copied());
        for d in &r.discoveries {
            assert!(
                !list.contains(d.addr) || !list.covers_prefix(&Prefix::of(d.addr, 48)),
                "published aliased address {}",
                d.addr
            );
        }
    }

    #[test]
    fn caida_campaign_discovers_about_one_addr_per_48() {
        let w = world();
        let cfg = CaidaCampaignConfig {
            stride: 1024,
            ..Default::default()
        };
        let r = run_caida_campaign(&w, 0, &cfg, v6par::threads());
        let unique = r.unique_addresses();
        assert!(!unique.is_empty());
        // The signature of the CAIDA dataset (Table 1): average addresses
        // per /48 ≈ 1.
        let set = v6addr::AddrSet::from_addrs(unique.iter().copied());
        let density = set.density(48);
        assert!(
            density < 3.0,
            "CAIDA-style discovery should be sparse, got {density:.1} per /48"
        );
        // And dominated by low-entropy infrastructure addresses.
        // Dominated by low-entropy infrastructure addresses (a small CPE
        // share sneaks in via periphery hops, as in reality).
        let low = unique
            .iter()
            .filter(|a| v6addr::iid_entropy(v6addr::iid(**a)) < 0.25)
            .count();
        assert!(
            low as f64 / unique.len() as f64 > 0.7,
            "{low}/{} low-entropy",
            unique.len()
        );
    }

    #[test]
    fn multi_protocol_finds_icmp_quiet_servers() {
        use crate::prober::{Prober, WorldProber};
        use v6netsim::{DeviceKind, ServerRole, SimTime};
        let w = world();
        let prober = WorldProber::new(&w, 0);
        let t = SimTime(0);
        // Ground truth: pick ICMP-quiet web servers.
        let quiet: Vec<std::net::Ipv6Addr> = w
            .devices
            .iter()
            .filter(|d| d.kind == DeviceKind::Server)
            .filter(|d| ServerRole::of_seed(d.seed) == ServerRole::QuietWeb)
            .filter_map(|d| d.fixed_addr)
            .collect();
        assert!(!quiet.is_empty(), "no quiet web servers in tiny world");
        let mut ping_hits = 0;
        let mut tcp_hits = 0;
        for &a in &quiet {
            if prober.probe_kind(a, ProbeKind::IcmpEcho, t).is_echo() {
                ping_hits += 1;
            }
            if prober.probe_kind(a, ProbeKind::TcpSyn(443), t).is_echo() {
                tcp_hits += 1;
            }
        }
        assert_eq!(ping_hits, 0, "quiet servers answered ping");
        assert!(
            tcp_hits as f64 / quiet.len() as f64 > 0.7,
            "{tcp_hits}/{} answered TCP 443",
            quiet.len()
        );
        // And the full campaign (which scans TCP) publishes some of them.
        let r = run_hitlist_campaign(
            &w,
            0,
            &HitlistCampaignConfig {
                weeks: 1,
                ..Default::default()
            },
            v6par::threads(),
        );
        let unique = r.unique_addresses();
        let found = quiet.iter().filter(|a| unique.contains(a)).count();
        assert!(found > 0, "campaign never found an ICMP-quiet server");
    }

    #[test]
    fn caida_sees_more_ases_than_it_probes_responsively() {
        let w = world();
        let r = run_caida_campaign(
            &w,
            0,
            &CaidaCampaignConfig {
                stride: 2048,
                ..Default::default()
            },
            v6par::threads(),
        );
        // Hop discovery pulls in transit ASes: the distinct-AS count of
        // discoveries must exceed the hosting-AS count of the vantage.
        let ases: BTreeSet<u16> = r
            .unique_addresses()
            .iter()
            .filter_map(|a| w.as_index_of(*a))
            .collect();
        let transit: usize = ases
            .iter()
            .filter(|&&i| w.ases[i as usize].info.kind == AsKind::Transit)
            .count();
        assert!(transit >= 5, "only {transit} transit ASes seen");
    }
}
