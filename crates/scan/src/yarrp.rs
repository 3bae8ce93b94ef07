//! A Yarrp-style stateless randomized traceroute engine.
//!
//! Yarrp's insight (Beverly, IMC'16) is to decouple the (target, TTL)
//! pairs and probe them in a random permuted order, reconstructing paths
//! afterwards — so no router sees a TTL-ladder burst, and the prober
//! holds no per-trace state. State rides inside the probe packet: the
//! invoking packet quoted by ICMPv6 Time Exceeded replies carries the
//! original target and TTL, which we encode in the echo payload.

use std::collections::BTreeMap;
use std::net::Ipv6Addr;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use v6netsim::rng::hash64;
use v6netsim::{IndexPermutation, ProbeOutcome, SimDuration, SimTime};

use crate::icmp::Icmpv6Message;
use crate::prober::Prober;

/// Traceroute configuration.
#[derive(Debug, Clone)]
pub struct YarrpConfig {
    /// Permutation / payload-MAC key.
    pub seed: u64,
    /// Lowest TTL probed.
    pub ttl_min: u8,
    /// Highest TTL probed (inclusive).
    pub ttl_max: u8,
    /// Probes per second.
    pub rate_pps: u64,
    /// Scan start time.
    pub start: SimTime,
}

impl Default for YarrpConfig {
    fn default() -> Self {
        YarrpConfig {
            seed: 0x79a1_9000,
            ttl_min: 1,
            ttl_max: 12,
            rate_pps: 10_000,
            start: SimTime::START,
        }
    }
}

/// One recovered hop observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// The traced target.
    pub target: Ipv6Addr,
    /// The TTL the probe carried.
    pub ttl: u8,
    /// The router that answered Time Exceeded.
    pub hop: Ipv6Addr,
}

/// Aggregate result of a Yarrp run.
#[derive(Debug, Clone, Default)]
pub struct YarrpResult {
    /// All hop observations (unordered, as Yarrp emits them).
    pub hops: Vec<HopRecord>,
    /// Targets that answered the echo themselves (destination reached),
    /// with the TTL that reached them.
    pub reached: Vec<(Ipv6Addr, u8, SimTime)>,
    /// Probes sent.
    pub sent: u64,
    /// Replies whose quoted invoking packet failed to parse/validate
    /// (cruft a stateless prober must discard).
    pub discarded: u64,
}

impl YarrpResult {
    /// Reconstructs the hop path toward one target, ordered by TTL.
    pub fn path_to(&self, target: Ipv6Addr) -> Vec<(u8, Ipv6Addr)> {
        let mut path: BTreeMap<u8, Ipv6Addr> = BTreeMap::new();
        for h in self.hops.iter().filter(|h| h.target == target) {
            path.insert(h.ttl, h.hop);
        }
        path.into_iter().collect()
    }
}

/// Payload carried in every probe: `magic || ttl || mac(target)`.
fn probe_payload(seed: u64, target: Ipv6Addr, ttl: u8) -> Bytes {
    let mut b = BytesMut::with_capacity(16);
    b.put_u32(0x79a1_7061); // "yarrp" magic
    b.put_u8(ttl);
    b.put_u8(0);
    b.put_u16(0);
    b.put_u64(hash64(seed, &u128::from(target).to_be_bytes()));
    b.freeze()
}

/// Parses the state back out of a quoted invoking packet.
fn parse_payload(seed: u64, target: Ipv6Addr, mut quoted: &[u8]) -> Option<u8> {
    if quoted.len() < 16 {
        return None;
    }
    if quoted.get_u32() != 0x79a1_7061 {
        return None;
    }
    let ttl = quoted.get_u8();
    quoted.advance(3);
    if quoted.get_u64() != hash64(seed, &u128::from(target).to_be_bytes()) {
        return None;
    }
    Some(ttl)
}

/// Runs a randomized traceroute campaign over `targets`, sharded across
/// `threads` workers.
///
/// The permuted `(target, TTL)` probe-index domain is split into
/// contiguous shards and shard results are concatenated in shard order,
/// so hops, reached targets and counters are bit-identical at any
/// thread count.
pub fn trace<P: Prober + Sync>(
    prober: &P,
    targets: &[Ipv6Addr],
    cfg: &YarrpConfig,
    threads: usize,
) -> YarrpResult {
    let domain = trace_domain(targets, cfg);
    // Calibrated per-(target, TTL) probe cost; the adaptive cutoff in
    // v6par keeps small campaigns inline, replacing the old hand-rolled
    // minimum-probe threshold.
    const PROBE_NS: u64 = 800;
    let ranges = v6par::split_ranges(domain as usize, (threads * 4).min(domain as usize));
    let range_cost =
        v6par::Cost::per_item_ns(PROBE_NS * (domain / ranges.len().max(1) as u64).max(1))
            .labeled("scan.yarrp");
    let shards = v6par::par_map_cost(threads, &ranges, range_cost, |_, range| {
        trace_indices(prober, targets, cfg, range.start as u64..range.end as u64)
    });
    let mut result = YarrpResult::default();
    for shard in shards {
        result.hops.extend(shard.hops);
        result.reached.extend(shard.reached);
        result.sent += shard.sent;
        result.discarded += shard.discarded;
    }
    result
}

/// Number of `(target, TTL)` probes the campaign will send.
fn trace_domain(targets: &[Ipv6Addr], cfg: &YarrpConfig) -> u64 {
    if targets.is_empty() || cfg.ttl_max < cfg.ttl_min {
        return 0;
    }
    targets.len() as u64 * (cfg.ttl_max - cfg.ttl_min + 1) as u64
}

/// The sequential kernel: probes the permuted indices in `range`.
fn trace_indices<P: Prober>(
    prober: &P,
    targets: &[Ipv6Addr],
    cfg: &YarrpConfig,
    range: std::ops::Range<u64>,
) -> YarrpResult {
    let mut result = YarrpResult::default();
    if targets.is_empty() || cfg.ttl_max < cfg.ttl_min {
        return result;
    }
    let ttl_span = (cfg.ttl_max - cfg.ttl_min + 1) as u64;
    let domain = targets.len() as u64 * ttl_span;
    let perm = IndexPermutation::new(domain, cfg.seed);
    let src = prober.source();

    for i in range {
        let j = perm.apply(i);
        let target = targets[(j / ttl_span) as usize];
        let ttl = cfg.ttl_min + (j % ttl_span) as u8;
        let t = cfg.start + SimDuration(i / cfg.rate_pps.max(1));
        result.sent += 1;

        match prober.probe(target, ttl, t) {
            ProbeOutcome::TimeExceeded { from, .. } => {
                // Reconstruct the quoted invoking packet the router would
                // send back, then recover (target, ttl) statelessly.
                let invoking = probe_payload(cfg.seed, target, ttl);
                let te = Icmpv6Message::TimeExceeded {
                    invoking: invoking.clone(),
                }
                .encode(from, src);
                match Icmpv6Message::decode(from, src, &te) {
                    Ok(Icmpv6Message::TimeExceeded { invoking }) => {
                        match parse_payload(cfg.seed, target, &invoking) {
                            Some(orig_ttl) => result.hops.push(HopRecord {
                                target,
                                ttl: orig_ttl,
                                hop: from,
                            }),
                            None => result.discarded += 1,
                        }
                    }
                    _ => result.discarded += 1,
                }
            }
            ProbeOutcome::EchoReply { from } if from == target => {
                result.reached.push((target, ttl, t));
            }
            ProbeOutcome::EchoReply { .. } => result.discarded += 1,
            ProbeOutcome::Unreachable { .. } | ProbeOutcome::NoResponse => {}
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prober::{FnProber, WorldProber};
    use v6netsim::{World, WorldConfig};

    #[test]
    fn payload_round_trips() {
        let t: Ipv6Addr = "2a00:1::9".parse().unwrap();
        let p = probe_payload(7, t, 5);
        assert_eq!(parse_payload(7, t, &p), Some(5));
        // Wrong key or wrong target → rejected.
        assert_eq!(parse_payload(8, t, &p), None);
        let other: Ipv6Addr = "2a00:1::a".parse().unwrap();
        assert_eq!(parse_payload(7, other, &p), None);
        assert_eq!(parse_payload(7, t, &p[..8]), None);
    }

    #[test]
    fn reconstructs_paths_from_synthetic_topology() {
        // Hop k replies for TTL k (k in 1..=3); destination at TTL >= 4.
        let hop = |k: u8| -> Ipv6Addr { format!("2a00:aaaa::{k}").parse().unwrap() };
        let p = FnProber::new("2a00:ffff::1".parse().unwrap(), move |dst, ttl, _| {
            if ttl <= 3 {
                ProbeOutcome::TimeExceeded {
                    from: hop(ttl),
                    hop: ttl,
                }
            } else {
                ProbeOutcome::EchoReply { from: dst }
            }
        });
        let targets: Vec<Ipv6Addr> =
            vec!["2a00:1::1".parse().unwrap(), "2a00:2::1".parse().unwrap()];
        let cfg = YarrpConfig {
            ttl_max: 6,
            ..Default::default()
        };
        let r = trace(&p, &targets, &cfg, 1);
        assert_eq!(r.sent, 12);
        assert_eq!(r.discarded, 0);
        for &t in &targets {
            let path = r.path_to(t);
            assert_eq!(path.len(), 3);
            assert_eq!(path[0], (1, hop(1)));
            assert_eq!(path[2], (3, hop(3)));
            // Destination reached at TTLs 4..=6.
            assert_eq!(r.reached.iter().filter(|&&(a, _, _)| a == t).count(), 3);
        }
    }

    #[test]
    fn against_world_discovers_transit_routers() {
        let w = World::build(WorldConfig::tiny(), 44);
        let prober = WorldProber::new(&w, 0);
        let t = SimTime(0);
        // Trace toward ::1 of a handful of customer /48s.
        let targets: Vec<Ipv6Addr> = w
            .ases
            .iter()
            .filter(|a| a.info.kind == v6netsim::AsKind::EyeballIsp)
            .take(5)
            .map(|a| a.customer33().subprefix(48, 0).offset(1))
            .collect();
        let cfg = YarrpConfig {
            start: t,
            ..Default::default()
        };
        let r = trace(&prober, &targets, &cfg, 1);
        assert!(!r.hops.is_empty(), "no hops discovered");
        // Hops must be router interfaces (low-byte IIDs) or CPE WAN addrs.
        let transit_hits = r
            .hops
            .iter()
            .filter(|h| {
                w.as_index_of(h.hop)
                    .map(|i| w.ases[i as usize].info.kind == v6netsim::AsKind::Transit)
                    .unwrap_or(false)
            })
            .count();
        assert!(transit_hits > 0, "no transit routers on any path");
    }

    #[test]
    fn empty_targets_no_probes() {
        let p = FnProber::new("2a00:ffff::1".parse().unwrap(), |_, _, _| {
            ProbeOutcome::NoResponse
        });
        let r = trace(&p, &[], &YarrpConfig::default(), 1);
        assert_eq!(r.sent, 0);
    }
}
