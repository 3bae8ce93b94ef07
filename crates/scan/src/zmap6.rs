//! A ZMap6-style stateless high-speed scanner.
//!
//! Faithful to the original's architecture (§2.2 [19, 70]):
//!
//! * **Keyed permutation iteration** — targets are visited in a
//!   pseudo-random bijective order so probe load never concentrates on
//!   one network.
//! * **Stateless validation** — the scanner keeps no per-probe state;
//!   the echo `ident`/`seq` fields carry a MAC of `(key, dst)`, and a
//!   reply is accepted only if the echoed fields validate. Spoofed or
//!   stale replies fail.
//! * **Rate model** — probes are spread over wall-clock time at a
//!   configured rate, so campaign results see time-varying addresses
//!   exactly as a real multi-hour scan would.

use std::net::Ipv6Addr;

use bytes::Bytes;
use v6netsim::rng::hash64;
use v6netsim::{IndexPermutation, ProbeKind, ProbeOutcome, SimDuration, SimTime};

use crate::icmp::Icmpv6Message;
use crate::prober::Prober;

/// Scanner configuration.
#[derive(Debug, Clone)]
pub struct Zmap6Config {
    /// Validation / permutation key.
    pub seed: u64,
    /// Probes per second the scan is paced at.
    pub rate_pps: u64,
    /// When the scan starts.
    pub start: SimTime,
    /// What to send (ICMPv6 echo, TCP SYN, UDP) — §3: the Hitlist scans
    /// several protocols, not just ping.
    pub probe: ProbeKind,
}

impl Default for Zmap6Config {
    fn default() -> Self {
        Zmap6Config {
            seed: 0x5ca4_0001,
            rate_pps: 10_000,
            start: SimTime::START,
            probe: ProbeKind::IcmpEcho,
        }
    }
}

/// Scan statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Probes sent.
    pub sent: u64,
    /// Echo replies received.
    pub replies: u64,
    /// Replies that passed stateless validation.
    pub validated: u64,
    /// Replies that failed validation (would be spoofed/stale traffic).
    pub failed_validation: u64,
    /// Unreachable/TTL-exceeded and other non-echo responses.
    pub other_responses: u64,
}

/// One responsive target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Responsive {
    /// The probed address.
    pub target: Ipv6Addr,
    /// When the probe that elicited the reply was sent.
    pub t: SimTime,
}

/// Result of a scan.
#[derive(Debug, Clone, Default)]
pub struct ScanResult {
    /// Responsive targets, in probe order.
    pub responsive: Vec<Responsive>,
    /// Statistics.
    pub stats: ScanStats,
}

/// The validation MAC embedded in echo `ident`/`seq` (32 bits total).
fn validation(seed: u64, dst: Ipv6Addr) -> (u16, u16) {
    let h = hash64(seed, &u128::from(dst).to_be_bytes());
    ((h >> 16) as u16, h as u16)
}

/// Scans `targets` in keyed pseudo-random order, sharded across
/// `threads` workers.
///
/// Every probe is a real encoded ICMPv6 echo request; every reply is
/// re-encoded, decoded, checksum-verified and validation-checked — the
/// full stateless receive path. The probe-order index range is split
/// into contiguous shards, each shard runs that path sequentially, and
/// shard results are concatenated in shard order — so the responsive
/// list, probe times and statistics are bit-identical at any thread
/// count.
pub fn scan<P: Prober + Sync>(
    prober: &P,
    targets: &[Ipv6Addr],
    cfg: &Zmap6Config,
    threads: usize,
) -> ScanResult {
    // Calibrated probe cost (encode + permute + validate + decode); the
    // adaptive cutoff in v6par keeps small sweeps inline, replacing the
    // old hand-rolled minimum-target threshold.
    const PROBE_NS: u64 = 1_500;
    let ranges = v6par::split_ranges(targets.len(), (threads * 4).min(targets.len()));
    let range_cost =
        v6par::Cost::per_item_ns(PROBE_NS * (targets.len() / ranges.len().max(1)).max(1) as u64)
            .labeled("scan.zmap6");
    let shards = v6par::par_map_cost(threads, &ranges, range_cost, |_, range| {
        scan_indices(prober, targets, cfg, range.start as u64..range.end as u64)
    });
    let mut result = ScanResult::default();
    for shard in shards {
        result.responsive.extend(shard.responsive);
        result.stats.sent += shard.stats.sent;
        result.stats.replies += shard.stats.replies;
        result.stats.validated += shard.stats.validated;
        result.stats.failed_validation += shard.stats.failed_validation;
        result.stats.other_responses += shard.stats.other_responses;
    }
    result
}

/// The sequential kernel: probes the permuted indices in `range`.
fn scan_indices<P: Prober>(
    prober: &P,
    targets: &[Ipv6Addr],
    cfg: &Zmap6Config,
    range: std::ops::Range<u64>,
) -> ScanResult {
    let mut result = ScanResult::default();
    if targets.is_empty() {
        return result;
    }
    let perm = IndexPermutation::new(targets.len() as u64, cfg.seed);
    let src = prober.source();
    let payload = Bytes::from_static(b"zmap6-repro");
    for i in range {
        let dst = targets[perm.apply(i) as usize];
        let t = cfg.start + SimDuration(i / cfg.rate_pps.max(1));
        let (ident, seq) = validation(cfg.seed, dst);
        let request = Icmpv6Message::EchoRequest {
            ident,
            seq,
            payload: payload.clone(),
        };
        let _wire = request.encode(src, dst);
        result.stats.sent += 1;

        match prober.probe_kind(dst, cfg.probe, t) {
            ProbeOutcome::EchoReply { from } => {
                result.stats.replies += 1;
                // The remote stack echoes ident/seq/payload; rebuild the
                // on-wire reply and run the real receive path.
                let reply = Icmpv6Message::EchoReply {
                    ident,
                    seq,
                    payload: payload.clone(),
                }
                .encode(from, src);
                match Icmpv6Message::decode(from, src, &reply) {
                    Ok(Icmpv6Message::EchoReply {
                        ident: ri, seq: rs, ..
                    }) => {
                        let (wi, ws) = validation(cfg.seed, from);
                        if (ri, rs) == (wi, ws) {
                            result.stats.validated += 1;
                            result.responsive.push(Responsive { target: from, t });
                        } else {
                            result.stats.failed_validation += 1;
                        }
                    }
                    _ => result.stats.failed_validation += 1,
                }
            }
            ProbeOutcome::NoResponse => {}
            _ => result.stats.other_responses += 1,
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prober::FnProber;
    use std::collections::HashSet;
    use v6netsim::{World, WorldConfig};

    fn addrs(n: u64) -> Vec<Ipv6Addr> {
        (0..n)
            .map(|i| v6addr::from_u128((0x2a00u128 << 112) | i as u128))
            .collect()
    }

    #[test]
    fn scans_all_targets_once() {
        let probed = std::sync::Mutex::new(Vec::new());
        let p = FnProber::new("2a00:ffff::1".parse().unwrap(), |dst, _, _| {
            probed.lock().unwrap().push(dst);
            ProbeOutcome::NoResponse
        });
        let targets = addrs(257);
        let r = scan(&p, &targets, &Zmap6Config::default(), 1);
        assert_eq!(r.stats.sent, 257);
        let got: HashSet<_> = probed.lock().unwrap().iter().copied().collect();
        assert_eq!(got.len(), 257);
        // Permuted order ≠ input order.
        assert_ne!(*probed.lock().unwrap(), targets);
    }

    #[test]
    fn responsive_targets_validated() {
        let p = FnProber::new("2a00:ffff::1".parse().unwrap(), |dst, _, _| {
            if u128::from(dst) % 3 == 0 {
                ProbeOutcome::EchoReply { from: dst }
            } else {
                ProbeOutcome::NoResponse
            }
        });
        let targets = addrs(300);
        let r = scan(&p, &targets, &Zmap6Config::default(), 1);
        assert_eq!(r.stats.replies, 100);
        assert_eq!(r.stats.validated, 100);
        assert_eq!(r.stats.failed_validation, 0);
        assert_eq!(r.responsive.len(), 100);
        for resp in &r.responsive {
            assert_eq!(u128::from(resp.target) % 3, 0);
        }
    }

    #[test]
    fn replies_from_other_addresses_fail_validation() {
        // A middlebox replying from a *different* address than probed:
        // validation keys on the replying address and must reject it.
        let decoy: Ipv6Addr = "2a00:dddd::1".parse().unwrap();
        let p = FnProber::new("2a00:ffff::1".parse().unwrap(), move |_dst, _, _| {
            ProbeOutcome::EchoReply { from: decoy }
        });
        let targets = addrs(50);
        let r = scan(&p, &targets, &Zmap6Config::default(), 1);
        // decoy itself is in nobody's target list here, so every reply
        // fails the (key, from)-MAC except when from == dst (never here).
        assert_eq!(r.stats.failed_validation, 50);
        assert_eq!(r.stats.validated, 0);
    }

    #[test]
    fn rate_paces_probe_times() {
        let times = std::sync::Mutex::new(Vec::new());
        let p = FnProber::new("2a00:ffff::1".parse().unwrap(), |_, _, t| {
            times.lock().unwrap().push(t);
            ProbeOutcome::NoResponse
        });
        let cfg = Zmap6Config {
            rate_pps: 10,
            start: SimTime(100),
            ..Default::default()
        };
        scan(&p, &addrs(25), &cfg, 1);
        let times = times.lock().unwrap();
        assert_eq!(times.iter().filter(|t| t.as_secs() == 100).count(), 10);
        assert!(times.iter().all(|t| (100..103).contains(&t.as_secs())));
    }

    #[test]
    fn against_world_finds_infrastructure() {
        let w = World::build(WorldConfig::tiny(), 33);
        let prober = crate::prober::WorldProber::new(&w, 0);
        // Target the core routers of the first 10 ASes plus junk.
        let mut targets: Vec<Ipv6Addr> = w.ases[..10]
            .iter()
            .map(|a| a.router48().offset(1))
            .collect();
        targets.push("2a00:5:8000:9999::42".parse().unwrap()); // vacant
        let r = scan(&prober, &targets, &Zmap6Config::default(), 1);
        assert!(r.stats.validated >= 8, "{:?}", r.stats);
        assert!(r.responsive.len() >= 8);
    }

    #[test]
    fn empty_targets() {
        let p = FnProber::new("2a00:ffff::1".parse().unwrap(), |_, _, _| {
            ProbeOutcome::NoResponse
        });
        let r = scan(&p, &[], &Zmap6Config::default(), 1);
        assert_eq!(r.stats, ScanStats::default());
    }
}
