//! Address computation and the probe surface.
//!
//! This file answers the two questions every measurement in the paper
//! reduces to:
//!
//! 1. **Forward**: what address does device *d* present at time *t*?
//!    (drives the passive NTP corpus)
//! 2. **Inverse**: who — if anyone — holds address *a* at time *t*, and
//!    does it answer an ICMPv6 probe with a given TTL?
//!    (drives ZMap6/Yarrp campaigns, backscanning, alias detection)
//!
//! Both are computed from the world seed with no packet history, using the
//! keyed slot permutations and the deterministic IID generator. Neither
//! allocates: labels are hashed from the stack ([`hash_label`]), the
//! transit ASes are listed once when the world is built, and a probe's
//! path is a fixed-capacity [`Hops`] walked at most once per probe.

use std::net::Ipv6Addr;
use std::ops::Deref;

use v6addr::{Iid, Prefix};

use crate::addressing::generate_iid;
use crate::asn::AliasFront;
use crate::device::{DeviceId, DeviceKind};
use crate::rng::{hash64, hash_label};
use crate::time::SimTime;
use crate::world::{on_wifi, Region, World};

/// Where a device is attached for one NTP contact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttachKind {
    /// On its home network (or it *is* home equipment).
    HomeWifi,
    /// On its cellular plan.
    Cellular,
    /// Fixed infrastructure (server/router).
    Fixed,
}

/// Who holds an address (the inverse mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Inside a fully aliased prefix: a middlebox answers for everything.
    Alias,
    /// A core router interface.
    Router(DeviceId),
    /// A hosting server.
    Server(DeviceId),
    /// A CPE router's WAN address.
    CpeWan {
        /// The CPE device.
        device: DeviceId,
        /// Its network.
        network: u32,
    },
    /// A LAN device inside a home network.
    HomeDevice {
        /// The device.
        device: DeviceId,
        /// Its network.
        network: u32,
    },
    /// A handset on its cellular /64.
    MobileDevice(DeviceId),
    /// Routed space, but nobody holds this address right now.
    Vacant,
    /// Not in any routed prefix.
    Unrouted,
}

/// The probe types active campaigns send (§3: the IPv6 Hitlist scans
/// ICMPv6, HTTP/HTTPS and DNS/SNMP/QUIC ports, not just ping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeKind {
    /// ICMPv6 echo request.
    IcmpEcho,
    /// TCP SYN to a port (responsive = SYN-ACK).
    TcpSyn(u16),
    /// UDP datagram to a port (responsive = application reply).
    UdpDatagram(u16),
}

/// What services a server-class device exposes (derived from its seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerRole {
    /// Web server: TCP 80/443; usually answers ping too.
    Web,
    /// Web server behind an ICMP-dropping firewall: TCP only — invisible
    /// to ping-only scans, found by multi-protocol campaigns.
    QuietWeb,
    /// DNS server: UDP/TCP 53, ping.
    Dns,
    /// Anything else: ping only.
    Plain,
}

impl ServerRole {
    /// Derives the role from a device seed (stable per device).
    pub fn of_seed(seed: u64) -> ServerRole {
        match seed % 10 {
            0..=4 => ServerRole::Web,
            5 => ServerRole::QuietWeb,
            6 | 7 => ServerRole::Dns,
            _ => ServerRole::Plain,
        }
    }

    /// Probability of answering a given probe kind.
    pub fn answer_prob(self, kind: ProbeKind) -> f64 {
        match (self, kind) {
            (ServerRole::QuietWeb, ProbeKind::IcmpEcho) => 0.0,
            (_, ProbeKind::IcmpEcho) => 0.96,
            (ServerRole::Web | ServerRole::QuietWeb, ProbeKind::TcpSyn(80 | 443)) => 0.92,
            (ServerRole::Dns, ProbeKind::UdpDatagram(53)) => 0.92,
            (ServerRole::Dns, ProbeKind::TcpSyn(53)) => 0.85,
            _ => 0.0,
        }
    }
}

/// Result of one ICMPv6 probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Destination (or alias middlebox) answered the echo request.
    EchoReply {
        /// Responding address.
        from: Ipv6Addr,
    },
    /// TTL expired en route; a router answered.
    TimeExceeded {
        /// The hop that answered.
        from: Ipv6Addr,
        /// Hop index (1-based TTL at which it fired).
        hop: u8,
    },
    /// A router reported the destination unreachable.
    Unreachable {
        /// The router that answered.
        from: Ipv6Addr,
    },
    /// Silence.
    NoResponse,
}

impl ProbeOutcome {
    /// True when the *destination itself* answered.
    pub fn is_echo(&self) -> bool {
        matches!(self, ProbeOutcome::EchoReply { .. })
    }
}

/// The most hops a probe path has: up to four transit cores, the
/// destination AS's core router and a CPE WAN hop.
pub const MAX_HOPS: usize = 6;

/// The router hops of one probe path, in order, held inline (see
/// [`World::route_hops`]); it dereferences to a slice.
#[derive(Debug, Clone, Copy)]
pub struct Hops {
    addrs: [Ipv6Addr; MAX_HOPS],
    len: u8,
}

impl Hops {
    fn push(&mut self, addr: Ipv6Addr) {
        self.addrs[usize::from(self.len)] = addr;
        self.len += 1;
    }
}

impl Deref for Hops {
    type Target = [Ipv6Addr];

    fn deref(&self) -> &[Ipv6Addr] {
        &self.addrs[..usize::from(self.len)]
    }
}

impl World {
    // ------------------------------------------------------------------
    // Forward: device → address
    // ------------------------------------------------------------------

    /// The delegated prefix a home network holds at time `t`.
    pub fn network_prefix_at(&self, network: u32, t: SimTime) -> Prefix {
        let net = &self.networks[network as usize];
        let asr = &self.ases[net.as_index as usize];
        let profile = &asr.info.profile;
        let epoch = profile.rotation.epoch(t);
        let slot = self
            .home_perm(net.as_index, epoch)
            .apply(net.local_index as u64);
        let idx = slot * self.home_stride(net.as_index);
        asr.customer33().subprefix(profile.delegation_len, idx)
    }

    /// A home device's address at time `t` (CPE LAN-side excluded; for the
    /// CPE this is its WAN address).
    pub fn home_addr_at(&self, device: DeviceId, t: SimTime) -> Option<Ipv6Addr> {
        let dev = self.device(device);
        let slot = dev.home?;
        let net = &self.networks[slot.network as usize];
        let asr = &self.ases[net.as_index as usize];
        let profile = &asr.info.profile;
        let prefix_epoch = profile.rotation.epoch(t);

        let upper: u64 = if dev.kind == DeviceKind::CpeRouter {
            // WAN side: the per-slot /64 in the CPE WAN pool.
            let s = self
                .home_perm(net.as_index, prefix_epoch)
                .apply(net.local_index as u64);
            let idx = s * self.wan_stride(net.as_index);
            (asr.cpe_wan34().subprefix(64, idx).bits() >> 64) as u64
        } else {
            let delegated = self.network_prefix_at(slot.network, t);
            (delegated.subprefix(64, slot.subnet as u64).bits() >> 64) as u64
        };

        let iid_epoch = t.as_secs() / profile.iid_rotation.as_secs().max(1);
        let ipv4 = Some(asr.v4_for(dev.seed));
        let iid = generate_iid(dev.strategy, &dev.iid_inputs(ipv4), iid_epoch, prefix_epoch);
        Some(v6addr::join(upper, iid))
    }

    /// A device's cellular address at time `t`, if it has a plan.
    pub fn cellular_addr_at(&self, device: DeviceId, t: SimTime) -> Option<Ipv6Addr> {
        let dev = self.device(device);
        let cell = dev.cellular?;
        let asr = &self.ases[cell.as_index as usize];
        let profile = &asr.info.profile;
        let attach_epoch = profile.rotation.epoch(t);
        let slot = self
            .mobile_perm(cell.as_index, attach_epoch)
            .apply(cell.subscriber as u64);
        let idx = slot * self.mobile_stride(cell.as_index);
        let upper = (asr.customer33().subprefix(64, idx).bits() >> 64) as u64;
        let iid_epoch = t.as_secs() / profile.iid_rotation.as_secs().max(1);
        let ipv4 = Some(asr.v4_for(dev.seed));
        let iid = generate_iid(dev.strategy, &dev.iid_inputs(ipv4), iid_epoch, attach_epoch);
        Some(v6addr::join(upper, iid))
    }

    /// Where a device is attached at time `t` (phones hop between WiFi and
    /// cellular; everything else is static).
    pub fn attachment_at(&self, device: DeviceId, t: SimTime) -> AttachKind {
        let dev = self.device(device);
        if dev.fixed_addr.is_some() {
            return AttachKind::Fixed;
        }
        match (dev.home, dev.cellular) {
            (Some(_), Some(_)) => {
                if on_wifi(self.seed, dev.seed, t, self.config.wifi_presence) {
                    AttachKind::HomeWifi
                } else {
                    AttachKind::Cellular
                }
            }
            (Some(_), None) => AttachKind::HomeWifi,
            (None, Some(_)) => AttachKind::Cellular,
            (None, None) => AttachKind::Fixed,
        }
    }

    /// The source address a device uses when it talks to NTP at time `t`,
    /// with the dense index of the AS it egresses from.
    pub fn contact_addr_at(&self, device: DeviceId, t: SimTime) -> Option<(Ipv6Addr, u16)> {
        let dev = self.device(device);
        if let Some(a) = dev.fixed_addr {
            return self.as_index_of(a).map(|i| (a, i));
        }
        match self.attachment_at(device, t) {
            AttachKind::HomeWifi => {
                let a = self.home_addr_at(device, t)?;
                let net = &self.networks[dev.home?.network as usize];
                Some((a, net.as_index))
            }
            AttachKind::Cellular => {
                let a = self.cellular_addr_at(device, t)?;
                Some((a, dev.cellular?.as_index))
            }
            AttachKind::Fixed => None,
        }
    }

    // ------------------------------------------------------------------
    // Inverse: address → holder
    // ------------------------------------------------------------------

    /// The active home network whose delegated prefix covers `addr` at
    /// time `t`, if any (`region_prefix` is the HomePool /33).
    fn active_home_network(
        &self,
        addr: Ipv6Addr,
        region_prefix: Prefix,
        as_index: u16,
        t: SimTime,
    ) -> Option<u32> {
        let asr = &self.ases[as_index as usize];
        let profile = &asr.info.profile;
        let dlen = profile.delegation_len;
        let rel = (u128::from(addr) - region_prefix.bits()) >> (128 - dlen);
        let stride = self.home_stride(as_index);
        let idx = rel as u64;
        if !idx.is_multiple_of(stride) {
            return None;
        }
        let slot = idx / stride;
        let epoch = profile.rotation.epoch(t);
        let perm = self.home_perm(as_index, epoch);
        if slot >= perm.len() {
            return None;
        }
        let local = perm.invert(slot);
        asr.network_ids.get(local as usize).copied()
    }

    /// Resolves who holds `addr` at time `t`.
    pub fn resolve(&self, addr: Ipv6Addr, t: SimTime) -> Resolution {
        let Some((region_prefix, entry)) = self.route_lookup(addr) else {
            return if self.as_index_of(addr).is_some() {
                Resolution::Vacant
            } else {
                Resolution::Unrouted
            };
        };
        let asr = &self.ases[entry.as_index as usize];
        // Fully alias-fronted client regions answer for everything.
        if asr.info.alias_front == AliasFront::Full
            && matches!(entry.region, Region::HomePool | Region::MobilePool)
        {
            return Resolution::Alias;
        }
        match entry.region {
            Region::Aliased => Resolution::Alias,
            Region::CoreRouters | Region::ServerPool => {
                match self.fixed_addrs.get(&u128::from(addr)) {
                    Some(&id) if self.device(id).kind == DeviceKind::CoreRouter => {
                        Resolution::Router(id)
                    }
                    Some(&id) => Resolution::Server(id),
                    None => Resolution::Vacant,
                }
            }
            Region::CpeWanPool => {
                let rel = (u128::from(addr) - region_prefix.bits()) >> 64;
                let stride = self.wan_stride(entry.as_index);
                let idx = rel as u64;
                if !idx.is_multiple_of(stride) {
                    return Resolution::Vacant;
                }
                let slot = idx / stride;
                let profile = &asr.info.profile;
                let epoch = profile.rotation.epoch(t);
                let perm = self.home_perm(entry.as_index, epoch);
                if slot >= perm.len() {
                    return Resolution::Vacant;
                }
                let local = perm.invert(slot);
                let Some(&net_id) = asr.network_ids.get(local as usize) else {
                    return Resolution::Vacant;
                };
                let cpe = self.networks[net_id as usize].cpe;
                match self.home_addr_at(cpe, t) {
                    Some(a) if a == addr => Resolution::CpeWan {
                        device: cpe,
                        network: net_id,
                    },
                    _ => Resolution::Vacant,
                }
            }
            Region::HomePool => {
                let Some(net_id) = self.active_home_network(addr, region_prefix, entry.as_index, t)
                else {
                    return Resolution::Vacant;
                };
                if asr.info.alias_front == AliasFront::ActiveOnly {
                    return Resolution::Alias; // front covers the active delegation
                }
                let net = &self.networks[net_id as usize];
                // Check every LAN device that could hold this /64 + IID.
                let target_iid = Iid::from_addr(addr);
                let delegated = self.network_prefix_at(net_id, t);
                for did in net.lan_devices() {
                    let dev = self.device(did);
                    let Some(hs) = dev.home else { continue };
                    // Quick subnet filter before computing the IID.
                    let dev64 = delegated.subprefix(64, hs.subnet as u64);
                    if !dev64.contains(addr) {
                        continue;
                    }
                    if let Some(a) = self.home_addr_at(did, t) {
                        if Iid::from_addr(a) == target_iid && a == addr {
                            return Resolution::HomeDevice {
                                device: did,
                                network: net_id,
                            };
                        }
                    }
                }
                Resolution::Vacant
            }
            Region::MobilePool => {
                let rel = (u128::from(addr) - region_prefix.bits()) >> 64;
                let stride = self.mobile_stride(entry.as_index);
                let idx = rel as u64;
                if !idx.is_multiple_of(stride) {
                    return Resolution::Vacant;
                }
                let slot = idx / stride;
                let profile = &asr.info.profile;
                let epoch = profile.rotation.epoch(t);
                let perm = self.mobile_perm(entry.as_index, epoch);
                if slot >= perm.len() {
                    return Resolution::Vacant;
                }
                let sub = perm.invert(slot);
                let Some(&did) = asr.subscriber_ids.get(sub as usize) else {
                    return Resolution::Vacant;
                };
                if asr.info.alias_front == AliasFront::ActiveOnly {
                    return Resolution::Alias; // front covers the active /64
                }
                match self.cellular_addr_at(did, t) {
                    Some(a) if a == addr => Resolution::MobileDevice(did),
                    _ => Resolution::Vacant,
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Probing
    // ------------------------------------------------------------------

    /// The router hops a probe from vantage AS `vp_as` to `dst` traverses
    /// (two to four transit cores keyed by the AS pair, the destination
    /// core, and — for customer targets — the CPE WAN hop), with no heap
    /// allocation.
    pub fn route_hops(&self, vp_as: u16, dst: Ipv6Addr, t: SimTime) -> Hops {
        let mut hops = Hops {
            addrs: [Ipv6Addr::UNSPECIFIED; MAX_HOPS],
            len: 0,
        };
        let Some(dst_as) = self.as_index_of(dst) else {
            return hops;
        };
        let transit = &self.transit;
        if !transit.is_empty() {
            let key = hash_label(self.seed, "path", &[u64::from(vp_as), u64::from(dst_as)]);
            let k = 2 + (key % 3) as usize;
            for i in 0..k {
                let pick = hash64(key, &[i as u8]) % transit.len() as u64;
                let ta = &self.ases[usize::from(transit[pick as usize])];
                let r = ta.router_ids
                    [(hash64(key, &[0x80 | i as u8]) % ta.router_ids.len() as u64) as usize];
                if let Some(a) = self.device(r).fixed_addr {
                    hops.push(a);
                }
            }
        }
        // Destination AS core router.
        let dar = &self.ases[dst_as as usize];
        if !dar.router_ids.is_empty() {
            let r = dar.router_ids[(u128::from(dst) % dar.router_ids.len() as u128) as usize];
            if let Some(a) = self.device(r).fixed_addr {
                hops.push(a);
            }
        }
        // CPE WAN hop for any traffic entering an *active* delegation —
        // the packet traverses the CPE whether or not the final address
        // is held (this is how Yarrp discovers the network periphery).
        if let Some((region_prefix, entry)) = self.route_lookup(dst) {
            if entry.region == Region::HomePool {
                if let Some(network) =
                    self.active_home_network(dst, region_prefix, entry.as_index, t)
                {
                    let cpe = self.networks[network as usize].cpe;
                    if let Some(a) = self.home_addr_at(cpe, t) {
                        hops.push(a);
                    }
                }
            }
        }
        hops
    }

    /// Deterministic per-(address, probe-window) response coin flip.
    fn responds(&self, prob: f64, addr: Ipv6Addr, t: SimTime) -> bool {
        let h = hash_label(
            self.seed ^ (u128::from(addr) as u64) ^ ((u128::from(addr) >> 64) as u64),
            "respond",
            &[t.as_secs() / 600],
        );
        (h as f64 / u64::MAX as f64) < prob
    }

    /// Sends an ICMPv6 echo request with unlimited TTL (ZMap6-style).
    pub fn probe_echo(&self, vp_as: u16, dst: Ipv6Addr, t: SimTime) -> ProbeOutcome {
        self.probe_ttl(vp_as, dst, 64, t)
    }

    /// Sends an ICMPv6 echo request with a TTL (Yarrp-style).
    ///
    /// The synthetic path is: VP border (uncounted) → `route_hops` → the
    /// destination. TTL expiring on a hop yields Time Exceeded from that
    /// hop's router; reaching the destination applies alias / firewall /
    /// presence / responsiveness rules. The path is walked at most once:
    /// a TTL above [`MAX_HOPS`] cannot expire, so it is walked only if the
    /// destination is vacant and its last hop reports unreachable.
    pub fn probe_ttl(&self, vp_as: u16, dst: Ipv6Addr, ttl: u8, t: SimTime) -> ProbeOutcome {
        let hops = (usize::from(ttl) <= MAX_HOPS).then(|| self.route_hops(vp_as, dst, t));
        if let Some(hops) = hops.filter(|h| usize::from(ttl) <= h.len()) {
            let from = hops[usize::from(ttl) - 1];
            // Routers occasionally rate-limit TTL-exceeded generation.
            return if self.responds(0.95, from, t) {
                ProbeOutcome::TimeExceeded { from, hop: ttl }
            } else {
                ProbeOutcome::NoResponse
            };
        }
        // A dark AS answers nothing, aliases included.
        if self
            .as_index_of(dst)
            .map(|ai| self.as_is_out(ai, t))
            .unwrap_or(false)
        {
            return ProbeOutcome::NoResponse;
        }
        match self.resolve(dst, t) {
            Resolution::Alias => ProbeOutcome::EchoReply { from: dst },
            Resolution::Router(id) | Resolution::Server(id) => {
                let dev = self.device(id);
                // ICMP-quiet web servers drop ping entirely (found only
                // by multi-protocol campaigns).
                let p = if dev.kind == DeviceKind::Server {
                    ServerRole::of_seed(dev.seed).answer_prob(ProbeKind::IcmpEcho)
                } else {
                    dev.kind.respond_prob()
                };
                if p > 0.0 && self.responds(p, dst, t) {
                    ProbeOutcome::EchoReply { from: dst }
                } else {
                    ProbeOutcome::NoResponse
                }
            }
            Resolution::CpeWan { device, .. } => {
                let dev = self.device(device);
                if self.responds(dev.kind.respond_prob(), dst, t) {
                    ProbeOutcome::EchoReply { from: dst }
                } else {
                    ProbeOutcome::NoResponse
                }
            }
            Resolution::HomeDevice { device, network } => {
                let net = &self.networks[network as usize];
                if net.firewalled {
                    return ProbeOutcome::NoResponse;
                }
                if self.attachment_at(device, t) != AttachKind::HomeWifi {
                    return ProbeOutcome::NoResponse; // phone is out
                }
                let dev = self.device(device);
                if self.responds(dev.kind.respond_prob(), dst, t) {
                    ProbeOutcome::EchoReply { from: dst }
                } else {
                    ProbeOutcome::NoResponse
                }
            }
            Resolution::MobileDevice(device) => {
                if self.attachment_at(device, t) != AttachKind::Cellular {
                    return ProbeOutcome::NoResponse;
                }
                let dev = self.device(device);
                if self.responds(dev.kind.respond_prob(), dst, t) {
                    ProbeOutcome::EchoReply { from: dst }
                } else {
                    ProbeOutcome::NoResponse
                }
            }
            Resolution::Vacant => {
                // The destination AS's core router reports unreachable
                // (sometimes; silence is common too).
                let hops = hops.unwrap_or_else(|| self.route_hops(vp_as, dst, t));
                match hops.last() {
                    Some(&from) if self.responds(0.5, dst, t) => ProbeOutcome::Unreachable { from },
                    _ => ProbeOutcome::NoResponse,
                }
            }
            Resolution::Unrouted => ProbeOutcome::NoResponse,
        }
    }

    /// Sends a probe of an arbitrary kind with unlimited TTL.
    ///
    /// ICMPv6 delegates to [`probe_echo`](Self::probe_echo); transport
    /// probes consult the destination's service model: servers answer on
    /// their role's ports (including ICMP-quiet web servers that only a
    /// multi-protocol campaign can find), alias middleboxes answer
    /// everything, CPE occasionally exposes a management HTTPS port, and
    /// client devices expose no services.
    pub fn probe_kind(
        &self,
        vp_as: u16,
        dst: Ipv6Addr,
        kind: ProbeKind,
        t: SimTime,
    ) -> ProbeOutcome {
        if kind == ProbeKind::IcmpEcho {
            return self.probe_echo(vp_as, dst, t);
        }
        if self
            .as_index_of(dst)
            .map(|ai| self.as_is_out(ai, t))
            .unwrap_or(false)
        {
            return ProbeOutcome::NoResponse;
        }
        match self.resolve(dst, t) {
            Resolution::Alias => ProbeOutcome::EchoReply { from: dst },
            Resolution::Server(id) => {
                let dev = self.device(id);
                let p = ServerRole::of_seed(dev.seed).answer_prob(kind);
                if p > 0.0 && self.responds(p, dst, t) {
                    ProbeOutcome::EchoReply { from: dst }
                } else {
                    ProbeOutcome::NoResponse
                }
            }
            Resolution::CpeWan { device, .. } => {
                // A sliver of CPE exposes its management UI on the WAN.
                let dev = self.device(device);
                let p = match kind {
                    ProbeKind::TcpSyn(443) => 0.06,
                    _ => 0.0,
                };
                if p > 0.0 && self.responds(p, dst, t) && dev.kind == DeviceKind::CpeRouter {
                    ProbeOutcome::EchoReply { from: dst }
                } else {
                    ProbeOutcome::NoResponse
                }
            }
            _ => ProbeOutcome::NoResponse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addressing::IidStrategy;
    use crate::asn::AsKind;
    use crate::config::WorldConfig;
    use crate::time::SimDuration;

    fn world() -> World {
        World::build(WorldConfig::tiny(), 7)
    }

    #[test]
    fn forward_inverse_agree_for_home_devices() {
        let w = world();
        let t = SimTime(SimDuration::days(3).as_secs() + 1234);
        let mut checked = 0;
        for net in w.networks.iter().take(100) {
            for did in net.lan_devices() {
                let Some(addr) = w.home_addr_at(did, t) else {
                    continue;
                };
                match w.resolve(addr, t) {
                    Resolution::HomeDevice { device, network } => {
                        assert_eq!(device, did);
                        assert_eq!(network, net.id);
                        checked += 1;
                    }
                    Resolution::Alias => { /* alias-fronted AS */ }
                    other => panic!("device {did:?} at {addr} resolved to {other:?}"),
                }
            }
        }
        assert!(checked > 50, "only {checked} devices verified");
    }

    #[test]
    fn forward_inverse_agree_for_cpe_wan() {
        let w = world();
        let t = SimTime(SimDuration::days(10).as_secs());
        let mut checked = 0;
        for net in w.networks.iter().take(100) {
            let addr = w.home_addr_at(net.cpe, t).unwrap();
            match w.resolve(addr, t) {
                Resolution::CpeWan { device, network } => {
                    assert_eq!(device, net.cpe);
                    assert_eq!(network, net.id);
                    checked += 1;
                }
                other => panic!("cpe of net {} at {addr} resolved to {other:?}", net.id),
            }
        }
        assert!(checked > 50);
    }

    #[test]
    fn forward_inverse_agree_for_mobile() {
        let w = world();
        let t = SimTime(SimDuration::days(5).as_secs() + 99);
        let mut checked = 0;
        for asr in &w.ases {
            for &did in asr.subscriber_ids.iter().take(30) {
                let addr = w.cellular_addr_at(did, t).unwrap();
                match w.resolve(addr, t) {
                    Resolution::MobileDevice(d) => {
                        assert_eq!(d, did);
                        checked += 1;
                    }
                    Resolution::Alias => {}
                    other => panic!("{did:?} at {addr} resolved to {other:?}"),
                }
            }
        }
        assert!(checked > 50);
    }

    #[test]
    fn rotation_changes_prefix_not_identity() {
        let w = world();
        // Find a network in a rotating AS.
        let net = w
            .networks
            .iter()
            .find(|n| {
                matches!(
                    w.ases[n.as_index as usize].info.profile.rotation,
                    crate::addressing::RotationPolicy::Every(_)
                )
            })
            .unwrap();
        // 100 days crosses an epoch boundary for every rotating policy in
        // the catalog (fastest daily, slowest 90 days).
        let t1 = SimTime(0);
        let t2 = SimTime(SimDuration::days(100).as_secs());
        let p1 = w.network_prefix_at(net.id, t1);
        let p2 = w.network_prefix_at(net.id, t2);
        assert_ne!(p1, p2, "prefix did not rotate over 100 days");
        // And the inverse stays correct after rotation.
        let addr = w.home_addr_at(net.cpe, t2).unwrap();
        assert!(matches!(
            w.resolve(addr, t2),
            Resolution::CpeWan { .. } | Resolution::Alias
        ));
    }

    #[test]
    fn eui64_iid_survives_rotation() {
        let w = world();
        let t1 = SimTime(0);
        let t2 = SimTime(SimDuration::days(30).as_secs());
        let mut found = false;
        for net in &w.networks {
            let cpe = w.device(net.cpe);
            if cpe.strategy != IidStrategy::Eui64 {
                continue;
            }
            let a1 = w.home_addr_at(net.cpe, t1).unwrap();
            let a2 = w.home_addr_at(net.cpe, t2).unwrap();
            assert_eq!(Iid::from_addr(a1), Iid::from_addr(a2));
            assert_eq!(Iid::from_addr(a1).to_mac(), Some(cpe.mac));
            found = true;
        }
        assert!(found, "no EUI-64 CPE in tiny world");
    }

    #[test]
    fn privacy_iids_rotate_daily() {
        let w = world();
        let dev = w
            .devices
            .iter()
            .find(|d| d.strategy == IidStrategy::PrivacyRandom && d.home.is_some())
            .unwrap();
        let a1 = w.home_addr_at(dev.id, SimTime(0)).unwrap();
        let a2 = w
            .home_addr_at(dev.id, SimTime(SimDuration::days(1).as_secs() + 10))
            .unwrap();
        assert_ne!(Iid::from_addr(a1), Iid::from_addr(a2));
    }

    #[test]
    fn vacant_addresses_do_not_echo() {
        let w = world();
        let t = SimTime(1000);
        let asr = w
            .ases
            .iter()
            .find(|a| a.info.kind == AsKind::EyeballIsp && !a.network_ids.is_empty())
            .unwrap();
        // A random high address in the home pool is essentially surely vacant.
        let addr = v6addr::from_u128(asr.customer33().bits() | 0xdead_beef_dead_beef_cafe);
        if !asr.info.clients_aliased() {
            let r = w.resolve(addr, t);
            assert!(matches!(r, Resolution::Vacant), "{r:?}");
            let out = w.probe_echo(0, addr, t);
            assert!(!out.is_echo(), "{out:?}");
        }
    }

    #[test]
    fn aliased_prefixes_echo_everything() {
        let w = world();
        let t = SimTime(0);
        let alias = &w
            .ases
            .iter()
            .find(|a| !a.alias_48s.is_empty())
            .unwrap()
            .alias_48s[0];
        let addr = alias.offset(0x1234_5678_9abc);
        assert_eq!(w.resolve(addr, t), Resolution::Alias);
        assert!(w.probe_echo(0, addr, t).is_echo());
    }

    #[test]
    fn low_ttl_yields_time_exceeded_from_router() {
        let w = world();
        let t = SimTime(0);
        let net = &w.networks[0];
        let dst = w.home_addr_at(net.cpe, t).unwrap();
        let out = w.probe_ttl(w.vantage_points[0].as_index, dst, 1, t);
        match out {
            ProbeOutcome::TimeExceeded { from, hop } => {
                assert_eq!(hop, 1);
                // The hop is a transit router with a low IID.
                assert!(Iid::from_addr(from).is_low_byte());
            }
            ProbeOutcome::NoResponse => {} // rate-limited: allowed
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn traceroute_discovers_cpe_hop() {
        let w = world();
        let t = SimTime(0);
        // Find an unfirewalled home device and trace to it: the hop list
        // must end with its network's CPE WAN address.
        for net in &w.networks {
            let Some(did) = net.lan_devices().next() else {
                continue;
            };
            let Some(dst) = w.home_addr_at(did, t) else {
                continue;
            };
            if w.ases[net.as_index as usize].info.clients_aliased() {
                continue;
            }
            let hops = w.route_hops(w.vantage_points[0].as_index, dst, t);
            let cpe_wan = w.home_addr_at(net.cpe, t).unwrap();
            assert_eq!(hops.last(), Some(&cpe_wan));
            return;
        }
        panic!("no suitable home network found");
    }

    #[test]
    fn firewalled_lan_devices_are_silent() {
        let w = world();
        let t = SimTime(500);
        let mut tested = false;
        for net in w.networks.iter().filter(|n| n.firewalled) {
            if w.ases[net.as_index as usize].info.clients_aliased() {
                continue;
            }
            for did in net.lan_devices() {
                if w.attachment_at(did, t) != AttachKind::HomeWifi {
                    continue;
                }
                let Some(dst) = w.home_addr_at(did, t) else {
                    continue;
                };
                assert_eq!(w.probe_echo(0, dst, t), ProbeOutcome::NoResponse);
                tested = true;
            }
            if tested {
                break;
            }
        }
        assert!(tested, "no firewalled network exercised");
    }

    #[test]
    fn contact_addr_matches_attachment() {
        let w = world();
        let t = SimTime(3600 * 30);
        let mut wifi = 0;
        let mut cell = 0;
        for d in &w.devices {
            let (Some(home), Some(cellular)) = (d.home, d.cellular) else {
                continue;
            };
            let (addr, as_idx) = w.contact_addr_at(d.id, t).unwrap();
            match w.attachment_at(d.id, t) {
                AttachKind::HomeWifi => {
                    assert_eq!(addr, w.home_addr_at(d.id, t).unwrap());
                    assert_eq!(as_idx, w.networks[home.network as usize].as_index);
                    wifi += 1;
                }
                AttachKind::Cellular => {
                    assert_eq!(addr, w.cellular_addr_at(d.id, t).unwrap());
                    assert_eq!(as_idx, cellular.as_index);
                    cell += 1;
                }
                AttachKind::Fixed => unreachable!(),
            }
        }
        assert!(wifi > 0 && cell > 0, "wifi={wifi} cell={cell}");
    }

    #[test]
    fn server_roles_answer_their_ports() {
        use crate::resolve::{ProbeKind, ServerRole};
        assert_eq!(ServerRole::of_seed(0), ServerRole::Web);
        assert_eq!(ServerRole::of_seed(5), ServerRole::QuietWeb);
        assert_eq!(ServerRole::of_seed(6), ServerRole::Dns);
        assert_eq!(ServerRole::of_seed(9), ServerRole::Plain);
        assert_eq!(ServerRole::QuietWeb.answer_prob(ProbeKind::IcmpEcho), 0.0);
        assert!(ServerRole::QuietWeb.answer_prob(ProbeKind::TcpSyn(443)) > 0.5);
        assert!(ServerRole::Dns.answer_prob(ProbeKind::UdpDatagram(53)) > 0.5);
        assert_eq!(ServerRole::Plain.answer_prob(ProbeKind::TcpSyn(80)), 0.0);
        assert_eq!(ServerRole::Web.answer_prob(ProbeKind::UdpDatagram(53)), 0.0);
    }

    #[test]
    fn probe_kind_respects_service_model() {
        use crate::resolve::ProbeKind;
        let w = world();
        let t = SimTime(0);
        // Aliased space answers any probe kind.
        let alias = w.aliased_prefixes()[0].offset(7);
        assert!(w.probe_kind(0, alias, ProbeKind::TcpSyn(80), t).is_echo());
        assert!(w
            .probe_kind(0, alias, ProbeKind::UdpDatagram(53), t)
            .is_echo());
        // Routers never answer TCP.
        let router = w.ases[0].router48().offset(1);
        assert!(!w.probe_kind(0, router, ProbeKind::TcpSyn(443), t).is_echo());
        // Client devices never answer TCP.
        for net in w.networks.iter().take(20) {
            for did in net.lan_devices() {
                if let Some(a) = w.home_addr_at(did, t) {
                    if w.ases[net.as_index as usize].info.clients_aliased() {
                        continue;
                    }
                    assert!(!w.probe_kind(0, a, ProbeKind::TcpSyn(80), t).is_echo());
                }
            }
        }
    }

    #[test]
    fn probe_is_deterministic_within_window() {
        let w = world();
        let t = SimTime(42);
        let dst = w.home_addr_at(w.networks[0].cpe, t).unwrap();
        let a = w.probe_echo(3, dst, t);
        let b = w.probe_echo(3, dst, SimTime(42 + 30));
        assert_eq!(a, b, "same 10-minute window must give same outcome");
    }
}
