//! IPv6 address-formation strategies and per-AS addressing profiles.
//!
//! §2.1 catalogs how IIDs come to be: manual low-byte assignment, EUI-64
//! SLAAC, RFC 4941 ephemeral privacy addresses, RFC 7217 stable-random,
//! DHCPv6, and IPv4 embeddings. §4.3 shows their *mix varies per AS* —
//! Reliance Jio randomizes only the low four IID bytes for a third of its
//! clients; Telkomsel skews low-entropy; the Hitlist is low-byte-heavy.
//! This module defines the strategy enum, the deterministic IID generator,
//! and named per-AS profiles reproducing those signatures.

use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

use v6addr::ipv4_embed::Ipv4Encoding;
use v6addr::{Iid, Mac};

use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// How a device forms the Interface Identifier of its address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IidStrategy {
    /// RFC 4941 privacy extensions: a fresh random 64-bit IID every
    /// rotation period. The dominant client strategy.
    PrivacyRandom,
    /// RFC 7217: random but *stable per (device, prefix)* — changes when
    /// the delegated prefix rotates, not on a timer.
    StableRandom,
    /// EUI-64 SLAAC: the MAC address embedded in the IID. The §5 privacy
    /// disaster.
    Eui64,
    /// Operator-assigned low-byte IID (`::1` … `::ff`). Routers, servers.
    LowByte,
    /// Operator-assigned two-byte IID (`::100` … `::ffff`).
    LowTwoBytes,
    /// Upper four IID bytes zero, lower four random — the second Reliance
    /// Jio pattern the paper reverse-engineers in §4.3.
    Low4ByteRandom,
    /// The interface's IPv4 address embedded under a fixed encoding.
    Ipv4Embedded(Ipv4Encoding),
    /// DHCPv6 with a sequential allocation pool (small, structured IIDs).
    Dhcpv6Sequential,
}

/// All inputs the IID generator may need for one device.
#[derive(Debug, Clone, Copy)]
pub struct IidInputs {
    /// The device's MAC address (for EUI-64).
    pub mac: Mac,
    /// A per-device RNG seed (forked from the world seed).
    pub device_seed: u64,
    /// The device's IPv4 address, when its AS runs dual-stack embedding.
    pub ipv4: Option<Ipv4Addr>,
    /// Stable index of the device within its network (for DHCPv6 pools).
    pub host_index: u16,
}

/// Generates the IID a device uses during IID-epoch `iid_epoch` while
/// holding prefix-epoch `prefix_epoch`.
///
/// Deterministic in all arguments: regenerating any past address requires
/// no state, which is what lets the simulator answer probes to arbitrary
/// addresses at arbitrary times.
pub fn generate_iid(
    strategy: IidStrategy,
    inputs: &IidInputs,
    iid_epoch: u64,
    prefix_epoch: u64,
) -> Iid {
    match strategy {
        IidStrategy::PrivacyRandom => {
            let mut r = Rng::new(inputs.device_seed ^ 0xa5a5_0000).fork(b"privacy", iid_epoch);
            Iid::new(r.next_u64())
        }
        IidStrategy::StableRandom => {
            let mut r = Rng::new(inputs.device_seed ^ 0x7217_7217).fork(b"stable", prefix_epoch);
            Iid::new(r.next_u64())
        }
        IidStrategy::Eui64 => Iid::from_mac(inputs.mac),
        IidStrategy::LowByte => {
            let mut r = Rng::new(inputs.device_seed ^ 0x10);
            Iid::new(1 + r.below(0xfe))
        }
        IidStrategy::LowTwoBytes => {
            let mut r = Rng::new(inputs.device_seed ^ 0x20);
            Iid::new(0x100 + r.below(0xff00))
        }
        IidStrategy::Low4ByteRandom => {
            let mut r = Rng::new(inputs.device_seed ^ 0x4444).fork(b"low4", prefix_epoch);
            Iid::new(r.next_u32() as u64)
        }
        IidStrategy::Ipv4Embedded(enc) => match inputs.ipv4 {
            Some(v4) => enc.encode(v4),
            // Dual-stack not provisioned: fall back to a stable random IID.
            None => {
                let mut r = Rng::new(inputs.device_seed ^ 0x0404);
                Iid::new(r.next_u64())
            }
        },
        IidStrategy::Dhcpv6Sequential => {
            // Pool base is per-network (derived from the seed), hosts get
            // consecutive values — low-entropy structured IIDs.
            let base = (inputs.device_seed & 0xff) << 8;
            Iid::new(0x1_0000 + base + inputs.host_index as u64)
        }
    }
}

/// How often an AS rotates the prefixes delegated to its customers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RotationPolicy {
    /// Static delegation for the whole study.
    Never,
    /// Rotate every fixed period (§2.1: some ISPs rotate daily).
    Every(SimDuration),
}

impl RotationPolicy {
    /// The prefix-epoch number at time `t`.
    pub fn epoch(self, t: SimTime) -> u64 {
        match self {
            RotationPolicy::Never => 0,
            RotationPolicy::Every(d) => t.as_secs() / d.as_secs().max(1),
        }
    }

    /// Number of epochs that fit in `window` (at least 1).
    pub fn epochs_in(self, window: SimDuration) -> u64 {
        match self {
            RotationPolicy::Never => 1,
            RotationPolicy::Every(d) => (window.as_secs() / d.as_secs().max(1)).max(1),
        }
    }

    /// The time at which epoch `e` begins.
    pub fn epoch_start(self, e: u64) -> SimTime {
        match self {
            RotationPolicy::Never => SimTime::START,
            RotationPolicy::Every(d) => SimTime(e * d.as_secs()),
        }
    }
}

/// The addressing mix of one AS's client population.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AddressingProfile {
    /// `(strategy, weight)` pairs; weights need not sum to 1.
    pub strategies: Vec<(IidStrategy, f64)>,
    /// Privacy-extension IID rotation period for clients that use it.
    pub iid_rotation: SimDuration,
    /// Customer prefix rotation policy.
    pub rotation: RotationPolicy,
    /// Delegated prefix length for home networks (/56 or /64 typical).
    pub delegation_len: u8,
    /// Fraction of home networks whose CPE filters unsolicited inbound
    /// traffic. The paper's backscan (~⅔ responsive) implies this is
    /// *far* lower than security folklore assumes.
    pub firewall_rate: f64,
    /// Fraction of this AS's CPE fleet that forms its WAN address via
    /// EUI-64 (the pre-Fritz!OS-7.50 AVM behaviour §5.3 exploits).
    pub cpe_eui64_rate: f64,
}

impl AddressingProfile {
    /// Draws a strategy for one client device.
    pub fn draw_strategy(&self, rng: &mut Rng) -> IidStrategy {
        let weights: Vec<f64> = self.strategies.iter().map(|&(_, w)| w).collect();
        self.strategies[rng.weighted(&weights)].0
    }

    /// Default fixed-line eyeball profile: mostly privacy-random clients,
    /// a sprinkle of EUI-64 IoT, weekly-ish prefix rotation.
    pub fn eyeball_default() -> Self {
        AddressingProfile {
            strategies: vec![
                (IidStrategy::PrivacyRandom, 0.80),
                (IidStrategy::StableRandom, 0.10),
                (IidStrategy::Eui64, 0.07),
                (IidStrategy::Dhcpv6Sequential, 0.03),
            ],
            iid_rotation: SimDuration::DAY,
            // Most fixed-line ISPs hold customer delegations for months
            // (§5.2: 86% of multi-/64 EUI-64 devices are "mostly static").
            rotation: RotationPolicy::Every(SimDuration::days(90)),
            delegation_len: 56,
            firewall_rate: 0.30,
            cpe_eui64_rate: 0.20,
        }
    }

    /// Default mobile-carrier profile: handsets rotate fast, almost all
    /// privacy-random, per-session /64s, no CPE firewall.
    pub fn mobile_default() -> Self {
        AddressingProfile {
            strategies: vec![
                (IidStrategy::PrivacyRandom, 0.90),
                (IidStrategy::Eui64, 0.04),
                (IidStrategy::StableRandom, 0.06),
            ],
            iid_rotation: SimDuration::DAY,
            rotation: RotationPolicy::Every(SimDuration::DAY),
            delegation_len: 64,
            firewall_rate: 0.05,
            cpe_eui64_rate: 0.05,
        }
    }

    /// Reliance Jio (§4.3): two coexisting patterns — fully random IIDs
    /// and IIDs with only the lower four bytes random. This is what bends
    /// Jio's entropy CDF in Fig. 4.
    pub fn jio() -> Self {
        AddressingProfile {
            strategies: vec![
                (IidStrategy::PrivacyRandom, 0.60),
                (IidStrategy::Low4ByteRandom, 0.33),
                (IidStrategy::Eui64, 0.07),
            ],
            iid_rotation: SimDuration::DAY,
            rotation: RotationPolicy::Every(SimDuration::DAY),
            delegation_len: 64,
            firewall_rate: 0.05,
            cpe_eui64_rate: 0.05,
        }
    }

    /// Telekomunikasi Selular (§4.3): markedly lower median entropy —
    /// structured DHCPv6 and low-4-byte pools dominate.
    pub fn telkomsel() -> Self {
        AddressingProfile {
            strategies: vec![
                (IidStrategy::PrivacyRandom, 0.35),
                (IidStrategy::Low4ByteRandom, 0.30),
                (IidStrategy::Dhcpv6Sequential, 0.25),
                (IidStrategy::Eui64, 0.10),
            ],
            iid_rotation: SimDuration::days(2),
            rotation: RotationPolicy::Every(SimDuration::days(2)),
            delegation_len: 64,
            firewall_rate: 0.05,
            cpe_eui64_rate: 0.10,
        }
    }

    /// German eyeball ISPs: AVM Fritz!Box CPE used EUI-64 WAN addresses
    /// until Fritz!OS 7.50 (§5.3); daily prefix rotation is standard
    /// practice in Germany, which is exactly what makes EUI-64 tracking
    /// (Fig. 7a) so effective there.
    pub fn german_avm() -> Self {
        AddressingProfile {
            strategies: vec![
                (IidStrategy::PrivacyRandom, 0.78),
                (IidStrategy::Eui64, 0.12),
                (IidStrategy::StableRandom, 0.10),
            ],
            iid_rotation: SimDuration::DAY,
            rotation: RotationPolicy::Every(SimDuration::DAY),
            delegation_len: 56,
            firewall_rate: 0.35,
            cpe_eui64_rate: 0.85,
        }
    }

    /// A smaller ISP whose CPE fleet is EUI-64-heavy (Fig. 7c's Brazilian
    /// provider pair).
    pub fn eyeball_eui64_heavy() -> Self {
        AddressingProfile {
            strategies: vec![
                (IidStrategy::PrivacyRandom, 0.60),
                (IidStrategy::Eui64, 0.30),
                (IidStrategy::StableRandom, 0.10),
            ],
            iid_rotation: SimDuration::DAY,
            rotation: RotationPolicy::Every(SimDuration::days(7)),
            delegation_len: 56,
            firewall_rate: 0.25,
            cpe_eui64_rate: 0.80,
        }
    }

    /// University/enterprise: stable addresses, some manual, some DHCPv6,
    /// IPv4 embeddings on dual-stack segments.
    pub fn enterprise() -> Self {
        AddressingProfile {
            strategies: vec![
                (IidStrategy::StableRandom, 0.40),
                (IidStrategy::Dhcpv6Sequential, 0.25),
                (IidStrategy::Ipv4Embedded(Ipv4Encoding::LowHex), 0.20),
                (IidStrategy::LowByte, 0.10),
                (IidStrategy::Eui64, 0.05),
            ],
            iid_rotation: SimDuration::days(30),
            rotation: RotationPolicy::Never,
            delegation_len: 48,
            firewall_rate: 0.60,
            cpe_eui64_rate: 0.10,
        }
    }

    /// Routers and servers: manual low-byte addressing, never rotates.
    pub fn infrastructure() -> Self {
        AddressingProfile {
            strategies: vec![
                (IidStrategy::LowByte, 0.75),
                (IidStrategy::LowTwoBytes, 0.15),
                (IidStrategy::Ipv4Embedded(Ipv4Encoding::LowHex), 0.10),
            ],
            iid_rotation: SimDuration::days(3650),
            rotation: RotationPolicy::Never,
            delegation_len: 48,
            firewall_rate: 0.0,
            cpe_eui64_rate: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6addr::entropy::iid_entropy;

    fn inputs(seed: u64) -> IidInputs {
        IidInputs {
            mac: Mac::from_u64(0x0012_3456_789a),
            device_seed: seed,
            ipv4: Some("10.1.2.3".parse().unwrap()),
            host_index: 5,
        }
    }

    #[test]
    fn privacy_random_changes_per_epoch() {
        let inp = inputs(1);
        let a = generate_iid(IidStrategy::PrivacyRandom, &inp, 0, 0);
        let b = generate_iid(IidStrategy::PrivacyRandom, &inp, 1, 0);
        assert_ne!(a, b);
        // ... but is deterministic for the same epoch.
        assert_eq!(a, generate_iid(IidStrategy::PrivacyRandom, &inp, 0, 5));
    }

    #[test]
    fn stable_random_changes_only_with_prefix() {
        let inp = inputs(2);
        let a = generate_iid(IidStrategy::StableRandom, &inp, 0, 0);
        assert_eq!(a, generate_iid(IidStrategy::StableRandom, &inp, 9, 0));
        assert_ne!(a, generate_iid(IidStrategy::StableRandom, &inp, 0, 1));
    }

    #[test]
    fn eui64_is_constant_and_recoverable() {
        let inp = inputs(3);
        let a = generate_iid(IidStrategy::Eui64, &inp, 0, 0);
        let b = generate_iid(IidStrategy::Eui64, &inp, 7, 3);
        assert_eq!(a, b);
        assert_eq!(a.to_mac(), Some(inp.mac));
    }

    #[test]
    fn low_byte_is_in_low_byte_class() {
        for seed in 0..50 {
            let iid = generate_iid(IidStrategy::LowByte, &inputs(seed), 0, 0);
            assert!(iid.is_low_byte(), "{iid}");
        }
    }

    #[test]
    fn low_two_bytes_class() {
        for seed in 0..50 {
            let iid = generate_iid(IidStrategy::LowTwoBytes, &inputs(seed), 0, 0);
            assert!(iid.is_low_two_bytes(), "{iid}");
        }
    }

    #[test]
    fn low4_random_has_upper_half_zero() {
        for seed in 0..50 {
            let iid = generate_iid(IidStrategy::Low4ByteRandom, &inputs(seed), 0, 0);
            assert_eq!(iid.as_u64() >> 32, 0, "{iid}");
        }
    }

    #[test]
    fn low4_random_entropy_is_mid_band() {
        // The Jio signature: entropy clearly below fully random but above
        // manual. Average over many devices.
        let mean: f64 = (0..200)
            .map(|s| iid_entropy(generate_iid(IidStrategy::Low4ByteRandom, &inputs(s), 0, 0)))
            .sum::<f64>()
            / 200.0;
        assert!(mean > 0.4 && mean < 0.75, "mean = {mean}");
    }

    #[test]
    fn ipv4_embedding_decodes() {
        let inp = inputs(4);
        let iid = generate_iid(IidStrategy::Ipv4Embedded(Ipv4Encoding::LowHex), &inp, 0, 0);
        assert_eq!(
            Ipv4Encoding::LowHex.decode(iid),
            Some("10.1.2.3".parse().unwrap())
        );
    }

    #[test]
    fn ipv4_embedding_without_v4_falls_back() {
        let mut inp = inputs(5);
        inp.ipv4 = None;
        let iid = generate_iid(IidStrategy::Ipv4Embedded(Ipv4Encoding::LowHex), &inp, 0, 0);
        // Fallback is full-width random, so the top half is almost surely
        // nonzero (probability 2⁻³² otherwise).
        assert_ne!(iid.as_u64() >> 32, 0);
    }

    #[test]
    fn dhcpv6_sequential_is_structured() {
        let a = generate_iid(IidStrategy::Dhcpv6Sequential, &inputs(6), 0, 0);
        let mut inp7 = inputs(6);
        inp7.host_index = 6;
        let b = generate_iid(IidStrategy::Dhcpv6Sequential, &inp7, 0, 0);
        assert_eq!(b.as_u64() - a.as_u64(), 1);
    }

    #[test]
    fn rotation_policy_epochs() {
        let daily = RotationPolicy::Every(SimDuration::DAY);
        assert_eq!(daily.epoch(SimTime(0)), 0);
        assert_eq!(daily.epoch(SimTime(86_399)), 0);
        assert_eq!(daily.epoch(SimTime(86_400)), 1);
        assert_eq!(daily.epochs_in(SimDuration::days(10)), 10);
        assert_eq!(daily.epoch_start(3), SimTime(3 * 86_400));
        assert_eq!(RotationPolicy::Never.epoch(SimTime(1 << 30)), 0);
        assert_eq!(RotationPolicy::Never.epochs_in(SimDuration::days(218)), 1);
    }

    #[test]
    fn profile_draw_respects_weights() {
        let p = AddressingProfile::jio();
        let mut rng = Rng::new(42);
        let mut low4 = 0;
        let n = 5_000;
        for _ in 0..n {
            if p.draw_strategy(&mut rng) == IidStrategy::Low4ByteRandom {
                low4 += 1;
            }
        }
        let frac = low4 as f64 / n as f64;
        assert!((frac - 0.33).abs() < 0.03, "frac = {frac}");
    }
}
