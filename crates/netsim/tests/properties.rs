//! Property-based tests for the synthetic Internet's core invariants.

use std::net::Ipv6Addr;
use std::sync::OnceLock;

use proptest::prelude::*;
use v6netsim::rng::{fnv1a, FNV_BASIS};
use v6netsim::{
    AttachKind, DeviceId, IndexPermutation, ProbeOutcome, Resolution, SimTime, World, WorldConfig,
};

fn world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| World::build(WorldConfig::tiny(), 0xFEED))
}

proptest! {
    /// The keyed permutation is a bijection for arbitrary domains/keys.
    #[test]
    fn permutation_bijective(n in 1u64..5000, key in any::<u64>(), probe in any::<u64>()) {
        let p = IndexPermutation::new(n, key);
        let i = probe % n;
        prop_assert!(p.apply(i) < n);
        prop_assert_eq!(p.invert(p.apply(i)), i);
    }

    /// Forward address computation and inverse resolution agree for any
    /// device at any time: if a device presents an address, resolving
    /// that address at the same instant finds the device (or the alias
    /// front covering it).
    #[test]
    fn forward_inverse_roundtrip(dev_sel in any::<u32>(), t_secs in 0u64..=18_835_200) {
        let w = world();
        let t = SimTime(t_secs);
        let id = v6netsim::DeviceId(dev_sel % w.device_count() as u32);
        if let Some((addr, _as_index)) = w.contact_addr_at(id, t) {
            match w.resolve(addr, t) {
                Resolution::HomeDevice { device, .. }
                | Resolution::MobileDevice(device)
                | Resolution::CpeWan { device, .. }
                | Resolution::Server(device)
                | Resolution::Router(device) => prop_assert_eq!(device, id),
                Resolution::Alias => {} // alias-fronted AS answers for it
                other => prop_assert!(false, "{:?} for {} at {}", other, addr, t),
            }
        }
    }

    /// An address a device holds at time t is NOT attributed to any
    /// *other* device at the same time (no address collisions).
    #[test]
    fn no_address_collisions(a in any::<u32>(), b in any::<u32>(), t_secs in 0u64..=18_835_200) {
        let w = world();
        let t = SimTime(t_secs);
        let da = v6netsim::DeviceId(a % w.device_count() as u32);
        let db = v6netsim::DeviceId(b % w.device_count() as u32);
        if da != db {
            let aa = w.contact_addr_at(da, t).map(|(x, _)| x);
            let ab = w.contact_addr_at(db, t).map(|(x, _)| x);
            if let (Some(x), Some(y)) = (aa, ab) {
                prop_assert_ne!(x, y, "devices {:?} and {:?} share {}", da, db, x);
            }
        }
    }

    /// Attachment is consistent with the produced address family: WiFi
    /// contacts use the home address, cellular contacts the cellular one.
    #[test]
    fn attachment_consistency(dev_sel in any::<u32>(), t_secs in 0u64..=18_835_200) {
        let w = world();
        let t = SimTime(t_secs);
        let id = v6netsim::DeviceId(dev_sel % w.device_count() as u32);
        if let Some((addr, _)) = w.contact_addr_at(id, t) {
            match w.attachment_at(id, t) {
                AttachKind::HomeWifi => prop_assert_eq!(Some(addr), w.home_addr_at(id, t)),
                AttachKind::Cellular => prop_assert_eq!(Some(addr), w.cellular_addr_at(id, t)),
                AttachKind::Fixed => {
                    prop_assert_eq!(Some(addr), w.device(id).fixed_addr)
                }
            }
        }
    }

    /// Probing is idempotent within a 10-minute window and never panics
    /// for arbitrary addresses in the 2a00::/16 plane.
    #[test]
    fn probe_total_and_stable(bits in any::<u128>(), t_secs in 0u64..=18_835_200, ttl in 1u8..32) {
        let w = world();
        let t = SimTime(t_secs);
        let addr = std::net::Ipv6Addr::from((0x2a00u128 << 112) | (bits >> 16));
        let o1 = w.probe_ttl(0, addr, ttl, t);
        let o2 = w.probe_ttl(0, addr, ttl, t);
        prop_assert_eq!(o1, o2);
    }

    /// Network prefixes at one instant are disjoint across networks of
    /// the same AS (no two customers hold the same delegation).
    #[test]
    fn delegations_disjoint(i in any::<u32>(), j in any::<u32>(), t_secs in 0u64..=18_835_200) {
        let w = world();
        let t = SimTime(t_secs);
        let a = (i % w.networks.len() as u32) as usize;
        let b = (j % w.networks.len() as u32) as usize;
        if a != b && w.networks[a].as_index == w.networks[b].as_index {
            let pa = w.network_prefix_at(a as u32, t);
            let pb = w.network_prefix_at(b as u32, t);
            prop_assert_ne!(pa, pb);
        }
    }
}

/// One FNV-1a fold of the probe surface on the tiny world: every third
/// device's contact address, then from one vantage AS per device the
/// hops to that address and to a vacant address in the same /64, and
/// the outcome of a probe to each at TTL 1..=7 and 64.
fn probe_surface_checksum(w: &World) -> (u64, [usize; 4]) {
    let mut h = FNV_BASIS;
    let mut fold = |x: u128| h = fnv1a(h, &x.to_le_bytes());
    // Echo, Time Exceeded, Unreachable, silence: each must be reached.
    let mut kinds = [0usize; 4];
    for d in (0..w.device_count() as u32).step_by(3) {
        let t = SimTime(u64::from(d) * 86_413 % 18_835_200);
        let Some((addr, as_index)) = w.contact_addr_at(DeviceId(d), t) else {
            fold(0);
            continue;
        };
        fold(u128::from(addr));
        fold(u128::from(as_index));
        let vp = w.vantage_points[d as usize % w.vantage_points.len()].as_index;
        let vacant = Ipv6Addr::from(u128::from(addr) ^ 0xdead_beef);
        for dst in [addr, vacant] {
            for hop in w.route_hops(vp, dst, t).iter() {
                fold(u128::from(*hop));
            }
            for ttl in (1..=7).chain([64]) {
                let (kind, from, hop) = match w.probe_ttl(vp, dst, ttl, t) {
                    ProbeOutcome::EchoReply { from } => (0, from, 0),
                    ProbeOutcome::TimeExceeded { from, hop } => (1, from, hop),
                    ProbeOutcome::Unreachable { from } => (2, from, 0),
                    ProbeOutcome::NoResponse => (3, Ipv6Addr::UNSPECIFIED, 0),
                };
                kinds[kind] += 1;
                fold(u128::from(from) ^ (u128::from(hop) << 8 | kind as u128));
            }
        }
    }
    (h, kinds)
}

/// The probe surface equals the value the simulator has produced since
/// its hash labels were strings: a label off by one byte (a dropped `/`
/// in `path/{vp}/{dst}`, say) moves addresses, hops and coin flips alike,
/// which the relative tests above, comparing the simulator with itself,
/// cannot see.
#[test]
fn probe_surface_checksum_is_pinned() {
    let (checksum, kinds) = probe_surface_checksum(world());
    assert!(kinds.iter().all(|&n| n > 0), "outcome kinds {kinds:?}");
    assert_eq!(checksum, 0x66fe_c4ec_c529_956d, "probe surface moved");
}
