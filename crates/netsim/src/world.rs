//! The synthetic Internet: construction.
//!
//! [`World::build`] instantiates countries → ASes → address regions →
//! customer networks → devices from a single seed, laying the address
//! space out deterministically so that any address can later be resolved
//! back to its (possibly former) holder without simulating packet history.
//!
//! ## Address plan
//!
//! Each dense AS index `a` owns the /32 `2a00:a::/32`:
//!
//! ```text
//! /32 ─┬─ /33 #0  infrastructure half
//! │    ├─ /48 #0      core router interfaces (::1, ::2, …)
//! │    └─ /34 #1      CPE WAN pool: one /64 per customer slot
//! └─── /33 #1  customer half
//!      ├─ eyeball/edu: delegation slots (/48, /56 or /64)
//!      ├─ mobile:      per-subscriber /64 slots
//!      └─ hosting:     server /64s (bottom) + aliased /48s (top)
//! ```
//!
//! Customer-slot assignment at prefix-rotation epoch `e` is the keyed
//! bijection [`IndexPermutation`] of `(world seed, AS, e)`, so both
//! directions — "what prefix does customer *n* hold?" and "who holds slot
//! *s*?" — are O(1).

use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr};

use serde::{Deserialize, Serialize};

use v6addr::oui_db::OuiDb;
use v6addr::{Mac, Prefix, PrefixMap};

use crate::addressing::{generate_iid, IidInputs, IidStrategy};
use crate::asn::{AsCatalog, AsInfo, AsKind, Asn};
use crate::config::WorldConfig;
use crate::device::{draw_os, ActivityProfile, DeviceId, DeviceKind, Os, VendorPools};
use crate::geo_model::{Country, CountryRegistry};
use crate::permute::IndexPermutation;
use crate::rng::{hash_label, Rng};
use crate::time::SimTime;

/// A device's home-network slot.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HomeSlot {
    /// World-wide network id.
    pub network: u32,
    /// Which /64 of the delegated prefix the device sits in.
    pub subnet: u8,
    /// Stable index of the device within the network.
    pub host_index: u16,
}

/// A device's cellular subscription.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CellSlot {
    /// Dense index of the mobile AS.
    pub as_index: u16,
    /// Subscriber index within that AS.
    pub subscriber: u32,
}

/// One device in the world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Device {
    /// Dense world-wide id.
    pub id: DeviceId,
    /// What the box is.
    pub kind: DeviceKind,
    /// Its operating system (drives NTP behaviour).
    pub os: Os,
    /// Its MAC address (leaks via EUI-64 when the strategy says so).
    pub mac: Mac,
    /// How it forms IIDs.
    pub strategy: IidStrategy,
    /// Per-device deterministic seed.
    pub seed: u64,
    /// Home attachment, if any.
    pub home: Option<HomeSlot>,
    /// Cellular attachment, if any.
    pub cellular: Option<CellSlot>,
    /// Precomputed address for fixed infrastructure (servers, routers).
    pub fixed_addr: Option<Ipv6Addr>,
    /// Whether the device's OS syncs time against the NTP Pool.
    pub uses_pool: bool,
    /// NTP contact behaviour.
    pub activity: ActivityProfile,
}

impl Device {
    /// The [`IidInputs`] for address generation.
    pub fn iid_inputs(&self, ipv4: Option<Ipv4Addr>) -> IidInputs {
        IidInputs {
            mac: self.mac,
            device_seed: self.seed,
            ipv4,
            host_index: self.home.map(|h| h.host_index).unwrap_or(0),
        }
    }
}

/// One fixed-line customer network (a home, or an Edu department).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HomeNetwork {
    /// World-wide network id.
    pub id: u32,
    /// Dense index of the owning AS.
    pub as_index: u16,
    /// Index within the AS (domain of the rotation permutation).
    pub local_index: u32,
    /// Whether the CPE filters unsolicited inbound traffic.
    pub firewalled: bool,
    /// The CPE router.
    pub cpe: DeviceId,
    /// Device-id range `[start, end)` of LAN devices (excludes the CPE).
    pub device_range: (u32, u32),
}

impl HomeNetwork {
    /// Iterates the LAN device ids.
    pub fn lan_devices(&self) -> impl Iterator<Item = DeviceId> {
        (self.device_range.0..self.device_range.1).map(DeviceId)
    }
}

/// What kind of address region a route-table entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Region {
    /// Core router interface /48.
    CoreRouters,
    /// CPE WAN /34 pool (one /64 per customer slot).
    CpeWanPool,
    /// Fixed-line customer delegation pool.
    HomePool,
    /// Mobile per-subscriber /64 pool.
    MobilePool,
    /// Hosting server /64s.
    ServerPool,
    /// A fully aliased prefix: every address answers.
    Aliased,
}

/// A route-table entry: which AS, and which of its regions.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RouteEntry {
    /// Dense AS index.
    pub as_index: u16,
    /// Region kind.
    pub region: Region,
}

/// Per-AS runtime state.
#[derive(Debug, Clone)]
pub struct AsRuntime {
    /// Static catalog facts.
    pub info: AsInfo,
    /// Dense index (position in `World::ases`).
    pub index: u16,
    /// Permutation domain for home-network slots.
    pub home_slot_count: u64,
    /// Permutation domain for mobile-subscriber slots.
    pub mobile_slot_count: u64,
    /// local_index → network id.
    pub network_ids: Vec<u32>,
    /// subscriber index → device id.
    pub subscriber_ids: Vec<DeviceId>,
    /// Hosting servers.
    pub server_ids: Vec<DeviceId>,
    /// Core router devices.
    pub router_ids: Vec<DeviceId>,
    /// Ground-truth fully aliased prefixes in this AS.
    pub alias_48s: Vec<Prefix>,
}

impl AsRuntime {
    /// The AS's /32.
    pub fn prefix32(&self) -> Prefix {
        as_prefix32(self.index)
    }

    /// The infrastructure /33.
    pub fn infra33(&self) -> Prefix {
        self.prefix32().subprefix(33, 0)
    }

    /// The core-router /48.
    pub fn router48(&self) -> Prefix {
        self.infra33().subprefix(48, 0)
    }

    /// The CPE-WAN /34.
    pub fn cpe_wan34(&self) -> Prefix {
        self.infra33().subprefix(34, 1)
    }

    /// The customer /33.
    pub fn customer33(&self) -> Prefix {
        self.prefix32().subprefix(33, 1)
    }

    /// The AS's synthetic IPv4 block (a /20), for embedded-IPv4 checks.
    pub fn v4_block(&self) -> (u32, u8) {
        ((100u32 << 24) | ((self.index as u32) << 12), 20)
    }

    /// A deterministic IPv4 address for one of this AS's hosts.
    pub fn v4_for(&self, seed: u64) -> Ipv4Addr {
        let (base, _) = self.v4_block();
        Ipv4Addr::from(base | (seed as u32 & 0xfff))
    }
}

/// The /32 owned by dense AS index `a`: `2a00:<a>::/32`.
pub fn as_prefix32(a: u16) -> Prefix {
    Prefix::from_bits((0x2a00u128 << 112) | ((a as u128) << 96), 32)
}

/// An NTP-server vantage point (one of the paper's 27 VPSes).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VantagePoint {
    /// Stable VP id (0..27).
    pub id: u16,
    /// Hosting AS the VPS lives in.
    pub as_index: u16,
    /// Country of the VPS.
    pub country: Country,
    /// The server's own address.
    pub addr: Ipv6Addr,
}

/// The fully built synthetic Internet.
///
/// ```
/// use v6netsim::{SimTime, World, WorldConfig};
///
/// let world = World::build(WorldConfig::tiny(), 42);
/// // Forward: what address does a device present right now?
/// let cpe = world.networks[0].cpe;
/// let addr = world.home_addr_at(cpe, SimTime(0)).unwrap();
/// // Inverse: who holds that address? (No packet history needed.)
/// assert!(matches!(
///     world.resolve(addr, SimTime(0)),
///     v6netsim::Resolution::CpeWan { .. } | v6netsim::Resolution::Alias
/// ));
/// ```
pub struct World {
    /// The seed everything derives from.
    pub seed: u64,
    /// Scale configuration.
    pub config: WorldConfig,
    /// Country registry.
    pub countries: CountryRegistry,
    /// Per-AS runtime state; index is the dense AS id.
    pub ases: Vec<AsRuntime>,
    /// All fixed-line customer networks.
    pub networks: Vec<HomeNetwork>,
    /// All devices.
    pub devices: Vec<Device>,
    /// The OUI registry in force.
    pub oui_db: OuiDb,
    /// The 27 NTP vantage points.
    pub vantage_points: Vec<VantagePoint>,
    pub(crate) route: PrefixMap<RouteEntry>,
    pub(crate) fixed_addrs: HashMap<u128, DeviceId>,
    /// Dense indices of the transit ASes that have core routers, in
    /// index order: the ASes a probe's path crosses.
    pub(crate) transit: Vec<u16>,
    /// Per-AS scheduled outage windows as (first_day, end_day) pairs.
    pub(crate) outage_windows: Vec<Vec<(u64, u64)>>,
}

impl World {
    /// Builds a world from a configuration and seed. Bit-reproducible.
    pub fn build(config: WorldConfig, seed: u64) -> World {
        let countries = CountryRegistry::builtin();
        let catalog = AsCatalog::builtin(&countries);
        let oui_db = OuiDb::builtin();
        let pools = VendorPools::builtin(&oui_db);
        let root = Rng::new(seed);

        let mut ases: Vec<AsRuntime> = catalog
            .ases
            .iter()
            .enumerate()
            .map(|(i, info)| AsRuntime {
                info: info.clone(),
                index: i as u16,
                home_slot_count: 1,
                mobile_slot_count: 1,
                network_ids: Vec::new(),
                subscriber_ids: Vec::new(),
                server_ids: Vec::new(),
                router_ids: Vec::new(),
                alias_48s: Vec::new(),
            })
            .collect();

        // ---- Apportion home networks and mobile subscribers ----
        // Weight of an AS = country client weight × AS share within it.
        let weight_of = |a: &AsInfo, kinds: &[AsKind]| -> f64 {
            if !kinds.contains(&a.kind) {
                return 0.0;
            }
            let cw = countries
                .get(a.country)
                .map(|c| c.client_weight)
                .unwrap_or(0.0);
            cw * a.client_share
        };
        let home_weights: Vec<f64> = catalog
            .ases
            .iter()
            .map(|a| weight_of(a, &[AsKind::EyeballIsp, AsKind::Edu]))
            .collect();
        let mobile_weights: Vec<f64> = catalog
            .ases
            .iter()
            .map(|a| weight_of(a, &[AsKind::MobileIsp]))
            .collect();
        let apportion = |weights: &[f64], total: u32| -> Vec<u32> {
            let sum: f64 = weights.iter().sum();
            weights
                .iter()
                .map(|w| ((w / sum) * total as f64).round() as u32)
                .collect()
        };
        let homes_per_as = apportion(&home_weights, config.home_networks);
        let subs_per_as = apportion(&mobile_weights, config.mobile_subscribers);

        let mut devices: Vec<Device> = Vec::new();
        let mut networks: Vec<HomeNetwork> = Vec::new();
        let mut fixed_addrs: HashMap<u128, DeviceId> = HashMap::new();

        // ---- Core routers (every AS) ----
        #[allow(clippy::needless_range_loop)] // `ases` is mutated by index
        for ai in 0..ases.len() {
            let mut rng = root.fork(b"routers", ai as u64);
            let r48 = ases[ai].router48();
            for k in 0..config.core_routers_per_as {
                let id = DeviceId(devices.len() as u32);
                let addr = r48.offset(k as u128 + 1);
                devices.push(Device {
                    id,
                    kind: DeviceKind::CoreRouter,
                    os: Os::Embedded,
                    mac: pools.draw_mac(DeviceKind::CoreRouter, &mut rng),
                    strategy: IidStrategy::LowByte,
                    seed: hash_label(seed, "router", &[ai as u64, u64::from(k)]),
                    home: None,
                    cellular: None,
                    fixed_addr: Some(addr),
                    uses_pool: false,
                    activity: ActivityProfile::for_kind(DeviceKind::CoreRouter),
                });
                fixed_addrs.insert(u128::from(addr), id);
                ases[ai].router_ids.push(id);
            }
        }

        // ---- Hosting servers and aliased prefixes ----
        #[allow(clippy::needless_range_loop)] // `ases` is mutated by index
        for ai in 0..ases.len() {
            if ases[ai].info.kind != AsKind::Hosting {
                continue;
            }
            let mut rng = root.fork(b"servers", ai as u64);
            let cust = ases[ai].customer33();
            for j in 0..config.servers_per_hosting_as {
                let id = DeviceId(devices.len() as u32);
                let dev_seed = hash_label(seed, "server", &[ai as u64, u64::from(j)]);
                // Cloud/CDN fleets mostly carry provider-assigned random
                // addresses; manual low-byte addressing is the minority
                // (this is what pulls the Hitlist's entropy CDF above
                // CAIDA's in Fig. 1).
                let strategy = {
                    let x = rng.f64();
                    if x < 0.30 {
                        IidStrategy::LowByte
                    } else if x < 0.375 {
                        IidStrategy::LowTwoBytes
                    } else if x < 0.45 {
                        IidStrategy::Ipv4Embedded(v6addr::ipv4_embed::Ipv4Encoding::LowHex)
                    } else {
                        IidStrategy::StableRandom
                    }
                };
                let mac = pools.draw_mac(DeviceKind::Server, &mut rng);
                let net64 = cust.subprefix(64, j as u64);
                let server_v4 = {
                    let (base, _) = ((100u32 << 24) | ((ai as u32) << 12), 20u8);
                    std::net::Ipv4Addr::from(base | (dev_seed as u32 & 0xfff))
                };
                let inputs = IidInputs {
                    mac,
                    device_seed: dev_seed,
                    ipv4: Some(server_v4),
                    host_index: j as u16,
                };
                let iid = generate_iid(strategy, &inputs, 0, 0);
                let addr = v6addr::join((net64.bits() >> 64) as u64, iid);
                devices.push(Device {
                    id,
                    kind: DeviceKind::Server,
                    os: draw_os(DeviceKind::Server, &mut rng),
                    mac,
                    strategy,
                    seed: dev_seed,
                    home: None,
                    cellular: None,
                    fixed_addr: Some(addr),
                    uses_pool: rng.chance(0.5), // many Linux servers do use the pool
                    activity: ActivityProfile::for_kind(DeviceKind::Server),
                });
                fixed_addrs.insert(u128::from(addr), id);
                ases[ai].server_ids.push(id);
            }
            // Aliased /48s at the top of the customer half.
            let max48 = cust.subprefix_count(48);
            for j in 0..config.aliased_48s_per_hosting_as as u64 {
                ases[ai].alias_48s.push(cust.subprefix(48, max48 - 1 - j));
            }
        }

        // ---- Fixed-line customer networks ----
        let device_kind_weights: [(DeviceKind, f64); 6] = [
            (DeviceKind::Smartphone, 0.35),
            (DeviceKind::Laptop, 0.20),
            (DeviceKind::Desktop, 0.10),
            (DeviceKind::IotSensor, 0.15),
            (DeviceKind::SmartSpeaker, 0.08),
            (DeviceKind::SetTopBox, 0.12),
        ];
        let avm = VendorPools::avm_ouis(&oui_db);
        for ai in 0..ases.len() {
            let n_homes = homes_per_as[ai];
            if n_homes == 0 {
                continue;
            }
            let profile = ases[ai].info.profile.clone();
            let is_german = ases[ai].info.country == Country::new("DE");
            ases[ai].home_slot_count = slot_domain(n_homes as u64, profile.delegation_len, 33);
            // Mobile-AS list of the same country, for dual-homed phones.
            let same_country_mobile: Vec<u16> = ases
                .iter()
                .filter(|r| {
                    r.info.kind == AsKind::MobileIsp && r.info.country == ases[ai].info.country
                })
                .map(|r| r.index)
                .collect();
            for local in 0..n_homes {
                let net_id = networks.len() as u32;
                let mut rng = root.fork(b"home", ((ai as u64) << 32) | local as u64);
                let firewalled = rng.chance(profile.firewall_rate);

                // CPE first.
                let cpe_id = DeviceId(devices.len() as u32);
                let cpe_seed = hash_label(seed, "cpe", &[ai as u64, u64::from(local)]);
                let cpe_mac = if is_german && !avm.is_empty() {
                    pools.draw_mac_with_oui(*rng.choose(&avm), &mut rng)
                } else {
                    pools.draw_mac(DeviceKind::CpeRouter, &mut rng)
                };
                let cpe_strategy = if rng.chance(profile.cpe_eui64_rate) {
                    IidStrategy::Eui64
                } else {
                    IidStrategy::StableRandom
                };
                devices.push(Device {
                    id: cpe_id,
                    kind: DeviceKind::CpeRouter,
                    os: Os::Embedded,
                    mac: cpe_mac,
                    strategy: cpe_strategy,
                    seed: cpe_seed,
                    home: Some(HomeSlot {
                        network: net_id,
                        subnet: 0,
                        host_index: 0,
                    }),
                    cellular: None,
                    fixed_addr: None,
                    uses_pool: rng.chance(0.6),
                    activity: ActivityProfile::for_kind(DeviceKind::CpeRouter),
                });

                // LAN devices.
                let n_dev = 1 + rng.poisson((config.mean_devices_per_home - 1.0).max(0.0)) as u32;
                let start = devices.len() as u32;
                let max_subnet: u8 = match profile.delegation_len {
                    64 => 1,
                    56 => 4,
                    _ => 16,
                };
                for h in 0..n_dev {
                    let id = DeviceId(devices.len() as u32);
                    let w: Vec<f64> = device_kind_weights.iter().map(|&(_, w)| w).collect();
                    let kind = device_kind_weights[rng.weighted(&w)].0;
                    let os = draw_os(kind, &mut rng);
                    let dev_seed =
                        hash_label(seed, "dev", &[ai as u64, u64::from(local), u64::from(h)]);
                    // IoT-ish gear skews EUI-64 regardless of AS profile.
                    let mut strategy = profile.draw_strategy(&mut rng);
                    if matches!(
                        kind,
                        DeviceKind::IotSensor | DeviceKind::SmartSpeaker | DeviceKind::SetTopBox
                    ) && rng.chance(0.25)
                    {
                        strategy = IidStrategy::Eui64;
                    }
                    let cellular = if kind == DeviceKind::Smartphone
                        && !same_country_mobile.is_empty()
                        && rng.chance(config.dual_homed_phone_rate)
                    {
                        let m_as = *rng.choose(&same_country_mobile);
                        Some(CellSlot {
                            as_index: m_as,
                            subscriber: u32::MAX, // patched below
                        })
                    } else {
                        None
                    };
                    devices.push(Device {
                        id,
                        kind,
                        os,
                        mac: pools.draw_mac(kind, &mut rng),
                        strategy,
                        seed: dev_seed,
                        home: Some(HomeSlot {
                            network: net_id,
                            subnet: rng.below(max_subnet as u64) as u8,
                            host_index: (h + 1) as u16,
                        }),
                        cellular,
                        fixed_addr: None,
                        uses_pool: os.uses_ntp_pool(),
                        activity: ActivityProfile::for_kind(kind),
                    });
                }
                let end = devices.len() as u32;
                networks.push(HomeNetwork {
                    id: net_id,
                    as_index: ai as u16,
                    local_index: local,
                    firewalled,
                    cpe: cpe_id,
                    device_range: (start, end),
                });
                ases[ai].network_ids.push(net_id);
            }
        }

        // ---- Mobile-only subscribers ----
        for ai in 0..ases.len() {
            let n_subs = subs_per_as[ai];
            if n_subs == 0 {
                continue;
            }
            let mut rng = root.fork(b"mobile", ai as u64);
            let profile = ases[ai].info.profile.clone();
            for s in 0..n_subs {
                let id = DeviceId(devices.len() as u32);
                let kind = if rng.chance(0.92) {
                    DeviceKind::Smartphone
                } else {
                    DeviceKind::IotSensor // cellular IoT
                };
                let os = draw_os(kind, &mut rng);
                let dev_seed = hash_label(seed, "sub", &[ai as u64, u64::from(s)]);
                let mut strategy = profile.draw_strategy(&mut rng);
                if kind == DeviceKind::IotSensor && rng.chance(0.3) {
                    strategy = IidStrategy::Eui64;
                }
                devices.push(Device {
                    id,
                    kind,
                    os,
                    mac: pools.draw_mac(kind, &mut rng),
                    strategy,
                    seed: dev_seed,
                    home: None,
                    cellular: Some(CellSlot {
                        as_index: ai as u16,
                        subscriber: ases[ai].subscriber_ids.len() as u32,
                    }),
                    fixed_addr: None,
                    uses_pool: os.uses_ntp_pool(),
                    activity: ActivityProfile::for_kind(kind),
                });
                ases[ai].subscriber_ids.push(id);
            }
        }

        // ---- Patch dual-homed phones into subscriber tables ----
        #[allow(clippy::needless_range_loop)] // `devices` is mutated by index
        for d in 0..devices.len() {
            if let Some(CellSlot {
                as_index,
                subscriber,
            }) = devices[d].cellular
            {
                if subscriber == u32::MAX {
                    let sub = ases[as_index as usize].subscriber_ids.len() as u32;
                    ases[as_index as usize]
                        .subscriber_ids
                        .push(DeviceId(d as u32));
                    devices[d].cellular = Some(CellSlot {
                        as_index,
                        subscriber: sub,
                    });
                }
            }
        }
        for asr in ases.iter_mut() {
            asr.mobile_slot_count = slot_domain(asr.subscriber_ids.len() as u64, 64, 33);
        }

        // ---- Route table ----
        let mut route = PrefixMap::new();
        for asr in &ases {
            route.insert(
                asr.router48(),
                RouteEntry {
                    as_index: asr.index,
                    region: Region::CoreRouters,
                },
            );
            match asr.info.kind {
                AsKind::EyeballIsp | AsKind::Edu => {
                    route.insert(
                        asr.cpe_wan34(),
                        RouteEntry {
                            as_index: asr.index,
                            region: Region::CpeWanPool,
                        },
                    );
                    route.insert(
                        asr.customer33(),
                        RouteEntry {
                            as_index: asr.index,
                            region: Region::HomePool,
                        },
                    );
                }
                AsKind::MobileIsp => {
                    route.insert(
                        asr.customer33(),
                        RouteEntry {
                            as_index: asr.index,
                            region: Region::MobilePool,
                        },
                    );
                }
                AsKind::Hosting => {
                    route.insert(
                        asr.customer33(),
                        RouteEntry {
                            as_index: asr.index,
                            region: Region::ServerPool,
                        },
                    );
                    for p in &asr.alias_48s {
                        route.insert(
                            *p,
                            RouteEntry {
                                as_index: asr.index,
                                region: Region::Aliased,
                            },
                        );
                    }
                }
                AsKind::Transit => {}
            }
        }

        // ---- Vantage points: 27 servers in 20 countries (§3) ----
        let vp_countries = [
            "US", "US", "US", "US", "US", "US", "JP", "JP", "DE", "DE", "AU", "BH", "BR", "BG",
            "HK", "IN", "ID", "MX", "NL", "PL", "SG", "ZA", "KR", "ES", "SE", "TW", "GB",
        ];
        let hosting: Vec<u16> = ases
            .iter()
            .filter(|a| a.info.kind == AsKind::Hosting)
            .map(|a| a.index)
            .collect();
        let mut vp_rng = root.fork(b"vps", 0);
        let vantage_points: Vec<VantagePoint> = vp_countries
            .iter()
            .enumerate()
            .map(|(i, cc)| {
                let country = Country::new(cc);
                // Prefer a hosting AS in-country; fall back to any.
                let in_country: Vec<u16> = hosting
                    .iter()
                    .copied()
                    .filter(|&h| ases[h as usize].info.country == country)
                    .collect();
                let as_index = if in_country.is_empty() {
                    hosting[vp_rng.below(hosting.len() as u64) as usize]
                } else {
                    *vp_rng.choose(&in_country)
                };
                // VPs live in a reserved /64 of the hosting customer half,
                // far above the server slots.
                let net64 = ases[as_index as usize]
                    .customer33()
                    .subprefix(64, (1u64 << 30) + i as u64);
                let addr = v6addr::join((net64.bits() >> 64) as u64, v6addr::Iid::new(0x123));
                VantagePoint {
                    id: i as u16,
                    as_index,
                    country,
                    addr,
                }
            })
            .collect();

        // Resolve scheduled outages to dense AS indices.
        let mut outage_windows: Vec<Vec<(u64, u64)>> = vec![Vec::new(); ases.len()];
        for spec in &config.outages {
            if let Some(asr) = ases.iter().find(|a| a.info.name == spec.as_name) {
                outage_windows[asr.index as usize]
                    .push((spec.start_day, spec.start_day + spec.duration_days));
            }
        }

        let transit = (ases.iter())
            .filter(|a| a.info.kind == AsKind::Transit && !a.router_ids.is_empty())
            .map(|a| a.index)
            .collect();

        World {
            seed,
            config,
            countries,
            ases,
            networks,
            devices,
            oui_db,
            vantage_points,
            route,
            fixed_addrs,
            transit,
            outage_windows,
        }
    }

    /// True when AS `as_index` is inside a scheduled outage at `t`.
    pub fn as_is_out(&self, as_index: u16, t: SimTime) -> bool {
        let day = t.as_secs() / 86_400;
        self.outage_windows[as_index as usize]
            .iter()
            .any(|&(a, b)| day >= a && day < b)
    }

    /// Stride spreading customer slots across the pool region, so active
    /// delegations scatter over many /48s instead of packing the bottom
    /// of the pool (domain and capacity are both powers of two).
    pub(crate) fn home_stride(&self, as_index: u16) -> u64 {
        let asr = &self.ases[as_index as usize];
        let cap_bits = (asr.info.profile.delegation_len - 33).min(40);
        // Dense regional pools: several customers share a /48, but the
        // occupied region spans many /48s (real ISPs allocate in blocks).
        ((1u64 << cap_bits) / asr.home_slot_count).clamp(1, 64)
    }

    /// Stride for the CPE-WAN /64 pool (capacity 2^30 slots in the /34).
    pub(crate) fn wan_stride(&self, as_index: u16) -> u64 {
        let asr = &self.ases[as_index as usize];
        ((1u64 << 30) / asr.home_slot_count).clamp(1, 256)
    }

    /// Stride for the mobile /64 pool (capacity 2^31 slots in the /33).
    pub(crate) fn mobile_stride(&self, as_index: u16) -> u64 {
        let asr = &self.ases[as_index as usize];
        ((1u64 << 31) / asr.mobile_slot_count).clamp(1, 256)
    }

    /// The rotation permutation for an AS's home slots at epoch `e`.
    pub(crate) fn home_perm(&self, as_index: u16, epoch: u64) -> IndexPermutation {
        let asr = &self.ases[as_index as usize];
        IndexPermutation::new(
            asr.home_slot_count,
            hash_label(
                self.seed ^ epoch.wrapping_mul(0x9e37),
                "hperm",
                &[u64::from(as_index)],
            ),
        )
    }

    /// The attach permutation for an AS's mobile slots at epoch `e`.
    pub(crate) fn mobile_perm(&self, as_index: u16, epoch: u64) -> IndexPermutation {
        let asr = &self.ases[as_index as usize];
        IndexPermutation::new(
            asr.mobile_slot_count,
            hash_label(
                self.seed ^ epoch.wrapping_mul(0x85eb),
                "mperm",
                &[u64::from(as_index)],
            ),
        )
    }

    /// Every routed prefix with its origin ASN (the BGP view active
    /// campaigns start from).
    pub fn routed_prefixes(&self) -> Vec<(Prefix, Asn)> {
        self.ases
            .iter()
            .map(|a| (a.prefix32(), a.info.asn))
            .collect()
    }

    /// Origin-AS lookup for an address.
    pub fn asn_of(&self, addr: Ipv6Addr) -> Option<Asn> {
        let bits = u128::from(addr);
        if bits >> 112 != 0x2a00 {
            return None;
        }
        let idx = ((bits >> 96) & 0xffff) as usize;
        self.ases.get(idx).map(|a| a.info.asn)
    }

    /// Dense AS index for an address.
    pub fn as_index_of(&self, addr: Ipv6Addr) -> Option<u16> {
        let bits = u128::from(addr);
        if bits >> 112 != 0x2a00 {
            return None;
        }
        let idx = ((bits >> 96) & 0xffff) as u16;
        if (idx as usize) < self.ases.len() {
            Some(idx)
        } else {
            None
        }
    }

    /// Ground-truth country of an address (via its origin AS).
    pub fn country_of(&self, addr: Ipv6Addr) -> Option<Country> {
        self.as_index_of(addr)
            .map(|i| self.ases[i as usize].info.country)
    }

    /// All ground-truth fully aliased prefixes.
    pub fn aliased_prefixes(&self) -> Vec<Prefix> {
        self.ases.iter().flat_map(|a| a.alias_48s.clone()).collect()
    }

    /// Servers whose addresses are public knowledge (DNS, CT logs, …) —
    /// the seed corpus active hitlists bootstrap from.
    pub fn public_servers(&self) -> Vec<Ipv6Addr> {
        self.devices
            .iter()
            .filter(|d| d.kind == DeviceKind::Server)
            .filter(|d| d.seed & 0b111 < 5) // ~60% are in DNS
            .filter_map(|d| d.fixed_addr)
            .collect()
    }

    /// Total number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// A device by id.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.0 as usize]
    }

    /// A network by id.
    pub fn network(&self, id: u32) -> &HomeNetwork {
        &self.networks[id as usize]
    }

    /// Route-table lookup (most specific region covering `addr`).
    pub fn route_lookup(&self, addr: Ipv6Addr) -> Option<(Prefix, RouteEntry)> {
        self.route.longest_match(addr).map(|(p, e)| (p, *e))
    }
}

/// Picks a permutation domain much larger than `n` occupied slots (real
/// delegation pools are sparse: most /48s of an ISP's block hold no
/// active customer), capped by the slots that fit in the region.
fn slot_domain(n: u64, delegation_len: u8, pool_len: u8) -> u64 {
    let cap_bits = (delegation_len - pool_len).min(40);
    let cap = 1u64 << cap_bits;
    let want = (n.max(1) * 64).next_power_of_two();
    want.min(cap).max(1)
}

/// Deterministic "is this phone on WiFi this hour?" draw.
pub(crate) fn on_wifi(world_seed: u64, device_seed: u64, t: SimTime, wifi_presence: f64) -> bool {
    let h = hash_label(world_seed ^ device_seed, "wifi", &[t.as_secs() / 3600]);
    (h as f64 / u64::MAX as f64) < wifi_presence
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> World {
        World::build(WorldConfig::tiny(), 42)
    }

    #[test]
    fn build_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.device_count(), b.device_count());
        assert_eq!(a.networks.len(), b.networks.len());
        for (x, y) in a.devices.iter().zip(b.devices.iter()).take(500) {
            assert_eq!(x.mac, y.mac);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.strategy, y.strategy);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::build(WorldConfig::tiny(), 1);
        let b = World::build(WorldConfig::tiny(), 2);
        let same = a
            .devices
            .iter()
            .zip(b.devices.iter())
            .filter(|(x, y)| x.mac == y.mac)
            .count();
        assert!(same < a.device_count() / 10);
    }

    #[test]
    fn network_counts_match_config() {
        let w = tiny();
        let total: u32 = w.config.home_networks;
        // Rounding in apportionment allows small drift.
        assert!((w.networks.len() as i64 - total as i64).unsigned_abs() < total as u64 / 10 + 20);
    }

    #[test]
    fn every_network_has_cpe_and_devices() {
        let w = tiny();
        for n in &w.networks {
            let cpe = w.device(n.cpe);
            assert_eq!(cpe.kind, DeviceKind::CpeRouter);
            assert_eq!(cpe.home.unwrap().network, n.id);
            assert!(n.device_range.1 > n.device_range.0, "empty home {}", n.id);
            for d in n.lan_devices() {
                assert_eq!(w.device(d).home.unwrap().network, n.id);
            }
        }
    }

    #[test]
    fn mobile_subscribers_indexed_consistently() {
        let w = tiny();
        for asr in &w.ases {
            for (i, &id) in asr.subscriber_ids.iter().enumerate() {
                let cell = w.device(id).cellular.unwrap();
                assert_eq!(cell.as_index, asr.index);
                assert_eq!(cell.subscriber as usize, i);
            }
            assert!(asr.mobile_slot_count >= asr.subscriber_ids.len() as u64);
            assert!(asr.home_slot_count >= asr.network_ids.len() as u64);
        }
    }

    #[test]
    fn asn_lookup_round_trips() {
        let w = tiny();
        for asr in w.ases.iter().take(20) {
            let addr = asr.router48().offset(1);
            assert_eq!(w.asn_of(addr), Some(asr.info.asn));
            assert_eq!(w.country_of(addr), Some(asr.info.country));
        }
        assert_eq!(w.asn_of("2001:db8::1".parse().unwrap()), None);
    }

    #[test]
    fn route_table_covers_regions() {
        let w = tiny();
        let eyeball = w
            .ases
            .iter()
            .find(|a| a.info.kind == AsKind::EyeballIsp && !a.network_ids.is_empty())
            .unwrap();
        let (_, e) = w.route_lookup(eyeball.customer33().offset(12345)).unwrap();
        assert_eq!(e.region, Region::HomePool);
        let (_, e) = w.route_lookup(eyeball.router48().offset(1)).unwrap();
        assert_eq!(e.region, Region::CoreRouters);
        let hosting = w
            .ases
            .iter()
            .find(|a| a.info.kind == AsKind::Hosting)
            .unwrap();
        let alias = hosting.alias_48s[0];
        let (_, e) = w.route_lookup(alias.offset(0xdeadbeef)).unwrap();
        assert_eq!(e.region, Region::Aliased);
    }

    #[test]
    fn vantage_points_match_paper_layout() {
        let w = tiny();
        assert_eq!(w.vantage_points.len(), 27);
        let us = w
            .vantage_points
            .iter()
            .filter(|v| v.country == Country::new("US"))
            .count();
        assert_eq!(us, 6);
        let countries: std::collections::BTreeSet<_> =
            w.vantage_points.iter().map(|v| v.country).collect();
        assert_eq!(countries.len(), 20);
    }

    #[test]
    fn fixed_addrs_resolve_to_their_devices() {
        let w = tiny();
        for d in w
            .devices
            .iter()
            .filter(|d| d.fixed_addr.is_some())
            .take(100)
        {
            let got = w.fixed_addrs.get(&u128::from(d.fixed_addr.unwrap()));
            assert_eq!(got, Some(&d.id));
        }
    }

    #[test]
    fn public_servers_subset_of_servers() {
        let w = tiny();
        let servers: std::collections::HashSet<u128> = w
            .devices
            .iter()
            .filter(|d| d.kind == DeviceKind::Server)
            .filter_map(|d| d.fixed_addr.map(u128::from))
            .collect();
        let public = w.public_servers();
        assert!(!public.is_empty());
        assert!(public.len() < servers.len());
        for p in &public {
            assert!(servers.contains(&u128::from(*p)));
        }
    }

    #[test]
    fn slot_domain_bounds() {
        assert!(slot_domain(100, 56, 33) >= 6400);
        assert_eq!(slot_domain(0, 56, 33), 64); // max(1*64)
                                                // /64 delegations in a /33 cap at 2^31 but want stays small.
        assert_eq!(slot_domain(1000, 64, 33), 65_536);
        // Edu /48 delegations cap at 2^15.
        assert_eq!(slot_domain(40_000, 48, 33), 1 << 15);
    }

    #[test]
    fn german_cpe_is_avm_eui64_heavy() {
        let w = tiny();
        let de: Vec<&HomeNetwork> = w
            .networks
            .iter()
            .filter(|n| w.ases[n.as_index as usize].info.country == Country::new("DE"))
            .collect();
        assert!(!de.is_empty(), "no German networks in tiny world");
        let avm = VendorPools::avm_ouis(&w.oui_db);
        let eui = de
            .iter()
            .filter(|n| w.device(n.cpe).strategy == IidStrategy::Eui64)
            .count();
        let avm_count = de
            .iter()
            .filter(|n| avm.contains(&w.device(n.cpe).mac.oui()))
            .count();
        assert!(eui as f64 / de.len() as f64 > 0.6, "{eui}/{}", de.len());
        assert!(avm_count as f64 / de.len() as f64 > 0.9);
    }
}
