//! The NTP Pool model: zones, geo-DNS and server selection (§2.3).
//!
//! `pool.ntp.org` resolves through a DNS round-robin that prefers servers
//! geographically near the client (country zone → continent zone →
//! global). That load-balancing is *why* 27 servers in 20 countries saw
//! clients from 175 countries: any country without an in-country pool
//! server spills to its continent and then the world.

use serde::{Deserialize, Serialize};

use v6netsim::geo_model::Continent;
use v6netsim::rng::hash64;
use v6netsim::{Country, CountryRegistry, SimTime, VantagePoint};

/// A pool zone name (country, continent, vendor or global).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Zone(pub String);

impl Zone {
    /// The global zone.
    pub fn global() -> Zone {
        Zone("pool.ntp.org".into())
    }

    /// A country zone like `de.pool.ntp.org`.
    pub fn country(c: Country) -> Zone {
        Zone(format!("{}.pool.ntp.org", c.as_str().to_ascii_lowercase()))
    }

    /// A continent zone like `europe.pool.ntp.org`.
    pub fn continent(c: Continent) -> Zone {
        let name = match c {
            Continent::Africa => "africa",
            Continent::Asia => "asia",
            Continent::Europe => "europe",
            Continent::NorthAmerica => "north-america",
            Continent::Oceania => "oceania",
            Continent::SouthAmerica => "south-america",
        };
        Zone(format!("{name}.pool.ntp.org"))
    }

    /// A vendor zone like `android.pool.ntp.org`. Vendor zones resolve to
    /// the same server set as the global zone (the pool's actual
    /// behaviour), but exist so vendor defaults can be modeled.
    pub fn vendor(v: &str) -> Zone {
        Zone(format!("{v}.pool.ntp.org"))
    }
}

/// The pool: the registered servers plus the selection logic.
#[derive(Debug, Clone)]
pub struct NtpPool {
    servers: Vec<VantagePoint>,
    registry: CountryRegistry,
}

impl NtpPool {
    /// Registers a set of servers (our 27 vantage points).
    pub fn new(servers: Vec<VantagePoint>, registry: CountryRegistry) -> Self {
        NtpPool { servers, registry }
    }

    /// Number of registered servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True when no servers are registered.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// All servers.
    pub fn servers(&self) -> &[VantagePoint] {
        &self.servers
    }

    /// The candidate servers geo-DNS would hand a client in `country`:
    /// in-country servers if any, else in-continent, else all.
    pub fn candidates(&self, country: Country) -> Vec<&VantagePoint> {
        let in_country: Vec<&VantagePoint> = self
            .servers
            .iter()
            .filter(|s| s.country == country)
            .collect();
        if !in_country.is_empty() {
            return in_country;
        }
        let continent = self.registry.get(country).map(|c| c.continent);
        let in_continent: Vec<&VantagePoint> = self
            .servers
            .iter()
            .filter(|s| {
                self.registry
                    .get(s.country)
                    .is_some_and(|c| Some(c.continent) == continent)
            })
            .collect();
        if !in_continent.is_empty() {
            return in_continent;
        }
        self.servers.iter().collect()
    }

    /// DNS round-robin: which server a given client resolution at time `t`
    /// lands on. Deterministic in `(client key, DNS TTL window, country)`.
    pub fn select(&self, country: Country, client_key: u64, t: SimTime) -> Option<&VantagePoint> {
        let cands = self.candidates(country);
        if cands.is_empty() {
            return None;
        }
        // Pool DNS TTL is ~150 s; a client re-resolves each sync anyway,
        // so key on a 150-second window.
        let h = hash64(
            client_key ^ (t.as_secs() / 150),
            country.as_str().as_bytes(),
        );
        Some(cands[(h % cands.len() as u64) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6netsim::{World, WorldConfig};

    fn pool() -> NtpPool {
        let w = World::build(WorldConfig::tiny(), 9);
        NtpPool::new(w.vantage_points.clone(), CountryRegistry::builtin())
    }

    #[test]
    fn zone_names() {
        assert_eq!(Zone::global().0, "pool.ntp.org");
        assert_eq!(Zone::country(Country::new("DE")).0, "de.pool.ntp.org");
        assert_eq!(
            Zone::continent(Continent::NorthAmerica).0,
            "north-america.pool.ntp.org"
        );
        assert_eq!(Zone::vendor("android").0, "android.pool.ntp.org");
    }

    #[test]
    fn in_country_clients_get_in_country_servers() {
        let p = pool();
        for vp in p.servers() {
            let c = p.candidates(vp.country);
            assert!(c.iter().all(|s| s.country == vp.country));
            assert!(!c.is_empty());
        }
    }

    #[test]
    fn uncovered_country_spills_to_continent_or_global() {
        let p = pool();
        // France has no VP; it should spill to European servers.
        let c = p.candidates(Country::new("FR"));
        assert!(!c.is_empty());
        let reg = CountryRegistry::builtin();
        for s in &c {
            assert_eq!(
                reg.get(s.country).unwrap().continent,
                Continent::Europe,
                "FR spilled outside Europe to {}",
                s.country
            );
        }
    }

    #[test]
    fn selection_is_deterministic_within_ttl() {
        let p = pool();
        let c = Country::new("US");
        // 1000 and 1040 fall in the same 150-second DNS TTL window.
        let a = p.select(c, 42, SimTime(1000)).unwrap().id;
        let b = p.select(c, 42, SimTime(1040)).unwrap().id;
        assert_eq!(a, b, "same TTL window must pin the same server");
    }

    #[test]
    fn selection_rotates_across_clients() {
        let p = pool();
        let c = Country::new("US");
        let mut seen = std::collections::BTreeSet::new();
        for key in 0..200 {
            seen.insert(p.select(c, key, SimTime(0)).unwrap().id);
        }
        // 6 US servers; round robin should hit most of them.
        assert!(seen.len() >= 4, "only {} servers used", seen.len());
    }

    #[test]
    fn world_collects_from_everywhere() {
        // The paper's point: 20 VP countries, clients from 175. Every
        // registry country must resolve to *some* server.
        let p = pool();
        for info in CountryRegistry::builtin().all() {
            assert!(
                p.select(info.code, 7, SimTime(0)).is_some(),
                "{} cannot resolve a pool server",
                info.code
            );
        }
    }
}
