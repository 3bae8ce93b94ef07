//! The NTP Pool model: geo-DNS and server selection (§2.3).
//!
//! `pool.ntp.org` resolves through a DNS round-robin that prefers servers
//! geographically near the client (country zone → continent zone →
//! global). That load-balancing is *why* 27 servers in 20 countries saw
//! clients from 175 countries: any country without an in-country pool
//! server spills to its continent and then the world.

use v6netsim::rng::hash64;
use v6netsim::{Country, CountryRegistry, SimTime, VantagePoint};

/// Two-letter codes `AA..=ZZ`, the slots of the candidate table.
const CODES: usize = 26 * 26;

/// The pool: the registered servers plus the selection logic.
///
/// Geo-DNS candidates depend only on the client's country, so
/// [`NtpPool::new`] resolves them once for every code `AA..=ZZ`: `spans`
/// holds, per code, a range of `ids`, which lists server indices. The
/// distinct candidate lists are few (one per server country, one per
/// continent, the global one) and each is stored once.
#[derive(Debug, Clone)]
pub struct NtpPool {
    servers: Vec<VantagePoint>,
    ids: Vec<u32>,
    spans: Vec<(u32, u32)>,
}

impl NtpPool {
    /// Registers a set of servers (our 27 vantage points) and resolves
    /// each country's geo-DNS candidates against `registry`.
    pub fn new(servers: Vec<VantagePoint>, registry: CountryRegistry) -> Self {
        let continent = |c: Country| registry.get(c).map(|info| info.continent);
        let server_continents: Vec<_> = servers.iter().map(|s| continent(s.country)).collect();
        let pick = |keep: &dyn Fn(usize) -> bool| -> Vec<u32> {
            (0..servers.len())
                .filter(|&i| keep(i))
                .map(|i| i as u32)
                .collect()
        };
        // The global list comes first, so `(0, len)` is its span.
        let mut ids = pick(&|_| true);
        let mut spans: Vec<(u32, u32)> = Vec::with_capacity(CODES);
        for slot in 0..CODES {
            let country = Country([b'A' + (slot / 26) as u8, b'A' + (slot % 26) as u8]);
            let home = continent(country);
            let mut list = pick(&|i| servers[i].country == country);
            if list.is_empty() {
                list = pick(&|i| home.is_some() && server_continents[i] == home);
            }
            if list.is_empty() {
                list = pick(&|_| true);
            }
            let known = spans
                .iter()
                .copied()
                .find(|&(lo, hi)| ids[lo as usize..hi as usize] == list[..]);
            spans.push(known.unwrap_or_else(|| {
                let lo = ids.len() as u32;
                ids.extend_from_slice(&list);
                (lo, ids.len() as u32)
            }));
        }
        NtpPool {
            servers,
            ids,
            spans,
        }
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

    /// Indices into [`servers`](Self::servers) of the candidates geo-DNS
    /// hands a client in `country`. [`Country::new`] builds only codes
    /// `AA..=ZZ`; any other code gets all servers.
    fn candidate_ids(&self, country: Country) -> &[u32] {
        let (lo, hi) = match country.0.map(|b| b.wrapping_sub(b'A') as usize) {
            [a, b] if a < 26 && b < 26 => self.spans[a * 26 + b],
            _ => (0, self.servers.len() as u32),
        };
        &self.ids[lo as usize..hi as usize]
    }

    /// The candidate servers geo-DNS would hand a client in `country`:
    /// in-country servers if any, else in-continent, else all.
    pub fn candidates(&self, country: Country) -> Vec<&VantagePoint> {
        self.candidate_ids(country)
            .iter()
            .map(|&i| &self.servers[i as usize])
            .collect()
    }

    /// DNS round-robin: which server a given client resolution at time `t`
    /// lands on. Deterministic in `(client key, DNS TTL window, country)`.
    pub fn select(&self, country: Country, client_key: u64, t: SimTime) -> Option<&VantagePoint> {
        let cands = self.candidate_ids(country);
        if cands.is_empty() {
            return None;
        }
        // Pool DNS TTL is ~150 s; a client re-resolves each sync anyway,
        // so key on a 150-second window.
        let h = hash64(client_key ^ (t.as_secs() / 150), &country.0);
        Some(&self.servers[cands[(h % cands.len() as u64) as usize] as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6netsim::geo_model::Continent;
    use v6netsim::{World, WorldConfig};

    fn pool() -> NtpPool {
        let w = World::build(WorldConfig::tiny(), 9);
        NtpPool::new(w.vantage_points.clone(), CountryRegistry::builtin())
    }

    /// The geo-DNS rule written out: in-country servers if any, else
    /// in-continent, else all, then the round-robin hash.
    fn by_the_rule<'p>(
        p: &'p NtpPool,
        reg: &CountryRegistry,
        c: Country,
        key: u64,
        t: SimTime,
    ) -> Option<&'p VantagePoint> {
        let continent = |c: Country| reg.get(c).map(|info| info.continent);
        let of = |keep: &dyn Fn(&VantagePoint) -> bool| -> Vec<&'p VantagePoint> {
            p.servers().iter().filter(|s| keep(s)).collect()
        };
        let mut cands = of(&|s| s.country == c);
        if cands.is_empty() {
            cands = of(&|s| continent(c).is_some() && continent(s.country) == continent(c));
        }
        if cands.is_empty() {
            cands = of(&|_| true);
        }
        let h = hash64(key ^ (t.as_secs() / 150), c.as_str().as_bytes());
        (!cands.is_empty()).then(|| cands[(h % cands.len() as u64) as usize])
    }

    #[test]
    fn table_matches_the_geo_dns_rule() {
        let reg = CountryRegistry::builtin();
        let world = pool();
        // A hand-built pool: one server in a country the registry lacks
        // ("XK"), two in Europe, one in Oceania.
        let vp = |id: u16, code: &str| VantagePoint {
            id,
            as_index: 0,
            country: Country::new(code),
            addr: std::net::Ipv6Addr::new(0x2a00, id, 0, 0, 0, 0, 0, 1),
        };
        assert!(reg.get(Country::new("XK")).is_none());
        let hand = NtpPool::new(
            vec![vp(0, "DE"), vp(1, "XK"), vp(2, "AU"), vp(3, "NL")],
            reg.clone(),
        );
        let empty = NtpPool::new(Vec::new(), reg.clone());
        assert!(reg.get(Country::new("QQ")).is_none());
        let mut codes: Vec<Country> = (b'A'..=b'Z')
            .flat_map(|a| (b'A'..=b'Z').map(move |b| Country([a, b])))
            .collect();
        codes.extend([Country::new("QQ"), Country::new("XK")]);
        let keys = [0, 1, 7, 42, 0xdead_beef, u64::MAX];
        let times = [0, 149, 150, 86_400 * 200 + 7].map(SimTime);
        for p in [&world, &hand, &empty] {
            for &c in &codes {
                for &key in &keys {
                    for &t in &times {
                        let got = p.select(c, key, t).map(|s| s.id);
                        let want = by_the_rule(p, &reg, c, key, t).map(|s| s.id);
                        assert_eq!(got, want, "{c} key={key} t={t:?}");
                    }
                }
            }
        }
        // The registry-less VP country is served in-country; its
        // neighbours' clients are not sent there.
        let xk = hand.candidates(Country::new("XK"));
        assert_eq!(xk.iter().map(|s| s.id).collect::<Vec<_>>(), [1]);
        let fr = hand.candidates(Country::new("FR"));
        assert_eq!(fr.iter().map(|s| s.id).collect::<Vec<_>>(), [0, 3]);
        assert!(empty.select(Country::new("DE"), 1, SimTime(0)).is_none());
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
