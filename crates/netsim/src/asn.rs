//! Autonomous Systems of the synthetic Internet.
//!
//! The paper classifies origin ASes with ASdb (§4.1): all three datasets
//! are dominated by "Computer and Information Technology / ISP" ASes, but
//! the NTP corpus has 14% from the "Phone Provider" subtype versus the
//! Hitlist's 2% — evidence the passive corpus is mobile-client-rich. The
//! catalog below bakes in the paper's named top-5 ASes (Reliance Jio,
//! T-Mobile, ChinaNet, China Mobile, Telkomsel) with their §4.3 addressing
//! quirks, plus Brazilian and German ISPs needed for the §5 exemplars.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::addressing::AddressingProfile;
use crate::geo_model::Country;

/// How an AS's middleboxes answer probes aimed at its *client* ranges
/// (§4.2: aliased client networks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AliasFront {
    /// Normal: only the actual holder of an address may answer.
    None,
    /// A front answers for any address inside an *active* customer
    /// delegation (/64 or /56), but arbitrary un-delegated space stays
    /// silent. Invisible to routed-space alias detection; exposed only by
    /// probing next to known-active clients — the paper's "new" aliases.
    ActiveOnly,
    /// A front answers for the entire client region. Routed-space alias
    /// detection finds these, so hitlist alias lists know them.
    Full,
}

/// An Autonomous System Number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Debug for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Asn({})", self.0)
    }
}

/// The role an AS plays in the model (maps onto ASdb categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AsKind {
    /// Fixed-line eyeball ISP: hosts home networks behind CPE.
    EyeballIsp,
    /// Mobile carrier ("Phone Provider" ASdb subtype): hosts handsets.
    MobileIsp,
    /// Transit/backbone: routers only, no clients. Active traceroute
    /// campaigns discover these; the passive NTP corpus never sees them.
    Transit,
    /// Hosting/cloud: servers, and most of the aliased prefixes.
    Hosting,
    /// University or enterprise network: a few servers and clients.
    Edu,
}

impl AsKind {
    /// The ASdb subtype string (the paper's "Phone Provider" signal).
    pub fn asdb_subtype(self) -> &'static str {
        match self {
            AsKind::EyeballIsp => "Internet Service Provider (ISP)",
            AsKind::MobileIsp => "Phone Provider",
            AsKind::Transit => "Internet Service Provider (ISP)",
            AsKind::Hosting => "Hosting and Cloud Provider",
            AsKind::Edu => "Education",
        }
    }

    /// True when the AS terminates client devices.
    pub fn has_clients(self) -> bool {
        matches!(self, AsKind::EyeballIsp | AsKind::MobileIsp | AsKind::Edu)
    }
}

/// Static description of one AS.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsInfo {
    /// The AS number.
    pub asn: Asn,
    /// Organization name (real names for the paper's exemplar ASes).
    pub name: String,
    /// Home country.
    pub country: Country,
    /// Role.
    pub kind: AsKind,
    /// How client devices in this AS form addresses. Ignored for
    /// Transit/Hosting ASes.
    pub profile: AddressingProfile,
    /// Relative share of the world's client population this AS serves
    /// (within its country; normalized at world build time).
    pub client_share: f64,
    /// Whether (and how) this AS fronts its client ranges with
    /// alias-like middleboxes (§4.2).
    pub alias_front: AliasFront,
}

impl AsInfo {
    /// True when any alias front covers this AS's client ranges.
    pub fn clients_aliased(&self) -> bool {
        self.alias_front != AliasFront::None
    }
}

/// The full AS catalog the world builder instantiates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsCatalog {
    /// All ASes; index in this vector is the AS's dense id.
    pub ases: Vec<AsInfo>,
}

impl AsCatalog {
    /// Builds the default catalog.
    ///
    /// Named ASes reproduce the paper's figures: the top-5 NTP ASes with
    /// their entropy signatures (Fig. 4), Telefonica Brasil / Nova Santos
    /// Telecom (Fig. 7c), German AVM-heavy ISPs (§5.3), plus generated
    /// eyeball/mobile/transit/hosting tails across every registry country.
    pub fn builtin(registry: &crate::geo_model::CountryRegistry) -> Self {
        use crate::addressing::AddressingProfile as P;
        let mut ases: Vec<AsInfo> = Vec::new();
        let mut next_asn = 64_500u32;
        let mut push =
            |ases: &mut Vec<AsInfo>, name: &str, cc: &str, kind: AsKind, profile: P, share: f64| {
                let asn = Asn(next_asn);
                next_asn += 1;
                ases.push(AsInfo {
                    asn,
                    name: name.to_string(),
                    country: Country::new(cc),
                    kind,
                    profile,
                    client_share: share,
                    alias_front: AliasFront::None,
                });
            };

        // ---- The paper's named heavyweights (Fig. 4, Fig. 7) ----
        push(
            &mut ases,
            "Reliance Jio",
            "IN",
            AsKind::MobileIsp,
            P::jio(),
            0.62,
        );
        push(
            &mut ases,
            "Bharti Airtel",
            "IN",
            AsKind::MobileIsp,
            P::mobile_default(),
            0.22,
        );
        push(
            &mut ases,
            "BSNL",
            "IN",
            AsKind::EyeballIsp,
            P::eyeball_default(),
            0.16,
        );

        push(
            &mut ases,
            "ChinaNet",
            "CN",
            AsKind::EyeballIsp,
            P::eyeball_default(),
            0.40,
        );
        push(
            &mut ases,
            "China Mobile",
            "CN",
            AsKind::MobileIsp,
            P::mobile_default(),
            0.38,
        );
        push(
            &mut ases,
            "China Unicom",
            "CN",
            AsKind::EyeballIsp,
            P::eyeball_default(),
            0.22,
        );

        push(
            &mut ases,
            "T-Mobile US",
            "US",
            AsKind::MobileIsp,
            P::mobile_default(),
            0.30,
        );
        push(
            &mut ases,
            "Comcast",
            "US",
            AsKind::EyeballIsp,
            P::eyeball_default(),
            0.28,
        );
        push(
            &mut ases,
            "Verizon",
            "US",
            AsKind::MobileIsp,
            P::mobile_default(),
            0.20,
        );
        push(
            &mut ases,
            "Charter",
            "US",
            AsKind::EyeballIsp,
            P::eyeball_default(),
            0.22,
        );

        push(
            &mut ases,
            "Telefonica Brasil",
            "BR",
            AsKind::EyeballIsp,
            P::eyeball_default(),
            0.40,
        );
        push(
            &mut ases,
            "Claro BR",
            "BR",
            AsKind::MobileIsp,
            P::mobile_default(),
            0.35,
        );
        push(
            &mut ases,
            "Nova Santos Telecom",
            "BR",
            AsKind::EyeballIsp,
            P::eyeball_eui64_heavy(),
            0.25,
        );

        push(
            &mut ases,
            "Telekomunikasi Selular",
            "ID",
            AsKind::MobileIsp,
            P::telkomsel(),
            0.60,
        );
        push(
            &mut ases,
            "Indosat",
            "ID",
            AsKind::MobileIsp,
            P::mobile_default(),
            0.40,
        );

        // German ISPs ship AVM Fritz!Box CPE with (pre-7.50) EUI-64 WAN
        // addresses — the §5.3 geolocation population.
        push(
            &mut ases,
            "Deutsche Telekom",
            "DE",
            AsKind::EyeballIsp,
            P::german_avm(),
            0.55,
        );
        push(
            &mut ases,
            "Vodafone DE",
            "DE",
            AsKind::EyeballIsp,
            P::german_avm(),
            0.45,
        );

        // ---- Generated per-country tails ----
        for info in registry.all() {
            let cc = info.code.as_str();
            let named: f64 = ases
                .iter()
                .filter(|a| a.country == info.code && a.kind.has_clients())
                .map(|a| a.client_share)
                .sum();
            if named > 0.0 {
                continue; // countries with hand-named ASes are covered
            }
            push(
                &mut ases,
                &format!("{cc} Broadband"),
                cc,
                AsKind::EyeballIsp,
                P::eyeball_default(),
                0.5,
            );
            push(
                &mut ases,
                &format!("{cc} Mobile"),
                cc,
                AsKind::MobileIsp,
                P::mobile_default(),
                0.4,
            );
            push(
                &mut ases,
                &format!("{cc} University"),
                cc,
                AsKind::Edu,
                P::enterprise(),
                0.1,
            );
        }

        // ---- Transit backbone (no clients; traceroute fodder) ----
        for (i, cc) in [
            "US", "US", "DE", "GB", "NL", "SE", "JP", "SG", "BR", "ZA", "FR", "HK", "US", "DE",
            "IN", "CN", "AU", "ES", "PL", "KR", "IT", "CA", "RU", "TR", "MX",
        ]
        .iter()
        .enumerate()
        {
            push(
                &mut ases,
                &format!("Transit Backbone {i:02}"),
                cc,
                AsKind::Transit,
                P::infrastructure(),
                0.0,
            );
        }

        // ---- Hosting / cloud (servers + aliased prefixes) ----
        for (i, cc) in [
            "US", "US", "DE", "NL", "SG", "JP", "GB", "IN", "BR", "AU", "FR", "CA",
        ]
        .iter()
        .enumerate()
        {
            push(
                &mut ases,
                &format!("Cloud Hosting {i:02}"),
                cc,
                AsKind::Hosting,
                P::infrastructure(),
                0.0,
            );
        }

        // Client ASes fronted by alias-like middleboxes (§4.2). One big
        // carrier answers for its whole region (hitlist alias lists learn
        // it — the paper's 98% "known" bulk); smaller tails answer only
        // inside active delegations, staying invisible to routed-space
        // alias detection (the paper's 2% "new" discoveries).
        for (name, front) in [
            ("Claro BR", AliasFront::Full),
            ("JP Mobile", AliasFront::ActiveOnly),
            ("GB Mobile", AliasFront::ActiveOnly),
            ("FR Mobile", AliasFront::ActiveOnly),
            ("MX Mobile", AliasFront::ActiveOnly),
        ] {
            if let Some(a) = ases.iter_mut().find(|a| a.name == name) {
                a.alias_front = front;
            }
        }

        AsCatalog { ases }
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.ases.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.ases.is_empty()
    }

    /// Looks up an AS by organization name.
    pub fn by_name(&self, name: &str) -> Option<&AsInfo> {
        self.ases.iter().find(|a| a.name == name)
    }

    /// Dense indices of all ASes of a given kind.
    pub fn of_kind(&self, kind: AsKind) -> Vec<usize> {
        self.ases
            .iter()
            .enumerate()
            .filter(|(_, a)| a.kind == kind)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo_model::CountryRegistry;

    fn catalog() -> AsCatalog {
        AsCatalog::builtin(&CountryRegistry::builtin())
    }

    #[test]
    fn named_ases_present() {
        let c = catalog();
        for name in [
            "Reliance Jio",
            "T-Mobile US",
            "ChinaNet",
            "China Mobile",
            "Telekomunikasi Selular",
            "Telefonica Brasil",
            "Nova Santos Telecom",
            "Deutsche Telekom",
        ] {
            assert!(c.by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn asns_unique() {
        let c = catalog();
        let mut asns: Vec<u32> = c.ases.iter().map(|a| a.asn.0).collect();
        let n = asns.len();
        asns.sort_unstable();
        asns.dedup();
        assert_eq!(asns.len(), n);
    }

    #[test]
    fn has_all_kinds() {
        let c = catalog();
        for kind in [
            AsKind::EyeballIsp,
            AsKind::MobileIsp,
            AsKind::Transit,
            AsKind::Hosting,
            AsKind::Edu,
        ] {
            assert!(!c.of_kind(kind).is_empty(), "no {kind:?} ASes");
        }
    }

    #[test]
    fn transit_and_hosting_have_no_clients() {
        let c = catalog();
        for a in &c.ases {
            if matches!(a.kind, AsKind::Transit | AsKind::Hosting) {
                assert_eq!(a.client_share, 0.0, "{} has clients", a.name);
                assert_eq!(a.alias_front, AliasFront::None);
                assert!(!a.kind.has_clients());
            }
        }
    }

    #[test]
    fn some_client_ases_aliased() {
        let c = catalog();
        let aliased = c.ases.iter().filter(|a| a.clients_aliased()).count();
        assert!(aliased >= 2, "expected several client-aliased ASes");
        assert!(c.ases.iter().any(|a| a.alias_front == AliasFront::Full));
        assert!(c
            .ases
            .iter()
            .any(|a| a.alias_front == AliasFront::ActiveOnly));
    }

    #[test]
    fn phone_provider_subtype() {
        let c = catalog();
        let jio = c.by_name("Reliance Jio").unwrap();
        assert_eq!(jio.kind.asdb_subtype(), "Phone Provider");
        let comcast = c.by_name("Comcast").unwrap();
        assert_eq!(
            comcast.kind.asdb_subtype(),
            "Internet Service Provider (ISP)"
        );
    }

    #[test]
    fn every_country_has_client_as() {
        let reg = CountryRegistry::builtin();
        let c = catalog();
        for info in reg.all() {
            let has = c
                .ases
                .iter()
                .any(|a| a.country == info.code && a.kind.has_clients());
            assert!(has, "no client AS in {}", info.code);
        }
    }
}
