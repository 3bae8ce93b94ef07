//! EUI-64 prevalence and device tracking — §5.1, §5.2, Table 2,
//! Figures 6 and 7.
//!
//! EUI-64 SLAAC embeds the device MAC in the IID, so the IID survives
//! prefix rotations, provider changes, and WiFi↔cellular handoffs. A
//! purely passive observer holding a large longitudinal corpus can
//! therefore follow individual devices across networks. This module
//! quantifies the exposure and reproduces the paper's five-way taxonomy
//! of why one MAC shows up in multiple /64s.

use std::collections::{BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use v6addr::eui64::expected_random_eui64;
use v6addr::{Iid, Mac};
use v6netsim::{Country, World};

use crate::cdf::Cdf;
use crate::collect::ntp_passive::NtpCorpus;
use crate::dataset::Dataset;

/// §5.1 headline numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Eui64Stats {
    /// Unique addresses in the corpus.
    pub corpus_addresses: u64,
    /// Unique addresses with the EUI-64 signature.
    pub eui64_addresses: u64,
    /// Expected apparent-EUI-64 count if all IIDs were random (2⁻¹⁶·N).
    pub expected_random: f64,
    /// Unique embedded MAC addresses.
    pub unique_macs: u64,
}

impl Eui64Stats {
    /// EUI-64 share of the corpus (paper: ~3%).
    pub fn fraction(&self) -> f64 {
        if self.corpus_addresses == 0 {
            0.0
        } else {
            self.eui64_addresses as f64 / self.corpus_addresses as f64
        }
    }
}

/// A manufacturer row of Table 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ManufacturerCount {
    /// Vendor name, or "Unlisted".
    pub manufacturer: String,
    /// Unique MACs resolved to it.
    pub macs: u64,
}

/// The movement history of one embedded MAC.
#[derive(Debug, Clone)]
pub struct MacTrack {
    /// The MAC.
    pub mac: Mac,
    /// First observation (study seconds).
    pub first: u64,
    /// Last observation.
    pub last: u64,
    /// Distinct /64s it appeared in, ordered by first appearance.
    pub prefixes64: Vec<u128>,
    /// Distinct origin ASes.
    pub ases: BTreeSet<u16>,
    /// Distinct countries.
    pub countries: BTreeSet<Country>,
    /// Number of /64 *changes* in the time-ordered observation sequence.
    pub transitions: u64,
    /// Time-ordered `(t, /64 bits, as_index)` samples (subsampled to one
    /// per (day, /64) to bound memory).
    pub timeline: Vec<(u64, u128, u16)>,
}

impl MacTrack {
    /// Observation span in seconds.
    pub fn lifetime(&self) -> u64 {
        self.last - self.first
    }
}

/// The paper's five-way classification (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrackClass {
    /// Low AS / low country / low transitions: stationary device.
    MostlyStatic,
    /// One AS, one country, many /64 transitions: the ISP rotates the
    /// delegated prefix under a stationary device (Fig. 7a).
    PrefixReassignment,
    /// Multiple countries: several physical devices sharing one MAC
    /// (manufacturer MAC reuse, Fig. 7b).
    MacReuse,
    /// Multiple ASes, one country, few transitions: a device that
    /// switched service providers (Fig. 7c).
    ChangingProviders,
    /// Multiple ASes, one country, many transitions: a device moving
    /// between networks — user tracking (Fig. 7d).
    UserMovement,
}

impl TrackClass {
    /// All classes in the paper's presentation order.
    pub const ALL: [TrackClass; 5] = [
        TrackClass::MostlyStatic,
        TrackClass::PrefixReassignment,
        TrackClass::MacReuse,
        TrackClass::ChangingProviders,
        TrackClass::UserMovement,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            TrackClass::MostlyStatic => "Mostly static hosts",
            TrackClass::PrefixReassignment => "Likely prefix reassignment",
            TrackClass::MacReuse => "Likely MAC reuse",
            TrackClass::ChangingProviders => "Changing providers",
            TrackClass::UserMovement => "Likely user movement",
        }
    }
}

/// Classifies one multi-/64 track using the paper's heuristics
/// (`>1` AS high, `>1` country high, `> transition_threshold` high).
pub fn classify(track: &MacTrack, transition_threshold: u64) -> TrackClass {
    let many_ases = track.ases.len() > 1;
    let many_countries = track.countries.len() > 1;
    let many_transitions = track.transitions > transition_threshold;
    if many_countries {
        TrackClass::MacReuse
    } else if many_ases {
        if many_transitions {
            TrackClass::UserMovement
        } else {
            TrackClass::ChangingProviders
        }
    } else if many_transitions {
        TrackClass::PrefixReassignment
    } else {
        TrackClass::MostlyStatic
    }
}

/// Full §5 tracking analysis output.
#[derive(Debug)]
pub struct TrackingAnalysis {
    /// §5.1 headline numbers.
    pub stats: Eui64Stats,
    /// Table 2: manufacturers by unique MAC count, descending.
    pub manufacturers: Vec<ManufacturerCount>,
    /// Per-MAC tracks (all EUI-64 MACs).
    pub tracks: Vec<MacTrack>,
    /// Fig. 6a: CDF of EUI-64 IID lifetimes (seconds).
    pub lifetime_cdf: Cdf,
    /// Fig. 6b: CCDF source — per-MAC distinct-/64 counts.
    pub prefix_count_cdf: Cdf,
    /// MACs appearing in ≥ 2 /64s (the trackable population).
    pub multi_prefix_macs: u64,
    /// `(class, count)` over the multi-/64 population.
    pub class_counts: Vec<(TrackClass, u64)>,
    /// The transition threshold used.
    pub transition_threshold: u64,
}

/// Runs the tracking analysis over a passive corpus and its dataset
/// (`ntp`, the corpus's [`NtpCorpus::dataset`]), which supplies the
/// unique-address counts.
pub fn analyze(
    world: &World,
    corpus: &NtpCorpus,
    ntp: &Dataset,
    transition_threshold: u64,
) -> TrackingAnalysis {
    // Unique addresses and the EUI-64 subset.
    let corpus_addresses = ntp.len() as u64;
    let eui64_addresses = (ntp.records().iter())
        .filter(|r| r.iid().looks_like_eui64())
        .count() as u64;

    // Group EUI-64 observations per MAC.
    let mut per_mac: HashMap<u64, Vec<(u64, u128, u16)>> = HashMap::new();
    for o in &corpus.observations {
        let iid = Iid::new(o.addr as u64);
        if let Some(mac) = iid.to_mac() {
            per_mac.entry(mac.as_u64()).or_default().push((
                o.t as u64,
                o.addr >> 64 << 64,
                o.as_index,
            ));
        }
    }

    let mut tracks: Vec<MacTrack> = Vec::with_capacity(per_mac.len());
    for (mac_bits, mut obs) in per_mac {
        obs.sort_unstable();
        let mac = Mac::from_u64(mac_bits);
        let mut prefixes64: Vec<u128> = Vec::new();
        let mut ases = BTreeSet::new();
        let mut countries = BTreeSet::new();
        let mut transitions = 0u64;
        let mut last_p64: Option<u128> = None;
        let mut timeline: Vec<(u64, u128, u16)> = Vec::new();
        for &(t, p64, as_index) in &obs {
            if !prefixes64.contains(&p64) {
                prefixes64.push(p64);
            }
            ases.insert(as_index);
            countries.insert(world.ases[as_index as usize].info.country);
            if let Some(lp) = last_p64 {
                if lp != p64 {
                    transitions += 1;
                }
            }
            last_p64 = Some(p64);
            // One timeline sample per (day, /64).
            let day = t / 86_400;
            if timeline
                .last()
                .map(|&(d, p, _)| d != day || p != p64)
                .unwrap_or(true)
            {
                timeline.push((day, p64, as_index));
            }
        }
        tracks.push(MacTrack {
            mac,
            first: obs.first().map(|&(t, _, _)| t).unwrap_or(0),
            last: obs.last().map(|&(t, _, _)| t).unwrap_or(0),
            prefixes64,
            ases,
            countries,
            transitions,
            timeline,
        });
    }
    tracks.sort_by_key(|t| t.mac);

    // Table 2.
    let mut vendor_counts: HashMap<&str, u64> = HashMap::new();
    for t in &tracks {
        *vendor_counts
            .entry(world.oui_db.name_or_unlisted(t.mac.oui()))
            .or_insert(0) += 1;
    }
    let mut manufacturers: Vec<ManufacturerCount> = vendor_counts
        .into_iter()
        .map(|(name, macs)| ManufacturerCount {
            manufacturer: name.to_string(),
            macs,
        })
        .collect();
    manufacturers.sort_by(|a, b| {
        b.macs
            .cmp(&a.macs)
            .then(a.manufacturer.cmp(&b.manufacturer))
    });

    // Figures 6a/6b and the classification.
    let lifetime_cdf = Cdf::new(tracks.iter().map(|t| t.lifetime() as f64).collect());
    let prefix_count_cdf = Cdf::new(tracks.iter().map(|t| t.prefixes64.len() as f64).collect());
    let multi: Vec<&MacTrack> = tracks.iter().filter(|t| t.prefixes64.len() >= 2).collect();
    let mut class_counts: HashMap<TrackClass, u64> = HashMap::new();
    for t in &multi {
        *class_counts
            .entry(classify(t, transition_threshold))
            .or_insert(0) += 1;
    }

    TrackingAnalysis {
        stats: Eui64Stats {
            corpus_addresses,
            eui64_addresses,
            expected_random: expected_random_eui64(corpus_addresses),
            unique_macs: tracks.len() as u64,
        },
        manufacturers,
        multi_prefix_macs: multi.len() as u64,
        class_counts: TrackClass::ALL
            .iter()
            .map(|&c| (c, *class_counts.get(&c).unwrap_or(&0)))
            .collect(),
        lifetime_cdf,
        prefix_count_cdf,
        tracks,
        transition_threshold,
    }
}

/// A Figure 7 exemplar: one MAC's movement timeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Exemplar {
    /// The MAC (as text, to keep the export serde-friendly).
    pub mac: String,
    /// Which tracking class it illustrates.
    pub class: TrackClass,
    /// `(day, prefix-index, AS name)` samples; prefix-index is the rank
    /// of the /64 by first appearance (the paper's y-axis).
    pub timeline: Vec<(u64, usize, String)>,
}

/// Extracts one exemplar per non-static class (Figure 7a–d), choosing
/// the track with the richest timeline in each class.
pub fn exemplars(world: &World, analysis: &TrackingAnalysis) -> Vec<Exemplar> {
    let mut out = Vec::new();
    for class in [
        TrackClass::PrefixReassignment,
        TrackClass::MacReuse,
        TrackClass::ChangingProviders,
        TrackClass::UserMovement,
    ] {
        let best = analysis
            .tracks
            .iter()
            .filter(|t| t.prefixes64.len() >= 2)
            .filter(|t| classify(t, analysis.transition_threshold) == class)
            .max_by_key(|t| t.timeline.len());
        if let Some(t) = best {
            let index_of = |p: u128| t.prefixes64.iter().position(|&x| x == p).unwrap_or(0);
            out.push(Exemplar {
                mac: t.mac.to_string(),
                class,
                timeline: t
                    .timeline
                    .iter()
                    .map(|&(day, p64, ai)| {
                        (
                            day,
                            index_of(p64),
                            world.ases[ai as usize].info.name.clone(),
                        )
                    })
                    .collect(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6netsim::time::STUDY_DURATION;
    use v6netsim::{SimTime, WorldConfig};

    fn analysis() -> (World, TrackingAnalysis) {
        let w = World::build(WorldConfig::tiny(), 113);
        let corpus = NtpCorpus::collect(&w, SimTime::START, STUDY_DURATION);
        let a = analyze(&w, &corpus, &corpus.dataset(), 10);
        (w, a)
    }

    #[test]
    fn eui64_population_is_real_not_random() {
        let (_w, a) = analysis();
        assert!(a.stats.eui64_addresses > 0);
        // The paper's §5.1 argument: observed ≫ expected-if-random.
        assert!(
            a.stats.eui64_addresses as f64 > 20.0 * a.stats.expected_random.max(1.0),
            "observed {} vs expected random {:.1}",
            a.stats.eui64_addresses,
            a.stats.expected_random
        );
        assert!(a.stats.unique_macs > 0);
        assert!(a.stats.unique_macs <= a.stats.eui64_addresses);
        // EUI-64 share in the low percent range (paper: 3%).
        let f = a.stats.fraction();
        assert!((0.005..0.25).contains(&f), "EUI-64 fraction {f}");
    }

    #[test]
    fn table2_unlisted_dominates() {
        let (_w, a) = analysis();
        assert!(!a.manufacturers.is_empty());
        assert_eq!(
            a.manufacturers[0].manufacturer,
            "Unlisted",
            "top makers: {:?}",
            &a.manufacturers[..a.manufacturers.len().min(3)]
        );
        let total: u64 = a.manufacturers.iter().map(|m| m.macs).sum();
        assert_eq!(total, a.stats.unique_macs);
    }

    #[test]
    fn rotation_makes_macs_multi_prefix() {
        let (_w, a) = analysis();
        // Daily prefix rotation in many ASes: EUI-64 devices must appear
        // in multiple /64s.
        assert!(
            a.multi_prefix_macs as f64 / a.stats.unique_macs as f64 > 0.3,
            "{}/{} multi-prefix",
            a.multi_prefix_macs,
            a.stats.unique_macs
        );
        let sum: u64 = a.class_counts.iter().map(|&(_, n)| n).sum();
        assert_eq!(sum, a.multi_prefix_macs);
    }

    #[test]
    fn prefix_reassignment_is_a_dominant_class() {
        let (_w, a) = analysis();
        let count = |c: TrackClass| {
            a.class_counts
                .iter()
                .find(|&&(k, _)| k == c)
                .map(|&(_, n)| n)
                .unwrap_or(0)
        };
        // Static CPE/IoT under rotating prefixes → PrefixReassignment and
        // MostlyStatic must dominate; movement classes exist but small.
        let dominant = count(TrackClass::PrefixReassignment) + count(TrackClass::MostlyStatic);
        assert!(
            dominant > a.multi_prefix_macs / 2,
            "dominant {dominant} of {}",
            a.multi_prefix_macs
        );
    }

    #[test]
    fn user_movement_detected_for_dual_homed_phones() {
        let (_w, a) = analysis();
        let movement = a
            .class_counts
            .iter()
            .find(|&&(k, _)| k == TrackClass::UserMovement)
            .map(|&(_, n)| n)
            .unwrap_or(0);
        assert!(movement > 0, "no user-movement tracks found");
    }

    #[test]
    fn classify_rules() {
        let mk = |ases: &[u16], countries: &[&str], trans: u64| MacTrack {
            mac: Mac::ZERO,
            first: 0,
            last: 100,
            prefixes64: vec![0, 1],
            ases: ases.iter().copied().collect(),
            countries: countries.iter().map(|c| Country::new(c)).collect(),
            transitions: trans,
            timeline: Vec::new(),
        };
        assert_eq!(
            classify(&mk(&[1], &["DE"], 2), 10),
            TrackClass::MostlyStatic
        );
        assert_eq!(
            classify(&mk(&[1], &["DE"], 50), 10),
            TrackClass::PrefixReassignment
        );
        assert_eq!(
            classify(&mk(&[1, 2], &["DE", "FR"], 50), 10),
            TrackClass::MacReuse
        );
        assert_eq!(
            classify(&mk(&[1, 2], &["DE"], 3), 10),
            TrackClass::ChangingProviders
        );
        assert_eq!(
            classify(&mk(&[1, 2], &["DE"], 50), 10),
            TrackClass::UserMovement
        );
        // The threshold edge: exactly `transition_threshold` changes are
        // few, one more is many, in one AS and across several.
        assert_eq!(
            classify(&mk(&[1], &["DE"], 10), 10),
            TrackClass::MostlyStatic
        );
        assert_eq!(
            classify(&mk(&[1], &["DE"], 11), 10),
            TrackClass::PrefixReassignment
        );
        assert_eq!(
            classify(&mk(&[1, 2], &["DE"], 10), 10),
            TrackClass::ChangingProviders
        );
        assert_eq!(
            classify(&mk(&[1, 2], &["DE"], 11), 10),
            TrackClass::UserMovement
        );
    }

    #[test]
    fn exemplars_cover_classes_present() {
        let (w, a) = analysis();
        let ex = exemplars(&w, &a);
        assert!(!ex.is_empty());
        for e in &ex {
            assert!(!e.timeline.is_empty());
            // Timeline days are non-decreasing.
            for w2 in e.timeline.windows(2) {
                assert!(w2[1].0 >= w2[0].0);
            }
        }
        // Prefix reassignment exemplar must visit several prefixes.
        if let Some(e) = ex
            .iter()
            .find(|e| e.class == TrackClass::PrefixReassignment)
        {
            let distinct: BTreeSet<usize> = e.timeline.iter().map(|&(_, p, _)| p).collect();
            assert!(distinct.len() >= 3, "only {} prefixes", distinct.len());
        }
    }

    #[test]
    fn fig6_sources_consistent() {
        let (_w, a) = analysis();
        assert_eq!(a.lifetime_cdf.len(), a.tracks.len());
        assert_eq!(a.prefix_count_cdf.len(), a.tracks.len());
        // CCDF at 1.5 = fraction of MACs in ≥2 /64s.
        let frac = a.prefix_count_cdf.fraction_above(1.5);
        assert!((frac - a.multi_prefix_macs as f64 / a.tracks.len() as f64).abs() < 1e-9);
    }
}
