//! World-scale configuration.
//!
//! The paper's substrate is the production Internet (billions of devices);
//! we scale the synthetic world down and record the factor in
//! EXPERIMENTS.md. All headline comparisons are ratios and distribution
//! shapes, which survive scaling.

use serde::{Deserialize, Serialize};

/// A scheduled connectivity outage of one AS (an application the paper's
/// intro motivates: outage detection from passive corpora [20, 39, 59]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OutageSpec {
    /// Organization name of the affected AS (must match the catalog).
    pub as_name: String,
    /// First affected study day (inclusive).
    pub start_day: u64,
    /// Number of affected days.
    pub duration_days: u64,
}

/// Knobs controlling the size and texture of the synthetic Internet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Number of home (fixed-line) customer networks world-wide.
    pub home_networks: u32,
    /// Mean client devices per home network (besides the CPE), ≥ 1.
    pub mean_devices_per_home: f64,
    /// Number of mobile-only subscribers (handsets on cellular plans).
    pub mobile_subscribers: u32,
    /// Fraction of home smartphones that also have a cellular plan
    /// (the §5.2 "user movement" population).
    pub dual_homed_phone_rate: f64,
    /// Servers per hosting AS.
    pub servers_per_hosting_as: u32,
    /// Core routers per AS.
    pub core_routers_per_as: u32,
    /// Fully-aliased /48s per hosting AS (the Hitlist's alias-list fodder).
    pub aliased_48s_per_hosting_as: u32,
    /// Probability that a phone found at home is on WiFi (vs cellular) at
    /// any given hour.
    pub wifi_presence: f64,
    /// Scheduled AS outages (devices in an out AS neither query NTP nor
    /// answer probes for the duration).
    pub outages: Vec<OutageSpec>,
}

impl WorldConfig {
    /// A small world for unit/integration tests: builds in well under a
    /// second, still exhibits every phenomenon.
    pub fn tiny() -> Self {
        WorldConfig {
            home_networks: 300,
            mean_devices_per_home: 3.0,
            mobile_subscribers: 1_200,
            dual_homed_phone_rate: 0.5,
            servers_per_hosting_as: 40,
            core_routers_per_as: 2,
            aliased_48s_per_hosting_as: 3,
            wifi_presence: 0.60,
            outages: Vec::new(),
        }
    }

    /// The default experiment scale: large enough for stable
    /// distributions, small enough to run every analysis in seconds.
    pub fn default_scale() -> Self {
        WorldConfig {
            home_networks: 6_000,
            mean_devices_per_home: 3.5,
            mobile_subscribers: 30_000,
            dual_homed_phone_rate: 0.5,
            servers_per_hosting_as: 150,
            core_routers_per_as: 3,
            aliased_48s_per_hosting_as: 6,
            wifi_presence: 0.60,
            outages: Vec::new(),
        }
    }

    /// The scale used by the benchmark harness when regenerating the
    /// paper's tables and figures.
    pub fn paper_scale() -> Self {
        WorldConfig {
            home_networks: 15_000,
            mean_devices_per_home: 3.5,
            mobile_subscribers: 80_000,
            dual_homed_phone_rate: 0.5,
            servers_per_hosting_as: 250,
            core_routers_per_as: 3,
            aliased_48s_per_hosting_as: 8,
            wifi_presence: 0.60,
            outages: Vec::new(),
        }
    }
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig::default_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let t = WorldConfig::tiny();
        let d = WorldConfig::default_scale();
        let p = WorldConfig::paper_scale();
        assert!(t.home_networks < d.home_networks);
        assert!(d.home_networks < p.home_networks);
        assert!(t.mobile_subscribers < d.mobile_subscribers);
    }

    #[test]
    fn default_is_default_scale() {
        assert_eq!(
            WorldConfig::default().home_networks,
            WorldConfig::default_scale().home_networks
        );
    }
}
