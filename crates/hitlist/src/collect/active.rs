//! Active-campaign adapters: the paper's two comparison datasets (§3).

use v6netsim::World;
use v6scan::{
    run_caida_campaign, run_hitlist_campaign, CaidaCampaignConfig, CampaignResult,
    HitlistCampaignConfig,
};

use crate::dataset::{Dataset, Observation};

/// A campaign result plus its dataset view.
#[derive(Debug)]
pub struct ActiveDataset {
    /// The underlying campaign output (alias list, probe counts, …).
    pub campaign: CampaignResult,
    /// The dataset view of its discoveries.
    pub dataset: Dataset,
}

fn to_dataset(name: &str, campaign: &CampaignResult) -> Dataset {
    Dataset::from_observations(
        name,
        campaign.discoveries.iter().map(|d| Observation {
            addr: d.addr,
            t: d.t,
        }),
    )
}

/// Runs the IPv6-Hitlist-style campaign and wraps it as a dataset.
pub fn collect_hitlist(world: &World, vp_id: u16, cfg: &HitlistCampaignConfig) -> ActiveDataset {
    collect_hitlist_with_threads(world, vp_id, cfg, v6par::threads())
}

/// [`collect_hitlist`] at an explicit thread count.
pub fn collect_hitlist_with_threads(
    world: &World,
    vp_id: u16,
    cfg: &HitlistCampaignConfig,
    threads: usize,
) -> ActiveDataset {
    let campaign = run_hitlist_campaign(world, vp_id, cfg, threads);
    let dataset = to_dataset("IPv6 Hitlist", &campaign);
    ActiveDataset { campaign, dataset }
}

/// Runs the CAIDA routed-/48 campaign and wraps it as a dataset.
pub fn collect_caida(world: &World, vp_id: u16, cfg: &CaidaCampaignConfig) -> ActiveDataset {
    collect_caida_with_threads(world, vp_id, cfg, v6par::threads())
}

/// [`collect_caida`] at an explicit thread count.
pub fn collect_caida_with_threads(
    world: &World,
    vp_id: u16,
    cfg: &CaidaCampaignConfig,
    threads: usize,
) -> ActiveDataset {
    let campaign = run_caida_campaign(world, vp_id, cfg, threads);
    let dataset = to_dataset("CAIDA Routed /48", &campaign);
    ActiveDataset { campaign, dataset }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6netsim::WorldConfig;

    #[test]
    fn hitlist_adapter() {
        let w = World::build(WorldConfig::tiny(), 103);
        let d = collect_hitlist(
            &w,
            0,
            &HitlistCampaignConfig {
                weeks: 1,
                ..Default::default()
            },
        );
        assert_eq!(d.dataset.name(), "IPv6 Hitlist");
        assert_eq!(
            d.dataset.observation_count(),
            d.campaign.discoveries.len() as u64
        );
        assert!(!d.dataset.is_empty());
    }

    #[test]
    fn caida_adapter() {
        let w = World::build(WorldConfig::tiny(), 103);
        let d = collect_caida(
            &w,
            0,
            &CaidaCampaignConfig {
                stride: 2048,
                ..Default::default()
            },
        );
        assert_eq!(d.dataset.name(), "CAIDA Routed /48");
        assert!(!d.dataset.is_empty());
    }
}
