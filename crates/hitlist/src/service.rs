//! A hitlist *service*: weekly publications of responsive addresses and
//! alias lists.
//!
//! The IPv6 Hitlist project "continue\[s\] to publish a weekly hitlist of
//! responsive addresses and known aliased and non-aliased networks"
//! (§2.2 \[1\]); the paper consumes those snapshots for its comparisons
//! (e.g. the 1 July 2022 release in §4.3). This module turns a campaign's
//! discoveries into the same artifact: per-week snapshots with a
//! registered alias list. (The /48-truncated release the paper argues
//! client-rich hitlists need is [`crate::release::Release48`].)

use std::net::Ipv6Addr;

use v6addr::Prefix;
use v6scan::{AliasList, CampaignResult};

/// One weekly snapshot.
#[derive(Debug, Clone)]
pub struct WeeklySnapshot {
    /// Study week number.
    pub week: u64,
    /// Responsive addresses first published this week.
    pub new_responsive: Vec<Ipv6Addr>,
    /// Cumulative responsive count as of this week.
    pub cumulative: u64,
}

/// The publication stream of a hitlist service.
#[derive(Debug, Clone)]
pub struct HitlistService {
    /// Service name.
    pub name: String,
    /// Weekly snapshots, in order.
    pub snapshots: Vec<WeeklySnapshot>,
    /// The published aliased prefixes.
    pub aliased: Vec<Prefix>,
}

impl HitlistService {
    /// Builds the service publications from a campaign run.
    pub fn from_campaign(name: impl Into<String>, campaign: &CampaignResult) -> Self {
        use std::collections::BTreeSet;
        let mut seen: BTreeSet<u128> = BTreeSet::new();
        let mut by_week: std::collections::BTreeMap<u64, Vec<Ipv6Addr>> =
            std::collections::BTreeMap::new();
        for d in &campaign.discoveries {
            if seen.insert(u128::from(d.addr)) {
                by_week.entry(d.t.week()).or_default().push(d.addr);
            }
        }
        let mut snapshots = Vec::new();
        let mut cumulative = 0u64;
        for (week, mut new_responsive) in by_week {
            new_responsive.sort_unstable();
            cumulative += new_responsive.len() as u64;
            snapshots.push(WeeklySnapshot {
                week,
                new_responsive,
                cumulative,
            });
        }
        HitlistService {
            name: name.into(),
            snapshots,
            aliased: campaign.aliased.clone(),
        }
    }

    /// The alias list consumers should filter against.
    pub fn alias_list(&self) -> AliasList {
        AliasList::from_prefixes(self.aliased.iter().copied())
    }

    /// The full responsive set as of a week (inclusive).
    ///
    /// Each weekly snapshot is already sorted at construction, so the
    /// cumulative set is a k-way merge of sorted runs — O(n log k) with
    /// no re-sort, instead of collecting everything and sorting from
    /// scratch (O(n log n)) on every call.
    pub fn responsive_as_of(&self, week: u64) -> Vec<Ipv6Addr> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let runs: Vec<&[Ipv6Addr]> = self
            .snapshots
            .iter()
            .filter(|s| s.week <= week)
            .map(|s| s.new_responsive.as_slice())
            .collect();
        let total = runs.iter().map(|r| r.len()).sum();
        let mut out: Vec<Ipv6Addr> = Vec::with_capacity(total);
        match runs.len() {
            0 => {}
            1 => out.extend_from_slice(runs[0]),
            _ => {
                // Heap of (next address, run index); each pop advances
                // one run's cursor.
                let mut cursors = vec![0usize; runs.len()];
                let mut heap: BinaryHeap<Reverse<(Ipv6Addr, usize)>> = runs
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| !r.is_empty())
                    .map(|(i, r)| Reverse((r[0], i)))
                    .collect();
                while let Some(Reverse((addr, i))) = heap.pop() {
                    out.push(addr);
                    cursors[i] += 1;
                    if let Some(&next) = runs[i].get(cursors[i]) {
                        heap.push(Reverse((next, i)));
                    }
                }
            }
        }
        out
    }

    /// Total unique responsive addresses ever published.
    pub fn total_responsive(&self) -> u64 {
        self.snapshots.last().map(|s| s.cumulative).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::active::collect_hitlist;
    use v6netsim::{World, WorldConfig};
    use v6scan::HitlistCampaignConfig;

    fn service() -> HitlistService {
        let w = World::build(WorldConfig::tiny(), 606);
        let hl = collect_hitlist(
            &w,
            0,
            &HitlistCampaignConfig {
                weeks: 3,
                ..Default::default()
            },
        );
        HitlistService::from_campaign("IPv6 Hitlist Service", &hl.campaign)
    }

    #[test]
    fn snapshots_are_weekly_and_cumulative() {
        let s = service();
        assert!(!s.snapshots.is_empty());
        let mut last = 0;
        for snap in &s.snapshots {
            assert!(!snap.new_responsive.is_empty());
            assert!(snap.cumulative > last || snap.new_responsive.is_empty());
            last = snap.cumulative;
        }
        assert_eq!(
            s.total_responsive(),
            s.snapshots
                .iter()
                .map(|x| x.new_responsive.len() as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn no_address_published_twice() {
        let s = service();
        let all = s.responsive_as_of(u64::MAX);
        let mut dedup = all.clone();
        dedup.dedup();
        assert_eq!(all.len(), dedup.len());
    }

    #[test]
    fn responsive_as_of_is_monotone() {
        let s = service();
        let w0 = s.responsive_as_of(0).len();
        let w2 = s.responsive_as_of(2).len();
        assert!(w2 >= w0);
        assert_eq!(w2 as u64, s.total_responsive());
    }

    #[test]
    fn merge_matches_collect_and_sort() {
        let s = service();
        for week in [0u64, 1, 2, u64::MAX] {
            // Reference: the pre-merge implementation (collect + sort).
            let mut reference: Vec<Ipv6Addr> = s
                .snapshots
                .iter()
                .filter(|snap| snap.week <= week)
                .flat_map(|snap| snap.new_responsive.iter().copied())
                .collect();
            reference.sort_unstable();
            assert_eq!(s.responsive_as_of(week), reference, "week {week}");
        }
        // Degenerate inputs: no snapshots, and a single run.
        let empty = HitlistService {
            name: "empty".into(),
            snapshots: Vec::new(),
            aliased: Vec::new(),
        };
        assert!(empty.responsive_as_of(u64::MAX).is_empty());
        let one = HitlistService {
            name: "one".into(),
            snapshots: s.snapshots[..1].to_vec(),
            aliased: Vec::new(),
        };
        assert_eq!(
            one.responsive_as_of(u64::MAX),
            s.snapshots[0].new_responsive
        );
    }
}
