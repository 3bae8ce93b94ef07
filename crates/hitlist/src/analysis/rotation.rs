//! Prefix-rotation period inference from EUI-64 tracks.
//!
//! An extension in the spirit of Rye, Beverly & claffy's *Follow the
//! Scent* \[64\], which the paper builds on: because an EUI-64 IID is a
//! stable device identifier, the time between a device's /64 changes
//! reveals its ISP's **prefix-rotation policy** — a provider-level
//! privacy property inferred entirely from passive data. The simulator
//! knows the ground-truth policy, so the inference validates end to end.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use v6netsim::addressing::RotationPolicy;
use v6netsim::World;

use crate::analysis::tracking::TrackingAnalysis;

/// Inferred rotation behaviour of one AS.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RotationEstimate {
    /// AS organization name.
    pub as_name: String,
    /// Devices (EUI-64 MACs) the estimate is based on.
    pub devices: u64,
    /// /64-change intervals observed (days), pooled over devices.
    pub samples: u64,
    /// Median interval between /64 changes, days.
    pub median_interval_days: f64,
    /// Ground-truth policy period in days (`None` = never rotates).
    pub truth_days: Option<f64>,
}

impl RotationEstimate {
    /// True when the estimate is within a factor of two of the truth.
    pub fn is_accurate(&self) -> bool {
        match self.truth_days {
            None => false, // nothing to rotate; estimate is spurious
            Some(t) => self.median_interval_days >= t / 2.0 && self.median_interval_days <= t * 2.0,
        }
    }
}

/// Infers per-AS rotation periods from EUI-64 movement timelines.
///
/// Only single-AS tracks vote (multi-AS tracks mix policies), and an AS
/// needs at least `min_samples` intervals to be reported.
pub fn infer_rotation_periods(
    world: &World,
    tracking: &TrackingAnalysis,
    min_samples: u64,
) -> Vec<RotationEstimate> {
    // Pool /64-change intervals per AS.
    let mut per_as: HashMap<u16, (u64, Vec<f64>)> = HashMap::new();
    for t in &tracking.tracks {
        if t.ases.len() != 1 || t.prefixes64.len() < 2 {
            continue;
        }
        let as_index = *t.ases.iter().next().expect("len checked");
        let entry = per_as.entry(as_index).or_insert((0, Vec::new()));
        entry.0 += 1;
        // Walk the timeline; record day gaps at /64 changes.
        let mut last: Option<(u64, u128)> = None;
        for &(day, p64, _) in &t.timeline {
            if let Some((lday, lp64)) = last {
                if lp64 != p64 && day > lday {
                    entry.1.push((day - lday) as f64);
                }
            }
            last = Some((day, p64));
        }
    }

    let mut out = Vec::new();
    for (as_index, (devices, mut intervals)) in per_as {
        if (intervals.len() as u64) < min_samples {
            continue;
        }
        v6par::radix_sort_f64(&mut intervals);
        let median = intervals[intervals.len() / 2];
        let info = &world.ases[as_index as usize].info;
        let truth_days = match info.profile.rotation {
            RotationPolicy::Never => None,
            RotationPolicy::Every(d) => Some(d.as_days()),
        };
        out.push(RotationEstimate {
            as_name: info.name.clone(),
            devices,
            samples: intervals.len() as u64,
            median_interval_days: median,
            truth_days,
        });
    }
    out.sort_by(|a, b| b.samples.cmp(&a.samples).then(a.as_name.cmp(&b.as_name)));
    out
}

/// Renders estimates as aligned text with ground-truth comparison.
pub fn render(estimates: &[RotationEstimate]) -> String {
    let mut out = format!(
        "{:<26} {:>8} {:>8} {:>14} {:>12} {:>6}\n",
        "AS", "devices", "samples", "inferred (d)", "truth (d)", "ok"
    );
    for e in estimates {
        out.push_str(&format!(
            "{:<26} {:>8} {:>8} {:>14.1} {:>12} {:>6}\n",
            e.as_name,
            e.devices,
            e.samples,
            e.median_interval_days,
            e.truth_days
                .map(|d| format!("{d:.0}"))
                .unwrap_or_else(|| "never".into()),
            if e.is_accurate() { "yes" } else { "~" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::tracking::analyze;
    use crate::collect::ntp_passive::NtpCorpus;
    use v6netsim::WorldConfig;

    fn estimates() -> Vec<RotationEstimate> {
        let w = World::build(WorldConfig::tiny(), 303);
        let corpus = NtpCorpus::collect_study(&w);
        let tracking = analyze(&w, &corpus, &corpus.dataset(), 10);
        infer_rotation_periods(&w, &tracking, 8)
    }

    #[test]
    fn daily_rotators_inferred_accurately() {
        let ests = estimates();
        assert!(!ests.is_empty(), "no AS had enough EUI-64 samples");
        // German ISPs rotate daily; with daily-queried CPE the inference
        // must land within 2x.
        let daily: Vec<&RotationEstimate> =
            ests.iter().filter(|e| e.truth_days == Some(1.0)).collect();
        assert!(!daily.is_empty(), "no daily-rotation AS measured: {ests:?}");
        let accurate = daily.iter().filter(|e| e.is_accurate()).count();
        assert!(
            accurate * 2 >= daily.len(),
            "daily rotation mis-inferred: {:?}",
            daily
        );
    }

    #[test]
    fn inferred_periods_track_truth_ordering() {
        let ests = estimates();
        // Average inferred interval for fast rotators (≤ 2 d truth) must
        // be below that of slow rotators (≥ 30 d truth).
        let mean = |f: &dyn Fn(&RotationEstimate) -> bool| -> Option<f64> {
            let xs: Vec<f64> = ests
                .iter()
                .filter(|e| f(e))
                .map(|e| e.median_interval_days)
                .collect();
            if xs.is_empty() {
                None
            } else {
                Some(xs.iter().sum::<f64>() / xs.len() as f64)
            }
        };
        let fast = mean(&|e: &RotationEstimate| e.truth_days.map(|d| d <= 2.0).unwrap_or(false));
        let slow = mean(&|e: &RotationEstimate| e.truth_days.map(|d| d >= 30.0).unwrap_or(false));
        if let (Some(fast), Some(slow)) = (fast, slow) {
            assert!(fast < slow, "fast {fast:.1} ≥ slow {slow:.1}");
        }
    }

    #[test]
    fn render_shape() {
        let text = render(&estimates());
        assert!(text.contains("inferred"));
    }
}
