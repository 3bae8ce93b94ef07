//! Target-generation-algorithm evaluation: what is a hitlist *worth* as
//! TGA training data?
//!
//! The paper's motivation (§1): TGAs "must be trained on *some* hitlist
//! and are biased to the types of addresses contained in their training
//! data". This module measures that bias directly, in the spirit of
//! Steger et al.'s *Target Acquired?* \[68\]: train the same pattern-mining
//! TGA on different corpora, emit equal candidate budgets, probe them
//! against the same world, and compare hit rates.
//!
//! The punchline mirrors the paper: the giant passive corpus is
//! *terrible* TGA food — its addresses are ephemeral and random, so
//! patterns mined from it don't generalize — while the small active
//! hitlist's stable infrastructure addresses extrapolate well. Bigger is
//! not better for every purpose.

use serde::{Deserialize, Serialize};

use v6netsim::{SimTime, World};
use v6scan::{scan, PatternTga, RangeTga, WorldProber, Zmap6Config};

use crate::dataset::Dataset;

/// Result of evaluating one training corpus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TgaEval {
    /// Name of the training dataset.
    pub trained_on: String,
    /// Seed addresses the model saw.
    pub training_size: u64,
    /// Candidates emitted (≤ budget).
    pub candidates: u64,
    /// Candidates that were responsive when probed.
    pub hits: u64,
    /// Responsive candidates *not already in the training data* (the
    /// only ones that matter: a TGA that re-emits its input is useless).
    pub novel_hits: u64,
}

impl TgaEval {
    /// Hit rate over emitted candidates.
    pub fn hit_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.hits as f64 / self.candidates as f64
        }
    }

    /// Novel-hit rate over emitted candidates.
    pub fn novel_hit_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.novel_hits as f64 / self.candidates as f64
        }
    }
}

/// Which TGA family to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TgaKind {
    /// Exact-recurrence pattern mining (Entropy/IP-flavoured).
    Pattern,
    /// 6Gen-style nibble-range clustering.
    Range,
}

/// Trains a TGA of `kind` on `training`, emits up to `budget` candidates,
/// probes them from vantage point `vp_id` at time `t`.
pub fn evaluate_tga_kind(
    world: &World,
    training: &Dataset,
    kind: TgaKind,
    budget: usize,
    vp_id: u16,
    t: SimTime,
    sample_cap: usize,
) -> TgaEval {
    // Cap the training sample so corpora of wildly different sizes get
    // comparable model-fitting effort (and runtime stays bounded).
    let step = (training.len() / sample_cap.max(1)).max(1);
    let sample = training.records().iter().step_by(step).map(|r| r.addr);
    let (candidates, seeds) = match kind {
        TgaKind::Pattern => {
            let mut tga = PatternTga::new();
            tga.observe_all(sample);
            (tga.generate(budget), tga.seed_count())
        }
        TgaKind::Range => {
            let mut tga = RangeTga::new();
            tga.observe_all(sample);
            (tga.generate(budget), tga.seed_count())
        }
    };
    probe_candidates(world, training, kind, seeds, candidates, vp_id, t)
}

fn probe_candidates(
    world: &World,
    training: &Dataset,
    kind: TgaKind,
    seeds: u64,
    candidates: Vec<std::net::Ipv6Addr>,
    vp_id: u16,
    t: SimTime,
) -> TgaEval {
    let prober = WorldProber::new(world, vp_id);
    let cfg = Zmap6Config {
        seed: 0x76a_e7a1,
        rate_pps: 1_000_000,
        start: t,
        ..Default::default()
    };
    let result = scan(&prober, &candidates, &cfg, 1);
    let mut hits = 0u64;
    let mut novel = 0u64;
    for r in &result.responsive {
        hits += 1;
        if !training.contains(r.target) {
            novel += 1;
        }
    }
    TgaEval {
        trained_on: format!("{} ({kind:?})", training.name()),
        training_size: seeds,
        candidates: candidates.len() as u64,
        hits,
        novel_hits: novel,
    }
}

/// Renders a comparison table.
pub fn render(evals: &[TgaEval]) -> String {
    let mut out = format!(
        "{:<20} {:>9} {:>10} {:>7} {:>9} {:>9} {:>11}\n",
        "Trained on", "seeds", "candidates", "hits", "hit rate", "novel", "novel rate"
    );
    for e in evals {
        out.push_str(&format!(
            "{:<20} {:>9} {:>10} {:>7} {:>8.1}% {:>9} {:>10.1}%\n",
            e.trained_on,
            e.training_size,
            e.candidates,
            e.hits,
            e.hit_rate() * 100.0,
            e.novel_hits,
            e.novel_hit_rate() * 100.0
        ));
    }
    out
}

/// Convenience: evaluate several corpora with the same budget.
pub fn compare_training_corpora(
    world: &World,
    corpora: &[&Dataset],
    budget: usize,
    vp_id: u16,
    t: SimTime,
) -> Vec<TgaEval> {
    corpora
        .iter()
        .flat_map(|d| {
            [TgaKind::Pattern, TgaKind::Range]
                .map(|k| evaluate_tga_kind(world, d, k, budget, vp_id, t, 50_000))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::active::collect_hitlist;
    use crate::collect::ntp_passive::NtpCorpus;
    use v6netsim::{SimDuration, WorldConfig};
    use v6scan::HitlistCampaignConfig;

    #[test]
    fn hitlist_trained_tga_beats_ntp_trained() {
        let w = World::build(WorldConfig::tiny(), 404);
        let corpus = NtpCorpus::collect(&w, SimTime::START, SimDuration::days(30));
        let ntp = corpus.dataset();
        let hl = collect_hitlist(
            &w,
            0,
            &HitlistCampaignConfig {
                weeks: 2,
                ..Default::default()
            },
        );
        let t = SimTime(SimDuration::days(31).as_secs());
        let evals = compare_training_corpora(&w, &[&hl.dataset, &ntp], 2_000, 2, t);
        assert_eq!(evals.len(), 4);
        let hl_eval = &evals[0]; // hitlist-trained, pattern TGA
        let ntp_eval = &evals[2]; // NTP-trained, pattern TGA
                                  // The paper's bias point: stable infrastructure seeds generalize;
                                  // ephemeral random client seeds do not.
        assert!(
            hl_eval.hit_rate() > ntp_eval.hit_rate(),
            "hitlist-trained {:.3} ≤ ntp-trained {:.3}",
            hl_eval.hit_rate(),
            ntp_eval.hit_rate()
        );
        assert!(hl_eval.hits > 0, "hitlist-trained TGA found nothing");
    }

    #[test]
    fn empty_training_yields_nothing() {
        let w = World::build(WorldConfig::tiny(), 404);
        let empty = Dataset::from_observations("empty", Vec::new());
        for kind in [TgaKind::Pattern, TgaKind::Range] {
            let e = evaluate_tga_kind(&w, &empty, kind, 1_000, 0, SimTime::START, 1_000);
            assert_eq!(e.candidates, 0);
            assert_eq!(e.hit_rate(), 0.0);
        }
    }

    #[test]
    fn render_shape() {
        let e = TgaEval {
            trained_on: "x".into(),
            training_size: 10,
            candidates: 100,
            hits: 5,
            novel_hits: 3,
        };
        let text = render(&[e]);
        assert!(text.contains("novel rate"));
        assert!(text.contains("5.0%"));
    }
}
