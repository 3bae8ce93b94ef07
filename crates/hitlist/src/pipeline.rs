//! End-to-end experiment orchestration.
//!
//! One [`ExperimentConfig`] fixes the world, the passive collection, both
//! active baselines and every analysis threshold; [`Experiment::run`]
//! executes the whole study — the programmatic equivalent of the paper's
//! seven months plus the backscan week — and returns everything the bench
//! harness needs to regenerate each table and figure.

use serde::{Deserialize, Serialize};

use v6chaos::{Chaos, DagInjector, LossReport, NoChaos};
use v6geo::WardriveDb;
use v6netsim::rng::{fnv1a, FNV_BASIS};
use v6netsim::{SimTime, World, WorldConfig};
use v6par::{StageFailure, StageTiming};
use v6scan::{AliasList, CaidaCampaignConfig, HitlistCampaignConfig};

use crate::analysis::backscan::{
    alias_findings, backscan, AliasFindings, BackscanConfig, BackscanResult,
};
use crate::analysis::geoloc::{geolocate, GeolocConfig, GeolocationReport};
use crate::analysis::patterns::Ipv4Acceptance;
use crate::analysis::tracking::{analyze as analyze_tracking, TrackingAnalysis};
use crate::collect::active::{
    collect_caida_with_threads, collect_hitlist_with_threads, ActiveDataset,
};
use crate::collect::ntp_passive::NtpCorpus;
use crate::dataset::Dataset;

/// Everything that parameterizes one full study run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// World scale.
    pub world: WorldConfig,
    /// Master seed.
    pub seed: u64,
    /// Hitlist-campaign knobs.
    pub hitlist: HitlistCampaignConfig,
    /// CAIDA-campaign knobs.
    pub caida: CaidaCampaignConfig,
    /// Backscan knobs.
    pub backscan: BackscanConfig,
    /// IPv4-mapped acceptance thresholds.
    pub ipv4_accept: Ipv4Acceptance,
    /// §5.2 transition threshold ("high" when > this; paper: 10).
    pub transition_threshold: u64,
    /// Geolocation-attack knobs.
    pub geoloc: GeolocConfig,
}

impl ExperimentConfig {
    /// A fast configuration for tests.
    pub fn tiny(seed: u64) -> Self {
        ExperimentConfig {
            world: with_standard_outage(WorldConfig::tiny()),
            seed,
            hitlist: HitlistCampaignConfig {
                weeks: 2,
                ..Default::default()
            },
            caida: CaidaCampaignConfig {
                stride: 512,
                ..Default::default()
            },
            backscan: BackscanConfig::default(),
            ipv4_accept: Ipv4Acceptance {
                min_instances: 5,
                ..Default::default()
            },
            transition_threshold: 10,
            geoloc: GeolocConfig {
                // Tiny worlds have only a dozen German homes; the
                // threshold scales with the world.
                min_pairs: 4,
                ..Default::default()
            },
        }
    }

    /// The configuration the bench harness uses to regenerate the paper.
    pub fn paper(seed: u64) -> Self {
        ExperimentConfig {
            world: with_standard_outage(WorldConfig::paper_scale()),
            seed,
            hitlist: HitlistCampaignConfig {
                weeks: 28, // Feb 16 – Aug 29 in the paper
                ..Default::default()
            },
            caida: CaidaCampaignConfig::default(),
            backscan: BackscanConfig::default(),
            ipv4_accept: Ipv4Acceptance::default(),
            transition_threshold: 10,
            geoloc: GeolocConfig::default(),
        }
    }
}

/// Injects the standard ground-truth event every preset carries: a
/// three-day ChinaNet outage in late May (study day 120), which the
/// outage-detection extension must find.
fn with_standard_outage(mut cfg: WorldConfig) -> WorldConfig {
    cfg.outages.push(v6netsim::config::OutageSpec {
        as_name: "ChinaNet".into(),
        start_day: 120,
        duration_days: 3,
    });
    cfg
}

/// All artifacts of one full study run.
pub struct Experiment {
    /// The configuration used.
    pub config: ExperimentConfig,
    /// The synthetic Internet.
    pub world: World,
    /// The passive NTP corpus (raw observations).
    pub corpus: NtpCorpus,
    /// The NTP corpus as a dataset.
    pub ntp: Dataset,
    /// The emulated IPv6 Hitlist.
    pub hitlist: ActiveDataset,
    /// The emulated CAIDA routed-/48 dataset.
    pub caida: ActiveDataset,
    /// Backscan results (§4.2 / Fig. 3).
    pub backscan: BackscanResult,
    /// Alias cross-references (§4.2).
    pub alias_findings: AliasFindings,
    /// EUI-64 tracking analysis (§5.1–5.2, Table 2, Fig. 6–7).
    pub tracking: TrackingAnalysis,
    /// Geolocation attack (§5.3).
    pub geolocation: GeolocationReport,
    /// The wardriving DB the attack used.
    pub wardrive: WardriveDb,
    /// Per-stage wall-clock times of this run ("world" first, then the
    /// DAG stages in insertion order).
    pub timings: Vec<StageTiming>,
}

impl Experiment {
    /// Runs the entire study at the ambient thread count
    /// ([`v6par::threads`], i.e. `V6_THREADS` or the machine's
    /// parallelism).
    pub fn run(config: ExperimentConfig) -> Experiment {
        Self::run_with_threads(config, v6par::threads())
    }

    /// Runs the entire study with up to `threads` workers: the
    /// fault-free [`Experiment::run_chaos`] at [`NoChaos`].
    ///
    /// The stages form an explicit dependency DAG (executed by
    /// [`v6par::Dag`]) instead of straight-line code:
    ///
    /// ```text
    /// corpus ──► ntp ──────► alias_findings ◄── backscan
    ///    │        │               ▲
    ///    │        ▼               │
    ///    └───► tracking        hitlist        caida
    ///             │
    ///             ▼
    ///        geolocation ◄── wardrive
    /// ```
    ///
    /// Independent stages run concurrently and the hot stages shard
    /// internally; every artifact is bit-identical at any thread count.
    /// Panics, naming the stage, when a stage body panicked.
    pub fn run_with_threads(config: ExperimentConfig, threads: usize) -> Experiment {
        let run = Self::run_chaos(config, threads, &NoChaos);
        match run.failures.first() {
            Some(f) => panic!(
                "stage `{}` failed after {} attempt(s): {}",
                f.name, f.attempts, f.reason
            ),
            None => run
                .experiment
                .expect("a run without failed stages completes"),
        }
    }

    /// Runs the study under fault injection; [`Experiment::run_with_threads`]
    /// is this run at [`NoChaos`].
    ///
    /// Every DAG stage attempt consults its `dag.stage.<name>` chaos
    /// site through a [`DagInjector`], retried up to the plan's
    /// [`Chaos::retry_budget`]; the passive-collection stage runs
    /// [`NtpCorpus::collect_with`] under the same plan, so per-day
    /// `collect.day.<d>` faults are skipped and backfilled inside the
    /// stage.
    ///
    /// The contract (pinned by `tests/parallel_equivalence.rs`):
    ///
    /// * all faults transient ⇒ [`ChaosRun::experiment`] is `Some`, the
    ///   loss report is empty, and [`ChaosRun::digest`] equals the
    ///   fault-free [`Experiment::artifact_digest`] at any thread count;
    /// * any permanent fault ⇒ the loss report names exactly the lost
    ///   stages (plus their cascaded dependents) and lost collection
    ///   days — never a silently truncated artifact. A lost `ntp` stage,
    ///   for one, also loses `alias_findings`, `tracking` and
    ///   `geolocation`.
    pub fn run_chaos(config: ExperimentConfig, threads: usize, chaos: &dyn Chaos) -> ChaosRun {
        let started = std::time::Instant::now();
        let world = {
            let _span = v6obs::span("world");
            World::build(config.world.clone(), config.seed)
        };
        let world_wall = started.elapsed();

        let mut run =
            stage_dag(&config, &world, threads, chaos).run(threads, &DagInjector::new(chaos));

        let mut timings = vec![StageTiming {
            name: "world",
            wall: world_wall,
        }];
        timings.extend(run.outputs.timings.iter().copied());

        let mut loss = LossReport::new();
        for f in &run.failures {
            let reason = if f.attempts == 0 {
                f.reason.to_string()
            } else {
                format!("{} after {} attempt(s)", f.reason, f.attempts)
            };
            loss.record(DagInjector::stage_site(f.name), reason);
        }

        let experiment = if run.is_complete() {
            let out = &mut run.outputs;
            Some(Experiment {
                corpus: out.take("corpus"),
                ntp: out.take("ntp"),
                hitlist: out.take("hitlist"),
                caida: out.take("caida"),
                backscan: out.take("backscan"),
                alias_findings: out.take("alias_findings"),
                tracking: out.take("tracking"),
                geolocation: out.take("geolocation"),
                wardrive: out.take("wardrive"),
                config,
                world,
                timings: timings.clone(),
            })
        } else {
            None
        };

        // Account the collection days the corpus stage had to drop —
        // whether or not the rest of the pipeline completed.
        let lost_days = match &experiment {
            Some(e) => e.corpus.lost_days.clone(),
            None => run
                .outputs
                .try_take::<NtpCorpus>("corpus")
                .map(|c| c.lost_days)
                .unwrap_or_default(),
        };
        for &d in &lost_days {
            loss.record(
                NtpCorpus::day_site(d),
                "permanent collection fault; day skipped after backfill",
            );
        }

        // Definitive loss accounting for this run: `chaos.lost_units` is
        // bumped exactly once per lost unit, here (not inside LossReport,
        // whose merge/rebuild paths would double-count).
        v6obs::counter("chaos.lost_units").add(loss.len() as u64);

        ChaosRun {
            experiment,
            loss,
            failures: run.failures,
            timings,
        }
    }
    /// The single-day slice of the corpus used by Figures 4b and 5
    /// (the paper picked 1 July 2022 ≈ study day 157).
    pub fn one_day_slice(&self, day: u64) -> Dataset {
        let from = SimTime(day * 86_400);
        let to = SimTime((day + 1) * 86_400);
        self.ntp.slice(format!("NTP Pool (day {day})"), from, to)
    }

    /// An order-sensitive FNV-1a digest over every major artifact of the
    /// run: corpus observations, dataset records, campaign discoveries
    /// and alias lists, backscan counts, tracking tracks and geolocation
    /// output.
    ///
    /// Two runs of the same config produce the same digest **at any
    /// thread count** — this is the determinism contract the parallel
    /// pipeline is held to (see `tests/parallel_equivalence.rs` and the
    /// `pipeline` bench).
    pub fn artifact_digest(&self) -> u64 {
        let mut d = Fnv::new();
        for o in &self.corpus.observations {
            d.u128(o.addr);
            d.u64(o.t as u64);
            d.u64(o.as_index as u64);
            d.u64(o.server as u64);
        }
        for &n in &self.corpus.served_per_vp {
            d.u64(n);
        }
        d.u64(self.corpus.protocol_failures);
        for ds in [&self.ntp, &self.hitlist.dataset, &self.caida.dataset] {
            d.u64(ds.observation_count());
            for r in ds.records() {
                d.u128(u128::from(r.addr));
                d.u64(r.first.as_secs());
                d.u64(r.last.as_secs());
                d.u64(r.count);
            }
        }
        for c in [&self.hitlist.campaign, &self.caida.campaign] {
            d.u64(c.probes_sent);
            for disc in &c.discoveries {
                d.u128(u128::from(disc.addr));
                d.u64(disc.t.as_secs());
            }
            for p in &c.aliased {
                d.u128(p.bits());
                d.u64(p.len() as u64);
            }
            for &n in &c.weekly_new {
                d.u64(n);
            }
        }
        let b = &self.backscan;
        for n in [
            b.clients_probed,
            b.clients_responsive,
            b.random_probed,
            b.random_responsive,
        ] {
            d.u64(n);
        }
        for p in &b.aliased_64s {
            d.u128(p.bits());
        }
        let f = &self.alias_findings;
        for n in [
            f.known_to_hitlist,
            f.new_aliased,
            f.ntp_clients_in_aliased,
            f.client_ases,
            f.hitlist_clients_in_aliased,
        ] {
            d.u64(n);
        }
        let t = &self.tracking;
        d.u64(t.stats.corpus_addresses);
        d.u64(t.stats.eui64_addresses);
        d.u64(t.stats.unique_macs);
        d.u64(t.multi_prefix_macs);
        for track in &t.tracks {
            d.u64(track.mac.as_u64());
            d.u64(track.first);
            d.u64(track.last);
            d.u64(track.transitions);
            for &p in &track.prefixes64 {
                d.u128(p);
            }
        }
        let g = &self.geolocation;
        d.u64(g.input_macs);
        for o in &g.offsets {
            d.u64(u64::from_be_bytes([
                0, 0, 0, 0, 0, o.oui.0[0], o.oui.0[1], o.oui.0[2],
            ]));
            d.u64(o.offset as u64);
            d.u64(o.votes);
            d.u64(o.pairs);
        }
        for m in &g.geolocated {
            d.u64(m.mac.as_u64());
            d.u64(m.bssid.as_u64());
            d.u64(m.location.lat.to_bits());
            d.u64(m.location.lon.to_bits());
        }
        d.finish()
    }
}

/// Builds the nine-stage study DAG over `w`. The corpus stage collects
/// under `chaos`'s per-day faults; stage-level faults are injected by the
/// DAG runner itself, so they never change what a successful stage
/// computes.
fn stage_dag<'e>(
    cfg: &'e ExperimentConfig,
    w: &'e World,
    threads: usize,
    chaos: &'e dyn Chaos,
) -> v6par::Dag<'e> {
    let mut dag = v6par::Dag::new();

    // Passive collection over the study window.
    dag.add("corpus", &[], move |_| {
        NtpCorpus::collect_with(
            w,
            SimTime::START,
            v6netsim::time::STUDY_DURATION,
            threads,
            chaos,
        )
    });
    dag.add("ntp", &["corpus"], |o| {
        o.get::<NtpCorpus>("corpus").dataset()
    });

    // Active baselines, concurrent with collection.
    dag.add("hitlist", &[], move |_| {
        collect_hitlist_with_threads(w, 0, &cfg.hitlist, threads)
    });
    dag.add("caida", &[], move |_| {
        collect_caida_with_threads(w, 1, &cfg.caida, threads)
    });

    // Analyses, each released as soon as its inputs exist.
    dag.add("backscan", &[], move |_| backscan(w, &cfg.backscan));
    dag.add("wardrive", &[], move |_| WardriveDb::collect(w));
    dag.add(
        "alias_findings",
        &["backscan", "hitlist", "ntp"],
        move |o| {
            let hitlist = o.get::<ActiveDataset>("hitlist");
            let hl_aliases = AliasList::from_prefixes(hitlist.campaign.aliased.iter().copied());
            alias_findings(
                w,
                o.get::<BackscanResult>("backscan"),
                &hl_aliases,
                &o.get::<Dataset>("ntp").addr_set(),
                &hitlist.dataset.addr_set(),
            )
        },
    );
    dag.add("tracking", &["corpus", "ntp"], move |o| {
        analyze_tracking(w, o.get("corpus"), o.get("ntp"), cfg.transition_threshold)
    });
    dag.add("geolocation", &["tracking", "wardrive"], move |o| {
        let leaked: Vec<v6addr::Mac> = o
            .get::<TrackingAnalysis>("tracking")
            .tracks
            .iter()
            .map(|t| t.mac)
            .collect();
        geolocate(&leaked, o.get::<WardriveDb>("wardrive"), &cfg.geoloc)
    });
    dag
}

/// The outcome of one fault-injected study run
/// ([`Experiment::run_chaos`]).
pub struct ChaosRun {
    /// The full experiment — `Some` iff every DAG stage completed
    /// (possibly after retries). Present even when collection days were
    /// permanently lost; check [`ChaosRun::loss`] before trusting the
    /// artifacts.
    pub experiment: Option<Experiment>,
    /// Exactly which units of work were permanently lost: failed DAG
    /// stages (and their cascaded dependents) as `dag.stage.<name>`,
    /// dropped collection days as `collect.day.<d>`. Empty is the
    /// convergence certificate of a transient-only run.
    pub loss: LossReport,
    /// Per-stage failures as the DAG runner reported them, in stage
    /// insertion order.
    pub failures: Vec<StageFailure>,
    /// Wall-clock timings of the successful stages ("world" first).
    pub timings: Vec<StageTiming>,
}

impl ChaosRun {
    /// True when the run converged to complete, trustworthy artifacts:
    /// every stage completed and nothing was lost. Guaranteed whenever
    /// every injected fault was transient.
    pub fn converged(&self) -> bool {
        self.experiment.is_some() && self.loss.is_empty()
    }

    /// The artifact digest, when the pipeline completed. Equal to the
    /// fault-free digest iff the run [`converged`](ChaosRun::converged).
    pub fn digest(&self) -> Option<u64> {
        self.experiment.as_ref().map(Experiment::artifact_digest)
    }
}

/// Minimal FNV-1a accumulator for [`Experiment::artifact_digest`].
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_BASIS)
    }

    fn u64(&mut self, v: u64) {
        self.0 = fnv1a(self.0, &v.to_be_bytes());
    }

    fn u128(&mut self, v: u128) {
        self.u64((v >> 64) as u64);
        self.u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_runs_and_is_coherent() {
        let e = Experiment::run(ExperimentConfig::tiny(2024));
        // The three datasets exist and have the paper's size ordering.
        assert!(e.ntp.len() > e.hitlist.dataset.len());
        assert!(!e.caida.dataset.is_empty());
        // Backscan probed someone.
        assert!(e.backscan.clients_probed > 0);
        // Tracking found EUI-64 devices.
        assert!(e.tracking.stats.unique_macs > 0);
        // The one-day slice is a strict subset.
        let day = e.one_day_slice(100);
        assert!(day.len() < e.ntp.len());
        // Every stage reported a wall time ("world" + 9 DAG stages).
        assert_eq!(e.timings.len(), 10);
        assert_eq!(e.timings[0].name, "world");
        assert!(e.timings.iter().any(|t| t.name == "corpus"));
        assert!(e.timings.iter().any(|t| t.name == "geolocation"));
    }

    #[test]
    fn permanent_stage_fault_cascades_and_is_accounted() {
        use v6chaos::{ScriptedChaos, SiteScript};
        // Kill the corpus stage permanently: the injected failure
        // replaces the task body, so the expensive collection never
        // runs, and ntp / tracking / alias_findings / geolocation all
        // cascade without running.
        let chaos = ScriptedChaos::new()
            .with("dag.stage.corpus", SiteScript::permanent())
            .with("dag.stage.backscan", SiteScript::transient(1));
        let run = Experiment::run_chaos(ExperimentConfig::tiny(2024), 4, &chaos);
        assert!(run.experiment.is_none());
        assert!(!run.converged());
        assert_eq!(run.digest(), None);
        assert_eq!(
            run.loss.unit_names(),
            vec![
                "dag.stage.alias_findings",
                "dag.stage.corpus",
                "dag.stage.geolocation",
                "dag.stage.ntp",
                "dag.stage.tracking",
            ]
        );
        // The cascaded stages never executed an attempt.
        for f in &run.failures {
            if f.name != "corpus" {
                assert_eq!(f.attempts, 0, "stage {} ran", f.name);
            }
        }
        // The transient backscan fault cleared: backscan is not lost and
        // its wall time was recorded.
        assert!(run.timings.iter().any(|t| t.name == "backscan"));
        assert!(run.timings.iter().any(|t| t.name == "caida"));
    }

    #[test]
    fn config_round_trips_through_serde() {
        // Regression: `hitlist`/`caida` used to be #[serde(skip)], so a
        // saved config silently lost its campaign knobs on reload.
        let mut cfg = ExperimentConfig::tiny(7);
        cfg.hitlist.weeks = 23;
        cfg.hitlist.low_iid_per_as = 17;
        cfg.caida.stride = 99;
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.hitlist, cfg.hitlist);
        assert_eq!(back.caida, cfg.caida);
        assert_eq!(back.seed, cfg.seed);
        // And the reloaded config serializes identically.
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
