//! The parallel pipeline's determinism contract: every artifact is
//! bit-identical at any thread count.
//!
//! `Experiment::run_with_threads` (and every sharded stage underneath
//! it) must be a pure function of the config — the thread count may only
//! change wall-clock time, never a byte of output.

use v6chaos::{Chaos, FaultPlan, FaultSpec, NoChaos};
use v6hitlist::{Experiment, ExperimentConfig, NtpCorpus};
use v6netsim::{SimDuration, SimTime, World, WorldConfig};

#[test]
fn experiment_artifacts_identical_across_thread_counts() {
    let baseline = Experiment::run_with_threads(ExperimentConfig::tiny(4242), 1);
    let digest = baseline.artifact_digest();
    for threads in [2, 8] {
        let run = Experiment::run_with_threads(ExperimentConfig::tiny(4242), threads);
        // Spot-check the raw artifacts first so a mismatch points at the
        // offending stage rather than just the digest.
        assert_eq!(
            baseline.corpus.observations, run.corpus.observations,
            "corpus diverged at {threads} threads"
        );
        assert_eq!(
            baseline.ntp.records(),
            run.ntp.records(),
            "ntp dataset diverged at {threads} threads"
        );
        assert_eq!(
            baseline.hitlist.campaign.discoveries, run.hitlist.campaign.discoveries,
            "hitlist campaign diverged at {threads} threads"
        );
        assert_eq!(
            baseline.caida.campaign.discoveries, run.caida.campaign.discoveries,
            "caida campaign diverged at {threads} threads"
        );
        assert_eq!(
            baseline.backscan.aliased_64s, run.backscan.aliased_64s,
            "backscan diverged at {threads} threads"
        );
        assert_eq!(
            baseline.tracking.stats, run.tracking.stats,
            "tracking diverged at {threads} threads"
        );
        assert_eq!(
            digest,
            run.artifact_digest(),
            "artifact digest diverged at {threads} threads"
        );
    }
}

/// The tiny run's digest is the value it has been since the simulator's
/// hash labels were strings. The test above compares the pipeline with
/// itself at other thread counts; this one holds it to a recorded value,
/// so a change that moves every stage alike (a hash label off by one
/// byte in `v6netsim`, say) fails here too.
#[test]
fn tiny_artifact_digest_is_pinned() {
    let digest = Experiment::run_with_threads(ExperimentConfig::tiny(4242), 2).artifact_digest();
    assert_eq!(format!("{digest:016x}"), "748ecf85217ff82a");
}

#[test]
fn corpus_collection_threadcount_invariant() {
    for (seed, days) in [(5u64, 2u64), (77, 9), (901, 11)] {
        let w = World::build(WorldConfig::tiny(), seed);
        let window = SimDuration::days(days);
        let seq = NtpCorpus::collect_with(&w, SimTime::START, window, 1, &NoChaos);
        for threads in [3usize, 7] {
            let par = NtpCorpus::collect_with(&w, SimTime::START, window, threads, &NoChaos);
            assert_eq!(
                seq.observations, par.observations,
                "seed={seed} days={days}"
            );
            assert_eq!(seq.served_per_vp, par.served_per_vp);
            assert_eq!(seq.protocol_failures, par.protocol_failures);
        }
    }
}

/// The study DAG's stages with their dependencies, in insertion order —
/// the model the loss-report tests check the real pipeline against.
const STAGES: [(&str, &[&str]); 9] = [
    ("corpus", &[]),
    ("ntp", &["corpus"]),
    ("hitlist", &[]),
    ("caida", &[]),
    ("backscan", &[]),
    ("wardrive", &[]),
    ("alias_findings", &["backscan", "hitlist", "ntp"]),
    ("tracking", &["corpus", "ntp"]),
    ("geolocation", &["tracking", "wardrive"]),
];

/// Every site the chaos pipeline consults: the stage sites plus one
/// `collect.day.<d>` site per study day.
fn pipeline_sites() -> Vec<String> {
    let (d0, d1) = v6netsim::day_range(SimTime::START, v6netsim::time::STUDY_DURATION);
    STAGES
        .iter()
        .map(|(s, _)| format!("dag.stage.{s}"))
        .chain((d0..d1).map(NtpCorpus::day_site))
        .collect()
}

/// What the plan must lose: permanent stage sites closed over the
/// dependency graph, plus (when the corpus stage itself survives) every
/// permanently failing collection day.
fn expected_loss(plan: &dyn Chaos) -> Vec<String> {
    let mut lost_stages: Vec<&str> = Vec::new();
    for (name, deps) in STAGES {
        if plan.is_permanent(&format!("dag.stage.{name}"))
            || deps.iter().any(|d| lost_stages.contains(d))
        {
            lost_stages.push(name);
        }
    }
    let mut units: Vec<String> = lost_stages
        .iter()
        .map(|s| format!("dag.stage.{s}"))
        .collect();
    if !lost_stages.contains(&"corpus") {
        let (d0, d1) = v6netsim::day_range(SimTime::START, v6netsim::time::STUDY_DURATION);
        units.extend(
            (d0..d1)
                .filter(|&d| plan.is_permanent(&NtpCorpus::day_site(d)))
                .map(NtpCorpus::day_site),
        );
    }
    units.sort();
    units
}

#[test]
fn chaos_transient_runs_reproduce_the_fault_free_digest() {
    let digest = Experiment::run_with_threads(ExperimentConfig::tiny(4242), 2).artifact_digest();
    // Plan seed 7 at both ends of the thread range; two more schedules
    // at the parallel end.
    for (seed, threads) in [(7u64, 1usize), (7, 4), (19, 4), (1041, 4)] {
        let plan = FaultPlan::new(seed, FaultSpec::transient(0.35));
        // Non-vacuity: the plan actually faults sites this pipeline visits.
        let faulted = pipeline_sites().iter().filter(|s| plan.fails(s, 0)).count();
        assert!(
            faulted > 0,
            "seed {seed} injects nothing; the test is vacuous"
        );
        let run = Experiment::run_chaos(ExperimentConfig::tiny(4242), threads, &plan);
        assert!(
            run.converged(),
            "seed={seed} threads={threads} lost:\n{}",
            run.loss
        );
        assert!(
            run.failures.is_empty(),
            "seed={seed} threads={threads} failures: {:?}",
            run.failures
        );
        assert_eq!(
            run.digest(),
            Some(digest),
            "transient chaos diverged from the fault-free digest (seed={seed} threads={threads})"
        );
    }
}

#[test]
fn chaos_permanent_losses_match_the_plan_at_any_thread_count() {
    let plan = FaultPlan::new(11, FaultSpec::with_permanent(0.25, 0.5));
    let expected = expected_loss(&plan);
    assert!(
        !expected.is_empty(),
        "seed 11 injects no permanent faults; the test is vacuous"
    );
    let r1 = Experiment::run_chaos(ExperimentConfig::tiny(4242), 1, &plan);
    let r4 = Experiment::run_chaos(ExperimentConfig::tiny(4242), 4, &plan);
    assert!(!r1.converged());
    assert_eq!(r1.loss, r4.loss, "loss report depends on thread count");
    assert_eq!(
        r1.loss.unit_names(),
        expected.iter().map(String::as_str).collect::<Vec<_>>(),
        "loss report disagrees with the injected plan"
    );
    // Never a silently truncated artifact: either the pipeline completed
    // (and the loss report flags any dropped days), or there is no
    // experiment to mistake for a full one.
    if let Some(e) = &r1.experiment {
        for d in &e.corpus.lost_days {
            assert!(r1.loss.contains(&NtpCorpus::day_site(*d)));
        }
    } else {
        assert!(r1
            .failures
            .iter()
            .any(|f| r1.loss.contains(&format!("dag.stage.{}", f.name))));
    }
}
