//! # v6chaos — deterministic fault injection for the hitlist pipeline
//!
//! The paper's seven-month collection survived real churn: pool servers
//! dropping out, bursty load, partial weekly releases. Our reproduction
//! must therefore prove its failure paths, not just its happy paths —
//! and it must prove them *reproducibly*. Everything here is a pure
//! function of a 64-bit seed: a [`FaultPlan`] assigns every named fault
//! site (a DAG stage, an ingestion shard, a collection day) a fixed
//! [`SiteScript`] saying which attempts fail, how, and whether the site
//! stalls first. Replaying the same seed replays the same faults, at any
//! thread count.
//!
//! The contract the chaos suite pins (see `crates/hitlist/tests` and
//! `crates/serve/tests`):
//!
//! * **Transient faults converge.** If every injected fault is
//!   transient, retry and backfill must reproduce the byte-identical
//!   artifacts of a fault-free run (which is the same run at
//!   [`NoChaos`]).
//! * **Permanent faults are accounted.** If a site fails permanently,
//!   the run must report exactly which units were lost (a [`LossReport`])
//!   — never a silently truncated artifact.
//!
//! Site naming conventions used across the workspace:
//!
//! | site                       | injected into                          |
//! |----------------------------|----------------------------------------|
//! | `dag.stage.<name>`         | one `v6par::Dag` stage attempt         |
//! | `collect.day.<d>`          | one day of passive NTP collection      |
//! | `serve.worker.update.<seq>`| normalizing ingest update `seq`:       |
//! |                            | retried up to the budget; exhaustion   |
//! |                            | or an injected crash → update recorded |
//! |                            | lost                                   |
//! | `serve.shard.<i>`          | merging accumulated state of shard `i` |
//! | `store.append.<epoch>`     | epoch-log append: `Error` tears the    |
//! |                            | frame mid-write, `Panic` drops the     |
//! |                            | tail page (partial flush); both fail   |
//! |                            | the publish                            |
//! | `store.bitrot.<epoch>`     | silent bit flip inside the appended    |
//! |                            | frame — the append *succeeds*; only    |
//! |                            | recovery detects and quarantines it    |
//! | `store.checkpoint.<epoch>` | checkpoint compaction: the checkpoint  |
//! |                            | file tears and the log is kept intact  |
//! | `<ns>.<endpoint>.<seq>`    | one chunk an endpoint sends on a       |
//! |                            | `v6wire::Fabric` (namespace `wire` for |
//! |                            | front-door connections, `cluster` for  |
//! |                            | nodes): `Error` drops the chunk        |
//! |                            | (loss), `Stall` holds it and all sent  |
//! |                            | behind it until the receiver's clock   |
//! |                            | passes the release (slow peer), and    |
//! |                            | `Panic` is the endpoint's hook — a     |
//! |                            | `wire.*` end flips one deterministic   |
//! |                            | bit (corruption the frame checksums    |
//! |                            | must catch), a `cluster.*` node        |
//! |                            | **dies**: its stores drop and it later |
//! |                            | restarts through crash recovery. The   |
//! |                            | read client is never consulted         |
//!
//! The seed always comes from the caller: a test names its seeds as
//! consts, so a failing assert message is enough to replay the schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Duration;

use v6netsim::rng::{hash64, Rng};

/// Cached `chaos.decisions.*` counters in the global `v6obs` registry.
struct DecisionMetrics {
    errors: v6obs::Counter,
    panics: v6obs::Counter,
    stalls: v6obs::Counter,
}

fn decision_metrics() -> &'static DecisionMetrics {
    static METRICS: OnceLock<DecisionMetrics> = OnceLock::new();
    METRICS.get_or_init(|| DecisionMetrics {
        errors: v6obs::counter("chaos.decisions.errors"),
        panics: v6obs::counter("chaos.decisions.panics"),
        stalls: v6obs::counter("chaos.decisions.stalls"),
    })
}

/// Domain separator so chaos draws never collide with simulator draws
/// made from the same numeric seed.
const CHAOS_SALT: u64 = 0x6368_616f_735f_7631; // "chaos_v1"

/// What the injector tells a site to do on one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Proceed normally.
    None,
    /// Sleep this long, then proceed normally (back-pressure / slow peer).
    Stall(Duration),
    /// Fail this attempt with a recoverable error.
    Error,
    /// Fail this attempt by crashing (a panic / dead worker thread).
    Panic,
}

impl Fault {
    /// True when this decision fails the attempt (error or crash).
    pub fn is_failure(self) -> bool {
        matches!(self, Fault::Error | Fault::Panic)
    }
}

/// The fixed per-site script a plan assigns: which attempts fail and how.
///
/// Attempt indices `0..fail_attempts` fail; later attempts succeed.
/// `fail_attempts == u32::MAX` means the site fails *permanently* — no
/// retry budget clears it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteScript {
    /// Number of leading attempts that fail (`u32::MAX` = all of them).
    pub fail_attempts: u32,
    /// Failures crash (panic / thread death) rather than return an error.
    pub panics: bool,
    /// Stall applied to the first *succeeding* attempt, if any.
    pub stall: Option<Duration>,
}

impl SiteScript {
    /// A site that never faults.
    pub fn ok() -> Self {
        SiteScript {
            fail_attempts: 0,
            panics: false,
            stall: None,
        }
    }

    /// A site whose first `n` attempts fail with recoverable errors.
    pub fn transient(n: u32) -> Self {
        SiteScript {
            fail_attempts: n,
            panics: false,
            stall: None,
        }
    }

    /// A site whose first `n` attempts crash.
    pub fn transient_panic(n: u32) -> Self {
        SiteScript {
            fail_attempts: n,
            panics: true,
            stall: None,
        }
    }

    /// A site that fails every attempt with recoverable errors.
    pub fn permanent() -> Self {
        SiteScript {
            fail_attempts: u32::MAX,
            panics: false,
            stall: None,
        }
    }

    /// A site that crashes on every attempt.
    pub fn permanent_panic() -> Self {
        SiteScript {
            fail_attempts: u32::MAX,
            panics: true,
            stall: None,
        }
    }

    /// The same script with a stall on the first succeeding attempt.
    pub fn with_stall(mut self, stall: Duration) -> Self {
        self.stall = Some(stall);
        self
    }

    /// True when no retry budget clears this site.
    pub fn is_permanent(&self) -> bool {
        self.fail_attempts == u32::MAX
    }

    /// The decision for one attempt index under this script.
    pub fn decide(&self, attempt: u32) -> Fault {
        if attempt < self.fail_attempts {
            if self.panics {
                Fault::Panic
            } else {
                Fault::Error
            }
        } else if attempt == self.fail_attempts {
            match self.stall {
                Some(d) => Fault::Stall(d),
                None => Fault::None,
            }
        } else {
            Fault::None
        }
    }
}

/// A source of deterministic fault decisions, keyed by site name.
///
/// Implementations must be pure: the script for a site never depends on
/// call order, thread count, or wall-clock time — this is what makes
/// chaos runs replayable and their loss reports thread-count invariant.
pub trait Chaos: Send + Sync {
    /// The fixed script for `site`.
    fn script(&self, site: &str) -> SiteScript;

    /// The decision for one `(site, attempt)` pair.
    ///
    /// Every non-`None` decision increments a `chaos.decisions.*`
    /// counter in the global `v6obs` registry. Because decisions are a
    /// pure function of `(site, attempt)` and consumers consult each
    /// pair exactly once, these counts are thread-count invariant and a
    /// chaos run's [`LossReport`] can be reconciled against them.
    fn decide(&self, site: &str, attempt: u32) -> Fault {
        let fault = self.script(site).decide(attempt);
        match fault {
            Fault::None => {}
            Fault::Stall(_) => decision_metrics().stalls.inc(),
            Fault::Error => decision_metrics().errors.inc(),
            Fault::Panic => decision_metrics().panics.inc(),
        }
        fault
    }

    /// True when this `(site, attempt)` pair fails.
    fn fails(&self, site: &str, attempt: u32) -> bool {
        self.decide(site, attempt).is_failure()
    }

    /// True when no retry budget clears `site`.
    fn is_permanent(&self, site: &str) -> bool {
        self.script(site).is_permanent()
    }

    /// Retries sufficient to outlast any *transient* script this source
    /// can produce. Handlers that retry at least this many times satisfy
    /// the transient-faults-converge invariant.
    fn retry_budget(&self) -> u32;
}

/// Statistical knobs for a seeded [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability a site faults at all.
    pub fault_rate: f64,
    /// Probability a faulty site is permanent (vs transient).
    pub permanent_rate: f64,
    /// Upper bound on leading failed attempts of a transient site (≥ 1).
    pub max_transient_failures: u32,
    /// Probability a site stalls before its first success.
    pub stall_rate: f64,
    /// Stall duration, in milliseconds.
    pub stall_ms: u64,
}

impl FaultSpec {
    /// A transient-only spec: faults occur but every one clears within
    /// the retry budget, so runs must converge to fault-free artifacts.
    pub fn transient(fault_rate: f64) -> Self {
        FaultSpec {
            fault_rate,
            permanent_rate: 0.0,
            max_transient_failures: 2,
            stall_rate: 0.1,
            stall_ms: 2,
        }
    }

    /// A spec that mixes permanent faults in, for loss-report testing.
    pub fn with_permanent(fault_rate: f64, permanent_rate: f64) -> Self {
        FaultSpec {
            permanent_rate,
            ..FaultSpec::transient(fault_rate)
        }
    }

    /// A spec that never injects anything.
    pub fn quiet() -> Self {
        FaultSpec {
            fault_rate: 0.0,
            permanent_rate: 0.0,
            max_transient_failures: 1,
            stall_rate: 0.0,
            stall_ms: 0,
        }
    }
}

/// A seeded plan assigning every site a fixed [`SiteScript`].
///
/// Scripts are derived on demand from `hash64(seed, site)` through the
/// simulator's own xoshiro RNG (the [`v6netsim::rng`] fork idiom), so a
/// plan needs no per-site state and two plans with the same seed and
/// spec agree on every site — including sites neither has seen before.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
}

impl FaultPlan {
    /// A plan for `seed` under `spec`.
    pub fn new(seed: u64, spec: FaultSpec) -> Self {
        FaultPlan { seed, spec }
    }

    /// The seed this plan replays.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The statistical knobs this plan draws from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }
}

impl Chaos for FaultPlan {
    fn script(&self, site: &str) -> SiteScript {
        // Fixed draw order; every draw happens whether or not it is
        // used, so scripts stay stable if the spec gains knobs.
        let mut rng = Rng::new(hash64(self.seed ^ CHAOS_SALT, site.as_bytes()));
        let faulty = rng.chance(self.spec.fault_rate);
        let permanent = rng.chance(self.spec.permanent_rate);
        let transient_n = 1 + rng.below(u64::from(self.spec.max_transient_failures.max(1))) as u32;
        let panics = rng.chance(0.5);
        let stalls = rng.chance(self.spec.stall_rate);
        let stall = stalls.then(|| Duration::from_millis(self.spec.stall_ms));
        if !faulty {
            return SiteScript {
                fail_attempts: 0,
                panics: false,
                stall,
            };
        }
        SiteScript {
            fail_attempts: if permanent { u32::MAX } else { transient_n },
            panics,
            stall,
        }
    }

    fn retry_budget(&self) -> u32 {
        self.spec.max_transient_failures
    }
}

/// A hand-written plan: explicit scripts for named sites, everything
/// else healthy. The unit-test counterpart of [`FaultPlan`].
#[derive(Debug, Clone, Default)]
pub struct ScriptedChaos {
    sites: HashMap<String, SiteScript>,
}

impl ScriptedChaos {
    /// An empty plan (no site ever faults).
    pub fn new() -> Self {
        ScriptedChaos::default()
    }

    /// Adds (or replaces) the script for one site.
    pub fn with(mut self, site: impl Into<String>, script: SiteScript) -> Self {
        self.sites.insert(site.into(), script);
        self
    }
}

impl Chaos for ScriptedChaos {
    fn script(&self, site: &str) -> SiteScript {
        self.sites.get(site).copied().unwrap_or_else(SiteScript::ok)
    }

    fn retry_budget(&self) -> u32 {
        self.sites
            .values()
            .filter(|s| !s.is_permanent())
            .map(|s| s.fail_attempts)
            .max()
            .unwrap_or(0)
    }
}

/// A source that never injects anything — the production default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoChaos;

impl Chaos for NoChaos {
    fn script(&self, _site: &str) -> SiteScript {
        SiteScript::ok()
    }

    fn retry_budget(&self) -> u32 {
        0
    }
}

/// Adapts a [`Chaos`] source to the [`v6par::FaultInjector`] interface,
/// prefixing stage names with `dag.stage.` so DAG sites share the global
/// namespace.
pub struct DagInjector<'a> {
    chaos: &'a dyn Chaos,
}

impl<'a> DagInjector<'a> {
    /// An injector over `chaos`.
    pub fn new(chaos: &'a dyn Chaos) -> Self {
        DagInjector { chaos }
    }

    /// The site name a DAG stage maps to.
    pub fn stage_site(stage: &str) -> String {
        format!("dag.stage.{stage}")
    }
}

impl v6par::FaultInjector for DagInjector<'_> {
    fn decide(&self, stage: &str, attempt: u32) -> v6par::InjectedFault {
        match self.chaos.decide(&Self::stage_site(stage), attempt) {
            Fault::None => v6par::InjectedFault::None,
            Fault::Stall(d) => v6par::InjectedFault::Stall(d),
            Fault::Error => v6par::InjectedFault::Error(format!(
                "injected transient error (stage `{stage}`, attempt {attempt})"
            )),
            Fault::Panic => v6par::InjectedFault::Panic(format!(
                "injected panic (stage `{stage}`, attempt {attempt})"
            )),
        }
    }

    fn retry_budget(&self) -> u32 {
        self.chaos.retry_budget()
    }
}

/// One lost unit of work: its site name and why it was lost.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LostUnit {
    /// The site (unit) that was lost, e.g. `dag.stage.backscan`.
    pub unit: String,
    /// Human-readable reason, e.g. `permanent fault after 4 attempts`.
    pub reason: String,
}

/// The accounting a chaos run must produce: exactly which units of work
/// were permanently lost. An empty report is the convergence certificate
/// of a transient-only run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LossReport {
    units: Vec<LostUnit>,
}

impl LossReport {
    /// An empty report.
    pub fn new() -> Self {
        LossReport::default()
    }

    /// Records one lost unit (duplicates by unit name are coalesced).
    pub fn record(&mut self, unit: impl Into<String>, reason: impl Into<String>) {
        let unit = unit.into();
        if !self.units.iter().any(|u| u.unit == unit) {
            self.units.push(LostUnit {
                unit,
                reason: reason.into(),
            });
            self.units.sort();
        }
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: &LossReport) {
        for u in &other.units {
            self.record(u.unit.clone(), u.reason.clone());
        }
    }

    /// True when nothing was lost.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Number of lost units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// The lost units, sorted by name.
    pub fn units(&self) -> &[LostUnit] {
        &self.units
    }

    /// True when `unit` is reported lost.
    pub fn contains(&self, unit: &str) -> bool {
        self.units.iter().any(|u| u.unit == unit)
    }

    /// Just the lost unit names, sorted.
    pub fn unit_names(&self) -> Vec<&str> {
        self.units.iter().map(|u| u.unit.as_str()).collect()
    }
}

impl std::fmt::Display for LossReport {
    /// One `LOST <unit> (<reason>)` line per unit — the grep-stable
    /// format the CI golden file pins.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for u in &self.units {
            writeln!(f, "LOST {} ({})", u.unit, u.reason)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_and_order_free() {
        let plan = FaultPlan::new(42, FaultSpec::with_permanent(0.5, 0.3));
        let a = plan.script("dag.stage.corpus");
        let _ = plan.script("collect.day.17"); // interleave other sites
        let b = plan.script("dag.stage.corpus");
        assert_eq!(a, b);
        let clone = FaultPlan::new(42, FaultSpec::with_permanent(0.5, 0.3));
        assert_eq!(clone.script("dag.stage.corpus"), a);
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a = FaultPlan::new(1, FaultSpec::transient(0.5));
        let b = FaultPlan::new(2, FaultSpec::transient(0.5));
        let sites: Vec<String> = (0..64).map(|i| format!("site.{i}")).collect();
        assert!(sites.iter().any(|s| a.script(s) != b.script(s)));
    }

    #[test]
    fn transient_spec_never_produces_permanent_sites() {
        let plan = FaultPlan::new(9, FaultSpec::transient(0.9));
        for i in 0..500 {
            let site = format!("s.{i}");
            let script = plan.script(&site);
            assert!(!script.is_permanent(), "site {site} permanent");
            assert!(script.fail_attempts <= plan.retry_budget());
            // The attempt after the last scripted failure succeeds.
            assert!(!plan.fails(&site, script.fail_attempts));
        }
    }

    #[test]
    fn transient_sites_exist_at_high_rates() {
        let plan = FaultPlan::new(3, FaultSpec::transient(0.9));
        let faulty = (0..100)
            .filter(|i| plan.fails(&format!("s.{i}"), 0))
            .count();
        assert!(faulty > 50, "only {faulty}/100 sites faulted");
    }

    #[test]
    fn script_decide_sequence() {
        let s = SiteScript::transient(2);
        assert_eq!(s.decide(0), Fault::Error);
        assert_eq!(s.decide(1), Fault::Error);
        assert_eq!(s.decide(2), Fault::None);
        let s = SiteScript::transient_panic(1).with_stall(Duration::from_millis(5));
        assert_eq!(s.decide(0), Fault::Panic);
        assert_eq!(s.decide(1), Fault::Stall(Duration::from_millis(5)));
        assert_eq!(s.decide(2), Fault::None);
        let s = SiteScript::permanent();
        assert!(s.is_permanent());
        assert_eq!(s.decide(1_000_000), Fault::Error);
    }

    #[test]
    fn scripted_chaos_and_budget() {
        let c = ScriptedChaos::new()
            .with("a", SiteScript::transient(3))
            .with("b", SiteScript::permanent_panic());
        assert!(c.fails("a", 2));
        assert!(!c.fails("a", 3));
        assert!(c.is_permanent("b"));
        assert!(!c.is_permanent("a"));
        assert!(!c.fails("unknown", 0));
        assert_eq!(c.retry_budget(), 3);
        assert_eq!(NoChaos.retry_budget(), 0);
        assert!(!NoChaos.fails("anything", 0));
    }

    #[test]
    fn loss_report_sorts_dedups_and_prints() {
        let mut r = LossReport::new();
        r.record("dag.stage.ntp", "dependency `corpus` failed");
        r.record("collect.day.3", "permanent fault");
        r.record("dag.stage.ntp", "duplicate");
        assert_eq!(r.len(), 2);
        assert!(r.contains("collect.day.3"));
        assert_eq!(r.unit_names(), vec!["collect.day.3", "dag.stage.ntp"]);
        let text = r.to_string();
        assert!(text.starts_with("LOST collect.day.3 (permanent fault)\n"));
        assert!(text.contains("LOST dag.stage.ntp"));

        let mut other = LossReport::new();
        other.record("x", "y");
        r.merge(&other);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }
}
