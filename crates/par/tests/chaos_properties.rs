//! Chaos property suite for the DAG runner: random seeded fault plans
//! over random DAGs must keep the execution invariants.
//!
//! For any plan and any acyclic stage graph:
//!
//! * every stage body runs exactly once (success) or never (failure) —
//!   injected faults replace the body, so a failed stage's work is
//!   never half-done;
//! * no stage runs after one of its dependencies permanently failed;
//! * the runner never consults the injector past the retry cap;
//! * the set of failed stages (and the per-stage body counts) is
//!   invariant under the worker thread count.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use proptest::prelude::*;
use v6chaos::{Chaos, DagInjector, FaultPlan, FaultSpec};
use v6par::{Dag, DagRun, FailReason, FaultInjector, InjectedFault};

/// Fixed pool of `'static` stage names for generated DAGs.
const NAMES: [&str; 12] = [
    "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
];

/// Wraps the chaos injector and records the highest attempt index each
/// stage was consulted at, so tests can pin the retry cap.
struct CountingInjector<'a> {
    inner: DagInjector<'a>,
    max_attempt: Mutex<HashMap<String, u32>>,
}

impl FaultInjector for CountingInjector<'_> {
    fn decide(&self, stage: &str, attempt: u32) -> InjectedFault {
        let mut seen = self.max_attempt.lock().unwrap();
        let max = seen.entry(stage.to_string()).or_insert(0);
        *max = (*max).max(attempt);
        drop(seen);
        self.inner.decide(stage, attempt)
    }

    fn retry_budget(&self) -> u32 {
        self.inner.retry_budget()
    }
}

/// Builds the DAG described by `edges` (node `i` depends on the earlier
/// nodes in its bitmask), runs it under `plan`, and returns per-stage
/// body-run counts, the run outcome, and the injector's attempt log.
fn run_case(
    n: usize,
    edges: &[u16],
    plan: &FaultPlan,
    threads: usize,
) -> (Vec<u32>, DagRun, HashMap<String, u32>) {
    let counters: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let mut dag = Dag::new();
    for i in 0..n {
        let deps: Vec<&str> = (0..i)
            .filter(|&j| edges[i] >> j & 1 == 1)
            .map(|j| NAMES[j])
            .collect();
        let counter = &counters[i];
        dag.add(NAMES[i], &deps, move |_| {
            counter.fetch_add(1, Ordering::SeqCst);
            i as u64
        });
    }
    let injector = CountingInjector {
        inner: DagInjector::new(plan),
        max_attempt: Mutex::new(HashMap::new()),
    };
    let run = dag.run(threads, &injector);
    let counts = counters.iter().map(|c| c.load(Ordering::SeqCst)).collect();
    (counts, run, injector.max_attempt.into_inner().unwrap())
}

proptest! {
    #[test]
    fn mixed_fault_plans_hold_every_invariant(
        n in 2usize..12,
        edges in prop::collection::vec(any::<u16>(), 12),
        seed in any::<u64>(),
        fault_rate in 0.0f64..1.0,
        permanent_rate in 0.0f64..0.6,
    ) {
        let plan = FaultPlan::new(seed, FaultSpec::with_permanent(fault_rate, permanent_rate));
        let budget = plan.retry_budget();
        let (counts, run, attempts) = run_case(n, &edges, &plan, 1);
        let failed: HashSet<&str> = run.failures.iter().map(|f| f.name).collect();

        // Exactly-once-or-never, and the failure list is exhaustive.
        for i in 0..n {
            if failed.contains(NAMES[i]) {
                prop_assert_eq!(counts[i], 0, "failed stage {} ran its body", NAMES[i]);
            } else {
                prop_assert_eq!(counts[i], 1, "stage {} ran {} times", NAMES[i], counts[i]);
            }
        }

        // Retries never exceed the cap: at most budget+1 attempts, and
        // the injector is never consulted past attempt index `budget`.
        for f in &run.failures {
            prop_assert!(f.attempts <= budget + 1, "{}: {} attempts", f.name, f.attempts);
        }
        for (site, &max) in &attempts {
            prop_assert!(max <= budget, "{site} consulted at attempt {max}");
        }

        // Nothing runs after a failed dependency, and the cascade is
        // recorded as such, with zero attempts executed.
        for i in 0..n {
            let failed_dep = (0..i).find(|&j| edges[i] >> j & 1 == 1 && failed.contains(NAMES[j]));
            if let Some(dep) = failed_dep {
                prop_assert!(failed.contains(NAMES[i]), "{} ran under failed dep", NAMES[i]);
                prop_assert_eq!(counts[i], 0);
                let f = run.failures.iter().find(|f| f.name == NAMES[i]).unwrap();
                if let FailReason::DependencyFailed(d) = f.reason {
                    prop_assert!(
                        (0..i).any(|j| edges[i] >> j & 1 == 1 && NAMES[j] == d),
                        "{} blamed non-dependency {d}", NAMES[i]
                    );
                    prop_assert_eq!(f.attempts, 0);
                } else {
                    // A stage with both a failed dep and its own permanent
                    // script may be claimed before the dep resolves only if
                    // the dep was not yet failed — the runner checks deps
                    // first, so this must be a DependencyFailed.
                    prop_assert!(
                        false,
                        "{} (dep {} failed) reported {:?}", NAMES[i], NAMES[dep], f.reason
                    );
                }
            }
        }

        // The loss set and body counts are thread-count invariant.
        let (counts4, run4, _) = run_case(n, &edges, &plan, 4);
        let failed1: Vec<&str> = run.failures.iter().map(|f| f.name).collect();
        let failed4: Vec<&str> = run4.failures.iter().map(|f| f.name).collect();
        prop_assert_eq!(failed1, failed4);
        prop_assert_eq!(counts, counts4);
    }

    #[test]
    fn transient_plans_always_converge(
        n in 2usize..12,
        edges in prop::collection::vec(any::<u16>(), 12),
        seed in any::<u64>(),
        fault_rate in 0.0f64..1.0,
    ) {
        let plan = FaultPlan::new(seed, FaultSpec::transient(fault_rate));
        let (counts, run, attempts) = run_case(n, &edges, &plan, 4);
        prop_assert!(run.is_complete(), "transient-only plan lost {:?}", run.failures);
        for (i, &c) in counts.iter().enumerate() {
            prop_assert_eq!(c, 1, "stage {} ran {} times", NAMES[i], c);
        }
        for (site, &max) in &attempts {
            prop_assert!(max <= plan.retry_budget(), "{site} over budget");
        }
        // Every stage produced its output.
        let mut out = run.outputs;
        for (i, name) in NAMES.iter().enumerate().take(n) {
            prop_assert_eq!(out.try_take::<u64>(name), Some(i as u64));
        }
    }
}
