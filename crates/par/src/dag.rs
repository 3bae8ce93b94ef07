//! An explicit stage dependency DAG executed by a worker pool.
//!
//! The experiment pipeline used to be straight-line code: collect, then
//! campaign, then campaign, then four analyses — even though most
//! stages only depend on one or two others. [`Dag`] makes the
//! dependency structure explicit: each stage is a named task plus the
//! names of the stages it consumes; [`Dag::run`] executes stages as
//! soon as their inputs exist, with up to `threads` stages in flight.
//!
//! Failure handling lives in the same [`Dag::run`]: a [`FaultInjector`]
//! is consulted once per stage attempt, so chaos tests can script
//! transient errors, panics, and stalls deterministically, and a failed
//! attempt is retried at once, up to the injector's
//! [`FaultInjector::retry_budget`]. A stage that exhausts its attempts is
//! *reported* — as a [`StageFailure`] in the returned [`DagRun`] — and
//! its dependents are failed with `DependencyFailed` without running,
//! never silently skipped and never deadlocking the pool.
//!
//! Determinism: the DAG only controls *when* a stage runs, never what
//! it computes — every task is a pure function of its named inputs, so
//! scheduling order cannot leak into the artifacts. Per-stage wall
//! times are recorded for the bench harness.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel;

/// Cached handles into the global metrics registry for the DAG runner.
///
/// Stage/retry/injection counts are a pure function of the DAG and the
/// injector script, so they are thread-count-invariant; `ready_peak` and
/// the latency histogram are scheduling/timing observations and are not.
struct DagMetrics {
    stages_completed: v6obs::Counter,
    stage_failures: v6obs::Counter,
    dependency_failures: v6obs::Counter,
    retries: v6obs::Counter,
    injected_errors: v6obs::Counter,
    injected_panics: v6obs::Counter,
    injected_stalls: v6obs::Counter,
    ready_peak: v6obs::Gauge,
    stage_latency: v6obs::Histogram,
}

fn dag_metrics() -> &'static DagMetrics {
    static METRICS: OnceLock<DagMetrics> = OnceLock::new();
    METRICS.get_or_init(|| DagMetrics {
        stages_completed: v6obs::counter("par.dag.stages_completed"),
        stage_failures: v6obs::counter("par.dag.stage_failures"),
        dependency_failures: v6obs::counter("par.dag.dependency_failures"),
        retries: v6obs::counter("par.dag.retries"),
        injected_errors: v6obs::counter("par.dag.injected.errors"),
        injected_panics: v6obs::counter("par.dag.injected.panics"),
        injected_stalls: v6obs::counter("par.dag.injected.stalls"),
        ready_peak: v6obs::gauge("par.dag.ready_peak"),
        stage_latency: v6obs::histogram("par.dag.stage_latency"),
    })
}

type BoxedOutput = Box<dyn Any + Send + Sync>;
type TaskFn<'env> = Box<dyn FnMut(&TaskOutputs) -> BoxedOutput + Send + 'env>;

/// Wall-clock time one stage took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTiming {
    /// The stage name.
    pub name: &'static str,
    /// Its wall-clock duration.
    pub wall: Duration,
}

/// A fault the injector asks one stage attempt to exhibit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectedFault {
    /// Run the attempt normally.
    None,
    /// Sleep this long, then run the attempt normally.
    Stall(Duration),
    /// Fail the attempt with this error, without running the task.
    Error(String),
    /// Fail the attempt as if the task panicked with this message,
    /// without running the task.
    Panic(String),
}

/// A deterministic source of per-attempt stage faults.
///
/// [`Dag::run`] consults the injector exactly once per `(stage,
/// attempt)` pair before running the task; injected `Error`/`Panic`
/// faults replace the task body for that attempt, so on a transient
/// script the body still executes exactly once (on the first clean
/// attempt).
pub trait FaultInjector: Sync {
    /// The fault for this `(stage, attempt)` pair.
    fn decide(&self, stage: &str, attempt: u32) -> InjectedFault;

    /// Retries after a stage's first failed attempt, so a stage runs at
    /// most `retry_budget() + 1` times.
    fn retry_budget(&self) -> u32;
}

/// Why a stage ended up failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailReason {
    /// The last attempt failed with an (injected) error.
    Error(String),
    /// The last attempt panicked, with this payload message.
    Panicked(String),
    /// A dependency failed, so this stage never ran.
    DependencyFailed(&'static str),
}

impl std::fmt::Display for FailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailReason::Error(msg) => write!(f, "{msg}"),
            FailReason::Panicked(msg) => write!(f, "panicked: {msg}"),
            FailReason::DependencyFailed(dep) => write!(f, "dependency `{dep}` failed"),
        }
    }
}

/// One stage that did not complete: its name, how many attempts it
/// made, and the last failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageFailure {
    /// The failed stage.
    pub name: &'static str,
    /// Attempts actually executed (0 when a dependency failed first).
    pub attempts: u32,
    /// The final failure.
    pub reason: FailReason,
}

/// Completed stage outputs, indexed by stage name.
///
/// Tasks receive `&TaskOutputs` and read their dependencies with
/// [`TaskOutputs::get`]; the scheduler guarantees a dependency's slot
/// is filled before any dependent starts.
pub struct TaskOutputs {
    names: HashMap<&'static str, usize>,
    slots: Vec<OnceLock<BoxedOutput>>,
}

impl TaskOutputs {
    /// A completed dependency's output.
    ///
    /// Panics on an unknown name, a stage that has not completed (only
    /// possible if it was not declared as a dependency), or a type
    /// mismatch — all three are wiring bugs, not runtime conditions.
    pub fn get<T: Any>(&self, name: &str) -> &T {
        let &i = self
            .names
            .get(name)
            .unwrap_or_else(|| panic!("unknown stage `{name}`"));
        self.slots[i]
            .get()
            .unwrap_or_else(|| panic!("stage `{name}` has not completed; declare it as a dep"))
            .downcast_ref::<T>()
            .unwrap_or_else(|| {
                panic!(
                    "stage `{name}` output is not a {}",
                    std::any::type_name::<T>()
                )
            })
    }
}

/// The stage outputs and timings of a [`Dag::run`].
pub struct DagOutputs {
    outputs: TaskOutputs,
    /// Per-stage wall-clock durations for the stages that *succeeded*,
    /// in stage insertion order.
    pub timings: Vec<StageTiming>,
}

impl DagOutputs {
    /// Takes ownership of one stage's output.
    ///
    /// Panics on an unknown name, a double-take, or a type mismatch.
    pub fn take<T: Any>(&mut self, name: &str) -> T {
        match self.try_take::<T>(name) {
            Some(v) => v,
            None => panic!("stage `{name}` output already taken (or never ran)"),
        }
    }

    /// Takes ownership of one stage's output, or `None` when the stage
    /// failed (or its output was already taken).
    ///
    /// Panics on an unknown name or a type mismatch — those are wiring
    /// bugs, unlike a failed stage, which is a runtime condition chaos
    /// runs must handle.
    pub fn try_take<T: Any>(&mut self, name: &str) -> Option<T> {
        let &i = self
            .outputs
            .names
            .get(name)
            .unwrap_or_else(|| panic!("unknown stage `{name}`"));
        let boxed = self.outputs.slots[i].take()?;
        match boxed.downcast::<T>() {
            Ok(v) => Some(*v),
            Err(_) => panic!(
                "stage `{name}` output is not a {}",
                std::any::type_name::<T>()
            ),
        }
    }
}

/// The result of a [`Dag::run`]: outputs of the
/// stages that succeeded plus a precise account of those that did not.
pub struct DagRun {
    /// Outputs and timings of the successful stages.
    pub outputs: DagOutputs,
    /// Every stage that failed, in stage insertion order. Empty means
    /// the run converged — the outputs are complete.
    pub failures: Vec<StageFailure>,
}

impl DagRun {
    /// True when every stage succeeded.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

struct Node<'env> {
    name: &'static str,
    deps: Vec<usize>,
    task: TaskFn<'env>,
}

/// A named-stage dependency graph under construction.
pub struct Dag<'env> {
    nodes: Vec<Node<'env>>,
    index: HashMap<&'static str, usize>,
}

impl<'env> Dag<'env> {
    /// An empty DAG.
    pub fn new() -> Self {
        Dag {
            nodes: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Number of stages added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no stages have been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a stage. `deps` must name stages added earlier (which also
    /// rules out cycles by construction).
    ///
    /// The task may be retried (hence `FnMut`), but within one run it is
    /// invoked again only after a previous invocation failed — a
    /// successful body runs exactly once.
    ///
    /// Panics on a duplicate name or an unknown dependency.
    pub fn add<T, F>(&mut self, name: &'static str, deps: &[&str], mut task: F)
    where
        T: Any + Send + Sync,
        F: FnMut(&TaskOutputs) -> T + Send + 'env,
    {
        assert!(
            !self.index.contains_key(name),
            "duplicate stage name `{name}`"
        );
        let deps: Vec<usize> = deps
            .iter()
            .map(|d| {
                *self
                    .index
                    .get(d)
                    .unwrap_or_else(|| panic!("stage `{name}` depends on unknown stage `{d}`"))
            })
            .collect();
        self.index.insert(name, self.nodes.len());
        self.nodes.push(Node {
            name,
            deps,
            task: Box::new(move |outputs| Box::new(task(outputs))),
        });
    }

    /// Executes every stage with up to `threads` in flight, consulting
    /// `injector` once per attempt, and returns both the surviving
    /// outputs and the failures.
    ///
    /// Guarantees, at any thread count:
    ///
    /// * every stage either succeeds exactly once or appears in
    ///   [`DagRun::failures`] — never both, never neither; a panic inside
    ///   a task is a failed attempt like an injected one;
    /// * a stage whose dependency failed is reported
    ///   [`FailReason::DependencyFailed`] without its task ever running;
    /// * a stage makes at most `injector.retry_budget() + 1` attempts;
    /// * the pool always drains — failures never deadlock waiters.
    pub fn run(self, threads: usize, injector: &dyn FaultInjector) -> DagRun {
        const DONE: usize = usize::MAX;
        let n = self.nodes.len();
        let outputs = TaskOutputs {
            names: self.index,
            slots: (0..n).map(|_| OnceLock::new()).collect(),
        };
        let mut names = Vec::with_capacity(n);
        let mut deps: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut tasks: Vec<Mutex<Option<TaskFn<'env>>>> = Vec::with_capacity(n);
        let indegree: Vec<AtomicUsize> = self
            .nodes
            .iter()
            .map(|node| AtomicUsize::new(node.deps.len()))
            .collect();
        let failed: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        for (i, node) in self.nodes.into_iter().enumerate() {
            names.push(node.name);
            for &d in &node.deps {
                dependents[d].push(i);
            }
            deps.push(node.deps);
            tasks.push(Mutex::new(Some(node.task)));
        }

        // Never run more DAG workers than hardware threads: stage bodies
        // already fan out through the data-parallel pool, so extra stage
        // workers would only timeshare the cores and inflate every
        // stage's wall clock. (Stage *outputs* are unaffected — the DAG
        // is deterministic at any worker count.)
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        let workers = threads.max(1).min(n.max(1)).min(cores.max(1));
        let (ready_tx, ready_rx) = channel::unbounded::<usize>();
        for (i, deg) in indegree.iter().enumerate() {
            if deg.load(Ordering::Relaxed) == 0 {
                ready_tx.send(i).expect("receiver alive");
            }
        }
        let remaining = AtomicUsize::new(n);
        let timings: Mutex<Vec<(usize, Duration)>> = Mutex::new(Vec::with_capacity(n));
        let failures: Mutex<Vec<(usize, StageFailure)>> = Mutex::new(Vec::new());

        let metrics = dag_metrics();
        let retry_budget = injector.retry_budget();
        let run_worker = || {
            while let Ok(i) = ready_rx.recv() {
                if i == DONE {
                    break;
                }
                // Stages still ready behind the one just claimed: a
                // high-water mark of scheduler backlog (not data-derived).
                metrics.ready_peak.set_max(ready_rx.len() as i64);
                // A stage is claimed by exactly one worker; completion
                // (success or failure) must cascade exactly once.
                let complete = |i: usize| {
                    for &dep in &dependents[i] {
                        if indegree[dep].fetch_sub(1, Ordering::AcqRel) == 1 {
                            ready_tx.send(dep).expect("receiver alive");
                        }
                    }
                    if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        for _ in 0..workers {
                            ready_tx.send(DONE).expect("receiver alive");
                        }
                    }
                };

                if let Some(&d) = deps[i].iter().find(|&&d| failed[d].load(Ordering::Acquire)) {
                    failed[i].store(true, Ordering::Release);
                    metrics.dependency_failures.inc();
                    failures.lock().expect("failure log poisoned").push((
                        i,
                        StageFailure {
                            name: names[i],
                            attempts: 0,
                            reason: FailReason::DependencyFailed(names[d]),
                        },
                    ));
                    complete(i);
                    continue;
                }

                let mut task = tasks[i]
                    .lock()
                    .expect("task slot poisoned")
                    .take()
                    .expect("stage scheduled twice");
                let mut attempt: u32 = 0;
                let outcome: Result<(BoxedOutput, Duration), FailReason> = loop {
                    let injected = match injector.decide(names[i], attempt) {
                        InjectedFault::None => None,
                        InjectedFault::Stall(d) => {
                            metrics.injected_stalls.inc();
                            std::thread::sleep(d);
                            None
                        }
                        InjectedFault::Error(msg) => {
                            metrics.injected_errors.inc();
                            Some(FailReason::Error(msg))
                        }
                        InjectedFault::Panic(msg) => {
                            metrics.injected_panics.inc();
                            Some(FailReason::Panicked(msg))
                        }
                    };
                    let result = match injected {
                        Some(reason) => Err(reason),
                        None => {
                            let _span = v6obs::span(names[i]);
                            let started = Instant::now();
                            match catch_unwind(AssertUnwindSafe(|| task(&outputs))) {
                                Ok(out) => Ok((out, started.elapsed())),
                                Err(payload) => Err(FailReason::Panicked(panic_message(&*payload))),
                            }
                        }
                    };
                    match result {
                        Ok(done) => break Ok(done),
                        Err(reason) if attempt >= retry_budget => break Err(reason),
                        Err(_) => {
                            metrics.retries.inc();
                            attempt += 1;
                        }
                    }
                };

                match outcome {
                    Ok((output, elapsed)) => {
                        metrics.stages_completed.inc();
                        metrics.stage_latency.record_duration(elapsed);
                        outputs.slots[i]
                            .set(output)
                            .unwrap_or_else(|_| panic!("stage output set twice"));
                        timings
                            .lock()
                            .expect("timing log poisoned")
                            .push((i, elapsed));
                    }
                    Err(reason) => {
                        metrics.stage_failures.inc();
                        failed[i].store(true, Ordering::Release);
                        failures.lock().expect("failure log poisoned").push((
                            i,
                            StageFailure {
                                name: names[i],
                                attempts: attempt + 1,
                                reason,
                            },
                        ));
                    }
                }
                complete(i);
            }
        };

        if workers <= 1 {
            run_worker();
        } else {
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(run_worker);
                }
            });
        }

        assert_eq!(
            remaining.load(Ordering::Relaxed),
            0,
            "DAG did not complete (cycle or lost stage?)"
        );
        let mut raw = timings.into_inner().expect("timing log poisoned");
        raw.sort_by_key(|&(i, _)| i);
        let mut fails = failures.into_inner().expect("failure log poisoned");
        fails.sort_by_key(|&(i, _)| i);
        DagRun {
            outputs: DagOutputs {
                outputs,
                timings: raw
                    .into_iter()
                    .map(|(i, wall)| StageTiming {
                        name: names[i],
                        wall,
                    })
                    .collect(),
            },
            failures: fails.into_iter().map(|(_, f)| f).collect(),
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl Default for Dag<'_> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Injector that fails a fixed set of stages for their first
    /// `fail_n` attempts and allows `retries` retries.
    struct FlakyStages {
        stages: Vec<&'static str>,
        fail_n: u32,
        panic: bool,
        retries: u32,
    }

    impl FaultInjector for FlakyStages {
        fn decide(&self, stage: &str, attempt: u32) -> InjectedFault {
            if self.stages.contains(&stage) && attempt < self.fail_n {
                if self.panic {
                    InjectedFault::Panic(format!("injected panic at attempt {attempt}"))
                } else {
                    InjectedFault::Error(format!("injected error at attempt {attempt}"))
                }
            } else {
                InjectedFault::None
            }
        }

        fn retry_budget(&self) -> u32 {
            self.retries
        }
    }

    /// No faults, `retries` retries.
    fn clean(retries: u32) -> FlakyStages {
        FlakyStages {
            stages: Vec::new(),
            fail_n: 0,
            panic: false,
            retries,
        }
    }

    /// Runs `dag` without faults or retries; every stage must complete.
    fn run_clean(dag: Dag<'_>, threads: usize) -> DagOutputs {
        let run = dag.run(threads, &clean(0));
        assert!(run.is_complete(), "{:?}", run.failures);
        run.outputs
    }

    fn diamond<'a>(trace: &'a Mutex<Vec<&'static str>>) -> Dag<'a> {
        let mut dag = Dag::new();
        dag.add("a", &[], move |_| {
            trace.lock().unwrap().push("a");
            2u64
        });
        dag.add("b", &["a"], move |o| {
            trace.lock().unwrap().push("b");
            o.get::<u64>("a") * 10
        });
        dag.add("c", &["a"], move |o| {
            trace.lock().unwrap().push("c");
            o.get::<u64>("a") + 1
        });
        dag.add("d", &["b", "c"], move |o| {
            trace.lock().unwrap().push("d");
            o.get::<u64>("b") + o.get::<u64>("c")
        });
        dag
    }

    #[test]
    fn diamond_runs_in_dependency_order() {
        for threads in [1, 2, 8] {
            let trace = Mutex::new(Vec::new());
            let mut out = run_clean(diamond(&trace), threads);
            assert_eq!(out.take::<u64>("d"), 23);
            let order = trace.into_inner().unwrap();
            assert_eq!(order.len(), 4);
            assert_eq!(order[0], "a");
            assert_eq!(order[3], "d");
            assert_eq!(out.timings.len(), 4);
            assert_eq!(out.timings[0].name, "a");
        }
    }

    #[test]
    fn heterogeneous_outputs() {
        let mut dag = Dag::new();
        dag.add("nums", &[], |_| vec![1u32, 2, 3]);
        dag.add("label", &["nums"], |o| {
            format!("{} nums", o.get::<Vec<u32>>("nums").len())
        });
        let mut out = run_clean(dag, 4);
        assert_eq!(out.take::<String>("label"), "3 nums");
        assert_eq!(out.take::<Vec<u32>>("nums"), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "unknown stage")]
    fn unknown_dep_panics_at_add() {
        let mut dag = Dag::new();
        dag.add("x", &["missing"], |_| 0u8);
    }

    #[test]
    fn stage_panic_propagates_without_deadlock() {
        for threads in [1, 4] {
            let mut dag = Dag::new();
            dag.add("ok", &[], |_| 1u8);
            dag.add("boom", &[], |_| -> u8 { panic!("stage exploded") });
            dag.add("after", &["ok"], |o| *o.get::<u8>("ok"));
            let mut run = dag.run(threads, &clean(0));
            assert_eq!(
                run.failures,
                vec![StageFailure {
                    name: "boom",
                    attempts: 1,
                    reason: FailReason::Panicked("stage exploded".into()),
                }],
                "threads={threads}"
            );
            assert_eq!(run.outputs.take::<u8>("after"), 1, "threads={threads}");
        }
    }

    #[test]
    fn borrows_environment() {
        let data = vec![5u64, 6, 7];
        let mut dag = Dag::new();
        dag.add("sum", &[], |_| data.iter().sum::<u64>());
        let mut out = run_clean(dag, 2);
        assert_eq!(out.take::<u64>("sum"), 18);
        drop(data);
    }

    #[test]
    fn transient_injected_faults_converge_with_retries() {
        for threads in [1, 4] {
            let trace = Mutex::new(Vec::new());
            let injector = FlakyStages {
                stages: vec!["b", "d"],
                fail_n: 2,
                panic: false,
                retries: 2,
            };
            let mut run = diamond(&trace).run(threads, &injector);
            assert!(run.is_complete(), "threads={threads}: {:?}", run.failures);
            assert_eq!(run.outputs.take::<u64>("d"), 23);
            // Injected failures replace the body: each stage body ran
            // exactly once despite the retries.
            assert_eq!(trace.into_inner().unwrap().len(), 4);
        }
    }

    #[test]
    fn permanent_fault_fails_stage_and_dependents_without_running_them() {
        for threads in [1, 4] {
            let trace = Mutex::new(Vec::new());
            let injector = FlakyStages {
                stages: vec!["b"],
                fail_n: u32::MAX,
                panic: true,
                retries: 3,
            };
            let mut run = diamond(&trace).run(threads, &injector);
            let failed: Vec<&str> = run.failures.iter().map(|f| f.name).collect();
            assert_eq!(failed, vec!["b", "d"], "threads={threads}");
            assert_eq!(run.failures[0].attempts, 4);
            assert!(matches!(run.failures[0].reason, FailReason::Panicked(_)));
            assert_eq!(run.failures[1].attempts, 0);
            assert_eq!(
                run.failures[1].reason,
                FailReason::DependencyFailed("b"),
                "threads={threads}"
            );
            // a and c still succeeded; b and d never ran their bodies.
            assert_eq!(run.outputs.try_take::<u64>("c"), Some(3));
            assert_eq!(run.outputs.try_take::<u64>("b"), None);
            assert_eq!(run.outputs.try_take::<u64>("d"), None);
            let order = trace.into_inner().unwrap();
            assert!(!order.contains(&"b") && !order.contains(&"d"));
            assert_eq!(run.outputs.timings.len(), 2);
        }
    }

    #[test]
    fn real_panics_are_retried_under_policy() {
        let attempts = AtomicUsize::new(0);
        let mut dag = Dag::new();
        dag.add("flaky", &[], |_| {
            if attempts.fetch_add(1, Ordering::Relaxed) < 2 {
                panic!("not yet");
            }
            7u32
        });
        let mut run = dag.run(1, &clean(2));
        assert!(run.is_complete());
        assert_eq!(run.outputs.take::<u32>("flaky"), 7);
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
    }
}
