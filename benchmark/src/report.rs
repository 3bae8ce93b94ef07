//! Output of one run, `run` (every workload, each in its own child
//! process, checked against `BENCHMARK.json`) and `compare`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serde::Value;

use crate::util::{out_dir, Outcome};
use crate::{Args, WORKLOADS};

/// Prints every metric by name with its unit, then the result object
/// the contract asks for as the last line. Fails on any failed check.
pub fn print_outcome(workload: &str, o: &Outcome) -> ExitCode {
    for n in &o.notes {
        println!("# {n}");
    }
    for (name, value, unit) in &o.metrics {
        println!("{workload} {name} = {value} {unit}");
    }
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
    if o.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: {} of {} checks failed", o.failed, o.attempted);
        ExitCode::FAILURE
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    field(v, key).and_then(Value::as_str).unwrap_or("")
}

fn read_json(path: &std::path::Path) -> Value {
    let raw = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&raw).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `BENCHMARK.json`, one level above this package.
fn contract() -> Value {
    read_json(&out_dir().join("../../BENCHMARK.json"))
}

fn entries<'a>(contract: &'a Value, section: &str) -> &'a [Value] {
    field(contract, section)
        .and_then(Value::as_seq)
        .unwrap_or(&[])
}

/// What is wrong with one run's result object, measured against the
/// contract: every named metric present once with its unit, legal
/// names, finite values.
fn problems(contract: &Value, trace: bool, result: &Value) -> Vec<String> {
    let mut found = Vec::new();
    let section = if trace { "per_layer" } else { "end_to_end" };
    let metrics = field(result, "metrics")
        .and_then(Value::as_map)
        .unwrap_or(&[]);
    for want in entries(contract, section) {
        let name = text(want, "name");
        let got: Vec<&Value> = metrics
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v)
            .collect();
        match got.as_slice() {
            [one] => {
                if text(one, "unit") != text(want, "unit") {
                    found.push(format!("{name}: unit is not {}", text(want, "unit")));
                }
                if !field(one, "value")
                    .and_then(number)
                    .is_some_and(f64::is_finite)
                {
                    found.push(format!("{name}: value is not a finite number"));
                }
            }
            other => found.push(format!("{name}: printed {} times", other.len())),
        }
    }
    for (name, _) in metrics {
        let legal = !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b));
        if !legal {
            found.push(format!("{name}: not a legal metric name"));
        }
        if !entries(contract, section)
            .iter()
            .any(|w| text(w, "name") == name)
        {
            found.push(format!("{name}: not named in BENCHMARK.json {section}"));
        }
    }
    if field(result, "correct") != Some(&Value::Bool(true)) {
        found.push("correct is not true".to_string());
    }
    found
}

/// `run`: every workload untraced and traced, each in a child process
/// of its own, `--repeat` times with consecutive seeds.
pub fn run_all(args: &Args) -> ExitCode {
    let contract = contract();
    let Some(out_path) = args.value("--out") else {
        crate::usage("run needs --out <file>")
    };
    let seed: u64 = args.parsed("--seed", 2022);
    let default_seconds = field(&contract, "run_seconds")
        .and_then(number)
        .unwrap_or(10.0);
    let seconds: f64 = args.parsed("--seconds", default_seconds);
    let repeat: u64 = args.parsed("--repeat", 1);
    let listed: Vec<&str> = entries(&contract, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let mut wrong = Vec::new();
    if listed != WORKLOADS {
        wrong.push(format!("BENCHMARK.json lists workloads {listed:?}"));
    }
    for (section, cap) in [("workloads", 8), ("end_to_end", 16), ("per_layer", 128)] {
        if entries(&contract, section).len() > cap {
            wrong.push(format!("more than {cap} {section}"));
        }
    }

    let exe = std::env::current_exe().expect("own path");
    let mut runs = Vec::new();
    for rep in 0..repeat {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload])
                    .args(["--seed", &(seed + rep).to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }]);
                if args.flag("--quick") {
                    cmd.arg("--quick");
                }
                // `output` waits for the child to end.
                let output = cmd.output().expect("start a child run");
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                let result = stdout
                    .lines()
                    .last()
                    .and_then(|l| serde_json::from_str::<Value>(l).ok())
                    .unwrap_or(Value::Null);
                if !output.status.success() {
                    wrong.push(format!("{workload} trace={trace}: {}", output.status));
                    eprint!("{}", String::from_utf8_lossy(&output.stderr));
                }
                for p in problems(&contract, trace, &result) {
                    wrong.push(format!("{workload} trace={trace}: {p}"));
                }
                runs.push(Value::Map(vec![
                    ("workload".to_string(), Value::Str(workload.to_string())),
                    ("seed".to_string(), Value::UInt(u128::from(seed + rep))),
                    ("trace".to_string(), Value::Bool(trace)),
                    ("result".to_string(), result),
                ]));
            }
        }
    }
    let doc = Value::Map(vec![("runs".to_string(), Value::Seq(runs))]);
    let rendered = serde_json::to_string_pretty(&doc).expect("render results");
    std::fs::write(out_path, rendered + "\n").unwrap_or_else(|e| panic!("{out_path}: {e}"));
    for w in &wrong {
        eprintln!("benchmark: {w}");
    }
    if wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
fn quartiles(values: &mut [f64]) -> [f64; 3] {
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    if n == 1 {
        return [values[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    })
}

/// Values of `metric` on `workload` over the runs of one results file.
fn samples(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    entries(doc, "runs")
        .iter()
        .filter(|r| text(r, "workload") == workload)
        .filter_map(|r| field(field(field(r, "result")?, "metrics")?, metric))
        .filter_map(|m| field(m, "value").and_then(number))
        .collect()
}

/// `compare`: per workload and metric, median and quartiles of each
/// side, and for end-to-end metrics a verdict against the bound.
pub fn compare(a: &str, b: &str) -> ExitCode {
    let contract = contract();
    let (doc_a, doc_b) = (read_json(&PathBuf::from(a)), read_json(&PathBuf::from(b)));
    let mut regressed = false;
    println!("workload metric | a: q1 median q3 | b: q1 median q3 | change | verdict");
    for workload in WORKLOADS {
        for section in ["end_to_end", "per_layer"] {
            for m in entries(&contract, section) {
                let name = text(m, "name");
                let (mut va, mut vb) = (
                    samples(&doc_a, workload, name),
                    samples(&doc_b, workload, name),
                );
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let (qa, qb) = (quartiles(&mut va), quartiles(&mut vb));
                if qa[1] == 0.0 && qb[1] == 0.0 {
                    continue; // a layer this workload does not run
                }
                // Positive when b is worse than a.
                let sign = if text(m, "better") == "lower" {
                    1.0
                } else {
                    -1.0
                };
                let change = sign * (qb[1] - qa[1]) / qa[1].abs();
                let verdict = match field(m, "bound").and_then(number) {
                    None => "-",
                    Some(bound) => {
                        let spread = ((qa[2] - qa[0]) / qa[1]).max((qb[2] - qb[0]) / qb[1]);
                        // va and vb are sorted: b wins every pairing when
                        // its worst run beats a's best.
                        let b_always_better = if sign > 0.0 {
                            vb[vb.len() - 1] < va[0]
                        } else {
                            vb[0] > va[va.len() - 1]
                        };
                        if spread.abs() > bound && !b_always_better {
                            "unresolved"
                        } else if change > bound {
                            regressed = true;
                            "REGRESSED"
                        } else {
                            "ok"
                        }
                    }
                };
                println!(
                    "{workload} {name} | {:.6} {:.6} {:.6} | {:.6} {:.6} {:.6} | {:+.2}% | {verdict}",
                    qa[0],
                    qa[1],
                    qa[2],
                    qb[0],
                    qb[1],
                    qb[2],
                    100.0 * sign * change
                );
            }
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
