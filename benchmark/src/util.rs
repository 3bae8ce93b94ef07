//! What every workload shares: the seeded generator, order statistics,
//! the process's own `/proc` counters, the in-memory span recorder and
//! the result a workload hands back to `main`.

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// SplitMix64. The benchmark owns its generator so that a change to the
/// repo's `v6netsim::rng` can never change the benchmark's inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the generators use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }
}

/// Median of `values` (sorts them). Panics on an empty slice: every
/// caller measures at least one sample.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile by the nearest-rank rule (sorts `values`).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "no samples");
    values.sort_unstable_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn proc_field(path: &str, key: &str) -> u64 {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{path} has no {key} field"))
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:") as f64 / 1024.0
}

/// Bytes this process has handed to `write` so far (`wchar`): exact, and
/// independent of what the page cache later does with them.
pub fn written_bytes() -> u64 {
    proc_field("/proc/self/io", "wchar:")
}

/// `benchmark/out`, the only place the benchmark writes.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    let dir = manifest.join("out");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    dir
}

/// Threads a workload may use: the issue fixes it at `min(nproc, 2)`.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// One recorded span. `parent` is the index of the enclosing span + 1
/// (0 for a root); `id` is the request-block or wave it belongs to.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: usize,
    id: u64,
}

/// Spans are kept in memory and written out when the run ends
/// (choosing-metrics §4). The benchmark records them around its calls
/// into each crate; nothing inside the crates is instrumented.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under whichever span is open now.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        let parent = self.open.last().map_or(0, |&i| i + 1);
        self.open.push(self.spans.len());
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
    }

    /// Closes the innermost open span and returns its duration.
    pub fn end(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("end without begin");
        self.spans[i].end_ns = end_ns;
        end_ns - self.spans[i].start_ns
    }

    /// Summed duration of the spans called `name`, per `id`, by `id`.
    pub fn per_id_ns(&self, name: &str) -> Vec<(u64, u64)> {
        let mut sums: Vec<(u64, u64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match sums.iter_mut().find(|(id, _)| *id == s.id) {
                Some((_, ns)) => *ns += s.end_ns - s.start_ns,
                None => sums.push((s.id, s.end_ns - s.start_ns)),
            }
        }
        sums.sort_unstable();
        sums
    }

    /// Writes one JSON object per span to `out/trace-<workload>.jsonl`.
    pub fn write(&self, workload: &str) {
        let path = out_dir().join(format!("trace-{workload}.jsonl"));
        let file =
            std::fs::File::create(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut w = std::io::BufWriter::new(file);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"span\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.id
            )
            .expect("write trace");
        }
        w.flush().expect("flush trace");
    }
}

/// What one workload run hands back.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose answer was checked.
    pub attempted: u64,
    /// Operations refused, wrong against the model, or not visible.
    pub failed: u64,
    /// `(name, value, unit)`: end-to-end with tracing off, per-layer
    /// with it on.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result (sample counts,
    /// flush policy, thread count).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The share of the end-to-end time the per-layer rows leave
    /// unexplained may not pass 0.15: beyond that the rows no longer
    /// describe the path. Each share is a median of ratios taken within
    /// one round or cycle, so the host's clock changes do not move it; on
    /// the host this was sized on it reads 0.03 to 0.08.
    pub fn check_attributed(&mut self, unattributed: f64) {
        if unattributed > 0.15 {
            self.note(format!(
                "unattributed share {unattributed:.3} is above 0.15"
            ));
        }
        self.check(unattributed <= 0.15);
    }
}

/// Runs `setup` three times, keeping the last result, and returns it
/// with the median wall time in seconds: one set-up is a single sample
/// on a shared host, and the contract gates on it.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("three set-ups ran"), median(&mut times))
}
