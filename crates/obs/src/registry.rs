//! Named metrics: counters, gauges, and fixed-bucket latency histograms,
//! collected in a [`Registry`] with deterministic text/JSON exposition.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of log2 latency buckets. Bucket `i` holds values whose
/// bit-length is `i`, i.e. the range `[2^(i-1), 2^i - 1]` nanoseconds
/// (bucket 0 holds the value 0). The last bucket saturates, covering
/// everything from ~39 hours up.
const BUCKETS: usize = 48;

/// A monotonically increasing `u64` metric. Cloning is cheap: all clones
/// share one atomic cell, so handles can be cached across threads.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous metric (queue depths, high-water marks).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger than the current value
    /// (atomic max — used for high-water marks like peak queue depth).
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket (log2) latency histogram over nanosecond samples.
///
/// Recording touches two or three relaxed atomics; quantiles are computed
/// on demand from the bucket array and reported as the inclusive upper
/// bound of the bucket, capped at the largest sample (so `p50_ns` of a
/// histogram whose samples all fall in `[512, 1023]` is at most `1023`).
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

/// Bucket index for a nanosecond sample: its bit length, clamped.
fn bucket_of(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` in nanoseconds; the last bucket
/// saturates, so it has none below `u64::MAX`.
fn bucket_upper(i: usize) -> u64 {
    if i == BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one sample, in nanoseconds.
    pub fn record(&self, ns: u64) {
        self.0.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(ns, Ordering::Relaxed);
        self.0.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Record one sample from a [`Duration`].
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Time a closure and record its wall time; returns the closure result.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.record_duration(start.elapsed());
        out
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample in nanoseconds (exact, not bucketed).
    pub fn max_ns(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 < q <= 1.0`) in
    /// nanoseconds: the upper bound of the bucket holding the rank,
    /// capped at the largest sample; 0 if the histogram is empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(i).min(self.max_ns());
            }
        }
        self.max_ns()
    }

    /// Snapshot the histogram into a plain-data summary.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum_ns: self.sum_ns(),
            max_ns: self.max_ns(),
            p50_ns: self.quantile_ns(0.50),
            p90_ns: self.quantile_ns(0.90),
            p99_ns: self.quantile_ns(0.99),
        }
    }
}

/// Plain-data summary of a [`Histogram`] at a point in time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples (ns).
    pub sum_ns: u64,
    /// Largest sample (ns, exact).
    pub max_ns: u64,
    /// Median upper-bound estimate (ns).
    pub p50_ns: u64,
    /// 90th percentile upper-bound estimate (ns).
    pub p90_ns: u64,
    /// 99th percentile upper-bound estimate (ns).
    pub p99_ns: u64,
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A namespace of metrics keyed by name.
///
/// Lookup (`counter`/`gauge`/`histogram`) takes a mutex, so callers on hot
/// paths should fetch a handle once and cache it; the handles themselves
/// record through relaxed atomics only. Registering the same name as two
/// different metric kinds panics — names are a global contract.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch the counter `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a gauge or histogram.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.metrics.lock().expect("metrics lock poisoned");
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Fetch the gauge `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a counter or histogram.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.metrics.lock().expect("metrics lock poisoned");
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Fetch the histogram `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a counter or gauge.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.metrics.lock().expect("metrics lock poisoned");
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Snapshot every metric into plain sorted data.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.metrics.lock().expect("metrics lock poisoned");
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => snap.histograms.push((name.clone(), h.summary())),
            }
        }
        snap
    }

    /// Deterministic Prometheus-style text exposition: one `name value`
    /// line per metric, lines sorted lexicographically by name. Histograms
    /// expand to `<name>_count`, `<name>_max_ns`, `<name>_p50_ns`,
    /// `<name>_p90_ns`, `<name>_p99_ns`, and `<name>_sum_ns` lines.
    pub fn render_text(&self) -> String {
        let snap = self.snapshot();
        let mut lines: Vec<String> = Vec::new();
        for (name, v) in &snap.counters {
            lines.push(format!("{name} {v}"));
        }
        for (name, v) in &snap.gauges {
            lines.push(format!("{name} {v}"));
        }
        for (name, s) in &snap.histograms {
            lines.push(format!("{name}_count {}", s.count));
            lines.push(format!("{name}_max_ns {}", s.max_ns));
            lines.push(format!("{name}_p50_ns {}", s.p50_ns));
            lines.push(format!("{name}_p90_ns {}", s.p90_ns));
            lines.push(format!("{name}_p99_ns {}", s.p99_ns));
            lines.push(format!("{name}_sum_ns {}", s.sum_ns));
        }
        lines.sort_unstable();
        let mut out = String::new();
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// JSON snapshot: `{"counters":{...},"gauges":{...},"histograms":{...}}`
    /// with keys sorted by metric name. Hand-rolled so the crate stays
    /// dependency-free; metric names are escaped per the JSON string rules.
    pub fn render_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// Plain-data snapshot of a [`Registry`], each section sorted by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, summary)` for every histogram.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Merges several labeled snapshots into one, prefixing every
    /// metric of source `label` as `<label>.<name>`.
    ///
    /// This is how a cluster folds its per-node registries into a
    /// single snapshot: `merge_prefixed([("n0", a), ("n1", b)])` yields
    /// `n0.store.log.appends`, `n1.store.log.appends`, … — each
    /// section sorted by the prefixed name, so the merged snapshot is
    /// deterministic whenever its inputs are.
    pub fn merge_prefixed<'a, I>(parts: I) -> MetricsSnapshot
    where
        I: IntoIterator<Item = (&'a str, &'a MetricsSnapshot)>,
    {
        let mut out = MetricsSnapshot::default();
        for (label, snap) in parts {
            let tag = |name: &str| format!("{label}.{name}");
            out.counters
                .extend(snap.counters.iter().map(|(n, v)| (tag(n), *v)));
            out.gauges
                .extend(snap.gauges.iter().map(|(n, v)| (tag(n), *v)));
            out.histograms
                .extend(snap.histograms.iter().map(|(n, s)| (tag(n), *s)));
        }
        out.counters.sort_by(|a, b| a.0.cmp(&b.0));
        out.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        out.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Value of the counter `name`, if present in the snapshot.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Per-counter deltas `self - earlier` for every counter present in
    /// `self`, treating counters absent from `earlier` as zero. Sorted by
    /// name; counters with a zero delta are omitted.
    pub fn counter_deltas(&self, earlier: &MetricsSnapshot) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .filter_map(|(name, v)| {
                let before = earlier.counter(name).unwrap_or(0);
                let delta = v.saturating_sub(before);
                (delta > 0).then(|| (name.clone(), delta))
            })
            .collect()
    }

    /// Serialize the snapshot as a JSON object string.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_string(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_string(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, s)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum_ns\":{},\"max_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{}}}",
                json_string(name),
                s.count,
                s.sum_ns,
                s.max_ns,
                s.p50_ns,
                s.p90_ns,
                s.p99_ns
            );
        }
        out.push_str("}}");
        out
    }
}

/// Quote and escape a string per JSON rules.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_prefixed_labels_and_sorts() {
        let a = Registry::new();
        a.counter("store.log.appends").add(3);
        a.gauge("serve.bytes").set(10);
        let b = Registry::new();
        b.counter("store.log.appends").add(5);
        b.histogram("lat").record(100);

        let (sa, sb) = (a.snapshot(), b.snapshot());
        let merged = MetricsSnapshot::merge_prefixed([("n1", &sb), ("n0", &sa)]);
        assert_eq!(merged.counter("n0.store.log.appends"), Some(3));
        assert_eq!(merged.counter("n1.store.log.appends"), Some(5));
        assert_eq!(merged.gauges, vec![("n0.serve.bytes".to_string(), 10)]);
        assert_eq!(merged.histograms.len(), 1);
        assert_eq!(merged.histograms[0].0, "n1.lat");
        // Sections sort by prefixed name regardless of input order.
        let names: Vec<&str> = merged.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("a.count");
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        // Handles are shared: a second lookup sees the same cell.
        assert_eq!(r.counter("a.count").get(), 10);

        let g = r.gauge("a.depth");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.set_max(7);
        g.set_max(1);
        assert_eq!(g.get(), 7);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile_ns(0.5), 0);
        for ns in [0u64, 1, 2, 3, 700, 800, 900, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max_ns(), 1_000_000);
        assert_eq!(h.sum_ns(), 1_002_406);
        // p50 rank 4 lands in the [2,3] bucket -> upper bound 3.
        assert_eq!(h.quantile_ns(0.5), 3);
        // p75 rank 6 lands in the [512,1023] bucket -> upper bound 1023.
        assert_eq!(h.quantile_ns(0.75), 1023);
        // p99 rank 8 lands in the bucket holding 1_000_000 (2^19..2^20-1),
        // whose upper bound is capped at the largest sample.
        assert_eq!(h.quantile_ns(0.99), 1_000_000);
        // Saturating bucket: enormous samples still land somewhere.
        h.record(u64::MAX);
        assert_eq!(h.max_ns(), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_never_exceed_the_largest_sample() {
        let one = Histogram::default();
        one.record(5_550_000);
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(one.quantile_ns(q), 5_550_000);
        }
        // The golden exposition's samples: p50 stays its bucket's bound,
        // p90 and p99 land in 700 000's bucket and read 700 000.
        let h = Histogram::default();
        for ns in [300_000u64, 500_000, 700_000] {
            h.record(ns);
        }
        assert_eq!(h.quantile_ns(0.5), (1 << 19) - 1);
        assert_eq!(h.quantile_ns(0.9), 700_000);
        assert_eq!(h.quantile_ns(0.99), 700_000);
        // A sample in the saturating bucket reads back exactly.
        h.record(u64::MAX - 1);
        assert_eq!(h.quantile_ns(1.0), u64::MAX - 1);
    }

    #[test]
    fn bucket_of_ranges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn render_text_is_sorted_and_stable() {
        let r = Registry::new();
        r.counter("zeta").add(1);
        r.counter("alpha").add(2);
        r.gauge("mid").set(-4);
        r.histogram("lat").record(100);
        let text = r.render_text();
        let lines: Vec<&str> = text.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "exposition lines must be sorted");
        assert!(text.contains("alpha 2\n"));
        assert!(text.contains("mid -4\n"));
        assert!(text.contains("lat_count 1\n"));
        assert!(text.contains("lat_max_ns 100\n"));
        // Rendering twice with no recording in between is byte-identical.
        assert_eq!(text, r.render_text());
    }

    #[test]
    fn json_snapshot_shape() {
        let r = Registry::new();
        r.counter("c").add(3);
        r.gauge("g").set(-1);
        r.histogram("h").record(1);
        let json = r.render_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"c\":3"));
        assert!(json.contains("\"g\":-1"));
        assert!(json.contains("\"h\":{\"count\":1"));
        assert!(json.ends_with("}}"));
    }

    #[test]
    fn snapshot_deltas() {
        let r = Registry::new();
        let c = r.counter("d.events");
        c.add(2);
        let before = r.snapshot();
        c.add(5);
        r.counter("d.other"); // zero-delta counter is omitted
        let after = r.snapshot();
        assert_eq!(
            after.counter_deltas(&before),
            vec![("d.events".to_owned(), 5)]
        );
        assert_eq!(after.counter("d.events"), Some(7));
        assert_eq!(after.counter("d.other"), Some(0));
    }
}
