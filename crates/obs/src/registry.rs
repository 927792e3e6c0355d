//! The live metrics runtime: a registry of counters, gauges, and
//! log-bucketed histograms, exportable as Prometheus text exposition
//! or as a deterministic JSON section.
//!
//! # Design
//!
//! A metric handle ([`Counter`], [`Gauge`], [`Histogram`]) is a cheap
//! clone of an `Arc`'d atomic: updates are lock-free and touch no
//! registry state, so hot paths (engine dispatch loops via the flight
//! recorder, pool workers, cache shards) never contend on anything but
//! their own cache line. The [`MetricsRegistry`] itself is only a
//! *directory* — name/labels → handle, one ordered map behind one
//! mutex — consulted on registration and export. Registration happens
//! on one thread (when a component mounts its meters, and when a batch
//! writes its jobs' figures after the run phase), so the lock is not
//! contended.
//!
//! # Determinism
//!
//! Every metric carries a [`MetricClass`]. `Deterministic` metrics are
//! pure functions of the job list (engine event counts, Table 1 op
//! tallies, cache hit/miss totals under the single-flight counting
//! discipline, virtual-clock cost histograms); `Timing` metrics are
//! wall-clock or scheduling artifacts (latency histograms, queue
//! waits, steal counts). Both exporters, [`MetricsRegistry::to_json`]
//! and [`MetricsRegistry::to_prometheus`], emit only the deterministic
//! class with `with_timing = false`, which is how `cmm batch
//! --metrics-out --no-timing` and `cmm metrics --no-timing` stay
//! byte-identical across `-j1` and `-jN`.
//!
//! # Histograms and quantile error
//!
//! Histograms bucket by `floor(log2(v)) + 1` (bucket 0 holds exact
//! zeros): bucket `i ≥ 1` covers `[2^(i-1), 2^i - 1]`, up to bucket 64
//! whose upper bound is `u64::MAX`. [`HistogramSnapshot::quantile`]
//! returns the *upper bound* of the bucket holding the requested rank,
//! so a reported pXX is never below the true quantile and at most 2×
//! above it — the standard error bound for power-of-two buckets, and
//! plenty for the order-of-magnitude latency questions the paper's
//! strategy comparison asks.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};

/// Histogram bucket count: bucket 0 for zero, buckets `1..=64` for
/// each power-of-two magnitude of a `u64`.
pub const HIST_BUCKETS: usize = 65;

/// A monotonically increasing counter. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Relaxed);
        }
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A last-value (or high-water) cell. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water marks).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

/// A log2-bucketed histogram (see the module docs for the bucket
/// layout and quantile error bound). Cloning shares the cells.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }
}

/// The bucket a value lands in: 0 for 0, else `floor(log2 v) + 1`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (u64::BITS - v.leading_zeros()) as usize
    }
}

/// The inclusive upper bound of bucket `i` (`u64::MAX` for the top
/// bucket).
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let h = &*self.0;
        h.count.fetch_add(1, Relaxed);
        h.sum.fetch_add(v, Relaxed);
        h.buckets[bucket_index(v)].fetch_add(1, Relaxed);
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = &*self.0;
        HistogramSnapshot {
            count: h.count.load(Relaxed),
            sum: h.sum.load(Relaxed),
            buckets: std::array::from_fn(|i| h.buckets[i].load(Relaxed)),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Copy, Debug)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Per-bucket observation counts.
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistogramSnapshot {
    /// The upper bound of the bucket holding the `num/den` quantile
    /// (integer arithmetic only, so the figure is as deterministic as
    /// the observations). Zero when the histogram is empty. The result
    /// is ≥ the true quantile and < 2× it (see the module docs).
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the quantile observation, 1-based, rounding up.
        let rank = ((self.count * num).div_ceil(den)).max(1);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        u64::MAX
    }

    /// The three headline quantiles: (p50, p90, p99).
    pub fn p50_p90_p99(&self) -> (u64, u64, u64) {
        (
            self.quantile(50, 100),
            self.quantile(90, 100),
            self.quantile(99, 100),
        )
    }
}

/// Whether a metric is a pure function of the job list or a wall-clock
/// / scheduling artifact. See the module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricClass {
    /// Identical across `-j1` and `-jN`; survives `--no-timing`.
    Deterministic,
    /// Varies run to run; stripped from deterministic output.
    Timing,
}

/// One registered metric handle.
#[derive(Clone, Debug)]
pub enum Metric {
    /// A [`Counter`].
    Counter(Counter),
    /// A [`Gauge`].
    Gauge(Gauge),
    /// A [`Histogram`].
    Histogram(Histogram),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct MetricId {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> MetricId {
        MetricId {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// `name{k="v",...}` (bare name when label-free).
    fn render(&self) -> String {
        let mut s = self.name.clone();
        if !self.labels.is_empty() {
            s.push('{');
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{k}=\"{v}\"");
            }
            s.push('}');
        }
        s
    }

    /// The label block with one extra `le` label appended (Prometheus
    /// histogram bucket lines).
    fn render_with_le(&self, suffix: &str, le: &str) -> String {
        let mut s = format!("{}{suffix}{{", self.name);
        for (k, v) in &self.labels {
            let _ = write!(s, "{k}=\"{v}\",");
        }
        let _ = write!(s, "le=\"{le}\"}}");
        s
    }
}

#[derive(Clone, Debug)]
struct Entry {
    help: &'static str,
    class: MetricClass,
    metric: Metric,
}

/// The metric directory: name + labels → shared handle. See the module
/// docs for the design.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<BTreeMap<MetricId, Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<MetricId, Entry>> {
        self.entries.lock().expect("registry poisoned")
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &'static str,
        class: MetricClass,
        fresh: impl FnOnce() -> Metric,
    ) -> Metric {
        let id = MetricId::new(name, labels);
        let mut map = self.lock();
        let entry = map.entry(id).or_insert_with(|| Entry {
            help,
            class,
            metric: fresh(),
        });
        entry.metric.clone()
    }

    /// The counter for `(name, labels)`, creating it on first use.
    /// Registration is idempotent: later calls return the same cell.
    pub fn counter(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &'static str,
        class: MetricClass,
    ) -> Counter {
        match self.get_or_insert(
            name,
            labels,
            help,
            class,
            || Metric::Counter(Counter::new()),
        ) {
            Metric::Counter(c) => c,
            m => panic!("{name} already registered as a {}", m.type_name()),
        }
    }

    /// The gauge for `(name, labels)`, creating it on first use.
    pub fn gauge(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &'static str,
        class: MetricClass,
    ) -> Gauge {
        match self.get_or_insert(name, labels, help, class, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            m => panic!("{name} already registered as a {}", m.type_name()),
        }
    }

    /// The histogram for `(name, labels)`, creating it on first use.
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &'static str,
        class: MetricClass,
    ) -> Histogram {
        match self.get_or_insert(name, labels, help, class, || {
            Metric::Histogram(Histogram::new())
        }) {
            Metric::Histogram(h) => h,
            m => panic!("{name} already registered as a {}", m.type_name()),
        }
    }

    /// Mounts an *existing* handle under `(name, labels)` — how a
    /// component's own counters (cache shards, pool meters) become
    /// registry-backed views without a copy: the registry exports the
    /// very cell the component updates.
    pub fn mount(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &'static str,
        class: MetricClass,
        metric: Metric,
    ) {
        let id = MetricId::new(name, labels);
        let entry = Entry {
            help,
            class,
            metric,
        };
        self.lock().insert(id, entry);
    }

    /// Every entry in the map's order; [`MetricClass::Timing`] entries
    /// only `with_timing`.
    fn collect(&self, with_timing: bool) -> Vec<(MetricId, Entry)> {
        let map = self.lock();
        map.iter()
            .filter(|(_, e)| with_timing || e.class == MetricClass::Deterministic)
            .map(|(id, e)| (id.clone(), e.clone()))
            .collect()
    }

    /// Prometheus text exposition (`# HELP` / `# TYPE`, cumulative
    /// `_bucket{le=...}` lines for histograms). With `with_timing =
    /// false`, [`MetricClass::Timing`] families are omitted, as in
    /// [`MetricsRegistry::to_json`].
    pub fn to_prometheus(&self, with_timing: bool) -> String {
        let mut out = String::new();
        let mut last_name: Option<String> = None;
        for (id, e) in self.collect(with_timing) {
            if last_name.as_deref() != Some(id.name.as_str()) {
                let _ = writeln!(out, "# HELP {} {}", id.name, e.help);
                let _ = writeln!(out, "# TYPE {} {}", id.name, e.metric.type_name());
                last_name = Some(id.name.clone());
            }
            match &e.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{} {}", id.render(), c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{} {}", id.render(), g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cum = 0u64;
                    for (i, n) in snap.buckets.iter().enumerate() {
                        if *n == 0 {
                            continue;
                        }
                        cum += n;
                        let le = bucket_upper(i).to_string();
                        let _ = writeln!(out, "{} {cum}", id.render_with_le("_bucket", &le));
                    }
                    let _ = writeln!(
                        out,
                        "{} {}",
                        id.render_with_le("_bucket", "+Inf"),
                        snap.count
                    );
                    let _ = writeln!(out, "{}_sum{} {}", id.name, labels_block(&id), snap.sum);
                    let _ = writeln!(out, "{}_count{} {}", id.name, labels_block(&id), snap.count);
                }
            }
        }
        out
    }

    /// A deterministically ordered JSON object: rendered metric name →
    /// value (counters, gauges) or histogram object with `count`,
    /// `sum`, `p50`/`p90`/`p99`, and the non-empty `[le, n]` buckets.
    /// With `with_timing = false`, [`MetricClass::Timing`] entries are
    /// omitted entirely — the deterministic section `cmm batch` embeds.
    pub fn to_json(&self, with_timing: bool) -> String {
        let mut out = String::from("{\n");
        let entries = self.collect(with_timing);
        for (i, (id, e)) in entries.iter().enumerate() {
            let _ = write!(out, "  \"{}\": ", id.render().replace('"', "'"));
            match &e.metric {
                Metric::Counter(c) => {
                    let _ = write!(out, "{}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, "{}", g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let (p50, p90, p99) = snap.p50_p90_p99();
                    let _ = write!(
                        out,
                        "{{ \"count\": {}, \"sum\": {}, \"p50\": {p50}, \"p90\": {p90}, \
                         \"p99\": {p99}, \"buckets\": [",
                        snap.count, snap.sum
                    );
                    let mut first = true;
                    for (b, n) in snap.buckets.iter().enumerate() {
                        if *n == 0 {
                            continue;
                        }
                        if !first {
                            out.push_str(", ");
                        }
                        first = false;
                        let _ = write!(out, "[{}, {n}]", bucket_upper(b));
                    }
                    out.push_str("] }");
                }
            }
            out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
        }
        out.push('}');
        out
    }
}

/// `{k="v",...}` or the empty string — Prometheus `_sum`/`_count`
/// lines.
fn labels_block(id: &MetricId) -> String {
    if id.labels.is_empty() {
        return String::new();
    }
    let mut s = String::from("{");
    for (i, (k, v)) in id.labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{k}=\"{v}\"");
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_at_exact_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        for k in 0..63 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), k as usize + 1, "2^{k}");
            assert_eq!(
                bucket_index(v + (v - 1)),
                k as usize + 1,
                "2^(k+1)-1, k={k}"
            );
            // An exact power of two opens its bucket: it is the lowest
            // value bucket k+1 covers.
            assert!(v > bucket_upper(k as usize), "2^{k} above bucket {k}");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(64), u64::MAX);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(63), (1u64 << 63) - 1);
    }

    #[test]
    fn histogram_quantiles_are_upper_bounds_within_2x() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 100, 100, 1000, 1000, 5000, 100_000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        let (p50, p90, p99) = s.p50_p90_p99();
        // True p50 = 100 (5th of 10), bucket [64,127] → upper 127.
        assert_eq!(p50, 127);
        assert!((100..200).contains(&p50));
        // True p90 = 5000, bucket [4096,8191].
        assert_eq!(p90, 8191);
        // p99 rounds up to the max observation's bucket.
        assert_eq!(p99, 131_071);
        assert!((100_000..200_000).contains(&p99));
    }

    #[test]
    fn histogram_handles_zero_and_u64_max() {
        let h = Histogram::new();
        h.observe(0);
        h.observe(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[64], 1);
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, u64::MAX);
        assert_eq!(s.quantile(50, 100), 0);
        assert_eq!(s.quantile(99, 100), u64::MAX);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.p50_p90_p99(), (0, 0, 0));
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = MetricsRegistry::new();
        let a = r.counter("x_total", &[("k", "v")], "help", MetricClass::Deterministic);
        let b = r.counter("x_total", &[("k", "v")], "help", MetricClass::Deterministic);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("x", &[], "h", MetricClass::Deterministic);
        r.gauge("x", &[], "h", MetricClass::Deterministic);
    }

    #[test]
    fn mounted_handles_are_live_views() {
        let r = MetricsRegistry::new();
        let c = Counter::new();
        r.mount(
            "ext_total",
            &[],
            "an external counter",
            MetricClass::Deterministic,
            Metric::Counter(c.clone()),
        );
        c.add(7);
        assert!(r.to_prometheus(false).contains("ext_total 7"));
        assert!(r.to_json(false).contains("\"ext_total\": 7"));
    }

    #[test]
    fn json_strips_timing_class_and_orders_deterministically() {
        let r = MetricsRegistry::new();
        r.counter("b_total", &[], "b", MetricClass::Deterministic)
            .add(2);
        r.gauge("a_wall", &[], "a", MetricClass::Timing).set(99);
        let h = r.histogram(
            "c_hist",
            &[("phase", "run")],
            "c",
            MetricClass::Deterministic,
        );
        h.observe(4);
        h.observe(5);
        let stripped = r.to_json(false);
        assert!(!stripped.contains("a_wall"));
        assert!(stripped.contains("\"b_total\": 2"));
        assert!(stripped.contains("\"c_hist{phase='run'}\""));
        assert!(stripped.contains("\"p50\": 7"), "{stripped}");
        let full = r.to_json(true);
        assert!(full.contains("\"a_wall\": 99"));
        // Ordering is name-major regardless of registration order.
        let bpos = full.find("b_total").unwrap();
        let apos = full.find("a_wall").unwrap();
        let cpos = full.find("c_hist").unwrap();
        assert!(apos < bpos && bpos < cpos);
    }

    #[test]
    fn prometheus_histograms_are_cumulative_with_inf() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat_ns", &[], "latency", MetricClass::Timing);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        assert!(r.to_prometheus(false).is_empty());
        let text = r.to_prometheus(true);
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{le=\"1\"} 1"));
        assert!(text.contains("lat_ns_bucket{le=\"3\"} 3"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_ns_sum 6"));
        assert!(text.contains("lat_ns_count 3"));
    }

    #[test]
    fn concurrent_updates_from_many_threads_total_correctly() {
        let r = MetricsRegistry::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let r = &r;
                s.spawn(move || {
                    let c = r.counter("n_total", &[], "n", MetricClass::Deterministic);
                    let h = r.histogram("v", &[], "v", MetricClass::Deterministic);
                    for i in 0..1000 {
                        c.inc();
                        h.observe(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(
            r.counter("n_total", &[], "n", MetricClass::Deterministic)
                .get(),
            8000
        );
        let snap = r
            .histogram("v", &[], "v", MetricClass::Deterministic)
            .snapshot();
        assert_eq!(snap.count, 8000);
    }
}
