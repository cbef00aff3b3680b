//! A lock-light metrics registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-shared atomics:
//! the registry's mutex is taken only at registration and readout time, never
//! on the record path. Names follow Prometheus conventions
//! (`snake_case`, unit-suffixed: `requests_total`, `extract_latency_us`);
//! [`Registry::render`] emits the Prometheus text exposition format.

use crate::hist::Histogram;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh detached counter (registry-owned ones come from
    /// [`Registry::counter`]).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increment by 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A settable instantaneous value.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh detached gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics. Cheap to clone handles out of; the inner
/// mutex guards only the name table.
#[derive(Debug, Default)]
pub struct Registry {
    // registration order preserved for stable exposition output
    metrics: Mutex<Vec<(String, Metric)>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut m = self.metrics.lock().unwrap();
        if let Some((_, metric)) = m.iter().find(|(n, _)| n == name) {
            return metric.clone();
        }
        let metric = make();
        m.push((name.to_string(), metric.clone()));
        metric
    }

    /// The counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Snapshot every metric as `(name, value)` rows, in registration order.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let m = self.metrics.lock().unwrap();
        m.iter()
            .map(|(name, metric)| {
                let v = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), v)
            })
            .collect()
    }

    /// Prometheus text exposition of every registered metric. Histograms
    /// emit cumulative `_bucket{le="..."}` rows for their populated buckets
    /// (plus `le="+Inf"`), `_sum`, `_count`, and a `_max` gauge; quantile
    /// summary rows (`_p50`/`_p90`/`_p99`) ride along as plain gauges so a
    /// bare `grep` can read tail latency without a PromQL evaluator.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
                }
                MetricValue::Histogram(s) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cum = 0u64;
                    for (_, upper, count) in s.nonzero_buckets() {
                        cum += count;
                        if upper == u64::MAX {
                            continue; // folded into +Inf below
                        }
                        let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cum}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", s.count);
                    let _ = writeln!(out, "{name}_sum {}", s.sum);
                    let _ = writeln!(out, "{name}_count {}", s.count);
                    let _ = writeln!(out, "{name}_p50 {}", s.p50());
                    let _ = writeln!(out, "{name}_p90 {}", s.p90());
                    let _ = writeln!(out, "{name}_p99 {}", s.p99());
                    let _ = writeln!(out, "{name}_max {}", s.max);
                }
            }
        }
        out
    }
}

/// One metric's snapshot value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(crate::hist::HistSnapshot),
}

/// The process-wide default registry — for instrumentation points with no
/// natural owner to plumb a registry through (e.g. the bounded queue's wait
/// histograms deep inside the extraction pipeline). Server-owned registries
/// stay separate so per-server counters never alias across instances.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_and_names_are_idempotent() {
        let r = Registry::new();
        let a = r.counter("requests_total");
        let b = r.counter("requests_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = r.gauge("inflight");
        g.set(5);
        g.add(-2);
        assert_eq!(r.gauge("inflight").get(), 3);
        let h = r.histogram("latency_us");
        h.record(7);
        assert_eq!(r.histogram("latency_us").snapshot().count, 1);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn render_is_greppable_prometheus_text() {
        let r = Registry::new();
        r.counter("requests_total").add(42);
        r.gauge("inflight").set(-1);
        let h = r.histogram("latency_us");
        for v in [3u64, 3, 900] {
            h.record(v);
        }
        let text = r.render();
        assert!(text.contains("# TYPE requests_total counter\nrequests_total 42\n"));
        assert!(text.contains("# TYPE inflight gauge\ninflight -1\n"));
        assert!(text.contains("# TYPE latency_us histogram\n"));
        assert!(text.contains("latency_us_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("latency_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("latency_us_count 3\n"));
        assert!(text.contains("latency_us_sum 906\n"));
        assert!(text.contains("latency_us_p50 3\n"));
        assert!(text.contains("latency_us_max 900\n"));
        // cumulative bucket rows are non-decreasing
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("latency_us_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket rows must be cumulative: {line}");
            last = v;
        }
    }

    #[test]
    fn global_registry_is_a_singleton() {
        global().counter("obs_selftest_total").inc();
        assert!(global().counter("obs_selftest_total").get() >= 1);
    }
}
