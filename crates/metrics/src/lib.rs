//! Live serving metrics for the metering stack.
//!
//! `hwm-trace` answers *post-hoc* questions: run a binary with
//! `--profile`, read the per-phase breakdown afterwards. A running
//! activation service needs the *live* counterpart — unlock rates,
//! lockout storms and duplicate-readout (clone) evidence visible while
//! the server is up, without killing it to read the journal. This crate
//! provides that substrate:
//!
//! * [`MetricsRegistry`] — one map of monotonic counters, gauges and
//!   fixed-bucket histograms under one mutex, keyed by
//!   `(name, label set)`. Every writer in the serving stack already holds
//!   its node's own lock, so the registry's lock is never contended; a
//!   [`Snapshot`] sorts the series into one deterministic view, the same
//!   "merge in a fixed order" move `hwm-trace` uses to make span trees
//!   `--jobs`-invariant.
//! * [`Snapshot`] — the deterministic read side: families sorted by name,
//!   series sorted by label set, rendered as Prometheus-style text
//!   ([`Snapshot::to_prometheus`]) or strict JSON for the wire.
//! * [`audit`] — the append-only alert stream (`audit.jsonl`, schema v1):
//!   one JSON line per security-relevant event (clone evidence, lockouts,
//!   remote disables), with the same strict parse-or-reject contract as
//!   the registry journal.
//! * [`latency`] — nearest-rank percentile summaries, so the repository
//!   benchmark and the live registry agree on quantile semantics.
//! * [`timeseries`] — a fixed-capacity ring-buffer history of the
//!   det-class series, sampled on the logical tick clock, with windowed
//!   derivations (rate per 1k ticks, sliding max, per-mille EWMA).
//! * [`alert`] — declarative threshold / burn-rate / absence rules with
//!   hysteresis, evaluated over the sampled history; firings are pure
//!   functions of the accepted request sequence.
//!
//! **Determinism contract.** Metric *values* split in two classes, the
//! counter/gauge split of `hwm-trace` generalized:
//!
//! * [`MetricClass::Det`] — pure functions of the accepted request
//!   sequence (outcome counters, registry state gauges, logical-clock
//!   readings). For a deterministic workload these are byte-identical in
//!   the exposition for any `--jobs` value.
//! * [`MetricClass::Timing`] — wall-clock quantities (handler latency
//!   histograms, journal fsync timings). Real and useful, but
//!   scheduling-dependent; [`Snapshot::deterministic`] filters them out,
//!   and that filtered view is what the determinism tests and
//!   `hwm_monitor --json` pin.
//!
//! Collection is on by default and can be switched off process-free via
//! [`MetricsRegistry::set_enabled`] — the serving benchmark uses that to
//! measure the instrumentation's own overhead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod audit;
pub mod latency;
mod snapshot;
pub mod timeseries;

pub use alert::{
    AlertEngine, AlertError, AlertRule, AlertRuleSet, AlertState, AlertTransition, RuleKind,
    RuleStatus, SeriesSelector, WindowStat, RULES_SCHEMA_VERSION,
};
pub use audit::{AuditError, AuditEvent, AuditLog, AuditValue, AUDIT_SCHEMA_VERSION};
pub use latency::{percentile, LatencySummary};
pub use snapshot::{Family, HistogramSnapshot, Series, SeriesValue, Snapshot, SnapshotError};
pub use timeseries::{
    DumpSeries, History, HistoryConfig, HistoryDump, Sample, SeriesHistory, WindowStats,
    HISTORY_SCHEMA_VERSION,
};

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Version of the snapshot JSON schema ([`Snapshot::to_json`]) and of the
/// text exposition's `# SCHEMA` header. Bump on incompatible change.
pub const SCHEMA_VERSION: u64 = 1;

/// Whether a metric's value is part of the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricClass {
    /// A pure function of the accepted request sequence: byte-identical
    /// across `--jobs` values for a deterministic workload.
    Det,
    /// Wall-clock / scheduling-dependent; excluded from determinism
    /// checks (and from `hwm_monitor --json` unless asked for).
    Timing,
}

impl MetricClass {
    /// Wire name (`"det"` / `"timing"`).
    pub fn as_str(self) -> &'static str {
        match self {
            MetricClass::Det => "det",
            MetricClass::Timing => "timing",
        }
    }

    /// Parses a wire name back to the class.
    pub fn parse(s: &str) -> Option<MetricClass> {
        match s {
            "det" => Some(MetricClass::Det),
            "timing" => Some(MetricClass::Timing),
            _ => None,
        }
    }
}

/// What kind of series a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Last-written `u64` (set semantics).
    Gauge,
    /// Fixed-bucket histogram of `u64` observations.
    Histogram,
}

impl MetricKind {
    /// Wire/exposition name (`"counter"` / `"gauge"` / `"histogram"`).
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }

    /// Parses a wire name back to the kind.
    pub fn parse(s: &str) -> Option<MetricKind> {
        match s {
            "counter" => Some(MetricKind::Counter),
            "gauge" => Some(MetricKind::Gauge),
            "histogram" => Some(MetricKind::Histogram),
            _ => None,
        }
    }
}

/// Handler-latency bucket bounds in nanoseconds (upper-inclusive edges):
/// roughly 1-2-5 per decade from 1 µs to 1 s. Observations above the last
/// bound land in the overflow bucket.
pub const LATENCY_BUCKETS_NS: &[u64] = &[
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    1_000_000_000,
];

/// A borrowed label set as call sites write it: `&[("op", "unlock")]`.
pub type LabelRefs<'a> = &'a [(&'static str, &'a str)];

#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct SeriesKey {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
}

#[derive(Debug, Clone)]
struct HistData {
    bounds: &'static [u64],
    /// One count per bound plus the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    /// Last trace id to land in each bucket (index-aligned with
    /// `counts`); `None` until a traced observation arrives.
    exemplars: Vec<Option<u64>>,
}

#[derive(Debug, Clone)]
enum SeriesData {
    Counter(u64),
    Gauge(u64),
    Histogram(HistData),
}

#[derive(Debug, Clone)]
struct StoredSeries {
    class: MetricClass,
    data: SeriesData,
}

/// The metric store: every series in one map under one mutex.
/// [`MetricsRegistry::snapshot`] sorts it into one deterministic
/// [`Snapshot`].
#[derive(Debug)]
pub struct MetricsRegistry {
    series: Mutex<HashMap<SeriesKey, StoredSeries>>,
    enabled: AtomicBool,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            series: Mutex::new(HashMap::new()),
            enabled: AtomicBool::new(true),
        }
    }
}

impl MetricsRegistry {
    /// Whether the registry is currently recording.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Reads ([`MetricsRegistry::snapshot`])
    /// keep working either way; writes become no-ops while disabled — the
    /// serving benchmark uses this to price the instrumentation itself.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<SeriesKey, StoredSeries>> {
        // Poisoned only if another thread panicked while holding the
        // lock. The only panics under it are a kind conflict and a
        // changed histogram bound: call-site programming errors, since
        // every metric name and bound slice is a `'static` in the code.
        self.series.lock().expect("metrics registry poisoned")
    }

    fn key(name: &'static str, labels: LabelRefs<'_>) -> SeriesKey {
        SeriesKey {
            name,
            labels: labels.iter().map(|(k, v)| (*k, v.to_string())).collect(),
        }
    }

    /// Adds `delta` to the counter `name{labels}`. Counters are always
    /// [`MetricClass::Det`]: by definition they count events of the
    /// request sequence, never wall time.
    pub fn inc(&self, name: &'static str, labels: LabelRefs<'_>, delta: u64) {
        if !self.enabled() {
            return;
        }
        match &mut self
            .lock()
            .entry(Self::key(name, labels))
            .or_insert(StoredSeries {
                class: MetricClass::Det,
                data: SeriesData::Counter(0),
            })
            .data
        {
            SeriesData::Counter(v) => *v += delta,
            other => panic!("metric {name:?} already registered as {}", data_kind(other).as_str()),
        }
    }

    /// Sets the gauge `name{labels}` to `value` (last write wins).
    pub fn set_gauge(&self, name: &'static str, labels: LabelRefs<'_>, class: MetricClass, value: u64) {
        if !self.enabled() {
            return;
        }
        let mut series = self.lock();
        let stored = series
            .entry(Self::key(name, labels))
            .or_insert(StoredSeries {
                class,
                data: SeriesData::Gauge(0),
            });
        match &mut stored.data {
            SeriesData::Gauge(v) => *v = value,
            other => panic!("metric {name:?} already registered as {}", data_kind(other).as_str()),
        }
    }

    /// Records `value` into the fixed-bucket histogram `name{labels}`.
    /// The bucket `bounds` are fixed per family; every call site for a
    /// given name must pass the same slice.
    pub fn observe(
        &self,
        name: &'static str,
        labels: LabelRefs<'_>,
        class: MetricClass,
        bounds: &'static [u64],
        value: u64,
    ) {
        self.observe_inner(name, labels, class, bounds, value, None);
    }

    /// [`MetricsRegistry::observe`] plus an exemplar: the bucket `value`
    /// lands in remembers `trace_id` (last writer wins), surfacing one
    /// attributable trace per bucket in the exposition's `# EXEMPLAR`
    /// lines. For a serialized request sequence "last" is deterministic,
    /// so exemplars stay golden-snapshot material.
    pub fn observe_exemplar(
        &self,
        name: &'static str,
        labels: LabelRefs<'_>,
        class: MetricClass,
        bounds: &'static [u64],
        value: u64,
        trace_id: u64,
    ) {
        self.observe_inner(name, labels, class, bounds, value, Some(trace_id));
    }

    fn observe_inner(
        &self,
        name: &'static str,
        labels: LabelRefs<'_>,
        class: MetricClass,
        bounds: &'static [u64],
        value: u64,
        exemplar: Option<u64>,
    ) {
        if !self.enabled() {
            return;
        }
        let mut series = self.lock();
        let stored = series
            .entry(Self::key(name, labels))
            .or_insert(StoredSeries {
                class,
                data: SeriesData::Histogram(HistData {
                    bounds,
                    counts: vec![0; bounds.len() + 1],
                    count: 0,
                    sum: 0,
                    exemplars: vec![None; bounds.len() + 1],
                }),
            });
        match &mut stored.data {
            SeriesData::Histogram(h) => {
                debug_assert_eq!(h.bounds, bounds, "histogram {name:?} bounds changed");
                let bucket = h.bounds.partition_point(|&b| b < value);
                h.counts[bucket] += 1;
                h.count += 1;
                h.sum = h.sum.saturating_add(value);
                if exemplar.is_some() {
                    h.exemplars[bucket] = exemplar;
                }
            }
            other => panic!("metric {name:?} already registered as {}", data_kind(other).as_str()),
        }
    }

    /// Visits every det-class counter and gauge series without building
    /// a [`Snapshot`]: no histogram-bucket clones, no sort, no
    /// per-series allocation. The visit order is the hash map's and
    /// therefore unspecified — callers that need a deterministic view
    /// must sort, or land the values in an ordered container the way
    /// [`History::sample_registry`] does.
    pub fn visit_det_ints(
        &self,
        mut f: impl FnMut(&'static str, &[(&'static str, String)], MetricKind, u64),
    ) {
        for (k, v) in self.lock().iter() {
            if v.class != MetricClass::Det {
                continue;
            }
            match v.data {
                SeriesData::Counter(val) => f(k.name, &k.labels, MetricKind::Counter, val),
                SeriesData::Gauge(val) => f(k.name, &k.labels, MetricKind::Gauge, val),
                SeriesData::Histogram(_) => {}
            }
        }
    }

    /// Every series, sorted into one deterministic [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let mut merged: Vec<(SeriesKey, StoredSeries)> = self
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        merged.sort_by(|a, b| a.0.cmp(&b.0));
        snapshot::build(merged.into_iter().map(|(k, v)| {
            (
                k.name.to_string(),
                k.labels.iter().map(|(n, v)| (n.to_string(), v.clone())).collect(),
                v.class,
                match v.data {
                    SeriesData::Counter(v) => (MetricKind::Counter, SeriesValue::Int(v)),
                    SeriesData::Gauge(v) => (MetricKind::Gauge, SeriesValue::Int(v)),
                    SeriesData::Histogram(h) => (
                        MetricKind::Histogram,
                        SeriesValue::Hist(HistogramSnapshot {
                            bounds: h.bounds.to_vec(),
                            counts: h.counts,
                            count: h.count,
                            sum: h.sum,
                            exemplars: h.exemplars,
                        }),
                    ),
                },
            )
        }))
    }
}

fn data_kind(data: &SeriesData) -> MetricKind {
    match data {
        SeriesData::Counter(_) => MetricKind::Counter,
        SeriesData::Gauge(_) => MetricKind::Gauge,
        SeriesData::Histogram(_) => MetricKind::Histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_label_sets() {
        let m = MetricsRegistry::default();
        m.inc("requests_total", &[("op", "unlock"), ("outcome", "key")], 2);
        m.inc("requests_total", &[("op", "unlock"), ("outcome", "key")], 3);
        m.inc("requests_total", &[("op", "register"), ("outcome", "ok")], 1);
        let s = m.snapshot();
        assert_eq!(s.counter("requests_total", &[("op", "unlock"), ("outcome", "key")]), Some(5));
        assert_eq!(s.counter("requests_total", &[("op", "register"), ("outcome", "ok")]), Some(1));
        assert_eq!(s.counter_total("requests_total"), 6);
    }

    #[test]
    fn gauges_take_the_last_write() {
        let m = MetricsRegistry::default();
        m.set_gauge("clock", &[], MetricClass::Det, 5);
        m.set_gauge("clock", &[], MetricClass::Det, 9);
        assert_eq!(m.snapshot().gauge("clock", &[]), Some(9));
    }

    #[test]
    fn disabled_registry_records_nothing_but_still_snapshots() {
        let m = MetricsRegistry::default();
        m.inc("a", &[], 1);
        m.set_enabled(false);
        m.inc("a", &[], 10);
        m.set_gauge("g", &[], MetricClass::Det, 3);
        m.observe("h", &[], MetricClass::Timing, LATENCY_BUCKETS_NS, 10);
        let s = m.snapshot();
        assert_eq!(s.counter("a", &[]), Some(1));
        assert_eq!(s.gauge("g", &[]), None);
        assert_eq!(s.families.len(), 1);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let m = MetricsRegistry::default();
        static BOUNDS: &[u64] = &[10, 100, 1000];
        for v in [1, 5, 10, 50, 200, 5000] {
            m.observe("lat", &[], MetricClass::Timing, BOUNDS, v);
        }
        let s = m.snapshot();
        let h = s.histogram("lat", &[]).expect("histogram recorded");
        assert_eq!(h.counts, vec![3, 1, 1, 1], "le=10:{{1,5,10}} le=100:{{50}} le=1000:{{200}} +Inf:{{5000}}");
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1 + 5 + 10 + 50 + 200 + 5000);
        assert_eq!(h.quantile(50.0), 10, "nearest-rank median lands in the first bucket");
        assert_eq!(h.quantile(99.0), 1000, "p99 saturates at the last finite bound");
    }

    #[test]
    fn concurrent_writers_produce_the_serial_snapshot() {
        let m = MetricsRegistry::default();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let m = &m;
                scope.spawn(move || {
                    for i in 0..100u64 {
                        m.inc("ticks", &[("worker", if t % 2 == 0 { "even" } else { "odd" })], 1);
                        m.observe("obs", &[], MetricClass::Det, &[50, 1000], i);
                    }
                });
            }
        });
        let s = m.snapshot();
        assert_eq!(s.counter("ticks", &[("worker", "even")]), Some(400));
        assert_eq!(s.counter("ticks", &[("worker", "odd")]), Some(400));
        let h = s.histogram("obs", &[]).unwrap();
        assert_eq!(h.count, 800);
        assert_eq!(h.counts, vec![8 * 51, 8 * 49, 0]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_are_programming_errors() {
        let m = MetricsRegistry::default();
        m.inc("x", &[], 1);
        m.set_gauge("x", &[], MetricClass::Det, 1);
    }
}
