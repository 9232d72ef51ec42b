//! Fixed-capacity ring-buffer history over the registry's det-class
//! series, sampled on the logical tick clock.
//!
//! The registry answers "what is the value now"; this module answers
//! "how did it get there" — bounded-memory time series the alert engine
//! ([`crate::alert`]) and the fleet monitor derive windowed statistics
//! from (rate per 1k ticks, sliding max, EWMA). Everything here is a
//! pure function of the sampled `(tick, value)` pairs: sampling happens
//! on the logical clock (never wall time), values come from det-class
//! counters and gauges only, and all window math is integer arithmetic
//! (EWMA in per-mille fixed point) — so histories, derived statistics
//! and alert firings are byte-identical for any `--jobs`.
//!
//! Timing-class families (wall-clock latency histograms) are excluded
//! by construction: sampling them would smuggle nondeterminism into a
//! stream that downstream goldens pin byte-for-byte.

use crate::snapshot::labels_from_json;
use crate::{MetricKind, SnapshotError};
use hwm_jsonio::{Json, StrictObj};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Wire schema version for [`HistoryDump`].
pub const HISTORY_SCHEMA_VERSION: u64 = 1;

/// Sampling parameters: how often the registry is sampled into the ring
/// and how many samples each series retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryConfig {
    /// Sample every `stride` logical ticks (tick % stride == 0).
    pub stride: u64,
    /// Samples retained per series; the ring drops the oldest beyond
    /// this.
    pub capacity: usize,
}

impl Default for HistoryConfig {
    /// What every server samples with: every 4 ticks, 256 samples per
    /// series.
    fn default() -> HistoryConfig {
        HistoryConfig {
            stride: 4,
            capacity: 256,
        }
    }
}

/// One sampled point of a series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Logical tick the sample was taken at.
    pub tick: u64,
    /// Series value at that tick.
    pub value: u64,
}

/// The retained samples of one labelled series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesHistory {
    /// Counter or gauge (histograms are never sampled).
    pub kind: MetricKind,
    samples: VecDeque<Sample>,
}

/// Windowed statistics of one series over `(now - window, now]`,
/// computed by [`SeriesHistory::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowStats {
    /// Increase from the baseline sample to the newest in-window sample
    /// (saturating — a gauge that fell reports 0).
    pub delta: u64,
    /// Ticks actually spanned between the baseline and newest sample.
    /// Equals at least `window` only when the retained history reaches
    /// back past the window start ([`WindowStats::covered`]).
    pub spanned: u64,
    /// True when a sample at or before `now - window` exists, i.e. the
    /// window is fully backed by history (the alert warm-up guard).
    pub covered: bool,
    /// Largest sampled value inside the window.
    pub max: u64,
    /// Newest sampled value at or before `now`.
    pub last: u64,
    /// Number of samples inside the window.
    pub samples: usize,
}

impl WindowStats {
    /// The delta normalized to events per 1000 ticks. Exact for a
    /// counter growing at a constant per-tick rate (integer math, no
    /// rounding drift across windows).
    pub fn rate_per_1k(&self) -> u64 {
        self.delta.saturating_mul(1000) / self.spanned.max(1)
    }
}

impl SeriesHistory {
    fn new(kind: MetricKind) -> SeriesHistory {
        SeriesHistory {
            kind,
            samples: VecDeque::new(),
        }
    }

    fn push(&mut self, sample: Sample, capacity: usize) {
        if let Some(last) = self.samples.back_mut() {
            if last.tick == sample.tick {
                last.value = sample.value;
                return;
            }
        }
        if self.samples.len() >= capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = Sample> + '_ {
        self.samples.iter().copied()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been sampled yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Newest sample at or before `now`.
    pub fn latest_at(&self, now: u64) -> Option<Sample> {
        self.samples.iter().rev().find(|s| s.tick <= now).copied()
    }

    /// Windowed statistics over `(now - window, now]`. The baseline is
    /// the newest sample at or before the window start, falling back to
    /// the oldest retained sample (with `covered == false`). `None`
    /// when no sample exists at or before `now`.
    pub fn stats(&self, now: u64, window: u64) -> Option<WindowStats> {
        let last = self.latest_at(now)?;
        let start = now.saturating_sub(window);
        let baseline = self
            .samples
            .iter()
            .rev()
            .find(|s| s.tick <= start)
            .copied()
            .unwrap_or_else(|| *self.samples.front().expect("non-empty: latest_at succeeded"));
        let in_window: Vec<Sample> = self
            .samples
            .iter()
            .filter(|s| s.tick > start && s.tick <= now)
            .copied()
            .collect();
        Some(WindowStats {
            delta: last.value.saturating_sub(baseline.value),
            spanned: last.tick.saturating_sub(baseline.tick),
            covered: baseline.tick <= start,
            max: in_window.iter().map(|s| s.value).max().unwrap_or(baseline.value),
            last: last.value,
            samples: in_window.len(),
        })
    }

    /// Exponentially weighted moving average of the in-window samples
    /// in per-mille fixed point: the result is `1000 ×` the average.
    /// `alpha_milli` (0..=1000) weights the newest sample. Integer
    /// arithmetic throughout, so byte-stable across runs. `None` when
    /// the window holds no samples.
    pub fn ewma_milli(&self, now: u64, window: u64, alpha_milli: u64) -> Option<u64> {
        let start = now.saturating_sub(window);
        let alpha = alpha_milli.min(1000);
        let mut acc: Option<u64> = None;
        for s in self.samples.iter().filter(|s| s.tick > start && s.tick <= now) {
            let v_milli = s.value.saturating_mul(1000);
            acc = Some(match acc {
                None => v_milli,
                Some(prev) => {
                    (alpha.saturating_mul(v_milli) + (1000 - alpha).saturating_mul(prev)) / 1000
                }
            });
        }
        acc
    }
}

/// Key of one series in the history: metric name plus sorted labels.
pub type SeriesKey = (String, Vec<(String, String)>);

/// The sampled history of every det-class counter and gauge, bounded by
/// [`HistoryConfig::capacity`] samples per series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct History {
    config: HistoryConfig,
    series: BTreeMap<SeriesKey, SeriesHistory>,
}

impl History {
    /// An empty history with the given sampling configuration. The
    /// capacity is clamped to at least one sample per series.
    pub fn new(config: HistoryConfig) -> History {
        History {
            config: HistoryConfig {
                capacity: config.capacity.max(1),
                ..config
            },
            series: BTreeMap::new(),
        }
    }

    /// True when `tick` is a sampling tick under the configured stride.
    pub fn should_sample(&self, tick: u64) -> bool {
        tick.is_multiple_of(self.config.stride)
    }

    /// Samples the live registry at `tick`: every det-class counter and
    /// gauge series gains a sample (histograms and timing-class series
    /// are skipped — see the module docs). Re-sampling the same tick
    /// overwrites that tick's samples rather than duplicating them.
    ///
    /// The registry is walked in place, without materializing a
    /// [`crate::MetricsRegistry::snapshot`] (no histogram clones, no
    /// global sort). The BTreeMap orders series by key, so the
    /// unspecified visit order never shows.
    pub fn sample_registry(&mut self, tick: u64, registry: &crate::MetricsRegistry) {
        let capacity = self.config.capacity;
        // One reusable key: lookups for already-known series allocate
        // nothing once the buffers have grown.
        let mut key: SeriesKey = (String::new(), Vec::new());
        let series = &mut self.series;
        registry.visit_det_ints(|name, labels, kind, value| {
            key.0.clear();
            key.0.push_str(name);
            key.1.truncate(labels.len());
            while key.1.len() < labels.len() {
                key.1.push((String::new(), String::new()));
            }
            for (slot, (lk, lv)) in key.1.iter_mut().zip(labels) {
                slot.0.clear();
                slot.0.push_str(lk);
                slot.1.clear();
                slot.1.push_str(lv);
            }
            if let Some(h) = series.get_mut(&key) {
                h.push(Sample { tick, value }, capacity);
            } else {
                series
                    .entry(key.clone())
                    .or_insert_with(|| SeriesHistory::new(kind))
                    .push(Sample { tick, value }, capacity);
            }
        });
    }

    /// All series, sorted by `(name, labels)`.
    pub fn series(&self) -> impl Iterator<Item = (&SeriesKey, &SeriesHistory)> {
        self.series.iter()
    }

    /// One series by exact name + sorted-label match.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SeriesHistory> {
        self.series.iter().find(|((n, ls), _)| {
            n == name
                && ls.len() == labels.len()
                && ls.iter().zip(labels).all(|((k, v), (lk, lv))| k == lk && v == lv)
        }).map(|(_, h)| h)
    }

    /// The newest tick sampled anywhere in the history.
    pub fn latest_tick(&self) -> Option<u64> {
        self.series.values().filter_map(|h| h.samples.back().map(|s| s.tick)).max()
    }

    /// Summed window delta across every series of `name` (the
    /// whole-family view selectors without labels use). A series
    /// without full coverage still contributes its retained delta.
    /// `covered` is true when at least one member series fully covers
    /// the window; `spanned` is the widest member span.
    pub fn family_stats(&self, name: &str, now: u64, window: u64) -> Option<WindowStats> {
        let mut merged: Option<WindowStats> = None;
        for (_, h) in self.series.iter().filter(|((n, _), _)| n == name) {
            let Some(s) = h.stats(now, window) else { continue };
            merged = Some(match merged {
                None => s,
                Some(m) => WindowStats {
                    delta: m.delta.saturating_add(s.delta),
                    spanned: m.spanned.max(s.spanned),
                    covered: m.covered || s.covered,
                    max: m.max.saturating_add(s.max),
                    last: m.last.saturating_add(s.last),
                    samples: m.samples + s.samples,
                },
            });
        }
        merged
    }

    /// Freezes the history into its wire form, keeping only samples
    /// newer than `latest_tick - window` when `window` is given.
    pub fn dump(&self, window: Option<u64>) -> HistoryDump {
        let cutoff = match (window, self.latest_tick()) {
            (Some(w), Some(latest)) => latest.saturating_sub(w),
            _ => 0,
        };
        HistoryDump {
            stride: self.config.stride,
            capacity: self.config.capacity as u64,
            series: self
                .series
                .iter()
                .map(|((name, labels), h)| DumpSeries {
                    name: name.clone(),
                    labels: labels.clone(),
                    kind: h.kind,
                    samples: h
                        .samples
                        .iter()
                        .filter(|s| cutoff == 0 || s.tick > cutoff)
                        .copied()
                        .collect(),
                })
                .filter(|s| !s.samples.is_empty() || cutoff == 0)
                .collect(),
        }
    }

    /// Rebuilds a queryable history from a wire dump (what `hwm_monitor
    /// --rules` does client-side with a fetched dump).
    pub fn from_dump(dump: &HistoryDump) -> History {
        let mut h = History::new(HistoryConfig {
            stride: dump.stride,
            capacity: dump.capacity as usize,
        });
        for s in &dump.series {
            let entry = h
                .series
                .entry((s.name.clone(), s.labels.clone()))
                .or_insert_with(|| SeriesHistory::new(s.kind));
            for sample in &s.samples {
                entry.push(*sample, h.config.capacity);
            }
        }
        h
    }
}

/// One series of a [`HistoryDump`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpSeries {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Retained samples, oldest first.
    pub samples: Vec<Sample>,
}

/// The wire form of a [`History`]: what the `history` admin request
/// returns. Strict JSON, schema v1.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistoryDump {
    /// Sampling stride the server used.
    pub stride: u64,
    /// Ring capacity the server used.
    pub capacity: u64,
    /// Series sorted by `(name, labels)`.
    pub series: Vec<DumpSeries>,
}

impl HistoryDump {
    /// Serializes the dump to its strict JSON wire form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::U64(HISTORY_SCHEMA_VERSION)),
            ("stride", Json::U64(self.stride)),
            ("capacity", Json::U64(self.capacity)),
            (
                "series",
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("name", Json::Str(s.name.clone())),
                                (
                                    "labels",
                                    Json::Arr(
                                        s.labels
                                            .iter()
                                            .map(|(k, v)| {
                                                Json::Arr(vec![
                                                    Json::Str(k.clone()),
                                                    Json::Str(v.clone()),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                                ("kind", Json::Str(s.kind.as_str().into())),
                                (
                                    "samples",
                                    Json::Arr(
                                        s.samples
                                            .iter()
                                            .map(|p| {
                                                Json::Arr(vec![
                                                    Json::U64(p.tick),
                                                    Json::U64(p.value),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the strict JSON wire form back: unknown, missing,
    /// ill-typed and duplicated fields are all rejected, and samples must
    /// be in strictly increasing tick order.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] naming the offending field.
    pub fn from_json(j: &Json) -> Result<HistoryDump, SnapshotError> {
        let mut f = StrictObj::new(j, "history")?;
        let schema: u64 = f.uint("schema")?;
        if schema != HISTORY_SCHEMA_VERSION {
            return Err(err(format!(
                "unsupported history schema {schema} (expected {HISTORY_SCHEMA_VERSION})"
            )));
        }
        let dump = HistoryDump {
            stride: f.uint("stride")?,
            capacity: f.uint("capacity")?,
            series: f
                .arr("series")?
                .iter()
                .map(dump_series_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        f.finish()?;
        Ok(dump)
    }
}

fn err(message: impl Into<String>) -> SnapshotError {
    SnapshotError {
        message: message.into(),
    }
}

fn dump_series_from_json(j: &Json) -> Result<DumpSeries, SnapshotError> {
    let mut f = StrictObj::new(j, "history series")?;
    let name = f.string("name")?;
    let labels = labels_from_json(f.field("labels")?)?;
    let kind = f.string("kind")?;
    let kind = MetricKind::parse(&kind)
        .ok_or_else(|| err(format!("history series {name:?} has unknown kind {kind:?}")))?;
    if kind == MetricKind::Histogram {
        return Err(err(format!("history series {name:?}: histograms are never sampled")));
    }
    let mut samples = Vec::new();
    for sj in f.arr("samples")? {
        let pair = sj
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| err(format!("samples of {name:?} must be [tick, value] pairs")))?;
        let (tick, value) = match (pair[0].as_u64(), pair[1].as_u64()) {
            (Some(t), Some(v)) => (t, v),
            _ => return Err(err(format!("samples of {name:?} must hold unsigned integers"))),
        };
        if let Some(&Sample { tick: prev, .. }) = samples.last() {
            if tick <= prev {
                return Err(err(format!(
                    "samples of {name:?} must be in strictly increasing tick order"
                )));
            }
        }
        samples.push(Sample { tick, value });
    }
    f.finish()?;
    Ok(DumpSeries {
        name,
        labels,
        kind,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricClass, MetricsRegistry};

    fn history_of(ticks: &[(u64, u64)]) -> SeriesHistory {
        let mut h = SeriesHistory::new(MetricKind::Counter);
        for &(tick, value) in ticks {
            h.push(Sample { tick, value }, 256);
        }
        h
    }

    #[test]
    fn sampling_respects_stride_and_class() {
        let m = MetricsRegistry::default();
        m.inc("c", &[("op", "x")], 5);
        m.set_gauge("g", &[], MetricClass::Det, 9);
        m.set_gauge("wall", &[], MetricClass::Timing, 123);
        m.observe("h", &[], MetricClass::Det, &[10], 3);
        let mut hist = History::new(HistoryConfig { stride: 4, capacity: 8 });
        assert!(hist.should_sample(0));
        assert!(!hist.should_sample(3));
        assert!(hist.should_sample(8));
        hist.sample_registry(8, &m);
        let c = hist.get("c", &[("op", "x")]).expect("det counter sampled");
        assert_eq!(c.kind, MetricKind::Counter);
        assert_eq!(c.latest_at(8), Some(Sample { tick: 8, value: 5 }));
        let g = hist.get("g", &[]).expect("det gauge sampled");
        assert_eq!(g.kind, MetricKind::Gauge);
        assert_eq!(g.latest_at(8), Some(Sample { tick: 8, value: 9 }));
        assert!(hist.get("wall", &[]).is_none(), "timing-class series are never sampled");
        assert!(hist.get("h", &[]).is_none(), "histograms are never sampled");
        assert_eq!(hist.series().count(), 2);
        assert_eq!(hist.latest_tick(), Some(8));
        // Re-sampling a tick overwrites it; the ring keeps `capacity`.
        m.inc("c", &[("op", "x")], 1);
        hist.sample_registry(8, &m);
        assert_eq!(hist.get("c", &[("op", "x")]).unwrap().len(), 1);
        assert_eq!(hist.get("c", &[("op", "x")]).unwrap().latest_at(8).unwrap().value, 6);
        for tick in (12..=48).step_by(4) {
            hist.sample_registry(tick, &m);
        }
        assert_eq!(hist.get("g", &[]).unwrap().len(), 8);
    }

    #[test]
    fn zero_capacity_clamps_to_one_sample() {
        let mut hist = History::new(HistoryConfig { stride: 1, capacity: 0 });
        let m = MetricsRegistry::default();
        for tick in 1..=3 {
            m.inc("c", &[], 1);
            hist.sample_registry(tick, &m);
        }
        let kept: Vec<Sample> = hist.get("c", &[]).unwrap().samples().collect();
        assert_eq!(kept, vec![Sample { tick: 3, value: 3 }]);
        assert_eq!(hist.dump(None).capacity, 1);
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let mut h = SeriesHistory::new(MetricKind::Counter);
        for tick in 0..10 {
            h.push(Sample { tick, value: tick * 2 }, 4);
        }
        let kept: Vec<u64> = h.samples().map(|s| s.tick).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn same_tick_overwrites_instead_of_duplicating() {
        let mut h = SeriesHistory::new(MetricKind::Gauge);
        h.push(Sample { tick: 4, value: 1 }, 8);
        h.push(Sample { tick: 4, value: 7 }, 8);
        assert_eq!(h.len(), 1);
        assert_eq!(h.latest_at(4).unwrap().value, 7);
    }

    #[test]
    fn window_stats_and_rate() {
        // Counter growing 3 per tick, sampled every 4 ticks.
        let h = history_of(&[(0, 0), (4, 12), (8, 24), (12, 36), (16, 48)]);
        let s = h.stats(16, 8).expect("has samples");
        assert_eq!(s.delta, 24);
        assert_eq!(s.spanned, 8);
        assert!(s.covered);
        assert_eq!(s.last, 48);
        assert_eq!(s.max, 48);
        assert_eq!(s.rate_per_1k(), 3000, "3 per tick = 3000 per 1k ticks");
        // Not enough history for a 100-tick window: falls back to the
        // oldest sample and reports covered == false. (A history whose
        // oldest sample is tick 0 always covers — the saturated window
        // start is 0 — so start this one at tick 4.)
        let h = history_of(&[(4, 12), (8, 24), (12, 36), (16, 48)]);
        let s = h.stats(16, 100).unwrap();
        assert!(!s.covered);
        assert_eq!(s.delta, 36);
        assert_eq!(s.spanned, 12);
    }

    #[test]
    fn family_stats_sums_members() {
        let mut hist = History::new(HistoryConfig { stride: 1, capacity: 16 });
        let m = MetricsRegistry::default();
        m.inc("c", &[("op", "a")], 1);
        m.inc("c", &[("op", "b")], 10);
        hist.sample_registry(0, &m);
        m.inc("c", &[("op", "a")], 2);
        m.inc("c", &[("op", "b")], 20);
        hist.sample_registry(8, &m);
        let s = hist.family_stats("c", 8, 8).expect("family present");
        assert_eq!(s.delta, 22);
        assert!(s.covered);
        assert_eq!(s.last, 33);
        assert!(hist.family_stats("missing", 8, 8).is_none());
    }

    #[test]
    fn ewma_is_fixed_point_and_weighted_toward_new() {
        let h = history_of(&[(1, 0), (2, 0), (3, 1000)]);
        // alpha = 0.5: ((0*0.5 + 0)*0.5 + 1000*0.5) = 500 → milli = 500000.
        assert_eq!(h.ewma_milli(3, 3, 500), Some(500_000));
        // Constant series: EWMA equals the constant (in milli).
        let c = history_of(&[(1, 7), (2, 7), (3, 7)]);
        assert_eq!(c.ewma_milli(3, 3, 300), Some(7_000));
        assert_eq!(c.ewma_milli(0, 3, 300), None, "empty window");
    }

    #[test]
    fn dump_round_trips_and_windows() {
        let mut hist = History::new(HistoryConfig { stride: 2, capacity: 8 });
        let m = MetricsRegistry::default();
        for tick in [2u64, 4, 6, 8] {
            m.inc("c", &[], 5);
            m.set_gauge("g", &[("zone", "a")], MetricClass::Det, tick);
            hist.sample_registry(tick, &m);
        }
        let dump = hist.dump(None);
        let j = dump.to_json();
        let reparsed = Json::parse(&j.to_string()).unwrap();
        assert_eq!(HistoryDump::from_json(&reparsed).expect("parses"), dump);
        // A windowed dump keeps only samples newer than latest - window.
        let recent = hist.dump(Some(4));
        for s in &recent.series {
            assert!(s.samples.iter().all(|p| p.tick > 4), "{:?}", s.samples);
        }
        // Rebuilding from the dump answers the same queries.
        let rebuilt = History::from_dump(&dump);
        assert_eq!(
            rebuilt.get("c", &[]).unwrap().stats(8, 4),
            hist.get("c", &[]).unwrap().stats(8, 4)
        );
    }

    #[test]
    fn dump_parse_rejects_tampering() {
        let mut hist = History::new(HistoryConfig::default());
        let m = MetricsRegistry::default();
        m.inc("c", &[], 1);
        hist.sample_registry(4, &m);
        let good = hist.dump(None).to_json();
        let mut j = good.clone();
        if let Json::Obj(fields) = &mut j {
            fields.push(("extra".into(), Json::U64(1)));
        }
        assert!(HistoryDump::from_json(&j).unwrap_err().message.contains("unknown field"));
        // A duplicated field is refused, not first- or last-key-wins.
        let mut j = good.clone();
        if let Json::Obj(fields) = &mut j {
            let stride = fields[1].clone();
            fields.push(stride);
        }
        assert!(HistoryDump::from_json(&j).unwrap_err().message.contains("duplicate field"));
        let mut j = good.clone();
        if let Json::Obj(fields) = &mut j {
            fields[0].1 = Json::U64(99);
        }
        assert!(HistoryDump::from_json(&j).unwrap_err().message.contains("schema"));
        // Out-of-order samples are rejected.
        let bad = "{\"schema\":1,\"stride\":4,\"capacity\":8,\"series\":[{\"name\":\"c\",\
                   \"labels\":[],\"kind\":\"counter\",\"samples\":[[8,1],[4,2]]}]}";
        let parsed = Json::parse(bad).unwrap();
        assert!(HistoryDump::from_json(&parsed)
            .unwrap_err()
            .message
            .contains("increasing tick order"));
    }
}
