//! The deterministic read side of the registry: sorted snapshots, the
//! Prometheus-style text exposition and the strict JSON wire codec.

use crate::{MetricClass, MetricKind, SCHEMA_VERSION};
use hwm_jsonio::{FieldError, Json, StrictObj};
use std::fmt::Write as _;

/// A frozen histogram: per-bucket counts plus totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper-inclusive bucket bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// One count per bound, plus the trailing overflow bucket
    /// (`counts.len() == bounds.len() + 1`).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Per-bucket exemplar trace ids (one slot per count, including the
    /// overflow bucket): the trace id of the *last* observation to land
    /// in each bucket, when the observer attached one. Deterministic
    /// for a serialized request sequence; all-`None` when the family is
    /// not traced.
    pub exemplars: Vec<Option<u64>>,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile (`q` in 0..=100) over the bucket counts:
    /// returns the upper bound of the bucket holding the rank-th
    /// observation. Ranks landing in the overflow bucket saturate to the
    /// last finite bound; an empty histogram reports 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bounds.get(i).copied().unwrap_or_else(|| {
                    self.bounds.last().copied().unwrap_or(0)
                });
            }
        }
        self.bounds.last().copied().unwrap_or(0)
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Whether any bucket carries an exemplar trace id.
    pub fn has_exemplars(&self) -> bool {
        self.exemplars.iter().any(Option::is_some)
    }
}

/// One labelled series of a family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Series {
    /// Label pairs in sorted order (the registry sorts on snapshot).
    pub labels: Vec<(String, String)>,
    /// The series value.
    pub value: SeriesValue,
}

/// A series value: scalar for counters/gauges, buckets for histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeriesValue {
    /// Counter or gauge reading.
    Int(u64),
    /// Histogram buckets.
    Hist(HistogramSnapshot),
}

/// All series of one metric name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Family {
    /// Metric name (e.g. `service_requests_total`).
    pub name: String,
    /// Counter / gauge / histogram.
    pub kind: MetricKind,
    /// Determinism class of the family's values.
    pub class: MetricClass,
    /// Series sorted by label set.
    pub series: Vec<Series>,
}

/// A deterministic, sorted snapshot of a [`crate::MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Families sorted by name.
    pub families: Vec<Family>,
}

/// A malformed snapshot on the wire.
pub type SnapshotError = FieldError;

/// Groups an iterator of sorted `(name, labels, class, (kind, value))`
/// rows into families. Crate-internal: the registry produces the rows.
pub(crate) fn build(
    rows: impl Iterator<Item = (String, Vec<(String, String)>, MetricClass, (MetricKind, SeriesValue))>,
) -> Snapshot {
    let mut families: Vec<Family> = Vec::new();
    for (name, labels, class, (kind, value)) in rows {
        match families.last_mut() {
            Some(f) if f.name == name => {
                debug_assert_eq!(f.kind, kind, "family {name:?} mixes kinds");
                f.series.push(Series { labels, value });
            }
            _ => families.push(Family {
                name,
                kind,
                class,
                series: vec![Series { labels, value }],
            }),
        }
    }
    Snapshot { families }
}

fn match_labels(series: &Series, labels: &[(&str, &str)]) -> bool {
    series.labels.len() == labels.len()
        && series
            .labels
            .iter()
            .zip(labels.iter())
            .all(|((k, v), (lk, lv))| k == lk && v == lv)
}

impl Snapshot {
    /// Looks up a family by name.
    pub fn family(&self, name: &str) -> Option<&Family> {
        self.families.iter().find(|f| f.name == name)
    }

    fn scalar(&self, name: &str, labels: &[(&str, &str)], kind: MetricKind) -> Option<u64> {
        let f = self.family(name).filter(|f| f.kind == kind)?;
        f.series.iter().find(|s| match_labels(s, labels)).and_then(|s| match &s.value {
            SeriesValue::Int(v) => Some(*v),
            SeriesValue::Hist(_) => None,
        })
    }

    /// A counter reading (exact label match, order-sensitive — label sets
    /// are sorted, so sort the query the same way).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.scalar(name, labels, MetricKind::Counter)
    }

    /// Sum of a counter family over every label set.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.family(name)
            .filter(|f| f.kind == MetricKind::Counter)
            .map(|f| {
                f.series
                    .iter()
                    .map(|s| match &s.value {
                        SeriesValue::Int(v) => *v,
                        SeriesValue::Hist(_) => 0,
                    })
                    .sum()
            })
            .unwrap_or(0)
    }

    /// A gauge reading.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.scalar(name, labels, MetricKind::Gauge)
    }

    /// A histogram series.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        let f = self.family(name).filter(|f| f.kind == MetricKind::Histogram)?;
        f.series.iter().find(|s| match_labels(s, labels)).and_then(|s| match &s.value {
            SeriesValue::Int(_) => None,
            SeriesValue::Hist(h) => Some(h),
        })
    }

    /// The snapshot restricted to [`MetricClass::Det`] families — the
    /// byte-identical-for-any-`--jobs` view the determinism tests and
    /// `hwm_monitor --json` consume.
    pub fn deterministic(&self) -> Snapshot {
        Snapshot {
            families: self
                .families
                .iter()
                .filter(|f| f.class == MetricClass::Det)
                .cloned()
                .collect(),
        }
    }

    /// Renders the Prometheus-style text exposition. Deterministic by
    /// construction: families sorted by name, series by label set, each
    /// family preceded by `# HELP`, `# TYPE` and `# CLASS` comment
    /// lines. Histogram series emit cumulative `le`-labelled buckets,
    /// nearest-rank `quantile`-labelled percentiles derived from those
    /// buckets, then `_sum` and `_count` — scrapers can re-derive any
    /// percentile from the raw buckets and cross-check against ours.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# SCHEMA {SCHEMA_VERSION}");
        for f in &self.families {
            let _ = writeln!(out, "# HELP {} {}", f.name, help_text(&f.name));
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.as_str());
            let _ = writeln!(out, "# CLASS {} {}", f.name, f.class.as_str());
            for s in &f.series {
                match &s.value {
                    SeriesValue::Int(v) => {
                        let _ = writeln!(out, "{}{} {v}", f.name, render_labels(&s.labels, None));
                    }
                    SeriesValue::Hist(h) => {
                        let mut cumulative = 0u64;
                        for (i, c) in h.counts.iter().enumerate() {
                            cumulative += c;
                            let le = match h.bounds.get(i) {
                                Some(b) => b.to_string(),
                                None => "+Inf".to_string(),
                            };
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {cumulative}",
                                f.name,
                                render_labels(&s.labels, Some(("le", &le)))
                            );
                        }
                        for (q, label) in [(50.0, "0.5"), (90.0, "0.9"), (99.0, "0.99")] {
                            let _ = writeln!(
                                out,
                                "{}{} {}",
                                f.name,
                                render_labels(&s.labels, Some(("quantile", label))),
                                h.quantile(q)
                            );
                        }
                        let _ = writeln!(out, "{}_sum{} {}", f.name, render_labels(&s.labels, None), h.sum);
                        let _ = writeln!(out, "{}_count{} {}", f.name, render_labels(&s.labels, None), h.count);
                        // Exemplar lines are emitted only when an
                        // observer attached trace ids, so untraced
                        // expositions are byte-for-byte unchanged.
                        for (i, ex) in h.exemplars.iter().enumerate() {
                            if let Some(trace_id) = ex {
                                let le = match h.bounds.get(i) {
                                    Some(b) => b.to_string(),
                                    None => "+Inf".to_string(),
                                };
                                let _ = writeln!(
                                    out,
                                    "# EXEMPLAR {}_bucket{} trace={trace_id:016x}",
                                    f.name,
                                    render_labels(&s.labels, Some(("le", &le)))
                                );
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Serializes the snapshot to its strict JSON wire form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::U64(SCHEMA_VERSION)),
            (
                "families",
                Json::Arr(
                    self.families
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("name", Json::Str(f.name.clone())),
                                ("kind", Json::Str(f.kind.as_str().into())),
                                ("class", Json::Str(f.class.as_str().into())),
                                (
                                    "series",
                                    Json::Arr(f.series.iter().map(series_to_json).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the strict JSON wire form back: unknown, missing,
    /// ill-typed and duplicated fields are all rejected.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] naming the offending field.
    pub fn from_json(j: &Json) -> Result<Snapshot, SnapshotError> {
        let mut f = StrictObj::new(j, "snapshot")?;
        let schema: u64 = f.uint("schema")?;
        if schema != SCHEMA_VERSION {
            return Err(SnapshotError::new(format!(
                "unsupported snapshot schema {schema} (expected {SCHEMA_VERSION})"
            )));
        }
        let families = f
            .arr("families")?
            .iter()
            .map(family_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        f.finish()?;
        Ok(Snapshot { families })
    }
}

fn series_to_json(s: &Series) -> Json {
    let labels = Json::Arr(
        s.labels
            .iter()
            .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), Json::Str(v.clone())]))
            .collect(),
    );
    match &s.value {
        SeriesValue::Int(v) => Json::obj(vec![("labels", labels), ("value", Json::U64(*v))]),
        SeriesValue::Hist(h) => {
            let mut fields = vec![
                ("labels", labels),
                ("bounds", Json::Arr(h.bounds.iter().map(|&b| Json::U64(b)).collect())),
                ("counts", Json::Arr(h.counts.iter().map(|&c| Json::U64(c)).collect())),
                ("count", Json::U64(h.count)),
                ("sum", Json::U64(h.sum)),
            ];
            // Written only when present, so untraced snapshots keep
            // their exact wire bytes (and old readers keep parsing).
            if h.has_exemplars() {
                fields.push((
                    "exemplars",
                    Json::Arr(
                        h.exemplars
                            .iter()
                            .map(|ex| match ex {
                                Some(id) => Json::U64(*id),
                                None => Json::Null,
                            })
                            .collect(),
                    ),
                ));
            }
            Json::obj(fields)
        }
    }
}

/// Parses a `[[key, value], ...]` label list (shared with the history
/// dump and the alert rules).
pub(crate) fn labels_from_json(j: &Json) -> Result<Vec<(String, String)>, FieldError> {
    j.as_arr()
        .ok_or_else(|| FieldError::new("field \"labels\" must be an array"))?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| FieldError::new("each label must be a [key, value] pair"))?;
            match (pair[0].as_str(), pair[1].as_str()) {
                (Some(k), Some(v)) => Ok((k.to_string(), v.to_string())),
                _ => Err(FieldError::new("label keys and values must be strings")),
            }
        })
        .collect()
}

fn family_from_json(j: &Json) -> Result<Family, SnapshotError> {
    let mut f = StrictObj::new(j, "family")?;
    let name = f.string("name")?;
    let kind = f.string("kind")?;
    let kind = MetricKind::parse(&kind)
        .ok_or_else(|| SnapshotError::new(format!("family {name:?} has unknown kind {kind:?}")))?;
    let class = f.string("class")?;
    let class = MetricClass::parse(&class).ok_or_else(|| {
        SnapshotError::new(format!("family {name:?} has unknown class {class:?}"))
    })?;
    let series = f
        .arr("series")?
        .iter()
        .map(|sj| series_from_json(sj, &name, kind))
        .collect::<Result<Vec<_>, _>>()?;
    f.finish()?;
    Ok(Family {
        name,
        kind,
        class,
        series,
    })
}

fn series_from_json(j: &Json, family: &str, kind: MetricKind) -> Result<Series, SnapshotError> {
    let what = format!("series of {family:?}");
    let mut f = StrictObj::new(j, &what)?;
    let labels = labels_from_json(f.field("labels")?)?;
    let fail = |why: &str| SnapshotError::new(format!("{what}: {why}"));
    let value = match kind {
        MetricKind::Counter | MetricKind::Gauge => SeriesValue::Int(f.uint("value")?),
        MetricKind::Histogram => {
            let bounds = f.u64_arr("bounds")?;
            let counts = f.u64_arr("counts")?;
            // Optional: absent means "no observation carried a trace
            // id" — old snapshots parse unchanged.
            let exemplars = match f.opt("exemplars")? {
                Some(j) => j
                    .as_arr()
                    .ok_or_else(|| f.ill_typed("exemplars", "an array"))?
                    .iter()
                    .map(|e| match e {
                        Json::Null => Ok(None),
                        other => other
                            .as_u64()
                            .map(Some)
                            .ok_or_else(|| fail("exemplars must be null or unsigned integers")),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                None => vec![None; counts.len()],
            };
            let h = HistogramSnapshot {
                bounds,
                counts,
                count: f.uint("count")?,
                sum: f.uint("sum")?,
                exemplars,
            };
            if h.counts.len() != h.bounds.len() + 1 {
                return Err(fail("counts must have one entry per bound plus overflow"));
            }
            if h.counts.iter().sum::<u64>() != h.count {
                return Err(fail("bucket counts must sum to \"count\""));
            }
            if h.exemplars.len() != h.counts.len() {
                return Err(fail("exemplars must have one slot per bucket"));
            }
            SeriesValue::Hist(h)
        }
    };
    f.finish()?;
    Ok(Series { labels, value })
}

/// The `# HELP` text for a known workspace family; a fixed fallback
/// otherwise. Kept free of the substring "timing" so determinism tests
/// can grep the det-only exposition for leaked timing-class families.
fn help_text(name: &str) -> &'static str {
    match name {
        "service_requests_total" => "Requests handled, labelled by operation and outcome.",
        "service_handler_ns" => "Wall-clock handler latency in nanoseconds, by operation.",
        "service_clock_ticks" => "The server's logical clock: one tick per non-admin request.",
        "service_alerts_total" => "Alert rule transitions, labelled by rule and state.",
        "service_wrong_readouts_total" => {
            "Unlock attempts whose readout matched no registered IC."
        }
        "registry_ics" => "Fleet ICs by lifecycle state (registered / unlocked / disabled).",
        "registry_duplicates" => "Duplicate readout reports observed — clone evidence.",
        "throttle_lockouts_total" => "Exponential lockouts imposed by the rate limiter.",
        "audit_events_total" => "Audit stream events recorded, labelled by kind.",
        "journal_recoveries_total" => "Journal replays performed at startup.",
        "journal_compactions_total" => "Snapshot compactions of the write-ahead journal.",
        "journal_events_total" => "Events appended to the write-ahead journal.",
        "journal_replayed_events" => "Journal events replayed by the last recovery.",
        "journal_snapshot_events" => "Events folded into the snapshot by the last compaction.",
        "journal_torn_tail_bytes" => "Bytes discarded as a torn tail by the last recovery.",
        "journal_append_ns" => "Wall-clock journal append latency in nanoseconds.",
        "journal_replay_ns" => "Wall-clock journal replay duration in nanoseconds.",
        "journal_group_commit_flushes" => {
            "Group-commit durability barriers (flush plus fdatasync) issued by the journal."
        }
        "journal_group_commit_pending" => {
            "Journal events appended since the last group-commit barrier."
        }
        "cluster_requests_total" => "Requests routed to each shard by the cluster router.",
        "cluster_replication_lag" => {
            "Leader journal entries not yet acknowledged by the slowest follower, per shard."
        }
        "cluster_failovers_total" => "Leader failovers performed by the cluster router.",
        "service_request_units" => {
            "Deterministic span units per traced request (journal, audit and span work), with exemplar trace ids."
        }
        "cluster_request_units" => {
            "Deterministic span-tree size per traced routed request, with exemplar trace ids."
        }
        _ => "No help registered for this metric.",
    }
}

/// Renders a label set (plus one optional extra label such as a
/// histogram's `le` or `quantile`) in Prometheus syntax, escaping `\`,
/// `"` and newlines in values.
fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsRegistry, LATENCY_BUCKETS_NS};

    fn sample() -> Snapshot {
        let m = MetricsRegistry::default();
        m.inc("requests_total", &[("op", "unlock"), ("outcome", "key")], 7);
        m.inc("requests_total", &[("op", "register"), ("outcome", "ok")], 3);
        m.set_gauge("clock_ticks", &[], MetricClass::Det, 42);
        m.observe("handler_ns", &[("op", "unlock")], MetricClass::Timing, LATENCY_BUCKETS_NS, 1_500);
        m.observe("handler_ns", &[("op", "unlock")], MetricClass::Timing, LATENCY_BUCKETS_NS, 3_000_000);
        m.snapshot()
    }

    #[test]
    fn exposition_is_sorted_and_stable() {
        let text = sample().to_prometheus();
        let expected = "\
# SCHEMA 1
# HELP clock_ticks No help registered for this metric.
# TYPE clock_ticks gauge
# CLASS clock_ticks det
clock_ticks 42
# HELP handler_ns No help registered for this metric.
# TYPE handler_ns histogram
# CLASS handler_ns timing
handler_ns_bucket{op=\"unlock\",le=\"1000\"} 0
handler_ns_bucket{op=\"unlock\",le=\"2000\"} 1
handler_ns_bucket{op=\"unlock\",le=\"5000\"} 1
handler_ns_bucket{op=\"unlock\",le=\"10000\"} 1
handler_ns_bucket{op=\"unlock\",le=\"20000\"} 1
handler_ns_bucket{op=\"unlock\",le=\"50000\"} 1
handler_ns_bucket{op=\"unlock\",le=\"100000\"} 1
handler_ns_bucket{op=\"unlock\",le=\"200000\"} 1
handler_ns_bucket{op=\"unlock\",le=\"500000\"} 1
handler_ns_bucket{op=\"unlock\",le=\"1000000\"} 1
handler_ns_bucket{op=\"unlock\",le=\"2000000\"} 1
handler_ns_bucket{op=\"unlock\",le=\"5000000\"} 2
handler_ns_bucket{op=\"unlock\",le=\"10000000\"} 2
handler_ns_bucket{op=\"unlock\",le=\"50000000\"} 2
handler_ns_bucket{op=\"unlock\",le=\"100000000\"} 2
handler_ns_bucket{op=\"unlock\",le=\"1000000000\"} 2
handler_ns_bucket{op=\"unlock\",le=\"+Inf\"} 2
handler_ns{op=\"unlock\",quantile=\"0.5\"} 2000
handler_ns{op=\"unlock\",quantile=\"0.9\"} 5000000
handler_ns{op=\"unlock\",quantile=\"0.99\"} 5000000
handler_ns_sum{op=\"unlock\"} 3001500
handler_ns_count{op=\"unlock\"} 2
# HELP requests_total No help registered for this metric.
# TYPE requests_total counter
# CLASS requests_total det
requests_total{op=\"register\",outcome=\"ok\"} 3
requests_total{op=\"unlock\",outcome=\"key\"} 7
";
        assert_eq!(text, expected);
    }

    #[test]
    fn known_families_carry_real_help() {
        let m = MetricsRegistry::default();
        m.inc("service_requests_total", &[("op", "unlock"), ("outcome", "key")], 1);
        let text = m.snapshot().to_prometheus();
        assert!(
            text.contains("# HELP service_requests_total Requests handled"),
            "{text}"
        );
        // Help text never contains the substring "timing": the det-only
        // exposition greps for it to detect leaked timing families.
        for name in [
            "service_requests_total",
            "service_handler_ns",
            "service_clock_ticks",
            "service_alerts_total",
            "service_wrong_readouts_total",
            "registry_ics",
            "registry_duplicates",
            "throttle_lockouts_total",
            "audit_events_total",
            "journal_recoveries_total",
            "journal_compactions_total",
            "journal_append_ns",
            "journal_replay_ns",
            "anything_else",
        ] {
            assert!(!help_text(name).contains("timing"), "{name}");
        }
        // The cluster and tracing families are registered, never the
        // fallback stub — the monitor's exposition test asserts the
        // same over a real cluster snapshot.
        for name in [
            "journal_group_commit_flushes",
            "journal_group_commit_pending",
            "cluster_requests_total",
            "cluster_replication_lag",
            "cluster_failovers_total",
            "cluster_request_units",
            "service_request_units",
        ] {
            assert!(!help_text(name).contains("No help registered"), "{name}");
            assert!(!help_text(name).contains("timing"), "{name}");
        }
    }

    #[test]
    fn deterministic_filter_drops_timing_families() {
        let s = sample();
        let det = s.deterministic();
        assert!(det.family("handler_ns").is_none());
        assert!(det.family("requests_total").is_some());
        assert!(det.family("clock_ticks").is_some());
        assert!(!det.to_prometheus().contains("timing"));
    }

    #[test]
    fn json_round_trips() {
        let s = sample();
        let j = s.to_json();
        assert_eq!(Snapshot::from_json(&j).expect("parses"), s);
        // Through text, too — what actually crosses the wire.
        let reparsed = Json::parse(&j.to_string()).unwrap();
        assert_eq!(Snapshot::from_json(&reparsed).unwrap(), s);
    }

    #[test]
    fn strict_parse_rejects_tampering() {
        let good = sample().to_json();
        // Unknown top-level field.
        let mut j = good.clone();
        if let Json::Obj(fields) = &mut j {
            fields.push(("extra".into(), Json::U64(1)));
        }
        assert!(Snapshot::from_json(&j).unwrap_err().message.contains("unknown field"));
        // Duplicated top-level field: neither copy wins.
        let mut j = good.clone();
        if let Json::Obj(fields) = &mut j {
            let families = fields[1].clone();
            fields.push(families);
        }
        assert!(Snapshot::from_json(&j).unwrap_err().message.contains("duplicate field"));
        // Wrong schema version.
        let mut j = good.clone();
        if let Json::Obj(fields) = &mut j {
            fields[0].1 = Json::U64(99);
        }
        assert!(Snapshot::from_json(&j).unwrap_err().message.contains("schema"));
        // Histogram counts that do not sum to count.
        let m = MetricsRegistry::default();
        m.observe("h", &[], MetricClass::Det, &[10], 5);
        let mut j = m.snapshot().to_json();
        if let Some(Json::Arr(families)) = j.get("families").cloned() {
            if let Json::Obj(mut ff) = families[0].clone() {
                for (k, v) in &mut ff {
                    if k == "series" {
                        if let Json::Arr(series) = v {
                            if let Json::Obj(sf) = &mut series[0] {
                                for (sk, sv) in sf.iter_mut() {
                                    if sk == "count" {
                                        *sv = Json::U64(99);
                                    }
                                }
                            }
                        }
                    }
                }
                j = Json::obj(vec![
                    ("schema", Json::U64(SCHEMA_VERSION)),
                    ("families", Json::Arr(vec![Json::Obj(ff)])),
                ]);
            }
        }
        assert!(Snapshot::from_json(&j).unwrap_err().message.contains("sum to"));
    }

    #[test]
    fn exemplars_round_trip_and_only_render_when_present() {
        let m = MetricsRegistry::default();
        static BOUNDS: &[u64] = &[2, 8];
        m.observe_exemplar("units", &[], MetricClass::Det, BOUNDS, 1, 0xabcd);
        m.observe_exemplar("units", &[], MetricClass::Det, BOUNDS, 1, 0xbeef);
        m.observe("units", &[], MetricClass::Det, BOUNDS, 100);
        let s = m.snapshot();
        let h = s.histogram("units", &[]).unwrap();
        assert_eq!(h.exemplars, vec![Some(0xbeef), None, None], "last trace wins per bucket");
        let text = s.to_prometheus();
        assert!(
            text.contains("# EXEMPLAR units_bucket{le=\"2\"} trace=000000000000beef"),
            "{text}"
        );
        assert!(!text.contains("le=\"8\"} trace="), "untraced buckets emit no exemplar line");
        assert_eq!(Snapshot::from_json(&s.to_json()).unwrap(), s);

        // An untraced histogram keeps its exact wire form: no
        // "exemplars" field, no "# EXEMPLAR" line.
        let plain = sample();
        assert!(!plain.to_json().to_string().contains("exemplars"));
        assert!(!plain.to_prometheus().contains("EXEMPLAR"));

        // Tamper: an exemplars array of the wrong length is refused.
        let mut j = s.to_json();
        if let Json::Obj(fields) = &mut j {
            for (k, v) in fields.iter_mut() {
                if k != "families" {
                    continue;
                }
                if let Json::Arr(fams) = v {
                    if let Json::Obj(ff) = &mut fams[0] {
                        for (fk, fv) in ff.iter_mut() {
                            if fk != "series" {
                                continue;
                            }
                            if let Json::Arr(series) = fv {
                                if let Json::Obj(sf) = &mut series[0] {
                                    for (sk, sv) in sf.iter_mut() {
                                        if sk == "exemplars" {
                                            *sv = Json::Arr(vec![Json::U64(1)]);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        let err = Snapshot::from_json(&j).unwrap_err();
        assert!(err.message.contains("one slot per bucket"), "{}", err.message);
    }

    #[test]
    fn label_values_are_escaped() {
        let m = MetricsRegistry::default();
        m.inc("c", &[("who", "a\"b\\c")], 1);
        let text = m.snapshot().to_prometheus();
        assert!(text.contains(r#"c{who="a\"b\\c"} 1"#), "{text}");
    }

    #[test]
    fn quantiles_cover_edges() {
        let h = HistogramSnapshot {
            bounds: vec![10, 20, 30],
            counts: vec![5, 3, 1, 1],
            count: 10,
            sum: 200,
            exemplars: vec![None; 4],
        };
        assert_eq!(h.quantile(1.0), 10);
        assert_eq!(h.quantile(50.0), 10);
        assert_eq!(h.quantile(80.0), 20);
        assert_eq!(h.quantile(90.0), 30);
        assert_eq!(h.quantile(100.0), 30, "overflow rank saturates to the last bound");
        assert_eq!(h.mean(), 20);
        let empty = HistogramSnapshot {
            bounds: vec![10],
            counts: vec![0, 0],
            count: 0,
            sum: 0,
            exemplars: vec![None; 2],
        };
        assert_eq!(empty.quantile(50.0), 0);
        assert_eq!(empty.mean(), 0);
    }
}
