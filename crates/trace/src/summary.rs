//! The merged trace summary: rows, digests and the JSONL wire format.

use hwm_jsonio::Json;
use std::fmt::Write as _;

/// How a gauge merges across records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GaugeAgg {
    /// Values are summed.
    Sum,
    /// The maximum value wins.
    Max,
}

impl GaugeAgg {
    /// Wire name of the aggregation (`"sum"` / `"max"`).
    pub fn as_str(self) -> &'static str {
        match self {
            GaugeAgg::Sum => "sum",
            GaugeAgg::Max => "max",
        }
    }

    /// Parses a wire name back into the aggregation.
    pub fn parse(s: &str) -> Option<GaugeAgg> {
        match s {
            "sum" => Some(GaugeAgg::Sum),
            "max" => Some(GaugeAgg::Max),
            _ => None,
        }
    }
}

/// One span path's aggregated statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// `/`-joined path, e.g. `table1/synth.flow/synth.minimize`.
    pub path: String,
    /// Nesting depth (0 for a root span).
    pub depth: usize,
    /// Number of times a span at this path closed.
    pub calls: u64,
    /// Wall nanoseconds including children.
    pub total_ns: u64,
    /// Wall nanoseconds excluding child spans.
    pub self_ns: u64,
}

/// One (path, counter) total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRow {
    /// Span path the counter was recorded under.
    pub path: String,
    /// Counter name.
    pub name: String,
    /// Deterministic total.
    pub value: u64,
}

/// One gauge value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeRow {
    /// Gauge name.
    pub name: String,
    /// Aggregation used.
    pub agg: GaugeAgg,
    /// Aggregated value (scheduling-dependent; excluded from determinism).
    pub value: u64,
}

/// Identity of one benchmark run: the JSONL trace's `run` header and the
/// heading of the per-phase breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunInfo {
    /// Experiment name (the binary name, e.g. `"table1"`).
    pub experiment: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Worker threads used.
    pub jobs: u64,
    /// Wall-clock nanoseconds of the experiment.
    pub wall_ns: u64,
}

/// A deterministic, sorted snapshot of everything a run recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// Span rows sorted by path.
    pub spans: Vec<SpanRow>,
    /// Counter rows sorted by (path, name).
    pub counters: Vec<CounterRow>,
    /// Gauge rows sorted by name.
    pub gauges: Vec<GaugeRow>,
}

impl Summary {
    /// Looks up a span row by its exact path.
    pub fn span(&self, path: &str) -> Option<&SpanRow> {
        self.spans.iter().find(|r| r.path == path)
    }

    /// Looks up a counter total by (path, name).
    pub fn counter(&self, path: &str, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|r| r.path == path && r.name == name)
            .map(|r| r.value)
    }

    /// Sums a counter over every path it was recorded under.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.iter().filter(|r| r.name == name).map(|r| r.value).sum()
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|r| r.name == name).map(|r| r.value)
    }

    /// The scheduling-independent part of the summary as canonical text:
    /// span paths with call counts plus counter totals — no timings, no
    /// gauges. Byte-identical across `--jobs` values for deterministic
    /// workloads.
    ///
    /// Test oracle: `hwm-bench`'s `tests/trace.rs` test
    /// `span_tree_and_counters_identical_across_jobs` compares runs at
    /// different `--jobs` through it.
    pub fn structural_digest(&self) -> String {
        let mut out = String::new();
        for r in &self.spans {
            let _ = writeln!(out, "span {} calls={}", r.path, r.calls);
        }
        for c in &self.counters {
            let _ = writeln!(out, "counter {} {}={}", c.path, c.name, c.value);
        }
        out
    }

    /// Serializes the run as JSON Lines: one `run` header line, then one
    /// line per span / counter / gauge row, in the summary's deterministic
    /// order. Parse it back with [`crate::parse_jsonl`].
    pub fn to_jsonl(&self, info: &RunInfo) -> String {
        let mut out = String::new();
        let header = Json::obj(vec![
            ("type", Json::Str("run".into())),
            ("schema", Json::U64(crate::SCHEMA_VERSION)),
            ("experiment", Json::Str(info.experiment.clone())),
            ("seed", Json::U64(info.seed)),
            ("jobs", Json::U64(info.jobs)),
            ("wall_ms", Json::F64(info.wall_ns as f64 / 1e6)),
        ]);
        let _ = writeln!(out, "{header}");
        for r in &self.spans {
            let line = Json::obj(vec![
                ("type", Json::Str("span".into())),
                ("path", Json::Str(r.path.clone())),
                ("calls", Json::U64(r.calls)),
                ("total_ms", Json::F64(r.total_ns as f64 / 1e6)),
                ("self_ms", Json::F64(r.self_ns as f64 / 1e6)),
            ]);
            let _ = writeln!(out, "{line}");
        }
        for c in &self.counters {
            let line = Json::obj(vec![
                ("type", Json::Str("counter".into())),
                ("path", Json::Str(c.path.clone())),
                ("name", Json::Str(c.name.clone())),
                ("value", Json::U64(c.value)),
            ]);
            let _ = writeln!(out, "{line}");
        }
        for g in &self.gauges {
            let line = Json::obj(vec![
                ("type", Json::Str("gauge".into())),
                ("name", Json::Str(g.name.clone())),
                ("agg", Json::Str(g.agg.as_str().into())),
                ("value", Json::U64(g.value)),
            ]);
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Merges another summary into this one (used by the `profile` binary
    /// to combine traces from several runs): spans and counters add, gauges
    /// combine by their aggregation kind.
    pub fn merge(&mut self, other: &Summary) {
        for r in &other.spans {
            match self.spans.iter_mut().find(|s| s.path == r.path) {
                Some(s) => {
                    s.calls += r.calls;
                    s.total_ns += r.total_ns;
                    s.self_ns += r.self_ns;
                }
                None => self.spans.push(r.clone()),
            }
        }
        self.spans.sort_by(|a, b| a.path.cmp(&b.path));
        for c in &other.counters {
            match self
                .counters
                .iter_mut()
                .find(|x| x.path == c.path && x.name == c.name)
            {
                Some(x) => x.value += c.value,
                None => self.counters.push(c.clone()),
            }
        }
        self.counters.sort_by(|a, b| (&a.path, &a.name).cmp(&(&b.path, &b.name)));
        for g in &other.gauges {
            match self.gauges.iter_mut().find(|x| x.name == g.name && x.agg == g.agg) {
                Some(x) => match g.agg {
                    GaugeAgg::Sum => x.value += g.value,
                    GaugeAgg::Max => x.value = x.value.max(g.value),
                },
                None => self.gauges.push(g.clone()),
            }
        }
        self.gauges.sort_by(|a, b| (&a.name, a.agg.as_str()).cmp(&(&b.name, b.agg.as_str())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Summary {
        Summary {
            spans: vec![
                SpanRow {
                    path: "t".into(),
                    depth: 0,
                    calls: 1,
                    total_ns: 10_000_000,
                    self_ns: 4_000_000,
                },
                SpanRow {
                    path: "t/synth".into(),
                    depth: 1,
                    calls: 3,
                    total_ns: 6_000_000,
                    self_ns: 6_000_000,
                },
            ],
            counters: vec![CounterRow {
                path: "t".into(),
                name: "items".into(),
                value: 2,
            }],
            gauges: vec![GaugeRow {
                name: "peak".into(),
                agg: GaugeAgg::Max,
                value: 4,
            }],
        }
    }

    #[test]
    fn merge_adds_spans_and_counters() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.span("t").unwrap().calls, 2);
        assert_eq!(a.span("t/synth").unwrap().total_ns, 12_000_000);
        assert_eq!(a.counter("t", "items"), Some(4));
        assert_eq!(a.gauge("peak"), Some(4), "max gauge does not add");
    }
}
