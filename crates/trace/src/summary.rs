//! The merged trace summary: rows, digests, the JSONL wire format and the
//! human-readable per-phase breakdown.

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

impl RunInfo {
    fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6
    }
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
    /// workloads; the determinism tests diff exactly this.
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
            ("wall_ms", Json::F64(info.wall_ms())),
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

    /// Renders the human-readable per-phase breakdown: one row per span
    /// path (indented by depth), with call counts, total/self time, the
    /// share of `wall_ns` each phase's total covers, and per-phase cache
    /// hit rates where both cache counters were recorded. Gauges print
    /// underneath.
    pub fn phase_table(&self, info: &RunInfo) -> String {
        let wall_ns = info.wall_ns.max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "per-phase breakdown — {} (seed {}, jobs {}, wall {:.1} ms)",
            info.experiment,
            info.seed,
            info.jobs,
            info.wall_ms()
        );
        let header = ["phase", "calls", "total ms", "self ms", "% wall", "cache"];
        let mut rows: Vec<Vec<String>> = Vec::new();
        for r in &self.spans {
            let name = match r.path.rfind(crate::PATH_SEP) {
                Some(i) => &r.path[i + 1..],
                None => r.path.as_str(),
            };
            let hit_rate = match (
                self.counter(&r.path, "cache_hits"),
                self.counter(&r.path, "cache_misses"),
            ) {
                (Some(h), Some(m)) if h + m > 0 => {
                    format!("{:.0}% hit", 100.0 * h as f64 / (h + m) as f64)
                }
                (Some(h), None) if h > 0 => format!("{h} hit"),
                (None, Some(m)) if m > 0 => format!("{m} miss"),
                _ => String::new(),
            };
            rows.push(vec![
                format!("{}{}", "  ".repeat(r.depth), name),
                r.calls.to_string(),
                format!("{:.2}", r.total_ns as f64 / 1e6),
                format!("{:.2}", r.self_ns as f64 / 1e6),
                format!("{:.1}", 100.0 * r.total_ns as f64 / wall_ns as f64),
                hit_rate,
            ]);
        }
        out.push_str(&render_aligned(&header, &rows));
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for g in &self.gauges {
                let _ = writeln!(out, "  {} ({}) = {}", g.name, g.agg.as_str(), g.value);
            }
        }
        let accounted: u64 = self.spans.iter().filter(|r| r.depth == 0).map(|r| r.total_ns).sum();
        let _ = writeln!(
            out,
            "root spans account for {:.1}% of wall time",
            100.0 * accounted as f64 / wall_ns as f64
        );
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

/// Right-aligned text table (the trace crate cannot depend on the bench
/// crate's renderer — the dependency points the other way).
fn render_aligned(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (i, h) in header.iter().enumerate() {
        // The phase column is left-aligned so the indentation tree reads.
        if i == 0 {
            let _ = write!(line, "{:<w$}  ", h, w = widths[i]);
        } else {
            let _ = write!(line, "{:>w$}  ", h, w = widths[i]);
        }
    }
    let _ = writeln!(out, "{}", line.trim_end());
    let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            if i == 0 {
                let _ = write!(line, "{:<w$}  ", cell, w = widths[i]);
            } else {
                let _ = write!(line, "{:>w$}  ", cell, w = widths[i]);
            }
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Summary, RunInfo) {
        let summary = Summary {
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
                name: "cache_hits".into(),
                value: 2,
            }],
            gauges: vec![GaugeRow {
                name: "peak".into(),
                agg: GaugeAgg::Max,
                value: 4,
            }],
        };
        let info = RunInfo {
            experiment: "t".into(),
            seed: 7,
            jobs: 2,
            wall_ns: 10_000_000,
        };
        (summary, info)
    }

    #[test]
    fn phase_table_accounts_wall_time() {
        let (s, info) = sample();
        let t = s.phase_table(&info);
        assert!(t.contains("  synth"), "child rows are indented leaf names: {t}");
        assert!(t.contains("100.0"), "root must cover the wall: {t}");
        assert!(t.contains("root spans account for 100.0%"), "{t}");
    }

    #[test]
    fn merge_adds_spans_and_counters() {
        let (mut a, _) = sample();
        let (b, _) = sample();
        a.merge(&b);
        assert_eq!(a.span("t").unwrap().calls, 2);
        assert_eq!(a.span("t/synth").unwrap().total_ns, 12_000_000);
        assert_eq!(a.counter("t", "cache_hits"), Some(4));
        assert_eq!(a.gauge("peak"), Some(4), "max gauge does not add");
    }
}
