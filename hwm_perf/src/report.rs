//! Metric definitions, per-workload results, and every output: the
//! human-readable tables, the `--json` report, the baseline check and the
//! one-line JSON result that ends standard output.

use crate::stats::Spread;
use hwm_jsonio::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One workload the benchmark runs.
pub struct WorkloadDef {
    /// Name as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line, as in BENCHMARK.json).
    pub why: &'static str,
}

/// The workloads, in run order.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "table3_15ff",
        why: "Table 3 row 15 (5 modules, b=3..8, 4x25 attacks per cell): lock construction and guess stepping, no service code",
    },
    WorkloadDef {
        name: "activate_15ff",
        why: "honest fab mix on a 15-FF lock over TCP (2 fabs x 2,000 dies): key computation is over 90% of the handler's time on an unlock",
    },
    WorkloadDef {
        name: "register_18ff",
        why: "40,000 registrations plus status reads: no key computation, so wire, socket, throttle and group-commit journal do the work",
    },
    WorkloadDef {
        name: "cluster_2x1",
        why: "first 20,000 register_18ff requests through a 2-shard x 1-follower cluster over TCP links: routing and replication cost",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as BENCHMARK.json spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
pub struct MetricDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which a gated metric may worsen
    /// before it counts as a regression; `None` for a metric that is
    /// reported but not gated.
    pub bound: Option<f64>,
}

/// The end-to-end metrics, reported on every workload. An operation is
/// one request on the serving workloads and one brute-force attack (one
/// chip guessed until it unlocks or the cap) on `table3_15ff`.
///
/// Only `setup_s` and `throughput` are gated. `run_s` carries the same
/// information as `throughput` (each workload's operations per pass are
/// fixed). The latencies do not repeat well enough to gate: over ten
/// seeds on a shared two-vCPU host, the quartiles of `p50_ms` spanned up
/// to 17% (`activate_15ff`) and 28% (`register_18ff`) of the median, and
/// those of `p99_ms` up to 15%, or 50% with the activation lock at
/// 18 FF. On the serial closed loops every workload runs, a latency
/// regression shows in `throughput` anyway.
pub const END_TO_END: [MetricDef; 5] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Some(0.25),
    },
    MetricDef {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: None,
    },
    MetricDef {
        name: "throughput",
        unit: "op/s",
        better: Better::Higher,
        bound: Some(0.25),
    },
    MetricDef {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: None,
    },
    MetricDef {
        name: "p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: None,
    },
];

/// One per-layer metric: measured by the layer replay of `owner`, whose
/// inputs exercise the layer (every `--trace 1` run replays all owners,
/// so every per-layer metric is reported whatever `--workload` names).
pub struct LayerDef {
    /// Name (`module.quantity_unit`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The workload whose replay measures it.
    pub owner: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    owner: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        owner,
    }
}

/// The per-layer metrics.
pub const PER_LAYER: [LayerDef; 23] = [
    layer("core.designer_new_ms", "ms", Better::Lower, "table3_15ff"),
    layer("core.fabricate_us", "us", Better::Lower, "table3_15ff"),
    layer("core.chip_step_ns", "ns", Better::Lower, "table3_15ff"),
    layer("core.chip_checks_ns", "ns", Better::Lower, "table3_15ff"),
    layer("attacks.input_ns", "ns", Better::Lower, "table3_15ff"),
    layer("attacks.guesses", "count", Better::Lower, "table3_15ff"),
    layer(
        "attacks.unlock_share",
        "fraction",
        Better::Higher,
        "table3_15ff",
    ),
    layer("core.issue_key_us", "us", Better::Lower, "activate_15ff"),
    layer("core.key_len", "count", Better::Lower, "activate_15ff"),
    layer("core.key_table_ms", "ms", Better::Lower, "activate_15ff"),
    layer(
        "core.parse_readout_us",
        "us",
        Better::Lower,
        "register_18ff",
    ),
    layer(
        "service.wire_encode_us",
        "us",
        Better::Lower,
        "register_18ff",
    ),
    layer(
        "service.wire_decode_us",
        "us",
        Better::Lower,
        "register_18ff",
    ),
    layer("service.socket_us", "us", Better::Lower, "register_18ff"),
    layer("service.throttle_ns", "ns", Better::Lower, "register_18ff"),
    layer(
        "service.registry_append_us",
        "us",
        Better::Lower,
        "register_18ff",
    ),
    layer(
        "service.journal_bytes_per_event",
        "B",
        Better::Lower,
        "register_18ff",
    ),
    layer(
        "service.commits_per_1k_events",
        "count",
        Better::Lower,
        "register_18ff",
    ),
    layer("service.handle_us", "us", Better::Lower, "register_18ff"),
    layer(
        "service.instrumentation_us",
        "us",
        Better::Lower,
        "register_18ff",
    ),
    layer("cluster.route_ns", "ns", Better::Lower, "cluster_2x1"),
    layer("cluster.replication_us", "us", Better::Lower, "cluster_2x1"),
    layer("cluster.link_us", "us", Better::Lower, "cluster_2x1"),
];

/// Failure accounting: operations attempted, operations failed, and the
/// first few failure descriptions.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records `n` failed operations.
    pub fn fail(&mut self, n: u64, message: String) {
        self.failed += n;
        if self.messages.len() < 20 {
            self.messages.push(message);
        }
    }

    /// Failed operations over attempted ones.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One row of a workload's layer table.
#[derive(Debug, Clone)]
pub struct LayerRow {
    /// Layer name (a per-layer metric name, or a descriptive one).
    pub name: String,
    /// Nesting: 0 for layers that sum to the end-to-end time, 1 for the
    /// parts of the layer above it (shown, not summed).
    pub depth: usize,
    /// Seconds per call.
    pub per_call_s: f64,
    /// Calls per pass of the untraced workload.
    pub calls: f64,
}

/// Everything one workload produced.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// Per-pass samples of each end-to-end metric.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Latency samples behind each p50/p99 value (of the last pass).
    pub latency_count: usize,
    /// Failure accounting.
    pub checks: Checks,
    /// Extra human-readable lines (checks passed, open-loop lateness...).
    pub notes: Vec<String>,
    /// Operations of each kind in one pass (requests, guesses, ...): the
    /// call counts of the layer table.
    pub ops: Vec<(&'static str, f64)>,
    /// Layer table, when `--layers` ran.
    pub layers: Vec<LayerRow>,
}

impl WorkloadResult {
    /// An empty result for `name`.
    pub fn new(name: &'static str) -> WorkloadResult {
        WorkloadResult {
            name,
            samples: BTreeMap::new(),
            latency_count: 0,
            checks: Checks::default(),
            notes: Vec::new(),
            ops: Vec::new(),
            layers: Vec::new(),
        }
    }

    /// Operations of `kind` per pass (0 when the workload has none).
    pub fn ops(&self, kind: &str) -> f64 {
        self.ops
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0.0, |(_, n)| *n)
    }

    /// Folds another repeat of the same workload into this one.
    pub fn absorb(&mut self, other: WorkloadResult) {
        for (metric, values) in other.samples {
            self.samples.entry(metric).or_default().extend(values);
        }
        self.checks.attempted += other.checks.attempted;
        for m in other.checks.messages {
            self.checks.fail(0, m);
        }
        self.checks.failed += other.checks.failed;
    }

    /// Adds one sample of `metric`.
    pub fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    /// The spread of `metric`'s samples, if it has any.
    pub fn spread(&self, metric: &str) -> Option<Spread> {
        self.samples
            .get(metric)
            .filter(|v| !v.is_empty())
            .map(|v| Spread::of(v))
    }

    /// The end-to-end seconds one pass costs (median setup plus median
    /// run), the denominator of the layer shares.
    pub fn pass_seconds(&self) -> f64 {
        let m = |k| self.spread(k).map_or(0.0, |s| s.median);
        m("setup_s") + m("run_s")
    }
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

fn fmt_seconds(s: f64) -> String {
    let a = s.abs();
    if a >= 1.0 {
        format!("{s:.3} s")
    } else if a >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if a >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

/// The human-readable block for one workload.
pub fn render(result: &WorkloadResult) -> String {
    let mut out = String::new();
    let passes = result.samples.get("run_s").map_or(0, Vec::len);
    let _ = writeln!(out, "== {} ({} measured pass(es))", result.name, passes);
    if let Some(def) = WORKLOADS.iter().find(|w| w.name == result.name) {
        let _ = writeln!(out, "  why: {}", def.why);
    }
    let _ = writeln!(
        out,
        "  {:<11} {:>10} {:<5}  {:>10} {:>10}  {:>10} {:>10}  {:>3}  bound",
        "metric", "median", "unit", "q1", "q3", "min", "max", "n"
    );
    for def in &END_TO_END {
        if let Some(s) = result.spread(def.name) {
            let bound = def
                .bound
                .map_or("not gated".to_string(), |b| format!("{:.0}%", b * 100.0));
            let _ = writeln!(
                out,
                "  {:<11} {:>10} {:<5}  {:>10} {:>10}  {:>10} {:>10}  {:>3}  {bound} ({} is better)",
                def.name,
                fmt_value(s.median),
                def.unit,
                fmt_value(s.q1),
                fmt_value(s.q3),
                fmt_value(s.min),
                fmt_value(s.max),
                s.n,
                def.better.as_str(),
            );
        }
    }
    let _ = writeln!(out, "  {} latency samples per pass", result.latency_count);
    let c = &result.checks;
    let _ = writeln!(
        out,
        "  failed_share {} ({} failed of {} attempted)",
        fmt_value(c.failed_share()),
        c.failed,
        c.attempted
    );
    for note in &result.notes {
        let _ = writeln!(out, "  {note}");
    }
    for m in &c.messages {
        let _ = writeln!(out, "  FAILED: {m}");
    }
    if !result.layers.is_empty() {
        out.push_str(&render_layers(result));
    }
    out
}

fn render_layers(result: &WorkloadResult) -> String {
    let mut out = String::new();
    let e2e = result.pass_seconds();
    let _ = writeln!(
        out,
        "  layers (per pass of {}; self time per call from the layer replay)",
        fmt_seconds(e2e)
    );
    let _ = writeln!(
        out,
        "    {:<34} {:>12} {:>12} {:>12} {:>7}",
        "layer", "calls", "per call", "total", "share"
    );
    let mut summed = 0.0;
    for row in &result.layers {
        let total = row.per_call_s * row.calls;
        if row.depth == 0 {
            summed += total;
        }
        let name = format!("{}{}", "  ".repeat(row.depth), row.name);
        let _ = writeln!(
            out,
            "    {:<34} {:>12} {:>12} {:>12} {:>6.1}%",
            name,
            fmt_value(row.calls),
            fmt_seconds(row.per_call_s),
            fmt_seconds(total),
            100.0 * total / e2e.max(1e-12),
        );
    }
    let residual = e2e - summed;
    let _ = writeln!(
        out,
        "    {:<34} {:>12} {:>12} {:>12} {:>6.1}%",
        "residual (end to end - layers)",
        "",
        "",
        fmt_seconds(residual),
        100.0 * residual / e2e.max(1e-12),
    );
    out
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj(vec![
        ("value", Json::F64(value)),
        ("unit", Json::Str(unit.to_string())),
    ])
}

/// The one-line result that ends standard output: the gated end-to-end
/// medians without `--layers`, per-layer values with it. With more than
/// one workload the metric names carry a `workload/` prefix.
pub fn result_line(
    results: &[WorkloadResult],
    layer_values: &BTreeMap<&'static str, f64>,
    layers: bool,
) -> String {
    let prefixed = results.len() > 1;
    let mut metrics: Vec<(String, Json)> = Vec::new();
    if layers {
        for def in &PER_LAYER {
            if let Some(v) = layer_values.get(def.name) {
                metrics.push((def.name.to_string(), metric_json(*v, def.unit)));
            }
        }
    } else {
        for r in results {
            for def in END_TO_END.iter().filter(|d| d.bound.is_some()) {
                if let Some(s) = r.spread(def.name) {
                    let key = if prefixed {
                        format!("{}/{}", r.name, def.name)
                    } else {
                        def.name.to_string()
                    };
                    metrics.push((key, metric_json(s.median, def.unit)));
                }
            }
        }
    }
    let attempted: u64 = results.iter().map(|r| r.checks.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.checks.failed).sum();
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::U64(attempted.max(1))),
        ("failed", Json::U64(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

/// The `--json` report: every sample of every metric with its spread.
pub fn full_json(
    results: &[WorkloadResult],
    layer_values: &BTreeMap<&'static str, f64>,
    seed: u64,
    seconds: u64,
) -> Json {
    let spread_json = |s: &Spread| {
        Json::obj(vec![
            ("median", Json::F64(s.median)),
            ("q1", Json::F64(s.q1)),
            ("q3", Json::F64(s.q3)),
            ("min", Json::F64(s.min)),
            ("max", Json::F64(s.max)),
            ("n", Json::U64(s.n as u64)),
        ])
    };
    let workloads = results
        .iter()
        .map(|r| {
            let metrics = END_TO_END
                .iter()
                .filter_map(|def| {
                    let s = r.spread(def.name)?;
                    let mut fields = vec![
                        ("unit", Json::Str(def.unit.into())),
                        ("better", Json::Str(def.better.as_str().into())),
                        ("bound", def.bound.map_or(Json::Null, Json::F64)),
                        ("spread", spread_json(&s)),
                    ];
                    fields.push((
                        "samples",
                        Json::Arr(r.samples[def.name].iter().map(|v| Json::F64(*v)).collect()),
                    ));
                    Some((def.name.to_string(), Json::obj(fields)))
                })
                .collect();
            let layers = r
                .layers
                .iter()
                .map(|row| {
                    Json::obj(vec![
                        ("layer", Json::Str(row.name.clone())),
                        ("depth", Json::U64(row.depth as u64)),
                        ("per_call_s", Json::F64(row.per_call_s)),
                        ("calls", Json::F64(row.calls)),
                    ])
                })
                .collect();
            (
                r.name.to_string(),
                Json::obj(vec![
                    ("metrics", Json::Obj(metrics)),
                    (
                        "latency_samples_per_pass",
                        Json::U64(r.latency_count as u64),
                    ),
                    ("attempted", Json::U64(r.checks.attempted)),
                    ("failed", Json::U64(r.checks.failed)),
                    ("failed_share", Json::F64(r.checks.failed_share())),
                    (
                        "failures",
                        Json::Arr(
                            r.checks
                                .messages
                                .iter()
                                .map(|m| Json::Str(m.clone()))
                                .collect(),
                        ),
                    ),
                    (
                        "notes",
                        Json::Arr(r.notes.iter().map(|m| Json::Str(m.clone())).collect()),
                    ),
                    ("layers", Json::Arr(layers)),
                ]),
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .filter_map(|d| {
            layer_values
                .get(d.name)
                .map(|v| (d.name.to_string(), metric_json(*v, d.unit)))
        })
        .collect();
    Json::obj(vec![
        ("seed", Json::U64(seed)),
        ("seconds", Json::U64(seconds)),
        ("workloads", Json::Obj(workloads)),
        ("per_layer", Json::Obj(per_layer)),
    ])
}

/// Compares each workload's gated medians with a baseline (the format of
/// `baseline.json`: `{"workloads": {name: {metric: median}}}`) and returns
/// one line per metric worse than its baseline by more than its bound.
///
/// # Errors
///
/// A message when the baseline does not parse or lacks a measured metric.
pub fn check_baseline(results: &[WorkloadResult], baseline: &str) -> Result<Vec<String>, String> {
    let json = Json::parse(baseline).map_err(|e| format!("baseline is not JSON: {e}"))?;
    let workloads = json
        .get("workloads")
        .ok_or("baseline has no \"workloads\" object")?;
    let mut regressions = Vec::new();
    for r in results {
        let base = workloads
            .get(r.name)
            .ok_or_else(|| format!("baseline has no workload {:?}", r.name))?;
        for def in &END_TO_END {
            let (Some(bound), Some(s)) = (def.bound, r.spread(def.name)) else {
                continue;
            };
            let b = base
                .get(def.name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("baseline has no {}/{}", r.name, def.name))?;
            let worse = match def.better {
                Better::Lower => (s.median - b) / b,
                Better::Higher => (b - s.median) / b,
            };
            if worse > bound {
                regressions.push(format!(
                    "{}/{}: median {} {} is {:.1}% worse than the baseline {} (bound {:.0}%)",
                    r.name,
                    def.name,
                    fmt_value(s.median),
                    def.unit,
                    worse * 100.0,
                    fmt_value(b),
                    bound * 100.0
                ));
            }
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(name: &'static str, median: f64) -> WorkloadResult {
        let mut r = WorkloadResult::new(name);
        for def in &END_TO_END {
            r.sample(def.name, median);
        }
        r.checks.attempted = 10;
        r
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = result_with("register_18ff", 2.0);
        let line = result_line(std::slice::from_ref(&r), &BTreeMap::new(), false);
        let j = Json::parse(&line).expect("result line is JSON");
        let Json::Obj(fields) = &j else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = j.get("metrics").expect("metrics");
        for def in &END_TO_END {
            let m = metrics.get(def.name);
            assert_eq!(
                m.is_some(),
                def.bound.is_some(),
                "{} is on the line iff gated",
                def.name
            );
            if let Some(m) = m {
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
            }
        }
    }

    #[test]
    fn failures_flip_correct_and_count() {
        let mut r = result_with("activate_15ff", 1.0);
        r.checks.fail(3, "tampered response".into());
        let j = Json::parse(&result_line(&[r], &BTreeMap::new(), false)).expect("JSON");
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(j.get("failed").and_then(Json::as_u64), Some(3));
    }

    fn manifest_file(name: &str) -> Json {
        let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn names_units_and_bounds_match_benchmark_json() {
        let j = manifest_file("../BENCHMARK.json");
        let list = |key: &str| j.get(key).and_then(Json::as_arr).expect(key).to_vec();
        let text = |o: &Json, key: &str| o.get(key).and_then(Json::as_str).expect(key).to_string();
        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, want);
        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Json::as_f64).expect("bound"),
                )
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .filter_map(|d| {
                Some((
                    d.name.into(),
                    d.unit.into(),
                    d.better.as_str().into(),
                    d.bound?,
                ))
            })
            .collect();
        assert_eq!(e2e, want);
        let largest = want.iter().map(|m| m.3).fold(0.0, f64::max);
        assert!(
            want.iter().any(|m| m.0 == "setup_s" && m.3 == largest),
            "setup_s has the largest bound"
        );
        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
            .collect();
        assert_eq!(layers, want);
        assert_eq!(list("paths"), vec![Json::Str("hwm_perf".into())]);
        for d in &PER_LAYER {
            assert!(
                WORKLOADS.iter().any(|w| w.name == d.owner),
                "{} has no owner",
                d.name
            );
        }
    }

    #[test]
    fn the_checked_in_baseline_covers_every_workload_and_metric() {
        let text = manifest_file("baseline.json").to_string();
        let results: Vec<WorkloadResult> =
            WORKLOADS.iter().map(|w| result_with(w.name, 1.0)).collect();
        check_baseline(&results, &text).expect("baseline has every workload and metric");
    }

    #[test]
    fn baseline_check_flags_only_regressions_beyond_the_bound() {
        let r = result_with("cluster_2x1", 1.0);
        let base = |v: f64| {
            let fields: Vec<String> = END_TO_END
                .iter()
                .map(|d| format!("\"{}\": {v}", d.name))
                .collect();
            format!(
                "{{\"workloads\": {{\"cluster_2x1\": {{{}}}}}}}",
                fields.join(", ")
            )
        };
        assert!(check_baseline(std::slice::from_ref(&r), &base(1.0))
            .expect("ok")
            .is_empty());
        // Medians of 1.0 against a baseline of 0.5: every lower-is-better
        // metric doubled, but only gated ones count; throughput (higher is
        // better) improved.
        let lines = check_baseline(std::slice::from_ref(&r), &base(0.5)).expect("ok");
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].starts_with("cluster_2x1/setup_s"), "{lines:?}");
        // ... and against 2.0, throughput halved.
        let lines = check_baseline(std::slice::from_ref(&r), &base(2.0)).expect("ok");
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].starts_with("cluster_2x1/throughput"), "{lines:?}");
        assert!(check_baseline(&[r], "{}").is_err());
    }
}
