//! The fleet-monitor core: fetch a server's live telemetry over the wire
//! and render it as a dashboard, a JSON report, or a timing breakdown.
//!
//! The `hwm_monitor` binary is a thin driver around this module so the
//! rendering is testable and goldenable. Output discipline follows the
//! workspace determinism contract:
//!
//! * [`render_dashboard`] and [`json_report`] consume only `det`-class
//!   metrics (plus the audit stream, which is deterministic by
//!   construction) — byte-identical for any `--jobs` against a fixed
//!   request sequence, so both are golden-snapshot material.
//! * [`render_timings`] consumes the `timing`-class histograms (handler
//!   latency, journal fsync) and belongs on stderr, like every other
//!   wall-clock number in the workspace.

use hwm_jsonio::Json;
use hwm_metrics::{
    AlertEngine, AlertRuleSet, AlertState, AlertTransition, AuditEvent, History, HistoryDump,
    LatencySummary, MetricKind, Sample, Snapshot,
};
use hwm_service::{Client, Request, Response, WireError};
use hwm_trace::{collect_traces, SpanRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema version of the `--json` report envelope.
pub const MONITOR_SCHEMA_VERSION: u64 = 1;

/// Everything one poll of a server yields.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// The full metrics snapshot (both `det` and `timing` families).
    pub snapshot: Snapshot,
    /// The audit alerts, from the beginning of the log.
    pub audit: Vec<AuditEvent>,
    /// The sampled time-series history (det-class only by construction).
    pub history: HistoryDump,
    /// The server's span ring (empty when tracing is off).
    pub traces: Vec<SpanRecord>,
}

/// Polls a server once over any transport: one `Metrics` request, one
/// `Audit` request (full history), one `History` request (full window)
/// and one `Traces` request (full ring).
///
/// # Errors
///
/// Returns a [`WireError`] for transport failures or unexpected response
/// types (e.g. a server answering any of the four with `error`).
pub fn observe(client: &mut dyn Client) -> Result<Observation, WireError> {
    let snapshot = match client.call(&Request::Metrics {
        client: "hwm_monitor".into(),
    })? {
        Response::Metrics { snapshot } => snapshot,
        other => {
            return Err(WireError {
                message: format!("metrics request answered with {other:?}"),
            })
        }
    };
    let audit = match client.call(&Request::Audit {
        client: "hwm_monitor".into(),
        since: None,
    })? {
        Response::Audit { events, .. } => events,
        other => {
            return Err(WireError {
                message: format!("audit request answered with {other:?}"),
            })
        }
    };
    let history = match client.call(&Request::History {
        client: "hwm_monitor".into(),
        window: None,
    })? {
        Response::History { history } => history,
        other => {
            return Err(WireError {
                message: format!("history request answered with {other:?}"),
            })
        }
    };
    let traces = match client.call(&Request::Traces {
        client: "hwm_monitor".into(),
        limit: None,
    })? {
        Response::Traces { spans } => spans,
        other => {
            return Err(WireError {
                message: format!("traces request answered with {other:?}"),
            })
        }
    };
    Ok(Observation {
        snapshot,
        audit,
        history,
        traces,
    })
}

fn gauge(s: &Snapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    s.gauge(name, labels).unwrap_or(0)
}

/// Width of the dashboard sparklines: the newest samples that fit.
const SPARK_WIDTH: usize = 32;

/// How many span trees the "recent traces" panel shows.
const RECENT_TRACES: usize = 5;

/// Renders the newest `width` samples as an ASCII sparkline, scaled to
/// the largest value shown. All-zero history renders as spaces.
pub fn sparkline(samples: &[Sample], width: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#";
    let skip = samples.len().saturating_sub(width);
    let tail = &samples[skip..];
    let max = tail.iter().map(|s| s.value).max().unwrap_or(0);
    tail.iter()
        .map(|s| {
            let idx = (s.value.saturating_mul(RAMP.len() as u64 - 1) + max / 2)
                .checked_div(max)
                .unwrap_or(0);
            RAMP[idx as usize] as char
        })
        .collect()
}

/// Renders the deterministic fleet dashboard (stdout material).
pub fn render_dashboard(obs: &Observation) -> String {
    render_dashboard_with_rules(obs, None)
}

/// [`render_dashboard`] plus client-side rule evaluation: when `rules`
/// is given, the polled history is re-folded through an [`AlertEngine`]
/// locally so the panel shows live rule values even against a server
/// that has no rules installed.
pub fn render_dashboard_with_rules(obs: &Observation, rules: Option<&AlertRuleSet>) -> String {
    let s = obs.snapshot.deterministic();
    let mut out = String::new();
    let _ = writeln!(out, "activation-service fleet dashboard");
    let ticks = gauge(&s, "service_clock_ticks", &[]);
    let awaiting = gauge(&s, "registry_ics", &[("state", "registered")]);
    let unlocked = gauge(&s, "registry_ics", &[("state", "unlocked")]);
    let disabled = gauge(&s, "registry_ics", &[("state", "disabled")]);
    let _ = writeln!(out, "logical clock       {ticks:>8} ticks");
    let _ = writeln!(
        out,
        "fleet               {:>8} ICs ({awaiting} awaiting key / {unlocked} unlocked / {disabled} disabled)",
        awaiting + unlocked + disabled
    );
    let keys = s
        .counter("service_requests_total", &[("op", "unlock"), ("outcome", "key")])
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "unlock throughput   {:>8} keys per 1k ticks ({keys} keys issued)",
        keys.saturating_mul(1000) / ticks.max(1)
    );
    let _ = writeln!(
        out,
        "clone evidence      {:>8} duplicate readouts",
        gauge(&s, "registry_duplicates", &[])
    );
    let _ = writeln!(
        out,
        "lockouts            {:>8} triggered ({} wrong readouts)",
        gauge(&s, "throttle_lockouts_total", &[]),
        s.counter_total("service_wrong_readouts_total"),
    );
    let _ = writeln!(
        out,
        "journal             {:>8} events appended ({} replayed at startup)",
        s.counter_total("journal_events_total"),
        gauge(&s, "journal_replayed_events", &[])
    );
    let _ = writeln!(
        out,
        "requests            {:>8} total",
        s.counter_total("service_requests_total")
    );
    if let Some(f) = s.family("service_requests_total") {
        let rows: Vec<Vec<String>> = f
            .series
            .iter()
            .map(|series| {
                let mut row: Vec<String> = series.labels.iter().map(|(_, v)| v.clone()).collect();
                row.push(match series.value {
                    hwm_metrics::SeriesValue::Int(v) => v.to_string(),
                    hwm_metrics::SeriesValue::Hist(_) => "-".into(),
                });
                row
            })
            .collect();
        let _ = write!(out, "{}", crate::render_table(&["op", "outcome", "count"], &rows));
    }
    // Present only when the polled endpoint is a cluster router: the
    // per-shard routing distribution and replication watermarks.
    if let Some(f) = s.family("cluster_requests_total") {
        let mut shards: BTreeMap<u64, u64> = BTreeMap::new();
        for series in &f.series {
            let shard = series
                .labels
                .iter()
                .find(|(k, _)| k == "shard")
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(u64::MAX);
            if let hwm_metrics::SeriesValue::Int(v) = series.value {
                shards.insert(shard, v);
            }
        }
        let _ = writeln!(out, "cluster shards:");
        let rows: Vec<Vec<String>> = shards
            .iter()
            .map(|(shard, requests)| {
                let label = shard.to_string();
                // A shard that routed requests but published no lag
                // gauge is one the router could not reach for admin
                // state — say so instead of rendering a misleading 0.
                let lag = s
                    .gauge("cluster_replication_lag", &[("shard", &label)])
                    .map_or_else(|| "unreachable".to_string(), |v| v.to_string());
                vec![label, requests.to_string(), lag]
            })
            .collect();
        let _ = write!(
            out,
            "{}",
            crate::render_table(&["shard", "requests", "replication lag"], &rows)
        );
        let _ = writeln!(
            out,
            "failovers           {:>8} leaders promoted",
            s.counter_total("cluster_failovers_total")
        );
    }
    let lockouts: Vec<&AuditEvent> = obs.audit.iter().filter(|e| e.kind == "lockout").collect();
    if !lockouts.is_empty() {
        let _ = writeln!(out, "lockout alerts:");
        let rows: Vec<Vec<String>> = lockouts
            .iter()
            .map(|e| {
                vec![
                    e.tick.to_string(),
                    e.str_field("client").unwrap_or("?").to_string(),
                    e.u64_field("until").map_or("?".into(), |v| v.to_string()),
                    e.u64_field("count").map_or("?".into(), |v| v.to_string()),
                ]
            })
            .collect();
        let _ = write!(out, "{}", crate::render_table(&["tick", "client", "until", "count"], &rows));
    }
    let clones: Vec<&AuditEvent> = obs
        .audit
        .iter()
        .filter(|e| e.kind == "duplicate_readout")
        .collect();
    if !clones.is_empty() {
        let _ = writeln!(out, "clone-evidence alerts:");
        let rows: Vec<Vec<String>> = clones
            .iter()
            .map(|e| {
                vec![
                    e.tick.to_string(),
                    e.str_field("ic").unwrap_or("?").to_string(),
                    e.str_field("client").unwrap_or("?").to_string(),
                    e.str_field("prior").unwrap_or("?").to_string(),
                ]
            })
            .collect();
        let _ = write!(out, "{}", crate::render_table(&["tick", "ic", "client", "prior"], &rows));
    }
    let others: u64 = obs
        .audit
        .iter()
        .filter(|e| e.kind != "lockout" && e.kind != "duplicate_readout")
        .count() as u64;
    let _ = writeln!(
        out,
        "audit alerts        {:>8} total ({} other kinds)",
        obs.audit.len(),
        others
    );
    // Recent traces: one row per assembled span tree, newest last. The
    // panel appears only when the polled server has tracing armed, so
    // untraced dashboards stay byte-identical to pre-tracing builds.
    let trees = collect_traces(&obs.traces);
    if !trees.is_empty() {
        let skip = trees.len().saturating_sub(RECENT_TRACES);
        let _ = writeln!(
            out,
            "recent traces ({} of {} shown, newest last):",
            trees.len() - skip,
            trees.len()
        );
        let rows: Vec<Vec<String>> = trees[skip..]
            .iter()
            .map(|t| {
                let attr = |k: &str| t.root().and_then(|r| r.attr(k)).unwrap_or("?").to_string();
                let min = t.spans.iter().map(|s| s.tick).min().unwrap_or(0);
                let max = t.spans.iter().map(|s| s.tick).max().unwrap_or(0);
                vec![
                    format!("{:016x}", t.trace_id),
                    attr("kind"),
                    attr("client"),
                    attr("outcome"),
                    t.spans.len().to_string(),
                    format!("{min}..{max}"),
                ]
            })
            .collect();
        let _ = write!(
            out,
            "{}",
            crate::render_table(&["trace", "kind", "client", "outcome", "spans", "ticks"], &rows)
        );
    }
    let gauges: Vec<&hwm_metrics::DumpSeries> = obs
        .history
        .series
        .iter()
        .filter(|d| d.kind == MetricKind::Gauge && !d.samples.is_empty())
        .collect();
    if !gauges.is_empty() {
        let _ = writeln!(
            out,
            "sampled history (stride {} ticks, newest {SPARK_WIDTH} samples):",
            obs.history.stride
        );
        let width = gauges.iter().map(|d| series_title(d).len()).max().unwrap_or(0);
        for d in gauges {
            let title = series_title(d);
            let last = d.samples.last().map_or(0, |s| s.value);
            let _ = writeln!(
                out,
                "  {title:<width$} |{}| {last}",
                sparkline(&d.samples, SPARK_WIDTH)
            );
        }
    }
    // The ALERTS panel: each rule's latest transition.
    let timeline: Vec<AlertTransition> =
        obs.audit.iter().filter_map(AlertTransition::from_audit).collect();
    let latest: BTreeMap<&str, &AlertTransition> =
        timeline.iter().map(|t| (t.rule.as_str(), t)).collect();
    if !latest.is_empty() {
        let _ = writeln!(out, "ALERTS:");
        let rows: Vec<Vec<String>> = latest
            .values()
            .map(|t| {
                let state = match t.state {
                    AlertState::Firing => "FIRING",
                    AlertState::Resolved => "resolved",
                };
                vec![
                    t.rule.clone(),
                    state.to_string(),
                    t.tick.to_string(),
                    t.value.to_string(),
                    t.threshold.to_string(),
                ]
            })
            .collect();
        let _ = write!(
            out,
            "{}",
            crate::render_table(&["rule", "state", "tick", "value", "threshold"], &rows)
        );
    }
    if let Some(set) = rules {
        let history = History::from_dump(&obs.history);
        let now = history.latest_tick().unwrap_or(0);
        let mut engine = AlertEngine::new(set.clone());
        engine.fold_audit(timeline);
        let _ = writeln!(out, "rule evaluation (client-side, at tick {now}):");
        let rows: Vec<Vec<String>> = engine
            .statuses(now, &history)
            .iter()
            .map(|st| {
                vec![
                    st.rule.clone(),
                    if st.firing { "FIRING".into() } else { "ok".into() },
                    st.value.map_or("warming up".into(), |v| v.to_string()),
                    st.threshold.to_string(),
                ]
            })
            .collect();
        let _ = write!(
            out,
            "{}",
            crate::render_table(&["rule", "state", "value", "fire_at"], &rows)
        );
    }
    out
}

/// `name{k=v,...}` display form of a sampled series.
fn series_title(d: &hwm_metrics::DumpSeries) -> String {
    if d.labels.is_empty() {
        return d.name.clone();
    }
    let labels: Vec<String> = d.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{}{{{}}}", d.name, labels.join(","))
}

/// Renders the wall-clock timing breakdown (stderr material): per-op
/// handler latency and journal append latency from the `timing`-class
/// histograms.
pub fn render_timings(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "handler latency (wall-clock; excluded from the determinism contract):");
    let mut rows: Vec<Vec<String>> = Vec::new();
    if let Some(f) = snapshot.family("service_handler_ns") {
        for series in &f.series {
            if let hwm_metrics::SeriesValue::Hist(h) = &series.value {
                let lat = LatencySummary::of_histogram(h);
                let op = series
                    .labels
                    .iter()
                    .find(|(k, _)| k == "op")
                    .map_or("?", |(_, v)| v.as_str());
                rows.push(vec![
                    op.to_string(),
                    lat.count.to_string(),
                    format!("{:.1}", lat.p50_ns as f64 / 1_000.0),
                    format!("{:.1}", lat.p99_ns as f64 / 1_000.0),
                ]);
            }
        }
    }
    if let Some(h) = snapshot.histogram("journal_append_ns", &[]) {
        let lat = LatencySummary::of_histogram(h);
        rows.push(vec![
            "journal append".to_string(),
            lat.count.to_string(),
            format!("{:.1}", lat.p50_ns as f64 / 1_000.0),
            format!("{:.1}", lat.p99_ns as f64 / 1_000.0),
        ]);
    }
    if rows.is_empty() {
        let _ = writeln!(out, "(no timing histograms recorded)");
    } else {
        let _ = write!(
            out,
            "{}",
            crate::render_table(&["op", "count", "p50 µs (≤)", "p99 µs (≤)"], &rows)
        );
    }
    out
}

/// The `--json` scripting report. Deterministic by default (only
/// `det`-class families); `include_timings` adds the wall-clock families
/// back for humans who asked.
pub fn json_report(obs: &Observation, include_timings: bool) -> Json {
    let snapshot = if include_timings {
        obs.snapshot.clone()
    } else {
        obs.snapshot.deterministic()
    };
    let requests_total = snapshot.counter_total("service_requests_total");
    Json::obj(vec![
        ("schema", Json::U64(MONITOR_SCHEMA_VERSION)),
        ("requests_total", Json::U64(requests_total)),
        ("metrics", snapshot.to_json()),
        (
            "audit",
            Json::Arr(obs.audit.iter().map(|e| e.to_json()).collect()),
        ),
        ("history", obs.history.to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{bench_designer, build_plans, server_config, submit_local};
    use hwm_service::{ActivationServer, LocalClient, Registry};
    use std::sync::Arc;

    fn observed(seed: u64) -> Observation {
        let designer = bench_designer(seed);
        let plans = build_plans(&designer, 4, 8, seed, 2);
        let server = Arc::new(ActivationServer::new(
            designer,
            Registry::in_memory(),
            server_config(),
        ));
        submit_local(&server, &plans, 1);
        let mut client = LocalClient::new(server);
        observe(&mut client).expect("observe")
    }

    /// A server that answers every admin request except `traces`,
    /// which it refuses with an `error` response.
    struct NoTraces(LocalClient);

    impl Client for NoTraces {
        fn call(&mut self, req: &Request) -> Result<Response, WireError> {
            match req {
                Request::Traces { .. } => Ok(Response::Error {
                    code: hwm_service::ErrorCode::Malformed,
                    message: "unknown request".into(),
                    retry_at: None,
                }),
                _ => self.0.call(req),
            }
        }

        fn set_trace(&mut self, ctx: hwm_trace::TraceContext) {
            self.0.set_trace(ctx);
        }
    }

    #[test]
    fn observe_fails_when_traces_is_answered_with_an_error() {
        let server = Arc::new(ActivationServer::new(
            bench_designer(2024),
            Registry::in_memory(),
            server_config(),
        ));
        let mut client = NoTraces(LocalClient::new(server));
        let err = observe(&mut client).expect_err("an error answer must fail the poll");
        assert!(err.message.starts_with("traces request answered with Error"), "{}", err.message);
    }

    #[test]
    fn dashboard_reflects_the_workload() {
        let obs = observed(2024);
        let text = render_dashboard(&obs);
        assert!(text.contains("activation-service fleet dashboard"), "{text}");
        assert!(text.contains("unlock throughput"), "{text}");
        // The workload registers 4 clients × 8 dies.
        assert!(text.contains("32 ICs"), "{text}");
        // Deterministic material only: no timing family leaks in.
        assert!(!text.contains("_ns"), "{text}");
    }

    #[test]
    fn json_report_counts_match_the_snapshot() {
        let obs = observed(2024);
        let j = json_report(&obs, false);
        let total = j.get("requests_total").and_then(Json::as_u64).unwrap();
        assert_eq!(
            total,
            obs.snapshot.counter_total("service_requests_total")
        );
        // 4 clients × (8 registers + 8 unlocks + 2 guesses + 1 disable) + 4 statuses.
        assert!(total > 0);
        let metrics = j.get("metrics").unwrap();
        let reparsed = Snapshot::from_json(metrics).expect("report snapshot parses");
        assert_eq!(reparsed, obs.snapshot.deterministic());
    }

    #[test]
    fn dashboard_shows_the_cluster_panel() {
        use hwm_cluster::{ClusterRouter, LocalLink, NodeLink, ShardGroup, ShardNode};
        use hwm_service::{Client as _, ServerConfig, ServerRole};
        let designer = bench_designer(5);
        let plans = build_plans(&designer, 4, 4, 5, 1);
        let mut groups = Vec::new();
        for shard in 0..2u64 {
            let leader = Arc::new(ActivationServer::new(
                bench_designer(5),
                Registry::in_memory(),
                server_config(),
            ));
            leader.enable_replication();
            let follower = Arc::new(ActivationServer::new(
                bench_designer(5),
                Registry::in_memory(),
                ServerConfig {
                    role: ServerRole::Follower,
                    ..server_config()
                },
            ));
            groups.push(ShardGroup {
                leader: Box::new(LocalLink::new(Arc::new(ShardNode::new(shard, leader))))
                    as Box<dyn NodeLink>,
                followers: vec![Box::new(LocalLink::new(Arc::new(ShardNode::new(
                    shard, follower,
                ))))],
            });
        }
        let router = Arc::new(ClusterRouter::new(groups, 16, None));
        let mut client = LocalClient::new(router);
        for req in crate::serve::round_robin(&plans) {
            client.call(&req).expect("routed call");
        }
        let obs = observe(&mut client).expect("observe");
        let text = render_dashboard(&obs);
        assert!(text.contains("cluster shards:"), "{text}");
        assert!(text.contains("replication lag"), "{text}");
        assert!(text.contains("failovers"), "{text}");
        // A plain single-node server must not grow the panel.
        let plain = render_dashboard(&observed(5));
        assert!(!plain.contains("cluster shards:"), "{plain}");
    }

    #[test]
    fn dashboard_shows_recent_traces_when_tracing_is_armed() {
        use hwm_service::ServerConfig;
        let seed = 2024;
        let designer = bench_designer(seed);
        let plans = build_plans(&designer, 4, 8, seed, 2);
        let server = Arc::new(ActivationServer::new(
            designer,
            Registry::in_memory(),
            ServerConfig {
                trace_seed: Some(seed),
                ..server_config()
            },
        ));
        submit_local(&server, &plans, 1);
        let mut client = LocalClient::new(server);
        let obs = observe(&mut client).expect("observe");
        assert!(!obs.traces.is_empty(), "traced server yields spans");
        let text = render_dashboard(&obs);
        assert!(text.contains("recent traces ("), "{text}");
        assert!(text.contains("newest last"), "{text}");
        // Still golden-safe material: no timing families leak in.
        assert!(!text.contains("_ns"), "{text}");
        // An untraced server must not grow the panel.
        let plain = render_dashboard(&observed(seed));
        assert!(!plain.contains("recent traces"), "{plain}");
    }

    #[test]
    fn cluster_panel_marks_a_shard_without_admin_state_unreachable() {
        use hwm_metrics::{MetricClass, MetricsRegistry};
        // Shards 0 and 1 both routed requests, but only shard 0
        // published a replication-lag gauge — shard 1's admin state
        // never made it back, and the panel must say so instead of
        // rendering a misleading 0.
        let m = MetricsRegistry::default();
        m.inc("cluster_requests_total", &[("shard", "0")], 3);
        m.inc("cluster_requests_total", &[("shard", "1")], 2);
        m.set_gauge("cluster_replication_lag", &[("shard", "0")], MetricClass::Det, 1);
        let obs = Observation {
            snapshot: m.snapshot(),
            audit: Vec::new(),
            history: HistoryDump::default(),
            traces: Vec::new(),
        };
        let text = render_dashboard(&obs);
        assert!(text.contains("unreachable"), "{text}");
        // The reachable shard still renders its number.
        let lag_rows: Vec<&str> = text.lines().filter(|l| l.contains("unreachable")).collect();
        assert_eq!(lag_rows.len(), 1, "{text}");
        assert!(lag_rows[0].trim_start().starts_with('1'), "{text}");
    }

    #[test]
    fn cluster_families_carry_real_help_and_class_lines() {
        use hwm_cluster::{ClusterRouter, LocalLink, NodeLink, ShardGroup, ShardNode};
        use hwm_service::{Client as _, ServerConfig, ServerRole};
        let designer = bench_designer(9);
        let plans = build_plans(&designer, 3, 4, 9, 1);
        let mut groups = Vec::new();
        for shard in 0..2u64 {
            let leader = Arc::new(ActivationServer::new(
                bench_designer(9),
                Registry::in_memory(),
                server_config(),
            ));
            leader.enable_replication();
            let follower = Arc::new(ActivationServer::new(
                bench_designer(9),
                Registry::in_memory(),
                ServerConfig {
                    role: ServerRole::Follower,
                    ..server_config()
                },
            ));
            groups.push(ShardGroup {
                leader: Box::new(LocalLink::new(Arc::new(ShardNode::new(shard, leader))))
                    as Box<dyn NodeLink>,
                followers: vec![Box::new(LocalLink::new(Arc::new(ShardNode::new(
                    shard, follower,
                ))))],
            });
        }
        let router = Arc::new(ClusterRouter::new(groups, 16, None));
        router.set_trace_seed(Some(9));
        // No crash plan here, so materialize the failover counter at 0
        // to put its family (and help line) into the exposition.
        router.metrics().inc("cluster_failovers_total", &[], 0);
        let mut client = LocalClient::new(Arc::clone(&router));
        for req in crate::serve::round_robin(&plans) {
            client.call(&req).expect("routed call");
        }
        let text = router.snapshot().to_prometheus();
        for name in [
            "cluster_requests_total",
            "cluster_replication_lag",
            "cluster_failovers_total",
            "cluster_request_units",
        ] {
            assert!(text.contains(&format!("# HELP {name} ")), "{name} missing HELP:\n{text}");
            assert!(text.contains(&format!("# CLASS {name} det")), "{name} missing CLASS:\n{text}");
        }
        // Full coverage: every family a cluster run exposes has real
        // help text — none falls back to the unregistered stub.
        assert!(!text.contains("No help registered"), "{text}");
    }

    #[test]
    fn timings_render_without_leaking_into_the_dashboard() {
        let obs = observed(2024);
        let text = render_timings(&obs.snapshot);
        assert!(text.contains("handler latency"), "{text}");
        assert!(text.contains("register"), "{text}");
    }
}
