//! End-to-end alert determinism: the seeded clone campaign fires
//! `duplicate_readout_spike` at the same logical tick every run and for
//! every `--jobs` value, the honest baseline never fires anything, and
//! the alert JSONL stream is byte-identical across fan-outs — the
//! acceptance contract of the time-series/alerting subsystem. Also pins
//! that installing rules does not change what the server samples, and
//! that the alert events a server records decode back through
//! `AlertTransition::from_audit` into exactly what was recorded.

use hwm_bench::serve::{
    bench_designer, build_plans, clone_campaign_plans, fleet_rules, server_config, submit_local,
    ClientPlan,
};
use hwm_bench::sim::{run_alert_sim, AlertSimConfig, AlertSimOutcome};
use hwm_jsonio::Json;
use hwm_metrics::{AlertState, AlertTransition, AuditEvent, AuditValue, HistoryDump};
use hwm_service::{ActivationServer, Registry, Request, Response};
use std::sync::Arc;

const SEED: u64 = 2024;

fn sim(jobs: usize) -> AlertSimOutcome {
    run_alert_sim(&AlertSimConfig {
        jobs,
        ..AlertSimConfig::new(SEED)
    })
}

#[test]
fn campaign_fires_duplicate_readout_spike_and_baseline_stays_quiet() {
    let outcome = sim(1);
    assert!(
        outcome.detection_tick.is_some(),
        "campaign undetected:\n{}",
        outcome.report()
    );
    assert!(
        outcome.quiet.transitions.is_empty(),
        "baseline fired:\n{}",
        outcome.report()
    );
    assert!(outcome.ok());
    // The campaign world saw strictly more clone evidence than the
    // baseline's birthday collisions.
    assert!(outcome.campaign.duplicates > outcome.quiet.duplicates);
}

#[test]
fn detection_tick_is_deterministic_across_jobs() {
    let a = sim(1);
    let b = sim(4);
    assert_eq!(a.detection_tick, b.detection_tick);
    assert_eq!(a.campaign.transitions, b.campaign.transitions);
    // The full alert stream — not just the firing tick — is
    // byte-identical, as is the golden report.
    assert_eq!(a.campaign.alerts_jsonl, b.campaign.alerts_jsonl);
    assert_eq!(a.quiet.alerts_jsonl, b.quiet.alerts_jsonl);
    assert_eq!(a.report(), b.report());
}

#[test]
fn rerunning_the_same_config_reproduces_the_same_tick() {
    let a = sim(2);
    let b = sim(2);
    assert_eq!(a.detection_tick, b.detection_tick);
    assert_eq!(a.report(), b.report());
}

#[test]
fn quiet_alert_stream_is_empty_bytes() {
    let outcome = sim(1);
    assert_eq!(outcome.quiet.alerts_jsonl, "");
    assert!(!outcome.campaign.alerts_jsonl.is_empty());
}

/// Serves `plans` on a fresh in-memory server (with the stock rules when
/// `rules` is set) and returns its `history` admin reply.
fn served_history(plans: &[ClientPlan], rules: bool) -> HistoryDump {
    let server = Arc::new(ActivationServer::new(
        bench_designer(SEED),
        Registry::in_memory(),
        server_config(),
    ));
    if rules {
        server.set_alert_rules(fleet_rules());
    }
    submit_local(&server, plans, 1);
    match server.handle(&Request::History {
        client: "monitor".into(),
        window: None,
    }) {
        Response::History { history } => history,
        other => panic!("history request answered with {other:?}"),
    }
}

#[test]
fn installed_rules_do_not_change_the_sampled_history() {
    let cfg = AlertSimConfig::new(SEED);
    let designer = bench_designer(SEED);
    // The honest workload fires nothing, so the two servers must serve
    // the same bytes.
    let quiet = build_plans(&designer, cfg.clients, cfg.per_client, SEED, 1);
    let plain = served_history(&quiet, false);
    assert!(
        plain.series.iter().any(|s| s.samples.len() > 1),
        "{plain:?}"
    );
    assert_eq!(
        served_history(&quiet, true).to_json().to_string(),
        plain.to_json().to_string()
    );
    // The campaign fires: the only extra series are the alert counters
    // the transitions bump.
    let campaign = clone_campaign_plans(&designer, cfg.clients, cfg.per_client, SEED, 1);
    let plain = served_history(&campaign, false);
    let mut ruled = served_history(&campaign, true);
    let alert_kinds = [
        AlertState::Firing.audit_kind(),
        AlertState::Resolved.audit_kind(),
    ];
    let before = ruled.series.len();
    ruled.series.retain(|s| {
        s.name != "service_alerts_total"
            && !s
                .labels
                .iter()
                .any(|(k, v)| k == "kind" && alert_kinds.contains(&v.as_str()))
    });
    assert!(ruled.series.len() < before, "the campaign fired no alert");
    assert_eq!(ruled.to_json().to_string(), plain.to_json().to_string());
}

#[test]
fn recorded_alert_events_are_the_encoding_of_their_decoded_transition() {
    let outcome = sim(1);
    let events: Vec<AuditEvent> = outcome
        .campaign
        .alerts_jsonl
        .lines()
        .map(|line| AuditEvent::from_json(&Json::parse(line).expect("json")).expect("audit event"))
        .collect();
    let decoded: Vec<AlertTransition> = events
        .iter()
        .map(|e| AlertTransition::from_audit(e).expect("every --alerts-out line decodes"))
        .collect();
    assert!(!decoded.is_empty());
    assert_eq!(decoded, outcome.campaign.transitions);
    for (e, t) in events.iter().zip(&decoded) {
        assert_eq!((e.tick, e.kind.as_str()), (t.tick, t.state.audit_kind()));
        let fields: Vec<(String, AuditValue)> = t
            .audit_fields()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        assert_eq!(e.fields, fields);
    }
}
