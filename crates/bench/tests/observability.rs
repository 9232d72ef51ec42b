//! The observability determinism contract: everything the monitor and
//! the metrics exposition emit from the `det` class is byte-identical
//! regardless of the plan-generation fan-out (`--jobs`), and the
//! checked-in `results/monitor.txt` snapshot reproduces from the
//! production seed.

use hwm_bench::monitor::{json_report, observe, render_dashboard, Observation};
use hwm_bench::serve::{bench_designer, build_plans, server_config, submit_local};
use hwm_service::{ActivationServer, LocalClient, Registry};
use std::path::PathBuf;
use std::sync::Arc;

const SEED: u64 = 2024;

/// Runs the standard serving workload and returns the server plus one
/// monitor observation of it.
fn run_and_observe(clients: usize, per_client: usize, jobs: usize) -> (Arc<ActivationServer>, Observation) {
    let designer = bench_designer(SEED);
    let plans = build_plans(&designer, clients, per_client, SEED, jobs);
    let server = Arc::new(ActivationServer::new(
        designer,
        Registry::in_memory(),
        server_config(),
    ));
    submit_local(&server, &plans, 1);
    let mut client = LocalClient::new(Arc::clone(&server));
    let obs = observe(&mut client).expect("observe");
    (server, obs)
}

#[test]
fn deterministic_exposition_is_byte_identical_across_jobs() {
    let (server1, _) = run_and_observe(8, 16, 1);
    let (server4, _) = run_and_observe(8, 16, 4);
    let expo1 = server1.snapshot().deterministic().to_prometheus();
    let expo4 = server4.snapshot().deterministic().to_prometheus();
    assert_eq!(
        expo1, expo4,
        "det-class exposition must not depend on --jobs"
    );
    // And it actually carries the fleet families.
    assert!(expo1.contains("service_requests_total{"), "{expo1}");
    assert!(expo1.contains("registry_ics{state=\"unlocked\"}"), "{expo1}");
    // Every family leads with a real # HELP line.
    assert!(
        expo1.contains("# HELP service_requests_total Requests handled"),
        "{expo1}"
    );
    assert!(!expo1.contains("No help registered"), "{expo1}");
}

/// The full (timing-included) exposition carries cumulative `le`-bucket
/// lines *and* nearest-rank quantile lines for each histogram.
#[test]
fn exposition_carries_buckets_and_quantiles() {
    let (server, _) = run_and_observe(4, 8, 1);
    let expo = server.snapshot().to_prometheus();
    assert!(expo.contains("service_handler_ns_bucket{"), "{expo}");
    assert!(expo.contains("le=\"+Inf\""), "{expo}");
    for q in ["0.5", "0.9", "0.99"] {
        assert!(
            expo.contains(&format!("quantile=\"{q}\"")),
            "missing quantile {q}: {expo}"
        );
    }
}

#[test]
fn monitor_outputs_are_byte_identical_across_jobs() {
    let (_, obs1) = run_and_observe(8, 16, 1);
    let (_, obs4) = run_and_observe(8, 16, 4);
    assert_eq!(
        render_dashboard(&obs1),
        render_dashboard(&obs4),
        "dashboard must not depend on --jobs"
    );
    assert_eq!(
        json_report(&obs1, false).to_string(),
        json_report(&obs4, false).to_string(),
        "--json report must not depend on --jobs"
    );
}

#[test]
fn audit_stream_is_byte_identical_across_jobs() {
    let (server1, _) = run_and_observe(8, 16, 1);
    let (server4, _) = run_and_observe(8, 16, 4);
    let audit = server1.audit_jsonl();
    assert_eq!(audit, server4.audit_jsonl());
    assert!(
        audit.contains("\"kind\":\"duplicate_readout\""),
        "the workload's readout collisions must surface as clone alerts: {audit}"
    );
}

/// The checked-in monitor snapshot (regenerated by regen_results.sh)
/// reproduces exactly at the production seed and workload shape.
#[test]
fn monitor_snapshot_reproduces() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join("monitor.txt");
    let snapshot = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    let (_, obs) = run_and_observe(8, 16, 2);
    assert_eq!(
        render_dashboard(&obs),
        snapshot,
        "results/monitor.txt drifted; rerun scripts/regen_results.sh"
    );
}

/// Monitoring is read-only: observing twice changes nothing the
/// deterministic contract covers (admin requests do not tick the clock,
/// count as traffic, or perturb throttling).
#[test]
fn observation_does_not_perturb_the_fleet() {
    let (server, obs1) = run_and_observe(4, 8, 2);
    let mut client = LocalClient::new(Arc::clone(&server));
    let obs2 = observe(&mut client).expect("second observe");
    assert_eq!(obs1.snapshot.deterministic(), obs2.snapshot.deterministic());
    assert_eq!(obs1.audit, obs2.audit);
    // The history admin request is clock-neutral too: polling it twice
    // returns the same sampled series.
    assert_eq!(obs1.history, obs2.history);
}

/// The sampled history rides the logical tick clock: byte-identical
/// across `--jobs`, det-class only, and consistent with the live
/// counters at its newest sample.
#[test]
fn history_is_deterministic_and_det_only() {
    let (_, obs1) = run_and_observe(8, 16, 1);
    let (_, obs4) = run_and_observe(8, 16, 4);
    assert_eq!(obs1.history, obs4.history, "history must not depend on --jobs");
    assert!(!obs1.history.series.is_empty());
    for series in &obs1.history.series {
        assert!(
            !series.name.ends_with("_ns"),
            "timing family {} leaked into the sampled history",
            series.name
        );
    }
    // The newest clock sample equals the served request count.
    let clock = obs1
        .history
        .series
        .iter()
        .find(|s| s.name == "service_clock_ticks")
        .expect("clock gauge is sampled");
    let last = clock.samples.last().expect("clock was sampled").value;
    assert_eq!(last, obs1.snapshot.gauge("service_clock_ticks", &[]).unwrap());
}
