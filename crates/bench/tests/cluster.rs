//! Cluster simulation tests: the golden routing/failover report
//! (`results/cluster.txt`), jobs-invariance, the failover-equals-oracle
//! matrix over seeds and replication transports, the snapshot
//! catch-up path for a follower that joined late, and pinned digests of
//! every traced run's span dump and det-class exposition.

use hwm_bench::cluster::{run_cluster_sim, ClusterSimConfig};
use hwm_bench::serve::{bench_designer, build_plans, round_robin, server_config, submit_local};
use hwm_cluster::{ClusterRouter, LocalLink, NodeLink, ShardGroup, ShardNode};
use hwm_service::{
    ActivationServer, Client, FaultKind, FaultPlan, LocalClient, Registry, ServerConfig, ServerRole,
};
use std::path::PathBuf;
use std::sync::Arc;

/// Production seed used by regen_results.sh (the binaries' default).
const GOLDEN_SEED: u64 = 2024;

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()))
}

#[test]
fn cluster_snapshot_reproduces() {
    let outcome = run_cluster_sim(&ClusterSimConfig::new(GOLDEN_SEED)).expect("sim runs");
    assert!(outcome.matches(), "divergence:\n{}", outcome.report());
    // The binary appends the greppable CI line after a matching run.
    let expected = format!("{}counters sum matches single-node oracle\n", outcome.report());
    assert_eq!(
        expected,
        golden("cluster.txt"),
        "results/cluster.txt is stale — rerun regen_results.sh"
    );
}

/// The checked-in slowest-trace rendering reproduces: same pipeline as
/// `cluster_bench --traces-out` piped through `hwm_traces --slowest 5`.
#[test]
fn trace_rendering_matches_golden() {
    let outcome = run_cluster_sim(&ClusterSimConfig::new(GOLDEN_SEED)).expect("sim runs");
    let spans = hwm_trace::spans_from_jsonl(&outcome.trace_jsonl).expect("dump parses");
    let trees = hwm_trace::TraceQuery {
        slowest: Some(5),
        ..Default::default()
    }
    .run(&spans);
    let rendered = hwm_trace::render_traces(&trees);
    assert_eq!(
        rendered,
        golden("traces.txt"),
        "results/traces.txt is stale — rerun regen_results.sh"
    );
    // The failover request kept its trace id: the retry rides under the
    // same tree as the re-dispatched request.
    assert!(rendered.contains("retry @router"), "{rendered}");
    assert!(rendered.contains("promote @router"), "{rendered}");
}

#[test]
fn cluster_report_is_independent_of_jobs() {
    let jobs1 = run_cluster_sim(&ClusterSimConfig {
        jobs: 1,
        ..ClusterSimConfig::new(GOLDEN_SEED)
    })
    .expect("sim runs");
    let jobs4 = run_cluster_sim(&ClusterSimConfig {
        jobs: 4,
        ..ClusterSimConfig::new(GOLDEN_SEED)
    })
    .expect("sim runs");
    assert_eq!(jobs1.report(), jobs4.report(), "--jobs leaked into the report");
}

/// The acceptance matrix: for each seed, a 3-shard cluster with one
/// injected leader crash must equal the fault-free single-node oracle.
fn assert_failover_matches(seed: u64, tcp: bool) {
    let config = ClusterSimConfig {
        tcp,
        ..ClusterSimConfig::new(seed)
    };
    let outcome = run_cluster_sim(&config).expect("sim runs");
    assert_eq!(outcome.timeline.len(), 1, "seed {seed}: the kill must fire");
    assert!(
        outcome.matches(),
        "seed {seed} tcp={tcp} diverged:\n{}",
        outcome.report()
    );
}

#[test]
fn failover_matches_oracle_in_process() {
    for seed in [GOLDEN_SEED, 7, 99] {
        assert_failover_matches(seed, false);
    }
}

#[test]
fn failover_matches_oracle_over_tcp() {
    for seed in [GOLDEN_SEED, 7, 99] {
        assert_failover_matches(seed, true);
    }
}

fn replica(seed: u64, role: ServerRole) -> Arc<ActivationServer> {
    let config = ServerConfig {
        role,
        ..server_config()
    };
    Arc::new(ActivationServer::new(
        bench_designer(seed),
        Registry::in_memory(),
        config,
    ))
}

// --- Pinned trace and exposition bytes ---------------------------------
//
// FNV-1a digests of the artifacts a traced run emits: full span dumps
// and det-class expositions (whose `*_request_units` histograms carry
// trace-id exemplars). `results/traces.txt` pins only the five slowest
// trees of one dump; these pin every byte of every dump, so a change to
// how spans, root contexts, op/outcome labels or fleet gauges are built
// cannot move a byte unnoticed.

fn digest(text: &str) -> u64 {
    hwm_jsonio::fnv1a(hwm_jsonio::FNV1A_BASIS, text.as_bytes())
}

/// The default traced cluster (`cluster_bench --traces-out`): 3 shards,
/// one leader kill, in-process links.
#[test]
fn default_cluster_trace_dump_is_pinned() {
    let outcome = run_cluster_sim(&ClusterSimConfig::new(GOLDEN_SEED)).expect("sim runs");
    assert!(outcome.matches(), "mismatch:\n{}", outcome.report());
    assert_eq!(
        digest(&outcome.trace_jsonl),
        0xb5d84e593d479014,
        "full cluster trace dump moved"
    );
}

/// `cluster_bench --smoke --tcp --rep-window 4 --traces-out`.
#[test]
fn smoke_tcp_windowed_trace_dump_is_pinned() {
    let config = ClusterSimConfig {
        clients: 6,
        per_client: 4,
        tcp: true,
        rep_window: 4,
        ..ClusterSimConfig::new(GOLDEN_SEED)
    };
    let outcome = run_cluster_sim(&config).expect("sim runs");
    assert!(outcome.matches(), "mismatch:\n{}", outcome.report());
    assert_eq!(
        digest(&outcome.trace_jsonl),
        0xdfd1bfb7980117b5,
        "smoke TCP trace dump moved"
    );
}

/// A traced single server on the `serve_bench` workload
/// (`serve_bench --traces-out`): its span dump and det exposition.
#[test]
fn traced_server_dump_and_exposition_are_pinned() {
    let designer = bench_designer(GOLDEN_SEED);
    let plans = build_plans(&designer, 8, 16, GOLDEN_SEED, 1);
    let server = Arc::new(ActivationServer::new(
        designer,
        Registry::in_memory(),
        ServerConfig {
            trace_seed: Some(GOLDEN_SEED),
            ..server_config()
        },
    ));
    submit_local(&server, &plans, 1);
    let exposition = server.snapshot().deterministic().to_prometheus();
    assert!(exposition.contains("service_request_units"), "{exposition}");
    assert_eq!(
        digest(&server.trace_dump()),
        0xbcbcf12464cfb41d,
        "server trace dump moved"
    );
    assert_eq!(
        digest(&exposition),
        0xa5ecdb4ff5131bd0,
        "server det exposition moved"
    );
}

/// The default traced cluster's router exposition, built the way
/// `run_cluster_sim` builds its faulted cluster.
#[test]
fn traced_cluster_exposition_is_pinned() {
    let config = ClusterSimConfig::new(GOLDEN_SEED);
    let schedule = round_robin(&build_plans(
        &bench_designer(GOLDEN_SEED),
        config.clients,
        config.per_client,
        GOLDEN_SEED,
        1,
    ));
    let mut groups = Vec::new();
    for shard in 0..config.shards {
        let leader = replica(GOLDEN_SEED, ServerRole::Leader);
        leader.enable_replication();
        leader.set_node_name(&format!("shard{shard}/leader"));
        let mut followers: Vec<Box<dyn NodeLink>> = Vec::new();
        for i in 0..config.replicas {
            let follower = replica(GOLDEN_SEED, ServerRole::Follower);
            follower.set_node_name(&format!("shard{shard}/f{i}"));
            followers.push(Box::new(LocalLink::new(Arc::new(ShardNode::new(
                shard as u64,
                follower,
            )))));
        }
        groups.push(ShardGroup {
            leader: Box::new(LocalLink::new(Arc::new(ShardNode::new(
                shard as u64,
                leader,
            )))),
            followers,
        });
    }
    let eligible: Vec<u64> = (1..=schedule.len() as u64).collect();
    let plan = FaultPlan::new(GOLDEN_SEED, FaultKind::ConnDrop, &eligible, config.crashes);
    let router = Arc::new(ClusterRouter::new(groups, config.vnodes, Some(plan)));
    router.set_trace_seed(Some(GOLDEN_SEED));
    let mut client = LocalClient::new(Arc::clone(&router));
    for req in &schedule {
        client.call(req).expect("routed call");
    }
    assert_eq!(router.timeline().len(), 1, "the scheduled kill must fire");
    let exposition = router.snapshot().deterministic().to_prometheus();
    assert!(exposition.contains("cluster_request_units"), "{exposition}");
    assert_eq!(
        digest(&exposition),
        0x4772786731b54f25,
        "cluster det exposition moved"
    );
}
