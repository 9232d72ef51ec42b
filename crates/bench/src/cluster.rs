//! Sharded-cluster simulation: routing, replication and failover against
//! a single-node oracle.
//!
//! The experiment (ISSUE 8, DESIGN.md §9):
//!
//! 1. Run the serving workload against one plain [`ActivationServer`] —
//!    the fault-free oracle.
//! 2. Run the *same* schedule through a [`ClusterRouter`] fronting
//!    `shards` replica groups (1 leader + `replicas` followers each),
//!    with one plan-scheduled leader crash mid-stream.
//! 3. The recovered cluster must equal the oracle *exactly*: every
//!    response byte, the union of shard registries (modulo shard-local
//!    sequence numbers), the merged audit stream, the summed det-class
//!    counters and the fleet gauges. A fault-free cluster run pins the
//!    per-shard journal digests; with one shard the digest must equal
//!    the oracle's directly.
//!
//! Everything is deterministic: same seed ⇒ same schedule, same ring,
//! same crash tick, same report — independent of `--jobs` and identical
//! over the in-process and TCP replication transports.

use crate::serve::{bench_designer, build_plans, round_robin, server_config, Tally};
use hwm_cluster::{
    ClusterRouter, FailoverEvent, LocalLink, NodeLink, RepHost, ShardGroup, ShardNode, TcpLink,
};
use hwm_metrics::{MetricKind, SeriesValue, Snapshot};
use hwm_service::{
    absorb_counters, ActivationServer, Client, CounterSums, FaultKind, FaultPlan, IcState,
    LocalClient, Registry, RegistryCounts, Request, Response, ServerConfig, ServerRole, TcpClient,
    TcpServer,
};
use std::fmt::Write as _;
use std::io;
use std::sync::Arc;

/// Fleet gauges the router must reproduce exactly.
const FLEET_GAUGES: &[&str] = &[
    "registry_ics",
    "registry_duplicates",
    "service_clock_ticks",
    "throttle_lockouts_total",
];

/// Parameters of one cluster simulation.
#[derive(Debug, Clone)]
pub struct ClusterSimConfig {
    /// Workload and fault-plan seed.
    pub seed: u64,
    /// Number of shards (replica groups).
    pub shards: usize,
    /// Followers per shard.
    pub replicas: usize,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub vnodes: usize,
    /// Clients in the workload.
    pub clients: usize,
    /// Dies fabricated per client.
    pub per_client: usize,
    /// Worker threads for plan generation (must not change anything).
    pub jobs: usize,
    /// Scheduled leader crashes (at most one per shard).
    pub crashes: usize,
    /// Carry replication frames over TCP instead of in-process links.
    pub tcp: bool,
    /// Arm distributed tracing on the faulted cluster (root contexts
    /// seeded from `seed`; the oracle and the fault-free reference stay
    /// untraced — tracing must not change any compared byte).
    pub trace: bool,
    /// Replication ack window: untraced requests coalesce this many
    /// batches per follower ship (1 = ship every request, the
    /// historical behavior). Traced requests always ship per-request,
    /// and every observation point drains first, so the compared bytes
    /// are window-independent.
    pub rep_window: usize,
}

impl ClusterSimConfig {
    /// The default experiment: 3 shards × (1 leader + 2 followers),
    /// 10 clients × 8 dies (200 requests), one leader crash.
    pub fn new(seed: u64) -> ClusterSimConfig {
        ClusterSimConfig {
            seed,
            shards: 3,
            replicas: 2,
            vnodes: 64,
            clients: 10,
            per_client: 8,
            jobs: 1,
            crashes: 1,
            tcp: false,
            trace: true,
            rep_window: 1,
        }
    }
}

/// One shard's contribution to the routing-distribution report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStat {
    /// Requests the router sent here.
    pub requests: u64,
    /// Journal events on the shard's (current) leader.
    pub events: u64,
    /// Rolling journal digest on the shard's (current) leader.
    pub digest: u64,
}

/// Everything one cluster simulation yields.
#[derive(Debug, Clone)]
pub struct ClusterSimOutcome {
    /// The parameters that produced this outcome.
    pub config: ClusterSimConfig,
    /// Ticks at which a leader was killed (drawn by the [`FaultPlan`]).
    pub crash_ticks: Vec<u64>,
    /// The router's failover timeline.
    pub timeline: Vec<FailoverEvent>,
    /// Per-shard routing distribution and final journal state.
    pub routing: Vec<ShardStat>,
    /// Oracle journal events.
    pub oracle_events: u64,
    /// Oracle rolling journal digest.
    pub oracle_digest: u64,
    /// Oracle registry counts.
    pub oracle_counts: RegistryCounts,
    /// Oracle response tally (the cluster's must be byte-equal anyway).
    pub oracle_tally: Tally,
    /// Merged audit stream size in bytes.
    pub audit_bytes: usize,
    /// Whether every response matched the oracle's, in order.
    pub responses_match: bool,
    /// Whether the shard-registry union matched the oracle registry.
    pub registry_match: bool,
    /// Whether the merged audit JSONL was byte-identical.
    pub audit_match: bool,
    /// Whether summed det-class counters matched.
    pub counters_match: bool,
    /// Whether the fleet gauges matched.
    pub gauges_match: bool,
    /// Whether every live replica's digest matched the fault-free
    /// cluster reference (and, with one shard, the oracle itself).
    pub digests_match: bool,
    /// The router's span ring as JSONL (empty when tracing is off) —
    /// byte-identical for any `--jobs` and over both transports.
    pub trace_jsonl: String,
}

impl ClusterSimOutcome {
    /// Whether the recovered cluster matched the oracle exactly.
    pub fn matches(&self) -> bool {
        self.responses_match
            && self.registry_match
            && self.audit_match
            && self.counters_match
            && self.gauges_match
            && self.digests_match
    }

    /// The deterministic report (golden-snapshot material: no ports, no
    /// pids, no wall-clock numbers).
    pub fn report(&self) -> String {
        let c = &self.config;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cluster seed {} — {} shards x (1 leader + {} followers), {} vnodes, {} clients x {} dies, {} crash(es), transport {}, rep window {}",
            c.seed,
            c.shards,
            c.replicas,
            c.vnodes,
            c.clients,
            c.per_client,
            c.crashes,
            if c.tcp { "tcp" } else { "in-process" },
            c.rep_window.max(1),
        );
        let _ = writeln!(out, "  crash ticks     {:?}", self.crash_ticks);
        if self.timeline.is_empty() {
            let _ = writeln!(out, "  failovers       none");
        }
        for f in &self.timeline {
            let _ = writeln!(
                out,
                "  failover        tick {}: shard {} leader died, promoted follower {} at watermark {}",
                f.tick, f.shard, f.promoted, f.watermark
            );
        }
        for (i, s) in self.routing.iter().enumerate() {
            let _ = writeln!(
                out,
                "  shard {i}         {:>4} requests, {:>4} events, digest {:#018x}",
                s.requests, s.events, s.digest
            );
        }
        let _ = writeln!(
            out,
            "  oracle          {:>4} requests, {:>4} events, digest {:#018x}, {} registered / {} unlocked / {} disabled / {} duplicates, {} keys delivered, {} audit bytes",
            self.oracle_tally.requests,
            self.oracle_events,
            self.oracle_digest,
            self.oracle_counts.registered,
            self.oracle_counts.unlocked,
            self.oracle_counts.disabled,
            self.oracle_counts.duplicates,
            self.oracle_tally.keys,
            self.audit_bytes,
        );
        let verdict = |ok: bool| if ok { "match" } else { "MISMATCH" };
        let _ = writeln!(out, "  responses       {}", verdict(self.responses_match));
        let _ = writeln!(out, "  registry union  {}", verdict(self.registry_match));
        let _ = writeln!(out, "  audit stream    {}", verdict(self.audit_match));
        let _ = writeln!(out, "  det counters    {}", verdict(self.counters_match));
        let _ = writeln!(out, "  fleet gauges    {}", verdict(self.gauges_match));
        let _ = writeln!(out, "  shard digests   {}", verdict(self.digests_match));
        let _ = writeln!(
            out,
            "  verdict         {}",
            if self.matches() { "MATCH" } else { "MISMATCH" }
        );
        out
    }
}

/// The fleet gauges of a deterministic snapshot, per `(name, labels)`.
fn fleet_gauges(snapshot: &Snapshot) -> CounterSums {
    let mut out = CounterSums::new();
    for f in &snapshot.deterministic().families {
        if f.kind != MetricKind::Gauge || !FLEET_GAUGES.contains(&f.name.as_str()) {
            continue;
        }
        for s in &f.series {
            if let SeriesValue::Int(v) = s.value {
                out.insert((f.name.clone(), s.labels.clone()), v);
            }
        }
    }
    out
}

/// A registry record reduced to its shard-independent fields — the
/// journal seq is shard-local by design (DESIGN.md §9) and excluded
/// from the union comparison.
type RecordKey = (String, String, String, u8, IcState);
type CloneKey = (String, String, String);

fn registry_union(servers: &[&Arc<ActivationServer>]) -> (Vec<RecordKey>, Vec<CloneKey>) {
    let mut records = Vec::new();
    let mut clones = Vec::new();
    for server in servers {
        server.with_registry(|r| {
            for rec in r.records() {
                records.push((
                    rec.ic.clone(),
                    rec.client.clone(),
                    rec.readout.clone(),
                    rec.group,
                    rec.state,
                ));
            }
            for c in r.clones() {
                clones.push((c.ic.clone(), c.client.clone(), c.prior.clone()));
            }
        });
    }
    records.sort_unstable();
    clones.sort_unstable();
    (records, clones)
}

/// One built cluster: the router plus handles to every replica (for the
/// oracle comparisons) and the TCP hosts keeping replication ports open.
struct ClusterWorld {
    router: Arc<ClusterRouter>,
    /// `nodes[shard][replica]`; replica 0 is the initial leader,
    /// replica `1 + i` is follower `i` in promotion order.
    nodes: Vec<Vec<Arc<ShardNode>>>,
    /// Held for their `Drop` (closing the replication listeners).
    _hosts: Vec<RepHost>,
}

fn replica_server(seed: u64, role: ServerRole) -> Arc<ActivationServer> {
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

fn build_cluster(config: &ClusterSimConfig, plan: Option<FaultPlan>) -> io::Result<ClusterWorld> {
    let mut nodes = Vec::with_capacity(config.shards);
    let mut hosts = Vec::new();
    let mut groups = Vec::with_capacity(config.shards);
    for shard in 0..config.shards {
        let leader = replica_server(config.seed, ServerRole::Leader);
        leader.enable_replication();
        leader.set_node_name(&format!("shard{shard}/leader"));
        let mut replicas = vec![Arc::new(ShardNode::new(shard as u64, leader))];
        for i in 0..config.replicas {
            let follower = replica_server(config.seed, ServerRole::Follower);
            // A promoted follower keeps its follower name: post-failover
            // spans show which replica actually did the work.
            follower.set_node_name(&format!("shard{shard}/f{i}"));
            replicas.push(Arc::new(ShardNode::new(shard as u64, follower)));
        }
        let mut links: Vec<Box<dyn NodeLink>> = Vec::with_capacity(replicas.len());
        for node in &replicas {
            if config.tcp {
                let host = RepHost::spawn("127.0.0.1:0", Arc::clone(node))?;
                links.push(Box::new(TcpLink::connect(host.addr())?));
                hosts.push(host);
            } else {
                links.push(Box::new(LocalLink::new(Arc::clone(node))));
            }
        }
        let leader_link = links.remove(0);
        groups.push(ShardGroup {
            leader: leader_link,
            followers: links,
        });
        nodes.push(replicas);
    }
    let router = Arc::new(ClusterRouter::new(groups, config.vnodes, plan));
    router.set_rep_window(config.rep_window.max(1) as u32)?;
    Ok(ClusterWorld {
        router,
        nodes,
        _hosts: hosts,
    })
}

/// Drives the schedule through the router, serially (the oracle order),
/// over the client transport the config asks for.
fn drive(world: &ClusterWorld, schedule: &[Request], tcp: bool) -> io::Result<Vec<Response>> {
    let mut responses = Vec::with_capacity(schedule.len());
    if tcp {
        let front = TcpServer::spawn("127.0.0.1:0", Arc::clone(&world.router))?;
        let mut client = TcpClient::connect(front.addr())?;
        for req in schedule {
            responses.push(
                client
                    .call(req)
                    .map_err(|e| io::Error::other(format!("cluster transport: {e}")))?,
            );
        }
    } else {
        let mut client = LocalClient::new(Arc::clone(&world.router));
        for req in schedule {
            responses.push(
                client
                    .call(req)
                    .map_err(|e| io::Error::other(format!("cluster transport: {e}")))?,
            );
        }
    }
    Ok(responses)
}

/// For each shard: the replica indices still alive (the initial leader
/// of a failed-over shard is dead and excluded).
fn live_replicas(config: &ClusterSimConfig, timeline: &[FailoverEvent]) -> Vec<Vec<usize>> {
    (0..config.shards)
        .map(|shard| {
            let failed = timeline.iter().any(|f| f.shard == shard);
            let first = usize::from(failed);
            (first..=config.replicas).collect()
        })
        .collect()
}

/// Runs one cluster simulation.
///
/// # Errors
///
/// Transport or replication failures (a harness bug, not a divergence);
/// a mismatch against the oracle is reported through
/// [`ClusterSimOutcome::matches`], never as an error.
pub fn run_cluster_sim(config: &ClusterSimConfig) -> io::Result<ClusterSimOutcome> {
    let _span = hwm_trace::span("cluster_sim.run");
    if config.crashes > 0 && config.replicas == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a leader crash needs at least one follower to promote",
        ));
    }
    if config.crashes > config.shards {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "at most one leader crash per shard",
        ));
    }
    let designer = bench_designer(config.seed);
    let plans = build_plans(
        &designer,
        config.clients,
        config.per_client,
        config.seed,
        config.jobs,
    );
    let schedule = round_robin(&plans);

    // --- Oracle: one plain server, no faults ----------------------------
    let oracle_server = Arc::new(ActivationServer::new(
        bench_designer(config.seed),
        Registry::in_memory(),
        server_config(),
    ));
    let mut oracle_client = LocalClient::new(Arc::clone(&oracle_server));
    let mut oracle_responses = Vec::with_capacity(schedule.len());
    for req in &schedule {
        oracle_responses.push(
            oracle_client
                .call(req)
                .map_err(|e| io::Error::other(format!("oracle transport: {e}")))?,
        );
    }
    let mut oracle_tally = Tally::default();
    for r in &oracle_responses {
        oracle_tally.absorb(r);
    }
    let mut oracle_counters = CounterSums::new();
    let oracle_snapshot = oracle_server.snapshot();
    absorb_counters(&mut oracle_counters, &oracle_snapshot);
    let oracle_audit = oracle_server.audit_jsonl();
    let (oracle_records, oracle_clones) = registry_union(&[&oracle_server]);

    // --- Reference: a fault-free cluster pins the per-shard digests -----
    let reference = build_cluster(config, None)?;
    drive(&reference, &schedule, false)?;
    let reference_digests: Vec<(u64, u64)> = reference
        .nodes
        .iter()
        .map(|replicas| replicas[0].server().with_registry(|r| (r.journal_len(), r.rolling_digest())))
        .collect();

    // --- The faulted cluster: one scheduled leader kill -----------------
    let plan = (config.crashes > 0).then(|| {
        let eligible: Vec<u64> = (1..=schedule.len() as u64).collect();
        FaultPlan::new(config.seed, FaultKind::ConnDrop, &eligible, config.crashes)
    });
    let crash_ticks = plan.as_ref().map(|p| p.crash_ticks.clone()).unwrap_or_default();
    let world = build_cluster(config, plan)?;
    if config.trace {
        world.router.set_trace_seed(Some(config.seed));
    }
    let responses = drive(&world, &schedule, config.tcp)?;
    // End-of-run replication barrier: any coalesced batches reach the
    // followers before their registries are compared (the snapshot and
    // Metrics paths drain too; this makes the contract explicit).
    world.router.sync_replication()?;
    let timeline = world.router.timeline();
    let trace_jsonl = world.router.trace_dump();

    // --- Compare --------------------------------------------------------
    let responses_match = responses == oracle_responses;

    let live = live_replicas(config, &timeline);
    let leaders: Vec<&Arc<ShardNode>> = world
        .nodes
        .iter()
        .enumerate()
        .map(|(shard, replicas)| &replicas[live[shard][0]])
        .collect();
    let leader_servers: Vec<&Arc<ActivationServer>> =
        leaders.iter().map(|n| n.server()).collect();
    let (records, clones) = registry_union(&leader_servers);
    let registry_match = records == oracle_records && clones == oracle_clones;

    let audit = world.router.audit_jsonl();
    let audit_match = audit == oracle_audit;

    let cluster_snapshot = world.router.snapshot();
    let mut cluster_counters = CounterSums::new();
    absorb_counters(&mut cluster_counters, &cluster_snapshot);
    let counters_match = cluster_counters == oracle_counters;
    let gauges_match = fleet_gauges(&cluster_snapshot) == fleet_gauges(&oracle_snapshot);

    // Every live replica of a shard must agree with the fault-free
    // reference; with one shard the reference is the oracle itself.
    let mut digests_match = true;
    let mut routing = Vec::with_capacity(config.shards);
    let counts = world.router.routing_counts();
    for (shard, replicas) in world.nodes.iter().enumerate() {
        let (want_events, want_digest) = reference_digests[shard];
        for &i in &live[shard] {
            let (events, digest) = replicas[i]
                .server()
                .with_registry(|r| (r.journal_len(), r.rolling_digest()));
            if events != want_events || digest != want_digest {
                digests_match = false;
            }
        }
        routing.push(ShardStat {
            requests: counts[shard],
            events: want_events,
            digest: want_digest,
        });
    }
    let (oracle_events, oracle_digest, oracle_counts) = oracle_server
        .with_registry(|r| (r.journal_len(), r.rolling_digest(), r.counts()));
    if config.shards == 1 {
        let s = &routing[0];
        if s.events != oracle_events || s.digest != oracle_digest {
            digests_match = false;
        }
    }

    Ok(ClusterSimOutcome {
        config: config.clone(),
        crash_ticks,
        timeline,
        routing,
        oracle_events,
        oracle_digest,
        oracle_counts,
        oracle_tally,
        audit_bytes: oracle_audit.len(),
        responses_match,
        registry_match,
        audit_match,
        counters_match,
        gauges_match,
        digests_match,
        trace_jsonl,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_matches_oracle_in_process() {
        let out = run_cluster_sim(&ClusterSimConfig::new(7)).expect("sim runs");
        assert_eq!(out.crash_ticks.len(), 1);
        assert_eq!(out.timeline.len(), 1, "the scheduled kill must fire");
        assert!(out.matches(), "mismatch:\n{}", out.report());
    }

    #[test]
    fn one_shard_cluster_is_byte_identical_to_the_oracle() {
        let mut config = ClusterSimConfig::new(11);
        config.shards = 1;
        let out = run_cluster_sim(&config).expect("sim runs");
        assert!(out.matches(), "mismatch:\n{}", out.report());
        assert_eq!(out.routing[0].digest, out.oracle_digest);
        assert_eq!(out.routing[0].events, out.oracle_events);
    }

    #[test]
    fn fault_free_cluster_needs_no_followers() {
        let mut config = ClusterSimConfig::new(3);
        config.crashes = 0;
        config.replicas = 0;
        let out = run_cluster_sim(&config).expect("sim runs");
        assert!(out.timeline.is_empty());
        assert!(out.matches(), "mismatch:\n{}", out.report());
    }

    #[test]
    fn traces_are_identical_across_jobs_and_transports() {
        let base = ClusterSimConfig::new(7);
        let out1 = run_cluster_sim(&base).expect("sim runs");
        assert!(!out1.trace_jsonl.is_empty(), "tracing is on by default");

        let mut jobs4 = ClusterSimConfig::new(7);
        jobs4.jobs = 4;
        let out4 = run_cluster_sim(&jobs4).expect("sim runs");
        assert_eq!(out1.trace_jsonl, out4.trace_jsonl, "jobs must not change traces");

        let mut tcp = ClusterSimConfig::new(7);
        tcp.tcp = true;
        let outt = run_cluster_sim(&tcp).expect("sim runs");
        assert_eq!(out1.trace_jsonl, outt.trace_jsonl, "transport must not change traces");

        // One span tree per routed request, each with exactly one root.
        let spans = hwm_trace::spans_from_jsonl(&out1.trace_jsonl).expect("dump parses");
        let trees = hwm_trace::collect_traces(&spans);
        assert_eq!(trees.len() as u64, out1.oracle_tally.requests);
        for t in &trees {
            assert_eq!(
                t.spans.iter().filter(|s| s.parent == 0).count(),
                1,
                "trace {:#x} must have exactly one root",
                t.trace_id
            );
        }
        // The leader-kill request keeps its trace id: the same tree
        // holds the failover subtree, the retry marker, and the
        // re-dispatched handling on the promoted follower.
        let crashed = trees
            .iter()
            .find(|t| t.spans.iter().any(|s| s.name == "failover"))
            .expect("the scheduled kill produces a failover trace");
        assert!(crashed.spans.iter().any(|s| s.name == "retry"));
        assert!(crashed.spans.iter().any(|s| s.name == "promote"));
        assert_eq!(crashed.root().expect("root").tick, out1.crash_ticks[0]);
        assert_eq!(
            crashed.tick_duration(),
            1,
            "failover subtree sits one tick before the root"
        );

        // Untraced runs yield no spans and still match the oracle.
        let mut off = ClusterSimConfig::new(7);
        off.trace = false;
        let out_off = run_cluster_sim(&off).expect("sim runs");
        assert!(out_off.matches(), "mismatch:\n{}", out_off.report());
        assert!(out_off.trace_jsonl.is_empty());
    }

    #[test]
    fn windowed_replication_matches_oracle_across_seeds_and_transports() {
        // The failover matrix with coalescing engaged: untraced runs so
        // batches actually queue, both replication transports. Three
        // seeds kill a leader mid-stream at window 4; the fault-free
        // window-8 row needs every follower to converge on its leader's
        // journal with no promotion in between.
        for (seed, crashes, window) in [(5, 1, 4), (19, 1, 4), (2024, 1, 4), (13, 0, 8)] {
            for tcp in [false, true] {
                let mut config = ClusterSimConfig::new(seed);
                config.tcp = tcp;
                config.trace = false;
                config.crashes = crashes;
                config.rep_window = window;
                let out = run_cluster_sim(&config).expect("sim runs");
                assert_eq!(out.timeline.len(), crashes, "seed {seed} kills fire");
                assert!(out.matches(), "seed {seed} tcp {tcp} mismatch:\n{}", out.report());
            }
        }
    }

    #[test]
    fn rep_window_never_changes_trace_bytes() {
        // Traced requests ship per-request regardless of window, so the
        // span dump (and everything else) is window-independent.
        let base = run_cluster_sim(&ClusterSimConfig::new(7)).expect("sim runs");
        let mut windowed = ClusterSimConfig::new(7);
        windowed.rep_window = 4;
        let out = run_cluster_sim(&windowed).expect("sim runs");
        assert!(out.matches(), "mismatch:\n{}", out.report());
        assert_eq!(out.trace_jsonl, base.trace_jsonl);
    }

    #[test]
    fn crash_without_followers_is_refused() {
        let mut config = ClusterSimConfig::new(3);
        config.replicas = 0;
        assert!(run_cluster_sim(&config).is_err());
    }
}
