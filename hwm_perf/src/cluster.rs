//! `cluster_2x1`: the first 20,000 requests of the `register_18ff`
//! stream sent through a [`ClusterRouter`] over 2 shards × (1 leader + 1
//! follower), with in-memory registries, 64 virtual nodes per shard,
//! replication window 1 and every replica behind a [`RepHost`] reached
//! over a [`TcpLink`]. The client-to-router hop is a [`LocalClient`].

use crate::report::WorkloadResult;
use crate::serving::{self, Stream};
use hwm_cluster::{ClusterRouter, LocalLink, NodeLink, RepHost, ShardGroup, ShardNode, TcpLink};
use hwm_metering::Designer;
use hwm_service::{ActivationServer, Client, LocalClient, Registry, ServerConfig, ServerRole};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shards in the cluster.
pub const SHARDS: usize = 2;
/// Followers per shard.
pub const FOLLOWERS: usize = 1;
/// Virtual nodes per shard on the hash ring.
pub const VNODES: usize = 64;

/// A running cluster. Dropping it drops the router (closing its links)
/// before the replication hosts, which then join their handlers.
pub struct Cluster {
    /// The router.
    pub router: Arc<ClusterRouter>,
    /// `nodes[shard][replica]`: replica 0 leads, the rest follow.
    pub nodes: Vec<Vec<Arc<ShardNode>>>,
    _hosts: Vec<RepHost>,
}

impl Cluster {
    /// Builds the cluster around copies of `designer`; `tcp` picks
    /// [`TcpLink`]s to [`RepHost`]s over [`LocalLink`]s.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn start(designer: &Designer, tcp: bool) -> Result<Cluster, String> {
        let mut nodes = Vec::with_capacity(SHARDS);
        let mut hosts = Vec::new();
        let mut groups = Vec::with_capacity(SHARDS);
        for shard in 0..SHARDS {
            let replicas: Vec<Arc<ShardNode>> = (0..=FOLLOWERS)
                .map(|r| {
                    let role = if r == 0 {
                        ServerRole::Leader
                    } else {
                        ServerRole::Follower
                    };
                    let server = ActivationServer::new(
                        designer.clone(),
                        Registry::in_memory(),
                        ServerConfig {
                            role,
                            ..serving::server_config()
                        },
                    );
                    if r == 0 {
                        server.enable_replication();
                    }
                    Arc::new(ShardNode::new(shard as u64, Arc::new(server)))
                })
                .collect();
            let mut links: Vec<Box<dyn NodeLink>> = Vec::with_capacity(replicas.len());
            for node in &replicas {
                if tcp {
                    let host = RepHost::spawn("127.0.0.1:0", Arc::clone(node))
                        .map_err(|e| format!("bind: {e}"))?;
                    links.push(Box::new(
                        TcpLink::connect(host.addr()).map_err(|e| format!("connect: {e}"))?,
                    ));
                    hosts.push(host);
                } else {
                    links.push(Box::new(LocalLink::new(Arc::clone(node))));
                }
            }
            let leader = links.remove(0);
            groups.push(ShardGroup {
                leader,
                followers: links,
            });
            nodes.push(replicas);
        }
        let router = Arc::new(ClusterRouter::new(groups, VNODES, None));
        router.set_rep_window(1).map_err(|e| e.message)?;
        Ok(Cluster {
            router,
            nodes,
            _hosts: hosts,
        })
    }

    /// Ships any queued replication and returns, per shard, whether every
    /// follower's journal (length and digest) equals its leader's.
    ///
    /// # Errors
    ///
    /// A follower refused its entries.
    pub fn followers_converged(&self) -> Result<Vec<bool>, String> {
        self.router.sync_replication().map_err(|e| e.message)?;
        Ok(self
            .nodes
            .iter()
            .map(|replicas| {
                let journal = |n: &Arc<ShardNode>| {
                    n.server()
                        .with_registry(|r| (r.journal_len(), r.rolling_digest()))
                };
                let leader = journal(&replicas[0]);
                replicas[1..].iter().all(|f| journal(f) == leader)
            })
            .collect())
    }
}

/// The cluster's share of the registration stream: the first 20,000
/// requests (16,000 registrations with their status reads).
pub fn stream(designer: &Designer, seed: u64, quick: bool) -> Stream {
    serving::register_stream(
        designer,
        seed,
        serving::Sizes::new(quick).registrations * 2 / 5,
    )
}

/// Runs passes until the budget is spent (at least two). Set-up builds
/// the lock and the cluster and sends the warm-up; every reply must equal
/// the single-node oracle's and every follower must match its leader
/// after the final replication barrier.
pub fn run(quick: bool, seconds: Duration, seed: u64) -> WorkloadResult {
    let mut result = WorkloadResult::new("cluster_2x1");
    let modules = serving::lock_modules(quick, serving::REGISTER_MODULES);
    let designer = serving::new_designer(modules);
    let stream = stream(&designer, seed, quick);
    let want = serving::oracle(designer, &stream).replies;
    let n = stream.reqs.len() as u64;
    crate::run_passes(Instant::now() + seconds, 2, |pass| {
        let what = format!("pass {pass}");
        let t0 = Instant::now();
        let set_up = Cluster::start(&serving::new_designer(modules), true).and_then(|cluster| {
            let mut client = LocalClient::new(Arc::clone(&cluster.router));
            for req in &stream.warmup {
                client.call(req).map_err(|e| format!("warm-up: {e}"))?;
            }
            Ok((cluster, client))
        });
        let (cluster, mut client) = match set_up {
            Ok(c) => c,
            Err(e) => {
                result.checks.attempted += n;
                result.checks.fail(n, format!("{what}: set-up failed: {e}"));
                return;
            }
        };
        result.sample("setup_s", t0.elapsed().as_secs_f64());
        let t = Instant::now();
        let (responses, latencies, err) = serving::closed_loop(&mut client, &stream.reqs);
        let run = t.elapsed();
        result.checks.attempted += n;
        if let Some(e) = err {
            result.checks.fail(0, format!("{what}: transport: {e}"));
        }
        serving::record_closed(&mut result, run, responses.len(), latencies);
        serving::compare_responses(&mut result.checks, &responses, &want, &what);
        match cluster.followers_converged() {
            Ok(shards) => {
                for (shard, ok) in shards.iter().enumerate() {
                    if !ok {
                        result.checks.fail(
                            1,
                            format!("{what}: shard {shard} follower diverged from its leader"),
                        );
                    }
                }
            }
            Err(e) => result
                .checks
                .fail(1, format!("{what}: replication barrier: {e}")),
        }
        drop(client);
        drop(cluster);
    });
    result.ops = crate::layers::serving_ops(&stream.reqs, &stream.kinds, &want);
    result.notes.push(format!(
        "{n} requests per pass; every reply equals the single-node oracle's; followers equal leaders after sync"
    ));
    result
}
