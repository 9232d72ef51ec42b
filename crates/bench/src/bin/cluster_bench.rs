//! Sharded-cluster simulation (`results/cluster.txt`).
//!
//! Routes the serving workload through a consistent-hash cluster router
//! fronting replicated shards, kills one shard leader at a seeded tick,
//! and prints the deterministic oracle-comparison report: routing
//! distribution, failover timeline and the match verdicts. The report
//! is a pure function of `(--seed, topology, workload shape)`:
//! byte-identical for any `--jobs` value, so CI diffs it across thread
//! counts and pins it in `results/cluster.txt`.
//!
//! Flags (beyond the uniform `--seed/--jobs/--profile/--trace-out`):
//! `--shards N` (default 3), `--replicas N` followers per shard
//! (default 2), `--vnodes N` (default 64), `--clients N`,
//! `--per-client N`, `--crashes N` (default 1), `--tcp` to carry the
//! replication frames over real sockets, `--rep-window N` to coalesce
//! untraced replication batches (default 1; every compared byte is
//! window-independent), `--smoke` for the small CI workload,
//! `--traces-out PATH` to arm tracing on the faulted cluster and dump
//! the router's span ring as JSONL (one assembled span tree per routed
//! request — the input format of `hwm_traces`; byte-identical for any
//! `--jobs` and either transport). Traced requests always replicate one
//! by one, so `--rep-window` coalesces only in a run without
//! `--traces-out`. Exits 1 if the recovered cluster diverges from the
//! single-node oracle, 2 on bad flags.

use hwm_bench::cluster::{run_cluster_sim, ClusterSimConfig};

fn main() {
    let run = hwm_bench::run::BenchRun::start("cluster_bench");
    let smoke = hwm_bench::flag_present("--smoke");
    let defaults = ClusterSimConfig::new(run.seed());
    let traces_out = hwm_bench::arg_value("--traces-out");
    let (clients, per_client) = if smoke {
        (6, 4)
    } else {
        (defaults.clients, defaults.per_client)
    };
    let config = ClusterSimConfig {
        shards: hwm_bench::num_arg("--shards").unwrap_or(defaults.shards),
        replicas: hwm_bench::num_arg("--replicas").unwrap_or(defaults.replicas),
        vnodes: hwm_bench::num_arg("--vnodes").unwrap_or(defaults.vnodes),
        clients: hwm_bench::num_arg("--clients").unwrap_or(clients),
        per_client: hwm_bench::num_arg("--per-client").unwrap_or(per_client),
        crashes: hwm_bench::num_arg("--crashes").unwrap_or(defaults.crashes),
        jobs: run.jobs(),
        tcp: hwm_bench::flag_present("--tcp"),
        rep_window: hwm_bench::num_arg("--rep-window").unwrap_or(defaults.rep_window),
        // --traces-out arms tracing; without it the faulted cluster runs
        // untraced, so --rep-window coalesces there too.
        trace: traces_out.is_some(),
        ..defaults
    };
    match run_cluster_sim(&config) {
        Ok(outcome) => {
            if let Some(path) = &traces_out {
                hwm_bench::write_artifact(path, "traces", &outcome.trace_jsonl);
            }
            print!("{}", outcome.report());
            if outcome.matches() {
                // The greppable CI assertion: the recovered fleet's
                // summed counters equal the fault-free oracle's.
                println!("counters sum matches single-node oracle");
            }
            run.finish();
            if !outcome.matches() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("cluster_bench failed: {e}");
            std::process::exit(1);
        }
    }
}
