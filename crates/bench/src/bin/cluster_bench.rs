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
//! `--overhead` to time the replication-window lever (windowed vs
//! unwindowed requests/s, recorded as `bench_meta.json` gauges),
//! `--traces-out PATH` to dump the router's span ring as
//! JSONL (one assembled span tree per routed request — the input
//! format of `hwm_traces`; byte-identical for any `--jobs` and either
//! transport). Exits 1 if the recovered cluster diverges from the
//! single-node oracle, 2 on bad flags.

use hwm_bench::cluster::{replication_window_rps, run_cluster_sim, ClusterSimConfig};
use hwm_trace::GaugeAgg;

fn main() {
    let run = hwm_bench::run::BenchRun::start("cluster_bench");
    let smoke = hwm_bench::flag_present("--smoke");
    let defaults = ClusterSimConfig::new(run.seed());
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
        ..defaults
    };
    let traces_out = hwm_bench::arg_value("--traces-out");
    // --overhead isolates the replication fan-out lever before the sim:
    // the same fault-free workload at window 1 vs the configured window
    // (default 8 when --rep-window was not raised), recorded as gauges.
    if hwm_bench::flag_present("--overhead") {
        let window = if config.rep_window > 1 { config.rep_window } else { 8 };
        let unwindowed = replication_window_rps(&config, 1);
        let windowed = replication_window_rps(&config, window);
        match (unwindowed, windowed) {
            (Ok(base), Ok(fast)) => {
                hwm_trace::record_gauge(
                    "cluster_throughput_rep_window_1_rps",
                    GaugeAgg::Set,
                    base as u64,
                );
                hwm_trace::record_gauge(
                    "cluster_throughput_rep_window_n_rps",
                    GaugeAgg::Set,
                    fast as u64,
                );
                hwm_trace::record_gauge(
                    "cluster_speedup_rep_window_milli",
                    GaugeAgg::Set,
                    (fast / base.max(1e-9) * 1000.0) as u64,
                );
                eprintln!(
                    "cluster_bench: replication window: {base:.0} req/s at window 1 | {fast:.0} req/s at window {window} ({:.2}x, followers converged)",
                    fast / base.max(1e-9),
                );
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("cluster_bench: replication-window overhead failed: {e}");
                std::process::exit(1);
            }
        }
    }
    match run_cluster_sim(&config) {
        Ok(outcome) => {
            if let Some(path) = &traces_out {
                let write = || -> std::io::Result<()> {
                    if let Some(parent) = std::path::Path::new(path)
                        .parent()
                        .filter(|p| !p.as_os_str().is_empty())
                    {
                        std::fs::create_dir_all(parent)?;
                    }
                    std::fs::write(path, &outcome.trace_jsonl)
                };
                if let Err(e) = write() {
                    eprintln!("warning: could not write traces to {path}: {e}");
                }
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
