//! Crash/restart recovery simulation (`results/recovery.txt`).
//!
//! Runs the serving workload against a file-backed activation server that
//! is killed and recovered at seeded fault ticks — one run per fault kind
//! — and prints the deterministic oracle-comparison report. The report is
//! a pure function of `(--seed, workload shape)`: byte-identical for any
//! `--jobs` value, so CI diffs it across seeds and thread counts.
//!
//! Flags (beyond the uniform `--seed/--jobs/--profile/--trace-out`):
//! `--clients N`, `--per-client N`, `--crashes N`, `--compact-every N`,
//! `--kinds a,b,c` (default: every fault kind). Exits 1 if
//! any recovered world diverges from its oracle.
//!
//! `--campaign clone` runs the clone-campaign alert simulation instead
//! (`results/alerts.txt`): the same seeded workload twice, quiet vs
//! attacked, with the stock fleet rules installed — exits 1 unless the
//! campaign fires `duplicate_readout_spike` and the baseline stays
//! silent. `--alerts-out PATH` additionally writes the campaign world's
//! alert-transition JSONL.

use hwm_bench::sim::{run_alert_sim, run_matrix, AlertSimConfig, SimConfig};
use hwm_service::FaultKind;

fn main() {
    let run = hwm_bench::run::BenchRun::start("crash_sim");
    if let Some(campaign) = hwm_bench::arg_value("--campaign") {
        if campaign != "clone" {
            eprintln!("crash_sim: unknown campaign {campaign:?} (try clone)");
            std::process::exit(2);
        }
        let config = AlertSimConfig {
            clients: hwm_bench::num_arg("--clients").unwrap_or(8),
            per_client: hwm_bench::num_arg("--per-client").unwrap_or(16),
            jobs: run.jobs(),
            ..AlertSimConfig::new(run.seed())
        };
        let alerts_out = hwm_bench::arg_value("--alerts-out");
        hwm_bench::reject_unknown_args();
        let outcome = run_alert_sim(&config);
        print!("{}", outcome.report());
        if let Some(path) = alerts_out {
            hwm_bench::write_artifact(path, "alerts", &outcome.campaign.alerts_jsonl);
        }
        run.finish();
        if !outcome.ok() {
            std::process::exit(1);
        }
        return;
    }
    let base = SimConfig {
        seed: run.seed(),
        clients: hwm_bench::num_arg("--clients").unwrap_or(8),
        per_client: hwm_bench::num_arg("--per-client").unwrap_or(8),
        kind: FaultKind::TornWrite, // placeholder; run_matrix sets the kind
        crashes: hwm_bench::num_arg("--crashes").unwrap_or(3),
        jobs: run.jobs(),
        compact_every: hwm_bench::num_arg("--compact-every").unwrap_or(0),
    };
    let kinds: Vec<FaultKind> = match hwm_bench::arg_value("--kinds") {
        Some(list) => list
            .split(',')
            .map(|s| {
                FaultKind::parse(s.trim()).unwrap_or_else(|| {
                    eprintln!("unknown fault kind: {s}");
                    std::process::exit(2);
                })
            })
            .collect(),
        None => FaultKind::ALL.to_vec(),
    };
    hwm_bench::reject_unknown_args();
    let dir = std::env::temp_dir().join(format!("hwm-crash-sim-{}", std::process::id()));
    let outcome = run_matrix(&base, &kinds, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok((report, all_match)) => {
            print!("{report}");
            run.finish();
            if !all_match {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("crash_sim failed: {e}");
            std::process::exit(1);
        }
    }
}
