//! Ablation studies: what each mechanism of the scheme buys.
//!
//! Usage: `cargo run --release -p hwm-bench --bin ablations \
//!     [--seed N] [--runs N] [--jobs N] [--profile] [--trace-out PATH]`

use hwm_bench::run::BenchRun;

fn main() {
    let run = BenchRun::start("ablations");
    let (seed, jobs) = (run.seed(), run.jobs());
    let runs: usize = hwm_bench::num_arg("--runs").unwrap_or(20);
    hwm_bench::reject_unknown_args();
    println!(
        "{}",
        hwm_bench::ablations::modules_vs_hitting(runs, seed, jobs).expect("ablation 1")
    );
    println!(
        "{}",
        hwm_bench::ablations::links_vs_diversity(seed, jobs).expect("ablation 2")
    );
    println!(
        "{}",
        hwm_bench::ablations::holes_vs_absorption(runs, seed, jobs).expect("ablation 3")
    );
    println!(
        "{}",
        hwm_bench::ablations::groups_vs_replay(runs.max(16), seed, jobs).expect("ablation 4")
    );
    run.finish();
}
