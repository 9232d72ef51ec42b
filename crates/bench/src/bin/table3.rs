//! Regenerates the paper's Table 3 (brute-force attempts to unlock).
//!
//! The paper averages 10,000 runs capped at 1,000,000 guesses; that takes a
//! while, so the run count is a flag:
//!
//! `cargo run --release -p hwm-bench --bin table3 \
//!     [--runs N] [--cap N] [--seed N] [--jobs N] [--profile] [--trace-out PATH]`

use hwm_bench::run::BenchRun;

fn main() {
    let run = BenchRun::start("table3");
    let runs: usize = hwm_bench::num_arg("--runs").unwrap_or(100);
    let cap: u64 = hwm_bench::num_arg("--cap").unwrap_or(2_000_000);
    hwm_bench::reject_unknown_args();
    println!(
        "Table 3 — average brute-force attempts ({runs} runs per cell, cap {cap}; paper: 10000 runs)"
    );
    let table = hwm_bench::table3::run(runs, cap, run.seed(), run.jobs()).expect("table 3 sweep");
    print!("{table}");
    run.finish();
}
