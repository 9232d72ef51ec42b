//! The closed-form analyses: §4.2 power-up probabilities, Equation 1's
//! birthday table, §7.3 key diversity.
//!
//! Usage: `cargo run --release -p hwm-bench --bin analysis \
//!     [--seed N] [--profile] [--trace-out PATH]`

use hwm_bench::run::BenchRun;

fn main() {
    let run = BenchRun::start("analysis");
    hwm_bench::reject_unknown_args();
    println!("{}", hwm_bench::analysis::power_up_table());
    println!("{}", hwm_bench::analysis::picid_table());
    println!("{}", hwm_bench::analysis::key_diversity_table(run.seed()));
    println!("{}", hwm_bench::analysis::rub_stability_table(run.seed()));
    run.finish();
}
