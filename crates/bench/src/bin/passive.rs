//! Supplementary experiments for the DAC 2001 passive metering scheme.
//!
//! Usage: `cargo run --release -p hwm-bench --bin passive \
//!     [--seed N] [--profile] [--trace-out PATH]`

use hwm_bench::run::BenchRun;

fn main() {
    let run = BenchRun::start("passive");
    hwm_bench::reject_unknown_args();
    println!(
        "{}",
        hwm_bench::passive_exp::variant_space_table(16).expect("variant table")
    );
    println!(
        "{}",
        hwm_bench::passive_exp::audit_power_table(run.seed()).expect("audit table")
    );
    run.finish();
}
