//! Regenerates the paper's Table 2 (delay and power overhead).
//!
//! Usage: `cargo run --release -p hwm-bench --bin table2 \
//!     [--seed N] [--small] [--jobs N] [--profile] [--trace-out PATH]`

use hwm_bench::run::BenchRun;
use hwm_netlist::CellLibrary;
use hwm_synth::iscas;

fn main() {
    let run = BenchRun::start("table2");
    let small = hwm_bench::flag_present("--small");
    hwm_bench::reject_unknown_args();
    let profiles = if small {
        iscas::small_benchmarks()
    } else {
        iscas::paper_benchmarks()
    };
    let lib = CellLibrary::generic();
    let rows = hwm_bench::tables::overhead_rows(&profiles, &lib, run.seed(), run.jobs())
        .expect("table 2 pipeline");
    println!("Table 2 — delay and power overhead of active hardware metering");
    print!("{}", hwm_bench::tables::table2(&rows));
    run.finish();
}
