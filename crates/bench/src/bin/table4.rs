//! Regenerates the paper's Table 4 (black-hole overhead).
//!
//! Usage: `cargo run --release -p hwm-bench --bin table4 \
//!     [--seed N] [--small] [--jobs N] [--profile] [--trace-out PATH]`

use hwm_bench::run::BenchRun;
use hwm_netlist::CellLibrary;
use hwm_synth::iscas;

fn main() {
    let run = BenchRun::start("table4");
    let small = hwm_bench::flag_present("--small");
    hwm_bench::reject_unknown_args();
    let profiles = if small {
        iscas::small_benchmarks()
    } else {
        iscas::paper_benchmarks()
    };
    let lib = CellLibrary::generic();
    let rows = hwm_bench::tables::blackhole_rows(&profiles, &lib, run.seed(), run.jobs())
        .expect("table 4 pipeline");
    println!("Table 4 — fractional area/power cost of adding one 2-state black hole");
    print!("{}", hwm_bench::tables::table4(&rows));
    run.finish();
}
