//! Regenerates the paper's Figures 8a/8b: % power and area overhead versus
//! circuit size, with the fitted decay curves.
//!
//! Usage: `cargo run --release -p hwm-bench --bin fig8 \
//!     [--seed N] [--jobs N] [--profile] [--trace-out PATH]`

use hwm_bench::run::BenchRun;
use hwm_netlist::CellLibrary;
use hwm_synth::iscas;

fn main() {
    let run = BenchRun::start("fig8");
    hwm_bench::reject_unknown_args();
    let lib = CellLibrary::generic();
    let profiles = iscas::paper_benchmarks();
    let fig =
        hwm_bench::figures::fig8(&profiles, &lib, run.seed(), run.jobs()).expect("fig 8 pipeline");
    println!("Figures 8a/8b — overhead vs circuit size (+15 FF added STG)");
    print!("{}", hwm_bench::figures::render(&fig));
    run.finish();
}
