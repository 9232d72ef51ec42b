//! Regression tests for the harness's determinism guarantee: every table
//! must be byte-identical no matter how many worker threads regenerate it,
//! because each work item draws from its own index-derived RNG and results
//! are placed by index, not by completion order.

use hwm_netlist::CellLibrary;
use hwm_synth::iscas::{self, BenchmarkProfile};

fn small_profiles() -> Vec<BenchmarkProfile> {
    ["s298", "s526", "s1238"]
        .iter()
        .map(|n| iscas::benchmark(n).unwrap())
        .collect()
}

#[test]
fn table1_is_byte_identical_across_jobs() {
    let lib = CellLibrary::generic();
    let profiles = small_profiles();
    let serial = hwm_bench::tables::overhead_rows(&profiles, &lib, 2024, 1)
        .map(|rows| hwm_bench::tables::table1(&rows))
        .unwrap();
    for jobs in [2, 4, 8] {
        let parallel = hwm_bench::tables::overhead_rows(&profiles, &lib, 2024, jobs)
            .map(|rows| hwm_bench::tables::table1(&rows))
            .unwrap();
        assert_eq!(serial, parallel, "table 1 diverged at --jobs {jobs}");
    }
}

#[test]
fn table3_is_byte_identical_across_jobs() {
    // A small grid keeps the test fast in debug builds; the cell seeding is
    // exactly the production formula (sweep is what run calls),
    // so divergence here means the real table drifts too.
    let rows = [(6usize, 0usize, "6"), (6, 1, "6 + bh")];
    let cols = [3usize, 4];
    let serial = hwm_bench::table3::sweep(&rows, &cols, 4, 20_000, 2, 2024, 1).unwrap();
    for jobs in [2, 5] {
        let parallel = hwm_bench::table3::sweep(&rows, &cols, 4, 20_000, 2, 2024, jobs).unwrap();
        assert_eq!(serial, parallel, "table 3 diverged at --jobs {jobs}");
    }
}

#[test]
fn table4_and_fig8_are_byte_identical_across_jobs() {
    let lib = CellLibrary::generic();
    let profiles = small_profiles();
    let t4_serial = hwm_bench::tables::blackhole_rows(&profiles, &lib, 2024, 1)
        .map(|rows| hwm_bench::tables::table4(&rows))
        .unwrap();
    let t4_parallel = hwm_bench::tables::blackhole_rows(&profiles, &lib, 2024, 3)
        .map(|rows| hwm_bench::tables::table4(&rows))
        .unwrap();
    assert_eq!(t4_serial, t4_parallel);
    let f_serial = hwm_bench::figures::fig8(&profiles, &lib, 2024, 1)
        .map(|f| hwm_bench::figures::render(&f))
        .unwrap();
    let f_parallel = hwm_bench::figures::fig8(&profiles, &lib, 2024, 3)
        .map(|f| hwm_bench::figures::render(&f))
        .unwrap();
    assert_eq!(f_serial, f_parallel);
}
