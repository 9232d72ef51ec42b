//! Golden-file tests: the checked-in `results/` snapshots must stay in
//! sync with the code that regenerates them.
//!
//! Tables 1/2/4 are checked by *recomputation*: each benchmark circuit is
//! an independent work item seeded only by `(profile, seed)`, so
//! regenerating a subset of rows at the production seed must reproduce the
//! snapshot's rows exactly. Table 3's production sweep is too expensive
//! for a test, so its snapshot is held to structural and tolerance-band
//! invariants instead (the paper's qualitative claims: attempts grow with
//! added FFs, black holes force `N/R`).

use hwm_netlist::CellLibrary;
use hwm_synth::iscas;
use std::path::PathBuf;

/// Production seed used by regen_results.sh (the binaries' default).
const GOLDEN_SEED: u64 = 2024;

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()))
}

/// The snapshot line for a benchmark, split into columns.
fn snapshot_row(table: &str, name: &str) -> Vec<String> {
    table
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .unwrap_or_else(|| panic!("no row for {name} in snapshot"))
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

#[test]
fn table1_snapshot_rows_reproduce() {
    let lib = CellLibrary::generic();
    let snapshot = golden("table1.txt");
    let profiles: Vec<_> = ["s298", "s1238", "s9234"]
        .iter()
        .map(|n| iscas::benchmark(n).unwrap())
        .collect();
    let rows = hwm_bench::tables::overhead_rows(&profiles, &lib, GOLDEN_SEED, 1).unwrap();
    let rendered = hwm_bench::tables::table1(&rows);
    for p in &profiles {
        assert_eq!(
            snapshot_row(&rendered, p.name),
            snapshot_row(&snapshot, p.name),
            "results/table1.txt is stale for {} — rerun regen_results.sh",
            p.name
        );
    }
}

#[test]
fn table2_snapshot_rows_reproduce() {
    let lib = CellLibrary::generic();
    let snapshot = golden("table2.txt");
    let profiles: Vec<_> = ["s526", "s9234"]
        .iter()
        .map(|n| iscas::benchmark(n).unwrap())
        .collect();
    let rows = hwm_bench::tables::overhead_rows(&profiles, &lib, GOLDEN_SEED, 1).unwrap();
    let rendered = hwm_bench::tables::table2(&rows);
    for p in &profiles {
        assert_eq!(
            snapshot_row(&rendered, p.name),
            snapshot_row(&snapshot, p.name),
            "results/table2.txt is stale for {} — rerun regen_results.sh",
            p.name
        );
    }
}

#[test]
fn table4_snapshot_rows_reproduce() {
    let lib = CellLibrary::generic();
    let snapshot = golden("table4.txt");
    let profiles: Vec<_> = ["s298", "s9234"]
        .iter()
        .map(|n| iscas::benchmark(n).unwrap())
        .collect();
    let rows = hwm_bench::tables::blackhole_rows(&profiles, &lib, GOLDEN_SEED, 1).unwrap();
    let rendered = hwm_bench::tables::table4(&rows);
    for p in &profiles {
        assert_eq!(
            snapshot_row(&rendered, p.name),
            snapshot_row(&snapshot, p.name),
            "results/table4.txt is stale for {} — rerun regen_results.sh",
            p.name
        );
    }
}

#[test]
fn table3_snapshot_matches_paper_shape() {
    let snapshot = golden("table3.txt");
    let lines: Vec<&str> = snapshot.lines().collect();
    // Header declares the 3..=8 input-bit sweep.
    assert!(lines[1].contains("b=3") && lines[1].contains("b=8"), "{snapshot}");
    let row = |label: &str| -> Vec<String> {
        lines
            .iter()
            .find(|l| l.trim_start().starts_with(label))
            .unwrap_or_else(|| panic!("missing row {label:?}"))
            .split_whitespace()
            .skip(label.split_whitespace().count())
            .map(str::to_string)
            .collect()
    };
    let mean = |cells: &[String]| -> f64 {
        let nums: Vec<f64> = cells.iter().filter_map(|c| c.parse().ok()).collect();
        assert!(!nums.is_empty(), "row has no numeric cells: {cells:?}");
        nums.iter().sum::<f64>() / nums.len() as f64
    };
    let r12 = row("12");
    let r15 = row("15 + bh"); // guard: "15" alone would match "15 + bh" first
    let r15_plain = row("15 ");
    let r18 = row("18");
    // Tolerance bands around the paper's qualitative claims: mean attempts
    // grow by well over 2× per 3 added FFs (8× state space).
    assert!(mean(&r15_plain) > 2.0 * mean(&r12), "12→15 FFs: {r12:?} vs {r15_plain:?}");
    assert!(mean(&r18) > 2.0 * mean(&r15_plain), "15→18 FFs: {r15_plain:?} vs {r18:?}");
    // Every 12-FF cell unlocked within the cap at the production run count.
    assert!(r12.iter().all(|c| c != "N/R"), "{r12:?}");
    // Black-hole rows are dominated by absorption: mostly N/R cells.
    for (label, cells) in [("15 + bh", &r15), ("12 + 2 bh", &row("12 + 2 bh"))] {
        let nr = cells.iter().filter(|c| c.as_str() == "N/R").count();
        assert!(nr * 2 >= cells.len(), "{label}: expected mostly N/R, got {cells:?}");
    }
}

#[test]
fn fig8_snapshot_fits_decay() {
    let snapshot = golden("fig8.txt");
    // The fitted R² of both curves is published in the snapshot; the 1/x
    // model must keep explaining the overhead decay well.
    for line in snapshot.lines().filter(|l| l.contains("R² =")) {
        let r2: f64 = line
            .split("R² =")
            .nth(1)
            .and_then(|s| s.trim().trim_end_matches(')').trim().parse().ok())
            .unwrap_or_else(|| panic!("unparsable fit line: {line}"));
        assert!(r2 > 0.9, "fit degraded in snapshot: {line}");
    }
    assert!(snapshot.contains("fig 8a fit") && snapshot.contains("fig 8b fit"));
}
