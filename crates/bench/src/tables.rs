//! Tables 1, 2 and 4: synthesis overhead of the BFSM additions.
//!
//! Pipeline per benchmark circuit: generate the calibrated original
//! netlist, synthesize the lock circuitry for a 12-FF and a 15-FF added
//! STG, merge, and measure. The lock hardware is independent of the
//! original design, exactly as in the paper (its absolute delta is roughly
//! constant, so the *relative* overhead decays with circuit size).

use hwm_fsm::Stg;
use hwm_metering::hardware::{added_netlist, OverheadReport};
use hwm_metering::{Bfsm, Designer, LockOptions, MeteringError};
use hwm_netlist::{CellLibrary, DesignStats, Netlist};
use hwm_synth::iscas::{self, BenchmarkProfile};
use std::sync::Arc;

/// Input width used for the overhead tables (Table 3 shows the input count
/// does not move the overhead; the paper synthesized one added STG per FF
/// count).
pub const TABLE_INPUT_BITS: usize = 4;

/// Builds the lock blueprint with `modules` 3-bit modules and
/// `black_holes` black holes. The original design is a placeholder — the
/// lock circuitry (what the tables measure) does not depend on it.
///
/// # Errors
///
/// Propagates construction failures.
pub fn lock_blueprint(
    modules: usize,
    black_holes: usize,
    seed: u64,
) -> Result<Arc<Bfsm>, MeteringError> {
    let designer = Designer::new(
        Stg::ring_counter(4, 1),
        LockOptions {
            added_modules: modules,
            input_bits: Some(TABLE_INPUT_BITS),
            black_holes,
            dummy_ffs: 3,
            // Table 4 isolates the bare black-hole cost; the remote-disable
            // matcher is a separate §8 feature.
            remote_disable: false,
            // The paper searches module configurations for low overhead.
            module_search_candidates: 8,
            ..LockOptions::default()
        },
        seed,
    )?;
    Ok(designer.blueprint().clone())
}

/// The synthesized lock circuitry of [`lock_blueprint`]`(modules,
/// black_holes, seed)` under `lib`.
fn lock_netlist(
    modules: usize,
    black_holes: usize,
    seed: u64,
    lib: &CellLibrary,
) -> Result<Netlist, MeteringError> {
    let bfsm = lock_blueprint(modules, black_holes, seed)?;
    added_netlist(&bfsm, lib)
}

/// One row of Tables 1/2: the original circuit plus its 12-FF and 15-FF
/// boosted variants.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// The benchmark profile (carries the paper's published numbers).
    pub profile: BenchmarkProfile,
    /// Measured stats of the generated original circuit.
    pub base: DesignStats,
    /// Overheads with the 12-FF added STG.
    pub ff12: OverheadReport,
    /// Overheads with the 15-FF added STG.
    pub ff15: OverheadReport,
}

/// Runs the Table 1/2 pipeline over the given profiles, fanned across
/// `jobs` worker threads, one work item per benchmark circuit. The two
/// locks are synthesized once per call and each circuit is generated once;
/// every per-circuit computation depends only on `(profile, seed)`, so the
/// rows are byte-identical for every `jobs`.
///
/// # Errors
///
/// Propagates construction/synthesis failures.
pub fn overhead_rows(
    profiles: &[BenchmarkProfile],
    lib: &CellLibrary,
    seed: u64,
    jobs: usize,
) -> Result<Vec<OverheadRow>, MeteringError> {
    let lock12 = lock_netlist(4, 1, seed, lib)?;
    let lock15 = lock_netlist(5, 1, seed ^ 0x51, lib)?;
    crate::parallel::try_run_indexed(jobs, profiles.len(), |i| {
        let p = &profiles[i];
        let base = iscas::generate(p, lib, seed ^ 0xC1AC)?;
        let merged12 = base.netlist.merged_with(&lock12, "lock_");
        let merged15 = base.netlist.merged_with(&lock15, "lock_");
        Ok(OverheadRow {
            profile: p.clone(),
            base: base.stats,
            ff12: OverheadReport {
                base: base.stats,
                boosted: merged12.stats(lib),
            },
            ff15: OverheadReport {
                base: base.stats,
                boosted: merged15.stats(lib),
            },
        })
    })
}

/// Formats Table 1 (area overhead).
pub fn table1(rows: &[OverheadRow]) -> String {
    let header = [
        "circuit", "in", "out", "FFs", "area", "area+12", "ovh12", "area+15", "ovh15",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.profile.name.to_string(),
                r.profile.inputs.to_string(),
                r.profile.outputs.to_string(),
                r.profile.ffs.to_string(),
                format!("{:.0}", r.base.area),
                format!("{:.0}", r.ff12.boosted.area),
                format!("{:.2}", r.ff12.area()),
                format!("{:.0}", r.ff15.boosted.area),
                format!("{:.2}", r.ff15.area()),
            ]
        })
        .collect();
    crate::render_table(&header, &body)
}

/// Formats Table 2 (delay and power overhead).
pub fn table2(rows: &[OverheadRow]) -> String {
    let header = [
        "circuit", "delay", "power", "delay+12", "d-ovh12", "power+12", "p-ovh12", "delay+15",
        "d-ovh15", "power+15", "p-ovh15",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.profile.name.to_string(),
                format!("{:.2}", r.base.delay),
                format!("{:.1}", r.base.power),
                format!("{:.2}", r.ff12.boosted.delay),
                format!("{:.2}", r.ff12.delay()),
                format!("{:.1}", r.ff12.boosted.power),
                format!("{:.2}", r.ff12.power()),
                format!("{:.2}", r.ff15.boosted.delay),
                format!("{:.2}", r.ff15.delay()),
                format!("{:.1}", r.ff15.boosted.power),
                format!("{:.2}", r.ff15.power()),
            ]
        })
        .collect();
    crate::render_table(&header, &body)
}

/// One row of Table 4: the marginal cost of adding one 2-state black hole.
#[derive(Debug, Clone)]
pub struct BlackHoleRow {
    /// Benchmark name.
    pub name: String,
    /// Fractional area cost of one hole on the 12-FF boosted design.
    pub area12: f64,
    /// Fractional power cost on the 12-FF boosted design.
    pub power12: f64,
    /// Fractional area cost on the 15-FF boosted design.
    pub area15: f64,
    /// Fractional power cost on the 15-FF boosted design.
    pub power15: f64,
}

/// Runs the Table 4 pipeline, boosted-with-hole versus boosted-without,
/// fanned across `jobs` worker threads. Each circuit is merged with each
/// of the four locks once, and each merge is measured once.
///
/// # Errors
///
/// Propagates construction/synthesis failures.
pub fn blackhole_rows(
    profiles: &[BenchmarkProfile],
    lib: &CellLibrary,
    seed: u64,
    jobs: usize,
) -> Result<Vec<BlackHoleRow>, MeteringError> {
    let lock12_plain = lock_netlist(4, 0, seed, lib)?;
    let lock12_hole = lock_netlist(4, 1, seed, lib)?;
    let lock15_plain = lock_netlist(5, 0, seed ^ 0x51, lib)?;
    let lock15_hole = lock_netlist(5, 1, seed ^ 0x51, lib)?;
    crate::parallel::try_run_indexed(jobs, profiles.len(), |i| {
        let p = &profiles[i];
        let base = iscas::generate(p, lib, seed ^ 0xC1AC)?;
        // (area, power) cost of the hole, relative to the lock without it.
        let cost = |plain: &Netlist, hole: &Netlist| {
            let without = base.netlist.merged_with(plain, "lock_").stats(lib);
            let with = base.netlist.merged_with(hole, "lock_").stats(lib);
            let frac = |with: f64, without: f64| (with - without) / without;
            (frac(with.area, without.area), frac(with.power, without.power))
        };
        let (area12, power12) = cost(&lock12_plain, &lock12_hole);
        let (area15, power15) = cost(&lock15_plain, &lock15_hole);
        Ok(BlackHoleRow {
            name: p.name.to_string(),
            area12,
            power12,
            area15,
            power15,
        })
    })
}

/// Formats Table 4.
pub fn table4(rows: &[BlackHoleRow]) -> String {
    let header = ["circuit", "area12", "power12", "area15", "power15"];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.4}", r.area12),
                format!("{:.4}", r.power12),
                format!("{:.4}", r.area15),
                format!("{:.4}", r.power15),
            ]
        })
        .collect();
    crate::render_table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_shapes_match_paper() {
        let lib = CellLibrary::generic();
        let profiles: Vec<BenchmarkProfile> = ["s298", "s1238", "s9234"]
            .iter()
            .map(|n| iscas::benchmark(n).unwrap())
            .collect();
        let rows = overhead_rows(&profiles, &lib, 2024, 1).unwrap();
        // 1. Area and power overheads decrease monotonically with circuit
        //    size (Table 2's p-ovh12 reads 2.55, 0.80 and 0.11 here).
        assert!(rows[0].ff12.area() > rows[1].ff12.area());
        assert!(rows[1].ff12.area() > rows[2].ff12.area());
        assert!(rows[0].ff12.power() > rows[1].ff12.power());
        assert!(rows[1].ff12.power() > rows[2].ff12.power());
        // 2. The 15-FF lock costs more than the 12-FF lock.
        for r in &rows {
            assert!(r.ff15.area() > r.ff12.area(), "{}", r.profile.name);
            assert!(r.ff15.power() >= r.ff12.power(), "{}", r.profile.name);
        }
        // 3. Delay overhead is ~0 for circuits slower than the lock.
        let big = &rows[2];
        assert!(big.ff12.delay().abs() < 0.01, "delay overhead {}", big.ff12.delay());
        // 4. The largest circuit's overhead is positive and well under 10%.
        let area = big.ff12.area();
        assert!(area > 0.0 && area < 0.10, "area overhead {area}");
    }

    #[test]
    fn blackhole_cost_is_small() {
        let lib = CellLibrary::generic();
        let profiles: Vec<BenchmarkProfile> = ["s298", "s9234"]
            .iter()
            .map(|n| iscas::benchmark(n).unwrap())
            .collect();
        let rows = blackhole_rows(&profiles, &lib, 2025, 1).unwrap();
        for r in &rows {
            assert!(r.area12.abs() < 0.08, "{}: {}", r.name, r.area12);
            assert!(r.power12.abs() < 0.08, "{}: {}", r.name, r.power12);
        }
        // Larger base → smaller fraction.
        assert!(rows[1].area12.abs() <= rows[0].area12.abs() + 1e-9);
    }

    #[test]
    fn tables_render() {
        let lib = CellLibrary::generic();
        let profiles = vec![iscas::benchmark("s298").unwrap()];
        let rows = overhead_rows(&profiles, &lib, 2026, 1).unwrap();
        let t1 = table1(&rows);
        assert!(t1.contains("s298"));
        let t2 = table2(&rows);
        assert!(t2.contains("p-ovh15"));
    }
}
