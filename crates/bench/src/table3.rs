//! Table 3: average brute-force attempts to unlock the added STG.
//!
//! The paper sweeps added STGs of 12/15/18 FFs and 3–8 input bits, runs
//! 10,000 brute-force attacks capped at 10⁶ guesses each, and reports the
//! average guess count (`N/R` when nothing unlocks within the cap). Rows
//! with one and two black holes show the walk being absorbed.

use hwm_attacks::brute::{brute_force_stats, BruteForceStats};
use hwm_fsm::Stg;
use hwm_metering::{Designer, Foundry, LockOptions, MeteringError};

/// One configuration of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table3Config {
    /// Added flip-flops (12, 15, 18 → 4, 5, 6 modules).
    pub added_ffs: usize,
    /// Number of black holes.
    pub black_holes: usize,
    /// Input bits (3–8).
    pub input_bits: usize,
}

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Table3Cell {
    /// The configuration.
    pub config: Table3Config,
    /// Brute-force statistics.
    pub stats: BruteForceStats,
}

impl Table3Cell {
    /// The printed value: mean attempts, or `N/R`.
    pub fn display(&self) -> String {
        if self.stats.not_reached() {
            "N/R".to_string()
        } else {
            format!("{:.0}", self.stats.mean_attempts)
        }
    }
}

/// Runs one cell of the sweep, averaging over several independent added-STG
/// instances: the hitting time of a single random topology has heavy-tailed
/// variance, so a one-instance cell can land an order of magnitude off its
/// expectation (the paper smooths this with 10,000 runs per cell). The
/// `runs` attacks are split evenly over `instances` locks.
///
/// # Errors
///
/// Propagates construction failures.
pub fn run_cell(
    config: Table3Config,
    runs: usize,
    cap: u64,
    instances: usize,
    seed: u64,
) -> Result<Table3Cell, MeteringError> {
    assert!(config.added_ffs.is_multiple_of(3), "added FFs must be a multiple of 3");
    let instances = instances.max(1);
    let runs_per = (runs / instances).max(1);
    let mut agg: Option<BruteForceStats> = None;
    for inst in 0..instances {
        let inst_seed = seed.wrapping_add((inst as u64).wrapping_mul(0x9E37_79B9));
        let designer = Designer::new(
            Stg::ring_counter(4, 1),
            LockOptions {
                added_modules: config.added_ffs / 3,
                input_bits: Some(config.input_bits),
                black_holes: config.black_holes,
                dummy_ffs: 0,
                ..LockOptions::default()
            },
            inst_seed,
        )?;
        let mut foundry = Foundry::new(designer.blueprint().clone(), inst_seed ^ 0xFAB);
        let stats = brute_force_stats(runs_per, cap, || foundry.fabricate_one(), inst_seed ^ 0xA77);
        agg = Some(match agg {
            None => stats,
            Some(prev) => merge(prev, stats),
        });
    }
    Ok(Table3Cell {
        config,
        stats: agg.expect("at least one instance"),
    })
}

fn merge(a: BruteForceStats, b: BruteForceStats) -> BruteForceStats {
    let runs = a.runs + b.runs;
    BruteForceStats {
        runs,
        successes: a.successes + b.successes,
        mean_attempts: (a.mean_attempts * a.runs as f64 + b.mean_attempts * b.runs as f64)
            / runs.max(1) as f64,
        trapped_fraction: (a.trapped_fraction * a.runs as f64 + b.trapped_fraction * b.runs as f64)
            / runs.max(1) as f64,
    }
}

/// The paper's row set: {12, 15, 18 FFs} plain, then 12/15 FFs with one
/// black hole and 12 FFs with two.
pub fn paper_rows() -> Vec<(usize, usize, &'static str)> {
    vec![
        (12, 0, "12"),
        (15, 0, "15"),
        (18, 0, "18"),
        (12, 1, "12 + bh"),
        (15, 1, "15 + bh"),
        (12, 2, "12 + 2 bh"),
    ]
}

/// Runs the full sweep and renders it like the paper's Table 3, with the
/// 36 sweep cells fanned across `jobs` worker threads. Each cell's seed is
/// a pure function of its configuration, so the rendered table is
/// byte-identical for every `jobs` value.
///
/// # Errors
///
/// Propagates construction failures.
pub fn run(runs: usize, cap: u64, seed: u64, jobs: usize) -> Result<String, MeteringError> {
    sweep(&paper_rows(), &(3..=8).collect::<Vec<_>>(), runs, cap, 4, seed, jobs)
}

/// The parameterized sweep behind [`run`]: `rows` are
/// `(added_ffs, black_holes, label)` triples, `cols` the input-bit
/// counts. Each of the `rows × cols` cells is one work item whose seed is
/// a pure function of its configuration (independent of grid position), so
/// shrinking the grid does not reseed the surviving cells.
///
/// # Errors
///
/// Propagates construction failures.
pub fn sweep(
    rows: &[(usize, usize, &str)],
    cols: &[usize],
    runs: usize,
    cap: u64,
    instances: usize,
    seed: u64,
    jobs: usize,
) -> Result<String, MeteringError> {
    let mut header: Vec<String> = vec!["bits".to_string()];
    header.extend(cols.iter().map(|b| format!("b={b}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let items: Vec<(usize, usize, usize)> = rows
        .iter()
        .flat_map(|&(ffs, holes, _)| cols.iter().map(move |&b| (ffs, holes, b)))
        .collect();
    let cells = crate::parallel::try_run_indexed(jobs, items.len(), |i| {
        let (ffs, holes, b) = items[i];
        run_cell(
            Table3Config {
                added_ffs: ffs,
                black_holes: holes,
                input_bits: b,
            },
            runs,
            cap,
            instances,
            seed ^ ((ffs as u64) << 32) ^ ((holes as u64) << 16) ^ b as u64,
        )
    })?;
    let body: Vec<Vec<String>> = rows
        .iter()
        .enumerate()
        .map(|(r, (_, _, label))| {
            let mut row = vec![label.to_string()];
            row.extend(
                cells[r * cols.len()..(r + 1) * cols.len()]
                    .iter()
                    .map(Table3Cell::display),
            );
            row
        })
        .collect();
    Ok(crate::render_table(&header_refs, &body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_runs_and_reports() {
        // Small config so the test stays fast: 6 FFs unlock quickly.
        let cell = run_cell(
            Table3Config {
                added_ffs: 6,
                black_holes: 0,
                input_bits: 3,
            },
            5,
            500_000,
            4,
            9,
        )
        .unwrap();
        assert!(!cell.stats.not_reached(), "{:?}", cell.stats);
        assert!(cell.stats.mean_attempts > 1.0);
    }

    #[test]
    fn black_hole_cell_reports_nr() {
        let cell = run_cell(
            Table3Config {
                added_ffs: 6,
                black_holes: 2,
                input_bits: 3,
            },
            5,
            50_000,
            4,
            10,
        )
        .unwrap();
        assert_eq!(cell.display(), "N/R");
        assert!(cell.stats.trapped_fraction > 0.5);
    }

    #[test]
    fn attempts_grow_with_ffs() {
        let small = run_cell(
            Table3Config {
                added_ffs: 6,
                black_holes: 0,
                input_bits: 4,
            },
            5,
            2_000_000,
            4,
            11,
        )
        .unwrap();
        let big = run_cell(
            Table3Config {
                added_ffs: 9,
                black_holes: 0,
                input_bits: 4,
            },
            5,
            2_000_000,
            4,
            11,
        )
        .unwrap();
        assert!(
            big.stats.mean_attempts > 2.0 * small.stats.mean_attempts,
            "{} vs {}",
            small.stats.mean_attempts,
            big.stats.mean_attempts
        );
    }
}
