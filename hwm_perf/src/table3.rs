//! `table3_15ff`: row "15" of the paper's Table 3 — average brute-force
//! guesses to unlock a 15-FF added STG (5 modules) at 3..8 input bits,
//! 100 runs per cell over 4 lock instances, capped at 2·10⁶ guesses.
//!
//! Every (cell, instance) job keeps the seed the repository's Table 3
//! sweep gives it, so the row must reproduce `results/table3.txt` cell for
//! cell; `--seed` only permutes the order in which the 24 jobs run.

use crate::report::WorkloadResult;
use crate::stats;
use hwm_attacks::brute::{brute_force, run_seed};
use hwm_metering::{Designer, Foundry, LockOptions};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Master seed of the published Table 3 (`table3 --seed` default).
const SWEEP_SEED: u64 = 2024;
/// Attack runs per cell.
const RUNS: usize = 100;
/// Lock instances per cell (runs are split evenly between them).
const INSTANCES: usize = 4;
/// Guess cap per attack.
pub const CAP: u64 = 2_000_000;

/// A Table 3 row: its added flip-flops and the golden text of each cell,
/// by input-bit count.
pub struct Row {
    /// Added flip-flops (3 per module).
    pub ffs: usize,
    /// `(input bits, golden cell text)`.
    pub cells: &'static [(usize, &'static str)],
}

/// Row "15" of `results/table3.txt`.
pub const ROW_15: Row = Row {
    ffs: 15,
    cells: &[
        (3, "65712"),
        (4, "74293"),
        (5, "69964"),
        (6, "57325"),
        (7, "63438"),
        (8, "55891"),
    ],
};

/// The first two cells of row "12" — the `--quick` stand-in.
pub const ROW_12_QUICK: Row = Row {
    ffs: 12,
    cells: &[(3, "6916"), (4, "9073")],
};

/// The row a run measures.
pub fn row(quick: bool) -> &'static Row {
    if quick {
        &ROW_12_QUICK
    } else {
        &ROW_15
    }
}

/// The seed of lock instance `inst` of the cell at `(ffs, b)`, exactly as
/// the repository's sweep derives it (no black holes).
pub fn instance_seed(ffs: usize, b: usize, inst: usize) -> u64 {
    let cell = SWEEP_SEED ^ ((ffs as u64) << 32) ^ b as u64;
    cell.wrapping_add((inst as u64).wrapping_mul(0x9E37_79B9))
}

/// The lock of one job: a 4-state ring counter boosted with `ffs / 3`
/// modules at `b` input bits, no black holes, no dummy flip-flops.
pub fn lock(ffs: usize, b: usize, seed: u64) -> Designer {
    Designer::new(
        hwm_fsm::Stg::ring_counter(4, 1),
        LockOptions {
            added_modules: ffs / 3,
            input_bits: Some(b),
            black_holes: 0,
            dummy_ffs: 0,
            ..LockOptions::default()
        },
        seed,
    )
    .expect("Table 3 lock options construct")
}

/// Mean guesses of one instance's runs, merged across instances in
/// instance order with the sweep's own arithmetic (so the printed cell is
/// byte-identical).
#[derive(Debug, Clone, Copy, Default)]
struct CellStats {
    runs: usize,
    successes: usize,
    mean: f64,
}

impl CellStats {
    fn merge(self, other: CellStats) -> CellStats {
        if self.runs == 0 {
            return other;
        }
        let runs = self.runs + other.runs;
        CellStats {
            runs,
            successes: self.successes + other.successes,
            mean: (self.mean * self.runs as f64 + other.mean * other.runs as f64) / runs as f64,
        }
    }

    fn display(&self) -> String {
        if self.successes == 0 {
            "N/R".to_string()
        } else {
            format!("{:.0}", self.mean)
        }
    }
}

/// One pass over the row: every job's lock construction (set-up) and
/// attacks (run).
struct Pass {
    setup: Duration,
    wall: Duration,
    attack_ns: Vec<u64>,
    guesses: u64,
    cells: Vec<String>,
}

fn one_pass(row: &Row, order: &[(usize, usize)]) -> Pass {
    let runs_per = RUNS / INSTANCES;
    let mut per_job = vec![vec![CellStats::default(); INSTANCES]; row.cells.len()];
    let mut setup = Duration::ZERO;
    let mut attack_ns = Vec::with_capacity(order.len() * runs_per);
    let mut guesses = 0;
    let start = Instant::now();
    for &(cell, inst) in order {
        let b = row.cells[cell].0;
        let seed = instance_seed(row.ffs, b, inst);
        let t = Instant::now();
        let designer = lock(row.ffs, b, seed);
        let mut foundry = Foundry::new(designer.blueprint().clone(), seed ^ 0xFAB);
        setup += t.elapsed();
        let (mut total, mut successes) = (0u64, 0usize);
        for i in 0..runs_per {
            let t = Instant::now();
            let mut chip = foundry.fabricate_one();
            let mut rng = StdRng::seed_from_u64(run_seed(seed ^ 0xA77, i as u64));
            let out = brute_force(&mut chip, CAP, &mut rng);
            attack_ns.push(t.elapsed().as_nanos() as u64);
            total += out.attempts;
            successes += usize::from(out.unlocked);
        }
        guesses += total;
        per_job[cell][inst] = CellStats {
            runs: runs_per,
            successes,
            mean: total as f64 / runs_per as f64,
        };
    }
    let wall = start.elapsed();
    let cells = per_job
        .iter()
        .map(|insts| {
            insts
                .iter()
                .fold(CellStats::default(), |a, s| a.merge(*s))
                .display()
        })
        .collect();
    Pass {
        setup,
        wall,
        attack_ns,
        guesses,
        cells,
    }
}

/// Runs the row until the budget is spent (at least once). Set-up is the
/// lock construction of all jobs; run time is the rest of the pass; an
/// operation is one attack (fabricate a chip, guess until it unlocks).
pub fn run(quick: bool, seconds: Duration, seed: u64) -> WorkloadResult {
    let mut result = WorkloadResult::new("table3_15ff");
    let row = row(quick);
    let mut order: Vec<(usize, usize)> = (0..row.cells.len())
        .flat_map(|c| (0..INSTANCES).map(move |i| (c, i)))
        .collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let golden: Vec<&str> = row.cells.iter().map(|c| c.1).collect();
    let mut guesses_per_s = Vec::new();
    let mut cells = Vec::new();
    crate::run_passes(Instant::now() + seconds, 1, |_| {
        let mut pass = one_pass(row, &order);
        let run = pass.wall - pass.setup;
        result.sample("setup_s", pass.setup.as_secs_f64());
        result.sample("run_s", run.as_secs_f64());
        result.sample(
            "throughput",
            pass.attack_ns.len() as f64 / run.as_secs_f64(),
        );
        result.latency_count = pass.attack_ns.len();
        result.sample("p50_ms", stats::percentile_ms(&mut pass.attack_ns, 50.0));
        result.sample("p99_ms", stats::percentile_ms(&mut pass.attack_ns, 99.0));
        guesses_per_s.push(pass.guesses as f64 / run.as_secs_f64());
        result.checks.attempted += (row.cells.len() * RUNS) as u64;
        for ((b, want), got) in row.cells.iter().zip(&pass.cells) {
            if got != want {
                result.checks.fail(
                    RUNS as u64,
                    format!("row {} cell b={b}: got {got}, golden {want}", row.ffs),
                );
            }
        }
        result.ops = vec![
            ("locks", order.len() as f64),
            ("attacks", (order.len() * (RUNS / INSTANCES)) as f64),
            ("guesses", pass.guesses as f64),
        ];
        cells = pass.cells;
    });
    result.notes.push(format!(
        "row {}: {} (golden: {}); {:.3} M guesses/s",
        row.ffs,
        cells.join(" "),
        golden.join(" "),
        stats::median(&guesses_per_s) / 1e6
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_match_the_repository_sweep() {
        // table3::sweep_jobs: seed ^ (ffs << 32) ^ (holes << 16) ^ b, then
        // run_cell adds inst * 0x9E37_79B9.
        assert_eq!(instance_seed(15, 3, 0), 2024 ^ (15 << 32) ^ 3);
        assert_eq!(
            instance_seed(15, 8, 2),
            (2024u64 ^ (15 << 32) ^ 8) + 2 * 0x9E37_79B9
        );
    }

    #[test]
    fn cells_merge_like_the_sweep() {
        let a = CellStats {
            runs: 25,
            successes: 25,
            mean: 10.0,
        };
        let b = CellStats {
            runs: 25,
            successes: 0,
            mean: 30.0,
        };
        let m = CellStats::default().merge(a).merge(b);
        assert_eq!(
            (m.runs, m.successes, m.display()),
            (50, 25, "20".to_string())
        );
        assert_eq!(
            CellStats {
                runs: 4,
                successes: 0,
                mean: 2e6
            }
            .display(),
            "N/R"
        );
    }

    #[test]
    fn golden_rows_match_the_published_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/table3.txt");
        let text = std::fs::read_to_string(path).expect("results/table3.txt");
        for row in [&ROW_15, &ROW_12_QUICK] {
            let line = text
                .lines()
                .find(|l| l.split_whitespace().next() == Some(&row.ffs.to_string()))
                .expect("row present");
            let published: Vec<&str> = line.split_whitespace().skip(1).collect();
            for (i, (_, cell)) in row.cells.iter().enumerate() {
                assert_eq!(published[i], *cell, "row {} cell {i}", row.ffs);
            }
        }
    }
}
