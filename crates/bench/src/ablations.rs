//! Ablation studies of the scheme's design choices.
//!
//! Each ablation removes or sweeps one mechanism and measures the security
//! metric it exists for:
//!
//! 1. **Override edges per module** — brute-force hitting time vs the extra
//!    input-dependent edges of Figure 4(c);
//! 2. **Cross-links** — key diversity (distinct keys found) with and
//!    without the inter-module links of §5.2;
//! 3. **Black-hole count** — brute-force absorption rate;
//! 4. **SFFSM group bits** — replay-attack residual success rate.
//!
//! Every swept configuration is an independent work item whose seed is a
//! pure function of the configuration, so each ablation renders a
//! byte-identical table for every worker count.

use hwm_attacks::brute::brute_force_stats;
use hwm_fsm::Stg;
use hwm_metering::added::AddedStg;
use hwm_metering::{diversity, protocol, Designer, Foundry, LockOptions, MeteringError};
use std::fmt::Write as _;

fn designer_with(
    modules: usize,
    overrides: usize,
    links: usize,
    holes: usize,
    group_bits: usize,
    seed: u64,
) -> Result<Designer, MeteringError> {
    Designer::new(
        Stg::ring_counter(5, 1),
        LockOptions {
            added_modules: modules,
            overrides_per_module: overrides,
            links_per_module: links,
            black_holes: holes,
            group_bits,
            dummy_ffs: 0,
            input_bits: Some(3),
            ..LockOptions::default()
        },
        seed,
    )
}

/// Ablation 1: brute-force mean attempts vs added modules — the knob that
/// actually buys security (each module multiplies the state space by 8).
/// Overrides and links reshape the topology but their effect on hitting
/// time is non-monotone (shortcuts can point either way), which is exactly
/// why the paper sizes security by FF count, not by edge count.
///
/// One worker per module count.
///
/// # Errors
///
/// Propagates construction failures.
pub fn modules_vs_hitting(
    runs: usize,
    seed: u64,
    jobs: usize,
) -> Result<String, MeteringError> {
    let mut out = String::new();
    let _ = writeln!(out, "ablation 1 — added modules vs brute-force attempts (cap 2·10⁶)");
    let header = ["modules", "added FFs", "mean attempts", "unlock rate"];
    let sweep = [2usize, 3, 4];
    let rows = crate::parallel::try_run_indexed(jobs, sweep.len(), |i| {
        let modules = sweep[i];
        let mut total = 0.0;
        let mut success = 0usize;
        let mut n = 0usize;
        for inst in 0..3u64 {
            let designer = designer_with(modules, 2, 2, 0, 0, seed + inst * 77)?;
            let mut foundry = Foundry::new(designer.blueprint().clone(), seed ^ inst);
            let stats =
                brute_force_stats(runs, 2_000_000, || foundry.fabricate_one(), seed + inst);
            total += stats.mean_attempts * stats.runs as f64;
            success += stats.successes;
            n += stats.runs;
        }
        Ok::<_, MeteringError>(vec![
            modules.to_string(),
            (3 * modules).to_string(),
            format!("{:.0}", total / n as f64),
            format!("{:.2}", success as f64 / n as f64),
        ])
    })?;
    let _ = write!(out, "{}", crate::render_table(&header, &rows));
    Ok(out)
}

/// Ablation 2: what the cross-links buy. The transposition-rich added STG
/// is already saturated with cycles (key diversity maxes out with or
/// without links), so the discriminating metric is the *key length*: links
/// let higher modules move without full carry alignment, shortening the
/// designer's unlocking sequences.
///
/// One worker per link count.
///
/// # Errors
///
/// Propagates construction failures.
pub fn links_vs_diversity(seed: u64, jobs: usize) -> Result<String, MeteringError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ablation 2 — cross-links vs key length and diversity (12 FFs)"
    );
    let header = ["links/module", "mean key length", "max key length", "distinct keys (of 40)"];
    let sweep = [0usize, 1, 2, 4];
    let rows = crate::parallel::try_run_indexed(jobs, sweep.len(), |i| {
        let links = sweep[i];
        let added = AddedStg::build_verified(4, 3, 2, links, seed, 1)?;
        let dist = added.distances_to_exit(0);
        let reachable: Vec<usize> = dist.iter().copied().filter(|&d| d != usize::MAX).collect();
        let mean = reachable.iter().sum::<usize>() as f64 / reachable.len() as f64;
        let max = reachable.iter().copied().max().unwrap_or(0);
        let keys = diversity::distinct_key_count(&added, 123, 40, seed);
        Ok::<_, MeteringError>(vec![
            links.to_string(),
            format!("{mean:.1}"),
            max.to_string(),
            keys.to_string(),
        ])
    })?;
    let _ = write!(out, "{}", crate::render_table(&header, &rows));
    Ok(out)
}

/// Ablation 3: black-hole count vs absorption of the brute-force walk.
///
/// One worker per hole count.
///
/// # Errors
///
/// Propagates construction failures.
pub fn holes_vs_absorption(
    runs: usize,
    seed: u64,
    jobs: usize,
) -> Result<String, MeteringError> {
    let mut out = String::new();
    let _ = writeln!(out, "ablation 3 — black holes vs brute-force absorption (12 FFs, cap 10⁵)");
    let header = ["holes", "unlock rate", "trapped rate"];
    let sweep = [0usize, 1, 2, 3];
    let rows = crate::parallel::try_run_indexed(jobs, sweep.len(), |i| {
        let holes = sweep[i];
        let designer = designer_with(4, 2, 2, holes, 0, seed)?;
        let mut foundry = Foundry::new(designer.blueprint().clone(), seed ^ 0xA);
        let stats =
            brute_force_stats(runs, 100_000, || foundry.fabricate_one(), seed ^ holes as u64);
        Ok::<_, MeteringError>(vec![
            holes.to_string(),
            format!("{:.2}", stats.successes as f64 / stats.runs as f64),
            format!("{:.2}", stats.trapped_fraction),
        ])
    })?;
    let _ = write!(out, "{}", crate::render_table(&header, &rows));
    Ok(out)
}

/// Ablation 4: SFFSM group bits vs replay success rate.
///
/// One worker per group-bit count.
///
/// # Errors
///
/// Propagates construction failures.
pub fn groups_vs_replay(trials: usize, seed: u64, jobs: usize) -> Result<String, MeteringError> {
    let mut out = String::new();
    let _ = writeln!(out, "ablation 4 — SFFSM group bits vs key-replay success");
    let header = ["group bits", "replay success", "theory 1/2^g"];
    let sweep = [0usize, 1, 2, 3];
    let rows = crate::parallel::try_run_indexed(jobs, sweep.len(), |i| {
        let group_bits = sweep[i];
        let mut designer = designer_with(3, 2, 2, 0, group_bits, seed)?;
        let mut foundry = Foundry::new(designer.blueprint().clone(), seed ^ 0xB);
        let mut successes = 0usize;
        for _ in 0..trials {
            let mut donor = foundry.fabricate_one();
            let locked = donor.scan_flip_flops();
            protocol::activate(&mut designer, &mut donor)?;
            let key = donor.stored_key().expect("stored").clone();
            let mut victim = foundry.fabricate_one();
            // The CAR replay: load the donor's locked snapshot + its key.
            victim.load_flip_flops(&locked)?;
            if victim.apply_key(&key).is_ok() && victim.is_unlocked() {
                successes += 1;
            }
        }
        Ok::<_, MeteringError>(vec![
            group_bits.to_string(),
            format!("{:.2}", successes as f64 / trials as f64),
            format!("{:.3}", 1.0 / (1u64 << group_bits) as f64),
        ])
    })?;
    let _ = write!(out, "{}", crate::render_table(&header, &rows));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holes_ablation_shows_absorption() {
        let t = holes_vs_absorption(6, 91, 1).unwrap();
        // The 0-hole row must not be fully trapped; ≥1-hole rows must trap.
        let lines: Vec<&str> = t.lines().collect();
        let zero: Vec<&str> = lines[3].split_whitespace().collect();
        assert_eq!(zero[2], "0.00", "{t}");
        let two: Vec<&str> = lines[5].split_whitespace().collect();
        let trapped: f64 = two[2].parse().unwrap();
        assert!(trapped > 0.7, "{t}");
    }

    #[test]
    fn groups_ablation_tracks_theory() {
        let t = groups_vs_replay(12, 92, 1).unwrap();
        let lines: Vec<&str> = t.lines().collect();
        let g0: Vec<&str> = lines[3].split_whitespace().collect();
        let s0: f64 = g0[1].parse().unwrap();
        assert!(s0 > 0.95, "group 0 replay must always work: {t}");
        let g3: Vec<&str> = lines[6].split_whitespace().collect();
        let s3: f64 = g3[1].parse().unwrap();
        assert!(s3 < 0.5, "8 groups should stop most replays: {t}");
    }

    #[test]
    fn links_ablation_reports() {
        let t = links_vs_diversity(93, 1).unwrap();
        assert!(t.contains("distinct keys"));
    }

    #[test]
    fn ablations_are_jobs_invariant() {
        assert_eq!(
            holes_vs_absorption(4, 94, 1).unwrap(),
            holes_vs_absorption(4, 94, 3).unwrap()
        );
        assert_eq!(
            groups_vs_replay(6, 95, 1).unwrap(),
            groups_vs_replay(6, 95, 4).unwrap()
        );
    }
}
