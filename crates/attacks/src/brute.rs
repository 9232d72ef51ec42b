//! Attack (i): brute force (§6.1, quantified in the paper's Table 3).
//!
//! Bob applies random input vectors hoping to stumble into the functional
//! reset state.

use hwm_metering::Chip;
use rand::Rng;

/// Result of a brute-force run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BruteForceOutcome {
    /// Whether the chip ended up unlocked.
    pub unlocked: bool,
    /// Whether the walk fell into a black hole.
    pub trapped: bool,
    /// Input vectors applied before termination.
    pub attempts: u64,
}

/// One random guess as an input value: `width` fair coin flips, the
/// `i`-th drawn becoming bit `i`. Every flip is drawn, so the RNG stream
/// is the one a `width`-bit input vector would consume; flips past bit 63
/// are dropped, as a locked chip reads only its low added-STG input bits.
///
/// Each flip is the sign bit of one raw draw `x`, cleared meaning 1:
/// `random_bool(0.5)` tests `(x >> 11) · 2⁻⁵³ < 0.5`, an exact product
/// of a 53-bit integer and a power of two, which holds exactly when
/// `x >> 11 < 2⁵²`, i.e. when bit 63 of `x` is clear.
///
/// Always inlined, so a caller passing a constant `width` gets the draws
/// unrolled with no loop counter and no bit-63 test ([`brute_force`]).
#[inline(always)]
pub fn random_guess<R: Rng + ?Sized>(width: usize, rng: &mut R) -> u64 {
    let mut v = 0u64;
    for i in 0..width {
        // Shifted in, not branched on: a coin flip is unpredictable.
        let bit = (rng.next_u64() >> 63) ^ 1;
        if i < 64 {
            v |= bit << i;
        }
    }
    v
}

/// Evaluates `$body` with `$w` bound to the input width `$b` as a
/// constant, one arm per width in `1..=8` (the added STG's range), so
/// that the choice is made once, outside the loop `$body` runs.
macro_rules! with_input_width {
    ($b:expr, $w:ident => $body:expr) => {
        match $b {
            1 => with_input_width!(@arm 1, $w => $body),
            2 => with_input_width!(@arm 2, $w => $body),
            3 => with_input_width!(@arm 3, $w => $body),
            4 => with_input_width!(@arm 4, $w => $body),
            5 => with_input_width!(@arm 5, $w => $body),
            6 => with_input_width!(@arm 6, $w => $body),
            7 => with_input_width!(@arm 7, $w => $body),
            8 => with_input_width!(@arm 8, $w => $body),
            b => unreachable!("added-STG input width {b} outside 1..=8"),
        }
    };
    (@arm $k:literal, $w:ident => $body:expr) => {{
        const $w: usize = $k;
        $body
    }};
}

/// Random-input brute force against one chip, capped at `max_guesses`
/// (the paper uses 1,000,000): one [`random_guess`] per clock cycle while
/// the chip is locked ([`Chip::walk_locked`]).
///
/// A locked chip reads only the added STG's low input bits, so each
/// guess packs that many coins, a width fixed once per attack, and
/// draws and drops the coins of the chip's remaining inputs, keeping
/// the RNG stream that of a full `random_guess` per guess.
pub fn brute_force<R: Rng + ?Sized>(
    chip: &mut Chip,
    max_guesses: u64,
    rng: &mut R,
) -> BruteForceOutcome {
    let width = chip.blueprint().num_inputs();
    let attempts = with_input_width!(chip.blueprint().added().input_bits(), B => {
        chip.walk_locked(max_guesses, || {
            let v = random_guess(B, rng);
            for _ in B..width {
                rng.next_u64();
            }
            v
        })
    });
    let trapped = chip.is_trapped();
    BruteForceOutcome {
        unlocked: chip.is_unlocked(),
        trapped,
        // Absorbed: the attacker, who cannot see the trap, keeps burning
        // the remaining guesses, and the run reports N/R.
        attempts: if trapped { max_guesses } else { attempts },
    }
}

/// Statistics of repeated brute-force runs (one fresh chip per run) — the
/// generator behind each cell of Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct BruteForceStats {
    /// Number of runs.
    pub runs: usize,
    /// Runs that unlocked within the cap.
    pub successes: usize,
    /// Mean attempts over all runs (capped runs count the full cap, as in
    /// the paper's averages).
    pub mean_attempts: f64,
    /// Fraction of runs absorbed by black holes.
    pub trapped_fraction: f64,
}

impl BruteForceStats {
    /// Whether the cell prints as `N/R` (nothing unlocked within the cap).
    pub fn not_reached(&self) -> bool {
        self.successes == 0
    }
}

/// Derives run `index`'s RNG seed from a batch's master seed. The
/// golden-ratio multiply spreads consecutive indices over the whole 64-bit
/// space (on top of the seeder's own SplitMix diffusion), so each run's
/// guess stream is independent of every other run — and therefore of how a
/// batch is sharded across threads by a parallel harness.
pub fn run_seed(master: u64, index: u64) -> u64 {
    master ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `runs` independent brute-force attacks on fresh chips drawn from
/// `fabricate`. Run `i` guesses with its own RNG seeded by
/// [`run_seed`]`(master_seed, i)` — no stream is shared across runs.
pub fn brute_force_stats<F>(
    runs: usize,
    max_guesses: u64,
    mut fabricate: F,
    master_seed: u64,
) -> BruteForceStats
where
    F: FnMut() -> Chip,
{
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let _span = hwm_trace::span("attacks.brute_batch");
    let mut successes = 0usize;
    let mut total: u64 = 0;
    let mut trapped = 0usize;
    for i in 0..runs {
        let mut chip = fabricate();
        let mut rng = StdRng::seed_from_u64(run_seed(master_seed, i as u64));
        let out = brute_force(&mut chip, max_guesses, &mut rng);
        if out.unlocked {
            successes += 1;
        }
        if out.trapped {
            trapped += 1;
        }
        total += out.attempts;
    }
    hwm_trace::counter("brute_runs", runs as u64);
    hwm_trace::counter("brute_guesses", total);
    BruteForceStats {
        runs,
        successes,
        mean_attempts: total as f64 / runs.max(1) as f64,
        trapped_fraction: trapped as f64 / runs.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwm_fsm::Stg;
    use hwm_metering::{Designer, Foundry, LockOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn population(modules: usize, holes: usize, seed: u64) -> Foundry {
        foundry(
            Stg::ring_counter(5, 2),
            LockOptions {
                added_modules: modules,
                black_holes: holes,
                ..LockOptions::default()
            },
            seed,
        )
    }

    fn foundry(original: Stg, options: LockOptions, seed: u64) -> Foundry {
        let designer = Designer::new(original, options.clone(), seed)
            .unwrap_or_else(|e| panic!("{options:?} seed {seed}: {e:?}"));
        Foundry::new(designer.blueprint().clone(), seed ^ 1)
    }

    #[test]
    fn sign_bit_coins_equal_random_bool_packing() {
        for seed in [0u64, 1, 7, 2024, u64::MAX] {
            for width in 0..=70 {
                let mut sign = StdRng::seed_from_u64(seed ^ width as u64);
                let mut float = sign.clone();
                for _ in 0..32 {
                    let mut want = 0u64;
                    for i in 0..width {
                        let bit = u64::from(float.random_bool(0.5));
                        if i < 64 {
                            want |= bit << i;
                        }
                    }
                    let got = random_guess(width, &mut sign);
                    assert_eq!(got, want, "seed {seed} width {width}");
                }
                let at = format!("rng position, seed {seed} width {width}");
                assert_eq!(sign.next_u64(), float.next_u64(), "{at}");
            }
        }
    }

    /// The per-guess loop [`brute_force`] replaced: check, draw, step.
    fn brute_force_by_steps(
        chip: &mut Chip,
        max_guesses: u64,
        rng: &mut StdRng,
    ) -> BruteForceOutcome {
        let width = chip.blueprint().num_inputs();
        for attempts in 0..max_guesses {
            if chip.is_unlocked() {
                return BruteForceOutcome {
                    unlocked: true,
                    trapped: false,
                    attempts,
                };
            }
            if chip.is_trapped() {
                return BruteForceOutcome {
                    unlocked: false,
                    trapped: true,
                    attempts: max_guesses,
                };
            }
            chip.step_value(random_guess(width, rng));
        }
        BruteForceOutcome {
            unlocked: chip.is_unlocked(),
            trapped: chip.is_trapped(),
            attempts: max_guesses,
        }
    }

    /// Attacks `runs` chips of `foundry` both ways and asserts the same
    /// outcome (attempt count included), the same final chip state and
    /// the same RNG position after the walk: at caps 0, 1, 2 and 20,000
    /// and, for a chip that unlocks, with the unlock on the last allowed
    /// guess and one guess short of it. Returns the chips attacked and
    /// how many of them unlocked.
    fn assert_walks_match(foundry: &mut Foundry, runs: u64, what: &str) -> (Vec<Chip>, usize) {
        let mut exact = 0;
        let chips: Vec<Chip> = (0..runs).map(|_| foundry.fabricate_one()).collect();
        for (run, chip) in chips.iter().enumerate() {
            let check = |cap: u64| {
                let (mut a, mut b) = (chip.clone(), chip.clone());
                let mut by_steps = StdRng::seed_from_u64(run as u64);
                let mut walked = by_steps.clone();
                let want = brute_force_by_steps(&mut a, cap, &mut by_steps);
                let got = brute_force(&mut b, cap, &mut walked);
                let at = format!("{what} run {run} cap {cap}");
                assert_eq!(got, want, "{at}");
                assert_eq!(b.state(), a.state(), "{at}");
                assert_eq!(walked.next_u64(), by_steps.next_u64(), "{at}");
                want
            };
            for cap in [0, 1, 2] {
                check(cap);
            }
            let out = check(20_000);
            if out.unlocked {
                check(out.attempts);
                check(out.attempts - 1);
                exact += 1;
            }
        }
        (chips, exact)
    }

    #[test]
    fn brute_force_equals_the_per_guess_loop() {
        let mut exact = 0;
        for (modules, holes) in [(1usize, 0usize), (2, 0), (1, 1), (2, 2), (5, 0), (5, 1)] {
            let mut foundry = population(modules, holes, 60 + modules as u64);
            exact +=
                assert_walks_match(&mut foundry, 6, &format!("modules {modules} holes {holes}")).1;
        }
        assert!(exact > 0);

        // Every input width the coin draw is fixed to.
        for b in 1..=8 {
            let options = LockOptions {
                added_modules: 2,
                input_bits: Some(b),
                black_holes: 0,
                ..LockOptions::default()
            };
            let mut foundry = foundry(Stg::ring_counter(5, 2), options, 63 + b as u64);
            let (chips, exact) = assert_walks_match(&mut foundry, 4, &format!("input bits {b}"));
            assert_eq!(chips[0].blueprint().num_inputs(), b);
            assert!(exact > 0, "input bits {b}: no chip unlocked");
        }

        // A design with more inputs than the lock reads: each guess draws
        // and drops the coins of the inputs past the added STG's.
        for (inputs, b, holes, seed) in [
            (11usize, 3usize, 1usize, 83u64),
            (9, 8, 1, 88),
            (4, 1, 0, 84),
        ] {
            let options = LockOptions {
                added_modules: 2,
                input_bits: Some(b),
                black_holes: holes,
                ..LockOptions::default()
            };
            let original = hwm_fsm::random_stg(6, inputs, 2, 2, seed);
            let mut foundry = foundry(original, options, seed);
            let what = format!("{inputs} inputs, input bits {b}, holes {holes}");
            let (chips, _) = assert_walks_match(&mut foundry, 4, &what);
            assert_eq!(chips[0].blueprint().num_inputs(), inputs, "{what}");
        }

        // SFFSM locks, whose chips step with a nonzero group salt.
        for group_bits in 1..=3 {
            let options = LockOptions {
                added_modules: 3,
                group_bits,
                black_holes: 0,
                ..LockOptions::default()
            };
            let mut foundry = foundry(Stg::ring_counter(5, 2), options, 90 + group_bits as u64);
            let what = format!("group bits {group_bits}");
            let (chips, exact) = assert_walks_match(&mut foundry, 6, &what);
            assert!(
                chips.iter().any(|c| c.group() != 0),
                "{what}: every chip in group 0"
            );
            assert!(exact > 0, "{what}: no chip unlocked");
        }
    }

    #[test]
    fn brute_force_eventually_unlocks_tiny_lock_without_holes() {
        let mut foundry = population(2, 0, 51);
        let stats = brute_force_stats(10, 200_000, || foundry.fabricate_one(), 1);
        assert!(
            stats.successes >= 8,
            "a 6-FF hole-free lock should fall to 200k guesses: {stats:?}"
        );
        assert!(stats.mean_attempts > 10.0);
    }

    #[test]
    fn more_modules_mean_more_guesses() {
        let mut f2 = population(2, 0, 52);
        let mut f3 = population(3, 0, 53);
        let s2 = brute_force_stats(8, 2_000_000, || f2.fabricate_one(), 2);
        let s3 = brute_force_stats(8, 2_000_000, || f3.fabricate_one(), 3);
        assert!(
            s3.mean_attempts > 2.0 * s2.mean_attempts,
            "guesses must grow with added FFs: {} vs {}",
            s2.mean_attempts,
            s3.mean_attempts
        );
    }

    #[test]
    fn black_holes_absorb_the_walk() {
        let mut foundry = population(2, 1, 54);
        let stats = brute_force_stats(10, 100_000, || foundry.fabricate_one(), 4);
        assert!(
            stats.trapped_fraction >= 0.8,
            "black holes should absorb nearly every walk: {stats:?}"
        );
        assert!(stats.successes <= 2, "{stats:?}");
    }

    #[test]
    fn legitimate_key_still_works_with_holes() {
        // Sanity: the designer's path avoids the very holes that kill the
        // brute force.
        let designer = Designer::new(
            Stg::ring_counter(5, 2),
            LockOptions {
                added_modules: 2,
                black_holes: 2,
                ..LockOptions::default()
            },
            55,
        )
        .unwrap();
        let mut foundry = Foundry::new(designer.blueprint().clone(), 56);
        for _ in 0..10 {
            let mut chip = foundry.fabricate_one();
            let key = designer.compute_key(&chip.scan_flip_flops()).unwrap();
            chip.apply_key(&key).unwrap();
            assert!(chip.is_unlocked());
        }
    }
}
