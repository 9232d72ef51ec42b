//! The cross-coupled NOR latch ID cell and the RUB block.

use crate::variation::{normal, VariationModel};
use hwm_logic::Bits;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Operating conditions of a read. Harsher conditions scale the temporal
/// noise, increasing the chance that marginal bits flip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Environment {
    /// Multiplier on the model's `temporal_sigma` (1.0 = nominal).
    pub noise_scale: f64,
}

impl Environment {
    /// Nominal temperature and supply voltage.
    pub fn nominal() -> Self {
        Environment { noise_scale: 1.0 }
    }

    /// Elevated temperature / droopy supply: noise grows.
    pub fn stressed(noise_scale: f64) -> Self {
        Environment { noise_scale }
    }
}

impl Default for Environment {
    fn default() -> Self {
        Environment::nominal()
    }
}

/// One ID bit: a pair of cross-coupled NOR gates whose resolution at the
/// clock edge is decided by the threshold mismatch between the two sides
/// (Su et al., the cell the paper adopts in §5.1).
///
/// The cell's observable is the sign of `mismatch + drift + noise`; positive
/// feedback amplifies it to a full logic level, which is why no comparator
/// or amplifier is needed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatchCell {
    /// Fabrication-time threshold mismatch between the two NOR gates (mV).
    pub mismatch: f64,
    /// Accumulated aging drift (mV).
    pub drift: f64,
}

impl LatchCell {
    /// Samples a freshly fabricated cell.
    pub fn sample<R: Rng + ?Sized>(model: &VariationModel, rng: &mut R) -> Self {
        // Two devices contribute mismatch; the difference of two
        // N(0, σ²) variables has σ·√2.
        LatchCell {
            mismatch: normal(rng, 0.0, model.intra_die_sigma * std::f64::consts::SQRT_2),
            drift: 0.0,
        }
    }

    /// The value the cell resolves to in the absence of noise.
    pub fn nominal_value(&self) -> bool {
        self.mismatch + self.drift > 0.0
    }

    /// One noisy read.
    pub fn read<R: Rng + ?Sized>(
        &self,
        model: &VariationModel,
        env: &Environment,
        rng: &mut R,
    ) -> bool {
        let noise = normal(rng, 0.0, model.temporal_sigma * env.noise_scale);
        self.mismatch + self.drift + noise > 0.0
    }
}

/// A Random Unique Block: the on-chip array of ID cells.
///
/// The paper's layout camouflages the cells among the sea of gates rather
/// than in a regular array (§5.1 "indiscernibility"); the simulation exposes
/// only what an attacker with scan access could see — the read values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rub {
    cells: Vec<LatchCell>,
}

impl Rub {
    /// Samples a RUB of `bits` cells for a freshly fabricated die.
    pub fn sample<R: Rng + ?Sized>(model: &VariationModel, bits: usize, rng: &mut R) -> Self {
        Rub {
            cells: (0..bits).map(|_| LatchCell::sample(model, rng)).collect(),
        }
    }

    /// Number of ID bits.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the block has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cells.
    pub fn cells(&self) -> &[LatchCell] {
        &self.cells
    }

    /// Noise-free nominal ID.
    pub fn nominal(&self) -> Bits {
        self.cells.iter().map(LatchCell::nominal_value).collect()
    }

    /// One noisy power-up read. Uses the default [`VariationModel`]'s
    /// temporal parameters scaled by the environment.
    pub fn read<R: Rng + ?Sized>(&self, env: &Environment, rng: &mut R) -> Bits {
        let model = VariationModel::default();
        self.read_with(&model, env, rng)
    }

    /// One noisy power-up read under an explicit model.
    pub fn read_with<R: Rng + ?Sized>(
        &self,
        model: &VariationModel,
        env: &Environment,
        rng: &mut R,
    ) -> Bits {
        self.cells.iter().map(|c| c.read(model, env, rng)).collect()
    }

    /// Ages the block: accumulates lifetime drift (NBTI/hot-carrier) on each
    /// cell, `units` standard deviations' worth.
    pub fn age<R: Rng + ?Sized>(&mut self, model: &VariationModel, units: f64, rng: &mut R) {
        for c in &mut self.cells {
            c.drift += normal(rng, 0.0, model.aging_sigma * units.sqrt());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    #[test]
    fn ids_are_unique_across_dies() {
        let model = VariationModel::default();
        let mut rng = rng();
        let ids: Vec<Bits> = (0..50)
            .map(|_| Rub::sample(&model, 64, &mut rng).nominal())
            .collect();
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                assert!(ids[i].hamming_distance(&ids[j]) > 8, "dies {i},{j} too close");
            }
        }
    }

    #[test]
    fn ids_are_balanced() {
        let model = VariationModel::default();
        let mut rng = rng();
        let rub = Rub::sample(&model, 4096, &mut rng);
        let ones = rub.nominal().count_ones();
        assert!((1700..=2400).contains(&ones), "biased ID: {ones}/4096 ones");
    }

    #[test]
    fn reads_are_mostly_stable() {
        let model = VariationModel::default();
        let mut rng = rng();
        let rub = Rub::sample(&model, 1024, &mut rng);
        let nominal = rub.nominal();
        let mut total_flips = 0;
        for _ in 0..20 {
            let r = rub.read_with(&model, &Environment::nominal(), &mut rng);
            total_flips += r.hamming_distance(&nominal);
        }
        // Expected flip rate is small (a few % of bits are marginal).
        assert!(total_flips < 20 * 60, "too many flips: {total_flips}");
    }

    #[test]
    fn stress_increases_flips() {
        let model = VariationModel::default();
        let mut rng = rng();
        let rub = Rub::sample(&model, 2048, &mut rng);
        let nominal = rub.nominal();
        let mut nominal_flips = 0;
        let mut stressed_flips = 0;
        for _ in 0..10 {
            nominal_flips += rub
                .read_with(&model, &Environment::nominal(), &mut rng)
                .hamming_distance(&nominal);
            stressed_flips += rub
                .read_with(&model, &Environment::stressed(8.0), &mut rng)
                .hamming_distance(&nominal);
        }
        assert!(stressed_flips > nominal_flips, "{stressed_flips} vs {nominal_flips}");
    }

    #[test]
    fn aging_moves_marginal_bits() {
        let model = VariationModel::default();
        let mut rng = rng();
        let mut rub = Rub::sample(&model, 2048, &mut rng);
        let before = rub.nominal();
        rub.age(&model, 100.0, &mut rng);
        let after = rub.nominal();
        let moved = before.hamming_distance(&after);
        assert!(moved > 0, "a century of aging should move some bits");
        assert!(moved < 400, "aging should not randomize the ID, moved {moved}");
    }
}
