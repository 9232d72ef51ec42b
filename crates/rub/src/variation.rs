//! The manufacturing-variability model.
//!
//! CMOS threshold voltages vary spatially (inter-die and intra-die) and
//! temporally (noise, aging) — §2.1 of the paper, following Bernstein et
//! al.'s classification. The scheme *uses* spatial variation (unique IDs)
//! and must *tolerate* temporal variation (key stability), so the model
//! separates the two.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Gaussian variability parameters, in millivolts of threshold mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariationModel {
    /// σ of the die-level common-mode threshold shift. Common mode cancels
    /// inside a differential latch but is observable in gate delays (which
    /// the selective-IC-release countermeasure inspects).
    pub inter_die_sigma: f64,
    /// σ of per-device local mismatch — the entropy source of the RUB.
    pub intra_die_sigma: f64,
    /// σ of the per-read temporal noise at nominal conditions.
    pub temporal_sigma: f64,
    /// σ of the slow lifetime drift (NBTI, hot-carrier aging) accumulated
    /// per unit of [`crate::Rub::age`].
    pub aging_sigma: f64,
}

impl Default for VariationModel {
    /// Parameters calibrated so that, at nominal conditions, roughly 95–96 %
    /// of latch bits are stable (flip probability below 1 %), matching the
    /// stability Su et al. report and the paper quotes.
    fn default() -> Self {
        VariationModel {
            inter_die_sigma: 10.0,
            intra_die_sigma: 40.0,
            temporal_sigma: 1.0,
            aging_sigma: 0.5,
        }
    }
}

impl VariationModel {
    /// Samples the die-level parameters for one fabricated die.
    pub fn sample_die<R: Rng + ?Sized>(&self, rng: &mut R) -> DieSample {
        DieSample {
            inter_die_offset: normal(rng, 0.0, self.inter_die_sigma),
        }
    }

    /// Expected fraction of latch bits whose flip probability at nominal
    /// conditions is below `flip_threshold` (e.g. 0.01): the "stable bits"
    /// figure of merit.
    pub fn expected_stable_fraction(&self, flip_threshold: f64) -> f64 {
        // A bit with mismatch m flips when |noise| > |m|, i.e. with
        // probability Φ(−|m|/σ_n). It is stable when
        // |m| > −Φ⁻¹(flip_threshold)·σ_n.
        let z = -inverse_normal_cdf(flip_threshold);
        let bound = z * self.temporal_sigma;
        // P(|m| > bound) with m ~ N(0, σ_intra).
        2.0 * normal_cdf(-bound / self.intra_die_sigma)
    }
}

/// Die-level variability outcomes shared by all devices on the die.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DieSample {
    /// Common-mode threshold shift of this die (mV). Positive = slower die.
    pub inter_die_offset: f64,
}

/// Standard normal sample by Box–Muller (keeps the workspace free of extra
/// distribution crates).
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    loop {
        let u1: f64 = rng.random();
        let u2: f64 = rng.random();
        if u1 > f64::MIN_POSITIVE {
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            return mean + sigma * z;
        }
    }
}

/// Standard normal CDF via Abramowitz–Stegun's erf approximation (max error
/// ~1.5e-7, ample for variability statistics).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Inverse standard normal CDF (Acklam's rational approximation).
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must be in (0,1), got {p}");
    // Coefficients for the central and tail regions.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "variance {var}");
    }

    #[test]
    fn cdf_and_inverse_are_inverses() {
        for &p in &[0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999] {
            let x = inverse_normal_cdf(p);
            let back = normal_cdf(x);
            assert!((back - p).abs() < 1e-4, "p={p}, roundtrip={back}");
        }
    }

    #[test]
    fn default_model_is_about_96_percent_stable() {
        let model = VariationModel::default();
        let stable = model.expected_stable_fraction(0.01);
        assert!(
            (0.93..=0.98).contains(&stable),
            "expected ~96% stable, got {stable}"
        );
    }
}
