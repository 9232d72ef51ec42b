//! The paper's probabilistic sizing analysis (§4.2).
//!
//! Three questions decide how many flip-flops the added STG needs:
//!
//! 1. *Locking:* the chip must power up in an **added** state —
//!    probability `(2^k − m)/2^k` for `m` original states (§4.2 ii);
//! 2. *Uniqueness:* `d` chips must all get distinct IDs — the birthday
//!    computation of Equation 1 (§4.2 iii);
//! 3. the designer picks the smallest `k` meeting both targets.
//!
//! All probabilities are computed in log-space so `k` up to hundreds of
//! bits stays numerically exact.

/// Natural log of `P_ICID(k, d)` — the probability that `d` chips drawing
/// uniform `k`-bit IDs are all distinct (Equation 1 of the paper).
///
/// Computed as `Σ_{i=1}^{d−1} ln(1 − i·2^{−k})`.
pub fn ln_p_all_distinct(k_bits: u32, d: u64) -> f64 {
    if d <= 1 {
        return 0.0;
    }
    let ln_half_pow = -(k_bits as f64) * std::f64::consts::LN_2;
    let mut sum = 0.0;
    // For large d the terms are smooth; sum directly (d up to ~1e7 is fine).
    for i in 1..d {
        let x = (i as f64) * ln_half_pow.exp();
        if x >= 1.0 {
            return f64::NEG_INFINITY;
        }
        sum += (-x).ln_1p();
    }
    sum
}

/// `P_ICID(k, d)` — see [`ln_p_all_distinct`].
pub fn p_all_distinct(k_bits: u32, d: u64) -> f64 {
    ln_p_all_distinct(k_bits, d).exp()
}

/// Probability that at least two of `d` chips share an ID.
pub fn p_collision(k_bits: u32, d: u64) -> f64 {
    -(ln_p_all_distinct(k_bits, d)).exp_m1()
}

/// The smallest ID width `k` such that `d` chips collide with probability
/// at most `max_collision`.
///
/// # Panics
///
/// Panics unless `0 < max_collision < 1`.
pub fn min_bits_for_distinct(d: u64, max_collision: f64) -> u32 {
    assert!(
        max_collision > 0.0 && max_collision < 1.0,
        "max_collision must be in (0,1)"
    );
    // Approximate collision probability: 1 − exp(−d²/2^{k+1}); solve then
    // verify exactly upward.
    let mut k = (2.0 * (d as f64).log2() - (-(1.0f64 - max_collision).ln()).log2())
        .ceil()
        .max(1.0) as u32;
    k = k.max(1);
    while p_collision(k, d) > max_collision {
        k += 1;
    }
    // Tighten downward in case the seed overshot.
    while k > 1 && p_collision(k - 1, d) <= max_collision {
        k -= 1;
    }
    k
}

/// Probability that a uniform `k`-bit power-up state lands on one of the `m`
/// original states rather than an added state (§4.2 ii — e.g. `m = 100`,
/// `k = 30` gives less than `1e-7`).
pub fn p_power_up_original(k_bits: u32, m_original: u64) -> f64 {
    (m_original as f64) / 2f64.powi(k_bits as i32)
}

/// The complementary probability of powering up in an added (locked) state.
pub fn p_power_up_added(k_bits: u32, m_original: u64) -> f64 {
    1.0 - p_power_up_original(k_bits, m_original)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_m100_k30() {
        // §4.2(ii): for m = 100 and k = 30, the probability of starting in
        // an original state is below 1e-7.
        assert!(p_power_up_original(30, 100) < 1e-7);
        assert!(p_power_up_added(30, 100) > 1.0 - 1e-7);
    }

    #[test]
    fn distinct_probability_monotone_in_k() {
        let d = 10_000;
        let p20 = p_all_distinct(20, d);
        let p30 = p_all_distinct(30, d);
        let p60 = p_all_distinct(60, d);
        assert!(p20 < p30 && p30 < p60);
        assert!(p60 > 0.9999);
    }

    #[test]
    fn birthday_matches_closed_form_small() {
        // 23 people, 365 days ≈ 50.7% collision. Use k chosen so 2^k≈365?
        // Instead verify exactly against direct product for 2^k = 256, d = 20.
        let direct: f64 = (1..20).map(|i| 1.0 - i as f64 / 256.0).product();
        let ours = p_all_distinct(8, 20);
        assert!((direct - ours).abs() < 1e-12);
    }

    #[test]
    fn collision_complementary() {
        let p = p_all_distinct(24, 5000);
        let c = p_collision(24, 5000);
        assert!((p + c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_bits_bounds() {
        // One million chips, collision below 1e-6 — classic birthday: need
        // about 2·log2(d) + 20 bits.
        let k = min_bits_for_distinct(1_000_000, 1e-6);
        assert!(p_collision(k, 1_000_000) <= 1e-6);
        assert!(k > 1 && p_collision(k - 1, 1_000_000) > 1e-6, "k={k} not minimal");
        assert!((50..=80).contains(&k), "unexpected k={k}");
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(p_all_distinct(10, 0), 1.0);
        assert_eq!(p_all_distinct(10, 1), 1.0);
        // More chips than IDs → distinctness impossible.
        assert_eq!(p_all_distinct(2, 5), 0.0);
    }
}
