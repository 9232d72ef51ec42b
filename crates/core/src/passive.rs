//! Passive hardware metering — the DAC 2001 scheme of the titled paper
//! (Koushanfar & Qu, *Hardware Metering*, DAC 2001; see the collision note
//! in DESIGN.md).
//!
//! Passive metering gives every IC a unique, functionality-preserving
//! identity instead of a lock: a small part of the control path is left
//! programmable, and the designer programs each licensed IC with a distinct
//! *control-path variant* — here, a distinct state encoding of the control
//! FSM, which changes every internal state code without changing the I/O
//! behaviour. An auditor who buys chips on the market extracts each chip's
//! ID by scanning the state codes along a probe sequence; duplicate IDs are
//! evidence of overbuilding, with confidence quantified by the
//! hypergeometric analysis below.
//!
//! Contrast with the *active* scheme (the rest of this crate): passive
//! metering detects piracy after the fact; active metering prevents it.

use crate::MeteringError;
use hwm_fsm::{Encoding, EncodingStrategy, Stg};
use hwm_logic::Bits;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A passively metered design: the original FSM plus the programmable
/// encoding width.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PassiveScheme {
    original: Stg,
    state_bits: usize,
}

impl PassiveScheme {
    /// Wraps a design for passive metering with `state_bits` control
    /// flip-flops (must fit the state count; extra bits multiply the
    /// variant space).
    ///
    /// # Errors
    ///
    /// Returns [`MeteringError::InvalidOptions`] when the states do not fit
    /// in `state_bits`.
    pub fn new(original: Stg, state_bits: usize) -> Result<Self, MeteringError> {
        let needed = hwm_fsm::encode::bits_for(original.state_count());
        if state_bits < needed {
            return Err(MeteringError::InvalidOptions {
                reason: format!(
                    "{} states need {needed} bits, got {state_bits}",
                    original.state_count()
                ),
            });
        }
        if state_bits > 32 {
            return Err(MeteringError::InvalidOptions {
                reason: "passive metering supports at most 32 state bits".to_string(),
            });
        }
        Ok(PassiveScheme {
            original,
            state_bits,
        })
    }

    /// The protected design.
    pub fn original(&self) -> &Stg {
        &self.original
    }

    /// Control flip-flop count.
    pub fn state_bits(&self) -> usize {
        self.state_bits
    }

    /// Log₂ of the number of distinct control-path variants: the number of
    /// injective code assignments of `m` states into `2^k` codes,
    /// `Σ_{i<m} log₂(2^k − i)` — the "numerous different instances of the
    /// same control path with the same hardware" of the DAC 2001 paper.
    pub fn log2_variant_count(&self) -> f64 {
        let m = self.original.state_count() as u64;
        let space = 2f64.powi(self.state_bits as i32);
        (0..m).map(|i| (space - i as f64).log2()).sum()
    }

    /// Programs one IC with the variant selected by `variant_seed` (the
    /// designer keeps the seed → IC association in her ledger).
    pub fn program(&self, variant_seed: u64) -> MeteredIc {
        let encoding = Encoding::assign(
            &self.original,
            EncodingStrategy::RandomObfuscated { seed: variant_seed },
            self.state_bits,
        )
        .expect("state_bits validated in new()");
        MeteredIc {
            stg: self.original.clone(),
            encoding,
            state: self.original.reset_state(),
        }
    }

    /// A deterministic probe sequence exercising the control path: walks
    /// `len` steps of a fixed pattern (the auditor and designer agree on it).
    pub fn probe_sequence(&self, len: usize) -> Vec<Bits> {
        let b = self.original.num_inputs();
        (0..len)
            .map(|i| {
                let v = (0x9E37_79B9u64.wrapping_mul(i as u64 + 1) >> 16) & mask(b);
                Bits::from_u64(v, b)
            })
            .collect()
    }
}

/// One passively metered IC (simulation model): the control FSM running
/// under its programmed variant encoding, with scan access to the codes.
#[derive(Debug, Clone)]
pub struct MeteredIc {
    stg: Stg,
    encoding: Encoding,
    state: hwm_fsm::StateId,
}

impl MeteredIc {
    /// Resets to the initial state.
    pub fn reset(&mut self) {
        self.state = self.stg.reset_state();
    }

    /// One functional step (I/O behaviour is variant-independent).
    pub fn step(&mut self, input: &Bits) -> Bits {
        let (next, out) = self.stg.step_or_hold(self.state, input);
        self.state = next;
        out
    }

    /// The state code visible on the scan chain.
    pub fn scan_code(&self) -> u64 {
        self.encoding.code(self.state)
    }

    /// Extracts the IC's identity: the state-code trace along the probe
    /// sequence. Two ICs programmed with different variants produce
    /// different traces with overwhelming probability.
    pub fn extract_id(&mut self, probes: &[Bits]) -> Vec<u64> {
        self.reset();
        let mut id = vec![self.scan_code()];
        for p in probes {
            self.step(p);
            id.push(self.scan_code());
        }
        id
    }
}

/// Result of auditing a market sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Sample size.
    pub sampled: usize,
    /// Number of distinct IDs observed.
    pub distinct: usize,
    /// Sizes of each duplicated group (empty when no piracy detected).
    pub duplicate_groups: Vec<usize>,
}

impl AuditReport {
    /// Whether duplicates — piracy evidence — were found.
    pub fn piracy_detected(&self) -> bool {
        !self.duplicate_groups.is_empty()
    }
}

/// Audits a sample of ICs: extracts all IDs and reports duplicates.
pub fn audit(ics: &mut [MeteredIc], probes: &[Bits]) -> AuditReport {
    let mut seen: HashMap<Vec<u64>, usize> = HashMap::new();
    for ic in ics.iter_mut() {
        *seen.entry(ic.extract_id(probes)).or_insert(0) += 1;
    }
    let duplicate_groups: Vec<usize> = seen.values().copied().filter(|&n| n > 1).collect();
    AuditReport {
        sampled: ics.len(),
        distinct: seen.len(),
        duplicate_groups,
    }
}

/// Probability that auditing a random sample of `sample` chips, drawn
/// without replacement from `legal` uniquely-programmed chips plus
/// `cloned` pirated copies of a single variant, catches at least two clones
/// (hypergeometric: `1 − [C(legal, s) + cloned·C(legal, s−1)] / C(legal +
/// cloned, s)` — the DAC 2001 style fraud-detection bound).
pub fn detection_probability(legal: u64, cloned: u64, sample: u64) -> f64 {
    let total = legal + cloned;
    if sample > total || cloned < 2 || sample < 2 {
        return 0.0;
    }
    // log C(n, k)
    let lc = |n: u64, k: u64| -> f64 {
        if k > n {
            return f64::NEG_INFINITY;
        }
        let mut s = 0.0;
        for i in 0..k {
            s += ((n - i) as f64).ln() - ((k - i) as f64).ln();
        }
        s
    };
    let denom = lc(total, sample);
    let none = (lc(legal, sample) - denom).exp();
    let one = if sample >= 1 {
        (lc(legal, sample - 1) - denom).exp() * cloned as f64
    } else {
        0.0
    };
    (1.0 - none - one).clamp(0.0, 1.0)
}

/// The smallest audit sample that detects `cloned` clones among `legal`
/// legitimate chips with probability at least `confidence`.
/// `examples/passive_metering.rs` prints it for each clone count.
pub fn required_sample(legal: u64, cloned: u64, confidence: f64) -> Option<u64> {
    (2..=legal + cloned).find(|&s| detection_probability(legal, cloned, s) >= confidence)
}

fn mask(bits: usize) -> u64 {
    if bits == 0 {
        0
    } else if bits >= 64 {
        !0
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> PassiveScheme {
        PassiveScheme::new(Stg::ring_counter(6, 2), 8).unwrap()
    }

    #[test]
    fn variant_space_is_huge() {
        let s = scheme();
        // 6 states into 256 codes: log2(256·255·…·251) ≈ 47.9 bits.
        let log2 = s.log2_variant_count();
        assert!(log2 > 45.0 && log2 < 50.0, "log2 variants {log2}");
    }

    #[test]
    fn variants_preserve_io_behaviour() {
        let s = scheme();
        let mut a = s.program(1);
        let mut b = s.program(2);
        let probes = s.probe_sequence(40);
        for p in &probes {
            assert_eq!(a.step(p), b.step(p), "I/O must be variant-independent");
        }
    }

    #[test]
    fn different_variants_have_different_ids() {
        let s = scheme();
        let probes = s.probe_sequence(12);
        let mut ids = Vec::new();
        for seed in 0..30 {
            let mut ic = s.program(seed);
            ids.push(ic.extract_id(&probes));
        }
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                assert_ne!(ids[i], ids[j], "variants {i} and {j} collide");
            }
        }
    }

    #[test]
    fn audit_finds_clones() {
        let s = scheme();
        let probes = s.probe_sequence(12);
        let mut market: Vec<MeteredIc> = (0..20).map(|i| s.program(i)).collect();
        // The pirate clones variant 7 three times.
        market.push(s.program(7));
        market.push(s.program(7));
        market.push(s.program(7));
        let report = audit(&mut market, &probes);
        assert!(report.piracy_detected());
        assert_eq!(report.distinct, 20);
        assert_eq!(report.duplicate_groups, vec![4]);
    }

    #[test]
    fn audit_clean_market() {
        let s = scheme();
        let probes = s.probe_sequence(12);
        let mut market: Vec<MeteredIc> = (0..25).map(|i| s.program(i)).collect();
        let report = audit(&mut market, &probes);
        assert!(!report.piracy_detected());
        assert_eq!(report.distinct, 25);
    }

    #[test]
    fn detection_probability_monotone_in_sample() {
        let p10 = detection_probability(10_000, 500, 10);
        let p100 = detection_probability(10_000, 500, 100);
        let p1000 = detection_probability(10_000, 500, 1000);
        assert!(p10 < p100 && p100 < p1000, "{p10} {p100} {p1000}");
        assert!(p1000 > 0.5);
    }

    #[test]
    fn detection_probability_edge_cases() {
        assert_eq!(detection_probability(100, 0, 10), 0.0);
        assert_eq!(detection_probability(100, 1, 10), 0.0);
        assert_eq!(detection_probability(10, 5, 20), 0.0); // sample too big
        // Sampling everything with clones present always detects.
        assert!((detection_probability(10, 5, 15) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn required_sample_reasonable() {
        let s = required_sample(10_000, 1_000, 0.95).unwrap();
        assert!(detection_probability(10_000, 1_000, s) >= 0.95);
        assert!(s > 2 && s < 10_000, "sample {s}");
    }

    #[test]
    fn too_few_bits_rejected() {
        assert!(PassiveScheme::new(Stg::ring_counter(6, 1), 2).is_err());
    }
}
