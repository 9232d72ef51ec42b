//! State encoding.
//!
//! The synthesis flow assigns a binary code to each state. For the metering
//! scheme the *obfuscated* strategy matters: the paper observes (§5.1/§6.2)
//! that codes must be assigned out of sequence so that the Hamming distance
//! between two codes carries no information about the proximity of the
//! states in the STG — defeating scan-based structure recovery.

use crate::{FsmError, StateId, Stg};
use hwm_logic::Bits;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How codes are assigned to states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EncodingStrategy {
    /// Code = state index.
    Binary,
    /// Gray code of the state index (adjacent indices differ in one bit).
    Gray,
    /// One bit per state.
    OneHot,
    /// Seeded random permutation of the code space — the paper's
    /// out-of-sequence obfuscation.
    RandomObfuscated {
        /// RNG seed for the permutation.
        seed: u64,
    },
}

/// An assignment of distinct binary codes to the states of an STG.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Encoding {
    bits: usize,
    codes: Vec<u64>,
    /// Ordered, so that equal encodings print and hash alike.
    by_code: BTreeMap<u64, StateId>,
}

impl Encoding {
    /// Assigns codes to every state of `stg` using `strategy`, with at least
    /// `min_bits` code bits (more when the state count requires it; one-hot
    /// ignores `min_bits`).
    ///
    /// # Errors
    ///
    /// Returns [`FsmError::WidthMismatch`] when the state count does not fit
    /// in 64 bits of code.
    pub fn assign(stg: &Stg, strategy: EncodingStrategy, min_bits: usize) -> Result<Self, FsmError> {
        let _span = hwm_trace::span("fsm.encode");
        let n = stg.state_count();
        let needed = bits_for(n);
        if needed > 64 {
            return Err(FsmError::WidthMismatch {
                expected: 64,
                got: needed,
            });
        }
        let (bits, codes) = match strategy {
            EncodingStrategy::Binary => {
                let bits = needed.max(min_bits).max(1);
                (bits, (0..n as u64).collect::<Vec<_>>())
            }
            EncodingStrategy::Gray => {
                let bits = needed.max(min_bits).max(1);
                (bits, (0..n as u64).map(|i| i ^ (i >> 1)).collect())
            }
            EncodingStrategy::OneHot => {
                if n > 64 {
                    return Err(FsmError::WidthMismatch {
                        expected: 64,
                        got: n,
                    });
                }
                (n.max(1), (0..n).map(|i| 1u64 << i).collect())
            }
            EncodingStrategy::RandomObfuscated { seed } => {
                let bits = needed.max(min_bits).max(1);
                let mut rng = StdRng::seed_from_u64(seed);
                let codes = if bits <= 16 {
                    // Sample without replacement from the full code space.
                    let mut space: Vec<u64> = (0..(1u64 << bits)).collect();
                    space.shuffle(&mut rng);
                    space.truncate(n);
                    space
                } else {
                    // Sparse rejection sampling for big spaces.
                    let mut seen = std::collections::HashSet::new();
                    let mut codes = Vec::with_capacity(n);
                    while codes.len() < n {
                        let c = rng.random::<u64>() & mask(bits);
                        if seen.insert(c) {
                            codes.push(c);
                        }
                    }
                    codes
                };
                (bits, codes)
            }
        };
        let by_code = codes
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, StateId::from_index(i)))
            .collect();
        Ok(Encoding { bits, codes, by_code })
    }

    /// Number of code bits (flip-flops).
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Code of a state as an integer.
    pub fn code(&self, s: StateId) -> u64 {
        self.codes[s.index()]
    }

    /// Code of a state as bits (bit 0 = flip-flop 0).
    pub fn code_bits(&self, s: StateId) -> Bits {
        Bits::from_u64(self.codes[s.index()], self.bits)
    }

    /// The state owning a code, if any (codes outside the image are the
    /// don't-care states).
    pub fn state_of(&self, code: u64) -> Option<StateId> {
        self.by_code.get(&code).copied()
    }

    /// All codes, indexed by state.
    pub fn codes(&self) -> &[u64] {
        &self.codes
    }
}

/// Number of bits needed to give `n` items distinct codes.
pub fn bits_for(n: usize) -> usize {
    if n <= 1 {
        1
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

fn mask(bits: usize) -> u64 {
    if bits >= 64 {
        !0
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_counts() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(1 << 12), 12);
    }

    #[test]
    fn binary_codes_sequential() {
        let stg = Stg::ring_counter(5, 1);
        let e = Encoding::assign(&stg, EncodingStrategy::Binary, 0).unwrap();
        assert_eq!(e.bits(), 3);
        assert_eq!(e.code(StateId::from_index(4)), 4);
        assert_eq!(e.state_of(2), Some(StateId::from_index(2)));
        assert_eq!(e.state_of(7), None);
    }

    #[test]
    fn gray_codes_adjacent() {
        let stg = Stg::ring_counter(8, 1);
        let e = Encoding::assign(&stg, EncodingStrategy::Gray, 0).unwrap();
        for i in 0..7 {
            let a = e.code(StateId::from_index(i));
            let b = e.code(StateId::from_index(i + 1));
            assert_eq!((a ^ b).count_ones(), 1);
        }
    }

    #[test]
    fn one_hot() {
        let stg = Stg::ring_counter(5, 1);
        let e = Encoding::assign(&stg, EncodingStrategy::OneHot, 0).unwrap();
        assert_eq!(e.bits(), 5);
        for i in 0..5 {
            assert_eq!(e.code(StateId::from_index(i)).count_ones(), 1);
        }
    }

    #[test]
    fn obfuscated_codes_distinct_and_deterministic() {
        let stg = Stg::ring_counter(16, 1);
        let a = Encoding::assign(&stg, EncodingStrategy::RandomObfuscated { seed: 9 }, 6).unwrap();
        let b = Encoding::assign(&stg, EncodingStrategy::RandomObfuscated { seed: 9 }, 6).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.bits(), 6);
        let mut codes = a.codes().to_vec();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 16);
    }

    #[test]
    fn min_bits_respected() {
        let stg = Stg::ring_counter(4, 1);
        let e = Encoding::assign(&stg, EncodingStrategy::Binary, 12).unwrap();
        assert_eq!(e.bits(), 12);
    }

    /// Pearson correlation between ring hop distance and code Hamming
    /// distance over all ordered state pairs of a ring of `codes.len()`
    /// states: what a scan-based attacker reads off adjacent codes.
    fn ring_proximity_correlation(codes: &[u64]) -> f64 {
        let n = codes.len();
        let pairs: Vec<(f64, f64)> = (0..n)
            .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| {
                let hops = i.abs_diff(j).min(n - i.abs_diff(j));
                (hops as f64, (codes[i] ^ codes[j]).count_ones() as f64)
            })
            .collect();
        let m = pairs.len() as f64;
        let mx = pairs.iter().map(|p| p.0).sum::<f64>() / m;
        let my = pairs.iter().map(|p| p.1).sum::<f64>() / m;
        let (mut cov, mut vx, mut vy) = (0.0, 0.0, 0.0);
        for (x, y) in &pairs {
            cov += (x - mx) * (y - my);
            vx += (x - mx).powi(2);
            vy += (y - my).powi(2);
        }
        cov / (vx.sqrt() * vy.sqrt())
    }

    #[test]
    fn obfuscation_decorrelates() {
        let stg = Stg::ring_counter(32, 1);
        let gray = Encoding::assign(&stg, EncodingStrategy::Gray, 0).unwrap();
        let obf =
            Encoding::assign(&stg, EncodingStrategy::RandomObfuscated { seed: 3 }, 0).unwrap();
        let cg = ring_proximity_correlation(gray.codes()).abs();
        let co = ring_proximity_correlation(obf.codes()).abs();
        assert!(
            co < cg,
            "obfuscated correlation {co} should be below gray {cg}"
        );
        assert!(co < 0.35, "obfuscated correlation should be near zero, got {co}");
    }

    #[test]
    fn wide_obfuscated_space() {
        let stg = Stg::ring_counter(10, 1);
        let e = Encoding::assign(&stg, EncodingStrategy::RandomObfuscated { seed: 1 }, 30).unwrap();
        assert_eq!(e.bits(), 30);
        let mut codes = e.codes().to_vec();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 10);
    }
}
