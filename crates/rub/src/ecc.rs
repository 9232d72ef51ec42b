//! Error correction for RUB identifiers.
//!
//! §6.2 of the paper proposes standard error-correcting codes (or
//! error-absorbing SFFSM specifications) so that the few unstable RUB bits
//! never change the chip's effective ID. This module provides:
//!
//! * [`RepetitionCode`] — the simplest majority code;
//! * [`HammingSecded`] — Hamming(8,4) single-error-correct /
//!   double-error-detect blocks;
//! * [`FuzzyExtractor`] — the code-offset construction that turns a noisy
//!   physical reading into a stable identifier using public helper data.

use crate::RubError;
use hwm_logic::Bits;
use serde::{Deserialize, Serialize};

/// A binary block error-correcting code.
pub trait ErrorCorrectingCode {
    /// Bits of payload per block.
    fn data_bits(&self) -> usize;
    /// Bits of codeword per block.
    fn code_bits(&self) -> usize;
    /// Encodes payload into a codeword. `data.len()` must be a multiple of
    /// [`ErrorCorrectingCode::data_bits`].
    fn encode(&self, data: &Bits) -> Bits;
    /// Decodes a (possibly corrupted) codeword, returning the payload and
    /// the number of corrected bit errors.
    ///
    /// # Errors
    ///
    /// Returns [`RubError::Uncorrectable`] when a block holds more errors
    /// than the code corrects (where detectable).
    fn decode(&self, code: &Bits) -> Result<(Bits, usize), RubError>;

    /// Number of errors per block the code is guaranteed to correct.
    fn corrects(&self) -> usize;
}

/// An `n`-fold repetition code (n odd): corrects `(n-1)/2` errors per bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepetitionCode {
    n: usize,
}

impl RepetitionCode {
    /// Creates an `n`-fold repetition code.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or zero.
    pub fn new(n: usize) -> Self {
        assert!(n % 2 == 1 && n > 0, "repetition factor must be odd, got {n}");
        RepetitionCode { n }
    }
}

impl ErrorCorrectingCode for RepetitionCode {
    fn data_bits(&self) -> usize {
        1
    }

    fn code_bits(&self) -> usize {
        self.n
    }

    fn encode(&self, data: &Bits) -> Bits {
        let mut out = Bits::zeros(data.len() * self.n);
        for (i, b) in data.iter().enumerate() {
            for j in 0..self.n {
                out.set(i * self.n + j, b);
            }
        }
        out
    }

    fn decode(&self, code: &Bits) -> Result<(Bits, usize), RubError> {
        if !code.len().is_multiple_of(self.n) {
            return Err(RubError::LengthMismatch {
                expected: self.n,
                got: code.len() % self.n,
            });
        }
        let blocks = code.len() / self.n;
        let mut out = Bits::zeros(blocks);
        let mut corrected = 0;
        for i in 0..blocks {
            let ones = (0..self.n).filter(|&j| code.get(i * self.n + j)).count();
            let bit = ones > self.n / 2;
            out.set(i, bit);
            corrected += if bit { self.n - ones } else { ones };
        }
        Ok((out, corrected))
    }

    fn corrects(&self) -> usize {
        (self.n - 1) / 2
    }
}

/// Hamming(7,4) extended with an overall parity bit: corrects one error per
/// 8-bit block and detects (reports) two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HammingSecded;

impl HammingSecded {
    /// Creates the code.
    pub fn new() -> Self {
        HammingSecded
    }

    fn encode_block(nibble: u8) -> u8 {
        let d = [
            nibble & 1,
            (nibble >> 1) & 1,
            (nibble >> 2) & 1,
            (nibble >> 3) & 1,
        ];
        // Codeword positions 1..=7 (1-indexed): p1 p2 d0 p4 d1 d2 d3.
        let p1 = d[0] ^ d[1] ^ d[3];
        let p2 = d[0] ^ d[2] ^ d[3];
        let p4 = d[1] ^ d[2] ^ d[3];
        let word7 = p1 | (p2 << 1) | (d[0] << 2) | (p4 << 3) | (d[1] << 4) | (d[2] << 5) | (d[3] << 6);
        let overall = (word7.count_ones() & 1) as u8;
        word7 | (overall << 7)
    }

    fn decode_block(byte: u8, block: usize) -> Result<(u8, usize), RubError> {
        let word7 = byte & 0x7F;
        let overall = (byte >> 7) & 1;
        let bit = |i: u8| (word7 >> (i - 1)) & 1;
        let s1 = bit(1) ^ bit(3) ^ bit(5) ^ bit(7);
        let s2 = bit(2) ^ bit(3) ^ bit(6) ^ bit(7);
        let s4 = bit(4) ^ bit(5) ^ bit(6) ^ bit(7);
        let syndrome = s1 | (s2 << 1) | (s4 << 2);
        let parity_ok = ((word7.count_ones() as u8 + overall) & 1) == 0;
        let (fixed7, corrected) = match (syndrome, parity_ok) {
            (0, true) => (word7, 0),
            (0, false) => (word7, 1), // overall parity bit itself flipped
            (s, false) => (word7 ^ (1 << (s - 1)), 1),
            (_, true) => return Err(RubError::Uncorrectable { block }),
        };
        let d0 = (fixed7 >> 2) & 1;
        let d1 = (fixed7 >> 4) & 1;
        let d2 = (fixed7 >> 5) & 1;
        let d3 = (fixed7 >> 6) & 1;
        Ok((d0 | (d1 << 1) | (d2 << 2) | (d3 << 3), corrected))
    }
}

impl ErrorCorrectingCode for HammingSecded {
    fn data_bits(&self) -> usize {
        4
    }

    fn code_bits(&self) -> usize {
        8
    }

    fn encode(&self, data: &Bits) -> Bits {
        assert_eq!(data.len() % 4, 0, "payload must be a multiple of 4 bits");
        let blocks = data.len() / 4;
        let mut out = Bits::zeros(blocks * 8);
        for b in 0..blocks {
            let mut nibble = 0u8;
            for j in 0..4 {
                if data.get(b * 4 + j) {
                    nibble |= 1 << j;
                }
            }
            let byte = Self::encode_block(nibble);
            for j in 0..8 {
                out.set(b * 8 + j, (byte >> j) & 1 == 1);
            }
        }
        out
    }

    fn decode(&self, code: &Bits) -> Result<(Bits, usize), RubError> {
        if !code.len().is_multiple_of(8) {
            return Err(RubError::LengthMismatch {
                expected: 8,
                got: code.len() % 8,
            });
        }
        let blocks = code.len() / 8;
        let mut out = Bits::zeros(blocks * 4);
        let mut corrected = 0;
        for b in 0..blocks {
            let mut byte = 0u8;
            for j in 0..8 {
                if code.get(b * 8 + j) {
                    byte |= 1 << j;
                }
            }
            let (nibble, c) = Self::decode_block(byte, b)?;
            corrected += c;
            for j in 0..4 {
                out.set(b * 4 + j, (nibble >> j) & 1 == 1);
            }
        }
        Ok((out, corrected))
    }

    fn corrects(&self) -> usize {
        1
    }
}

/// Code-offset fuzzy extractor: turns noisy RUB readings into a stable ID.
///
/// At enrollment the reading `r` is split into payload-sized chunks, the
/// chunks' codewords are XORed onto `r` producing public *helper data*; at
/// reproduction a fresh noisy reading plus the helper data decode back to
/// the enrolled ID as long as per-block errors stay within the code's
/// correction radius.
///
/// # Example
///
/// ```
/// use hwm_rub::ecc::{FuzzyExtractor, RepetitionCode};
/// use hwm_rub::{Environment, Rub, VariationModel};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let model = VariationModel::default();
/// let mut rng = StdRng::seed_from_u64(3);
/// let rub = Rub::sample(&model, 5 * 32, &mut rng);
/// let fx = FuzzyExtractor::new(RepetitionCode::new(5));
/// let (id, helper) = fx.enroll(&rub.read(&Environment::nominal(), &mut rng));
/// let again = fx
///     .reproduce(&rub.read(&Environment::nominal(), &mut rng), &helper)
///     .unwrap();
/// assert_eq!(id, again);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuzzyExtractor<C> {
    code: C,
}

impl<C: ErrorCorrectingCode> FuzzyExtractor<C> {
    /// Wraps an error-correcting code.
    pub fn new(code: C) -> Self {
        FuzzyExtractor { code }
    }

    /// Enrolls a reading: returns the stable ID and the public helper data.
    pub fn enroll(&self, reading: &Bits) -> (Bits, Bits) {
        let blocks = reading.len() / self.code.code_bits();
        let used = blocks * self.code.code_bits();
        // The ID is the first data_bits of each block of the reading.
        let mut id = Bits::zeros(blocks * self.code.data_bits());
        for b in 0..blocks {
            for j in 0..self.code.data_bits() {
                id.set(
                    b * self.code.data_bits() + j,
                    reading.get(b * self.code.code_bits() + j),
                );
            }
        }
        let codeword = self.code.encode(&id);
        let mut helper = Bits::zeros(used);
        for i in 0..used {
            helper.set(i, reading.get(i) ^ codeword.get(i));
        }
        (id, helper)
    }

    /// Reproduces the enrolled ID from a fresh noisy reading and the helper
    /// data.
    ///
    /// # Errors
    ///
    /// Returns [`RubError::LengthMismatch`] when the reading is shorter than
    /// the helper data, or [`RubError::Uncorrectable`] when the noise
    /// exceeded the code's correction radius.
    pub fn reproduce(&self, reading: &Bits, helper: &Bits) -> Result<Bits, RubError> {
        if reading.len() < helper.len() {
            return Err(RubError::LengthMismatch {
                expected: helper.len(),
                got: reading.len(),
            });
        }
        let mut noisy_codeword = Bits::zeros(helper.len());
        for i in 0..helper.len() {
            noisy_codeword.set(i, reading.get(i) ^ helper.get(i));
        }
        let (id, _corrected) = self.code.decode(&noisy_codeword)?;
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Environment, Rub, VariationModel};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn repetition_roundtrip_with_errors() {
        let code = RepetitionCode::new(5);
        let data = Bits::from_u64(0b1011_0010, 8);
        let mut enc = code.encode(&data);
        assert_eq!(enc.len(), 40);
        // Flip 2 bits in each block — still correctable.
        for b in 0..8 {
            enc.toggle(b * 5);
            enc.toggle(b * 5 + 3);
        }
        let (dec, corrected) = code.decode(&enc).unwrap();
        assert_eq!(dec, data);
        assert_eq!(corrected, 16);
    }

    #[test]
    fn repetition_fails_gracefully_on_bad_length() {
        let code = RepetitionCode::new(3);
        assert!(code.decode(&Bits::zeros(4)).is_err());
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn repetition_rejects_even() {
        RepetitionCode::new(4);
    }

    #[test]
    fn hamming_corrects_any_single_error() {
        let code = HammingSecded::new();
        for value in 0..16u64 {
            let data = Bits::from_u64(value, 4);
            let enc = code.encode(&data);
            for flip in 0..8 {
                let mut bad = enc.clone();
                bad.toggle(flip);
                let (dec, corrected) = code.decode(&bad).unwrap();
                assert_eq!(dec, data, "value {value}, flipped bit {flip}");
                assert_eq!(corrected, 1);
            }
        }
    }

    #[test]
    fn hamming_detects_double_errors() {
        let code = HammingSecded::new();
        let data = Bits::from_u64(0b1010, 4);
        let enc = code.encode(&data);
        let mut detected = 0;
        let mut total = 0;
        for i in 0..8 {
            for j in (i + 1)..8 {
                let mut bad = enc.clone();
                bad.toggle(i);
                bad.toggle(j);
                total += 1;
                if code.decode(&bad).is_err() {
                    detected += 1;
                }
            }
        }
        assert_eq!(detected, total, "SECDED must flag all double errors");
    }

    #[test]
    fn fuzzy_extractor_stable_over_many_reads() {
        let model = VariationModel::default();
        let mut rng = StdRng::seed_from_u64(11);
        let rub = Rub::sample(&model, 9 * 32, &mut rng);
        let fx = FuzzyExtractor::new(RepetitionCode::new(9));
        let env = Environment::nominal();
        let (id, helper) = fx.enroll(&rub.read_with(&model, &env, &mut rng));
        assert_eq!(id.len(), 32);
        for _ in 0..50 {
            let again = fx
                .reproduce(&rub.read_with(&model, &env, &mut rng), &helper)
                .expect("nominal noise within correction radius");
            assert_eq!(id, again);
        }
    }

    #[test]
    fn fuzzy_extractor_ids_still_unique_across_dies() {
        let model = VariationModel::default();
        let mut rng = StdRng::seed_from_u64(12);
        let fx = FuzzyExtractor::new(RepetitionCode::new(5));
        let env = Environment::nominal();
        let mut ids = Vec::new();
        for _ in 0..20 {
            let rub = Rub::sample(&model, 5 * 64, &mut rng);
            let (id, _) = fx.enroll(&rub.read_with(&model, &env, &mut rng));
            ids.push(id);
        }
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                assert!(ids[i].hamming_distance(&ids[j]) > 5);
            }
        }
    }

    #[test]
    fn helper_data_leaks_nothing_about_id_bits() {
        // The helper is reading ⊕ codeword. For the repetition code the
        // leading bit of each block is structurally 0 (it carries no
        // information); the remaining positions are XORs of independent
        // balanced cells, hence marginally uniform AND uncorrelated with the
        // ID bit itself.
        let model = VariationModel::default();
        let mut rng = StdRng::seed_from_u64(13);
        let fx = FuzzyExtractor::new(RepetitionCode::new(3));
        let mut ones = 0usize;
        let mut total = 0usize;
        let mut agree = 0usize; // helper bit == id bit occurrences
        let mut pairs = 0usize;
        for _ in 0..30 {
            let rub = Rub::sample(&model, 3 * 64, &mut rng);
            let (id, helper) =
                fx.enroll(&rub.read_with(&model, &Environment::nominal(), &mut rng));
            for block in 0..64 {
                assert!(!helper.get(block * 3), "leading helper bit must be 0");
                for j in 1..3 {
                    let h = helper.get(block * 3 + j);
                    ones += usize::from(h);
                    total += 1;
                    agree += usize::from(h == id.get(block));
                    pairs += 1;
                }
            }
        }
        let frac = ones as f64 / total as f64;
        assert!((0.42..=0.58).contains(&frac), "helper bias {frac}");
        let corr = agree as f64 / pairs as f64;
        assert!((0.42..=0.58).contains(&corr), "helper/ID correlation {corr}");
    }

    #[test]
    fn reproduce_rejects_short_reading() {
        let fx = FuzzyExtractor::new(RepetitionCode::new(3));
        let helper = Bits::zeros(12);
        let short = Bits::zeros(6);
        assert!(matches!(
            fx.reproduce(&short, &helper),
            Err(RubError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn random_data_roundtrips_hamming() {
        let code = HammingSecded::new();
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..50 {
            let data: Bits = (0..64).map(|_| rng.random_bool(0.5)).collect();
            let enc = code.encode(&data);
            let (dec, corrected) = code.decode(&enc).unwrap();
            assert_eq!(dec, data);
            assert_eq!(corrected, 0);
        }
    }
}
