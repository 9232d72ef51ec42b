//! A plain packed bit-vector.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A fixed-length packed vector of bits.
///
/// Used throughout the workspace for flip-flop snapshots, RUB identifier
/// readouts, state codes and input vectors. Bit `0` is the least-significant
/// bit of the first word.
///
/// # Example
///
/// ```
/// use hwm_logic::Bits;
///
/// let mut b = Bits::zeros(70);
/// b.set(69, true);
/// assert!(b.get(69));
/// assert_eq!(b.count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Bits {
    words: Vec<u64>,
    len: usize,
}

impl Bits {
    /// Creates a bit-vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Bits {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bit-vector of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut b = Bits {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        b.mask_top();
        b
    }

    /// Creates a bit-vector from the low `len` bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!(len <= 64, "from_u64 supports at most 64 bits, got {len}");
        let mut b = Bits::zeros(len);
        if len > 0 {
            b.words[0] = if len == 64 { value } else { value & ((1u64 << len) - 1) };
        }
        b
    }

    /// Creates a bit-vector from a slice of booleans (index 0 first).
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut b = Bits::zeros(bools.len());
        for (i, &v) in bools.iter().enumerate() {
            b.set(i, v);
        }
        b
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range for {} bits", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of range for {} bits", self.len);
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips bit `i`, returning its new value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn toggle(&mut self, i: usize) -> bool {
        let v = !self.get(i);
        self.set(i, v);
        v
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to another bit-vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming_distance(&self, other: &Bits) -> usize {
        assert_eq!(self.len, other.len, "hamming distance requires equal lengths");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Interprets the low 64 bits as an integer (bits beyond 64 ignored).
    pub fn low_u64(&self) -> u64 {
        self.words.first().copied().unwrap_or(0)
    }

    /// Iterates over the bits, index 0 first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Extracts bits `[start, start + len)` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the vector.
    pub fn slice(&self, start: usize, len: usize) -> Bits {
        assert!(start + len <= self.len, "slice out of range");
        let mut out = Bits::zeros(len);
        for i in 0..len {
            out.set(i, self.get(start + i));
        }
        out
    }

    fn mask_top(&mut self) {
        let used = self.len % 64;
        if used != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
    }
}

impl fmt::Debug for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bits[")?;
        for i in (0..self.len).rev() {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.len).rev() {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for Bits {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bools: Vec<bool> = iter.into_iter().collect();
        Bits::from_bools(&bools)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Bits::zeros(100);
        assert_eq!(z.count_ones(), 0);
        let o = Bits::ones(100);
        assert_eq!(o.count_ones(), 100);
        assert_eq!(o.len(), 100);
    }

    #[test]
    fn set_get_toggle() {
        let mut b = Bits::zeros(65);
        b.set(64, true);
        assert!(b.get(64));
        assert!(!b.get(0));
        assert!(!b.toggle(64));
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn from_u64_masks() {
        let b = Bits::from_u64(0xFF, 4);
        assert_eq!(b.count_ones(), 4);
        assert_eq!(b.low_u64(), 0xF);
    }

    #[test]
    fn hamming() {
        let a = Bits::from_u64(0b1010, 4);
        let b = Bits::from_u64(0b0110, 4);
        assert_eq!(a.hamming_distance(&b), 2);
    }

    #[test]
    fn concat_slice_roundtrip() {
        let a = Bits::from_u64(0b101, 3);
        let b = Bits::from_u64(0b01, 2);
        let c = Bits::from_u64(0b01_101, 5);
        assert_eq!(c.len(), 5);
        assert_eq!(c.slice(0, 3), a);
        assert_eq!(c.slice(3, 2), b);
    }

    #[test]
    fn display_msb_first() {
        let b = Bits::from_u64(0b0110, 4);
        assert_eq!(b.to_string(), "0110");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let b = Bits::zeros(3);
        b.get(3);
    }
}
