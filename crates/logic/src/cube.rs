//! Product terms in positional cube notation.

use crate::{Bits, LogicError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Value of one variable position within a [`Cube`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tri {
    /// The variable must be 0 (complemented literal).
    Zero,
    /// The variable must be 1 (positive literal).
    One,
    /// The variable is unconstrained.
    DontCare,
}

impl Tri {
    /// Parses a PLA character (`0`, `1`, `-` or `x`/`X`).
    pub fn from_char(c: char) -> Option<Tri> {
        match c {
            '0' => Some(Tri::Zero),
            '1' => Some(Tri::One),
            '-' | 'x' | 'X' | '2' => Some(Tri::DontCare),
            _ => None,
        }
    }

    /// The PLA character for this value.
    pub fn to_char(self) -> char {
        match self {
            Tri::Zero => '0',
            Tri::One => '1',
            Tri::DontCare => '-',
        }
    }
}

const PAIR_ZERO: u64 = 0b01; // allows value 0
const PAIR_ONE: u64 = 0b10; // allows value 1
const PAIR_FULL: u64 = 0b11; // allows both
const EVEN_MASK: u64 = 0x5555_5555_5555_5555;
const VARS_PER_WORD: usize = 32;

/// A product term over `n` binary variables in ESPRESSO's positional cube
/// notation: two bits per variable, one for "value 0 allowed" and one for
/// "value 1 allowed".
///
/// The pair `01` is the complemented literal, `10` the positive literal,
/// `11` a don't-care position and `00` an empty (contradictory) position.
///
/// # Example
///
/// ```
/// use hwm_logic::Cube;
///
/// let a: Cube = "1-0".parse().unwrap(); // x0 · x̄2
/// let b: Cube = "110".parse().unwrap();
/// assert!(a.contains(&b));
/// assert_eq!(a.literal_count(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Cube {
    words: Vec<u64>,
    width: usize,
}

impl Cube {
    /// The cube spanning the whole Boolean space (all positions don't-care).
    pub fn full(width: usize) -> Self {
        let mut cube = Cube {
            words: vec![!0u64; words_for(width)],
            width,
        };
        cube.mask_top();
        cube
    }

    /// Builds a cube from explicit per-variable values.
    pub fn from_tris(tris: &[Tri]) -> Self {
        let mut cube = Cube::full(tris.len());
        for (i, &t) in tris.iter().enumerate() {
            cube.set(i, t);
        }
        cube
    }

    /// Builds the minterm cube matching exactly the assignment in `bits`.
    pub fn from_minterm(bits: &Bits) -> Self {
        let mut cube = Cube::full(bits.len());
        for (i, v) in bits.iter().enumerate() {
            cube.set(i, if v { Tri::One } else { Tri::Zero });
        }
        cube
    }

    /// Builds the minterm cube for the low `width` bits of `value`.
    pub fn from_minterm_u64(value: u64, width: usize) -> Self {
        Cube::from_minterm(&Bits::from_u64(value, width))
    }

    /// Number of variables.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Returns the value at variable `v`, or `None` if the position is empty.
    ///
    /// # Panics
    ///
    /// Panics if `v >= width()`.
    pub fn get(&self, v: usize) -> Option<Tri> {
        match self.pair(v) {
            PAIR_ZERO => Some(Tri::Zero),
            PAIR_ONE => Some(Tri::One),
            PAIR_FULL => Some(Tri::DontCare),
            _ => None,
        }
    }

    /// Sets variable `v` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= width()`.
    pub fn set(&mut self, v: usize, value: Tri) {
        let pair = match value {
            Tri::Zero => PAIR_ZERO,
            Tri::One => PAIR_ONE,
            Tri::DontCare => PAIR_FULL,
        };
        self.set_pair(v, pair);
    }

    /// Whether any position is contradictory (the cube denotes no minterm).
    pub fn is_void(&self) -> bool {
        for (w, mask) in self.words.iter().zip(self.valid_masks()) {
            let present = (w | (w >> 1)) & EVEN_MASK & mask;
            if present != EVEN_MASK & mask {
                return true;
            }
        }
        false
    }

    /// Whether the cube is the full space (every position don't-care).
    pub fn is_full(&self) -> bool {
        for (w, mask) in self.words.iter().zip(self.valid_masks()) {
            if w & mask != mask {
                return false;
            }
        }
        true
    }

    /// Number of literal positions (positions that are `0` or `1`).
    pub fn literal_count(&self) -> usize {
        let mut n = 0;
        for (w, mask) in self.words.iter().zip(self.valid_masks()) {
            let w = w & mask;
            // A position is a literal when exactly one of its two bits is set.
            let lit = (w ^ (w >> 1)) & EVEN_MASK & mask;
            n += lit.count_ones() as usize;
        }
        n
    }

    /// Number of minterms covered: `2^(width - literal_count)`.
    ///
    /// Returns `None` when the count overflows `u128` or the cube is void.
    pub fn minterm_count(&self) -> Option<u128> {
        if self.is_void() {
            return Some(0);
        }
        let free = self.width - self.literal_count();
        if free >= 128 {
            None
        } else {
            Some(1u128 << free)
        }
    }

    /// Intersection (bitwise AND). The result may be void.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn intersect(&self, other: &Cube) -> Cube {
        self.check_width(other);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        Cube {
            words,
            width: self.width,
        }
    }

    /// Whether the cubes share at least one minterm.
    pub fn intersects(&self, other: &Cube) -> bool {
        !self.intersect(other).is_void()
    }

    /// Whether `self` covers every minterm of `other`.
    ///
    /// A void `other` is contained in everything.
    pub fn contains(&self, other: &Cube) -> bool {
        self.check_width(other);
        if other.is_void() {
            return true;
        }
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & b == *b)
    }

    /// The number of variable positions at which the intersection is empty.
    ///
    /// Distance 0 means the cubes intersect; distance 1 means their consensus
    /// is non-void.
    pub fn distance(&self, other: &Cube) -> usize {
        self.check_width(other);
        let mut d = 0;
        for ((a, b), mask) in self.words.iter().zip(&other.words).zip(self.valid_masks()) {
            let w = a & b;
            let present = (w | (w >> 1)) & EVEN_MASK & mask;
            d += ((EVEN_MASK & mask) ^ present).count_ones() as usize;
        }
        d
    }

    /// Shannon cofactor of `self` with respect to `other` (ESPRESSO's
    /// `a / c`). Returns `None` when the cubes do not intersect.
    pub fn cofactor(&self, other: &Cube) -> Option<Cube> {
        self.check_width(other);
        if !self.intersects(other) {
            return None;
        }
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, c)| a | !c)
            .collect();
        let mut cube = Cube {
            words,
            width: self.width,
        };
        cube.mask_top();
        Some(cube)
    }

    /// The smallest cube containing both operands (bitwise OR).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn supercube(&self, other: &Cube) -> Cube {
        self.check_width(other);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a | b)
            .collect();
        Cube {
            words,
            width: self.width,
        }
    }

    /// Returns a copy with variable `v` raised to don't-care.
    ///
    /// # Panics
    ///
    /// Panics if `v >= width()`.
    pub fn raised(&self, v: usize) -> Cube {
        let mut c = self.clone();
        c.set(v, Tri::DontCare);
        c
    }

    /// Whether the cube covers the minterm given by `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != width()`.
    pub fn covers_minterm(&self, bits: &Bits) -> bool {
        assert_eq!(bits.len(), self.width, "minterm width mismatch");
        for v in 0..self.width {
            let need = if bits.get(v) { PAIR_ONE } else { PAIR_ZERO };
            if self.pair(v) & need == 0 {
                return false;
            }
        }
        true
    }

    /// Whether the cube covers the minterm whose bit `i` is `(value >> i) & 1`
    /// — the allocation-free fast path for simulation loops.
    ///
    /// Only meaningful for widths up to 64; higher variables read as 0.
    pub fn covers_minterm_u64(&self, value: u64) -> bool {
        for v in 0..self.width {
            let bit = if v < 64 { (value >> v) & 1 } else { 0 };
            let need = if bit == 1 { PAIR_ONE } else { PAIR_ZERO };
            if self.pair(v) & need == 0 {
                return false;
            }
        }
        true
    }

    /// Iterates over the variable values.
    pub fn tris(&self) -> impl Iterator<Item = Option<Tri>> + '_ {
        (0..self.width).map(move |v| self.get(v))
    }

    fn pair(&self, v: usize) -> u64 {
        assert!(v < self.width, "variable {v} out of range for width {}", self.width);
        (self.words[v / VARS_PER_WORD] >> (2 * (v % VARS_PER_WORD))) & 0b11
    }

    fn set_pair(&mut self, v: usize, pair: u64) {
        assert!(v < self.width, "variable {v} out of range for width {}", self.width);
        let shift = 2 * (v % VARS_PER_WORD);
        let word = &mut self.words[v / VARS_PER_WORD];
        *word = (*word & !(0b11 << shift)) | (pair << shift);
    }

    fn check_width(&self, other: &Cube) {
        assert_eq!(
            self.width, other.width,
            "cube width mismatch: {} vs {}",
            self.width, other.width
        );
    }

    fn mask_top(&mut self) {
        let used = self.width % VARS_PER_WORD;
        if used != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << (2 * used)) - 1;
            }
        }
    }

    fn valid_masks(&self) -> impl Iterator<Item = u64> + '_ {
        let full_words = self.width / VARS_PER_WORD;
        let rem = self.width % VARS_PER_WORD;
        (0..self.words.len()).map(move |i| {
            if i < full_words {
                !0u64
            } else if i == full_words && rem != 0 {
                (1u64 << (2 * rem)) - 1
            } else {
                0
            }
        })
    }
}

fn words_for(width: usize) -> usize {
    width.div_ceil(VARS_PER_WORD).max(1)
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube(")?;
        fmt::Display::fmt(self, f)?;
        write!(f, ")")
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in 0..self.width {
            let c = match self.get(v) {
                Some(t) => t.to_char(),
                None => '!',
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl FromStr for Cube {
    type Err = LogicError;

    /// Parses PLA notation: one character per variable, `0`, `1`, `-`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut tris = Vec::with_capacity(s.len());
        for (position, ch) in s.chars().enumerate() {
            match Tri::from_char(ch) {
                Some(t) => tris.push(t),
                None => return Err(LogicError::ParseCube { found: ch, position }),
            }
        }
        Ok(Cube::from_tris(&tris))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(s: &str) -> Cube {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["01-", "1", "-", "10-01", &"-10".repeat(30)] {
            assert_eq!(cube(s).to_string(), *s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = "01z".parse::<Cube>().unwrap_err();
        assert_eq!(err, LogicError::ParseCube { found: 'z', position: 2 });
    }

    #[test]
    fn full_and_void() {
        assert!(Cube::full(100).is_full());
        assert!(!Cube::full(100).is_void());
        let a = cube("1-");
        let b = cube("0-");
        assert!(a.intersect(&b).is_void());
    }

    #[test]
    fn literal_count_wide() {
        let s = format!("{}1{}0", "-".repeat(40), "-".repeat(40));
        assert_eq!(cube(&s).literal_count(), 2);
    }

    #[test]
    fn containment() {
        assert!(cube("1--").contains(&cube("10-")));
        assert!(!cube("10-").contains(&cube("1--")));
        assert!(cube("1--").contains(&cube("1--")));
    }

    #[test]
    fn distance() {
        assert_eq!(cube("10-").distance(&cube("01-")), 2);
        assert_eq!(cube("10-").distance(&cube("11-")), 1);
        assert_eq!(cube("10-").distance(&cube("1--")), 0);
    }

    #[test]
    fn cofactor_basic() {
        // (a·b) / (a) = b
        let ab = cube("11");
        let a = cube("1-");
        assert_eq!(ab.cofactor(&a).unwrap(), cube("-1"));
        // disjoint → None
        assert!(cube("0-").cofactor(&cube("1-")).is_none());
    }

    #[test]
    fn supercube() {
        assert_eq!(cube("10").supercube(&cube("01")), cube("--"));
        assert_eq!(cube("10").supercube(&cube("11")), cube("1-"));
    }

    #[test]
    fn minterm_cover() {
        let c = cube("1-0");
        assert!(c.covers_minterm(&Bits::from_bools(&[true, false, false])));
        assert!(c.covers_minterm(&Bits::from_bools(&[true, true, false])));
        assert!(!c.covers_minterm(&Bits::from_bools(&[false, true, false])));
    }

    #[test]
    fn minterm_cover_u64_agrees_with_bits() {
        for s in ["1-0", "---", "010", "1--"] {
            let c = cube(s);
            for m in 0..8u64 {
                let bits = Bits::from_u64(m, 3);
                assert_eq!(
                    c.covers_minterm(&bits),
                    c.covers_minterm_u64(m),
                    "cube {s}, minterm {m}"
                );
            }
        }
    }

    #[test]
    fn minterm_count() {
        assert_eq!(cube("1-0").minterm_count(), Some(2));
        assert_eq!(Cube::full(7).minterm_count(), Some(128));
    }

    #[test]
    fn from_minterm_u64() {
        let c = Cube::from_minterm_u64(0b101, 3);
        // Bit 0 = 1, bit 1 = 0, bit 2 = 1; display is index order.
        assert_eq!(c.to_string(), "101");
    }
}
