//! Exhaustive truth tables for verifying the symbolic algorithms.

use crate::{Bits, Cover, LogicError};
use std::fmt;

/// Maximum variable count supported by [`TruthTable`].
pub const MAX_TRUTH_VARS: usize = 20;

/// An exhaustive truth table over at most [`MAX_TRUTH_VARS`] variables.
///
/// Used as the ground truth in tests of the cube/cover algebra and as the
/// functional model when simulating small mapped netlists.
///
/// # Example
///
/// ```
/// use hwm_logic::{Cover, TruthTable};
///
/// let f = Cover::from_strings(2, &["1-", "-1"]).unwrap(); // OR
/// let t = TruthTable::from_cover(&f).unwrap();
/// assert_eq!(t.count_ones(), 3);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct TruthTable {
    vars: usize,
    words: Vec<u64>,
}

impl TruthTable {
    /// Creates the constant-0 table over `vars` variables.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::TooManyVariables`] when `vars > MAX_TRUTH_VARS`.
    pub fn zeros(vars: usize) -> Result<Self, LogicError> {
        if vars > MAX_TRUTH_VARS {
            return Err(LogicError::TooManyVariables {
                requested: vars,
                max: MAX_TRUTH_VARS,
            });
        }
        let rows = 1usize << vars;
        Ok(TruthTable {
            vars,
            words: vec![0; rows.div_ceil(64)],
        })
    }

    /// Builds the table of a cover by enumerating all minterms.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::TooManyVariables`] for wide covers.
    pub fn from_cover(cover: &Cover) -> Result<Self, LogicError> {
        let mut t = TruthTable::zeros(cover.width())?;
        for m in 0..(1usize << cover.width()) {
            let bits = Bits::from_u64(m as u64, cover.width());
            if cover.covers_minterm(&bits) {
                t.set(m, true);
            }
        }
        Ok(t)
    }

    /// Number of variables.
    pub fn vars(&self) -> usize {
        self.vars
    }

    /// Number of rows (`2^vars`).
    pub fn rows(&self) -> usize {
        1usize << self.vars
    }

    /// Value at row `m` (the minterm whose bit `i` is `(m >> i) & 1`).
    ///
    /// # Panics
    ///
    /// Panics if `m >= rows()`.
    pub fn get(&self, m: usize) -> bool {
        assert!(m < self.rows(), "row {m} out of range");
        (self.words[m / 64] >> (m % 64)) & 1 == 1
    }

    /// Sets the value at row `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= rows()`.
    pub fn set(&mut self, m: usize, v: bool) {
        assert!(m < self.rows(), "row {m} out of range");
        let mask = 1u64 << (m % 64);
        if v {
            self.words[m / 64] |= mask;
        } else {
            self.words[m / 64] &= !mask;
        }
    }

    /// Number of ON-set rows.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether two tables describe the same function.
    ///
    /// Test oracle: `tests/properties.rs`'s `double_complement_is_identity`
    /// checks cover complementation against it.
    pub fn same_function(&self, other: &TruthTable) -> bool {
        self.vars == other.vars && self.words == other.words
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TruthTable({} vars, {}/{} ones)",
            self.vars,
            self.count_ones(),
            self.rows()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_cover_and_count() {
        let f = Cover::from_strings(3, &["1--", "01-"]).unwrap();
        let t = TruthTable::from_cover(&f).unwrap();
        assert_eq!(t.count_ones(), 6);
    }

    #[test]
    fn rejects_wide() {
        assert!(TruthTable::zeros(MAX_TRUTH_VARS + 1).is_err());
    }

    #[test]
    fn set_get() {
        let mut t = TruthTable::zeros(7).unwrap();
        t.set(100, true);
        assert!(t.get(100));
        assert_eq!(t.count_ones(), 1);
    }
}
