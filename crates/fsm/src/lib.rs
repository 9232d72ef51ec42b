//! Finite-state-machine / state-transition-graph substrate.
//!
//! The paper manipulates designs at the STG level: the original control FSM
//! is *boosted* with added states, and key diversity is argued through the
//! cycle structure of the added graph. (The designer's key search runs on
//! the added STG's own step tables, in `hwm-metering`.) This crate provides
//! that machinery:
//!
//! * [`Stg`] — states, cube-labelled transitions, determinism/completeness
//!   checks, cycle-accurate simulation;
//! * [`kiss`] — the KISS2 interchange format used by SIS;
//! * [`cycles`] — cycle counting (the paper's §7.3 key-diversity argument);
//! * [`encode`] — state-encoding strategies including the out-of-sequence
//!   obfuscated encoding of §5.2;
//! * [`product`] — input/output equivalence of two machines (used to prove
//!   that boosting preserves the original behaviour after unlock);
//! * [`minimize`] — state minimization by partition refinement;
//! * [`corpus`] — a small corpus of realistic control FSMs in KISS2.
//!
//! # Example
//!
//! ```
//! use hwm_fsm::Stg;
//! use hwm_logic::Bits;
//!
//! let stg = Stg::ring_counter(5, 3);
//! assert!(stg.is_deterministic());
//! assert!(stg.is_complete());
//! // Driving the input high advances the ring.
//! let (next, out) = stg.step(stg.reset_state(), &Bits::from_u64(1, 1)).unwrap();
//! assert_eq!(next.index(), 1);
//! assert_eq!(out.low_u64(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod cycles;
pub mod encode;
pub mod kiss;
pub mod minimize;
pub mod product;
mod random;
mod stg;

pub use encode::{Encoding, EncodingStrategy};
pub use random::{indexed_seed, random_stg, random_stg_indexed};
pub use stg::{StateId, Stg, Transition};

use std::error::Error;
use std::fmt;

/// Maximum input width for exhaustive input enumeration (2^12 vectors per
/// state), the budget of [`product::io_equivalent`] and
/// [`minimize::minimize`].
pub const MAX_ENUMERATED_INPUT_BITS: usize = 12;

/// Errors produced by FSM-level operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FsmError {
    /// A state id referenced a state that does not exist.
    UnknownState {
        /// The offending index.
        index: usize,
    },
    /// A transition used the wrong input or output width.
    WidthMismatch {
        /// Expected width.
        expected: usize,
        /// Width supplied.
        got: usize,
    },
    /// Text being parsed was not valid KISS2.
    ParseKiss {
        /// Line number (1-based).
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A search exceeded its state or length budget.
    BudgetExceeded {
        /// The budget that was exhausted.
        budget: usize,
    },
    /// The machine is not deterministic where determinism is required.
    Nondeterministic {
        /// State at which two transitions overlap.
        state: usize,
    },
}

impl fmt::Display for FsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsmError::UnknownState { index } => write!(f, "unknown state index {index}"),
            FsmError::WidthMismatch { expected, got } => {
                write!(f, "width mismatch: expected {expected}, got {got}")
            }
            FsmError::ParseKiss { line, message } => {
                write!(f, "KISS2 parse error at line {line}: {message}")
            }
            FsmError::BudgetExceeded { budget } => {
                write!(f, "search exceeded budget of {budget}")
            }
            FsmError::Nondeterministic { state } => {
                write!(f, "machine is nondeterministic at state {state}")
            }
        }
    }
}

impl Error for FsmError {}
