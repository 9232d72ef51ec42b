//! Active hardware metering — the paper's primary contribution.
//!
//! Every IC manufactured from a protected design powers up **locked**: the
//! control FSM is *boosted* (a BFSM) with an exponential number of added
//! states, and manufacturing variability (the RUB) drops each chip into a
//! unique added state at power-up. Only the designer, who knows the
//! transition table, can compute the input sequence (the *key*) that walks
//! the chip to its functional reset state. Black-hole states absorb
//! brute-force attackers; obfuscation defeats scan-based structure
//! recovery; SFFSM replication ties even the unlocked behaviour to the
//! chip's RUB, defeating replay.
//!
//! Module map (paper section in parentheses):
//!
//! * [`module3`] — the low-overhead 3-bit added-STG modules built from
//!   mutated ring counters (§5.2, Figure 4);
//! * [`added`] — module interconnection into a `3q`-bit added state space
//!   with cross-links and guaranteed traversal to the exit (§5.2);
//! * [`blackhole`] — black holes and designer-trapdoor gray holes (§6.2);
//! * [`obfuscate`] — power-up scrambling, dummy states and out-of-sequence
//!   code assignment (§5.2, Figure 5);
//! * [`bfsm`] — the boosted FSM combining all of the above with the
//!   original design (§4.1, Figure 3);
//! * [`hardware`] — synthesis of the BFSM additions into gates and the
//!   Table 1/2/4 overhead report;
//! * [`chip`] — the fabricated-IC model: RUB, FF scan/load, key
//!   application, remote disabling (§4, §8);
//! * [`protocol`] — Alice and Bob: [`Designer`], [`Foundry`] and the
//!   key-exchange flow of Figure 2;
//! * [`sffsm`] — RUB-dependent specialized functional FSMs (§6.2);
//! * [`diversity`] — key multiplicity via the cycle structure (§7.3);
//! * [`passive`] — the DAC 2001 passive metering scheme (the titled paper;
//!   see the collision note at the top of DESIGN.md).
//!
//! # Example
//!
//! ```
//! use hwm_metering::{Designer, Foundry, LockOptions};
//! use hwm_fsm::Stg;
//!
//! let original = Stg::ring_counter(5, 2);
//! let designer = Designer::new(original, LockOptions::default(), 7).unwrap();
//! let mut foundry = Foundry::new(designer.blueprint().clone(), 1234);
//! let mut chip = foundry.fabricate(1).pop().unwrap();
//!
//! assert!(!chip.is_unlocked());
//! let readout = chip.scan_flip_flops();
//! let key = designer.compute_key(&readout).unwrap();
//! chip.apply_key(&key).unwrap();
//! assert!(chip.is_unlocked());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod added;
pub mod bfsm;
pub mod blackhole;
pub mod chip;
pub mod diversity;
pub mod hardware;
pub mod module3;
pub mod obfuscate;
pub mod passive;
pub mod protocol;
pub mod sffsm;

pub use added::AddedStg;
pub use bfsm::{Bfsm, BfsmState};
pub use blackhole::BlackHole;
pub use chip::{Chip, ScanReadout, UnlockKey};
pub use module3::Module3;
pub use obfuscate::Obfuscation;
pub use protocol::{Designer, Foundry, LockOptions};

use std::error::Error;
use std::fmt;

/// Errors produced by the metering core.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MeteringError {
    /// The lock options were inconsistent (e.g. zero modules).
    InvalidOptions {
        /// Explanation.
        reason: String,
    },
    /// A scanned readout did not decode to a reachable locked state.
    UnrecognizedReadout,
    /// The chip reported a state from which no key exists (e.g. a black
    /// hole entered by a failed attack).
    NoKeyExists,
    /// A key was applied to a chip it does not fit.
    KeyRejected {
        /// Step at which the key diverged.
        at_step: usize,
    },
    /// Construction of the underlying machinery failed.
    Synthesis(hwm_synth::SynthError),
    /// An FSM-level operation failed.
    Fsm(hwm_fsm::FsmError),
}

impl fmt::Display for MeteringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeteringError::InvalidOptions { reason } => write!(f, "invalid lock options: {reason}"),
            MeteringError::UnrecognizedReadout => {
                write!(f, "scanned readout does not decode to a locked state")
            }
            MeteringError::NoKeyExists => write!(f, "no unlocking key exists from this state"),
            MeteringError::KeyRejected { at_step } => {
                write!(f, "key rejected: chip diverged at step {at_step}")
            }
            MeteringError::Synthesis(e) => write!(f, "synthesis failed: {e}"),
            MeteringError::Fsm(e) => write!(f, "FSM operation failed: {e}"),
        }
    }
}

impl Error for MeteringError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MeteringError::Synthesis(e) => Some(e),
            MeteringError::Fsm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hwm_synth::SynthError> for MeteringError {
    fn from(e: hwm_synth::SynthError) -> Self {
        MeteringError::Synthesis(e)
    }
}

impl From<hwm_fsm::FsmError> for MeteringError {
    fn from(e: hwm_fsm::FsmError) -> Self {
        MeteringError::Fsm(e)
    }
}
