//! The adversary suite: the nine attacks of the paper's §6.1, runnable
//! against protected chip populations, plus the countermeasure evaluation
//! of §6.2.
//!
//! Bob — the untrusted foundry — knows the full structural netlist, can
//! scan and invasively load every flip-flop, and can fabricate as many dies
//! as he likes. He does **not** know the behavioural specification: which
//! composed states are where, the obfuscated code assignment, or the
//! black-hole trigger placement. Each module here implements one attack
//! under exactly that knowledge model and reports a quantitative outcome:
//!
//! | §6.1 | Attack | Module |
//! |------|--------|--------|
//! | (i)   | Brute force (random inputs) | [`brute`] |
//! | (ii)  | FSM reverse engineering by scanning | [`reverse`] |
//! | (iii) | Combinational redundancy removal | [`redundancy`] |
//! | (iv)  | RUB emulation | [`emulation`] |
//! | (v)   | Initial power-up state capture-and-replay | [`replay`] |
//! | (vi)  | Initial reset state capture-and-replay | [`replay`] |
//! | (vii) | Control-signal capture-and-replay | [`replay`] |
//! | (viii)| Selective IC release | [`selective`] |
//! | (ix)  | Differential FF activity measurement | [`activity`] |
//!
//! Beyond §6.1, [`online`] adds attack (x): brute force replayed against
//! the *activation service* (`hwm-service`), where Alice's rate limiter —
//! not the lock itself — bounds the guess budget.
//!
//! [`report`] batches all of them against a configuration and produces
//! the resilience table used by the `attack_lab` example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod brute;
pub mod emulation;
pub mod online;
pub mod redundancy;
pub mod replay;
pub mod report;
pub mod reverse;
pub mod selective;

pub use brute::{brute_force, BruteForceOutcome};
pub use report::{run_all, AttackBudgets, AttackReport, AttackResult};

/// Generic outcome of one attack run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// Whether the attack achieved its goal.
    pub success: bool,
    /// Work spent (attack-specific unit: guesses, probes, chips…).
    pub effort: u64,
    /// Attack-specific detail for the report.
    pub detail: String,
}

impl AttackOutcome {
    /// A failed outcome with the given effort and note.
    pub fn failed(effort: u64, detail: impl Into<String>) -> Self {
        AttackOutcome {
            success: false,
            effort,
            detail: detail.into(),
        }
    }

    /// A successful outcome.
    pub fn succeeded(effort: u64, detail: impl Into<String>) -> Self {
        AttackOutcome {
            success: true,
            effort,
            detail: detail.into(),
        }
    }
}
