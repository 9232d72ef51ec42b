//! Input/output equivalence of two machines.
//!
//! Boosting an FSM must preserve the original behavioural specification
//! (§4.1): once the BFSM has been driven to the functional reset state, its
//! observable input/output behaviour must be identical to the original
//! design's. This module checks that by breadth-first exploration of the
//! product machine from a given pair of start states.

use crate::{FsmError, StateId, Stg};
use hwm_logic::Bits;
use std::collections::{HashSet, VecDeque};

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// The machines agree on every reachable input sequence.
    Equivalent,
    /// A counterexample input sequence on which the outputs differ.
    Counterexample(Vec<Bits>),
}

impl Equivalence {
    /// Whether the machines were found equivalent.
    ///
    /// Test oracle: `corpus_machines_roundtrip_kiss2` (`tests/corpus_lockdown.rs`)
    /// and `minimize.rs`'s `corpus_machines_minimize_as_expected` check KISS2
    /// round trips and minimization against it.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Equivalence::Equivalent)
    }
}

/// Checks that `a` (from `start_a`) and `b` (from `start_b`) produce the same
/// outputs for every input sequence, by product-machine BFS under the exact
/// `step_or_hold` semantics.
///
/// # Errors
///
/// * [`FsmError::WidthMismatch`] when the machines have different interfaces;
/// * [`FsmError::BudgetExceeded`] when more than `max_pairs` product states
///   are visited or the input space is too wide to enumerate.
pub fn io_equivalent(
    a: &Stg,
    start_a: StateId,
    b: &Stg,
    start_b: StateId,
    max_pairs: usize,
) -> Result<Equivalence, FsmError> {
    if a.num_inputs() != b.num_inputs() {
        return Err(FsmError::WidthMismatch {
            expected: a.num_inputs(),
            got: b.num_inputs(),
        });
    }
    if a.num_outputs() != b.num_outputs() {
        return Err(FsmError::WidthMismatch {
            expected: a.num_outputs(),
            got: b.num_outputs(),
        });
    }
    let nb = a.num_inputs();
    if nb > crate::MAX_ENUMERATED_INPUT_BITS {
        return Err(FsmError::BudgetExceeded {
            budget: crate::MAX_ENUMERATED_INPUT_BITS,
        });
    }
    let n_inputs = 1u64 << nb;
    let mut seen: HashSet<(StateId, StateId)> = HashSet::new();
    // Store the input sequence leading to each pair for counterexamples.
    let mut queue: VecDeque<(StateId, StateId, Vec<Bits>)> = VecDeque::new();
    seen.insert((start_a, start_b));
    queue.push_back((start_a, start_b, Vec::new()));
    while let Some((sa, sb, path)) = queue.pop_front() {
        if seen.len() > max_pairs {
            return Err(FsmError::BudgetExceeded { budget: max_pairs });
        }
        for v in 0..n_inputs {
            let input = Bits::from_u64(v, nb);
            let (na, oa) = a.step_or_hold(sa, &input);
            let (nb2, ob) = b.step_or_hold(sb, &input);
            if oa != ob {
                let mut cex = path.clone();
                cex.push(input);
                return Ok(Equivalence::Counterexample(cex));
            }
            if seen.insert((na, nb2)) {
                let mut next_path = path.clone();
                next_path.push(input);
                queue.push_back((na, nb2, next_path));
            }
        }
    }
    Ok(Equivalence::Equivalent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_equals_itself() {
        let stg = Stg::ring_counter(5, 2);
        let eq = io_equivalent(&stg, stg.reset_state(), &stg, stg.reset_state(), 1000).unwrap();
        assert!(eq.is_equivalent());
    }

    #[test]
    fn absorbed_copy_still_equivalent_from_reset() {
        let original = Stg::ring_counter(4, 2);
        let mut boosted = original.clone();
        let extra = Stg::ring_counter(6, 2);
        boosted.absorb(&extra, "added_").unwrap();
        let eq = io_equivalent(
            &original,
            original.reset_state(),
            &boosted,
            boosted.reset_state(),
            10_000,
        )
        .unwrap();
        assert!(eq.is_equivalent(), "adding disconnected states must not change behaviour");
    }

    #[test]
    fn detects_output_difference() {
        use hwm_logic::Cube;
        let a = Stg::ring_counter(3, 2);
        // Same structure, but state 2's output is corrupted to 3.
        let mut b = Stg::new(1, 2);
        for i in 0..3 {
            b.add_state(format!("q{i}"));
        }
        for i in 0..3u64 {
            let here = StateId::from_index(i as usize);
            let next = StateId::from_index(((i + 1) % 3) as usize);
            let value = if i == 2 { 3 } else { i };
            let out = Cube::from_minterm_u64(value, 2);
            b.add_transition(here, "1".parse().unwrap(), next, out.clone()).unwrap();
            b.add_transition(here, "0".parse().unwrap(), here, out).unwrap();
        }
        b.set_reset(StateId::from_index(0));
        let eq = io_equivalent(&a, a.reset_state(), &b, b.reset_state(), 1000).unwrap();
        match eq {
            Equivalence::Counterexample(cex) => {
                // Replaying the counterexample must expose the difference.
                let (_, oa) = a.run(a.reset_state(), &cex);
                let (_, ob) = b.run(b.reset_state(), &cex);
                assert_ne!(oa.last(), ob.last());
            }
            Equivalence::Equivalent => panic!("difference not detected"),
        }
    }

    #[test]
    fn interface_mismatch_rejected() {
        let a = Stg::ring_counter(3, 1);
        let b = Stg::ring_counter(3, 2);
        assert!(io_equivalent(&a, a.reset_state(), &b, b.reset_state(), 10).is_err());
    }

    #[test]
    fn budget_enforced() {
        let a = Stg::ring_counter(64, 1);
        let b = Stg::ring_counter(64, 1);
        let r = io_equivalent(&a, a.reset_state(), &b, b.reset_state(), 3);
        assert!(matches!(r, Err(FsmError::BudgetExceeded { .. })));
    }
}
