//! State minimization by partition refinement (Moore/Hopcroft style).
//!
//! The designer minimizes the control FSM *before* boosting it — fewer
//! original states mean a smaller `m` in the §4.2 probability analysis and
//! cheaper functional logic. Works on complete, deterministic machines with
//! an enumerable input alphabet.

use crate::{FsmError, StateId, Stg};
use hwm_logic::{Bits, Cube};
use std::collections::HashMap;

/// Result of minimizing an STG.
#[derive(Debug, Clone)]
pub struct Minimized {
    /// The reduced machine.
    pub stg: Stg,
    /// For each original state, the reduced state it maps to.
    pub class_of: Vec<StateId>,
}

/// Minimizes a complete, deterministic STG by partition refinement.
///
/// # Errors
///
/// * [`FsmError::Nondeterministic`] when transitions conflict;
/// * [`FsmError::BudgetExceeded`] when the input space is too wide to
///   enumerate (more than [`crate::MAX_ENUMERATED_INPUT_BITS`] bits).
pub fn minimize(stg: &Stg) -> Result<Minimized, FsmError> {
    let _span = hwm_trace::span("fsm.minimize");
    if let Some(s) = stg.nondeterministic_state() {
        return Err(FsmError::Nondeterministic { state: s.index() });
    }
    let b = stg.num_inputs();
    if b > crate::MAX_ENUMERATED_INPUT_BITS {
        return Err(FsmError::BudgetExceeded {
            budget: crate::MAX_ENUMERATED_INPUT_BITS,
        });
    }
    let n = stg.state_count();
    let n_inputs = 1usize << b;

    // Precompute the step table (next state, output) per (state, input).
    let mut next = vec![0u32; n * n_inputs];
    let mut outs: Vec<Bits> = Vec::with_capacity(n * n_inputs);
    for s in 0..n {
        for v in 0..n_inputs {
            let input = Bits::from_u64(v as u64, b);
            let (t, o) = stg.step_or_hold(StateId::from_index(s), &input);
            next[s * n_inputs + v] = t.index() as u32;
            outs.push(o);
        }
    }

    // Initial partition: by full output signature.
    let mut block = vec![0u32; n];
    {
        let mut sig_ids: HashMap<Vec<Bits>, u32> = HashMap::new();
        for s in 0..n {
            let sig: Vec<Bits> = (0..n_inputs).map(|v| outs[s * n_inputs + v].clone()).collect();
            let id = sig_ids.len() as u32;
            let e = *sig_ids.entry(sig).or_insert(id);
            block[s] = e;
        }
    }

    // Refinement to a fixed point.
    loop {
        let mut sig_ids: HashMap<(u32, Vec<u32>), u32> = HashMap::new();
        let mut new_block = vec![0u32; n];
        for s in 0..n {
            let succ: Vec<u32> = (0..n_inputs)
                .map(|v| block[next[s * n_inputs + v] as usize])
                .collect();
            let key = (block[s], succ);
            let id = sig_ids.len() as u32;
            let e = *sig_ids.entry(key).or_insert(id);
            new_block[s] = e;
        }
        let stable = new_block == block;
        block = new_block;
        if stable {
            break;
        }
    }

    // Build the reduced machine; block of the reset state becomes reset.
    let n_blocks = block.iter().copied().max().map_or(0, |m| m as usize + 1);
    hwm_trace::counter("states_in", n as u64);
    hwm_trace::counter("states_out", n_blocks as u64);
    let mut reduced = Stg::new(b, stg.num_outputs());
    reduced.set_name(format!("{}_min", stg.name()));
    // Representative original state per block (first occurrence).
    let mut repr: Vec<Option<usize>> = vec![None; n_blocks];
    for (s, &blk) in block.iter().enumerate() {
        let slot = &mut repr[blk as usize];
        if slot.is_none() {
            *slot = Some(s);
        }
    }
    for blk in 0..n_blocks {
        reduced.add_state(format!("c{blk}"));
    }
    for (blk, slot) in repr.iter().enumerate() {
        let s = slot.expect("non-empty block");
        for v in 0..n_inputs {
            let t = block[next[s * n_inputs + v] as usize];
            let out = &outs[s * n_inputs + v];
            let out_cube = Cube::from_minterm(out);
            reduced
                .add_transition(
                    StateId::from_index(blk),
                    Cube::from_minterm_u64(v as u64, b),
                    StateId::from_index(t as usize),
                    out_cube,
                )
                .expect("widths consistent");
        }
    }
    reduced.set_reset(StateId::from_index(block[stg.reset_state().index()] as usize));
    Ok(Minimized {
        stg: reduced,
        class_of: block.iter().map(|&b| StateId::from_index(b as usize)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::io_equivalent;

    #[test]
    fn duplicated_states_collapse() {
        // Two copies of a 3-state ring, cross-wired so they are equivalent.
        let mut stg = Stg::new(1, 2);
        for i in 0..6 {
            stg.add_state(format!("s{i}"));
        }
        for i in 0..6usize {
            let here = StateId::from_index(i);
            let next = StateId::from_index((i + 1) % 3 + (i / 3) * 3);
            let out = Cube::from_minterm_u64((i % 3) as u64, 2);
            stg.add_transition(here, "1".parse().unwrap(), next, out.clone()).unwrap();
            stg.add_transition(here, "0".parse().unwrap(), here, out).unwrap();
        }
        stg.set_reset(StateId::from_index(0));
        let min = minimize(&stg).unwrap();
        assert_eq!(min.stg.state_count(), 3);
        // Same behaviour.
        let eq = io_equivalent(&stg, stg.reset_state(), &min.stg, min.stg.reset_state(), 10_000)
            .unwrap();
        assert!(eq.is_equivalent());
        // States i and i+3 are in the same class.
        for i in 0..3 {
            assert_eq!(min.class_of[i], min.class_of[i + 3]);
        }
    }

    #[test]
    fn corpus_machines_minimize_as_expected() {
        // traffic/arbiter/detector are minimal as written; memctl's
        // `reading` and `writing` states are Mealy-equivalent (both emit
        // the same command and go to precharge) — the minimizer collapses
        // them, exactly what a designer runs this pass for.
        for (name, expected) in [("traffic", 4usize), ("arbiter", 4), ("detector", 4), ("memctl", 5)] {
            let stg = crate::corpus::load(name);
            let min = minimize(&stg).unwrap();
            assert_eq!(min.stg.state_count(), expected, "{name}");
            let eq = io_equivalent(
                &stg,
                stg.reset_state(),
                &min.stg,
                min.stg.reset_state(),
                100_000,
            )
            .unwrap();
            assert!(eq.is_equivalent(), "{name}");
        }
    }

    #[test]
    fn random_machines_minimize_equivalently() {
        for seed in 0..8 {
            let stg = crate::random_stg(12, 2, 2, 2, 400 + seed);
            let min = minimize(&stg).unwrap();
            assert!(min.stg.state_count() <= stg.state_count());
            let eq = io_equivalent(
                &stg,
                stg.reset_state(),
                &min.stg,
                min.stg.reset_state(),
                100_000,
            )
            .unwrap();
            assert!(eq.is_equivalent(), "seed {seed}");
        }
    }

    #[test]
    fn nondeterministic_rejected() {
        let mut stg = Stg::new(1, 1);
        let a = stg.add_state("a");
        let c = stg.add_state("b");
        stg.add_transition_str(a, "1", c, "0").unwrap();
        stg.add_transition_str(a, "-", a, "1").unwrap();
        assert!(matches!(
            minimize(&stg),
            Err(FsmError::Nondeterministic { .. })
        ));
    }

    #[test]
    fn wide_inputs_rejected() {
        let mut stg = Stg::new(20, 1);
        stg.add_state("a");
        assert!(matches!(
            minimize(&stg),
            Err(FsmError::BudgetExceeded { .. })
        ));
    }
}
