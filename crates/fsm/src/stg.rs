//! The state transition graph.

use crate::FsmError;
use hwm_logic::{Bits, Cover, Cube};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a state within an [`Stg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// Raw index of the state.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a state id from a raw index.
    ///
    /// Prefer the ids returned by [`Stg::add_state`]; this constructor exists
    /// for tables indexed by state.
    pub fn from_index(index: usize) -> StateId {
        StateId(index as u32)
    }
}

/// One edge of the STG: `from --input/output--> to`.
///
/// The input condition is a [`Cube`] over the machine's input bits; the
/// output is a cube over the output bits (don't-care output positions
/// resolve to 0 during simulation, matching SIS).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transition {
    /// Source state.
    pub from: StateId,
    /// Input condition.
    pub input: Cube,
    /// Destination state.
    pub to: StateId,
    /// Output values.
    pub output: Cube,
}

/// A state transition graph (the control part of a sequential design).
///
/// Transitions are matched in insertion order during simulation, so an STG
/// with overlapping input cubes still behaves deterministically; the
/// [`Stg::is_deterministic`] check reports whether overlaps are consistent.
///
/// # Example
///
/// ```
/// use hwm_fsm::Stg;
/// use hwm_logic::Bits;
///
/// let mut stg = Stg::new(1, 1);
/// let s0 = stg.add_state("idle");
/// let s1 = stg.add_state("busy");
/// stg.add_transition_str(s0, "1", s1, "0").unwrap();
/// stg.add_transition_str(s0, "0", s0, "0").unwrap();
/// stg.add_transition_str(s1, "-", s0, "1").unwrap();
/// stg.set_reset(s0);
/// let (next, out) = stg.step(s0, &Bits::from_u64(1, 1)).unwrap();
/// assert_eq!(next, s1);
/// assert_eq!(out.low_u64(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stg {
    name: String,
    num_inputs: usize,
    num_outputs: usize,
    states: Vec<String>,
    transitions: Vec<Transition>,
    /// Transition indices grouped by source state.
    by_state: Vec<Vec<usize>>,
    reset: StateId,
}

impl Stg {
    /// Creates an empty STG with the given input/output bit widths.
    pub fn new(num_inputs: usize, num_outputs: usize) -> Self {
        Stg {
            name: "stg".to_string(),
            num_inputs,
            num_outputs,
            states: Vec::new(),
            transitions: Vec::new(),
            by_state: Vec::new(),
            reset: StateId(0),
        }
    }

    /// A complete `n`-state ring counter: one input bit advances the ring
    /// (input 0 holds), outputs report the low bits of the state index.
    /// A convenient well-understood original design for examples and tests.
    pub fn ring_counter(n: usize, num_outputs: usize) -> Self {
        assert!(n >= 1, "ring counter needs at least one state");
        let mut stg = Stg::new(1, num_outputs);
        for i in 0..n {
            stg.add_state(format!("q{i}"));
        }
        for i in 0..n {
            let here = StateId(i as u32);
            let next = StateId(((i + 1) % n) as u32);
            let out = Cube::from_minterm_u64((i as u64) & mask(num_outputs), num_outputs);
            stg.add_transition(here, "1".parse().unwrap(), next, out.clone())
                .expect("widths are consistent");
            stg.add_transition(here, "0".parse().unwrap(), here, out)
                .expect("widths are consistent");
        }
        stg.set_reset(StateId(0));
        stg
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of input bits.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of output bits.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Name of one state.
    pub fn state_name(&self, s: StateId) -> &str {
        &self.states[s.index()]
    }

    /// All transitions, in insertion (priority) order.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Transitions leaving `s`, in priority order.
    pub fn transitions_from(&self, s: StateId) -> impl Iterator<Item = &Transition> + '_ {
        self.by_state[s.index()].iter().map(move |&i| &self.transitions[i])
    }

    /// The reset (initial functional) state.
    pub fn reset_state(&self) -> StateId {
        self.reset
    }

    /// Sets the reset state.
    ///
    /// # Panics
    ///
    /// Panics if the state does not exist.
    pub fn set_reset(&mut self, s: StateId) {
        assert!(s.index() < self.states.len(), "unknown state {s:?}");
        self.reset = s;
    }

    /// Adds a state and returns its id.
    pub fn add_state(&mut self, name: impl Into<String>) -> StateId {
        let id = StateId(self.states.len() as u32);
        self.states.push(name.into());
        self.by_state.push(Vec::new());
        id
    }

    /// Adds a transition.
    ///
    /// # Errors
    ///
    /// Returns [`FsmError::UnknownState`] or [`FsmError::WidthMismatch`].
    pub fn add_transition(
        &mut self,
        from: StateId,
        input: Cube,
        to: StateId,
        output: Cube,
    ) -> Result<(), FsmError> {
        for s in [from, to] {
            if s.index() >= self.states.len() {
                return Err(FsmError::UnknownState { index: s.index() });
            }
        }
        if input.width() != self.num_inputs {
            return Err(FsmError::WidthMismatch {
                expected: self.num_inputs,
                got: input.width(),
            });
        }
        if output.width() != self.num_outputs {
            return Err(FsmError::WidthMismatch {
                expected: self.num_outputs,
                got: output.width(),
            });
        }
        self.by_state[from.index()].push(self.transitions.len());
        self.transitions.push(Transition {
            from,
            input,
            to,
            output,
        });
        Ok(())
    }

    /// Adds a transition from PLA strings (`"1-0"` style).
    ///
    /// # Errors
    ///
    /// As [`Stg::add_transition`], plus cube parse errors mapped to
    /// [`FsmError::ParseKiss`] with line 0.
    pub fn add_transition_str(
        &mut self,
        from: StateId,
        input: &str,
        to: StateId,
        output: &str,
    ) -> Result<(), FsmError> {
        let input: Cube = input.parse().map_err(|e| FsmError::ParseKiss {
            line: 0,
            message: format!("{e}"),
        })?;
        let output: Cube = output.parse().map_err(|e| FsmError::ParseKiss {
            line: 0,
            message: format!("{e}"),
        })?;
        self.add_transition(from, input, to, output)
    }

    /// One simulation step: the first transition from `s` whose input cube
    /// covers `input` fires. Returns `None` when no transition matches.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != num_inputs()` or `s` is out of range.
    pub fn step(&self, s: StateId, input: &Bits) -> Option<(StateId, Bits)> {
        assert_eq!(input.len(), self.num_inputs, "input width mismatch");
        for &ti in &self.by_state[s.index()] {
            let t = &self.transitions[ti];
            if t.input.covers_minterm(input) {
                return Some((t.to, resolve_output(&t.output)));
            }
        }
        None
    }

    /// Like [`Stg::step`] but holds the state (with all-zero output) when no
    /// transition matches — the behaviour of synthesized logic whose
    /// unspecified entries were filled as "stay".
    pub fn step_or_hold(&self, s: StateId, input: &Bits) -> (StateId, Bits) {
        self.step(s, input)
            .unwrap_or_else(|| (s, Bits::zeros(self.num_outputs)))
    }

    /// Runs an input sequence from `start`, returning the visited states
    /// (excluding `start`) and the outputs.
    pub fn run(&self, start: StateId, inputs: &[Bits]) -> (Vec<StateId>, Vec<Bits>) {
        let mut s = start;
        let mut states = Vec::with_capacity(inputs.len());
        let mut outs = Vec::with_capacity(inputs.len());
        for i in inputs {
            let (next, out) = self.step_or_hold(s, i);
            s = next;
            states.push(s);
            outs.push(out);
        }
        (states, outs)
    }

    /// Whether every pair of overlapping input cubes from the same state
    /// agrees on destination and output.
    pub fn is_deterministic(&self) -> bool {
        self.nondeterministic_state().is_none()
    }

    /// The first state with genuinely conflicting transitions, if any.
    pub fn nondeterministic_state(&self) -> Option<StateId> {
        for (s, idxs) in self.by_state.iter().enumerate() {
            for (a, &i) in idxs.iter().enumerate() {
                for &j in &idxs[a + 1..] {
                    let (ti, tj) = (&self.transitions[i], &self.transitions[j]);
                    if ti.input.intersects(&tj.input) && (ti.to != tj.to || ti.output != tj.output)
                    {
                        return Some(StateId(s as u32));
                    }
                }
            }
        }
        None
    }

    /// Whether every state specifies a next state for every input vector.
    pub fn is_complete(&self) -> bool {
        (0..self.states.len()).all(|s| {
            let cover = Cover::from_cubes(
                self.num_inputs,
                self.by_state[s].iter().map(|&i| self.transitions[i].input.clone()),
            );
            cover.is_tautology()
        })
    }

    /// States reachable from `start` (including it), in BFS order.
    ///
    /// Test oracle: `random.rs`'s `generated_is_complete_deterministic_connected`
    /// and `tests/properties.rs`'s `generated_stgs_are_well_formed` check that
    /// generated machines are connected against it.
    pub fn reachable_from(&self, start: StateId) -> Vec<StateId> {
        let mut seen = vec![false; self.states.len()];
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        seen[start.index()] = true;
        queue.push_back(start);
        while let Some(s) = queue.pop_front() {
            order.push(s);
            for t in self.transitions_from(s) {
                if !seen[t.to.index()] {
                    seen[t.to.index()] = true;
                    queue.push_back(t.to);
                }
            }
        }
        order
    }

    /// Merges `other` into `self`: every state and transition of `other` is
    /// copied (state names prefixed), and the mapping from `other`'s state
    /// ids to the new ids is returned. Input/output widths must match.
    ///
    /// # Errors
    ///
    /// Returns [`FsmError::WidthMismatch`] when the interfaces differ.
    pub fn absorb(&mut self, other: &Stg, prefix: &str) -> Result<Vec<StateId>, FsmError> {
        if other.num_inputs != self.num_inputs {
            return Err(FsmError::WidthMismatch {
                expected: self.num_inputs,
                got: other.num_inputs,
            });
        }
        if other.num_outputs != self.num_outputs {
            return Err(FsmError::WidthMismatch {
                expected: self.num_outputs,
                got: other.num_outputs,
            });
        }
        let map: Vec<StateId> = other
            .states
            .iter()
            .map(|name| self.add_state(format!("{prefix}{name}")))
            .collect();
        for t in &other.transitions {
            self.add_transition(
                map[t.from.index()],
                t.input.clone(),
                map[t.to.index()],
                t.output.clone(),
            )?;
        }
        Ok(map)
    }
}

impl fmt::Display for Stg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} states, {} transitions, {} in / {} out",
            self.name,
            self.states.len(),
            self.transitions.len(),
            self.num_inputs,
            self.num_outputs
        )
    }
}

fn resolve_output(cube: &Cube) -> Bits {
    let mut bits = Bits::zeros(cube.width());
    for (v, t) in cube.tris().enumerate() {
        if t == Some(hwm_logic::Tri::One) {
            bits.set(v, true);
        }
    }
    bits
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
    fn ring_counter_cycles() {
        let stg = Stg::ring_counter(4, 2);
        assert_eq!(stg.state_count(), 4);
        assert!(stg.is_deterministic());
        assert!(stg.is_complete());
        let mut s = stg.reset_state();
        for expect in [1u64, 2, 3, 0, 1] {
            let (next, _) = stg.step(s, &Bits::from_u64(1, 1)).unwrap();
            assert_eq!(next.index() as u64, expect);
            s = next;
        }
        // Input 0 holds.
        let (hold, _) = stg.step(s, &Bits::from_u64(0, 1)).unwrap();
        assert_eq!(hold, s);
    }

    #[test]
    fn width_checks() {
        let mut stg = Stg::new(2, 1);
        let s = stg.add_state("s");
        assert!(matches!(
            stg.add_transition_str(s, "1", s, "0"),
            Err(FsmError::WidthMismatch { .. })
        ));
        assert!(matches!(
            stg.add_transition_str(s, "11", s, "00"),
            Err(FsmError::WidthMismatch { .. })
        ));
        assert!(stg.add_transition_str(s, "1-", s, "1").is_ok());
    }

    #[test]
    fn unknown_state_rejected() {
        let mut stg = Stg::new(1, 1);
        let s = stg.add_state("s");
        let ghost = StateId::from_index(7);
        assert!(matches!(
            stg.add_transition_str(s, "1", ghost, "0"),
            Err(FsmError::UnknownState { .. })
        ));
    }

    #[test]
    fn nondeterminism_detected() {
        let mut stg = Stg::new(1, 1);
        let a = stg.add_state("a");
        let b = stg.add_state("b");
        stg.add_transition_str(a, "1", a, "0").unwrap();
        stg.add_transition_str(a, "-", b, "0").unwrap();
        assert_eq!(stg.nondeterministic_state(), Some(a));
        // Consistent overlap is fine.
        let mut ok = Stg::new(1, 1);
        let a = ok.add_state("a");
        ok.add_transition_str(a, "1", a, "0").unwrap();
        ok.add_transition_str(a, "-", a, "0").unwrap();
        assert!(ok.is_deterministic());
    }

    #[test]
    fn completeness() {
        let mut stg = Stg::new(2, 1);
        let a = stg.add_state("a");
        stg.add_transition_str(a, "1-", a, "0").unwrap();
        assert!(!stg.is_complete());
        stg.add_transition_str(a, "0-", a, "0").unwrap();
        assert!(stg.is_complete());
    }

    #[test]
    fn step_or_hold_defaults() {
        let mut stg = Stg::new(1, 2);
        let a = stg.add_state("a");
        stg.add_transition_str(a, "1", a, "11").unwrap();
        let (s, out) = stg.step_or_hold(a, &Bits::from_u64(0, 1));
        assert_eq!(s, a);
        assert_eq!(out.count_ones(), 0);
    }

    #[test]
    fn run_sequence() {
        let stg = Stg::ring_counter(3, 2);
        let inputs = vec![Bits::from_u64(1, 1); 4];
        let (states, outs) = stg.run(stg.reset_state(), &inputs);
        assert_eq!(
            states.iter().map(|s| s.index()).collect::<Vec<_>>(),
            vec![1, 2, 0, 1]
        );
        assert_eq!(outs[0].low_u64(), 0); // output of the edge leaving q0
    }

    #[test]
    fn reachability() {
        let mut stg = Stg::new(1, 1);
        let a = stg.add_state("a");
        let b = stg.add_state("b");
        let _island = stg.add_state("island");
        stg.add_transition_str(a, "-", b, "0").unwrap();
        let r = stg.reachable_from(a);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn absorb_prefixes_and_maps() {
        let mut big = Stg::ring_counter(3, 1);
        let little = Stg::ring_counter(2, 1);
        let map = big.absorb(&little, "added_").unwrap();
        assert_eq!(big.state_count(), 5);
        assert_eq!(big.state_name(map[0]), "added_q0");
        // The absorbed machine still steps internally.
        let (next, _) = big.step(map[0], &Bits::from_u64(1, 1)).unwrap();
        assert_eq!(next, map[1]);
    }

    #[test]
    fn output_dontcare_resolves_to_zero() {
        let mut stg = Stg::new(1, 3);
        let a = stg.add_state("a");
        stg.add_transition_str(a, "-", a, "1-0").unwrap();
        let (_, out) = stg.step(a, &Bits::from_u64(0, 1)).unwrap();
        assert!(out.get(0));
        assert!(!out.get(1));
        assert!(!out.get(2));
    }
}
