//! Black holes and trapdoor gray holes (§6.2, Figure 6).
//!
//! A black hole is a set of states that, once entered, cannot be exited by
//! any input sequence — it turns the brute-force attack's random walk into
//! an absorbing Markov chain whose absorbing state is *not* the reset
//! state. A *gray hole* (trapdoor black hole) additionally has one long,
//! designer-known input sequence that escapes. Extra logic keeps black-hole
//! states disconnected from the power-up states, so fresh chips never start
//! trapped.

use hwm_logic::Cube;
use serde::{Deserialize, Serialize};

/// A trigger pattern that pulls the machine into a black hole: the walk is
/// captured when module `module` is in state `module_state` and the input
/// matches `input`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trigger {
    /// Which module's state participates in the trigger match.
    pub module: usize,
    /// The module state at which the trigger arms.
    pub module_state: u8,
    /// Input condition.
    pub input: Cube,
}

/// One black hole: its internal states and the triggers that lead into it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlackHole {
    /// Number of internal states (the paper's Table 4 uses 2).
    pub states: usize,
    /// Entry triggers.
    pub triggers: Vec<Trigger>,
    /// Optional trapdoor: the exact input-value sequence that escapes the
    /// hole (a gray hole). `None` makes the hole permanent.
    pub trapdoor: Option<Vec<u64>>,
}

impl BlackHole {
    /// A permanent 2-state black hole with the given triggers.
    pub fn permanent(triggers: Vec<Trigger>) -> Self {
        BlackHole {
            states: 2,
            triggers,
            trapdoor: None,
        }
    }

    /// A gray hole escapable by the secret `sequence`.
    pub fn trapdoor(triggers: Vec<Trigger>, sequence: Vec<u64>) -> Self {
        BlackHole {
            states: 2,
            triggers,
            trapdoor: Some(sequence),
        }
    }

    /// Whether a step from the given module states on input value `input`
    /// falls in.
    pub fn triggered_value(&self, module_states: &[u8], input: u64) -> bool {
        self.triggers.iter().any(|t| {
            module_states
                .get(t.module)
                .is_some_and(|&s| s == t.module_state)
                && t.input.covers_minterm_u64(input)
        })
    }
}

/// Progress of a chip inside a black hole.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HoleState {
    /// Which black hole the chip fell into.
    pub hole: usize,
    /// Internal cycling position (for the h-state cycle).
    pub position: usize,
    /// How far along the trapdoor sequence the inputs have matched.
    pub trapdoor_progress: usize,
}

impl HoleState {
    /// Entry state of hole `hole`.
    pub fn entered(hole: usize) -> Self {
        HoleState {
            hole,
            position: 0,
            trapdoor_progress: 0,
        }
    }
}

/// Outcome of one clock cycle spent inside a black hole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoleStep {
    /// Still trapped.
    Trapped(HoleState),
    /// The trapdoor sequence completed: control returns to the added STG's
    /// exit-adjacent region (the designer defines where; we re-enter the
    /// composed state 1, one step from the exit ring-wise).
    Escaped,
}

/// Advances a trapped chip by one cycle.
pub fn step_hole(hole: &BlackHole, state: HoleState, input: u64) -> HoleStep {
    let mut next = state;
    next.position = (state.position + 1) % hole.states.max(1);
    match &hole.trapdoor {
        None => HoleStep::Trapped(next),
        Some(seq) => {
            if seq.get(state.trapdoor_progress) == Some(&input) {
                next.trapdoor_progress = state.trapdoor_progress + 1;
                if next.trapdoor_progress == seq.len() {
                    return HoleStep::Escaped;
                }
            } else {
                // One wrong input restarts the whole secret sequence.
                next.trapdoor_progress = usize::from(seq.first() == Some(&input));
            }
            HoleStep::Trapped(next)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trigger(module_state: u8, input: &str) -> Trigger {
        Trigger {
            module: 0,
            module_state,
            input: input.parse().unwrap(),
        }
    }

    #[test]
    fn permanent_hole_never_escapes() {
        let hole = BlackHole::permanent(vec![trigger(3, "1--")]);
        let mut s = HoleState::entered(0);
        for input in 0..1000u64 {
            match step_hole(&hole, s, input % 8) {
                HoleStep::Trapped(next) => s = next,
                HoleStep::Escaped => panic!("permanent hole must not release"),
            }
        }
        assert!(s.position < hole.states);
    }

    #[test]
    fn trigger_matching() {
        let hole = BlackHole::permanent(vec![trigger(3, "1--")]);
        assert!(hole.triggered_value(&[3, 0], 0b001));
        assert!(!hole.triggered_value(&[3, 0], 0b010));
        assert!(!hole.triggered_value(&[2, 0], 0b001));
    }

    #[test]
    fn trapdoor_escapes_on_exact_sequence() {
        let secret = vec![5u64, 2, 7, 1];
        let hole = BlackHole::trapdoor(vec![trigger(0, "---")], secret.clone());
        let mut s = HoleState::entered(0);
        for (i, &v) in secret.iter().enumerate() {
            match step_hole(&hole, s, v) {
                HoleStep::Trapped(next) => {
                    assert!(i + 1 < secret.len(), "must escape on the last symbol");
                    s = next;
                }
                HoleStep::Escaped => assert_eq!(i, secret.len() - 1),
            }
        }
    }

    #[test]
    fn wrong_symbol_restarts_trapdoor() {
        let secret = vec![5u64, 2, 7];
        let hole = BlackHole::trapdoor(vec![trigger(0, "---")], secret);
        let mut s = HoleState::entered(0);
        // 5, 2 then a wrong 0 → progress resets (0 is not the first symbol).
        for v in [5u64, 2, 0] {
            match step_hole(&hole, s, v) {
                HoleStep::Trapped(next) => s = next,
                HoleStep::Escaped => panic!("must not escape"),
            }
        }
        assert_eq!(s.trapdoor_progress, 0);
        // A wrong symbol equal to the first symbol restarts at progress 1.
        match step_hole(&hole, s, 5) {
            HoleStep::Trapped(next) => assert_eq!(next.trapdoor_progress, 1),
            HoleStep::Escaped => panic!(),
        }
    }

    #[test]
    fn random_walk_almost_surely_trapped() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        // A hole triggered on a quarter of the input space from one module
        // state captures a random walk quickly.
        let hole = BlackHole::permanent(vec![trigger(2, "11-")]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut captured = 0;
        for _ in 0..100 {
            // Walk a uniform module-0 state; check capture within 200 steps.
            for _ in 0..200 {
                let ms = rng.random_range(0..8u8);
                let input = rng.random_range(0..8u64);
                if hole.triggered_value(&[ms], input) {
                    captured += 1;
                    break;
                }
            }
        }
        assert!(captured >= 95, "expected near-certain capture, got {captured}/100");
    }
}
