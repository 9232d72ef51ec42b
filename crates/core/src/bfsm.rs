//! The boosted finite state machine (§4.1, Figure 3).
//!
//! A [`Bfsm`] couples the original design's STG with the added state space,
//! black holes and the obfuscation layer. Its state machine has three
//! modes:
//!
//! * **Locked** — the power-up mode: the chip wanders the added states; the
//!   primary outputs are dead and the original/dummy flip-flops show
//!   camouflage values;
//! * **Trapped** — a black hole was entered (by a brute-force attack or a
//!   remote-disable command); only a gray hole's trapdoor sequence escapes;
//! * **Unlocked** — the functional mode: the original STG runs and the
//!   chip's I/O behaviour is exactly the original design's.
//!
//! The designer's key computation is one reverse BFS over the locked
//! mode that *avoids the black-hole triggers* — the attacker, not knowing
//! the transition table, cannot distinguish safe inputs from trapping
//! ones.
//!
//! # Specialized functional FSMs (§6.2, Figure 7)
//!
//! With SFFSM enabled (`group_bits > 0` in [`crate::LockOptions`]), the
//! added STG's dynamics depend on a group value derived from the chip's own
//! RUB. Chips in different groups follow different trajectories for the
//! same inputs, so a key captured from one chip replays only on chips that
//! happen to share its group — and the group cannot be forged by loading
//! flip-flops, because it is re-derived from the physical RUB every cycle.
//!
//! The group derivation is error-tolerant: each group bit is the majority
//! of [`Bfsm::RUB_CELLS_PER_GROUP_BIT`] redundant RUB cells
//! ([`Bfsm::group_from_rub`]), implementing the paper's "transition into
//! the correct next states even when one or up to a specified number of
//! the inputs from the RUB are altered". Each group also runs its own
//! replica encoding of the original STG ([`Bfsm::original_code_mask`]).

use crate::added::{with_module_count, AddedStg, MAX_MODULES};
use crate::blackhole::{step_hole, BlackHole, HoleState, HoleStep, Trigger};
use crate::obfuscate::Obfuscation;
use crate::MeteringError;
use hwm_fsm::{Encoding, EncodingStrategy, StateId, Stg};
use hwm_logic::{Bits, Cube, Tri};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Number of low input bits the unlock edge matches at the exit state.
///
/// One bit suffices for the stolen-key no-transfer guarantee (which rests
/// on designer keys *avoiding* the gate symbol, not on the gate's width)
/// while costing brute-force attackers only a factor of 2 — wider gates
/// would distort the Table 3 comparison without adding security.
pub const UNLOCK_GATE_BITS: usize = 1;

/// Operating mode + detailed state of a BFSM instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BfsmState {
    /// Locked: wandering the added STG.
    Locked {
        /// Composed added-STG state.
        composed: u32,
        /// Cycle counter (drives the deterministic camouflage).
        cycle: u64,
    },
    /// Captured by black hole.
    Trapped {
        /// Hole-internal progress.
        hole: HoleState,
        /// The composed state at capture time (frozen in the FFs).
        frozen: u32,
        /// Cycle counter.
        cycle: u64,
    },
    /// Functional: the original design runs.
    Unlocked {
        /// Current original-STG state.
        state: StateId,
        /// Cycle counter.
        cycle: u64,
        /// Progress of the remote-disable (kill) sequence matcher.
        kill_progress: u8,
    },
}

impl BfsmState {
    /// Whether the machine is in the functional mode.
    pub fn is_unlocked(&self) -> bool {
        matches!(self, BfsmState::Unlocked { .. })
    }

    /// Whether the machine is inside a black hole.
    pub fn is_trapped(&self) -> bool {
        matches!(self, BfsmState::Trapped { .. })
    }
}

/// Field layout of the scanned flip-flop vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanLayout {
    /// Scrambled added-state code.
    pub added: Range<usize>,
    /// SFFSM group code (latched from the RUB for the key exchange).
    pub group: Range<usize>,
    /// Black-hole flag and position bit.
    pub trap: Range<usize>,
    /// Unlock latch.
    pub unlock: usize,
    /// Original design's state code.
    pub original: Range<usize>,
    /// Dummy obfuscation flip-flops.
    pub dummy: Range<usize>,
}

impl ScanLayout {
    /// Total flip-flop count.
    pub fn total(&self) -> usize {
        self.dummy.end
    }
}

/// The boosted FSM: structure shared by every chip of a protected design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bfsm {
    original: Stg,
    original_encoding: Encoding,
    added: AddedStg,
    black_holes: Vec<BlackHole>,
    obfuscation: Obfuscation,
    group_bits: usize,
    kill_sequence: Vec<u64>,
    remote_disable: bool,
    /// Secret low-bit input pattern that arms the unlock edge at the exit
    /// state (see [`Bfsm::unlock_symbol`]).
    unlock_gate: u64,
}

impl Bfsm {
    /// Assembles a BFSM. Prefer [`crate::Designer::new`], which also wires
    /// the protocol; this constructor is the structural core. Retries
    /// black-hole trigger placement until every locked state retains a
    /// trigger-avoiding path to the exit for every SFFSM group.
    /// `remote_disable` provisions the remote-disable (kill-sequence)
    /// matcher; Table 4 turns it off to isolate the cost of a bare black
    /// hole.
    ///
    /// # Errors
    ///
    /// Returns [`MeteringError::InvalidOptions`] when the pieces are
    /// inconsistent or no safe trigger placement exists.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        original: &Stg,
        added: &AddedStg,
        n_black_holes: usize,
        trapdoor_length: usize,
        group_bits: usize,
        dummy_ffs: usize,
        remote_disable: bool,
        seed: u64,
    ) -> Result<Self, MeteringError> {
        let _span = hwm_trace::span("metering.bfsm_assemble");
        if original.state_count() == 0 {
            return Err(MeteringError::InvalidOptions {
                reason: "original design has no states".to_string(),
            });
        }
        if group_bits > 3 {
            return Err(MeteringError::InvalidOptions {
                reason: format!("group_bits {group_bits} exceeds 3 (module salt width)"),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB10C_1234);
        let original_encoding = Encoding::assign(
            original,
            EncodingStrategy::RandomObfuscated { seed: seed ^ 0x0E0C },
            0,
        )?;
        let obfuscation = Obfuscation::new(added.state_bits(), dummy_ffs, seed ^ 0x0BF5);
        let b = added.input_bits();
        // The remote-disable sequence must be long enough that it never
        // fires by accident during normal operation: ≥ 24 matched input
        // bits puts the per-window false-fire probability below 2⁻²⁴.
        let kill_len = 24usize.div_ceil(b).max(3);
        let kill_sequence: Vec<u64> =
            (0..kill_len).map(|_| rng.random_range(0..(1u64 << b))).collect();
        let gate_bits = UNLOCK_GATE_BITS.min(b);

        // Place black holes and pick the unlock gate, verifying that the
        // designer's key-safe paths survive: a rare added-STG topology can
        // lose an SFFSM group's exit orbit under one gate polarity while
        // the other polarity works, so the gate is re-rolled per attempt.
        // With no holes a candidate depends on the gate alone, so each
        // gate is tried once, starting from the random one.
        let gates = 1u64 << gate_bits;
        let first_gate = rng.random_range(0..gates);
        let attempts = if n_black_holes == 0 { gates } else { 24 };
        for attempt in 0..attempts {
            let unlock_gate = match attempt {
                0 => first_gate,
                _ if n_black_holes == 0 => first_gate ^ attempt,
                _ => attempt % gates,
            };
            let mut holes = Vec::with_capacity(n_black_holes);
            for h in 0..n_black_holes {
                let triggers = (0..2)
                    .map(|_| {
                        // Triggers live entirely in the gate half of the
                        // input space (their low bit equals the unlock
                        // gate), so designer keys — which avoid gate-half
                        // symbols by construction — can never collide with
                        // a trigger, while the brute-force walk (uniform
                        // over all inputs) hits them constantly.
                        let mut tris = vec![Tri::DontCare; b];
                        tris[0] = if unlock_gate & 1 == 1 { Tri::One } else { Tri::Zero };
                        if b > 1 {
                            let p = rng.random_range(1..b);
                            tris[p] = if rng.random_bool(0.5) { Tri::One } else { Tri::Zero };
                        }
                        Trigger {
                            module: 0,
                            // Never trigger from the exit-state value, so the
                            // all-exit configuration stays clean.
                            module_state: rng.random_range(1..8u8),
                            input: Cube::from_tris(&tris),
                        }
                    })
                    .collect();
                if h == 0 && trapdoor_length > 0 {
                    let secret = (0..trapdoor_length)
                        .map(|_| rng.random_range(0..(1u64 << b)))
                        .collect();
                    holes.push(BlackHole::trapdoor(triggers, secret));
                } else {
                    holes.push(BlackHole::permanent(triggers));
                }
            }
            let candidate = Bfsm {
                original: original.clone(),
                original_encoding: original_encoding.clone(),
                added: added.clone(),
                black_holes: holes,
                obfuscation: obfuscation.clone(),
                group_bits,
                kill_sequence: kill_sequence.clone(),
                remote_disable,
                unlock_gate,
            };
            let groups = 1u8 << group_bits;
            let safe = (0..groups).all(|g| candidate.exit_safely_reachable(g));
            if safe {
                hwm_trace::counter("placement_attempts", attempt + 1);
                return Ok(candidate);
            }
        }
        let reason = if n_black_holes == 0 {
            "no unlock gate keeps the exit reachable over key-safe inputs"
        } else {
            "no black-hole placement keeps the exit reachable"
        };
        Err(MeteringError::InvalidOptions {
            reason: reason.to_string(),
        })
    }

    /// The original design's STG.
    pub fn original(&self) -> &Stg {
        &self.original
    }

    /// The original design's (obfuscated) state encoding.
    pub fn original_encoding(&self) -> &Encoding {
        &self.original_encoding
    }

    /// The added STG.
    pub fn added(&self) -> &AddedStg {
        &self.added
    }

    /// The black holes.
    pub fn black_holes(&self) -> &[BlackHole] {
        &self.black_holes
    }

    /// The obfuscation layer.
    pub fn obfuscation(&self) -> &Obfuscation {
        &self.obfuscation
    }

    /// Number of SFFSM group bits (0 = SFFSM off).
    pub fn group_bits(&self) -> usize {
        self.group_bits
    }

    /// The designer's remote-disable input sequence (§8): while unlocked,
    /// feeding these values drives the chip into black hole 0 (when one
    /// exists).
    pub fn kill_sequence(&self) -> &[u64] {
        &self.kill_sequence
    }

    /// Whether the remote-disable matcher is built into the chips.
    pub fn remote_disable_enabled(&self) -> bool {
        self.remote_disable && !self.black_holes.is_empty()
    }

    /// The input symbol (an added-STG input value) that fires the unlock
    /// edge at the exit state — designers append it as the final key
    /// symbol. Its low [`UNLOCK_GATE_BITS`] bits are the secret gate; the
    /// rest are zero.
    pub fn unlock_symbol(&self) -> u64 {
        self.unlock_gate
    }

    #[inline]
    fn matches_unlock_gate(&self, v: u64) -> bool {
        let gate_bits = UNLOCK_GATE_BITS.min(self.added.input_bits());
        let mask = (1u64 << gate_bits) - 1;
        v & mask == self.unlock_gate
    }

    /// Chip interface width: the added STG taps the low input bits; the
    /// original design may use more.
    pub fn num_inputs(&self) -> usize {
        self.original.num_inputs().max(self.added.input_bits())
    }

    /// Output width (the original design's).
    pub fn num_outputs(&self) -> usize {
        self.original.num_outputs()
    }

    /// RUB cells devoted to each SFFSM group bit. The group must survive
    /// the occasional unstable RUB cell (§6.2's error-tolerant SFFSM), so
    /// each bit is the majority of five cells — error correction "inherently
    /// present" in the specification, as the paper puts it.
    pub const RUB_CELLS_PER_GROUP_BIT: usize = 5;

    /// Number of RUB cells the chip must provide (added bits + redundant
    /// group cells).
    pub fn rub_bits_needed(&self) -> usize {
        self.added.state_bits() + Self::RUB_CELLS_PER_GROUP_BIT * self.group_bits
    }

    /// Scan-chain field layout.
    pub fn scan_layout(&self) -> ScanLayout {
        let k = self.added.state_bits();
        let g = self.group_bits;
        let added = 0..k;
        let group = k..k + g;
        let trap = group.end..group.end + 2;
        let unlock = trap.end;
        let orig_bits = self.original_encoding.bits();
        let original = unlock + 1..unlock + 1 + orig_bits;
        let dummy = original.end..original.end + self.obfuscation.dummy_ffs();
        ScanLayout {
            added,
            group,
            trap,
            unlock,
            original,
            dummy,
        }
    }

    /// The power-up state induced by a RUB reading, and the chip's SFFSM
    /// group. The unlock and trap latches power up cleared, so a fresh chip
    /// is always locked and never starts inside a black hole (§6.2).
    pub fn power_up(&self, rub_bits: &Bits) -> (BfsmState, u8) {
        let composed = self.obfuscation.power_up_state(rub_bits);
        (
            BfsmState::Locked { composed, cycle: 0 },
            self.group_from_rub(rub_bits),
        )
    }

    /// Extracts the SFFSM group from a RUB reading: per group bit, the
    /// majority of [`Bfsm::RUB_CELLS_PER_GROUP_BIT`] dedicated cells.
    pub fn group_from_rub(&self, rub_bits: &Bits) -> u8 {
        let k = self.added.state_bits();
        let r = Self::RUB_CELLS_PER_GROUP_BIT;
        let mut g = 0u8;
        for i in 0..self.group_bits {
            let ones = (0..r).filter(|&j| rub_bits.get(k + i * r + j)).count();
            if ones > r / 2 {
                g |= 1 << i;
            }
        }
        g
    }

    /// One clock cycle.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != num_inputs()`.
    pub fn step(&self, state: BfsmState, input: &Bits, group: u8) -> (BfsmState, Bits) {
        assert_eq!(input.len(), self.num_inputs(), "input width mismatch");
        let v = self.added_input_value(input);
        let BfsmState::Unlocked {
            state,
            cycle,
            kill_progress,
        } = state
        else {
            return (self.step_value(state, v, group), Bits::zeros(self.num_outputs()));
        };
        // Remote disable (§8): a small matcher watches for the designer's
        // secret kill sequence; completing it drops the chip into black
        // hole 0.
        let mut progress = kill_progress;
        if self.remote_disable_enabled() {
            if self.kill_sequence.get(progress as usize) == Some(&v) {
                progress += 1;
                if progress as usize == self.kill_sequence.len() {
                    return (
                        BfsmState::Trapped {
                            hole: HoleState::entered(0),
                            frozen: self.added.exit_state(),
                            cycle: cycle + 1,
                        },
                        Bits::zeros(self.num_outputs()),
                    );
                }
            } else {
                progress = u8::from(self.kill_sequence.first() == Some(&v));
            }
        }
        let orig_input = self.original_input_bits(input);
        let (next, out) = self.original.step_or_hold(state, &orig_input);
        (
            BfsmState::Unlocked {
                state: next,
                cycle: cycle + 1,
                kill_progress: progress,
            },
            out,
        )
    }

    /// One clock cycle driven by an added-STG input value — the
    /// allocation-free transition core of the locked and trapped modes,
    /// which [`Bfsm::step`] delegates to (their outputs are all zero).
    /// Only the low `input_bits` of `v` are read there; a locked cycle is
    /// a [`Bfsm::walk_locked`] of one step. An unlocked machine runs the
    /// original design, so `v` is widened to a full input vector
    /// ([`Bfsm::widen_input`]) and stepped by [`Bfsm::step`].
    pub fn step_value(&self, state: BfsmState, v: u64, group: u8) -> BfsmState {
        match state {
            BfsmState::Locked { .. } => self.walk_locked(state, group, 1, || v).0,
            BfsmState::Trapped { hole, frozen, cycle } => {
                let low = v & ((1u64 << self.added.input_bits()) - 1);
                match step_hole(&self.black_holes[hole.hole], hole, low) {
                    HoleStep::Trapped(next) => BfsmState::Trapped {
                        hole: next,
                        frozen,
                        cycle: cycle + 1,
                    },
                    // The gray hole releases near the entry point.
                    HoleStep::Escaped => BfsmState::Locked {
                        composed: frozen,
                        cycle: cycle + 1,
                    },
                }
            }
            BfsmState::Unlocked { .. } => self.step(state, &self.widen_input(v), group).0,
        }
    }

    /// Steps a locked machine on values drawn from `next_value`, one per
    /// cycle, until it leaves the locked mode (the unlock edge fires or a
    /// black hole traps it) or `max_steps` cycles have run. Returns the
    /// final state and the number of values drawn. A machine that is not
    /// locked is returned as it is, with no value drawn. The result equals
    /// that many [`Bfsm::step_value`] calls, each on the next drawn value,
    /// stopped at the first state that is not locked.
    ///
    /// The module count is chosen once per walk, so the whole walk runs
    /// the added STG's step unrolled on it, with the composed state and
    /// the cycle in locals rather than in a [`BfsmState`].
    pub fn walk_locked(
        &self,
        state: BfsmState,
        group: u8,
        max_steps: u64,
        mut next_value: impl FnMut() -> u64,
    ) -> (BfsmState, u64) {
        let BfsmState::Locked { mut composed, cycle } = state else {
            return (state, 0);
        };
        with_module_count!(self.added.module_count(), Q => {
            for steps in 0..max_steps {
                match self.locked_step::<Q>(composed, cycle + steps, next_value(), group) {
                    Ok(next) => composed = next,
                    Err(left) => return (left, steps + 1),
                }
            }
        });
        let cycle = cycle + max_steps;
        (BfsmState::Locked { composed, cycle }, max_steps)
    }

    /// The locked-mode transition from `Locked { composed, cycle }` on
    /// input value `v`: `Ok` with the next composed state while the
    /// machine stays locked (its cycle advances by one), or `Err` with
    /// the state it leaves for. The unlock gate is judged first, then the
    /// black-hole triggers, then the added STG steps.
    #[inline(always)]
    fn locked_step<const Q: usize>(
        &self,
        composed: u32,
        cycle: u64,
        v: u64,
        group: u8,
    ) -> Result<u32, BfsmState> {
        let low = v & ((1u64 << self.added.input_bits()) - 1);
        if self.added.is_exit(composed) && self.matches_unlock_gate(low) {
            // The edge from the added STG into the functional reset state
            // (§4.1): the unlock latch sets. The edge is armed by a secret
            // low-bit input pattern, so a foreign key that merely
            // *crosses* the exit state mid-sequence keeps walking instead
            // of unlocking (the stolen-key residual shrinks from L/2^k to
            // L/2^(k+gate)). The cycle counter restarts at unlock so that
            // every activated chip shows the *same* deterministic FF
            // pattern from its first functional cycle (§6.2's
            // similar-FF-activity countermeasure).
            return Err(BfsmState::Unlocked {
                state: self.original.reset_state(),
                cycle: 0,
                kill_progress: 0,
            });
        }
        if let Some(h) = self.triggered_hole(composed, low) {
            return Err(BfsmState::Trapped {
                hole: HoleState::entered(h),
                frozen: composed,
                cycle: cycle + 1,
            });
        }
        Ok(self.added.step_n::<Q>(composed, low, group))
    }

    /// The flip-flop vector an attacker (or the foundry's tester) scans out.
    pub fn scan_code(&self, state: &BfsmState, group: u8) -> Bits {
        let layout = self.scan_layout();
        let mut bits = Bits::zeros(layout.total());
        let put = |bits: &mut Bits, range: &Range<usize>, value: u64| {
            for (i, pos) in range.clone().enumerate() {
                bits.set(pos, (value >> i) & 1 == 1);
            }
        };
        put(&mut bits, &layout.group, u64::from(group));
        match *state {
            BfsmState::Locked { composed, cycle } => {
                put(&mut bits, &layout.added, self.obfuscation.scramble(composed));
                // Camouflage original + dummy FFs.
                let camo = self
                    .obfuscation
                    .camouflage(composed, cycle, layout.original.len());
                for (i, pos) in layout.original.clone().enumerate() {
                    bits.set(pos, camo.get(i));
                }
                let dummy = self.obfuscation.dummy_values(composed, cycle);
                for (i, pos) in layout.dummy.clone().enumerate() {
                    bits.set(pos, dummy.get(i));
                }
            }
            BfsmState::Trapped { hole, frozen, cycle } => {
                put(&mut bits, &layout.added, self.obfuscation.scramble(frozen));
                put(
                    &mut bits,
                    &layout.trap,
                    0b01 | ((hole.position as u64 & 1) << 1),
                );
                let camo = self
                    .obfuscation
                    .camouflage(frozen, cycle, layout.original.len());
                for (i, pos) in layout.original.clone().enumerate() {
                    bits.set(pos, camo.get(i));
                }
            }
            BfsmState::Unlocked { state, cycle, .. } => {
                bits.set(layout.unlock, true);
                // Added FFs freeze at the exit code — identical on every
                // chip, defeating differential FF activity measurement.
                put(
                    &mut bits,
                    &layout.added,
                    self.obfuscation.scramble(self.added.exit_state()),
                );
                // With SFFSM, each group runs its own replica encoding of
                // the functional FSM (Figure 7): the visible code is the
                // group-masked image, so a reset-state captured from one
                // chip decodes to garbage on a chip of another group.
                put(
                    &mut bits,
                    &layout.original,
                    self.original_encoding.code(state) ^ self.original_code_mask(group),
                );
                let dummy = self.obfuscation.dummy_values(0, cycle);
                for (i, pos) in layout.dummy.clone().enumerate() {
                    bits.set(pos, dummy.get(i));
                }
            }
        }
        bits
    }

    /// The designer's readout parser: recovers the composed locked state and
    /// group from a scanned FF vector.
    ///
    /// # Errors
    ///
    /// * [`MeteringError::NoKeyExists`] when the trap flag is set;
    /// * [`MeteringError::UnrecognizedReadout`] on a malformed vector or an
    ///   already-unlocked chip.
    pub fn parse_readout(&self, bits: &Bits) -> Result<(u32, u8), MeteringError> {
        let layout = self.scan_layout();
        if bits.len() != layout.total() {
            return Err(MeteringError::UnrecognizedReadout);
        }
        if bits.get(layout.unlock) {
            return Err(MeteringError::UnrecognizedReadout);
        }
        if layout.trap.clone().any(|i| bits.get(i)) {
            return Err(MeteringError::NoKeyExists);
        }
        let mut code = 0u64;
        for (i, pos) in layout.added.clone().enumerate() {
            if bits.get(pos) {
                code |= 1 << i;
            }
        }
        let mut group = 0u8;
        for (i, pos) in layout.group.clone().enumerate() {
            if bits.get(pos) {
                group |= 1 << i;
            }
        }
        Ok((self.obfuscation.unscramble(code), group))
    }

    /// Distance from every composed state to the exit along *key-safe*
    /// edges. An input value is usable inside a key when it fires no
    /// black-hole trigger from the state it is applied in and its low bits
    /// do not match the unlock gate: a key free of gate symbols can never
    /// fire a foreign chip's unlock mid-replay, which (combined with the
    /// per-input bijectivity of the added STG) makes stolen keys provably
    /// non-transferable within an SFFSM group.
    pub fn safe_distances_to_exit(&self, group: u8) -> Vec<usize> {
        self.safe_bfs(group, |_, _| {})
    }

    /// The one reverse BFS over key-safe edges behind
    /// [`Bfsm::safe_distances_to_exit`] and [`Bfsm::key_hops`], with inputs
    /// ascending so that `found` learns each state's least first hop.
    fn safe_bfs(&self, group: u8, found: impl FnMut(u32, u64)) -> Vec<usize> {
        // Gate symbols are unsafe from every state: skip them outright.
        let inputs =
            (0..1u64 << self.added.input_bits()).filter(|&v| !self.matches_unlock_gate(v));
        self.added.distances_to_exit_where(
            group,
            inputs,
            |s, v| self.triggered_hole(s, v).is_none(),
            found,
        )
    }

    /// Whether no state is left at `usize::MAX` by
    /// [`Bfsm::safe_distances_to_exit`], decided without the distances.
    fn exit_safely_reachable(&self, group: u8) -> bool {
        self.added.all_reach_exit(
            group,
            |v| !self.matches_unlock_gate(v),
            |s, v| self.triggered_hole(s, v).is_none(),
        )
    }

    /// The next-hop key table of one group — the designer's one key
    /// search. One reverse BFS from the exit records, for every composed
    /// state, the least input that starts a shortest key-safe path (no
    /// black-hole triggers, no gate-matching symbols). Following it from
    /// any state ([`Bfsm::follow_hops`]) spells that state's
    /// lexicographically least shortest key-safe path.
    pub fn key_hops(&self, group: u8) -> KeyHops {
        // The gate symbol is never key-safe, so it marks "no hop".
        let mut hops = vec![self.unlock_gate as u8; self.added.state_count()];
        self.safe_bfs(group, |s, v| hops[s as usize] = v as u8);
        KeyHops { group, hops }
    }

    /// The key-safe input sequence from `start` to the exit, read off a
    /// [`KeyHops`] table: one table lookup and one step per key symbol, no
    /// search. The caller appends [`Bfsm::unlock_symbol`] as the final
    /// cycle.
    ///
    /// # Errors
    ///
    /// Returns [`MeteringError::NoKeyExists`] when no safe path exists.
    pub fn follow_hops(&self, hops: &KeyHops, start: u32) -> Result<Vec<u64>, MeteringError> {
        debug_assert_eq!(hops.hops.len(), self.added.state_count(), "table built for this machine");
        let mut key = Vec::new();
        let mut s = start;
        while !self.added.is_exit(s) {
            let v = u64::from(hops.hops[s as usize]);
            if self.matches_unlock_gate(v) {
                return Err(MeteringError::NoKeyExists);
            }
            key.push(v);
            s = self.added.step(s, v, hops.group);
        }
        Ok(key)
    }

    /// The first black hole whose trigger fires on input value `v` from
    /// `composed`.
    #[inline]
    fn triggered_hole(&self, composed: u32, v: u64) -> Option<usize> {
        if self.black_holes.is_empty() {
            return None;
        }
        let q = self.added.module_count();
        let mut module_states = [0u8; MAX_MODULES];
        for (i, st) in module_states.iter_mut().enumerate().take(q) {
            *st = self.added.module_state(composed, i);
        }
        self.black_holes
            .iter()
            .position(|h| h.triggered_value(&module_states[..q], v))
    }

    /// The SFFSM replica mask applied to the functional state code visible
    /// in the flip-flops: group 0 (SFFSM off) is unmasked.
    ///
    /// Masks must be pairwise distinct across groups — two groups sharing a
    /// mask would decode each other's state codes exactly, reopening the
    /// cross-group reset-state CAR that SFFSM exists to defeat. Each group
    /// takes the first value, probing linearly from a keyed hash of its id,
    /// that no lower-numbered group holds; when the code space is smaller
    /// than the group count distinctness is impossible and the probe wraps.
    pub fn original_code_mask(&self, group: u8) -> u64 {
        if self.group_bits == 0 || group == 0 {
            return 0;
        }
        let bits = self.original_encoding.bits();
        let space = if bits >= 64 { !0u64 } else { (1u64 << bits) - 1 };
        let keyed = |g: u8| -> u64 {
            let mut x = u64::from(g) ^ 0xC0DE_5EED_0000_0001;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (x ^ (x >> 31)) & space
        };
        // Group ids are at most 2^group_bits (small), so the quadratic
        // greedy assignment is cheap; it is also order-stable, so every
        // chip computes the same mask for the same group.
        let mut used: Vec<u64> = vec![0]; // group 0 is unmasked
        let mut assigned = 0u64;
        for g in 1..=group {
            let mut candidate = keyed(g);
            let mut probes = 0u64;
            while used.contains(&candidate) && probes <= space {
                candidate = candidate.wrapping_add(1) & space;
                probes += 1;
            }
            used.push(candidate);
            assigned = candidate;
        }
        assigned
    }

    /// The low input bits consumed by the added STG, as an integer.
    pub fn added_input_value(&self, input: &Bits) -> u64 {
        let b = self.added.input_bits();
        let mut v = 0u64;
        for i in 0..b {
            if input.get(i) {
                v |= 1 << i;
            }
        }
        v
    }

    fn original_input_bits(&self, input: &Bits) -> Bits {
        input.slice(0, self.original.num_inputs())
    }

    /// Widens an added-STG input value to a full chip input vector
    /// (inputs past bit 63 zero).
    pub fn widen_input(&self, v: u64) -> Bits {
        let mut input = Bits::zeros(self.num_inputs());
        for i in 0..input.len().min(64) {
            input.set(i, (v >> i) & 1 == 1);
        }
        input
    }
}

/// One SFFSM group's next-hop key table: for every composed state, the
/// first input of its lexicographically least shortest key-safe path to
/// the exit, one byte each (inputs are at most 8 bits wide). Built by
/// [`Bfsm::key_hops`], walked by [`Bfsm::follow_hops`].
#[derive(Debug)]
pub struct KeyHops {
    group: u8,
    hops: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Designer, Foundry, LockOptions};
    use hwm_rub::{Environment, Rub, VariationModel};
    use std::collections::VecDeque;

    /// The adjacency-list reverse BFS the table-driven search replaced:
    /// forward edges `s → step(s, v)` that pass `keep`, minus self-loops,
    /// deduplicated per state, then BFS from the exit over the reversed
    /// lists.
    fn reference_distances(
        added: &AddedStg,
        group: u8,
        keep: impl Fn(u32, u64) -> bool,
    ) -> Vec<usize> {
        let n = added.state_count();
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut next_set: Vec<u32> = Vec::new();
        for s in 0..n as u32 {
            next_set.clear();
            for v in 0..1u64 << added.input_bits() {
                if !keep(s, v) {
                    continue;
                }
                let t = added.step(s, v, group);
                if t != s && !next_set.contains(&t) {
                    next_set.push(t);
                    rev[t as usize].push(s);
                }
            }
        }
        let exit = added.exit_state();
        let mut dist = vec![usize::MAX; n];
        dist[exit as usize] = 0;
        let mut queue = VecDeque::from([exit]);
        while let Some(u) = queue.pop_front() {
            for &p in &rev[u as usize] {
                if dist[p as usize] == usize::MAX {
                    dist[p as usize] = dist[u as usize] + 1;
                    queue.push_back(p);
                }
            }
        }
        dist
    }

    /// A BFSM of `q` modules over `b` input bits with `holes` black holes
    /// (hole 0 a gray hole with a 3-symbol trapdoor), put together
    /// without [`Bfsm::assemble`]'s reachability search, which would walk
    /// all `8^q` states. Triggers sit in the gate half, as assembled ones
    /// do.
    fn unverified(q: usize, b: usize, holes: usize, seed: u64) -> Bfsm {
        let mut rng = StdRng::seed_from_u64(seed);
        let added = AddedStg::build(q, b, 2, 2, seed).unwrap();
        let unlock_gate = rng.random_range(0..2u64);
        let black_holes = (0..holes)
            .map(|h| {
                let triggers = (0..2)
                    .map(|_| {
                        let mut tris = vec![Tri::DontCare; b];
                        tris[0] = if unlock_gate == 1 { Tri::One } else { Tri::Zero };
                        Trigger {
                            module: 0,
                            module_state: rng.random_range(1..8u8),
                            input: Cube::from_tris(&tris),
                        }
                    })
                    .collect();
                if h == 0 {
                    let secret = (0..3).map(|_| rng.random_range(0..1u64 << b)).collect();
                    BlackHole::trapdoor(triggers, secret)
                } else {
                    BlackHole::permanent(triggers)
                }
            })
            .collect();
        let original = Stg::ring_counter(4, 1);
        Bfsm {
            original_encoding: Encoding::assign(&original, EncodingStrategy::Binary, 0).unwrap(),
            original,
            obfuscation: Obfuscation::new(added.state_bits(), 0, seed),
            added,
            black_holes,
            group_bits: 3,
            kill_sequence: vec![1, 2, 3],
            remote_disable: true,
            unlock_gate,
        }
    }

    /// What [`Bfsm::walk_locked`] must equal: one [`Bfsm::step_value`]
    /// per drawn value while the machine is locked, at most `cap` of them.
    fn walk_by_steps(
        bfsm: &Bfsm,
        mut state: BfsmState,
        group: u8,
        cap: u64,
        rng: &mut StdRng,
    ) -> (BfsmState, u64) {
        let mut steps = 0;
        while steps < cap && matches!(state, BfsmState::Locked { .. }) {
            state = bfsm.step_value(state, rng.next_u64(), group);
            steps += 1;
        }
        (state, steps)
    }

    #[test]
    fn the_walk_equals_a_step_value_loop() {
        let (mut unlocked_at_cap, mut trapped) = (0, 0);
        for q in [1usize, 2, 5, 10] {
            for b in [1usize, 3, 8] {
                for holes in 0..=2 {
                    let seed = (q * 100 + b * 10 + holes) as u64;
                    let bfsm = unverified(q, b, holes, seed);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let composed = rng.random_range(0..1u32 << bfsm.added.state_bits());
                    let cycle = rng.random_range(0..1u64 << 40);
                    let starts = [
                        BfsmState::Locked { composed, cycle },
                        BfsmState::Locked { composed: 0, cycle },
                        BfsmState::Trapped {
                            hole: HoleState::entered(0),
                            frozen: composed,
                            cycle,
                        },
                        BfsmState::Unlocked {
                            state: bfsm.original.reset_state(),
                            cycle,
                            kill_progress: 0,
                        },
                    ];
                    for start in starts {
                        for group in [0u8, 5] {
                            let draws = seed ^ u64::from(group) << 32;
                            let check = |cap: u64| {
                                let mut by_steps = StdRng::seed_from_u64(draws);
                                let want = walk_by_steps(&bfsm, start, group, cap, &mut by_steps);
                                let mut walked = StdRng::seed_from_u64(draws);
                                let got = bfsm.walk_locked(start, group, cap, || walked.next_u64());
                                let at = format!(
                                    "q {q} b {b} holes {holes} group {group} cap {cap} \
                                     from {start:?}"
                                );
                                assert_eq!(got, want, "{at}");
                                let (w, s) = (walked.next_u64(), by_steps.next_u64());
                                assert_eq!(w, s, "rng position, {at}");
                                want
                            };
                            let (end, steps) = check(3_000);
                            for cap in [0, 1, 7] {
                                check(cap);
                            }
                            if matches!(start, BfsmState::Locked { .. }) && steps > 0 {
                                // The walk leaves the locked mode on exactly
                                // its last allowed step, and one step short.
                                check(steps);
                                check(steps - 1);
                                unlocked_at_cap += usize::from(end.is_unlocked() && steps > 1);
                                trapped += usize::from(end.is_trapped());
                            }
                        }
                    }
                }
            }
        }
        assert!(unlocked_at_cap > 0 && trapped > 0, "{unlocked_at_cap} {trapped}");
    }

    #[test]
    fn reachability_matches_the_adjacency_list_bfs() {
        for (q, holes, seed) in [(2usize, 1usize, 71u64), (3, 1, 72), (2, 2, 73), (3, 2, 74)] {
            let added = AddedStg::build_verified(q, 3, 2, 2, seed, 4).unwrap();
            let bfsm =
                Bfsm::assemble(&Stg::ring_counter(5, 2), &added, holes, 0, 2, 2, true, seed).unwrap();
            for group in 0..4u8 {
                let added = bfsm.added();
                assert_eq!(
                    added.distances_to_exit(group),
                    reference_distances(added, group, |_, _| true),
                    "q {q}, holes {holes}, group {group}"
                );
                let safe = bfsm.safe_distances_to_exit(group);
                assert_eq!(
                    safe,
                    reference_distances(added, group, |s, v| {
                        !bfsm.matches_unlock_gate(v) && bfsm.triggered_hole(s, v).is_none()
                    }),
                    "q {q}, holes {holes}, group {group}"
                );
                assert!(safe.iter().all(|&d| d != usize::MAX));
                assert!(bfsm.exit_safely_reachable(group));
            }
        }
    }

    // SFFSM (§6.2): RUB-derived groups and their replica encodings.

    fn sffsm_designer() -> Designer {
        Designer::new(
            Stg::ring_counter(5, 2),
            LockOptions {
                added_modules: 2,
                group_bits: 2,
                black_holes: 0,
                ..LockOptions::default()
            },
            41,
        )
        .unwrap()
    }

    #[test]
    fn groups_are_distributed() {
        let designer = sffsm_designer();
        let mut foundry = Foundry::new(designer.blueprint().clone(), 5);
        let chips = foundry.fabricate(40);
        let mut seen = [0usize; 4];
        for c in &chips {
            seen[c.group() as usize] += 1;
        }
        // All four groups should appear in 40 chips with overwhelming
        // probability.
        assert!(seen.iter().all(|&n| n > 0), "group histogram {seen:?}");
    }

    #[test]
    fn group_survives_noisy_power_ups() {
        let designer = sffsm_designer();
        let mut foundry = Foundry::new(designer.blueprint().clone(), 6);
        let mut chip = foundry.fabricate_one();
        let nominal = chip.group();
        for _ in 0..30 {
            chip.power_up();
            assert_eq!(chip.group(), nominal, "group must be stable across boots");
        }
    }

    #[test]
    fn group_stability_statistics() {
        // Noisy RUB reads rarely change the group `group_from_rub` derives.
        let designer = sffsm_designer();
        let bfsm = designer.blueprint();
        let model = VariationModel::default();
        let mut rng = StdRng::seed_from_u64(9);
        let rub = Rub::sample(&model, bfsm.rub_bits_needed(), &mut rng);
        let nominal = bfsm.group_from_rub(&rub.nominal());
        let flips = (0..200)
            .filter(|_| {
                let reading = rub.read_with(&model, &Environment::nominal(), &mut rng);
                bfsm.group_from_rub(&reading) != nominal
            })
            .count();
        assert!(
            flips < 10,
            "majority-of-5 group derivation should be stable, {flips} of 200 reads flipped"
        );
    }

    #[test]
    fn replica_masks_are_pairwise_distinct() {
        // Colliding masks let two groups decode each other's state codes,
        // which reopens the cross-group reset-state CAR. With a 5-state
        // original (3 code bits) and 4 groups the keyed hash alone collides;
        // the probed assignment must not.
        let designer = sffsm_designer();
        let bfsm = designer.blueprint();
        let masks: Vec<u64> = (0..4u8).map(|g| bfsm.original_code_mask(g)).collect();
        for i in 0..masks.len() {
            for j in 0..i {
                assert_ne!(
                    masks[i], masks[j],
                    "groups {j} and {i} share replica mask {masks:?}"
                );
            }
        }
        assert_eq!(masks[0], 0, "group 0 (SFFSM off) stays unmasked");
    }

    #[test]
    fn keys_do_not_transfer_across_groups() {
        // Bigger added space than the other tests so an accidental unlock
        // of the diverged replay walk is vanishingly unlikely.
        let original = Stg::ring_counter(5, 2);
        let mut designer = Designer::new(
            original,
            LockOptions {
                added_modules: 3,
                group_bits: 2,
                black_holes: 0,
                ..LockOptions::default()
            },
            43,
        )
        .unwrap();
        let mut foundry = Foundry::new(designer.blueprint().clone(), 7);
        let chips = foundry.fabricate(30);
        // Find two chips in different groups.
        let mut by_group: Vec<Option<crate::Chip>> = vec![None, None, None, None];
        for c in chips {
            let g = c.group() as usize;
            if by_group[g].is_none() {
                by_group[g] = Some(c);
            }
        }
        let mut found: Vec<crate::Chip> = by_group.into_iter().flatten().collect();
        assert!(found.len() >= 2);
        let mut b = found.pop().unwrap();
        let mut a = found.pop().unwrap();
        assert_ne!(a.group(), b.group());
        // Capture A's locked power-up state, then unlock A legitimately.
        let a_locked_readout = a.scan_flip_flops();
        crate::protocol::activate(&mut designer, &mut a).unwrap();
        assert!(a.is_unlocked());
        // The CAR replay (§6.1 v): invasively load A's locked state into
        // B's flip-flops and replay A's key. B's dynamics use B's own
        // RUB-derived group, so the trajectory diverges and the key fails.
        let key = a.stored_key().unwrap().clone();
        b.load_flip_flops(&a_locked_readout).unwrap();
        let result = b.apply_key(&key);
        assert!(result.is_err() || !b.is_unlocked());
        // The same replay against a chip of A's own group would have
        // worked — that residual risk is 1/2^group_bits (documented).
    }
}
