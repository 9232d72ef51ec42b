//! The fabricated-IC model.
//!
//! A [`Chip`] is one die manufactured from a BFSM blueprint: it carries its
//! own RUB (sampled from the variability model), powers up locked in a
//! RUB-determined added state, exposes the flip-flop scan chain (the
//! foundry's test access — and the attacker's), accepts input vectors, and
//! stores the designer-provided key in nonvolatile memory so later boots
//! self-unlock (§4.2(i)).

use crate::bfsm::{Bfsm, BfsmState};
use crate::MeteringError;
use hwm_logic::Bits;
use hwm_rub::{DieSample, Environment, Rub, VariationModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The input sequence that unlocks one specific chip.
///
/// Values are input vectors for the added STG's input bits; the final value
/// clocks the unlock latch once the exit state is reached.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnlockKey {
    /// The input values, applied one per clock cycle.
    pub values: Vec<u64>,
}

impl UnlockKey {
    /// Number of clock cycles the key takes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the key is empty (never the case for a locked chip).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for UnlockKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key[{}]:", self.values.len())?;
        for v in &self.values {
            write!(f, " {v:x}")?;
        }
        Ok(())
    }
}

/// A snapshot of the chip's flip-flop scan chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanReadout(pub Bits);

/// One fabricated IC.
#[derive(Debug, Clone)]
pub struct Chip {
    blueprint: Arc<Bfsm>,
    rub: Rub,
    die: DieSample,
    variation: VariationModel,
    environment: Environment,
    state: BfsmState,
    group: u8,
    /// The RUB reading captured at first power-up and burned to NVM next to
    /// the key (§4.2(i)): later boots reload it so the stored key replays.
    enrolled_reading: Option<Bits>,
    nonvolatile_key: Option<UnlockKey>,
    /// Seed/counter pair for per-read thermal noise (kept as plain state so
    /// chips stay `Clone`).
    noise_seed: u64,
    noise_counter: u64,
    serial: u64,
}

impl Chip {
    /// Manufactures a chip: samples its RUB and performs first power-up.
    pub fn manufacture(
        blueprint: Arc<Bfsm>,
        variation: &VariationModel,
        serial: u64,
        rng: &mut StdRng,
    ) -> Chip {
        use rand::RngExt;
        let rub = Rub::sample(variation, blueprint.rub_bits_needed(), rng);
        let die = variation.sample_die(rng);
        let mut chip = Chip {
            blueprint,
            rub,
            die,
            variation: *variation,
            environment: Environment::nominal(),
            state: BfsmState::Locked { composed: 0, cycle: 0 },
            group: 0,
            enrolled_reading: None,
            nonvolatile_key: None,
            noise_seed: rng.random(),
            noise_counter: 0,
            serial,
        };
        chip.power_up();
        chip
    }

    /// The structural blueprint this chip implements.
    pub fn blueprint(&self) -> &Arc<Bfsm> {
        &self.blueprint
    }

    /// The chip's serial position in the production run (foundry-side
    /// bookkeeping; the silicon itself carries no serial).
    pub fn serial(&self) -> u64 {
        self.serial
    }

    /// Die-level variability (observable through timing characterization).
    pub fn die(&self) -> &DieSample {
        &self.die
    }

    /// The physical RUB (invasive-attack surface; normal flows only see the
    /// scan chain).
    pub fn rub(&self) -> &Rub {
        &self.rub
    }

    /// Sets the chip's operating conditions (affects RUB read noise).
    ///
    /// Kept for `tests/end_to_end.rs`'s test
    /// `environmental_stress_does_not_brick_enrolled_chips`: it is the only
    /// way to put noise on a fabricated chip's RUB read.
    pub fn set_environment(&mut self, env: Environment) {
        self.environment = env;
    }

    /// Powers the chip up: a fresh noisy RUB read loads the added-state
    /// flip-flops, leaving the chip locked in a RUB-determined state. The
    /// first power-up enrolls the reading for NVM storage.
    pub fn power_up(&mut self) {
        self.noise_counter += 1;
        let mut noise = StdRng::seed_from_u64(self.noise_seed ^ self.noise_counter);
        let reading = self
            .rub
            .read_with(&self.variation, &self.environment, &mut noise);
        let (state, group) = self.blueprint.power_up(&reading);
        self.state = state;
        self.group = group;
        if self.enrolled_reading.is_none() {
            self.enrolled_reading = Some(reading);
        }
    }

    /// Re-boots from nonvolatile storage: the enrolled RUB reading is
    /// reloaded into the flip-flops and the stored key (when present)
    /// replayed — how a deployed IC starts in the field (§4.2(i)).
    /// `examples/quickstart.rs` drives this field boot.
    ///
    /// # Errors
    ///
    /// Returns [`MeteringError::KeyRejected`] when no key is stored or the
    /// stored key fails (e.g. after tampering).
    pub fn boot_from_storage(&mut self) -> Result<(), MeteringError> {
        let reading = self
            .enrolled_reading
            .clone()
            .ok_or(MeteringError::KeyRejected { at_step: 0 })?;
        let (state, _) = self.blueprint.power_up(&reading);
        self.state = state;
        // The SFFSM group keeps coming from the live RUB (majority over
        // redundant cells), not from storage.
        let key = self
            .nonvolatile_key
            .clone()
            .ok_or(MeteringError::KeyRejected { at_step: 0 })?;
        self.apply_key(&key)
    }

    /// Stores a key in the chip's nonvolatile memory.
    pub fn store_key(&mut self, key: UnlockKey) {
        self.nonvolatile_key = Some(key);
    }

    /// The stored key, if any.
    pub fn stored_key(&self) -> Option<&UnlockKey> {
        self.nonvolatile_key.as_ref()
    }

    /// Whether the chip is functional.
    pub fn is_unlocked(&self) -> bool {
        self.state.is_unlocked()
    }

    /// Whether the chip is stuck in a black hole.
    pub fn is_trapped(&self) -> bool {
        self.state.is_trapped()
    }

    /// The chip's SFFSM group (derived on-die from the RUB).
    pub fn group(&self) -> u8 {
        self.group
    }

    /// Current BFSM state (simulation introspection; real silicon exposes
    /// only [`Chip::scan_flip_flops`]).
    pub fn state(&self) -> &BfsmState {
        &self.state
    }

    /// Reads the flip-flop scan chain — the foundry's standard test access
    /// (§4: "FF values can be read nondestructively").
    pub fn scan_flip_flops(&self) -> ScanReadout {
        ScanReadout(self.blueprint.scan_code(&self.state, self.group))
    }

    /// Invasively loads the flip-flops (the CAR attacks of §6.1). The SFFSM
    /// group is *not* affected: it is re-derived from the physical RUB every
    /// cycle, which is exactly why SFFSM defeats replay.
    ///
    /// # Errors
    ///
    /// Returns [`MeteringError::UnrecognizedReadout`] when the vector length
    /// does not match the scan chain.
    pub fn load_flip_flops(&mut self, readout: &ScanReadout) -> Result<(), MeteringError> {
        let layout = self.blueprint.scan_layout();
        let bits = &readout.0;
        if bits.len() != layout.total() {
            return Err(MeteringError::UnrecognizedReadout);
        }
        if bits.get(layout.unlock) {
            // Forcing the unlock latch: decode the original-state code
            // under THIS chip's replica encoding (its own RUB group). A
            // code captured from a chip of another SFFSM group decodes to
            // a garbage state — the §6.2 defence against reset-state CAR.
            let mut code = 0u64;
            for (i, pos) in layout.original.clone().enumerate() {
                if bits.get(pos) {
                    code |= 1 << i;
                }
            }
            let code = code ^ self.blueprint.original_code_mask(self.group);
            let state = self
                .blueprint
                .original_encoding()
                .state_of(code)
                .unwrap_or_else(|| {
                    // Garbage code: the replica logic wedges in an
                    // arbitrary (wrong) functional state.
                    hwm_fsm::StateId::from_index(
                        (code as usize) % self.blueprint.original().state_count(),
                    )
                });
            self.state = BfsmState::Unlocked {
                state,
                cycle: 0,
                kill_progress: 0,
            };
            return Ok(());
        }
        if layout.trap.clone().any(|i| bits.get(i)) {
            self.state = BfsmState::Trapped {
                hole: crate::blackhole::HoleState::entered(0),
                frozen: 0,
                cycle: 0,
            };
            return Ok(());
        }
        let mut code = 0u64;
        for (i, pos) in layout.added.clone().enumerate() {
            if bits.get(pos) {
                code |= 1 << i;
            }
        }
        self.state = BfsmState::Locked {
            composed: self.blueprint.obfuscation().unscramble(code),
            cycle: 0,
        };
        Ok(())
    }

    /// Applies one clock cycle with the given primary-input vector and
    /// returns the primary outputs.
    ///
    /// # Panics
    ///
    /// Panics if the input width differs from the blueprint interface.
    pub fn step(&mut self, input: &Bits) -> Bits {
        let (next, out) = self.blueprint.step(self.state, input, self.group);
        self.state = next;
        out
    }

    /// Applies one clock cycle with chip input `i` set to bit `i` of `v`
    /// ([`Bfsm::widen_input`]), discarding the outputs — allocation-free
    /// while the chip is locked or trapped ([`Bfsm::step_value`]).
    pub fn step_value(&mut self, v: u64) {
        self.state = self.blueprint.step_value(self.state, v, self.group);
    }

    /// Steps a locked chip on values drawn from `next_value`, one per
    /// clock cycle, until it unlocks, falls into a black hole or has run
    /// `max_steps` cycles; returns the number of values drawn
    /// ([`Bfsm::walk_locked`]). A chip that is not locked is left as it
    /// is and draws nothing.
    pub fn walk_locked(&mut self, max_steps: u64, next_value: impl FnMut() -> u64) -> u64 {
        let (state, steps) = self
            .blueprint
            .walk_locked(self.state, self.group, max_steps, next_value);
        self.state = state;
        steps
    }

    /// Applies a sequence of raw added-STG input values, one
    /// [`Chip::step_value`] each.
    pub fn apply_values(&mut self, values: &[u64]) {
        for &v in values {
            self.step_value(v);
        }
    }

    /// Applies an unlock key.
    ///
    /// # Errors
    ///
    /// Returns [`MeteringError::KeyRejected`] when the chip is not unlocked
    /// afterwards (wrong key, wrong chip, or a black hole was hit).
    pub fn apply_key(&mut self, key: &UnlockKey) -> Result<(), MeteringError> {
        for (i, &v) in key.values.iter().enumerate() {
            self.step_value(v);
            if self.is_trapped() {
                return Err(MeteringError::KeyRejected { at_step: i });
            }
        }
        if self.is_unlocked() {
            Ok(())
        } else {
            Err(MeteringError::KeyRejected {
                at_step: key.values.len(),
            })
        }
    }

    /// Remote disable (§8): replays the designer's kill sequence; the chip
    /// falls into black hole 0 and is dead from then on. Returns whether the
    /// chip ended up trapped.
    pub fn remote_disable(&mut self, kill_sequence: &[u64]) -> bool {
        self.apply_values(kill_sequence);
        self.is_trapped()
    }
}

impl fmt::Display for Chip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = match self.state {
            BfsmState::Locked { .. } => "locked",
            BfsmState::Trapped { .. } => "trapped",
            BfsmState::Unlocked { .. } => "unlocked",
        };
        write!(f, "chip#{} [{mode}] group {}", self.serial, self.group)
    }
}
