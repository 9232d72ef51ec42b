//! Alice and Bob: the key-exchange protocol of Figure 2.
//!
//! *Alice* (the [`Designer`]) synthesizes the BFSM from her design and ships
//! the structural blueprint to *Bob* (the [`Foundry`]), who fabricates ICs
//! from a shared mask. Every IC powers up locked in a variability-determined
//! state. Bob scans each IC's flip-flops and sends the readout to Alice;
//! only Alice, who knows the transition table, can answer with the key.
//! The protocol is *symmetric*: Bob cannot use chips Alice never unlocked,
//! and Alice's royalty stream is exactly the keys she issued.

use crate::added::{attempt_seeds, AddedStg};
use crate::bfsm::{Bfsm, KeyHops};
use crate::chip::{Chip, ScanReadout, UnlockKey};
use crate::MeteringError;
use hwm_rub::VariationModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Configuration of the locking scheme.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LockOptions {
    /// Number of 3-bit added modules (`4` ⇒ the paper's 12-FF added STG,
    /// `5` ⇒ 15 FFs, `6` ⇒ 18 FFs).
    pub added_modules: usize,
    /// Added-STG input width. `None` derives it from the original design,
    /// clamped to 3..=8 (the range Table 3 sweeps).
    pub input_bits: Option<usize>,
    /// Sparse override edges per module (Figure 4(c)).
    pub overrides_per_module: usize,
    /// Cross-links per module pair (key diversity).
    pub links_per_module: usize,
    /// Number of black holes (0 disables them; the paper recommends > 0).
    pub black_holes: usize,
    /// Length of the gray-hole trapdoor sequence (0 = all holes permanent).
    pub trapdoor_length: usize,
    /// SFFSM group bits (0 disables SFFSM; 1–3 supported).
    pub group_bits: usize,
    /// Dummy obfuscation flip-flops (Figure 5 uses the design's don't
    /// cares; 3 is the paper's example).
    pub dummy_ffs: usize,
    /// Whether to provision the remote-disable (kill-sequence) matcher
    /// (§8). Requires at least one black hole to be effective.
    pub remote_disable: bool,
    /// Candidates per module for the §5.2 low-overhead search (1 = take
    /// the first random configuration; the paper searches exhaustively).
    pub module_search_candidates: usize,
}

impl Default for LockOptions {
    fn default() -> Self {
        LockOptions {
            added_modules: 4,
            input_bits: None,
            overrides_per_module: 2,
            links_per_module: 2,
            black_holes: 1,
            trapdoor_length: 0,
            group_bits: 0,
            dummy_ffs: 3,
            remote_disable: true,
            module_search_candidates: 1,
        }
    }
}

impl LockOptions {
    /// Resolves the added-STG input width for a given original design.
    pub fn resolved_input_bits(&self, original: &hwm_fsm::Stg) -> usize {
        self.input_bits
            .unwrap_or_else(|| original.num_inputs().clamp(3, 8))
            .clamp(1, 8)
    }
}

/// Alice: owns the design, constructs the BFSM, and is the only party able
/// to compute unlock keys.
#[derive(Debug, Clone)]
pub struct Designer {
    bfsm: Arc<Bfsm>,
    /// Keys issued so far: the royalty count.
    activations: usize,
    /// Per-group next-hop key tables ([`Bfsm::key_hops`]), indexed by
    /// SFFSM group (at most 3 group bits) and built on the first key
    /// computed for the group. Pure caches of the BFSM, shared by clones
    /// made after they are built.
    key_tables: [OnceLock<Arc<KeyHops>>; 8],
}

impl Designer {
    /// Boosts `original` into a BFSM under `options`.
    ///
    /// # Errors
    ///
    /// Returns [`MeteringError::InvalidOptions`] for inconsistent options or
    /// when construction cannot satisfy the reachability guarantees.
    pub fn new(
        original: hwm_fsm::Stg,
        options: LockOptions,
        seed: u64,
    ) -> Result<Designer, MeteringError> {
        let _span = hwm_trace::span("metering.designer");
        let b = options.resolved_input_bits(&original);
        let groups = 1u8 << options.group_bits;
        let search = options.module_search_candidates > 1;
        let lib = hwm_netlist::CellLibrary::generic();
        for attempt_seed in attempt_seeds(seed) {
            let added = {
                let _search = search.then(|| hwm_trace::span("metering.module_search"));
                AddedStg::build_searched(
                    options.added_modules,
                    b,
                    options.overrides_per_module,
                    options.links_per_module,
                    options.module_search_candidates,
                    &lib,
                    attempt_seed,
                )?
            };
            // `assemble` keeps only placements under which every state
            // reaches the exit over key-safe edges, a subset of the edges
            // `verify_exit_reachability` walks, so a lock it accepts
            // passes that check too. Only a refusal runs it, to tell an
            // added STG whose exit some state cannot reach at all (try
            // the next seed) from a refused placement (report it).
            match Bfsm::assemble(
                &original,
                &added,
                options.black_holes,
                options.trapdoor_length,
                options.group_bits,
                options.dummy_ffs,
                options.remote_disable,
                seed,
            ) {
                Ok(bfsm) => {
                    return Ok(Designer {
                        bfsm: Arc::new(bfsm),
                        activations: 0,
                        key_tables: Default::default(),
                    })
                }
                Err(refused) if added.verify_exit_reachability(groups) => return Err(refused),
                Err(_) => {}
            }
        }
        let reason = if search {
            "no searched added STG kept the exit reachable"
        } else {
            "could not build an added STG with full exit reachability"
        };
        Err(MeteringError::InvalidOptions {
            reason: reason.to_string(),
        })
    }

    /// The structural blueprint shipped to the foundry. (In reality this is
    /// the mask set / GDS-II; the *behavioural* knowledge — which composed
    /// states are where, the scramble keys, the trigger placement — stays
    /// with Alice. Attack code must treat this value as structure-only.)
    pub fn blueprint(&self) -> &Arc<Bfsm> {
        &self.bfsm
    }

    /// Computes the unlock key for a scanned readout — the `Key
    /// Calculation` box of Figure 2.
    ///
    /// The first key of a group builds the group's next-hop table
    /// ([`Bfsm::key_hops`], one reverse BFS); every key after that, from
    /// this designer or a clone made after it, is a walk down the table
    /// ([`Bfsm::follow_hops`]), one lookup and one step per symbol.
    ///
    /// # Errors
    ///
    /// * [`MeteringError::UnrecognizedReadout`] for malformed or unlocked
    ///   readouts;
    /// * [`MeteringError::NoKeyExists`] when the chip sits in a black hole.
    pub fn compute_key(&self, readout: &ScanReadout) -> Result<UnlockKey, MeteringError> {
        let (composed, group) = self.bfsm.parse_readout(&readout.0)?;
        let hops =
            self.key_tables[usize::from(group)].get_or_init(|| Arc::new(self.bfsm.key_hops(group)));
        let mut values = self.bfsm.follow_hops(hops, composed)?;
        // The final cycle fires the gated unlock edge at the exit state.
        values.push(self.bfsm.unlock_symbol());
        Ok(UnlockKey { values })
    }

    /// Computes the key and counts the activation for royalties.
    ///
    /// # Errors
    ///
    /// As [`Designer::compute_key`].
    pub fn issue_key(&mut self, readout: &ScanReadout) -> Result<UnlockKey, MeteringError> {
        let key = self.compute_key(readout)?;
        self.activations += 1;
        Ok(key)
    }

    /// Number of ICs activated so far — the metering count.
    pub fn activations(&self) -> usize {
        self.activations
    }

    /// The remote-disable sequence for deployed chips (§8).
    pub fn kill_sequence(&self) -> Vec<u64> {
        self.bfsm.kill_sequence().to_vec()
    }
}

/// Bob: fabricates ICs from the blueprint. Every chip leaves the fab
/// locked; Bob's only lawful path to working silicon runs through Alice.
#[derive(Debug)]
pub struct Foundry {
    blueprint: Arc<Bfsm>,
    variation: VariationModel,
    rng: StdRng,
    fabricated: u64,
}

impl Foundry {
    /// Opens a production line for a blueprint with the default variation
    /// model.
    pub fn new(blueprint: Arc<Bfsm>, seed: u64) -> Foundry {
        Foundry::with_variation(blueprint, VariationModel::default(), seed)
    }

    /// Opens a production line with an explicit variability model.
    pub fn with_variation(blueprint: Arc<Bfsm>, variation: VariationModel, seed: u64) -> Foundry {
        Foundry {
            blueprint,
            variation,
            rng: StdRng::seed_from_u64(seed),
            fabricated: 0,
        }
    }

    /// Fabricates one IC.
    pub fn fabricate_one(&mut self) -> Chip {
        let serial = self.fabricated;
        self.fabricated += 1;
        Chip::manufacture(self.blueprint.clone(), &self.variation, serial, &mut self.rng)
    }

    /// Fabricates a batch of ICs.
    pub fn fabricate(&mut self, count: usize) -> Vec<Chip> {
        (0..count).map(|_| self.fabricate_one()).collect()
    }

    /// Total dies produced on this line (including any the foundry never
    /// reported to the designer — the overbuilding threat).
    pub fn fabricated(&self) -> u64 {
        self.fabricated
    }
}

/// Runs the full Figure-2 flow for one chip: scan, key request, activation.
///
/// # Errors
///
/// Propagates designer-side failures.
pub fn activate(designer: &mut Designer, chip: &mut Chip) -> Result<(), MeteringError> {
    let readout = chip.scan_flip_flops();
    let key = designer.issue_key(&readout)?;
    chip.apply_key(&key)?;
    chip.store_key(key);
    Ok(())
}
