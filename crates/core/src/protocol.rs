//! Alice and Bob: the key-exchange protocol of Figure 2.
//!
//! *Alice* (the [`Designer`]) synthesizes the BFSM from her design and ships
//! the structural blueprint to *Bob* (the [`Foundry`]), who fabricates ICs
//! from a shared mask. Every IC powers up locked in a variability-determined
//! state. Bob scans each IC's flip-flops and sends the readout to Alice;
//! only Alice, who knows the transition table, can answer with the key.
//! The protocol is *symmetric*: Bob cannot use chips Alice never unlocked,
//! and Alice's royalty stream is exactly the activation log.

use crate::added::AddedStg;
use crate::bfsm::{Bfsm, KeyHops};
use crate::chip::{Chip, ScanReadout, UnlockKey};
use crate::MeteringError;
use hwm_jsonio::{Json, StrictObj};
use hwm_rub::VariationModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

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

    /// Serializes the options to a JSON object (the `options` field of the
    /// lock database, and of the activation service's configuration).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("added_modules", Json::U64(self.added_modules as u64)),
            (
                "input_bits",
                match self.input_bits {
                    Some(b) => Json::U64(b as u64),
                    None => Json::Null,
                },
            ),
            (
                "overrides_per_module",
                Json::U64(self.overrides_per_module as u64),
            ),
            ("links_per_module", Json::U64(self.links_per_module as u64)),
            ("black_holes", Json::U64(self.black_holes as u64)),
            ("trapdoor_length", Json::U64(self.trapdoor_length as u64)),
            ("group_bits", Json::U64(self.group_bits as u64)),
            ("dummy_ffs", Json::U64(self.dummy_ffs as u64)),
            ("remote_disable", Json::Bool(self.remote_disable)),
            (
                "module_search_candidates",
                Json::U64(self.module_search_candidates as u64),
            ),
        ])
    }

    /// Parses options serialized by [`LockOptions::to_json`]. Strict:
    /// every field must be present once with the right type, and unknown
    /// fields are rejected (a misspelled knob must not silently fall back
    /// to a default — these options decide the lock's strength).
    ///
    /// # Errors
    ///
    /// Returns [`MeteringError::InvalidOptions`] naming the offending
    /// field.
    pub fn from_json(json: &Json) -> Result<LockOptions, MeteringError> {
        let mut f = StrictObj::new(json, "options")?;
        let input_bits = match f.field("input_bits")? {
            Json::Null => None,
            v => Some(
                v.as_usize()
                    .ok_or_else(|| f.ill_typed("input_bits", "null or an unsigned integer"))?,
            ),
        };
        let options = LockOptions {
            added_modules: f.uint("added_modules")?,
            input_bits,
            overrides_per_module: f.uint("overrides_per_module")?,
            links_per_module: f.uint("links_per_module")?,
            black_holes: f.uint("black_holes")?,
            trapdoor_length: f.uint("trapdoor_length")?,
            group_bits: f.uint("group_bits")?,
            dummy_ffs: f.uint("dummy_ffs")?,
            remote_disable: f.bool("remote_disable")?,
            module_search_candidates: f.uint("module_search_candidates")?,
        };
        f.finish()?;
        Ok(options)
    }
}

/// One issued activation, for the designer's royalty ledger.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivationRecord {
    /// The locked power-up state the foundry reported (scrambled code).
    pub reported_code: u64,
    /// The SFFSM group reported.
    pub group: u8,
    /// The key issued.
    pub key: UnlockKey,
}

/// Alice: owns the design, constructs the BFSM, and is the only party able
/// to compute unlock keys.
#[derive(Debug, Clone)]
pub struct Designer {
    bfsm: Arc<Bfsm>,
    log: Vec<ActivationRecord>,
    origin: DesignerOrigin,
    /// Per-group next-hop key tables ([`Bfsm::key_hops`]), built lazily
    /// on the first key issued for a group. Pure caches of the BFSM: they
    /// never enter the lock database and a clone may rebuild them.
    key_tables: std::collections::HashMap<u8, Arc<KeyHops>>,
}

/// The construction inputs of a designer. [`Designer::new`] is
/// deterministic in these, so they *are* the lock database: exporting them
/// (plus the ledger) and re-running construction restores a bit-identical
/// BFSM, secrets included.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DesignerOrigin {
    original: hwm_fsm::Stg,
    options: LockOptions,
    seed: u64,
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
        let origin = DesignerOrigin {
            original: original.clone(),
            options: options.clone(),
            seed,
        };
        let b = options.resolved_input_bits(&original);
        let groups = 1u8 << options.group_bits;
        let added = if options.module_search_candidates > 1 {
            // Low-overhead module search, then the same reachability
            // verification the plain path gets.
            let _search = hwm_trace::span("metering.module_search");
            let lib = hwm_netlist::CellLibrary::generic();
            let mut found = None;
            for attempt in 0..16u64 {
                let candidate = AddedStg::build_searched(
                    options.added_modules,
                    b,
                    options.overrides_per_module,
                    options.links_per_module,
                    options.module_search_candidates,
                    &lib,
                    seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                )?;
                if candidate.verify_exit_reachability(groups) {
                    found = Some(candidate);
                    break;
                }
            }
            found.ok_or_else(|| MeteringError::InvalidOptions {
                reason: "no searched added STG kept the exit reachable".to_string(),
            })?
        } else {
            AddedStg::build_verified(
                options.added_modules,
                b,
                options.overrides_per_module,
                options.links_per_module,
                seed,
                groups,
            )?
        };
        let bfsm = Bfsm::assemble_with_remote_disable(
            original,
            added,
            options.black_holes,
            options.trapdoor_length,
            options.group_bits,
            options.dummy_ffs,
            options.remote_disable,
            seed,
        )?;
        Ok(Designer {
            bfsm: Arc::new(bfsm),
            log: Vec::new(),
            origin,
            key_tables: std::collections::HashMap::new(),
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
    /// # Errors
    ///
    /// * [`MeteringError::UnrecognizedReadout`] for malformed or unlocked
    ///   readouts;
    /// * [`MeteringError::NoKeyExists`] when the chip sits in a black hole.
    pub fn compute_key(&self, readout: &ScanReadout) -> Result<UnlockKey, MeteringError> {
        let (composed, group) = self.bfsm.parse_readout(&readout.0)?;
        let mut values = self.bfsm.safe_sequence_to_exit(composed, group)?;
        // The final cycle fires the gated unlock edge at the exit state.
        values.push(self.bfsm.unlock_symbol());
        Ok(UnlockKey { values })
    }

    /// Computes the key and records the activation in the royalty ledger.
    ///
    /// The serving hot path: the first key of a group builds the group's
    /// next-hop table ([`Bfsm::key_hops`], one reverse BFS); every key
    /// after that is a walk down the table, one lookup and one step per
    /// symbol. The table spells the same lexicographically least shortest
    /// key-safe path that [`Designer::compute_key`]'s table-free search
    /// finds, so the two return the same key and the same errors.
    ///
    /// # Errors
    ///
    /// As [`Designer::compute_key`].
    pub fn issue_key(&mut self, readout: &ScanReadout) -> Result<UnlockKey, MeteringError> {
        let (composed, group) = self.bfsm.parse_readout(&readout.0)?;
        let bfsm = &self.bfsm;
        let hops = self
            .key_tables
            .entry(group)
            .or_insert_with(|| Arc::new(bfsm.key_hops(group)));
        let mut values = bfsm.follow_hops(hops, composed)?;
        values.push(self.bfsm.unlock_symbol());
        let key = UnlockKey { values };
        self.log.push(ActivationRecord {
            reported_code: self.bfsm.obfuscation().scramble(composed),
            group,
            key: key.clone(),
        });
        Ok(key)
    }

    /// Several distinct keys for the same readout (§5.2's multiplicity of
    /// keys) — different customers of the same chip population can receive
    /// different key material.
    ///
    /// # Errors
    ///
    /// As [`Designer::compute_key`].
    pub fn compute_keys(
        &self,
        readout: &ScanReadout,
        count: usize,
        seed: u64,
    ) -> Result<Vec<UnlockKey>, MeteringError> {
        let (composed, group) = self.bfsm.parse_readout(&readout.0)?;
        let gate = self.bfsm.unlock_symbol();
        let gate_mask = (1u64 << crate::bfsm::UNLOCK_GATE_BITS.min(self.bfsm.added().input_bits())) - 1;
        let mut keys: Vec<UnlockKey> = self
            .bfsm
            .added()
            .diversified_sequences(composed, group, count, seed)
            .into_iter()
            .filter(|seq| {
                // Re-validate each diversified walk for key safety: no
                // black-hole triggers and no gate-matching symbols.
                let mut s = composed;
                for &v in seq {
                    if v & gate_mask == gate {
                        return false;
                    }
                    if self
                        .bfsm
                        .black_holes()
                        .iter()
                        .any(|h| hole_triggered(&self.bfsm, h, s, v))
                    {
                        return false;
                    }
                    s = self.bfsm.added().step(s, v, group);
                }
                true
            })
            .map(|mut seq| {
                seq.push(self.bfsm.unlock_symbol());
                UnlockKey { values: seq }
            })
            .collect();
        if keys.is_empty() {
            keys.push(self.compute_key(readout)?);
        }
        Ok(keys)
    }

    /// The royalty ledger: every activation Alice has issued.
    pub fn activation_log(&self) -> &[ActivationRecord] {
        &self.log
    }

    /// Number of ICs activated so far — the metering count.
    pub fn activations(&self) -> usize {
        self.log.len()
    }

    /// The remote-disable sequence for deployed chips (§8).
    pub fn kill_sequence(&self) -> Vec<u64> {
        self.bfsm.kill_sequence().to_vec()
    }

    /// Serializes the designer's full lock database to JSON. This is
    /// Alice's crown-jewel file; in production it lives in an HSM-backed
    /// store.
    ///
    /// The export carries the *construction inputs* (original STG, options,
    /// seed) plus the activation ledger rather than the expanded BFSM:
    /// [`Designer::new`] is deterministic, so import re-derives a
    /// bit-identical BFSM — secrets, scramble keys and trigger placement
    /// included — from far less state.
    ///
    /// # Errors
    ///
    /// Returns [`MeteringError::InvalidOptions`] when serialization fails
    /// (practically impossible for in-memory data).
    pub fn export_database(&self) -> Result<String, MeteringError> {
        let options = self.origin.options.to_json();
        let log = Json::Arr(
            self.log
                .iter()
                .map(|rec| {
                    Json::obj(vec![
                        ("reported_code", Json::U64(rec.reported_code)),
                        ("group", Json::U64(rec.group as u64)),
                        ("key", key_to_json(&rec.key)),
                    ])
                })
                .collect(),
        );
        let db = Json::obj(vec![
            ("version", Json::U64(DATABASE_VERSION)),
            ("original", stg_to_json(&self.origin.original)),
            ("options", options),
            ("seed", Json::U64(self.origin.seed)),
            ("log", log),
        ]);
        Ok(db.to_string())
    }

    /// Restores a designer from an exported database by re-running the
    /// deterministic construction on the stored inputs.
    ///
    /// # Errors
    ///
    /// Returns [`MeteringError::InvalidOptions`] for malformed input.
    pub fn import_database(json: &str) -> Result<Designer, MeteringError> {
        let bad = |reason: String| MeteringError::InvalidOptions { reason };
        let db = Json::parse(json).map_err(|e| bad(format!("deserialization failed: {e}")))?;
        let mut f = StrictObj::new(&db, "database")?;
        let version: u64 = f.uint("version")?;
        if version != DATABASE_VERSION {
            return Err(bad(format!("unsupported database version {version}")));
        }
        let original = stg_from_json(f.field("original")?)?;
        let options = LockOptions::from_json(f.field("options")?)?;
        let seed: u64 = f.uint("seed")?;
        let log = f
            .arr("log")?
            .iter()
            .map(|rec| {
                let mut r = StrictObj::new(rec, "log record")?;
                let record = ActivationRecord {
                    reported_code: r.uint("reported_code")?,
                    group: r.uint("group")?,
                    key: key_from_json(r.field("key")?)?,
                };
                r.finish()?;
                Ok(record)
            })
            .collect::<Result<Vec<_>, MeteringError>>()?;
        f.finish()?;
        let mut designer = Designer::new(original, options, seed)?;
        designer.log = log;
        Ok(designer)
    }
}

/// Database schema version for [`Designer::export_database`].
const DATABASE_VERSION: u64 = 1;

fn key_to_json(key: &UnlockKey) -> Json {
    Json::Arr(key.values.iter().map(|&v| Json::U64(v)).collect())
}

fn key_from_json(j: &Json) -> Result<UnlockKey, MeteringError> {
    let values = j
        .as_arr()
        .ok_or_else(|| MeteringError::InvalidOptions {
            reason: "key must be an array".to_string(),
        })?
        .iter()
        .map(|v| {
            v.as_u64().ok_or_else(|| MeteringError::InvalidOptions {
                reason: "key symbol must be an unsigned integer".to_string(),
            })
        })
        .collect::<Result<Vec<u64>, _>>()?;
    Ok(UnlockKey { values })
}

/// Exact structural JSON for an [`hwm_fsm::Stg`]: state order, transition
/// order and cube text are preserved verbatim, so a parse rebuilds a
/// structurally identical machine (unlike KISS2, which re-orders states by
/// first appearance and drops isolated ones).
fn stg_to_json(stg: &hwm_fsm::Stg) -> Json {
    Json::obj(vec![
        ("name", Json::Str(stg.name().to_string())),
        ("inputs", Json::U64(stg.num_inputs() as u64)),
        ("outputs", Json::U64(stg.num_outputs() as u64)),
        (
            "states",
            Json::Arr(
                stg.state_names()
                    .iter()
                    .map(|n| Json::Str(n.clone()))
                    .collect(),
            ),
        ),
        ("reset", Json::U64(stg.reset_state().index() as u64)),
        (
            "transitions",
            Json::Arr(
                stg.transitions()
                    .iter()
                    .map(|t| {
                        Json::Arr(vec![
                            Json::U64(t.from.index() as u64),
                            Json::Str(t.input.to_string()),
                            Json::U64(t.to.index() as u64),
                            Json::Str(t.output.to_string()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn stg_from_json(j: &Json) -> Result<hwm_fsm::Stg, MeteringError> {
    let bad = |reason: &str| MeteringError::InvalidOptions {
        reason: reason.to_string(),
    };
    let mut f = StrictObj::new(j, "STG")?;
    let mut stg = hwm_fsm::Stg::new(f.uint("inputs")?, f.uint("outputs")?);
    stg.set_name(&f.string("name")?);
    for s in f.arr("states")? {
        stg.add_state(s.as_str().ok_or_else(|| bad("state name must be a string"))?);
    }
    for t in f.arr("transitions")? {
        let fields = t.as_arr().filter(|f| f.len() == 4).ok_or_else(|| {
            bad("transition must be [from, input, to, output]")
        })?;
        let from = fields[0]
            .as_usize()
            .filter(|&i| i < stg.state_count())
            .ok_or_else(|| bad("bad transition source"))?;
        let to = fields[2]
            .as_usize()
            .filter(|&i| i < stg.state_count())
            .ok_or_else(|| bad("bad transition destination"))?;
        stg.add_transition_str(
            hwm_fsm::StateId::from_index(from),
            fields[1].as_str().ok_or_else(|| bad("bad transition input"))?,
            hwm_fsm::StateId::from_index(to),
            fields[3].as_str().ok_or_else(|| bad("bad transition output"))?,
        )
        .map_err(|e| MeteringError::InvalidOptions {
            reason: format!("bad transition: {e}"),
        })?;
    }
    let reset: usize = f.uint("reset")?;
    if reset >= stg.state_count() {
        return Err(bad("STG reset state out of range"));
    }
    stg.set_reset(hwm_fsm::StateId::from_index(reset));
    f.finish()?;
    Ok(stg)
}

fn hole_triggered(bfsm: &Bfsm, hole: &crate::blackhole::BlackHole, composed: u32, v: u64) -> bool {
    let module_states: Vec<u8> = (0..bfsm.added().module_count())
        .map(|i| bfsm.added().module_state(composed, i))
        .collect();
    let input = hwm_logic::Bits::from_u64(v, bfsm.added().input_bits());
    hole.triggered(&module_states, &input)
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
