//! Differential property test: the synthesized gate-level lock netlist
//! (`core::hardware::added_netlist`) must agree cycle-exactly with the
//! behavioural BFSM (`core::bfsm`) over multi-cycle random walks — locked
//! wandering, black-hole capture (with frozen module bits), and the sticky
//! unlock latch.
//!
//! Each case builds its lock the way Tables 1, 2 and 4 do: the bench
//! harness's `lock_blueprint`, synthesized by `added_netlist`.

use hwm_logic::Bits;
use hwm_metering::bfsm::BfsmState;
use hwm_metering::hardware::added_netlist;
use hwm_metering::Bfsm;
use hwm_netlist::{CellLibrary, Netlist};
use proptest::prelude::*;

/// Decodes the lock netlist's FF vector into (composed, trapped, unlocked).
///
/// FF order (added_netlist with `remote_disable: false`): trap + position
/// when black holes exist, the unlock latch, then the 3-bit module states;
/// trailing dummy FFs are obfuscation only.
fn decode_hw(bfsm: &Bfsm, bits: &Bits) -> (u32, bool, bool) {
    let q = bfsm.added().module_count();
    let has_holes = !bfsm.black_holes().is_empty();
    let mut idx = 0;
    let trap = if has_holes {
        idx += 2;
        bits.get(0)
    } else {
        false
    };
    let unlock = bits.get(idx);
    idx += 1;
    let mut composed = 0u32;
    for i in 0..(3 * q) {
        if bits.get(idx + i) {
            composed |= 1 << i;
        }
    }
    (composed, trap, unlock)
}

/// Drives netlist and behavioural model with the same input train and
/// checks agreement every cycle. Returns an error message on divergence so
/// proptest can report the failing case.
fn co_simulate(
    bfsm: &Bfsm,
    nl: &Netlist,
    cycles: usize,
    input_stream_seed: u64,
) -> Result<(), String> {
    let b = nl.inputs().len();
    let mut hw = Bits::zeros(nl.flip_flops().len());
    let mut model = BfsmState::Locked { composed: 0, cycle: 0 };
    let mut x = input_stream_seed;
    for cycle in 0..cycles {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let v = (x >> 33) & ((1u64 << b) - 1);
        let pi = Bits::from_u64(v, b);
        let (_, next_hw) = nl.eval(&pi, &hw);
        let (next_model, _) = bfsm.step(model, &bfsm.widen_input(v), 0);
        let (hw_composed, hw_trap, hw_unlock) = decode_hw(bfsm, &next_hw);
        match next_model {
            BfsmState::Locked { composed, .. } => {
                if hw_trap || hw_unlock || hw_composed != composed {
                    return Err(format!(
                        "cycle {cycle}: model locked at {composed}, hardware \
                         (composed {hw_composed}, trap {hw_trap}, unlock {hw_unlock})"
                    ));
                }
            }
            BfsmState::Trapped { frozen, .. } => {
                if !hw_trap || hw_unlock || hw_composed != frozen {
                    return Err(format!(
                        "cycle {cycle}: model trapped (frozen {frozen}), hardware \
                         (composed {hw_composed}, trap {hw_trap}, unlock {hw_unlock})"
                    ));
                }
            }
            BfsmState::Unlocked { .. } => {
                if !hw_unlock || hw_trap {
                    return Err(format!(
                        "cycle {cycle}: model unlocked, hardware \
                         (trap {hw_trap}, unlock {hw_unlock})"
                    ));
                }
            }
        }
        hw = next_hw;
        model = next_model;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gate_level_lock_matches_behavioural_bfsm(
        modules in 2usize..4,
        holes in 0usize..2,
        seed_slot in 0u64..4,
        input_stream_seed in any::<u64>(),
    ) {
        let lib = CellLibrary::generic();
        let seed = 0xD1FF_0000 + seed_slot;
        let bfsm = hwm_bench::tables::lock_blueprint(modules, holes, seed)
            .map_err(|e| TestCaseError::fail(format!("construction failed: {e}")))?;
        let nl = added_netlist(&bfsm, &lib)
            .map_err(|e| TestCaseError::fail(format!("synthesis failed: {e}")))?;
        co_simulate(&bfsm, &nl, 400, input_stream_seed)
            .map_err(TestCaseError::fail)?;
    }
}
