//! Cross-crate integration: the synthesized lock hardware agrees with the
//! behavioural BFSM model, and the synthesis flow agrees with the FSM
//! simulator — the two "views" of every experiment must be the same system.

use hardware_metering::fsm::{EncodingStrategy, Stg};
use hardware_metering::logic::Bits;
use hardware_metering::metering::hardware::added_netlist;
use hardware_metering::metering::{BfsmState, Designer, LockOptions};
use hardware_metering::netlist::CellLibrary;
use hardware_metering::synth::flow::{synthesize, verify_against_stg, SynthOptions};

#[test]
fn synthesized_fsm_matches_simulation_across_encodings() {
    let lib = CellLibrary::generic();
    for (i, strategy) in [
        EncodingStrategy::Binary,
        EncodingStrategy::Gray,
        EncodingStrategy::OneHot,
        EncodingStrategy::RandomObfuscated { seed: 5 },
    ]
    .into_iter()
    .enumerate()
    {
        let stg = hardware_metering::fsm::random_stg(11, 3, 2, 3, 40 + i as u64);
        let result = synthesize(
            &stg,
            &lib,
            &SynthOptions {
                encoding: strategy,
                ..SynthOptions::default()
            },
        )
        .expect("synthesis");
        verify_against_stg(&result, &stg, 500, 99).expect("hardware ≡ STG");
    }
}

#[test]
fn lock_netlist_walks_to_unlock_like_the_model() {
    // Drive the *gate-level* lock with a designer-computed key and watch
    // the unlock latch rise — the hardware-level version of activation.
    let lib = CellLibrary::generic();
    let designer = Designer::new(
        Stg::ring_counter(5, 2),
        LockOptions {
            added_modules: 2,
            black_holes: 0,
            dummy_ffs: 2,
            ..LockOptions::default()
        },
        51,
    )
    .expect("lock");
    let bfsm = designer.blueprint();
    let nl = added_netlist(bfsm, &lib).expect("lock netlist");

    // Start the hardware at an arbitrary locked composed state.
    let start: u32 = 27;
    let key = bfsm
        .follow_hops(&bfsm.key_hops(0), start)
        .expect("key exists");

    // FF vector: no holes here, so [unlock, module bits…, dummies…].
    let n_ffs = nl.flip_flops().len();
    let mut state = Bits::zeros(n_ffs);
    for i in 0..bfsm.added().state_bits() {
        state.set(1 + i, (start >> i) & 1 == 1);
    }

    let mut model = BfsmState::Locked {
        composed: start,
        cycle: 0,
    };
    let unlock_symbol = bfsm.unlock_symbol();
    for &v in key.iter().chain(std::iter::once(&unlock_symbol)) {
        // Hardware step.
        let mut pi = Bits::zeros(nl.inputs().len());
        for i in 0..bfsm.added().input_bits() {
            pi.set(i, (v >> i) & 1 == 1);
        }
        let (_, next) = nl.eval(&pi, &state);
        state = next;
        // Model step.
        let (next_model, _) = bfsm.step(model, &bfsm.widen_input(v), 0);
        model = next_model;
    }
    assert!(model.is_unlocked(), "model must unlock");
    assert!(state.get(0), "hardware unlock latch must be set");
}

#[test]
fn lock_cost_scales_linearly_with_modules() {
    // The paper's headline: exponential state count for linear hardware.
    let lib = CellLibrary::generic();
    let area = |modules: usize| {
        let designer = Designer::new(
            Stg::ring_counter(4, 1),
            LockOptions {
                added_modules: modules,
                black_holes: 0,
                input_bits: Some(4),
                ..LockOptions::default()
            },
            60 + modules as u64,
        )
        .expect("lock");
        added_netlist(designer.blueprint(), &lib)
            .expect("netlist")
            .stats(&lib)
            .area
    };
    let a2 = area(2);
    let a4 = area(4);
    let a6 = area(6);
    // Linear-ish growth: the jump from 2→4 modules is similar to 4→6, and
    // nowhere near the 64× the state space grows by.
    let d1 = a4 - a2;
    let d2 = a6 - a4;
    assert!(d1 > 0.0 && d2 > 0.0);
    assert!(d2 < 2.5 * d1, "area must grow ~linearly: {a2} {a4} {a6}");
    assert!(a6 < 4.0 * a2, "18-FF lock must stay small: {a2} → {a6}");
}

#[test]
fn blif_roundtrip_preserves_lock_behaviour() {
    use hardware_metering::netlist::blif;
    let lib = CellLibrary::generic();
    let designer = Designer::new(
        Stg::ring_counter(4, 1),
        LockOptions {
            added_modules: 2,
            black_holes: 0,
            dummy_ffs: 0,
            input_bits: Some(3),
            ..LockOptions::default()
        },
        70,
    )
    .expect("lock");
    let nl = added_netlist(designer.blueprint(), &lib).expect("netlist");
    let text = blif::emit(&nl);
    let back = blif::parse(&text).expect("parse back");
    assert_eq!(back.flip_flops().len(), nl.flip_flops().len());
    // Behavioural spot-check over random vectors.
    let n_ffs = nl.flip_flops().len();
    let mut x = 7u64;
    for _ in 0..200 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let pi = Bits::from_u64((x >> 20) & 0x7, nl.inputs().len());
        let st = Bits::from_u64((x >> 40) & ((1 << n_ffs) - 1), n_ffs);
        let (po1, ns1) = nl.eval(&pi, &st);
        let (po2, ns2) = back.eval(&pi, &st);
        assert_eq!(ns1, ns2);
        assert_eq!(po1, po2);
    }
}

#[test]
fn verilog_emission_covers_the_lock() {
    use hardware_metering::netlist::verilog;
    let lib = CellLibrary::generic();
    let designer = Designer::new(Stg::ring_counter(4, 1), LockOptions::default(), 80)
        .expect("lock");
    let nl = added_netlist(designer.blueprint(), &lib).expect("netlist");
    let v = verilog::emit(&nl);
    assert!(v.contains("module lock_12ff"));
    assert!(v.contains("always @(posedge clk)"));
    assert!(v.matches("endmodule").count() == 1);
}
