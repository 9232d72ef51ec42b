//! Cross-crate integration: the full lifecycle from STG through locking,
//! fabrication, activation and functional equivalence.

use hardware_metering::fsm::{self, Stg};
use hardware_metering::logic::Bits;
use hardware_metering::metering::{protocol, Designer, Foundry, LockOptions, UnlockKey};

fn lock(original: Stg, modules: usize, holes: usize, groups: usize, seed: u64) -> Designer {
    Designer::new(
        original,
        LockOptions {
            added_modules: modules,
            black_holes: holes,
            group_bits: groups,
            ..LockOptions::default()
        },
        seed,
    )
    .expect("lock construction")
}

#[test]
fn every_fabricated_chip_unlocks_with_its_own_key() {
    let mut designer = lock(Stg::ring_counter(6, 2), 4, 1, 0, 1);
    let mut foundry = Foundry::new(designer.blueprint().clone(), 2);
    for _ in 0..25 {
        let mut chip = foundry.fabricate_one();
        assert!(!chip.is_unlocked());
        protocol::activate(&mut designer, &mut chip).expect("activation");
        assert!(chip.is_unlocked());
    }
    assert_eq!(designer.activations(), 25);
}

#[test]
fn keys_never_transfer_between_chips() {
    let mut designer = lock(Stg::ring_counter(6, 2), 4, 1, 0, 3);
    let mut foundry = Foundry::new(designer.blueprint().clone(), 4);
    let mut donor = foundry.fabricate_one();
    protocol::activate(&mut designer, &mut donor).expect("activation");
    let stolen = donor.stored_key().unwrap().clone();
    let mut transferred = 0;
    for _ in 0..15 {
        let mut victim = foundry.fabricate_one();
        if victim.apply_key(&stolen).is_ok() && victim.is_unlocked() {
            transferred += 1;
        }
    }
    assert_eq!(transferred, 0, "keys are chip-specific");
}

#[test]
fn unlocked_chip_is_io_equivalent_to_original() {
    // The central §4.1 guarantee: boosting preserves the behavioural
    // specification once unlocked. Checked against a KISS2-described
    // machine with multi-bit I/O.
    let text = "\
.i 2
.o 2
.r a
00 a a 00
01 a b 01
10 a c 10
11 a a 11
-- b c 01
0- c a 10
1- c c 00
.e
";
    let original = fsm::kiss::parse(text).expect("valid KISS2");
    let mut designer = lock(original.clone(), 3, 0, 0, 5);
    let mut foundry = Foundry::new(designer.blueprint().clone(), 6);
    let mut chip = foundry.fabricate_one();
    protocol::activate(&mut designer, &mut chip).expect("activation");

    let width = chip.blueprint().num_inputs();
    let mut spec_state = original.reset_state();
    let mut x = 0u64;
    for step in 0..500 {
        // A deterministic but varied input pattern.
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let v = (x >> 33) & ((1 << width) - 1);
        let input = Bits::from_u64(v, width);
        let got = chip.step(&input);
        let (next, want) = original.step_or_hold(spec_state, &input.slice(0, 2));
        spec_state = next;
        assert_eq!(got, want, "divergence at step {step}");
    }
}

#[test]
fn sffsm_population_statistics() {
    let designer = lock(Stg::ring_counter(5, 1), 3, 0, 2, 7);
    let mut foundry = Foundry::new(designer.blueprint().clone(), 8);
    let chips = foundry.fabricate(60);
    let mut histogram = [0usize; 4];
    for c in &chips {
        histogram[c.group() as usize] += 1;
    }
    // Roughly uniform groups (loose bound: every group within [4, 26] of 60).
    for (g, &n) in histogram.iter().enumerate() {
        assert!((4..=26).contains(&n), "group {g} count {n}: {histogram:?}");
    }
}

#[test]
fn power_up_states_are_diverse() {
    // §4.2(iii): distinct chips get distinct power-up states, per the
    // birthday analysis for the configured k.
    let designer = lock(Stg::ring_counter(5, 1), 6, 0, 0, 9);
    let mut foundry = Foundry::new(designer.blueprint().clone(), 10);
    let mut seen = std::collections::HashSet::new();
    let n = 40;
    for _ in 0..n {
        let chip = foundry.fabricate_one();
        seen.insert(chip.scan_flip_flops().0);
    }
    // 18 bits, 40 chips: collisions are ~0.3% likely — demand none here.
    assert_eq!(seen.len(), n, "power-up states must be unique at this scale");
}

#[test]
fn scan_readout_roundtrips_through_designer() {
    let designer = lock(Stg::ring_counter(6, 2), 4, 1, 2, 11);
    let mut foundry = Foundry::new(designer.blueprint().clone(), 12);
    for _ in 0..10 {
        let chip = foundry.fabricate_one();
        let readout = chip.scan_flip_flops();
        // The designer recovers exactly the chip's composed state + group.
        let (composed, group) = designer
            .blueprint()
            .parse_readout(&readout.0)
            .expect("well-formed readout");
        assert_eq!(group, chip.group());
        // Re-scrambling must reproduce the readout's added field.
        let layout = designer.blueprint().scan_layout();
        let code = designer.blueprint().obfuscation().scramble(composed);
        for (i, pos) in layout.added.enumerate() {
            assert_eq!(readout.0.get(pos), (code >> i) & 1 == 1);
        }
    }
}

#[test]
fn multiple_keys_for_one_chip_all_work() {
    // §5.2's multiplicity of keys: distance-guided walks find several
    // routes to the exit, and on a lock without black holes each one,
    // closed by the unlock symbol, unlocks the chip. (The designer issues
    // only the walk that also avoids unlock-gate symbols, which keeps a
    // stolen key from unlocking any other chip.)
    let designer = lock(Stg::ring_counter(5, 2), 3, 0, 0, 13);
    let bfsm = designer.blueprint();
    let chip = Foundry::new(bfsm.clone(), 14).fabricate_one();
    let (composed, group) = bfsm
        .parse_readout(&chip.scan_flip_flops().0)
        .expect("well-formed readout");
    let keys: Vec<UnlockKey> = bfsm
        .added()
        .diversified_sequences(composed, group, 4, 15)
        .into_iter()
        .map(|mut values| {
            values.push(bfsm.unlock_symbol());
            UnlockKey { values }
        })
        .collect();
    assert!(keys.len() >= 2, "{} keys", keys.len());
    for (i, key) in keys.iter().enumerate() {
        let mut fresh = chip.clone();
        fresh
            .apply_key(key)
            .unwrap_or_else(|e| panic!("key {i} failed: {e}"));
        assert!(fresh.is_unlocked(), "key {i}");
    }
    // And they are genuinely distinct.
    for i in 0..keys.len() {
        for j in i + 1..keys.len() {
            assert_ne!(keys[i], keys[j]);
        }
    }
}

#[test]
fn environmental_stress_does_not_brick_enrolled_chips() {
    use hardware_metering::rub::Environment;
    let mut designer = lock(Stg::ring_counter(5, 2), 4, 0, 1, 17);
    let mut foundry = Foundry::new(designer.blueprint().clone(), 18);
    let mut chip = foundry.fabricate_one();
    protocol::activate(&mut designer, &mut chip).expect("activation");
    // Hot, droopy supply: noisy RUB reads. The enrolled reading + majority
    // group derivation keep field boots working.
    chip.set_environment(Environment::stressed(3.0));
    for boot in 0..20 {
        chip.boot_from_storage()
            .unwrap_or_else(|e| panic!("boot {boot} failed: {e}"));
        assert!(chip.is_unlocked());
    }
}
