//! Property-based tests of the metering core's invariants.

use hwm_fsm::Stg;
use hwm_metering::{protocol, Designer, Foundry, LockOptions, Obfuscation};
use proptest::prelude::*;

proptest! {
    // Lock construction and fabrication are not cheap; keep cases modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The paper's central contract: every fabricated chip is locked, and
    /// unlocks with (exactly) its own key.
    #[test]
    fn activation_succeeds_for_every_chip(
        seed in any::<u64>(),
        states in 3usize..8,
        modules in 2usize..4,
        holes in 0usize..3,
    ) {
        let mut designer = Designer::new(
            Stg::ring_counter(states, 2),
            LockOptions {
                added_modules: modules,
                black_holes: holes,
                ..LockOptions::default()
            },
            seed,
        ).unwrap();
        let mut foundry = Foundry::new(designer.blueprint().clone(), seed ^ 0xF0);
        for _ in 0..4 {
            let mut chip = foundry.fabricate_one();
            prop_assert!(!chip.is_unlocked());
            protocol::activate(&mut designer, &mut chip).unwrap();
            prop_assert!(chip.is_unlocked());
        }
        prop_assert_eq!(designer.activations(), 4);
    }

    /// Stolen keys never unlock a chip of the same SFFSM group with a
    /// different power-up state: per input vector the composed added STG is
    /// a bijection (conditional transpositions + ring permutations), so two
    /// different start states driven through the *same* map sequence can
    /// never coalesce — the victim provably ends somewhere other than the
    /// exit. The two residuals outside this theorem are (a) power-up-state
    /// collisions, which §4.2's birthday sizing controls, and (b) victims
    /// in a *different* SFFSM group, which run different bijections and
    /// land on the exit with probability ≈ 1/8^q (covered statistically by
    /// the SFFSM tests in `bfsm.rs` and the ablation suites).
    #[test]
    fn stolen_keys_never_transfer_within_a_group(
        seed in any::<u64>(),
        modules in 3usize..5,
        group_bits in 0usize..3,
        holes in 0usize..3,
    ) {
        let mut designer = Designer::new(
            Stg::ring_counter(5, 1),
            LockOptions {
                added_modules: modules,
                black_holes: holes,
                group_bits,
                ..LockOptions::default()
            },
            seed,
        ).unwrap();
        let mut foundry = Foundry::new(designer.blueprint().clone(), seed ^ 0xF1);
        let mut donor = foundry.fabricate_one();
        let donor_snapshot = donor.scan_flip_flops();
        protocol::activate(&mut designer, &mut donor).unwrap();
        let key = donor.stored_key().unwrap().clone();
        for _ in 0..5 {
            let mut victim = foundry.fabricate_one();
            if victim.group() != donor.group() {
                continue; // different bijections — see the doc comment
            }
            if victim.scan_flip_flops() == donor_snapshot {
                continue; // genuine power-up collision — §4.2's territory
            }
            let _ = victim.apply_key(&key);
            prop_assert!(
                !victim.is_unlocked(),
                "stolen key unlocked a same-group, non-colliding victim                  (modules={}, groups={}, holes={})",
                modules, group_bits, holes
            );
        }
    }

    /// The obfuscation scramble is a bijection for every width and seed.
    #[test]
    fn obfuscation_bijective(bits in 2usize..22, seed in any::<u64>(), probe in any::<u32>()) {
        let obf = Obfuscation::new(bits, 0, seed);
        let mask = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
        let x = probe & mask;
        let code = obf.scramble(x);
        prop_assert!(code < (1u64 << bits));
        prop_assert_eq!(obf.unscramble(code), x);
    }

    /// Readout parse inverts scan for any locked state and group.
    #[test]
    fn scan_parse_roundtrip(seed in any::<u64>(), raw in any::<u32>(), graw in any::<u8>()) {
        let designer = Designer::new(
            Stg::ring_counter(5, 1),
            LockOptions {
                added_modules: 3,
                black_holes: 1,
                group_bits: 2,
                ..LockOptions::default()
            },
            seed,
        ).unwrap();
        let bfsm = designer.blueprint();
        let composed = raw % bfsm.added().state_count() as u32;
        let group = graw & 3;
        let state = hwm_metering::BfsmState::Locked { composed, cycle: 0 };
        let scan = bfsm.scan_code(&state, group);
        let (c2, g2) = bfsm.parse_readout(&scan).unwrap();
        prop_assert_eq!(c2, composed);
        prop_assert_eq!(g2, group);
    }
}
