//! Property-based tests for the FSM substrate.

use hwm_fsm::{kiss, EncodingStrategy, StateId, Stg};
use hwm_logic::Bits;
use proptest::prelude::*;

fn arb_stg() -> impl Strategy<Value = Stg> {
    (2usize..20, 1usize..4, 1usize..4, 0usize..4, any::<u64>())
        .prop_map(|(states, inputs, outputs, extra, seed)| {
            hwm_fsm::random_stg(states, inputs, outputs, extra, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_stgs_are_well_formed(stg in arb_stg()) {
        prop_assert!(stg.is_complete());
        prop_assert!(stg.is_deterministic());
        prop_assert_eq!(
            stg.reachable_from(stg.reset_state()).len(),
            stg.state_count()
        );
    }

    #[test]
    fn kiss_roundtrip_preserves_behaviour(stg in arb_stg(), seed in any::<u64>()) {
        let text = kiss::emit(&stg);
        let back = kiss::parse(&text).unwrap();
        prop_assert_eq!(back.state_count(), stg.state_count());
        // Drive both machines with the same pseudo-random input train.
        let mut x = seed;
        let mut s1 = stg.reset_state();
        let mut s2 = back.reset_state();
        for _ in 0..100 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = (x >> 30) & ((1 << stg.num_inputs()) - 1);
            let input = Bits::from_u64(v, stg.num_inputs());
            let (n1, o1) = stg.step_or_hold(s1, &input);
            let (n2, o2) = back.step_or_hold(s2, &input);
            prop_assert_eq!(o1, o2);
            prop_assert_eq!(n1.index(), n2.index());
            s1 = n1;
            s2 = n2;
        }
    }

    #[test]
    fn encodings_are_injective(stg in arb_stg(), seed in any::<u64>(), extra in 0usize..6) {
        for strategy in [
            EncodingStrategy::Binary,
            EncodingStrategy::Gray,
            EncodingStrategy::RandomObfuscated { seed },
        ] {
            let enc = hwm_fsm::Encoding::assign(&stg, strategy, extra).unwrap();
            let mut seen = std::collections::HashSet::new();
            for i in 0..stg.state_count() {
                let code = enc.code(StateId::from_index(i));
                prop_assert!(code < (1u64 << enc.bits()) || enc.bits() == 64);
                prop_assert!(seen.insert(code), "duplicate code {}", code);
                prop_assert_eq!(enc.state_of(code), Some(StateId::from_index(i)));
            }
        }
    }

    #[test]
    fn absorb_preserves_both_machines(a in arb_stg(), b_seed in any::<u64>()) {
        let b = hwm_fsm::random_stg(5, a.num_inputs(), a.num_outputs(), 2, b_seed);
        let mut merged = a.clone();
        let map = merged.absorb(&b, "x_").unwrap();
        // The original part still behaves like `a`.
        let eq = hwm_fsm::product::io_equivalent(
            &a, a.reset_state(), &merged, merged.reset_state(), 100_000,
        ).unwrap();
        prop_assert!(eq.is_equivalent());
        // The absorbed part still behaves like `b`.
        let eq = hwm_fsm::product::io_equivalent(
            &b, b.reset_state(), &merged, map[b.reset_state().index()], 100_000,
        ).unwrap();
        prop_assert!(eq.is_equivalent());
    }
}
