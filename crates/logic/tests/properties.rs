//! Property-based tests for the cube/cover algebra and the minimizer.

use hwm_logic::{espresso, Bits, Cover, Cube, Tri, TruthTable};
use proptest::prelude::*;

fn arb_tri() -> impl Strategy<Value = Tri> {
    prop_oneof![Just(Tri::Zero), Just(Tri::One), Just(Tri::DontCare)]
}

fn arb_cube(width: usize) -> impl Strategy<Value = Cube> {
    prop::collection::vec(arb_tri(), width).prop_map(|tris| Cube::from_tris(&tris))
}

fn arb_cover(width: usize, max_cubes: usize) -> impl Strategy<Value = Cover> {
    prop::collection::vec(arb_cube(width), 0..=max_cubes)
        .prop_map(move |cubes| Cover::from_cubes(width, cubes))
}

fn arb_minterm(width: usize) -> impl Strategy<Value = Bits> {
    prop::collection::vec(any::<bool>(), width).prop_map(|b| Bits::from_bools(&b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn intersection_is_commutative(a in arb_cube(12), b in arb_cube(12)) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
    }

    #[test]
    fn containment_matches_minterms(a in arb_cube(6), b in arb_cube(6), m in arb_minterm(6)) {
        if a.contains(&b) && b.covers_minterm(&m) {
            prop_assert!(a.covers_minterm(&m));
        }
    }

    #[test]
    fn supercube_contains_both(a in arb_cube(16), b in arb_cube(16)) {
        let s = a.supercube(&b);
        prop_assert!(s.contains(&a));
        prop_assert!(s.contains(&b));
    }

    #[test]
    fn distance_is_symmetric(a in arb_cube(16), b in arb_cube(16)) {
        prop_assert_eq!(a.distance(&b), b.distance(&a));
        prop_assert_eq!(a.distance(&b) == 0, a.intersects(&b));
    }

    #[test]
    fn complement_partitions_space(f in arb_cover(6, 6), m in arb_minterm(6)) {
        let g = f.complement();
        prop_assert_ne!(f.covers_minterm(&m), g.covers_minterm(&m));
    }

    #[test]
    fn double_complement_is_identity(f in arb_cover(5, 5)) {
        let ff = f.complement().complement();
        let ta = TruthTable::from_cover(&f).unwrap();
        let tb = TruthTable::from_cover(&ff).unwrap();
        prop_assert!(ta.same_function(&tb));
    }

    #[test]
    fn tautology_agrees_with_truth_table(f in arb_cover(5, 6)) {
        let t = TruthTable::from_cover(&f).unwrap();
        prop_assert_eq!(f.is_tautology(), t.count_ones() == t.rows());
    }

    #[test]
    fn minimize_preserves_function_on_care_set(
        f in arb_cover(6, 8),
        dc in arb_cover(6, 3),
    ) {
        let min = espresso::minimize(&f, &dc);
        let tf = TruthTable::from_cover(&f).unwrap();
        let tdc = TruthTable::from_cover(&dc).unwrap();
        let tmin = TruthTable::from_cover(&min).unwrap();
        for m in 0..tf.rows() {
            if !tdc.get(m) {
                prop_assert_eq!(tf.get(m), tmin.get(m), "row {}", m);
            }
        }
    }

    #[test]
    fn minimize_never_increases_cost(f in arb_cover(7, 8)) {
        let dc = Cover::new(7);
        let min = espresso::minimize(&f, &dc);
        prop_assert!(min.cube_count() <= f.cube_count().max(1));
    }

    #[test]
    fn cube_parse_roundtrip(tris in prop::collection::vec(arb_tri(), 1..40)) {
        let cube = Cube::from_tris(&tris);
        let parsed: Cube = cube.to_string().parse().unwrap();
        prop_assert_eq!(cube, parsed);
    }

    #[test]
    fn bits_concat_slice(a in prop::collection::vec(any::<bool>(), 0..50),
                         b in prop::collection::vec(any::<bool>(), 0..50)) {
        let ba = Bits::from_bools(&a);
        let bb = Bits::from_bools(&b);
        let c = Bits::from_bools(&[a.as_slice(), b.as_slice()].concat());
        prop_assert_eq!(c.slice(0, ba.len()), ba.clone());
        prop_assert_eq!(c.slice(ba.len(), bb.len()), bb);
    }

    #[test]
    fn cofactor_covers_cofactored_minterms(a in arb_cube(6), c in arb_cube(6), m in arb_minterm(6)) {
        // If m ∈ a ∩ c then m ∈ a/c.
        if let Some(q) = a.cofactor(&c) {
            if a.covers_minterm(&m) && c.covers_minterm(&m) {
                prop_assert!(q.covers_minterm(&m));
            }
        }
    }
}
