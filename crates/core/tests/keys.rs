//! The designer's issued keys: pinned bytes on two fixed locks, and the
//! serving path's per-group next-hop table checked against the
//! table-free forward search on every state of small locks.

use hwm_fsm::Stg;
use hwm_jsonio::{fnv1a, FNV1A_BASIS};
use hwm_metering::added::AddedStg;
use hwm_metering::bfsm::Bfsm;
use hwm_metering::{Designer, Foundry, LockOptions};

/// Issues keys for `dies` fresh dies of a lock over `ring_counter(6, 2)`
/// and returns the FNV-1a of every key (its length, then each symbol,
/// little-endian). Each die's issued key must equal
/// [`Designer::compute_key`]'s, and both must succeed.
fn issued_key_hash(options: LockOptions, seed: u64, dies: usize) -> u64 {
    let mut designer = Designer::new(Stg::ring_counter(6, 2), options, seed).expect("lock");
    let mut foundry = Foundry::new(designer.blueprint().clone(), seed ^ 0xACE);
    let mut hash = FNV1A_BASIS;
    for die in 0..dies {
        let readout = foundry.fabricate_one().scan_flip_flops();
        let key = designer.issue_key(&readout).expect("a fresh die has a key");
        assert_eq!(
            designer.compute_key(&readout).as_ref(),
            Ok(&key),
            "die {die}"
        );
        hash = fnv1a(hash, &(key.len() as u64).to_le_bytes());
        for v in &key.values {
            hash = fnv1a(hash, &v.to_le_bytes());
        }
    }
    assert_eq!(designer.activations(), dies);
    hash
}

#[test]
fn issued_keys_are_pinned_on_the_served_15ff_lock() {
    let options = LockOptions {
        added_modules: 5,
        black_holes: 1,
        ..LockOptions::default()
    };
    assert_eq!(issued_key_hash(options, 2024, 200), 0x205b_e169_cf42_7dcd);
}

#[test]
fn issued_keys_are_pinned_on_a_12ff_lock_with_four_groups() {
    let options = LockOptions {
        added_modules: 4,
        group_bits: 2,
        ..LockOptions::default()
    };
    assert_eq!(issued_key_hash(options, 2024, 200), 0x5153_edbb_b3f3_6eb6);
}

/// Walks every `stride`-th composed state of `bfsm` under every group
/// down the group's next-hop table: the key and the error must be the
/// forward search's, and a key's length the safe BFS distance.
fn assert_table_walk_matches_search(bfsm: &Bfsm, stride: usize, lock: &str) -> usize {
    let n = bfsm.added().state_count() as u32;
    let mut checked = 0;
    for group in 0..1u8 << bfsm.group_bits() {
        let hops = bfsm.key_hops(group);
        let dist = bfsm.safe_distances_to_exit(group);
        for s in (0..n).step_by(stride) {
            let walked = bfsm.follow_hops(&hops, s);
            assert_eq!(
                walked,
                bfsm.safe_sequence_to_exit(s, group),
                "{lock} group {group} state {s}"
            );
            if let Ok(key) = &walked {
                assert_eq!(
                    key.len(),
                    dist[s as usize],
                    "{lock} group {group} state {s}"
                );
            }
            checked += 1;
        }
    }
    checked
}

fn lock(q: usize, b: usize, holes: usize, trapdoor: usize, group_bits: usize, seed: u64) -> Bfsm {
    let added = AddedStg::build_verified(q, b, 2, 2, seed, 1 << group_bits).expect("added STG");
    Bfsm::assemble(
        &Stg::ring_counter(6, 2),
        &added,
        holes,
        trapdoor,
        group_bits,
        2,
        true,
        seed,
    )
    .expect("BFSM")
}

#[test]
fn next_hop_walk_equals_the_forward_search_on_every_state() {
    // Every (b, holes, group_bits) at 3 and 6 FF; at 9 FF one diagonal,
    // which keeps the forward-search oracle to a few seconds in debug.
    let mut grid = Vec::new();
    for q in 1..=2 {
        for b in [3, 4, 6, 8] {
            for holes in 0..=2 {
                for group_bits in 0..=2 {
                    grid.push((q, b, holes, group_bits));
                }
            }
        }
    }
    grid.extend([(3, 3, 1, 2), (3, 4, 2, 1), (3, 6, 1, 0)]);
    let mut checked = 0;
    for (i, &(q, b, holes, group_bits)) in grid.iter().enumerate() {
        let bfsm = lock(q, b, holes, 0, group_bits, 900 + i as u64);
        let name = format!("q {q} b {b} holes {holes} group_bits {group_bits}");
        checked += assert_table_walk_matches_search(&bfsm, 1, &name);
    }
    // 12 FF on every 61st state, and a gray hole with a trapdoor.
    for (b, holes, group_bits) in [(3, 2, 2), (4, 1, 1)] {
        let bfsm = lock(4, b, holes, 0, group_bits, 950 + b as u64);
        checked += assert_table_walk_matches_search(&bfsm, 61, &format!("q 4 b {b}"));
    }
    checked += assert_table_walk_matches_search(&lock(3, 4, 1, 4, 1, 960), 1, "trapdoor");
    assert_eq!(checked, 11_064, "(state, group) pairs checked");
}
