//! The designer's keys: pinned bytes on two fixed locks, one key whether
//! it is computed, issued, cloned or raced for, and the per-group
//! next-hop table checked against a forward search on every state of
//! small locks.

use hwm_fsm::Stg;
use hwm_jsonio::{fnv1a, FNV1A_BASIS};
use hwm_metering::added::AddedStg;
use hwm_metering::bfsm::{Bfsm, UNLOCK_GATE_BITS};
use hwm_metering::{Designer, Foundry, LockOptions, MeteringError, ScanReadout, UnlockKey};
use std::collections::VecDeque;
use std::sync::Barrier;

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

/// A 9-FF lock of `group_bits` and the readouts of its first `dies` dies.
fn lock_and_readouts(group_bits: usize, dies: usize) -> (Designer, Vec<ScanReadout>) {
    let options = LockOptions {
        added_modules: 3,
        group_bits,
        ..LockOptions::default()
    };
    let designer = Designer::new(Stg::ring_counter(6, 2), options, 77).expect("lock");
    let mut foundry = Foundry::new(designer.blueprint().clone(), 78);
    let readouts = (0..dies)
        .map(|_| foundry.fabricate_one().scan_flip_flops())
        .collect();
    (designer, readouts)
}

fn keys_of(designer: &Designer, readouts: &[ScanReadout]) -> Vec<UnlockKey> {
    readouts
        .iter()
        .map(|r| designer.compute_key(r).expect("a fresh die has a key"))
        .collect()
}

#[test]
fn computed_issued_and_cloned_keys_agree() {
    let (mut designer, readouts) = lock_and_readouts(2, 40);
    let fresh_clone = designer.clone();
    let computed = keys_of(&designer, &readouts);
    assert_eq!(
        keys_of(&fresh_clone, &readouts),
        computed,
        "clone made before any key"
    );
    assert_eq!(designer.activations(), 0, "compute_key counts nothing");
    let warm_clone = designer.clone();
    assert_eq!(
        keys_of(&warm_clone, &readouts),
        computed,
        "clone made after the tables"
    );
    for (i, readout) in readouts.iter().enumerate() {
        assert_eq!(
            designer.issue_key(readout).as_ref(),
            Ok(&computed[i]),
            "die {i}"
        );
    }
    assert_eq!(designer.activations(), readouts.len());
    assert_eq!(keys_of(&designer, &readouts), computed, "after issue_key");
    assert_eq!(designer.activations(), readouts.len());
    assert_eq!(fresh_clone.activations() + warm_clone.activations(), 0);
}

/// Two threads, released together by a barrier, reach every group's
/// table for the first time through one `&Designer`: whichever builds
/// it, both read the same keys.
#[test]
fn threads_sharing_a_designer_get_the_same_keys() {
    let (designer, readouts) = lock_and_readouts(2, 40);
    let expected = keys_of(&designer.clone(), &readouts);
    let start = Barrier::new(2);
    let keys = || {
        start.wait();
        keys_of(&designer, &readouts)
    };
    let (first, second) = std::thread::scope(|scope| {
        let a = scope.spawn(keys);
        let b = scope.spawn(keys);
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(first, expected);
    assert_eq!(second, expected);
}

/// A 3-bit SFFSM lock has the most groups `assemble` allows, eight:
/// dies of every group get a key that unlocks them.
#[test]
fn every_group_of_a_three_bit_lock_gets_a_key() {
    let (mut designer, _) = lock_and_readouts(3, 0);
    let mut foundry = Foundry::new(designer.blueprint().clone(), 79);
    let mut unlocked = [0usize; 8];
    for _ in 0..400 {
        let mut chip = foundry.fabricate_one();
        let key = designer.issue_key(&chip.scan_flip_flops()).expect("key");
        chip.apply_key(&key).expect("the key unlocks its own die");
        assert!(chip.is_unlocked());
        unlocked[usize::from(chip.group())] += 1;
    }
    assert!(
        unlocked.iter().all(|&n| n > 0),
        "dies per group: {unlocked:?}"
    );
}

/// The forward search the next-hop table replaced, kept as its oracle:
/// a BFS from `start` over key-safe edges with inputs ascending, so the
/// first path to reach the exit is the lexicographically least shortest
/// one. Key safety is read off public items only: a symbol is unsafe
/// when its low [`UNLOCK_GATE_BITS`] bits equal the unlock gate or it
/// fires a black hole's trigger from the current module states.
fn forward_search(bfsm: &Bfsm, start: u32, group: u8) -> Result<Vec<u64>, MeteringError> {
    let added = bfsm.added();
    if added.is_exit(start) {
        return Ok(Vec::new());
    }
    let gate_mask = (1u64 << UNLOCK_GATE_BITS.min(added.input_bits())) - 1;
    let mut pred: Vec<Option<(u32, u64)>> = vec![None; added.state_count()];
    pred[start as usize] = Some((start, 0));
    let mut queue = VecDeque::from([start]);
    while let Some(s) = queue.pop_front() {
        let module_states: Vec<u8> = (0..added.module_count())
            .map(|i| added.module_state(s, i))
            .collect();
        for v in 0..1u64 << added.input_bits() {
            let unsafe_symbol = v & gate_mask == bfsm.unlock_symbol()
                || bfsm
                    .black_holes()
                    .iter()
                    .any(|h| h.triggered_value(&module_states, v));
            if unsafe_symbol {
                continue;
            }
            let t = added.step(s, v, group);
            if pred[t as usize].is_some() {
                continue;
            }
            pred[t as usize] = Some((s, v));
            if added.is_exit(t) {
                let mut key = Vec::new();
                let mut cur = t;
                while cur != start {
                    let (p, v) = pred[cur as usize].expect("on the BFS tree");
                    key.push(v);
                    cur = p;
                }
                key.reverse();
                return Ok(key);
            }
            queue.push_back(t);
        }
    }
    Err(MeteringError::NoKeyExists)
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
                forward_search(bfsm, s, group),
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
