//! Lock construction runs one reachability search per accepted lock:
//! `Designer::new` assembles each candidate added STG first and runs the
//! plain exit check only when `Bfsm::assemble` refuses it. Over an
//! option grid it must build the same lock, or fail with the same error,
//! as the order it replaced, which checked every candidate before
//! assembling it.

use hwm_fsm::Stg;
use hwm_metering::added::AddedStg;
use hwm_metering::bfsm::Bfsm;
use hwm_metering::{Designer, LockOptions, MeteringError};
use hwm_netlist::CellLibrary;

/// The candidate added STG of `attempt` under `options` and `seed`.
fn candidate(options: &LockOptions, b: usize, seed: u64, attempt: u64) -> AddedStg {
    AddedStg::build_searched(
        options.added_modules,
        b,
        options.overrides_per_module,
        options.links_per_module,
        options.module_search_candidates,
        &CellLibrary::generic(),
        seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    )
    .expect("grid options build")
}

/// `Designer::new` as it was before it skipped the plain check: the
/// first of 16 candidate added STGs that passes
/// `verify_exit_reachability` (through `build_verified` without the
/// module search), then `Bfsm::assemble` on it.
fn reference(original: &Stg, options: &LockOptions, seed: u64) -> Result<Bfsm, MeteringError> {
    let b = options.resolved_input_bits(original);
    let groups = 1u8 << options.group_bits;
    let added = if options.module_search_candidates > 1 {
        (0..16)
            .map(|attempt| candidate(options, b, seed, attempt))
            .find(|added| added.verify_exit_reachability(groups))
            .ok_or_else(|| MeteringError::InvalidOptions {
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
    Bfsm::assemble(
        original,
        &added,
        options.black_holes,
        options.trapdoor_length,
        options.group_bits,
        options.dummy_ffs,
        options.remote_disable,
        seed,
    )
}

/// Builds the lock both ways, asserts the same lock or the same error,
/// and returns whether a lock was built.
fn assert_same_construction(options: &LockOptions, seed: u64) -> bool {
    let original = Stg::ring_counter(4, 1);
    let built = Designer::new(original.clone(), options.clone(), seed);
    let expected = reference(&original, options, seed);
    assert!(
        built.as_ref().map(|d| d.blueprint().as_ref()) == expected.as_ref(),
        "{options:?} seed {seed}: built {:?}, expected {:?}",
        built.as_ref().map(|d| d.blueprint().added()),
        expected.as_ref().map(Bfsm::added),
    );
    expected.is_ok()
}

fn options(
    q: usize,
    b: usize,
    holes: usize,
    trapdoor: usize,
    group_bits: usize,
    search: usize,
) -> LockOptions {
    LockOptions {
        added_modules: q,
        input_bits: Some(b),
        black_holes: holes,
        trapdoor_length: trapdoor,
        group_bits,
        module_search_candidates: search,
        ..LockOptions::default()
    }
}

#[test]
fn designer_builds_what_checking_every_candidate_first_built() {
    // Locks built, and locks `assemble` refused on a first candidate that
    // passes the plain check.
    let (mut accepted, mut refused) = (0, 0);
    let mut check = |o: LockOptions, seed: u64| {
        if assert_same_construction(&o, seed) {
            accepted += 1;
        } else if candidate(&o, o.input_bits.unwrap(), seed, 0)
            .verify_exit_reachability(1 << o.group_bits)
        {
            refused += 1;
        }
    };
    // Every option combination up to 2 modules, on two seeds, without
    // the module search.
    for q in 1..=2 {
        for b in 1..=8 {
            for holes in 0..=2 {
                for trapdoor in [0, 3] {
                    for group_bits in 0..=2 {
                        for seed in [11, 12] {
                            check(options(q, b, holes, trapdoor, group_bits, 1), seed);
                        }
                    }
                }
            }
        }
    }
    // Every module count and input width once, the other options cycling
    // through their values. The module search synthesizes 4 candidates
    // per module, so it stays at 3 modules or fewer, and 6 modules make
    // 2^18 states, so they get one lock.
    for q in 1..=6 {
        for b in 1..=8 {
            if q == 6 && b != 3 {
                continue;
            }
            let k = q + b;
            let search = if q <= 3 { [1, 4][k % 2] } else { 1 };
            let o = options(q, b, k % 3, 3 * ((k / 2) % 2), (k / 3) % 3, search);
            check(o, 20 + k as u64);
        }
    }
    // One input bit leaves a single input clear of the unlock gate, so
    // `assemble` refuses many of those locks while the plain check, over
    // both inputs, passes: the refusal is reported, not retried.
    assert!(
        refused > 0 && accepted > refused,
        "{accepted} accepted, {refused} refused"
    );
}

/// Seeds, found by a scan, whose first candidate added STG cannot reach
/// its exit from every state while a later one yields a lock: the lock is
/// built on the later candidate, with and without the module search.
#[test]
fn an_unreachable_candidate_is_skipped() {
    for (q, b, search, seed) in [(1, 1, 1, 247), (2, 2, 1, 38), (1, 1, 4, 68)] {
        let o = options(q, b, 1, 0, 0, search);
        assert!(
            !candidate(&o, b, seed, 0).verify_exit_reachability(1),
            "q {q} b {b} search {search} seed {seed}: the first candidate reaches its exit"
        );
        assert!(
            assert_same_construction(&o, seed),
            "q {q} b {b} search {search} seed {seed}"
        );
    }
}

/// Two equal locks print the same `Debug` string, so a printed or hashed
/// lock is reproducible. The original design's encoding once kept its
/// code index in a `HashMap`, which lists its entries in a per-instance
/// order; the first case below printed two orders.
#[test]
fn equal_locks_print_alike() {
    let cases = [(1, 1, 1, 0, 247), (2, 3, 2, 2, 7), (5, 8, 0, 0, 2024)];
    for (q, b, holes, group_bits, seed) in cases {
        let o = options(q, b, holes, 0, group_bits, 1);
        let build =
            || Designer::new(Stg::ring_counter(4, 1), o.clone(), seed).expect("lock builds");
        let (first, second) = (build(), build());
        let at = format!("q {q} b {b} holes {holes} group_bits {group_bits} seed {seed}");
        assert_eq!(first.blueprint(), second.blueprint(), "{at}");
        assert_eq!(
            format!("{:?}", first.blueprint()),
            format!("{:?}", second.blueprint()),
            "{at}"
        );
    }
}

/// One `metering.reachability` span is one reachability decision. A
/// Table 3 row-15 lock (5 modules, no black holes) is accepted by its
/// first placement, so building it makes exactly one.
#[test]
fn a_row_15_lock_costs_one_reachability_search() {
    const BASES: [&str; 6] = ["b3", "b4", "b5", "b6", "b7", "b8"];
    hwm_trace::set_enabled(true);
    for (b, base) in (3..=8).zip(BASES) {
        let scope = hwm_trace::thread_scope(&[base]);
        let options = LockOptions {
            added_modules: 5,
            input_bits: Some(b),
            black_holes: 0,
            dummy_ffs: 0,
            ..LockOptions::default()
        };
        Designer::new(Stg::ring_counter(4, 1), options, 2024 + b as u64).expect("row-15 lock");
        drop(scope);
        let searches: u64 = hwm_trace::summary()
            .spans
            .iter()
            .filter(|row| row.path.starts_with(base) && row.path.ends_with("metering.reachability"))
            .map(|row| row.calls)
            .sum();
        assert_eq!(searches, 1, "b {b}");
    }
}

/// With no black holes a candidate lock depends only on its unlock gate,
/// and one input bit leaves a single key-safe input, so many of these
/// locks cannot be built. `assemble` tries each gate once and refuses
/// with a message about the gate, not about a placement that was never
/// asked for. The seeds that build are the ones that built when every
/// refusal retried the same two gates 24 times.
#[test]
fn a_lock_without_holes_tries_each_gate_once() {
    let one_bit_built = [
        (2, vec![64, 68, 80, 84, 86, 87, 91, 92, 99]),
        (
            1,
            vec![
                64, 67, 68, 70, 71, 72, 74, 76, 79, 80, 81, 84, 85, 86, 87, 88, 90, 91, 92, 94, 97,
                98, 99,
            ],
        ),
    ];
    for (modules, expected) in one_bit_built {
        let mut built = Vec::new();
        for seed in 60..100 {
            let options = LockOptions {
                added_modules: modules,
                input_bits: Some(1),
                black_holes: 0,
                ..LockOptions::default()
            };
            match Designer::new(Stg::ring_counter(5, 2), options, seed) {
                Ok(_) => built.push(seed),
                Err(refused) => assert_eq!(
                    refused.to_string(),
                    "invalid lock options: no unlock gate keeps the exit reachable over \
                     key-safe inputs",
                    "{modules} modules, seed {seed}"
                ),
            }
        }
        assert_eq!(built, expected, "{modules} modules");
    }
}
