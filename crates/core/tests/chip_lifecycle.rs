//! Chip-level lifecycle tests: storage boots, trapped readouts, remote
//! disabling, trapdoors, ledger bookkeeping and environmental stress.

use hwm_fsm::Stg;
use hwm_logic::Bits;
use hwm_metering::{protocol, Chip, Designer, Foundry, LockOptions, MeteringError, ScanReadout};

fn setup(options: LockOptions, seed: u64) -> (Designer, Foundry) {
    let designer = Designer::new(Stg::ring_counter(6, 2), options, seed).expect("lock");
    let foundry = Foundry::new(designer.blueprint().clone(), seed ^ 0xACE);
    (designer, foundry)
}

fn fabricate_locked(foundry: &mut Foundry) -> Chip {
    let chip = foundry.fabricate_one();
    assert!(!chip.is_unlocked());
    chip
}

/// Both key paths refuse `readout` with `error`, and the refusal leaves
/// the royalty ledger as it was.
fn assert_key_refused(designer: &mut Designer, readout: &ScanReadout, error: MeteringError) {
    let before = designer.activations();
    assert_eq!(designer.compute_key(readout), Err(error.clone()));
    assert_eq!(designer.issue_key(readout), Err(error));
    assert_eq!(designer.activations(), before);
}

#[test]
fn designer_rejects_more_modules_than_a_state_holds() {
    // The composed state is a u32 with 3 bits per module: 11 modules must
    // be refused, not wrap the state or size a 2^33-entry search.
    let eleven = LockOptions {
        added_modules: 11,
        ..LockOptions::default()
    };
    assert!(matches!(
        Designer::new(Stg::ring_counter(4, 1), eleven, 7),
        Err(MeteringError::InvalidOptions { .. })
    ));
}

#[test]
fn boot_without_stored_key_fails() {
    let (_, mut foundry) = setup(LockOptions::default(), 301);
    let mut chip = fabricate_locked(&mut foundry);
    assert!(matches!(
        chip.boot_from_storage(),
        Err(MeteringError::KeyRejected { .. })
    ));
}

#[test]
fn boot_with_wrong_stored_key_fails() {
    let (mut designer, mut foundry) = setup(LockOptions::default(), 302);
    let mut a = fabricate_locked(&mut foundry);
    protocol::activate(&mut designer, &mut a).unwrap();
    let mut b = fabricate_locked(&mut foundry);
    // Tamper: store A's key into B's NVM.
    b.store_key(a.stored_key().unwrap().clone());
    assert!(b.boot_from_storage().is_err());
    assert!(!b.is_unlocked());
}

#[test]
fn trapped_chip_readout_yields_no_key() {
    let (mut designer, mut foundry) = setup(
        LockOptions {
            black_holes: 1,
            ..LockOptions::default()
        },
        303,
    );
    let mut chip = fabricate_locked(&mut foundry);
    // Drive random inputs until the chip traps (holes make this fast).
    let width = chip.blueprint().num_inputs();
    let mut x = 5u64;
    for _ in 0..200_000 {
        if chip.is_trapped() {
            break;
        }
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        chip.step(&Bits::from_u64((x >> 40) & ((1 << width) - 1), width));
    }
    assert!(chip.is_trapped(), "hole should have caught the walk");
    let readout = chip.scan_flip_flops();
    assert_key_refused(&mut designer, &readout, MeteringError::NoKeyExists);
}

#[test]
fn unlocked_chip_readout_is_rejected_for_key_computation() {
    let (mut designer, mut foundry) = setup(LockOptions::default(), 304);
    let mut chip = fabricate_locked(&mut foundry);
    protocol::activate(&mut designer, &mut chip).unwrap();
    let readout = chip.scan_flip_flops();
    assert_key_refused(&mut designer, &readout, MeteringError::UnrecognizedReadout);
}

#[test]
fn malformed_readout_rejected() {
    let (mut designer, _) = setup(LockOptions::default(), 305);
    let bogus = ScanReadout(Bits::zeros(3));
    assert_key_refused(&mut designer, &bogus, MeteringError::UnrecognizedReadout);
}

#[test]
fn remote_disable_only_with_the_right_sequence() {
    let (mut designer, mut foundry) = setup(
        LockOptions {
            black_holes: 1,
            remote_disable: true,
            ..LockOptions::default()
        },
        306,
    );
    let mut chip = fabricate_locked(&mut foundry);
    protocol::activate(&mut designer, &mut chip).unwrap();
    // A wrong sequence does nothing.
    let mut wrong = designer.kill_sequence();
    wrong[0] ^= 1;
    assert!(!chip.remote_disable(&wrong));
    assert!(chip.is_unlocked());
    // The right one bricks it.
    assert!(chip.remote_disable(&designer.kill_sequence()));
    assert!(chip.is_trapped());
}

#[test]
fn remote_disable_disabled_when_not_provisioned() {
    let (mut designer, mut foundry) = setup(
        LockOptions {
            black_holes: 1,
            remote_disable: false,
            ..LockOptions::default()
        },
        307,
    );
    let mut chip = fabricate_locked(&mut foundry);
    protocol::activate(&mut designer, &mut chip).unwrap();
    assert!(!chip.remote_disable(&designer.kill_sequence()));
    assert!(chip.is_unlocked());
}

#[test]
fn trapdoor_round_trip_restores_service() {
    let (mut designer, mut foundry) = setup(
        LockOptions {
            black_holes: 1,
            trapdoor_length: 5,
            ..LockOptions::default()
        },
        308,
    );
    let mut chip = fabricate_locked(&mut foundry);
    protocol::activate(&mut designer, &mut chip).unwrap();
    assert!(chip.remote_disable(&designer.kill_sequence()));
    let trapdoor = designer.blueprint().black_holes()[0]
        .trapdoor
        .clone()
        .expect("gray hole");
    chip.apply_values(&trapdoor);
    assert!(!chip.is_trapped());
    // Fresh key restores functionality.
    let key = designer.issue_key(&chip.scan_flip_flops()).unwrap();
    chip.apply_key(&key).unwrap();
    assert!(chip.is_unlocked());
}

#[test]
fn ledger_counts_every_activation() {
    let (mut designer, mut foundry) = setup(
        LockOptions {
            group_bits: 2,
            black_holes: 0,
            ..LockOptions::default()
        },
        309,
    );
    let mut chips: Vec<Chip> = (0..5).map(|_| fabricate_locked(&mut foundry)).collect();
    for (activated, chip) in chips.iter_mut().enumerate() {
        assert_eq!(designer.activations(), activated);
        protocol::activate(&mut designer, chip).unwrap();
        assert!(chip.is_unlocked());
    }
    assert_eq!(designer.activations(), 5);
    // A key computed without issuing it is no activation.
    let spare = fabricate_locked(&mut foundry);
    designer.compute_key(&spare.scan_flip_flops()).unwrap();
    assert_eq!(designer.activations(), 5);
}

#[test]
fn serial_numbers_count_production() {
    let (_, mut foundry) = setup(LockOptions::default(), 310);
    for expected in 0..7u64 {
        assert_eq!(foundry.fabricate_one().serial(), expected);
    }
    assert_eq!(foundry.fabricated(), 7);
}

#[test]
fn chip_display_shows_mode() {
    let (mut designer, mut foundry) = setup(LockOptions::default(), 311);
    let mut chip = fabricate_locked(&mut foundry);
    assert!(chip.to_string().contains("locked"));
    protocol::activate(&mut designer, &mut chip).unwrap();
    assert!(chip.to_string().contains("unlocked"));
}

#[test]
fn repeated_power_up_reenrolls_nothing() {
    // The first reading is the enrolled one; later power-ups must not
    // overwrite it (otherwise the stored key could silently stop working).
    let (mut designer, mut foundry) = setup(LockOptions::default(), 312);
    let mut chip = fabricate_locked(&mut foundry);
    protocol::activate(&mut designer, &mut chip).unwrap();
    for _ in 0..10 {
        chip.power_up(); // fresh noisy reads, different locked states
        assert!(!chip.is_unlocked());
        chip.boot_from_storage().expect("enrolled boot still works");
        assert!(chip.is_unlocked());
    }
}
