//! Property and adversarial tests of the serde-free JSON codecs for
//! [`LockOptions`] and the protocol's wire types: round trips are
//! lossless for arbitrary values, and the strict parser rejects unknown
//! fields, missing fields and wrong types — a misspelled or truncated
//! lock database must fail loudly, never fall back to defaults.

use hwm_jsonio::Json;
use hwm_metering::{LockOptions, MeteringError, UnlockKey};
use proptest::prelude::*;

fn arb_options() -> impl Strategy<Value = LockOptions> {
    (
        (
            1usize..8,
            // (flag, width) maps to Option: the stub has no option::of.
            (any::<bool>(), 1usize..9).prop_map(|(some, b)| some.then_some(b)),
            0usize..4,
            0usize..4,
        ),
        (0usize..4, 0usize..6, 0usize..4, 0usize..6),
        any::<bool>(),
        1usize..4,
    )
        .prop_map(
            |(
                (added_modules, input_bits, overrides_per_module, links_per_module),
                (black_holes, trapdoor_length, group_bits, dummy_ffs),
                remote_disable,
                module_search_candidates,
            )| LockOptions {
                added_modules,
                input_bits,
                overrides_per_module,
                links_per_module,
                black_holes,
                trapdoor_length,
                group_bits,
                dummy_ffs,
                remote_disable,
                module_search_candidates,
            },
        )
}

proptest! {
    /// Options survive a JSON round trip — including through the textual
    /// form, which is what actually lands on disk.
    #[test]
    fn lock_options_roundtrip(options in arb_options()) {
        let json = options.to_json();
        prop_assert_eq!(LockOptions::from_json(&json).unwrap(), options.clone());
        let reparsed = Json::parse(&json.to_string()).unwrap();
        prop_assert_eq!(LockOptions::from_json(&reparsed).unwrap(), options);
    }

    /// Dropping any single field makes the parse fail and the error names
    /// the field.
    #[test]
    fn lock_options_reject_any_missing_field(options in arb_options(), victim in 0usize..10) {
        let fields = match options.to_json() {
            Json::Obj(fields) => fields,
            _ => unreachable!("to_json returns an object"),
        };
        let name = fields[victim].0.clone();
        let truncated = Json::Obj(
            fields
                .into_iter()
                .enumerate()
                .filter(|(i, _)| *i != victim)
                .map(|(_, kv)| kv)
                .collect(),
        );
        match LockOptions::from_json(&truncated) {
            Err(MeteringError::InvalidOptions { reason }) => {
                prop_assert!(
                    reason.contains(&name),
                    "error {reason:?} must name the missing field {name:?}"
                );
            }
            other => prop_assert!(false, "missing {name:?} must fail, got {other:?}"),
        }
    }

    /// Replacing any single field's value with a string makes the parse
    /// fail (no type coercion).
    #[test]
    fn lock_options_reject_any_wrong_type(options in arb_options(), victim in 0usize..10) {
        let mut fields = match options.to_json() {
            Json::Obj(fields) => fields,
            _ => unreachable!("to_json returns an object"),
        };
        let name = fields[victim].0.clone();
        fields[victim].1 = Json::Str("not-a-number".into());
        match LockOptions::from_json(&Json::Obj(fields)) {
            Err(MeteringError::InvalidOptions { reason }) => {
                prop_assert!(
                    reason.contains(&name),
                    "error {reason:?} must name the ill-typed field {name:?}"
                );
            }
            other => prop_assert!(false, "ill-typed {name:?} must fail, got {other:?}"),
        }
    }

    /// Unknown fields are rejected, whatever their name and value, and so
    /// is a second copy of any known field (no first- or last-key-wins).
    #[test]
    fn lock_options_reject_unknown_fields(
        options in arb_options(),
        tag in any::<u32>(),
        value in any::<u64>(),
    ) {
        let fields = match options.to_json() {
            Json::Obj(fields) => fields,
            _ => unreachable!("to_json returns an object"),
        };
        let repeated = fields[tag as usize % fields.len()].0.clone();
        for (name, kind) in [
            (format!("unknown_knob_{tag}"), "unknown field"),
            (repeated, "duplicate field"),
        ] {
            let mut tampered = fields.clone();
            tampered.push((name.clone(), Json::U64(value)));
            match LockOptions::from_json(&Json::Obj(tampered)) {
                Err(MeteringError::InvalidOptions { reason }) => {
                    prop_assert!(
                        reason.contains(&name) && reason.contains(kind),
                        "error {reason:?} must name the {kind} {name:?}"
                    );
                }
                other => prop_assert!(false, "{kind} {name:?} must fail, got {other:?}"),
            }
        }
    }

    /// Unlock keys round-trip losslessly through their JSON string form
    /// for full-width symbol values.
    #[test]
    fn unlock_key_roundtrip(values in prop::collection::vec(any::<u64>(), 0..40)) {
        let key = UnlockKey { values };
        let back = UnlockKey::from_json_string(&key.to_json_string()).unwrap();
        prop_assert_eq!(key, back);
    }
}

#[test]
fn lock_options_reject_non_objects() {
    for bogus in [Json::Null, Json::U64(7), Json::Arr(vec![]), Json::Str("x".into())] {
        assert!(matches!(
            LockOptions::from_json(&bogus),
            Err(MeteringError::InvalidOptions { .. })
        ));
    }
}

#[test]
fn unlock_key_rejects_malformed_json() {
    for bogus in [
        "",               // empty input
        "{",              // truncated
        "[1,2",           // unterminated array
        "{\"values\":1}", // an object, not the bare array form
        "[1,\"x\"]",      // ill-typed element
        "[1.5]",          // keys are integers
        "[-3]",           // and non-negative
        "[1] trailing",   // trailing garbage
    ] {
        assert!(
            UnlockKey::from_json_string(bogus).is_err(),
            "{bogus:?} must be rejected"
        );
    }
}

#[test]
fn database_import_rejects_tampered_options() {
    let designer = hwm_metering::Designer::new(
        hwm_fsm::Stg::ring_counter(4, 1),
        LockOptions {
            added_modules: 2,
            ..LockOptions::default()
        },
        7,
    )
    .unwrap();
    let exported = designer.export_database().unwrap();
    // Smuggle an unknown knob into the options object; the strict parser
    // must refuse the whole database.
    let tampered = exported.replace("\"added_modules\"", "\"aded_modules\"");
    assert_ne!(exported, tampered);
    assert!(hwm_metering::Designer::import_database(&tampered).is_err());
    // A second copy of a field is refused too, not first-key-wins.
    let duplicated = exported.replace("\"seed\":7", "\"seed\":7,\"seed\":8");
    assert_ne!(exported, duplicated);
    assert!(hwm_metering::Designer::import_database(&duplicated).is_err());
    // The untampered export still imports.
    assert!(hwm_metering::Designer::import_database(&exported).is_ok());
}

#[test]
fn database_import_rejects_more_modules_than_a_state_holds() {
    // The composed state is a u32 with 3 bits per module: 11 modules must
    // be refused, not wrap the state or size a 2^33-entry search.
    let designer = hwm_metering::Designer::new(
        hwm_fsm::Stg::ring_counter(4, 1),
        LockOptions {
            added_modules: 2,
            ..LockOptions::default()
        },
        7,
    )
    .unwrap();
    let exported = designer.export_database().unwrap();
    let oversized = exported.replace("\"added_modules\":2", "\"added_modules\":11");
    assert_ne!(exported, oversized);
    assert!(matches!(
        hwm_metering::Designer::import_database(&oversized),
        Err(MeteringError::InvalidOptions { .. })
    ));
}
