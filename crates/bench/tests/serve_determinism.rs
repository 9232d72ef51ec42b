//! The serving workload's determinism contract: plans, tallies and the
//! registry journal are byte-identical regardless of the generation
//! fan-out (`--jobs`) and across repeated runs.

use hwm_bench::serve::{bench_designer, build_plans, server_config, submit_local, Tally};
use hwm_service::registry::journal_digest;
use hwm_service::{ActivationServer, Registry};
use std::sync::Arc;

const SEED: u64 = 2024;
const CLIENTS: usize = 12;
const PER_CLIENT: usize = 8;

/// Runs the full pipeline with the given generation fan-out and returns
/// (tally, journal bytes, lockouts).
fn run_pipeline(jobs: usize) -> (Tally, Vec<u8>, u64) {
    let designer = bench_designer(SEED);
    let plans = build_plans(&designer, CLIENTS, PER_CLIENT, SEED, jobs);
    let server = Arc::new(ActivationServer::new(
        designer,
        Registry::in_memory(),
        server_config(),
    ));
    let tally = submit_local(&server, &plans, 1);
    let journal = server
        .with_registry(|r| r.journal_bytes().map(<[u8]>::to_vec))
        .expect("in-memory registry retains journal bytes");
    let lockouts = server.status().lockouts;
    (tally, journal, lockouts)
}

#[test]
fn plans_are_independent_of_jobs() {
    let designer = bench_designer(SEED);
    let serial = build_plans(&designer, CLIENTS, PER_CLIENT, SEED, 1);
    let fanned = build_plans(&designer, CLIENTS, PER_CLIENT, SEED, 4);
    assert_eq!(serial.len(), fanned.len());
    for (a, b) in serial.iter().zip(fanned.iter()) {
        assert_eq!(a.requests, b.requests);
    }
}

#[test]
fn journal_is_byte_identical_across_jobs() {
    let (tally1, journal1, lockouts1) = run_pipeline(1);
    let (tally4, journal4, lockouts4) = run_pipeline(4);
    assert_eq!(tally1, tally4, "response tallies must not depend on --jobs");
    assert_eq!(lockouts1, lockouts4);
    assert_eq!(
        journal1, journal4,
        "registry journal must be byte-identical across fan-outs"
    );
    assert_eq!(journal_digest(&journal1), journal_digest(&journal4));
    // And the workload actually exercised the interesting paths.
    assert!(tally1.registered > 0);
    assert!(tally1.keys > 0);
    assert!(tally1.wrong_readouts > 0);
    assert!(tally1.duplicates > 0, "small readout space should collide");
    assert!(!journal1.is_empty());
}

#[test]
fn repeated_runs_are_reproducible() {
    let (_, journal_a, _) = run_pipeline(2);
    let (_, journal_b, _) = run_pipeline(2);
    assert_eq!(journal_a, journal_b);
}
