//! Deterministic crash/restart simulation at the service level.
//!
//! A seeded workload is driven twice: once against a fault-free in-memory
//! **oracle**, once against a file-backed server that is killed at
//! fault-plan-chosen ticks (torn journal writes, disk-full appends,
//! dropped/short-read request frames) and restarted via the recovery path
//! (`Registry::open_with` + `AuditLog::resume_file` +
//! `ActivationServer::resume`). After every fault plan, the recovered
//! world must match the oracle **exactly**: delivered responses, registry
//! records and counts, clone evidence, the rolling journal digest, the
//! audit stream bytes, and the summed deterministic metrics counters.
//! Keys are never lost, no duplicate IC is ever re-admitted, and clone
//! evidence survives every restart.
//!
//! The larger randomized-workload harness lives in `hwm_bench::sim`
//! (`crash_sim`); this test keeps the service crate self-checking with a
//! small handcrafted schedule.

use hwm_metering::{Designer, Foundry, LockOptions};
use hwm_metrics::AuditLog;
use hwm_service::wire::readout_to_bits_string;
use hwm_service::{
    absorb_counters, ActivationServer, ArmedFault, Client, CounterSums, ErrorCode, FaultInjector,
    FaultKind, FaultPlan, LocalClient, RecoverOptions, Registry, Request, Response, ServerConfig,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SEED: u64 = 2024;

fn designer() -> Designer {
    Designer::new(
        hwm_fsm::Stg::ring_counter(5, 2),
        LockOptions {
            added_modules: 2,
            black_holes: 1,
            ..LockOptions::default()
        },
        SEED,
    )
    .expect("designer")
}

/// The seeded workload: registrations, a clone attempt, wrong-readout
/// guesses (below the lockout threshold), unlocks, a disable, a
/// re-unlock, and status checks.
fn schedule() -> Vec<Request> {
    let mut foundry = Foundry::new(designer().blueprint().clone(), SEED ^ 1);
    let mut readouts: Vec<String> = Vec::new();
    while readouts.len() < 5 {
        let r = readout_to_bits_string(&foundry.fabricate_one().scan_flip_flops().0);
        if !readouts.contains(&r) {
            readouts.push(r);
        }
    }
    let mut reqs = Vec::new();
    for (i, r) in readouts.iter().enumerate() {
        reqs.push(Request::Register {
            client: "fab".into(),
            ic: format!("ic-{i}"),
            readout: r.clone(),
        });
    }
    // A cloned die: an already-registered readout under a new label.
    reqs.push(Request::Register {
        client: "fab".into(),
        ic: "ic-clone".into(),
        readout: readouts[0].clone(),
    });
    // A wrong-readout guess (stays far below the lockout threshold).
    let mut wrong: String = readouts[0].clone();
    let flipped = if wrong.starts_with('0') { "1" } else { "0" };
    wrong.replace_range(0..1, flipped);
    reqs.push(Request::Unlock {
        client: "mallory".into(),
        readout: wrong,
    });
    for r in &readouts {
        reqs.push(Request::Unlock {
            client: "fab".into(),
            readout: r.clone(),
        });
    }
    reqs.push(Request::RemoteDisable {
        client: "alice".into(),
        ic: "ic-1".into(),
    });
    // Unlocking an unlocked die again must keep failing identically.
    reqs.push(Request::Unlock {
        client: "fab".into(),
        readout: readouts[0].clone(),
    });
    for i in 0..readouts.len() {
        reqs.push(Request::Status {
            client: "fab".into(),
            ic: Some(format!("ic-{i}")),
        });
    }
    reqs
}

struct OracleRun {
    responses: Vec<Response>,
    journal: Vec<u8>,
    records: Vec<hwm_service::IcRecord>,
    counts: hwm_service::RegistryCounts,
    clones: Vec<hwm_service::CloneEvidence>,
    audit: String,
    counters: CounterSums,
    /// Ticks whose request appended a journal line.
    storage_ticks: Vec<u64>,
}

fn oracle() -> OracleRun {
    let server = Arc::new(ActivationServer::new(
        designer(),
        Registry::in_memory(),
        ServerConfig::default(),
    ));
    let mut client = LocalClient::new(Arc::clone(&server));
    let mut responses = Vec::new();
    let mut storage_ticks = Vec::new();
    for (tick, req) in schedule().iter().enumerate() {
        let resp = client.call(req).expect("oracle transport");
        if resp.journal_event().is_some() {
            storage_ticks.push(tick as u64);
        }
        responses.push(resp);
    }
    let mut counters = CounterSums::new();
    absorb_counters(&mut counters, &server.snapshot());
    OracleRun {
        responses,
        journal: server.with_registry(|r| r.journal_bytes().expect("in-memory").to_vec()),
        records: server.with_registry(|r| r.records().to_vec()),
        counts: server.with_registry(|r| r.counts()),
        clones: server.with_registry(|r| r.clones().to_vec()),
        audit: server.audit_jsonl(),
        counters,
        storage_ticks,
    }
}

fn sim_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hwm-sim-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the schedule against a file-backed server, crashing and
/// restarting at every plan tick, and checks the recovered world against
/// the oracle.
fn run_crash_sim(kind: FaultKind, crashes: usize, compact_every: u64, dir: &Path) {
    let oracle = oracle();
    let schedule = schedule();
    let eligible: Vec<u64> = if kind.is_storage() {
        oracle.storage_ticks.clone()
    } else {
        (0..schedule.len() as u64).collect()
    };
    let plan = FaultPlan::new(SEED, kind, &eligible, crashes);
    assert_eq!(plan.crash_ticks.len(), crashes, "workload has enough eligible ticks");

    let journal = dir.join("journal.jsonl");
    let audit_path = dir.join("audit.jsonl");
    let mut delivered: usize = 0;
    let mut responses: Vec<Response> = Vec::new();
    let mut counters = CounterSums::new();
    let mut crash_iter = plan.crash_ticks.iter().copied().peekable();
    let mut incarnations = 0;
    let config = ServerConfig::default();

    'world: loop {
        incarnations += 1;
        assert!(incarnations <= crashes + 1, "more restarts than crashes");
        let injector = FaultInjector::new();
        let registry = Registry::open_with(
            &journal,
            RecoverOptions {
                flush: config.flush,
                compact_every,
                injector: Some(injector.clone()),
            },
        )
        .expect("recovery");
        let audit = AuditLog::resume_file(&audit_path).expect("audit resume");
        let server = Arc::new(ActivationServer::resume(
            designer(),
            registry,
            config,
            audit,
            delivered as u64,
        ));
        let mut client = LocalClient::with_faults(Arc::clone(&server), injector.clone());
        loop {
            if delivered == schedule.len() {
                absorb_counters(&mut counters, &server.snapshot());
                // Final-incarnation state must equal the oracle's.
                server.with_registry(|r| {
                    assert_eq!(r.records(), oracle.records.as_slice(), "{kind}: records");
                    assert_eq!(r.counts(), oracle.counts, "{kind}: counts");
                    assert_eq!(r.clones(), oracle.clones.as_slice(), "{kind}: clone evidence");
                    assert_eq!(
                        r.rolling_digest(),
                        hwm_service::registry::journal_digest(&oracle.journal),
                        "{kind}: rolling digest"
                    );
                });
                assert_eq!(server.audit_jsonl(), oracle.audit, "{kind}: audit stream");
                assert_eq!(server.clock(), schedule.len() as u64, "{kind}: clock");
                break 'world;
            }
            let tick = delivered as u64;
            if crash_iter.peek() == Some(&tick) {
                crash_iter.next();
                // Counters of the dying incarnation, before the doomed
                // attempt (whose effects the oracle never sees).
                absorb_counters(&mut counters, &server.snapshot());
                match kind {
                    FaultKind::TornWrite => {
                        injector.arm(ArmedFault::TornWrite {
                            salt: plan.byte_salt(tick),
                        });
                    }
                    FaultKind::DiskFull => injector.arm(ArmedFault::DiskFull),
                    FaultKind::ShortRead => {
                        injector.arm(ArmedFault::ShortRead {
                            salt: plan.byte_salt(tick),
                        });
                    }
                    FaultKind::ConnDrop => injector.arm(ArmedFault::ConnDrop),
                }
                // The doomed request: the injected fault must surface as
                // an error (transport faults) or a refused mutation
                // (storage faults); either way nothing was delivered.
                match client.call(&schedule[delivered]) {
                    Err(_) => {}
                    Ok(Response::Error { code, .. }) => {
                        assert!(
                            kind.is_storage() && code == ErrorCode::Malformed,
                            "{kind}: unexpected doomed outcome {code:?}"
                        );
                    }
                    Ok(resp) => panic!("{kind}: doomed request succeeded: {resp:?}"),
                }
                assert_eq!(injector.take(), None, "{kind}: fault was consumed");
                // Kill this incarnation (drop flushes what it can).
                continue 'world;
            }
            let resp = client.call(&schedule[delivered]).expect("sim transport");
            responses.push(resp);
            delivered += 1;
        }
    }

    assert_eq!(incarnations, crashes + 1, "{kind}: one restart per crash");
    assert_eq!(responses, oracle.responses, "{kind}: delivered responses");
    assert_eq!(counters, oracle.counters, "{kind}: summed det counters");
    // Without compaction the recovered on-disk journal is byte-identical
    // to the oracle's (torn tails were truncated away; retries re-landed
    // on the same seq).
    if compact_every == 0 {
        assert_eq!(
            std::fs::read(&journal).unwrap(),
            oracle.journal,
            "{kind}: journal bytes"
        );
    }
    // A final cold open must see the same world (snapshot + tail path).
    let reopened = Registry::open(&journal).expect("cold reopen");
    assert_eq!(reopened.records(), oracle.records.as_slice());
    assert_eq!(reopened.clones(), oracle.clones.as_slice());
    assert_eq!(
        reopened.rolling_digest(),
        hwm_service::registry::journal_digest(&oracle.journal)
    );
}

#[test]
fn torn_write_crashes_recover_to_the_oracle() {
    let dir = sim_dir("torn");
    run_crash_sim(FaultKind::TornWrite, 3, 0, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_full_crashes_recover_to_the_oracle() {
    let dir = sim_dir("enospc");
    run_crash_sim(FaultKind::DiskFull, 3, 0, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn conn_drop_crashes_recover_to_the_oracle() {
    let dir = sim_dir("drop");
    run_crash_sim(FaultKind::ConnDrop, 3, 0, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_read_crashes_recover_to_the_oracle() {
    let dir = sim_dir("short");
    run_crash_sim(FaultKind::ShortRead, 3, 0, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_write_crashes_recover_with_compaction_in_the_loop() {
    // Same fault plan, but the registry auto-compacts every 4 events, so
    // restarts exercise the snapshot + tail path (and the skip of tail
    // lines the snapshot already covers).
    let dir = sim_dir("torn-compact");
    run_crash_sim(FaultKind::TornWrite, 3, 4, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_plus_tail_equals_full_journal_replay() {
    // Drive a file-backed, auto-compacting registry and an uncompacted
    // in-memory twin through the same schedule, then prove a cold open
    // (snapshot + tail) is state-equivalent to a strict replay of the
    // full journal the twin kept.
    let dir = sim_dir("equiv");
    let journal = dir.join("journal.jsonl");
    let schedule = schedule();
    let control = Arc::new(ActivationServer::new(
        designer(),
        Registry::in_memory(),
        ServerConfig::default(),
    ));
    let mut control_client = LocalClient::new(Arc::clone(&control));
    {
        let registry = Registry::open_with(
            &journal,
            RecoverOptions {
                compact_every: 3,
                ..RecoverOptions::default()
            },
        )
        .unwrap();
        let server = Arc::new(ActivationServer::new(designer(), registry, ServerConfig::default()));
        let mut client = LocalClient::new(Arc::clone(&server));
        for req in &schedule {
            client.call(req).expect("transport");
            control_client.call(req).expect("control transport");
        }
    }
    let full = control.with_registry(|r| r.journal_bytes().unwrap().to_vec());
    let replayed = Registry::replay(std::str::from_utf8(&full).unwrap()).expect("strict replay");
    let recovered = Registry::open(&journal).expect("snapshot + tail open");
    assert!(recovered.snapshot_events() > 0, "compaction produced a snapshot");
    assert_eq!(recovered.records(), replayed.records());
    assert_eq!(recovered.counts(), replayed.counts());
    assert_eq!(recovered.clones(), replayed.clones());
    assert_eq!(recovered.rolling_digest(), replayed.rolling_digest());
    let _ = std::fs::remove_dir_all(&dir);
}
