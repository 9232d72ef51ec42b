//! Serving-path throughput levers must never change bytes: pipelined
//! submission (both transports), flush policies (including group
//! commit), and the explicit commit barrier all have to leave the same
//! journal, audit stream, det-class counters, and responses behind as
//! the plain serial per-event world.

use hwm_metering::{Designer, Foundry, LockOptions};
use hwm_service::registry::journal_digest;
use hwm_service::wire::readout_to_bits_string;
use hwm_service::{
    ActivationServer, Client, FlushPolicy, LocalClient, RecoverOptions, Registry, Request,
    Response, ServerConfig, TcpClient, TcpServer,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hwm-pipeline-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn designer(seed: u64) -> Designer {
    Designer::new(
        hwm_fsm::Stg::ring_counter(5, 2),
        LockOptions {
            added_modules: 2,
            black_holes: 1,
            ..LockOptions::default()
        },
        seed,
    )
    .expect("designer")
}

/// A deterministic mixed workload: registrations, unlocks (some with a
/// deliberately wrong readout), and status probes — enough journal and
/// audit traffic to expose any byte divergence.
fn workload(designer: &Designer, seed: u64) -> Vec<Request> {
    let mut foundry = Foundry::new(designer.blueprint().clone(), seed);
    let mut reqs = Vec::new();
    for i in 0..24 {
        let chip = foundry.fabricate_one();
        let readout = readout_to_bits_string(&chip.scan_flip_flops().0);
        reqs.push(Request::Register {
            client: format!("fab-{}", i % 3),
            ic: format!("die-{i}"),
            readout: readout.clone(),
        });
        if i % 4 == 0 {
            // A wrong readout: rejected, but journaled as a failure.
            let wrong: String = readout
                .chars()
                .map(|c| if c == '0' { '1' } else { '0' })
                .collect();
            reqs.push(Request::Unlock {
                client: format!("fab-{}", i % 3),
                readout: wrong,
            });
        }
        reqs.push(Request::Unlock {
            client: format!("fab-{}", i % 3),
            readout,
        });
        if i % 5 == 0 {
            reqs.push(Request::Status {
                client: format!("fab-{}", i % 3),
                ic: Some(format!("die-{i}")),
            });
        }
    }
    reqs
}

/// Runs the workload against a fresh file-backed server and returns the
/// evidence tuple: responses, journal digest (after the commit
/// barrier), det-class snapshot, audit stream.
fn run_variant(
    seed: u64,
    flush: FlushPolicy,
    depth: usize,
    tcp: bool,
) -> (Vec<Response>, u64, String, String) {
    let designer = designer(seed);
    let reqs = workload(&designer, seed + 1);
    let dir = scratch_dir();
    let path = dir.join("journal.jsonl");
    let registry = Registry::open_with(
        &path,
        RecoverOptions {
            flush,
            ..RecoverOptions::default()
        },
    )
    .expect("open journal");
    let server = Arc::new(ActivationServer::new(
        designer,
        registry,
        ServerConfig {
            flush,
            ..ServerConfig::default()
        },
    ));
    let responses = if tcp {
        let front = TcpServer::spawn(("127.0.0.1", 0), Arc::clone(&server)).expect("bind");
        let mut client = TcpClient::connect(front.addr()).expect("connect");
        let mut out = Vec::new();
        if depth > 1 {
            for window in reqs.chunks(depth) {
                out.extend(client.call_pipelined(window).expect("pipelined call"));
            }
        } else {
            for req in &reqs {
                out.push(client.call(req).expect("serial call"));
            }
        }
        drop(client);
        front.shutdown();
        out
    } else {
        let mut client = LocalClient::new(Arc::clone(&server));
        if depth > 1 {
            let mut out = Vec::new();
            for window in reqs.chunks(depth) {
                out.extend(client.call_pipelined(window).expect("pipelined call"));
            }
            out
        } else {
            reqs.iter().map(|r| client.call(r).expect("serial call")).collect()
        }
    };
    server.commit_journal().expect("commit barrier");
    let bytes = std::fs::read(&path).expect("read journal");
    let evidence = (
        responses,
        journal_digest(&bytes),
        server.snapshot().deterministic().to_prometheus(),
        server.audit_jsonl(),
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    evidence
}

#[test]
fn levers_never_change_bytes_across_policies_depths_and_transports() {
    let baseline = run_variant(21, FlushPolicy::PerEvent, 1, false);
    for flush in [
        FlushPolicy::GroupCommit { max_batch: 1 },
        FlushPolicy::GroupCommit { max_batch: 100_000 },
        FlushPolicy::group_commit(),
        FlushPolicy::GroupCommit { max_batch: 3 },
    ] {
        for depth in [1usize, 4, 7] {
            for tcp in [false, true] {
                let variant = run_variant(21, flush, depth, tcp);
                assert_eq!(
                    variant.0, baseline.0,
                    "responses diverged: {flush:?} depth {depth} tcp {tcp}"
                );
                assert_eq!(
                    variant.1, baseline.1,
                    "journal bytes diverged: {flush:?} depth {depth} tcp {tcp}"
                );
                assert_eq!(
                    variant.2, baseline.2,
                    "det counters diverged: {flush:?} depth {depth} tcp {tcp}"
                );
                assert_eq!(
                    variant.3, baseline.3,
                    "audit stream diverged: {flush:?} depth {depth} tcp {tcp}"
                );
            }
        }
    }
}

#[test]
fn group_commit_batches_and_commit_drains() {
    let designer = designer(33);
    let reqs = workload(&designer, 34);
    let dir = scratch_dir();
    let path = dir.join("journal.jsonl");
    let registry = Registry::open_with(
        &path,
        RecoverOptions {
            // A batch far larger than the workload: nothing may reach
            // the commit barrier on its own.
            flush: FlushPolicy::GroupCommit { max_batch: 100_000 },
            ..RecoverOptions::default()
        },
    )
    .expect("open journal");
    let server = Arc::new(ActivationServer::new(
        designer,
        registry,
        ServerConfig {
            flush: FlushPolicy::GroupCommit { max_batch: 100_000 },
            ..ServerConfig::default()
        },
    ));
    let mut client = LocalClient::new(Arc::clone(&server));
    for req in &reqs {
        let _ = client.call(req).expect("call");
    }
    let journal_len = || std::fs::metadata(&path).expect("stat journal").len();
    let before = journal_len();
    server.commit_journal().expect("commit barrier");
    assert!(journal_len() > before, "a giant batch must still be open");
    // After the barrier the file matches a per-event run bit for bit.
    let bytes = std::fs::read(&path).expect("read journal");
    let per_event = run_variant(33, FlushPolicy::PerEvent, 1, false);
    assert_eq!(journal_digest(&bytes), per_event.1);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_commit_gauges_have_help_text() {
    let designer = designer(7);
    let reqs = workload(&designer, 8);
    let dir = scratch_dir();
    let path = dir.join("journal.jsonl");
    let flush = FlushPolicy::GroupCommit { max_batch: 3 };
    let registry = Registry::open_with(
        &path,
        RecoverOptions {
            flush,
            ..RecoverOptions::default()
        },
    )
    .expect("open journal");
    let server = Arc::new(ActivationServer::new(
        designer,
        registry,
        ServerConfig {
            flush,
            ..ServerConfig::default()
        },
    ));
    let mut client = LocalClient::new(Arc::clone(&server));
    for req in &reqs[..8] {
        let _ = client.call(req).expect("call");
    }
    let expo = server.snapshot().to_prometheus();
    assert!(expo.contains("journal_group_commit_flushes "), "{expo}");
    assert!(expo.contains("journal_group_commit_pending "), "{expo}");
    assert!(!expo.contains("No help registered"), "{expo}");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_shutdown_joins_promptly() {
    let designer = designer(5);
    let server = Arc::new(ActivationServer::new(
        designer,
        Registry::in_memory(),
        ServerConfig::default(),
    ));
    let front =
        TcpServer::spawn_with_poll(("127.0.0.1", 0), Arc::clone(&server), 1).expect("bind");
    let mut client = TcpClient::connect(front.addr()).expect("connect");
    let _ = client
        .call(&Request::Metrics {
            client: "probe".into(),
        })
        .expect("probe");
    // Shutdown with an idle connection open: the accept poll and the
    // connection teardown must not stall the join.
    let t0 = Instant::now();
    front.shutdown();
    assert!(
        t0.elapsed().as_millis() < 2_000,
        "shutdown took {:?}",
        t0.elapsed()
    );
}
