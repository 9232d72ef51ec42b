//! Property-based tests of the serving layer's crash-safety invariants:
//! the rate limiter (token bucket + exponential lockout) and the journal
//! snapshot/compaction machinery.
//!
//! The limiter properties run the real [`RateLimiter`] against a tiny
//! reference model of the parts with exact contracts (lockout lifecycle,
//! failure streaks) plus conservation bounds for the token bucket. The
//! registry properties drive a file-backed, randomly-compacting registry
//! and an in-memory twin through the same operation sequence and require
//! the recovered world (snapshot + journal tail) to be state- and
//! digest-equivalent to a strict replay of the twin's full journal. The
//! counts the registry maintains at each state change must equal a fresh
//! recount of its records after every step of such a history, through
//! injected append failures, restarts, strict replay and a follower's
//! promotion.

use hwm_metering::{Designer, LockOptions};
use hwm_service::{
    ActivationServer, ArmedFault, Decision, FaultInjector, IcState, RateLimiter, RecoverOptions,
    Registry, RegistryCounts, ServerConfig, ServerRole, ThrottleConfig,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Unique per-case scratch directories (proptest runs many cases per
/// process).
static CASE: AtomicU64 = AtomicU64::new(0);

fn case_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hwm-props-{name}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const CLIENTS: [&str; 3] = ["alpha", "beta", "gamma"];

/// The small lock every server in these tests runs, built once.
fn designer() -> Designer {
    static DESIGNER: OnceLock<Designer> = OnceLock::new();
    DESIGNER
        .get_or_init(|| {
            Designer::new(
                hwm_fsm::Stg::ring_counter(5, 2),
                LockOptions {
                    added_modules: 2,
                    black_holes: 1,
                    ..LockOptions::default()
                },
                2024,
            )
            .expect("designer")
        })
        .clone()
}

/// What `counts()` must report, counted afresh: the records by
/// state, plus one rejected duplicate per piece of clone evidence.
fn recount(r: &Registry) -> RegistryCounts {
    let mut c = RegistryCounts {
        registered: r.records().len() as u64,
        duplicates: r.clones().len() as u64,
        ..RegistryCounts::default()
    };
    for record in r.records() {
        match record.state {
            IcState::Registered => {}
            IcState::Unlocked => c.unlocked += 1,
            IcState::Disabled => c.disabled += 1,
        }
    }
    c
}

/// Expected duration of a client's next lockout: doubling per prior
/// lockout, capped.
fn expected_duration(config: &ThrottleConfig, prior_lockouts: u32) -> u64 {
    config
        .base_lockout_ticks
        .saturating_mul(1u64 << prior_lockouts.min(63))
        .min(config.max_lockout_ticks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lockout lifecycle is exact: a client is refused with `LockedOut`
    /// precisely while a modeled lockout is pending, every fresh lockout
    /// lasts `min(base * 2^k, max)` ticks, and admissions never exceed
    /// the bucket's conservation bound (burst + elapsed refills).
    #[test]
    fn limiter_lockouts_are_exact_and_tokens_conserved(
        burst in 1u32..6,
        refill_ticks in 1u64..5,
        failure_threshold in 1u32..5,
        base in 4u64..40,
        cap_doublings in 0u32..4,
        ops in prop::collection::vec((0u8..3, 0usize..3, 0u64..4), 1..120),
    ) {
        let config = ThrottleConfig {
            burst,
            refill_ticks,
            failure_threshold,
            base_lockout_ticks: base,
            max_lockout_ticks: base << cap_doublings,
        };
        let mut limiter = RateLimiter::new(config);
        let mut now = 1u64;
        // The reference model: per-client lockout expiry, failure streak,
        // prior-lockout count, and token-conservation bookkeeping.
        let mut locked_until: HashMap<&str, u64> = HashMap::new();
        let mut streak: HashMap<&str, u32> = HashMap::new();
        let mut lockouts: HashMap<&str, u32> = HashMap::new();
        let mut admitted: HashMap<&str, u64> = HashMap::new();
        let mut first_seen: HashMap<&str, u64> = HashMap::new();

        for (op, who, dt) in ops {
            now += dt; // logical clock never goes backward
            let client = CLIENTS[who];
            first_seen.entry(client).or_insert(now);
            match op {
                // Admission check.
                0 => match limiter.check(client, now) {
                    Decision::Allowed => {
                        let until = locked_until.get(client).copied().unwrap_or(0);
                        prop_assert!(now >= until, "admitted during a lockout");
                        *admitted.entry(client).or_insert(0) += 1;
                    }
                    Decision::Throttled { retry_at } => {
                        prop_assert!(retry_at > now, "retry tick must be in the future");
                    }
                    Decision::LockedOut { until } => {
                        let expected = locked_until.get(client).copied().unwrap_or(0);
                        prop_assert_eq!(until, expected, "phantom or stale lockout");
                        prop_assert!(now < until, "expired lockout still refusing");
                    }
                },
                // Wrong-readout failure, as the server reports it: only
                // after an admitted request.
                1 => {
                    if limiter.check(client, now) == Decision::Allowed {
                        *admitted.entry(client).or_insert(0) += 1;
                        let fired = limiter.record_failure(client, now);
                        let s = streak.entry(client).or_insert(0);
                        *s += 1;
                        if *s >= failure_threshold {
                            let k = *lockouts.entry(client).or_insert(0);
                            let until = now + expected_duration(&config, k);
                            prop_assert_eq!(fired, Some(until), "lockout duration law");
                            locked_until.insert(client, until);
                            *lockouts.get_mut(client).unwrap() += 1;
                            *s = 0;
                        } else {
                            prop_assert_eq!(fired, None, "lockout fired early");
                        }
                    }
                }
                // Success clears the streak.
                _ => {
                    limiter.record_success(client);
                    streak.insert(client, 0);
                }
            }
        }
        // Conservation: a client can never have been admitted more often
        // than its initial burst plus one token per elapsed refill period.
        for (client, count) in &admitted {
            let elapsed = now - first_seen[client];
            prop_assert!(
                *count <= u64::from(burst) + elapsed / refill_ticks,
                "{client} admitted {count} times with burst {burst} over {elapsed} ticks"
            );
        }
        // The global lockout counter is the sum of the per-client ones.
        let total: u64 = CLIENTS
            .iter()
            .map(|c| u64::from(limiter.lockout_count(c)))
            .sum();
        prop_assert_eq!(limiter.total_lockouts(), total);
    }

    /// Lockout durations are monotone: each consecutive lockout of one
    /// client lasts at least as long as the previous, doubles until the
    /// cap, and the client is always admitted once the lockout expires.
    #[test]
    fn lockouts_double_monotonically_and_expire(
        base in 2u64..50,
        cap_doublings in 0u32..6,
        threshold in 1u32..6,
        rounds in 1usize..8,
    ) {
        let config = ThrottleConfig {
            burst: u32::MAX, // never throttled: isolate the lockout path
            refill_ticks: 1,
            failure_threshold: threshold,
            base_lockout_ticks: base,
            max_lockout_ticks: base << cap_doublings,
        };
        let mut limiter = RateLimiter::new(config);
        let mut now = 1u64;
        let mut durations = Vec::new();
        for k in 0..rounds {
            let until = loop {
                now += 1;
                prop_assert_eq!(limiter.check("c", now), Decision::Allowed);
                if let Some(until) = limiter.record_failure("c", now) {
                    break until;
                }
            };
            durations.push(until - now);
            prop_assert_eq!(until - now, expected_duration(&config, k as u32));
            // Locked for the whole window, admitted at the boundary.
            prop_assert_eq!(limiter.check("c", until - 1), Decision::LockedOut { until });
            prop_assert_eq!(limiter.locked_until("c", until - 1), Some(until));
            now = until;
            prop_assert_eq!(limiter.check("c", now), Decision::Allowed);
            prop_assert_eq!(limiter.locked_until("c", now), None);
        }
        prop_assert!(
            durations.windows(2).all(|w| w[0] <= w[1]),
            "durations shrank: {durations:?}"
        );
        prop_assert!(durations.iter().all(|d| *d <= config.max_lockout_ticks));
    }

    /// Snapshot + journal-tail recovery is equivalent to a strict replay
    /// of the full journal, for arbitrary operation sequences and
    /// arbitrary compaction points — and the rolling digest survives
    /// compaction unchanged.
    #[test]
    fn compaction_round_trips_for_arbitrary_histories(
        compact_every in 0u64..5,
        ops in prop::collection::vec((0u8..4, 0usize..8, 0usize..6), 1..60),
    ) {
        let dir = case_dir("compact");
        let path = dir.join("journal.jsonl");
        let mut disk = Registry::open_with(
            &path,
            RecoverOptions {
                compact_every,
                ..RecoverOptions::default()
            },
        )
        .unwrap();
        let mut mem = Registry::in_memory();
        for (op, ic_idx, readout_idx) in ops {
            let ic = format!("ic-{ic_idx}");
            let readout = format!("0101-{readout_idx}");
            // Apply the same operation to both worlds; they must agree on
            // the outcome (including rejections).
            let (a, b) = match op {
                0 => (
                    disk.register("fab", &ic, &readout, 0).map_err(|e| e.to_string()),
                    mem.register("fab", &ic, &readout, 0).map_err(|e| e.to_string()),
                ),
                1 => (
                    disk.mark_unlocked(&ic, 4, "fab").map_err(|e| e.to_string()),
                    mem.mark_unlocked(&ic, 4, "fab").map_err(|e| e.to_string()),
                ),
                2 => (
                    disk.mark_disabled(&ic, "alice").map_err(|e| e.to_string()),
                    mem.mark_disabled(&ic, "alice").map_err(|e| e.to_string()),
                ),
                // An explicit compaction point — a no-op for the twin.
                _ => (disk.compact().map_err(|e| e.to_string()), Ok(())),
            };
            prop_assert_eq!(a, b, "file-backed and in-memory worlds diverged");
        }
        let digest_before = disk.rolling_digest();
        drop(disk);

        let full = mem.journal_bytes().unwrap().to_vec();
        let replayed = Registry::replay(std::str::from_utf8(&full).unwrap()).unwrap();
        let recovered = Registry::open(&path).unwrap();
        prop_assert_eq!(recovered.records(), replayed.records());
        prop_assert_eq!(recovered.counts(), replayed.counts());
        prop_assert_eq!(recovered.clones(), replayed.clones());
        prop_assert_eq!(recovered.rolling_digest(), replayed.rolling_digest());
        prop_assert_eq!(recovered.rolling_digest(), digest_before);
        prop_assert_eq!(
            recovered.snapshot_events() + recovered.replayed_events(),
            replayed.journal_len(),
            "snapshot + tail must cover every journaled event"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The counts a registry maintains at each state change equal a
    /// fresh recount after every step of an arbitrary history of
    /// registers, duplicates, unlocks, disables and refused transitions.
    /// An append failing with `DiskFull` moves no counter; a compaction
    /// followed by a reopen (snapshot restore plus tail), a plain reopen
    /// (full tail), a strict replay, and a follower that applies the
    /// shipped journal and is then promoted all report the same counts.
    #[test]
    fn maintained_counts_equal_a_recount(
        compact_every in 0u64..5,
        ops in prop::collection::vec((0u8..6, 0u8..3, 0usize..6, 0usize..4), 1..60),
    ) {
        let dir = case_dir("counts");
        let path = dir.join("journal.jsonl");
        let injector = FaultInjector::new();
        let open = || {
            Registry::open_with(
                &path,
                RecoverOptions {
                    compact_every,
                    injector: Some(injector.clone()),
                    ..RecoverOptions::default()
                },
            )
            .unwrap()
        };
        let mut disk = open();
        // The in-memory twin takes every mutation that can succeed, so its
        // journal is the full history for the replay and the follower.
        let mut mem = Registry::in_memory();
        for (op, kind, ic_idx, readout_idx) in ops {
            let ic = format!("ic-{ic_idx}");
            let readout = format!("0101-{readout_idx}");
            let mutate = |r: &mut Registry, kind: u8| {
                match kind {
                    0 => r.register("fab", &ic, &readout, 0),
                    1 => r.mark_unlocked(&ic, 4, "fab"),
                    _ => r.mark_disabled(&ic, "alice"),
                }
                .map_err(|e| e.to_string())
            };
            match op {
                0..=2 => prop_assert_eq!(mutate(&mut disk, op), mutate(&mut mem, op)),
                3 => {
                    let before = disk.counts();
                    injector.arm(ArmedFault::DiskFull);
                    let _ = mutate(&mut disk, kind);
                    prop_assert_eq!(disk.counts(), before, "a failed append moved a counter");
                    // A refusal before the append leaves the fault armed.
                    injector.take();
                }
                4 => {
                    disk.compact().unwrap();
                    drop(disk);
                    disk = open();
                }
                _ => {
                    drop(disk);
                    disk = open();
                }
            }
            prop_assert_eq!(disk.counts(), recount(&disk));
        }
        let expected = disk.counts();
        drop(disk);
        prop_assert_eq!(open().counts(), expected);
        prop_assert_eq!(mem.counts(), expected);

        let text = String::from_utf8(mem.journal_bytes().unwrap().to_vec()).unwrap();
        let replayed = Registry::replay(&text).unwrap();
        prop_assert_eq!(replayed.counts(), recount(&replayed));
        prop_assert_eq!(replayed.counts(), expected);

        let follower = ActivationServer::new(
            designer(),
            Registry::in_memory(),
            ServerConfig {
                role: ServerRole::Follower,
                ..ServerConfig::default()
            },
        );
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let (head, tail) = lines.split_at(lines.len() / 2);
        for batch in [head, tail] {
            follower.apply_replicated(batch).unwrap();
            let (counts, fresh) = follower.with_registry(|r| (r.counts(), recount(r)));
            prop_assert_eq!(counts, fresh);
        }
        follower.promote(lines.len() as u64).unwrap();
        prop_assert_eq!(follower.with_registry(|r| r.counts()), expected);
        let status = follower.status();
        prop_assert_eq!(
            (status.registered, status.unlocked, status.disabled, status.duplicates),
            (expected.registered, expected.unlocked, expected.disabled, expected.duplicates)
        );
        let snapshot = follower.snapshot();
        let gauge = |state| snapshot.gauge("registry_ics", &[("state", state)]);
        prop_assert_eq!(
            (gauge("registered"), gauge("unlocked"), gauge("disabled")),
            (
                Some(expected.registered - expected.unlocked - expected.disabled),
                Some(expected.unlocked),
                Some(expected.disabled),
            )
        );
        prop_assert_eq!(snapshot.gauge("registry_duplicates", &[]), Some(expected.duplicates));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Returns `j` with one unknown field injected into its `trace` object
/// — the strict codec must reject the result.
fn tamper_trace_context(j: &hwm_jsonio::Json) -> hwm_jsonio::Json {
    use hwm_jsonio::Json;
    match j {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(k, v)| {
                    if k == "trace" {
                        if let Json::Obj(inner) = v {
                            let mut inner = inner.clone();
                            inner.push(("wat".into(), Json::U64(1)));
                            return (k.clone(), Json::Obj(inner));
                        }
                    }
                    (k.clone(), v.clone())
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

proptest! {
    /// The traced-request envelope round-trips for any request shape
    /// and any trace context; an untraced envelope serializes exactly
    /// like the bare request (old peers parse it unchanged); and a
    /// tampered trace context is rejected by the strict codec.
    #[test]
    fn traced_request_envelope_roundtrips_and_rejects_tampering(
        trace_id in any::<u64>(),
        parent in any::<u64>(),
        tick in any::<u64>(),
        has_trace in any::<bool>(),
        which in 0usize..4,
        client_idx in 0usize..3,
        ic_idx in 0usize..3,
    ) {
        use hwm_service::{Request, TracedRequest};
        use hwm_trace::TraceContext;

        const ICS: [&str; 3] = ["ic-0", "ic-7", "wafer9"];
        let client = CLIENTS[client_idx].to_string();
        let ic = ICS[ic_idx].to_string();
        let req = match which {
            0 => Request::Register {
                client: client.clone(),
                ic: ic.clone(),
                readout: "0101".into(),
            },
            1 => Request::Unlock { client: client.clone(), readout: "0101".into() },
            2 => Request::RemoteDisable { client: client.clone(), ic: ic.clone() },
            _ => Request::Status { client: client.clone(), ic: Some(ic.clone()) },
        };
        let trace = has_trace.then_some(TraceContext { trace_id, parent_span: parent, tick });
        let traced = TracedRequest { req, trace };
        let j = traced.to_json();
        let back = TracedRequest::from_json(&j).expect("round-trip parses");
        prop_assert_eq!(back.to_json().to_string(), j.to_string());
        prop_assert_eq!(back.trace.is_some(), has_trace);
        if has_trace {
            let tampered = tamper_trace_context(&j);
            prop_assert!(
                TracedRequest::from_json(&tampered).is_err(),
                "unknown trace field must be rejected"
            );
        } else {
            prop_assert_eq!(
                j.to_string(),
                traced.req.to_json().to_string(),
                "untraced envelope must serialize like the bare request"
            );
        }
    }
}

proptest! {
    /// A pipelined burst of frames, split at arbitrary byte boundaries,
    /// decodes through [`FrameDecoder`] to exactly the same payload
    /// sequence a whole-buffer `read_frame` loop produces — the wire
    /// contract both transports' batched read paths rely on.
    #[test]
    fn frame_stream_decodes_identically_for_any_split(
        which in prop::collection::vec(0usize..4, 1..12),
        cuts in prop::collection::vec(any::<u16>(), 0..24),
        seed in any::<u64>(),
    ) {
        use frames::{read_frame, write_frame};
        use hwm_service::wire::FrameDecoder;
        use hwm_service::Request;

        let reqs: Vec<Request> = which
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let client = CLIENTS[i % CLIENTS.len()].to_string();
                let ic = format!("die-{}", seed.wrapping_add(i as u64) % 97);
                match w {
                    0 => Request::Register { client, ic, readout: "010101".into() },
                    1 => Request::Unlock { client, readout: "101010".into() },
                    2 => Request::RemoteDisable { client, ic },
                    _ => Request::Status { client, ic: Some(ic) },
                }
            })
            .collect();
        let mut stream = Vec::new();
        for req in &reqs {
            write_frame(&mut stream, &req.to_json()).expect("encode");
        }

        // Reference: drain the whole buffer through read_frame.
        let mut whole = Vec::new();
        let mut cursor = stream.as_slice();
        while let Some(p) = read_frame(&mut cursor).expect("read_frame") {
            whole.push(p.to_string());
        }
        prop_assert_eq!(whole.len(), reqs.len());

        // Candidate: the same bytes, chopped at arbitrary boundaries.
        let mut bounds: Vec<usize> =
            cuts.iter().map(|c| *c as usize % (stream.len() + 1)).collect();
        bounds.push(0);
        bounds.push(stream.len());
        bounds.sort_unstable();
        bounds.dedup();
        let mut decoder = FrameDecoder::new();
        let mut split = Vec::new();
        for pair in bounds.windows(2) {
            decoder.extend(&stream[pair[0]..pair[1]]);
            while let Some(p) = decoder.next_frame().expect("decode") {
                split.push(p.to_string());
            }
        }
        prop_assert_eq!(decoder.pending(), 0);
        prop_assert_eq!(split, whole);
    }
}

#[path = "support/frames.rs"]
mod frames;
#[path = "support/mutate.rs"]
mod mutate;

/// A decoder under fuzz: whether it accepts a JSON value.
type Decodes = fn(&hwm_jsonio::Json) -> bool;

/// Valid request frames: every request variant with every optional
/// field set, traced wherever a trace context is allowed.
fn request_corpus() -> Vec<hwm_jsonio::Json> {
    use hwm_service::{Request, TracedRequest};
    use hwm_trace::TraceContext;

    let ctx = TraceContext::root(1, 2, "fab", "unlock");
    let client = || "fab".to_string();
    let mut corpus = Vec::new();
    for (req, traced) in [
        (
            Request::Register {
                client: client(),
                ic: "ic-0".into(),
                readout: "01".into(),
            },
            true,
        ),
        (
            Request::Unlock {
                client: client(),
                readout: "01".into(),
            },
            true,
        ),
        (
            Request::RemoteDisable {
                client: client(),
                ic: "ic-0".into(),
            },
            false,
        ),
        (
            Request::Status {
                client: client(),
                ic: Some("ic-0".into()),
            },
            true,
        ),
        (Request::Metrics { client: client() }, false),
        (
            Request::Audit {
                client: client(),
                since: Some(2),
            },
            false,
        ),
        (
            Request::History {
                client: client(),
                window: Some(8),
            },
            false,
        ),
        (
            Request::Traces {
                client: client(),
                limit: Some(4),
            },
            false,
        ),
    ] {
        let trace = traced.then_some(ctx);
        corpus.push(TracedRequest { req, trace }.to_json());
    }
    corpus
}

/// Valid encodings covering every variant and optional field of the
/// service-side decoders, each paired with its decoder.
fn decoder_corpus() -> Vec<(hwm_jsonio::Json, Decodes)> {
    use hwm_jsonio::Json;
    use hwm_metrics::{
        AuditLog, AuditValue, History, HistoryConfig, HistoryDump, MetricClass, MetricsRegistry,
        Snapshot,
    };
    use hwm_service::{
        CloneEvidence, ErrorCode, IcRecord, IcState, RegistrySnapshot, Response, StatusReport,
        TracedRequest,
    };
    use hwm_trace::SpanRecord;

    let metrics = MetricsRegistry::default();
    metrics.inc("requests", &[("op", "unlock")], 3);
    metrics.observe_exemplar("units", &[], MetricClass::Det, &[2, 8], 1, 0xabcd);
    let snapshot = metrics.snapshot();
    let mut history = History::new(HistoryConfig::default());
    history.sample_registry(4, &metrics);
    let dump = history.dump(None);
    let mut audit = AuditLog::new();
    audit.record(
        3,
        "lockout",
        &[
            ("client", AuditValue::Str("fab".into())),
            ("until", AuditValue::U64(41)),
        ],
    );
    let span = SpanRecord {
        trace_id: 7,
        span_id: 8,
        parent: 0,
        name: "request".into(),
        node: "single".into(),
        tick: 3,
        units: 1,
        attrs: vec![("outcome".into(), "ok".into())],
    };
    let client = || "fab".to_string();
    let mut corpus: Vec<(Json, Decodes)> = Vec::new();
    for request in request_corpus() {
        corpus.push((request, |j| TracedRequest::from_json(j).is_ok()));
    }
    for resp in [
        Response::Registered {
            ic: "ic-0".into(),
            total: 1,
        },
        Response::Key {
            ic: "ic-0".into(),
            key: vec![1, u64::MAX],
        },
        Response::Disabled {
            ic: "ic-0".into(),
            kill: vec![3],
        },
        Response::Status(StatusReport {
            registered: 2,
            ic_state: Some("unlocked".into()),
            ..StatusReport::default()
        }),
        Response::Metrics {
            snapshot: snapshot.clone(),
        },
        Response::Audit {
            events: audit.events().to_vec(),
            next: 1,
        },
        Response::History {
            history: dump.clone(),
        },
        Response::Traces { spans: vec![span] },
        Response::Error {
            code: ErrorCode::Throttled,
            message: "slow down".into(),
            retry_at: Some(9),
        },
    ] {
        corpus.push((resp.to_json(), |j| Response::from_json(j).is_ok()));
    }
    let registry = RegistrySnapshot {
        seq: 5,
        digest: 0xdead_beef,
        records: vec![IcRecord {
            ic: "ic-0".into(),
            client: client(),
            readout: "0101".into(),
            group: 2,
            state: IcState::Unlocked,
            seq: 1,
        }],
        clones: vec![CloneEvidence {
            seq: 3,
            ic: "ic-2".into(),
            client: client(),
            prior: "ic-0".into(),
        }],
    };
    corpus.push((Json::parse(&registry.to_json()).unwrap(), |j| {
        RegistrySnapshot::from_json(&j.to_string()).is_ok()
    }));
    corpus.push((snapshot.to_json(), |j| Snapshot::from_json(j).is_ok()));
    corpus.push((dump.to_json(), |j| HistoryDump::from_json(j).is_ok()));
    corpus
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Deterministic decoder fuzz: one mutation (duplicate, unknown,
    /// retyped or dropped field) at every field of every object of a
    /// valid encoding. No decoder panics, and no duplicated or unknown
    /// field in a fixed-schema object is accepted.
    #[test]
    fn decoders_refuse_duplicate_and_unknown_fields_without_panicking(
        sample in any::<u64>(),
        op in 0usize..4,
    ) {
        let corpus = decoder_corpus();
        let (valid, decodes) = &corpus[sample as usize % corpus.len()];
        prop_assert!(decodes(valid), "unmutated encoding must decode: {valid}");
        let m = mutate::MUTATIONS[op];
        if let Some(mutant) = mutate::first_wrongly_accepted(valid, m, decodes) {
            prop_assert!(false, "{m:?} mutant was accepted: {mutant}");
        }
    }
}

/// Fuzz on into dispatch: every one-mutation mutant of every request
/// frame is answered by a live server through [`FrameService::answer`],
/// the path both transports take. Nothing panics, and a mutant the
/// decoder refuses gets a `malformed` reply and leaves the logical clock
/// and the journal exactly as they were.
#[test]
fn mutated_request_frames_are_refused_at_dispatch_without_side_effects() {
    use hwm_service::{ErrorCode, FrameService, Response, TracedRequest};

    let server = ActivationServer::new(designer(), Registry::in_memory(), ServerConfig::default());
    let (mut refused, mut dispatched) = (0, 0);
    for valid in request_corpus() {
        for m in mutate::MUTATIONS {
            for (mutant, must_reject) in mutate::mutants(&valid, m) {
                let state = || (server.clock(), server.with_registry(|r| r.journal_len()));
                let before = state();
                let reply = Response::from_json(&server.answer(&mutant))
                    .unwrap_or_else(|e| panic!("reply to {mutant} does not decode: {e}"));
                if TracedRequest::from_json(&mutant).is_ok() {
                    assert!(!must_reject, "{m:?} mutant was accepted: {mutant}");
                    dispatched += 1;
                    continue;
                }
                refused += 1;
                assert!(
                    matches!(
                        reply,
                        Response::Error {
                            code: ErrorCode::Malformed,
                            ..
                        }
                    ),
                    "refused mutant {mutant} got {reply:?}"
                );
                assert_eq!(
                    state(),
                    before,
                    "refused mutant {mutant} changed the server"
                );
            }
        }
    }
    assert!(
        refused > 0 && dispatched > 0,
        "{refused} refused, {dispatched} dispatched"
    );
}
