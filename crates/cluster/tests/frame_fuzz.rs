//! Deterministic fuzz of the replication frame decoder: one mutation
//! (duplicate, unknown, retyped or dropped field) at every field of every
//! object of a valid frame, nested requests, responses, spans and audit
//! events included. [`RepFrame::from_json`] never panics, and no
//! duplicated or unknown field in a fixed-schema object is accepted.
//! Every mutant is also sent on into a live replica's dispatch.

use hwm_cluster::{RepFrame, ShardNode};
use hwm_jsonio::Json;
use hwm_metering::{Designer, LockOptions};
use hwm_metrics::{AuditLog, AuditValue};
use hwm_service::{ActivationServer, FrameService, Registry, Request, Response, ServerConfig};
use hwm_trace::{SpanRecord, TraceContext};
use proptest::prelude::*;
use std::sync::Arc;

#[path = "../../service/tests/support/mutate.rs"]
mod mutate;

/// Valid encodings of every frame type, with every optional field set.
fn frames() -> Vec<Json> {
    let mut log = AuditLog::new();
    log.record(3, "lockout", &[("client", AuditValue::Str("fab".into()))]);
    let audit = log.events().to_vec();
    let trace = Some(TraceContext::root(1, 2, "fab", "unlock"));
    let spans = vec![SpanRecord {
        trace_id: 7,
        span_id: 8,
        parent: 0,
        name: "replicate/apply".into(),
        node: "shard0/f1".into(),
        tick: 3,
        units: 1,
        attrs: vec![("outcome".into(), "applied".into())],
    }];
    [
        RepFrame::Forward {
            shard: 1,
            tick: 9,
            req: Request::Status {
                client: "fab".into(),
                ic: Some("ic-0".into()),
            },
            trace,
        },
        RepFrame::Reply {
            shard: 1,
            resp: Response::Key {
                ic: "ic-0".into(),
                key: vec![1, 2],
            },
            seq: 4,
            entries: vec!["{\"event\":\"unlock\"}".into()],
            audit: audit.clone(),
            spans: spans.clone(),
        },
        RepFrame::Append {
            shard: 0,
            entries: vec!["{\"event\":\"register\"}".into()],
            audit: audit.clone(),
            trace,
        },
        RepFrame::Snapshot {
            shard: 0,
            snapshot: "{}".into(),
            audit,
            trace,
        },
        RepFrame::Promote {
            shard: 2,
            clock: 40,
            trace,
        },
        RepFrame::Checkpoint { shard: 2, trace },
        RepFrame::Ack {
            shard: 2,
            seq: 40,
            spans,
        },
        RepFrame::Error {
            message: "nope".into(),
        },
    ]
    .iter()
    .map(RepFrame::to_json)
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rep_frames_refuse_duplicate_and_unknown_fields_without_panicking(
        sample in any::<u64>(),
        op in 0usize..4,
    ) {
        let frames = frames();
        let valid = &frames[sample as usize % frames.len()];
        prop_assert!(RepFrame::from_json(valid).is_ok(), "unmutated frame must decode: {valid}");
        let m = mutate::MUTATIONS[op];
        let accepted = mutate::first_wrongly_accepted(valid, m, |j| RepFrame::from_json(j).is_ok());
        if let Some(mutant) = accepted {
            prop_assert!(false, "{m:?} mutant was accepted: {mutant}");
        }
    }
}

/// Fuzz on into dispatch: every one-mutation mutant of every frame is
/// answered by a live replica through [`FrameService::answer`], the path
/// both link transports take. Nothing panics, and a mutant the decoder
/// refuses gets a [`RepFrame::Error`] back and leaves the replica's
/// logical clock and journal exactly as they were.
#[test]
fn mutated_frames_are_refused_at_dispatch_without_side_effects() {
    let designer = Designer::new(
        hwm_fsm::Stg::ring_counter(5, 2),
        LockOptions {
            added_modules: 2,
            black_holes: 1,
            ..LockOptions::default()
        },
        2024,
    )
    .expect("designer");
    let server = ActivationServer::new(designer, Registry::in_memory(), ServerConfig::default());
    let node = ShardNode::new(0, Arc::new(server));
    let state = || {
        let server = node.server();
        (server.clock(), server.with_registry(|r| r.journal_len()))
    };
    let (mut refused, mut dispatched) = (0, 0);
    for valid in frames() {
        for m in mutate::MUTATIONS {
            for (mutant, must_reject) in mutate::mutants(&valid, m) {
                let before = state();
                let reply = RepFrame::from_json(&node.answer(&mutant))
                    .unwrap_or_else(|e| panic!("reply to {mutant} does not decode: {e}"));
                if RepFrame::from_json(&mutant).is_ok() {
                    assert!(!must_reject, "{m:?} mutant was accepted: {mutant}");
                    dispatched += 1;
                    continue;
                }
                refused += 1;
                assert!(
                    matches!(reply, RepFrame::Error { .. }),
                    "refused mutant {mutant} got {reply:?}"
                );
                assert_eq!(
                    state(),
                    before,
                    "refused mutant {mutant} changed the replica"
                );
            }
        }
    }
    assert!(
        refused > 0 && dispatched > 0,
        "{refused} refused, {dispatched} dispatched"
    );
}
