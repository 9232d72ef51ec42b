//! Deterministic fuzz of the replication frame decoder: one mutation
//! (duplicate, unknown, retyped or dropped field) at every field of every
//! object of a valid frame, nested requests, responses, spans and audit
//! events included. [`RepFrame::from_json`] never panics, and no
//! duplicated or unknown field in a fixed-schema object is accepted.

use hwm_cluster::RepFrame;
use hwm_jsonio::Json;
use hwm_metrics::{AuditLog, AuditValue};
use hwm_service::{Request, Response};
use hwm_trace::{SpanRecord, TraceContext};
use proptest::prelude::*;

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
