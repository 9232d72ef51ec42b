//! The replication frame protocol.
//!
//! Replication traffic rides the same 4-byte length-prefixed JSON
//! framing as the client protocol ([`hwm_service::wire::encode_frame`] /
//! [`hwm_service::wire::FrameDecoder`]); only the payload schema differs. Like
//! the client codec, parsing is **strict** — unknown, missing,
//! ill-typed and duplicated fields are refused by the same
//! [`StrictObj`] reader — and every frame except
//! [`RepFrame::Error`] names the shard it is for, so a frame that
//! reaches the wrong replica is rejected instead of silently applied
//! (see [`crate::ShardNode::handle_rep`]).

use crate::ClusterError;
use hwm_jsonio::{Json, StrictObj};
use hwm_metrics::AuditEvent;
use hwm_service::{Request, Response};
use hwm_trace::{SpanRecord, TraceContext};

/// One replication-protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum RepFrame {
    /// Router -> leader: handle `req` at global logical tick `tick`.
    Forward {
        /// Target shard.
        shard: u64,
        /// Global logical tick assigned by the router.
        tick: u64,
        /// The client request, verbatim.
        req: Request,
        /// Trace context when the routed request is traced (`None` keeps
        /// the pre-tracing frame bytes, so old frames still parse).
        trace: Option<TraceContext>,
    },
    /// Leader -> router: the response plus everything that must ship to
    /// followers before the next request dispatches.
    Reply {
        /// Answering shard.
        shard: u64,
        /// The response to relay to the client.
        resp: Response,
        /// The leader's journal length after handling — the watermark
        /// followers are measured against.
        seq: u64,
        /// Journal lines appended while handling (no trailing newlines).
        entries: Vec<String>,
        /// Audit events recorded while handling.
        audit: Vec<AuditEvent>,
        /// Spans the leader recorded while handling a traced request
        /// (empty — and omitted on the wire — when untraced).
        spans: Vec<SpanRecord>,
    },
    /// Router -> follower: apply shipped journal entries + audit events.
    Append {
        /// Target shard.
        shard: u64,
        /// Journal lines to re-apply, in order.
        entries: Vec<String>,
        /// Audit events to mirror, in order.
        audit: Vec<AuditEvent>,
        /// Trace context when the originating request is traced; the
        /// follower answers with a `replicate/apply` span.
        trace: Option<TraceContext>,
    },
    /// Router -> follower: become the shard leader at logical `clock`.
    Promote {
        /// Target shard.
        shard: u64,
        /// The global clock at promotion time.
        clock: u64,
        /// Trace context when the failover runs under a traced request.
        trace: Option<TraceContext>,
    },
    /// Router -> replica: report your replicated-seq watermark.
    Checkpoint {
        /// Target shard.
        shard: u64,
        /// Trace context when the checkpoint runs under a traced request.
        trace: Option<TraceContext>,
    },
    /// Replica -> router: acknowledgement carrying the journal length.
    Ack {
        /// Answering shard.
        shard: u64,
        /// Journal length after the acknowledged operation.
        seq: u64,
        /// Spans the replica recorded while applying (e.g.
        /// `replicate/apply`); empty — and omitted on the wire — when
        /// the operation is untraced.
        spans: Vec<SpanRecord>,
    },
    /// Any party: the frame was refused.
    Error {
        /// Human-readable refusal.
        message: String,
    },
}

impl RepFrame {
    /// The shard a frame addresses, when it addresses one
    /// ([`RepFrame::Error`] does not).
    pub fn shard(&self) -> Option<u64> {
        match self {
            RepFrame::Forward { shard, .. }
            | RepFrame::Reply { shard, .. }
            | RepFrame::Append { shard, .. }
            | RepFrame::Promote { shard, .. }
            | RepFrame::Checkpoint { shard, .. }
            | RepFrame::Ack { shard, .. } => Some(*shard),
            RepFrame::Error { .. } => None,
        }
    }

    /// Serializes the frame to a JSON value. Trace contexts and span
    /// batches are emitted only when present, so untraced frames render
    /// exactly the pre-tracing bytes.
    pub fn to_json(&self) -> Json {
        let audit_arr = |events: &[AuditEvent]| Json::Arr(events.iter().map(|e| e.to_json()).collect());
        let entry_arr =
            |entries: &[String]| Json::Arr(entries.iter().map(|e| Json::Str(e.clone())).collect());
        let push_trace = |fields: &mut Vec<(String, Json)>, trace: &Option<TraceContext>| {
            if let Some(t) = trace {
                fields.push(("trace".to_string(), t.to_json()));
            }
        };
        let push_spans = |fields: &mut Vec<(String, Json)>, spans: &[SpanRecord]| {
            if !spans.is_empty() {
                fields.push((
                    "spans".to_string(),
                    Json::Arr(spans.iter().map(|s| s.to_json()).collect()),
                ));
            }
        };
        match self {
            RepFrame::Forward {
                shard,
                tick,
                req,
                trace,
            } => {
                let mut j = Json::obj(vec![
                    ("type", Json::Str("forward".into())),
                    ("shard", Json::U64(*shard)),
                    ("tick", Json::U64(*tick)),
                    ("req", req.to_json()),
                ]);
                if let Json::Obj(fields) = &mut j {
                    push_trace(fields, trace);
                }
                j
            }
            RepFrame::Reply {
                shard,
                resp,
                seq,
                entries,
                audit,
                spans,
            } => {
                let mut j = Json::obj(vec![
                    ("type", Json::Str("reply".into())),
                    ("shard", Json::U64(*shard)),
                    ("resp", resp.to_json()),
                    ("seq", Json::U64(*seq)),
                    ("entries", entry_arr(entries)),
                    ("audit", audit_arr(audit)),
                ]);
                if let Json::Obj(fields) = &mut j {
                    push_spans(fields, spans);
                }
                j
            }
            RepFrame::Append {
                shard,
                entries,
                audit,
                trace,
            } => {
                let mut j = Json::obj(vec![
                    ("type", Json::Str("append".into())),
                    ("shard", Json::U64(*shard)),
                    ("entries", entry_arr(entries)),
                    ("audit", audit_arr(audit)),
                ]);
                if let Json::Obj(fields) = &mut j {
                    push_trace(fields, trace);
                }
                j
            }
            RepFrame::Promote {
                shard,
                clock,
                trace,
            } => {
                let mut j = Json::obj(vec![
                    ("type", Json::Str("promote".into())),
                    ("shard", Json::U64(*shard)),
                    ("clock", Json::U64(*clock)),
                ]);
                if let Json::Obj(fields) = &mut j {
                    push_trace(fields, trace);
                }
                j
            }
            RepFrame::Checkpoint { shard, trace } => {
                let mut j = Json::obj(vec![
                    ("type", Json::Str("checkpoint".into())),
                    ("shard", Json::U64(*shard)),
                ]);
                if let Json::Obj(fields) = &mut j {
                    push_trace(fields, trace);
                }
                j
            }
            RepFrame::Ack { shard, seq, spans } => {
                let mut j = Json::obj(vec![
                    ("type", Json::Str("ack".into())),
                    ("shard", Json::U64(*shard)),
                    ("seq", Json::U64(*seq)),
                ]);
                if let Json::Obj(fields) = &mut j {
                    push_spans(fields, spans);
                }
                j
            }
            RepFrame::Error { message } => Json::obj(vec![
                ("type", Json::Str("error".into())),
                ("message", Json::Str(message.clone())),
            ]),
        }
    }

    /// Parses a frame, rejecting unknown, missing, ill-typed and
    /// duplicated fields.
    ///
    /// # Errors
    ///
    /// Returns a [`ClusterError`] naming the offending field.
    pub fn from_json(j: &Json) -> Result<RepFrame, ClusterError> {
        let mut f = StrictObj::new(j, "replication frame")?;
        let kind = f.string("type")?;
        let frame = match kind.as_str() {
            "forward" => RepFrame::Forward {
                shard: f.uint("shard")?,
                tick: f.uint("tick")?,
                req: Request::from_json(f.field("req")?)?,
                trace: trace_field(&mut f)?,
            },
            "reply" => RepFrame::Reply {
                shard: f.uint("shard")?,
                resp: Response::from_json(f.field("resp")?)?,
                seq: f.uint("seq")?,
                entries: entries_field(&mut f)?,
                audit: audit_field(&mut f)?,
                spans: spans_field(&mut f)?,
            },
            "append" => RepFrame::Append {
                shard: f.uint("shard")?,
                entries: entries_field(&mut f)?,
                audit: audit_field(&mut f)?,
                trace: trace_field(&mut f)?,
            },
            "promote" => RepFrame::Promote {
                shard: f.uint("shard")?,
                clock: f.uint("clock")?,
                trace: trace_field(&mut f)?,
            },
            "checkpoint" => RepFrame::Checkpoint {
                shard: f.uint("shard")?,
                trace: trace_field(&mut f)?,
            },
            "ack" => RepFrame::Ack {
                shard: f.uint("shard")?,
                seq: f.uint("seq")?,
                spans: spans_field(&mut f)?,
            },
            "error" => RepFrame::Error {
                message: f.string("message")?,
            },
            other => {
                return Err(ClusterError::new(format!(
                    "unknown replication frame type {other:?}"
                )))
            }
        };
        f.finish()?;
        Ok(frame)
    }
}

/// The `"entries"` journal lines.
fn entries_field(f: &mut StrictObj<'_>) -> Result<Vec<String>, ClusterError> {
    let entries = f.arr("entries")?;
    entries
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| f.ill_typed("entries", "an array of strings"))
        })
        .collect()
}

/// The optional `"trace"` context: absent means untraced (old frames
/// parse), present is parsed strictly (tampered contexts are refused).
fn trace_field(f: &mut StrictObj<'_>) -> Result<Option<TraceContext>, ClusterError> {
    f.opt("trace")?.map(TraceContext::from_json).transpose()
}

/// The optional `"spans"` batch: absent means empty, present is parsed
/// strictly per span.
fn spans_field(f: &mut StrictObj<'_>) -> Result<Vec<SpanRecord>, ClusterError> {
    let Some(spans) = f.opt("spans")? else {
        return Ok(Vec::new());
    };
    spans
        .as_arr()
        .ok_or_else(|| f.ill_typed("spans", "an array"))?
        .iter()
        .map(SpanRecord::from_json)
        .collect()
}

/// The `"audit"` event batch.
fn audit_field(f: &mut StrictObj<'_>) -> Result<Vec<AuditEvent>, ClusterError> {
    f.arr("audit")?
        .iter()
        .map(AuditEvent::from_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: &RepFrame) {
        let back = RepFrame::from_json(&frame.to_json()).expect("frame parses");
        assert_eq!(&back, frame);
    }

    #[test]
    fn frames_round_trip() {
        round_trip(&RepFrame::Forward {
            shard: 2,
            tick: 17,
            req: Request::Status {
                client: "c".into(),
                ic: None,
            },
            trace: None,
        });
        round_trip(&RepFrame::Append {
            shard: 0,
            entries: vec!["{\"event\":\"register\"}".into()],
            audit: Vec::new(),
            trace: None,
        });
        round_trip(&RepFrame::Promote {
            shard: 1,
            clock: 9,
            trace: None,
        });
        round_trip(&RepFrame::Checkpoint {
            shard: 1,
            trace: None,
        });
        round_trip(&RepFrame::Ack {
            shard: 1,
            seq: 40,
            spans: Vec::new(),
        });
        round_trip(&RepFrame::Error {
            message: "nope".into(),
        });
    }

    fn sample_ctx() -> TraceContext {
        TraceContext::root(7, 3, "fab", "register").child(99)
    }

    fn sample_span() -> SpanRecord {
        SpanRecord {
            trace_id: 0xdead_beef,
            span_id: 41,
            parent: 99,
            name: "replicate/apply".into(),
            node: "shard0/f1".into(),
            tick: 3,
            units: 2,
            attrs: vec![("outcome".into(), "applied".into())],
        }
    }

    #[test]
    fn traced_frames_round_trip_and_untraced_bytes_are_unchanged() {
        round_trip(&RepFrame::Forward {
            shard: 2,
            tick: 17,
            req: Request::Status {
                client: "c".into(),
                ic: None,
            },
            trace: Some(sample_ctx()),
        });
        round_trip(&RepFrame::Append {
            shard: 0,
            entries: vec!["{\"event\":\"register\"}".into()],
            audit: Vec::new(),
            trace: Some(sample_ctx()),
        });
        round_trip(&RepFrame::Promote {
            shard: 1,
            clock: 9,
            trace: Some(sample_ctx()),
        });
        round_trip(&RepFrame::Checkpoint {
            shard: 1,
            trace: Some(sample_ctx()),
        });
        round_trip(&RepFrame::Reply {
            shard: 1,
            resp: Response::Error {
                code: hwm_service::ErrorCode::NotLeader,
                message: "m".into(),
                retry_at: None,
            },
            seq: 4,
            entries: Vec::new(),
            audit: Vec::new(),
            spans: vec![sample_span()],
        });
        round_trip(&RepFrame::Ack {
            shard: 1,
            seq: 40,
            spans: vec![sample_span()],
        });
        // An untraced frame must serialize without any trace/spans field
        // at all — byte-compatible with the pre-tracing protocol.
        let j = RepFrame::Checkpoint {
            shard: 1,
            trace: None,
        }
        .to_json()
        .to_string();
        assert!(!j.contains("trace"), "{j}");
        let j = RepFrame::Ack {
            shard: 1,
            seq: 40,
            spans: Vec::new(),
        }
        .to_json()
        .to_string();
        assert!(!j.contains("spans"), "{j}");
    }

    #[test]
    fn tampered_trace_fields_are_rejected() {
        // Unknown field inside the trace context.
        let j = Json::obj(vec![
            ("type", Json::Str("checkpoint".into())),
            ("shard", Json::U64(0)),
            (
                "trace",
                Json::obj(vec![
                    ("trace_id", Json::U64(1)),
                    ("parent_span", Json::U64(2)),
                    ("tick", Json::U64(3)),
                    ("extra", Json::U64(4)),
                ]),
            ),
        ]);
        RepFrame::from_json(&j).expect_err("unknown trace field refused");
        // Wrong-type trace context.
        let j = Json::obj(vec![
            ("type", Json::Str("checkpoint".into())),
            ("shard", Json::U64(0)),
            ("trace", Json::U64(7)),
        ]);
        RepFrame::from_json(&j).expect_err("non-object trace refused");
        // Span batch holding a non-span.
        let j = Json::obj(vec![
            ("type", Json::Str("ack".into())),
            ("shard", Json::U64(0)),
            ("seq", Json::U64(1)),
            ("spans", Json::Arr(vec![Json::U64(9)])),
        ]);
        RepFrame::from_json(&j).expect_err("non-span entry refused");
    }

    #[test]
    fn unknown_fields_are_rejected() {
        for (extra, needle) in [("extra", "unknown field"), ("shard", "duplicate field \"shard\"")] {
            let j = Json::obj(vec![
                ("type", Json::Str("checkpoint".into())),
                ("shard", Json::U64(0)),
                (extra, Json::U64(1)),
            ]);
            let err = RepFrame::from_json(&j).expect_err("unknown field refused");
            assert!(err.message.contains(needle), "{}", err.message);
        }
    }

    #[test]
    fn unknown_types_are_rejected() {
        let j = Json::obj(vec![("type", Json::Str("gossip".into()))]);
        let err = RepFrame::from_json(&j).expect_err("unknown type refused");
        assert!(err.message.contains("unknown replication frame type"));
    }

    /// Returns `j` with one unknown field injected into its `trace`
    /// object — the strict codec must reject the result.
    fn tamper_trace(j: &Json) -> Json {
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

    use proptest::prelude::*;

    proptest! {
        /// Any trace context round-trips through any carrying frame
        /// variant, and any tampered context is rejected — for the full
        /// u64 space of ids, parents and ticks.
        #[test]
        fn trace_contexts_round_trip_in_every_frame(
            trace_id in any::<u64>(),
            parent in any::<u64>(),
            tick in any::<u64>(),
            shard in 0u64..8,
            clock in any::<u64>(),
            which in 0usize..4,
        ) {
            let ctx = TraceContext { trace_id, parent_span: parent, tick };
            let frame = match which {
                0 => RepFrame::Forward {
                    shard,
                    tick,
                    req: Request::Status { client: "c".into(), ic: None },
                    trace: Some(ctx),
                },
                1 => RepFrame::Append {
                    shard,
                    entries: Vec::new(),
                    audit: Vec::new(),
                    trace: Some(ctx),
                },
                2 => RepFrame::Promote { shard, clock, trace: Some(ctx) },
                _ => RepFrame::Checkpoint { shard, trace: Some(ctx) },
            };
            let j = frame.to_json();
            let back = RepFrame::from_json(&j).expect("traced frame parses");
            prop_assert_eq!(&back, &frame);
            prop_assert!(
                RepFrame::from_json(&tamper_trace(&j)).is_err(),
                "unknown trace field must be rejected"
            );
        }
    }
}
