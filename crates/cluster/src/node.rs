//! One cluster replica: an activation server answering replication
//! frames.

use crate::frame::RepFrame;
use hwm_service::ActivationServer;
use hwm_trace::TraceScope;
use std::sync::{Arc, Mutex, MutexGuard};

/// A shard replica — leader or follower, depending on the wrapped
/// server's [`hwm_service::ServerRole`]. The node owns the replication
/// plumbing the raw server does not have: shard addressing, the audit
/// shipping cursor, and the frame dispatch.
pub struct ShardNode {
    shard: u64,
    server: Arc<ActivationServer>,
    /// Audit events below this index have already been shipped (leader)
    /// or mirrored (follower). Kept exact across promotion so a new
    /// leader never re-ships events its followers already hold.
    audit_cursor: Mutex<u64>,
}

impl ShardNode {
    /// Wraps a server as shard `shard`'s replica.
    pub fn new(shard: u64, server: Arc<ActivationServer>) -> ShardNode {
        ShardNode {
            shard,
            server,
            audit_cursor: Mutex::new(0),
        }
    }

    /// The shard this replica belongs to.
    pub fn shard(&self) -> u64 {
        self.shard
    }

    /// The wrapped server (registry digests, audit bytes, metrics — the
    /// simulation's oracle comparisons read through this).
    pub fn server(&self) -> &Arc<ActivationServer> {
        &self.server
    }

    fn cursor(&self) -> MutexGuard<'_, u64> {
        // Poisoned only if another thread panicked while holding it. The
        // guarded sections only move an integer cursor, so no frame bytes
        // can make this fire.
        self.audit_cursor.lock().expect("audit cursor poisoned")
    }

    /// Handles one replication frame. A frame addressed to a different
    /// shard is refused with [`RepFrame::Error`] before anything is
    /// applied — misrouted replication traffic must never mutate state.
    pub fn handle_rep(&self, frame: &RepFrame) -> RepFrame {
        match frame.shard() {
            Some(shard) if shard == self.shard => {}
            Some(shard) => {
                return RepFrame::Error {
                    message: format!(
                        "frame for shard {shard} reached shard {}: refused",
                        self.shard
                    ),
                }
            }
            None => {
                return RepFrame::Error {
                    message: "error frames are not requests".into(),
                }
            }
        }
        match frame {
            RepFrame::Forward {
                tick, req, trace, ..
            } => {
                let resp = self.server.handle_at_traced(req, Some(*tick), trace.as_ref());
                let entries = self.server.drain_replication();
                // Spans the leader recorded for this forwarded request
                // ride home in the reply so the router can graft them
                // into the request's tree.
                let spans = if trace.is_some() {
                    self.server.drain_trace_outbox()
                } else {
                    Vec::new()
                };
                let mut cursor = self.cursor();
                let (audit, next) = self.server.audit_events_since(*cursor);
                *cursor = next;
                RepFrame::Reply {
                    shard: self.shard,
                    resp,
                    seq: self.server.with_registry(|r| r.journal_len()),
                    entries,
                    audit,
                    spans,
                }
            }
            RepFrame::Append {
                entries,
                audit,
                trace,
                ..
            } => {
                match self.server.apply_replicated(entries) {
                    Ok(seq) => {
                        self.server.apply_replicated_audit(audit);
                        let mut cursor = self.cursor();
                        *cursor += audit.len() as u64;
                        // A traced append answers with a
                        // `replicate/apply` span under the router's
                        // per-follower ship span.
                        let spans = match trace {
                            Some(ctx) => {
                                let mut scope =
                                    TraceScope::new(ctx.trace_id, &self.server.node_name());
                                scope
                                    .span(ctx.parent_span, "replicate/apply", ctx.tick)
                                    .units = entries.len() as u64;
                                let spans = scope.into_spans();
                                self.server.record_spans(&spans);
                                spans
                            }
                            None => Vec::new(),
                        };
                        RepFrame::Ack {
                            shard: self.shard,
                            seq,
                            spans,
                        }
                    }
                    Err(e) => RepFrame::Error { message: e.message },
                }
            }
            RepFrame::Promote { clock, .. } => match self.server.promote(*clock) {
                Ok(()) => RepFrame::Ack {
                    shard: self.shard,
                    seq: self.server.with_registry(|r| r.journal_len()),
                    spans: Vec::new(),
                },
                Err(e) => RepFrame::Error { message: e.message },
            },
            RepFrame::Checkpoint { .. } => RepFrame::Ack {
                shard: self.shard,
                seq: self.server.with_registry(|r| r.journal_len()),
                spans: Vec::new(),
            },
            RepFrame::Reply { .. } | RepFrame::Ack { .. } => RepFrame::Error {
                message: "reply frames are not requests".into(),
            },
            RepFrame::Error { .. } => unreachable!("filtered by the shard check"),
        }
    }
}
