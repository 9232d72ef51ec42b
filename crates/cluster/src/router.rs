//! The cluster router: one front end over N replicated shards.
//!
//! The router speaks the *client* wire protocol unchanged (it
//! implements [`hwm_service::Handler`], so both existing transports
//! front it) and owns everything a single node cannot decide alone:
//!
//! * **The global logical clock.** Every non-admin request gets the
//!   next tick and is forwarded with it ([`RepFrame::Forward`]), so
//!   shard-local admission decisions, journal lines and audit events
//!   land at exactly the tick a single-node server would have used.
//! * **Routing.** Register/Unlock route by *readout* on the consistent
//!   ring — colocating a readout's whole history on one shard is what
//!   keeps passive-metering clone detection (duplicate readouts) exact.
//!   Disable/Status route by the IC-to-shard assignment learned from
//!   shipped register entries, falling back to the ring.
//! * **Replication.** The leader's reply carries the journal entries
//!   and audit events the request produced; the router ships them to
//!   every follower synchronously ([`RepFrame::Append`]), one follower
//!   at a time in index order, and tracks acks as a replicated-seq
//!   watermark before the next dispatch. The router's lock already
//!   serializes every request, so the loop runs on the calling thread
//!   and the router owns its links outright.
//! * **Fleet counters.** The router maintains the oracle-equivalent
//!   det-class counters itself (requests by op/outcome, audit kinds,
//!   journal events, lifecycle gauges) — a dead leader takes nothing
//!   with it, because the authoritative aggregates never lived on a
//!   shard. It names and publishes them through the single-node
//!   server's own vocabulary, not a copy of it: [`Request::op`],
//!   [`Response::outcome`], [`publish_state_gauges`] over its own
//!   [`RegistryCounts`] and [`StatusReport::new`] for `Status` replies.
//! * **Tracing.** A traced request's root context comes from
//!   [`Request::trace_context`] and its `request` span's attributes from
//!   [`Request::root_span_attrs`], exactly as on a single server; every
//!   router span is made by one [`TraceScope`] per request, which the
//!   failover, dispatch and replication steps record into.
//! * **Failover.** On a plan-scheduled crash tick the doomed shard's
//!   leader link is dropped *before* dispatch, follower watermarks are
//!   checkpointed, the most-caught-up follower (ties: lowest index) is
//!   promoted, and the request re-dispatches to the new leader at the
//!   same tick.

use crate::frame::RepFrame;
use crate::link::NodeLink;
use crate::ring::HashRing;
use crate::ClusterError;
use hwm_metrics::{AuditEvent, AuditLog, HistoryDump, MetricClass, MetricsRegistry, Snapshot};
use hwm_service::{
    publish_state_gauges, ErrorCode, FaultPlan, Handler, IcState, RegistryCounts, Request,
    Response, StatusReport, REQUEST_UNITS_BOUNDS,
};
use hwm_trace::{spans_to_jsonl, TraceContext, TraceRing, TraceScope};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One shard's replica set, as links.
///
/// The leader's server must already have replication capture armed
/// ([`hwm_service::ActivationServer::enable_replication`]) — the router
/// only sees links and cannot arm it.
pub struct ShardGroup {
    /// Link to the shard leader.
    pub leader: Box<dyn NodeLink>,
    /// Links to the followers, promotion candidates in index order.
    pub followers: Vec<Box<dyn NodeLink>>,
}

/// One failover, as the router's timeline records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverEvent {
    /// Global tick of the doomed request (the crash fires pre-dispatch).
    pub tick: u64,
    /// The shard whose leader died.
    pub shard: usize,
    /// Index of the promoted follower within the shard's follower list.
    pub promoted: usize,
    /// The promoted follower's replicated-seq watermark.
    pub watermark: u64,
}

struct ShardState {
    leader: Option<Box<dyn NodeLink>>,
    followers: Vec<Box<dyn NodeLink>>,
    /// Leader journal length after its last reply.
    leader_seq: u64,
    /// Per-follower acknowledged journal length, index-aligned.
    acks: Vec<u64>,
    /// Requests routed here (the routing-distribution report).
    requests: u64,
    /// Journal entries produced but not yet shipped (windowed mode);
    /// drained before any failover, metrics read, or explicit sync.
    pending_entries: Vec<String>,
    /// Audit events riding with the pending entries.
    pending_audit: Vec<AuditEvent>,
    /// Requests whose output sits in the pending queue.
    pending_batches: u32,
}

/// Where one traced request's router spans go: the scope recording
/// them, and the span the next attempt hangs under (the root, or the
/// `retry` marker after a failover).
struct RequestTrace {
    ctx: TraceContext,
    parent: u64,
    scope: TraceScope,
}

impl RequestTrace {
    /// Records a `name` span for `shard` under the current parent at
    /// `tick`, and returns the context that carries it to the shard's
    /// nodes together with the scope the callee records into.
    fn step(&mut self, name: &str, tick: u64, shard: usize) -> (TraceContext, &mut TraceScope) {
        let span = self.scope.span(self.parent, name, tick);
        span.attrs = vec![("shard".into(), shard.to_string())];
        let ctx = TraceContext {
            tick,
            ..self.ctx.child(span.span_id)
        };
        (ctx, &mut self.scope)
    }
}

/// A traced call's place in its request's tree: the context its frames
/// carry (parented on the router span that made the call) and the scope
/// recording the router's spans. `None` when the request is untraced.
type Traced<'a> = Option<(TraceContext, &'a mut TraceScope)>;

struct RouterInner {
    ring: HashRing,
    shards: Vec<ShardState>,
    clock: u64,
    /// Each registered die's shard and lifecycle state, as the router
    /// last saw them.
    ics: HashMap<String, (usize, IcState)>,
    /// Merged audit stream, seqs renumbered densely on ingest; ticks
    /// already increase monotonically because the router serializes.
    audit: AuditLog,
    /// The router's own copy of the fleet aggregates a single-node
    /// registry would hold. Updated from responses and shipped audit
    /// events, never read back from a shard — so a leader crash cannot
    /// lose them. `unlocked` and `disabled` count *current states* (a
    /// disabled die leaves `unlocked`); `registered` counts records,
    /// which never leave the registry.
    counts: RegistryCounts,
    /// Client lockouts, counted from the merged audit stream.
    lockouts: u64,
    plan: Option<FaultPlan>,
    timeline: Vec<FailoverEvent>,
    /// Replication window: how many requests' journal entries may
    /// coalesce into one follower shipment. 1 = ship per request.
    rep_window: u32,
    /// Distributed-tracing seed; `None` leaves tracing off (the
    /// default), keeping untraced runs byte-identical to pre-tracing
    /// builds.
    trace_seed: Option<u64>,
    /// The router's span ring: one assembled tree per traced request,
    /// served by the `Traces` admin request and dumped by
    /// `--traces-out`.
    traces: TraceRing,
}

/// The cluster front end. See the module docs for the contract.
pub struct ClusterRouter {
    inner: Mutex<RouterInner>,
    metrics: Arc<MetricsRegistry>,
}

impl ClusterRouter {
    /// Builds a router over `groups` (index = shard id) with `vnodes`
    /// virtual nodes per shard on the ring, optionally armed with a
    /// leader-crash schedule (`plan` ticks index the global clock).
    pub fn new(groups: Vec<ShardGroup>, vnodes: usize, plan: Option<FaultPlan>) -> ClusterRouter {
        let shards = groups
            .into_iter()
            .map(|g| {
                let acks = vec![0; g.followers.len()];
                ShardState {
                    leader: Some(g.leader),
                    followers: g.followers,
                    leader_seq: 0,
                    acks,
                    requests: 0,
                    pending_entries: Vec::new(),
                    pending_audit: Vec::new(),
                    pending_batches: 0,
                }
            })
            .collect::<Vec<_>>();
        ClusterRouter {
            inner: Mutex::new(RouterInner {
                ring: HashRing::new(shards.len(), vnodes),
                shards,
                clock: 0,
                ics: HashMap::new(),
                audit: AuditLog::new(),
                counts: RegistryCounts::default(),
                lockouts: 0,
                plan,
                timeline: Vec::new(),
                rep_window: 1,
                trace_seed: None,
                traces: TraceRing::default(),
            }),
            metrics: Arc::new(MetricsRegistry::default()),
        }
    }

    /// Arms (or disarms) distributed tracing: with `Some(seed)` the
    /// router derives a root trace context for every routed request and
    /// assembles one span tree per request across all participating
    /// nodes.
    pub fn set_trace_seed(&self, seed: Option<u64>) {
        self.lock().trace_seed = seed;
    }

    /// The router's span ring as JSONL — what `--traces-out` writes.
    pub fn trace_dump(&self) -> String {
        spans_to_jsonl(&self.lock().traces.records(None))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RouterInner> {
        // Poisoned only if another thread panicked while holding the
        // lock, which no request bytes can cause: decode and link errors
        // come back as values, never as panics under the lock.
        self.inner.lock().expect("router state poisoned")
    }

    /// The router's live metrics registry (fleet aggregates plus the
    /// `cluster_*` families).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Sets the replication window: how many requests' journal entries
    /// may coalesce into one follower shipment (clamped to at least 1,
    /// the ship-per-request default). Any queued shipment drains first,
    /// so a mid-run change can never reorder entries.
    ///
    /// # Errors
    ///
    /// [`ClusterError`] if draining the queue fails.
    pub fn set_rep_window(&self, window: u32) -> Result<(), ClusterError> {
        let mut inner = self.lock();
        Self::drain_all(&mut inner)?;
        inner.rep_window = window.max(1);
        Ok(())
    }

    /// Ships every queued replication batch and blocks until all
    /// followers ack — the end-of-run barrier callers must cross before
    /// comparing follower state against the leader under a replication
    /// window wider than 1.
    ///
    /// # Errors
    ///
    /// [`ClusterError`] if any follower refuses its batch.
    pub fn sync_replication(&self) -> Result<(), ClusterError> {
        Self::drain_all(&mut self.lock())
    }

    /// A snapshot with the fleet gauges refreshed — what the `Metrics`
    /// wire request returns. Queued shipments drain first so the
    /// replication-lag gauges report the same bytes a window-1 run
    /// would (a drain failure is left for the next dispatch to surface).
    pub fn snapshot(&self) -> Snapshot {
        let mut inner = self.lock();
        let _ = Self::drain_all(&mut inner);
        self.refresh_gauges(&inner);
        self.metrics.snapshot()
    }

    /// The merged audit stream as JSONL — byte-comparable against a
    /// single-node oracle's `audit.jsonl`.
    pub fn audit_jsonl(&self) -> String {
        self.lock().audit.to_jsonl()
    }

    /// Global ticks elapsed (= non-admin requests routed).
    pub fn clock(&self) -> u64 {
        self.lock().clock
    }

    /// Requests routed to each shard, by shard index.
    pub fn routing_counts(&self) -> Vec<u64> {
        self.lock().shards.iter().map(|s| s.requests).collect()
    }

    /// The failovers performed so far, in order.
    pub fn timeline(&self) -> Vec<FailoverEvent> {
        self.lock().timeline.clone()
    }

    /// Publishes the fleet state gauges from the router's aggregates
    /// through the single-node server's own publisher
    /// ([`publish_state_gauges`]), plus per-shard replication lag.
    fn refresh_gauges(&self, inner: &RouterInner) {
        let m = &self.metrics;
        publish_state_gauges(m, inner.counts, inner.clock, inner.lockouts);
        for (i, st) in inner.shards.iter().enumerate() {
            let lag = match st.acks.iter().min() {
                Some(&slowest) => st.leader_seq.saturating_sub(slowest),
                None => 0,
            };
            let shard = i.to_string();
            m.set_gauge(
                "cluster_replication_lag",
                &[("shard", &shard)],
                MetricClass::Det,
                lag,
            );
        }
    }

    /// The shard a request belongs to.
    fn route_for(&self, inner: &RouterInner, req: &Request) -> usize {
        match req {
            Request::Register { readout, .. } | Request::Unlock { readout, .. } => {
                inner.ring.route(readout)
            }
            Request::RemoteDisable { ic, .. } | Request::Status { ic: Some(ic), .. } => inner
                .ics
                .get(ic)
                .map_or_else(|| inner.ring.route(ic), |&(shard, _)| shard),
            Request::Status {
                ic: None, client, ..
            } => inner.ring.route(client),
            Request::Metrics { .. }
            | Request::Audit { .. }
            | Request::History { .. }
            | Request::Traces { .. } => {
                unreachable!("admin requests are answered by the router")
            }
        }
    }

    /// Kills the shard's leader (drops the link), promotes the
    /// most-caught-up follower (ties: lowest index), and records the
    /// failover. When `trace` is set (its parent is the request's
    /// `failover` span) the checkpoint and promotion steps land as spans
    /// and the context propagates in the frames.
    fn failover(
        &self,
        inner: &mut RouterInner,
        shard: usize,
        tick: u64,
        mut trace: Traced<'_>,
    ) -> Result<(), ClusterError> {
        let ctx = trace.as_ref().map(|(ctx, _)| *ctx);
        let st = &mut inner.shards[shard];
        // The dead leader's link is dropped first: nothing may reach it
        // again, and over TCP this closes the connection.
        st.leader = None;
        let mut best: Option<(usize, u64)> = None;
        for (i, follower) in st.followers.iter_mut().enumerate() {
            let seq = match follower.call(&RepFrame::Checkpoint {
                shard: shard as u64,
                trace: ctx,
            })? {
                RepFrame::Ack { seq, .. } => seq,
                RepFrame::Error { message } => {
                    return Err(ClusterError::new(format!(
                        "checkpoint refused by follower {i} of shard {shard}: {message}"
                    )))
                }
                other => {
                    return Err(ClusterError::new(format!(
                        "unexpected checkpoint reply from shard {shard}: {other:?}"
                    )))
                }
            };
            if let Some((ctx, scope)) = trace.as_mut() {
                let span = scope.span(ctx.parent_span, "checkpoint", ctx.tick);
                span.units = seq;
                span.attrs = vec![("follower".into(), i.to_string())];
            }
            // Strictly greater keeps the lowest index on ties.
            if best.is_none_or(|(_, s)| seq > s) {
                best = Some((i, seq));
            }
        }
        let (idx, watermark) = best.ok_or_else(|| {
            ClusterError::new(format!("shard {shard} has no follower to promote"))
        })?;
        let mut promoted = st.followers.remove(idx);
        st.acks.remove(idx);
        match promoted.call(&RepFrame::Promote {
            shard: shard as u64,
            clock: tick.saturating_sub(1),
            trace: ctx,
        })? {
            RepFrame::Ack { .. } => {}
            RepFrame::Error { message } => {
                return Err(ClusterError::new(format!(
                    "promotion refused on shard {shard}: {message}"
                )))
            }
            other => {
                return Err(ClusterError::new(format!(
                    "unexpected promotion reply from shard {shard}: {other:?}"
                )))
            }
        }
        if let Some((ctx, scope)) = trace {
            let span = scope.span(ctx.parent_span, "promote", ctx.tick);
            span.units = watermark;
            span.attrs = vec![("follower".into(), idx.to_string())];
        }
        st.leader = Some(promoted);
        st.leader_seq = watermark;
        self.metrics.inc("cluster_failovers_total", &[], 1);
        inner.timeline.push(FailoverEvent {
            tick,
            shard,
            promoted: idx,
            watermark,
        });
        Ok(())
    }

    /// Ships one batch to every follower in index order. Each follower's
    /// `replicate/ship` span is recorded, its context set on the frame,
    /// and the ack (with the follower's `replicate/apply` spans) folded
    /// before the next follower is called, so a traced dump lists
    /// `[ship_i, applies_i]` per follower. A refusal or link error ends
    /// the batch at that follower: later followers are not sent it.
    fn ship_batch(
        shard: usize,
        st: &mut ShardState,
        entries: &[String],
        audit: &[AuditEvent],
        mut trace: Traced<'_>,
    ) -> Result<(), ClusterError> {
        if st.followers.is_empty() || (entries.is_empty() && audit.is_empty()) {
            return Ok(());
        }
        let mut frame = RepFrame::Append {
            shard: shard as u64,
            entries: entries.to_vec(),
            audit: audit.to_vec(),
            trace: None,
        };
        for (i, follower) in st.followers.iter_mut().enumerate() {
            if let (Some((ctx, scope)), RepFrame::Append { trace: ship, .. }) =
                (trace.as_mut(), &mut frame)
            {
                let span = scope.span(ctx.parent_span, "replicate/ship", ctx.tick);
                span.units = entries.len() as u64;
                span.attrs = vec![("follower".into(), i.to_string())];
                *ship = Some(ctx.child(span.span_id));
            }
            match follower.call(&frame)? {
                RepFrame::Ack { seq, spans, .. } => {
                    st.acks[i] = seq;
                    if let Some((_, scope)) = trace.as_mut() {
                        scope.extend(spans);
                    }
                }
                RepFrame::Error { message } => {
                    return Err(ClusterError::new(format!(
                        "follower {i} of shard {shard} refused entries: {message}"
                    )))
                }
                other => {
                    return Err(ClusterError::new(format!(
                        "unexpected append reply from shard {shard}: {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    /// Ships a shard's queued entries/audit (windowed mode) as one
    /// untraced batch and clears the queue. No-op when nothing is
    /// pending; queues only form on untraced requests, so the drain
    /// never owes the span tree anything.
    fn drain_shard(shard: usize, st: &mut ShardState) -> Result<(), ClusterError> {
        st.pending_batches = 0;
        if st.pending_entries.is_empty() && st.pending_audit.is_empty() {
            return Ok(());
        }
        let entries = std::mem::take(&mut st.pending_entries);
        let audit = std::mem::take(&mut st.pending_audit);
        Self::ship_batch(shard, st, &entries, &audit, None)
    }

    /// Drains every shard's queued shipments.
    fn drain_all(inner: &mut RouterInner) -> Result<(), ClusterError> {
        for (shard, st) in inner.shards.iter_mut().enumerate() {
            Self::drain_shard(shard, st)?;
        }
        Ok(())
    }

    /// Forwards to the shard leader, ships the produced journal entries
    /// and audit events to the followers, and folds both into the
    /// router's aggregates. Returns the shard's response. When `trace`
    /// is set (its parent is the request's `dispatch` span) the leader's
    /// spans come back in the reply, each follower shipment gets a
    /// `replicate/ship` span, and the follower's `replicate/apply` spans
    /// come back in the acks.
    fn dispatch(
        &self,
        inner: &mut RouterInner,
        shard: usize,
        tick: u64,
        req: &Request,
        mut trace: Traced<'_>,
    ) -> Result<Response, ClusterError> {
        let leader = inner.shards[shard]
            .leader
            .as_mut()
            .ok_or_else(|| ClusterError::new(format!("shard {shard} has no leader")))?;
        let reply = leader.call(&RepFrame::Forward {
            shard: shard as u64,
            tick,
            req: req.clone(),
            trace: trace.as_ref().map(|(ctx, _)| *ctx),
        })?;
        let (resp, seq, entries, audit, leader_spans) = match reply {
            RepFrame::Reply {
                resp,
                seq,
                entries,
                audit,
                spans,
                ..
            } => (resp, seq, entries, audit, spans),
            RepFrame::Error { message } => {
                return Err(ClusterError::new(format!(
                    "shard {shard} refused the forward: {message}"
                )))
            }
            other => {
                return Err(ClusterError::new(format!(
                    "unexpected forward reply from shard {shard}: {other:?}"
                )))
            }
        };
        if let Some((_, scope)) = trace.as_mut() {
            scope.extend(leader_spans);
        }
        // Ship to the followers. With the default window of 1 every
        // request ships synchronously: no follower may lag past one
        // request, so any follower is promotable with at most the
        // doomed request in flight (the watermark rule in DESIGN.md
        // §9). A wider window queues up to `rep_window` requests'
        // entries and ships them as one coalesced batch per follower;
        // the queue drains before any failover, metrics read, or
        // explicit sync, so every observable byte matches a window-1
        // run.
        let window = inner.rep_window.max(1);
        let st = &mut inner.shards[shard];
        st.leader_seq = seq;
        if !entries.is_empty() || !audit.is_empty() {
            if trace.is_some() || window == 1 {
                // Traced requests always ship per-request — the span
                // tree records one ship per follower per request. If
                // an earlier untraced request left a queue behind,
                // drain it first to preserve entry order.
                Self::drain_shard(shard, st)?;
                Self::ship_batch(shard, st, &entries, &audit, trace)?;
            } else {
                st.pending_entries.extend(entries.iter().cloned());
                st.pending_audit.extend(audit.iter().cloned());
                st.pending_batches += 1;
                if st.pending_batches >= window {
                    Self::drain_shard(shard, st)?;
                }
            }
        }
        // Merge the audit stream: seqs renumber densely on ingest,
        // ticks are already global.
        for e in &audit {
            self.metrics
                .inc("audit_events_total", &[("kind", &e.kind)], 1);
            if e.kind == "lockout" {
                inner.lockouts += 1;
            }
            inner.audit.replicate(e);
        }
        Ok(resp)
    }
}

impl Handler for ClusterRouter {
    fn handle_traced(&self, req: &Request, trace: Option<&TraceContext>) -> Response {
        let mut inner = self.lock();
        match req {
            Request::Metrics { .. } => {
                // Queued shipments drain first so the replication-lag
                // gauges report the same bytes a window-1 run would.
                if let Err(e) = Self::drain_all(&mut inner) {
                    return Response::Error {
                        code: ErrorCode::Malformed,
                        message: e.message,
                        retry_at: None,
                    };
                }
                self.refresh_gauges(&inner);
                return Response::Metrics {
                    snapshot: self.metrics.snapshot(),
                };
            }
            Request::Audit { since, .. } => {
                let (events, next) = inner.audit.events_since(since.unwrap_or(0));
                return Response::Audit { events, next };
            }
            Request::History { .. } => {
                // Per-shard histories are shard-local serving state and
                // deliberately not merged (DESIGN.md §9): the router
                // answers with an empty dump (stride and capacity 0).
                return Response::History {
                    history: HistoryDump::default(),
                };
            }
            Request::Traces { limit, .. } => {
                return Response::Traces {
                    spans: inner.traces.records(limit.map(|l| l as usize)),
                };
            }
            _ => {}
        }
        let now = inner.clock + 1;
        let shard = self.route_for(&inner, req);
        // The failover and the retry below reuse the same trace id: one
        // tree per request, crash or not. A router that roots the tree
        // records the `request` span first and fills in its attributes
        // once the outcome is known.
        let mut traced = req.trace_context(trace, inner.trace_seed, now).map(|ctx| {
            let mut scope = TraceScope::new(ctx.trace_id, "router");
            let parent = match ctx.parent_span {
                0 => scope.span(0, "request", now).span_id,
                parent => parent,
            };
            RequestTrace { ctx, parent, scope }
        });
        // A scheduled leader crash fires pre-dispatch on the shard the
        // doomed request routes to; the request then re-dispatches to
        // the promoted follower at the same tick.
        let crash_due = inner.plan.as_ref().is_some_and(|plan| plan.is_crash(now));
        if crash_due {
            // The doomed shard's queued shipments drain before the
            // checkpoint: the dead leader already produced them and the
            // router still holds them, so the promotion watermark must
            // match a window-1 run.
            if let Err(e) = Self::drain_shard(shard, &mut inner.shards[shard]) {
                return Response::Error {
                    code: ErrorCode::Malformed,
                    message: e.message,
                    retry_at: None,
                };
            }
            // The failover subtree sits at the previous tick: the doomed
            // dispatch never happened, and the tick spread deterministically
            // surfaces failover traces under `--slowest`.
            let failover_trace = traced
                .as_mut()
                .map(|t| t.step("failover", now.saturating_sub(1), shard));
            if let Err(e) = self.failover(&mut inner, shard, now, failover_trace) {
                return Response::Error {
                    code: ErrorCode::Malformed,
                    message: e.message,
                    retry_at: None,
                };
            }
            // The re-dispatch keeps the trace id; the `retry` span marks
            // it as the second attempt of the same request.
            if let Some(t) = traced.as_mut() {
                t.parent = t.scope.span(t.parent, "retry", now).span_id;
            }
        }
        inner.clock = now;
        let dispatch_trace = traced.as_mut().map(|t| t.step("dispatch", now, shard));
        let resp = match self.dispatch(&mut inner, shard, now, req, dispatch_trace) {
            Ok(resp) => resp,
            Err(e) => Response::Error {
                code: ErrorCode::Malformed,
                message: e.message,
                retry_at: None,
            },
        };
        inner.shards[shard].requests += 1;
        let shard_label = shard.to_string();
        self.metrics
            .inc("cluster_requests_total", &[("shard", &shard_label)], 1);
        let (op, outcome) = (req.op(), resp.outcome());
        if let Some(t) = traced {
            let mut spans = t.scope.into_spans();
            if t.ctx.parent_span == 0 {
                // This router roots the tree: the `request` span carries
                // the client-facing attributes, outcome included.
                spans[0].attrs = req.root_span_attrs(outcome);
            }
            self.metrics.observe_exemplar(
                "cluster_request_units",
                &[("op", op)],
                MetricClass::Det,
                REQUEST_UNITS_BOUNDS,
                spans.len() as u64,
                t.ctx.trace_id,
            );
            for s in spans {
                inner.traces.push(s);
            }
        }
        self.metrics
            .inc("service_requests_total", &[("op", op), ("outcome", outcome)], 1);
        if outcome == "unknown_readout" {
            self.metrics.inc("service_wrong_readouts_total", &[], 1);
        }
        // The journal event the leader appended (what a single node's
        // registry metrics would have counted), then the lifecycle
        // transition and the IC's placement.
        if let Some(event) = resp.journal_event() {
            self.metrics
                .inc("journal_events_total", &[("event", event)], 1);
        }
        match (&resp, req) {
            (Response::Registered { .. }, Request::Register { ic, .. }) => {
                inner.counts.registered += 1;
                inner.ics.insert(ic.clone(), (shard, IcState::Registered));
            }
            (Response::Key { ic, .. }, _) => {
                inner.counts.unlocked += 1;
                if let Some((_, state)) = inner.ics.get_mut(ic) {
                    *state = IcState::Unlocked;
                }
            }
            (Response::Disabled { ic, .. }, _) => {
                // A disabled die leaves the unlocked state count.
                let was = inner
                    .ics
                    .get_mut(ic)
                    .map(|(_, state)| std::mem::replace(state, IcState::Disabled));
                if was == Some(IcState::Unlocked) {
                    inner.counts.unlocked -= 1;
                }
                inner.counts.disabled += 1;
            }
            (Response::Error { code, .. }, _) if *code == ErrorCode::DuplicateReadout => {
                inner.counts.duplicates += 1;
            }
            _ => {}
        }
        // Rewrite fleet-wide numbers the shard cannot know.
        match resp {
            Response::Registered { ic, .. } => Response::Registered {
                ic,
                total: inner.counts.registered,
            },
            Response::Status(s) => {
                Response::Status(StatusReport::new(inner.counts, inner.lockouts, s.ic_state))
            }
            other => other,
        }
    }
}
