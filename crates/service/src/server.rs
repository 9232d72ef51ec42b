//! The activation server: Alice's side of Figure 2 as a service.
//!
//! An [`ActivationServer`] owns the [`Designer`] (the only party able to
//! compute keys), the persistent [`Registry`] and the [`RateLimiter`], all
//! behind one mutex: handlers execute serially against the shared state
//! (key issuance counts a royalty and appends to the registry journal,
//! which is order-sensitive), while transports accept and decode any
//! number of connections concurrently. The logical clock ticks once per
//! request, so every admission decision, journal line and ledger entry is
//! a pure function of the request sequence — the workspace's determinism
//! contract, extended to the serving layer.
//!
//! Request semantics:
//!
//! * **Register** — validates that the readout decodes under the
//!   blueprint (a garbage readout is a *wrong-readout failure* counted
//!   toward lockout), then records the die. A readout that is already
//!   registered is rejected as passive-metering clone evidence.
//! * **Unlock** — looks the readout up in the registry (Alice only issues
//!   keys for reported dies; an unknown readout is a wrong-readout
//!   failure), computes the key via [`Designer::issue_key`] and marks the
//!   die unlocked. Keys are issued exactly once per die.
//! * **RemoteDisable** — marks the die disabled and returns the §8 kill
//!   sequence.
//! * **Status** — registry counts and optional per-IC state.
//!
//! Every handler opens an `hwm-trace` span, so a `--profile` run of the
//! serving benchmark breaks down by request kind like the offline tables.
//! Event counts live in one place, the `hwm-metrics` registry below.
//!
//! On top of the post-hoc trace, the server carries **live** telemetry
//! (`hwm-metrics`): outcome-labelled request counters, per-op latency
//! histograms, journal append/replay timings, and an append-only audit
//! stream of security alerts (duplicate readouts, lockouts, remote
//! disables, black-hole dies). The `Metrics`/`Audit` wire requests expose
//! both on the admin plane — unthrottled, clock-neutral, and invisible to
//! the service counters, so a polling monitor never perturbs what it
//! measures. Deterministic metrics (class `det`) are pure functions of
//! the accepted request sequence; wall-clock ones (class `timing`) are
//! excluded from the determinism contract, mirroring the trace crate's
//! counter/gauge split.

use crate::registry::{Registry, RegistryCounts, RegistryError};
use crate::storage::FlushPolicy;
use crate::throttle::{Decision, RateLimiter, ThrottleConfig};
use crate::wire::{parse_readout_bits, ErrorCode, Request, Response, StatusReport, WireError};
use hwm_metering::{Designer, MeteringError, ScanReadout};
use hwm_metrics::{
    AlertEngine, AlertRuleSet, AlertTransition, AuditEvent, AuditLog, AuditValue, History,
    HistoryConfig, MetricClass, MetricsRegistry, Snapshot, LATENCY_BUCKETS_NS,
};
use hwm_trace::{spans_to_jsonl, SpanRecord, TraceContext, TraceRing, TraceScope};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Bucket bounds for the det-class per-traced-request work histograms:
/// a server's `service_request_units` (span-tree size plus journal
/// work) and a router's `cluster_request_units` (span-tree size).
pub const REQUEST_UNITS_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32];

/// Publishes the six det-class fleet state gauges (IC counts by state,
/// duplicates, logical clock, lockouts). A single server and a cluster
/// router both publish through this one function, so the families,
/// labels and values cannot drift apart.
pub fn publish_state_gauges(
    m: &MetricsRegistry,
    counts: RegistryCounts,
    clock: u64,
    lockouts: u64,
) {
    let awaiting = counts.registered - counts.unlocked - counts.disabled;
    m.set_gauge("registry_ics", &[("state", "registered")], MetricClass::Det, awaiting);
    m.set_gauge("registry_ics", &[("state", "unlocked")], MetricClass::Det, counts.unlocked);
    m.set_gauge("registry_ics", &[("state", "disabled")], MetricClass::Det, counts.disabled);
    m.set_gauge("registry_duplicates", &[], MetricClass::Det, counts.duplicates);
    m.set_gauge("service_clock_ticks", &[], MetricClass::Det, clock);
    m.set_gauge("throttle_lockouts_total", &[], MetricClass::Det, lockouts);
}

/// The role a server plays in a replicated shard group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ServerRole {
    /// Accepts client mutations and (when replication capture is armed)
    /// ships its journal entries to followers. Single-node deployments
    /// are leaders of a group of one.
    #[default]
    Leader,
    /// Accepts only replicated journal entries and admin-plane reads;
    /// every non-admin wire request is refused with
    /// [`ErrorCode::NotLeader`]. Promoted to leader on failover via
    /// [`ActivationServer::promote`].
    Follower,
}

/// Server tuning. The sampled history is not tuned here: every server
/// samples det-class series with [`HistoryConfig::default`] (every 4
/// logical ticks, 256 samples per series), which is what the `history`
/// admin request serves and the alert rules read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Admission-control tuning.
    pub throttle: ThrottleConfig,
    /// Journal durability per append (see [`FlushPolicy`]). Replaces
    /// the policy the registry was opened with:
    /// [`ActivationServer::resume`] applies it through
    /// [`Registry::set_flush_policy`]. Applies to file-backed
    /// registries; in-memory journals ignore it.
    pub flush: FlushPolicy,
    /// Accept-loop poll sleep in milliseconds for TCP front ends serving
    /// this server (see [`crate::transport::TcpServer::spawn_with_poll`]).
    pub accept_poll_ms: u64,
    /// Replication role (default: [`ServerRole::Leader`]). Followers run
    /// with live metrics detached until promotion so replicated appends
    /// are not double-counted against the leader's.
    pub role: ServerRole,
    /// Distributed-tracing seed. `None` (the default) leaves tracing off:
    /// the server derives no root contexts and records no spans of its
    /// own, so untraced runs stay byte-identical to pre-tracing builds. A
    /// request that *arrives* with an explicit trace context is always
    /// captured regardless of this setting — that is how shard replicas
    /// behind a traced router participate without any local config.
    pub trace_seed: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            throttle: ThrottleConfig::default(),
            flush: FlushPolicy::default(),
            accept_poll_ms: crate::transport::DEFAULT_ACCEPT_POLL_MS,
            role: ServerRole::default(),
            trace_seed: None,
        }
    }
}

struct Inner {
    designer: Designer,
    registry: Registry,
    limiter: RateLimiter,
    clock: u64,
    audit: AuditLog,
    metrics: Arc<MetricsRegistry>,
    history: History,
    engine: AlertEngine,
    role: ServerRole,
    /// Node label stamped on every span this server records.
    node: String,
    trace_seed: Option<u64>,
    /// Per-node span ring served by the `Traces` admin request.
    traces: TraceRing,
    /// Spans recorded for *forwarded* requests (trace context with a
    /// parent), awaiting collection into the replication `Reply` frame.
    trace_outbox: Vec<SpanRecord>,
}

/// The shared, thread-safe activation server.
pub struct ActivationServer {
    inner: Mutex<Inner>,
    metrics: Arc<MetricsRegistry>,
}

impl ActivationServer {
    /// Builds a server around a designer and a registry, with an
    /// in-memory audit log.
    pub fn new(designer: Designer, registry: Registry, config: ServerConfig) -> ActivationServer {
        ActivationServer::resume(designer, registry, config, AuditLog::new(), 0)
    }

    /// Builds a server resuming a prior incarnation: the registry is
    /// typically recovered via [`Registry::open_with`], the audit log via
    /// [`AuditLog::resume_file`], and `clock` restores the logical clock.
    ///
    /// The logical clock is the index into the *delivered-response*
    /// sequence — transport/driver state, not registry state (the journal
    /// only records accepted mutations). A restarting driver that wants
    /// tick-exact continuity — the crash simulation's oracle contract —
    /// passes the number of responses it has delivered so far; a driver
    /// that does not care passes 0 and gets a fresh clock. A fresh server
    /// with an explicit audit log (e.g. one mirroring to an `audit.jsonl`
    /// file via [`AuditLog::with_file`]) is `resume(.., audit, 0)`.
    ///
    /// Rate-limiter state (token levels, failure streaks, active
    /// lockouts) is deliberately *not* restored: it is denial-of-service
    /// armor, not protocol state, and journaling every admission decision
    /// would dwarf the registry. A crash therefore forgives an active
    /// lockout — the brute-force analysis in `hwm_attacks::online`
    /// assumes the attacker cannot crash the server at will.
    pub fn resume(
        designer: Designer,
        mut registry: Registry,
        config: ServerConfig,
        audit: AuditLog,
        clock: u64,
    ) -> ActivationServer {
        let metrics = Arc::new(MetricsRegistry::default());
        registry.set_flush_policy(config.flush);
        if config.role == ServerRole::Leader {
            // Followers run with registry metrics detached until
            // promotion: their appends replicate the leader's and must
            // not be double-counted against the fleet totals.
            registry.set_metrics(Arc::clone(&metrics));
            if registry.snapshot_events() > 0
                || registry.replayed_events() > 0
                || registry.torn_tail().is_some()
            {
                // This process inherited state from a prior incarnation.
                metrics.inc("journal_recoveries_total", &[], 1);
            }
        }
        ActivationServer {
            inner: Mutex::new(Inner {
                designer,
                registry,
                limiter: RateLimiter::new(config.throttle),
                clock,
                audit,
                metrics: Arc::clone(&metrics),
                history: History::new(HistoryConfig::default()),
                engine: AlertEngine::new(AlertRuleSet::default()),
                role: config.role,
                node: "server".to_string(),
                trace_seed: config.trace_seed,
                traces: TraceRing::default(),
                trace_outbox: Vec::new(),
            }),
            metrics,
        }
    }

    /// Sets the node label stamped on spans this server records (e.g.
    /// `shard0/leader`). The default is `server`.
    pub fn set_node_name(&self, name: &str) {
        self.lock().node = name.to_string();
    }

    /// The node label stamped on spans this server records.
    pub fn node_name(&self) -> String {
        self.lock().node.clone()
    }

    /// This node's span ring as JSONL — what `--traces-out` writes.
    pub fn trace_dump(&self) -> String {
        spans_to_jsonl(&self.lock().traces.records(None))
    }

    /// Takes the spans recorded for forwarded requests since the last
    /// drain — a shard leader returns these in its replication `Reply`
    /// so the router can assemble one tree per routed request.
    pub fn drain_trace_outbox(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.lock().trace_outbox)
    }

    /// Records externally assembled spans into this node's ring (e.g. a
    /// follower's `replicate/apply` span, recorded by the replication
    /// frame handler rather than the request path).
    pub fn record_spans(&self, spans: &[SpanRecord]) {
        let mut inner = self.lock();
        for s in spans {
            inner.traces.push(s.clone());
        }
    }

    /// Installs (or replaces) the alert rule set. Firing state is seeded
    /// from the audit log — a rule whose last recorded transition was
    /// `alert_fire` resumes in the firing state, so a restarted server
    /// does not re-announce alerts it already raised. The sampled
    /// history itself is serving-lifetime state (like the rate limiter:
    /// observability armor, not protocol state) and always starts empty.
    pub fn set_alert_rules(&self, rules: AlertRuleSet) {
        let mut inner = self.lock();
        let mut engine = AlertEngine::new(rules);
        let recorded = inner.audit.events().iter().filter_map(AlertTransition::from_audit);
        engine.fold_audit(recorded);
        inner.engine = engine;
    }

    /// The alert transitions recorded so far (the audit events
    /// [`AlertTransition::from_audit`] decodes) as JSONL bytes — what
    /// `--alerts-out` writes.
    pub fn alerts_jsonl(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for e in inner.audit.events() {
            if AlertTransition::from_audit(e).is_some() {
                e.to_json().write_compact(&mut out);
                out.push('\n');
            }
        }
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Poisoned only if a handler panicked mid-request. No request
        // bytes can do that (the codec and dispatch are fuzzed), and state
        // a panic may have left half-mutated must not keep serving.
        self.inner.lock().expect("server state poisoned")
    }

    /// The live metrics registry (e.g. to disable collection for an
    /// overhead baseline, or to snapshot without a wire round trip).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// A snapshot with the state gauges (per-state IC counts, logical
    /// clock, lockout and audit totals) refreshed under the server lock —
    /// what the `Metrics` wire request returns.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        inner.refresh_gauges();
        self.metrics.snapshot()
    }

    /// The audit log rendered as JSONL (the bytes an `audit.jsonl` file
    /// sink holds).
    pub fn audit_jsonl(&self) -> String {
        self.lock().audit.to_jsonl()
    }

    /// Handles one request. Safe to call from any number of threads; the
    /// handler body serializes on the server mutex.
    ///
    /// Admin-plane requests (`Metrics`/`Audit`) are answered without
    /// ticking the logical clock, consuming throttle tokens, or touching
    /// the request counters: observability must not perturb admission
    /// decisions, and a polling monitor must not show up in the fleet
    /// numbers it reports.
    pub fn handle(&self, req: &Request) -> Response {
        self.handle_at_traced(req, None, None)
    }

    /// Handles one request at an explicit logical tick, with an optional
    /// trace context. A cluster router owns the global clock and passes
    /// `Some(tick)` so every shard's admission decisions, journal lines
    /// and audit events land at the same tick a single-node server would
    /// have used; `None` ticks the server's own clock (the single-node
    /// path, identical to [`ActivationServer::handle`]).
    ///
    /// Tracing rule: a request arriving *with* a context is always
    /// captured (a forwarded context's spans also land in the trace
    /// outbox for the replication reply); without one, a root context is
    /// derived only when [`ServerConfig::trace_seed`] is set. Span ids
    /// are pure functions of the trace id and span-tree position, and
    /// span ticks are logical — no wall clock, no randomness — so trace
    /// dumps are byte-identical across runs and transports.
    pub fn handle_at_traced(
        &self,
        req: &Request,
        tick: Option<u64>,
        trace: Option<&TraceContext>,
    ) -> Response {
        let started = Instant::now();
        let mut inner = self.lock();
        match req {
            Request::Metrics { .. } => {
                let _span = hwm_trace::span("service.metrics");
                inner.refresh_gauges();
                return Response::Metrics {
                    snapshot: self.metrics.snapshot(),
                };
            }
            Request::Audit { since, .. } => {
                let _span = hwm_trace::span("service.audit");
                let (events, next) = inner.audit.events_since(since.unwrap_or(0));
                return Response::Audit { events, next };
            }
            Request::History { window, .. } => {
                let _span = hwm_trace::span("service.history");
                return Response::History {
                    history: inner.history.dump(*window),
                };
            }
            Request::Traces { limit, .. } => {
                let _span = hwm_trace::span("service.traces");
                return Response::Traces {
                    spans: inner.traces.records(limit.map(|l| l as usize)),
                };
            }
            _ => {}
        }
        if inner.role == ServerRole::Follower {
            // Refused before the clock ticks or any counter moves: a
            // follower's det-class state must stay a pure function of
            // the replicated entry stream, not of misdirected traffic.
            return Response::Error {
                code: ErrorCode::NotLeader,
                message: "shard follower: mutations must go through the leader".into(),
                retry_at: None,
            };
        }
        let now = match tick {
            Some(t) => {
                inner.clock = t;
                t
            }
            None => {
                inner.clock += 1;
                inner.clock
            }
        };
        // Derived before dispatch so the journal length delta below is
        // attributable to this request.
        let ctx = req.trace_context(trace, inner.trace_seed, now);
        let journal_before = inner.registry.journal_len();
        let resp = match inner.limiter.check(req.client(), now) {
            Decision::Allowed => match req {
                Request::Register {
                    client,
                    ic,
                    readout,
                } => {
                    let _span = hwm_trace::span("service.register");
                    inner.register(client, ic, readout, now)
                }
                Request::Unlock { client, readout } => {
                    let _span = hwm_trace::span("service.unlock");
                    inner.unlock(client, readout, now)
                }
                Request::RemoteDisable { client, ic } => {
                    let _span = hwm_trace::span("service.disable");
                    inner.disable(client, ic, now)
                }
                Request::Status { ic, .. } => {
                    let _span = hwm_trace::span("service.status");
                    inner.status(ic.as_deref())
                }
                Request::Metrics { .. }
                | Request::Audit { .. }
                | Request::History { .. }
                | Request::Traces { .. } => {
                    unreachable!("admin handled above")
                }
            },
            Decision::Throttled { retry_at } => Response::Error {
                code: ErrorCode::Throttled,
                message: format!("rate limit: retry at tick {retry_at}"),
                retry_at: Some(retry_at),
            },
            Decision::LockedOut { until } => Response::Error {
                code: ErrorCode::LockedOut,
                message: format!("locked out until tick {until}"),
                retry_at: Some(until),
            },
        };
        let (op, outcome) = (req.op(), resp.outcome());
        if let Some(ctx) = ctx {
            inner.record_request_trace(&ctx, req, outcome, now, journal_before);
        }
        inner
            .metrics
            .inc("service_requests_total", &[("op", op), ("outcome", outcome)], 1);
        inner.metrics.observe(
            "service_handler_ns",
            &[("op", op)],
            MetricClass::Timing,
            LATENCY_BUCKETS_NS,
            started.elapsed().as_nanos() as u64,
        );
        inner.sample_and_alert(now);
        resp
    }

    /// Registry counts plus lockout total (the Status view, lock-free for
    /// callers already outside a request).
    pub fn status(&self) -> StatusReport {
        self.lock().status_report(None)
    }

    /// Logical ticks elapsed (= requests received).
    pub fn clock(&self) -> u64 {
        self.lock().clock
    }

    /// Keys issued so far (the designer's royalty count).
    pub fn activations(&self) -> usize {
        self.lock().designer.activations()
    }

    /// Runs `f` against the registry (journal digests, record inspection).
    pub fn with_registry<T>(&self, f: impl FnOnce(&Registry) -> T) -> T {
        f(&self.lock().registry)
    }

    /// Makes every journal event appended so far durable
    /// ([`Registry::commit`]: flush + `fdatasync` when any are pending,
    /// under either flush policy) — the explicit barrier callers must
    /// cross before reading journal bytes from the file while the server
    /// is live. The server never calls it on its own.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the journal file cannot be flushed or synced.
    pub fn commit_journal(&self) -> Result<(), WireError> {
        self.lock()
            .registry
            .commit()
            .map_err(|e| WireError::new(e.to_string()))
    }

    /// The server's replication role.
    pub fn role(&self) -> ServerRole {
        self.lock().role
    }

    /// Arms replication capture on the registry (leader side): journal
    /// lines appended from now on are retained until
    /// [`ActivationServer::drain_replication`] collects them.
    pub fn enable_replication(&self) {
        self.lock().registry.enable_replication();
    }

    /// Journal lines appended since the last drain — what a shard leader
    /// ships to its followers after each mutation.
    pub fn drain_replication(&self) -> Vec<String> {
        self.lock().registry.drain_replication()
    }

    /// Audit events recorded at or after index `since`, plus the next
    /// cursor — the audit half of a replication shipment (followers need
    /// the audit stream too, or a promoted leader would forget every
    /// alert its predecessor raised).
    pub fn audit_events_since(&self, since: u64) -> (Vec<AuditEvent>, u64) {
        self.lock().audit.events_since(since)
    }

    /// Applies a batch of replicated journal lines (follower side) and
    /// returns the journal length afterwards — the ack watermark.
    ///
    /// # Errors
    ///
    /// Any line that fails to parse or re-apply aborts the batch with a
    /// [`WireError`]; a diverged replica must refuse entries, not guess.
    pub fn apply_replicated(&self, lines: &[String]) -> Result<u64, WireError> {
        let mut inner = self.lock();
        for line in lines {
            inner.registry.apply_replicated(line)?;
        }
        Ok(inner.registry.journal_len())
    }

    /// Appends replicated audit events verbatim (follower side). Event
    /// seqs are renumbered to the local log's density; kind counters are
    /// *not* bumped — they already counted on the leader.
    pub fn apply_replicated_audit(&self, events: &[AuditEvent]) {
        let mut inner = self.lock();
        for e in events {
            inner.audit.replicate(e);
        }
    }

    /// Promotes a follower to leader at logical tick `clock` (failover).
    /// When the replicated journal is held in memory the registry is
    /// replay-verified first — a strict re-execution of every line
    /// must reproduce the same digest and length — then live metrics
    /// attach and the recovery counter bumps, exactly like a crash
    /// restart of a single node.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the server is already a leader or the replay
    /// verification finds a diverged journal.
    pub fn promote(&self, clock: u64) -> Result<(), WireError> {
        let mut inner = self.lock();
        if inner.role == ServerRole::Leader {
            return Err(WireError::new("already the shard leader".to_string()));
        }
        if let Some(bytes) = inner.registry.journal_bytes() {
            let text = String::from_utf8_lossy(bytes).into_owned();
            let replayed = Registry::replay(&text)?;
            if replayed.rolling_digest() != inner.registry.rolling_digest()
                || replayed.journal_len() != inner.registry.journal_len()
            {
                return Err(WireError::new(
                    "promotion refused: journal replay diverged".to_string(),
                ));
            }
        }
        inner.role = ServerRole::Leader;
        inner.clock = clock;
        // The new leader ships journal entries to the remaining
        // followers from its first accepted mutation on.
        inner.registry.enable_replication();
        let metrics = Arc::clone(&self.metrics);
        inner.registry.set_metrics(metrics);
        self.metrics.inc("journal_recoveries_total", &[], 1);
        Ok(())
    }
}

impl Inner {
    /// Publishes the state gauges: all are pure functions of the accepted
    /// request sequence, so they carry [`MetricClass::Det`].
    fn refresh_gauges(&self) {
        publish_state_gauges(
            &self.metrics,
            self.registry.counts(),
            self.clock,
            self.limiter.total_lockouts(),
        );
    }

    /// Records the span tree for one traced request: a `request` root
    /// (only when this server *is* the root — a forwarded context keeps
    /// the router's root), a `handle/<op>` span, and a `journal/append`
    /// child when the registry appended. Also lands the det-class
    /// `service_request_units` observation carrying the trace id as the
    /// bucket exemplar.
    fn record_request_trace(
        &mut self,
        ctx: &TraceContext,
        req: &Request,
        outcome: &str,
        now: u64,
        journal_before: u64,
    ) {
        let mut scope = TraceScope::new(ctx.trace_id, &self.node);
        let parent = if ctx.parent_span == 0 {
            let root = scope.span(0, "request", now);
            root.attrs = req.root_span_attrs(outcome);
            root.span_id
        } else {
            ctx.parent_span
        };
        let handle = scope.span(parent, &format!("handle/{}", req.op()), now);
        handle.attrs = vec![("outcome".to_string(), outcome.to_string())];
        let handle_id = handle.span_id;
        let appended = self.registry.journal_len().saturating_sub(journal_before);
        if appended > 0 {
            scope.span(handle_id, "journal/append", now).units = appended;
        }
        let spans = scope.into_spans();
        let units = spans.len() as u64 + appended;
        self.metrics.observe_exemplar(
            "service_request_units",
            &[("op", req.op())],
            MetricClass::Det,
            REQUEST_UNITS_BOUNDS,
            units,
            ctx.trace_id,
        );
        let forwarded = ctx.parent_span != 0;
        for s in &spans {
            self.traces.push(s.clone());
        }
        if forwarded {
            self.trace_outbox.extend(spans);
        }
    }

    /// Records an audit alert and bumps its kind-labelled counter.
    fn audit_event(&mut self, tick: u64, kind: &'static str, fields: &[(&str, AuditValue)]) {
        self.metrics.inc("audit_events_total", &[("kind", kind)], 1);
        self.audit.record(tick, kind, fields);
    }

    /// On sampling ticks (`now % stride == 0`): refresh the state
    /// gauges, sample the registry into the ring-buffer history, and
    /// evaluate the alert rules (none installed, no transitions).
    /// Transitions bump `service_alerts_total{rule,state}` and append
    /// `alert_fire` / `alert_resolve` audit events — both det-class,
    /// both pure functions of the accepted request sequence.
    fn sample_and_alert(&mut self, now: u64) {
        if !self.history.should_sample(now) {
            return;
        }
        let _span = hwm_trace::span("service.sample");
        self.refresh_gauges();
        self.history.sample_registry(now, &self.metrics);
        for t in self.engine.evaluate(now, &self.history) {
            self.metrics.inc(
                "service_alerts_total",
                &[("rule", t.rule.as_str()), ("state", t.state.as_str())],
                1,
            );
            self.audit_event(now, t.state.audit_kind(), &t.audit_fields());
        }
    }

    fn status_report(&self, ic: Option<&str>) -> StatusReport {
        let ic_state = ic
            .and_then(|ic| self.registry.by_ic(ic))
            .map(|r| r.state.as_str().to_string());
        StatusReport::new(
            self.registry.counts(),
            self.limiter.total_lockouts(),
            ic_state,
        )
    }

    /// A wrong readout was submitted: count it and lock the client out
    /// past the threshold.
    fn wrong_readout(&mut self, client: &str, now: u64, code: ErrorCode, message: String) -> Response {
        self.metrics.inc("service_wrong_readouts_total", &[], 1);
        let retry_at = self.limiter.record_failure(client, now);
        if let Some(until) = retry_at {
            // This failure crossed the threshold: a fresh lockout fired.
            let count = self.limiter.lockout_count(client);
            self.audit_event(
                now,
                "lockout",
                &[
                    ("client", AuditValue::Str(client.to_string())),
                    ("until", AuditValue::U64(until)),
                    ("count", AuditValue::U64(count as u64)),
                ],
            );
        }
        Response::Error {
            code,
            message,
            retry_at,
        }
    }

    fn register(&mut self, client: &str, ic: &str, readout: &str, now: u64) -> Response {
        let bits = match parse_readout_bits(readout) {
            Ok(bits) => bits,
            Err(e) => {
                return Response::Error {
                    code: ErrorCode::Malformed,
                    message: e.message,
                    retry_at: None,
                }
            }
        };
        // A readout that does not decode under the blueprint cannot have
        // come from a die of this design: wrong-readout failure.
        let group = match self.designer.blueprint().parse_readout(&bits) {
            Ok((_, group)) => group,
            Err(_) => {
                return self.wrong_readout(
                    client,
                    now,
                    ErrorCode::UnknownReadout,
                    "readout does not decode to a locked state of this design".into(),
                )
            }
        };
        match self.registry.register(client, ic, readout, group) {
            Ok(()) => {
                self.limiter.record_success(client);
                Response::Registered {
                    ic: ic.to_string(),
                    total: self.registry.counts().registered,
                }
            }
            Err(RegistryError::DuplicateReadout { prior }) => {
                self.audit_event(
                    now,
                    "duplicate_readout",
                    &[
                        ("ic", AuditValue::Str(ic.to_string())),
                        ("client", AuditValue::Str(client.to_string())),
                        ("prior", AuditValue::Str(prior.clone())),
                    ],
                );
                Response::Error {
                    code: ErrorCode::DuplicateReadout,
                    message: format!("readout already registered to {prior:?} — clone suspected"),
                    retry_at: None,
                }
            }
            Err(RegistryError::DuplicateIc) => Response::Error {
                code: ErrorCode::DuplicateIc,
                message: format!("IC {ic:?} is already registered"),
                retry_at: None,
            },
            Err(e) => Response::Error {
                code: ErrorCode::Malformed,
                message: e.to_string(),
                retry_at: None,
            },
        }
    }

    fn unlock(&mut self, client: &str, readout: &str, now: u64) -> Response {
        let bits = match parse_readout_bits(readout) {
            Ok(bits) => bits,
            Err(e) => {
                return Response::Error {
                    code: ErrorCode::Malformed,
                    message: e.message,
                    retry_at: None,
                }
            }
        };
        let (ic, state) = match self.registry.by_readout(readout) {
            Some(r) => (r.ic.clone(), r.state),
            None => {
                // Unregistered readout: either a brute-force guess or an
                // unreported (overbuilt) die — both count toward lockout.
                return self.wrong_readout(
                    client,
                    now,
                    ErrorCode::UnknownReadout,
                    "readout does not belong to any registered IC".into(),
                );
            }
        };
        match state {
            crate::registry::IcState::Registered => {}
            crate::registry::IcState::Unlocked => {
                return Response::Error {
                    code: ErrorCode::AlreadyUnlocked,
                    message: format!("{ic:?} was already issued its key"),
                    retry_at: None,
                }
            }
            crate::registry::IcState::Disabled => {
                return Response::Error {
                    code: ErrorCode::Disabled,
                    message: format!("{ic:?} was remotely disabled"),
                    retry_at: None,
                }
            }
        }
        let key = match self.designer.issue_key(&ScanReadout(bits)) {
            Ok(key) => key,
            Err(MeteringError::NoKeyExists) => {
                // A registered die stuck in a black hole: a service
                // failure, not attack evidence — but ops should hear
                // about it, so it goes to the audit stream.
                self.audit_event(
                    now,
                    "black_hole",
                    &[
                        ("ic", AuditValue::Str(ic.clone())),
                        ("client", AuditValue::Str(client.to_string())),
                    ],
                );
                return Response::Error {
                    code: ErrorCode::NoKeyExists,
                    message: format!("{ic:?} sits in a black hole; no key exists"),
                    retry_at: None,
                };
            }
            Err(e) => {
                return self.wrong_readout(
                    client,
                    now,
                    ErrorCode::UnknownReadout,
                    format!("key computation rejected the readout: {e}"),
                )
            }
        };
        if let Err(e) = self.registry.mark_unlocked(&ic, key.len(), client) {
            return Response::Error {
                code: ErrorCode::Malformed,
                message: format!("registry refused the unlock: {e}"),
                retry_at: None,
            };
        }
        self.limiter.record_success(client);
        Response::Key {
            ic,
            key: key.values,
        }
    }

    fn disable(&mut self, client: &str, ic: &str, now: u64) -> Response {
        match self.registry.mark_disabled(ic, client) {
            Ok(()) => {
                self.audit_event(
                    now,
                    "remote_disable",
                    &[
                        ("ic", AuditValue::Str(ic.to_string())),
                        ("client", AuditValue::Str(client.to_string())),
                    ],
                );
                Response::Disabled {
                    ic: ic.to_string(),
                    kill: self.designer.kill_sequence(),
                }
            }
            Err(RegistryError::UnknownIc) => Response::Error {
                code: ErrorCode::UnknownIc,
                message: format!("no registered IC {ic:?}"),
                retry_at: None,
            },
            Err(RegistryError::WrongState(s)) => Response::Error {
                code: ErrorCode::Disabled,
                message: format!("{ic:?} is already {s}"),
                retry_at: None,
            },
            Err(e) => Response::Error {
                code: ErrorCode::Malformed,
                message: e.to_string(),
                retry_at: None,
            },
        }
    }

    fn status(&self, ic: Option<&str>) -> Response {
        if let Some(name) = ic {
            if self.registry.by_ic(name).is_none() {
                return Response::Error {
                    code: ErrorCode::UnknownIc,
                    message: format!("no registered IC {name:?}"),
                    retry_at: None,
                };
            }
        }
        Response::Status(self.status_report(ic))
    }
}
