//! Deterministic distributed tracing for the activation service.
//!
//! The in-process profiler in this crate answers "where did the time
//! go" for one binary. A sharded activation cluster needs the causal
//! counterpart: *which* router dispatch, shard handler, journal append
//! and replication ship served one `unlock` — across processes and over
//! real TCP. This module is that layer, built on the workspace's
//! determinism contract instead of wall clocks:
//!
//! * A [`TraceContext`] identifies one request's trace. The trace id is
//!   FNV-1a over `{seed, logical tick, client, request kind}` — no wall
//!   clock, no RNG — so the same workload produces byte-identical trace
//!   ids for any `--jobs` value and either transport.
//! * Span ids are parent-indexed: [`span_id`] hashes
//!   `{trace_id, parent, name, child index}`. [`TraceScope`] is the one
//!   way spans are made: it hands out child indices deterministically
//!   and fills in every field but `units` and `attrs`, so a span tree's
//!   shape fully determines its ids.
//! * [`SpanRecord`]s are plain data with a strict JSON codec (unknown
//!   fields rejected, same contract as the wire protocol) and a JSONL
//!   dump format, collected per node into a fixed-capacity
//!   [`TraceRing`].
//! * [`TraceQuery`] / [`render_traces`] group a span dump into trees,
//!   filter by root attributes (IC, client, outcome), rank by logical
//!   tick-duration and render ASCII trees — the engine behind the
//!   `hwm_traces` binary.
//!
//! Durations here are *logical*: a trace's "latency" is the tick spread
//! its spans cover. That is scheduling-independent by construction —  a
//! failover re-dispatch spans two ticks, a plain request one — which is
//! exactly the property that lets trace dumps be golden-snapshot
//! material.

use hwm_jsonio::{fnv1a, FieldError, Json, StrictObj, FNV1A_BASIS};
use std::collections::HashMap;
use std::collections::VecDeque;

/// Default per-node span ring capacity (spans, not traces).
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

fn fnv_u64(hash: u64, value: u64) -> u64 {
    fnv1a(hash, &value.to_le_bytes())
}

/// A broken span dump or trace-context payload.
pub type SpanError = FieldError;

/// The trace identity a request carries across node boundaries.
///
/// `parent_span == 0` means "this context roots the trace": the first
/// node to act records the `request` root span. A non-zero parent means
/// the work is a child of a span on the sending node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace id every span of the request shares.
    pub trace_id: u64,
    /// Span id of the enclosing span on the sending node (0 = root).
    pub parent_span: u64,
    /// Logical tick the trace was rooted at.
    pub tick: u64,
}

impl TraceContext {
    /// Roots a trace deterministically: FNV-1a over
    /// `{seed, tick, client, kind}`. No wall clock, no RNG.
    pub fn root(seed: u64, tick: u64, client: &str, kind: &str) -> TraceContext {
        let mut h = FNV1A_BASIS;
        h = fnv_u64(h, seed);
        h = fnv_u64(h, tick);
        h = fnv1a(h, client.as_bytes());
        h = fnv1a(h, kind.as_bytes());
        // Trace id 0 is reserved as "absent" in exemplars; remap.
        TraceContext {
            trace_id: if h == 0 { FNV1A_BASIS } else { h },
            parent_span: 0,
            tick,
        }
    }

    /// The same trace continued under `parent_span`.
    pub fn child(&self, parent_span: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            parent_span,
            tick: self.tick,
        }
    }

    /// Serializes to a JSON object (the wire "trace" field).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("trace_id", Json::U64(self.trace_id)),
            ("parent_span", Json::U64(self.parent_span)),
            ("tick", Json::U64(self.tick)),
        ])
    }

    /// Strict parse: unknown, missing, ill-typed and duplicated fields
    /// are refused.
    ///
    /// # Errors
    ///
    /// Returns a [`SpanError`] naming the offending field.
    pub fn from_json(j: &Json) -> Result<TraceContext, SpanError> {
        let mut fields = StrictObj::new(j, "trace context")?;
        let ctx = TraceContext {
            trace_id: fields.uint("trace_id")?,
            parent_span: fields.uint("parent_span")?,
            tick: fields.uint("tick")?,
        };
        fields.finish()?;
        Ok(ctx)
    }
}

/// Derives a span id from its position in the tree: FNV-1a over
/// `{trace_id, parent span id, span name, child index under parent}`.
/// The tree's shape fully determines every id — no global counters.
pub fn span_id(trace_id: u64, parent: u64, name: &str, index: u64) -> u64 {
    let mut h = FNV1A_BASIS;
    h = fnv_u64(h, trace_id);
    h = fnv_u64(h, parent);
    h = fnv1a(h, name.as_bytes());
    h = fnv_u64(h, index);
    if h == 0 {
        FNV1A_BASIS
    } else {
        h
    }
}

/// The one span constructor for one trace on one node: allocates each
/// span's id from its position (the n-th span opened under a parent,
/// whatever its name, gets child index n) and fills in the trace id,
/// parent, name, node and tick, so callers set only `units` and
/// `attrs`. It also owns the node's span list for the trace, so
/// re-running the same request produces the same spans in the same
/// order.
#[derive(Debug)]
pub struct TraceScope {
    trace_id: u64,
    node: String,
    next_index: HashMap<u64, u64>,
    spans: Vec<SpanRecord>,
}

impl TraceScope {
    /// A fresh scope (per request) for `trace_id`, recording as `node`.
    pub fn new(trace_id: u64, node: &str) -> TraceScope {
        TraceScope {
            trace_id,
            node: node.to_string(),
            next_index: HashMap::new(),
            spans: Vec::new(),
        }
    }

    /// Opens the next span under `parent` and records it; the caller
    /// fills in `units` and `attrs` through the returned reference.
    pub fn span(&mut self, parent: u64, name: &str, tick: u64) -> &mut SpanRecord {
        let idx = self.next_index.entry(parent).or_insert(0);
        let span_id = span_id(self.trace_id, parent, name, *idx);
        *idx += 1;
        let at = self.spans.len();
        self.spans.push(SpanRecord {
            trace_id: self.trace_id,
            span_id,
            parent,
            name: name.to_string(),
            node: self.node.clone(),
            tick,
            units: 0,
            attrs: Vec::new(),
        });
        &mut self.spans[at]
    }

    /// Records spans another node recorded (a shard's handler spans, a
    /// follower's apply spans), in order.
    pub fn extend(&mut self, spans: impl IntoIterator<Item = SpanRecord>) {
        self.spans.extend(spans);
    }

    /// The recorded spans, in order.
    pub fn into_spans(self) -> Vec<SpanRecord> {
        self.spans
    }
}

/// One completed span, as it lands in a node's ring and in JSONL dumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id ([`span_id`]-derived).
    pub span_id: u64,
    /// Parent span id (0 = root span of the trace).
    pub parent: u64,
    /// Span name (`request`, `dispatch`, `handle/unlock`, ...).
    pub name: String,
    /// The node that recorded the span (`router`, `shard1/leader`, ...).
    pub node: String,
    /// Logical tick the span covers.
    pub tick: u64,
    /// Deterministic work units (journal entries shipped, spans
    /// produced, ...); 0 when the span is purely structural.
    pub units: u64,
    /// Attributes, insertion-ordered (`client`, `kind`, `ic`,
    /// `outcome`, `shard`, `follower`, ...).
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Serializes to a JSON object (one JSONL dump line).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("trace_id", Json::U64(self.trace_id)),
            ("span_id", Json::U64(self.span_id)),
            ("parent", Json::U64(self.parent)),
            ("name", Json::Str(self.name.clone())),
            ("node", Json::Str(self.node.clone())),
            ("tick", Json::U64(self.tick)),
            ("units", Json::U64(self.units)),
            (
                "attrs",
                Json::Obj(
                    self.attrs
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
        ])
    }

    /// Strict parse of one span object.
    ///
    /// # Errors
    ///
    /// Returns a [`SpanError`] naming the offending field.
    pub fn from_json(j: &Json) -> Result<SpanRecord, SpanError> {
        let mut fields = StrictObj::new(j, "span record")?;
        let attrs = match fields.field("attrs")? {
            Json::Obj(pairs) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| SpanError::new(format!("attr {k:?} must be a string")))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(SpanError::new("field \"attrs\" must be an object")),
        };
        let span = SpanRecord {
            trace_id: fields.uint("trace_id")?,
            span_id: fields.uint("span_id")?,
            parent: fields.uint("parent")?,
            name: fields.string("name")?,
            node: fields.string("node")?,
            tick: fields.uint("tick")?,
            units: fields.uint("units")?,
            attrs,
        };
        fields.finish()?;
        Ok(span)
    }

    /// The value of attribute `key`, if the span carries it.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Renders spans as a JSONL dump (one strict JSON object per line).
pub fn spans_to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        s.to_json().write_compact(&mut out);
        out.push('\n');
    }
    out
}

/// Parses a JSONL span dump, rejecting any malformed line and any span
/// whose `(trace_id, span_id)` an earlier line already holds.
///
/// # Errors
///
/// Returns a [`SpanError`] naming the offending line.
pub fn spans_from_jsonl(text: &str) -> Result<Vec<SpanRecord>, SpanError> {
    let mut spans = Vec::new();
    let mut first_line: HashMap<(u64, u64), usize> = HashMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = Json::parse(line)
            .map_err(|e| SpanError::new(format!("span dump line {}: {e}", i + 1)))?;
        let span = SpanRecord::from_json(&j)
            .map_err(|e| SpanError::new(format!("span dump line {}: {}", i + 1, e.message)))?;
        if let Some(first) = first_line.insert((span.trace_id, span.span_id), i + 1) {
            return Err(SpanError::new(format!(
                "span dump line {}: span {:016x} of trace {:016x} repeats line {first}",
                i + 1,
                span.span_id,
                span.trace_id
            )));
        }
        spans.push(span);
    }
    Ok(spans)
}

/// A fixed-capacity span buffer: the per-node trace store the
/// unthrottled `traces` admin request serves. Oldest spans are evicted
/// first; eviction only depends on the accepted span sequence, so the
/// ring's contents stay deterministic.
#[derive(Debug)]
pub struct TraceRing {
    cap: usize,
    spans: VecDeque<SpanRecord>,
}

impl TraceRing {
    /// A ring holding at most `cap` spans (at least 1).
    pub fn new(cap: usize) -> TraceRing {
        TraceRing {
            cap: cap.max(1),
            spans: VecDeque::new(),
        }
    }

    /// Appends a span, evicting the oldest if full.
    pub fn push(&mut self, span: SpanRecord) {
        if self.spans.len() == self.cap {
            self.spans.pop_front();
        }
        self.spans.push_back(span);
    }

    /// The buffered spans, oldest first. With `limit`, only the newest
    /// `limit` spans.
    pub fn records(&self, limit: Option<usize>) -> Vec<SpanRecord> {
        let skip = match limit {
            Some(n) => self.spans.len().saturating_sub(n),
            None => 0,
        };
        self.spans.iter().skip(skip).cloned().collect()
    }

    /// Buffered span count.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the ring holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

impl Default for TraceRing {
    fn default() -> TraceRing {
        TraceRing::new(DEFAULT_SPAN_CAPACITY)
    }
}

/// One trace reassembled from a span dump: every span sharing a
/// trace id, in dump order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTree {
    /// The shared trace id.
    pub trace_id: u64,
    /// The trace's spans, in the order the dump recorded them.
    pub spans: Vec<SpanRecord>,
}

impl TraceTree {
    /// The root span (`parent == 0`), if the dump captured it.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.parent == 0)
    }

    /// Logical duration: the tick spread the trace's spans cover. A
    /// plain request is 0 wide; a failover re-dispatch covers the
    /// checkpoint tick too.
    pub fn tick_duration(&self) -> u64 {
        let min = self.spans.iter().map(|s| s.tick).min().unwrap_or(0);
        let max = self.spans.iter().map(|s| s.tick).max().unwrap_or(0);
        max - min
    }

    /// Total units across the trace's spans, saturating at `u64::MAX`.
    pub fn total_units(&self) -> u64 {
        self.spans
            .iter()
            .fold(0, |sum, s| sum.saturating_add(s.units))
    }
}

/// Groups a span dump into traces, in first-seen order.
pub fn collect_traces(spans: &[SpanRecord]) -> Vec<TraceTree> {
    let mut order: Vec<u64> = Vec::new();
    let mut by_id: HashMap<u64, Vec<SpanRecord>> = HashMap::new();
    for s in spans {
        if !by_id.contains_key(&s.trace_id) {
            order.push(s.trace_id);
        }
        by_id.entry(s.trace_id).or_default().push(s.clone());
    }
    order
        .into_iter()
        .map(|trace_id| TraceTree {
            trace_id,
            spans: by_id.remove(&trace_id).expect("trace id collected"),
        })
        .collect()
}

/// A filter + ranking over a span dump — what `hwm_traces` runs.
#[derive(Debug, Default, Clone)]
pub struct TraceQuery {
    /// Keep only traces whose root has this `client` attribute.
    pub client: Option<String>,
    /// Keep only traces whose root has this `ic` attribute.
    pub ic: Option<String>,
    /// Keep only traces whose root has this `outcome` attribute.
    pub outcome: Option<String>,
    /// Keep the N slowest traces by logical tick-duration (ties broken
    /// by total units, then dump order — all deterministic).
    pub slowest: Option<usize>,
}

impl TraceQuery {
    fn keeps(&self, tree: &TraceTree) -> bool {
        let want = |filter: &Option<String>, key: &str| match filter {
            Some(v) => tree.root().and_then(|r| r.attr(key)) == Some(v.as_str()),
            None => true,
        };
        want(&self.client, "client") && want(&self.ic, "ic") && want(&self.outcome, "outcome")
    }

    /// Runs the query over a span dump.
    pub fn run(&self, spans: &[SpanRecord]) -> Vec<TraceTree> {
        let mut trees: Vec<TraceTree> = collect_traces(spans)
            .into_iter()
            .filter(|t| self.keeps(t))
            .collect();
        if let Some(n) = self.slowest {
            // Stable sort: equal keys keep dump order.
            trees.sort_by(|a, b| {
                (b.tick_duration(), b.total_units()).cmp(&(a.tick_duration(), a.total_units()))
            });
            trees.truncate(n);
        }
        trees
    }
}

fn render_span_line(out: &mut String, s: &SpanRecord, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(&format!("{} @{} tick={}", s.name, s.node, s.tick));
    if s.units > 0 {
        out.push_str(&format!(" units={}", s.units));
    }
    for (k, v) in &s.attrs {
        out.push_str(&format!(" {k}={v}"));
    }
    out.push('\n');
}

/// Draws the subtree under `spans[top]` depth first, children in dump
/// order, with an explicit stack so a deep chain cannot overflow the
/// call stack. Each span is drawn at most once: `drawn` stops a walk
/// that a parent cycle would send back to a span already on the page.
fn render_subtree(
    out: &mut String,
    spans: &[SpanRecord],
    children: &HashMap<u64, Vec<usize>>,
    drawn: &mut [bool],
    top: usize,
) {
    let mut stack = vec![(top, 1)];
    while let Some((i, depth)) = stack.pop() {
        if std::mem::replace(&mut drawn[i], true) {
            continue;
        }
        render_span_line(out, &spans[i], depth);
        if let Some(kids) = children.get(&spans[i].span_id) {
            stack.extend(kids.iter().rev().map(|&kid| (kid, depth + 1)));
        }
    }
}

/// Renders traces as indented ASCII span trees — deterministic,
/// golden-snapshot material. Every span is drawn exactly once: spans
/// whose parent chain loops back on itself, which no tree can place,
/// are drawn as further tops after the trace's roots and orphans.
pub fn render_traces(trees: &[TraceTree]) -> String {
    let mut out = String::new();
    for tree in trees {
        let min = tree.spans.iter().map(|s| s.tick).min().unwrap_or(0);
        let max = tree.spans.iter().map(|s| s.tick).max().unwrap_or(0);
        out.push_str(&format!(
            "trace {:016x} spans={} ticks={}..{}\n",
            tree.trace_id,
            tree.spans.len(),
            min,
            max
        ));
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        let ids: std::collections::HashSet<u64> =
            tree.spans.iter().map(|s| s.span_id).collect();
        let mut tops: Vec<usize> = Vec::new();
        for (i, s) in tree.spans.iter().enumerate() {
            if s.parent != 0 && ids.contains(&s.parent) && s.parent != s.span_id {
                children.entry(s.parent).or_default().push(i);
            } else {
                // Roots, and orphans whose parent the dump missed.
                tops.push(i);
            }
        }
        let mut drawn = vec![false; tree.spans.len()];
        // The roots first, then whatever only a parent cycle reaches.
        for top in tops.into_iter().chain(0..tree.spans.len()) {
            if !drawn[top] {
                render_subtree(&mut out, &tree.spans, &children, &mut drawn, top);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace_id: u64, parent: u64, name: &str, tick: u64, units: u64) -> SpanRecord {
        SpanRecord {
            trace_id,
            span_id: span_id(trace_id, parent, name, 0),
            parent,
            name: name.into(),
            node: "test".into(),
            tick,
            units,
            attrs: vec![("client".into(), "alice".into())],
        }
    }

    /// Root R, child X of R, then a second record holding R's id whose
    /// parent is X: a parent loop through a repeated span id.
    fn looped_dump() -> Vec<SpanRecord> {
        let root = span(3, 0, "request", 1, 0);
        let kid = span(3, root.span_id, "dispatch", 1, 0);
        let again = SpanRecord {
            parent: kid.span_id,
            ..root.clone()
        };
        vec![root, kid, again]
    }

    #[test]
    fn trace_ids_are_deterministic_and_input_sensitive() {
        let a = TraceContext::root(2024, 7, "alice", "unlock");
        let b = TraceContext::root(2024, 7, "alice", "unlock");
        assert_eq!(a, b);
        assert_ne!(a.trace_id, TraceContext::root(2024, 8, "alice", "unlock").trace_id);
        assert_ne!(a.trace_id, TraceContext::root(2024, 7, "bob", "unlock").trace_id);
        assert_ne!(a.trace_id, TraceContext::root(2025, 7, "alice", "unlock").trace_id);
        assert_ne!(a.trace_id, TraceContext::root(2024, 7, "alice", "register").trace_id);
        assert_eq!(a.parent_span, 0);
    }

    #[test]
    fn span_ids_depend_on_position() {
        let t = 42;
        assert_eq!(span_id(t, 0, "request", 0), span_id(t, 0, "request", 0));
        assert_ne!(span_id(t, 0, "request", 0), span_id(t, 0, "request", 1));
        assert_ne!(span_id(t, 0, "request", 0), span_id(t, 1, "request", 0));
        assert_ne!(span_id(t, 0, "request", 0), span_id(t, 0, "dispatch", 0));
    }

    #[test]
    fn scope_hands_out_sibling_indices() {
        let mut scope = TraceScope::new(9, "n");
        let a = scope.span(0, "x", 3).span_id;
        let b = scope.span(0, "x", 3).span_id;
        let c = scope.span(a, "x", 4).span_id;
        let d = scope.span(0, "y", 3).span_id;
        assert_ne!(a, b, "siblings get distinct ids");
        assert_ne!(a, c, "children under different parents differ");
        assert_eq!(a, span_id(9, 0, "x", 0));
        assert_eq!(b, span_id(9, 0, "x", 1));
        assert_eq!(
            d,
            span_id(9, 0, "y", 2),
            "the index counts every prior sibling"
        );
        let spans = scope.into_spans();
        assert_eq!((spans[2].parent, spans[2].tick), (a, 4));
        assert_eq!((spans[3].trace_id, spans[3].node.as_str()), (9, "n"));
    }

    #[test]
    fn context_and_span_round_trip_strictly() {
        let ctx = TraceContext::root(1, 2, "c", "register");
        assert_eq!(TraceContext::from_json(&ctx.to_json()), Ok(ctx));
        let s = span(5, 0, "request", 3, 2);
        assert_eq!(SpanRecord::from_json(&s.to_json()), Ok(s.clone()));

        // Tamper: unknown field refused.
        let mut j = match ctx.to_json() {
            Json::Obj(f) => f,
            _ => unreachable!(),
        };
        j.push(("extra".into(), Json::U64(1)));
        let err = TraceContext::from_json(&Json::Obj(j)).unwrap_err();
        assert!(err.message.contains("unknown field"), "{}", err.message);

        // Tamper: wrong type refused.
        let bad = Json::obj(vec![
            ("trace_id", Json::Str("nope".into())),
            ("parent_span", Json::U64(0)),
            ("tick", Json::U64(0)),
        ]);
        assert!(TraceContext::from_json(&bad).is_err());
    }

    #[test]
    fn jsonl_round_trips_and_rejects_garbage() {
        let spans = vec![span(5, 0, "request", 3, 0), span(5, 7, "dispatch", 3, 1)];
        let dump = spans_to_jsonl(&spans);
        assert_eq!(spans_from_jsonl(&dump).unwrap(), spans);
        assert!(spans_from_jsonl("not json\n").is_err());
        let err = spans_from_jsonl("{\"trace_id\":1}\n").unwrap_err();
        assert!(err.message.contains("line 1"), "{}", err.message);

        let err = spans_from_jsonl(&spans_to_jsonl(&looped_dump())).unwrap_err();
        assert!(err.message.contains("line 3"), "{}", err.message);
        assert!(err.message.contains("repeats line 1"), "{}", err.message);
        // The same span id in another trace is a different span.
        let other = SpanRecord {
            trace_id: 4,
            ..looped_dump()[0].clone()
        };
        let spans = vec![looped_dump()[0].clone(), other];
        assert_eq!(spans_from_jsonl(&spans_to_jsonl(&spans)).unwrap(), spans);
    }

    #[test]
    fn ring_evicts_oldest_and_limits() {
        let mut ring = TraceRing::new(3);
        for tick in 0..5 {
            ring.push(span(1, 0, "request", tick, 0));
        }
        let all = ring.records(None);
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].tick, 2, "oldest spans evicted first");
        assert_eq!(ring.records(Some(1))[0].tick, 4, "limit keeps the newest");
    }

    #[test]
    fn query_filters_and_ranks_by_tick_duration() {
        // Trace 1: one tick wide. Trace 2: two ticks (a failover shape).
        let mut spans = vec![span(1, 0, "request", 10, 0)];
        let root2 = SpanRecord {
            attrs: Vec::new(),
            ..span(2, 0, "request", 12, 0)
        };
        let kid2 = SpanRecord {
            trace_id: 2,
            span_id: span_id(2, root2.span_id, "failover", 0),
            parent: root2.span_id,
            name: "failover".into(),
            node: "router".into(),
            tick: 11,
            units: 0,
            attrs: Vec::new(),
        };
        spans.push(root2.clone());
        spans.push(kid2);
        let slowest = TraceQuery {
            slowest: Some(1),
            ..TraceQuery::default()
        }
        .run(&spans);
        assert_eq!(slowest.len(), 1);
        assert_eq!(slowest[0].trace_id, 2, "the two-tick trace ranks first");
        assert_eq!(slowest[0].tick_duration(), 1);

        let by_client = TraceQuery {
            client: Some("alice".into()),
            ..TraceQuery::default()
        }
        .run(&spans);
        assert_eq!(by_client.len(), 1, "trace 2's root has no client attr");
        assert_eq!(by_client[0].trace_id, 1);

        // Units whose sum overflows a `u64` saturate.
        let spans = vec![
            span(6, 0, "request", 1, u64::MAX),
            span(6, 5, "dispatch", 1, u64::MAX),
        ];
        let trees = collect_traces(&spans);
        assert_eq!(trees[0].total_units(), u64::MAX);
        // A saturated trace still outranks a one-unit trace of equal width.
        let mut spans = vec![span(9, 0, "request", 1, 1)];
        spans.extend(trees[0].spans.iter().cloned());
        let slowest = TraceQuery {
            slowest: Some(1),
            ..TraceQuery::default()
        }
        .run(&spans);
        assert_eq!(slowest[0].trace_id, 6);
    }

    #[test]
    fn rendering_indents_children_under_parents() {
        let root = span(7, 0, "request", 4, 0);
        let kid = SpanRecord {
            trace_id: 7,
            span_id: span_id(7, root.span_id, "dispatch", 0),
            parent: root.span_id,
            name: "dispatch".into(),
            node: "router".into(),
            tick: 4,
            units: 2,
            attrs: vec![("shard".into(), "1".into())],
        };
        let text = render_traces(&collect_traces(&[root, kid]));
        assert_eq!(
            text,
            "trace 0000000000000007 spans=2 ticks=4..4\n  \
             request @test tick=4 client=alice\n    \
             dispatch @router tick=4 units=2 shard=1\n"
        );

        // The repeated-id loop, as a live ring could still hand it over.
        let text = render_traces(&collect_traces(&looped_dump()));
        assert_eq!(text.lines().count(), 4, "{text}");
        // Two spans that parent each other: no root, both still drawn.
        let a = span(8, 11, "a", 2, 0);
        let b = SpanRecord {
            span_id: 11,
            parent: a.span_id,
            name: "b".into(),
            ..a.clone()
        };
        let text = render_traces(&collect_traces(&[a, b]));
        assert_eq!(
            text,
            "trace 0000000000000008 spans=2 ticks=2..2\n  \
             a @test tick=2 client=alice\n    \
             b @test tick=2 client=alice\n"
        );
    }
}
