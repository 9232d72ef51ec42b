//! Structured tracing and per-phase profiling for the metering workspace.
//!
//! The evaluation harness regenerates every table of the paper, but a
//! single wall-clock number cannot say whether ESPRESSO minimization, FSM
//! encoding, BFSM construction, lock-netlist synthesis or brute-force
//! batches dominate a run. This crate provides the measurement substrate
//! ("measure before optimizing" — the ROADMAP's north star is "as fast as
//! the hardware allows"):
//!
//! * **Hierarchical spans** ([`span`]) with monotonic timings. A span's
//!   *path* is the `/`-joined chain of enclosing span names, so the same
//!   code observed from two experiments aggregates separately.
//! * **Named counters** ([`counter`]) attributed to the current span path.
//!   Counters are *deterministic* quantities (call counts, cube counts,
//!   guesses): their totals must not depend on scheduling.
//! * **Named gauges** ([`gauge_add`] / [`gauge_max`]) for quantities that
//!   legitimately vary run to run (queue-wait nanoseconds, peak worker
//!   threads). Gauges are excluded from the determinism contract.
//! * A **thread-safe per-worker aggregator**: each thread accumulates
//!   into thread-local storage and merges into the process-wide store by
//!   span path whenever its span stack empties, so `--jobs 1` and
//!   `--jobs N` produce identical span trees and counter totals — only
//!   the timings differ. Worker threads inherit the spawning thread's
//!   span path via [`thread_scope`], which keeps paths independent of
//!   whether work ran inline or on a worker.
//!
//! Tracing is off by default and every instrumentation point is gated on
//! one relaxed atomic load, so the hot paths pay (almost) nothing until a
//! binary opts in with `--profile` / `--trace-out`.
//!
//! The offline workspace has no `tracing`/`metrics` crates; this is a
//! from-scratch implementation sized to the harness's needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributed;
mod report;
mod summary;

pub use distributed::{
    collect_traces, render_traces, span_id, spans_from_jsonl, spans_to_jsonl, SpanError,
    SpanRecord, TraceContext, TraceQuery, TraceRing, TraceScope, TraceTree,
};
pub use report::{parse_jsonl, TraceFile};
pub use summary::{CounterRow, GaugeAgg, GaugeRow, RunInfo, SpanRow, Summary};

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Version of the JSONL trace schema this crate writes (the `"schema"`
/// field of the `run` line). Bump on any incompatible change.
pub const SCHEMA_VERSION: u64 = 1;

/// Path separator in rendered span paths. Span names must not contain it.
pub const PATH_SEP: char = '/';

// ---------------------------------------------------------------------------
// global state
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

type Path = Vec<&'static str>;

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct SpanStat {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
}

#[derive(Debug, Default)]
struct Store {
    spans: HashMap<Path, SpanStat>,
    counters: HashMap<(Path, &'static str), u64>,
    gauge_sums: HashMap<&'static str, u64>,
    gauge_maxes: HashMap<&'static str, u64>,
}

impl Store {
    fn merge_from(&mut self, other: &mut Store) {
        for (path, stat) in other.spans.drain() {
            let e = self.spans.entry(path).or_default();
            e.calls += stat.calls;
            e.total_ns += stat.total_ns;
            e.self_ns += stat.self_ns;
        }
        for (key, v) in other.counters.drain() {
            *self.counters.entry(key).or_insert(0) += v;
        }
        for (name, v) in other.gauge_sums.drain() {
            *self.gauge_sums.entry(name).or_insert(0) += v;
        }
        for (name, v) in other.gauge_maxes.drain() {
            let e = self.gauge_maxes.entry(name).or_insert(0);
            *e = (*e).max(v);
        }
    }

    fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauge_sums.is_empty()
            && self.gauge_maxes.is_empty()
    }
}

fn global() -> &'static Mutex<Store> {
    static GLOBAL: OnceLock<Mutex<Store>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Store::default()))
}

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Local {
    base: Path,
    stack: Vec<Frame>,
    pending: Store,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

// ---------------------------------------------------------------------------
// control
// ---------------------------------------------------------------------------

/// Whether tracing is currently collecting.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off (process-wide). Flip *before* the first span
/// of interest opens; spans created while disabled record nothing even if
/// collection is enabled before they close.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Clears every recorded span, counter and gauge (the calling thread's
/// pending buffer included). Intended for tests and for resetting between
/// measured sections; call it only while no instrumented spans are open.
pub fn reset() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.pending = Store::default();
        l.stack.clear();
    });
    *global().lock().expect("trace store poisoned") = Store::default();
}

/// Merges the calling thread's pending buffer into the process-wide store.
/// Happens automatically whenever the thread's span stack empties and when
/// a [`thread_scope`] guard drops; call it manually only for long-lived
/// threads that never close their outermost span.
pub fn flush_thread() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !l.pending.is_empty() {
            let mut pending = std::mem::take(&mut l.pending);
            global().lock().expect("trace store poisoned").merge_from(&mut pending);
        }
    });
}

/// The current span path of this thread (inherited base plus open spans),
/// outermost first. Hand it to worker threads via [`thread_scope`] so work
/// fanned out by a parallel harness lands on the same path it would have
/// on the spawning thread.
pub fn current_path() -> Vec<&'static str> {
    LOCAL.with(|l| {
        let l = l.borrow();
        let mut p = l.base.clone();
        p.extend(l.stack.iter().map(|f| f.name));
        p
    })
}

// ---------------------------------------------------------------------------
// spans
// ---------------------------------------------------------------------------

/// RAII guard of an open span; records on drop. See [`span`].
#[must_use = "a span records when the guard drops — bind it with `let _span = ...`"]
pub struct SpanGuard {
    active: bool,
}

/// Opens a span named `name` (must not contain `/`) nested under the
/// thread's current span path. Timing starts now and ends when the
/// returned guard drops. When tracing is disabled this is a single atomic
/// load and the guard is inert.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: false };
    }
    debug_assert!(!name.contains(PATH_SEP), "span name {name:?} contains '/'");
    LOCAL.with(|l| {
        l.borrow_mut().stack.push(Frame {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    });
    SpanGuard { active: true }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let Some(frame) = l.stack.pop() else { return };
            let elapsed = frame.start.elapsed().as_nanos() as u64;
            let self_ns = elapsed.saturating_sub(frame.child_ns);
            if let Some(parent) = l.stack.last_mut() {
                parent.child_ns += elapsed;
            }
            let mut path = l.base.clone();
            path.extend(l.stack.iter().map(|f| f.name));
            path.push(frame.name);
            let stat = l.pending.spans.entry(path).or_default();
            stat.calls += 1;
            stat.total_ns += elapsed;
            stat.self_ns += self_ns;
            if l.stack.is_empty() {
                drop(l);
                flush_thread();
            }
        });
    }
}

// ---------------------------------------------------------------------------
// counters and gauges
// ---------------------------------------------------------------------------

/// Adds `delta` to the counter `name` attributed to the current span path.
/// Counters are for *deterministic* quantities: their per-path totals are
/// part of the harness's `--jobs`-invariance contract. Use a gauge for
/// anything timing- or scheduling-dependent.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let mut path = l.base.clone();
        path.extend(l.stack.iter().map(|f| f.name));
        *l.pending.counters.entry((path, name)).or_insert(0) += delta;
        if l.stack.is_empty() {
            drop(l);
            flush_thread();
        }
    });
}

/// Adds `delta` to the sum-aggregated gauge `name` (process-wide, not
/// path-attributed). Gauges carry scheduling-dependent quantities — they
/// are excluded from the determinism contract.
#[inline]
pub fn gauge_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    record_gauge(name, GaugeAgg::Sum, delta);
}

/// Raises the max-aggregated gauge `name` to at least `value`.
#[inline]
pub fn gauge_max(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    record_gauge(name, GaugeAgg::Max, value);
}

/// Folds one gauge record into this thread's pending buffer; callers have
/// already checked that collection is enabled.
fn record_gauge(name: &'static str, agg: GaugeAgg, value: u64) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        match agg {
            GaugeAgg::Sum => *l.pending.gauge_sums.entry(name).or_insert(0) += value,
            GaugeAgg::Max => {
                let e = l.pending.gauge_maxes.entry(name).or_insert(0);
                *e = (*e).max(value);
            }
        }
        if l.stack.is_empty() {
            drop(l);
            flush_thread();
        }
    });
}

// ---------------------------------------------------------------------------
// worker-thread scoping
// ---------------------------------------------------------------------------

/// Guard returned by [`thread_scope`]; restores the previous base path and
/// flushes the thread's pending buffer on drop.
pub struct ThreadScope {
    previous: Path,
}

/// Installs `base` as this thread's span path prefix, so spans opened here
/// aggregate exactly as if they had run inline on the thread that captured
/// `base` via [`current_path`]. Parallel harnesses call this at the top of
/// each worker; the guard must outlive every span the worker opens.
pub fn thread_scope(base: &[&'static str]) -> ThreadScope {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        debug_assert!(
            l.stack.is_empty(),
            "thread_scope must be installed before any span opens"
        );
        let previous = std::mem::replace(&mut l.base, base.to_vec());
        ThreadScope { previous }
    })
}

impl Drop for ThreadScope {
    fn drop(&mut self) {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.base = std::mem::take(&mut self.previous);
        });
        flush_thread();
    }
}

// ---------------------------------------------------------------------------
// summary extraction
// ---------------------------------------------------------------------------

/// Snapshot of everything recorded so far, merged across threads and
/// sorted by span path (deterministically). Open spans are not included —
/// close the root span before summarizing.
pub fn summary() -> Summary {
    flush_thread();
    let store = global().lock().expect("trace store poisoned");
    let mut spans: Vec<SpanRow> = store
        .spans
        .iter()
        .map(|(path, s)| SpanRow {
            path: path.join("/"),
            depth: path.len().saturating_sub(1),
            calls: s.calls,
            total_ns: s.total_ns,
            self_ns: s.self_ns,
        })
        .collect();
    spans.sort_by(|a, b| a.path.cmp(&b.path));
    let mut counters: Vec<CounterRow> = store
        .counters
        .iter()
        .map(|((path, name), v)| CounterRow {
            path: path.join("/"),
            name: name.to_string(),
            value: *v,
        })
        .collect();
    counters.sort_by(|a, b| (&a.path, &a.name).cmp(&(&b.path, &b.name)));
    let mut gauges: Vec<GaugeRow> = store
        .gauge_sums
        .iter()
        .map(|(n, v)| GaugeRow {
            name: n.to_string(),
            agg: GaugeAgg::Sum,
            value: *v,
        })
        .chain(store.gauge_maxes.iter().map(|(n, v)| GaugeRow {
            name: n.to_string(),
            agg: GaugeAgg::Max,
            value: *v,
        }))
        .collect();
    gauges.sort_by(|a, b| (&a.name, a.agg.as_str()).cmp(&(&b.name, b.agg.as_str())));
    Summary {
        spans,
        counters,
        gauges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The trace store is process-wide; tests that mutate it take this
    /// lock so `cargo test`'s parallel runner cannot interleave them.
    fn serial() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = serial();
        set_enabled(false);
        reset();
        {
            let _s = span("noop");
            counter("n", 5);
            gauge_add("g", 1);
        }
        let s = summary();
        assert!(s.spans.is_empty() && s.counters.is_empty() && s.gauges.is_empty());
    }

    #[test]
    fn nested_spans_split_self_and_total() {
        let _g = serial();
        set_enabled(true);
        reset();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        set_enabled(false);
        let s = summary();
        let outer = s.span("outer").expect("outer recorded");
        let inner = s.span("outer/inner").expect("inner recorded");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert_eq!(inner.depth, 1);
        // outer's total covers inner; outer's self excludes it.
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns + 1_000_000);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn counters_attribute_to_the_open_path() {
        let _g = serial();
        set_enabled(true);
        reset();
        {
            let _a = span("a");
            counter("hits", 2);
            {
                let _b = span("b");
                counter("hits", 3);
            }
            counter("hits", 1);
        }
        set_enabled(false);
        let s = summary();
        assert_eq!(s.counter("a", "hits"), Some(3));
        assert_eq!(s.counter("a/b", "hits"), Some(3));
    }

    #[test]
    fn repeated_spans_accumulate_calls() {
        let _g = serial();
        set_enabled(true);
        reset();
        for _ in 0..5 {
            let _s = span("tick");
        }
        set_enabled(false);
        let s = summary();
        assert_eq!(s.span("tick").map(|r| r.calls), Some(5));
    }

    #[test]
    fn worker_threads_merge_by_inherited_path() {
        let _g = serial();
        set_enabled(true);
        reset();
        {
            let _root = span("root");
            let base = current_path();
            assert_eq!(base, vec!["root"]);
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    let base = base.clone();
                    scope.spawn(move || {
                        let _scope = thread_scope(&base);
                        let _s = span("work");
                        counter("items", 1);
                    });
                }
            });
        }
        set_enabled(false);
        let s = summary();
        assert_eq!(s.span("root/work").map(|r| r.calls), Some(3));
        assert_eq!(s.counter("root/work", "items"), Some(3));
        // The parent's self time must not be charged for worker time (the
        // workers are not on the parent's stack).
        assert_eq!(s.span("root").map(|r| r.calls), Some(1));
    }

    #[test]
    fn gauges_aggregate_by_kind() {
        let _g = serial();
        set_enabled(true);
        reset();
        gauge_add("wait_ns", 5);
        gauge_add("wait_ns", 7);
        gauge_max("peak", 3);
        gauge_max("peak", 2);
        set_enabled(false);
        let s = summary();
        assert_eq!(s.gauge("wait_ns"), Some(12));
        assert_eq!(s.gauge("peak"), Some(3));
    }

    #[test]
    fn structural_digest_ignores_timings() {
        let _g = serial();
        set_enabled(true);
        reset();
        {
            let _a = span("a");
            std::thread::sleep(std::time::Duration::from_millis(1));
            counter("k", 2);
        }
        let first = summary();
        reset();
        {
            let _a = span("a");
            std::thread::sleep(std::time::Duration::from_millis(3));
            counter("k", 2);
        }
        set_enabled(false);
        let second = summary();
        assert_ne!(
            first.span("a").map(|r| r.total_ns),
            second.span("a").map(|r| r.total_ns).map(|n| n + 1),
            "sanity: timings exist"
        );
        assert_eq!(first.structural_digest(), second.structural_digest());
    }
}
