//! Tracing integration tests: the `--jobs`-invariance of the span tree and
//! the stability of the JSONL schema.
//!
//! These live in their own test binary: the trace store is process-wide,
//! and a separate process keeps the bench crate's other test binaries from
//! seeing this file's spans (or vice versa). Within the file, tests that
//! touch the store serialize on a mutex.

use hwm_netlist::CellLibrary;
use hwm_synth::iscas;
use hwm_trace::{CounterRow, GaugeAgg, GaugeRow, RunInfo, SpanRow, Summary};
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs the Table 1/2 pipeline under tracing and returns the summary.
fn traced_overhead_run(jobs: usize) -> Summary {
    hwm_trace::reset();
    hwm_trace::set_enabled(true);
    {
        let _root = hwm_trace::span("test_run");
        let profiles = iscas::small_benchmarks();
        let lib = CellLibrary::generic();
        hwm_bench::tables::overhead_rows(&profiles, &lib, 2024, jobs).expect("overhead pipeline");
    }
    hwm_trace::set_enabled(false);
    hwm_trace::summary()
}

#[test]
fn span_tree_and_counters_identical_across_jobs() {
    let _g = serial();
    // Warm the synthesis cache first so both traced runs see the same
    // hit/miss pattern (all hits) — in separate processes both would see
    // all misses; either way the pattern is jobs-independent.
    {
        let profiles = iscas::small_benchmarks();
        let lib = CellLibrary::generic();
        hwm_bench::tables::overhead_rows(&profiles, &lib, 2024, 2).expect("warm-up");
    }
    let serial_run = traced_overhead_run(1);
    let parallel_run = traced_overhead_run(4);
    assert!(
        !serial_run.spans.is_empty(),
        "the pipeline must record spans"
    );
    assert_eq!(
        serial_run.structural_digest(),
        parallel_run.structural_digest(),
        "span tree + counters must be byte-identical for --jobs 1 vs --jobs 4"
    );
    // The digest covers the deterministic side; the scheduling side landed
    // in gauges, where jobs 4 legitimately differs from jobs 1.
    assert_eq!(serial_run.gauge("parallel_peak_workers"), None, "jobs 1 never fans out");
    let peak = parallel_run.gauge("parallel_peak_workers").unwrap_or(0);
    assert!((1..=4).contains(&peak), "peak workers {peak} out of range");
}

#[test]
fn jsonl_schema_is_golden() {
    // Hand-built summary with fixed timings: the serialized bytes are the
    // schema contract. Changing them requires a SCHEMA_VERSION bump.
    let summary = Summary {
        spans: vec![
            SpanRow {
                path: "t".into(),
                depth: 0,
                calls: 1,
                total_ns: 2_000_000,
                self_ns: 500_000,
            },
            SpanRow {
                path: "t/inner".into(),
                depth: 1,
                calls: 3,
                total_ns: 1_500_000,
                self_ns: 1_500_000,
            },
        ],
        counters: vec![CounterRow {
            path: "t/inner".into(),
            name: "items".into(),
            value: 7,
        }],
        gauges: vec![GaugeRow {
            name: "peak".into(),
            agg: GaugeAgg::Max,
            value: 4,
        }],
    };
    let info = RunInfo {
        experiment: "t".into(),
        seed: 9,
        jobs: 2,
        wall_ns: 2_000_000,
    };
    let jsonl = summary.to_jsonl(&info);
    let expected = concat!(
        r#"{"type":"run","schema":1,"experiment":"t","seed":9,"jobs":2,"wall_ms":2.0}"#,
        "\n",
        r#"{"type":"span","path":"t","calls":1,"total_ms":2.0,"self_ms":0.5}"#,
        "\n",
        r#"{"type":"span","path":"t/inner","calls":3,"total_ms":1.5,"self_ms":1.5}"#,
        "\n",
        r#"{"type":"counter","path":"t/inner","name":"items","value":7}"#,
        "\n",
        r#"{"type":"gauge","name":"peak","agg":"max","value":4}"#,
        "\n",
    );
    assert_eq!(jsonl, expected, "JSONL schema v1 drifted");
    let parsed = hwm_trace::parse_jsonl(&jsonl).expect("own output must parse");
    assert_eq!(parsed.run.as_ref(), Some(&info));
    assert_eq!(parsed.summary, summary, "round trip must be lossless");
}

#[test]
fn trace_out_files_parse_and_merge() {
    let _g = serial();
    let first = traced_overhead_run(2);
    let info = RunInfo {
        experiment: "trace_test".into(),
        seed: 2024,
        jobs: 2,
        wall_ns: 1_000_000,
    };
    let reparsed = hwm_trace::parse_jsonl(&first.to_jsonl(&info)).expect("trace parses");
    assert_eq!(reparsed.summary, first);
    // Merging a trace with itself doubles spans/counters (profile binary).
    let mut merged = reparsed.summary.clone();
    merged.merge(&first);
    let root = merged.span("test_run").expect("root span present");
    assert_eq!(root.calls, 2 * first.span("test_run").unwrap().calls);
}
