//! Arbitrary bytes in the files the binaries read offline: the alert-rule
//! file (`hwm_monitor --rules`), span dumps (`hwm_traces --input`) and
//! profile traces (`profile`). Each case starts from a valid file and
//! applies one edit: every single-byte replacement from a fixed alphabet,
//! and every truncation. Each result is read the way its binary reads it
//! and must be accepted or refused with an error, never panic.

use hwm_bench::serve::fleet_rules;
use hwm_jsonio::Json;
use hwm_metrics::AlertRuleSet;
use hwm_trace::{render_traces, spans_from_jsonl, spans_to_jsonl, SpanRecord, TraceQuery};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Replacement bytes: JSON structure, digits, signs, escapes, whitespace
/// and one byte that is not UTF-8 on its own.
const ALPHABET: &[u8] = b"{}[]\":,0 9-.e\\n\n\xff";

/// Every one-edit variant of `valid`, with a label naming the edit.
fn variants(valid: &str) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let bytes = valid.as_bytes();
    let cuts = (0..bytes.len()).map(move |n| (format!("cut at {n}"), bytes[..n].to_vec()));
    let swaps = (0..bytes.len()).flat_map(move |i| {
        ALPHABET
            .iter()
            .filter(move |&&b| b != bytes[i])
            .map(move |&b| {
                let mut v = bytes.to_vec();
                v[i] = b;
                (format!("byte {i} -> {b:#04x}"), v)
            })
    });
    cuts.chain(swaps)
}

/// Runs `read` on every variant of `valid`. Bytes that are not UTF-8 are
/// refused before `read`, as `std::fs::read_to_string` refuses them in
/// each binary. Returns how many variants `read` accepted.
fn fuzz(what: &str, valid: &str, read: impl Fn(&str) -> Result<(), String>) -> usize {
    let mut accepted = 0;
    for (edit, bytes) in variants(valid) {
        let Ok(text) = String::from_utf8(bytes) else {
            continue;
        };
        match catch_unwind(AssertUnwindSafe(|| read(&text))) {
            Ok(Ok(())) => accepted += 1,
            Ok(Err(_)) => {}
            Err(_) => panic!("{what}: {edit} panicked on:\n{text}"),
        }
    }
    accepted
}

/// What `hwm_monitor --rules` does with the file's text.
fn read_rules(text: &str) -> Result<(), String> {
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    AlertRuleSet::from_json(&json)
        .map(drop)
        .map_err(|e| e.to_string())
}

/// What `hwm_traces --input FILE --slowest 5` does with the file's text.
fn read_spans(text: &str) -> Result<(), String> {
    let spans = spans_from_jsonl(text).map_err(|e| e.to_string())?;
    let query = TraceQuery {
        slowest: Some(5),
        ..TraceQuery::default()
    };
    render_traces(&query.run(&spans));
    Ok(())
}

/// What `profile` does with each trace file's text.
fn read_profile(text: &str) -> Result<(), String> {
    hwm_trace::parse_jsonl(text)
        .map(drop)
        .map_err(|e| e.to_string())
}

fn span(trace_id: u64, span_id: u64, parent: u64, name: &str, units: u64) -> SpanRecord {
    SpanRecord {
        trace_id,
        span_id,
        parent,
        name: name.into(),
        node: "router".into(),
        tick: 4,
        units,
        attrs: vec![("client".into(), "fab".into())],
    }
}

#[test]
fn alert_rule_files_parse_or_are_refused() {
    let mut valid = String::new();
    fleet_rules().to_json().write_compact(&mut valid);
    assert_eq!(read_rules(&valid), Ok(()));
    let accepted = fuzz("rules", &valid, read_rules);
    assert!(accepted > 0, "some one-byte edits leave a valid rule set");
}

#[test]
fn span_dumps_parse_or_are_refused() {
    let tree = vec![
        span(1, 10, 0, "request", 0),
        span(1, 11, 10, "dispatch", 2),
        span(2, 20, 0, "request", 1),
    ];
    // Root R, child X of R, then R's id again with X as its parent.
    let looped = vec![
        span(3, 30, 0, "request", 0),
        span(3, 31, 30, "dispatch", 0),
        span(3, 30, 31, "request", 0),
    ];
    // Two spans that parent each other, so the trace has no root.
    let cycle = vec![span(4, 40, 41, "a", 0), span(4, 41, 40, "b", 0)];
    // Units whose sum overflows a `u64`, beside a second trace so that
    // `--slowest` compares totals.
    let overflow = vec![
        span(5, 50, 0, "request", u64::MAX),
        span(5, 51, 50, "dispatch", u64::MAX),
        span(6, 60, 0, "request", 1),
    ];

    let err = read_spans(&spans_to_jsonl(&looped)).unwrap_err();
    assert!(err.contains("line 3"), "{err}");
    fuzz("looped", &spans_to_jsonl(&looped), read_spans);
    for (what, spans) in [("tree", tree), ("cycle", cycle), ("overflow", overflow)] {
        let valid = spans_to_jsonl(&spans);
        assert_eq!(read_spans(&valid), Ok(()), "{what}");
        let accepted = fuzz(what, &valid, read_spans);
        assert!(
            accepted > 0,
            "{what}: some one-byte edits leave a valid dump"
        );
    }
}

#[test]
fn profile_traces_parse_or_are_refused() {
    let valid = concat!(
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
    assert_eq!(read_profile(valid), Ok(()));
    let accepted = fuzz("profile", valid, read_profile);
    assert!(accepted > 0, "some one-byte edits leave a valid trace");
}
