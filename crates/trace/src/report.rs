//! Reading traces back: the JSONL parser behind the `profile` summary
//! binary and the golden schema tests.

use crate::summary::{CounterRow, GaugeAgg, GaugeRow, RunInfo, SpanRow, Summary};
use hwm_jsonio::{FieldError, Json, StrictObj};

/// One parsed `*.jsonl` trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFile {
    /// The `run` header, when present.
    pub run: Option<RunInfo>,
    /// Every span/counter/gauge line, re-sorted into summary order.
    pub summary: Summary,
}

/// A duration field written in milliseconds, read back in nanoseconds.
fn ms_field(f: &mut StrictObj<'_>, name: &str) -> Result<u64, FieldError> {
    let ms = f.field(name)?.as_f64().ok_or_else(|| f.ill_typed(name, "a number"))?;
    Ok((ms * 1e6).round().max(0.0) as u64)
}

/// Parses a JSONL trace produced by [`Summary::to_jsonl`].
///
/// Strict about the schema: each line is read through one [`StrictObj`],
/// `type` first and then that record type's fields, so unknown `type`
/// values and unknown, missing, ill-typed and duplicated fields are all
/// errors, as are schema versions newer than [`crate::SCHEMA_VERSION`].
/// Tolerant about ordering and blank lines.
///
/// # Errors
///
/// Returns an error naming the first offending line.
pub fn parse_jsonl(text: &str) -> Result<TraceFile, FieldError> {
    let mut run = None;
    let mut summary = Summary::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        parse_line(line, &mut run, &mut summary)
            .map_err(|e| FieldError::new(format!("line {}: {}", i + 1, e.message)))?;
    }
    summary.spans.sort_by(|a, b| a.path.cmp(&b.path));
    summary
        .counters
        .sort_by(|a, b| (&a.path, &a.name).cmp(&(&b.path, &b.name)));
    summary
        .gauges
        .sort_by(|a, b| (&a.name, a.agg.as_str()).cmp(&(&b.name, b.agg.as_str())));
    Ok(TraceFile { run, summary })
}

/// Reads one non-blank line into `run` or `summary`.
fn parse_line(
    line: &str,
    run: &mut Option<RunInfo>,
    summary: &mut Summary,
) -> Result<(), FieldError> {
    let j = Json::parse(line).map_err(|e| FieldError::new(e.to_string()))?;
    let mut f = StrictObj::new(&j, "trace record")?;
    match f.string("type")?.as_str() {
        "run" => {
            let schema: u64 = f.uint("schema")?;
            if schema > crate::SCHEMA_VERSION {
                return Err(FieldError::new(format!(
                    "schema version {schema} is newer than supported {}",
                    crate::SCHEMA_VERSION
                )));
            }
            *run = Some(RunInfo {
                experiment: f.string("experiment")?,
                seed: f.uint("seed")?,
                jobs: f.uint("jobs")?,
                wall_ns: ms_field(&mut f, "wall_ms")?,
            });
        }
        "span" => {
            let path = f.string("path")?;
            summary.spans.push(SpanRow {
                depth: path.matches(crate::PATH_SEP).count(),
                calls: f.uint("calls")?,
                total_ns: ms_field(&mut f, "total_ms")?,
                self_ns: ms_field(&mut f, "self_ms")?,
                path,
            });
        }
        "counter" => summary.counters.push(CounterRow {
            path: f.string("path")?,
            name: f.string("name")?,
            value: f.uint("value")?,
        }),
        "gauge" => {
            let agg = f.string("agg")?;
            summary.gauges.push(GaugeRow {
                name: f.string("name")?,
                agg: GaugeAgg::parse(&agg)
                    .ok_or_else(|| FieldError::new(format!("unknown gauge agg {agg:?}")))?,
                value: f.uint("value")?,
            });
        }
        other => return Err(FieldError::new(format!("unknown record type {other:?}"))),
    }
    f.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Summary, RunInfo) {
        let summary = Summary {
            spans: vec![SpanRow {
                path: "exp/phase".into(),
                depth: 1,
                calls: 4,
                total_ns: 2_000_000,
                self_ns: 1_000_000,
            }],
            counters: vec![CounterRow {
                path: "exp".into(),
                name: "items".into(),
                value: 9,
            }],
            gauges: vec![GaugeRow {
                name: "peak".into(),
                agg: GaugeAgg::Max,
                value: 3,
            }],
        };
        let info = RunInfo {
            experiment: "exp".into(),
            seed: 1,
            jobs: 4,
            wall_ns: 5_000_000,
        };
        (summary, info)
    }

    #[test]
    fn jsonl_round_trips() {
        let (summary, info) = sample();
        let text = summary.to_jsonl(&info);
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.run.as_ref(), Some(&info));
        assert_eq!(parsed.summary, summary);
        // Re-rendering the parsed file gives the same bytes.
        assert_eq!(parsed.summary.to_jsonl(&info), text);
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        let bad = "{\"type\":\"span\"}\n";
        let err = parse_jsonl(bad).unwrap_err();
        assert!(err.message.contains("line 1"), "{err}");
        let unknown = "{\"type\":\"mystery\"}\n";
        assert!(parse_jsonl(unknown).is_err());
        let future = "{\"type\":\"run\",\"schema\":999,\"experiment\":\"x\",\"seed\":0,\"jobs\":1,\"wall_ms\":1.0}\n";
        let err = parse_jsonl(future).unwrap_err();
        assert!(err.message.contains("schema"), "{err}");
    }

    /// Each span line below breaks the schema in one way, on line 2 of a
    /// file whose other lines are [`Summary::to_jsonl`] output.
    #[test]
    fn span_lines_off_schema_are_refused_naming_the_line() {
        let (summary, info) = sample();
        let good = summary.to_jsonl(&info);
        let header = good.lines().next().unwrap();
        let span = r#"{"type":"span","path":"exp/phase","calls":4,"total_ms":2.0,"self_ms":1.0}"#;
        assert!(good.contains(span), "{good}");
        for (line, want) in [
            (
                r#"{"type":"span","path":"exp/phase","calls":4,"total_ms":2.0,"self_ms":1.0,"extra":1}"#,
                "line 2: trace record has unknown field \"extra\"",
            ),
            (
                r#"{"type":"span","path":"exp/phase","calls":4,"calls":5,"total_ms":2.0,"self_ms":1.0}"#,
                "line 2: trace record has duplicate field \"calls\"",
            ),
            (
                r#"{"type":"span","path":"exp/phase","calls":4,"total_ms":"2.0","self_ms":1.0}"#,
                "line 2: trace record field \"total_ms\" must be a number",
            ),
        ] {
            let err = parse_jsonl(&format!("{header}\n{line}\n")).unwrap_err();
            assert_eq!(err.message, want, "{line}");
        }
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let text = "\n{\"type\":\"counter\",\"path\":\"p\",\"name\":\"n\",\"value\":1}\n\n";
        let parsed = parse_jsonl(text).unwrap();
        assert_eq!(parsed.summary.counter("p", "n"), Some(1));
        assert!(parsed.run.is_none());
    }
}
