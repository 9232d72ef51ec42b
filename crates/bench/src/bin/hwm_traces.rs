//! Trace query tool for the activation service and cluster.
//!
//! Reads a span dump and prints the matching traces as indented ASCII
//! span trees. Two sources:
//!
//! * `--input FILE` — a JSONL span dump written by `serve_bench
//!   --traces-out` or `cluster_bench --traces-out`.
//! * `--connect HOST:PORT` — a live server: one unthrottled,
//!   clock-neutral `traces` admin request against its span ring
//!   (`--limit N` caps it to the newest N spans).
//!
//! Filters match on the root span's attributes: `--client C`, `--ic IC`,
//! `--outcome O`. `--slowest N` keeps the N slowest traces by logical
//! tick-duration (ties: total units, then dump order). Everything is
//! deterministic — rendering a `--traces-out` dump from an in-process
//! run is golden-snapshot material (`results/traces.txt`).
//!
//! Usage: `hwm_traces (--input FILE | --connect HOST:PORT) [--limit N]
//!     [--client C] [--ic IC] [--outcome O] [--slowest N]`

use hwm_service::{Client, Request, Response, TcpClient};
use hwm_trace::{render_traces, spans_from_jsonl, SpanRecord, TraceQuery};

fn load_spans(
    input: Option<String>,
    connect: Option<String>,
    limit: Option<u64>,
) -> Result<Vec<SpanRecord>, String> {
    match (input, connect) {
        (Some(path), None) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {path}: {e}"))?;
            spans_from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
        }
        (None, Some(addr)) => {
            let mut client = TcpClient::connect(&addr)
                .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            match client
                .call(&Request::Traces {
                    client: "hwm_traces".into(),
                    limit,
                })
                .map_err(|e| format!("traces request to {addr} failed: {e}"))?
            {
                Response::Traces { spans } => Ok(spans),
                other => Err(format!("{addr} answered the traces request with {other:?}")),
            }
        }
        _ => Err("exactly one of --input FILE or --connect HOST:PORT is required".into()),
    }
}

fn main() {
    let input = hwm_bench::arg_value("--input");
    let connect = hwm_bench::arg_value("--connect");
    // `--limit` caps a live request; a dump is read whole.
    let limit = connect.as_ref().and_then(|_| hwm_bench::num_arg("--limit"));
    let query = TraceQuery {
        client: hwm_bench::arg_value("--client"),
        ic: hwm_bench::arg_value("--ic"),
        outcome: hwm_bench::arg_value("--outcome"),
        slowest: hwm_bench::num_arg("--slowest"),
    };
    hwm_bench::reject_unknown_args();
    let spans = match load_spans(input, connect, limit) {
        Ok(spans) => spans,
        Err(e) => {
            eprintln!("hwm_traces: {e}");
            std::process::exit(if e.contains("required") { 2 } else { 1 });
        }
    };
    let trees = query.run(&spans);
    // Stdout carries only the rendered trees (golden material); the
    // match summary goes to stderr.
    print!("{}", render_traces(&trees));
    eprintln!(
        "hwm_traces: {} trace(s) matched over {} span(s)",
        trees.len(),
        spans.len()
    );
}
