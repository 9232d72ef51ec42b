//! Summarizes JSONL traces captured with `--trace-out`: per-run headers
//! plus one merged top-N phase table across every trace given.
//!
//! Usage: `cargo run --release -p hwm-bench --bin profile \
//!     [--top N] [PATH ...]`
//!
//! With no paths, reads every `results/trace/*.jsonl` (the layout
//! `PROFILE=1 ./regen_results.sh` produces). Exits non-zero when a trace
//! fails to parse — a malformed trace is a bug, not something to skim over
//! — and 2 on a flag other than `--top`.

use hwm_trace::Summary;
use std::path::PathBuf;

/// The trace paths given on the command line, or every
/// `results/trace/*.jsonl` when none is.
fn trace_paths(named: Vec<String>) -> Vec<PathBuf> {
    if !named.is_empty() {
        return named.into_iter().map(PathBuf::from).collect();
    }
    let mut found: Vec<PathBuf> = std::fs::read_dir("results/trace")
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    found.sort();
    found
}

fn main() {
    let top: usize = hwm_bench::num_arg("--top").unwrap_or(20);
    let paths = trace_paths(hwm_bench::positional_args());
    if paths.is_empty() {
        eprintln!("no traces: pass paths or run binaries with --trace-out results/trace/<name>.jsonl");
        std::process::exit(1);
    }
    let mut merged = Summary::default();
    let mut total_wall_ns: u64 = 0;
    let mut runs = 0u64;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        let trace = match hwm_trace::parse_jsonl(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        match &trace.run {
            Some(info) => {
                println!(
                    "{}: {} (seed {}, jobs {}, wall {:.1} ms, {} span paths)",
                    path.display(),
                    info.experiment,
                    info.seed,
                    info.jobs,
                    info.wall_ns as f64 / 1e6,
                    trace.summary.spans.len()
                );
                total_wall_ns += info.wall_ns;
            }
            None => println!("{}: (no run header)", path.display()),
        }
        runs += 1;
        merged.merge(&trace.summary);
    }
    // Top N phases by self time: where the wall clock actually went.
    let total = merged.spans.len();
    merged
        .spans
        .sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
    merged.spans.truncate(top);
    let wall_ns = total_wall_ns.max(1);
    let rows: Vec<Vec<String>> = merged
        .spans
        .iter()
        .map(|r| {
            vec![
                r.path.clone(),
                r.calls.to_string(),
                format!("{:.2}", r.total_ns as f64 / 1e6),
                format!("{:.2}", r.self_ns as f64 / 1e6),
                format!("{:.1}", 100.0 * r.self_ns as f64 / wall_ns as f64),
            ]
        })
        .collect();
    println!();
    println!(
        "top {} of {} phases by self time across {} runs ({:.1} ms total wall)",
        merged.spans.len(),
        total,
        runs,
        total_wall_ns as f64 / 1e6
    );
    print!(
        "{}",
        hwm_bench::render_table(&["phase", "calls", "total ms", "self ms", "% wall"], &rows)
    );
}
