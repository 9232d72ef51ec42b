//! Uniform per-binary run harness: flags, tracing and trace output.
//!
//! Every bench binary wraps its work in a [`BenchRun`]:
//!
//! ```no_run
//! let run = hwm_bench::run::BenchRun::start("table1");
//! // ... compute and print the table, using run.seed() / run.jobs() ...
//! run.finish();
//! ```
//!
//! `start` parses the uniform flags (`--seed N`, `--jobs N`, `--profile`,
//! `--trace-out PATH`; a malformed number exits 2), enables trace
//! collection when profiling was requested and opens the run's root span
//! (named after the experiment, so every span path in the trace is rooted
//! at the binary name). `finish` closes the root span, writes the JSONL
//! trace to `--trace-out` and prints the per-phase breakdown to stderr
//! under `--profile` — stderr so the table on stdout stays byte-identical.
//! A run writes no file that no flag asked for.

use hwm_trace::{RunInfo, SpanGuard, Summary};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// One bench binary's run: parsed flags plus the open root span.
pub struct BenchRun {
    experiment: &'static str,
    seed: u64,
    jobs: usize,
    profile: bool,
    trace_out: Option<PathBuf>,
    root: Option<SpanGuard>,
    start: Instant,
}

impl BenchRun {
    /// Parses the uniform flags and starts the run clock. `experiment` is
    /// the binary name; it becomes the root span and the trace header's
    /// experiment.
    pub fn start(experiment: &'static str) -> BenchRun {
        let seed: u64 = crate::num_arg("--seed").unwrap_or(2024);
        let jobs = crate::parallel::jobs_from_args();
        let profile = crate::flag_present("--profile");
        let trace_out = crate::arg_value("--trace-out").map(PathBuf::from);
        let tracing = profile || trace_out.is_some();
        if tracing {
            hwm_trace::reset();
            hwm_trace::set_enabled(true);
        }
        let root = tracing.then(|| hwm_trace::span(experiment));
        BenchRun {
            experiment,
            seed,
            jobs,
            profile,
            trace_out,
            root,
            start: Instant::now(),
        }
    }

    /// Master seed of the run (`--seed`, default 2024).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Worker threads to use (`--jobs`, default: available parallelism).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Closes the run: root span, JSONL trace and the `--profile`
    /// breakdown. A trace that cannot be written warns to stderr but never
    /// aborts — the table on stdout still stands.
    pub fn finish(mut self) {
        if let Some(root) = self.root.take() {
            drop(root);
            let wall_ns = self.start.elapsed().as_nanos() as u64;
            let summary = hwm_trace::summary();
            hwm_trace::set_enabled(false);
            let info = RunInfo {
                experiment: self.experiment.to_string(),
                seed: self.seed,
                jobs: self.jobs as u64,
                wall_ns,
            };
            if let Some(path) = &self.trace_out {
                crate::write_artifact(path, "trace", summary.to_jsonl(&info));
            }
            if self.profile {
                eprint!("{}", phase_table(&summary, &info));
            }
        }
    }
}

/// The `--profile` breakdown: one row per span path with call counts,
/// total and self time and the share of the run's wall time each path's
/// total covers, then the gauges and the share the root spans account for.
fn phase_table(summary: &Summary, info: &RunInfo) -> String {
    let wall_ns = info.wall_ns.max(1);
    let ms = |ns: u64| format!("{:.2}", ns as f64 / 1e6);
    let share = |ns: u64| format!("{:.1}", 100.0 * ns as f64 / wall_ns as f64);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "per-phase breakdown — {} (seed {}, jobs {}, wall {:.1} ms)",
        info.experiment,
        info.seed,
        info.jobs,
        info.wall_ns as f64 / 1e6
    );
    let rows: Vec<Vec<String>> = summary
        .spans
        .iter()
        .map(|r| {
            vec![
                r.path.clone(),
                r.calls.to_string(),
                ms(r.total_ns),
                ms(r.self_ns),
                share(r.total_ns),
            ]
        })
        .collect();
    let header = ["phase", "calls", "total ms", "self ms", "% wall"];
    out.push_str(&crate::render_table(&header, &rows));
    if !summary.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        for g in &summary.gauges {
            let _ = writeln!(out, "  {} ({}) = {}", g.name, g.agg.as_str(), g.value);
        }
    }
    let roots: u64 = summary.spans.iter().filter(|r| r.depth == 0).map(|r| r.total_ns).sum();
    let _ = writeln!(out, "root spans account for {}% of wall time", share(roots));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwm_trace::SpanRow;

    #[test]
    fn phase_table_accounts_wall_time() {
        let span = |path: &str, depth, calls, total_ns, self_ns| SpanRow {
            path: path.into(),
            depth,
            calls,
            total_ns,
            self_ns,
        };
        let summary = Summary {
            spans: vec![
                span("t", 0, 1, 10_000_000, 4_000_000),
                span("t/synth", 1, 3, 6_000_000, 6_000_000),
            ],
            ..Summary::default()
        };
        let info = RunInfo {
            experiment: "t".into(),
            seed: 7,
            jobs: 2,
            wall_ns: 10_000_000,
        };
        let t = phase_table(&summary, &info);
        assert!(t.contains("t/synth      3"), "child rows carry full paths: {t}");
        assert!(t.contains("100.0"), "root must cover the wall: {t}");
        assert!(t.contains("root spans account for 100.0%"), "{t}");
    }
}
