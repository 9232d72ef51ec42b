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

use hwm_trace::{RunInfo, SpanGuard};
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
                eprint!("{}", summary.phase_table(&info));
            }
        }
    }
}
