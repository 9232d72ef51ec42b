//! Uniform per-binary run harness: flags, tracing, trace output, metadata.
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
//! `--trace-out PATH`, `--cache-stats`; a malformed number exits 2), enables trace collection when
//! profiling was requested and opens the run's root span (named after the
//! experiment, so every span path in the trace is rooted at the binary
//! name). `finish` closes the root span, folds the synthesis-cache
//! counters into the trace summary as `set` gauges, records the
//! `bench_meta.json` entry (a view over that summary), writes the JSONL
//! trace to `--trace-out` and prints the per-phase breakdown to stderr
//! under `--profile` — stderr so the table on stdout stays byte-identical.

use crate::{cache, meta};
use hwm_trace::{GaugeAgg, RunInfo, SpanGuard};
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
    /// the binary name; it becomes the root span and the key of the run's
    /// `bench_meta.json` entry.
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

    /// Closes the run: root span, cache-counter gauges, metadata entry,
    /// JSONL trace and the `--profile` breakdown. Filesystem failures warn
    /// to stderr but never abort — a read-only checkout must still print
    /// its table.
    pub fn finish(mut self) {
        drop(self.root.take());
        let wall_ns = self.start.elapsed().as_nanos() as u64;
        let stats = cache::stats();
        hwm_trace::record_gauge("cache_hits", GaugeAgg::Set, stats.hits);
        hwm_trace::record_gauge("cache_misses", GaugeAgg::Set, stats.misses);
        let summary = hwm_trace::summary();
        hwm_trace::set_enabled(false);
        let info = RunInfo {
            experiment: self.experiment.to_string(),
            seed: self.seed,
            jobs: self.jobs as u64,
            wall_ns,
        };
        meta::record(&info, &summary);
        if let Some(path) = &self.trace_out {
            let write = || -> std::io::Result<()> {
                if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                    std::fs::create_dir_all(parent)?;
                }
                std::fs::write(path, summary.to_jsonl(&info))
            };
            if let Err(e) = write() {
                eprintln!("warning: could not write trace to {}: {e}", path.display());
            }
        }
        if self.profile {
            eprint!("{}", summary.phase_table(&info));
        }
        crate::report_cache_stats();
    }
}
