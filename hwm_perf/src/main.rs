//! `hwm_perf` — the repository benchmark: one command that runs four
//! workloads against the public APIs of `hwm-metering`, `hwm-attacks`,
//! `hwm-service` and `hwm-cluster`, prints every end-to-end metric with
//! its unit and spread, checks every output, and exits 1 if any check
//! fails.
//!
//! # Running it
//!
//! From the repository root (the package has its own workspace, so edits
//! to the repository's crates — `hwm-bench` included — cannot change what
//! it measures):
//!
//! ```text
//! cargo run --release --manifest-path hwm_perf/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds N] [--trace 0|1] [--repeats N]
//!     [--json PATH] [--layers] [--trace-out PATH] [--check PATH] [--curve] [--quick]
//! ```
//!
//! Each workload gets `--seconds` (default 20) of measuring per repeat:
//! passes of a fixed size run until the next one would overrun it, with a
//! minimum of one (`table3_15ff`) or two (the serving workloads, so every
//! run compares passes against each other). `--repeats N` repeats that N
//! times and pools the passes. Every metric is the median over passes;
//! stdout shows its quartiles, range and sample count too, and `--json`
//! writes every sample. The last line of stdout is one JSON object,
//! `{"correct", "attempted", "failed", "metrics"}`, holding the gated
//! end-to-end medians — or, with `--trace 1` / `--layers`, the per-layer
//! metrics. `--check hwm_perf/baseline.json` exits 1 when a gated median
//! is worse than the checked-in baseline by more than its bound. Load
//! comes from this one process: at most two generator threads and one
//! client connection (the cluster's replication links belong to the
//! system under test). The process pins itself, and so the system under
//! test, to one CPU (see [`pin`] for why). Journals go to `.hwm_perf_tmp/`
//! under the working directory and are removed.
//!
//! # Workloads
//!
//! * `table3_15ff` — Table 3 row "15": 5 modules, b = 3..8, 100 runs per
//!   cell over 4 lock instances, cap 2·10⁶ guesses, each job seeded as the
//!   repository's sweep seeds it, so every cell must equal
//!   `results/table3.txt`. `--seed` permutes the job order only. It is the
//!   paper's headline kernel and runs no service code: about half of it is
//!   lock construction (set-up), half guess stepping (run).
//! * `activate_15ff` — the honest fab mix on a 15-FF lock (5 modules, one
//!   black hole, remote disable on) over loopback TCP with a group-commit
//!   file journal: 2 fabs × 2,000 dies, each registered and unlocked,
//!   every 4th with a wrong guess first, every 8th then remotely disabled,
//!   each fab ending with a status read (about 9,500 requests), sent
//!   closed loop over one connection. A key costs about 150 µs here, over
//!   90% of the handler's time on an unlock, so key computation shows
//!   here and nowhere else. (At 18 FF a key costs about 2.5 ms and
//!   searches eight times as many states; on a shared two-vCPU host that
//!   workload's medians moved about 1.6 times as much between runs.) The
//!   last fifth of the budget is one open-loop pass at 2,500 req/s (about
//!   30% of capacity) whose unlock latency, measured from the intended
//!   send time, shows queueing behind slow keys that a closed loop hides;
//!   it is printed as a diagnostic, since its tail moves by several times
//!   between runs.
//! * `register_18ff` — 40,000 registrations on an 18-FF lock (about one
//!   duplicate readout per 1,000 dies) and the same journal, with a
//!   `Status{ic}` read after every 4th: 50,000 requests, serial, one
//!   connection. No key computation: the wire codec, the socket round
//!   trip, the throttle, the registry append and the group-commit fsync
//!   do all the work, so a journal, wire or instrumentation change shows
//!   here and a key-computation change must not.
//! * `cluster_2x1` — the first 20,000 `register_18ff` requests through a
//!   `ClusterRouter` over 2 shards × (1 leader + 1 follower), in-memory
//!   registries, 64 virtual nodes, replication window 1, every replica
//!   behind a `RepHost` reached over a `TcpLink`; the client reaches the
//!   router through a `LocalClient`. Against `register_18ff`, the
//!   difference is routing, replication and link cost.
//!
//! Every serving pass builds a fresh server (or cluster): its set-up builds
//! the lock, starts the server on a fresh journal, connects, and sends a
//! warm-up register + unlock of an extra die, which builds the lazy key
//! table (about 80 ms at 18 FF) before anything is timed.
//!
//! # End-to-end metrics
//!
//! An operation is one request on the serving workloads and one
//! brute-force attack (fabricate a chip, guess until it unlocks or the
//! cap) on `table3_15ff`.
//!
//! | metric | unit | better | gated | meaning |
//! |---|---|---|---|---|
//! | `setup_s` | s | lower | 25% | building the system under test: the 24 locks on `table3_15ff`; lock, server or cluster, connection and warm-up on the serving workloads |
//! | `throughput` | op/s | higher | 25% | operations per second of one pass after set-up (closed loop) |
//! | `run_s` | s | lower | no | one pass after set-up: the 2,400 attacks; one pass of the stream |
//! | `p50_ms` | ms | lower | no | nearest-rank per-operation latency: attack time on `table3_15ff`; unlock round trip on `activate_15ff`; request round trip on `register_18ff` and `cluster_2x1`. On the serving workloads each tenth of a pass gives one sample |
//! | `p99_ms` | ms | lower | no | as `p50_ms`, one sample per pass, with the sample count printed |
//!
//! A gated metric's bound is the share of the baseline median by which it
//! may worsen before it counts as a regression (`BENCHMARK.json` records
//! the same bounds). The others are reported with their spread but not
//! gated: `run_s` carries the same information as `throughput`, and the
//! latencies do not repeat well enough (see [`report::END_TO_END`] for
//! their measured spread).
//!
//! `failed_share` (failed over attempted operations, expected 0) is
//! printed per workload and carried as `failed`/`attempted` on the last
//! line. Expected protocol outcomes — wrong guesses, duplicate readouts,
//! black-hole dies — are not failures. Failures are: a transport error or
//! missing reply; an issued key that does not unlock its die
//! (`Chip::apply_key`, then `is_unlocked`); a journal whose file bytes or
//! digest differ from the reference (the first pass on `activate_15ff`,
//! the in-process single-node oracle on `register_18ff`); a reply that
//! differs from that reference; a follower whose journal differs from its
//! leader's after `sync_replication`; a Table 3 cell that differs from
//! the golden row.
//!
//! # Per-layer metrics and the layer table
//!
//! With `--layers` (or `--trace 1`) the untraced passes are followed by a
//! replay of every workload's inputs through each layer's public entry
//! point under `hwm_trace` spans (see [`layers`]); `--trace-out` writes the
//! span summary as JSONL. Each workload's table gives calls per pass, time
//! per call, share of the end-to-end pass time, and the residual (end to
//! end minus the summed layers). Which end-to-end metric each layer should
//! move, on which workload:
//!
//! * core — `core.designer_new_ms` (`Designer::new`): `setup_s` everywhere
//!   (on `table3_15ff` it is about half the row's wall time);
//!   `core.fabricate_us` (`Foundry::fabricate_one`) and `core.chip_step_ns`
//!   / `core.chip_checks_ns` (`Chip::step`, `is_unlocked`/`is_trapped`):
//!   `throughput` and `p50_ms` on `table3_15ff` only;
//!   `core.issue_key_us` and `core.key_len`: `p50_ms` and `throughput` on
//!   `activate_15ff` only; `core.key_table_ms` (the first `issue_key`):
//!   `setup_s` on the serving workloads; `core.parse_readout_us`
//!   (`Bfsm::parse_readout`): the register and activate workloads.
//! * attacks — `attacks.input_ns` (the per-guess `StdRng` draw and `Bits`
//!   collect, as `brute_force` does them): `throughput` on `table3_15ff`;
//!   `attacks.guesses` and `attacks.unlock_share` are exact counts that a
//!   speed change must leave alone.
//! * service — `service.wire_encode_us` / `service.wire_decode_us`
//!   (`to_json` + `encode_frame`, `FrameDecoder::next_frame` +
//!   `from_json`, per request and reply), `service.socket_us` (TCP round
//!   trip minus handler minus codec), `service.throttle_ns`
//!   (`RateLimiter::check`), `service.registry_append_us` (registry
//!   mutations on a fresh group-commit journal, in oracle order),
//!   `service.journal_bytes_per_event`, `service.commits_per_1k_events`,
//!   `service.handle_us` (`ActivationServer::handle`) and
//!   `service.instrumentation_us` (handle with live metrics minus handle
//!   without): `throughput` and `p50_ms` on `register_18ff`.
//! * cluster — `cluster.route_ns` (`HashRing::route`),
//!   `cluster.replication_us` (router over `LocalLink`s minus single-node
//!   handle), `cluster.link_us` (router over TCP links minus router over
//!   `LocalLink`s): `throughput` and `p50_ms` on `cluster_2x1` only.
//!
//! Predicted non-effects: the chip and attack layers move nothing on the
//! serving workloads; `issue_key` moves nothing on `register_18ff` or
//! `cluster_2x1`; the cluster layers move nothing outside `cluster_2x1`.
//!
//! # Diagnostics
//!
//! `--curve` sweeps `activate_15ff` open loop at 1,250, 2,500, 3,750,
//! 5,000 and 6,250 req/s and prints unlock p50/p99, generator lateness and
//! a backlog
//! flag per step (the last tenth's p50 above twice the first tenth's, or
//! under 98% of the offered rate achieved), then the knee. It is not a
//! gated metric: the knee moves between runs. `--quick` shrinks every
//! workload (row "12" at b = 3, 4; a 12-FF served lock; a few dozen
//! requests) for tests: every check stays on, the numbers mean nothing.
//!
//! Its tests are this package's own: `cargo test --manifest-path
//! hwm_perf/Cargo.toml` (the repository workspace does not include it).

mod cli;
mod cluster;
mod layers;
mod pin;
mod report;
mod serving;
mod stats;
mod table3;

use report::WorkloadResult;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Runs `pass` (with its index) until the next pass would end past
/// `deadline` — predicted from the last pass's duration — and at least
/// `min_passes` times.
pub fn run_passes(deadline: Instant, min_passes: usize, mut pass: impl FnMut(usize)) {
    let mut n = 0;
    loop {
        let t = Instant::now();
        pass(n);
        n += 1;
        if n >= min_passes && Instant::now() + t.elapsed() > deadline {
            return;
        }
    }
}

fn run_workload(
    name: &str,
    quick: bool,
    seconds: Duration,
    seed: u64,
    tmp: &Path,
) -> WorkloadResult {
    match name {
        "table3_15ff" => table3::run(quick, seconds, seed),
        "activate_15ff" => serving::activate(quick, seconds, seed, tmp),
        "register_18ff" => serving::register(quick, seconds, seed, tmp),
        "cluster_2x1" => cluster::run(quick, seconds, seed),
        other => unreachable!("the parser admits only known workloads, not {other}"),
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run(opts: &cli::Options, tmp: &Path) -> i32 {
    let started = Instant::now();
    let seconds = Duration::from_secs(opts.seconds);
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let pinned = match pin::to_first_cpu() {
        Ok(cpu) => format!("pinned to CPU {cpu}"),
        Err(e) => format!("not pinned ({e})"),
    };
    println!(
        "hwm_perf: seed {}, {} s per workload x {} repeat(s), {parallelism} CPU(s) available, {pinned}{}",
        opts.seed,
        opts.seconds,
        opts.repeats,
        if opts.quick { ", QUICK sizes (numbers meaningless)" } else { "" }
    );
    let mut results: Vec<WorkloadResult> = Vec::new();
    for &name in &opts.workloads {
        let mut result = run_workload(name, opts.quick, seconds, opts.seed, tmp);
        for _ in 1..opts.repeats {
            result.absorb(run_workload(name, opts.quick, seconds, opts.seed, tmp));
        }
        results.push(result);
    }
    let mut errors = Vec::new();
    let mut layer_values = Default::default();
    if opts.layers {
        match layers::replay(opts.quick, opts.seed, tmp) {
            Ok(replay) => {
                for r in &mut results {
                    layers::table(r, &replay.summary);
                }
                if let Some(path) = &opts.trace_out {
                    let info = hwm_trace::RunInfo {
                        experiment: "hwm_perf".into(),
                        seed: opts.seed,
                        jobs: 1,
                        wall_ns: started.elapsed().as_nanos() as u64,
                    };
                    if let Err(e) = write(path, &replay.summary.to_jsonl(&info)) {
                        errors.push(e);
                    }
                }
                layer_values = replay.values;
            }
            Err(e) => errors.push(format!("layer replay failed: {e}")),
        }
    }
    for r in &results {
        print!("{}", report::render(r));
    }
    if opts.layers && errors.is_empty() {
        println!("== per-layer metrics (layer replay of every workload)");
        for def in &report::PER_LAYER {
            if let Some(v) = layer_values.get(def.name) {
                println!(
                    "  {:<34} {:>14.4} {:<8} {:<6} (replayed on {})",
                    def.name,
                    v,
                    def.unit,
                    def.better.as_str(),
                    def.owner
                );
            }
        }
    }
    if opts.curve {
        print!(
            "{}",
            serving::curve(opts.quick, opts.seed, seconds / 5, tmp)
        );
    }
    if let Some(path) = &opts.json {
        let json = report::full_json(&results, &layer_values, opts.seed, opts.seconds);
        if let Err(e) = write(path, &json.to_string_pretty()) {
            errors.push(e);
        }
    }
    if let Some(path) = &opts.check {
        match std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))
            .and_then(|text| report::check_baseline(&results, &text))
        {
            Ok(regressions) if regressions.is_empty() => {
                println!("baseline check: no median worse than its bound");
            }
            Ok(regressions) => {
                for line in regressions {
                    errors.push(format!("REGRESSION {line}"));
                }
            }
            Err(e) => errors.push(format!("baseline check: {e}")),
        }
    }
    for e in &errors {
        println!("error: {e}");
    }
    let failed = results.iter().any(|r| r.checks.failed > 0);
    println!(
        "{}",
        report::result_line(&results, &layer_values, opts.layers)
    );
    i32::from(failed || !errors.is_empty())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse(&args) {
        Ok(cli::Command::Run(opts)) => opts,
        Ok(cli::Command::Help) => {
            print!("{}", cli::USAGE);
            return;
        }
        Err(e) => {
            eprintln!("hwm_perf: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let code = match JournalDir::create() {
        Ok(dir) => run(&opts, &dir.0),
        Err(e) => {
            eprintln!("hwm_perf: cannot create a journal directory: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// This run's journal directory, `.hwm_perf_tmp/<pid>`, removed on drop
/// (also when a panic unwinds), with `.hwm_perf_tmp` once it is empty.
struct JournalDir(PathBuf);

impl JournalDir {
    const PARENT: &'static str = ".hwm_perf_tmp";

    fn create() -> std::io::Result<JournalDir> {
        let dir = Path::new(Self::PARENT).join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(JournalDir(dir))
    }
}

impl Drop for JournalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(Self::PARENT);
    }
}
