//! Load generator for the activation service (`hwm-service`).
//!
//! Drives a population of fab/test clients against an
//! [`hwm_service::ActivationServer`] and reports throughput and latency
//! percentiles. The workload itself lives in [`hwm_bench::serve`]: plans
//! are generated in parallel (pure up to `(seed, client index)`), then
//! submitted serially round-robin through the in-process transport, so
//! stdout and the registry journal are byte-identical for any `--jobs`
//! value. `--tcp` switches to real sockets with one thread per client —
//! genuinely concurrent, so journal *order* then follows the scheduler.
//!
//! Timings (throughput, p50/p99) are scheduling-dependent: they go to
//! stderr and to `results/bench_meta.json` gauges, never stdout.
//!
//! Observability hooks: `--tcp` binds port 0 by default (override with
//! `--port N`) and reports the chosen address on stderr so scripts can
//! attach `hwm_monitor`; `--hold SECS` keeps the TCP server listening
//! after the workload; `--metrics-out PATH` writes the final Prometheus
//! exposition; `--alerts-out PATH` writes the alert-transition JSONL
//! (and installs the stock fleet rules); `--json` prints the report as
//! one JSON object; and `--overhead` reruns the same plans with metrics
//! collection disabled, again with time-series sampling disabled, and
//! as a traced/untraced pair, to measure instrumentation cost (gauges
//! `serve_throughput_metrics_{on,off}_rps`,
//! `serve_throughput_sampling_off_rps`,
//! `serve_throughput_tracing_{on,off}_rps`).
//!
//! Tracing: `--traces-out PATH` arms distributed tracing
//! (`ServerConfig::trace_seed`) on the benched server and writes its
//! span ring as JSONL after the run — the input format of
//! `hwm_traces`. Over the in-process transport the dump is
//! byte-identical for any `--jobs`; over `--tcp` span order follows the
//! scheduler.
//!
//! Attack mode: `--campaign clone` adds a coordinated clone campaign to
//! the workload ([`hwm_bench::serve::clone_campaign_plans`]) and
//! installs the stock alert rules — the `duplicate_readout_spike` rule
//! fires at a deterministic tick over the in-process transport.
//!
//! Fault mode: `--faults KIND` (torn-write, disk-full, short-read,
//! conn-drop) runs this workload through the crash/restart simulation
//! ([`hwm_bench::sim`]) instead of the throughput benchmark — the server
//! is killed `--crashes` times (default 3) at seeded ticks and recovered
//! from its journal; the process exits 1 unless the recovered world
//! matches the fault-free oracle exactly. `--compact-every N` turns on
//! snapshot compaction during the simulated run.
//!
//! Usage: `serve_bench [--clients N] [--per-client N] [--smoke] [--tcp]
//!     [--port N] [--hold SECS] [--json] [--metrics-out PATH]
//!     [--alerts-out PATH] [--traces-out PATH] [--campaign clone]
//!     [--overhead] [--journal PATH] [--faults KIND] [--crashes N]
//!     [--compact-every N] [--seed N] [--jobs N] [--profile]
//!     [--trace-out P]`

use hwm_bench::run::BenchRun;
use hwm_bench::serve::{
    bench_designer, build_plans, clone_campaign_plans, fleet_rules, server_config, submit_local,
    submit_local_pipelined, submit_tcp, submit_tcp_pipelined, ClientPlan, Tally,
};
use hwm_bench::sim::SimConfig;
use hwm_jsonio::Json;
use hwm_metering::Foundry;
use hwm_metrics::latency::LatencySummary;
use hwm_metrics::HistoryConfig;
use hwm_service::registry::{journal_digest, RecoverOptions};
use hwm_service::wire::readout_to_bits_string;
use hwm_service::{
    ActivationServer, Client, FaultKind, FlushPolicy, LocalClient, Registry, Request, Response,
    ServerConfig, TcpServer,
};
use hwm_trace::GaugeAgg;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `--smoke`: one IC through register + unlock + status over the
/// in-process transport, then a clean shutdown. Errors out on any
/// deviation — the CI gate.
fn smoke(seed: u64) -> Result<(), String> {
    let designer = bench_designer(seed);
    let mut foundry = Foundry::new(designer.blueprint().clone(), seed ^ 0xFAB);
    let server = Arc::new(ActivationServer::new(
        designer,
        Registry::in_memory(),
        server_config(),
    ));
    let mut client = LocalClient::new(Arc::clone(&server));
    let readout = readout_to_bits_string(&foundry.fabricate_one().scan_flip_flops().0);
    let resp = client
        .call(&Request::Register {
            client: "smoke".into(),
            ic: "smoke-ic".into(),
            readout: readout.clone(),
        })
        .map_err(|e| format!("register transport error: {e}"))?;
    if !matches!(resp, Response::Registered { .. }) {
        return Err(format!("register did not succeed: {resp:?}"));
    }
    let resp = client
        .call(&Request::Unlock {
            client: "smoke".into(),
            readout,
        })
        .map_err(|e| format!("unlock transport error: {e}"))?;
    let key_len = match resp {
        Response::Key { ref key, .. } if !key.is_empty() => key.len(),
        other => return Err(format!("unlock did not return a key: {other:?}")),
    };
    let status = server.status();
    if (status.registered, status.unlocked) != (1, 1) {
        return Err(format!("status off after one activation: {status:?}"));
    }
    let events = server.with_registry(|r| r.records().len());
    drop(client);
    let server = Arc::try_unwrap(server).map_err(|_| "server still referenced at shutdown")?;
    drop(server);
    println!(
        "serve_bench smoke: ok (1 IC registered + unlocked, key length {key_len}, {events} registry records, clean shutdown)"
    );
    Ok(())
}

fn print_report(
    tally: &Tally,
    server: &ActivationServer,
    transport: &str,
    clients: usize,
    per_client: usize,
    journal: (u64, Option<u64>),
) {
    let status = server.status();
    println!(
        "activation service bench — transport {transport}, clients {clients}, per-client {per_client}"
    );
    println!("requests            {:>8}", tally.requests);
    println!("registered          {:>8}", tally.registered);
    println!("keys issued         {:>8}", tally.keys);
    println!("remote disables     {:>8}", tally.disabled);
    println!("status queries      {:>8}", tally.statuses);
    println!("duplicates rejected {:>8}", tally.duplicates);
    println!("wrong readouts      {:>8}", tally.wrong_readouts);
    println!("already unlocked    {:>8}", tally.already_unlocked);
    println!("throttled           {:>8}", tally.throttled);
    println!("locked out          {:>8}", tally.locked_out);
    println!("other errors        {:>8}", tally.other_errors);
    println!(
        "registry state      {:>8} registered / {} unlocked / {} disabled / {} lockouts",
        status.registered, status.unlocked, status.disabled, status.lockouts
    );
    let (events, digest) = journal;
    match digest {
        Some(d) => println!("journal             {events:>8} events, digest {d:#018x}"),
        None => {
            println!("journal             {events:>8} events (order is scheduler-dependent over TCP)");
        }
    }
}

/// The `--json` report: the same numbers as the text report, as one
/// strict JSON object on stdout (and nothing else on stdout — in
/// particular no TCP digest-suppression prose).
fn json_report(
    tally: &Tally,
    server: &ActivationServer,
    transport: &str,
    clients: usize,
    per_client: usize,
    journal: (u64, Option<u64>),
) -> Json {
    let status = server.status();
    let (events, digest) = journal;
    let mut journal_fields = vec![("events", Json::U64(events))];
    if let Some(d) = digest {
        journal_fields.push(("digest", Json::U64(d)));
    }
    Json::obj(vec![
        ("schema", Json::U64(1)),
        ("transport", Json::Str(transport.into())),
        ("clients", Json::U64(clients as u64)),
        ("per_client", Json::U64(per_client as u64)),
        (
            "tally",
            Json::obj(vec![
                ("requests", Json::U64(tally.requests)),
                ("registered", Json::U64(tally.registered)),
                ("keys", Json::U64(tally.keys)),
                ("disabled", Json::U64(tally.disabled)),
                ("statuses", Json::U64(tally.statuses)),
                ("duplicates", Json::U64(tally.duplicates)),
                ("wrong_readouts", Json::U64(tally.wrong_readouts)),
                ("already_unlocked", Json::U64(tally.already_unlocked)),
                ("throttled", Json::U64(tally.throttled)),
                ("locked_out", Json::U64(tally.locked_out)),
                ("other_errors", Json::U64(tally.other_errors)),
            ]),
        ),
        (
            "registry",
            Json::obj(vec![
                ("registered", Json::U64(status.registered)),
                ("unlocked", Json::U64(status.unlocked)),
                ("disabled", Json::U64(status.disabled)),
                ("duplicates", Json::U64(status.duplicates)),
                ("lockouts", Json::U64(status.lockouts)),
            ]),
        ),
        ("journal", Json::obj(journal_fields)),
    ])
}

/// Serving-path lever measurements (`--overhead`): best-of-pass req/s
/// per flush-policy × pipeline-depth variant over single-connection
/// loopback TCP, all against real file-backed journals.
struct ServingPath {
    /// Per-event fsync (`FlushPolicy::Sync`), one round trip per
    /// request — the durable baseline group commit is measured against.
    per_event_unpipelined_rps: f64,
    /// Group commit alone (unpipelined).
    group_commit_rps: f64,
    /// Pipelining alone (per-event flush).
    pipelined_rps: f64,
    /// Both levers — the optimized serving path.
    group_commit_pipelined_rps: f64,
}

/// Runs the plans against a fresh file-backed server under one
/// flush/pipeline variant, three passes, and returns the best req/s
/// plus the byte-identity evidence (journal digest after the explicit
/// commit barrier, det-class snapshot, audit stream) — every variant
/// must produce identical evidence or the bench aborts.
///
/// The measurement runs over loopback TCP on a *single* connection in
/// the round-robin schedule order: one connection keeps the dispatch
/// order (hence every deterministic byte) identical to the in-process
/// transport, while still paying the real wire costs — the per-request
/// syscall round trip that pipelining amortizes and the per-event
/// fsync that group commit batches into one device round trip.
fn serving_path_variant(
    seed: u64,
    plans: &[ClientPlan],
    dir: &std::path::Path,
    label: &str,
    flush: FlushPolicy,
    depth: usize,
) -> (f64, u64, String, String) {
    let schedule = hwm_bench::serve::round_robin(plans);
    let mut best = 0.0f64;
    let mut evidence = (0u64, String::new(), String::new());
    for pass in 0..3 {
        let path = dir.join(format!("{label}-{pass}.jsonl"));
        let registry = Registry::open_with(
            &path,
            RecoverOptions {
                flush,
                ..RecoverOptions::default()
            },
        )
        .expect("open overhead journal");
        let server = Arc::new(ActivationServer::new(
            bench_designer(seed),
            registry,
            ServerConfig {
                flush,
                ..server_config()
            },
        ));
        let tcp = TcpServer::spawn(("127.0.0.1", 0), Arc::clone(&server))
            .expect("bind overhead TCP server");
        let mut client = hwm_service::TcpClient::connect(tcp.addr()).expect("connect");
        // Warm the connection with an admin request (no clock tick, no
        // journal append) so accept-loop latency stays out of the
        // measured window.
        let _ = client
            .call(&Request::Metrics {
                client: "overhead-warmup".into(),
            })
            .expect("warmup");
        let t0 = Instant::now();
        let mut requests = 0u64;
        if depth > 1 {
            for window in schedule.chunks(depth) {
                requests += client
                    .call_pipelined(window)
                    .expect("pipelined overhead submission")
                    .len() as u64;
            }
        } else {
            for req in &schedule {
                let _ = client.call(req).expect("overhead submission");
                requests += 1;
            }
        }
        best = best.max(requests as f64 / t0.elapsed().as_secs_f64().max(1e-9));
        // The explicit group-commit barrier: any pending batch reaches
        // the file before the bytes are read back, server still live.
        server.commit_journal().expect("journal barrier");
        let bytes = std::fs::read(&path).expect("read overhead journal");
        evidence = (
            journal_digest(&bytes),
            server.snapshot().deterministic().to_prometheus(),
            server.audit_jsonl(),
        );
        drop(client);
        tcp.shutdown();
    }
    (best, evidence.0, evidence.1, evidence.2)
}

fn main() {
    let run = BenchRun::start("serve_bench");
    let seed = run.seed();
    if hwm_bench::flag_present("--smoke") {
        match smoke(seed) {
            Ok(()) => {
                run.finish();
                return;
            }
            Err(e) => {
                eprintln!("serve_bench smoke FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    let clients: usize = hwm_bench::num_arg("--clients").unwrap_or(8);
    let per_client: usize = hwm_bench::num_arg("--per-client").unwrap_or(16);
    let tcp = hwm_bench::flag_present("--tcp");
    let json = hwm_bench::flag_present("--json");
    let overhead = hwm_bench::flag_present("--overhead");
    // --pipeline N submits N requests per wire burst (1 = one round
    // trip per request, the historical behavior). Dispatch order is
    // unchanged, so every deterministic byte is too.
    let pipeline: usize = hwm_bench::num_arg("--pipeline").unwrap_or(1).max(1);
    // --flush picks the journal durability policy (per-event, sync,
    // buffered, group-commit[:N]); it only matters with --journal,
    // since the in-memory journal has no flush boundary.
    let flush = match hwm_bench::arg_value("--flush") {
        None => FlushPolicy::default(),
        Some(s) => match FlushPolicy::parse(&s) {
            Some(p) => p,
            None => {
                eprintln!(
                    "serve_bench: unknown flush policy {s:?} (try per-event, sync, buffered, group-commit[:N])"
                );
                std::process::exit(2);
            }
        },
    };
    let port: u16 = hwm_bench::num_arg("--port").unwrap_or(0);
    let hold_secs: Option<u64> = hwm_bench::num_arg("--hold");
    let metrics_out = hwm_bench::arg_value("--metrics-out");
    let alerts_out = hwm_bench::arg_value("--alerts-out");
    let traces_out = hwm_bench::arg_value("--traces-out");
    let campaign = hwm_bench::arg_value("--campaign");
    if let Some(c) = campaign.as_deref() {
        if c != "clone" {
            eprintln!("serve_bench: unknown campaign {c:?} (try clone)");
            std::process::exit(2);
        }
    }
    let journal_path = hwm_bench::arg_value("--journal");

    // `--faults KIND [--crashes N]`: instead of the throughput benchmark,
    // run this workload through the crash/restart simulation and report
    // the oracle comparison (the full matrix lives in `crash_sim`).
    if let Some(kind_str) = hwm_bench::arg_value("--faults") {
        let Some(kind) = FaultKind::parse(&kind_str) else {
            eprintln!("serve_bench: unknown fault kind {kind_str:?} (try torn-write, disk-full, short-read, conn-drop)");
            std::process::exit(2);
        };
        if kind == FaultKind::DelayedAccept {
            eprintln!(
                "serve_bench: delayed-accept has no crash/recovery semantics; \
                 it is exercised by the hwm-service TCP fault tests"
            );
            std::process::exit(2);
        }
        let config = SimConfig {
            seed,
            clients,
            per_client,
            kind,
            crashes: hwm_bench::num_arg("--crashes").unwrap_or(3),
            jobs: run.jobs(),
            compact_every: hwm_bench::num_arg("--compact-every").unwrap_or(0),
        };
        let dir = std::env::temp_dir().join(format!("hwm-serve-faults-{}", std::process::id()));
        let outcome = hwm_bench::sim::run_sim(&config, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        match outcome {
            Ok(outcome) => {
                print!("{}", outcome.report());
                run.finish();
                if !outcome.matches() {
                    std::process::exit(1);
                }
                return;
            }
            Err(e) => {
                eprintln!("serve_bench: fault simulation failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let designer = bench_designer(seed);
    let plans = if campaign.is_some() {
        clone_campaign_plans(&designer, clients, per_client, seed, run.jobs())
    } else {
        build_plans(&designer, clients, per_client, seed, run.jobs())
    };

    // Overhead baselines: the same plans against fresh servers with
    // instrumentation progressively disabled, in-process (the
    // deterministic transport, so the runs differ only in
    // instrumentation). One run with metrics collection off entirely,
    // one with metrics on but time-series sampling off, and one
    // traced/untraced pair that isolates the distributed-tracing cost
    // from the other instrumentation axes.
    let (baseline_rps, sampling_off_rps, tracing_rps, serving_path) = if overhead && !tcp {
        let rps_of = |server: &Arc<ActivationServer>| {
            let t0 = Instant::now();
            let (t, _) = submit_local(server, &plans);
            t.requests as f64 / t0.elapsed().as_secs_f64().max(1e-9)
        };
        let metrics_off = Arc::new(ActivationServer::new(
            bench_designer(seed),
            Registry::in_memory(),
            server_config(),
        ));
        metrics_off.metrics().set_enabled(false);
        let sampling_off = Arc::new(ActivationServer::new(
            bench_designer(seed),
            Registry::in_memory(),
            ServerConfig {
                history: HistoryConfig::disabled(),
                ..server_config()
            },
        ));
        let tracing_on = Arc::new(ActivationServer::new(
            bench_designer(seed),
            Registry::in_memory(),
            ServerConfig {
                trace_seed: Some(seed),
                ..server_config()
            },
        ));
        let tracing_off = Arc::new(ActivationServer::new(
            bench_designer(seed),
            Registry::in_memory(),
            server_config(),
        ));
        // Serving-path levers: flush policy × pipeline depth against
        // real file-backed journals. Every variant must leave the same
        // journal bytes, det-class snapshot and audit stream behind —
        // the levers buy throughput, never different bytes.
        let dir = std::env::temp_dir().join(format!("hwm-serve-overhead-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create overhead journal dir");
        let depth = if pipeline > 1 { pipeline } else { 8 };
        // The per-event baseline is *durable* per-event: one fsync per
        // journal event (`FlushPolicy::Sync`). Group commit batches
        // exactly that cost — one fsync covers `max_batch` events — so
        // the pair isolates the group-commit lever the way a database
        // would measure it. Pipelining is the independent wire lever.
        let (base_rps, base_digest, base_det, base_audit) = serving_path_variant(
            seed, &plans, &dir, "per-event-serial", FlushPolicy::Sync, 1,
        );
        let (gc_rps, gc_digest, gc_det, gc_audit) = serving_path_variant(
            seed, &plans, &dir, "group-commit-serial", FlushPolicy::group_commit(), 1,
        );
        let (pipe_rps, pipe_digest, pipe_det, pipe_audit) = serving_path_variant(
            seed, &plans, &dir, "per-event-pipelined", FlushPolicy::Sync, depth,
        );
        let (both_rps, both_digest, both_det, both_audit) = serving_path_variant(
            seed, &plans, &dir, "group-commit-pipelined", FlushPolicy::group_commit(), depth,
        );
        let _ = std::fs::remove_dir_all(&dir);
        let baseline = (base_digest, &base_det, &base_audit);
        for (label, variant) in [
            ("group-commit", (gc_digest, &gc_det, &gc_audit)),
            ("pipelined", (pipe_digest, &pipe_det, &pipe_audit)),
            ("group-commit+pipelined", (both_digest, &both_det, &both_audit)),
        ] {
            if variant != baseline {
                eprintln!(
                    "serve_bench: BYTE DIVERGENCE — {label} variant differs from the per-event \
                     unpipelined baseline (journal digest {:#018x} vs {:#018x}; det snapshot {}; audit {})",
                    variant.0,
                    baseline.0,
                    if variant.1 == baseline.1 { "match" } else { "MISMATCH" },
                    if variant.2 == baseline.2 { "match" } else { "MISMATCH" },
                );
                std::process::exit(1);
            }
        }
        (
            Some(rps_of(&metrics_off)),
            Some(rps_of(&sampling_off)),
            Some((rps_of(&tracing_on), rps_of(&tracing_off))),
            Some(ServingPath {
                per_event_unpipelined_rps: base_rps,
                group_commit_rps: gc_rps,
                pipelined_rps: pipe_rps,
                group_commit_pipelined_rps: both_rps,
            }),
        )
    } else {
        if overhead {
            eprintln!("serve_bench: --overhead is an in-process comparison; ignored under --tcp");
        }
        (None, None, None, None)
    };

    let registry = match &journal_path {
        Some(path) => {
            let opts = RecoverOptions {
                flush,
                ..RecoverOptions::default()
            };
            match Registry::open_with(std::path::Path::new(path), opts) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("serve_bench: cannot open journal {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => Registry::in_memory(),
    };
    // --traces-out arms tracing on the benched server; without it the
    // run stays untraced and byte-identical to pre-tracing builds.
    let server = Arc::new(ActivationServer::new(
        designer,
        registry,
        ServerConfig {
            trace_seed: traces_out.as_ref().map(|_| seed),
            flush,
            ..server_config()
        },
    ));
    // A campaign (or an alert sink) implies the stock rule set: with no
    // rules installed the alert stream is empty by construction.
    if campaign.is_some() || alerts_out.is_some() {
        server.set_alert_rules(fleet_rules());
    }
    // --tcp binds port 0 unless --port says otherwise, and reports the
    // chosen address on stderr so scripts (and CI) can attach a monitor
    // without racing for a fixed port.
    let tcp_server = if tcp {
        match TcpServer::spawn(("127.0.0.1", port), Arc::clone(&server)) {
            Ok(t) => {
                eprintln!("serve_bench: tcp listening on {}", t.addr());
                Some(t)
            }
            Err(e) => {
                eprintln!("serve_bench: cannot bind 127.0.0.1:{port}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };

    let t0 = Instant::now();
    let (tally, mut latencies) = if let Some(tcp_server) = &tcp_server {
        let submitted = if pipeline > 1 {
            submit_tcp_pipelined(tcp_server.addr(), plans, pipeline)
        } else {
            submit_tcp(tcp_server.addr(), plans)
        };
        match submitted {
            Ok(r) => r,
            Err(e) => {
                eprintln!("serve_bench: TCP submission failed: {e}");
                std::process::exit(1);
            }
        }
    } else if pipeline > 1 {
        submit_local_pipelined(&server, &plans, pipeline)
    } else {
        submit_local(&server, &plans)
    };
    let wall = t0.elapsed();

    // Journal identity: bytes live in memory, or on disk under
    // --journal — where any group-commit tail must cross the explicit
    // barrier before the file is read back.
    if journal_path.is_some() {
        if let Err(e) = server.commit_journal() {
            eprintln!("serve_bench: journal commit barrier failed: {e}");
            std::process::exit(1);
        }
    }
    let events = server.with_registry(|r| r.journal_len());
    let digest = if tcp {
        None
    } else {
        match &journal_path {
            Some(path) => std::fs::read(path).ok().map(|b| journal_digest(&b)),
            None => server.with_registry(|r| r.journal_bytes().map(journal_digest)),
        }
    };
    let transport = if tcp { "tcp" } else { "in-process" };
    if json {
        println!(
            "{}",
            json_report(&tally, &server, transport, clients, per_client, (events, digest))
        );
    } else {
        print_report(&tally, &server, transport, clients, per_client, (events, digest));
    }

    if let Some(path) = &metrics_out {
        let write = || -> std::io::Result<()> {
            if let Some(parent) = std::path::Path::new(path).parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(path, server.snapshot().to_prometheus())
        };
        if let Err(e) = write() {
            eprintln!("warning: could not write metrics to {path}: {e}");
        }
    }
    if let Some(path) = &alerts_out {
        let write = || -> std::io::Result<()> {
            if let Some(parent) = std::path::Path::new(path).parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(path, server.alerts_jsonl())
        };
        if let Err(e) = write() {
            eprintln!("warning: could not write alerts to {path}: {e}");
        }
    }
    if let Some(path) = &traces_out {
        let write = || -> std::io::Result<()> {
            if let Some(parent) = std::path::Path::new(path).parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(path, server.trace_dump())
        };
        if let Err(e) = write() {
            eprintln!("warning: could not write traces to {path}: {e}");
        }
    }

    // Scheduling-dependent numbers: stderr + bench_meta.json gauges only.
    let lat = LatencySummary::of(&mut latencies);
    let throughput = tally.requests as f64 / wall.as_secs_f64().max(1e-9);
    hwm_trace::record_gauge("serve_throughput_rps", GaugeAgg::Set, throughput as u64);
    hwm_trace::record_gauge("serve_latency_p50_ns", GaugeAgg::Set, lat.p50_ns);
    hwm_trace::record_gauge("serve_latency_p99_ns", GaugeAgg::Set, lat.p99_ns);
    hwm_trace::record_gauge("serve_latency_max_ns", GaugeAgg::Set, lat.max_ns);
    hwm_trace::record_gauge("serve_latency_mean_ns", GaugeAgg::Set, lat.mean_ns);
    eprintln!(
        "serve_bench: {:.0} req/s over {} requests; latency p50 {:.1} µs, p99 {:.1} µs, max {:.1} µs",
        throughput,
        lat.count,
        lat.p50_ns as f64 / 1_000.0,
        lat.p99_ns as f64 / 1_000.0,
        lat.max_ns as f64 / 1_000.0,
    );
    if let Some(off_rps) = baseline_rps {
        hwm_trace::record_gauge("serve_throughput_metrics_on_rps", GaugeAgg::Set, throughput as u64);
        hwm_trace::record_gauge("serve_throughput_metrics_off_rps", GaugeAgg::Set, off_rps as u64);
        eprintln!(
            "serve_bench: metrics overhead: {:.0} req/s on vs {:.0} req/s off ({:+.1}%)",
            throughput,
            off_rps,
            (throughput - off_rps) / off_rps.max(1e-9) * 100.0,
        );
    }
    if let Some(off_rps) = sampling_off_rps {
        hwm_trace::record_gauge("serve_throughput_sampling_off_rps", GaugeAgg::Set, off_rps as u64);
        eprintln!(
            "serve_bench: sampling overhead: {:.0} req/s sampled vs {:.0} req/s unsampled ({:+.1}%)",
            throughput,
            off_rps,
            (throughput - off_rps) / off_rps.max(1e-9) * 100.0,
        );
    }
    if let Some((on_rps, off_rps)) = tracing_rps {
        hwm_trace::record_gauge("serve_throughput_tracing_on_rps", GaugeAgg::Set, on_rps as u64);
        hwm_trace::record_gauge("serve_throughput_tracing_off_rps", GaugeAgg::Set, off_rps as u64);
        eprintln!(
            "serve_bench: tracing overhead: {:.0} req/s traced vs {:.0} req/s untraced ({:+.1}%)",
            on_rps,
            off_rps,
            (on_rps - off_rps) / off_rps.max(1e-9) * 100.0,
        );
    }
    if let Some(sp) = serving_path {
        hwm_trace::record_gauge(
            "serve_throughput_per_event_unpipelined_rps",
            GaugeAgg::Set,
            sp.per_event_unpipelined_rps as u64,
        );
        hwm_trace::record_gauge(
            "serve_throughput_group_commit_rps",
            GaugeAgg::Set,
            sp.group_commit_rps as u64,
        );
        hwm_trace::record_gauge(
            "serve_throughput_pipelined_rps",
            GaugeAgg::Set,
            sp.pipelined_rps as u64,
        );
        hwm_trace::record_gauge(
            "serve_throughput_group_commit_pipelined_rps",
            GaugeAgg::Set,
            sp.group_commit_pipelined_rps as u64,
        );
        let speedup =
            sp.group_commit_pipelined_rps / sp.per_event_unpipelined_rps.max(1e-9);
        hwm_trace::record_gauge(
            "serve_speedup_serving_path_milli",
            GaugeAgg::Set,
            (speedup * 1000.0) as u64,
        );
        eprintln!(
            "serve_bench: serving path: per-event fsync unpipelined {:.0} req/s | group-commit {:.0} | pipelined {:.0} | group-commit+pipelined {:.0} req/s ({:.2}x, bytes identical)",
            sp.per_event_unpipelined_rps,
            sp.group_commit_rps,
            sp.pipelined_rps,
            sp.group_commit_pipelined_rps,
            speedup,
        );
    }

    if let Some(tcp_server) = tcp_server {
        if let Some(secs) = hold_secs {
            // Sleep in short slices rather than one monolithic sleep, so
            // the hold window stays interruptible-by-signal and the final
            // shutdown (which joins the accept and handler threads and
            // flushes the journal) always runs on the normal exit path.
            eprintln!("serve_bench: holding TCP server open for {secs}s");
            let deadline = Instant::now() + Duration::from_secs(secs);
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                std::thread::sleep(left.min(Duration::from_millis(200)));
            }
        }
        tcp_server.shutdown();
    }
    run.finish();
}
