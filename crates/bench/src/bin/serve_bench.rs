//! Load generator for the activation service (`hwm-service`).
//!
//! Drives a population of fab/test clients against an
//! [`hwm_service::ActivationServer`] and reports the response tally, the
//! registry state and the journal digest. The workload itself lives in
//! [`hwm_bench::serve`]: plans are generated in parallel (pure up to
//! `(seed, client index)`), then submitted serially round-robin through
//! the in-process transport, so stdout and the registry journal are
//! byte-identical for any `--jobs` value. `--tcp` switches to real
//! sockets with one thread per client — genuinely concurrent, so journal
//! *order* then follows the scheduler.
//!
//! It times nothing: throughput and latency come from `hwm_perf`, and
//! per-phase time from `--profile`.
//!
//! Observability hooks: `--tcp` binds port 0 by default (override with
//! `--port N`) and reports the chosen address on stderr so scripts can
//! attach `hwm_monitor`; `--hold SECS` keeps the TCP server listening
//! after the workload; `--metrics-out PATH` writes the final Prometheus
//! exposition; `--alerts-out PATH` writes the alert-transition JSONL
//! (and installs the stock fleet rules); `--json` prints the report as
//! one JSON object.
//!
//! Levers: `--pipeline N` submits N requests per wire burst and `--flush
//! POLICY` picks the journal durability policy under `--journal PATH`.
//! Neither changes a deterministic byte (pinned by
//! `crates/service/tests/pipeline.rs`); the benchmark is `hwm_perf`.
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
//! Crash/restart runs of this workload are `crash_sim`'s job.
//!
//! Usage: `serve_bench [--clients N] [--per-client N] [--smoke] [--tcp]
//!     [--port N] [--hold SECS] [--json] [--metrics-out PATH]
//!     [--alerts-out PATH] [--traces-out PATH] [--campaign clone]
//!     [--pipeline N] [--journal PATH] [--flush POLICY] [--seed N]
//!     [--jobs N] [--profile] [--trace-out P]`

use hwm_bench::run::BenchRun;
use hwm_bench::serve::{
    bench_designer, build_plans, clone_campaign_plans, fleet_rules, server_config, submit_local,
    submit_tcp, Tally,
};
use hwm_jsonio::Json;
use hwm_metering::Foundry;
use hwm_service::registry::{journal_digest, RecoverOptions};
use hwm_service::wire::readout_to_bits_string;
use hwm_service::{
    ActivationServer, Client, FlushPolicy, LocalClient, Registry, Request, Response, ServerConfig,
    TcpServer,
};
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
    // --pipeline N submits N requests per wire burst (1 = one round
    // trip per request, the historical behavior). Dispatch order is
    // unchanged, so every deterministic byte is too.
    let pipeline: usize = hwm_bench::num_arg("--pipeline").unwrap_or(1);
    if pipeline == 0 {
        eprintln!("serve_bench: --pipeline wants at least 1 request per burst, got 0");
        std::process::exit(2);
    }
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

    let designer = bench_designer(seed);
    let plans = if campaign.is_some() {
        clone_campaign_plans(&designer, clients, per_client, seed, run.jobs())
    } else {
        build_plans(&designer, clients, per_client, seed, run.jobs())
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

    let tally = if let Some(tcp_server) = &tcp_server {
        match submit_tcp(tcp_server.addr(), plans, pipeline) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("serve_bench: TCP submission failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        submit_local(&server, &plans, pipeline)
    };

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
        hwm_bench::write_artifact(path, "metrics", server.snapshot().to_prometheus());
    }
    if let Some(path) = &alerts_out {
        hwm_bench::write_artifact(path, "alerts", server.alerts_jsonl());
    }
    if let Some(path) = &traces_out {
        hwm_bench::write_artifact(path, "traces", server.trace_dump());
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
