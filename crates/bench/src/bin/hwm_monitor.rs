//! Fleet monitor console for the activation service.
//!
//! Polls a running server over the `Metrics`/`Audit`/`History`/`Traces`
//! admin plane and renders the fleet dashboard: per-state IC counts,
//! unlock throughput, clone-evidence and lockout tables, a "recent
//! traces" panel (against a server with tracing armed), sampled-history
//! sparklines and the ALERTS panel. Against a cluster router the
//! dashboard adds per-shard request counts and replication lag — a
//! shard whose admin state is missing renders an explicit
//! `unreachable` marker instead of a misleading zero. Two sources:
//!
//! * `--connect HOST:PORT` — a live TCP server (e.g. `serve_bench --tcp
//!   --hold 60`). Without `--once`, polls on `--interval` (default
//!   `1000ms`; `Nticks` re-renders only after the server's logical
//!   clock has advanced by `N`) until interrupted. A refused
//!   connection is retried with exponential backoff (`--retries N`,
//!   default 5) so the monitor can be started alongside the server.
//! * default — an in-process server seeded with the standard
//!   `serve_bench` workload (`--seed`/`--jobs`/`--clients`/`--per-client`),
//!   observed once. Deterministic: the dashboard and `--json` report are
//!   byte-identical for any `--jobs`, which makes them golden-snapshot
//!   material (`results/monitor.txt`).
//!
//! `--rules FILE` loads a JSON alert-rule set (schema v1) and evaluates
//! it client-side against the polled history — the panel shows live
//! rule values even when the server has no rules installed.
//!
//! A malformed number in any flag, or a flag the chosen source does not
//! take, exits 2 naming the flag.
//!
//! Output discipline: the dashboard and `--json` report carry only
//! `det`-class metrics; wall-clock latency tables are printed to stderr,
//! and only under `--timings` (in `--json` mode, `--timings` folds the
//! timing families into the report instead).
//!
//! Usage: `hwm_monitor [--connect HOST:PORT] [--retries N] [--once]
//!     [--json] [--timings] [--interval N[ms]|Nticks] [--rules FILE]
//!     [--seed N] [--jobs N] [--clients N] [--per-client N]`

use hwm_bench::monitor::{json_report, observe, render_dashboard, render_timings, Observation};
use hwm_bench::serve::{bench_designer, build_plans, server_config, submit_local};
use hwm_metrics::AlertRuleSet;
use hwm_service::{ActivationServer, Client, LocalClient, Registry, TcpClient};
use std::sync::Arc;

/// How often to re-render in `--connect` mode.
enum Interval {
    /// Wall-clock cadence.
    Ms(u64),
    /// Re-render only once the server's logical clock has advanced this
    /// far (polling cheaply in between) — paces the console to request
    /// traffic instead of wall time.
    Ticks(u64),
}

fn parse_interval(s: &str) -> Option<Interval> {
    if let Some(t) = s.strip_suffix("ticks") {
        return t.parse().ok().map(Interval::Ticks);
    }
    if let Some(m) = s.strip_suffix("ms") {
        return m.parse().ok().map(Interval::Ms);
    }
    s.parse().ok().map(Interval::Ms)
}

fn load_rules(path: Option<String>) -> Option<AlertRuleSet> {
    let path = path?;
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("hwm_monitor: cannot read rules file {path}: {e}");
            std::process::exit(1);
        }
    };
    let json = match hwm_jsonio::Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("hwm_monitor: rules file {path} is not JSON: {e}");
            std::process::exit(1);
        }
    };
    match AlertRuleSet::from_json(&json) {
        Ok(rules) => Some(rules),
        Err(e) => {
            eprintln!("hwm_monitor: rules file {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// First backoff delay after a refused connection.
const RETRY_BASE_MS: u64 = 50;

/// Connects to the server, retrying with exponential backoff (50ms,
/// 100ms, 200ms, ... between attempts) — a monitor started alongside a
/// server must not lose the race to the listener's `bind`.
fn connect_with_retry(addr: &str, retries: u32) -> std::io::Result<TcpClient> {
    let mut attempt = 0;
    loop {
        match TcpClient::connect(addr) {
            Ok(c) => return Ok(c),
            Err(e) => {
                if attempt >= retries {
                    return Err(e);
                }
                let delay = RETRY_BASE_MS << attempt.min(6);
                eprintln!(
                    "hwm_monitor: {addr} not accepting yet ({e}); retry {}/{retries} in {delay}ms",
                    attempt + 1
                );
                std::thread::sleep(std::time::Duration::from_millis(delay));
                attempt += 1;
            }
        }
    }
}

fn observe_or_exit(client: &mut dyn Client) -> Observation {
    match observe(client) {
        Ok(obs) => obs,
        Err(e) => {
            eprintln!("hwm_monitor: {e}");
            std::process::exit(1);
        }
    }
}

fn report(obs: &Observation, rules: Option<&AlertRuleSet>, json: bool, timings: bool) {
    if json {
        println!("{}", json_report(obs, timings));
    } else {
        print!("{}", render_dashboard(obs, rules));
        if timings {
            eprint!("{}", render_timings(&obs.snapshot));
        }
    }
}

fn main() {
    let json = hwm_bench::flag_present("--json");
    let timings = hwm_bench::flag_present("--timings");
    let once = hwm_bench::flag_present("--once");
    let rules_path = hwm_bench::arg_value("--rules");
    if let Some(addr) = hwm_bench::arg_value("--connect") {
        let interval = match hwm_bench::arg_value("--interval") {
            Some(s) => parse_interval(&s).unwrap_or_else(|| {
                eprintln!("hwm_monitor: --interval wants N[ms] or Nticks, got {s:?}");
                std::process::exit(2);
            }),
            None => Interval::Ms(1000),
        };
        let retries: u32 = hwm_bench::num_arg("--retries").unwrap_or(5);
        hwm_bench::reject_unknown_args();
        let rules = load_rules(rules_path);
        let mut last_rendered_tick: Option<u64> = None;
        loop {
            let mut client = match connect_with_retry(&addr, retries) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("hwm_monitor: cannot connect to {addr}: {e}");
                    std::process::exit(1);
                }
            };
            let obs = observe_or_exit(&mut client);
            let sleep_ms = match interval {
                Interval::Ms(ms) => {
                    report(&obs, rules.as_ref(), json, timings);
                    if once {
                        return;
                    }
                    println!();
                    ms
                }
                Interval::Ticks(n) => {
                    let tick = obs.snapshot.gauge("service_clock_ticks", &[]).unwrap_or(0);
                    let due = last_rendered_tick.is_none_or(|last| tick.saturating_sub(last) >= n);
                    if due {
                        report(&obs, rules.as_ref(), json, timings);
                        if once {
                            return;
                        }
                        println!();
                        last_rendered_tick = Some(tick);
                    }
                    // Poll well below the render cadence so a burst of
                    // traffic is noticed promptly.
                    100
                }
            };
            std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
        }
    }
    // In-process mode: stand up a seeded server, drive the standard
    // workload, observe once. Plans are pure up to (seed, client index)
    // and submission is serial, so this path is jobs-invariant.
    let seed: u64 = hwm_bench::num_arg("--seed").unwrap_or(2024);
    let jobs = hwm_bench::parallel::jobs_from_args();
    let clients: usize = hwm_bench::num_arg("--clients").unwrap_or(8);
    let per_client: usize = hwm_bench::num_arg("--per-client").unwrap_or(16);
    hwm_bench::reject_unknown_args();
    let rules = load_rules(rules_path);
    let designer = bench_designer(seed);
    let plans = build_plans(&designer, clients, per_client, seed, jobs);
    let server = Arc::new(ActivationServer::new(
        designer,
        Registry::in_memory(),
        server_config(),
    ));
    submit_local(&server, &plans, 1);
    let mut client = LocalClient::new(server);
    let obs = observe_or_exit(&mut client);
    report(&obs, rules.as_ref(), json, timings);
}
