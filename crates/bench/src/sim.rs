//! The crash/restart simulation harness: the serving benchmark's
//! workload driven through seeded fault injection, with an exact oracle
//! comparison.
//!
//! One [`run_sim`] call runs the same seeded client workload twice:
//!
//! 1. **Oracle** — an in-memory server, no faults. Its responses, audit
//!    stream, registry state and journal bytes define ground truth.
//! 2. **Faulted** — a file-backed server that is killed at the
//!    [`FaultPlan`]'s crash ticks (the injected fault destroys the doomed
//!    request) and restarted through the full recovery path:
//!    [`Registry::open_with`] (snapshot + journal tail + torn-tail
//!    repair), [`hwm_metrics::AuditLog::resume_file`], and
//!    [`ActivationServer::resume`] with the logical clock restored to the
//!    delivered-response count.
//!
//! The recovered world must match the oracle **exactly**: every delivered
//! response, the registry records and counts, clone evidence, the rolling
//! journal digest, the audit stream bytes, and the deterministic metrics
//! counters summed across incarnations. Keys are never lost, no duplicate
//! IC is ever re-admitted, and clone evidence survives every restart.
//! Everything is a pure function of `(seed, kind)` — byte-identical for
//! any `--jobs` value — so [`SimOutcome::report`] is golden-snapshot
//! material (`results/recovery.txt`).
//!
//! Designer-side royalty accounting is deliberately *excluded* from the
//! comparison: [`hwm_metering::Designer::issue_key`] bumps its in-memory
//! activation count before the registry journals the unlock, so a crash
//! between the two can count an activation whose key was never delivered,
//! and the count resets with each incarnation. The registry's unlocked
//! state and the delivered `Key` responses are the authoritative royalty
//! record — see DESIGN.md.

use crate::monitor::{observe, render_dashboard};
use crate::serve::{
    bench_designer, build_plans, clone_campaign_plans, fleet_rules, round_robin, server_config,
    submit_local, ClientPlan, Tally,
};
use hwm_metrics::{AlertState, AlertTransition, AuditLog};
use hwm_service::registry::journal_digest;
use hwm_service::{
    absorb_counters, ActivationServer, ArmedFault, Client, CounterSums, ErrorCode, FaultInjector,
    FaultKind, FaultPlan, LocalClient, RecoverOptions, Registry, RegistryCounts, Response,
};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// One simulation's parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Master seed: drives the workload (as in `serve_bench`) and the
    /// fault plan.
    pub seed: u64,
    /// Fab/test clients in the workload.
    pub clients: usize,
    /// Dies fabricated per client.
    pub per_client: usize,
    /// The fault every crash injects.
    pub kind: FaultKind,
    /// Crash/restart cycles to force.
    pub crashes: usize,
    /// Worker threads for plan generation (must not affect any result).
    pub jobs: usize,
    /// Auto-compaction cadence for the faulted run (0 = never, keeping
    /// the journal file byte-comparable to the oracle's).
    pub compact_every: u64,
}

impl SimConfig {
    /// The default simulation shape at a given seed and fault kind.
    pub fn new(seed: u64, kind: FaultKind) -> SimConfig {
        SimConfig {
            seed,
            clients: 8,
            per_client: 8,
            kind,
            crashes: 3,
            jobs: 1,
            compact_every: 0,
        }
    }
}

/// One world's final state, reduced to the fields the comparison pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimState {
    /// Registry records (count; full equality is checked separately).
    pub records: u64,
    /// Registry counts.
    pub counts: RegistryCounts,
    /// Clone-evidence entries.
    pub clones: u64,
    /// Rolling FNV-1a digest of every journal byte ever appended.
    pub digest: u64,
    /// Journal events (`seq`).
    pub events: u64,
    /// Response tally of the delivered workload.
    pub tally: Tally,
    /// Audit stream as JSONL bytes.
    pub audit: String,
    /// Summed deterministic counters.
    pub counters: CounterSums,
}

/// Everything one simulation yields.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// The parameters that produced this outcome.
    pub config: SimConfig,
    /// Ticks at which the fault fired (drawn by the [`FaultPlan`]).
    pub crash_ticks: Vec<u64>,
    /// Server incarnations (always `crashes + 1`).
    pub incarnations: u64,
    /// The fault-free ground truth.
    pub oracle: SimState,
    /// The crash/recover world's final state.
    pub recovered: SimState,
    /// Whether every delivered response matched the oracle's, in order.
    pub responses_match: bool,
    /// Whether the recovered journal file is byte-identical to the
    /// oracle's in-memory journal (`None` when compaction truncated it).
    pub journal_bytes_match: Option<bool>,
    /// Whether a final cold reopen (snapshot + tail) matched the oracle.
    pub reopen_matches: bool,
    /// The fleet dashboard rendered from the recovered server.
    pub dashboard: String,
}

impl SimOutcome {
    /// Whether the recovered world matched the oracle exactly.
    pub fn matches(&self) -> bool {
        self.oracle == self.recovered
            && self.responses_match
            && self.journal_bytes_match.unwrap_or(true)
            && self.reopen_matches
    }

    /// The deterministic report section for this outcome (golden-snapshot
    /// material: no paths, no pids, no wall-clock numbers).
    pub fn report(&self) -> String {
        let c = &self.config;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fault {} — seed {}, {} clients x {} dies, {} crashes, compact_every {}",
            c.kind, c.seed, c.clients, c.per_client, c.crashes, c.compact_every
        );
        let _ = writeln!(out, "  crash ticks     {:?}", self.crash_ticks);
        let _ = writeln!(out, "  incarnations    {}", self.incarnations);
        for (label, s) in [("oracle", &self.oracle), ("recovered", &self.recovered)] {
            let _ = writeln!(
                out,
                "  {label:<9} {:>5} events, digest {:#018x}, {} registered / {} unlocked / {} disabled / {} duplicates, {} keys delivered, {} audit bytes",
                s.events,
                s.digest,
                s.counts.registered,
                s.counts.unlocked,
                s.counts.disabled,
                s.counts.duplicates,
                s.tally.keys,
                s.audit.len(),
            );
        }
        let verdict = |ok: bool| if ok { "match" } else { "MISMATCH" };
        let _ = writeln!(out, "  responses       {}", verdict(self.responses_match));
        let _ = writeln!(
            out,
            "  audit stream    {}",
            verdict(self.oracle.audit == self.recovered.audit)
        );
        let _ = writeln!(
            out,
            "  det counters    {}",
            verdict(self.oracle.counters == self.recovered.counters)
        );
        let _ = writeln!(
            out,
            "  journal bytes   {}",
            match self.journal_bytes_match {
                Some(ok) => verdict(ok),
                None => "skipped (journal truncated by compaction; digest covers it)",
            }
        );
        let _ = writeln!(out, "  cold reopen     {}", verdict(self.reopen_matches));
        let _ = writeln!(
            out,
            "  verdict         {}",
            if self.matches() { "MATCH" } else { "MISMATCH" }
        );
        out
    }
}

fn fresh_dir(dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for name in [
        "journal.jsonl",
        "journal.jsonl.tmp",
        "snapshot.json",
        "snapshot.json.tmp",
        "audit.jsonl",
    ] {
        let p = dir.join(name);
        if p.exists() {
            std::fs::remove_file(&p)?;
        }
    }
    Ok(())
}

fn state_of(
    server: &ActivationServer,
    responses: &[Response],
    audit: String,
    counters: CounterSums,
) -> SimState {
    let mut tally = Tally::default();
    for r in responses {
        tally.absorb(r);
    }
    server.with_registry(|r| SimState {
        records: r.records().len() as u64,
        counts: r.counts(),
        clones: r.clones().len() as u64,
        digest: r.rolling_digest(),
        events: r.journal_len(),
        tally,
        audit,
        counters,
    })
}

/// Runs one crash/restart simulation in `dir` (scratch space for the
/// journal, snapshot and audit files; wiped first).
///
/// # Errors
///
/// I/O failures of the scratch directory, a transport error outside the
/// doomed ticks, or a doomed request that was *not* destroyed by its
/// injected fault (a harness bug, not a recovery bug). A mismatched
/// recovery is not an error — it is reported through
/// [`SimOutcome::matches`].
pub fn run_sim(config: &SimConfig, dir: &Path) -> io::Result<SimOutcome> {
    let _span = hwm_trace::span("crash_sim.run");
    fresh_dir(dir)?;
    let designer = bench_designer(config.seed);
    let plans = build_plans(&designer, config.clients, config.per_client, config.seed, config.jobs);
    let schedule = round_robin(&plans);

    // --- Oracle run -----------------------------------------------------
    let oracle_server = Arc::new(ActivationServer::new(
        bench_designer(config.seed),
        Registry::in_memory(),
        server_config(),
    ));
    let mut oracle_client = LocalClient::new(Arc::clone(&oracle_server));
    let mut oracle_responses = Vec::with_capacity(schedule.len());
    let mut storage_ticks = Vec::new();
    for (tick, req) in schedule.iter().enumerate() {
        let resp = oracle_client
            .call(req)
            .map_err(|e| io::Error::other(format!("oracle transport: {e}")))?;
        if resp.journal_event().is_some() {
            storage_ticks.push(tick as u64);
        }
        oracle_responses.push(resp);
    }
    let mut oracle_counters = CounterSums::new();
    absorb_counters(&mut oracle_counters, &oracle_server.snapshot());
    let oracle_journal = oracle_server
        .with_registry(|r| r.journal_bytes().expect("oracle journals to memory").to_vec());
    let oracle = state_of(
        &oracle_server,
        &oracle_responses,
        oracle_server.audit_jsonl(),
        oracle_counters,
    );
    let oracle_records = oracle_server.with_registry(|r| r.records().to_vec());
    let oracle_clones = oracle_server.with_registry(|r| r.clones().to_vec());

    // --- Fault plan -----------------------------------------------------
    let eligible: Vec<u64> = if config.kind.is_storage() {
        storage_ticks
    } else {
        (0..schedule.len() as u64).collect()
    };
    let plan = FaultPlan::new(config.seed, config.kind, &eligible, config.crashes);

    // --- Faulted run: crash at every plan tick, recover, resume ---------
    let journal = dir.join("journal.jsonl");
    let audit_path = dir.join("audit.jsonl");
    let server_cfg = server_config();
    let mut delivered: usize = 0;
    let mut responses: Vec<Response> = Vec::with_capacity(schedule.len());
    let mut counters = CounterSums::new();
    let mut crash_iter = plan.crash_ticks.iter().copied().peekable();
    let mut incarnations: u64 = 0;
    let final_server = 'world: loop {
        incarnations += 1;
        let injector = FaultInjector::new();
        let registry = Registry::open_with(
            &journal,
            RecoverOptions {
                flush: server_cfg.flush,
                compact_every: config.compact_every,
                injector: Some(injector.clone()),
            },
        )?;
        let audit = AuditLog::resume_file(&audit_path)?;
        let server = Arc::new(ActivationServer::resume(
            bench_designer(config.seed),
            registry,
            server_cfg,
            audit,
            delivered as u64,
        ));
        let mut client = LocalClient::with_faults(Arc::clone(&server), injector.clone());
        loop {
            if delivered == schedule.len() {
                absorb_counters(&mut counters, &server.snapshot());
                break 'world server;
            }
            let tick = delivered as u64;
            if crash_iter.peek() == Some(&tick) {
                crash_iter.next();
                // Counters of the dying incarnation, before the doomed
                // attempt (whose side effects the oracle never sees).
                absorb_counters(&mut counters, &server.snapshot());
                match config.kind {
                    FaultKind::TornWrite => injector.arm(ArmedFault::TornWrite {
                        salt: plan.byte_salt(tick),
                    }),
                    FaultKind::DiskFull => injector.arm(ArmedFault::DiskFull),
                    FaultKind::ShortRead => injector.arm(ArmedFault::ShortRead {
                        salt: plan.byte_salt(tick),
                    }),
                    FaultKind::ConnDrop => injector.arm(ArmedFault::ConnDrop),
                }
                // The doomed request must be destroyed by its fault:
                // transport faults surface as wire errors, storage faults
                // as a refused mutation. Anything else is a harness bug.
                match client.call(&schedule[delivered]) {
                    Err(_) => {}
                    Ok(Response::Error { code, .. })
                        if config.kind.is_storage() && code == ErrorCode::Malformed => {}
                    Ok(resp) => {
                        return Err(io::Error::other(format!(
                            "doomed {} request at tick {tick} was delivered: {resp:?}",
                            config.kind
                        )));
                    }
                }
                // Kill this incarnation; Drop flushes what it can.
                continue 'world;
            }
            let resp = client
                .call(&schedule[delivered])
                .map_err(|e| io::Error::other(format!("sim transport at tick {tick}: {e}")))?;
            responses.push(resp);
            delivered += 1;
        }
    };

    // --- Comparison -----------------------------------------------------
    let responses_match = responses == oracle_responses;
    let recovered_audit = std::fs::read_to_string(&audit_path).unwrap_or_default();
    let recovered = state_of(&final_server, &responses, recovered_audit, counters);
    let journal_bytes_match = if config.compact_every == 0 {
        Some(std::fs::read(&journal)? == oracle_journal)
    } else {
        None
    };
    let mut monitor_client = LocalClient::new(Arc::clone(&final_server));
    let dashboard = observe(&mut monitor_client)
        .map(|obs| render_dashboard(&obs, None))
        .map_err(|e| io::Error::other(format!("monitor poll: {e}")))?;
    drop(monitor_client);
    drop(final_server);

    // A final cold reopen must still see the oracle's world.
    let reopened = Registry::open(&journal)?;
    let reopen_matches = reopened.records() == oracle_records.as_slice()
        && reopened.clones() == oracle_clones.as_slice()
        && reopened.rolling_digest() == journal_digest(&oracle_journal);

    Ok(SimOutcome {
        config: *config,
        crash_ticks: plan.crash_ticks,
        incarnations,
        oracle,
        recovered,
        responses_match,
        journal_bytes_match,
        reopen_matches,
        dashboard,
    })
}

/// Runs one simulation per fault kind (scratch subdirectory each) and
/// renders the combined deterministic report: per-kind sections, then the
/// recovered fleet dashboard of the final kind. Returns the report and
/// whether every kind matched its oracle.
///
/// # Errors
///
/// Propagates [`run_sim`] failures.
pub fn run_matrix(
    base: &SimConfig,
    kinds: &[FaultKind],
    dir: &Path,
) -> io::Result<(String, bool)> {
    let mut out = String::new();
    let mut all_match = true;
    let _ = writeln!(
        out,
        "crash/restart simulation — every recovered world must equal its fault-free oracle"
    );
    let mut last_dashboard = String::new();
    for kind in kinds {
        let config = SimConfig { kind: *kind, ..*base };
        let outcome = run_sim(&config, &dir.join(kind.as_str()))?;
        let _ = writeln!(out);
        let _ = write!(out, "{}", outcome.report());
        all_match &= outcome.matches();
        last_dashboard = outcome.dashboard;
    }
    if !last_dashboard.is_empty() {
        let _ = writeln!(out, "\nrecovered fleet dashboard (final kind):");
        let _ = write!(out, "{last_dashboard}");
    }
    let _ = writeln!(
        out,
        "\nverdict: {}",
        if all_match {
            "all recovered worlds match their oracles"
        } else {
            "MISMATCH — see sections above"
        }
    );
    Ok((out, all_match))
}

/// Parameters of the clone-campaign alert simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertSimConfig {
    /// Master seed (drives both worlds' workloads).
    pub seed: u64,
    /// Fab/test clients in the honest workload.
    pub clients: usize,
    /// Dies fabricated per client.
    pub per_client: usize,
    /// Worker threads for plan generation (must not affect any result).
    pub jobs: usize,
}

impl AlertSimConfig {
    /// The default alert-simulation shape at a given seed.
    pub fn new(seed: u64) -> AlertSimConfig {
        AlertSimConfig {
            seed,
            clients: 8,
            per_client: 16,
            jobs: 1,
        }
    }
}

/// One world's alert-relevant final state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertWorld {
    /// Requests delivered.
    pub requests: u64,
    /// Duplicate-readout rejections (clone evidence).
    pub duplicates: u64,
    /// The alert transitions decoded from the audit stream, in order.
    pub transitions: Vec<AlertTransition>,
    /// The same transitions as JSONL bytes (what `--alerts-out` writes).
    pub alerts_jsonl: String,
}

/// Everything the alert simulation yields. Pure function of the
/// [`AlertSimConfig`] — byte-identical for any `jobs` — so
/// [`AlertSimOutcome::report`] is golden-snapshot material
/// (`results/alerts.txt`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertSimOutcome {
    /// The parameters that produced this outcome.
    pub config: AlertSimConfig,
    /// The honest baseline: standard workload, stock rules installed.
    pub quiet: AlertWorld,
    /// The attacked world: same workload plus the cloner.
    pub campaign: AlertWorld,
    /// Tick at which `duplicate_readout_spike` first fired in the
    /// campaign world (`None` = undetected).
    pub detection_tick: Option<u64>,
}

fn run_alert_world(config: &AlertSimConfig, plans: &[ClientPlan]) -> AlertWorld {
    let server = Arc::new(ActivationServer::new(
        bench_designer(config.seed),
        Registry::in_memory(),
        server_config(),
    ));
    server.set_alert_rules(fleet_rules());
    let tally = submit_local(&server, plans, 1);
    let mut client = LocalClient::new(Arc::clone(&server));
    let obs = observe(&mut client).expect("in-process monitor poll");
    AlertWorld {
        requests: tally.requests,
        duplicates: tally.duplicates,
        transitions: obs.audit.iter().filter_map(AlertTransition::from_audit).collect(),
        alerts_jsonl: server.alerts_jsonl(),
    }
}

/// Runs the clone-campaign alert simulation: the same seeded honest
/// workload twice — once as-is (the baseline must stay silent), once
/// with a cloner re-registering overbuilt dies (the
/// `duplicate_readout_spike` rule must fire). Both worlds run the
/// stock [`fleet_rules`] over in-memory servers.
pub fn run_alert_sim(config: &AlertSimConfig) -> AlertSimOutcome {
    let _span = hwm_trace::span("alert_sim.run");
    let designer = bench_designer(config.seed);
    let quiet_plans =
        build_plans(&designer, config.clients, config.per_client, config.seed, config.jobs);
    let campaign_plans = clone_campaign_plans(
        &designer,
        config.clients,
        config.per_client,
        config.seed,
        config.jobs,
    );
    let quiet = run_alert_world(config, &quiet_plans);
    let campaign = run_alert_world(config, &campaign_plans);
    let detection_tick = campaign
        .transitions
        .iter()
        .find(|t| t.state == AlertState::Firing && t.rule == "duplicate_readout_spike")
        .map(|t| t.tick);
    AlertSimOutcome {
        config: *config,
        quiet,
        campaign,
        detection_tick,
    }
}

impl AlertSimOutcome {
    /// Whether the simulation proved the detection story: the campaign
    /// fired `duplicate_readout_spike` and the baseline never fired
    /// anything.
    pub fn ok(&self) -> bool {
        self.detection_tick.is_some() && self.quiet.transitions.is_empty()
    }

    /// The deterministic report (golden-snapshot material:
    /// `results/alerts.txt`).
    pub fn report(&self) -> String {
        let c = &self.config;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "clone-campaign alert simulation — a seeded attack must fire the rules, \
             an honest fleet must not"
        );
        let _ = writeln!(
            out,
            "workload: seed {}, {} clients x {} dies; campaign adds {} cloners \
             each re-registering client-0's {} readouts",
            c.seed,
            c.clients,
            c.per_client,
            crate::serve::CAMPAIGN_CLONERS,
            c.per_client
        );
        let rules: Vec<String> =
            fleet_rules().rules.iter().map(|r| r.name.clone()).collect();
        let _ = writeln!(out, "rules: {}", rules.join(", "));
        for (label, w) in [("quiet baseline", &self.quiet), ("clone campaign", &self.campaign)] {
            let _ = writeln!(out);
            let _ = writeln!(out, "{label}:");
            let _ = writeln!(out, "  requests            {:>6}", w.requests);
            let _ = writeln!(out, "  duplicate readouts  {:>6}", w.duplicates);
            let _ = writeln!(out, "  alert transitions   {:>6}", w.transitions.len());
            for t in &w.transitions {
                let verb = match t.state {
                    AlertState::Firing => "FIRE   ",
                    AlertState::Resolved => "resolve",
                };
                let _ = writeln!(
                    out,
                    "    tick {:>5}  {verb} {} (value {}, threshold {})",
                    t.tick, t.rule, t.value, t.threshold
                );
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "verdict: {}",
            match (self.detection_tick, self.quiet.transitions.is_empty()) {
                (Some(tick), true) =>
                    format!("campaign detected at tick {tick}; baseline stayed quiet"),
                (Some(tick), false) =>
                    format!("campaign detected at tick {tick}, but the BASELINE FIRED"),
                (None, _) => "campaign UNDETECTED".to_string(),
            }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hwm-bench-sim-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn torn_write_simulation_matches_its_oracle() {
        let dir = scratch("torn");
        let cfg = SimConfig {
            clients: 4,
            per_client: 4,
            crashes: 2,
            ..SimConfig::new(2024, FaultKind::TornWrite)
        };
        let outcome = run_sim(&cfg, &dir).expect("sim runs");
        assert_eq!(outcome.incarnations, 3);
        assert_eq!(outcome.crash_ticks.len(), 2);
        assert!(outcome.matches(), "{}", outcome.report());
        assert_eq!(outcome.journal_bytes_match, Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_the_simulation_exact() {
        let dir = scratch("compact");
        let cfg = SimConfig {
            clients: 4,
            per_client: 4,
            crashes: 2,
            compact_every: 5,
            ..SimConfig::new(2024, FaultKind::DiskFull)
        };
        let outcome = run_sim(&cfg, &dir).expect("sim runs");
        assert!(outcome.matches(), "{}", outcome.report());
        assert_eq!(outcome.journal_bytes_match, None, "file truncated by compaction");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reports_are_independent_of_jobs() {
        let dir = scratch("jobs");
        let base = SimConfig {
            clients: 4,
            ..SimConfig::new(7, FaultKind::ConnDrop)
        };
        let a = run_sim(&SimConfig { jobs: 1, ..base }, &dir.join("a")).unwrap();
        let b = run_sim(&SimConfig { jobs: 2, ..base }, &dir.join("b")).unwrap();
        assert_eq!(a.report(), b.report());
        assert_eq!(a.dashboard, b.dashboard);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
