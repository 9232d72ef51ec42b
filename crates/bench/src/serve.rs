//! The activation-service workload: plan generation and submission for
//! `serve_bench` and the determinism tests.
//!
//! Two phases keep the workload deterministic under fan-out:
//!
//! 1. **Generation** (parallel over `--jobs` via
//!    [`crate::parallel::run_indexed`]): each client's schedule depends
//!    only on `(seed, client index)`.
//! 2. **Submission** (serial round-robin through [`LocalClient`]): the
//!    server's logical clock ticks once per request, so admission
//!    decisions and the registry journal are byte-identical for any
//!    `--jobs` value.
//!
//! TCP submission lives here too but is genuinely concurrent — journal
//! *order* then follows the scheduler, and only response counts (not
//! bytes) are stable.

use crate::parallel::item_seed;
use hwm_metering::{Designer, Foundry, LockOptions};
use hwm_metrics::{AlertRule, AlertRuleSet, RuleKind, SeriesSelector, WindowStat};
use hwm_service::wire::readout_to_bits_string;
use hwm_service::{
    ActivationServer, ErrorCode, LocalClient, Request, Response, ServerConfig, TcpClient,
    ThrottleConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One client's scripted session.
#[derive(Debug, Clone)]
pub struct ClientPlan {
    /// Requests in submission order.
    pub requests: Vec<Request>,
}

/// Deterministic tally of response kinds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Total requests submitted.
    pub requests: u64,
    /// Successful registrations.
    pub registered: u64,
    /// Keys issued.
    pub keys: u64,
    /// Remote disables executed.
    pub disabled: u64,
    /// Status reports returned.
    pub statuses: u64,
    /// Duplicate readout / duplicate IC rejections (clone evidence).
    pub duplicates: u64,
    /// Unknown-readout rejections (wrong guesses).
    pub wrong_readouts: u64,
    /// Unlocks of already-unlocked dies.
    pub already_unlocked: u64,
    /// Token-bucket rejections.
    pub throttled: u64,
    /// Lockout rejections.
    pub locked_out: u64,
    /// Any other error (e.g. a black-hole die with no key).
    pub other_errors: u64,
}

impl Tally {
    /// Counts one response.
    pub fn absorb(&mut self, resp: &Response) {
        self.requests += 1;
        match resp {
            Response::Registered { .. } => self.registered += 1,
            Response::Key { .. } => self.keys += 1,
            Response::Disabled { .. } => self.disabled += 1,
            Response::Status(_) => self.statuses += 1,
            // Admin-plane responses are not part of the service workload;
            // nothing in the tally tracks them.
            Response::Metrics { .. }
            | Response::Audit { .. }
            | Response::History { .. }
            | Response::Traces { .. } => {}
            Response::Error { code, .. } => match code {
                ErrorCode::DuplicateReadout | ErrorCode::DuplicateIc => self.duplicates += 1,
                ErrorCode::UnknownReadout => self.wrong_readouts += 1,
                ErrorCode::AlreadyUnlocked => self.already_unlocked += 1,
                ErrorCode::Throttled => self.throttled += 1,
                ErrorCode::LockedOut => self.locked_out += 1,
                _ => self.other_errors += 1,
            },
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.requests += other.requests;
        self.registered += other.registered;
        self.keys += other.keys;
        self.disabled += other.disabled;
        self.statuses += other.statuses;
        self.duplicates += other.duplicates;
        self.wrong_readouts += other.wrong_readouts;
        self.already_unlocked += other.already_unlocked;
        self.throttled += other.throttled;
        self.locked_out += other.locked_out;
        self.other_errors += other.other_errors;
    }
}

/// The benched lock: small enough to fabricate hundreds of dies quickly,
/// holes + remote disable on so every request type has work to do.
///
/// # Panics
///
/// Panics if the fixed lock options are rejected (cannot happen).
pub fn bench_designer(seed: u64) -> Designer {
    Designer::new(
        hwm_fsm::Stg::ring_counter(6, 2),
        LockOptions {
            added_modules: 3,
            black_holes: 1,
            ..LockOptions::default()
        },
        seed,
    )
    .expect("bench designer construction")
}

/// Server policy for the benchmark: generous bucket (the legitimate fab
/// bursts registrations), tight lockout (wrong readouts are rare in
/// honest traffic).
pub fn server_config() -> ServerConfig {
    ServerConfig {
        throttle: ThrottleConfig {
            burst: 256,
            refill_ticks: 1,
            failure_threshold: 5,
            base_lockout_ticks: 1_000,
            max_lockout_ticks: 1 << 20,
        },
        ..ServerConfig::default()
    }
}

/// Builds every client's schedule in parallel. Pure up to `(seed, i)`:
/// the result is independent of `jobs`.
pub fn build_plans(
    designer: &Designer,
    clients: usize,
    per_client: usize,
    seed: u64,
    jobs: usize,
) -> Vec<ClientPlan> {
    let _span = hwm_trace::span("serve_bench.generate");
    let blueprint = designer.blueprint().clone();
    let width = blueprint.scan_layout().total();
    crate::parallel::run_indexed(jobs, clients, |i| {
        let cseed = item_seed(seed, i as u64);
        let mut foundry = Foundry::new(blueprint.clone(), cseed);
        let mut rng = StdRng::seed_from_u64(cseed ^ 0x10AD);
        let name = format!("client-{i}");
        let mut requests = Vec::new();
        for c in 0..per_client {
            let chip = foundry.fabricate_one();
            let readout = readout_to_bits_string(&chip.scan_flip_flops().0);
            let ic = format!("ic-{i}-{c}");
            requests.push(Request::Register {
                client: name.clone(),
                ic: ic.clone(),
                readout: readout.clone(),
            });
            // Every fourth die, one guessed readout first — wrong with
            // overwhelming probability, and the following successful
            // unlock resets the failure streak, so honest clients stay
            // under the lockout threshold.
            if c % 4 == 3 {
                let guess: String = (0..width)
                    .map(|_| if rng.random_range(0..2u8) == 1 { '1' } else { '0' })
                    .collect();
                requests.push(Request::Unlock {
                    client: name.clone(),
                    readout: guess,
                });
            }
            requests.push(Request::Unlock {
                client: name.clone(),
                readout,
            });
            if c % 8 == 5 {
                requests.push(Request::RemoteDisable {
                    client: name.clone(),
                    ic,
                });
            }
        }
        requests.push(Request::Status {
            client: name.clone(),
            ic: None,
        });
        ClientPlan { requests }
    })
}

/// Cloning workshops the campaign fields in parallel.
pub const CAMPAIGN_CLONERS: usize = 4;

/// The standard plans plus a coordinated clone campaign:
/// [`CAMPAIGN_CLONERS`] attacker clients that have each fabricated
/// their own copies of client-0's dies from its exact foundry stream
/// (the same `(seed, 0)` chip sequence — the overbuilding scenario of
/// the paper) and try to activate the clones by re-registering their
/// readouts. Round-robin interleaves the attackers with honest traffic,
/// so the duplicate-readout evidence arrives as a sustained elevated
/// *rate* — several duplicates per scheduling pass, well above the
/// honest fleet's occasional birthday collisions — which is what
/// [`fleet_rules`]'s `duplicate_readout_spike` watches for.
pub fn clone_campaign_plans(
    designer: &Designer,
    clients: usize,
    per_client: usize,
    seed: u64,
    jobs: usize,
) -> Vec<ClientPlan> {
    let mut plans = build_plans(designer, clients, per_client, seed, jobs);
    let mut foundry = Foundry::new(designer.blueprint().clone(), item_seed(seed, 0));
    let readouts: Vec<String> = (0..per_client)
        .map(|_| readout_to_bits_string(&foundry.fabricate_one().scan_flip_flops().0))
        .collect();
    for k in 0..CAMPAIGN_CLONERS {
        let requests = readouts
            .iter()
            .enumerate()
            .map(|(c, readout)| Request::Register {
                client: format!("cloner-{k}"),
                ic: format!("clone-{k}-{c}"),
                readout: readout.clone(),
            })
            .collect();
        plans.push(ClientPlan { requests });
    }
    plans
}

/// The stock alert-rule set for the activation fleet. Thresholds are
/// tuned so the standard honest workloads (including their occasional
/// birthday-collision duplicates and every-fourth-die wrong guesses)
/// stay quiet, while a clone campaign's sustained duplicate stream
/// fires `duplicate_readout_spike`.
///
/// # Panics
///
/// Panics if the stock rules fail validation (cannot happen).
pub fn fleet_rules() -> AlertRuleSet {
    AlertRuleSet::new(vec![
        AlertRule {
            name: "duplicate_readout_spike".into(),
            kind: RuleKind::Threshold {
                series: SeriesSelector::labelled(
                    "audit_events_total",
                    &[("kind", "duplicate_readout")],
                ),
                stat: WindowStat::RatePer1k,
                window: 64,
                fire_at: 200,
                resolve_at: 100,
            },
        },
        AlertRule {
            name: "lockout_storm".into(),
            kind: RuleKind::Threshold {
                series: SeriesSelector::bare("throttle_lockouts_total"),
                stat: WindowStat::Delta,
                window: 256,
                fire_at: 3,
                resolve_at: 1,
            },
        },
        AlertRule {
            name: "unlock_slo_burn".into(),
            kind: RuleKind::BurnRate {
                bad: SeriesSelector::family("service_wrong_readouts_total"),
                total: SeriesSelector::family("service_requests_total"),
                window: 256,
                slo_milli: 800,
                fire_burn_milli: 2000,
                resolve_burn_milli: 1000,
            },
        },
        AlertRule {
            name: "key_issuance_stall".into(),
            kind: RuleKind::Absence {
                series: SeriesSelector::labelled(
                    "service_requests_total",
                    &[("op", "unlock"), ("outcome", "key")],
                ),
                window: 128,
            },
        },
    ])
    .expect("stock fleet rules validate")
}

/// Flattens client plans into the serial submission order: round-robin,
/// one request per client per pass. This is exactly the order
/// [`submit_local`] dispatches in — the crash simulation
/// ([`crate::sim`]) replays the same flat schedule so its logical ticks
/// line up with the benchmark's.
pub fn round_robin(plans: &[ClientPlan]) -> Vec<Request> {
    let mut order = Vec::new();
    let mut cursors = vec![0usize; plans.len()];
    loop {
        let mut progressed = false;
        for (plan, cursor) in plans.iter().zip(cursors.iter_mut()) {
            if let Some(req) = plan.requests.get(*cursor) {
                *cursor += 1;
                progressed = true;
                order.push(req.clone());
            }
        }
        if !progressed {
            return order;
        }
    }
}

/// Round-robin submission over the in-process transport, `depth`
/// requests per burst ([`LocalClient::call_pipelined`]; depth 1 is one
/// round trip per request). Dispatch order is the flat schedule for any
/// depth, so the journal, audit stream and det-class counters are
/// byte-identical.
///
/// # Panics
///
/// Panics if the in-process codec rejects one of its own frames.
pub fn submit_local(server: &Arc<ActivationServer>, plans: &[ClientPlan], depth: usize) -> Tally {
    let _span = hwm_trace::span("serve_bench.submit");
    let mut client = LocalClient::new(Arc::clone(server));
    let mut tally = Tally::default();
    for window in round_robin(plans).chunks(depth.max(1)) {
        for resp in &client.call_pipelined(window).expect("in-process transport") {
            tally.absorb(resp);
        }
    }
    tally
}

/// Concurrent submission over TCP: one connection per client, each
/// sending `depth` requests per burst ([`TcpClient::call_pipelined`];
/// depth 1 is one round trip per request), against an already-listening
/// server (the caller owns the [`hwm_service::TcpServer`], so it can
/// report the bound port and keep serving after the workload — e.g. for
/// `serve_bench --hold` with an external monitor attached).
///
/// # Errors
///
/// Propagates socket failures from any client thread.
///
/// # Panics
///
/// Panics if a client thread itself panics.
pub fn submit_tcp(
    addr: std::net::SocketAddr,
    plans: Vec<ClientPlan>,
    depth: usize,
) -> std::io::Result<Tally> {
    let _span = hwm_trace::span("serve_bench.submit_tcp");
    let results: Vec<std::io::Result<Tally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .into_iter()
            .map(|plan| {
                scope.spawn(move || {
                    let mut client = TcpClient::connect(addr)?;
                    let mut tally = Tally::default();
                    for window in plan.requests.chunks(depth.max(1)) {
                        let resps = client.call_pipelined(window).map_err(|e| {
                            std::io::Error::new(std::io::ErrorKind::InvalidData, e.message)
                        })?;
                        for resp in &resps {
                            tally.absorb(resp);
                        }
                    }
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut tally = Tally::default();
    for r in results {
        tally.merge(&r?);
    }
    Ok(tally)
}
