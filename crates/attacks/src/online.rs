//! Attack (x): online brute force against the activation service.
//!
//! The offline brute-force analysis (Table 3, [`crate::brute`]) assumes
//! Bob can try keys against silicon at fab speed — millions of free
//! guesses. Once activation happens through Alice's *service*, every
//! guessed readout is a request she observes and rate-limits: the
//! token bucket caps the request rate and the exponential lockout makes
//! the Nth consecutive wrong readout progressively more expensive. This
//! module runs that campaign and measures what the throttle leaves of
//! the attacker's budget.
//!
//! The asymptotics shift from "guesses per second" to "guesses per
//! lockout window": with threshold *f* and doubling lockouts starting at
//! *B* ticks, the attacker gets ~*f·k* evaluated guesses in *B·(2^k − 1)*
//! ticks — exponentially worse than linear scanning, independent of the
//! lock's own strength.

use crate::AttackOutcome;
use hwm_service::wire::{ErrorCode, Request, Response};
use hwm_service::ActivationServer;
use rand::rngs::StdRng;
use rand::Rng;

/// Result of an online brute-force campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineBruteOutcome {
    /// Wrong readouts the server evaluated before the first lockout
    /// fired (the throttle's headline number: its `failure_threshold`).
    pub attempts_until_first_lockout: Option<u64>,
    /// Guesses the server actually evaluated against the registry.
    pub evaluated: u64,
    /// Requests refused unevaluated (token bucket or active lockout).
    pub refused: u64,
    /// Lockouts suffered.
    pub lockouts: u64,
    /// Logical ticks the campaign consumed.
    pub ticks: u64,
    /// Whether any guess was answered with a key.
    pub unlocked: bool,
}

/// Runs a full campaign of `budget` requests against the server and
/// tallies what the throttle let through.
pub fn online_brute_force(
    server: &ActivationServer,
    client: &str,
    readout_width: usize,
    budget: u64,
    rng: &mut StdRng,
) -> OnlineBruteOutcome {
    let _span = hwm_trace::span("attack.online_brute");
    let start_tick = server.clock();
    let mut out = OnlineBruteOutcome {
        attempts_until_first_lockout: None,
        evaluated: 0,
        refused: 0,
        lockouts: 0,
        ticks: 0,
        unlocked: false,
    };
    for _ in 0..budget {
        match guess_once(server, client, readout_width, rng) {
            GuessResult::Evaluated { locked_out } => {
                out.evaluated += 1;
                if locked_out {
                    out.lockouts += 1;
                    if out.attempts_until_first_lockout.is_none() {
                        out.attempts_until_first_lockout = Some(out.evaluated);
                    }
                }
            }
            GuessResult::Refused => out.refused += 1,
            GuessResult::Unlocked => {
                out.unlocked = true;
                break;
            }
        }
    }
    out.ticks = server.clock() - start_tick;
    out
}

/// Runs the campaign and phrases it as a report row.
pub fn run(
    server: &ActivationServer,
    readout_width: usize,
    budget: u64,
    rng: &mut StdRng,
) -> AttackOutcome {
    let out = online_brute_force(server, "mallory", readout_width, budget, rng);
    let detail = if out.unlocked {
        format!("obtained a key after {} evaluated guesses", out.evaluated)
    } else {
        format!(
            "{} of {} guesses evaluated ({} refused, {} lockouts; first lockout after {})",
            out.evaluated,
            budget,
            out.refused,
            out.lockouts,
            match out.attempts_until_first_lockout {
                Some(n) => n.to_string(),
                None => "never".to_string(),
            },
        )
    };
    if out.unlocked {
        AttackOutcome::succeeded(out.evaluated, detail)
    } else {
        AttackOutcome::failed(out.evaluated + out.refused, detail)
    }
}

enum GuessResult {
    /// The server checked the readout against the registry. `locked_out`
    /// reports whether this attempt triggered a lockout.
    Evaluated { locked_out: bool },
    /// Bounced by throttle or an active lockout — no evaluation happened.
    Refused,
    /// The guess collided with a registered die and a key came back.
    Unlocked,
}

fn guess_once(
    server: &ActivationServer,
    client: &str,
    readout_width: usize,
    rng: &mut StdRng,
) -> GuessResult {
    let readout: String = (0..readout_width)
        .map(|_| if rng.random_range(0..2u8) == 1 { '1' } else { '0' })
        .collect();
    let resp = server.handle(&Request::Unlock {
        client: client.to_string(),
        readout,
    });
    match resp {
        Response::Key { .. } => GuessResult::Unlocked,
        Response::Error { code, retry_at, .. } => match code {
            ErrorCode::UnknownReadout => GuessResult::Evaluated {
                locked_out: retry_at.is_some(),
            },
            ErrorCode::Throttled | ErrorCode::LockedOut => GuessResult::Refused,
            // Any other refusal still consumed an evaluation slot.
            _ => GuessResult::Evaluated { locked_out: false },
        },
        _ => GuessResult::Evaluated { locked_out: false },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwm_fsm::Stg;
    use hwm_metering::{Designer, LockOptions};
    use hwm_service::{Registry, ServerConfig, ThrottleConfig};
    use rand::SeedableRng;

    fn throttled_server(seed: u64, throttle: ThrottleConfig) -> (ActivationServer, usize) {
        let designer = Designer::new(
            Stg::ring_counter(5, 2),
            LockOptions {
                added_modules: 2,
                ..LockOptions::default()
            },
            seed,
        )
        .unwrap();
        let width = designer.blueprint().scan_layout().total();
        (
            ActivationServer::new(
                designer,
                Registry::in_memory(),
                ServerConfig {
                    throttle,
                    ..ServerConfig::default()
                },
            ),
            width,
        )
    }

    #[test]
    fn lockout_fires_after_exactly_the_threshold() {
        let throttle = ThrottleConfig {
            failure_threshold: 5,
            ..ThrottleConfig::default()
        };
        let (server, width) = throttled_server(91, throttle);
        let mut rng = StdRng::seed_from_u64(92);
        let out = online_brute_force(&server, "mallory", width, 1_000, &mut rng);
        assert_eq!(out.attempts_until_first_lockout, Some(5), "{out:?}");
    }

    #[test]
    fn throttle_starves_a_large_budget() {
        let throttle = ThrottleConfig {
            burst: 8,
            refill_ticks: 4,
            failure_threshold: 4,
            base_lockout_ticks: 64,
            max_lockout_ticks: 1 << 16,
        };
        let (server, width) = throttled_server(93, throttle);
        let mut rng = StdRng::seed_from_u64(94);
        let out = online_brute_force(&server, "mallory", width, 10_000, &mut rng);
        assert!(!out.unlocked);
        assert!(out.lockouts >= 2, "{out:?}");
        assert_eq!(
            out.attempts_until_first_lockout,
            Some(4),
            "threshold is the headline: {out:?}"
        );
        assert!(
            out.evaluated * 10 < out.refused,
            "the throttle must refuse the overwhelming majority: {out:?}"
        );
    }

    #[test]
    fn report_row_reads_well() {
        let (server, width) = throttled_server(95, ThrottleConfig::default());
        let mut rng = StdRng::seed_from_u64(96);
        let outcome = run(&server, width, 2_000, &mut rng);
        assert!(!outcome.success);
        assert!(outcome.detail.contains("lockout"), "{}", outcome.detail);
    }
}
