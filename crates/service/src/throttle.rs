//! Per-client admission control: token bucket + exponential lockout.
//!
//! Two independent mechanisms, both keyed by the wire `client` identity
//! and driven by the server's **logical clock** (one tick per request —
//! not wall time, so admission decisions are a pure function of the
//! request sequence and the harness's determinism contract extends to
//! them):
//!
//! * a **token bucket** caps sustained request rate: `burst` tokens,
//!   refilled one per `refill_ticks` elapsed ticks. An empty bucket
//!   answers [`Decision::Throttled`] with the retry tick.
//! * an **exponential lockout** punishes wrong readouts: after
//!   `failure_threshold` consecutive failures the client is locked out for
//!   `base_lockout_ticks`, doubling on each subsequent lockout up to
//!   `max_lockout_ticks`. This is the online counterpart of the paper's
//!   Table 3 brute-force analysis — the offline attacker spends ~10⁶ free
//!   guesses, the online attacker gets `failure_threshold` per lockout
//!   window (see `hwm_attacks::online`).

use std::collections::HashMap;

/// Rate-limiter tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThrottleConfig {
    /// Token-bucket capacity (requests admitted back-to-back).
    pub burst: u32,
    /// Ticks per replenished token.
    pub refill_ticks: u64,
    /// Consecutive failures before a lockout fires.
    pub failure_threshold: u32,
    /// First lockout duration in ticks.
    pub base_lockout_ticks: u64,
    /// Lockout durations are capped here (doubling stops).
    pub max_lockout_ticks: u64,
}

impl Default for ThrottleConfig {
    fn default() -> Self {
        ThrottleConfig {
            burst: 64,
            refill_ticks: 1,
            failure_threshold: 5,
            base_lockout_ticks: 1_000,
            max_lockout_ticks: 1 << 20,
        }
    }
}

/// Outcome of an admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Admitted; one token consumed.
    Allowed,
    /// Bucket empty; retry at the given tick.
    Throttled {
        /// First tick at which a token will be available.
        retry_at: u64,
    },
    /// Lockout active until the given tick.
    LockedOut {
        /// First tick after the lockout expires.
        until: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct ClientState {
    tokens: u32,
    last_refill: u64,
    consecutive_failures: u32,
    locked_until: u64,
    lockouts: u32,
}

/// The per-client rate limiter.
#[derive(Debug)]
pub struct RateLimiter {
    config: ThrottleConfig,
    clients: HashMap<String, ClientState>,
    total_lockouts: u64,
}

impl RateLimiter {
    /// A limiter with the given tuning.
    pub fn new(config: ThrottleConfig) -> RateLimiter {
        RateLimiter {
            config,
            clients: HashMap::new(),
            total_lockouts: 0,
        }
    }

    /// The tuning in effect.
    pub fn config(&self) -> &ThrottleConfig {
        &self.config
    }

    fn state_mut(&mut self, client: &str, now: u64) -> &mut ClientState {
        let burst = self.config.burst;
        self.clients
            .entry(client.to_string())
            .or_insert(ClientState {
                tokens: burst,
                last_refill: now,
                consecutive_failures: 0,
                locked_until: 0,
                lockouts: 0,
            })
    }

    /// Admission check at logical tick `now`; consumes a token when
    /// admitted.
    pub fn check(&mut self, client: &str, now: u64) -> Decision {
        let config = self.config;
        let s = self.state_mut(client, now);
        if now < s.locked_until {
            return Decision::LockedOut {
                until: s.locked_until,
            };
        }
        // Refill for elapsed ticks.
        if let Some(refilled) = now.saturating_sub(s.last_refill).checked_div(config.refill_ticks) {
            if refilled > 0 {
                s.tokens = s.tokens.saturating_add(refilled.min(u32::MAX as u64) as u32);
                s.tokens = s.tokens.min(config.burst);
                s.last_refill += refilled * config.refill_ticks;
            }
        }
        if s.tokens == 0 {
            return Decision::Throttled {
                retry_at: s.last_refill + config.refill_ticks,
            };
        }
        s.tokens -= 1;
        Decision::Allowed
    }

    /// Records a wrong-readout failure at tick `now`. Returns the lockout
    /// expiry tick when this failure crossed the threshold.
    pub fn record_failure(&mut self, client: &str, now: u64) -> Option<u64> {
        let config = self.config;
        let s = self.state_mut(client, now);
        s.consecutive_failures += 1;
        if s.consecutive_failures < config.failure_threshold {
            return None;
        }
        // Threshold reached: lock out, doubling per prior lockout.
        let exponent = s.lockouts.min(63);
        let duration = config
            .base_lockout_ticks
            .saturating_mul(1u64 << exponent)
            .min(config.max_lockout_ticks);
        s.locked_until = now + duration;
        s.lockouts += 1;
        s.consecutive_failures = 0;
        self.total_lockouts += 1;
        Some(now + duration)
    }

    /// Records a successful request, clearing the failure streak.
    pub fn record_success(&mut self, client: &str) {
        if let Some(s) = self.clients.get_mut(client) {
            s.consecutive_failures = 0;
        }
    }

    /// Lockouts triggered across all clients so far.
    pub fn total_lockouts(&self) -> u64 {
        self.total_lockouts
    }

    /// Lockouts this client has triggered so far (the audit stream
    /// reports it with each `lockout` alert, so a dashboard can spot
    /// repeat offenders without replaying history).
    pub fn lockout_count(&self, client: &str) -> u32 {
        self.clients.get(client).map_or(0, |s| s.lockouts)
    }

    /// Current lockout expiry for a client, if one is active at `now`.
    pub fn locked_until(&self, client: &str, now: u64) -> Option<u64> {
        self.clients
            .get(client)
            .filter(|s| now < s.locked_until)
            .map(|s| s.locked_until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ThrottleConfig {
        ThrottleConfig {
            burst: 3,
            refill_ticks: 10,
            failure_threshold: 4,
            base_lockout_ticks: 100,
            max_lockout_ticks: 400,
        }
    }

    #[test]
    fn bucket_admits_burst_then_throttles() {
        let mut rl = RateLimiter::new(config());
        for _ in 0..3 {
            assert_eq!(rl.check("c", 0), Decision::Allowed);
        }
        assert_eq!(rl.check("c", 0), Decision::Throttled { retry_at: 10 });
        // One refill tick later a single token is back.
        assert_eq!(rl.check("c", 10), Decision::Allowed);
        assert_eq!(rl.check("c", 10), Decision::Throttled { retry_at: 20 });
        // A long idle period refills to the cap, not beyond.
        for _ in 0..3 {
            assert_eq!(rl.check("c", 1_000), Decision::Allowed);
        }
        assert!(matches!(rl.check("c", 1_000), Decision::Throttled { .. }));
    }

    #[test]
    fn clients_are_independent() {
        let mut rl = RateLimiter::new(config());
        for _ in 0..3 {
            assert_eq!(rl.check("a", 0), Decision::Allowed);
        }
        assert!(matches!(rl.check("a", 0), Decision::Throttled { .. }));
        assert_eq!(rl.check("b", 0), Decision::Allowed);
    }

    #[test]
    fn nth_failure_triggers_lockout() {
        let mut rl = RateLimiter::new(config());
        for i in 1..4 {
            assert_eq!(rl.record_failure("c", i), None, "failure {i}");
        }
        // The 4th (threshold) failure locks out for base_lockout_ticks.
        assert_eq!(rl.record_failure("c", 4), Some(104));
        assert_eq!(rl.check("c", 5), Decision::LockedOut { until: 104 });
        assert_eq!(rl.total_lockouts(), 1);
        assert_eq!(rl.lockout_count("c"), 1);
        assert_eq!(rl.lockout_count("stranger"), 0);
        assert_eq!(rl.locked_until("c", 5), Some(104));
        // After expiry the client is admitted again.
        assert_eq!(rl.check("c", 104), Decision::Allowed);
        assert_eq!(rl.locked_until("c", 104), None);
    }

    #[test]
    fn lockouts_double_then_cap() {
        let mut rl = RateLimiter::new(config());
        let mut now = 0;
        let mut durations = Vec::new();
        for _ in 0..4 {
            let until = loop {
                now += 1;
                if let Some(until) = rl.record_failure("c", now) {
                    break until;
                }
            };
            durations.push(until - now);
            now = until;
        }
        assert_eq!(durations, vec![100, 200, 400, 400], "double, then cap");
    }

    #[test]
    fn success_resets_the_streak() {
        let mut rl = RateLimiter::new(config());
        for i in 1..4 {
            assert_eq!(rl.record_failure("c", i), None);
        }
        rl.record_success("c");
        for i in 4..7 {
            assert_eq!(rl.record_failure("c", i), None, "streak restarted");
        }
        assert!(rl.record_failure("c", 7).is_some());
    }
}
