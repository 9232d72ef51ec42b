//! Deterministic fault injection for the crash simulation.
//!
//! A [`FaultPlan`] is a pure function of `(seed, kind)` plus the set of
//! *eligible* logical ticks the caller derives from a fault-free oracle
//! run. All draws use the workspace `StdRng`, never wall time or thread
//! scheduling, so the same plan — the same crash ticks, the same torn-byte
//! counts — is produced on every run and for every `--jobs` setting. That
//! is what lets the simulation compare a faulted run against its oracle
//! byte for byte.
//!
//! Fault kinds split into two families with different crash semantics:
//!
//! * **storage faults** ([`FaultKind::TornWrite`], [`FaultKind::DiskFull`])
//!   strike the journal append of the doomed request. They are only armed
//!   on ticks whose oracle outcome appends a journal line (otherwise there
//!   is nothing to tear). The write-ahead discipline means the in-memory
//!   state never saw the mutation, the response is never delivered, and
//!   the retried request after restart lands on the same `seq`.
//! * **transport faults** ([`FaultKind::ShortRead`],
//!   [`FaultKind::ConnDrop`]) lose the request before the server
//!   dispatches it, so any tick is eligible and a retry is always safe.
//!
//! The [`FaultInjector`] is the arming channel: the simulation arms
//! exactly one fault, the doomed operation consumes it, everything else
//! passes through untouched.
//!
//! [`absorb_counters`] is the oracle's counter fold: every simulation
//! (crash/restart and cluster failover alike) sums det-class counters
//! with it before comparing against the fault-free run.

use hwm_metrics::{MetricKind, SeriesValue, Snapshot};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};

/// A category of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The journal append writes only a prefix of the line, then fails —
    /// the crashed file ends in a torn tail.
    TornWrite,
    /// The journal append fails with ENOSPC before writing anything.
    DiskFull,
    /// The request frame is truncated mid-flight; the server sees only a
    /// prefix of it and the request is lost.
    ShortRead,
    /// The connection drops before the request frame is fully received;
    /// the request is lost.
    ConnDrop,
}

impl FaultKind {
    /// CLI/CI name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::TornWrite => "torn-write",
            FaultKind::DiskFull => "disk-full",
            FaultKind::ShortRead => "short-read",
            FaultKind::ConnDrop => "conn-drop",
        }
    }

    /// Parses a CLI/CI name.
    pub fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "torn-write" => Some(FaultKind::TornWrite),
            "disk-full" => Some(FaultKind::DiskFull),
            "short-read" => Some(FaultKind::ShortRead),
            "conn-drop" => Some(FaultKind::ConnDrop),
            _ => None,
        }
    }

    /// Whether this kind strikes the journal append path (and therefore
    /// must be armed on a tick whose oracle outcome appends a line).
    pub fn is_storage(self) -> bool {
        matches!(self, FaultKind::TornWrite | FaultKind::DiskFull)
    }

    /// All kinds, in CLI order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::TornWrite,
        FaultKind::DiskFull,
        FaultKind::ShortRead,
        FaultKind::ConnDrop,
    ];
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A seeded schedule of crash ticks for one fault kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Simulation seed the plan was drawn from.
    pub seed: u64,
    /// The kind every crash in this plan injects.
    pub kind: FaultKind,
    /// Logical ticks (indices into the request schedule) at which the
    /// fault fires, strictly increasing.
    pub crash_ticks: Vec<u64>,
}

impl FaultPlan {
    /// Draws `crashes` distinct crash ticks from `eligible` (sorted
    /// ascending in the result). Fewer ticks than requested crashes means
    /// every eligible tick is used. The draw depends only on
    /// `(seed, kind, eligible)` — never on `--jobs`, scheduling, or wall
    /// time.
    pub fn new(seed: u64, kind: FaultKind, eligible: &[u64], crashes: usize) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(plan_salt(seed, kind));
        let mut pool: Vec<u64> = eligible.to_vec();
        pool.sort_unstable();
        pool.dedup();
        let mut crash_ticks = Vec::new();
        for _ in 0..crashes.min(pool.len()) {
            let i = rng.random_range(0..pool.len());
            crash_ticks.push(pool.swap_remove(i));
        }
        crash_ticks.sort_unstable();
        FaultPlan {
            seed,
            kind,
            crash_ticks,
        }
    }

    /// Whether the plan fires at `tick`.
    pub fn is_crash(&self, tick: u64) -> bool {
        self.crash_ticks.binary_search(&tick).is_ok()
    }

    /// A deterministic per-tick salt for byte-level fault parameters
    /// (how many bytes of a torn line survive, how far a request frame
    /// gets). Pure in `(seed, kind, tick)`.
    pub fn byte_salt(&self, tick: u64) -> u64 {
        let mut rng = StdRng::seed_from_u64(plan_salt(self.seed, self.kind) ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64()
    }
}

/// Deterministic metrics counters summed per `(name, labels)` — what a
/// faulted run (or a cluster) must match against its fault-free
/// single-node oracle.
pub type CounterSums = BTreeMap<(String, Vec<(String, String)>), u64>;

/// Counters describing the recovery machinery itself — a fault-free
/// oracle never exercises it (a promotion counts one recovery), so they
/// are excluded from every oracle comparison.
const RECOVERY_ONLY: &[&str] = &["journal_recoveries_total", "journal_compactions_total"];

/// Adds a snapshot's det-class counters into `sums`, skipping the
/// recovery-only names and the router's `cluster_*` families (no
/// single-node snapshot has one, so they have no oracle counterpart).
pub fn absorb_counters(sums: &mut CounterSums, snapshot: &Snapshot) {
    for f in &snapshot.deterministic().families {
        if f.kind != MetricKind::Counter
            || RECOVERY_ONLY.contains(&f.name.as_str())
            || f.name.starts_with("cluster_")
        {
            continue;
        }
        for s in &f.series {
            if let SeriesValue::Int(v) = s.value {
                *sums.entry((f.name.clone(), s.labels.clone())).or_insert(0) += v;
            }
        }
    }
}

fn plan_salt(seed: u64, kind: FaultKind) -> u64 {
    // Distinct streams per kind so the torn-write and conn-drop plans for
    // one seed do not share crash ticks by construction.
    let kind_salt = match kind {
        FaultKind::TornWrite => 0x746f_726e,
        FaultKind::DiskFull => 0x6675_6c6c,
        FaultKind::ShortRead => 0x7265_6164,
        FaultKind::ConnDrop => 0x6472_6f70,
    };
    seed ^ (kind_salt as u64).wrapping_mul(0x0000_0100_0000_01b3)
}

/// A single armed fault, consumed by the first operation that can honor
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmedFault {
    /// Tear the next journal append: write `1 + salt % (len - 1)` bytes,
    /// flush them to the file, then fail.
    TornWrite {
        /// Deterministic salt choosing how many bytes survive.
        salt: u64,
    },
    /// Fail the next journal append with ENOSPC, writing nothing.
    DiskFull,
    /// Truncate the next request frame; the server sees only a prefix.
    ShortRead {
        /// Deterministic salt choosing how many bytes survive.
        salt: u64,
    },
    /// Drop the connection before the next request is dispatched.
    ConnDrop,
}

/// The one-shot arming channel between the simulation driver and the
/// journal writer and transport. Cloning shares the slot.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    armed: Arc<Mutex<Option<ArmedFault>>>,
}

impl FaultInjector {
    /// An injector with nothing armed.
    pub fn new() -> FaultInjector {
        FaultInjector::default()
    }

    fn slot(&self) -> MutexGuard<'_, Option<ArmedFault>> {
        // Poisoned only if another thread panicked while holding it. The
        // guarded sections only store or take one `Copy` value, so no
        // journal or frame bytes can make this fire.
        self.armed.lock().expect("fault injector poisoned")
    }

    /// Arms `fault`; the next operation that can honor it consumes it.
    /// Replaces any previously armed fault.
    pub fn arm(&self, fault: ArmedFault) {
        *self.slot() = Some(fault);
    }

    /// Takes the armed fault, if any (one-shot consumption).
    pub fn take(&self) -> Option<ArmedFault> {
        self.slot().take()
    }

    /// Consumes an armed storage fault for a journal append of `len`
    /// bytes: how many bytes of the line to write before failing, and
    /// the error to fail with. A torn write keeps at least one byte and
    /// loses at least one; a full disk keeps none. Transport faults stay
    /// armed for the transport layer (`None`).
    pub(crate) fn strike_append(&self, len: usize) -> Option<(usize, io::Error)> {
        let mut slot = self.slot();
        let (keep, err) = match (*slot)? {
            ArmedFault::DiskFull => (
                0,
                io::Error::new(
                    io::ErrorKind::WriteZero,
                    "injected disk-full (ENOSPC) on journal append",
                ),
            ),
            ArmedFault::TornWrite { salt } => {
                // A journal line is always at least "{}\n".
                let keep = if len < 2 {
                    len.saturating_sub(1)
                } else {
                    1 + (salt % (len as u64 - 1)) as usize
                };
                let err = io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("injected torn write: {keep} of {len} bytes"),
                );
                (keep, err)
            }
            ArmedFault::ShortRead { .. } | ArmedFault::ConnDrop => return None,
        };
        *slot = None;
        Some((keep, err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(FaultKind::parse("gamma-ray"), None);
    }

    #[test]
    fn plans_are_deterministic_and_sorted() {
        let eligible: Vec<u64> = (0..50).collect();
        let a = FaultPlan::new(2024, FaultKind::TornWrite, &eligible, 3);
        let b = FaultPlan::new(2024, FaultKind::TornWrite, &eligible, 3);
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(a.crash_ticks.len(), 3);
        assert!(a.crash_ticks.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        assert!(a.crash_ticks.iter().all(|t| eligible.contains(t)));
        let c = FaultPlan::new(2025, FaultKind::TornWrite, &eligible, 3);
        assert_ne!(a.crash_ticks, c.crash_ticks, "seed changes the plan");
        let d = FaultPlan::new(2024, FaultKind::ConnDrop, &eligible, 3);
        assert_ne!(a.crash_ticks, d.crash_ticks, "kind changes the stream");
        // More crashes than eligible ticks: use them all.
        let e = FaultPlan::new(7, FaultKind::DiskFull, &[4, 2], 9);
        assert_eq!(e.crash_ticks, vec![2, 4]);
        assert!(e.is_crash(4) && !e.is_crash(3));
    }

    #[test]
    fn byte_salts_are_pure_in_tick() {
        let plan = FaultPlan::new(99, FaultKind::TornWrite, &[1, 2, 3], 2);
        assert_eq!(plan.byte_salt(1), plan.byte_salt(1));
        assert_ne!(plan.byte_salt(1), plan.byte_salt(2));
    }

    #[test]
    fn injector_is_one_shot() {
        let inj = FaultInjector::new();
        assert_eq!(inj.take(), None);
        inj.arm(ArmedFault::DiskFull);
        assert_eq!(inj.take(), Some(ArmedFault::DiskFull));
        assert_eq!(inj.take(), None);
    }
}
