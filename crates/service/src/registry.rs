//! The persistent IC registry: per-die state plus an append-only journal.
//!
//! Every state change appends exactly one JSON line to the journal before
//! the in-memory tables change, so the journal is the registry: a crashed
//! or restarted server rebuilds its full state by replaying the file
//! (last-write-wins is unnecessary — events are never rewritten). Events
//! are a pure function of the accepted request sequence, so a fixed
//! request schedule produces byte-identical journals on every run — the
//! harness's determinism contract extends to the serving layer.
//!
//! Journal schema (one compact JSON object per line, `\n`-terminated):
//!
//! ```text
//! {"event":"register","seq":1,"ic":"c0-ic0","client":"c0","readout":"0101...","group":2}
//! {"event":"duplicate","seq":2,"ic":"c1-ic9","client":"c1","prior":"c0-ic0"}
//! {"event":"unlock","seq":3,"ic":"c0-ic0","client":"c0","key_len":9}
//! {"event":"disable","seq":4,"ic":"c0-ic0","client":"c0"}
//! ```
//!
//! `seq` increases by one per event. Keys themselves are **not**
//! journaled (only their length): the designer's activation ledger is the
//! authoritative key store, and keeping key material out of the registry
//! file means a leaked journal discloses no unlock secrets.
//!
//! The `duplicate` event is the passive-metering detector (DAC 2001): two
//! registrations with the same power-up readout mean one of the dies is a
//! clone (or the foundry double-reported) — the collision itself is the
//! evidence, so the rejected attempt is journaled rather than dropped.
//!
//! # Crash recovery
//!
//! [`Registry::open`] recovers from snapshot + journal tail:
//! [`crate::snapshot::RegistrySnapshot`] (schema v1, written atomically by
//! [`Registry::compact`]) restores everything through `snapshot.seq`, then
//! only tail lines with a later `seq` are replayed (earlier ones — left
//! behind when a crash lands between the snapshot rename and the journal
//! truncation — are recognized and skipped). A **torn tail** — a final
//! line without the terminating `\n` a clean append always writes — is a
//! crash artifact: it is logged, discarded, and truncated away so the next
//! append starts on a fresh line. Anything else that fails to parse or
//! apply is genuine corruption and still hard-fails with its line number.
//! [`Registry::replay`] (the strict full-text API) keeps rejecting torn
//! tails too: callers handing it raw text want the lossless check.
//!
//! The registry also maintains a **rolling FNV-1a digest** over every
//! journal byte ever appended. The digest is carried in the snapshot
//! across compactions, so "journal digest" remains comparable to the
//! digest of the full uncompacted journal — the fingerprint the
//! determinism and crash-simulation tests compare against a fault-free
//! oracle.

use crate::fault::FaultyStore;
use crate::snapshot::{snapshot_path, RegistrySnapshot};
use crate::storage::{FileStore, FlushPolicy, JournalStore};
use crate::wire::WireError;
use hwm_jsonio::{FieldError, Json, StrictObj};
use hwm_metrics::{MetricClass, MetricsRegistry, LATENCY_BUCKETS_NS};
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Lifecycle state of one registered IC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IcState {
    /// Fabrication reported; key not yet issued.
    Registered,
    /// Key issued; the die is active in the field.
    Unlocked,
    /// Remotely disabled; no further service.
    Disabled,
}

impl IcState {
    /// Wire/journal name of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            IcState::Registered => "registered",
            IcState::Unlocked => "unlocked",
            IcState::Disabled => "disabled",
        }
    }

    /// Parses a wire/journal/snapshot state name.
    pub fn parse(s: &str) -> Option<IcState> {
        match s {
            "registered" => Some(IcState::Registered),
            "unlocked" => Some(IcState::Unlocked),
            "disabled" => Some(IcState::Disabled),
            _ => None,
        }
    }
}

impl fmt::Display for IcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One registered die.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcRecord {
    /// Foundry-assigned label.
    pub ic: String,
    /// Client that registered the die.
    pub client: String,
    /// Power-up readout bit string (the die's identity).
    pub readout: String,
    /// SFFSM group reported at registration.
    pub group: u8,
    /// Current lifecycle state.
    pub state: IcState,
    /// Journal sequence number of the registration event.
    pub seq: u64,
}

/// One rejected duplicate-readout registration — the passive-metering
/// clone evidence, preserved across restarts and compactions (the
/// snapshot carries it; a count alone would lose the *which dies*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CloneEvidence {
    /// Journal sequence number of the `duplicate` event.
    pub seq: u64,
    /// The IC label the rejected registration claimed.
    pub ic: String,
    /// Client that attempted the registration.
    pub client: String,
    /// The IC that registered this readout first.
    pub prior: String,
}

/// Why a registry mutation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The readout is already registered to `prior` — clone evidence.
    DuplicateReadout {
        /// The IC that registered this readout first.
        prior: String,
    },
    /// The IC label is already taken.
    DuplicateIc,
    /// No IC with the given label exists.
    UnknownIc,
    /// No IC with the given readout exists.
    UnknownReadout,
    /// The IC is not in a state that allows the mutation.
    WrongState(IcState),
    /// The journal could not be appended; the mutation did not happen.
    Journal(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateReadout { prior } => {
                write!(f, "readout already registered to {prior:?}")
            }
            RegistryError::DuplicateIc => write!(f, "IC label already registered"),
            RegistryError::UnknownIc => write!(f, "no such IC"),
            RegistryError::UnknownReadout => write!(f, "no registered IC has this readout"),
            RegistryError::WrongState(s) => write!(f, "IC is {s}"),
            RegistryError::Journal(e) => write!(f, "journal append failed: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// A recovery failure pinned to the exact file (and, when attributable,
/// the line) it came from. Multi-shard deployments recover many journals
/// at once; an error that names only a line number cannot say *which*
/// replica is corrupt, so [`Registry::open_with`] routes every
/// corruption diagnosis through this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverError {
    /// What failed to recover: `"journal"` or `"snapshot"`.
    pub what: &'static str,
    /// The file that failed to recover.
    pub path: PathBuf,
    /// 1-based line number within the file, when line-attributable.
    pub line: Option<usize>,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt {} {}", self.what, self.path.display())?;
        if let Some(line) = self.line {
            write!(f, ": line {line}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl std::error::Error for RecoverError {}

impl From<RecoverError> for std::io::Error {
    fn from(e: RecoverError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

/// A journal line that failed to parse or apply (internal: callers see it
/// as a [`WireError`] or a path-attributed [`RecoverError`]).
struct LineError {
    line: usize,
    detail: String,
}

impl LineError {
    fn to_wire(&self) -> WireError {
        WireError::new(format!("journal line {}: {}", self.line, self.detail))
    }
}

/// Where journal lines go.
enum Journal {
    /// In-memory buffer (tests, benches, ephemeral servers).
    Memory(Vec<u8>),
    /// A [`JournalStore`] (file, possibly fault-wrapped) plus the
    /// durability policy applied after each append.
    Store {
        store: Box<dyn JournalStore>,
        policy: FlushPolicy,
    },
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Journal::Memory(buf) => f.debug_tuple("Memory").field(&buf.len()).finish(),
            Journal::Store { policy, .. } => {
                f.debug_struct("Store").field("policy", policy).finish_non_exhaustive()
            }
        }
    }
}

/// A discarded torn journal tail (crash artifact found at open time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// 1-based line number of the torn line.
    pub line: usize,
    /// Bytes discarded.
    pub bytes: usize,
}

/// Recovery/durability knobs for [`Registry::open_with`].
#[derive(Debug, Default)]
pub struct RecoverOptions {
    /// Durability of each append (see [`FlushPolicy`]).
    pub flush: FlushPolicy,
    /// Auto-compact once this many events accumulate past the last
    /// snapshot (`0` = never; call [`Registry::compact`] manually).
    pub compact_every: u64,
    /// Fault-injection channel wrapped around the file store (crash
    /// simulation only).
    pub injector: Option<crate::fault::FaultInjector>,
}

/// Registry counts for status reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryCounts {
    /// ICs ever registered.
    pub registered: u64,
    /// ICs currently unlocked.
    pub unlocked: u64,
    /// ICs disabled.
    pub disabled: u64,
    /// Duplicate-readout attempts rejected.
    pub duplicates: u64,
}

/// The IC registry: in-memory tables fronted by the append-only journal.
#[derive(Debug)]
pub struct Registry {
    records: Vec<IcRecord>,
    by_ic: HashMap<String, usize>,
    by_readout: HashMap<String, usize>,
    journal: Journal,
    seq: u64,
    duplicates: u64,
    /// Duplicate-readout evidence in journal order (snapshot-preserved).
    clones: Vec<CloneEvidence>,
    /// Rolling FNV-1a digest of every journal byte ever appended.
    digest: u64,
    /// Journal file path (file-backed registries; compaction needs it).
    path: Option<PathBuf>,
    /// Events covered by the on-disk snapshot (0 = none).
    snapshot_seq: u64,
    /// Auto-compaction threshold (0 = never).
    compact_every: u64,
    /// Live instrumentation sink, when the owning server attached one.
    metrics: Option<Arc<MetricsRegistry>>,
    /// Events restored from the snapshot at open time.
    snapshot_events: u64,
    /// Tail events rebuilt from the journal at open time.
    replayed_events: u64,
    /// Wall time the recovery took (ns; scheduling-dependent).
    replay_ns: u64,
    /// Torn tail discarded at open time, if any.
    torn_tail: Option<TornTail>,
    /// When true, every appended line is also retained (until drained)
    /// for journal-shipping replication.
    rep_capture: bool,
    /// Appended lines not yet drained by the replication layer.
    rep_tail: Vec<String>,
    /// Events appended since the last flush under
    /// [`FlushPolicy::GroupCommit`] (0 under every other policy).
    gc_pending: u32,
    /// Group-commit barrier flushes performed so far.
    gc_flushes: u64,
    /// Reusable scratch for rendering journal lines (one allocation for
    /// the life of the registry instead of one per event).
    line_buf: String,
}

impl Registry {
    /// An ephemeral registry journaling to memory.
    pub fn in_memory() -> Registry {
        Registry {
            records: Vec::new(),
            by_ic: HashMap::new(),
            by_readout: HashMap::new(),
            journal: Journal::Memory(Vec::new()),
            seq: 0,
            duplicates: 0,
            clones: Vec::new(),
            digest: DIGEST_BASIS,
            path: None,
            snapshot_seq: 0,
            compact_every: 0,
            metrics: None,
            snapshot_events: 0,
            replayed_events: 0,
            replay_ns: 0,
            torn_tail: None,
            rep_capture: false,
            rep_tail: Vec::new(),
            gc_pending: 0,
            gc_flushes: 0,
            line_buf: String::new(),
        }
    }

    /// Rebuilds a registry from a compaction snapshot alone (no journal
    /// tail) — the catch-up path a lagging replication follower takes
    /// when the leader's retained journal no longer reaches back far
    /// enough. The registry journals to memory from then on, with `seq`
    /// and the rolling digest continuing from the snapshot.
    ///
    /// # Errors
    ///
    /// `InvalidData` for an internally inconsistent snapshot (repeated
    /// ICs or readouts).
    pub fn from_snapshot(snap: RegistrySnapshot) -> std::io::Result<Registry> {
        let mut r = Registry::in_memory();
        let seq = snap.seq;
        r.restore_snapshot(snap)?;
        r.snapshot_events = seq;
        Ok(r)
    }

    /// Arms replication capture: every line appended from now on is also
    /// retained until [`Registry::drain_replication`] collects it. The
    /// shard leader's side of journal shipping.
    pub fn enable_replication(&mut self) {
        self.rep_capture = true;
    }

    /// Takes the journal lines appended since the last drain (without
    /// trailing newlines) — what the leader ships to its followers.
    pub fn drain_replication(&mut self) -> Vec<String> {
        std::mem::take(&mut self.rep_tail)
    }

    /// Applies one replicated journal line (the follower's side of
    /// journal shipping). The line re-executes through the normal
    /// mutation path, so the follower's own journal, rolling digest and
    /// `seq` advance exactly as the leader's did — replicas stay
    /// byte-identical, which is what makes failover promotion safe.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for lines that fail to parse, arrive out
    /// of sequence, or do not re-apply — a diverged replica must refuse
    /// the entry rather than guess.
    pub fn apply_replicated(&mut self, line: &str) -> Result<(), WireError> {
        let lineno = (self.seq + 1) as usize;
        self.apply_journal_line(line, lineno, 0)
            .map_err(|e| e.to_wire())
    }

    /// Attaches a live metrics sink: journal appends feed a
    /// `journal_append_ns` timing histogram and `journal_events_total`
    /// event counters, and the recovery that happened at open time is
    /// published as `journal_replayed_events` / `journal_snapshot_events`
    /// / `journal_torn_tail_bytes` / `journal_replay_ns` gauges.
    pub fn set_metrics(&mut self, metrics: Arc<MetricsRegistry>) {
        metrics.set_gauge(
            "journal_replayed_events",
            &[],
            MetricClass::Det,
            self.replayed_events,
        );
        metrics.set_gauge(
            "journal_snapshot_events",
            &[],
            MetricClass::Det,
            self.snapshot_events,
        );
        metrics.set_gauge(
            "journal_torn_tail_bytes",
            &[],
            MetricClass::Det,
            self.torn_tail.map_or(0, |t| t.bytes as u64),
        );
        metrics.set_gauge("journal_replay_ns", &[], MetricClass::Timing, self.replay_ns);
        self.metrics = Some(metrics);
    }

    /// Opens (or creates) a journal-backed registry at `path` with
    /// default recovery options — see [`Registry::open_with`].
    ///
    /// # Errors
    ///
    /// See [`Registry::open_with`].
    pub fn open(path: &Path) -> std::io::Result<Registry> {
        Self::open_with(path, RecoverOptions::default())
    }

    /// Opens (or creates) a journal-backed registry at `path`: the
    /// `snapshot.json` next to the journal (if any) restores state
    /// through its `seq`, the journal tail replays the rest, a torn
    /// final line is logged/discarded/truncated, and the file is
    /// reopened for appending — restart recovery is exactly
    /// "snapshot + tail, then continue".
    ///
    /// # Errors
    ///
    /// Returns an I/O error for unreadable files and a
    /// [`WireError`]-derived error message for corrupt snapshot or
    /// journal content (mapped onto `io::ErrorKind::InvalidData` so
    /// callers can distinguish corruption from filesystem trouble).
    pub fn open_with(path: &Path, opts: RecoverOptions) -> std::io::Result<Registry> {
        let started = Instant::now();
        let mut registry = Registry::in_memory();
        let mut snapshot_seq = 0;
        if let Some(snap) = RegistrySnapshot::load(&snapshot_path(path))? {
            snapshot_seq = snap.seq;
            registry.restore_snapshot(snap).map_err(|e| RecoverError {
                what: "snapshot",
                path: snapshot_path(path),
                line: None,
                detail: e.to_string(),
            })?;
        }
        let mut torn = None;
        match std::fs::read_to_string(path) {
            Ok(text) => {
                torn = registry
                    .apply_journal_text(&text, snapshot_seq, true)
                    .map_err(|e| RecoverError {
                        what: "journal",
                        path: path.to_path_buf(),
                        line: Some(e.line),
                        detail: e.detail,
                    })?;
                if let Some(t) = &torn {
                    eprintln!(
                        "registry: journal {}: discarding torn tail at line {} ({} bytes) — crash artifact",
                        path.display(),
                        t.line,
                        t.bytes
                    );
                    // Truncate the torn bytes away so the next append
                    // starts on a fresh line.
                    OpenOptions::new()
                        .write(true)
                        .open(path)?
                        .set_len((text.len() - t.bytes) as u64)?;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        registry.snapshot_events = snapshot_seq;
        registry.replayed_events = registry.seq - snapshot_seq;
        registry.replay_ns = started.elapsed().as_nanos() as u64;
        registry.torn_tail = torn;
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let store: Box<dyn JournalStore> = match opts.injector {
            Some(injector) => Box::new(FaultyStore::new(Box::new(FileStore::new(file)), injector)),
            None => Box::new(FileStore::new(file)),
        };
        registry.journal = Journal::Store {
            store,
            policy: opts.flush,
        };
        registry.path = Some(path.to_path_buf());
        registry.snapshot_seq = snapshot_seq;
        registry.compact_every = opts.compact_every;
        Ok(registry)
    }

    /// Rebuilds a registry from journal text (in-memory journaling from
    /// then on; [`Registry::open`] swaps in the file handle).
    ///
    /// This is the **strict** API: every line must parse and apply, and a
    /// torn final line is an error (with its line number) — callers that
    /// want crash tolerance go through [`Registry::open`], which
    /// distinguishes the torn tail and recovers.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed lines or impossible event
    /// sequences (e.g. an unlock of an unregistered IC).
    pub fn replay(journal_text: &str) -> Result<Registry, WireError> {
        let mut registry = Registry::in_memory();
        registry
            .apply_journal_text(journal_text, 0, false)
            .map_err(|e| e.to_wire())?;
        Ok(registry)
    }

    /// Restores snapshot state into a fresh registry.
    fn restore_snapshot(&mut self, snap: RegistrySnapshot) -> std::io::Result<()> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        for (index, r) in snap.records.iter().enumerate() {
            if self.by_ic.insert(r.ic.clone(), index).is_some() {
                return Err(invalid(format!("snapshot repeats IC {:?}", r.ic)));
            }
            if self.by_readout.insert(r.readout.clone(), index).is_some() {
                return Err(invalid(format!("snapshot repeats readout of IC {:?}", r.ic)));
            }
        }
        self.duplicates = snap.clones.len() as u64;
        self.records = snap.records;
        self.clones = snap.clones;
        self.seq = snap.seq;
        self.digest = snap.digest;
        Ok(())
    }

    /// Applies journal text on top of the current state. Lines with
    /// `seq <= skip_through` were already folded into the snapshot and
    /// are skipped (they must still be JSON with an `event` and `seq` —
    /// anything less is corruption). With `tolerate_tail`, an
    /// unterminated final line is returned as a [`TornTail`] instead of
    /// applied: a clean append always writes the trailing `\n`, so its
    /// absence identifies a torn write regardless of how plausible the
    /// prefix looks.
    fn apply_journal_text(
        &mut self,
        text: &str,
        skip_through: u64,
        tolerate_tail: bool,
    ) -> Result<Option<TornTail>, LineError> {
        let mut lineno = 0usize;
        for chunk in text.split_inclusive('\n') {
            lineno += 1;
            if tolerate_tail && !chunk.ends_with('\n') {
                return Ok(Some(TornTail {
                    line: lineno,
                    bytes: chunk.len(),
                }));
            }
            self.apply_journal_line(chunk.trim_end_matches('\n'), lineno, skip_through)?;
        }
        Ok(None)
    }

    /// Parses and applies one journal line.
    fn apply_journal_line(
        &mut self,
        line: &str,
        lineno: usize,
        skip_through: u64,
    ) -> Result<(), LineError> {
        let fail = |what: &str| LineError {
            line: lineno,
            detail: what.to_string(),
        };
        let j = Json::parse(line).map_err(|e| fail(&format!("not JSON: {e}")))?;
        let bad = |e: FieldError| fail(&e.message);
        let mut f = StrictObj::new(&j, "journal line").map_err(bad)?;
        let event = f.string("event").map_err(bad)?;
        let seq: u64 = f.uint("seq").map_err(bad)?;
        if seq <= skip_through {
            // Already folded into the snapshot: a crash between the
            // snapshot rename and the journal truncation leaves these
            // behind. Recognize and skip.
            return Ok(());
        }
        if seq != self.seq + 1 {
            return Err(fail(&format!(
                "seq {seq} out of order (expected {})",
                self.seq + 1
            )));
        }
        let mut read = |name: &str| f.string(name).map_err(bad);
        let apply = match event.as_str() {
            "register" => {
                let (client, ic, readout) = (read("client")?, read("ic")?, read("readout")?);
                let group: u8 = f.uint("group").map_err(bad)?;
                f.finish().map_err(bad)?;
                self.register(&client, &ic, &readout, group)
            }
            "duplicate" => {
                let (client, ic, prior) = (read("client")?, read("ic")?, read("prior")?);
                f.finish().map_err(bad)?;
                // Replaying the rejection re-runs the detector; it must
                // reject again, which re-counts the duplicate.
                let readout = self
                    .by_ic
                    .get(&prior)
                    .map(|&i| self.records[i].readout.clone())
                    .ok_or_else(|| fail("duplicate names unknown prior IC"))?;
                match self.register(&client, &ic, &readout, 0) {
                    Err(RegistryError::DuplicateReadout { .. }) => Ok(()),
                    _ => return Err(fail("duplicate event did not re-collide")),
                }
            }
            "unlock" => {
                let (ic, client) = (read("ic")?, read("client")?);
                let key_len: usize = f.uint("key_len").map_err(bad)?;
                f.finish().map_err(bad)?;
                self.mark_unlocked(&ic, key_len, &client)
            }
            "disable" => {
                let (ic, client) = (read("ic")?, read("client")?);
                f.finish().map_err(bad)?;
                self.mark_disabled(&ic, &client)
            }
            other => return Err(fail(&format!("unknown event {other:?}"))),
        };
        apply.map_err(|e| fail(&format!("replay rejected: {e}")))
    }

    fn append(&mut self, event: &'static str, line: Json) -> Result<(), RegistryError> {
        use std::fmt::Write as _;
        // Render into the reusable scratch (taken and put back so the
        // journal borrow below stays disjoint).
        let mut text = std::mem::take(&mut self.line_buf);
        text.clear();
        let _ = write!(text, "{line}");
        text.push('\n');
        let started = Instant::now();
        let mut gc_flushed = false;
        let appended = match &mut self.journal {
            Journal::Memory(buf) => {
                buf.extend_from_slice(text.as_bytes());
                Ok(())
            }
            Journal::Store { store, policy } => {
                let mut result = store.append(text.as_bytes());
                if result.is_ok() {
                    match *policy {
                        FlushPolicy::Buffered => {}
                        FlushPolicy::PerEvent => result = store.flush(),
                        FlushPolicy::Sync => result = store.sync(),
                        FlushPolicy::GroupCommit { max_batch } => {
                            // Count-driven barrier: one flush covers the
                            // whole batch. Never wall-time-driven, so the
                            // on-disk byte stream matches per-event mode.
                            self.gc_pending += 1;
                            if self.gc_pending >= max_batch.max(1) {
                                result = store.commit();
                                self.gc_pending = 0;
                                self.gc_flushes += 1;
                                gc_flushed = true;
                            }
                        }
                    }
                }
                result.map_err(|e| RegistryError::Journal(e.to_string()))
            }
        };
        if appended.is_ok() {
            self.digest = digest_update(self.digest, text.as_bytes());
            if self.rep_capture {
                self.rep_tail.push(text.trim_end_matches('\n').to_string());
            }
        }
        if let Some(m) = &self.metrics {
            m.observe(
                "journal_append_ns",
                &[],
                MetricClass::Timing,
                LATENCY_BUCKETS_NS,
                started.elapsed().as_nanos() as u64,
            );
            if appended.is_ok() {
                m.inc("journal_events_total", &[("event", event)], 1);
                // Timing class, not Det: the values depend on the
                // durability configuration, not the request sequence, so
                // they must stay out of the cross-policy determinism
                // comparison.
                if gc_flushed || self.gc_pending > 0 {
                    m.set_gauge(
                        "journal_group_commit_flushes",
                        &[],
                        MetricClass::Timing,
                        self.gc_flushes,
                    );
                    m.set_gauge(
                        "journal_group_commit_pending",
                        &[],
                        MetricClass::Timing,
                        self.gc_pending as u64,
                    );
                }
            }
        }
        self.line_buf = text;
        appended
    }

    /// Commit barrier: makes every appended journal event durable. Under
    /// [`FlushPolicy::GroupCommit`] this closes the open batch (a no-op
    /// when the batch is empty); under [`FlushPolicy::Buffered`] and
    /// [`FlushPolicy::PerEvent`] it is the only fsync the policy ever
    /// issues; under [`FlushPolicy::Sync`] every event is already
    /// durable and nothing is owed. The owning server drives this from
    /// the logical tick clock; compaction and shutdown call it
    /// unconditionally. A no-op for in-memory journals.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Journal`] when the underlying store fails.
    pub fn commit(&mut self) -> Result<(), RegistryError> {
        if self.gc_pending == 0 {
            match &mut self.journal {
                Journal::Store {
                    store,
                    policy: FlushPolicy::Buffered | FlushPolicy::PerEvent,
                } => {
                    return store
                        .commit()
                        .map_err(|e| RegistryError::Journal(e.to_string()));
                }
                _ => return Ok(()),
            }
        }
        if let Journal::Store { store, .. } = &mut self.journal {
            store
                .commit()
                .map_err(|e| RegistryError::Journal(e.to_string()))?;
            self.gc_pending = 0;
            self.gc_flushes += 1;
            if let Some(m) = &self.metrics {
                m.set_gauge(
                    "journal_group_commit_flushes",
                    &[],
                    MetricClass::Timing,
                    self.gc_flushes,
                );
                m.set_gauge("journal_group_commit_pending", &[], MetricClass::Timing, 0);
            }
        }
        Ok(())
    }

    /// Journal events batched under [`FlushPolicy::GroupCommit`] but not
    /// yet covered by a flush barrier.
    pub fn pending_commits(&self) -> u32 {
        self.gc_pending
    }

    /// Registers a fabricated IC. The same readout registered twice is the
    /// passive-metering clone signal: the attempt is journaled as a
    /// `duplicate` event and rejected.
    ///
    /// # Errors
    ///
    /// [`RegistryError::DuplicateReadout`] / [`RegistryError::DuplicateIc`]
    /// on collision, [`RegistryError::Journal`] when persistence failed.
    pub fn register(
        &mut self,
        client: &str,
        ic: &str,
        readout: &str,
        group: u8,
    ) -> Result<(), RegistryError> {
        if self.by_ic.contains_key(ic) {
            return Err(RegistryError::DuplicateIc);
        }
        if let Some(&i) = self.by_readout.get(readout) {
            let prior = self.records[i].ic.clone();
            let seq = self.seq + 1;
            self.append("duplicate", Json::obj(vec![
                ("event", Json::Str("duplicate".into())),
                ("seq", Json::U64(seq)),
                ("ic", Json::Str(ic.to_string())),
                ("client", Json::Str(client.to_string())),
                ("prior", Json::Str(prior.clone())),
            ]))?;
            self.seq = seq;
            self.duplicates += 1;
            self.clones.push(CloneEvidence {
                seq,
                ic: ic.to_string(),
                client: client.to_string(),
                prior: prior.clone(),
            });
            self.maybe_compact();
            return Err(RegistryError::DuplicateReadout { prior });
        }
        let seq = self.seq + 1;
        self.append("register", Json::obj(vec![
            ("event", Json::Str("register".into())),
            ("seq", Json::U64(seq)),
            ("ic", Json::Str(ic.to_string())),
            ("client", Json::Str(client.to_string())),
            ("readout", Json::Str(readout.to_string())),
            ("group", Json::U64(group as u64)),
        ]))?;
        self.seq = seq;
        let index = self.records.len();
        self.records.push(IcRecord {
            ic: ic.to_string(),
            client: client.to_string(),
            readout: readout.to_string(),
            group,
            state: IcState::Registered,
            seq,
        });
        self.by_ic.insert(ic.to_string(), index);
        self.by_readout.insert(readout.to_string(), index);
        self.maybe_compact();
        Ok(())
    }

    /// Marks a registered IC unlocked (key issued; only the key's length is
    /// journaled — see the module docs).
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownIc`] or [`RegistryError::WrongState`] when
    /// the IC is not awaiting a key.
    pub fn mark_unlocked(
        &mut self,
        ic: &str,
        key_len: usize,
        client: &str,
    ) -> Result<(), RegistryError> {
        let &index = self.by_ic.get(ic).ok_or(RegistryError::UnknownIc)?;
        match self.records[index].state {
            IcState::Registered => {}
            other => return Err(RegistryError::WrongState(other)),
        }
        let seq = self.seq + 1;
        self.append("unlock", Json::obj(vec![
            ("event", Json::Str("unlock".into())),
            ("seq", Json::U64(seq)),
            ("ic", Json::Str(ic.to_string())),
            ("client", Json::Str(client.to_string())),
            ("key_len", Json::U64(key_len as u64)),
        ]))?;
        self.seq = seq;
        self.records[index].state = IcState::Unlocked;
        self.maybe_compact();
        Ok(())
    }

    /// Marks an IC disabled (from any live state).
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownIc`] or [`RegistryError::WrongState`] when
    /// already disabled.
    pub fn mark_disabled(&mut self, ic: &str, client: &str) -> Result<(), RegistryError> {
        let &index = self.by_ic.get(ic).ok_or(RegistryError::UnknownIc)?;
        if self.records[index].state == IcState::Disabled {
            return Err(RegistryError::WrongState(IcState::Disabled));
        }
        let seq = self.seq + 1;
        self.append("disable", Json::obj(vec![
            ("event", Json::Str("disable".into())),
            ("seq", Json::U64(seq)),
            ("ic", Json::Str(ic.to_string())),
            ("client", Json::Str(client.to_string())),
        ]))?;
        self.seq = seq;
        self.records[index].state = IcState::Disabled;
        self.maybe_compact();
        Ok(())
    }

    /// Writes an atomic snapshot of the current state and truncates the
    /// journal — recovery cost stops growing with history. Ordering is
    /// crash-safe: the snapshot lands (tmp + fsync + rename) before the
    /// journal is truncated (tmp + rename), and recovery skips tail
    /// lines the snapshot already covers, so a crash anywhere in between
    /// loses nothing.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for an in-memory registry; otherwise the
    /// underlying I/O error, in which case the journal is left intact
    /// (recovery still works from the full file).
    pub fn compact(&mut self) -> std::io::Result<()> {
        let Some(path) = self.path.clone() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "in-memory registry has no journal file to compact",
            ));
        };
        // Push buffered appends out first so the on-disk journal is
        // complete if we crash mid-compaction. This also closes any open
        // group-commit batch.
        if let Journal::Store { store, .. } = &mut self.journal {
            store.flush()?;
        }
        self.gc_pending = 0;
        let snap = RegistrySnapshot {
            seq: self.seq,
            digest: self.digest,
            records: self.records.clone(),
            clones: self.clones.clone(),
        };
        snap.write_atomic(&snapshot_path(&path))?;
        // Truncate the journal with the same tmp + rename dance.
        let tmp = path.with_extension("jsonl.tmp");
        File::create(&tmp)?.sync_all()?;
        std::fs::rename(&tmp, &path)?;
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        // The store's handle points at the renamed-away inode.
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if let Journal::Store { store, .. } = &mut self.journal {
            store.reopen(file)?;
        }
        self.snapshot_seq = self.seq;
        if let Some(m) = &self.metrics {
            m.inc("journal_compactions_total", &[], 1);
        }
        Ok(())
    }

    /// Sets the per-append durability policy (no-op for in-memory
    /// journals). The owning server applies its
    /// [`crate::server::ServerConfig`] knob through this.
    pub fn set_flush_policy(&mut self, policy: FlushPolicy) {
        // Close any open group-commit batch before the policy changes so
        // no event straddles two durability regimes.
        let _ = self.commit();
        if let Journal::Store { policy: p, .. } = &mut self.journal {
            *p = policy;
        }
    }

    /// Auto-compaction check, run after every successful mutation.
    fn maybe_compact(&mut self) {
        if self.compact_every == 0
            || self.path.is_none()
            || self.seq - self.snapshot_seq < self.compact_every
        {
            return;
        }
        if let Err(e) = self.compact() {
            // Failing to compact is not fatal: the journal is intact and
            // recovery simply replays more of it. Keep serving.
            eprintln!("registry: compaction failed (journal kept, will retry): {e}");
        }
    }

    /// Looks up a record by IC label.
    pub fn by_ic(&self, ic: &str) -> Option<&IcRecord> {
        self.by_ic.get(ic).map(|&i| &self.records[i])
    }

    /// Looks up a record by readout bit string.
    pub fn by_readout(&self, readout: &str) -> Option<&IcRecord> {
        self.by_readout.get(readout).map(|&i| &self.records[i])
    }

    /// Current counts.
    pub fn counts(&self) -> RegistryCounts {
        let mut c = RegistryCounts {
            registered: self.records.len() as u64,
            duplicates: self.duplicates,
            ..RegistryCounts::default()
        };
        for r in &self.records {
            match r.state {
                IcState::Registered => {}
                IcState::Unlocked => c.unlocked += 1,
                IcState::Disabled => c.disabled += 1,
            }
        }
        c
    }

    /// Journal events appended so far.
    pub fn journal_len(&self) -> u64 {
        self.seq
    }

    /// The journal bytes, when journaling to memory (`None` for a
    /// file-backed registry — read the file instead).
    pub fn journal_bytes(&self) -> Option<&[u8]> {
        match &self.journal {
            Journal::Memory(buf) => Some(buf),
            Journal::Store { .. } => None,
        }
    }

    /// All records, in registration order.
    pub fn records(&self) -> &[IcRecord] {
        &self.records
    }

    /// Duplicate-readout evidence in journal order — survives restarts
    /// and compactions.
    pub fn clones(&self) -> &[CloneEvidence] {
        &self.clones
    }

    /// Rolling FNV-1a digest of every journal byte ever appended,
    /// including history compacted into the snapshot. Equal to
    /// [`journal_digest`] of the full uncompacted journal.
    pub fn rolling_digest(&self) -> u64 {
        self.digest
    }

    /// Events covered by the on-disk snapshot at open time.
    pub fn snapshot_events(&self) -> u64 {
        self.snapshot_events
    }

    /// Tail events replayed from the journal at open time.
    pub fn replayed_events(&self) -> u64 {
        self.replayed_events
    }

    /// The torn tail discarded at open time, if the journal had one.
    pub fn torn_tail(&self) -> Option<TornTail> {
        self.torn_tail
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        // Best-effort: push buffered journal bytes to the OS so a clean
        // shutdown under FlushPolicy::Buffered or an open group-commit
        // batch loses nothing.
        if let Journal::Store { store, .. } = &mut self.journal {
            let _ = store.flush();
        }
    }
}

/// The rolling journal digest is the workspace's one FNV-1a: the digest
/// of an empty journal is the offset basis, and `digest_update` folds
/// more bytes into a rolling state.
pub use hwm_jsonio::{fnv1a as digest_update, FNV1A_BASIS as DIGEST_BASIS};

/// FNV-1a digest of journal bytes — a compact fingerprint for the
/// determinism checks ("byte-identical journal for every `--jobs`").
pub fn journal_digest(bytes: &[u8]) -> u64 {
    digest_update(DIGEST_BASIS, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Registry {
        let mut r = Registry::in_memory();
        r.register("c0", "ic-0", "0101", 1).unwrap();
        r.register("c0", "ic-1", "1110", 0).unwrap();
        r.mark_unlocked("ic-0", 9, "c0").unwrap();
        let err = r.register("c1", "ic-2", "0101", 1).unwrap_err();
        assert_eq!(
            err,
            RegistryError::DuplicateReadout {
                prior: "ic-0".into()
            }
        );
        r.mark_disabled("ic-0", "alice").unwrap();
        r
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hwm-registry-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn lifecycle_and_counts() {
        let r = sample();
        assert_eq!(r.by_ic("ic-0").unwrap().state, IcState::Disabled);
        assert_eq!(r.by_ic("ic-1").unwrap().state, IcState::Registered);
        assert_eq!(r.by_readout("1110").unwrap().ic, "ic-1");
        let c = r.counts();
        assert_eq!((c.registered, c.unlocked, c.disabled, c.duplicates), (2, 0, 1, 1));
        assert_eq!(r.journal_len(), 5);
        assert_eq!(
            r.clones(),
            &[CloneEvidence {
                seq: 4,
                ic: "ic-2".into(),
                client: "c1".into(),
                prior: "ic-0".into(),
            }]
        );
    }

    #[test]
    fn wrong_state_transitions_are_refused() {
        let mut r = sample();
        assert!(matches!(
            r.mark_unlocked("ic-0", 3, "c0"),
            Err(RegistryError::WrongState(IcState::Disabled))
        ));
        assert!(matches!(
            r.mark_disabled("ic-0", "alice"),
            Err(RegistryError::WrongState(IcState::Disabled))
        ));
        assert!(matches!(
            r.mark_unlocked("nope", 3, "c0"),
            Err(RegistryError::UnknownIc)
        ));
    }

    #[test]
    fn replay_rebuilds_identical_state_and_journal() {
        let r = sample();
        let journal = String::from_utf8(r.journal_bytes().unwrap().to_vec()).unwrap();
        let rebuilt = Registry::replay(&journal).expect("replay");
        assert_eq!(rebuilt.records(), r.records());
        assert_eq!(rebuilt.counts(), r.counts());
        assert_eq!(rebuilt.clones(), r.clones());
        // Replay is idempotent at the byte level: the rebuilt registry's
        // journal re-serializes to the same bytes.
        assert_eq!(rebuilt.journal_bytes().unwrap(), r.journal_bytes().unwrap());
        assert_eq!(rebuilt.rolling_digest(), r.rolling_digest());
    }

    #[test]
    fn rolling_digest_matches_byte_digest() {
        let r = sample();
        assert_eq!(r.rolling_digest(), journal_digest(r.journal_bytes().unwrap()));
        assert_eq!(Registry::in_memory().rolling_digest(), DIGEST_BASIS);
    }

    #[test]
    fn corrupt_journals_are_rejected_with_line_numbers() {
        for (text, needle) in [
            ("not json\n", "line 1"),
            ("{\"event\":\"register\",\"seq\":2}\n", "seq 2 out of order"),
            ("{\"event\":\"warp\",\"seq\":1}\n", "unknown event"),
            ("{\"event\":\"disable\",\"seq\":1,\"seq\":1}\n", "duplicate field \"seq\""),
            (
                "{\"event\":\"unlock\",\"seq\":1,\"ic\":\"x\",\"client\":\"c\",\"key_len\":2}\n",
                "replay rejected",
            ),
        ] {
            let err = Registry::replay(text).unwrap_err();
            assert!(err.message.contains(needle), "{text:?} -> {err}");
        }
    }

    #[test]
    fn strict_replay_rejects_a_torn_tail_with_its_line_number() {
        let good = String::from_utf8(sample().journal_bytes().unwrap().to_vec()).unwrap();
        let torn = format!("{good}{{\"event\":\"regi");
        let err = Registry::replay(&torn).unwrap_err();
        assert!(err.message.contains("line 6"), "{err}");
    }

    #[test]
    fn open_discards_a_torn_tail_and_repairs_the_file() {
        let dir = temp_dir("torn");
        let path = dir.join("journal.jsonl");
        let good = String::from_utf8(sample().journal_bytes().unwrap().to_vec()).unwrap();
        // A torn write left half a line with no trailing newline.
        std::fs::write(&path, format!("{good}{{\"event\":\"regi")).unwrap();
        let mut r = Registry::open(&path).unwrap();
        let torn = r.torn_tail().expect("torn tail detected");
        assert_eq!((torn.line, torn.bytes), (6, "{\"event\":\"regi".len()));
        assert_eq!(r.journal_len(), 5, "good prefix fully recovered");
        assert_eq!(r.replayed_events(), 5);
        assert_eq!(r.counts().duplicates, 1);
        // The file was truncated back to the last good byte, so appends
        // continue cleanly.
        r.register("c2", "ic-9", "0011", 0).unwrap();
        drop(r);
        let r = Registry::open(&path).unwrap();
        assert_eq!(r.torn_tail(), None, "repaired file has no torn tail");
        assert_eq!(r.journal_len(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_still_hard_fails_on_mid_file_corruption() {
        let dir = temp_dir("midfile");
        let path = dir.join("journal.jsonl");
        let good = String::from_utf8(sample().journal_bytes().unwrap().to_vec()).unwrap();
        // A newline-terminated garbage line mid-file is not a crash
        // artifact — torn writes never contain the terminator.
        let mut lines: Vec<&str> = good.lines().collect();
        lines.insert(2, "{\"event\":\"regi");
        let mut text = lines.join("\n");
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let err = Registry::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 3"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backed_registry_recovers_after_restart() {
        let dir = temp_dir("restart");
        let path = dir.join("journal.jsonl");
        {
            let mut r = Registry::open(&path).unwrap();
            r.register("c0", "ic-0", "0101", 1).unwrap();
            r.mark_unlocked("ic-0", 4, "c0").unwrap();
        }
        {
            // Restart: state is rebuilt, and appends continue the sequence.
            let mut r = Registry::open(&path).unwrap();
            assert_eq!(r.by_ic("ic-0").unwrap().state, IcState::Unlocked);
            assert_eq!(r.journal_len(), 2);
            r.register("c0", "ic-1", "1111", 0).unwrap();
        }
        let r = Registry::open(&path).unwrap();
        assert_eq!(r.counts().registered, 2);
        assert_eq!(r.journal_len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_state_digest_and_clone_evidence() {
        let dir = temp_dir("compact");
        let path = dir.join("journal.jsonl");
        // Control: the same events against a never-compacted registry.
        let control = sample();
        {
            let mut r = Registry::open(&path).unwrap();
            r.register("c0", "ic-0", "0101", 1).unwrap();
            r.register("c0", "ic-1", "1110", 0).unwrap();
            r.mark_unlocked("ic-0", 9, "c0").unwrap();
            r.compact().unwrap();
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                "",
                "journal truncated past the snapshot"
            );
            let _ = r.register("c1", "ic-2", "0101", 1).unwrap_err();
            r.mark_disabled("ic-0", "alice").unwrap();
        }
        let r = Registry::open(&path).unwrap();
        assert_eq!(r.records(), control.records());
        assert_eq!(r.counts(), control.counts());
        assert_eq!(r.clones(), control.clones());
        assert_eq!(r.rolling_digest(), control.rolling_digest(), "digest spans compaction");
        assert_eq!(r.snapshot_events(), 3);
        assert_eq!(r.replayed_events(), 2, "only the tail replays");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_skips_tail_lines_the_snapshot_covers() {
        // A crash between the snapshot rename and the journal truncation
        // leaves the full journal next to a snapshot that already covers
        // it. Recovery must skip the covered prefix, not double-apply.
        let dir = temp_dir("skip");
        let path = dir.join("journal.jsonl");
        {
            let mut r = Registry::open(&path).unwrap();
            r.register("c0", "ic-0", "0101", 1).unwrap();
            r.mark_unlocked("ic-0", 4, "c0").unwrap();
            // Snapshot without truncating: simulate the torn compaction.
            let snap = RegistrySnapshot {
                seq: r.journal_len(),
                digest: r.rolling_digest(),
                records: r.records().to_vec(),
                clones: r.clones().to_vec(),
            };
            snap.write_atomic(&snapshot_path(&path)).unwrap();
        }
        let r = Registry::open(&path).unwrap();
        assert_eq!(r.journal_len(), 2);
        assert_eq!(r.counts().unlocked, 1);
        assert_eq!(r.snapshot_events(), 2);
        assert_eq!(r.replayed_events(), 0, "covered lines skipped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_compaction_fires_on_the_configured_cadence() {
        let dir = temp_dir("auto");
        let path = dir.join("journal.jsonl");
        let mut r = Registry::open_with(
            &path,
            RecoverOptions {
                compact_every: 2,
                ..RecoverOptions::default()
            },
        )
        .unwrap();
        r.register("c0", "ic-0", "0101", 1).unwrap();
        assert!(!snapshot_path(&path).exists(), "below threshold");
        r.register("c0", "ic-1", "1110", 0).unwrap();
        let snap = RegistrySnapshot::load(&snapshot_path(&path)).unwrap().unwrap();
        assert_eq!(snap.seq, 2, "auto-compacted at two events");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        r.mark_unlocked("ic-0", 4, "c0").unwrap();
        drop(r);
        let r = Registry::open(&path).unwrap();
        assert_eq!((r.snapshot_events(), r.replayed_events()), (2, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn buffered_policy_flushes_on_drop() {
        let dir = temp_dir("buffered");
        let path = dir.join("journal.jsonl");
        {
            let mut r = Registry::open_with(
                &path,
                RecoverOptions {
                    flush: FlushPolicy::Buffered,
                    ..RecoverOptions::default()
                },
            )
            .unwrap();
            r.register("c0", "ic-0", "0101", 1).unwrap();
        }
        let r = Registry::open(&path).unwrap();
        assert_eq!(r.journal_len(), 1, "clean shutdown flushed the buffer");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_disk_full_refuses_the_mutation_and_recovers() {
        use crate::fault::{ArmedFault, FaultInjector};
        let dir = temp_dir("enospc");
        let path = dir.join("journal.jsonl");
        let injector = FaultInjector::new();
        let mut r = Registry::open_with(
            &path,
            RecoverOptions {
                injector: Some(injector.clone()),
                ..RecoverOptions::default()
            },
        )
        .unwrap();
        r.register("c0", "ic-0", "0101", 1).unwrap();
        injector.arm(ArmedFault::DiskFull);
        let err = r.register("c0", "ic-1", "1110", 0).unwrap_err();
        assert!(matches!(err, RegistryError::Journal(_)), "{err:?}");
        assert_eq!(r.counts().registered, 1, "failed append mutates nothing");
        // The "disk" has space again: the retry succeeds with the same seq.
        r.register("c0", "ic-1", "1110", 0).unwrap();
        assert_eq!(r.by_ic("ic-1").unwrap().seq, 2);
        drop(r);
        let r = Registry::open(&path).unwrap();
        assert_eq!(r.counts().registered, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_distinguishes_journals() {
        assert_ne!(journal_digest(b"a"), journal_digest(b"b"));
        assert_eq!(journal_digest(b""), 0xcbf2_9ce4_8422_2325);
    }
}
