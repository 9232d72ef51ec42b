//! The journal writer: where journal bytes go and when they reach disk.
//!
//! [`Journal`] is the registry's one append path. It writes to memory or
//! to a buffered append-mode file, applies the [`FlushPolicy`] after each
//! line, and owns the one commit rule: a barrier (flush + `fdatasync`) is
//! issued when events were appended since the last one, and never
//! otherwise. The crash simulation's storage faults strike here too,
//! through an optional [`FaultInjector`].
//!
//! [`FlushPolicy`] is the durability knob on
//! [`crate::server::ServerConfig`]: it decides how far each appended
//! event is pushed toward stable storage before the mutation is
//! acknowledged.

use crate::fault::FaultInjector;
use std::fs::File;
use std::io::{self, BufWriter, Write};

/// Default batch ceiling for [`FlushPolicy::GroupCommit`]: the plain
/// `"group-commit"` config name parses to this.
pub const DEFAULT_GROUP_COMMIT_BATCH: u32 = 32;

/// When journal bytes reach the operating system and the platter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FlushPolicy {
    /// `flush()` to the OS after every event (the default): a process
    /// crash loses nothing, a kernel panic or power cut may lose what
    /// the last [`crate::registry::Registry::commit`] did not cover.
    #[default]
    PerEvent,
    /// Group commit: events accumulate in the user-space buffer, and
    /// once `max_batch` of them are pending one barrier (flush +
    /// `fdatasync`) covers them all. The barrier is driven by the event
    /// count only, never by wall time, so the on-disk byte stream is
    /// identical to [`FlushPolicy::PerEvent`]; only the number of
    /// syscalls changes. An acknowledged event may still sit in the
    /// buffer, so a process crash loses up to `max_batch - 1`
    /// acknowledged events (recovery still works; the journal simply
    /// ends earlier). `group-commit:1` makes every event durable before
    /// it is acknowledged.
    GroupCommit {
        /// Issue a barrier once this many events are pending (at least
        /// 1; config names refuse 0).
        max_batch: u32,
    },
}

impl FlushPolicy {
    /// Group commit with the default batch ceiling.
    pub fn group_commit() -> FlushPolicy {
        FlushPolicy::GroupCommit {
            max_batch: DEFAULT_GROUP_COMMIT_BATCH,
        }
    }

    /// Config/CLI name of the policy (batch ceiling elided; see
    /// [`FlushPolicy::config_name`] for the lossless rendering).
    pub fn as_str(self) -> &'static str {
        match self {
            FlushPolicy::PerEvent => "per-event",
            FlushPolicy::GroupCommit { .. } => "group-commit",
        }
    }

    /// Lossless config/CLI rendering: `"group-commit:N"` keeps the batch
    /// ceiling; `"per-event"` matches [`FlushPolicy::as_str`].
    pub fn config_name(self) -> String {
        match self {
            FlushPolicy::GroupCommit { max_batch } => format!("group-commit:{max_batch}"),
            other => other.as_str().to_string(),
        }
    }

    /// Parses a config/CLI name. `"group-commit"` takes the default batch
    /// ceiling ([`DEFAULT_GROUP_COMMIT_BATCH`]); `"group-commit:N"` sets
    /// it explicitly and refuses `N = 0`.
    pub fn parse(s: &str) -> Option<FlushPolicy> {
        match s {
            "per-event" => Some(FlushPolicy::PerEvent),
            "group-commit" => Some(FlushPolicy::group_commit()),
            _ => {
                let n = s.strip_prefix("group-commit:")?;
                match n.parse::<u32>() {
                    Ok(max_batch) if max_batch > 0 => Some(FlushPolicy::GroupCommit { max_batch }),
                    _ => None,
                }
            }
        }
    }
}

/// Where journal lines go.
#[derive(Debug)]
enum Sink {
    /// In-memory buffer (tests, benches, ephemeral servers).
    Memory(Vec<u8>),
    /// A buffered append-mode file.
    File(BufWriter<File>),
}

/// The append-only journal writer: one sink, one flush policy, one
/// commit rule.
#[derive(Debug)]
pub(crate) struct Journal {
    sink: Sink,
    policy: FlushPolicy,
    /// Storage-fault channel (crash simulation only).
    injector: Option<FaultInjector>,
    /// Events appended since the last barrier (always 0 in memory).
    unsynced: u32,
    /// Barriers issued so far.
    commits: u64,
}

impl Journal {
    /// A journal kept in memory: every commit is a no-op.
    pub(crate) fn memory() -> Journal {
        Journal {
            sink: Sink::Memory(Vec::new()),
            policy: FlushPolicy::default(),
            injector: None,
            unsynced: 0,
            commits: 0,
        }
    }

    /// A journal appending to an open append-mode file, striking the
    /// storage faults armed on `injector`, if any.
    pub(crate) fn file(
        file: File,
        policy: FlushPolicy,
        injector: Option<FaultInjector>,
    ) -> Journal {
        Journal {
            sink: Sink::File(BufWriter::new(file)),
            policy,
            injector,
            unsynced: 0,
            commits: 0,
        }
    }

    /// Appends one complete `\n`-terminated line and applies the flush
    /// policy.
    ///
    /// # Errors
    ///
    /// The underlying I/O error, or an injected storage fault; the
    /// registry treats any failure as "the event was not recorded" and
    /// refuses the mutation.
    pub(crate) fn append(&mut self, line: &[u8]) -> io::Result<()> {
        let writer = match &mut self.sink {
            Sink::Memory(buf) => {
                buf.extend_from_slice(line);
                return Ok(());
            }
            Sink::File(writer) => writer,
        };
        let strike = self
            .injector
            .as_ref()
            .and_then(|i| i.strike_append(line.len()));
        if let Some((keep, err)) = strike {
            // Push a torn prefix all the way to the file so the crashed
            // journal really ends mid-line on disk.
            writer.write_all(&line[..keep])?;
            writer.flush()?;
            return Err(err);
        }
        writer.write_all(line)?;
        // Saturating: a per-event journal nobody commits must not wrap
        // to "nothing pending".
        self.unsynced = self.unsynced.saturating_add(1);
        match self.policy {
            FlushPolicy::PerEvent => writer.flush(),
            FlushPolicy::GroupCommit { max_batch } if self.unsynced >= max_batch => {
                self.commit().map(|_| ())
            }
            FlushPolicy::GroupCommit { .. } => Ok(()),
        }
    }

    /// The one commit rule: when events were appended since the last
    /// barrier, flush them and `fdatasync` the file (which covers both an
    /// appended line's data and the file size). Otherwise, and always in
    /// memory, a no-op. Returns whether a barrier was issued.
    ///
    /// # Errors
    ///
    /// The underlying I/O error; the events stay pending.
    pub(crate) fn commit(&mut self) -> io::Result<bool> {
        let Sink::File(writer) = &mut self.sink else {
            return Ok(false);
        };
        if self.unsynced == 0 {
            return Ok(false);
        }
        writer.flush()?;
        writer.get_ref().sync_data()?;
        self.unsynced = 0;
        self.commits += 1;
        Ok(true)
    }

    /// Pushes buffered bytes to the OS without a barrier.
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        match &mut self.sink {
            Sink::Memory(_) => Ok(()),
            Sink::File(writer) => writer.flush(),
        }
    }

    /// Swaps in the fresh file compaction left behind (the old handle
    /// points at the renamed-away inode). The events it held are in the
    /// fsynced snapshot, so none stay pending. A no-op in memory.
    ///
    /// # Errors
    ///
    /// The I/O error from flushing the old file.
    pub(crate) fn reopen(&mut self, file: File) -> io::Result<()> {
        if let Sink::File(writer) = &mut self.sink {
            writer.flush()?;
            *writer = BufWriter::new(file);
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Changes the flush policy of a file journal (in-memory journals
    /// have no flush boundary and keep [`FlushPolicy::PerEvent`]).
    pub(crate) fn set_policy(&mut self, policy: FlushPolicy) {
        if let Sink::File(_) = self.sink {
            self.policy = policy;
        }
    }

    /// The journal bytes of an in-memory journal (`None` for a file).
    pub(crate) fn bytes(&self) -> Option<&[u8]> {
        match &self.sink {
            Sink::Memory(buf) => Some(buf),
            Sink::File(_) => None,
        }
    }

    pub(crate) fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Events appended since the last barrier.
    pub(crate) fn unsynced(&self) -> u32 {
        self.unsynced
    }

    /// Barriers issued so far.
    pub(crate) fn commits(&self) -> u64 {
        self.commits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ArmedFault;
    use std::path::{Path, PathBuf};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hwm-storage-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn append_file(path: &Path) -> File {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap()
    }

    #[test]
    fn flush_policy_names_round_trip() {
        for p in [FlushPolicy::PerEvent, FlushPolicy::group_commit()] {
            assert_eq!(FlushPolicy::parse(p.as_str()), Some(p));
            assert_eq!(FlushPolicy::parse(&p.config_name()), Some(p));
        }
        assert_eq!(
            FlushPolicy::parse("group-commit:7"),
            Some(FlushPolicy::GroupCommit { max_batch: 7 })
        );
        assert_eq!(
            FlushPolicy::GroupCommit { max_batch: 7 }.config_name(),
            "group-commit:7"
        );
        for refused in [
            "group-commit:x",
            "group-commit:0",
            "sync",
            "buffered",
            "eventually",
        ] {
            assert_eq!(FlushPolicy::parse(refused), None, "{refused}");
        }
        assert_eq!(FlushPolicy::default(), FlushPolicy::PerEvent);
    }

    #[test]
    fn one_commit_rule_counts_barriers() {
        let dir = temp_dir("rule");
        let path = dir.join("journal.jsonl");
        let mut j = Journal::file(
            append_file(&path),
            FlushPolicy::GroupCommit { max_batch: 3 },
            None,
        );
        for _ in 0..7 {
            j.append(b"{}\n").unwrap();
        }
        assert_eq!(
            (j.commits(), j.unsynced()),
            (2, 1),
            "two full batches, one open"
        );
        assert!(j.commit().unwrap());
        assert_eq!((j.commits(), j.unsynced()), (3, 0));
        assert!(!j.commit().unwrap(), "nothing pending: no barrier");
        assert_eq!(j.commits(), 3);
        assert_eq!(std::fs::read(&path).unwrap().len(), 7 * 3);

        let mut j = Journal::file(append_file(&path), FlushPolicy::PerEvent, None);
        for _ in 0..5 {
            j.append(b"{}\n").unwrap();
        }
        assert_eq!(
            (j.commits(), j.unsynced()),
            (0, 5),
            "per-event never fsyncs alone"
        );
        assert!(j.commit().unwrap());
        assert_eq!((j.commits(), j.unsynced()), (1, 0));

        let mut m = Journal::memory();
        m.append(b"{}\n").unwrap();
        assert!(!m.commit().unwrap(), "memory has no barrier");
        assert_eq!(
            (m.commits(), m.unsynced(), m.bytes()),
            (0, 0, Some(&b"{}\n"[..]))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_journal_appends_and_reopens() {
        let dir = temp_dir("reopen");
        let path = dir.join("store.jsonl");
        let mut j = Journal::file(append_file(&path), FlushPolicy::group_commit(), None);
        j.append(b"one\n").unwrap();
        j.commit().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "one\n");
        // Swap in a fresh file mid-stream, as compaction does.
        let path2 = dir.join("store2.jsonl");
        j.append(b"two\n").unwrap();
        j.reopen(append_file(&path2)).unwrap();
        assert_eq!(j.unsynced(), 0, "reopen leaves nothing pending");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "one\ntwo\n",
            "the old file got its buffered bytes"
        );
        j.append(b"three\n").unwrap();
        j.flush().unwrap();
        assert_eq!(std::fs::read_to_string(&path2).unwrap(), "three\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_tear_and_fail() {
        let dir = temp_dir("fault");
        let path = dir.join("journal.jsonl");
        let inj = FaultInjector::new();
        let mut j = Journal::file(append_file(&path), FlushPolicy::PerEvent, Some(inj.clone()));

        j.append(b"{\"seq\":1}\n").unwrap();
        inj.arm(ArmedFault::DiskFull);
        let err = j.append(b"{\"seq\":2}\n").unwrap_err();
        assert!(err.to_string().contains("disk-full"), "{err}");
        j.flush().unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"seq\":1}\n",
            "disk-full writes nothing"
        );

        inj.arm(ArmedFault::TornWrite { salt: 3 });
        let err = j.append(b"{\"seq\":2}\n").unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"seq\":1}\n"), "good prefix intact");
        let torn = &text["{\"seq\":1}\n".len()..];
        assert!(
            !torn.is_empty() && !torn.ends_with('\n'),
            "tail is torn: {torn:?}"
        );

        // A transport fault passes through the journal untouched.
        inj.arm(ArmedFault::ConnDrop);
        j.append(b"{\"seq\":2}\n").unwrap();
        assert_eq!(inj.take(), Some(ArmedFault::ConnDrop), "still armed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
