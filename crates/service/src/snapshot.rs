//! Registry snapshots (schema v1): the compaction checkpoint format.
//!
//! A snapshot captures the registry's full recoverable state — every
//! record, every piece of clone evidence, the journal sequence number and
//! the rolling journal digest — in one JSON document. Compaction writes
//! `snapshot.json` next to the journal via temp-file + rename (atomic on
//! POSIX), then truncates the journal; recovery loads the snapshot and
//! replays only the journal tail (`seq > snapshot.seq`). A crash between
//! the two renames is safe: tail lines at or below `snapshot.seq` are
//! recognized and skipped.
//!
//! Schema v1, one document:
//!
//! ```text
//! {"schema":1,"seq":12,"digest":9119796695514773374,
//!  "records":[{"ic":"ic-0","client":"fab","readout":"0101","group":2,"state":"unlocked","seq":1}],
//!  "clones":[{"seq":3,"ic":"ic-2","client":"fab","prior":"ic-0"}]}
//! ```
//!
//! `digest` is the rolling FNV-1a digest of every journal byte ever
//! appended (including compacted-away history), so "journal digest" stays
//! comparable across compactions — the recovered digest equals the digest
//! of the full uncompacted journal an oracle run would have produced.
//! Keys are never snapshotted, for the same reason they are never
//! journaled.
//!
//! Parsing is strict through the same reader as the wire layer: unknown,
//! missing, ill-typed or duplicated fields, or a wrong `schema`, are hard
//! errors — a
//! snapshot is trusted state, and silently ignoring what we do not
//! understand would corrupt recovery.

use crate::registry::{CloneEvidence, IcRecord, IcState};
use hwm_jsonio::{Json, StrictObj};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Snapshot schema version this build reads and writes.
pub const SNAPSHOT_SCHEMA: u64 = 1;

/// The snapshot document: everything recovery needs besides the journal
/// tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Journal sequence number the snapshot covers (events with
    /// `seq <= seq` are folded in).
    pub seq: u64,
    /// Rolling FNV-1a digest of all journal bytes through `seq`.
    pub digest: u64,
    /// All records, in registration order.
    pub records: Vec<IcRecord>,
    /// Duplicate-readout evidence, in journal order.
    pub clones: Vec<CloneEvidence>,
}

/// Conventional snapshot path for a journal at `journal_path`:
/// `snapshot.json` in the same directory.
pub fn snapshot_path(journal_path: &Path) -> PathBuf {
    journal_path
        .parent()
        .unwrap_or_else(|| Path::new("."))
        .join("snapshot.json")
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

impl RegistrySnapshot {
    /// Serializes to the schema-v1 JSON document (single line, no
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let records = self
            .records
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("ic", Json::Str(r.ic.clone())),
                    ("client", Json::Str(r.client.clone())),
                    ("readout", Json::Str(r.readout.clone())),
                    ("group", Json::U64(r.group as u64)),
                    ("state", Json::Str(r.state.as_str().to_string())),
                    ("seq", Json::U64(r.seq)),
                ])
            })
            .collect();
        let clones = self
            .clones
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("seq", Json::U64(c.seq)),
                    ("ic", Json::Str(c.ic.clone())),
                    ("client", Json::Str(c.client.clone())),
                    ("prior", Json::Str(c.prior.clone())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::U64(SNAPSHOT_SCHEMA)),
            ("seq", Json::U64(self.seq)),
            ("digest", Json::U64(self.digest)),
            ("records", Json::Arr(records)),
            ("clones", Json::Arr(clones)),
        ])
        .to_string()
    }

    /// Parses and validates a schema-v1 document.
    ///
    /// # Errors
    ///
    /// `InvalidData` for anything that is not exactly a well-formed v1
    /// snapshot: bad JSON, wrong schema number, missing, unknown,
    /// ill-typed or duplicated fields, an unknown state name, or
    /// internally inconsistent sequence numbers.
    pub fn from_json(text: &str) -> io::Result<RegistrySnapshot> {
        let j = Json::parse(text).map_err(|e| invalid(format!("snapshot is not JSON: {e}")))?;
        let mut doc = StrictObj::new(&j, "snapshot document")?;
        let schema: u64 = doc.uint("schema")?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(invalid(format!(
                "snapshot schema {schema} unsupported (expected {SNAPSHOT_SCHEMA})"
            )));
        }
        let seq: u64 = doc.uint("seq")?;
        let digest: u64 = doc.uint("digest")?;
        let in_range = |what: &str, record_seq: u64| {
            if record_seq == 0 || record_seq > seq {
                Err(invalid(format!(
                    "{what} seq {record_seq} outside journal range 1..={seq}"
                )))
            } else {
                Ok(record_seq)
            }
        };
        let mut records = Vec::new();
        for (i, rj) in doc.arr("records")?.iter().enumerate() {
            let what = format!("snapshot record {i}");
            let mut r = StrictObj::new(rj, &what)?;
            let state_name = r.string("state")?;
            let state = IcState::parse(&state_name)
                .ok_or_else(|| invalid(format!("{what} has unknown state {state_name:?}")))?;
            records.push(IcRecord {
                seq: in_range(&what, r.uint("seq")?)?,
                ic: r.string("ic")?,
                client: r.string("client")?,
                readout: r.string("readout")?,
                group: r.uint("group")?,
                state,
            });
            r.finish()?;
        }
        let mut clones = Vec::new();
        for (i, cj) in doc.arr("clones")?.iter().enumerate() {
            let what = format!("snapshot clone {i}");
            let mut c = StrictObj::new(cj, &what)?;
            clones.push(CloneEvidence {
                seq: in_range(&what, c.uint("seq")?)?,
                ic: c.string("ic")?,
                client: c.string("client")?,
                prior: c.string("prior")?,
            });
            c.finish()?;
        }
        doc.finish()?;
        Ok(RegistrySnapshot {
            seq,
            digest,
            records,
            clones,
        })
    }

    /// Writes the snapshot atomically: serialize to `<path>.tmp`, fsync,
    /// rename over `path`, then best-effort fsync the directory so the
    /// rename itself is durable.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on failure the previous snapshot (if any)
    /// is untouched.
    pub fn write_atomic(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("json.tmp");
        {
            let mut f = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(self.to_json().as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            // Directory fsync makes the rename durable; not all
            // platforms support opening a directory, so best effort.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Loads the snapshot at `path`; `Ok(None)` when none exists.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a corrupt snapshot (see
    /// [`RegistrySnapshot::from_json`]), other I/O errors verbatim.
    pub fn load(path: &Path) -> io::Result<Option<RegistrySnapshot>> {
        match std::fs::read_to_string(path) {
            Ok(text) => RegistrySnapshot::from_json(text.trim_end_matches('\n'))
                .map(Some)
                .map_err(|e| invalid(format!("corrupt snapshot {}: {e}", path.display()))),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RegistrySnapshot {
        RegistrySnapshot {
            seq: 5,
            digest: 0xdead_beef,
            records: vec![IcRecord {
                ic: "ic-0".into(),
                client: "fab".into(),
                readout: "0101".into(),
                group: 2,
                state: IcState::Unlocked,
                seq: 1,
            }],
            clones: vec![CloneEvidence {
                seq: 3,
                ic: "ic-2".into(),
                client: "fab".into(),
                prior: "ic-0".into(),
            }],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let s = sample();
        let text = s.to_json();
        assert!(text.starts_with("{\"schema\":1,\"seq\":5,\"digest\":"), "{text}");
        assert_eq!(RegistrySnapshot::from_json(&text).unwrap(), s);
    }

    #[test]
    fn strict_parsing_rejects_drift() {
        let good = sample().to_json();
        for (mutate, needle) in [
            (good.replace("\"schema\":1", "\"schema\":2"), "schema 2"),
            // A renamed field is reported as the missing one: the strict
            // reader fails on the first absent field before it can know
            // which leftover fields are unknown.
            (good.replace("\"digest\":", "\"digset\":"), "missing field \"digest\""),
            (good.replace("\"digest\":", "\"extra\":0,\"digest\":"), "unknown field"),
            (good.replace("\"seq\":5,", "\"seq\":5,\"seq\":6,"), "duplicate field \"seq\""),
            (good.replace("\"state\":\"unlocked\"", "\"state\":\"molten\""), "unknown state"),
            (good.replace("\"seq\":3,\"ic\":\"ic-2\"", "\"seq\":9,\"ic\":\"ic-2\""), "outside journal range"),
            ("nope".to_string(), "not JSON"),
        ] {
            let err = RegistrySnapshot::from_json(&mutate).unwrap_err();
            assert!(err.to_string().contains(needle), "{mutate} -> {err}");
        }
    }

    #[test]
    fn atomic_write_and_load() {
        let dir = std::env::temp_dir().join(format!("hwm-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("journal.jsonl");
        let path = snapshot_path(&journal);
        let _ = std::fs::remove_file(&path);
        assert_eq!(RegistrySnapshot::load(&path).unwrap(), None);
        let s = sample();
        s.write_atomic(&path).unwrap();
        assert_eq!(RegistrySnapshot::load(&path).unwrap(), Some(s.clone()));
        // Overwrite is atomic: a second snapshot fully replaces the first.
        let mut s2 = s;
        s2.seq = 7;
        s2.write_atomic(&path).unwrap();
        assert_eq!(RegistrySnapshot::load(&path).unwrap().unwrap().seq, 7);
        assert!(!path.with_extension("json.tmp").exists(), "tmp file cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
