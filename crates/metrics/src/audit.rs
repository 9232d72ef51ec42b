//! The fleet-audit alert stream: security-relevant events (duplicate
//! readouts, lockouts, remote disables) as append-only JSONL.
//!
//! Audit events are part of the determinism contract: every field is a
//! pure function of the accepted request sequence (sequence numbers and
//! the server's logical clock — never wall time), so `audit.jsonl` is
//! byte-identical for any `--jobs` and goldenable. The log retains events
//! in memory for the `Audit` wire request (cursor-based catch-up) and
//! optionally mirrors them to a file.

use hwm_jsonio::Json;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;

/// Version stamped on every audit line as `"schema"`.
pub const AUDIT_SCHEMA_VERSION: u64 = 1;

/// A field value carried by an audit event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditValue {
    /// String detail (client name, IC id, readout hex).
    Str(String),
    /// Numeric detail (tick, attempt count).
    U64(u64),
}

impl AuditValue {
    fn to_json(&self) -> Json {
        match self {
            AuditValue::Str(s) => Json::Str(s.clone()),
            AuditValue::U64(v) => Json::U64(*v),
        }
    }
}

/// One audit alert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEvent {
    /// Position in the log, assigned on record (0-based, dense).
    pub seq: u64,
    /// Server logical clock when the triggering request was admitted.
    pub tick: u64,
    /// Event kind (e.g. `duplicate_readout`, `lockout`, `remote_disable`).
    pub kind: String,
    /// Kind-specific details, flattened into the JSON line in order.
    pub fields: Vec<(String, AuditValue)>,
}

impl AuditEvent {
    /// Fetches a string field by name.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        self.fields.iter().find(|(k, _)| k == name).and_then(|(_, v)| match v {
            AuditValue::Str(s) => Some(s.as_str()),
            AuditValue::U64(_) => None,
        })
    }

    /// Fetches a numeric field by name.
    pub fn u64_field(&self, name: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| k == name).and_then(|(_, v)| match v {
            AuditValue::Str(_) => None,
            AuditValue::U64(v) => Some(*v),
        })
    }

    /// The event as a single JSON object (one `audit.jsonl` line, sans
    /// newline): `schema`, `seq`, `tick`, `kind`, then the flattened
    /// detail fields in recording order.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema".to_string(), Json::U64(AUDIT_SCHEMA_VERSION)),
            ("seq".to_string(), Json::U64(self.seq)),
            ("tick".to_string(), Json::U64(self.tick)),
            ("kind".to_string(), Json::Str(self.kind.clone())),
        ];
        for (k, v) in &self.fields {
            fields.push((k.clone(), v.to_json()));
        }
        Json::Obj(fields)
    }

    /// Parses one audit line object. Strict: `schema`/`seq`/`tick`/`kind`
    /// are required (in any position), `schema` must match, reserved keys
    /// must not repeat, and detail values must be strings or unsigned
    /// integers.
    ///
    /// # Errors
    ///
    /// Returns an [`AuditError`] naming the offending field.
    pub fn from_json(j: &Json) -> Result<AuditEvent, AuditError> {
        let obj = match j {
            Json::Obj(fields) => fields,
            _ => return Err(AuditError::new("audit event must be a JSON object")),
        };
        let (mut schema, mut seq, mut tick, mut kind) = (None, None, None, None);
        let mut fields = Vec::new();
        for (k, v) in obj {
            let slot = match k.as_str() {
                "schema" => &mut schema,
                "seq" => &mut seq,
                "tick" => &mut tick,
                "kind" => {
                    if kind.is_some() {
                        return Err(AuditError::new("duplicate field \"kind\""));
                    }
                    kind = Some(
                        v.as_str()
                            .ok_or_else(|| AuditError::new("field \"kind\" must be a string"))?
                            .to_string(),
                    );
                    continue;
                }
                detail => {
                    let value = match v {
                        Json::Str(s) => AuditValue::Str(s.clone()),
                        Json::U64(n) => AuditValue::U64(*n),
                        _ => {
                            return Err(AuditError::new(format!(
                                "field {detail:?} must be a string or unsigned integer"
                            )))
                        }
                    };
                    if fields.iter().any(|(fk, _)| fk == detail) {
                        return Err(AuditError::new(format!("duplicate field {detail:?}")));
                    }
                    fields.push((detail.to_string(), value));
                    continue;
                }
            };
            if slot.is_some() {
                return Err(AuditError::new(format!("duplicate field {k:?}")));
            }
            *slot = Some(
                v.as_u64()
                    .ok_or_else(|| AuditError::new(format!("field {k:?} must be an unsigned integer")))?,
            );
        }
        let schema = schema.ok_or_else(|| AuditError::new("audit event missing field \"schema\""))?;
        if schema != AUDIT_SCHEMA_VERSION {
            return Err(AuditError::new(format!(
                "unsupported audit schema {schema} (expected {AUDIT_SCHEMA_VERSION})"
            )));
        }
        Ok(AuditEvent {
            seq: seq.ok_or_else(|| AuditError::new("audit event missing field \"seq\""))?,
            tick: tick.ok_or_else(|| AuditError::new("audit event missing field \"tick\""))?,
            kind: kind.ok_or_else(|| AuditError::new("audit event missing field \"kind\""))?,
            fields,
        })
    }
}

/// A malformed audit line or an audit file failure.
pub type AuditError = hwm_jsonio::FieldError;

/// The append-only alert log. Not internally synchronized: the server
/// records under its own state lock, which also gives audit `seq` order
/// consistent with journal order.
#[derive(Debug, Default)]
pub struct AuditLog {
    events: Vec<AuditEvent>,
    sink: Option<File>,
}

impl AuditLog {
    /// An in-memory log (the default).
    pub fn new() -> AuditLog {
        AuditLog::default()
    }

    /// A log that additionally appends each event line to `path`
    /// (truncating any previous file: the log owns the whole stream).
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be created.
    pub fn with_file(path: &Path) -> std::io::Result<AuditLog> {
        let sink = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
        Ok(AuditLog {
            events: Vec::new(),
            sink: Some(sink),
        })
    }

    /// A log resuming an existing `path`: prior events are parsed back
    /// into memory (so `seq` numbering continues densely) and the file is
    /// reopened for appending. A missing file starts an empty log — this
    /// is the crash-recovery counterpart of [`AuditLog::with_file`].
    ///
    /// # Errors
    ///
    /// `InvalidData` when the existing file is not a valid audit stream
    /// (the log refuses to append to bytes it cannot account for);
    /// other I/O errors verbatim.
    pub fn resume_file(path: &Path) -> std::io::Result<AuditLog> {
        let events = match std::fs::read_to_string(path) {
            Ok(text) => AuditLog::parse_jsonl(&text).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("corrupt audit log {}: {}", path.display(), e.message),
                )
            })?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let sink = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(AuditLog {
            events,
            sink: Some(sink),
        })
    }

    /// Appends an event, assigning the next sequence number, and returns
    /// it. File-sink write failures are reported on stderr but do not
    /// poison the in-memory log (alerting must not take down serving).
    pub fn record(&mut self, tick: u64, kind: &str, fields: &[(&str, AuditValue)]) -> &AuditEvent {
        let event = AuditEvent {
            seq: self.events.len() as u64,
            tick,
            kind: kind.to_string(),
            fields: fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        };
        if let Some(sink) = &mut self.sink {
            let line = format!("{}\n", event.to_json());
            if let Err(e) = sink.write_all(line.as_bytes()).and_then(|()| sink.flush()) {
                eprintln!("audit: failed to append event {}: {e}", event.seq);
            }
        }
        self.events.push(event);
        self.events.last().expect("just pushed")
    }

    /// Appends a copy of an event shipped from another log (replication):
    /// tick, kind and fields are taken verbatim, but `seq` is renumbered
    /// to this log's density so the invariant `seq == index` holds on
    /// both sides. The file sink (if any) mirrors the entry like
    /// [`AuditLog::record`] does.
    pub fn replicate(&mut self, source: &AuditEvent) -> &AuditEvent {
        let event = AuditEvent {
            seq: self.events.len() as u64,
            tick: source.tick,
            kind: source.kind.clone(),
            fields: source.fields.clone(),
        };
        if let Some(sink) = &mut self.sink {
            let line = format!("{}\n", event.to_json());
            if let Err(e) = sink.write_all(line.as_bytes()).and_then(|()| sink.flush()) {
                eprintln!("audit: failed to append event {}: {e}", event.seq);
            }
        }
        self.events.push(event);
        self.events.last().expect("just pushed")
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events recorded so far.
    pub fn events(&self) -> &[AuditEvent] {
        &self.events
    }

    /// Consumes the log, yielding the events without cloning them.
    ///
    /// Test oracle: `hwm-service`'s `wire.rs` test `responses_round_trip` and
    /// `tests/wire_golden.rs` build the `Response::Audit` frames they pin
    /// from it.
    pub fn into_events(self) -> Vec<AuditEvent> {
        self.events
    }

    /// Cursor-based catch-up for the `Audit` wire request: events with
    /// `seq >= since`, plus the cursor to pass next time.
    pub fn events_since(&self, since: u64) -> (Vec<AuditEvent>, u64) {
        let start = (since as usize).min(self.events.len());
        (self.events[start..].to_vec(), self.events.len() as u64)
    }

    /// The full log as JSONL bytes (what the file sink holds).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            e.to_json().write_compact(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL stream back into events, verifying dense `seq`
    /// numbering from 0.
    ///
    /// # Errors
    ///
    /// Returns an [`AuditError`] naming the offending line.
    pub fn parse_jsonl(text: &str) -> Result<Vec<AuditEvent>, AuditError> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let j = Json::parse(line)
                .map_err(|e| AuditError::new(format!("audit line {}: {e}", i + 1)))?;
            let event =
                AuditEvent::from_json(&j).map_err(|e| AuditError::new(format!("audit line {}: {}", i + 1, e.message)))?;
            if event.seq != i as u64 {
                return Err(AuditError::new(format!(
                    "audit line {}: seq {} breaks dense numbering",
                    i + 1,
                    event.seq
                )));
            }
            events.push(event);
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> AuditLog {
        let mut log = AuditLog::new();
        log.record(
            3,
            "duplicate_readout",
            &[
                ("ic", AuditValue::Str("ic-2".into())),
                ("client", AuditValue::Str("fab-a".into())),
                ("prior", AuditValue::Str("ic-0".into())),
            ],
        );
        log.record(
            9,
            "lockout",
            &[
                ("client", AuditValue::Str("fab-b".into())),
                ("until", AuditValue::U64(41)),
                ("count", AuditValue::U64(2)),
            ],
        );
        log
    }

    #[test]
    fn records_assign_dense_seqs_and_round_trip() {
        let log = sample_log();
        assert_eq!(log.len(), 2);
        let jsonl = log.to_jsonl();
        assert_eq!(
            jsonl.lines().next().unwrap(),
            r#"{"schema":1,"seq":0,"tick":3,"kind":"duplicate_readout","ic":"ic-2","client":"fab-a","prior":"ic-0"}"#
        );
        let parsed = AuditLog::parse_jsonl(&jsonl).expect("parses");
        assert_eq!(parsed, log.events());
        assert_eq!(parsed[1].u64_field("until"), Some(41));
        assert_eq!(parsed[0].str_field("client"), Some("fab-a"));
    }

    #[test]
    fn cursor_catch_up_is_dense() {
        let log = sample_log();
        let (all, next) = log.events_since(0);
        assert_eq!((all.len(), next), (2, 2));
        let (tail, next) = log.events_since(1);
        assert_eq!((tail.len(), next), (1, 2));
        assert_eq!(tail[0].kind, "lockout");
        let (none, next) = log.events_since(7);
        assert_eq!((none.len(), next), (0, 2));
    }

    #[test]
    fn strict_parse_rejects_malformed_lines() {
        for (line, why) in [
            (r#"{"seq":0,"tick":1,"kind":"x"}"#, "schema"),
            (r#"{"schema":2,"seq":0,"tick":1,"kind":"x"}"#, "schema"),
            (r#"{"schema":1,"tick":1,"kind":"x"}"#, "seq"),
            (r#"{"schema":1,"seq":0,"kind":"x"}"#, "tick"),
            (r#"{"schema":1,"seq":0,"tick":1}"#, "kind"),
            (r#"{"schema":1,"seq":0,"tick":1,"kind":7}"#, "kind"),
            (r#"{"schema":1,"seq":0,"tick":1,"kind":"x","d":true}"#, "\"d\""),
            (r#"{"schema":1,"seq":0,"tick":1,"kind":"x","seq":0}"#, "duplicate"),
            (r#"{"schema":1,"seq":5,"tick":1,"kind":"x"}"#, "dense"),
            (r#"[1]"#, "object"),
        ] {
            let err = AuditLog::parse_jsonl(&format!("{line}\n")).unwrap_err();
            assert!(err.message.contains(why), "{line} -> {}", err.message);
        }
    }

    #[test]
    fn file_sink_mirrors_the_memory_log() {
        let dir = std::env::temp_dir().join(format!("hwm_audit_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("audit.jsonl");
        let mut log = AuditLog::with_file(&path).expect("creates");
        log.record(1, "remote_disable", &[("ic", AuditValue::Str("ic-1".into()))]);
        log.record(2, "lockout", &[("client", AuditValue::Str("c".into()))]);
        let bytes = std::fs::read_to_string(&path).unwrap();
        assert_eq!(bytes, log.to_jsonl());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_file_continues_the_stream_across_restart() {
        let dir = std::env::temp_dir().join(format!("hwm_audit_resume_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("audit.jsonl");
        let _ = std::fs::remove_file(&path);
        // No file yet: resume starts empty, just like with_file.
        {
            let mut log = AuditLog::resume_file(&path).expect("fresh resume");
            assert!(log.is_empty());
            log.record(1, "lockout", &[("client", AuditValue::Str("c".into()))]);
        }
        // Restart: the prior event is back in memory, numbering continues.
        let mut log = AuditLog::resume_file(&path).expect("resumes");
        assert_eq!(log.len(), 1);
        let e = log.record(5, "remote_disable", &[("ic", AuditValue::Str("ic-1".into()))]);
        assert_eq!(e.seq, 1, "seq numbering continues densely");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), log.to_jsonl());
        // A corrupt file is refused, not silently appended to.
        std::fs::write(&path, "not an audit stream\n").unwrap();
        let err = AuditLog::resume_file(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}
