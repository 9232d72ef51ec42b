//! The activation-service wire protocol: message types and framing.
//!
//! Messages are JSON objects (via `hwm-jsonio`, so integers round-trip
//! losslessly and equal values always serialize to identical bytes) carried
//! in length-prefixed frames: a 4-byte big-endian payload length followed
//! by that many bytes of UTF-8 JSON. The codec is **strict**: unknown,
//! missing, ill-typed and duplicated fields are all rejected (one
//! [`StrictObj`] reader, shared with every other decoder), so a malformed
//! or hostile client cannot smuggle state past the parser.
//!
//! Scan readouts travel as bit strings in the scan chain's display order
//! (most significant flip-flop first), exactly what
//! `hwm_metering::ScanReadout`'s `Bits` prints; [`parse_readout_bits`]
//! inverts that rendering.

use crate::registry::RegistryCounts;
use hwm_jsonio::{FieldError, Json, StrictObj};
use hwm_logic::Bits;
use hwm_trace::{SpanRecord, TraceContext};
use std::io;

/// Maximum frame payload the service will read (1 MiB). Larger prefixes
/// are treated as protocol errors, which bounds a hostile client's memory
/// claim per connection.
pub const MAX_FRAME: usize = 1 << 20;

/// A protocol-level failure: bad framing or a malformed message.
pub type WireError = FieldError;

/// A request from the foundry (or an attacker) to the designer's server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Report a fabricated IC and its locked power-up readout.
    Register {
        /// Requesting client's identity (per-client throttling key).
        client: String,
        /// The foundry's label for the die.
        ic: String,
        /// Scanned power-up state as a bit string.
        readout: String,
    },
    /// Request the unlock key for a registered IC's readout.
    Unlock {
        /// Requesting client's identity.
        client: String,
        /// Scanned power-up state as a bit string.
        readout: String,
    },
    /// Mark a registered IC disabled and fetch the kill sequence (§8).
    RemoteDisable {
        /// Requesting client's identity.
        client: String,
        /// The IC to disable.
        ic: String,
    },
    /// Query registry counts, optionally narrowed to one IC.
    Status {
        /// Requesting client's identity.
        client: String,
        /// Specific IC to report on, if any.
        ic: Option<String>,
    },
    /// Fetch a live metrics snapshot (admin plane: not throttled and does
    /// not tick the logical clock, so observability never perturbs
    /// admission decisions or the determinism contract).
    Metrics {
        /// Requesting client's identity.
        client: String,
    },
    /// Fetch audit alerts at or past a cursor (admin plane, like
    /// [`Request::Metrics`]).
    Audit {
        /// Requesting client's identity.
        client: String,
        /// Sequence cursor: return events with `seq >= since` (all events
        /// when omitted).
        since: Option<u64>,
    },
    /// Fetch the sampled time-series history (admin plane, like
    /// [`Request::Metrics`]).
    History {
        /// Requesting client's identity.
        client: String,
        /// Keep only samples within the last `window` ticks (the full
        /// retained ring when omitted).
        window: Option<u64>,
    },
    /// Fetch the node's buffered distributed-trace spans (admin plane,
    /// like [`Request::Metrics`]: unthrottled, clock-neutral — reading
    /// traces never perturbs the traced workload).
    Traces {
        /// Requesting client's identity.
        client: String,
        /// Return only the newest `limit` spans (the full ring when
        /// omitted).
        limit: Option<u64>,
    },
}

impl Request {
    /// The client identity the request carries (the throttling key).
    pub fn client(&self) -> &str {
        match self {
            Request::Register { client, .. }
            | Request::Unlock { client, .. }
            | Request::RemoteDisable { client, .. }
            | Request::Status { client, .. }
            | Request::Metrics { client }
            | Request::Audit { client, .. }
            | Request::History { client, .. }
            | Request::Traces { client, .. } => client,
        }
    }

    /// Whether this is an admin-plane (observability) request: exempt from
    /// throttling and invisible to the logical clock.
    pub fn is_admin(&self) -> bool {
        matches!(
            self,
            Request::Metrics { .. }
                | Request::Audit { .. }
                | Request::History { .. }
                | Request::Traces { .. }
        )
    }

    /// The request's name in metric labels, trace ids and span names:
    /// its wire type, except that `remote_disable` is `disable`.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Register { .. } => "register",
            Request::Unlock { .. } => "unlock",
            Request::RemoteDisable { .. } => "disable",
            Request::Status { .. } => "status",
            Request::Metrics { .. } => "metrics",
            Request::Audit { .. } => "audit",
            Request::History { .. } => "history",
            Request::Traces { .. } => "traces",
        }
    }

    /// The trace context a node handles this request under at `tick`: a
    /// supplied context is always honoured; otherwise one is rooted
    /// only when tracing is armed (`seed`).
    pub fn trace_context(
        &self,
        supplied: Option<&TraceContext>,
        seed: Option<u64>,
        tick: u64,
    ) -> Option<TraceContext> {
        match supplied {
            Some(ctx) => Some(*ctx),
            None => seed.map(|seed| TraceContext::root(seed, tick, self.client(), self.op())),
        }
    }

    /// The attributes of the `request` span a node records when it roots
    /// this request's trace: client, kind, the IC when the request names
    /// one, and the outcome.
    pub fn root_span_attrs(&self, outcome: &str) -> Vec<(String, String)> {
        let mut attrs = vec![
            ("client".to_string(), self.client().to_string()),
            ("kind".to_string(), self.op().to_string()),
        ];
        let ic = match self {
            Request::Register { ic, .. } | Request::RemoteDisable { ic, .. } => Some(ic),
            Request::Status { ic, .. } => ic.as_ref(),
            _ => None,
        };
        if let Some(ic) = ic {
            attrs.push(("ic".to_string(), ic.clone()));
        }
        attrs.push(("outcome".to_string(), outcome.to_string()));
        attrs
    }

    /// Serializes the request to a JSON value.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Register {
                client,
                ic,
                readout,
            } => Json::obj(vec![
                ("type", Json::Str("register".into())),
                ("client", Json::Str(client.clone())),
                ("ic", Json::Str(ic.clone())),
                ("readout", Json::Str(readout.clone())),
            ]),
            Request::Unlock { client, readout } => Json::obj(vec![
                ("type", Json::Str("unlock".into())),
                ("client", Json::Str(client.clone())),
                ("readout", Json::Str(readout.clone())),
            ]),
            Request::RemoteDisable { client, ic } => Json::obj(vec![
                ("type", Json::Str("remote_disable".into())),
                ("client", Json::Str(client.clone())),
                ("ic", Json::Str(ic.clone())),
            ]),
            Request::Status { client, ic } => {
                let mut fields = vec![
                    ("type", Json::Str("status".into())),
                    ("client", Json::Str(client.clone())),
                ];
                if let Some(ic) = ic {
                    fields.push(("ic", Json::Str(ic.clone())));
                }
                Json::obj(fields)
            }
            Request::Metrics { client } => Json::obj(vec![
                ("type", Json::Str("metrics".into())),
                ("client", Json::Str(client.clone())),
            ]),
            Request::Audit { client, since } => {
                let mut fields = vec![
                    ("type", Json::Str("audit".into())),
                    ("client", Json::Str(client.clone())),
                ];
                if let Some(since) = since {
                    fields.push(("since", Json::U64(*since)));
                }
                Json::obj(fields)
            }
            Request::History { client, window } => {
                let mut fields = vec![
                    ("type", Json::Str("history".into())),
                    ("client", Json::Str(client.clone())),
                ];
                if let Some(window) = window {
                    fields.push(("window", Json::U64(*window)));
                }
                Json::obj(fields)
            }
            Request::Traces { client, limit } => {
                let mut fields = vec![
                    ("type", Json::Str("traces".into())),
                    ("client", Json::Str(client.clone())),
                ];
                if let Some(limit) = limit {
                    fields.push(("limit", Json::U64(*limit)));
                }
                Json::obj(fields)
            }
        }
    }

    /// Parses a request, rejecting unknown, missing, ill-typed and
    /// duplicated fields.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] naming the offending field.
    pub fn from_json(j: &Json) -> Result<Request, WireError> {
        let mut fields = StrictObj::new(j, "request")?;
        let req = Request::read(&mut fields)?;
        fields.finish()?;
        Ok(req)
    }

    /// Reads the request's own fields; the caller finishes the reader.
    fn read(fields: &mut StrictObj<'_>) -> Result<Request, WireError> {
        let kind = fields.string("type")?;
        Ok(match kind.as_str() {
            "register" => Request::Register {
                client: fields.string("client")?,
                ic: fields.string("ic")?,
                readout: fields.string("readout")?,
            },
            "unlock" => Request::Unlock {
                client: fields.string("client")?,
                readout: fields.string("readout")?,
            },
            "remote_disable" => Request::RemoteDisable {
                client: fields.string("client")?,
                ic: fields.string("ic")?,
            },
            "status" => Request::Status {
                client: fields.string("client")?,
                ic: fields.opt_string("ic")?,
            },
            "metrics" => Request::Metrics {
                client: fields.string("client")?,
            },
            "audit" => Request::Audit {
                client: fields.string("client")?,
                since: fields.opt_u64("since")?,
            },
            "history" => Request::History {
                client: fields.string("client")?,
                window: fields.opt_u64("window")?,
            },
            "traces" => Request::Traces {
                client: fields.string("client")?,
                limit: fields.opt_u64("limit")?,
            },
            other => {
                return Err(WireError::new(format!("unknown request type {other:?}")));
            }
        })
    }
}

/// A [`Request`] plus the optional distributed-trace context it rides
/// with. On the wire this is the request object with one extra optional
/// `"trace"` field — a frame without it parses exactly as before, so
/// old clients keep working, and old servers never see the field from
/// old clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedRequest {
    /// The request proper.
    pub req: Request,
    /// The trace context, when the sender is propagating one.
    pub trace: Option<TraceContext>,
}

impl TracedRequest {
    /// Wraps a request with no trace context (the legacy wire form).
    pub fn untraced(req: Request) -> TracedRequest {
        TracedRequest { req, trace: None }
    }

    /// Serializes to the request's JSON object, plus the `"trace"`
    /// field when a context is attached.
    pub fn to_json(&self) -> Json {
        let mut j = self.req.to_json();
        if let (Json::Obj(fields), Some(ctx)) = (&mut j, &self.trace) {
            fields.push(("trace".into(), ctx.to_json()));
        }
        j
    }

    /// Parses a request frame: the optional `"trace"` field and the
    /// request's own fields are read from one strict reader, so every
    /// other unknown field is still rejected.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed requests or contexts, and
    /// for trace contexts on admin requests — the admin plane is
    /// deliberately untraced (reading traces must not create spans).
    pub fn from_json(j: &Json) -> Result<TracedRequest, WireError> {
        let mut fields = StrictObj::new(j, "request")?;
        let trace = fields.opt("trace")?.map(TraceContext::from_json).transpose()?;
        let req = Request::read(&mut fields)?;
        fields.finish()?;
        if trace.is_some() && req.is_admin() {
            return Err(WireError::new(
                "admin requests must not carry a \"trace\" context",
            ));
        }
        Ok(TracedRequest { req, trace })
    }
}

/// Why the server refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The message did not parse or referenced an impossible value.
    Malformed,
    /// The named IC is not in the registry.
    UnknownIc,
    /// The readout does not belong to any registered IC.
    UnknownReadout,
    /// Passive-metering evidence: this readout was already registered, so
    /// one of the two dies is a clone (or the foundry double-reported).
    DuplicateReadout,
    /// An IC with this label is already registered.
    DuplicateIc,
    /// The IC was already unlocked; keys are issued exactly once per die.
    AlreadyUnlocked,
    /// The IC was remotely disabled; no further service.
    Disabled,
    /// The readout decodes to a state with no safe exit (black hole).
    NoKeyExists,
    /// Token bucket empty: retry after the indicated tick.
    Throttled,
    /// Exponential lockout is active for this client.
    LockedOut,
    /// The server is a replication follower: it only accepts journal
    /// entries shipped by its leader, never direct mutations.
    NotLeader,
}

impl ErrorCode {
    /// Wire name of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnknownIc => "unknown_ic",
            ErrorCode::UnknownReadout => "unknown_readout",
            ErrorCode::DuplicateReadout => "duplicate_readout",
            ErrorCode::DuplicateIc => "duplicate_ic",
            ErrorCode::AlreadyUnlocked => "already_unlocked",
            ErrorCode::Disabled => "disabled",
            ErrorCode::NoKeyExists => "no_key_exists",
            ErrorCode::Throttled => "throttled",
            ErrorCode::LockedOut => "locked_out",
            ErrorCode::NotLeader => "not_leader",
        }
    }

    /// Parses a wire name back to the code.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "malformed" => ErrorCode::Malformed,
            "unknown_ic" => ErrorCode::UnknownIc,
            "unknown_readout" => ErrorCode::UnknownReadout,
            "duplicate_readout" => ErrorCode::DuplicateReadout,
            "duplicate_ic" => ErrorCode::DuplicateIc,
            "already_unlocked" => ErrorCode::AlreadyUnlocked,
            "disabled" => ErrorCode::Disabled,
            "no_key_exists" => ErrorCode::NoKeyExists,
            "throttled" => ErrorCode::Throttled,
            "locked_out" => ErrorCode::LockedOut,
            "not_leader" => ErrorCode::NotLeader,
            _ => return None,
        })
    }
}

/// Registry-wide counts returned by [`Request::Status`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatusReport {
    /// ICs ever registered.
    pub registered: u64,
    /// ICs currently unlocked.
    pub unlocked: u64,
    /// ICs remotely disabled.
    pub disabled: u64,
    /// Duplicate-readout registration attempts rejected (clone evidence).
    pub duplicates: u64,
    /// Client lockouts triggered so far.
    pub lockouts: u64,
    /// State of the queried IC (`"registered"` / `"unlocked"` /
    /// `"disabled"`), when the request named one.
    pub ic_state: Option<String>,
}

impl StatusReport {
    /// The report for fleet `counts` and `lockouts`, plus the queried
    /// IC's state.
    pub fn new(counts: RegistryCounts, lockouts: u64, ic_state: Option<String>) -> StatusReport {
        StatusReport {
            registered: counts.registered,
            unlocked: counts.unlocked,
            disabled: counts.disabled,
            duplicates: counts.duplicates,
            lockouts,
            ic_state,
        }
    }
}

/// The server's answer to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Registration accepted.
    Registered {
        /// The registered IC's label.
        ic: String,
        /// Total ICs registered after this one.
        total: u64,
    },
    /// The unlock key for the submitted readout.
    Key {
        /// The IC the readout belongs to.
        ic: String,
        /// Key symbols, applied one per clock cycle.
        key: Vec<u64>,
    },
    /// The IC was marked disabled; apply this kill sequence to the part.
    Disabled {
        /// The disabled IC's label.
        ic: String,
        /// The remote-disable input sequence (§8).
        kill: Vec<u64>,
    },
    /// Registry counts.
    Status(StatusReport),
    /// A live metrics snapshot ([`Request::Metrics`]).
    Metrics {
        /// The registry snapshot, schema-versioned (`hwm-metrics`).
        snapshot: hwm_metrics::Snapshot,
    },
    /// Audit alerts at or past the requested cursor ([`Request::Audit`]).
    Audit {
        /// The matching events, in sequence order.
        events: Vec<hwm_metrics::AuditEvent>,
        /// Cursor to pass as `since` next time (= total events logged).
        next: u64,
    },
    /// The sampled time-series history ([`Request::History`]).
    History {
        /// The windowed series dump, schema-versioned (`hwm-metrics`).
        history: hwm_metrics::HistoryDump,
    },
    /// The node's buffered trace spans ([`Request::Traces`]), oldest
    /// first.
    Traces {
        /// The spans, in ring order.
        spans: Vec<SpanRecord>,
    },
    /// The request was refused.
    Error {
        /// Machine-readable refusal code.
        code: ErrorCode,
        /// Human-readable explanation.
        message: String,
        /// For throttle/lockout refusals: the logical tick at which the
        /// client may retry.
        retry_at: Option<u64>,
    },
}

impl Response {
    /// The response's `outcome` label: its wire type, or for a refusal
    /// its error code.
    pub fn outcome(&self) -> &'static str {
        match self {
            Response::Registered { .. } => "registered",
            Response::Key { .. } => "key",
            Response::Disabled { .. } => "disabled",
            Response::Status(_) => "status",
            Response::Metrics { .. } => "metrics",
            Response::Audit { .. } => "audit",
            Response::History { .. } => "history",
            Response::Traces { .. } => "traces",
            Response::Error { code, .. } => code.as_str(),
        }
    }

    /// The journal event the response proves its request appended, named
    /// as the registry's journal names it: an accepted mutation, or a
    /// duplicate readout (recorded as clone evidence). `None` when the
    /// request appended nothing.
    pub fn journal_event(&self) -> Option<&'static str> {
        match self {
            Response::Registered { .. } => Some("register"),
            Response::Key { .. } => Some("unlock"),
            Response::Disabled { .. } => Some("disable"),
            Response::Error {
                code: ErrorCode::DuplicateReadout,
                ..
            } => Some("duplicate"),
            _ => None,
        }
    }

    /// Serializes the response to a JSON value.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Registered { ic, total } => Json::obj(vec![
                ("type", Json::Str("registered".into())),
                ("ic", Json::Str(ic.clone())),
                ("total", Json::U64(*total)),
            ]),
            Response::Key { ic, key } => Json::obj(vec![
                ("type", Json::Str("key".into())),
                ("ic", Json::Str(ic.clone())),
                (
                    "key",
                    Json::Arr(key.iter().map(|&v| Json::U64(v)).collect()),
                ),
            ]),
            Response::Disabled { ic, kill } => Json::obj(vec![
                ("type", Json::Str("disabled".into())),
                ("ic", Json::Str(ic.clone())),
                (
                    "kill",
                    Json::Arr(kill.iter().map(|&v| Json::U64(v)).collect()),
                ),
            ]),
            Response::Status(s) => {
                let mut fields = vec![
                    ("type", Json::Str("status".into())),
                    ("registered", Json::U64(s.registered)),
                    ("unlocked", Json::U64(s.unlocked)),
                    ("disabled", Json::U64(s.disabled)),
                    ("duplicates", Json::U64(s.duplicates)),
                    ("lockouts", Json::U64(s.lockouts)),
                ];
                if let Some(state) = &s.ic_state {
                    fields.push(("ic_state", Json::Str(state.clone())));
                }
                Json::obj(fields)
            }
            Response::Metrics { snapshot } => Json::obj(vec![
                ("type", Json::Str("metrics".into())),
                ("snapshot", snapshot.to_json()),
            ]),
            Response::Audit { events, next } => Json::obj(vec![
                ("type", Json::Str("audit".into())),
                (
                    "events",
                    Json::Arr(events.iter().map(|e| e.to_json()).collect()),
                ),
                ("next", Json::U64(*next)),
            ]),
            Response::History { history } => Json::obj(vec![
                ("type", Json::Str("history".into())),
                ("history", history.to_json()),
            ]),
            Response::Traces { spans } => Json::obj(vec![
                ("type", Json::Str("traces".into())),
                (
                    "spans",
                    Json::Arr(spans.iter().map(|s| s.to_json()).collect()),
                ),
            ]),
            Response::Error {
                code,
                message,
                retry_at,
            } => {
                let mut fields = vec![
                    ("type", Json::Str("error".into())),
                    ("code", Json::Str(code.as_str().into())),
                    ("message", Json::Str(message.clone())),
                ];
                if let Some(t) = retry_at {
                    fields.push(("retry_at", Json::U64(*t)));
                }
                Json::obj(fields)
            }
        }
    }

    /// Parses a response, rejecting unknown, missing, ill-typed and
    /// duplicated fields.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] naming the offending field.
    pub fn from_json(j: &Json) -> Result<Response, WireError> {
        let mut fields = StrictObj::new(j, "response")?;
        let kind = fields.string("type")?;
        let resp = match kind.as_str() {
            "registered" => Response::Registered {
                ic: fields.string("ic")?,
                total: fields.uint("total")?,
            },
            "key" => Response::Key {
                ic: fields.string("ic")?,
                key: fields.u64_arr("key")?,
            },
            "disabled" => Response::Disabled {
                ic: fields.string("ic")?,
                kill: fields.u64_arr("kill")?,
            },
            "status" => Response::Status(StatusReport {
                registered: fields.uint("registered")?,
                unlocked: fields.uint("unlocked")?,
                disabled: fields.uint("disabled")?,
                duplicates: fields.uint("duplicates")?,
                lockouts: fields.uint("lockouts")?,
                ic_state: fields.opt_string("ic_state")?,
            }),
            "metrics" => Response::Metrics {
                snapshot: hwm_metrics::Snapshot::from_json(fields.field("snapshot")?)?,
            },
            "audit" => Response::Audit {
                events: fields
                    .arr("events")?
                    .iter()
                    .map(hwm_metrics::AuditEvent::from_json)
                    .collect::<Result<Vec<_>, _>>()?,
                next: fields.uint("next")?,
            },
            "history" => Response::History {
                history: hwm_metrics::HistoryDump::from_json(fields.field("history")?)?,
            },
            "traces" => Response::Traces {
                spans: fields
                    .arr("spans")?
                    .iter()
                    .map(SpanRecord::from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            },
            "error" => Response::Error {
                code: {
                    let raw = fields.string("code")?;
                    ErrorCode::parse(&raw)
                        .ok_or_else(|| WireError::new(format!("unknown error code {raw:?}")))?
                },
                message: fields.string("message")?,
                retry_at: fields.opt_u64("retry_at")?,
            },
            other => {
                return Err(WireError::new(format!("unknown response type {other:?}")));
            }
        };
        fields.finish()?;
        Ok(resp)
    }
}

/// Renders a scan readout as its wire bit string.
pub fn readout_to_bits_string(bits: &Bits) -> String {
    bits.to_string()
}

/// Parses a wire bit string back into scan-chain [`Bits`] (the inverse of
/// the `Bits` display rendering: first character is the highest index).
///
/// # Errors
///
/// Returns a [`WireError`] for empty strings or non-`0`/`1` characters.
pub fn parse_readout_bits(s: &str) -> Result<Bits, WireError> {
    if s.is_empty() {
        return Err(WireError::new("readout bit string is empty"));
    }
    if !s.bytes().all(|b| b == b'0' || b == b'1') {
        return Err(WireError::new(format!(
            "readout must be a 0/1 bit string, got {s:?}"
        )));
    }
    Ok(s.bytes().rev().map(|b| b == b'1').collect())
}

/// Reusable per-connection encode buffers: the JSON rendering and the
/// assembled frame live in caller-owned storage. Once both have grown to
/// the connection's largest frame, [`encode_frame`] allocates nothing
/// (`tests/alloc.rs` counts). One scratch serves one connection (or one
/// thread); it is deliberately cheap to construct.
#[derive(Debug, Default)]
pub struct FrameScratch {
    text: String,
    frame: Vec<u8>,
}

impl FrameScratch {
    /// A fresh scratch (empty buffers; they grow to the connection's
    /// largest frame and stay there).
    pub fn new() -> FrameScratch {
        FrameScratch::default()
    }
}

/// Encodes one length-prefixed frame into `scratch` and returns the
/// complete wire bytes (prefix + payload), valid until the next encode.
/// This is the one frame encoder: every transport writes its bytes.
///
/// # Errors
///
/// Refuses payloads above [`MAX_FRAME`].
pub fn encode_frame<'a>(scratch: &'a mut FrameScratch, payload: &Json) -> io::Result<&'a [u8]> {
    scratch.text.clear();
    payload.write_compact(&mut scratch.text);
    let bytes = scratch.text.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame payload of {} bytes exceeds MAX_FRAME", bytes.len()),
        ));
    }
    scratch.frame.clear();
    scratch.frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    scratch.frame.extend_from_slice(bytes);
    Ok(&scratch.frame)
}

/// Incremental frame decoder for pipelined byte streams: feed raw bytes
/// in whatever chunks the transport delivers (split anywhere, including
/// mid-length-prefix) and pull complete frames out. This is the one
/// frame decoder: every transport reads through it. Its frame sequence
/// is identical to a blocking whole-buffer read of the same bytes — the
/// partial-read proptest pins that equivalence against the tests'
/// reference reader.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends bytes received from the peer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded into a frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes the next complete frame, or `Ok(None)` when more bytes
    /// are needed.
    ///
    /// # Errors
    ///
    /// Returns an error for oversized prefixes or payloads that are not
    /// valid UTF-8 JSON.
    pub fn next_frame(&mut self) -> io::Result<Option<Json>> {
        if self.pending() < 4 {
            self.compact();
            return Ok(None);
        }
        // Infallible: the slice is exactly 4 bytes long.
        let len_buf: [u8; 4] = self.buf[self.pos..self.pos + 4].try_into().expect("4 bytes");
        let len = u32::from_be_bytes(len_buf) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame prefix of {len} bytes exceeds MAX_FRAME"),
            ));
        }
        if self.pending() < 4 + len {
            self.compact();
            return Ok(None);
        }
        let start = self.pos + 4;
        let text = std::str::from_utf8(&self.buf[start..start + len]).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("frame not UTF-8: {e}"))
        })?;
        let json = Json::parse(text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("frame not JSON: {e}")))?;
        self.pos = start + len;
        self.compact();
        Ok(Some(json))
    }

    /// Drops consumed bytes once they dominate the buffer, keeping the
    /// steady-state footprint at one in-flight frame.
    fn compact(&mut self) {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire_type(j: &Json) -> String {
        StrictObj::new(j, "message")
            .unwrap()
            .string("type")
            .unwrap()
    }

    fn round_trip_request(req: &Request) {
        let j = req.to_json();
        let back = Request::from_json(&j).expect("request parses");
        assert_eq!(&back, req);
        // The op name is the wire type, except for `remote_disable`.
        let kind = wire_type(&j);
        assert_eq!(
            req.op(),
            if kind == "remote_disable" {
                "disable"
            } else {
                &kind
            }
        );
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(&Request::Register {
            client: "foundry-1".into(),
            ic: "die-7".into(),
            readout: "0101".into(),
        });
        round_trip_request(&Request::Unlock {
            client: "foundry-1".into(),
            readout: "1100".into(),
        });
        round_trip_request(&Request::RemoteDisable {
            client: "alice".into(),
            ic: "die-7".into(),
        });
        round_trip_request(&Request::Status {
            client: "alice".into(),
            ic: None,
        });
        round_trip_request(&Request::Status {
            client: "alice".into(),
            ic: Some("die-7".into()),
        });
        round_trip_request(&Request::Metrics {
            client: "ops".into(),
        });
        round_trip_request(&Request::Audit {
            client: "ops".into(),
            since: None,
        });
        round_trip_request(&Request::Audit {
            client: "ops".into(),
            since: Some(12),
        });
        round_trip_request(&Request::History {
            client: "ops".into(),
            window: None,
        });
        round_trip_request(&Request::History {
            client: "ops".into(),
            window: Some(256),
        });
        round_trip_request(&Request::Traces {
            client: "ops".into(),
            limit: None,
        });
        round_trip_request(&Request::Traces {
            client: "ops".into(),
            limit: Some(64),
        });
    }

    #[test]
    fn traced_requests_round_trip_and_old_frames_still_parse() {
        let req = Request::Unlock {
            client: "c".into(),
            readout: "0101".into(),
        };
        let traced = TracedRequest {
            req: req.clone(),
            trace: Some(TraceContext::root(2024, 9, "c", "unlock")),
        };
        let j = traced.to_json();
        assert_eq!(TracedRequest::from_json(&j).unwrap(), traced);
        // A frame without the field parses as an untraced request —
        // the legacy wire form is a strict subset.
        let old = req.to_json();
        assert_eq!(
            TracedRequest::from_json(&old).unwrap(),
            TracedRequest::untraced(req.clone())
        );
        // And the context never confuses the plain request parser's
        // strictness: the traced form is rejected by Request::from_json.
        assert!(Request::from_json(&j).is_err());
    }

    #[test]
    fn traced_request_tampering_is_rejected() {
        let req = Request::Unlock {
            client: "c".into(),
            readout: "01".into(),
        };
        // Unknown field inside the trace context.
        let mut j = req.to_json();
        if let Json::Obj(fields) = &mut j {
            fields.push((
                "trace".into(),
                Json::obj(vec![
                    ("trace_id", Json::U64(1)),
                    ("parent_span", Json::U64(0)),
                    ("tick", Json::U64(3)),
                    ("smuggled", Json::U64(9)),
                ]),
            ));
        }
        let err = TracedRequest::from_json(&j).unwrap_err();
        assert!(err.message.contains("unknown field"), "{err}");
        // Wrong type for the whole context.
        let mut j = req.to_json();
        if let Json::Obj(fields) = &mut j {
            fields.push(("trace".into(), Json::U64(7)));
        }
        assert!(TracedRequest::from_json(&j).is_err());
        // A second "trace" field is a duplicate field, not a silent
        // overwrite.
        let traced = TracedRequest {
            req: req.clone(),
            trace: Some(TraceContext::root(1, 2, "c", "unlock")),
        };
        let mut j = traced.to_json();
        if let Json::Obj(fields) = &mut j {
            let dup = fields.last().unwrap().clone();
            fields.push(dup);
        }
        let err = TracedRequest::from_json(&j).unwrap_err();
        assert!(err.message.contains("duplicate field \"trace\""), "{err}");
        // The admin plane is deliberately untraced.
        let admin = TracedRequest {
            req: Request::Traces {
                client: "ops".into(),
                limit: None,
            },
            trace: Some(TraceContext::root(1, 2, "ops", "traces")),
        };
        let err = TracedRequest::from_json(&admin.to_json()).unwrap_err();
        assert!(err.message.contains("admin"), "{err}");
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Registered {
                ic: "die-7".into(),
                total: 3,
            },
            Response::Key {
                ic: "die-7".into(),
                key: vec![0, 7, u64::MAX],
            },
            Response::Disabled {
                ic: "die-7".into(),
                kill: vec![1, 2, 3],
            },
            Response::Status(StatusReport {
                registered: 5,
                unlocked: 4,
                disabled: 1,
                duplicates: 2,
                lockouts: 1,
                ic_state: Some("unlocked".into()),
            }),
            Response::Error {
                code: ErrorCode::LockedOut,
                message: "too many wrong readouts".into(),
                retry_at: Some(99),
            },
            Response::Metrics {
                snapshot: {
                    let m = hwm_metrics::MetricsRegistry::default();
                    m.inc("service_requests_total", &[("op", "unlock"), ("outcome", "key")], 3);
                    m.snapshot()
                },
            },
            Response::Audit {
                events: {
                    let mut log = hwm_metrics::AuditLog::new();
                    log.record(
                        4,
                        "duplicate_readout",
                        &[("ic", hwm_metrics::AuditValue::Str("die-7".into()))],
                    );
                    log.into_events()
                },
                next: 1,
            },
            Response::Traces {
                spans: vec![SpanRecord {
                    trace_id: 7,
                    span_id: 9,
                    parent: 0,
                    name: "request".into(),
                    node: "server".into(),
                    tick: 4,
                    units: 1,
                    attrs: vec![("client".into(), "c".into())],
                }],
            },
            Response::History {
                history: {
                    let m = hwm_metrics::MetricsRegistry::default();
                    let mut h = hwm_metrics::History::new(hwm_metrics::HistoryConfig::default());
                    m.inc("service_requests_total", &[("op", "unlock"), ("outcome", "key")], 3);
                    h.sample_registry(4, &m);
                    m.inc("service_requests_total", &[("op", "unlock"), ("outcome", "key")], 2);
                    h.sample_registry(8, &m);
                    h.dump(None)
                },
            },
            Response::Error {
                code: ErrorCode::DuplicateReadout,
                message: "clone suspected".into(),
                retry_at: None,
            },
        ] {
            let j = resp.to_json();
            assert_eq!(Response::from_json(&j).expect("parses"), resp);
            // The outcome is the wire type, or a refusal's code.
            let kind = match &resp {
                Response::Error { code, .. } => code.as_str().to_string(),
                _ => wire_type(&j),
            };
            assert_eq!(resp.outcome(), kind);
            let event = match kind.as_str() {
                "registered" => Some("register"),
                "key" => Some("unlock"),
                "disabled" => Some("disable"),
                "duplicate_readout" => Some("duplicate"),
                _ => None,
            };
            assert_eq!(resp.journal_event(), event, "{kind}");
        }
    }

    #[test]
    fn root_span_attrs_and_trace_context() {
        let status = Request::Status {
            client: "fab".into(),
            ic: Some("die-3".into()),
        };
        let attrs: Vec<String> = status
            .root_span_attrs("status")
            .into_iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        assert_eq!(
            attrs,
            ["client=fab", "kind=status", "ic=die-3", "outcome=status"]
        );
        assert_eq!(
            status.trace_context(None, None, 5),
            None,
            "untraced unless armed"
        );
        let rooted = status.trace_context(None, Some(7), 5).expect("armed");
        assert_eq!(rooted, TraceContext::root(7, 5, "fab", "status"));
        let supplied = rooted.child(42);
        assert_eq!(
            status.trace_context(Some(&supplied), Some(7), 9),
            Some(supplied)
        );
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let mut j = Request::Status {
            client: "c".into(),
            ic: None,
        }
        .to_json();
        if let Json::Obj(fields) = &mut j {
            fields.push(("extra".into(), Json::U64(1)));
        }
        let err = Request::from_json(&j).unwrap_err();
        assert!(err.message.contains("unknown field"), "{err}");
    }

    #[test]
    fn wrong_types_are_rejected() {
        let j = Json::obj(vec![
            ("type", Json::Str("unlock".into())),
            ("client", Json::U64(7)),
            ("readout", Json::Str("01".into())),
        ]);
        let err = Request::from_json(&j).unwrap_err();
        assert!(err.message.contains("client"), "{err}");
    }

    #[test]
    fn readout_bit_strings_invert_display() {
        let bits = Bits::from_u64(0b1011, 6);
        let s = readout_to_bits_string(&bits);
        assert_eq!(s, "001011");
        assert_eq!(parse_readout_bits(&s).unwrap(), bits);
        assert!(parse_readout_bits("").is_err());
        assert!(parse_readout_bits("01x1").is_err());
    }

    #[test]
    fn frames_round_trip_and_bound_size() {
        let req = Request::Unlock {
            client: "c".into(),
            readout: "0101".into(),
        };
        // Encode through caller-owned scratch (the hot-path form).
        let mut scratch = FrameScratch::new();
        let buf = encode_frame(&mut scratch, &req.to_json()).unwrap().to_vec();
        let mut dec = FrameDecoder::new();
        dec.extend(&buf);
        let j = dec.next_frame().unwrap().expect("one frame");
        assert_eq!(Request::from_json(&j).unwrap(), req);
        // Nothing is left after the frame.
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending(), 0);
        // Oversized prefix is refused without allocating.
        let mut dec = FrameDecoder::new();
        dec.extend(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert!(dec.next_frame().is_err());
        // A truncated payload is never a frame: its bytes stay pending,
        // which a transport at EOF reports as a torn frame.
        let mut dec = FrameDecoder::new();
        dec.extend(&buf[..buf.len() - 2]);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending(), buf.len() - 2);
    }

    #[test]
    fn scratch_encoder_matches_write_frame_bytes() {
        let mut scratch = FrameScratch::new();
        for resp in [
            Response::Registered { ic: "die-1".into(), total: 1 },
            Response::Key { ic: "die-2".into(), key: vec![1, 2, 3] },
            Response::Error {
                code: ErrorCode::Throttled,
                message: "later \"quoted\" text\n".into(),
                retry_at: Some(8),
            },
        ] {
            let j = resp.to_json();
            // The frame: a 4-byte big-endian length, then compact JSON.
            let text = j.to_string();
            let mut framed = (text.len() as u32).to_be_bytes().to_vec();
            framed.extend_from_slice(text.as_bytes());
            let encoded = encode_frame(&mut scratch, &j).unwrap();
            assert_eq!(encoded, &framed[..], "scratch reuse must not change bytes");
        }
    }

    #[test]
    fn frame_decoder_handles_arbitrary_splits() {
        let reqs: Vec<Json> = (0..5)
            .map(|i| {
                Request::Unlock {
                    client: format!("c{i}"),
                    readout: "0101".into(),
                }
                .to_json()
            })
            .collect();
        let mut scratch = FrameScratch::new();
        let mut stream = Vec::new();
        for j in &reqs {
            stream.extend_from_slice(encode_frame(&mut scratch, j).unwrap());
        }
        // Feed one byte at a time — every boundary, including
        // mid-length-prefix, is exercised.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &stream {
            dec.extend(&[b]);
            while let Some(j) = dec.next_frame().unwrap() {
                got.push(j);
            }
        }
        assert_eq!(got, reqs);
        assert_eq!(dec.pending(), 0);
        // An oversized prefix still errors.
        let mut dec = FrameDecoder::new();
        dec.extend(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert!(dec.next_frame().is_err());
    }
}
