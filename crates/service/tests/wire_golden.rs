//! Golden digests of the codec's bytes: one frame per `Request` and
//! `Response` variant (plus a traced request and a raw payload with
//! floats and negative integers), and the journal of an in-memory
//! registry history. Each entry is the FNV-1a of the exact bytes, so any
//! change to how a value renders — integer digits, float spelling,
//! string escapes, field order, the length prefix — fails here with the
//! name of the message that moved. Every frame must also decode back to
//! the message it came from.

use hwm_jsonio::{fnv1a, Json, FNV1A_BASIS};
use hwm_metrics::audit::{AuditLog, AuditValue};
use hwm_metrics::timeseries::{History, HistoryConfig};
use hwm_metrics::{MetricClass, MetricsRegistry};
use hwm_service::wire::{encode_frame, FrameDecoder, FrameScratch};
use hwm_service::{ErrorCode, Registry, Request, Response, StatusReport, TracedRequest};
use hwm_trace::{TraceContext, TraceScope};

/// Every escape class the writer knows (quote, backslash, `\n`, `\r`,
/// `\t`, the `\u00XX` control range, DEL which is not escaped), plus
/// two- three- and four-byte UTF-8.
const AWKWARD: &str = "q\"b\\n\nr\rt\t\u{0}\u{1}\u{8}\u{b}\u{c}\u{1f}\u{7f}/é€𝄞";

/// A 640-symbol key whose symbols span every decimal width from 1 to 20
/// digits, so each digit-count boundary of the integer writer is hit.
fn key_symbols() -> Vec<u64> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..640u64)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            match i % 8 {
                0 => i % 10,
                1 => u64::MAX - i,
                _ => state >> (i % 64),
            }
        })
        .collect()
}

fn requests() -> Vec<(&'static str, Request)> {
    let client = || "fab-7".to_string();
    vec![
        (
            "register",
            Request::Register {
                client: AWKWARD.into(),
                ic: "ic-0".into(),
                readout: "0110100111010010".into(),
            },
        ),
        (
            "unlock",
            Request::Unlock {
                client: client(),
                readout: "1".repeat(120),
            },
        ),
        (
            "remote_disable",
            Request::RemoteDisable {
                client: "alice".into(),
                ic: AWKWARD.into(),
            },
        ),
        (
            "status",
            Request::Status {
                client: client(),
                ic: None,
            },
        ),
        (
            "status_ic",
            Request::Status {
                client: client(),
                ic: Some("ic-42".into()),
            },
        ),
        (
            "metrics",
            Request::Metrics {
                client: "ops".into(),
            },
        ),
        (
            "audit",
            Request::Audit {
                client: "ops".into(),
                since: Some(17),
            },
        ),
        (
            "audit_all",
            Request::Audit {
                client: "ops".into(),
                since: None,
            },
        ),
        (
            "history",
            Request::History {
                client: "ops".into(),
                window: Some(64),
            },
        ),
        (
            "traces",
            Request::Traces {
                client: "ops".into(),
                limit: Some(u64::MAX),
            },
        ),
    ]
}

fn metrics_snapshot() -> hwm_metrics::Snapshot {
    static BOUNDS: [u64; 4] = [1, 10, 100, 1000];
    let m = MetricsRegistry::default();
    m.inc("requests_total", &[("op", "unlock"), ("outcome", "key")], 3);
    m.inc(
        "requests_total",
        &[("op", "register"), ("outcome", "registered")],
        40,
    );
    m.set_gauge("registry_size", &[], MetricClass::Det, u64::MAX);
    m.observe(
        "handle_units",
        &[("op", "unlock")],
        MetricClass::Det,
        &BOUNDS,
        7,
    );
    m.observe_exemplar(
        "handle_units",
        &[("op", "unlock")],
        MetricClass::Det,
        &BOUNDS,
        5000,
        0xfeed,
    );
    m.snapshot()
}

fn responses() -> Vec<(&'static str, Response)> {
    let snapshot = metrics_snapshot();
    let mut history = History::new(HistoryConfig::default());
    history.record(4, &snapshot);
    history.record(8, &snapshot);
    let mut audit = AuditLog::new();
    audit.record(
        3,
        "duplicate_readout",
        &[
            ("client", AuditValue::Str(AWKWARD.into())),
            ("ic", AuditValue::Str("ic-2".into())),
        ],
    );
    audit.record(9, "lockout", &[("attempts", AuditValue::U64(5))]);
    let ctx = TraceContext::root(2024, 11, "fab-7", "unlock");
    let mut scope = TraceScope::new(ctx.trace_id, "shard0/leader");
    let root = scope.span(0, "request", 11);
    root.units = 2;
    root.attrs.push(("client".into(), AWKWARD.into()));
    let root_id = root.span_id;
    scope.span(root_id, "handle/unlock", 11).units = 640;
    vec![
        (
            "registered",
            Response::Registered {
                ic: "ic-0".into(),
                total: 1,
            },
        ),
        (
            "key",
            Response::Key {
                ic: "ic-0".into(),
                key: key_symbols(),
            },
        ),
        (
            "disabled",
            Response::Disabled {
                ic: AWKWARD.into(),
                kill: vec![3, 0, 2, 1, 3, 3, 0],
            },
        ),
        (
            "status",
            Response::Status(StatusReport {
                registered: 40_000,
                unlocked: 12,
                disabled: 0,
                duplicates: 1,
                lockouts: 2,
                ic_state: Some("unlocked".into()),
            }),
        ),
        ("metrics", Response::Metrics { snapshot }),
        (
            "audit",
            Response::Audit {
                events: audit.into_events(),
                next: 2,
            },
        ),
        (
            "history",
            Response::History {
                history: history.dump(None),
            },
        ),
        (
            "traces",
            Response::Traces {
                spans: scope.into_spans(),
            },
        ),
        (
            "error_retry",
            Response::Error {
                code: ErrorCode::Throttled,
                message: AWKWARD.into(),
                retry_at: Some(1 << 40),
            },
        ),
        (
            "error",
            Response::Error {
                code: ErrorCode::NoKeyExists,
                message: "no safe exit".into(),
                retry_at: None,
            },
        ),
    ]
}

/// Floats in every spelling the writer produces (integral, fractional,
/// exponent, negative zero, subnormal) and negative integers down to
/// `i64::MIN`. No protocol message carries these, but the writer does.
fn scalars() -> Json {
    Json::obj(vec![
        (
            "floats",
            Json::Arr(
                [
                    0.0,
                    -0.0,
                    2.0,
                    1.5,
                    -3.25,
                    0.1,
                    1e21,
                    1e-7,
                    123_456_789.125,
                    f64::MAX,
                    f64::MIN_POSITIVE,
                    5e-324,
                ]
                .into_iter()
                .map(Json::F64)
                .collect(),
            ),
        ),
        (
            "negatives",
            Json::Arr(
                [-1, -9, -10, -99, -100, i64::MIN + 1, i64::MIN]
                    .into_iter()
                    .map(Json::I64)
                    .collect(),
            ),
        ),
        (
            "unsigned",
            Json::Arr([0, 9, 10, u64::MAX].into_iter().map(Json::U64).collect()),
        ),
        (
            "misc",
            Json::Arr(vec![
                Json::Null,
                Json::Bool(true),
                Json::Bool(false),
                Json::Obj(vec![]),
                Json::Arr(vec![]),
            ]),
        ),
        (AWKWARD, Json::Str(AWKWARD.into())),
    ])
}

fn frame_digest(scratch: &mut FrameScratch, payload: &Json) -> u64 {
    let bytes = encode_frame(scratch, payload).expect("frame fits");
    let mut decoder = FrameDecoder::new();
    decoder.extend(bytes);
    let back = decoder
        .next_frame()
        .expect("decodes")
        .expect("one whole frame");
    assert_eq!(&back, payload, "frame does not parse back to its payload");
    fnv1a(FNV1A_BASIS, bytes)
}

fn frame_digests() -> Vec<(String, u64)> {
    let mut scratch = FrameScratch::new();
    let mut out = Vec::new();
    for (name, req) in requests() {
        let j = req.to_json();
        assert_eq!(Request::from_json(&j).as_ref(), Ok(&req), "{name}");
        out.push((format!("request/{name}"), frame_digest(&mut scratch, &j)));
    }
    let traced = TracedRequest {
        req: Request::Unlock {
            client: "fab-7".into(),
            readout: "0110".into(),
        },
        trace: Some(TraceContext::root(2024, 11, "fab-7", "unlock").child(0xdead_beef)),
    };
    let j = traced.to_json();
    assert_eq!(TracedRequest::from_json(&j).as_ref(), Ok(&traced));
    out.push(("request/traced".into(), frame_digest(&mut scratch, &j)));
    for (name, resp) in responses() {
        let j = resp.to_json();
        assert_eq!(Response::from_json(&j).as_ref(), Ok(&resp), "{name}");
        out.push((format!("response/{name}"), frame_digest(&mut scratch, &j)));
    }
    out.push((
        "payload/scalars".into(),
        frame_digest(&mut scratch, &scalars()),
    ));
    out
}

/// An in-memory registry history touching every journal event kind.
fn journal() -> Vec<u8> {
    let mut r = Registry::in_memory();
    r.register("fab", "ic-0", "0110", 0).unwrap();
    r.register(AWKWARD, "ic-1", "1001", 3).unwrap();
    r.register("fab", AWKWARD, "0110", 0).unwrap_err();
    r.mark_unlocked("ic-0", 640, "fab").unwrap();
    r.mark_disabled("ic-1", AWKWARD).unwrap();
    r.journal_bytes().expect("in-memory journal").to_vec()
}

/// Recorded from the codec before its scalar writer and number parser
/// were rewritten; they must never change without a deliberate
/// wire-format decision.
const FRAME_DIGESTS: &[(&str, u64)] = &[
    ("request/register", 0xc452_3e3d_e62a_9d05),
    ("request/unlock", 0x46dc_3327_38ab_57a6),
    ("request/remote_disable", 0xc5d8_eca8_e77c_e01c),
    ("request/status", 0xb147_4266_c63f_2867),
    ("request/status_ic", 0x6f56_32f0_21e1_961d),
    ("request/metrics", 0x7e54_f3e2_7b24_b704),
    ("request/audit", 0x2f40_5796_ede2_57a1),
    ("request/audit_all", 0x0e0b_ef87_b4f9_c4f4),
    ("request/history", 0x17c0_ef4d_e880_5f6f),
    ("request/traces", 0x3318_efdc_9013_5fbb),
    ("request/traced", 0x43ac_d8c0_1086_471e),
    ("response/registered", 0x1860_67cb_b10a_8dfa),
    ("response/key", 0x2b72_5be9_b210_847f),
    ("response/disabled", 0xeefd_8be6_4e5d_76d4),
    ("response/status", 0x1edd_548a_e308_6660),
    ("response/metrics", 0x7518_8292_b903_d321),
    ("response/audit", 0x1885_4d5f_69f5_874b),
    ("response/history", 0xbc18_c30a_1c2c_9f21),
    ("response/traces", 0x9583_ab2a_d6b9_d123),
    ("response/error_retry", 0x4097_661e_290a_d64c),
    ("response/error", 0x526a_1c39_c314_970b),
    ("payload/scalars", 0x6b92_6782_e5f0_0998),
];

const JOURNAL_DIGEST: u64 = 0xc85a_ced6_ac7d_85e6;

#[test]
fn frame_bytes_are_golden() {
    let actual = frame_digests();
    let table: String = actual
        .iter()
        .map(|(n, d)| format!("    ({n:?}, {d:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = FRAME_DIGESTS
        .iter()
        .map(|&(n, d)| (n.to_string(), d))
        .collect();
    assert_eq!(
        actual, expected,
        "frame digests moved; today's table:\n{table}"
    );
}

#[test]
fn journal_bytes_are_golden() {
    let bytes = journal();
    let text = String::from_utf8(bytes.clone()).expect("journal is UTF-8");
    assert_eq!(text.lines().count(), 5, "{text}");
    for (line, event) in
        text.lines()
            .zip(["register", "register", "duplicate", "unlock", "disable"])
    {
        assert!(
            line.starts_with(&format!("{{\"event\":\"{event}\"")),
            "{line}"
        );
    }
    assert_eq!(
        fnv1a(FNV1A_BASIS, &bytes),
        JOURNAL_DIGEST,
        "{:#018x}\n{text}",
        fnv1a(FNV1A_BASIS, &bytes)
    );
}
