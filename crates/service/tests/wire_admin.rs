//! Property tests for the admin-plane wire frames (`Metrics`/`Audit`):
//! round trips are lossless for arbitrary contents — label values with
//! escapes, histogram shapes, audit fields — and the strict parser
//! rejects tampering, in the same contract style as the lock-database
//! codec tests. A fleet monitor and the server it polls may be different
//! builds; the frames must fail loudly on any drift, never guess.

use hwm_jsonio::Json;
use hwm_metrics::audit::{AuditEvent, AuditValue};
use hwm_metrics::{History, HistoryConfig, HistoryDump, MetricClass, MetricsRegistry, Snapshot};
use hwm_service::{Request, Response};
use proptest::prelude::*;

/// Names and label strings that stress escaping and sorting without
/// leaving what the registry accepts (the stub has no string_regex, so
/// strings are built from sampled character sets).
fn arb_label() -> impl Strategy<Value = String> {
    let charset: Vec<char> = "abcz019_./\"\\ -".chars().collect();
    prop::collection::vec(prop::sample::select(charset), 1..12)
        .prop_map(|cs| cs.into_iter().collect())
}

fn arb_metric_name() -> impl Strategy<Value = String> {
    let charset: Vec<char> = "abcxyz012_".chars().collect();
    prop::collection::vec(prop::sample::select(charset), 0..15)
        .prop_map(|cs| format!("m{}", cs.into_iter().collect::<String>()))
}

/// An arbitrary registry drive: counters, gauges and one histogram
/// family, snapshotted. Family names are compile-time constants (the
/// registry takes `&'static str` on purpose), so the arbitrariness lives
/// in the label values, counts and histogram shapes. Building through
/// the real registry (rather than hand-assembling a `Snapshot`) keeps
/// the test honest about what can actually appear on the wire.
fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    let counter_names: Vec<&'static str> = vec!["c_requests", "c_events", "c_errors"];
    let gauge_names: Vec<&'static str> = vec!["g_fleet", "g_ticks"];
    (
        prop::collection::vec(
            (prop::sample::select(counter_names), arb_label(), 0u64..1000),
            0..8,
        ),
        prop::collection::vec(
            (prop::sample::select(gauge_names), any::<bool>(), 0u64..u64::MAX),
            0..6,
        ),
        prop::collection::vec(0u64..3_000_000, 0..12),
    )
        .prop_map(|(counters, gauges, observations)| {
            let registry = MetricsRegistry::default();
            for (name, label, delta) in counters {
                registry.inc(name, &[("label", &label)], delta);
            }
            for (name, timing, value) in gauges {
                let class = if timing { MetricClass::Timing } else { MetricClass::Det };
                registry.set_gauge(name, &[], class, value);
            }
            for value in observations {
                registry.observe(
                    "h_latency",
                    &[],
                    MetricClass::Timing,
                    hwm_metrics::LATENCY_BUCKETS_NS,
                    value,
                );
            }
            registry.snapshot()
        })
}

/// An arbitrary sampled history: a driven registry sampled at
/// increasing ticks through the real `History` ring (so capacity
/// eviction and tick dedup behave as in the server).
fn arb_history_dump() -> impl Strategy<Value = HistoryDump> {
    (
        1u64..8,
        1usize..16,
        prop::collection::vec((1u64..5, 0u64..100, arb_label()), 0..12),
    )
        .prop_map(|(stride, capacity, steps)| {
            let registry = MetricsRegistry::default();
            let mut history = History::new(HistoryConfig { stride, capacity });
            let mut tick = 0;
            for (gap, delta, label) in steps {
                tick += gap * stride;
                registry.inc("c_requests", &[("label", &label)], delta);
                registry.set_gauge("g_fleet", &[], MetricClass::Det, delta);
                history.sample_registry(tick, &registry);
            }
            history.dump(None)
        })
}

fn arb_audit_value() -> impl Strategy<Value = AuditValue> {
    prop_oneof![
        arb_label().prop_map(AuditValue::Str),
        any::<u64>().prop_map(AuditValue::U64),
    ]
}

fn arb_audit_events() -> impl Strategy<Value = Vec<AuditEvent>> {
    prop::collection::vec(
        (
            any::<u64>(),
            arb_metric_name(),
            prop::collection::vec((arb_metric_name(), arb_audit_value()), 0..4),
        ),
        0..5,
    )
    .prop_map(|items| {
        items
            .into_iter()
            .enumerate()
            .map(|(i, (tick, kind, mut fields))| {
                // The codec rejects duplicate keys (and the reserved
                // header names) — generate what a real log contains.
                fields.sort_by(|a, b| a.0.cmp(&b.0));
                fields.dedup_by(|a, b| a.0 == b.0);
                fields.retain(|(k, _)| {
                    !matches!(k.as_str(), "schema" | "seq" | "tick" | "kind")
                });
                AuditEvent { seq: i as u64, tick, kind, fields }
            })
            .collect()
    })
}

/// Round trip through the textual frame payload, exactly as the TCP
/// transport does it.
fn reparse(j: &Json) -> Json {
    Json::parse(&j.to_string()).expect("frame text reparses")
}

proptest! {
    #[test]
    fn admin_requests_roundtrip(
        client in arb_label(),
        // (flag, value) maps to Option: the stub has no option::of.
        since in (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v)),
    ) {
        for req in [
            Request::Metrics { client: client.clone() },
            Request::Audit { client: client.clone(), since },
            Request::History { client: client.clone(), window: since },
        ] {
            let back = Request::from_json(&reparse(&req.to_json())).unwrap();
            prop_assert_eq!(back, req);
        }
    }

    #[test]
    fn metrics_responses_roundtrip(snapshot in arb_snapshot()) {
        let resp = Response::Metrics { snapshot };
        let back = Response::from_json(&reparse(&resp.to_json())).unwrap();
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn audit_responses_roundtrip(events in arb_audit_events(), next in any::<u64>()) {
        let resp = Response::Audit { events, next };
        let back = Response::from_json(&reparse(&resp.to_json())).unwrap();
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn history_responses_roundtrip(history in arb_history_dump()) {
        let resp = Response::History { history };
        let back = Response::from_json(&reparse(&resp.to_json())).unwrap();
        prop_assert_eq!(back, resp);
    }

    /// Reordering a history's samples breaks the strictly-increasing
    /// tick invariant and fails the parse.
    #[test]
    fn history_responses_reject_disordered_samples(a in 1u64..1000, b in 1001u64..2000) {
        let text = format!(
            "{{\"type\":\"history\",\"history\":{{\"schema\":1,\"stride\":4,\"capacity\":8,\
             \"series\":[{{\"name\":\"c\",\"labels\":[],\"kind\":\"counter\",\
             \"samples\":[[{b},1],[{a},2]]}}]}}}}"
        );
        let j = Json::parse(&text).unwrap();
        prop_assert!(Response::from_json(&j).is_err());
    }

    /// Injecting an unknown field anywhere in an admin frame fails the
    /// parse — the strict contract that catches version skew.
    #[test]
    fn admin_frames_reject_unknown_fields(client in arb_label(), snapshot in arb_snapshot()) {
        let frames = [
            Request::Metrics { client: client.clone() }.to_json(),
            Request::Audit { client: client.clone(), since: Some(7) }.to_json(),
            Request::History { client, window: Some(64) }.to_json(),
            Response::Metrics { snapshot }.to_json(),
            Response::Audit { events: Vec::new(), next: 0 }.to_json(),
            Response::History { history: HistoryDump::default() }.to_json(),
        ];
        for (i, frame) in frames.into_iter().enumerate() {
            let mut fields = match frame {
                Json::Obj(fields) => fields,
                _ => unreachable!("frames are objects"),
            };
            fields.push(("smuggled".into(), Json::U64(1)));
            let tampered = Json::Obj(fields);
            let rejected = if i < 3 {
                Request::from_json(&tampered).is_err()
            } else {
                Response::from_json(&tampered).is_err()
            };
            prop_assert!(rejected, "frame {i} accepted an unknown field");
        }
    }

    /// Wrong-type `since` (string instead of integer) fails loudly.
    #[test]
    fn audit_requests_reject_wrong_since_type(client in arb_label(), s in arb_label()) {
        let tampered = Json::obj(vec![
            ("type", Json::Str("audit".into())),
            ("client", Json::Str(client)),
            ("since", Json::Str(s)),
        ]);
        prop_assert!(Request::from_json(&tampered).is_err());
    }

    /// Tampering with a snapshot's internal consistency (histogram count
    /// not matching its buckets) fails the response parse.
    #[test]
    fn metrics_responses_reject_inconsistent_histograms(bump in 1u64..100) {
        let registry = MetricsRegistry::default();
        registry.observe("h", &[], MetricClass::Timing, hwm_metrics::LATENCY_BUCKETS_NS, 42);
        let resp = Response::Metrics { snapshot: registry.snapshot() };
        let text = resp.to_json().to_string();
        let tampered = text.replacen("\"count\":1", &format!("\"count\":{}", 1 + bump), 1);
        prop_assert!(tampered != text, "tamper target must exist in {text}");
        let j = Json::parse(&tampered).unwrap();
        prop_assert!(Response::from_json(&j).is_err());
    }
}
