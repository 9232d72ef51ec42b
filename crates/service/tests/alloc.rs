//! Counts heap allocations on the rendering and instrumentation paths.
//! A key reply is 640 integers; once a connection's `FrameScratch` has
//! grown to its largest frame, encoding another must not touch the heap,
//! and neither may `Json::write_compact` into a buffer with room.
//! Decoding builds a `Json` tree and does allocate; it is not counted
//! here. A metric write to a series that already exists allocates
//! nothing either: every request makes several. And a designer issuing
//! keys keeps nothing on the heap but the keys it hands out.

use hwm_fsm::Stg;
use hwm_jsonio::Json;
use hwm_metering::{Designer, Foundry, LockOptions};
use hwm_metrics::{MetricClass, MetricsRegistry, LATENCY_BUCKETS_NS};
use hwm_service::wire::{encode_frame, FrameScratch};
use hwm_service::{ErrorCode, Response};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations, retained_bytes};

#[test]
fn rendering_allocates_nothing_in_steady_state() {
    // A 640-symbol key as the designer sends it, plus a few wide symbols
    // so every digit count is rendered.
    let mut key: Vec<u64> = (0..640).map(|i| i * 7 % 4).collect();
    key[..4].copy_from_slice(&[9, 10, 1 << 40, u64::MAX]);
    let key_reply = Response::Key {
        ic: "fab-0/ic-1234".into(),
        key,
    }
    .to_json();
    let refusal = Response::Error {
        code: ErrorCode::Throttled,
        message: "slow down \"fab\"\n\t\u{1}é€𝄞".into(),
        retry_at: Some(42),
    }
    .to_json();
    let scalars = Json::Arr(vec![
        Json::F64(2.0),
        Json::F64(-0.015),
        Json::F64(1e300),
        Json::I64(i64::MIN),
        Json::I64(-7),
        Json::Null,
        Json::Bool(true),
    ]);

    let mut scratch = FrameScratch::new();
    for payload in [&key_reply, &refusal, &scalars] {
        encode_frame(&mut scratch, payload).expect("warm-up frame");
    }
    for (what, payload) in [
        ("key reply", &key_reply),
        ("refusal", &refusal),
        ("scalars", &scalars),
    ] {
        let n = allocations(|| {
            encode_frame(&mut scratch, payload).expect("frame");
        });
        assert_eq!(n, 0, "encode_frame of a {what} allocated {n} times");

        let mut out = String::with_capacity(64 * 1024);
        let n = allocations(|| payload.write_compact(&mut out));
        assert_eq!(n, 0, "write_compact of a {what} allocated {n} times");
        assert_eq!(out, payload.to_string());
    }
}

#[test]
fn warm_metric_writes_allocate_nothing() {
    const UNITS: &[u64] = &[1, 2, 4, 8];
    let m = MetricsRegistry::default();
    // A label value that is not `'static`, as a client name would be.
    let op = String::from("unlock");
    let labels = [("op", op.as_str()), ("outcome", "key")];
    let other = [("op", "register"), ("outcome", "ok")];
    // First writes insert the series and may allocate; a second label
    // set per family makes the warm lookup pass over a non-match.
    for labels in [&other, &labels] {
        m.inc("requests_total", labels, 1);
        m.observe("handler_ns", labels, MetricClass::Timing, LATENCY_BUCKETS_NS, 1_500);
        m.observe_exemplar("units", labels, MetricClass::Det, UNITS, 3, 0xabc);
        m.set_gauge("depth", labels, MetricClass::Det, 1);
    }
    for (what, n) in [
        ("inc", allocations(|| m.inc("requests_total", &labels, 2))),
        (
            "observe",
            allocations(|| {
                m.observe("handler_ns", &labels, MetricClass::Timing, LATENCY_BUCKETS_NS, 9_000)
            }),
        ),
        (
            "observe_exemplar",
            allocations(|| m.observe_exemplar("units", &labels, MetricClass::Det, UNITS, 5, 0xdef)),
        ),
        ("set_gauge", allocations(|| m.set_gauge("depth", &labels, MetricClass::Det, 7))),
    ] {
        assert_eq!(n, 0, "a warm {what} allocated {n} times");
    }
    // The warm writes landed on the existing series, not on new ones.
    let s = m.snapshot();
    assert_eq!(s.counter("requests_total", &labels), Some(3));
    assert_eq!(s.counter("requests_total", &other), Some(1));
    assert_eq!(s.histogram("handler_ns", &labels).map(|h| h.count), Some(2));
    let units = s.histogram("units", &labels).expect("units histogram");
    assert_eq!((units.count, units.exemplars[3]), (2, Some(0xdef)));
    assert_eq!(s.gauge("depth", &labels), Some(7));
    assert_eq!(s.gauge("depth", &other), Some(1));
}

#[test]
fn issuing_keys_retains_only_the_keys() {
    const DIES: usize = 64;
    let options = LockOptions {
        group_bits: 2,
        ..LockOptions::default()
    };
    let mut designer = Designer::new(Stg::ring_counter(6, 2), options, 31).expect("lock");
    let mut foundry = Foundry::new(designer.blueprint().clone(), 32);
    let readouts: Vec<_> = (0..DIES)
        .map(|_| foundry.fabricate_one().scan_flip_flops())
        .collect();
    // Warm-up: every group these dies fall in builds its key table.
    for readout in &readouts {
        designer.issue_key(readout).expect("warm-up key");
    }
    let mut keys = Vec::with_capacity(DIES);
    let retained = retained_bytes(|| {
        for readout in &readouts {
            keys.push(designer.issue_key(readout).expect("key"));
        }
    });
    let key_bytes: usize = keys
        .iter()
        .map(|k| k.values.capacity() * std::mem::size_of::<u64>())
        .sum();
    assert_eq!(retained, key_bytes as i64, "{DIES} keys retained beyond themselves");
    assert_eq!(designer.activations(), 2 * DIES);
}
