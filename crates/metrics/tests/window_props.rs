//! Property-based tests of the time-series window math and the alert
//! engine's hysteresis, against small reference models:
//!
//! * the ring buffer never loses samples until capacity forces it, and
//!   what it retains is exactly the newest-`capacity` suffix;
//! * the windowed rate of a counter growing at a constant per-tick rate
//!   is that rate exactly (integer math, no drift), for any window
//!   placement;
//! * threshold fire/resolve transitions follow the hysteresis contract
//!   for arbitrary value sequences — fire at `>= fire_at`, resolve
//!   below `resolve_at`, hold in between, never two of the same
//!   transition in a row.

use hwm_metrics::{
    AlertEngine, AlertRule, AlertRuleSet, History, HistoryConfig, MetricClass, MetricsRegistry,
    RuleKind, SeriesSelector, WindowStat,
};
use proptest::prelude::*;

/// Drives a registry counter through `deltas` (one entry per stride
/// tick) and returns the history alongside the reference samples.
fn sampled(deltas: &[u64], stride: u64, capacity: usize) -> (History, Vec<(u64, u64)>) {
    let registry = MetricsRegistry::default();
    let mut history = History::new(HistoryConfig { stride, capacity });
    let mut reference = Vec::new();
    let mut total = 0;
    for (i, delta) in deltas.iter().enumerate() {
        let tick = (i as u64 + 1) * stride;
        registry.inc("c", &[], *delta);
        total += delta;
        assert!(history.should_sample(tick));
        history.sample_registry(tick, &registry);
        reference.push((tick, total));
    }
    (history, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ring wraparound is lossless up to capacity: the retained samples
    /// are exactly the newest-`capacity` suffix of everything recorded,
    /// in order.
    #[test]
    fn ring_retains_the_newest_suffix(
        deltas in prop::collection::vec(0u64..50, 1..64),
        stride in 1u64..8,
        capacity in 1usize..32,
    ) {
        let (history, reference) = sampled(&deltas, stride, capacity);
        let series = history.get("c", &[]).expect("counter was sampled");
        let skip = reference.len().saturating_sub(capacity);
        let expected: Vec<(u64, u64)> = reference[skip..].to_vec();
        let got: Vec<(u64, u64)> = series.samples().map(|s| (s.tick, s.value)).collect();
        prop_assert_eq!(got, expected);
        prop_assert!(series.len() <= capacity);
    }

    /// A counter growing by `rate` every tick has windowed
    /// `rate_per_1k == rate * 1000` exactly, wherever the window lands
    /// (as long as it is covered by retained history).
    #[test]
    fn constant_counter_has_constant_rate(
        rate in 0u64..100,
        stride in 1u64..8,
        ticks in 8usize..48,
        window_strides in 1u64..8,
        at in 0usize..40,
    ) {
        // Per-stride delta of a counter growing `rate` per tick.
        let deltas = vec![rate * stride; ticks];
        let (history, reference) = sampled(&deltas, stride, usize::MAX >> 1);
        let series = history.get("c", &[]).expect("counter was sampled");
        let window = window_strides * stride;
        // Any sampled tick with a full window behind it.
        let (now, _) = reference[at.min(reference.len() - 1)];
        let stats = series.stats(now, window).expect("sampled at or before now");
        if stats.covered {
            prop_assert_eq!(stats.rate_per_1k(), rate * 1000);
            prop_assert_eq!(stats.delta, rate * stats.spanned);
        } else {
            // Not yet covered: the partial-window rate still never
            // overshoots the true rate.
            prop_assert!(stats.rate_per_1k() <= rate * 1000);
        }
    }

    /// Threshold hysteresis against a reference state machine, for
    /// arbitrary per-stride deltas: transitions alternate, fire only at
    /// `value >= fire_at`, resolve only at `value < resolve_at`, and the
    /// engine's final state matches the model's.
    #[test]
    fn threshold_transitions_are_hysteresis_correct(
        deltas in prop::collection::vec(0u64..40, 4..48),
        fire_at in 20u64..2000,
        band in 0u64..500,
    ) {
        let resolve_at = fire_at - band.min(fire_at);
        let stride = 4;
        let window = 16;
        let rules = AlertRuleSet::new(vec![AlertRule {
            name: "t".into(),
            kind: RuleKind::Threshold {
                series: SeriesSelector::bare("c"),
                stat: WindowStat::RatePer1k,
                window,
                fire_at,
                resolve_at,
            },
        }]).expect("valid rule");
        let mut engine = AlertEngine::new(rules);

        let registry = MetricsRegistry::default();
        let mut history = History::new(HistoryConfig { stride, capacity: 256 });
        let mut model_firing = false;
        let mut transitions = Vec::new();
        for (i, delta) in deltas.iter().enumerate() {
            let tick = (i as u64 + 1) * stride;
            registry.inc("c", &[], *delta);
            history.sample_registry(tick, &registry);
            let got = engine.evaluate(tick, &history);

            // Reference model: recompute the windowed value from the
            // history and apply the hysteresis contract directly.
            let value = history
                .get("c", &[])
                .and_then(|s| s.stats(tick, window))
                .filter(|st| st.covered)
                .map(|st| st.rate_per_1k());
            let expected = match value {
                Some(v) if !model_firing && v >= fire_at => {
                    model_firing = true;
                    vec![("firing", v)]
                }
                Some(v) if model_firing && v < resolve_at => {
                    model_firing = false;
                    vec![("resolved", v)]
                }
                _ => vec![],
            };
            let got_pairs: Vec<(&str, u64)> =
                got.iter().map(|t| (t.state.as_str(), t.value)).collect();
            prop_assert_eq!(got_pairs, expected, "tick {}", tick);
            transitions.extend(got);
        }
        // Transitions alternate fire/resolve, starting with a fire.
        for pair in transitions.windows(2) {
            prop_assert_ne!(pair[0].state, pair[1].state);
        }
        if let Some(first) = transitions.first() {
            prop_assert_eq!(first.state.as_str(), "firing");
        }
    }

    /// EWMA stays within the range of its inputs and converges to a
    /// constant series' value.
    #[test]
    fn ewma_is_bounded_and_converges(
        value in 1u64..1000,
        alpha_milli in 1u64..=1000,
        ticks in 4usize..40,
    ) {
        let registry = MetricsRegistry::default();
        let mut history = History::new(HistoryConfig { stride: 1, capacity: 256 });
        for i in 0..ticks {
            let tick = i as u64 + 1;
            registry.set_gauge("g", &[], MetricClass::Det, value);
            history.sample_registry(tick, &registry);
        }
        let series = history.get("g", &[]).expect("gauge was sampled");
        let ewma = series
            .ewma_milli(ticks as u64, ticks as u64, alpha_milli)
            .expect("samples exist");
        // A constant series' EWMA is the constant (in per-mille).
        prop_assert_eq!(ewma, value * 1000);
    }

    /// Burn-rate math: bad/total windows with a known mix report the
    /// exact integer burn, and a zero-error window reports zero burn.
    #[test]
    fn burn_rate_matches_the_closed_form(
        bad_per in 0u64..5,
        good_per in 1u64..20,
        slo_milli in 1u64..999,
    ) {
        let registry = MetricsRegistry::default();
        let mut history = History::new(HistoryConfig { stride: 1, capacity: 256 });
        let window = 16u64;
        for i in 0..2 * window {
            let tick = i + 1;
            registry.inc("bad", &[], bad_per);
            registry.inc("total", &[], bad_per + good_per);
            history.sample_registry(tick, &registry);
        }
        let rules = AlertRuleSet::new(vec![AlertRule {
            name: "b".into(),
            kind: RuleKind::BurnRate {
                bad: SeriesSelector::bare("bad"),
                total: SeriesSelector::bare("total"),
                window,
                slo_milli,
                fire_burn_milli: u64::MAX,
                resolve_burn_milli: 0,
            },
        }]).expect("valid rule");
        let engine = AlertEngine::new(rules);
        let now = 2 * window;
        let status = engine.statuses(now, &history).remove(0);
        let value = status.value.expect("window covered");
        let ratio_milli = (bad_per * window * 1000) / ((bad_per + good_per) * window);
        let expected = ratio_milli * 1000 / (1000 - slo_milli);
        prop_assert_eq!(value, expected);
        if bad_per == 0 {
            prop_assert_eq!(value, 0);
        }
    }
}
