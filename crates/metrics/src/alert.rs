//! Declarative alert rules over the sampled history: threshold,
//! SLO-burn-rate and absence rules with hysteresis.
//!
//! A rule watches one series (or a whole family summed) of the
//! [`crate::History`] and flips between *resolved* and *firing*:
//!
//! * **threshold** — a windowed statistic (rate per 1k ticks, delta,
//!   sliding max, last value, EWMA) crosses `fire_at`; it resolves only
//!   once the statistic drops below `resolve_at` (`resolve_at <=
//!   fire_at`, the hysteresis band holds state in between);
//! * **burn_rate** — the error ratio `bad / total` over the window,
//!   normalized against the SLO's error budget in per-mille fixed
//!   point: `burn_milli = (bad·10⁶) / (total · (1000 − slo_milli))`.
//!   A burn of 1000 means errors are consuming the budget exactly at
//!   the allowed rate; 2000 means twice as fast;
//! * **absence** — the series stopped moving: fires when a fully
//!   covered window shows zero delta, resolves on the next increase.
//!
//! Rules only evaluate once their window is fully backed by retained
//! samples ([`crate::WindowStats::covered`]) — the deterministic
//! warm-up guard that stops every rule from firing at tick 0 before
//! history exists. Evaluation is integer arithmetic over det-class
//! samples on the logical clock, so the transition stream is
//! byte-identical for any `--jobs`.

use crate::snapshot::labels_from_json;
use crate::timeseries::{History, WindowStats};
use crate::{AuditEvent, AuditValue};
use hwm_jsonio::{FieldError, Json, StrictObj};

/// Wire schema version for [`AlertRuleSet`] JSON.
pub const RULES_SCHEMA_VERSION: u64 = 1;

/// Audit event kind recorded when a rule starts firing.
const ALERT_FIRE_KIND: &str = "alert_fire";
/// Audit event kind recorded when a firing rule resolves.
const ALERT_RESOLVE_KIND: &str = "alert_resolve";

/// A malformed rule set (parse or validation failure).
pub type AlertError = FieldError;

/// What a rule watches: one exact series, or a whole family summed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSelector {
    /// Metric name.
    pub name: String,
    /// `Some(labels)` selects the one series with exactly these sorted
    /// labels; `None` sums deltas across every series of the family.
    pub labels: Option<Vec<(String, String)>>,
}

impl SeriesSelector {
    /// Selects the single unlabelled series of `name`.
    pub fn bare(name: &str) -> SeriesSelector {
        SeriesSelector {
            name: name.into(),
            labels: Some(Vec::new()),
        }
    }

    /// Selects the series of `name` with exactly `labels` (sorted).
    pub fn labelled(name: &str, labels: &[(&str, &str)]) -> SeriesSelector {
        SeriesSelector {
            name: name.into(),
            labels: Some(labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()),
        }
    }

    /// Selects the whole family of `name`, summed.
    pub fn family(name: &str) -> SeriesSelector {
        SeriesSelector {
            name: name.into(),
            labels: None,
        }
    }

    fn stats(&self, history: &History, now: u64, window: u64) -> Option<WindowStats> {
        match &self.labels {
            Some(labels) => {
                let refs: Vec<(&str, &str)> =
                    labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                history.get(&self.name, &refs)?.stats(now, window)
            }
            None => history.family_stats(&self.name, now, window),
        }
    }
}

/// The windowed statistic a threshold rule compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowStat {
    /// Window delta per 1000 ticks ([`WindowStats::rate_per_1k`]).
    RatePer1k,
    /// Raw window delta.
    Delta,
    /// Sliding max of sampled values in the window.
    Max,
    /// Newest sampled value.
    Last,
    /// Per-mille EWMA of in-window samples (value is `1000 ×` the
    /// average); requires an exact-series selector.
    Ewma {
        /// Weight of the newest sample, 0..=1000.
        alpha_milli: u64,
    },
}

impl WindowStat {
    fn as_str(&self) -> &'static str {
        match self {
            WindowStat::RatePer1k => "rate_per_1k",
            WindowStat::Delta => "delta",
            WindowStat::Max => "max",
            WindowStat::Last => "last",
            WindowStat::Ewma { .. } => "ewma",
        }
    }
}

/// The rule body: what to watch and when to fire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleKind {
    /// Fire when `stat` over `window` reaches `fire_at`; resolve below
    /// `resolve_at`.
    Threshold {
        /// The watched series.
        series: SeriesSelector,
        /// The compared statistic.
        stat: WindowStat,
        /// Window in ticks.
        window: u64,
        /// Fire when the statistic is `>=` this.
        fire_at: u64,
        /// Resolve when the statistic is `<` this (`<= fire_at`).
        resolve_at: u64,
    },
    /// Fire when the windowed error-budget burn reaches
    /// `fire_burn_milli`.
    BurnRate {
        /// Numerator: the error counter.
        bad: SeriesSelector,
        /// Denominator: the total counter.
        total: SeriesSelector,
        /// Window in ticks.
        window: u64,
        /// The SLO in per-mille (e.g. 900 = 90% success objective,
        /// leaving a 10% error budget). Must be below 1000.
        slo_milli: u64,
        /// Fire when the burn is `>=` this (1000 = consuming the
        /// budget exactly at the allowed rate).
        fire_burn_milli: u64,
        /// Resolve when the burn is `<` this (`<= fire_burn_milli`).
        resolve_burn_milli: u64,
    },
    /// Fire when a fully covered window shows zero delta.
    Absence {
        /// The watched series.
        series: SeriesSelector,
        /// Window in ticks.
        window: u64,
    },
}

/// One named alert rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertRule {
    /// Unique rule name (the `rule` label on `service_alerts_total`).
    pub name: String,
    /// The rule body.
    pub kind: RuleKind,
}

impl AlertRule {
    /// The fire threshold the rule compares against (0 for absence).
    pub fn fire_threshold(&self) -> u64 {
        match &self.kind {
            RuleKind::Threshold { fire_at, .. } => *fire_at,
            RuleKind::BurnRate { fire_burn_milli, .. } => *fire_burn_milli,
            RuleKind::Absence { .. } => 0,
        }
    }

    /// The window the rule evaluates over, in ticks.
    pub fn window(&self) -> u64 {
        match &self.kind {
            RuleKind::Threshold { window, .. }
            | RuleKind::BurnRate { window, .. }
            | RuleKind::Absence { window, .. } => *window,
        }
    }
}

/// An ordered set of alert rules with a strict JSON codec.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AlertRuleSet {
    /// The rules, evaluated in order.
    pub rules: Vec<AlertRule>,
}

impl AlertRuleSet {
    /// Validates and wraps a rule list.
    ///
    /// # Errors
    ///
    /// Rejects duplicate rule names, zero windows, inverted hysteresis
    /// bands (`resolve > fire`), SLOs without an error budget
    /// (`slo_milli >= 1000`) and EWMA stats on family-sum selectors.
    pub fn new(rules: Vec<AlertRule>) -> Result<AlertRuleSet, AlertError> {
        for (i, r) in rules.iter().enumerate() {
            if rules[..i].iter().any(|p| p.name == r.name) {
                return Err(AlertError::new(format!("duplicate rule name {:?}", r.name)));
            }
            if r.window() == 0 {
                return Err(AlertError::new(format!("rule {:?} has a zero window", r.name)));
            }
            match &r.kind {
                RuleKind::Threshold { stat, fire_at, resolve_at, series, .. } => {
                    if resolve_at > fire_at {
                        return Err(AlertError::new(format!(
                            "rule {:?}: resolve_at {resolve_at} exceeds fire_at {fire_at}",
                            r.name
                        )));
                    }
                    if matches!(stat, WindowStat::Ewma { .. }) && series.labels.is_none() {
                        return Err(AlertError::new(format!(
                            "rule {:?}: ewma requires an exact-series selector",
                            r.name
                        )));
                    }
                    if let WindowStat::Ewma { alpha_milli } = stat {
                        if *alpha_milli > 1000 {
                            return Err(AlertError::new(format!(
                                "rule {:?}: alpha_milli {alpha_milli} exceeds 1000",
                                r.name
                            )));
                        }
                    }
                }
                RuleKind::BurnRate { slo_milli, fire_burn_milli, resolve_burn_milli, .. } => {
                    if *slo_milli >= 1000 {
                        return Err(AlertError::new(format!(
                            "rule {:?}: slo_milli {slo_milli} leaves no error budget",
                            r.name
                        )));
                    }
                    if resolve_burn_milli > fire_burn_milli {
                        return Err(AlertError::new(format!(
                            "rule {:?}: resolve burn exceeds fire burn",
                            r.name
                        )));
                    }
                }
                RuleKind::Absence { .. } => {}
            }
        }
        Ok(AlertRuleSet { rules })
    }

    /// Serializes the set to its strict JSON wire form (schema v1).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::U64(RULES_SCHEMA_VERSION)),
            ("rules", Json::Arr(self.rules.iter().map(rule_to_json).collect())),
        ])
    }

    /// Parses the strict JSON wire form back, then re-validates.
    ///
    /// # Errors
    ///
    /// Returns an [`AlertError`] naming the offending field or rule.
    pub fn from_json(j: &Json) -> Result<AlertRuleSet, AlertError> {
        let mut f = StrictObj::new(j, "rule set")?;
        let schema: u64 = f.uint("schema")?;
        if schema != RULES_SCHEMA_VERSION {
            return Err(AlertError::new(format!(
                "unsupported rules schema {schema} (expected {RULES_SCHEMA_VERSION})"
            )));
        }
        let rules = f
            .arr("rules")?
            .iter()
            .map(rule_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        f.finish()?;
        AlertRuleSet::new(rules)
    }
}

fn selector_fields(prefix: &str, sel: &SeriesSelector) -> Vec<(String, Json)> {
    let (name_key, labels_key) = if prefix.is_empty() {
        ("series".to_string(), "labels".to_string())
    } else {
        (prefix.to_string(), format!("{prefix}_labels"))
    };
    let mut out = vec![(name_key, Json::Str(sel.name.clone()))];
    if let Some(labels) = &sel.labels {
        out.push((
            labels_key,
            Json::Arr(
                labels
                    .iter()
                    .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), Json::Str(v.clone())]))
                    .collect(),
            ),
        ));
    }
    out
}

fn rule_to_json(r: &AlertRule) -> Json {
    let mut fields: Vec<(String, Json)> = vec![("name".into(), Json::Str(r.name.clone()))];
    match &r.kind {
        RuleKind::Threshold { series, stat, window, fire_at, resolve_at } => {
            fields.push(("kind".into(), Json::Str("threshold".into())));
            fields.extend(selector_fields("", series));
            fields.push(("stat".into(), Json::Str(stat.as_str().into())));
            if let WindowStat::Ewma { alpha_milli } = stat {
                fields.push(("alpha_milli".into(), Json::U64(*alpha_milli)));
            }
            fields.push(("window".into(), Json::U64(*window)));
            fields.push(("fire_at".into(), Json::U64(*fire_at)));
            fields.push(("resolve_at".into(), Json::U64(*resolve_at)));
        }
        RuleKind::BurnRate { bad, total, window, slo_milli, fire_burn_milli, resolve_burn_milli } => {
            fields.push(("kind".into(), Json::Str("burn_rate".into())));
            fields.extend(selector_fields("bad", bad));
            fields.extend(selector_fields("total", total));
            fields.push(("window".into(), Json::U64(*window)));
            fields.push(("slo_milli".into(), Json::U64(*slo_milli)));
            fields.push(("fire_burn_milli".into(), Json::U64(*fire_burn_milli)));
            fields.push(("resolve_burn_milli".into(), Json::U64(*resolve_burn_milli)));
        }
        RuleKind::Absence { series, window } => {
            fields.push(("kind".into(), Json::Str("absence".into())));
            fields.extend(selector_fields("", series));
            fields.push(("window".into(), Json::U64(*window)));
        }
    }
    Json::Obj(fields)
}

/// Reads a selector written by [`selector_fields`]: the metric name
/// under `name_key` and the optional exact label set under
/// `labels_key`.
fn selector_from_json(
    f: &mut StrictObj<'_>,
    name_key: &str,
    labels_key: &str,
) -> Result<SeriesSelector, AlertError> {
    Ok(SeriesSelector {
        name: f.string(name_key)?,
        labels: f.opt(labels_key)?.map(labels_from_json).transpose()?,
    })
}

/// Decodes one rule; fields that do not belong to its kind (or, for
/// `alpha_milli`, to its stat) are unknown fields.
fn rule_from_json(j: &Json) -> Result<AlertRule, AlertError> {
    let mut f = StrictObj::new(j, "rule")?;
    let name = f.string("name")?;
    let kind = match f.string("kind")?.as_str() {
        "threshold" => {
            let series = selector_from_json(&mut f, "series", "labels")?;
            let stat = match f.string("stat")?.as_str() {
                "rate_per_1k" => WindowStat::RatePer1k,
                "delta" => WindowStat::Delta,
                "max" => WindowStat::Max,
                "last" => WindowStat::Last,
                "ewma" => WindowStat::Ewma {
                    alpha_milli: f.uint("alpha_milli")?,
                },
                other => {
                    return Err(AlertError::new(format!("rule {name:?} has unknown stat {other:?}")))
                }
            };
            RuleKind::Threshold {
                series,
                stat,
                window: f.uint("window")?,
                fire_at: f.uint("fire_at")?,
                resolve_at: f.uint("resolve_at")?,
            }
        }
        "burn_rate" => RuleKind::BurnRate {
            bad: selector_from_json(&mut f, "bad", "bad_labels")?,
            total: selector_from_json(&mut f, "total", "total_labels")?,
            window: f.uint("window")?,
            slo_milli: f.uint("slo_milli")?,
            fire_burn_milli: f.uint("fire_burn_milli")?,
            resolve_burn_milli: f.uint("resolve_burn_milli")?,
        },
        "absence" => RuleKind::Absence {
            series: selector_from_json(&mut f, "series", "labels")?,
            window: f.uint("window")?,
        },
        other => return Err(AlertError::new(format!("rule {name:?} has unknown kind {other:?}"))),
    };
    f.finish()?;
    Ok(AlertRule { name, kind })
}

/// The direction of an alert transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// The rule just started firing.
    Firing,
    /// The rule just resolved.
    Resolved,
}

impl AlertState {
    /// The `state` label value on `service_alerts_total`.
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }

    /// The audit event kind this transition records.
    pub fn audit_kind(&self) -> &'static str {
        match self {
            AlertState::Firing => ALERT_FIRE_KIND,
            AlertState::Resolved => ALERT_RESOLVE_KIND,
        }
    }
}

/// One state change emitted by [`AlertEngine::evaluate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertTransition {
    /// Rule name.
    pub rule: String,
    /// Fired or resolved.
    pub state: AlertState,
    /// Logical tick of the evaluation.
    pub tick: u64,
    /// The statistic's value at the transition.
    pub value: u64,
    /// The fire threshold the rule compares against.
    pub threshold: u64,
}

impl AlertTransition {
    /// The audit detail fields a transition records, in line order:
    /// `rule`, `value`, `threshold`. The event kind is
    /// [`AlertState::audit_kind`] and the tick is the event's own.
    pub fn audit_fields(&self) -> [(&'static str, AuditValue); 3] {
        [
            ("rule", AuditValue::Str(self.rule.clone())),
            ("value", AuditValue::U64(self.value)),
            ("threshold", AuditValue::U64(self.threshold)),
        ]
    }

    /// Decodes an audit event recorded from [`AlertTransition::audit_fields`]:
    /// `None` for any other kind, and for an alert event missing its
    /// `rule`, `value` or `threshold`. This is the alert timeline's one
    /// read path — a resumed server's restore fold, the `--alerts-out`
    /// filter, the monitor's ALERTS panel and the alert simulation all
    /// go through it.
    pub fn from_audit(e: &AuditEvent) -> Option<AlertTransition> {
        let state = match e.kind.as_str() {
            ALERT_FIRE_KIND => AlertState::Firing,
            ALERT_RESOLVE_KIND => AlertState::Resolved,
            _ => return None,
        };
        Some(AlertTransition {
            rule: e.str_field("rule")?.to_string(),
            state,
            tick: e.tick,
            value: e.u64_field("value")?,
            threshold: e.u64_field("threshold")?,
        })
    }
}

/// The current standing of one rule, for dashboards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleStatus {
    /// Rule name.
    pub rule: String,
    /// True while the rule is firing.
    pub firing: bool,
    /// Tick the current firing started at (when firing).
    pub since: Option<u64>,
    /// The statistic's current value (`None` before warm-up).
    pub value: Option<u64>,
    /// The fire threshold.
    pub threshold: u64,
}

/// Evaluates a rule set against a [`History`], tracking firing state
/// with hysteresis. The engine holds no clock of its own: callers pass
/// the logical tick, and identical `(tick, history)` sequences produce
/// identical transition streams.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    set: AlertRuleSet,
    /// Per-rule: the tick the current firing started at, `None` when
    /// resolved.
    firing: Vec<Option<u64>>,
}

impl AlertEngine {
    /// An engine with every rule initially resolved.
    pub fn new(set: AlertRuleSet) -> AlertEngine {
        let firing = vec![None; set.rules.len()];
        AlertEngine { set, firing }
    }

    /// The rule set under evaluation.
    pub fn rules(&self) -> &AlertRuleSet {
        &self.set
    }

    /// Replays recorded transitions, oldest first, into the engine's
    /// firing state — how a resumed server restores alert standing from
    /// its audit log ([`AlertTransition::from_audit`]). The last
    /// transition of each rule wins; unknown rules are ignored.
    pub fn fold_audit(&mut self, transitions: impl IntoIterator<Item = AlertTransition>) {
        for t in transitions {
            if let Some(i) = self.set.rules.iter().position(|r| r.name == t.rule) {
                self.firing[i] = match t.state {
                    AlertState::Firing => Some(t.tick),
                    AlertState::Resolved => None,
                };
            }
        }
    }

    /// The value a rule's condition compares, when evaluable: `None`
    /// before the window is fully covered (warm-up) or when the series
    /// does not exist yet.
    fn rule_value(rule: &AlertRule, tick: u64, history: &History) -> Option<u64> {
        match &rule.kind {
            RuleKind::Threshold { series, stat, window, .. } => {
                let stats = series.stats(history, tick, *window)?;
                if !stats.covered {
                    return None;
                }
                match stat {
                    WindowStat::RatePer1k => Some(stats.rate_per_1k()),
                    WindowStat::Delta => Some(stats.delta),
                    WindowStat::Max => Some(stats.max),
                    WindowStat::Last => Some(stats.last),
                    WindowStat::Ewma { alpha_milli } => {
                        let labels = series.labels.as_ref()?;
                        let refs: Vec<(&str, &str)> =
                            labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                        history.get(&series.name, &refs)?.ewma_milli(tick, *window, *alpha_milli)
                    }
                }
            }
            RuleKind::BurnRate { bad, total, window, slo_milli, .. } => {
                let total_stats = total.stats(history, tick, *window)?;
                if !total_stats.covered || total_stats.delta == 0 {
                    return total_stats.covered.then_some(0);
                }
                let bad_delta = bad.stats(history, tick, *window).map_or(0, |s| s.delta);
                let budget_milli = 1000 - (*slo_milli).min(999);
                let ratio_milli = bad_delta.saturating_mul(1000) / total_stats.delta;
                Some(ratio_milli.saturating_mul(1000) / budget_milli)
            }
            RuleKind::Absence { series, window } => {
                let stats = series.stats(history, tick, *window)?;
                stats.covered.then_some(stats.delta)
            }
        }
    }

    fn fires(rule: &AlertRule, value: u64) -> bool {
        match &rule.kind {
            RuleKind::Threshold { fire_at, .. } => value >= *fire_at,
            RuleKind::BurnRate { fire_burn_milli, .. } => value >= *fire_burn_milli,
            RuleKind::Absence { .. } => value == 0,
        }
    }

    fn resolves(rule: &AlertRule, value: u64) -> bool {
        match &rule.kind {
            RuleKind::Threshold { resolve_at, .. } => value < *resolve_at,
            RuleKind::BurnRate { resolve_burn_milli, .. } => value < *resolve_burn_milli,
            RuleKind::Absence { .. } => value > 0,
        }
    }

    /// Evaluates every rule at `tick`, returning the transitions (in
    /// rule order). A rule whose value is not evaluable holds its
    /// state; inside the hysteresis band (`resolve <= value < fire`)
    /// state also holds.
    pub fn evaluate(&mut self, tick: u64, history: &History) -> Vec<AlertTransition> {
        let mut out = Vec::new();
        for (i, rule) in self.set.rules.iter().enumerate() {
            let Some(value) = Self::rule_value(rule, tick, history) else {
                continue;
            };
            let firing = self.firing[i].is_some();
            if !firing && Self::fires(rule, value) {
                self.firing[i] = Some(tick);
                out.push(AlertTransition {
                    rule: rule.name.clone(),
                    state: AlertState::Firing,
                    tick,
                    value,
                    threshold: rule.fire_threshold(),
                });
            } else if firing && Self::resolves(rule, value) {
                self.firing[i] = None;
                out.push(AlertTransition {
                    rule: rule.name.clone(),
                    state: AlertState::Resolved,
                    tick,
                    value,
                    threshold: rule.fire_threshold(),
                });
            }
        }
        out
    }

    /// The current standing of every rule (no state change), for the
    /// monitor's ALERTS panel.
    pub fn statuses(&self, tick: u64, history: &History) -> Vec<RuleStatus> {
        self.set
            .rules
            .iter()
            .enumerate()
            .map(|(i, rule)| RuleStatus {
                rule: rule.name.clone(),
                firing: self.firing[i].is_some(),
                since: self.firing[i],
                value: Self::rule_value(rule, tick, history),
                threshold: rule.fire_threshold(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::HistoryConfig;
    use crate::MetricsRegistry;

    fn threshold_rule(fire_at: u64, resolve_at: u64, window: u64) -> AlertRuleSet {
        AlertRuleSet::new(vec![AlertRule {
            name: "spike".into(),
            kind: RuleKind::Threshold {
                series: SeriesSelector::bare("c"),
                stat: WindowStat::RatePer1k,
                window,
                fire_at,
                resolve_at,
            },
        }])
        .unwrap()
    }

    /// Drives a counter at `per_tick(tick)` increments per tick through
    /// a stride-1 history + engine, returning all transitions.
    fn drive(
        set: AlertRuleSet,
        ticks: u64,
        per_tick: impl Fn(u64) -> u64,
    ) -> Vec<AlertTransition> {
        let m = MetricsRegistry::default();
        let mut hist = History::new(HistoryConfig { stride: 1, capacity: 512 });
        let mut engine = AlertEngine::new(set);
        let mut out = Vec::new();
        for tick in 1..=ticks {
            m.inc("c", &[], per_tick(tick));
            hist.sample_registry(tick, &m);
            out.extend(engine.evaluate(tick, &hist));
        }
        out
    }

    #[test]
    fn threshold_fires_and_resolves_with_hysteresis() {
        // 5/tick (rate 5000) for 40 ticks, then 0/tick: fires once the
        // window is covered, resolves once the windowed rate sinks
        // below 1000, and never chatters in between.
        let t = drive(threshold_rule(4000, 1000, 10), 80, |tick| if tick <= 40 { 5 } else { 0 });
        assert_eq!(t.len(), 2, "{t:?}");
        assert_eq!(t[0].state, AlertState::Firing);
        assert_eq!(t[0].tick, 11, "first evaluable tick with a covered window");
        assert_eq!(t[0].value, 5000);
        assert_eq!(t[1].state, AlertState::Resolved);
        assert!(t[1].tick > 40);
    }

    #[test]
    fn warm_up_holds_state_before_coverage() {
        // Constant rate from tick 1, window 20: nothing may fire before
        // tick 21 even though the instantaneous rate is over threshold.
        let t = drive(threshold_rule(1000, 500, 20), 30, |_| 5);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].tick, 21);
    }

    #[test]
    fn absence_rule_fires_on_stall() {
        let set = AlertRuleSet::new(vec![AlertRule {
            name: "stall".into(),
            kind: RuleKind::Absence {
                series: SeriesSelector::bare("c"),
                window: 8,
            },
        }])
        .unwrap();
        let t = drive(set, 40, |tick| u64::from(tick <= 20 || tick > 32));
        assert_eq!(t.len(), 2, "{t:?}");
        assert_eq!(t[0].state, AlertState::Firing);
        assert_eq!(t[0].tick, 28, "stalled at 20, 8-tick window empties at 28");
        assert_eq!(t[1].state, AlertState::Resolved);
        assert_eq!(t[1].tick, 33);
    }

    #[test]
    fn burn_rate_tracks_error_budget() {
        let m = MetricsRegistry::default();
        let mut hist = History::new(HistoryConfig { stride: 1, capacity: 512 });
        let set = AlertRuleSet::new(vec![AlertRule {
            name: "burn".into(),
            kind: RuleKind::BurnRate {
                bad: SeriesSelector::bare("bad"),
                total: SeriesSelector::family("total"),
                window: 10,
                slo_milli: 900,
                fire_burn_milli: 2000,
                resolve_burn_milli: 1000,
            },
        }])
        .unwrap();
        let mut engine = AlertEngine::new(set);
        let mut transitions = Vec::new();
        for tick in 1..=60 {
            // 25% errors for ticks 21..=40 — burn 2500 against a 10%
            // budget; 0% elsewhere.
            m.inc("total", &[("op", "x")], 4);
            m.inc("bad", &[], u64::from((21..=40).contains(&tick)));
            hist.sample_registry(tick, &m);
            transitions.extend(engine.evaluate(tick, &hist));
        }
        assert_eq!(transitions.len(), 2, "{transitions:?}");
        assert_eq!(transitions[0].state, AlertState::Firing);
        assert!(transitions[0].value >= 2000);
        assert_eq!(transitions[1].state, AlertState::Resolved);
    }

    #[test]
    fn rules_round_trip_through_json() {
        let set = AlertRuleSet::new(vec![
            AlertRule {
                name: "a".into(),
                kind: RuleKind::Threshold {
                    series: SeriesSelector::labelled("audit_events_total", &[("kind", "duplicate_readout")]),
                    stat: WindowStat::RatePer1k,
                    window: 64,
                    fire_at: 120,
                    resolve_at: 40,
                },
            },
            AlertRule {
                name: "b".into(),
                kind: RuleKind::BurnRate {
                    bad: SeriesSelector::bare("bad"),
                    total: SeriesSelector::family("service_requests_total"),
                    window: 256,
                    slo_milli: 900,
                    fire_burn_milli: 2000,
                    resolve_burn_milli: 1000,
                },
            },
            AlertRule {
                name: "c".into(),
                kind: RuleKind::Absence {
                    series: SeriesSelector::family("service_requests_total"),
                    window: 512,
                },
            },
            AlertRule {
                name: "d".into(),
                kind: RuleKind::Threshold {
                    series: SeriesSelector::bare("g"),
                    stat: WindowStat::Ewma { alpha_milli: 300 },
                    window: 32,
                    fire_at: 9000,
                    resolve_at: 8000,
                },
            },
        ])
        .unwrap();
        let j = set.to_json();
        let reparsed = hwm_jsonio::Json::parse(&j.to_string()).unwrap();
        assert_eq!(AlertRuleSet::from_json(&reparsed).expect("parses"), set);
    }

    #[test]
    fn rule_validation_rejects_bad_sets() {
        let dup = AlertRuleSet::new(vec![
            AlertRule {
                name: "x".into(),
                kind: RuleKind::Absence { series: SeriesSelector::bare("a"), window: 1 },
            },
            AlertRule {
                name: "x".into(),
                kind: RuleKind::Absence { series: SeriesSelector::bare("b"), window: 1 },
            },
        ]);
        assert!(dup.unwrap_err().message.contains("duplicate"));
        let inverted = AlertRuleSet::new(vec![AlertRule {
            name: "x".into(),
            kind: RuleKind::Threshold {
                series: SeriesSelector::bare("a"),
                stat: WindowStat::Delta,
                window: 8,
                fire_at: 10,
                resolve_at: 20,
            },
        }]);
        assert!(inverted.unwrap_err().message.contains("resolve_at"));
        let no_budget = AlertRuleSet::new(vec![AlertRule {
            name: "x".into(),
            kind: RuleKind::BurnRate {
                bad: SeriesSelector::bare("a"),
                total: SeriesSelector::bare("b"),
                window: 8,
                slo_milli: 1000,
                fire_burn_milli: 2,
                resolve_burn_milli: 1,
            },
        }]);
        assert!(no_budget.unwrap_err().message.contains("budget"));
        let family_ewma = AlertRuleSet::new(vec![AlertRule {
            name: "x".into(),
            kind: RuleKind::Threshold {
                series: SeriesSelector::family("a"),
                stat: WindowStat::Ewma { alpha_milli: 100 },
                window: 8,
                fire_at: 2,
                resolve_at: 1,
            },
        }]);
        assert!(family_ewma.unwrap_err().message.contains("exact-series"));
        let bad_json = hwm_jsonio::Json::parse(
            "{\"schema\":1,\"rules\":[{\"name\":\"x\",\"kind\":\"nope\"}]}",
        )
        .unwrap();
        assert!(AlertRuleSet::from_json(&bad_json).unwrap_err().message.contains("unknown kind"));
        let dup_field = hwm_jsonio::Json::parse(
            "{\"schema\":1,\"rules\":[{\"name\":\"x\",\"kind\":\"absence\",\
             \"series\":\"a\",\"window\":1,\"window\":9}]}",
        )
        .unwrap();
        assert!(AlertRuleSet::from_json(&dup_field).unwrap_err().message.contains("duplicate field"));
    }

    fn transition(rule: &str, state: AlertState, tick: u64) -> AlertTransition {
        AlertTransition { rule: rule.into(), state, tick, value: 1, threshold: 2 }
    }

    #[test]
    fn fold_audit_restores_firing_state() {
        let set = threshold_rule(4000, 1000, 10);
        let mut engine = AlertEngine::new(set);
        engine.fold_audit([transition("spike", AlertState::Firing, 40)]);
        let hist = History::new(HistoryConfig::default());
        let st = &engine.statuses(40, &hist)[0];
        assert!(st.firing);
        assert_eq!(st.since, Some(40));
        engine.fold_audit([transition("spike", AlertState::Resolved, 44)]);
        assert!(!engine.statuses(44, &hist)[0].firing);
        // The last transition of a rule wins; unknown rules are ignored.
        engine.fold_audit([
            transition("spike", AlertState::Firing, 48),
            transition("nope", AlertState::Firing, 50),
            transition("spike", AlertState::Resolved, 52),
        ]);
        assert!(!engine.statuses(52, &hist)[0].firing);
    }

    #[test]
    fn audit_codec_skips_other_kinds_and_incomplete_alerts() {
        let event = |kind: &str, fields: &[(&str, AuditValue)]| AuditEvent {
            seq: 0,
            tick: 7,
            kind: kind.into(),
            fields: fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        };
        let rule = ("rule", AuditValue::Str("spike".into()));
        let value = ("value", AuditValue::U64(5));
        let threshold = ("threshold", AuditValue::U64(4));
        let full = [rule.clone(), value, threshold.clone()];
        assert!(AlertTransition::from_audit(&event(ALERT_FIRE_KIND, &full)).is_some());
        assert!(AlertTransition::from_audit(&event("lockout", &full)).is_none());
        for kind in [ALERT_FIRE_KIND, ALERT_RESOLVE_KIND] {
            for missing in 0..full.len() {
                let mut fields = full.to_vec();
                fields.remove(missing);
                let decoded = AlertTransition::from_audit(&event(kind, &fields));
                assert_eq!(decoded, None, "{kind} without field {missing}");
            }
            // A field of the wrong type is missing too.
            let wrong = [rule.clone(), ("value", AuditValue::Str("5".into())), threshold.clone()];
            assert_eq!(AlertTransition::from_audit(&event(kind, &wrong)), None);
        }
    }
}
