//! Windowed health evaluation over metric snapshots.
//!
//! A [`HealthPolicy`] is a list of named [`Rule`]s, each watching one
//! signal: either a **windowed ratio** of two counters (the deltas between
//! this evaluation's snapshot and the previous one, so a long-running
//! process is judged on its recent behaviour, not its lifetime averages)
//! or the **current value of a gauge**. Each rule carries a `degraded` and
//! a `failing` threshold; the overall [`HealthState`] is the worst state
//! any rule reports.
//!
//! The [`HealthEvaluator`] owns the previous snapshot and the window clock
//! (an [`inf2vec_util::Clock`], so tests drive it with `ManualClock`).
//! The first evaluation has no window yet: ratio rules report `ok` with a
//! `no window` detail rather than guessing.

use std::fmt;
use std::sync::Mutex;
use std::time::Duration;

use inf2vec_util::json::push_json_string;
use inf2vec_util::SharedClock;

use crate::registry::{SampleValue, Snapshot};

/// Overall or per-rule health verdict, worst-wins ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Everything within thresholds.
    Ok,
    /// At least one rule past its `degraded` threshold.
    Degraded,
    /// At least one rule past its `failing` threshold.
    Failing,
}

impl HealthState {
    /// The wire spelling (`ok` / `degraded` / `failing`).
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthState::Ok => "ok",
            HealthState::Degraded => "degraded",
            HealthState::Failing => "failing",
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a rule watches.
#[derive(Debug, Clone)]
pub enum Signal {
    /// `Δ numer / Δ denom` over the evaluation window, counters summed
    /// across every label set carrying the name. A zero denominator delta
    /// (no traffic) evaluates to 0.
    Ratio {
        /// Numerator counter name.
        numer: String,
        /// Denominator counter name.
        denom: String,
    },
    /// The gauge's current value (0 when absent).
    GaugeValue {
        /// Gauge name (unlabeled).
        name: String,
    },
}

/// One named health check: a signal plus escalation thresholds.
///
/// `value > failing` → failing; else `value > degraded` → degraded;
/// else ok. Use `f64::INFINITY` to disable a level.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Check name, reported in `/healthz` output.
    pub name: String,
    /// What to measure.
    pub signal: Signal,
    /// Above this the rule is degraded.
    pub degraded: f64,
    /// Above this the rule is failing.
    pub failing: f64,
}

impl Rule {
    /// A windowed-ratio rule.
    pub fn ratio(
        name: impl Into<String>,
        numer: impl Into<String>,
        denom: impl Into<String>,
        degraded: f64,
        failing: f64,
    ) -> Self {
        Self {
            name: name.into(),
            signal: Signal::Ratio {
                numer: numer.into(),
                denom: denom.into(),
            },
            degraded,
            failing,
        }
    }

    /// A gauge-threshold rule.
    pub fn gauge_above(
        name: impl Into<String>,
        gauge: impl Into<String>,
        degraded: f64,
        failing: f64,
    ) -> Self {
        Self {
            name: name.into(),
            signal: Signal::GaugeValue { name: gauge.into() },
            degraded,
            failing,
        }
    }
}

/// An ordered set of health rules.
#[derive(Debug, Clone, Default)]
pub struct HealthPolicy {
    /// The rules, evaluated in order.
    pub rules: Vec<Rule>,
}

impl HealthPolicy {
    /// An empty policy (always healthy).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a rule (builder style).
    pub fn rule(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }
}

/// One rule's outcome within a report.
#[derive(Debug, Clone)]
pub struct Check {
    /// Rule name.
    pub name: String,
    /// This rule's verdict.
    pub state: HealthState,
    /// The measured value the thresholds were compared against.
    pub value: f64,
    /// Human-oriented context (threshold crossed, missing window, …).
    pub detail: String,
}

/// The result of one health evaluation.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Worst state across all checks.
    pub state: HealthState,
    /// Window length in seconds (0 on the first evaluation).
    pub window_secs: f64,
    /// Per-rule outcomes.
    pub checks: Vec<Check>,
}

impl HealthReport {
    /// Serializes the report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.checks.len() * 96);
        out.push_str("{\"state\":\"");
        out.push_str(self.state.as_str());
        out.push_str("\",\"window_secs\":");
        out.push_str(&format_f64(self.window_secs));
        out.push_str(",\"checks\":[");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_string(&mut out, &c.name);
            out.push_str(",\"state\":\"");
            out.push_str(c.state.as_str());
            out.push_str("\",\"value\":");
            out.push_str(&format_f64(c.value));
            out.push_str(",\"detail\":");
            push_json_string(&mut out, &c.detail);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn format_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:?}")
    }
}

/// Sum of every counter sample named `name`, across all label sets.
fn counter_sum(snap: &Snapshot, name: &str) -> u64 {
    snap.samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match &s.value {
            SampleValue::Counter(v) => *v,
            _ => 0,
        })
        .sum()
}

fn gauge_value(snap: &Snapshot, name: &str) -> Option<f64> {
    match snap.get(name).map(|s| &s.value) {
        Some(SampleValue::Gauge(v)) => Some(*v),
        _ => None,
    }
}

/// Evaluates a [`HealthPolicy`] against successive snapshots, keeping the
/// previous snapshot to form the rate window.
pub struct HealthEvaluator {
    policy: HealthPolicy,
    clock: SharedClock,
    prev: Mutex<Option<(Duration, Snapshot)>>,
}

impl fmt::Debug for HealthEvaluator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HealthEvaluator")
            .field("rules", &self.policy.rules.len())
            .finish_non_exhaustive()
    }
}

impl HealthEvaluator {
    /// An evaluator reading window time from `clock`.
    pub fn new(policy: HealthPolicy, clock: SharedClock) -> Self {
        Self {
            policy,
            clock,
            prev: Mutex::new(None),
        }
    }

    /// Evaluates every rule against `snap`, using the snapshot from the
    /// previous call as the window base, then stores `snap` as the new
    /// base.
    pub fn evaluate(&self, snap: Snapshot) -> HealthReport {
        let now = self.clock.now();
        let mut prev_guard = self
            .prev
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let prev = prev_guard.take();
        let window_secs = prev
            .as_ref()
            .map(|(t, _)| now.saturating_sub(*t).as_secs_f64())
            .unwrap_or(0.0);

        let mut checks = Vec::with_capacity(self.policy.rules.len());
        let mut state = HealthState::Ok;
        for rule in &self.policy.rules {
            let check = match &rule.signal {
                Signal::Ratio { numer, denom } => match prev.as_ref() {
                    None => Check {
                        name: rule.name.clone(),
                        state: HealthState::Ok,
                        value: 0.0,
                        detail: "no window yet".to_string(),
                    },
                    Some((_, base)) => {
                        let dn = counter_sum(&snap, numer)
                            .saturating_sub(counter_sum(base, numer));
                        let dd = counter_sum(&snap, denom)
                            .saturating_sub(counter_sum(base, denom));
                        let value = if dd == 0 { 0.0 } else { dn as f64 / dd as f64 };
                        self.verdict(rule, value, format!("{dn}/{dd} over window"))
                    }
                },
                Signal::GaugeValue { name } => match gauge_value(&snap, name) {
                    None => Check {
                        name: rule.name.clone(),
                        state: HealthState::Ok,
                        value: 0.0,
                        detail: format!("gauge {name} absent"),
                    },
                    Some(value) => self.verdict(rule, value, format!("gauge {name}")),
                },
            };
            state = state.max(check.state);
            checks.push(check);
        }
        *prev_guard = Some((now, snap));
        HealthReport {
            state,
            window_secs,
            checks,
        }
    }

    fn verdict(&self, rule: &Rule, value: f64, context: String) -> Check {
        // NaN is above no threshold, but a signal that is not a number (a
        // NaN training loss) is broken, not healthy.
        let state = if value > rule.failing || value.is_nan() {
            HealthState::Failing
        } else if value > rule.degraded {
            HealthState::Degraded
        } else {
            HealthState::Ok
        };
        let detail = match state {
            HealthState::Ok => context,
            HealthState::Degraded => {
                format!("{context}; {value} > degraded threshold {}", rule.degraded)
            }
            HealthState::Failing if value.is_nan() => format!("{context}; value is NaN"),
            HealthState::Failing => {
                format!("{context}; {value} > failing threshold {}", rule.failing)
            }
        };
        Check {
            name: rule.name.clone(),
            state,
            value,
            detail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use inf2vec_util::ManualClock;
    use std::time::Duration;

    fn policy() -> HealthPolicy {
        HealthPolicy::new()
            .rule(Rule::ratio(
                "quarantine_ratio",
                "quarantined_total",
                "records_total",
                0.25,
                0.75,
            ))
            .rule(Rule::gauge_above("publish_lag", "lag_episodes", 4.0, 16.0))
    }

    #[test]
    fn first_evaluation_has_no_window() {
        let (clock, _) = ManualClock::shared();
        let ev = HealthEvaluator::new(policy(), clock);
        let r = Registry::new();
        r.counter("records_total", &[]).add(100);
        r.counter("quarantined_total", &[]).add(100); // lifetime ratio 1.0
        let report = ev.evaluate(r.snapshot());
        assert_eq!(report.state, HealthState::Ok, "{report:?}");
        assert_eq!(report.window_secs, 0.0);
        assert_eq!(report.checks[0].detail, "no window yet");
    }

    #[test]
    fn windowed_ratio_escalates_and_recovers() {
        let (clock, handle) = ManualClock::shared();
        let ev = HealthEvaluator::new(policy(), clock);
        let r = Registry::new();
        r.counter("records_total", &[]).add(100);
        ev.evaluate(r.snapshot());

        // Window 1: 80 quarantined of 100 new records => failing.
        handle.advance(Duration::from_secs(10));
        r.counter("records_total", &[]).add(100);
        r.counter("quarantined_total", &[]).add(80);
        let report = ev.evaluate(r.snapshot());
        assert_eq!(report.state, HealthState::Failing);
        assert_eq!(report.window_secs, 10.0);
        assert!(report.checks[0].detail.contains("failing threshold"));

        // Window 2: clean traffic => recovers even though lifetime ratio
        // is still high.
        handle.advance(Duration::from_secs(10));
        r.counter("records_total", &[]).add(1000);
        let report = ev.evaluate(r.snapshot());
        assert_eq!(report.state, HealthState::Ok);
    }

    #[test]
    fn ratio_sums_across_label_sets_and_empty_window_is_ok() {
        let (clock, handle) = ManualClock::shared();
        let pol = HealthPolicy::new().rule(Rule::ratio("q", "q_total", "r_total", 0.25, 0.75));
        let ev = HealthEvaluator::new(pol, clock);
        let r = Registry::new();
        ev.evaluate(r.snapshot());
        handle.advance(Duration::from_secs(1));
        // No traffic at all: ratio counts as 0, not NaN.
        let report = ev.evaluate(r.snapshot());
        assert_eq!(report.state, HealthState::Ok);
        handle.advance(Duration::from_secs(1));
        r.counter("q_total", &[("kind", "a")]).add(2);
        r.counter("q_total", &[("kind", "b")]).add(2);
        r.counter("r_total", &[]).add(10);
        let report = ev.evaluate(r.snapshot());
        assert_eq!(report.checks[0].value, 0.4);
        assert_eq!(report.state, HealthState::Degraded);
    }

    #[test]
    fn a_nan_gauge_is_failing() {
        let (clock, _) = ManualClock::shared();
        let ev = HealthEvaluator::new(policy(), clock);
        let r = Registry::new();
        r.gauge("lag_episodes", &[]).set(f64::NAN);
        let report = ev.evaluate(r.snapshot());
        assert_eq!(report.state, HealthState::Failing, "{report:?}");
        assert!(report.checks[1].detail.contains("NaN"), "{report:?}");
        assert!(report.to_json().contains("\"value\":null"));
    }

    #[test]
    fn gauge_rule_and_json_shape() {
        let (clock, _) = ManualClock::shared();
        let ev = HealthEvaluator::new(policy(), clock);
        let r = Registry::new();
        r.gauge("lag_episodes", &[]).set(20.0);
        let report = ev.evaluate(r.snapshot());
        assert_eq!(report.state, HealthState::Failing);
        let json = report.to_json();
        assert!(json.starts_with("{\"state\":\"failing\""), "{json}");
        assert!(json.contains("\"name\":\"publish_lag\""), "{json}");
        assert!(json.contains("\"value\":20"), "{json}");
    }

    #[test]
    fn worst_wins_ordering() {
        assert!(HealthState::Failing > HealthState::Degraded);
        assert!(HealthState::Degraded > HealthState::Ok);
        assert_eq!(HealthState::Ok.as_str(), "ok");
        assert_eq!(format!("{}", HealthState::Degraded), "degraded");
    }
}
