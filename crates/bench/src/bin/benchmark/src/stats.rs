//! Order statistics for run-level and request-level samples.
//!
//! Run-level summaries (median and quartiles of one metric over several
//! runs) follow Python's `statistics.median` and
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method),
//! so a spread computed here agrees with one computed from `results.json`
//! by any external script.

/// The median; the mean of the two middle values for an even count.
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, as `statistics.quantiles(values, n=4)`
/// returns them (exclusive method). A single value is its own quartiles;
/// `NaN`s for an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        _ => {
            let m = ld + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// The `q`-quantile (`q` in `[0, 1]`) of a sample by linear interpolation
/// between order statistics. `+inf` entries (failed requests) sort last,
/// so a tail percentile that reaches a failure is `+inf`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    percentile_sorted(&v, q)
}

/// [`percentile`] over an already sorted slice.
pub fn percentile_sorted(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || v[lo] == v[hi] {
        return v[lo];
    }
    if v[hi].is_infinite() {
        return v[hi];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of p99.9, p99, p90 and p50 that has at least ten samples
/// beyond it, as `(percentile, value)`; `None` below 20 samples. A tail
/// percentile with fewer samples past it is one outlier, not a tail.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    // Per-mille, so the count beyond is exact integer arithmetic.
    [999, 990, 900, 500]
        .into_iter()
        .find(|pm| values.len() * (1000 - pm) / 1000 >= 10)
        .map(|pm| (pm as f64 / 10.0, percentile(values, pm as f64 / 1000.0)))
}

/// Latency of one open-loop request measured from when it was **due**,
/// not from when the generator got around to sending it, so a stalled
/// generator or server charges every request queued behind the stall.
/// A request without a successful answer counts as `+inf`: it missed
/// every latency limit.
pub fn due_latency_s(due_s: f64, answered_s: f64, ok: bool) -> f64 {
    if ok {
        (answered_s - due_s).max(0.0)
    } else {
        f64::INFINITY
    }
}

/// One fixed-rate load step's outcome, as the max-rate rule sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Offered rate, requests per second.
    pub offered_rps: f64,
    /// Requests answered per second of the measured window.
    pub achieved_rps: f64,
    /// Due-time p99 latency in milliseconds (`+inf` once failures reach it).
    pub p99_ms: f64,
    /// Requests without a successful answer.
    pub failed: u64,
}

/// The p99 latency limit a load step must meet to count as sustained.
pub const P99_LIMIT_MS: f64 = 1.0;

/// The highest offered rate among the steps that kept up: p99 within
/// [`P99_LIMIT_MS`], at least 99% of the offered rate achieved (no
/// growing backlog), and no failed request. `None` when no step did.
pub fn max_sustained_rate(steps: &[StepOutcome]) -> Option<f64> {
    steps
        .iter()
        .filter(|s| {
            s.p99_ms <= P99_LIMIT_MS && s.achieved_rps >= 0.99 * s.offered_rps && s.failed == 0
        })
        .map(|s| s.offered_rps)
        .max_by(f64::total_cmp)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // Python extrapolates past the extremes of tiny samples:
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn percentile_interpolates_and_reaches_failures() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
        let mut with_failures = vec![1.0; 98];
        with_failures.extend([f64::INFINITY, f64::INFINITY]);
        assert_eq!(percentile(&with_failures, 0.5), 1.0);
        assert_eq!(percentile(&with_failures, 0.99), f64::INFINITY);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 19]), None);
        assert_eq!(tail_percentile(&[1.0; 20]).map(|t| t.0), Some(50.0));
        assert_eq!(tail_percentile(&[1.0; 100]).map(|t| t.0), Some(90.0));
        assert_eq!(tail_percentile(&[1.0; 1000]).map(|t| t.0), Some(99.0));
        assert_eq!(tail_percentile(&[1.0; 10_000]).map(|t| t.0), Some(99.9));
    }

    #[test]
    fn due_latency_charges_stalls_and_failures() {
        assert_eq!(due_latency_s(1.0, 1.25, true), 0.25);
        // Answered "before" it was due (clock granularity): never negative.
        assert_eq!(due_latency_s(1.0, 0.999, true), 0.0);
        assert_eq!(due_latency_s(1.0, 1.001, false), f64::INFINITY);
    }

    #[test]
    fn max_rate_takes_the_highest_step_that_kept_up() {
        let step = |offered: f64, achieved: f64, p99_ms: f64, failed: u64| StepOutcome {
            offered_rps: offered,
            achieved_rps: achieved,
            p99_ms,
            failed,
        };
        let steps = [
            step(4000.0, 4000.0, 0.3, 0),
            step(8000.0, 7995.0, 0.6, 0),
            step(16000.0, 15000.0, 0.9, 0), // backlog: achieved < 99%
            step(24000.0, 24000.0, 3.0, 0), // p99 over the limit
        ];
        assert_eq!(max_sustained_rate(&steps), Some(8000.0));
        let failed = [step(4000.0, 4000.0, 0.3, 1)];
        assert_eq!(max_sustained_rate(&failed), None);
        assert_eq!(max_sustained_rate(&[]), None);
    }
}
