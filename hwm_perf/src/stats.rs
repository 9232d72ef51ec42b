//! Sample statistics: medians and quartiles of per-pass metric values,
//! nearest-rank latency percentiles, and the open-loop schedule math.

use std::time::{Duration, Instant};

/// Median, quartiles and range of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle values for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartiles by the exclusive method (Python's
/// `statistics.quantiles(values, n=4)`, the method the benchmark contract
/// uses for run-to-run spread). One sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, clamped to the data.
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

impl Spread {
    /// Summarizes `values`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Spread {
        let (q1, q3) = quartiles(values);
        Spread {
            n: values.len(),
            median: median(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Nearest-rank percentile of nanosecond samples, in milliseconds — the
/// repository's one percentile definition (`hwm_metrics::latency`).
pub fn percentile_ms(samples: &mut [u64], p: f64) -> f64 {
    hwm_metrics::latency::percentile(samples, p) as f64 / 1e6
}

/// Intended send times of an open-loop schedule: request `i` is due
/// `i / rate` seconds after `start`, whatever happened to earlier ones.
pub fn due_times(start: Instant, n: usize, rate_per_s: f64) -> Vec<Instant> {
    (0..n)
        .map(|i| start + Duration::from_secs_f64(i as f64 / rate_per_s))
        .collect()
}

/// Nanoseconds from each due time to the matching event (a send or a
/// reply); an event before its due time counts as 0.
pub fn since_due_ns(due: &[Instant], at: &[Instant]) -> Vec<u64> {
    due.iter()
        .zip(at)
        .map(|(d, a)| a.saturating_duration_since(*d).as_nanos() as u64)
        .collect()
}

/// Whether an open-loop step built a backlog: the p50 of its last tenth of
/// requests is more than twice the p50 of its first tenth (latency grew
/// while the step ran), or it completed under 98% of the offered rate.
pub fn backlogged(latencies_in_order_ns: &[u64], offered_per_s: f64, achieved_per_s: f64) -> bool {
    let tenth = (latencies_in_order_ns.len() / 10).max(1);
    if latencies_in_order_ns.len() < 2 * tenth {
        return achieved_per_s < 0.98 * offered_per_s;
    }
    let mut first = latencies_in_order_ns[..tenth].to_vec();
    let mut last = latencies_in_order_ns[latencies_in_order_ns.len() - tenth..].to_vec();
    let first_p50 = hwm_metrics::latency::percentile(&mut first, 50.0);
    let last_p50 = hwm_metrics::latency::percentile(&mut last, 50.0);
    last_p50 > 2 * first_p50 || achieved_per_s < 0.98 * offered_per_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[9.0, 5.0]), (4.0, 10.0));
        assert_eq!(quartiles(&[6.0]), (6.0, 6.0));
    }

    #[test]
    fn spread_reports_range_and_count() {
        let s = Spread::of(&[2.0, 8.0, 4.0]);
        assert_eq!((s.n, s.median, s.min, s.max), (3, 4.0, 2.0, 8.0));
        assert_eq!((s.q1, s.q3), (2.0, 8.0));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut ns: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect();
        assert_eq!(percentile_ms(&mut ns, 50.0), 50.0);
        assert_eq!(percentile_ms(&mut ns, 99.0), 99.0);
        let mut few = vec![3_000_000, 1_000_000, 2_000_000];
        assert_eq!(percentile_ms(&mut few, 50.0), 2.0);
        assert_eq!(percentile_ms(&mut few, 99.0), 3.0);
    }

    #[test]
    fn due_times_are_evenly_spaced_from_the_start() {
        let start = Instant::now();
        let due = due_times(start, 4, 200.0);
        let offsets: Vec<u128> = due.iter().map(|d| (*d - start).as_micros()).collect();
        assert_eq!(offsets, vec![0, 5_000, 10_000, 15_000]);
    }

    #[test]
    fn lateness_counts_from_the_due_time_and_never_goes_negative() {
        let start = Instant::now();
        let due = due_times(start, 3, 1000.0);
        let sent = vec![
            start + Duration::from_micros(250),
            start + Duration::from_micros(900),
            start + Duration::from_micros(4_000),
        ];
        assert_eq!(since_due_ns(&due, &sent), vec![250_000, 0, 2_000_000]);
    }

    #[test]
    fn backlog_needs_growth_or_a_rate_shortfall() {
        let steady = vec![1_000u64; 100];
        assert!(!backlogged(&steady, 300.0, 299.0));
        assert!(backlogged(&steady, 300.0, 250.0));
        let growing: Vec<u64> = (0..100).map(|i| 1_000 + i * 100).collect();
        assert!(backlogged(&growing, 300.0, 300.0));
    }
}
