//! Latency aggregation: nearest-rank percentiles over nanosecond
//! samples, so the repository benchmark and the live registry share one
//! percentile definition.
//!
//! Latencies are scheduling-dependent, so they feed
//! [`crate::MetricClass::Timing`] histograms (excluded from the
//! determinism contract) — never a deterministic snapshot.

/// Percentile summary of a latency population, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Median.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Maximum.
    pub max_ns: u64,
    /// Mean.
    pub mean_ns: u64,
}

/// The nearest-rank percentile (`p` in 0..=100) of an unsorted sample
/// set. Returns 0 for an empty set.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

impl LatencySummary {
    /// Summarizes a [`crate::HistogramSnapshot`]: percentiles become
    /// bucket upper bounds (resolution-limited), the max the bound of the
    /// highest non-empty bucket.
    pub fn of_histogram(h: &crate::HistogramSnapshot) -> LatencySummary {
        if h.count == 0 {
            return LatencySummary::default();
        }
        let max_ns = h
            .counts
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &c)| c > 0)
            .map(|(i, _)| h.bounds.get(i).copied().unwrap_or_else(|| h.bounds.last().copied().unwrap_or(0)))
            .unwrap_or(0);
        LatencySummary {
            count: h.count,
            p50_ns: h.quantile(50.0),
            p99_ns: h.quantile(99.0),
            max_ns,
            mean_ns: h.mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistogramSnapshot;

    #[test]
    fn percentile_nearest_rank() {
        let mut s = vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&mut s, 50.0), 50);
        assert_eq!(percentile(&mut s, 99.0), 100);
        assert_eq!(percentile(&mut s, 100.0), 100);
        assert_eq!(percentile(&mut s, 1.0), 10);
        let mut unsorted = vec![90, 10, 50, 30, 70];
        assert_eq!(percentile(&mut unsorted, 50.0), 50);
        assert_eq!(unsorted, [10, 30, 50, 70, 90], "sorted in place");
    }

    #[test]
    fn empty_population_is_all_zero() {
        assert_eq!(percentile(&mut [], 50.0), 0);
    }

    #[test]
    fn summary_of_histogram_uses_bucket_bounds() {
        let h = HistogramSnapshot {
            bounds: vec![10, 100, 1000],
            counts: vec![6, 3, 1, 0],
            count: 10,
            sum: 400,
            exemplars: vec![None; 4],
        };
        let s = LatencySummary::of_histogram(&h);
        assert_eq!(s.count, 10);
        assert_eq!(s.p50_ns, 10);
        assert_eq!(s.p99_ns, 1000);
        assert_eq!(s.max_ns, 1000);
        assert_eq!(s.mean_ns, 40);
        assert_eq!(LatencySummary::of_histogram(&HistogramSnapshot {
            bounds: vec![10],
            counts: vec![0, 0],
            count: 0,
            sum: 0,
            exemplars: vec![None; 2],
        }), LatencySummary::default());
    }
}
