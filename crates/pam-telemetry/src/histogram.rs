//! A log-bucketed streaming latency histogram.
//!
//! Latencies in the reproduction span three orders of magnitude (microseconds
//! of service time to hundreds of microseconds of chain latency to
//! milliseconds during migration pauses). A fixed-size array of
//! logarithmically spaced buckets gives ~2.5 % relative resolution across
//! `1 ns … 100 s` with constant memory and O(1) insertion, which is plenty
//! for the mean/median/p99 numbers the experiments report.

use pam_types::SimDuration;
use serde::{Deserialize, Serialize};

/// Number of buckets per decade (relative resolution ≈ 10^(1/96) ≈ 2.4 %).
const BUCKETS_PER_DECADE: usize = 96;
/// Number of decades covered starting at 1 ns (1 ns .. 10^11 ns = 100 s).
const DECADES: usize = 11;
const BUCKET_COUNT: usize = BUCKETS_PER_DECADE * DECADES;

/// One duration with its histogram bucket already resolved, so a sample fed
/// to several histograms takes its `log10` once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySample {
    nanos: u64,
    bucket: usize,
}

impl From<SimDuration> for LatencySample {
    /// Resolves `value`'s bucket.
    fn from(value: SimDuration) -> Self {
        let nanos = value.as_nanos();
        LatencySample {
            nanos,
            bucket: LatencyHistogram::bucket_index(nanos),
        }
    }
}

/// A streaming histogram of durations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_nanos: u128,
    min_nanos: u64,
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; BUCKET_COUNT],
            count: 0,
            sum_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
        }
    }

    fn bucket_index(nanos: u64) -> usize {
        if nanos <= 1 {
            return 0;
        }
        let log = (nanos as f64).log10();
        ((log * BUCKETS_PER_DECADE as f64) as usize).min(BUCKET_COUNT - 1)
    }

    fn bucket_value(index: usize) -> u64 {
        10f64
            .powf((index as f64 + 0.5) / BUCKETS_PER_DECADE as f64)
            .round() as u64
    }

    /// Records one duration (a [`SimDuration`], or a [`LatencySample`] whose
    /// bucket is already resolved).
    pub fn record(&mut self, value: impl Into<LatencySample>) {
        let LatencySample { nanos, bucket } = value.into();
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_nanos += u128::from(nanos);
        self.min_nanos = self.min_nanos.min(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The exact mean of recorded samples.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_nanos / u128::from(self.count)) as u64)
    }

    /// The exact minimum recorded sample.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_nanos)
        }
    }

    /// The exact maximum recorded sample.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_nanos)
    }

    /// The approximate quantile `q` (in `[0, 1]`), accurate to the bucket
    /// resolution (~2.5 %). The exact min/max are used for the extremes.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max();
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= target {
                let estimate = Self::bucket_value(index);
                return SimDuration::from_nanos(estimate.clamp(self.min_nanos, self.max_nanos));
            }
        }
        self.max()
    }

    /// Convenience: the median.
    pub fn p50(&self) -> SimDuration {
        self.quantile(0.50)
    }

    /// Convenience: the 99th percentile.
    pub fn p99(&self) -> SimDuration {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.min_nanos = self.min_nanos.min(other.min_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Clears all recorded samples.
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.p50(), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = LatencyHistogram::new();
        for micros in [100u64, 200, 300, 400] {
            h.record(SimDuration::from_micros(micros));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), SimDuration::from_micros(250));
        assert_eq!(h.min(), SimDuration::from_micros(100));
        assert_eq!(h.max(), SimDuration::from_micros(400));
    }

    #[test]
    fn quantiles_are_within_bucket_resolution() {
        let mut h = LatencyHistogram::new();
        // 1..=1000 microseconds, uniformly.
        for micros in 1..=1000u64 {
            h.record(SimDuration::from_micros(micros));
        }
        let p50 = h.p50().as_micros_f64();
        let p99 = h.p99().as_micros_f64();
        assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50 {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.05, "p99 {p99}");
        assert_eq!(h.quantile(0.0), SimDuration::from_micros(1));
        assert_eq!(h.quantile(1.0), SimDuration::from_micros(1000));
    }

    #[test]
    fn identical_samples_collapse_to_one_value() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(SimDuration::from_micros(228));
        }
        assert_eq!(h.p50(), SimDuration::from_micros(228));
        assert_eq!(h.p99(), SimDuration::from_micros(228));
        assert_eq!(h.mean(), SimDuration::from_micros(228));
    }

    #[test]
    fn merge_combines_distributions() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for _ in 0..50 {
            a.record(SimDuration::from_micros(100));
            b.record(SimDuration::from_micros(300));
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.mean(), SimDuration::from_micros(200));
        assert_eq!(a.min(), SimDuration::from_micros(100));
        assert_eq!(a.max(), SimDuration::from_micros(300));
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_micros(5));
        h.reset();
        assert!(h.is_empty());
    }

    #[test]
    fn handles_extreme_values() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::ZERO);
        h.record(SimDuration::from_nanos(1));
        h.record(SimDuration::from_secs(1000)); // beyond the last decade
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), SimDuration::from_secs(1000));
        assert!(h.quantile(0.99) <= h.max());
    }

    #[test]
    fn a_resolved_sample_records_exactly_like_its_duration() {
        let mut direct = LatencyHistogram::new();
        let mut resolved = LatencyHistogram::new();
        for nanos in (0..5_000u64).chain([u64::MAX / 2, u64::MAX]) {
            let value = SimDuration::from_nanos(nanos.wrapping_mul(7919));
            direct.record(value);
            resolved.record(LatencySample::from(value));
        }
        assert_eq!(direct.buckets, resolved.buckets);
        assert_eq!(direct.count(), resolved.count());
        assert_eq!(direct.mean(), resolved.mean());
        assert_eq!(direct.p99(), resolved.p99());
    }

    proptest! {
        /// Quantiles are monotone in q and bounded by min/max; the mean lies
        /// between min and max.
        #[test]
        fn quantile_invariants(samples in proptest::collection::vec(1u64..10_000_000, 1..200)) {
            let mut h = LatencyHistogram::new();
            for nanos in &samples {
                h.record(SimDuration::from_nanos(*nanos));
            }
            let q25 = h.quantile(0.25);
            let q50 = h.quantile(0.5);
            let q99 = h.quantile(0.99);
            prop_assert!(q25 <= q50);
            prop_assert!(q50 <= q99);
            prop_assert!(h.min() <= q25);
            prop_assert!(q99 <= h.max());
            prop_assert!(h.mean() >= h.min());
            prop_assert!(h.mean() <= h.max());
        }
    }
}
