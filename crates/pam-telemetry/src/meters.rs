//! Counters, throughput meters and time series.

use std::collections::VecDeque;

use pam_types::{ByteSize, Gbps, SimTime};
use serde::{Deserialize, Serialize};

/// A monotone event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn increment(&mut self) {
        self.value += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.value
    }
}

/// Windowed delivered-throughput measurement: counts bytes between
/// [`ThroughputMeter::start_window`] and "now".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThroughputMeter {
    window_start: SimTime,
    bytes: u64,
    packets: u64,
}

impl ThroughputMeter {
    /// Creates a meter with its window starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a fresh measurement window at `now`.
    pub fn start_window(&mut self, now: SimTime) {
        self.window_start = now;
        self.bytes = 0;
        self.packets = 0;
    }

    /// Records a delivered packet of `size`.
    pub fn record(&mut self, size: ByteSize) {
        self.bytes += size.as_bytes();
        self.packets += 1;
    }

    /// Bytes delivered in the current window.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Packets delivered in the current window.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// The delivered throughput over the window ending at `now`.
    pub fn throughput(&self, now: SimTime) -> Gbps {
        let elapsed = now.duration_since(self.window_start).as_secs_f64();
        if elapsed <= 0.0 {
            return Gbps::ZERO;
        }
        Gbps::from_bytes_per_sec(self.bytes as f64 / elapsed)
    }

    /// The packet rate over the window ending at `now` (packets per second).
    pub fn packet_rate(&self, now: SimTime) -> f64 {
        let elapsed = now.duration_since(self.window_start).as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        self.packets as f64 / elapsed
    }
}

/// A bounded time series of `(time, value)` samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Oldest first; a ring, so evicting the oldest sample is O(1).
    samples: VecDeque<(SimTime, f64)>,
    max_samples: usize,
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries::new(0)
    }
}

impl TimeSeries {
    /// Creates a series bounded to `max_samples` points (zero = unbounded).
    pub fn new(max_samples: usize) -> Self {
        TimeSeries {
            samples: VecDeque::new(),
            max_samples,
        }
    }

    /// Appends a sample (drops the oldest when at capacity).
    pub fn push(&mut self, time: SimTime, value: f64) {
        if self.max_samples != 0 && self.samples.len() >= self.max_samples {
            self.samples.pop_front();
        }
        self.samples.push_back((time, value));
    }

    /// All retained samples, oldest first.
    pub fn samples(&self) -> impl ExactSizeIterator<Item = (SimTime, f64)> + '_ {
        self.samples.iter().copied()
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.samples.back().copied()
    }

    /// The mean of retained values.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|(_, v)| v).sum::<f64>() / self.samples.len() as f64
    }

    /// The maximum of retained values.
    pub fn max(&self) -> f64 {
        self.samples.iter().map(|(_, v)| *v).fold(0.0, f64::max)
    }

    /// The mean of values whose timestamps fall in `[from, to)`.
    pub fn mean_in(&self, from: SimTime, to: SimTime) -> f64 {
        let selected: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|(_, v)| *v)
            .collect();
        if selected.is_empty() {
            0.0
        } else {
            selected.iter().sum::<f64>() / selected.len() as f64
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.increment();
        c.increment();
        c.add(10);
        assert_eq!(c.value(), 12);
    }

    #[test]
    fn throughput_meter_measures_rate() {
        let mut m = ThroughputMeter::new();
        m.start_window(SimTime::from_millis(10));
        for _ in 0..1000 {
            m.record(ByteSize::bytes(1250));
        }
        // 1.25 MB over 10 ms = 1 Gbps.
        let now = SimTime::from_millis(20);
        assert!((m.throughput(now).as_gbps() - 1.0).abs() < 1e-9);
        assert_eq!(m.bytes(), 1_250_000);
        assert_eq!(m.packets(), 1000);
        assert!((m.packet_rate(now) - 100_000.0).abs() < 1e-6);
        // Degenerate window.
        assert_eq!(m.throughput(SimTime::from_millis(10)), Gbps::ZERO);
        assert_eq!(m.packet_rate(SimTime::from_millis(5)), 0.0);
    }

    #[test]
    fn throughput_meter_window_reset() {
        let mut m = ThroughputMeter::new();
        m.record(ByteSize::bytes(100));
        m.start_window(SimTime::from_micros(50));
        assert_eq!(m.bytes(), 0);
        assert_eq!(m.packets(), 0);
    }

    #[test]
    fn time_series_bounds_and_stats() {
        let mut ts = TimeSeries::new(3);
        for i in 0..5u64 {
            ts.push(SimTime::from_millis(i), i as f64);
        }
        assert_eq!(ts.len(), 3);
        let values: Vec<f64> = ts.samples().map(|(_, v)| v).collect();
        assert_eq!(values, vec![2.0, 3.0, 4.0], "oldest first");
        assert_eq!(ts.last(), Some((SimTime::from_millis(4), 4.0)));
        assert_eq!(ts.mean(), 3.0);
        assert_eq!(ts.max(), 4.0);
        assert!(!ts.is_empty());
    }

    #[test]
    fn full_time_series_evicts_in_order_and_serialises_as_a_list() {
        let mut ts = TimeSeries::new(4096);
        for i in 0..10_000u64 {
            ts.push(SimTime::from_micros(i), i as f64);
        }
        assert_eq!(ts.len(), 4096);
        let times: Vec<u64> = ts.samples().map(|(t, _)| t.as_nanos() / 1_000).collect();
        assert_eq!(times, (10_000 - 4096..10_000).collect::<Vec<_>>());

        let mut small = TimeSeries::new(2);
        small.push(SimTime::from_nanos(1), 0.5);
        small.push(SimTime::from_nanos(2), 1.5);
        small.push(SimTime::from_nanos(3), 2.5);
        let json = serde_json::to_string(&small).unwrap();
        assert_eq!(json, r#"{"samples":[[2,1.5],[3,2.5]],"max_samples":2}"#);
        let back: TimeSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(back, small);
    }

    #[test]
    fn time_series_windowed_mean() {
        let mut ts = TimeSeries::new(0);
        for i in 0..10u64 {
            ts.push(SimTime::from_millis(i), i as f64);
        }
        let mean = ts.mean_in(SimTime::from_millis(2), SimTime::from_millis(5));
        assert_eq!(mean, 3.0);
        assert_eq!(
            ts.mean_in(SimTime::from_millis(50), SimTime::from_millis(60)),
            0.0
        );
    }

    #[test]
    fn empty_series_behaviour() {
        let ts = TimeSeries::new(4);
        assert!(ts.is_empty());
        assert_eq!(ts.mean(), 0.0);
        assert_eq!(ts.max(), 0.0);
        assert_eq!(ts.last(), None);
    }
}
