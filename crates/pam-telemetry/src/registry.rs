//! The shared metrics registry.
//!
//! The runtime (data plane) continuously updates a [`ChainMetrics`] snapshot;
//! the orchestrator (control plane) polls it periodically, exactly like an
//! operator querying the SmartNIC and host counters. The registry wraps the
//! snapshot in a mutex so the two sides can share it without caring about
//! each other's internals.

use std::collections::BTreeMap;
use std::sync::Arc;

use pam_types::{Device, Gbps, SimDuration, SimTime};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::histogram::{LatencyHistogram, LatencySample};
use crate::meters::TimeSeries;

/// A point-in-time view of a running chain, as the orchestrator sees it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChainMetrics {
    /// When the snapshot was last updated.
    pub updated_at: SimTime,
    /// Measured utilisation of each device over the current window.
    pub device_utilisation: BTreeMap<String, f64>,
    /// Current chain throughput offered to the ingress (Gbps).
    pub offered_load: Gbps,
    /// Current delivered chain throughput (Gbps).
    pub delivered_load: Gbps,
    /// Mean end-to-end latency over the current window.
    pub mean_latency: SimDuration,
    /// Packets dropped since the beginning of the run.
    pub total_drops: u64,
    /// Packets delivered since the beginning of the run.
    pub total_delivered: u64,
}

impl Default for ChainMetrics {
    fn default() -> Self {
        ChainMetrics {
            updated_at: SimTime::ZERO,
            device_utilisation: BTreeMap::new(),
            offered_load: Gbps::ZERO,
            delivered_load: Gbps::ZERO,
            mean_latency: SimDuration::ZERO,
            total_drops: 0,
            total_delivered: 0,
        }
    }
}

impl ChainMetrics {
    /// The utilisation recorded for `device` (zero if not yet reported).
    pub fn utilisation_of(&self, device: Device) -> f64 {
        self.device_utilisation
            .get(device.label())
            .copied()
            .unwrap_or(0.0)
    }

    /// Records the utilisation of a device (allocates its key only the
    /// first time).
    pub fn set_utilisation(&mut self, device: Device, utilisation: f64) {
        match self.device_utilisation.get_mut(device.label()) {
            Some(slot) => *slot = utilisation,
            None => {
                self.device_utilisation
                    .insert(device.label().to_string(), utilisation);
            }
        }
    }

    /// Fraction of packets dropped so far.
    pub fn drop_ratio(&self) -> f64 {
        let total = self.total_drops + self.total_delivered;
        if total == 0 {
            0.0
        } else {
            self.total_drops as f64 / total as f64
        }
    }
}

/// A shareable registry holding the latest chain metrics plus history.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

#[derive(Debug, Default)]
struct Inner {
    current: ChainMetrics,
    latency: LatencyHistogram,
    nic_utilisation_history: TimeSeries,
    cpu_utilisation_history: TimeSeries,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Arc::new(Mutex::new(Inner {
                current: ChainMetrics::default(),
                latency: LatencyHistogram::new(),
                nic_utilisation_history: TimeSeries::new(4096),
                cpu_utilisation_history: TimeSeries::new(4096),
            })),
        }
    }

    /// Publishes a new snapshot.
    pub fn publish(&self, metrics: ChainMetrics) {
        self.update(|current| *current = metrics);
    }

    /// Publishes a new snapshot by updating the current one in place
    /// (called by the runtime every metrics interval: once the device keys
    /// exist, nothing is allocated).
    pub fn update(&self, update: impl FnOnce(&mut ChainMetrics)) {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        update(&mut inner.current);
        let current = &inner.current;
        inner
            .nic_utilisation_history
            .push(current.updated_at, current.utilisation_of(Device::SmartNic));
        inner
            .cpu_utilisation_history
            .push(current.updated_at, current.utilisation_of(Device::Cpu));
    }

    /// Records one end-to-end packet latency (called by the runtime).
    pub fn record_latency(&self, latency: impl Into<LatencySample>) {
        self.inner.lock().latency.record(latency);
    }

    /// The latest snapshot (called by the orchestrator).
    pub fn snapshot(&self) -> ChainMetrics {
        self.inner.lock().current.clone()
    }

    /// The offered load of the latest snapshot, without cloning the whole
    /// snapshot (the control loop polls this every tick; the full
    /// [`ChainMetrics`] clone allocates its utilisation map each time).
    pub fn offered_load(&self) -> Gbps {
        self.inner.lock().current.offered_load
    }

    /// A copy of the full latency histogram.
    pub fn latency_histogram(&self) -> LatencyHistogram {
        self.inner.lock().latency.clone()
    }

    /// The recorded utilisation history of a device.
    pub fn utilisation_history(&self, device: Device) -> Vec<(SimTime, f64)> {
        let inner = self.inner.lock();
        match device {
            Device::SmartNic => inner.nic_utilisation_history.samples().collect(),
            Device::Cpu => inner.cpu_utilisation_history.samples().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_defaults_and_accessors() {
        let mut m = ChainMetrics::default();
        assert_eq!(m.utilisation_of(Device::SmartNic), 0.0);
        m.set_utilisation(Device::SmartNic, 0.8);
        m.set_utilisation(Device::Cpu, 0.3);
        assert_eq!(m.utilisation_of(Device::SmartNic), 0.8);
        assert_eq!(m.utilisation_of(Device::Cpu), 0.3);
        assert_eq!(m.drop_ratio(), 0.0);
        m.total_drops = 5;
        m.total_delivered = 15;
        assert!((m.drop_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn registry_publish_and_snapshot() {
        let registry = MetricsRegistry::new();
        let mut metrics = ChainMetrics {
            updated_at: SimTime::from_millis(5),
            ..ChainMetrics::default()
        };
        metrics.set_utilisation(Device::SmartNic, 1.2);
        metrics.offered_load = Gbps::new(2.2);
        registry.publish(metrics.clone());

        let snap = registry.snapshot();
        assert_eq!(snap.updated_at, SimTime::from_millis(5));
        assert_eq!(snap.utilisation_of(Device::SmartNic), 1.2);
        assert_eq!(snap.offered_load, Gbps::new(2.2));
    }

    #[test]
    fn registry_keeps_utilisation_history() {
        let registry = MetricsRegistry::new();
        for i in 0..5u64 {
            let mut m = ChainMetrics {
                updated_at: SimTime::from_millis(i),
                ..ChainMetrics::default()
            };
            m.set_utilisation(Device::SmartNic, i as f64 / 10.0);
            m.set_utilisation(Device::Cpu, 0.5);
            registry.publish(m);
        }
        let nic = registry.utilisation_history(Device::SmartNic);
        assert_eq!(nic.len(), 5);
        assert_eq!(nic[4].1, 0.4);
        let cpu = registry.utilisation_history(Device::Cpu);
        assert!(cpu.iter().all(|(_, v)| *v == 0.5));
    }

    #[test]
    fn in_place_updates_publish_like_fresh_snapshots() {
        let fresh = MetricsRegistry::new();
        let in_place = MetricsRegistry::new();
        for i in 0..6u64 {
            let mut metrics = ChainMetrics {
                updated_at: SimTime::from_millis(i),
                offered_load: Gbps::new(i as f64),
                total_delivered: i * 10,
                ..ChainMetrics::default()
            };
            metrics.set_utilisation(Device::SmartNic, i as f64 / 8.0);
            metrics.set_utilisation(Device::Cpu, 0.25);
            fresh.publish(metrics);
            in_place.update(|current| {
                current.updated_at = SimTime::from_millis(i);
                current.offered_load = Gbps::new(i as f64);
                current.total_delivered = i * 10;
                current.set_utilisation(Device::SmartNic, i as f64 / 8.0);
                current.set_utilisation(Device::Cpu, 0.25);
            });
        }
        assert_eq!(
            serde_json::to_string(&fresh.snapshot()).unwrap(),
            serde_json::to_string(&in_place.snapshot()).unwrap()
        );
        for device in [Device::SmartNic, Device::Cpu] {
            assert_eq!(
                fresh.utilisation_history(device),
                in_place.utilisation_history(device)
            );
        }
    }

    #[test]
    fn registry_latency_histogram_accumulates() {
        let registry = MetricsRegistry::new();
        for micros in [100u64, 200, 300] {
            registry.record_latency(SimDuration::from_micros(micros));
        }
        let hist = registry.latency_histogram();
        assert_eq!(hist.count(), 3);
        assert_eq!(hist.mean(), SimDuration::from_micros(200));
    }

    #[test]
    fn registry_clones_share_state() {
        let registry = MetricsRegistry::new();
        let clone = registry.clone();
        clone.record_latency(SimDuration::from_micros(42));
        assert_eq!(registry.latency_histogram().count(), 1);
    }

    #[test]
    fn serde_round_trip_of_metrics() {
        let mut m = ChainMetrics::default();
        m.set_utilisation(Device::Cpu, 0.6);
        let json = serde_json::to_string(&m).unwrap();
        let back: ChainMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.utilisation_of(Device::Cpu), 0.6);
    }
}
