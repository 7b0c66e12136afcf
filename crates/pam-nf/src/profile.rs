//! vNF capacity profiles — the workspace's encoding of the paper's Table 1.
//!
//! The poster measures, for each vNF, its maximum throughput on the SmartNIC
//! (`θ^S_i`) and on the CPU (`θ^C_i`), and assumes resource utilisation grows
//! linearly with throughput. [`CapacityProfile`] carries those two numbers
//! plus the knobs the packet-level simulation needs that the analytical model
//! abstracts away:
//!
//! * `load_factor` — the fraction of chain traffic the vNF actually spends
//!   capacity on (1.0 for per-packet functions; < 1 for a sampling logger).
//!   This is the interpretation that makes the poster's Figure 1(b) —
//!   "Monitor is the bottleneck" — consistent with Table 1, where the
//!   Logger has the smallest raw capacity.
//! * `nic_latency` / `cpu_latency` — fixed per-packet pipeline latency on
//!   each device (NPU pipeline vs. DPDK+virtualisation), which adds to chain
//!   latency but does not consume throughput capacity.

use std::collections::BTreeMap;

use pam_types::{Device, Gbps, PamError, Result, SimDuration};
use serde::{Deserialize, Serialize};

use crate::nf::NfKind;

/// Capacity and latency profile of one vNF kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityProfile {
    /// The vNF kind this profile describes.
    pub kind: NfKind,
    /// Maximum throughput when running on the SmartNIC (`θ^S`).
    pub nic_capacity: Gbps,
    /// Maximum throughput when running on the CPU (`θ^C`).
    pub cpu_capacity: Gbps,
    /// Fraction of chain traffic this vNF actually processes.
    pub load_factor: f64,
    /// Fixed per-packet pipeline latency on the SmartNIC.
    pub nic_latency: SimDuration,
    /// Fixed per-packet pipeline latency on the CPU.
    pub cpu_latency: SimDuration,
}

impl CapacityProfile {
    /// The capacity on a given device.
    pub fn capacity_on(&self, device: Device) -> Gbps {
        match device {
            Device::SmartNic => self.nic_capacity,
            Device::Cpu => self.cpu_capacity,
        }
    }

    /// The fixed pipeline latency on a given device.
    pub fn latency_on(&self, device: Device) -> SimDuration {
        match device {
            Device::SmartNic => self.nic_latency,
            Device::Cpu => self.cpu_latency,
        }
    }

    /// The utilisation this vNF adds to `device` when the chain carries
    /// `throughput` (`load_factor × θ_cur / θ_capacity`).
    pub fn utilisation_on(&self, device: Device, throughput: Gbps) -> f64 {
        let capacity = self.capacity_on(device);
        if capacity.as_gbps() <= 0.0 {
            return f64::INFINITY;
        }
        self.load_factor * throughput.as_gbps() / capacity.as_gbps()
    }

    /// Overrides the load factor.
    pub fn with_load_factor(mut self, load_factor: f64) -> Self {
        self.load_factor = load_factor;
        self
    }
}

/// Default per-packet pipeline latency of a vNF on the SmartNIC.
///
/// NPU pipelines process packets in a few microseconds of fixed latency plus
/// batching; 32 µs per hop calibrates the original Figure 1 chain to the
/// few-hundred-microsecond service-chain latency the poster reports.
pub const DEFAULT_NIC_LATENCY: SimDuration = SimDuration::from_micros(32);

/// Default per-packet pipeline latency of a vNF on the CPU (DPDK polling,
/// vhost and virtualisation overheads make it slightly higher than the NIC).
pub const DEFAULT_CPU_LATENCY: SimDuration = SimDuration::from_micros(40);

/// The catalogue of capacity profiles used by the experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileCatalog {
    profiles: BTreeMap<NfKind, CapacityProfile>,
}

impl ProfileCatalog {
    /// An empty catalogue.
    pub fn new() -> Self {
        ProfileCatalog {
            profiles: BTreeMap::new(),
        }
    }

    /// The catalogue with the paper's Table 1 values:
    ///
    /// | vNF           | θ^S        | θ^C     |
    /// |---------------|-----------|---------|
    /// | Firewall      | 10 Gbps   | 4 Gbps  |
    /// | Logger        | 2 Gbps    | 4 Gbps  |
    /// | Monitor       | 3.2 Gbps  | 10 Gbps |
    /// | Load Balancer | >10 Gbps (modelled 14) | 4 Gbps |
    ///
    /// plus profiles for the additional vNFs this workspace implements
    /// (measured with the capacity probe of `pam-runtime` on the same device
    /// models, so they are mutually consistent).
    pub fn table1() -> Self {
        let mut catalog = ProfileCatalog::new();
        let defaults = |kind, nic, cpu| CapacityProfile {
            kind,
            nic_capacity: Gbps::new(nic),
            cpu_capacity: Gbps::new(cpu),
            load_factor: 1.0,
            nic_latency: DEFAULT_NIC_LATENCY,
            cpu_latency: DEFAULT_CPU_LATENCY,
        };
        catalog.insert(defaults(NfKind::Firewall, 10.0, 4.0));
        catalog.insert(defaults(NfKind::Logger, 2.0, 4.0));
        catalog.insert(defaults(NfKind::Monitor, 3.2, 10.0));
        catalog.insert(defaults(NfKind::LoadBalancer, 14.0, 4.0));
        // Not part of Table 1 — this workspace's own additions.
        catalog.insert(defaults(NfKind::Nat, 8.0, 4.5));
        catalog.insert(defaults(NfKind::Dpi, 1.6, 3.0));
        catalog.insert(defaults(NfKind::RateLimiter, 12.0, 6.0));
        catalog
    }

    /// The Figure 1 evaluation scenario: Table 1 capacities with the Logger
    /// configured as a sampling logger (load factor 0.25), which makes the
    /// Monitor the SmartNIC hot spot exactly as in the poster's Figure 1(b).
    pub fn figure1_scenario() -> Self {
        let mut catalog = Self::table1();
        if let Some(logger) = catalog.profiles.get_mut(&NfKind::Logger) {
            logger.load_factor = 0.25;
        }
        catalog
    }

    /// Adds or replaces a profile.
    pub fn insert(&mut self, profile: CapacityProfile) {
        self.profiles.insert(profile.kind, profile);
    }

    /// Looks up the profile for a kind.
    pub fn get(&self, kind: NfKind) -> Option<&CapacityProfile> {
        self.profiles.get(&kind)
    }

    /// Looks up the profile for a kind, returning a typed error if it is
    /// missing so callers can surface an unregistered kind as a recoverable
    /// configuration problem instead of aborting.
    pub fn require(&self, kind: NfKind) -> Result<&CapacityProfile> {
        self.profiles
            .get(&kind)
            .ok_or_else(|| PamError::missing_profile(kind.name()))
    }

    /// Iterates over all profiles in a stable (kind) order.
    pub fn iter(&self) -> impl Iterator<Item = &CapacityProfile> {
        self.profiles.values()
    }

    /// Number of registered profiles.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True when no profiles are registered.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }
}

impl Default for ProfileCatalog {
    fn default() -> Self {
        Self::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper() {
        let catalog = ProfileCatalog::table1();
        let fw = catalog.require(NfKind::Firewall).unwrap();
        assert_eq!(fw.nic_capacity, Gbps::new(10.0));
        assert_eq!(fw.cpu_capacity, Gbps::new(4.0));
        let logger = catalog.require(NfKind::Logger).unwrap();
        assert_eq!(logger.nic_capacity, Gbps::new(2.0));
        assert_eq!(logger.cpu_capacity, Gbps::new(4.0));
        let monitor = catalog.require(NfKind::Monitor).unwrap();
        assert_eq!(monitor.nic_capacity, Gbps::new(3.2));
        assert_eq!(monitor.cpu_capacity, Gbps::new(10.0));
        let lb = catalog.require(NfKind::LoadBalancer).unwrap();
        assert!(lb.nic_capacity > Gbps::new(10.0), "paper lists >10 Gbps");
        assert_eq!(lb.cpu_capacity, Gbps::new(4.0));
    }

    #[test]
    fn every_kind_has_a_profile() {
        let catalog = ProfileCatalog::table1();
        for kind in NfKind::ALL {
            assert!(catalog.get(kind).is_some(), "missing profile for {kind}");
        }
        assert_eq!(catalog.len(), NfKind::ALL.len());
        assert!(!catalog.is_empty());
        assert!(ProfileCatalog::new().is_empty());
    }

    #[test]
    fn capacity_and_latency_lookup_by_device() {
        let catalog = ProfileCatalog::table1();
        let monitor = catalog.require(NfKind::Monitor).unwrap();
        assert_eq!(monitor.capacity_on(Device::SmartNic), Gbps::new(3.2));
        assert_eq!(monitor.capacity_on(Device::Cpu), Gbps::new(10.0));
        assert_eq!(monitor.latency_on(Device::SmartNic), DEFAULT_NIC_LATENCY);
        assert_eq!(monitor.latency_on(Device::Cpu), DEFAULT_CPU_LATENCY);
    }

    #[test]
    fn utilisation_is_linear_in_throughput() {
        let catalog = ProfileCatalog::table1();
        let monitor = catalog.require(NfKind::Monitor).unwrap();
        let at1 = monitor.utilisation_on(Device::SmartNic, Gbps::new(1.0));
        let at2 = monitor.utilisation_on(Device::SmartNic, Gbps::new(2.0));
        assert!((at2 - 2.0 * at1).abs() < 1e-12);
        assert!((at1 - 1.0 / 3.2).abs() < 1e-12);
    }

    #[test]
    fn figure1_scenario_makes_monitor_the_hot_spot() {
        let catalog = ProfileCatalog::figure1_scenario();
        let t = Gbps::new(2.2);
        let mut utils: Vec<(NfKind, f64)> = NfKind::FIGURE1
            .iter()
            .filter(|&&k| k != NfKind::LoadBalancer)
            .map(|&k| {
                (
                    k,
                    catalog
                        .require(k)
                        .unwrap()
                        .utilisation_on(Device::SmartNic, t),
                )
            })
            .collect();
        utils.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        assert_eq!(utils[0].0, NfKind::Monitor, "monitor must be the hot spot");
        // And the NIC as a whole is overloaded at 2.2 Gbps.
        let total: f64 = utils.iter().map(|(_, u)| u).sum();
        assert!(total > 1.0, "total NIC utilisation {total} must exceed 1");
    }

    #[test]
    fn load_factor_override() {
        let catalog = ProfileCatalog::table1();
        let logger = catalog
            .require(NfKind::Logger)
            .unwrap()
            .with_load_factor(0.5);
        assert_eq!(logger.load_factor, 0.5);
        assert!((logger.utilisation_on(Device::SmartNic, Gbps::new(2.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_is_infinite_utilisation() {
        let profile = CapacityProfile {
            kind: NfKind::Dpi,
            nic_capacity: Gbps::ZERO,
            cpu_capacity: Gbps::new(1.0),
            load_factor: 1.0,
            nic_latency: DEFAULT_NIC_LATENCY,
            cpu_latency: DEFAULT_CPU_LATENCY,
        };
        assert!(profile
            .utilisation_on(Device::SmartNic, Gbps::new(0.1))
            .is_infinite());
    }

    #[test]
    fn serde_round_trip() {
        let catalog = ProfileCatalog::figure1_scenario();
        let json = serde_json::to_string(&catalog).unwrap();
        let back: ProfileCatalog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, catalog);
    }
}
