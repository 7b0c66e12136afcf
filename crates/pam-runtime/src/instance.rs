//! A placed, running vNF instance.

use pam_nf::{CapacityProfile, NetworkFunction, NfKind};
use pam_sim::CostMemo;
use pam_types::{ByteSize, Device, Gbps, InstanceId, NfId, SimDuration, SimTime};

/// One vNF instance: the processing object plus where it currently runs and
/// the timing parameters the simulator derives from its capacity profile.
pub struct VnfInstance {
    /// Unique instance id.
    pub id: InstanceId,
    /// The chain position this instance serves.
    pub nf_id: NfId,
    /// The vNF kind.
    pub kind: NfKind,
    /// The packet-processing implementation.
    pub nf: Box<dyn NetworkFunction>,
    /// The device the instance currently runs on.
    pub device: Device,
    /// The instance's capacity profile (Table 1 values + load factor).
    pub profile: CapacityProfile,
    /// If a live migration is in progress, traffic for this instance is held
    /// until this instant (the blackout end).
    pub paused_until: Option<SimTime>,
    /// Packets processed by this instance.
    pub processed: u64,
    /// Packets dropped by this instance's own verdicts (policy drops).
    pub policy_drops: u64,
    /// Service time per frame length on `memo_device` (see
    /// [`VnfInstance::memoised_service_time`]).
    service_memo: CostMemo,
    memo_device: Device,
}

impl std::fmt::Debug for VnfInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VnfInstance")
            .field("id", &self.id)
            .field("nf_id", &self.nf_id)
            .field("kind", &self.kind)
            .field("device", &self.device)
            .field("paused_until", &self.paused_until)
            .field("processed", &self.processed)
            .finish()
    }
}

impl VnfInstance {
    /// Creates an instance of `kind` at chain position `nf_id` on `device`.
    pub fn new(
        id: InstanceId,
        nf_id: NfId,
        kind: NfKind,
        nf: Box<dyn NetworkFunction>,
        device: Device,
        profile: CapacityProfile,
    ) -> Self {
        VnfInstance {
            id,
            nf_id,
            kind,
            nf,
            device,
            profile,
            paused_until: None,
            processed: 0,
            policy_drops: 0,
            service_memo: CostMemo::new(),
            memo_device: device,
        }
    }

    /// The throughput capacity on the instance's current device.
    pub fn capacity(&self) -> Gbps {
        self.profile.capacity_on(self.device)
    }

    /// The fixed pipeline latency on the instance's current device.
    pub fn pipeline_latency(&self) -> SimDuration {
        self.profile.latency_on(self.device)
    }

    /// The service time a packet of `size` occupies the device's shared
    /// processor for.
    pub fn service_time(&self, size: ByteSize) -> SimDuration {
        pam_sim::ComputeDevice::service_time(size, self.capacity(), self.profile.load_factor)
    }

    /// [`VnfInstance::service_time`], remembered per frame length: the
    /// datapath asks once per packet per hop. The memo belongs to the device
    /// it was filled on, so a migration (a change of `device`) empties it.
    pub fn memoised_service_time(&mut self, size: ByteSize) -> SimDuration {
        if self.memo_device != self.device {
            self.service_memo.clear();
            self.memo_device = self.device;
        }
        let (capacity, load_factor) = (self.capacity(), self.profile.load_factor);
        self.service_memo.get_or_insert_with(size.as_bytes(), || {
            pam_sim::ComputeDevice::service_time(size, capacity, load_factor)
        })
    }

    /// True when the instance is paused for migration at `now`.
    pub fn is_paused(&self, now: SimTime) -> bool {
        matches!(self.paused_until, Some(until) if now < until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pam_nf::{build_kind, ProfileCatalog};

    fn monitor_instance(device: Device) -> VnfInstance {
        let catalog = ProfileCatalog::table1();
        VnfInstance::new(
            InstanceId::new(1),
            NfId::new(1),
            NfKind::Monitor,
            build_kind(NfKind::Monitor),
            device,
            *catalog.require(NfKind::Monitor).unwrap(),
        )
    }

    #[test]
    fn capacity_and_latency_follow_the_device() {
        let on_nic = monitor_instance(Device::SmartNic);
        assert_eq!(on_nic.capacity(), Gbps::new(3.2));
        let on_cpu = monitor_instance(Device::Cpu);
        assert_eq!(on_cpu.capacity(), Gbps::new(10.0));
        assert!(on_cpu.pipeline_latency() > on_nic.pipeline_latency());
        // Service time is shorter where capacity is higher.
        assert!(
            on_cpu.service_time(ByteSize::bytes(512)) < on_nic.service_time(ByteSize::bytes(512))
        );
    }

    #[test]
    fn memoised_service_time_matches_the_formula_for_every_frame_length() {
        // Every Table-1 profile (and the Figure-1 sampling logger's load
        // factor) on both devices, every Ethernet frame length ascending then
        // descending (misses, hits and slot reuse), and the same instance
        // carried across a migration and back.
        let catalogs = [ProfileCatalog::table1(), ProfileCatalog::figure1_scenario()];
        for (catalog, kind) in catalogs
            .iter()
            .flat_map(|catalog| NfKind::ALL.map(|kind| (catalog, kind)))
        {
            let profile = *catalog.require(kind).unwrap();
            let mut inst = VnfInstance::new(
                InstanceId::new(1),
                NfId::new(0),
                kind,
                build_kind(kind),
                Device::SmartNic,
                profile,
            );
            for device in [Device::SmartNic, Device::Cpu, Device::SmartNic] {
                inst.device = device;
                let lengths = (42..=1514u64).chain((42..=1514u64).rev());
                for len in lengths {
                    let size = ByteSize::bytes(len);
                    let formula = pam_sim::ComputeDevice::service_time(
                        size,
                        profile.capacity_on(device),
                        profile.load_factor,
                    );
                    assert_eq!(inst.service_time(size), formula);
                    assert_eq!(inst.memoised_service_time(size), formula, "{kind} {len} B");
                    assert_eq!(inst.memoised_service_time(size), formula, "{kind} {len} B");
                }
            }
        }
    }

    #[test]
    fn pause_window_logic() {
        let mut inst = monitor_instance(Device::SmartNic);
        assert!(!inst.is_paused(SimTime::ZERO));
        inst.paused_until = Some(SimTime::from_micros(100));
        assert!(inst.is_paused(SimTime::from_micros(50)));
        assert!(!inst.is_paused(SimTime::from_micros(100)));
        assert!(!inst.is_paused(SimTime::from_micros(200)));
    }

    #[test]
    fn debug_format_is_compact() {
        let inst = monitor_instance(Device::SmartNic);
        let text = format!("{inst:?}");
        assert!(text.contains("Monitor"));
        assert!(text.contains("SmartNic"));
    }
}
