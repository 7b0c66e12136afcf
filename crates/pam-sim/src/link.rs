//! The PCIe link between the SmartNIC and the host CPU.
//!
//! Every time consecutive hops of a service chain sit on different devices,
//! the packet is DMA'd across PCIe. The poster's measurement attributes "tens
//! of microseconds" of added latency to the two extra crossings the naive
//! migration introduces; this model therefore charges each crossing a fixed
//! latency (DMA setup, doorbell, ring processing, batching amortisation) plus
//! a serialisation time on the link's usable bandwidth, and keeps per-
//! direction counters so experiments can report exactly how many crossings
//! each migration strategy caused.

use pam_types::{ByteSize, Gbps, SimDuration, SimTime};
use serde::value::{Map, Value};
use serde::{Deserialize, Error, Serialize};

use crate::memo::CostMemo;
use crate::server::RateServer;
use crate::sharing::SharedTransfer;
use crate::sharing::{
    ActivityId, DegradationFn, FairShareLink, FairShareStats, LinkModel, MIN_CAPACITY_FACTOR,
};

/// Direction of a PCIe crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkDirection {
    /// From the SmartNIC to the host CPU.
    NicToCpu,
    /// From the host CPU to the SmartNIC.
    CpuToNic,
}

impl LinkDirection {
    /// Both directions.
    pub const ALL: [LinkDirection; 2] = [LinkDirection::NicToCpu, LinkDirection::CpuToNic];
}

/// Configuration of the PCIe link model. The same rate-server + fixed
/// latency shape also models other point-to-point transports (the fleet
/// layer instantiates one as its inter-server state-handoff link).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieLinkConfig {
    /// Fixed one-way crossing latency (DMA + descriptor ring + batching).
    pub crossing_latency: SimDuration,
    /// Usable bandwidth per direction.
    pub bandwidth: Gbps,
    /// Throughput model: FIFO-fixed (the baseline default) or contention-
    /// aware fair sharing (see [`crate::sharing`]).
    pub link_model: LinkModel,
}

impl Default for PcieLinkConfig {
    fn default() -> Self {
        // PCIe gen3 x8 (the Agilio CX form factor) has ~63 Gbit/s usable per
        // direction; the 22 us default crossing latency is calibrated so that
        // the two extra crossings of the naive migration add the "tens of
        // microseconds" the poster reports.
        PcieLinkConfig {
            crossing_latency: SimDuration::from_micros(22),
            bandwidth: Gbps::new(63.0),
            link_model: LinkModel::FifoFixed,
        }
    }
}

impl PcieLinkConfig {
    /// A config with a specific crossing latency and the default bandwidth.
    /// Used by the PCIe-latency ablation sweep.
    pub fn with_crossing_latency(latency: SimDuration) -> Self {
        PcieLinkConfig {
            crossing_latency: latency,
            ..Default::default()
        }
    }

    /// A LAN-grade inter-server link (25 GbE, ~40 µs one-way): what the
    /// fleet layer ships cross-server state handoffs over.
    pub fn inter_server() -> Self {
        PcieLinkConfig {
            crossing_latency: SimDuration::from_micros(40),
            bandwidth: Gbps::new(25.0),
            link_model: LinkModel::FifoFixed,
        }
    }

    /// Selects the throughput model, keeping the other knobs.
    pub fn with_link_model(mut self, link_model: LinkModel) -> Self {
        self.link_model = link_model;
        self
    }
}

// `link_model` is hand-serialised so configs written before the knob existed
// (and the committed baselines) deserialise as FIFO-fixed instead of failing
// on a missing field (the vendored serde derive has no `#[serde(default)]`).
impl Serialize for PcieLinkConfig {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert(
            "crossing_latency".to_owned(),
            self.crossing_latency.to_value(),
        );
        map.insert("bandwidth".to_owned(), self.bandwidth.to_value());
        map.insert("link_model".to_owned(), self.link_model.to_value());
        Value::Object(map)
    }
}

impl Deserialize for PcieLinkConfig {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let map = match value {
            Value::Object(map) => map,
            _ => return Err(Error::custom("PcieLinkConfig must be an object")),
        };
        let crossing_latency = SimDuration::from_value(
            map.get("crossing_latency")
                .ok_or_else(|| Error::custom("missing field `crossing_latency`"))?,
        )?;
        let bandwidth = Gbps::from_value(
            map.get("bandwidth")
                .ok_or_else(|| Error::custom("missing field `bandwidth`"))?,
        )?;
        let link_model = match map.get("link_model") {
            Some(value) => LinkModel::from_value(value)?,
            None => LinkModel::FifoFixed,
        };
        Ok(PcieLinkConfig {
            crossing_latency,
            bandwidth,
            link_model,
        })
    }
}

/// Per-direction statistics of the PCIe link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcieLinkStats {
    /// Crossings from the NIC to the CPU.
    pub nic_to_cpu: u64,
    /// Crossings from the CPU to the NIC.
    pub cpu_to_nic: u64,
    /// Total bytes moved in either direction.
    pub bytes: u64,
    /// DMA bursts (doorbells) issued for per-packet crossings: a coalesced
    /// burst of N packets counts N crossings but a single burst, so the
    /// crossings-to-bursts ratio is the link's effective batching factor.
    pub dma_bursts: u64,
}

impl PcieLinkStats {
    /// Total crossings in both directions.
    pub fn total_crossings(&self) -> u64 {
        self.nic_to_cpu + self.cpu_to_nic
    }
}

/// Per-direction link state: the rate server bulk transfers queue on, the
/// FIFO delivery watermark of per-packet crossings, the fair-share engine
/// (used when [`PcieLinkConfig::link_model`] is fair-sharing), and the
/// crossing count. Grouping these per direction means every link operation
/// resolves its direction exactly once instead of re-matching for each field
/// it touches.
#[derive(Debug, Clone)]
struct DirectionState {
    server: RateServer,
    /// Running last-delivery watermark: DMA descriptor rings complete in
    /// order, so a later (smaller) packet must not overtake an earlier
    /// (larger) one on the same direction. Updated in O(1) per burst — the
    /// clamp never re-scans earlier deliveries.
    last_delivery: SimTime,
    /// Contention engine for the fair-sharing model; idle (and unused)
    /// under [`LinkModel::FifoFixed`].
    shared: FairShareLink,
    crossings: u64,
}

impl DirectionState {
    fn new(config: &PcieLinkConfig) -> Self {
        let degradation = match config.link_model {
            LinkModel::FairShare(degradation) => degradation,
            LinkModel::FifoFixed => DegradationFn::Fair,
        };
        DirectionState {
            server: RateServer::default(),
            last_delivery: SimTime::ZERO,
            shared: FairShareLink::new(config.bandwidth, degradation),
            crossings: 0,
        }
    }
}

/// Handle to a transfer admitted via [`PcieLink::begin_transfer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferToken {
    direction: LinkDirection,
    /// `None` under FIFO-fixed: the arrival committed at begin time is final.
    activity: Option<ActivityId>,
}

/// Result of [`PcieLink::poll_transfer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferStatus {
    /// The transfer's payload has arrived on the far side.
    Complete,
    /// Contention pushed the arrival out; reschedule at the contained
    /// (strictly later) instant and poll again there.
    InFlight(SimTime),
}

/// The PCIe link: an independent rate server per direction plus a fixed
/// per-crossing latency.
#[derive(Debug, Clone)]
pub struct PcieLink {
    config: PcieLinkConfig,
    nic_to_cpu: DirectionState,
    cpu_to_nic: DirectionState,
    bytes: u64,
    dma_bursts: u64,
    /// Fault injection: no new admission serialises before this instant
    /// ([`SimTime::ZERO`] = link up). Committed FIFO arrivals are not
    /// retroactively delayed; fair-share activities stall via the engines'
    /// own outage state.
    down_until: SimTime,
    /// Fault injection: volatile-capacity factor applied to the bandwidth of
    /// new serialisations (clamped to a positive floor; `1.0` = nominal).
    capacity_factor: f64,
    /// Serialisation time per burst length at the current effective
    /// bandwidth (the same in both directions); cleared whenever the
    /// capacity factor changes. It pays off because burst lengths recur:
    /// one-frame bursts carry one of a few frame sizes (see [`CostMemo`]).
    serialisation: CostMemo,
}

impl PcieLink {
    /// Creates a link from its configuration.
    pub fn new(config: PcieLinkConfig) -> Self {
        PcieLink {
            nic_to_cpu: DirectionState::new(&config),
            cpu_to_nic: DirectionState::new(&config),
            config,
            bytes: 0,
            dma_bursts: 0,
            down_until: SimTime::ZERO,
            capacity_factor: 1.0,
            serialisation: CostMemo::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PcieLinkConfig {
        &self.config
    }

    /// The mutable per-direction state (the single direction resolution of
    /// every link operation).
    fn direction_mut(&mut self, direction: LinkDirection) -> &mut DirectionState {
        match direction {
            LinkDirection::NicToCpu => &mut self.nic_to_cpu,
            LinkDirection::CpuToNic => &mut self.cpu_to_nic,
        }
    }

    /// The bandwidth new serialisations see: nominal scaled by the volatile
    /// capacity factor (exactly nominal while the factor is `1.0`).
    fn effective_bandwidth(&self) -> Gbps {
        if self.capacity_factor == 1.0 {
            self.config.bandwidth
        } else {
            Gbps::new(self.config.bandwidth.as_gbps() * self.capacity_factor)
        }
    }

    /// The time `size` bytes take to serialise at the effective bandwidth,
    /// memoised per length.
    fn serialisation(&mut self, size: ByteSize) -> SimDuration {
        let bandwidth = self.effective_bandwidth();
        self.serialisation.get_or_insert_with(size.as_bytes(), || {
            SimDuration::transmission(size, bandwidth)
        })
    }

    /// Takes the link down for `down_for` starting at `now`: no new admission
    /// serialises before the outage ends (overlapping flaps extend, never
    /// shorten, the outage), and in-flight fair-share activities stall and
    /// re-plan past the outage on their next poll. Committed FIFO arrivals
    /// are not retroactively delayed — FIFO-fixed commits at admission by
    /// design; use the fair-share [`LinkModel`] for retroactive stalls.
    ///
    /// Pair with [`PcieLink::recover_transport`] when the flap ends so the
    /// direction FIFOs do not carry a phantom backlog out of the outage.
    pub fn flap(&mut self, now: SimTime, down_for: SimDuration) {
        let until = now + down_for;
        self.down_until = self.down_until.max(until);
        let down_until = self.down_until;
        for direction in LinkDirection::ALL {
            self.direction_mut(direction)
                .shared
                .set_outage(now, down_until);
        }
    }

    /// Brings the link back from a flap at `now`: empties the per-direction
    /// rate servers (the descriptor rings restart empty) and rewinds any FIFO
    /// delivery watermark that points past `now`, so a recovered link adds no
    /// phantom serialization delay inherited from before the flap. In-flight
    /// fair-share activities are **kept** — they stalled through the outage
    /// and resume from their surviving remainders. Statistics are untouched.
    pub fn recover_transport(&mut self, now: SimTime) {
        self.down_until = self.down_until.min(now);
        for direction in LinkDirection::ALL {
            let state = self.direction_mut(direction);
            state.server = RateServer::default();
            state.last_delivery = state.last_delivery.min(now);
        }
    }

    /// Scales the bandwidth new serialisations see by `factor` from `now`
    /// on (clamped to a small positive floor — a full outage is
    /// [`PcieLink::flap`], not factor zero). In-flight fair-share activities
    /// re-plan: bits already drained keep their old rate, the remainder
    /// drains at the new one. Pass `1.0` to restore nominal capacity.
    pub fn set_capacity_factor(&mut self, now: SimTime, factor: f64) {
        self.capacity_factor = factor.max(MIN_CAPACITY_FACTOR);
        self.serialisation.clear();
        for direction in LinkDirection::ALL {
            self.direction_mut(direction)
                .shared
                .set_capacity_factor(now, factor);
        }
    }

    /// The current volatile-capacity factor (`1.0` = nominal).
    pub fn capacity_factor(&self) -> f64 {
        self.capacity_factor
    }

    /// The instant the current outage ends ([`SimTime::ZERO`] if the link has
    /// never flapped or has recovered).
    pub fn down_until(&self) -> SimTime {
        self.down_until
    }

    /// Transfers `size` bytes in `direction` starting (at the earliest) at
    /// `now`; returns the instant the data is available on the far side.
    ///
    /// Under [`LinkModel::FifoFixed`] bulk transfers queue behind each other
    /// on the direction's rate server. Under fair sharing the transfer joins
    /// the direction's activity set instead: its arrival is committed using
    /// the contention known at `now` (later arrivals slow *this* transfer's
    /// peers but do not retroactively delay its committed instant — use
    /// [`PcieLink::begin_transfer`] for re-planned arrivals).
    pub fn transfer(&mut self, now: SimTime, size: ByteSize, direction: LinkDirection) -> SimTime {
        let serialisation = SimDuration::transmission(size, self.effective_bandwidth());
        let crossing_latency = self.config.crossing_latency;
        let fair_share = self.config.link_model.is_fair_share();
        // During an outage new admissions wait for the link to come back (the
        // fair-share engines carry their own outage state).
        let start = now.max(self.down_until);
        self.bytes += size.as_bytes();
        let state = self.direction_mut(direction);
        state.crossings += 1;
        if fair_share {
            let (_, eta) = state.shared.begin(now, size);
            eta + crossing_latency
        } else {
            let (_, finish) = state.server.serve(start, serialisation);
            finish + crossing_latency
        }
    }

    /// Admits `size` bytes in `direction` at `now` as a *re-plannable*
    /// transfer, returning a token and a provisional arrival instant.
    ///
    /// Schedule a completion event at the returned instant and call
    /// [`PcieLink::poll_transfer`] when it fires: under FIFO-fixed the poll
    /// always confirms completion (the provisional instant is exact, so the
    /// event sequence is byte-identical to [`PcieLink::transfer`]); under
    /// fair sharing, activities that arrived in the meantime may have pushed
    /// the arrival out, in which case the poll hands back the later instant
    /// to reschedule at. ETAs only move *out* on new arrivals, so each
    /// reschedule corresponds to at least one arrival and the loop
    /// terminates.
    pub fn begin_transfer(
        &mut self,
        now: SimTime,
        size: ByteSize,
        direction: LinkDirection,
    ) -> (TransferToken, SimTime) {
        if !self.config.link_model.is_fair_share() {
            let arrival = self.transfer(now, size, direction);
            return (
                TransferToken {
                    direction,
                    activity: None,
                },
                arrival,
            );
        }
        let crossing_latency = self.config.crossing_latency;
        self.bytes += size.as_bytes();
        let state = self.direction_mut(direction);
        state.crossings += 1;
        let (activity, eta) = state.shared.begin(now, size);
        (
            TransferToken {
                direction,
                activity: Some(activity),
            },
            eta + crossing_latency,
        )
    }

    /// Reports whether the transfer behind `token` has delivered by `now`
    /// (its completion event just fired), or the later instant to reschedule
    /// its completion event at. See [`PcieLink::begin_transfer`].
    pub fn poll_transfer(&mut self, token: TransferToken, now: SimTime) -> TransferStatus {
        let activity = match token.activity {
            // FIFO-fixed transfers commit their arrival at begin time.
            None => return TransferStatus::Complete,
            Some(activity) => activity,
        };
        let crossing_latency = self.config.crossing_latency;
        let state = self.direction_mut(token.direction);
        // The crossing latency is a pure pipeline delay after serialisation:
        // a delivery at `now` means serialisation finished a crossing earlier.
        match state.shared.poll(now - crossing_latency, activity) {
            SharedTransfer::Complete => TransferStatus::Complete,
            SharedTransfer::InFlight(eta) => TransferStatus::InFlight(eta + crossing_latency),
        }
    }

    /// Number of fair-share activities currently in flight on `direction`
    /// (always zero under [`LinkModel::FifoFixed`]).
    pub fn in_flight(&self, direction: LinkDirection) -> usize {
        match direction {
            LinkDirection::NicToCpu => self.nic_to_cpu.shared.in_flight(),
            LinkDirection::CpuToNic => self.cpu_to_nic.shared.in_flight(),
        }
    }

    /// Counters of the fair-share engine on `direction` (all zero under
    /// [`LinkModel::FifoFixed`]).
    pub fn fair_share_stats(&self, direction: LinkDirection) -> FairShareStats {
        match direction {
            LinkDirection::NicToCpu => self.nic_to_cpu.shared.stats(),
            LinkDirection::CpuToNic => self.cpu_to_nic.shared.stats(),
        }
    }

    /// Models an uncongested per-packet crossing starting at `now`: the data
    /// is available on the far side after the fixed crossing latency plus its
    /// serialisation time, without queueing behind other transfers.
    ///
    /// Per-packet crossings use this path: at the traffic rates a 2×10 GbE
    /// SmartNIC can offer, a PCIe gen3 link is never bandwidth-bound, and the
    /// packet-by-packet simulation visits the link at non-monotonic times, so
    /// a shared FIFO would manufacture queueing that the real link does not
    /// have. Bulk transfers that genuinely contend (migration state) use
    /// [`PcieLink::transfer`] instead.
    ///
    /// Delivery is FIFO per direction: DMA descriptor rings complete in
    /// order, so when a small packet's serialisation would let it finish
    /// before an earlier larger one, its delivery is held to the earlier
    /// packet's instant (otherwise a migration-blackout burst draining
    /// back-to-back through a crossing would reorder packets within a flow).
    pub fn propagate(&mut self, now: SimTime, size: ByteSize, direction: LinkDirection) -> SimTime {
        self.propagate_burst(now, 1, size, direction)
    }

    /// Models a coalesced DMA burst: `packets` packets totalling `total`
    /// bytes cross together behind a *single* doorbell. The burst pays the
    /// fixed per-burst setup cost ([`PcieLinkConfig::crossing_latency`]: DMA
    /// setup, doorbell ring, descriptor processing) exactly once plus the
    /// per-byte serialisation of the whole payload, which is precisely the
    /// amortisation that makes batching win for small packets — N small
    /// packets cost one setup instead of N.
    ///
    /// Every packet of the burst is delivered at the same instant (the
    /// returned arrival time), in burst order, and the per-direction FIFO
    /// clamp of [`PcieLink::propagate`] applies to the burst as a unit, so
    /// bursts never overtake earlier crossings on the same direction.
    ///
    /// A single-packet burst is exactly [`PcieLink::propagate`].
    ///
    /// An empty burst (`packets == 0`) is a no-op: nothing crosses, so no
    /// doorbell rings, no setup latency is paid and the FIFO delivery
    /// watermark does not move; the call returns `now`.
    ///
    /// Under the fair-sharing [`LinkModel`] the burst's payload joins the
    /// direction's activity set, so an in-flight migration round genuinely
    /// slows the datapath down (and vice versa). Its arrival is committed
    /// with the contention known at `now`; the FIFO delivery clamp still
    /// applies so bursts never overtake earlier crossings.
    pub fn propagate_burst(
        &mut self,
        now: SimTime,
        packets: u64,
        total: ByteSize,
        direction: LinkDirection,
    ) -> SimTime {
        if packets == 0 {
            return now;
        }
        let crossing_latency = self.config.crossing_latency;
        // Bursts admitted during an outage cross once the link is back.
        let fifo_serialised = if self.config.link_model.is_fair_share() {
            None
        } else {
            Some(now.max(self.down_until) + self.serialisation(total))
        };
        self.bytes += total.as_bytes();
        self.dma_bursts += 1;
        let state = self.direction_mut(direction);
        state.crossings += packets;
        let serialised = match fifo_serialised {
            Some(serialised) => serialised,
            None => state.shared.begin(now, total).1,
        };
        let arrival = (serialised + crossing_latency).max(state.last_delivery);
        state.last_delivery = arrival;
        arrival
    }

    /// The pure one-way latency a crossing adds on top of serialisation and
    /// queueing (used by the analytical latency model in `pam-core`).
    pub fn crossing_latency(&self) -> SimDuration {
        self.config.crossing_latency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PcieLinkStats {
        PcieLinkStats {
            nic_to_cpu: self.nic_to_cpu.crossings,
            cpu_to_nic: self.cpu_to_nic.crossings,
            bytes: self.bytes,
            dma_bursts: self.dma_bursts,
        }
    }

    /// Clears the statistics counters only.
    ///
    /// Transport state — the rate servers, the per-direction FIFO
    /// `last_delivery` watermarks and any fair-share activities — is
    /// deliberately **preserved**: a warm-up phase that resets counters
    /// mid-run must keep queueing continuity. This means a run *resumed at
    /// an earlier `now`* after `reset_stats` still observes deliveries
    /// clamped to the stale future watermark; such resumed runs must call
    /// [`PcieLink::reset_transport`] as well.
    pub fn reset_stats(&mut self) {
        self.nic_to_cpu.crossings = 0;
        self.cpu_to_nic.crossings = 0;
        self.bytes = 0;
        self.dma_bursts = 0;
    }

    /// Returns the link's transport state to idle: empties the rate servers,
    /// rewinds the FIFO delivery watermarks to [`SimTime::ZERO`] and drops
    /// any in-flight fair-share activities. Statistics counters are left
    /// untouched (pair with [`PcieLink::reset_stats`] for a full reset).
    ///
    /// Resumed runs that restart the clock at an earlier instant use this so
    /// deliveries are not clamped to a watermark from the abandoned future.
    pub fn reset_transport(&mut self) {
        let nic_crossings = self.nic_to_cpu.crossings;
        let cpu_crossings = self.cpu_to_nic.crossings;
        self.nic_to_cpu = DirectionState::new(&self.config);
        self.cpu_to_nic = DirectionState::new(&self.config);
        self.nic_to_cpu.crossings = nic_crossings;
        self.cpu_to_nic.crossings = cpu_crossings;
        // Fault state is transport state: a fully reset link is up at
        // nominal capacity (the rebuilt fair-share engines already are).
        self.down_until = SimTime::ZERO;
        self.capacity_factor = 1.0;
        self.serialisation.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn memoised_serialisation_matches_the_formula_for_every_frame_length() {
        // Every Ethernet frame length, in both directions, at nominal and at
        // a swung capacity, each length twice (a miss, then a hit) and in a
        // second, descending pass that reuses slots filled by other lengths;
        // then eight-frame burst totals, which share slots with each other
        // and with the frame lengths.
        let mut link = PcieLink::new(PcieLinkConfig::default());
        let crossing = link.crossing_latency();
        let mut now = SimTime::ZERO;
        for factor in [1.0, 0.37, 1.0] {
            link.set_capacity_factor(now, factor);
            let bandwidth = link.effective_bandwidth();
            assert_eq!(
                factor == 1.0,
                bandwidth == PcieLinkConfig::default().bandwidth
            );
            let frames = (42..=1514u64)
                .chain((42..=1514u64).rev())
                .map(|len| (1, len));
            let bursts = (8 * 42..=8 * 1514u64).step_by(13).map(|len| (8, len));
            for (i, (packets, len)) in frames.chain(bursts).enumerate() {
                let expected = SimDuration::transmission(ByteSize::bytes(len), bandwidth);
                for _ in 0..2 {
                    // Far enough apart that the FIFO clamp never binds.
                    now += SimDuration::from_millis(1);
                    let arrival = link.propagate_burst(
                        now,
                        packets,
                        ByteSize::bytes(len),
                        LinkDirection::ALL[i % 2],
                    );
                    assert_eq!(arrival, now + expected + crossing, "{len} B at x{factor}");
                }
            }
        }
    }

    #[test]
    fn transfer_adds_latency_and_serialisation() {
        let config = PcieLinkConfig {
            crossing_latency: SimDuration::from_micros(20),
            bandwidth: Gbps::new(8.0),
            link_model: LinkModel::FifoFixed,
        };
        let mut link = PcieLink::new(config);
        // 1000 bytes at 8 Gbps = 1 us serialisation + 20 us latency.
        let arrival = link.transfer(
            SimTime::ZERO,
            ByteSize::bytes(1000),
            LinkDirection::NicToCpu,
        );
        assert_eq!(arrival, SimTime::from_micros(21));
    }

    #[test]
    fn directions_have_independent_queues() {
        let config = PcieLinkConfig {
            crossing_latency: SimDuration::from_micros(10),
            bandwidth: Gbps::new(0.008), // deliberately slow: 1000 B = 1 ms
            link_model: LinkModel::FifoFixed,
        };
        let mut link = PcieLink::new(config);
        let a = link.transfer(
            SimTime::ZERO,
            ByteSize::bytes(1000),
            LinkDirection::NicToCpu,
        );
        // Opposite direction does not queue behind the first transfer.
        let b = link.transfer(
            SimTime::ZERO,
            ByteSize::bytes(1000),
            LinkDirection::CpuToNic,
        );
        assert_eq!(a, b);
        // Same direction queues.
        let c = link.transfer(
            SimTime::ZERO,
            ByteSize::bytes(1000),
            LinkDirection::NicToCpu,
        );
        assert_eq!(c, a + SimDuration::from_millis(1));
    }

    #[test]
    fn stats_count_crossings_and_bytes() {
        let mut link = PcieLink::new(PcieLinkConfig::default());
        link.transfer(SimTime::ZERO, ByteSize::bytes(64), LinkDirection::NicToCpu);
        link.transfer(
            SimTime::ZERO,
            ByteSize::bytes(1500),
            LinkDirection::CpuToNic,
        );
        link.transfer(SimTime::ZERO, ByteSize::bytes(128), LinkDirection::CpuToNic);
        let stats = link.stats();
        assert_eq!(stats.nic_to_cpu, 1);
        assert_eq!(stats.cpu_to_nic, 2);
        assert_eq!(stats.total_crossings(), 3);
        assert_eq!(stats.bytes, 64 + 1500 + 128);
        link.reset_stats();
        assert_eq!(link.stats().total_crossings(), 0);
    }

    #[test]
    fn default_config_matches_documented_values() {
        let link = PcieLink::new(PcieLinkConfig::default());
        assert_eq!(link.crossing_latency(), SimDuration::from_micros(22));
        assert_eq!(link.config().bandwidth, Gbps::new(63.0));
        let swept = PcieLinkConfig::with_crossing_latency(SimDuration::from_micros(5));
        assert_eq!(swept.crossing_latency, SimDuration::from_micros(5));
        assert_eq!(swept.bandwidth, Gbps::new(63.0));
        // The inter-server flavour is slower and farther than PCIe.
        let lan = PcieLinkConfig::inter_server();
        assert!(lan.bandwidth < swept.bandwidth);
        assert!(lan.crossing_latency > SimDuration::from_micros(22));
    }

    #[test]
    fn link_config_round_trips_through_serde() {
        let config = PcieLinkConfig::inter_server();
        let json = pam_types_serde_round_trip(&config);
        assert_eq!(json, config);
    }

    /// Serialize → deserialize helper (the vendored serde has no generic
    /// `to_string` round-trip assert).
    fn pam_types_serde_round_trip(config: &PcieLinkConfig) -> PcieLinkConfig {
        let value = serde::Serialize::to_value(config);
        serde::Deserialize::from_value(&value).unwrap()
    }

    #[test]
    fn per_packet_delivery_is_fifo_per_direction() {
        let mut link = PcieLink::new(PcieLinkConfig::default());
        // A 1500 B packet enters, then a 64 B packet 10 ns later: without the
        // FIFO clamp the small packet's shorter serialisation would let it
        // overtake. It must instead deliver at the same instant (ring order).
        let big = link.propagate(
            SimTime::ZERO,
            ByteSize::bytes(1500),
            LinkDirection::NicToCpu,
        );
        let small = link.propagate(
            SimTime::from_nanos(10),
            ByteSize::bytes(64),
            LinkDirection::NicToCpu,
        );
        assert!(
            small >= big,
            "FIFO delivery: {small} must not precede {big}"
        );
        // The opposite direction is independent.
        let other = link.propagate(
            SimTime::from_nanos(10),
            ByteSize::bytes(64),
            LinkDirection::CpuToNic,
        );
        assert!(other < big);
    }

    #[test]
    fn single_packet_burst_equals_propagate() {
        let mut a = PcieLink::new(PcieLinkConfig::default());
        let mut b = PcieLink::new(PcieLinkConfig::default());
        for i in 0..10u64 {
            let now = SimTime::from_nanos(i * 137);
            let size = ByteSize::bytes(64 + i * 100);
            assert_eq!(
                a.propagate(now, size, LinkDirection::NicToCpu),
                b.propagate_burst(now, 1, size, LinkDirection::NicToCpu),
            );
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn coalesced_burst_pays_one_setup_for_many_packets() {
        let config = PcieLinkConfig {
            crossing_latency: SimDuration::from_micros(20),
            bandwidth: Gbps::new(8.0),
            link_model: LinkModel::FifoFixed,
        };
        // 8 packets of 125 B each: 1000 B at 8 Gbps = 1 us serialisation.
        let mut burst = PcieLink::new(config);
        let together = burst.propagate_burst(
            SimTime::ZERO,
            8,
            ByteSize::bytes(1000),
            LinkDirection::CpuToNic,
        );
        assert_eq!(together, SimTime::from_micros(21), "one setup, 1 us bytes");
        let stats = burst.stats();
        assert_eq!(
            stats.cpu_to_nic, 8,
            "a burst still counts per-packet crossings"
        );
        assert_eq!(stats.dma_bursts, 1, "but only one doorbell");
        assert_eq!(stats.bytes, 1000);

        // The per-packet path rings 8 doorbells for the same payload.
        let mut single = PcieLink::new(config);
        for _ in 0..8 {
            single.propagate(SimTime::ZERO, ByteSize::bytes(125), LinkDirection::CpuToNic);
        }
        assert_eq!(single.stats().dma_bursts, 8);
        assert_eq!(single.stats().cpu_to_nic, 8);
    }

    #[test]
    fn bursts_respect_the_per_direction_fifo_clamp() {
        let mut link = PcieLink::new(PcieLinkConfig::default());
        let first = link.propagate_burst(
            SimTime::ZERO,
            4,
            ByteSize::bytes(6000),
            LinkDirection::NicToCpu,
        );
        // A later, smaller burst on the same direction must not overtake.
        let second = link.propagate_burst(
            SimTime::from_nanos(5),
            2,
            ByteSize::bytes(128),
            LinkDirection::NicToCpu,
        );
        assert!(second >= first, "burst FIFO: {second} before {first}");
    }

    #[test]
    fn empty_burst_is_a_no_op() {
        // Regression: an empty burst used to ring a doorbell, pay the full
        // setup latency and advance the FIFO watermark for nothing.
        for model in [LinkModel::FifoFixed, LinkModel::fair_share()] {
            let mut link = PcieLink::new(PcieLinkConfig::default().with_link_model(model));
            let now = SimTime::from_micros(7);
            let arrival = link.propagate_burst(now, 0, ByteSize::ZERO, LinkDirection::NicToCpu);
            assert_eq!(arrival, now, "an empty burst delivers nothing, instantly");
            assert_eq!(link.stats(), PcieLinkStats::default());
            assert_eq!(link.in_flight(LinkDirection::NicToCpu), 0);
            // The watermark did not move: a real packet right after the empty
            // burst is not clamped to the phantom delivery.
            let real = link.propagate(now, ByteSize::bytes(64), LinkDirection::NicToCpu);
            let mut fresh = PcieLink::new(PcieLinkConfig::default().with_link_model(model));
            assert_eq!(
                real,
                fresh.propagate(now, ByteSize::bytes(64), LinkDirection::NicToCpu),
                "watermark moved by an empty burst ({model:?})"
            );
        }
    }

    #[test]
    fn reset_stats_preserves_the_fifo_watermark_for_warmups() {
        // Documented behaviour: reset_stats clears counters only, so the
        // delivery watermark survives a mid-run warm-up reset.
        let mut link = PcieLink::new(PcieLinkConfig::default());
        let first = link.propagate(
            SimTime::from_millis(10),
            ByteSize::bytes(1500),
            LinkDirection::NicToCpu,
        );
        link.reset_stats();
        assert_eq!(link.stats(), PcieLinkStats::default());
        let resumed = link.propagate(SimTime::ZERO, ByteSize::bytes(64), LinkDirection::NicToCpu);
        assert!(
            resumed >= first,
            "after reset_stats alone the stale watermark still clamps: {resumed} < {first}"
        );
    }

    #[test]
    fn reset_transport_unclamps_a_run_resumed_at_an_earlier_now() {
        for model in [LinkModel::FifoFixed, LinkModel::fair_share()] {
            let config = PcieLinkConfig::default().with_link_model(model);
            let mut link = PcieLink::new(config);
            // Drive the watermark, the rate server and (under fair sharing)
            // the activity set far into the future.
            link.propagate(
                SimTime::from_millis(10),
                ByteSize::bytes(1500),
                LinkDirection::NicToCpu,
            );
            link.transfer(
                SimTime::from_millis(10),
                ByteSize::mib(1),
                LinkDirection::NicToCpu,
            );
            let stats_before = link.stats();
            link.reset_transport();
            assert_eq!(link.stats(), stats_before, "transport reset keeps stats");
            assert_eq!(link.in_flight(LinkDirection::NicToCpu), 0);
            // A resumed run restarting at t=0 behaves like a fresh link.
            let mut fresh = PcieLink::new(config);
            assert_eq!(
                link.propagate(SimTime::ZERO, ByteSize::bytes(64), LinkDirection::NicToCpu),
                fresh.propagate(SimTime::ZERO, ByteSize::bytes(64), LinkDirection::NicToCpu),
                "resumed run clamped to a stale future watermark ({model:?})"
            );
            assert_eq!(
                link.transfer(
                    SimTime::ZERO,
                    ByteSize::bytes(4096),
                    LinkDirection::NicToCpu
                ),
                fresh.transfer(
                    SimTime::ZERO,
                    ByteSize::bytes(4096),
                    LinkDirection::NicToCpu
                ),
            );
        }
    }

    #[test]
    fn fair_share_burst_contends_with_an_in_flight_transfer() {
        // Under FIFO-fixed a datapath burst is oblivious to a migration
        // transfer in flight on the same direction; under fair sharing the
        // two split the bandwidth and the burst lands later.
        let fifo_cfg = PcieLinkConfig::default();
        let fair_cfg = fifo_cfg.with_link_model(LinkModel::fair_share());
        let mut fifo = PcieLink::new(fifo_cfg);
        let mut fair = PcieLink::new(fair_cfg);
        for link in [&mut fifo, &mut fair] {
            link.transfer(SimTime::ZERO, ByteSize::mib(8), LinkDirection::NicToCpu);
        }
        let in_flight = SimTime::from_micros(100);
        let burst_fifo = fifo.propagate_burst(
            in_flight,
            8,
            ByteSize::bytes(12_000),
            LinkDirection::NicToCpu,
        );
        let burst_fair = fair.propagate_burst(
            in_flight,
            8,
            ByteSize::bytes(12_000),
            LinkDirection::NicToCpu,
        );
        assert!(
            burst_fair > burst_fifo,
            "the burst must see the migration transfer: {burst_fair} vs {burst_fifo}"
        );
    }

    #[test]
    fn re_planned_transfer_slows_down_when_a_burst_arrives() {
        let mut link =
            PcieLink::new(PcieLinkConfig::default().with_link_model(LinkModel::fair_share()));
        let (token, provisional) =
            link.begin_transfer(SimTime::ZERO, ByteSize::mib(1), LinkDirection::NicToCpu);
        // A datapath burst joins mid-transfer: the provisional ETA is stale.
        link.propagate_burst(
            SimTime::from_micros(20),
            16,
            ByteSize::bytes(24_000),
            LinkDirection::NicToCpu,
        );
        let rescheduled = match link.poll_transfer(token, provisional) {
            TransferStatus::InFlight(eta) => eta,
            TransferStatus::Complete => panic!("transfer cannot be done: a burst stole bandwidth"),
        };
        assert!(rescheduled > provisional);
        assert_eq!(
            link.poll_transfer(token, rescheduled),
            TransferStatus::Complete,
            "no further arrivals, so the re-planned ETA is exact"
        );
    }

    #[test]
    fn fifo_begin_transfer_commits_exactly_like_transfer() {
        let mut a = PcieLink::new(PcieLinkConfig::default());
        let mut b = PcieLink::new(PcieLinkConfig::default());
        for i in 0..5u64 {
            let now = SimTime::from_micros(i * 3);
            let size = ByteSize::bytes(10_000 + i * 777);
            let expected = a.transfer(now, size, LinkDirection::CpuToNic);
            let (token, arrival) = b.begin_transfer(now, size, LinkDirection::CpuToNic);
            assert_eq!(arrival, expected);
            assert_eq!(b.poll_transfer(token, arrival), TransferStatus::Complete);
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn link_model_serde_defaults_to_fifo_for_old_configs() {
        // Configs serialised before the knob existed have no `link_model`
        // key; they must deserialise to the FIFO-fixed baseline.
        let mut map = Map::new();
        map.insert(
            "crossing_latency".to_owned(),
            SimDuration::from_micros(22).to_value(),
        );
        map.insert("bandwidth".to_owned(), Gbps::new(63.0).to_value());
        let config = PcieLinkConfig::from_value(&Value::Object(map)).unwrap();
        assert_eq!(config, PcieLinkConfig::default());
        assert_eq!(config.link_model, LinkModel::FifoFixed);

        // And the new field round-trips in both variants.
        for model in [
            LinkModel::fair_share(),
            LinkModel::FairShare(DegradationFn::LinearPenalty { penalty: 0.07 }),
        ] {
            let config = PcieLinkConfig::default().with_link_model(model);
            assert_eq!(pam_types_serde_round_trip(&config), config);
        }
    }

    proptest::proptest! {
        /// Satellite differential: with at most one activity in flight at a
        /// time, the fair-share link is byte-identical to FIFO-fixed across
        /// transfers, packets and bursts.
        #[test]
        fn uncontended_fair_share_is_byte_identical_to_fifo(
            ops in proptest::collection::vec((0u8..3, 64u64..100_000, 1u64..32), 1..30),
        ) {
            let fifo_cfg = PcieLinkConfig::default();
            let fair_cfg = fifo_cfg.with_link_model(LinkModel::fair_share());
            let mut fifo = PcieLink::new(fifo_cfg);
            let mut fair = PcieLink::new(fair_cfg);
            // Space the operations out so nothing ever overlaps: 100 KB at
            // 63 Gbps serialises in ~12.7 us, far below the 1 ms gap.
            let mut now = SimTime::ZERO;
            for (i, &(kind, bytes, packets)) in ops.iter().enumerate() {
                let dir = if i % 2 == 0 { LinkDirection::NicToCpu } else { LinkDirection::CpuToNic };
                let size = ByteSize::bytes(bytes);
                let arrival = match kind {
                    0 => {
                        let (a, b) = (
                            fifo.transfer(now, size, dir),
                            fair.transfer(now, size, dir),
                        );
                        prop_assert_eq!(a, b, "transfer diverged at op {}", i);
                        a
                    }
                    1 => {
                        let (a, b) = (
                            fifo.propagate(now, size, dir),
                            fair.propagate(now, size, dir),
                        );
                        prop_assert_eq!(a, b, "propagate diverged at op {}", i);
                        a
                    }
                    _ => {
                        let (a, b) = (
                            fifo.propagate_burst(now, packets, size, dir),
                            fair.propagate_burst(now, packets, size, dir),
                        );
                        prop_assert_eq!(a, b, "burst diverged at op {}", i);
                        a
                    }
                };
                now = arrival + SimDuration::from_millis(1);
            }
            prop_assert_eq!(fifo.stats(), fair.stats());
        }
    }

    #[test]
    fn flap_delays_new_admissions_until_the_outage_ends() {
        for model in [LinkModel::FifoFixed, LinkModel::fair_share()] {
            let config = PcieLinkConfig {
                crossing_latency: SimDuration::from_micros(20),
                bandwidth: Gbps::new(8.0),
                link_model: model,
            };
            let mut link = PcieLink::new(config);
            link.flap(SimTime::ZERO, SimDuration::from_micros(50));
            assert_eq!(link.down_until(), SimTime::from_micros(50));
            // 1000 B at 8 Gbps = 1 us serialisation, starting at outage end.
            let arrival = link.transfer(
                SimTime::from_micros(10),
                ByteSize::bytes(1000),
                LinkDirection::NicToCpu,
            );
            assert_eq!(
                arrival,
                SimTime::from_micros(71),
                "admission during a flap must wait for recovery ({model:?})"
            );
            // Overlapping flaps extend, never shorten, the outage.
            link.flap(SimTime::from_micros(20), SimDuration::from_micros(10));
            assert_eq!(link.down_until(), SimTime::from_micros(50));
        }
    }

    #[test]
    fn flap_stalls_an_in_flight_fair_share_transfer() {
        let mut link =
            PcieLink::new(PcieLinkConfig::default().with_link_model(LinkModel::fair_share()));
        let (token, provisional) =
            link.begin_transfer(SimTime::ZERO, ByteSize::mib(1), LinkDirection::NicToCpu);
        // The link goes dark mid-transfer for 1 ms: the committed ETA is
        // stale by at least the outage remainder.
        let mid = SimTime::from_micros(20);
        link.flap(mid, SimDuration::from_millis(1));
        let rescheduled = match link.poll_transfer(token, provisional) {
            TransferStatus::InFlight(eta) => eta,
            TransferStatus::Complete => panic!("the flap must stall the transfer"),
        };
        assert!(rescheduled >= mid + SimDuration::from_millis(1));
        link.recover_transport(link.down_until());
        assert_eq!(
            link.poll_transfer(token, rescheduled),
            TransferStatus::Complete,
            "the stalled transfer resumes from its remainder after recovery"
        );
    }

    #[test]
    fn recovered_link_does_not_inherit_the_pre_flap_fifo_watermark() {
        // Satellite regression: a link coming back from a flap must not clamp
        // post-recovery deliveries to a FIFO watermark or rate-server backlog
        // accumulated before (or during) the flap — no phantom serialization
        // delay after recovery.
        for model in [LinkModel::FifoFixed, LinkModel::fair_share()] {
            let config = PcieLinkConfig::default().with_link_model(model);
            let mut link = PcieLink::new(config);
            // Drive the watermark (and, under FIFO, the rate server) deep
            // into the future, then flap. Under fair sharing a bulk transfer
            // would *survive* recovery by design (see
            // flap_stalls_an_in_flight_fair_share_transfer) and legitimately
            // contend, so only the FIFO variant queues one.
            if model == LinkModel::FifoFixed {
                link.transfer(SimTime::ZERO, ByteSize::mib(8), LinkDirection::NicToCpu);
            }
            link.propagate(
                SimTime::from_micros(5),
                ByteSize::bytes(9000),
                LinkDirection::NicToCpu,
            );
            link.flap(SimTime::from_micros(10), SimDuration::from_millis(5));
            let back = link.down_until();
            link.recover_transport(back);
            let stats_before = link.stats();
            // After recovery the link behaves like a fresh link at `back`.
            let mut fresh = PcieLink::new(config);
            assert_eq!(
                link.propagate(back, ByteSize::bytes(64), LinkDirection::NicToCpu),
                fresh.propagate(back, ByteSize::bytes(64), LinkDirection::NicToCpu),
                "recovered link carried a phantom FIFO watermark ({model:?})"
            );
            assert_eq!(
                link.transfer(back, ByteSize::bytes(4096), LinkDirection::NicToCpu),
                fresh.transfer(back, ByteSize::bytes(4096), LinkDirection::NicToCpu),
                "recovered link carried a phantom rate-server backlog ({model:?})"
            );
            assert_eq!(
                link.stats().total_crossings(),
                stats_before.total_crossings() + 2,
                "recovery must not touch statistics"
            );
        }
    }

    #[test]
    fn capacity_swing_stretches_new_serialisations_and_restores() {
        let config = PcieLinkConfig {
            crossing_latency: SimDuration::from_micros(20),
            bandwidth: Gbps::new(8.0),
            link_model: LinkModel::FifoFixed,
        };
        let mut link = PcieLink::new(config);
        // Nominal: 1000 B at 8 Gbps = 1 us.
        assert_eq!(
            link.transfer(
                SimTime::ZERO,
                ByteSize::bytes(1000),
                LinkDirection::NicToCpu
            ),
            SimTime::from_micros(21)
        );
        // Halved capacity: the same payload takes 2 us (queued behind the
        // first transfer's 1 us).
        link.set_capacity_factor(SimTime::from_micros(1), 0.5);
        assert!((link.capacity_factor() - 0.5).abs() < 1e-12);
        assert_eq!(
            link.transfer(
                SimTime::from_micros(1),
                ByteSize::bytes(1000),
                LinkDirection::NicToCpu
            ),
            SimTime::from_micros(23)
        );
        // Restored: back to nominal for new admissions.
        link.set_capacity_factor(SimTime::from_micros(3), 1.0);
        assert_eq!(
            link.transfer(
                SimTime::from_micros(3),
                ByteSize::bytes(1000),
                LinkDirection::NicToCpu
            ),
            SimTime::from_micros(24)
        );
        // A non-positive factor clamps instead of dividing by zero.
        link.set_capacity_factor(SimTime::from_micros(4), -3.0);
        assert!(link.capacity_factor() > 0.0);
    }

    #[test]
    fn reset_transport_clears_fault_state() {
        let mut link = PcieLink::new(PcieLinkConfig::default());
        link.flap(SimTime::ZERO, SimDuration::from_millis(1));
        link.set_capacity_factor(SimTime::ZERO, 0.25);
        link.reset_transport();
        assert_eq!(link.down_until(), SimTime::ZERO);
        assert!((link.capacity_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn big_transfers_are_bandwidth_bound() {
        // Migration state transfers use the same link: 10 MiB at 63 Gbps
        // should take on the order of 1.3 ms (plus the fixed latency).
        let mut link = PcieLink::new(PcieLinkConfig::default());
        let arrival = link.transfer(SimTime::ZERO, ByteSize::mib(10), LinkDirection::NicToCpu);
        let total = arrival.duration_since(SimTime::ZERO);
        assert!(total > SimDuration::from_millis(1));
        assert!(total < SimDuration::from_millis(2));
    }
}
