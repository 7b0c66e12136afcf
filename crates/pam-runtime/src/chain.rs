//! The packet-level chain runtime.
//!
//! Packets travel in ingress order through the hops of the chain. At each
//! hop, arrivals are staged into a *doorbell batch* (see
//! [`crate::BatchConfig`]): the batch closes — and becomes one service event —
//! when it reaches `max_batch` packets or when `max_wait` elapses after its
//! first packet arrived. With `max_batch = 1` (the default) staging is
//! degenerate and every packet is serviced the instant it arrives, exactly
//! reproducing the unbatched datapath. Each batch charges:
//!
//! 1. queueing + service on the hop's device for every packet of the batch —
//!    the device is a shared work-conserving processor whose per-packet
//!    service time is derived from the vNF's Table 1 capacity, so aggregate
//!    device utilisation matches the analytical model of `pam-core`,
//! 2. the vNF's fixed pipeline latency (which adds delay without consuming
//!    device capacity),
//! 3. the vNF's own processing logic on the real packet bytes — the whole
//!    batch via [`pam_nf::NetworkFunction::process_batch`], whose per-packet
//!    verdicts may drop packets — and
//! 4. a *single coalesced PCIe DMA burst* towards the next hop whenever it
//!    sits on the other side of the link (one setup cost for the whole
//!    batch: [`pam_sim::PcieLink::propagate_burst`]).
//!
//! Live migration comes in two flavours (see [`crate::migration`]):
//! stop-and-copy pauses one vNF while its whole serialised state crosses
//! PCIe; iterative pre-copy ships the state in rounds while the source keeps
//! serving and freezes only the residual dirty set. During any blackout,
//! packets that would have to wait longer than the staging-buffer bound are
//! dropped, every other packet simply waits it out.

use pam_core::{ChainModel, Placement, VnfDescriptor};
use pam_nf::{build_nf, NetworkFunction, NfContext, NfVerdict, Packet, ServiceChainSpec};
use pam_sim::{
    ComputeDevice, EventQueue, LinkDirection, PcieLink, ProcessOutcome, TransferStatus,
    TransferToken,
};
use pam_telemetry::{LatencyHistogram, LatencySample, MetricsRegistry, ThroughputMeter};
use pam_traffic::TraceSynthesizer;
use pam_types::{
    ByteSize, Device, Gbps, InstanceIdGen, NfId, PamError, Result, Side, SimDuration, SimTime,
};

use crate::config::RuntimeConfig;
use crate::instance::VnfInstance;
use crate::migration::{
    state_transfer_size, MigrationEstimate, MigrationMode, MigrationReport, MigrationRound,
};
use pam_protocol::{Action as HandoverAction, Event as HandoverEvent, HandoverState, Phase};

/// What happened to one injected packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketOutcome {
    /// The packet traversed the whole chain; its end-to-end latency is given.
    Delivered {
        /// End-to-end latency from ingress to egress.
        latency: SimDuration,
    },
    /// Dropped because a device queue exceeded its backlog bound (overload).
    DroppedOverload,
    /// Dropped by a vNF's own verdict (firewall rule, rate limit, ...).
    DroppedPolicy,
    /// Dropped because it arrived during a migration blackout and the staging
    /// buffer bound was exceeded.
    DroppedMigration,
}

impl PacketOutcome {
    /// True when the packet was delivered.
    pub fn is_delivered(&self) -> bool {
        matches!(self, PacketOutcome::Delivered { .. })
    }
}

/// Aggregate results of a run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Packets injected at the ingress.
    pub injected: u64,
    /// Packets delivered at the egress.
    pub delivered: u64,
    /// Packets dropped due to device overload.
    pub drops_overload: u64,
    /// Packets dropped by vNF policy verdicts.
    pub drops_policy: u64,
    /// Packets dropped during migration blackouts.
    pub drops_migration: u64,
    /// Mean end-to-end latency of delivered packets.
    pub mean_latency: SimDuration,
    /// Median end-to-end latency.
    pub p50_latency: SimDuration,
    /// 99th-percentile end-to-end latency.
    pub p99_latency: SimDuration,
    /// Delivered throughput over the whole run.
    pub delivered_throughput: Gbps,
    /// Total PCIe crossings paid by all packets.
    pub pcie_crossings: u64,
    /// Every live migration performed during the run.
    pub migrations: Vec<MigrationReport>,
    /// Migrations rolled back before handover (operator aborts, corrupt
    /// deltas, or the [`crate::migration::DivergencePolicy::Abort`] policy at
    /// the round cap). The source kept serving through each of these.
    pub aborted_migrations: u64,
}

/// A measurement over an explicit window (see
/// [`ChainRuntime::start_measurement`]).
#[derive(Debug, Clone, Copy)]
pub struct WindowReport {
    /// Mean end-to-end latency of packets delivered in the window.
    pub mean_latency: SimDuration,
    /// 99th-percentile latency in the window.
    pub p99_latency: SimDuration,
    /// Delivered throughput over the window.
    pub delivered: Gbps,
    /// Offered throughput over the window.
    pub offered: Gbps,
    /// Packets delivered in the window.
    pub delivered_packets: u64,
}

/// Everything the runtime's single deterministic event queue carries. Every
/// item is a handle (16 bytes): the packets themselves stay in the runtime's
/// [`BatchPool`], so the calendar moves 32-byte items, not packets.
#[derive(Debug, Clone, Copy)]
enum RuntimeEvent {
    /// The packets of pool batch `id` arrive together (in batch order) at the
    /// device of hop `hop`. A packet submitted at the ingress, and each
    /// packet held through a migration blackout, travels as a batch of one.
    Batch { hop: u32, id: u32 },
    /// The doorbell timeout of hop `hop`'s open batch `seq`: if that batch
    /// is still open when this fires, it closes regardless of size.
    Doorbell { hop: u32, seq: u64 },
    /// A pre-copy round's transfer finished; export the next delta (or
    /// freeze and hand over).
    MigrationRound,
}

/// One batch in struct-of-arrays form: the vNF batch API operates on
/// `&mut [Packet]` *in place*, and `pipelines[i]` is the accumulated
/// pipeline latency of `packets[i]`. The two arrays always move together.
#[derive(Debug, Default)]
struct Batch {
    packets: Vec<Packet>,
    pipelines: Vec<SimDuration>,
}

impl Batch {
    fn with_capacity(capacity: usize) -> Self {
        Batch {
            packets: Vec::with_capacity(capacity),
            pipelines: Vec::with_capacity(capacity),
        }
    }

    fn push(&mut self, packet: Packet, pipeline: SimDuration) {
        self.packets.push(packet);
        self.pipelines.push(pipeline);
    }
}

/// The doorbell staging buffer of one chain hop.
#[derive(Debug)]
struct HopStage {
    /// Pool id of the currently open batch (packets in arrival order).
    batch: u32,
    /// Identity of the open batch; bumped on every close so a doorbell
    /// carrying a stale seq (its batch already closed on size) is a no-op.
    seq: u64,
}

/// The runtime-owned batch arena. Every batch — a hop's open doorbell batch,
/// a closed batch travelling to the next hop, a one-packet batch from the
/// ingress or from a blackout hold — lives in a slot here, and the calendar
/// carries only its `u32` id. Slots are recycled through a free list and
/// keep their buffers (each sized to the doorbell batch bound, which no
/// batch exceeds), so once the arena has grown to the run's peak of batches
/// in flight, steady-state service performs no heap allocation (pinned by
/// the counting-allocator test in `tests/zero_alloc.rs`).
///
/// A peak (a long blackout holds every arriving packet in a batch of its
/// own) must not pin its buffers for the rest of the run, so every
/// [`BatchPool::TRIM_EVERY`] releases the pool gives back the buffers of the
/// free slots beyond [`BatchPool::PREWARM`] that went unused since the last
/// trim. The free list is a stack, so those are its bottom entries; a
/// trimmed slot costs only its empty `Batch` and gets buffers again when
/// reused.
#[derive(Debug)]
struct BatchPool {
    slots: Vec<Batch>,
    /// Ids of free slots; the most recently freed is reused first.
    free: Vec<u32>,
    /// The bottom `bare` entries of `free` have given their buffers back.
    bare: usize,
    /// The fewest free slots since the last trim: the bottom `low` entries
    /// of `free` were not reused in that time.
    low: usize,
    /// Releases left until the next trim.
    until_trim: u32,
    batch_capacity: usize,
}

impl BatchPool {
    /// Slots created up front: every hop's stage plus the batches in flight
    /// between hops (~40 KiB per runtime at a batch bound of 8). Trimming
    /// keeps this many idle slots' buffers.
    const PREWARM: u32 = 64;

    /// Releases between two trims.
    const TRIM_EVERY: u32 = 4096;

    fn new(batch_capacity: usize) -> Self {
        BatchPool {
            slots: (0..Self::PREWARM)
                .map(|_| Batch::with_capacity(batch_capacity))
                .collect(),
            free: (0..Self::PREWARM).rev().collect(),
            bare: 0,
            low: Self::PREWARM as usize,
            until_trim: Self::TRIM_EVERY,
            batch_capacity,
        }
    }

    /// An empty batch's id.
    fn alloc(&mut self) -> u32 {
        let id = self.free.pop();
        self.low = self.low.min(self.free.len());
        match id {
            Some(id) => {
                if self.free.len() < self.bare {
                    self.bare = self.free.len();
                    *self.slot_mut(id) = Batch::with_capacity(self.batch_capacity);
                }
                id
            }
            None => {
                self.slots.push(Batch::with_capacity(self.batch_capacity));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn slot_mut(&mut self, id: u32) -> &mut Batch {
        &mut self.slots[id as usize]
    }

    fn is_empty(&self, id: u32) -> bool {
        self.slots[id as usize].packets.is_empty()
    }

    /// Detaches batch `id`'s buffers for service (the slot stays taken).
    fn take(&mut self, id: u32) -> Batch {
        std::mem::take(self.slot_mut(id))
    }

    /// Re-attaches buffers detached from slot `id` by [`BatchPool::take`].
    fn restore(&mut self, id: u32, batch: Batch) {
        *self.slot_mut(id) = batch;
    }

    /// Empties buffers detached from slot `id` and frees the slot.
    fn release(&mut self, id: u32, mut batch: Batch) {
        batch.packets.clear();
        batch.pipelines.clear();
        self.restore(id, batch);
        self.free.push(id);
        self.until_trim -= 1;
        if self.until_trim == 0 {
            self.trim();
        }
    }

    /// Gives back the buffers of the free slots beyond `PREWARM` that no
    /// `alloc` reached since the last trim.
    fn trim(&mut self) {
        let idle = self.low.saturating_sub(Self::PREWARM as usize);
        for &id in &self.free[self.bare.min(idle)..idle] {
            self.slots[id as usize] = Batch::default();
        }
        self.bare = self.bare.max(idle);
        self.low = self.free.len();
        self.until_trim = Self::TRIM_EVERY;
    }

    /// Slots holding buffers, taken or free.
    #[cfg(test)]
    fn buffered(&self) -> usize {
        self.slots
            .iter()
            .filter(|batch| batch.packets.capacity() > 0)
            .count()
    }
}

/// An iterative pre-copy migration in flight: the staged target instance is
/// warmed round by round while the source keeps serving.
struct PreCopyInFlight {
    /// The model-checked protocol machine this migration is an execution of.
    /// Every phase change below goes through [`HandoverState::step`], so the
    /// engine cannot drift from the exhaustively checked transition relation
    /// (see `pam-protocol`).
    protocol: HandoverState,
    nf_index: usize,
    from: Device,
    to: Device,
    started_at: SimTime,
    /// The target-side instance accumulating snapshot + deltas.
    target: Box<dyn NetworkFunction>,
    rounds: Vec<MigrationRound>,
    total_bytes: ByteSize,
    total_flows: usize,
    /// Link-level handle of the round transfer currently in flight. Under
    /// the fair-sharing link model the round's arrival is re-planned when
    /// foreground DMA traffic steals bandwidth; under FIFO-fixed the poll
    /// always confirms the provisional arrival, byte-identically.
    transfer: TransferToken,
    /// When the in-flight round's transfer was admitted, so the recorded
    /// round duration reflects the *actual* (possibly contended) span.
    round_booked_at: SimTime,
}

/// The packet-level service-chain runtime.
///
/// The `Debug` representation is intentionally shallow (placement, counters
/// and clock) — the full state includes boxed vNFs and histograms.
pub struct ChainRuntime {
    config: RuntimeConfig,
    spec: ServiceChainSpec,
    instances: Vec<VnfInstance>,
    /// One doorbell staging buffer per chain hop.
    stages: Vec<HopStage>,
    /// Every batch's packets (zero-allocation steady state).
    pool: BatchPool,
    /// Scratch: per-packet verdicts of the batch being serviced.
    verdict_scratch: Vec<NfVerdict>,
    nic: ComputeDevice,
    cpu: ComputeDevice,
    pcie: PcieLink,
    registry: MetricsRegistry,
    id_gen: InstanceIdGen,
    events: EventQueue<RuntimeEvent>,

    now: SimTime,
    pending: Option<(SimTime, Packet)>,
    /// At most one pre-copy migration runs at a time.
    pre_copy: Option<PreCopyInFlight>,
    /// When set, every delivered packet's `(id, egress flow)` is appended in
    /// delivery order (tests use this to check per-flow ordering).
    egress_log: Option<Vec<(u64, u64)>>,

    // Whole-run accounting.
    injected: u64,
    delivered: u64,
    delivered_bytes: u64,
    drops_overload: u64,
    drops_policy: u64,
    drops_migration: u64,
    latency_total: LatencyHistogram,
    migrations: Vec<MigrationReport>,
    aborted_migrations: u64,
    /// Subset of `aborted_migrations` rolled back because the *target*
    /// crashed mid-copy (fault injection drives this arc).
    target_crashes: u64,

    // Explicit measurement window (experiments).
    latency_window: LatencyHistogram,
    delivered_meter: ThroughputMeter,
    offered_meter: ThroughputMeter,

    // Metrics-publication window (control plane).
    next_metrics_at: SimTime,
    bytes_injected_since_publish: u64,
    bytes_delivered_since_publish: u64,
    last_publish_at: SimTime,
}

impl std::fmt::Debug for ChainRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainRuntime")
            .field("chain", &self.spec.name)
            .field("now", &self.now)
            .field("placement", &self.placement())
            .field("injected", &self.injected)
            .field("delivered", &self.delivered)
            .finish()
    }
}

impl ChainRuntime {
    /// Builds a runtime for `spec`, placing each position according to
    /// `placement` and deriving timing from the profiles in `config`.
    pub fn new(
        spec: ServiceChainSpec,
        placement: &Placement,
        config: RuntimeConfig,
    ) -> Result<Self> {
        if placement.len() != spec.len() {
            return Err(PamError::config(format!(
                "placement covers {} positions but the chain has {}",
                placement.len(),
                spec.len()
            )));
        }
        let id_gen = InstanceIdGen::new();
        let mut instances = Vec::with_capacity(spec.len());
        for position in spec.positions() {
            let kind = position.spec.kind;
            let profile = *config.catalog.require(kind)?;
            let device = placement.device_of(position.id)?;
            instances.push(VnfInstance::new(
                id_gen.next_id(),
                position.id,
                kind,
                build_nf(&position.spec),
                device,
                profile,
            ));
        }
        let metrics_interval = config.metrics_interval;
        let mut pool = BatchPool::new(config.batch.max_batch.max(1));
        let stages = (0..instances.len())
            .map(|_| HopStage {
                batch: pool.alloc(),
                seq: 0,
            })
            .collect();
        Ok(ChainRuntime {
            stages,
            pool,
            verdict_scratch: Vec::new(),
            nic: ComputeDevice::new(config.nic),
            cpu: ComputeDevice::new(config.cpu),
            pcie: PcieLink::new(config.pcie),
            registry: MetricsRegistry::new(),
            id_gen,
            events: EventQueue::new(),
            config,
            spec,
            instances,
            now: SimTime::ZERO,
            pending: None,
            pre_copy: None,
            egress_log: None,
            injected: 0,
            delivered: 0,
            delivered_bytes: 0,
            drops_overload: 0,
            drops_policy: 0,
            drops_migration: 0,
            latency_total: LatencyHistogram::new(),
            migrations: Vec::new(),
            aborted_migrations: 0,
            target_crashes: 0,
            latency_window: LatencyHistogram::new(),
            delivered_meter: ThroughputMeter::new(),
            offered_meter: ThroughputMeter::new(),
            next_metrics_at: SimTime::ZERO + metrics_interval,
            bytes_injected_since_publish: 0,
            bytes_delivered_since_publish: 0,
            last_publish_at: SimTime::ZERO,
        })
    }

    /// The chain specification this runtime executes.
    pub fn spec(&self) -> &ServiceChainSpec {
        &self.spec
    }

    /// The configuration this runtime was built from.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Total per-flow state entries currently held across all instances
    /// (drives cross-server state-handoff sizing in the fleet layer).
    pub fn stateful_flow_entries(&self) -> usize {
        self.instances.iter().map(|i| i.nf.flow_count()).sum()
    }

    /// The metrics registry the control plane polls.
    pub fn registry(&self) -> MetricsRegistry {
        self.registry.clone()
    }

    /// The current simulation time (the ingress time of the last packet).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events ever scheduled on this runtime's queue (packet arrivals,
    /// batches, doorbells, migration rounds) — the denominator of the
    /// simulator's events/second throughput figure.
    pub fn events_scheduled(&self) -> u64 {
        self.events.scheduled_total()
    }

    /// The current placement of every chain position.
    pub fn placement(&self) -> Placement {
        Placement::from_devices(self.instances.iter().map(|i| i.device).collect())
    }

    /// The analytical chain model corresponding to this runtime (descriptor
    /// per position, built from the same capacity profiles), so planners in
    /// `pam-core` reason about exactly the chain being simulated.
    pub fn chain_model(&self) -> ChainModel {
        let vnfs = self
            .instances
            .iter()
            .map(|inst| {
                VnfDescriptor::new(
                    inst.nf_id,
                    inst.kind.name(),
                    inst.profile.nic_capacity,
                    inst.profile.cpu_capacity,
                )
                .with_load_factor(inst.profile.load_factor)
                .with_latencies(inst.profile.nic_latency, inst.profile.cpu_latency)
            })
            .collect();
        ChainModel::new(&self.spec.name, self.spec.ingress, self.spec.egress, vnfs)
    }

    /// Per-instance views (for reporting).
    pub fn instances(&self) -> &[VnfInstance] {
        &self.instances
    }

    /// Submits one packet at its ingress time: the packet is accounted as
    /// offered and its first hop is scheduled. Call [`ChainRuntime::drain_until`]
    /// (or one of the `run_*` helpers) to actually advance the data plane.
    pub fn submit(&mut self, send_time: SimTime, packet: Packet) {
        self.injected += 1;
        let size = packet.size();
        self.offered_meter.record(size);
        self.bytes_injected_since_publish += size.as_bytes();

        // The first device arrival happens after the ingress-side PCIe
        // crossing, if the first hop lives on the other side of the link.
        let mut packet = packet;
        let mut arrival = send_time;
        if let Some(first) = self.instances.first() {
            let ingress_side = self.spec.ingress.side();
            let target_side = first.device.side();
            if ingress_side != target_side {
                arrival = self.cross(arrival, size, target_side);
                packet.record_crossing();
            }
        }
        self.schedule_single(arrival, 0, packet, SimDuration::ZERO);
    }

    /// Schedules `packet` to arrive at hop `hop`'s device at `at` as a batch
    /// of one.
    fn schedule_single(&mut self, at: SimTime, hop: usize, packet: Packet, pipeline: SimDuration) {
        let id = self.pool.alloc();
        self.pool.slot_mut(id).push(packet, pipeline);
        self.events.schedule(
            at,
            RuntimeEvent::Batch {
                hop: hop as u32,
                id,
            },
        );
    }

    /// Processes every scheduled hop event up to and including `until`,
    /// advancing the simulated clock. Events are handled in global time
    /// order, so the shared device processors see arrivals exactly as the
    /// real hardware would.
    pub fn drain_until(&mut self, until: SimTime) {
        while let Some(next) = self.events.peek_time() {
            if next > until {
                break;
            }
            let Some((now, event)) = self.events.pop() else {
                unreachable!("peeked event must pop");
            };
            self.now = self.now.max(now);
            match event {
                RuntimeEvent::Batch { hop, id } => {
                    let mut batch = self.pool.take(id);
                    for (packet, pipeline) in batch.packets.drain(..).zip(batch.pipelines.drain(..))
                    {
                        self.handle_arrival(now, hop as usize, packet, pipeline);
                    }
                    self.pool.release(id, batch);
                }
                RuntimeEvent::Doorbell { hop, seq } => {
                    let stage = &self.stages[hop as usize];
                    if stage.seq == seq && !self.pool.is_empty(stage.batch) {
                        self.close_batch(now, hop as usize);
                    }
                }
                RuntimeEvent::MigrationRound => self.on_migration_round(now),
            }
            if self.now >= self.next_metrics_at {
                self.publish_metrics();
            }
        }
    }

    /// Counts one packet dropped during the blackout ending at `until` and
    /// attributes it to the migration that owns that blackout. Usually the
    /// most recent report, but a multi-move stop-and-copy plan pauses several
    /// instances with overlapping windows, so scan backwards for the report
    /// whose pause this is.
    fn drop_for_blackout(&mut self, until: SimTime) {
        self.drops_migration += 1;
        if let Some(migration) = self
            .migrations
            .iter_mut()
            .rev()
            .find(|m| m.completed_at == until)
        {
            migration.packets_dropped += 1;
        }
    }

    /// Handles one packet arriving at the device of chain hop `index` at
    /// time `now`: the packet either waits out (or is dropped by) a
    /// migration blackout, or joins the hop's open doorbell batch.
    fn handle_arrival(
        &mut self,
        now: SimTime,
        index: usize,
        packet: Packet,
        pipeline: SimDuration,
    ) {
        // Migration blackout: wait (bounded) for the instance to resume by
        // re-scheduling the arrival at the blackout end.
        if let Some(until) = self.instances[index].paused_until {
            if now < until {
                let wait = until.duration_since(now);
                if wait > self.config.migration_buffer_bound {
                    self.drop_for_blackout(until);
                    return;
                }
                // Held packets re-fire at the blackout end; equal-time events
                // pop in scheduling order, so per-flow ordering is preserved
                // across the handover.
                self.schedule_single(until, index, packet, pipeline);
                return;
            }
        }

        // Stage into the hop's open batch; the doorbell rings (the batch is
        // serviced) on size or on timeout, whichever comes first. With
        // `max_batch = 1` the batch closes right here and the packet is
        // serviced at its arrival instant, exactly like the unbatched
        // datapath.
        let stage = &self.stages[index];
        let staged = self.pool.slot_mut(stage.batch);
        staged.push(packet, pipeline);
        let staged = staged.packets.len();
        if staged >= self.config.batch.max_batch.max(1) {
            self.close_batch(now, index);
        } else if staged == 1 {
            let seq = stage.seq;
            self.events.schedule(
                now + self.config.batch.max_wait,
                RuntimeEvent::Doorbell {
                    hop: index as u32,
                    seq,
                },
            );
        }
    }

    /// Applies the blackout policy to the packets of batch `id` (detached as
    /// `batch`) awaiting service at a paused hop: each packet waits out the
    /// blackout — re-firing at its end, in the order the packets are given —
    /// or is dropped when the wait exceeds the staging-buffer bound.
    fn hold_or_drop_for_blackout(
        &mut self,
        hop: usize,
        id: u32,
        mut batch: Batch,
        now: SimTime,
        until: SimTime,
    ) {
        if until.duration_since(now) > self.config.migration_buffer_bound {
            for _ in &batch.packets {
                self.drop_for_blackout(until);
            }
        } else {
            for (packet, pipeline) in batch.packets.drain(..).zip(batch.pipelines.drain(..)) {
                self.schedule_single(until, hop, packet, pipeline);
            }
        }
        self.pool.release(id, batch);
    }

    /// Flushes hop `index`'s open batch into the blackout policy the moment
    /// its instance pauses (both migration paths call this right after
    /// setting `paused_until`). Staged packets arrived *before* the pause, so
    /// they must keep their arrival-order priority over packets that arrive
    /// during the blackout — letting the doorbell fire mid-blackout instead
    /// would re-queue them at the blackout end *behind* later same-flow
    /// arrivals and reorder the flow.
    fn flush_stage_for_pause(&mut self, index: usize, now: SimTime, until: SimTime) {
        if self.pool.is_empty(self.stages[index].batch) {
            return;
        }
        let id = self.take_stage(index);
        let batch = self.pool.take(id);
        self.hold_or_drop_for_blackout(index, id, batch, now, until);
    }

    /// Detaches hop `index`'s open batch — returning its pool id — against a
    /// fresh empty one, and bumps the stage's batch identity.
    fn take_stage(&mut self, index: usize) -> u32 {
        let fresh = self.pool.alloc();
        let stage = &mut self.stages[index];
        stage.seq += 1;
        std::mem::replace(&mut stage.batch, fresh)
    }

    /// Rings the doorbell of hop `index`: services the staged batch on the
    /// hop's device, runs the vNF over the whole batch, and forwards the
    /// survivors together (one coalesced DMA burst when the next hop sits on
    /// the other side of the PCIe link).
    fn close_batch(&mut self, now: SimTime, index: usize) {
        let id = self.take_stage(index);
        let mut batch = self.pool.take(id);
        if batch.packets.is_empty() {
            self.pool.release(id, batch);
            return;
        }

        // Defensive: migrations flush a hop's open batch the moment they
        // pause it (see [`ChainRuntime::flush_stage_for_pause`]), so a batch
        // can only close on a paused instance if a future pause path forgets
        // that flush. Apply the blackout policy rather than servicing a
        // paused vNF.
        if let Some(until) = self.instances[index].paused_until {
            if now < until {
                self.hold_or_drop_for_blackout(index, id, batch, now, until);
                return;
            }
        }

        // Device queueing + service on the hop's shared processor: the whole
        // batch is offered back-to-back at the doorbell instant and the batch
        // completes when its last accepted packet does. Fixed pipeline
        // latency is experienced by each packet but does not occupy the
        // device (deep pipelines keep serving other packets), so it
        // accumulates on the packet rather than delaying later hops'
        // queueing. Rejected packets are compacted out in place (two-pointer
        // swap, order-preserving for the accepted ones).
        let device_kind = self.instances[index].device;
        let pipeline_latency = self.instances[index].pipeline_latency();
        let Batch { packets, pipelines } = &mut batch;
        let mut batch_finish = now;
        let mut keep = 0;
        for i in 0..packets.len() {
            let size = packets[i].size();
            let service = self.instances[index].memoised_service_time(size);
            let device = match device_kind {
                Device::SmartNic => &mut self.nic,
                Device::Cpu => &mut self.cpu,
            };
            match device.process(now, size, service) {
                ProcessOutcome::Rejected => self.drops_overload += 1,
                ProcessOutcome::Accepted { finish, .. } => {
                    batch_finish = batch_finish.max(finish);
                    if keep != i {
                        packets.swap(keep, i);
                        pipelines.swap(keep, i);
                    }
                    pipelines[keep] += pipeline_latency;
                    keep += 1;
                }
            }
        }
        packets.truncate(keep);
        pipelines.truncate(keep);
        if packets.is_empty() {
            self.pool.release(id, batch);
            return;
        }

        // The vNF's own logic on the real packet bytes, over the whole batch,
        // in place. This is the datapath's single NfContext construction:
        // `now` is the device clock at batch service completion, shared by
        // every packet of the batch (for a batch of one it is that packet's
        // service finish). The verdicts land in a reused scratch buffer and
        // policy drops are compacted out in place, so the whole service path
        // stays inside recycled capacity.
        let ctx = NfContext::at(batch_finish);
        self.verdict_scratch.clear();
        self.instances[index]
            .nf
            .process_batch_into(packets, &ctx, &mut self.verdict_scratch);
        self.instances[index].processed += packets.len() as u64;
        let mut policy_drops = 0u64;
        let mut keep = 0;
        for i in 0..packets.len() {
            packets[i].record_hop();
            if self.verdict_scratch[i] == NfVerdict::Drop {
                policy_drops += 1;
            } else {
                if keep != i {
                    packets.swap(keep, i);
                    pipelines.swap(keep, i);
                }
                keep += 1;
            }
        }
        packets.truncate(keep);
        pipelines.truncate(keep);
        self.instances[index].policy_drops += policy_drops;
        self.drops_policy += policy_drops;
        if packets.is_empty() {
            self.pool.release(id, batch);
            return;
        }

        let current_side = device_kind.side();
        if index + 1 < self.instances.len() {
            // Forward the surviving batch to the next hop, paying a single
            // coalesced DMA burst if it changes sides.
            let next_side = self.instances[index + 1].device.side();
            let mut arrival = batch_finish;
            if current_side != next_side {
                arrival = self.cross_burst(batch_finish, packets, next_side);
            }
            self.pool.restore(id, batch);
            self.events.schedule(
                arrival,
                RuntimeEvent::Batch {
                    hop: (index + 1) as u32,
                    id,
                },
            );
        } else {
            // Egress: pay a final burst crossing if the egress endpoint is on
            // the other side, then record deliveries in batch order.
            let egress_side = self.spec.egress.side();
            let mut done = batch_finish;
            if current_side != egress_side {
                done = self.cross_burst(batch_finish, packets, egress_side);
            }
            for (packet, pipeline) in packets.drain(..).zip(pipelines.drain(..)) {
                let size = packet.size();
                let latency = done.duration_since(packet.ingress_time) + pipeline;
                if let Some(log) = &mut self.egress_log {
                    log.push((packet.id, packet.flow_id().raw()));
                }
                self.delivered += 1;
                self.delivered_bytes += size.as_bytes();
                self.bytes_delivered_since_publish += size.as_bytes();
                // One bucket lookup for the three histograms this feeds.
                let sample = LatencySample::from(latency);
                self.latency_total.record(sample);
                self.latency_window.record(sample);
                self.registry.record_latency(sample);
                self.delivered_meter.record(size);
            }
            self.pool.release(id, batch);
        }
    }

    /// Performs a PCIe crossing towards `target_side` starting at `now` and
    /// returns the arrival time on the far side.
    fn cross(&mut self, now: SimTime, size: pam_types::ByteSize, target_side: Side) -> SimTime {
        let direction = if target_side == Side::Host {
            LinkDirection::NicToCpu
        } else {
            LinkDirection::CpuToNic
        };
        self.pcie.propagate(now, size, direction)
    }

    /// Crosses a whole batch towards `target_side` as one coalesced DMA
    /// burst starting at `now`, recording the crossing on every packet, and
    /// returns the burst's arrival time on the far side.
    fn cross_burst(&mut self, now: SimTime, batch: &mut [Packet], target_side: Side) -> SimTime {
        let direction = if target_side == Side::Host {
            LinkDirection::NicToCpu
        } else {
            LinkDirection::CpuToNic
        };
        let mut total = 0u64;
        for packet in batch.iter_mut() {
            total += packet.size().as_bytes();
            packet.record_crossing();
        }
        self.pcie.propagate_burst(
            now,
            batch.len() as u64,
            pam_types::ByteSize::bytes(total),
            direction,
        )
    }

    /// Convenience for tests and examples: submits a single packet and runs
    /// the data plane until it has fully left the chain, returning what
    /// happened to it. (With other packets still in flight the attribution is
    /// by counter difference, so this is intended for one-packet-at-a-time
    /// use.)
    pub fn inject(&mut self, send_time: SimTime, packet: Packet) -> PacketOutcome {
        let delivered_before = self.delivered;
        let overload_before = self.drops_overload;
        let policy_before = self.drops_policy;
        let migration_before = self.drops_migration;
        let latency_count_before = self.latency_total.count();
        let mean_before = self.latency_total.mean();

        self.submit(send_time, packet);
        self.drain_until(SimTime::MAX);

        if self.delivered > delivered_before {
            // Recover this packet's latency from the histogram delta.
            let count = self.latency_total.count();
            let total_after = self.latency_total.mean().as_nanos() as u128 * u128::from(count);
            let total_before = mean_before.as_nanos() as u128 * u128::from(latency_count_before);
            let latency = SimDuration::from_nanos(
                (total_after.saturating_sub(total_before)
                    / u128::from(count - latency_count_before)) as u64,
            );
            PacketOutcome::Delivered { latency }
        } else if self.drops_policy > policy_before {
            PacketOutcome::DroppedPolicy
        } else if self.drops_overload > overload_before {
            PacketOutcome::DroppedOverload
        } else if self.drops_migration > migration_before {
            PacketOutcome::DroppedMigration
        } else {
            // The packet is still waiting on a paused instance; treat it as
            // in flight (it will complete on the next drain).
            PacketOutcome::DroppedMigration
        }
    }

    /// Runs the trace until (and including) packets sent at `until`,
    /// interleaving packet submission with hop processing in time order.
    /// Returns the number of packets submitted.
    pub fn run_until(&mut self, trace: &mut TraceSynthesizer, until: SimTime) -> u64 {
        let mut submitted = 0;
        loop {
            if self.pending.is_none() {
                self.pending = trace.next_packet();
            }
            match &self.pending {
                Some((send_time, _)) if *send_time <= until => {
                    let send_time = *send_time;
                    // Process everything scheduled before this packet enters.
                    self.drain_until(send_time);
                    let Some((send_time, packet)) = self.pending.take() else {
                        unreachable!("pending checked");
                    };
                    self.now = self.now.max(send_time);
                    self.submit(send_time, packet);
                    submitted += 1;
                }
                _ => break,
            }
        }
        self.drain_until(until);
        submitted
    }

    /// Runs the trace to exhaustion and drains every in-flight packet.
    pub fn run_to_completion(&mut self, trace: &mut TraceSynthesizer) -> u64 {
        self.run_until(trace, SimTime::MAX)
    }

    /// Live-migrates the vNF at `nf` to `device` using the configured
    /// [`MigrationMode`].
    ///
    /// * **Stop-and-copy** completes synchronously: pause, export state,
    ///   transfer it over PCIe, import on the target, resume. The returned
    ///   report is final and also recorded in [`RunOutcome::migrations`].
    /// * **Pre-copy** only *starts* here: the snapshot round is booked on the
    ///   link and later rounds run as events interleaved with the data plane,
    ///   so the source keeps serving. The returned report describes the
    ///   initiation (`completed_at == started_at`, zero blackout); the
    ///   authoritative completed report is appended to
    ///   [`RunOutcome::migrations`] when the handover finishes.
    ///
    /// Traffic arriving during any blackout waits (bounded) or is dropped.
    pub fn live_migrate(
        &mut self,
        nf: NfId,
        device: Device,
        now: SimTime,
    ) -> Result<MigrationReport> {
        match self.config.migration.mode {
            MigrationMode::StopAndCopy => self.stop_and_copy_migrate(nf, device, now),
            MigrationMode::PreCopy => self.start_pre_copy(nf, device, now),
        }
    }

    /// Validates that position `nf` exists and may start migrating to
    /// `device` at `now`; returns its index.
    fn check_migratable(&self, nf: NfId, device: Device, now: SimTime) -> Result<usize> {
        let index = nf.index();
        if index >= self.instances.len() {
            return Err(PamError::UnknownNf(nf));
        }
        if let Some(pre_copy) = &self.pre_copy {
            return Err(PamError::state(format!(
                "{} is still pre-copying; only one migration may run at a time",
                self.instances[pre_copy.nf_index].nf_id
            )));
        }
        let instance = &self.instances[index];
        if instance.device == device {
            return Err(PamError::state(format!("{nf} already runs on {device}")));
        }
        if instance.is_paused(now) {
            return Err(PamError::state(format!("{nf} is already migrating")));
        }
        Ok(index)
    }

    /// The link direction a transfer towards `device` takes.
    fn transfer_direction(device: Device) -> LinkDirection {
        match device {
            Device::Cpu => LinkDirection::NicToCpu,
            Device::SmartNic => LinkDirection::CpuToNic,
        }
    }

    /// The classic OpenNF stop-and-copy transfer (see [`ChainRuntime::live_migrate`]).
    ///
    /// The whole handover happens within this call, but every phase change
    /// still goes through the model-checked machine: `Start` must yield the
    /// freeze (export-everything + pause) and `FreezeDelivered` must yield
    /// the activation, or the engine refuses to proceed.
    fn stop_and_copy_migrate(
        &mut self,
        nf: NfId,
        device: Device,
        now: SimTime,
    ) -> Result<MigrationReport> {
        let index = self.check_migratable(nf, device, now)?;
        let protocol = HandoverState::new(self.config.migration.protocol());
        let (protocol, actions) = protocol
            .step(HandoverEvent::Start)
            .map_err(|e| PamError::state(e.to_string()))?;
        debug_assert!(actions.contains(HandoverAction::ExportFull));
        debug_assert!(actions.contains(HandoverAction::PauseSource));
        let (from, kind, state, flows) = {
            let instance = &self.instances[index];
            (
                instance.device,
                instance.kind,
                instance.nf.export_state(),
                instance.nf.flow_count(),
            )
        };

        let state_size = state_transfer_size(
            state.estimated_size,
            self.config.state_overhead_per_flow,
            flows,
        );

        // Restore the target instance before booking the PCIe transfer: a
        // rejected state blob must abort the migration without leaving a
        // phantom transfer on the link.
        let mut target_nf = match pam_nf::restore_kind(kind, state) {
            Ok(target_nf) => target_nf,
            Err(error) => {
                // The machine's rollback arc: a rejected blob during the
                // freeze discards the target and resumes the source (which,
                // here, was never visibly paused — the freeze is atomic
                // within this call).
                let (aborted, rollback) = protocol
                    .step(HandoverEvent::DeltaRejected)
                    .map_err(|e| PamError::state(e.to_string()))?;
                debug_assert_eq!(aborted.phase, Phase::Aborted);
                debug_assert!(rollback.contains(HandoverAction::ResumeSource));
                self.aborted_migrations += 1;
                return Err(error);
            }
        };
        target_nf.clear_dirty();

        let transfer_done = self
            .pcie
            .transfer(now, state_size, Self::transfer_direction(device));
        let completed_at = transfer_done + self.config.migration_control_overhead;

        // The freeze payload "arrives" at `completed_at`; the activation is
        // modelled by installing the target now and keeping the instance
        // paused until then.
        let (protocol, actions) = protocol
            .step(HandoverEvent::FreezeDelivered)
            .map_err(|e| PamError::state(e.to_string()))?;
        debug_assert_eq!(protocol.phase, Phase::Done);
        debug_assert!(actions.contains(HandoverAction::ActivateTarget));

        let instance = &mut self.instances[index];
        instance.nf = target_nf;
        instance.device = device;
        instance.id = self.id_gen.next_id();
        instance.paused_until = Some(completed_at);

        let report = MigrationReport {
            nf,
            from,
            to: device,
            mode: MigrationMode::StopAndCopy,
            started_at: now,
            paused_at: now,
            completed_at,
            state_size,
            flows_transferred: flows,
            residual_dirty_flows: flows,
            rounds: vec![MigrationRound {
                round: 1,
                flows,
                bytes: state_size,
                duration: transfer_done.duration_since(now),
            }],
            packets_dropped: 0,
        };
        self.migrations.push(report.clone());
        // After the report is recorded, so flushed-batch drops attribute to it.
        self.flush_stage_for_pause(index, now, completed_at);
        Ok(report)
    }

    /// Starts an iterative pre-copy migration: books the snapshot round on
    /// the link and schedules the first round-completion event. The source
    /// keeps serving until the final freeze (see
    /// [`ChainRuntime::on_migration_round`]).
    fn start_pre_copy(
        &mut self,
        nf: NfId,
        device: Device,
        now: SimTime,
    ) -> Result<MigrationReport> {
        let index = self.check_migratable(nf, device, now)?;
        let protocol = HandoverState::new(self.config.migration.protocol());
        let (protocol, actions) = protocol
            .step(HandoverEvent::Start)
            .map_err(|e| PamError::state(e.to_string()))?;
        debug_assert_eq!(protocol.phase, Phase::Snapshot);
        debug_assert!(actions.contains(HandoverAction::ExportFull));
        // The source keeps serving through the snapshot: the machine must
        // not have asked for a pause.
        debug_assert!(!actions.contains(HandoverAction::PauseSource));
        let (from, kind, state, flows) = {
            let instance = &self.instances[index];
            (
                instance.device,
                instance.kind,
                instance.nf.export_state(),
                instance.nf.flow_count(),
            )
        };

        let bytes = state_transfer_size(
            state.estimated_size,
            self.config.state_overhead_per_flow,
            flows,
        );

        // Stage the target instance from the snapshot before booking the
        // transfer, so a rejected blob aborts cleanly (as in stop-and-copy).
        let mut target = match pam_nf::restore_kind(kind, state) {
            Ok(target) => target,
            Err(error) => {
                let (aborted, rollback) = protocol
                    .step(HandoverEvent::DeltaRejected)
                    .map_err(|e| PamError::state(e.to_string()))?;
                debug_assert_eq!(aborted.phase, Phase::Aborted);
                debug_assert!(rollback.contains(HandoverAction::DiscardTarget));
                self.aborted_migrations += 1;
                return Err(error);
            }
        };
        target.clear_dirty();
        // Every mutation from here on belongs to the next round's delta.
        self.instances[index].nf.clear_dirty();

        let (transfer, transfer_done) =
            self.pcie
                .begin_transfer(now, bytes, Self::transfer_direction(device));
        let snapshot_round = MigrationRound {
            round: 1,
            flows,
            bytes,
            duration: transfer_done.duration_since(now),
        };
        self.events
            .schedule(transfer_done, RuntimeEvent::MigrationRound);
        self.pre_copy = Some(PreCopyInFlight {
            protocol,
            nf_index: index,
            from,
            to: device,
            started_at: now,
            target,
            rounds: vec![snapshot_round],
            total_bytes: bytes,
            total_flows: flows,
            transfer,
            round_booked_at: now,
        });

        // Initiation record: no blackout yet, nothing frozen. The completed
        // report (with rounds, residual and real blackout) lands in
        // `RunOutcome::migrations` at handover.
        Ok(MigrationReport {
            nf,
            from,
            to: device,
            mode: MigrationMode::PreCopy,
            started_at: now,
            paused_at: now,
            completed_at: now,
            state_size: bytes,
            flows_transferred: flows,
            residual_dirty_flows: flows,
            rounds: vec![snapshot_round],
            packets_dropped: 0,
        })
    }

    /// One pre-copy round finished its transfer at `now`. The machine
    /// decides what happens next from the dirty count: export another round
    /// ([`Phase::DirtyRound`]), freeze the residual and hand over
    /// ([`Phase::Freeze`]), or — at the round cap under
    /// [`crate::migration::DivergencePolicy::Abort`] — roll the whole
    /// migration back ([`Phase::Aborted`]). This function only interprets
    /// the machine's actions; the transition logic itself lives in
    /// `pam-protocol`, where it is exhaustively model-checked.
    fn on_migration_round(&mut self, now: SimTime) {
        let Some(mut pre_copy) = self.pre_copy.take() else {
            // The migration was aborted; the stale round event is a no-op.
            return;
        };
        match self.pcie.poll_transfer(pre_copy.transfer, now) {
            TransferStatus::InFlight(eta) => {
                // Foreground DMA traffic stole link bandwidth since the round
                // was admitted (fair-sharing model only): the provisional
                // arrival this event fired at is stale. Re-plan the round's
                // completion at the link's revised arrival instant.
                self.events.schedule(eta, RuntimeEvent::MigrationRound);
                self.pre_copy = Some(pre_copy);
                return;
            }
            TransferStatus::Complete => {
                // The round really delivered at `now`. Under fair sharing the
                // datapath may have stretched it past the duration booked at
                // admission; under FIFO-fixed this rewrite is the identity.
                if let Some(round) = pre_copy.rounds.last_mut() {
                    round.duration = now.duration_since(pre_copy.round_booked_at);
                }
            }
        }
        let index = pre_copy.nf_index;
        let dirty = self.instances[index].nf.dirty_flow_count();
        let Ok((protocol, actions)) = pre_copy
            .protocol
            .step(HandoverEvent::RoundDelivered { dirty })
        else {
            // Unreachable while `pre_copy` is only stored in a serving-round
            // phase; dropping it (= abort) is the safe response regardless.
            self.aborted_migrations += 1;
            return;
        };
        pre_copy.protocol = protocol;

        if actions.contains(HandoverAction::DiscardTarget) {
            // Round cap without convergence under the abort policy: discard
            // the staged target. The source never paused and stays
            // authoritative, so the blackout bound survives divergence.
            debug_assert_eq!(protocol.phase, Phase::Aborted);
            self.aborted_migrations += 1;
            return;
        }

        debug_assert!(actions.contains(HandoverAction::ExportDirty));
        let delta = self.instances[index].nf.export_dirty_state();
        self.instances[index].nf.clear_dirty();
        let bytes = state_transfer_size(
            delta.estimated_size,
            self.config.state_overhead_per_flow,
            dirty,
        );
        if pre_copy.target.import_dirty_state(delta).is_err() {
            // A corrupt delta aborts the migration: the source was never
            // paused and stays authoritative; the staged target is dropped.
            let rollback = pre_copy.protocol.step(HandoverEvent::DeltaRejected);
            debug_assert!(matches!(
                rollback,
                Ok((
                    HandoverState {
                        phase: Phase::Aborted,
                        ..
                    },
                    _
                ))
            ));
            self.aborted_migrations += 1;
            return;
        }
        // The freeze round keeps this arrival as committed (the contention
        // known now is priced in; the source is paused, so re-planning it
        // would only trade blackout accounting for event churn). A dirty
        // round's token is polled — and re-planned — when the event fires.
        let (transfer, transfer_done) =
            self.pcie
                .begin_transfer(now, bytes, Self::transfer_direction(pre_copy.to));
        pre_copy.transfer = transfer;
        pre_copy.round_booked_at = now;
        pre_copy.rounds.push(MigrationRound {
            round: pre_copy.rounds.len() as u32 + 1,
            flows: dirty,
            bytes,
            duration: transfer_done.duration_since(now),
        });
        pre_copy.total_bytes = pre_copy.total_bytes.saturating_add(bytes);
        pre_copy.total_flows += dirty;

        if !actions.contains(HandoverAction::PauseSource) {
            // Another serving round: the machine stayed in a dirty round.
            debug_assert!(matches!(pre_copy.protocol.phase, Phase::DirtyRound(_)));
            self.events
                .schedule(transfer_done, RuntimeEvent::MigrationRound);
            self.pre_copy = Some(pre_copy);
            return;
        }

        // Final freeze: the residual delta exported above is the last state
        // to move; the source pauses from `now` until the transfer (plus the
        // control-plane overhead) completes, then the target takes over.
        debug_assert_eq!(pre_copy.protocol.phase, Phase::Freeze);
        let completed_at = transfer_done + self.config.migration_control_overhead;
        let (protocol, actions) = match pre_copy.protocol.step(HandoverEvent::FreezeDelivered) {
            Ok(ok) => ok,
            Err(_) => {
                // Unreachable: `Freeze` always accepts `FreezeDelivered`.
                self.aborted_migrations += 1;
                return;
            }
        };
        debug_assert_eq!(protocol.phase, Phase::Done);
        debug_assert!(actions.contains(HandoverAction::ActivateTarget));
        let instance = &mut self.instances[index];
        let mut target = pre_copy.target;
        target.clear_dirty();
        instance.nf = target;
        instance.device = pre_copy.to;
        instance.id = self.id_gen.next_id();
        instance.paused_until = Some(completed_at);

        self.migrations.push(MigrationReport {
            nf: instance.nf_id,
            from: pre_copy.from,
            to: pre_copy.to,
            mode: MigrationMode::PreCopy,
            started_at: pre_copy.started_at,
            paused_at: now,
            completed_at,
            state_size: pre_copy.total_bytes,
            flows_transferred: pre_copy.total_flows,
            residual_dirty_flows: dirty,
            rounds: pre_copy.rounds,
            packets_dropped: 0,
        });
        // After the report is recorded, so flushed-batch drops attribute to it.
        self.flush_stage_for_pause(index, now, completed_at);
    }

    /// Aborts the in-flight pre-copy migration, if any: the staged target
    /// and every copied round are discarded and the source — which never
    /// stopped serving — stays authoritative. This is the machine's
    /// voluntary-abort arc, legal in any serving-round phase; once the
    /// engine freezes (which happens atomically with the handover here) the
    /// migration can no longer be aborted. Returns the position that was
    /// migrating, or an error when nothing is in flight.
    pub fn abort_migration(&mut self, _now: SimTime) -> Result<NfId> {
        let Some(pre_copy) = self.pre_copy.take() else {
            return Err(PamError::state(
                "no pre-copy migration is in flight".to_owned(),
            ));
        };
        let nf = self.instances[pre_copy.nf_index].nf_id;
        let (protocol, actions) = pre_copy
            .protocol
            .step(HandoverEvent::Abort)
            .map_err(|e| PamError::state(e.to_string()))?;
        debug_assert_eq!(protocol.phase, Phase::Aborted);
        debug_assert!(actions.contains(HandoverAction::DiscardTarget));
        // Dropping `pre_copy` discards the staged target; the already
        // scheduled MigrationRound event becomes a stale no-op.
        self.aborted_migrations += 1;
        Ok(nf)
    }

    /// Injects a *target crash* into the in-flight pre-copy migration, if
    /// any: the machine takes its [`HandoverEvent::TargetCrash`] arc, the
    /// staged target and every copied round are discarded, and the source —
    /// which never stopped serving, since `pre_copy` is only parked in the
    /// serving-round phases (`Snapshot`/`DirtyRound`) — stays authoritative
    /// with every acked flow intact. Fault injection calls this when the
    /// server hosting the staged target dies mid-copy. Returns the position
    /// that was migrating, or an error when nothing is in flight.
    pub fn crash_target(&mut self, _now: SimTime) -> Result<NfId> {
        let Some(pre_copy) = self.pre_copy.take() else {
            return Err(PamError::state(
                "no pre-copy migration is in flight".to_owned(),
            ));
        };
        let nf = self.instances[pre_copy.nf_index].nf_id;
        let (protocol, actions) = pre_copy
            .protocol
            .step(HandoverEvent::TargetCrash)
            .map_err(|e| PamError::state(e.to_string()))?;
        debug_assert_eq!(protocol.phase, Phase::Aborted);
        debug_assert!(actions.contains(HandoverAction::DiscardTarget));
        // The source was never frozen in these phases, so no ResumeSource is
        // required: the freeze/stop-and-copy path runs inline and atomically.
        debug_assert!(!actions.contains(HandoverAction::ResumeSource));
        self.aborted_migrations += 1;
        self.target_crashes += 1;
        Ok(nf)
    }

    /// Migrations aborted specifically by [`ChainRuntime::crash_target`]
    /// (a subset of [`RunOutcome::aborted_migrations`]).
    pub fn target_crashes(&self) -> u64 {
        self.target_crashes
    }

    /// Fault injection: takes this runtime's PCIe link down for `down_for`
    /// starting at `now`. See [`PcieLink::flap`].
    pub fn link_flap(&mut self, now: SimTime, down_for: SimDuration) {
        self.pcie.flap(now, down_for);
    }

    /// Fault injection: brings this runtime's PCIe link back from a flap at
    /// `now` without the pre-flap FIFO watermark. See
    /// [`PcieLink::recover_transport`].
    pub fn link_recover(&mut self, now: SimTime) {
        self.pcie.recover_transport(now);
    }

    /// Fault injection: scales this runtime's PCIe bandwidth by `factor`
    /// from `now` on (`1.0` restores nominal). See
    /// [`PcieLink::set_capacity_factor`].
    pub fn link_set_capacity_factor(&mut self, now: SimTime, factor: f64) {
        self.pcie.set_capacity_factor(now, factor);
    }

    /// The instant this runtime's PCIe link finishes its current flap
    /// (`SimTime::ZERO` when the link is up). Overlapping flaps extend it,
    /// so a recovery scheduled by an earlier flap can check whether a later
    /// flap superseded it. See [`PcieLink::down_until`].
    pub fn link_down_until(&self) -> SimTime {
        self.pcie.down_until()
    }

    /// True while a pre-copy migration is still iterating or any instance is
    /// paused in a blackout at `now`.
    pub fn migration_in_progress(&self, now: SimTime) -> bool {
        self.pre_copy.is_some() || self.instances.iter().any(|i| i.is_paused(now))
    }

    /// True while the pre-copy engine is iterating (its one-at-a-time rule
    /// refuses every other migration until the handover lands). A pending
    /// stop-and-copy blackout does *not* set this: stop-and-copy moves of
    /// other instances may still proceed.
    pub fn pre_copy_in_progress(&self) -> bool {
        self.pre_copy.is_some()
    }

    /// The protocol phase of the in-flight pre-copy migration, if any. Fault
    /// injection uses this to tell which crash arc a kill at `now` exercises
    /// (only the serving-round phases — `Snapshot` and `DirtyRound` — are
    /// ever parked here; freeze and handover run atomically inline).
    pub fn pre_copy_phase(&self) -> Option<Phase> {
        self.pre_copy.as_ref().map(|p| p.protocol.phase)
    }

    /// Estimates what migrating `nf` to `device` would cost under the
    /// configured mode *without* performing it. Under pre-copy the
    /// blackout-critical set is the expected residual dirty set (bounded by
    /// the convergence knob), not the total flow count — the orchestrator's
    /// cost model uses exactly this.
    pub fn estimate_migration(&self, nf: NfId, device: Device) -> Result<MigrationEstimate> {
        let index = nf.index();
        if index >= self.instances.len() {
            return Err(PamError::UnknownNf(nf));
        }
        let instance = &self.instances[index];
        if instance.device == device {
            return Err(PamError::state(format!("{nf} already runs on {device}")));
        }
        let flows = instance.nf.flow_count();
        let mode = self.config.migration.mode;
        let frozen_flows = match mode {
            MigrationMode::StopAndCopy => flows,
            MigrationMode::PreCopy => flows.min(self.config.migration.convergence_flows),
        };
        Ok(MigrationEstimate::new(
            mode,
            flows,
            frozen_flows,
            self.config.state_overhead_per_flow,
            self.pcie.config().bandwidth,
            self.pcie.crossing_latency(),
            self.config.migration_control_overhead,
        ))
    }

    /// Starts recording every delivered packet's `(id, egress flow)` pair in
    /// delivery order (see [`ChainRuntime::egress_log`]).
    pub fn record_egress(&mut self) {
        self.egress_log = Some(Vec::new());
    }

    /// The recorded egress log (empty unless [`ChainRuntime::record_egress`]
    /// was called).
    pub fn egress_log(&self) -> &[(u64, u64)] {
        self.egress_log.as_deref().unwrap_or(&[])
    }

    /// Publishes a metrics snapshot to the registry (also called
    /// automatically every `metrics_interval` of packet time).
    pub fn publish_metrics(&mut self) {
        let now = self.now;
        let elapsed = now.duration_since(self.last_publish_at).as_secs_f64();
        let (offered, delivered) = if elapsed > 0.0 {
            (
                Gbps::from_bytes_per_sec(self.bytes_injected_since_publish as f64 / elapsed),
                Gbps::from_bytes_per_sec(self.bytes_delivered_since_publish as f64 / elapsed),
            )
        } else {
            (Gbps::ZERO, Gbps::ZERO)
        };

        // Updated in place: after the first publication this allocates
        // nothing (the device keys already exist).
        let mean_latency = self.latency_window.mean();
        let total_drops = self.drops_overload + self.drops_policy + self.drops_migration;
        let total_delivered = self.delivered;
        let (nic, cpu) = (self.nic.utilisation(now), self.cpu.utilisation(now));
        self.registry.update(|metrics| {
            metrics.updated_at = now;
            metrics.offered_load = offered;
            metrics.delivered_load = delivered;
            metrics.mean_latency = mean_latency;
            metrics.total_drops = total_drops;
            metrics.total_delivered = total_delivered;
            metrics.set_utilisation(Device::SmartNic, nic);
            metrics.set_utilisation(Device::Cpu, cpu);
        });

        self.bytes_injected_since_publish = 0;
        self.bytes_delivered_since_publish = 0;
        self.last_publish_at = now;
        self.nic.start_window(now);
        self.cpu.start_window(now);
        self.next_metrics_at = now + self.config.metrics_interval;
    }

    /// Starts a fresh measurement window at `now` (latency and throughput
    /// figures reported by [`ChainRuntime::measure`] cover only this window).
    pub fn start_measurement(&mut self, now: SimTime) {
        self.latency_window.reset();
        self.delivered_meter.start_window(now);
        self.offered_meter.start_window(now);
    }

    /// Reports the current measurement window, ending at `now`.
    pub fn measure(&self, now: SimTime) -> WindowReport {
        WindowReport {
            mean_latency: self.latency_window.mean(),
            p99_latency: self.latency_window.p99(),
            delivered: self.delivered_meter.throughput(now),
            offered: self.offered_meter.throughput(now),
            delivered_packets: self.delivered_meter.packets(),
        }
    }

    /// Aggregate results over the whole run so far.
    pub fn outcome(&self) -> RunOutcome {
        let elapsed = self.now.as_secs_f64();
        let delivered_throughput = if elapsed > 0.0 {
            Gbps::from_bytes_per_sec(self.delivered_bytes as f64 / elapsed)
        } else {
            Gbps::ZERO
        };
        RunOutcome {
            injected: self.injected,
            delivered: self.delivered,
            drops_overload: self.drops_overload,
            drops_policy: self.drops_policy,
            drops_migration: self.drops_migration,
            mean_latency: self.latency_total.mean(),
            p50_latency: self.latency_total.p50(),
            p99_latency: self.latency_total.p99(),
            delivered_throughput,
            pcie_crossings: self.pcie.stats().total_crossings(),
            migrations: self.migrations.clone(),
            aborted_migrations: self.aborted_migrations,
        }
    }

    /// The PCIe link statistics (crossings per direction, bytes).
    pub fn pcie_stats(&self) -> pam_sim::PcieLinkStats {
        self.pcie.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pam_core::StrategyKind;
    use pam_traffic::{
        ArrivalProcess, FlowGeneratorConfig, PacketSizeProfile, TraceConfig, TrafficSchedule,
    };
    use pam_types::{ByteSize, Endpoint};

    fn figure1_runtime(placement: &Placement) -> ChainRuntime {
        ChainRuntime::new(
            ServiceChainSpec::figure1(),
            placement,
            RuntimeConfig::evaluation_default(),
        )
        .unwrap()
    }

    fn trace(load: f64, millis: u64, seed: u64) -> TraceSynthesizer {
        TraceSynthesizer::new(TraceConfig {
            sizes: PacketSizeProfile::Fixed(ByteSize::bytes(512)),
            flows: FlowGeneratorConfig {
                flow_count: 500,
                zipf_exponent: 1.0,
                tcp_fraction: 0.8,
            },
            arrival: ArrivalProcess::Cbr,
            schedule: TrafficSchedule::constant(Gbps::new(load), SimDuration::from_millis(millis)),
            seed,
        })
    }

    #[test]
    fn calendar_events_are_handles_not_packets() {
        // 16 bytes of event + 16 of (time, seq): a 32-byte calendar item.
        assert_eq!(std::mem::size_of::<RuntimeEvent>(), 16);
        assert_eq!(std::mem::size_of::<Option<RuntimeEvent>>(), 16);
    }

    #[test]
    fn placement_and_spec_length_must_agree() {
        let placement = Placement::all_on(Device::SmartNic, 2);
        let err = ChainRuntime::new(
            ServiceChainSpec::figure1(),
            &placement,
            RuntimeConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PamError::InvalidConfig(_)));
    }

    #[test]
    fn light_load_delivers_everything_with_stable_latency() {
        let placement = Placement::figure1_initial();
        let mut runtime = figure1_runtime(&placement);
        let mut t = trace(1.0, 5, 1);
        runtime.run_to_completion(&mut t);
        let outcome = runtime.outcome();
        assert_eq!(outcome.injected, outcome.delivered);
        assert_eq!(outcome.drops_overload, 0);
        // Latency is in the expected few-hundred-microsecond band:
        // 4 hops of ~32-41 us plus 3 crossings of 22 us.
        let mean = outcome.mean_latency.as_micros_f64();
        assert!((150.0..350.0).contains(&mean), "mean latency {mean} us");
        // Delivered throughput tracks the offered 1 Gbps.
        assert!((outcome.delivered_throughput.as_gbps() - 1.0).abs() < 0.1);
        // Three crossings per packet.
        assert_eq!(outcome.pcie_crossings, 3 * outcome.delivered);
    }

    #[test]
    fn measured_utilisation_matches_the_analytical_model() {
        let placement = Placement::figure1_initial();
        let mut runtime = figure1_runtime(&placement);
        let mut t = trace(1.5, 10, 2);
        runtime.run_to_completion(&mut t);
        runtime.publish_metrics();
        let registry = runtime.registry();
        // Average the published NIC utilisation over the run.
        let history = registry.utilisation_history(Device::SmartNic);
        let measured: f64 =
            history.iter().map(|(_, u)| *u).sum::<f64>() / history.len().max(1) as f64;
        // Analytical: 1.5 × (1/10 + 1/3.2 + 0.25/2) = 0.806.
        let chain = runtime.chain_model();
        let analytical = pam_core::ResourceModel::new(&chain, &placement, Gbps::new(1.5))
            .device_utilisation(Device::SmartNic)
            .value();
        assert!(
            (measured - analytical).abs() < 0.08,
            "measured {measured:.3} vs analytical {analytical:.3}"
        );
    }

    #[test]
    fn overload_causes_drops_and_caps_delivered_throughput() {
        let placement = Placement::figure1_initial();
        let mut runtime = figure1_runtime(&placement);
        let mut t = trace(2.6, 10, 3);
        runtime.run_to_completion(&mut t);
        let outcome = runtime.outcome();
        assert!(outcome.drops_overload > 0, "expected overload drops");
        // The NIC sustains at most ~1.86 Gbps under the figure-1 profiles.
        let delivered = outcome.delivered_throughput.as_gbps();
        assert!(delivered < 2.1, "delivered {delivered}");
        assert!(delivered > 1.5, "delivered {delivered}");
    }

    #[test]
    fn live_migration_moves_state_and_preserves_traffic() {
        let placement = Placement::figure1_initial();
        let mut runtime = figure1_runtime(&placement);
        let mut t = trace(1.5, 20, 4);
        // Warm up so the monitor has flow state.
        runtime.run_until(&mut t, SimTime::from_millis(5));
        let flows_before = runtime.instances()[1].nf.flow_count();
        assert!(flows_before > 0);

        let report = runtime
            .live_migrate(NfId::new(2), Device::Cpu, runtime.now())
            .unwrap();
        assert_eq!(report.from, Device::SmartNic);
        assert_eq!(report.to, Device::Cpu);
        assert!(report.blackout() > SimDuration::ZERO);

        // The placement reflects the move and traffic keeps flowing.
        assert_eq!(
            runtime.placement().device_of(NfId::new(2)).unwrap(),
            Device::Cpu
        );
        runtime.run_to_completion(&mut t);
        let outcome = runtime.outcome();
        assert!(outcome.delivered > 0);
        assert_eq!(outcome.migrations.len(), 1);

        // Migrating to the same device or an unknown position is refused.
        assert!(runtime
            .live_migrate(NfId::new(2), Device::Cpu, runtime.now())
            .is_err());
        assert!(runtime
            .live_migrate(NfId::new(9), Device::Cpu, runtime.now())
            .is_err());
    }

    #[test]
    fn pre_copy_migration_converges_and_shrinks_the_blackout() {
        use crate::migration::{MigrationConfig, MigrationMode};

        let run = |mode: MigrationMode| {
            let config = RuntimeConfig::evaluation_default().with_migration(MigrationConfig {
                mode,
                max_precopy_rounds: 8,
                convergence_flows: 16,
                ..MigrationConfig::default()
            });
            let mut runtime = ChainRuntime::new(
                ServiceChainSpec::figure1(),
                &Placement::figure1_initial(),
                config,
            )
            .unwrap();
            let mut t = trace(1.5, 20, 4);
            runtime.run_until(&mut t, SimTime::from_millis(5));
            runtime
                .live_migrate(NfId::new(2), Device::Cpu, runtime.now())
                .unwrap();
            runtime.run_to_completion(&mut t);
            runtime.outcome()
        };

        let stop = run(MigrationMode::StopAndCopy);
        let pre = run(MigrationMode::PreCopy);
        assert_eq!(stop.migrations.len(), 1);
        assert_eq!(pre.migrations.len(), 1, "pre-copy handover completed");

        let stop_report = &stop.migrations[0];
        let pre_report = &pre.migrations[0];
        assert_eq!(pre_report.mode, MigrationMode::PreCopy);
        assert_eq!(pre_report.to, Device::Cpu);
        assert!(
            pre_report.rounds.len() >= 2,
            "snapshot + at least one delta"
        );
        assert!(
            pre_report.residual_dirty_flows <= 16,
            "converged to the configured bound: {} flows frozen",
            pre_report.residual_dirty_flows
        );
        assert!(
            pre_report.blackout() < stop_report.blackout(),
            "pre-copy blackout {} must beat stop-and-copy {}",
            pre_report.blackout(),
            stop_report.blackout()
        );
        assert!(pre_report.total_duration() >= pre_report.blackout());
        // The paused window starts strictly after the snapshot round.
        assert!(pre_report.paused_at > pre_report.started_at);
        // Both runs deliver traffic after the handover.
        assert!(pre.delivered > 0);
    }

    #[test]
    fn divergence_abort_rolls_back_instead_of_force_freezing() {
        use crate::migration::{DivergencePolicy, MigrationConfig, MigrationMode};

        // Convergence is unreachable (bound 0 under live traffic), so the
        // round cap decides: ForceFreeze hands over anyway, Abort rolls the
        // migration back. The model checker proves the abort arc keeps the
        // blackout bounded; this pins the engine to the same behaviour.
        let run = |policy: DivergencePolicy| {
            let config = RuntimeConfig::evaluation_default().with_migration(MigrationConfig {
                mode: MigrationMode::PreCopy,
                max_precopy_rounds: 2,
                convergence_flows: 0,
                on_divergence: policy,
            });
            let mut runtime = ChainRuntime::new(
                ServiceChainSpec::figure1(),
                &Placement::figure1_initial(),
                config,
            )
            .unwrap();
            let mut t = trace(1.5, 20, 4);
            runtime.run_until(&mut t, SimTime::from_millis(5));
            runtime
                .live_migrate(NfId::new(2), Device::Cpu, runtime.now())
                .unwrap();
            runtime.run_to_completion(&mut t);
            let device = runtime.instances()[2].device;
            (runtime.outcome(), device)
        };

        let (forced, forced_device) = run(DivergencePolicy::ForceFreeze);
        assert_eq!(forced.migrations.len(), 1, "force-freeze hands over");
        assert_eq!(forced.aborted_migrations, 0);
        assert_eq!(forced_device, Device::Cpu);

        let (aborted, aborted_device) = run(DivergencePolicy::Abort);
        assert_eq!(aborted.migrations.len(), 0, "abort never hands over");
        assert_eq!(aborted.aborted_migrations, 1);
        assert_eq!(aborted_device, Device::SmartNic, "source stays put");
        // The source never paused: no packet ever saw a blackout.
        assert_eq!(aborted.drops_migration, 0);
        // Rollback does not disturb the data plane: the aborted run delivers
        // exactly what it injected minus policy/overload drops.
        assert!(aborted.delivered > 0);
    }

    #[test]
    fn abort_migration_discards_the_staged_target_and_frees_the_engine() {
        use crate::migration::{MigrationConfig, MigrationMode};

        let config = RuntimeConfig::evaluation_default().with_migration(MigrationConfig {
            mode: MigrationMode::PreCopy,
            max_precopy_rounds: 8,
            convergence_flows: 0,
            ..MigrationConfig::default()
        });
        let mut runtime = ChainRuntime::new(
            ServiceChainSpec::figure1(),
            &Placement::figure1_initial(),
            config,
        )
        .unwrap();
        // Nothing in flight yet: abort must refuse.
        assert!(runtime.abort_migration(runtime.now()).is_err());

        let mut t = trace(1.5, 20, 4);
        runtime.run_until(&mut t, SimTime::from_millis(5));
        runtime
            .live_migrate(NfId::new(2), Device::Cpu, runtime.now())
            .unwrap();
        assert!(runtime.pre_copy_in_progress());

        let nf = runtime.abort_migration(runtime.now()).unwrap();
        assert_eq!(nf, NfId::new(2));
        assert!(!runtime.pre_copy_in_progress());

        // The stale MigrationRound event must be a no-op, and the engine is
        // free for a fresh migration immediately.
        runtime
            .live_migrate(NfId::new(2), Device::Cpu, runtime.now())
            .unwrap();
        runtime.run_to_completion(&mut t);
        let outcome = runtime.outcome();
        assert_eq!(outcome.aborted_migrations, 1);
        assert_eq!(outcome.migrations.len(), 1, "the retry handed over");
        assert_eq!(runtime.instances()[2].device, Device::Cpu);
    }

    #[test]
    fn target_crash_in_snapshot_phase_rolls_back_with_no_lost_state() {
        use crate::migration::{MigrationConfig, MigrationMode};
        use pam_protocol::Phase;

        let config = RuntimeConfig::evaluation_default().with_migration(MigrationConfig {
            mode: MigrationMode::PreCopy,
            max_precopy_rounds: 8,
            convergence_flows: 0,
            ..MigrationConfig::default()
        });
        let mut runtime = ChainRuntime::new(
            ServiceChainSpec::figure1(),
            &Placement::figure1_initial(),
            config,
        )
        .unwrap();
        // Nothing in flight yet: a crash injection must refuse.
        assert!(runtime.crash_target(runtime.now()).is_err());

        let mut t = trace(1.5, 20, 4);
        runtime.run_until(&mut t, SimTime::from_millis(5));
        let before = runtime.stateful_flow_entries();
        runtime
            .live_migrate(NfId::new(2), Device::Cpu, runtime.now())
            .unwrap();
        // Immediately after live_migrate the snapshot round is in flight.
        assert_eq!(runtime.pre_copy_phase(), Some(Phase::Snapshot));

        let nf = runtime.crash_target(runtime.now()).unwrap();
        assert_eq!(nf, NfId::new(2));
        assert!(!runtime.pre_copy_in_progress());
        assert_eq!(runtime.target_crashes(), 1);
        // The source never paused and keeps every acked flow entry.
        assert_eq!(runtime.stateful_flow_entries(), before);
        assert_eq!(runtime.instances()[2].device, Device::SmartNic);

        runtime.run_to_completion(&mut t);
        let outcome = runtime.outcome();
        assert_eq!(outcome.aborted_migrations, 1);
        assert_eq!(outcome.migrations.len(), 0, "no handover ever landed");
        assert_eq!(outcome.drops_migration, 0, "no blackout from the crash");
    }

    #[test]
    fn target_crash_in_dirty_round_phase_rolls_back_and_frees_the_engine() {
        use crate::migration::{MigrationConfig, MigrationMode};
        use pam_protocol::Phase;

        let config = RuntimeConfig::evaluation_default().with_migration(MigrationConfig {
            mode: MigrationMode::PreCopy,
            max_precopy_rounds: 64,
            convergence_flows: 0,
            ..MigrationConfig::default()
        });
        let mut runtime = ChainRuntime::new(
            ServiceChainSpec::figure1(),
            &Placement::figure1_initial(),
            config,
        )
        .unwrap();
        let mut t = trace(1.5, 20, 4);
        runtime.run_until(&mut t, SimTime::from_millis(5));
        runtime
            .live_migrate(NfId::new(2), Device::Cpu, runtime.now())
            .unwrap();
        // Drive the engine past the snapshot round: live traffic with a
        // convergence bound of 0 keeps it iterating dirty rounds.
        let mut probe = runtime.now();
        while runtime.pre_copy_phase() == Some(Phase::Snapshot) {
            probe += SimDuration::from_micros(50);
            runtime.run_until(&mut t, probe);
        }
        assert!(
            matches!(runtime.pre_copy_phase(), Some(Phase::DirtyRound(_))),
            "expected a dirty round, got {:?}",
            runtime.pre_copy_phase()
        );
        let before = runtime.stateful_flow_entries();

        let nf = runtime.crash_target(runtime.now()).unwrap();
        assert_eq!(nf, NfId::new(2));
        assert_eq!(runtime.target_crashes(), 1);
        assert_eq!(runtime.stateful_flow_entries(), before, "no lost state");

        // The stale MigrationRound event is a no-op and the engine is free:
        // a fresh migration succeeds right away.
        runtime
            .live_migrate(NfId::new(2), Device::Cpu, runtime.now())
            .unwrap();
        runtime.run_to_completion(&mut t);
        let outcome = runtime.outcome();
        assert_eq!(outcome.aborted_migrations, 1);
        assert_eq!(runtime.target_crashes(), 1, "the retry was crash-free");
    }

    #[test]
    fn link_fault_delegates_reach_the_pcie_link() {
        let mut runtime = figure1_runtime(&Placement::figure1_initial());
        runtime.link_flap(SimTime::ZERO, SimDuration::from_micros(100));
        runtime.link_set_capacity_factor(SimTime::ZERO, 0.5);
        let mut t = trace(1.0, 4, 7);
        runtime.run_until(&mut t, SimTime::from_micros(50));
        runtime.link_recover(SimTime::from_micros(100));
        runtime.link_set_capacity_factor(SimTime::from_micros(100), 1.0);
        runtime.run_to_completion(&mut t);
        // The faults only delay traffic; nothing is lost outright.
        let outcome = runtime.outcome();
        assert_eq!(
            outcome.injected,
            outcome.delivered + outcome.drops_overload + outcome.drops_policy
        );
    }

    #[test]
    fn pre_copy_hands_over_the_exact_source_state() {
        use crate::migration::{MigrationConfig, MigrationMode};

        // Two identical runtimes over the same trace; one migrates the
        // monitor with pre-copy, the other never migrates. After draining,
        // the migrated monitor's flow statistics must equal the unmigrated
        // one's (timestamps included: the monitor sees the same packets at
        // the same service-completion times only if nothing was dropped, so
        // compare the mode-invariant packet/byte counters).
        let config = RuntimeConfig::evaluation_default().with_migration(MigrationConfig {
            mode: MigrationMode::PreCopy,
            max_precopy_rounds: 8,
            convergence_flows: 16,
            ..MigrationConfig::default()
        });
        let mut migrated = ChainRuntime::new(
            ServiceChainSpec::figure1(),
            &Placement::figure1_initial(),
            config,
        )
        .unwrap();
        let mut baseline = figure1_runtime(&Placement::figure1_initial());

        let mut t1 = trace(1.2, 10, 9);
        let mut t2 = trace(1.2, 10, 9);
        migrated.run_until(&mut t1, SimTime::from_millis(4));
        baseline.run_until(&mut t2, SimTime::from_millis(4));
        migrated
            .live_migrate(NfId::new(1), Device::Cpu, migrated.now())
            .unwrap();
        migrated.run_to_completion(&mut t1);
        baseline.run_to_completion(&mut t2);

        assert_eq!(migrated.outcome().drops_migration, 0, "no blackout drops");
        let migrated_state = migrated.instances()[1].nf.export_state();
        let baseline_state = baseline.instances()[1].nf.export_state();
        let uint = |value: &serde_json::Value| -> u64 {
            match value {
                serde_json::Value::Number(n) => n.as_u64().expect("non-negative integer"),
                other => panic!("expected a number, got {}", other.kind()),
            }
        };
        let flows = |state: &pam_nf::NfState| -> Vec<(u64, u64, u64)> {
            let object = state.data.as_object().unwrap();
            let mut rows: Vec<(u64, u64, u64)> = object
                .get("flows")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|pair| {
                    let entry = pair.as_array().unwrap();
                    let stats = entry[1].as_object().unwrap();
                    (
                        uint(&entry[0]),
                        uint(stats.get("packets").unwrap()),
                        uint(stats.get("bytes").unwrap()),
                    )
                })
                .collect();
            rows.sort_unstable();
            rows
        };
        assert_eq!(flows(&migrated_state), flows(&baseline_state));
    }

    #[test]
    fn concurrent_migrations_are_refused_while_pre_copy_is_in_flight() {
        use crate::migration::MigrationMode;

        let config =
            RuntimeConfig::evaluation_default().with_migration_mode(MigrationMode::PreCopy);
        let mut runtime = ChainRuntime::new(
            ServiceChainSpec::figure1(),
            &Placement::figure1_initial(),
            config,
        )
        .unwrap();
        let mut t = trace(1.5, 10, 11);
        runtime.run_until(&mut t, SimTime::from_millis(3));
        runtime
            .live_migrate(NfId::new(2), Device::Cpu, runtime.now())
            .unwrap();
        assert!(runtime.migration_in_progress(runtime.now()));
        // Any second migration — same or different position — is refused
        // while the engine is iterating.
        assert!(runtime
            .live_migrate(NfId::new(1), Device::Cpu, runtime.now())
            .is_err());
        runtime.run_to_completion(&mut t);
        assert_eq!(runtime.outcome().migrations.len(), 1);
    }

    #[test]
    fn migration_estimates_follow_the_mode() {
        use crate::migration::MigrationMode;

        let mut stop = figure1_runtime(&Placement::figure1_initial());
        let mut t = trace(1.5, 10, 12);
        stop.run_until(&mut t, SimTime::from_millis(5));
        let full = stop.estimate_migration(NfId::new(1), Device::Cpu).unwrap();
        assert_eq!(full.mode, MigrationMode::StopAndCopy);
        assert_eq!(full.frozen_flows, full.flows);
        assert!(full.flows > 64, "warm-up tracked many flows");

        let config =
            RuntimeConfig::evaluation_default().with_migration_mode(MigrationMode::PreCopy);
        let mut pre = ChainRuntime::new(
            ServiceChainSpec::figure1(),
            &Placement::figure1_initial(),
            config,
        )
        .unwrap();
        let mut t = trace(1.5, 10, 12);
        pre.run_until(&mut t, SimTime::from_millis(5));
        let residual = pre.estimate_migration(NfId::new(1), Device::Cpu).unwrap();
        assert_eq!(residual.mode, MigrationMode::PreCopy);
        assert_eq!(residual.frozen_flows, 64, "bounded by convergence knob");
        assert!(residual.blackout < full.blackout);
        // Estimating an in-place "move" is refused.
        assert!(pre
            .estimate_migration(NfId::new(1), Device::SmartNic)
            .is_err());
        assert!(pre.estimate_migration(NfId::new(9), Device::Cpu).is_err());
    }

    #[test]
    fn naive_migration_adds_two_crossings_per_packet_pam_adds_none() {
        // Run the same light trace under the three placements and compare
        // per-packet crossing counts.
        let original = Placement::figure1_initial();
        let mut naive = original.clone();
        naive.set(NfId::new(1), Device::Cpu).unwrap();
        let mut pam = original.clone();
        pam.set(NfId::new(2), Device::Cpu).unwrap();

        let crossings_per_packet = |placement: &Placement| {
            let mut runtime = figure1_runtime(placement);
            let mut t = trace(1.0, 2, 5);
            runtime.run_to_completion(&mut t);
            let outcome = runtime.outcome();
            outcome.pcie_crossings as f64 / outcome.delivered as f64
        };
        assert_eq!(crossings_per_packet(&original), 3.0);
        assert_eq!(crossings_per_packet(&naive), 5.0);
        assert_eq!(crossings_per_packet(&pam), 3.0);
    }

    #[test]
    fn figure2_latency_ordering_holds_in_the_packet_level_simulation() {
        let original = Placement::figure1_initial();
        let mut naive = original.clone();
        naive.set(NfId::new(1), Device::Cpu).unwrap();
        let mut pam = original.clone();
        pam.set(NfId::new(2), Device::Cpu).unwrap();

        let mean_latency = |placement: &Placement| {
            let mut runtime = figure1_runtime(placement);
            let mut t = trace(1.5, 5, 6);
            runtime.run_to_completion(&mut t);
            runtime.outcome().mean_latency
        };
        let l_orig = mean_latency(&original);
        let l_naive = mean_latency(&naive);
        let l_pam = mean_latency(&pam);
        assert!(l_naive > l_pam, "naive {l_naive} should exceed pam {l_pam}");
        let reduction =
            (l_naive.as_nanos() as f64 - l_pam.as_nanos() as f64) / l_naive.as_nanos() as f64;
        assert!(
            (0.08..0.35).contains(&reduction),
            "latency reduction {reduction}"
        );
        let drift =
            (l_pam.as_nanos() as f64 - l_orig.as_nanos() as f64).abs() / l_orig.as_nanos() as f64;
        assert!(drift < 0.08, "PAM vs original drift {drift}");
    }

    #[test]
    fn metrics_are_published_periodically() {
        let placement = Placement::figure1_initial();
        let mut runtime = figure1_runtime(&placement);
        let registry = runtime.registry();
        let mut t = trace(1.0, 5, 7);
        runtime.run_to_completion(&mut t);
        let snapshot = registry.snapshot();
        assert!(snapshot.updated_at > SimTime::ZERO);
        assert!(snapshot.offered_load.as_gbps() > 0.5);
        assert!(registry.utilisation_history(Device::SmartNic).len() >= 3);
        assert!(registry.latency_histogram().count() > 0);
    }

    #[test]
    fn measurement_windows_isolate_phases() {
        let placement = Placement::figure1_initial();
        let mut runtime = figure1_runtime(&placement);
        let mut t = trace(1.0, 10, 8);
        runtime.run_until(&mut t, SimTime::from_millis(5));
        runtime.start_measurement(runtime.now());
        let start = runtime.now();
        runtime.run_to_completion(&mut t);
        let report = runtime.measure(runtime.now());
        assert!(report.delivered_packets > 0);
        assert!(report.mean_latency > SimDuration::ZERO);
        assert!((report.offered.as_gbps() - 1.0).abs() < 0.15);
        assert!(report.delivered.as_gbps() > 0.8);
        assert!(runtime.now() > start);
        assert!(report.p99_latency >= report.mean_latency);
    }

    #[test]
    fn pam_strategy_on_runtime_model_matches_direct_planning() {
        // The chain model the runtime exposes must produce the same PAM
        // decision as the hand-built figure-1 model.
        let placement = Placement::figure1_initial();
        let runtime = figure1_runtime(&placement);
        let model = runtime.chain_model();
        let decision = StrategyKind::Pam
            .build()
            .decide(&model, &placement, Gbps::new(2.2));
        let direct = StrategyKind::Pam.build().decide(
            &ChainModel::figure1_example(),
            &placement,
            Gbps::new(2.2),
        );
        assert_eq!(decision, direct);
    }

    #[test]
    fn doorbell_timeout_adds_exactly_one_wait_per_hop_to_a_lone_packet() {
        use crate::config::BatchConfig;

        let run_one = |config: RuntimeConfig| {
            let mut runtime = ChainRuntime::new(
                ServiceChainSpec::figure1(),
                &Placement::figure1_initial(),
                config,
            )
            .unwrap();
            let bytes = pam_wire::PacketBuilder::new()
                .ports(1000, 80)
                .transport(pam_wire::TransportKind::Tcp)
                .total_len(512)
                .build();
            let packet = Packet::from_bytes(0, bytes, SimTime::ZERO);
            match runtime.inject(SimTime::ZERO, packet) {
                PacketOutcome::Delivered { latency } => latency,
                other => panic!("expected delivery, got {other:?}"),
            }
        };

        let unbatched = run_one(RuntimeConfig::evaluation_default());
        // A batch that never fills: every hop holds the lone packet for the
        // full doorbell timeout, nothing else changes.
        let wait = SimDuration::from_micros(7);
        let batched = run_one(
            RuntimeConfig::evaluation_default().with_batch(BatchConfig::of(32).with_max_wait(wait)),
        );
        assert_eq!(
            batched,
            unbatched + wait * 4,
            "four hops, one doorbell wait each"
        );
    }

    #[test]
    fn batch_closes_on_size_without_waiting_for_the_doorbell() {
        use crate::config::BatchConfig;

        // Two same-instant packets fill a max_batch=2 stage immediately; with
        // an absurdly long doorbell timeout, low latency proves the size
        // trigger closed the batch, not the timer.
        let config = RuntimeConfig::evaluation_default()
            .with_batch(BatchConfig::of(2).with_max_wait(SimDuration::from_millis(50)));
        let mut runtime = ChainRuntime::new(
            ServiceChainSpec::figure1(),
            &Placement::figure1_initial(),
            config,
        )
        .unwrap();
        let bytes = pam_wire::PacketBuilder::new()
            .ports(1000, 80)
            .transport(pam_wire::TransportKind::Tcp)
            .total_len(512)
            .build();
        for id in 0..2u64 {
            runtime.submit(
                SimTime::ZERO,
                Packet::from_bytes(id, bytes.clone(), SimTime::ZERO),
            );
        }
        runtime.drain_until(SimTime::MAX);
        let outcome = runtime.outcome();
        assert_eq!(outcome.delivered, 2);
        assert!(
            outcome.p99_latency < SimDuration::from_millis(1),
            "size-closed batches must not wait out the 50 ms doorbell: {}",
            outcome.p99_latency
        );
    }

    #[test]
    fn batching_coalesces_crossings_into_fewer_dma_bursts() {
        let run = |max_batch: usize| {
            let mut runtime = ChainRuntime::new(
                ServiceChainSpec::figure1(),
                &Placement::figure1_initial(),
                RuntimeConfig::evaluation_default().with_max_batch(max_batch),
            )
            .unwrap();
            let mut t = trace(1.5, 5, 21);
            runtime.run_to_completion(&mut t);
            (runtime.outcome(), runtime.pcie_stats())
        };

        let (unbatched, single) = run(1);
        let (batched, coalesced) = run(8);
        // Per-packet crossing counts are batch-invariant (three per packet on
        // the figure-1 placement)...
        assert_eq!(unbatched.pcie_crossings, 3 * unbatched.delivered);
        assert_eq!(batched.pcie_crossings, 3 * batched.delivered);
        assert_eq!(single.dma_bursts, single.total_crossings());
        // ...but the batched datapath rings far fewer doorbells.
        assert!(
            coalesced.dma_bursts * 2 < coalesced.total_crossings(),
            "{} bursts for {} crossings",
            coalesced.dma_bursts,
            coalesced.total_crossings()
        );
        // Same traffic delivered (the horizon-tail packets still drain on
        // run_to_completion), per-flow totals checked by the differential
        // integration suite.
        assert_eq!(batched.injected, unbatched.injected);
        assert_eq!(batched.delivered, unbatched.delivered);
        assert_eq!(batched.drops_overload + batched.drops_policy, 0);
    }

    #[test]
    fn pause_flushes_the_open_batch_ahead_of_blackout_arrivals() {
        // A packet staged before the pause and a same-flow packet arriving
        // during the blackout must egress in arrival order: migration
        // flushes the open batch the moment it pauses, so the held packet
        // re-fires at the blackout end *before* the later arrival
        // (equal-time events pop in scheduling order). Letting the doorbell
        // fire mid-blackout instead would re-queue it behind the later
        // packet and reorder the flow.
        let spec = ServiceChainSpec::new(
            "mon-only",
            Endpoint::Wire,
            Endpoint::Host,
            vec![pam_nf::NfKind::Monitor],
        );
        let placement = Placement::all_on(Device::SmartNic, 1);
        let config = RuntimeConfig::evaluation_default().with_max_batch(8);
        let mut runtime = ChainRuntime::new(spec, &placement, config).unwrap();
        runtime.record_egress();
        let bytes = pam_wire::PacketBuilder::new()
            .ports(1000, 80)
            .transport(pam_wire::TransportKind::Tcp)
            .total_len(256)
            .build();
        // Packet 1 arrives at t=0 and stages (its doorbell would ring at the
        // 5 us timeout)...
        runtime.submit(
            SimTime::ZERO,
            Packet::from_bytes(1, bytes.clone(), SimTime::ZERO),
        );
        runtime.drain_until(SimTime::from_micros(2));
        // ...the monitor migrates at t=2 us (the blackout outlives the
        // doorbell timeout by far)...
        runtime
            .live_migrate(NfId::new(0), Device::Cpu, SimTime::from_micros(2))
            .unwrap();
        // ...and packet 2 of the same flow arrives mid-blackout at t=3 us.
        runtime.submit(
            SimTime::from_micros(3),
            Packet::from_bytes(2, bytes, SimTime::from_micros(3)),
        );
        runtime.drain_until(SimTime::MAX);
        let ids: Vec<u64> = runtime.egress_log().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1, 2], "pre-pause packet must egress first");
        assert_eq!(
            runtime.outcome().drops_migration,
            0,
            "blackout fits the bound"
        );
    }

    #[test]
    fn batch_arena_gives_back_a_blackout_peak() {
        // A stop-and-copy blackout at batch 8 holds every packet arriving at
        // the paused hop in a one-packet batch of its own, so the arena peaks
        // at about one slot per held packet. Once traffic flows normally
        // again, trimming gives back the buffers of the slots left idle.
        use crate::migration::MigrationMode;

        // Heavy per-flow state and a generous hold bound: a blackout of about
        // 4 ms that drops nothing.
        let config = RuntimeConfig {
            migration_buffer_bound: SimDuration::from_millis(50),
            state_overhead_per_flow: ByteSize::kib(64),
            ..RuntimeConfig::evaluation_default().with_max_batch(8)
        };
        let mut runtime = ChainRuntime::new(
            ServiceChainSpec::figure1(),
            &Placement::figure1_initial(),
            config,
        )
        .unwrap();
        let mut t = trace(1.5, 40, 4);
        runtime.run_until(&mut t, SimTime::from_millis(5));
        let report = runtime
            .live_migrate(NfId::new(2), Device::Cpu, runtime.now())
            .unwrap();
        assert_eq!(report.mode, MigrationMode::StopAndCopy);
        runtime.run_until(&mut t, report.completed_at);
        let peak = runtime.pool.slots.len();
        runtime.run_to_completion(&mut t);
        assert_eq!(runtime.outcome().drops_migration, 0, "every packet held");
        // What stays buffered: the `PREWARM` idle slots plus the slots a
        // blackout-free stretch of this traffic keeps in flight.
        let prewarm = BatchPool::PREWARM as usize;
        let kept = runtime.pool.buffered();
        assert!(peak > 16 * prewarm, "the blackout peaked at {peak} slots");
        assert!(
            kept <= 2 * prewarm,
            "{kept} of {peak} slots kept their buffers"
        );
    }

    #[test]
    fn batched_migration_still_converges_and_preserves_traffic() {
        use crate::migration::{MigrationConfig, MigrationMode};

        let config = RuntimeConfig::evaluation_default()
            .with_max_batch(8)
            .with_migration(MigrationConfig {
                mode: MigrationMode::PreCopy,
                max_precopy_rounds: 8,
                convergence_flows: 16,
                ..MigrationConfig::default()
            });
        let mut runtime = ChainRuntime::new(
            ServiceChainSpec::figure1(),
            &Placement::figure1_initial(),
            config,
        )
        .unwrap();
        let mut t = trace(1.5, 20, 4);
        runtime.run_until(&mut t, SimTime::from_millis(5));
        runtime
            .live_migrate(NfId::new(2), Device::Cpu, runtime.now())
            .unwrap();
        runtime.run_to_completion(&mut t);
        let outcome = runtime.outcome();
        assert_eq!(outcome.migrations.len(), 1, "handover completed");
        assert_eq!(outcome.migrations[0].mode, MigrationMode::PreCopy);
        assert!(outcome.delivered > 0);
        assert_eq!(
            runtime.placement().device_of(NfId::new(2)).unwrap(),
            Device::Cpu
        );
    }

    #[test]
    fn policy_drops_are_counted_separately() {
        // A chain consisting of just a firewall that blocks the traffic's
        // destination port.
        let spec = ServiceChainSpec::new(
            "fw-only",
            Endpoint::Wire,
            Endpoint::Host,
            vec![pam_nf::NfKind::Firewall],
        );
        let placement = Placement::all_on(Device::SmartNic, 1);
        let mut runtime =
            ChainRuntime::new(spec, &placement, RuntimeConfig::evaluation_default()).unwrap();
        // Build packets aimed at the blocked NetBIOS port range.
        let bytes = pam_wire::PacketBuilder::new()
            .ports(1000, 137)
            .transport(pam_wire::TransportKind::Tcp)
            .total_len(128)
            .build();
        for i in 0..10u64 {
            let packet = Packet::from_bytes(i, bytes.clone(), SimTime::from_micros(i));
            let outcome = runtime.inject(SimTime::from_micros(i), packet);
            assert_eq!(outcome, PacketOutcome::DroppedPolicy);
        }
        let outcome = runtime.outcome();
        assert_eq!(outcome.drops_policy, 10);
        assert_eq!(outcome.delivered, 0);
    }
}
