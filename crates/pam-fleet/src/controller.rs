//! The fleet: N servers under one deterministic event queue, and the
//! controller that walks the full decision ladder.
//!
//! The single-server orchestrator of PR 1 stops at the poster's escape
//! hatch: when migration cannot relieve the overload it merely *counts* a
//! scale-out request. The fleet controller acts on it. Every control tick
//! it walks, per server, the ladder
//!
//! 1. **local PAM migration** — the server's own
//!    [`Orchestrator`](pam_orchestrator::Orchestrator) runs its
//!    strategy against the windowed load estimate and executes any
//!    migration on the server's devices;
//! 2. **cross-server scale-out** — if the strategy answers
//!    [`Decision::ScaleOut`], a slice of the server's *flows* is re-steered
//!    (flow-sticky, monotone; see [`SteeringTable`]) to the least-loaded
//!    recipient with headroom;
//! 3. **scale-in** — once the server's windowed *peak* utilisation has
//!    receded, the spilled flows return home step by step.
//!
//! All data-plane and control-plane causality flows through a single
//! [`EventQueue`] (home-packet arrivals, control ticks and faults), which the
//! windowed runner in [`crate::shard`] replays in order, so two runs of the
//! same fleet are event-for-event identical — the replay-determinism tests
//! serialize whole reports and compare bytes.

use pam_core::{Decision, ResourceModel};
use pam_orchestrator::OrchestratorConfig;
use pam_protocol::{
    Action as HandoverAction, Event as HandoverEvent, HandoverState, Phase, ProtocolConfig,
};
use pam_runtime::state_transfer_size;
use pam_sim::{EventQueue, FaultKind, FaultPlan, LinkDirection, PcieLink, PcieLinkConfig};
use pam_types::{ByteSize, Device, Gbps, PamError, Result, ServerId, SimDuration, SimTime};
use serde::value::{Map, Value};
use serde::{Deserialize, Error, Serialize};

use crate::estimator::{EstimatorConfig, LoadEstimator};
use crate::health::{NodeHealth, DEFAULT_WARMUP};
use crate::node::{FleetServer, ServerSpec};
use crate::report::{FleetReport, FleetTotals, ServerReport};
use crate::steering::SteeringTable;

/// Fleet-level control parameters (the per-server loop keeps its own
/// [`OrchestratorConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Per-server control loop (strategy, poll cadence, cooldown).
    pub orchestrator: OrchestratorConfig,
    /// The load estimator feeding every fleet decision (kind, window,
    /// sketch dimensions).
    pub estimator: EstimatorConfig,
    /// Whether the ladder may re-steer flows across servers at all
    /// (disabled for the pure single-box baselines).
    pub scale_out_enabled: bool,
    /// Fraction of a server's flows moved per scale-out action.
    pub spill_step: f64,
    /// Cap on the total fraction of one server's flows living elsewhere.
    pub max_spill: f64,
    /// A recipient must sit below this windowed NIC utilisation.
    pub recipient_headroom: f64,
    /// Scale in only when the windowed *peak* NIC utilisation of the home
    /// server is below this.
    pub scale_in_below: f64,
    /// Minimum time between two scale actions on the same server.
    pub scale_cooldown: SimDuration,
    /// The inter-server link cross-server state handoffs travel over (the
    /// same rate-server + fixed-latency model the per-server PCIe uses).
    pub interconnect: PcieLinkConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            orchestrator: OrchestratorConfig::default(),
            estimator: EstimatorConfig::default(),
            scale_out_enabled: true,
            spill_step: 0.25,
            max_spill: 0.5,
            recipient_headroom: 0.7,
            scale_in_below: 0.55,
            scale_cooldown: SimDuration::from_millis(4),
            interconnect: PcieLinkConfig::inter_server(),
        }
    }
}

impl FleetConfig {
    /// The default fleet config running the given per-server strategy.
    pub fn with_strategy(strategy: pam_core::StrategyKind) -> Self {
        FleetConfig {
            orchestrator: OrchestratorConfig::with_strategy(strategy),
            ..Default::default()
        }
    }

    /// Selects the load estimator, keeping the other knobs.
    pub fn with_estimator(mut self, estimator: EstimatorConfig) -> Self {
        self.estimator = estimator;
        self
    }
}

// Hand-serialised so configs written before the estimator knob existed (and
// the committed baselines) deserialise with the exact estimator instead of
// failing on a missing field (the vendored serde derive has no
// `#[serde(default)]`). The pre-redesign flat `estimator_window` key is
// still honoured as a legacy alias for `estimator.window`.
impl Serialize for FleetConfig {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("orchestrator".to_owned(), self.orchestrator.to_value());
        map.insert("estimator".to_owned(), self.estimator.to_value());
        map.insert(
            "scale_out_enabled".to_owned(),
            self.scale_out_enabled.to_value(),
        );
        map.insert("spill_step".to_owned(), self.spill_step.to_value());
        map.insert("max_spill".to_owned(), self.max_spill.to_value());
        map.insert(
            "recipient_headroom".to_owned(),
            self.recipient_headroom.to_value(),
        );
        map.insert("scale_in_below".to_owned(), self.scale_in_below.to_value());
        map.insert("scale_cooldown".to_owned(), self.scale_cooldown.to_value());
        map.insert("interconnect".to_owned(), self.interconnect.to_value());
        Value::Object(map)
    }
}

impl Deserialize for FleetConfig {
    fn from_value(value: &Value) -> std::result::Result<Self, Error> {
        let map = match value {
            Value::Object(map) => map,
            _ => return Err(Error::custom("FleetConfig must be an object")),
        };
        let defaults = FleetConfig::default();
        let mut estimator = match map.get("estimator") {
            Some(value) => EstimatorConfig::from_value(value)?,
            None => defaults.estimator,
        };
        if let Some(value) = map.get("estimator_window") {
            estimator.window = SimDuration::from_value(value)?;
        }
        Ok(FleetConfig {
            orchestrator: match map.get("orchestrator") {
                Some(value) => OrchestratorConfig::from_value(value)?,
                None => defaults.orchestrator,
            },
            estimator,
            scale_out_enabled: match map.get("scale_out_enabled") {
                Some(value) => bool::from_value(value)?,
                None => defaults.scale_out_enabled,
            },
            spill_step: match map.get("spill_step") {
                Some(value) => f64::from_value(value)?,
                None => defaults.spill_step,
            },
            max_spill: match map.get("max_spill") {
                Some(value) => f64::from_value(value)?,
                None => defaults.max_spill,
            },
            recipient_headroom: match map.get("recipient_headroom") {
                Some(value) => f64::from_value(value)?,
                None => defaults.recipient_headroom,
            },
            scale_in_below: match map.get("scale_in_below") {
                Some(value) => f64::from_value(value)?,
                None => defaults.scale_in_below,
            },
            scale_cooldown: match map.get("scale_cooldown") {
                Some(value) => SimDuration::from_value(value)?,
                None => defaults.scale_cooldown,
            },
            interconnect: match map.get("interconnect") {
                Some(value) => PcieLinkConfig::from_value(value)?,
                None => defaults.interconnect,
            },
        })
    }
}

/// What the fleet ladder did for one server at one tick.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FleetAction {
    /// Nothing beyond the local decision.
    None,
    /// The local strategy executed this many migrations.
    LocalMigration(u64),
    /// Flows re-steered to the recipient; the new spill fraction.
    ScaleOut(ServerId, f64),
    /// The strategy wanted to scale out but no recipient had headroom.
    ScaleOutBlocked,
    /// Spilled flows returning home; the remaining spill fraction.
    ScaleIn(f64),
}

/// One fleet-ladder decision for one server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetDecisionRecord {
    /// When the tick ran.
    pub at: SimTime,
    /// The server the record is about.
    pub server: ServerId,
    /// The windowed mean load the decision was based on.
    pub windowed_load: Gbps,
    /// The windowed peak load (gates scale-in).
    pub peak_load: Gbps,
    /// Predicted SmartNIC utilisation at the windowed mean load.
    pub nic_utilisation: f64,
    /// What the ladder did.
    pub action: FleetAction,
}

/// The events the fleet's single deterministic queue carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FleetEvent {
    /// The next home packet of this server is due.
    Arrival(ServerId),
    /// Run the control ladder over every server.
    ControlTick,
    /// Deliver fault-plan event `index` (crash, recovery, flap or swing).
    Fault(usize),
    /// A link flap on this server ends; recover its transport unless a
    /// later, overlapping flap extended the outage past this instant.
    LinkRestore(ServerId),
    /// A capacity swing on this server ends; restore nominal bandwidth.
    SwingRestore(ServerId),
}

/// N servers, the steering table and the decision-ladder controller.
///
/// Fields are crate-visible so the windowed runner in [`crate::shard`] can
/// drive the queue, servers and steering table.
pub struct Fleet {
    pub(crate) config: FleetConfig,
    pub(crate) servers: Vec<FleetServer>,
    pub(crate) steering: SteeringTable,
    pub(crate) events: EventQueue<FleetEvent>,
    log: Vec<FleetDecisionRecord>,
    last_scale_action: Vec<Option<SimTime>>,
    /// The inter-server link cross-server state handoffs travel over.
    interconnect: PcieLink,
    scale_outs: u64,
    scale_ins: u64,
    scale_out_blocked: u64,
    pub(crate) control_steps: u64,
    handoff_flows: u64,
    handoff_bytes: u64,
    handoff_us: f64,
    started: bool,
    /// The fault schedule injected through the event queue, if any.
    fault_plan: Option<FaultPlan>,
    /// The controller's liveness view of every server.
    pub(crate) health: NodeHealth,
    /// Packets routed to a crashed server and black-holed at its ingress.
    pub(crate) fault_drops: u64,
    /// When the last control tick ran — the start of the current
    /// synchronisation window for the windowed runner's safety assertion.
    pub(crate) last_tick: SimTime,
    /// Wall-clock side channel of the windowed runner; never part of the
    /// gated [`FleetReport`].
    pub(crate) shard_stats: crate::shard::ShardRunStats,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("servers", &self.servers.len())
            .field("control_steps", &self.control_steps)
            .field("scale_outs", &self.scale_outs)
            .field("scale_ins", &self.scale_ins)
            .finish()
    }
}

impl Fleet {
    /// Builds a fleet from one spec per server.
    ///
    /// Refuses an estimator config past the bounds of
    /// [`EstimatorConfig::validate`] with [`PamError::InvalidConfig`], before
    /// anything is allocated.
    pub fn new(specs: Vec<ServerSpec>, config: FleetConfig) -> Result<Self> {
        config
            .estimator
            .validate(config.orchestrator.poll_interval)?;
        let mut servers = Vec::with_capacity(specs.len());
        for (index, spec) in specs.into_iter().enumerate() {
            let estimator =
                LoadEstimator::new(&config.estimator, config.orchestrator.poll_interval);
            servers.push(FleetServer::new(
                ServerId::from(index),
                spec,
                config.orchestrator,
                estimator,
            )?);
        }
        let count = servers.len();
        Ok(Fleet {
            servers,
            steering: SteeringTable::new(count),
            events: EventQueue::new(),
            log: Vec::new(),
            last_scale_action: vec![None; count],
            interconnect: PcieLink::new(config.interconnect),
            config,
            scale_outs: 0,
            scale_ins: 0,
            scale_out_blocked: 0,
            control_steps: 0,
            handoff_flows: 0,
            handoff_bytes: 0,
            handoff_us: 0.0,
            started: false,
            fault_plan: None,
            health: NodeHealth::new(count, DEFAULT_WARMUP),
            fault_drops: 0,
            last_tick: SimTime::ZERO,
            shard_stats: crate::shard::ShardRunStats::default(),
        })
    }

    /// The fleet configuration in force.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The servers, in id order.
    pub fn servers(&self) -> &[FleetServer] {
        &self.servers
    }

    /// The steering table.
    pub fn steering(&self) -> &SteeringTable {
        &self.steering
    }

    /// Every fleet-ladder decision taken so far.
    pub fn log(&self) -> &[FleetDecisionRecord] {
        &self.log
    }

    /// Number of scale-out actions executed.
    pub fn scale_outs(&self) -> u64 {
        self.scale_outs
    }

    /// Number of scale-in actions executed.
    pub fn scale_ins(&self) -> u64 {
        self.scale_ins
    }

    /// Total discrete events scheduled across the fleet: the controller's own
    /// queue (arrivals, control ticks) plus every server runtime's data-plane
    /// queue. Deterministic for a given scenario, so it doubles as the
    /// denominator of the simulator's events/second throughput figure.
    pub fn events_scheduled(&self) -> u64 {
        self.events.scheduled_total()
            + self
                .servers
                .iter()
                .map(|s| s.runtime().events_scheduled())
                .sum::<u64>()
    }

    /// Wall-clock statistics of every run so far, one entry per lane (a
    /// [`Fleet::run`] is one lane). A side channel: never part of the report.
    pub fn shard_stats(&self) -> &crate::shard::ShardRunStats {
        &self.shard_stats
    }

    /// Installs a fault schedule. Must be called before the first
    /// [`Fleet::run`]/[`Fleet::run_sharded`] window (the fault events are
    /// scheduled once, when the queue starts) and the plan must validate
    /// against this fleet's server count.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<()> {
        if self.started {
            return Err(PamError::state(
                "the fault plan must be installed before the fleet starts".to_owned(),
            ));
        }
        plan.validate(self.servers.len())
            .map_err(PamError::config)?;
        self.fault_plan = Some(plan);
        Ok(())
    }

    /// Overrides the warm-up guard recovered servers sit behind before the
    /// ladder touches them again (default [`DEFAULT_WARMUP`]).
    pub fn set_fault_warmup(&mut self, warmup: SimDuration) {
        self.health.set_warmup(warmup);
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// The controller's liveness view of every server.
    pub fn health(&self) -> &NodeHealth {
        &self.health
    }

    /// Packets routed to a crashed server and black-holed at its ingress.
    pub fn fault_drops(&self) -> u64 {
        self.fault_drops
    }

    /// Lazily schedules the initial arrivals (in server-id order), the first
    /// control tick and the fault events.
    pub(crate) fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for index in 0..self.servers.len() {
            if let Some(at) = self.servers[index].next_arrival() {
                self.events
                    .schedule(at, FleetEvent::Arrival(ServerId::from(index)));
            }
        }
        self.events.schedule(
            SimTime::ZERO + self.config.orchestrator.poll_interval,
            FleetEvent::ControlTick,
        );
        if let Some(plan) = &self.fault_plan {
            for (index, event) in plan.events().iter().enumerate() {
                self.events.schedule(event.at, FleetEvent::Fault(index));
            }
        }
    }

    /// Runs the fleet until `until` on one lane: the windowed runner's
    /// sequential case (see [`Fleet::run_sharded`]). Returns the number of
    /// control ticks run.
    pub fn run(&mut self, until: SimTime) -> u64 {
        self.run_sharded(until, 1)
    }

    /// Applies one queue event that is not an arrival: a control tick (which
    /// schedules the next one), a fault-plan event, or the end of a link flap
    /// or capacity swing. Every such event is a window barrier.
    pub(crate) fn apply_barrier(&mut self, now: SimTime, event: FleetEvent) {
        match event {
            FleetEvent::ControlTick => {
                self.control_tick(now);
                self.events.schedule(
                    now + self.config.orchestrator.poll_interval,
                    FleetEvent::ControlTick,
                );
            }
            FleetEvent::Fault(index) => self.apply_fault(now, index),
            FleetEvent::LinkRestore(server) => self.link_restore(now, server),
            FleetEvent::SwingRestore(server) => self.swing_restore(now, server),
            FleetEvent::Arrival(_) => unreachable!("arrivals are sequenced, never barriers"),
        }
    }

    /// One pass of the decision ladder over every server, in id order.
    fn control_tick(&mut self, now: SimTime) {
        self.control_steps += 1;
        self.last_tick = now;

        // Phase 1 — measure: drain every data plane to `now` and feed the
        // sliding windows with the load that actually arrived this tick
        // (home plus re-steered traffic).
        let interval = self.config.orchestrator.poll_interval;
        for server in &mut self.servers {
            server.runtime_mut().drain_until(now);
            let offered = server.take_tick_load(interval);
            server.record_load(now, offered);
        }

        // Phase 2 — decide and act per server. Crashed servers are skipped
        // outright; recovered servers stay skipped until their warm-up guard
        // expires, so the ladder never acts on a server whose windows are
        // still cold. (Phase 1 stays uniform over *all* servers — draining a
        // dead server's already-admitted packets is part of the black-hole
        // semantics and keeps every lane count's windows identical.)
        for index in 0..self.servers.len() {
            let server_id = ServerId::from(index);
            if !self.health.eligible(server_id, now) {
                continue;
            }
            let windowed = self.servers[index].windowed_load();
            let peak = self.servers[index].peak_load();

            let record = {
                let server = &mut self.servers[index];
                let (orchestrator, runtime) = server.control_parts();
                orchestrator.step_with_load(runtime, now, windowed)
            };

            let action = match &record.decision {
                Decision::Migrate(_) if !record.executed.is_empty() => {
                    FleetAction::LocalMigration(record.executed.len() as u64)
                }
                Decision::ScaleOut if self.config.scale_out_enabled => {
                    self.try_scale_out(now, server_id)
                }
                _ => self.try_scale_in(now, server_id, peak),
            };

            self.log.push(FleetDecisionRecord {
                at: now,
                server: server_id,
                windowed_load: windowed,
                peak_load: peak,
                nic_utilisation: record.nic_utilisation,
                action,
            });
        }
    }

    /// Rung 2 of the ladder: find a recipient with headroom and re-steer.
    fn try_scale_out(&mut self, now: SimTime, home: ServerId) -> FleetAction {
        if self.in_cooldown(now, home) || self.steering.fraction_of(home) >= self.config.max_spill {
            return FleetAction::None;
        }
        // An existing spill keeps its recipient (one server's overflow never
        // splits across two recipients), but a top-up must re-check that the
        // recipient still has headroom — its own traffic may have risen since
        // the first spill. Otherwise pick the server with the most windowed
        // headroom (ties broken by lowest id, keeping the scan deterministic).
        let recipient = match self.steering.spill_of(home) {
            Some(spill) => {
                let windowed = self.servers[spill.to.index()].windowed_load();
                if self.health.eligible(spill.to, now)
                    && self.nic_utilisation_at(spill.to, windowed) < self.config.recipient_headroom
                {
                    Some(spill.to)
                } else {
                    None
                }
            }
            None => self.pick_recipient(now, home),
        };
        let Some(recipient) = recipient else {
            self.scale_out_blocked += 1;
            return FleetAction::ScaleOutBlocked;
        };
        let before = self.steering.fraction_of(home);
        let fraction = self.steering.scale_out(
            home,
            recipient,
            self.config.spill_step,
            self.config.max_spill,
        );
        // OpenNF-style state handoff: the per-flow state of the newly
        // re-steered slice moves to the recipient over the inter-server
        // link. The same sizing model as live migration applies (the spill
        // is flow-sticky, so each flow's state moves exactly once per step);
        // the transfer is non-blocking — re-steered packets that beat their
        // state simply re-create it, exactly as OpenNF's loss-free mode
        // would buffer — but its bytes and duration are accounted.
        //
        // The handoff is an execution of `pam-protocol`'s model-checked
        // ScaleOutHandoff machine: `Start` exports the slice (no pause —
        // the home server keeps serving its remaining flows), and the slice
        // round's delivery activates the recipient. The exhaustively checked
        // model is what licenses "packets that beat their state re-create
        // it": the recipient's re-created entries outrank the slice.
        let protocol = HandoverState::new(ProtocolConfig::scale_out_handoff());
        let Ok((protocol, actions)) = protocol.step(HandoverEvent::Start) else {
            unreachable!("a fresh handover always accepts Start");
        };
        debug_assert!(actions.contains(HandoverAction::ExportFull));
        debug_assert!(!actions.contains(HandoverAction::PauseSource));
        let runtime = self.servers[home.index()].runtime();
        let moved_flows =
            (runtime.stateful_flow_entries() as f64 * (fraction - before).max(0.0)).round() as u64;
        let bytes = state_transfer_size(
            ByteSize::ZERO,
            runtime.config().state_overhead_per_flow,
            moved_flows as usize,
        );
        let done = self
            .interconnect
            .transfer(now, bytes, LinkDirection::NicToCpu);
        // The slice lands at `done`; its delivery completes the protocol and
        // makes the recipient authoritative for the re-steered flows.
        let Ok((protocol, actions)) = protocol.step(HandoverEvent::RoundDelivered { dirty: 0 })
        else {
            unreachable!("the snapshot phase always accepts the slice delivery");
        };
        debug_assert_eq!(protocol.phase, Phase::Done);
        debug_assert!(actions.contains(HandoverAction::ActivateTarget));
        self.handoff_flows += moved_flows;
        self.handoff_bytes += bytes.as_bytes();
        self.handoff_us += done.duration_since(now).as_micros_f64();
        self.scale_outs += 1;
        self.last_scale_action[home.index()] = Some(now);
        FleetAction::ScaleOut(recipient, fraction)
    }

    /// Rung 3 of the ladder: return spilled flows once the window is calm.
    fn try_scale_in(&mut self, now: SimTime, home: ServerId, peak: Gbps) -> FleetAction {
        if self.steering.fraction_of(home) == 0.0 || self.in_cooldown(now, home) {
            return FleetAction::None;
        }
        if self.nic_utilisation_at(home, peak) >= self.config.scale_in_below {
            return FleetAction::None;
        }
        let fraction = self.steering.scale_in(home, self.config.spill_step);
        self.scale_ins += 1;
        self.last_scale_action[home.index()] = Some(now);
        FleetAction::ScaleIn(fraction)
    }

    /// Delivers fault-plan event `index`. Every runtime is drained to `now`
    /// first — exactly what the window barrier does — so the fault lands on
    /// identical data-plane state whichever runner reached it.
    fn apply_fault(&mut self, now: SimTime, index: usize) {
        let Some(event) = self
            .fault_plan
            .as_ref()
            .and_then(|plan| plan.events().get(index))
            .copied()
        else {
            debug_assert!(false, "fault event {index} scheduled but not in the plan");
            return;
        };
        debug_assert_eq!(event.at, now, "fault events fire at their plan time");
        self.drain_all(now);
        match event.kind {
            FaultKind::ServerCrash { server } => self.crash_server(now, server),
            FaultKind::ServerRecover { server } => self.recover_server(now, server),
            FaultKind::LinkFlap { server, down_for } => {
                self.servers[server.index()]
                    .runtime_mut()
                    .link_flap(now, down_for);
                self.events
                    .schedule(now + down_for, FleetEvent::LinkRestore(server));
            }
            FaultKind::CapacitySwing {
                server,
                factor,
                period,
            } => {
                self.servers[server.index()]
                    .runtime_mut()
                    .link_set_capacity_factor(now, factor);
                self.events
                    .schedule(now + period, FleetEvent::SwingRestore(server));
            }
        }
    }

    /// Ends a link flap on `server`, unless a later overlapping flap pushed
    /// the outage past this restore — every flap schedules its own restore,
    /// and only the one matching the final `down_until` may recover (an
    /// early `recover_transport` would *shorten* the extended outage).
    fn link_restore(&mut self, now: SimTime, server: ServerId) {
        let runtime = self.servers[server.index()].runtime_mut();
        runtime.drain_until(now);
        if runtime.link_down_until() <= now {
            runtime.link_recover(now);
        }
    }

    /// Ends a capacity swing on `server`, restoring nominal bandwidth.
    fn swing_restore(&mut self, now: SimTime, server: ServerId) {
        let runtime = self.servers[server.index()].runtime_mut();
        runtime.drain_until(now);
        runtime.link_set_capacity_factor(now, 1.0);
    }

    /// Drains every runtime's data plane to `now`. Idempotent — window ends
    /// and per-arrival drains reach the same state in any interleaving.
    fn drain_all(&mut self, now: SimTime) {
        for server in &mut self.servers {
            server.runtime_mut().drain_until(now);
        }
    }

    /// Crashes `server`: aborts any in-flight pre-copy through the
    /// protocol's `TargetCrash` arc, black-holes its ingress, drains every
    /// steering entry pointing *at* it back home, and fails its own flow
    /// population over to the least-loaded survivor. Already-admitted
    /// packets still complete (the crash is an ingress black-hole, so no
    /// acked per-flow state is ever lost).
    fn crash_server(&mut self, now: SimTime, crashed: ServerId) {
        if !self.health.is_alive(crashed) {
            return;
        }
        {
            let runtime = self.servers[crashed.index()].runtime_mut();
            if runtime.pre_copy_in_progress() {
                // The staged target dies with the box: Snapshot/DirtyRound +
                // TargetCrash → Aborted, DiscardTarget, never ResumeSource.
                let _ = runtime.crash_target(now);
            }
        }
        self.health.crash(crashed);
        // Spills whose *recipient* just died return home: serving re-steered
        // flows at an overloaded home beats black-holing them. A home that is
        // itself down needs a fresh survivor instead.
        let mut orphaned = Vec::new();
        for index in 0..self.servers.len() {
            let home = ServerId::from(index);
            if self
                .steering
                .spill_of(home)
                .is_some_and(|spill| spill.to == crashed)
            {
                self.steering.clear_spill(home);
                if !self.health.is_alive(home) {
                    orphaned.push(home);
                }
            }
        }
        // The crashed server's own ladder spill is superseded by failover.
        self.steering.clear_spill(crashed);
        for home in std::iter::once(crashed).chain(orphaned) {
            if let Some(survivor) = self.pick_failover(home) {
                self.steering.force_spill(home, survivor);
            }
        }
    }

    /// Re-admits `server` behind the warm-up guard. Its forced failover
    /// spill is *not* torn down here: the ladder's ordinary scale-in walks
    /// the flows home step by step once the guard expires, so a recovered
    /// server is re-loaded gradually instead of all at once.
    fn recover_server(&mut self, now: SimTime, server: ServerId) {
        if !self.health.recover(server, now) {
            return;
        }
        // A re-admitted server comes back with clean transport: no pre-crash
        // FIFO watermark, no leftover outage (see the recovered-link
        // regression tests on `PcieLink::recover_transport`).
        self.servers[server.index()].runtime_mut().link_recover(now);
    }

    /// The least-loaded *alive* server other than `home` — failover is
    /// mandatory, so unlike [`Fleet::pick_recipient`] there is no headroom
    /// bar and warming servers qualify. Ties break to the lowest id.
    fn pick_failover(&self, home: ServerId) -> Option<ServerId> {
        let mut best: Option<(ServerId, f64)> = None;
        for (index, server) in self.servers.iter().enumerate() {
            let candidate = ServerId::from(index);
            if candidate == home || !self.health.is_alive(candidate) {
                continue;
            }
            let windowed = server.windowed_load().as_gbps();
            if best.map_or(true, |(_, load)| windowed < load) {
                best = Some((candidate, windowed));
            }
        }
        best.map(|(id, _)| id)
    }

    /// The least-loaded server (by windowed mean) that is not `home`, is
    /// alive and past any warm-up guard, has NIC headroom at its windowed
    /// load, is not itself spilling, and is not already the recipient of
    /// another server's spill. The last condition matters within a single
    /// tick: the estimator lags spill decisions by up to a window, so
    /// without it every overloaded home would pick the same idle server
    /// before any re-steered packet shows up in its samples.
    fn pick_recipient(&self, now: SimTime, home: ServerId) -> Option<ServerId> {
        let mut best: Option<(ServerId, f64)> = None;
        for (index, server) in self.servers.iter().enumerate() {
            let candidate = ServerId::from(index);
            if candidate == home
                || !self.health.eligible(candidate, now)
                || self.steering.fraction_of(candidate) > 0.0
                || self.steering.is_recipient(candidate)
            {
                continue;
            }
            let windowed = server.windowed_load();
            let utilisation = self.nic_utilisation_at(candidate, windowed);
            if utilisation >= self.config.recipient_headroom {
                continue;
            }
            if best.map_or(true, |(_, u)| utilisation < u) {
                best = Some((candidate, utilisation));
            }
        }
        best.map(|(id, _)| id)
    }

    /// The model-predicted SmartNIC utilisation of `server` at `load`.
    fn nic_utilisation_at(&self, server: ServerId, load: Gbps) -> f64 {
        let runtime = self.servers[server.index()].runtime();
        let chain = runtime.chain_model();
        let placement = runtime.placement();
        ResourceModel::new(&chain, &placement, load)
            .device_utilisation(Device::SmartNic)
            .value()
    }

    fn in_cooldown(&self, now: SimTime, server: ServerId) -> bool {
        matches!(
            self.last_scale_action[server.index()],
            Some(last) if now.duration_since(last) < self.config.scale_cooldown
        )
    }

    /// The machine-readable report of everything the fleet did so far.
    pub fn report(&self) -> FleetReport {
        let mut merged = pam_telemetry::LatencyHistogram::new();
        let mut totals = FleetTotals {
            scale_outs: self.scale_outs,
            scale_ins: self.scale_ins,
            scale_out_blocked: self.scale_out_blocked,
            control_steps: self.control_steps,
            resteered_packets: self.steering.stats().resteered_packets,
            handoff_flows: self.handoff_flows,
            handoff_bytes: self.handoff_bytes,
            handoff_us: self.handoff_us,
            server_crashes: self.health.total_crashes(),
            server_recoveries: self.health.total_recoveries(),
            fault_drops: self.fault_drops,
            ..FleetTotals::default()
        };
        let mut servers = Vec::with_capacity(self.servers.len());
        for server in &self.servers {
            let outcome = server.runtime().outcome();
            // fold from +0.0: an empty `sum()` is IEEE -0.0, which would
            // leak a "-0.0" into the JSON reports.
            let blackout_us: f64 = outcome
                .migrations
                .iter()
                .fold(0.0, |total, m| total + m.blackout().as_micros_f64());
            merged.merge(&server.runtime().registry().latency_histogram());
            totals.injected += outcome.injected;
            totals.delivered += outcome.delivered;
            totals.drops_overload += outcome.drops_overload;
            totals.drops_policy += outcome.drops_policy;
            totals.drops_migration += outcome.drops_migration;
            totals.migrations += outcome.migrations.len() as u64;
            totals.blackout_us += blackout_us;
            totals.aborted_migrations += outcome.aborted_migrations;
            servers.push(ServerReport {
                server: server.id().raw(),
                injected: outcome.injected,
                delivered: outcome.delivered,
                drops_overload: outcome.drops_overload,
                drops_policy: outcome.drops_policy,
                drops_migration: outcome.drops_migration,
                p50_us: outcome.p50_latency.as_micros_f64(),
                p99_us: outcome.p99_latency.as_micros_f64(),
                mean_us: outcome.mean_latency.as_micros_f64(),
                throughput_gbps: outcome.delivered_throughput.as_gbps(),
                migrations: outcome.migrations.len() as u64,
                blackout_us,
                spill_fraction: self.steering.fraction_of(server.id()),
                aborted_migrations: outcome.aborted_migrations,
                crashes: self.health.crashes(server.id()),
                recoveries: self.health.recoveries(server.id()),
            });
        }
        totals.p50_us = merged.p50().as_micros_f64();
        totals.p99_us = merged.p99().as_micros_f64();
        totals.mean_us = merged.mean().as_micros_f64();
        FleetReport { servers, totals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pam_core::{Placement, StrategyKind};
    use pam_nf::ServiceChainSpec;
    use pam_runtime::RuntimeConfig;
    use pam_traffic::{
        ArrivalProcess, FlowGeneratorConfig, PacketSizeProfile, TraceConfig, TrafficSchedule,
    };
    use pam_types::ByteSize;

    fn spec_with(schedule: TrafficSchedule, seed: u64) -> ServerSpec {
        ServerSpec {
            chain: ServiceChainSpec::figure1(),
            placement: Placement::figure1_initial(),
            runtime: RuntimeConfig::evaluation_default(),
            trace: TraceConfig {
                sizes: PacketSizeProfile::Fixed(ByteSize::bytes(512)),
                flows: FlowGeneratorConfig {
                    flow_count: 2000,
                    zipf_exponent: 1.0,
                    tcp_fraction: 0.8,
                },
                arrival: ArrivalProcess::Cbr,
                schedule,
                seed,
            },
        }
    }

    /// Server 0 takes a hopeless 3.9 Gbps burst (both devices saturated, the
    /// strategy answers ScaleOut) and then goes almost quiet; server 1 idles
    /// at 0.5 Gbps throughout.
    fn hopeless_fleet(strategy: StrategyKind) -> Fleet {
        let hot = TrafficSchedule::from_phases(vec![
            pam_traffic::Phase::new(Gbps::new(3.9), SimDuration::from_millis(10)),
            pam_traffic::Phase::new(Gbps::new(0.3), SimDuration::from_millis(20)),
        ]);
        let cold = TrafficSchedule::constant(Gbps::new(0.5), SimDuration::from_millis(30));
        Fleet::new(
            vec![spec_with(hot, 11), spec_with(cold, 12)],
            FleetConfig::with_strategy(strategy),
        )
        .unwrap()
    }

    #[test]
    fn hopeless_overload_scales_out_to_the_idle_server_and_back_in() {
        let mut fleet = hopeless_fleet(StrategyKind::Pam);
        let ticks = fleet.run(SimTime::from_millis(30));
        assert_eq!(ticks, 30, "1 ms cadence over 30 ms");
        assert!(fleet.scale_outs() > 0, "the ladder acted on ScaleOut");
        let stats = fleet.steering().stats();
        assert!(stats.resteered_packets > 0, "flows actually moved");
        // Once the burst passed and the window drained, flows walked home.
        assert!(fleet.scale_ins() > 0, "scale-in after the load receded");
        assert_eq!(fleet.steering().fraction_of(ServerId::new(0)), 0.0);
        // Both servers saw traffic; the idle server absorbed the spill.
        let report = fleet.report();
        assert!(report.servers[1].injected > 0);
        assert!(report.totals.resteered_packets == stats.resteered_packets);
        assert!(report.totals.control_steps == 30);
    }

    #[test]
    fn scale_out_disabled_keeps_every_flow_home() {
        let mut fleet = hopeless_fleet(StrategyKind::Pam);
        fleet.config.scale_out_enabled = false;
        fleet.run(SimTime::from_millis(30));
        assert_eq!(fleet.scale_outs(), 0);
        assert_eq!(fleet.steering().stats().resteered_packets, 0);
        // The overload still shows up as drops on the hot server.
        let report = fleet.report();
        assert!(report.servers[0].drops_overload > 0);
        assert_eq!(report.servers[1].drops_overload, 0);
    }

    #[test]
    fn no_migration_baseline_takes_no_actions() {
        let mut fleet = hopeless_fleet(StrategyKind::Original);
        fleet.run(SimTime::from_millis(30));
        assert_eq!(fleet.scale_outs(), 0);
        assert_eq!(fleet.report().totals.migrations, 0);
        assert!(fleet.log().iter().all(|r| r.action == FleetAction::None));
    }

    #[test]
    fn moderate_overload_is_handled_locally_without_scale_out() {
        // 2.2 Gbps overloads the NIC but PAM relieves it by migrating the
        // Logger — rung 1 of the ladder suffices, rung 2 never fires.
        let schedule = TrafficSchedule::step_overload(
            Gbps::new(1.5),
            SimDuration::from_millis(6),
            Gbps::new(2.2),
            SimDuration::from_millis(14),
        );
        let mut fleet = Fleet::new(
            vec![
                spec_with(schedule, 21),
                spec_with(
                    TrafficSchedule::constant(Gbps::new(1.0), SimDuration::from_millis(20)),
                    22,
                ),
            ],
            FleetConfig::with_strategy(StrategyKind::Pam),
        )
        .unwrap();
        fleet.run(SimTime::from_millis(20));
        let report = fleet.report();
        assert!(report.totals.migrations >= 1, "local migration happened");
        assert_eq!(fleet.scale_outs(), 0, "no cross-server action needed");
        assert!(report.totals.blackout_us > 0.0);
    }

    #[test]
    fn top_up_is_blocked_once_the_sticky_recipient_loses_headroom() {
        // Server 0 is hopeless for a long stretch; server 1 runs at 1.2 Gbps
        // (utilisation ~0.65, just under the 0.7 recipient headroom), so it
        // qualifies for the first spill but any spilled traffic pushes it
        // well past the bar. Later top-up attempts must be blocked instead
        // of raising the spill to max on a recipient that no longer
        // qualifies.
        let hot = TrafficSchedule::constant(Gbps::new(3.9), SimDuration::from_millis(12));
        let warm = TrafficSchedule::constant(Gbps::new(1.2), SimDuration::from_millis(12));
        let mut fleet = Fleet::new(
            vec![spec_with(hot, 41), spec_with(warm, 42)],
            FleetConfig::with_strategy(StrategyKind::Pam),
        )
        .unwrap();
        fleet.run(SimTime::from_millis(12));
        assert_eq!(
            fleet.steering().fraction_of(ServerId::new(0)),
            fleet.config().spill_step,
            "the spill stopped at one step"
        );
        assert!(
            fleet
                .log()
                .iter()
                .any(|r| r.action == FleetAction::ScaleOutBlocked),
            "later top-ups were blocked, not granted"
        );
    }

    #[test]
    fn concurrent_hopeless_overloads_do_not_dogpile_one_recipient() {
        // Three servers slammed at once, one idle: the idle server must end
        // up the recipient of at most one spill — later homes are blocked
        // rather than allowed to pile onto a recipient whose windowed load
        // does not yet reflect the spill.
        let hot = TrafficSchedule::from_phases(vec![
            pam_traffic::Phase::new(Gbps::new(3.8), SimDuration::from_millis(12)),
            pam_traffic::Phase::new(Gbps::new(0.3), SimDuration::from_millis(8)),
        ]);
        let idle = TrafficSchedule::constant(Gbps::new(0.5), SimDuration::from_millis(20));
        let mut fleet = Fleet::new(
            vec![
                spec_with(hot.clone(), 31),
                spec_with(hot.clone(), 32),
                spec_with(hot, 33),
                spec_with(idle, 34),
            ],
            FleetConfig::with_strategy(StrategyKind::Pam),
        )
        .unwrap();
        fleet.run(SimTime::from_millis(20));
        let recipient = ServerId::new(3);
        let spills_into_idle = (0..3)
            .filter(|&i| {
                fleet
                    .steering()
                    .spill_of(ServerId::new(i))
                    .is_some_and(|s| s.to == recipient)
            })
            .count();
        assert!(
            spills_into_idle <= 1,
            "{spills_into_idle} homes spilled into the single idle server"
        );
        // The homes that could not find a recipient were blocked, not lost.
        assert!(fleet.scale_outs() > 0);
        assert!(
            fleet
                .log()
                .iter()
                .any(|r| r.action == FleetAction::ScaleOutBlocked),
            "the surplus homes must report ScaleOutBlocked"
        );
    }

    #[test]
    fn scale_out_ships_state_over_the_inter_server_link() {
        let mut fleet = hopeless_fleet(StrategyKind::Pam);
        fleet.run(SimTime::from_millis(30));
        assert!(fleet.scale_outs() > 0);
        let report = fleet.report();
        assert!(
            report.totals.handoff_flows > 0,
            "spilled flows hand their state off"
        );
        assert!(report.totals.handoff_bytes >= report.totals.handoff_flows * 64);
        // Each handoff pays at least the link's one-way latency (40 us).
        assert!(report.totals.handoff_us >= 40.0 * fleet.scale_outs() as f64);
        // No scale-out → no handoff.
        let mut idle = hopeless_fleet(StrategyKind::Original);
        idle.run(SimTime::from_millis(30));
        assert_eq!(idle.report().totals.handoff_flows, 0);
        assert_eq!(idle.report().totals.handoff_us, 0.0);
    }

    #[test]
    fn run_can_be_resumed_without_double_scheduling() {
        let mut whole = hopeless_fleet(StrategyKind::Pam);
        whole.run(SimTime::from_millis(30));
        let mut split = hopeless_fleet(StrategyKind::Pam);
        split.run(SimTime::from_millis(13));
        split.run(SimTime::from_millis(30));
        assert_eq!(
            serde_json::to_string(&whole.report()).unwrap(),
            serde_json::to_string(&split.report()).unwrap(),
            "split runs replay identically"
        );
    }

    #[test]
    fn hostile_estimator_configs_are_refused_before_allocating() {
        let build = |estimator: EstimatorConfig, poll: SimDuration| {
            let mut config =
                FleetConfig::with_strategy(StrategyKind::Pam).with_estimator(estimator);
            config.orchestrator.poll_interval = poll;
            let schedule = TrafficSchedule::constant(Gbps::new(0.5), SimDuration::from_millis(5));
            Fleet::new(vec![spec_with(schedule, 31)], config)
        };
        let poll = OrchestratorConfig::default().poll_interval;
        for kind in crate::EstimatorKind::ALL {
            let base = EstimatorConfig::of(kind);
            let forever = base.with_window(SimDuration::from_nanos(u64::MAX));
            for (estimator, poll) in [
                // Millions of slots: a long window over a short poll.
                (
                    base.with_window(SimDuration::from_secs(10)),
                    SimDuration::from_nanos(1),
                ),
                (forever, SimDuration::from_nanos(1)),
                (forever, poll),
                (
                    EstimatorConfig {
                        width: usize::MAX,
                        ..base
                    },
                    poll,
                ),
                (
                    EstimatorConfig {
                        depth: usize::MAX,
                        ..base
                    },
                    poll,
                ),
                (
                    EstimatorConfig {
                        top_k: usize::MAX,
                        ..base
                    },
                    poll,
                ),
            ] {
                match build(estimator, poll) {
                    Err(PamError::InvalidConfig(_)) => {}
                    other => panic!("{kind} {estimator:?}: {other:?}"),
                }
            }
            // A u64-long poll interval leaves a single slot: accepted.
            assert!(build(forever, SimDuration::from_nanos(u64::MAX)).is_ok());
        }
        // The slot bound itself builds (4 096 empty per-tick maps).
        let slots = EstimatorConfig::MAX_SLOTS;
        let widest = EstimatorConfig::default()
            .with_window(SimDuration::from_nanos(poll.as_nanos() * (slots - 1)));
        let fleet = build(widest, poll).expect("the bound is inclusive");
        assert!(fleet.servers()[0].estimator().resident_bytes() < 4 << 20);
    }

    use pam_sim::{FaultEvent, FaultKind, FaultPlan};

    fn crash_recover_plan(server: u64, crash_ms: u64, recover_ms: u64) -> FaultPlan {
        FaultPlan::new(vec![
            FaultEvent {
                at: SimTime::from_millis(crash_ms),
                kind: FaultKind::ServerCrash {
                    server: ServerId::new(server),
                },
            },
            FaultEvent {
                at: SimTime::from_millis(recover_ms),
                kind: FaultKind::ServerRecover {
                    server: ServerId::new(server),
                },
            },
        ])
    }

    #[test]
    fn fault_plan_must_be_installed_before_start_and_must_validate() {
        let mut fleet = hopeless_fleet(StrategyKind::Pam);
        // Out-of-range server index is rejected.
        assert!(fleet.set_fault_plan(crash_recover_plan(7, 1, 2)).is_err());
        assert!(fleet.set_fault_plan(crash_recover_plan(0, 5, 15)).is_ok());
        fleet.run(SimTime::from_millis(1));
        // Too late: the queue already started.
        assert!(fleet.set_fault_plan(crash_recover_plan(1, 5, 15)).is_err());
    }

    #[test]
    fn crash_black_holes_ingress_and_fails_over_to_the_survivor() {
        // Server 0 crashes at 5 ms mid-burst and recovers at 15 ms. Its
        // flows must fail over to server 1 at the crash instant (no drop
        // window), and the ladder must walk them home after the warm-up.
        let mut fleet = hopeless_fleet(StrategyKind::Pam);
        fleet.set_fault_plan(crash_recover_plan(0, 5, 15)).unwrap();
        fleet.run(SimTime::from_millis(40));
        let report = fleet.report();
        assert_eq!(report.totals.server_crashes, 1);
        assert_eq!(report.totals.server_recoveries, 1);
        assert_eq!(report.servers[0].crashes, 1);
        assert_eq!(report.servers[0].recoveries, 1);
        assert_eq!(report.servers[1].crashes, 0);
        assert_eq!(
            report.totals.fault_drops, 0,
            "the survivor absorbed every re-steered packet"
        );
        assert!(
            report.totals.resteered_packets > 0,
            "failover actually moved traffic"
        );
        // After recovery + warm-up the scale-in ladder walked the forced
        // spill back down (run long enough for the cooldown-spaced steps).
        assert_eq!(fleet.steering().fraction_of(ServerId::new(0)), 0.0);
        assert!(
            fleet.scale_ins() >= 4,
            "a full fraction walks home in spill_step steps"
        );
        // Nothing already admitted was lost: per-server packet conservation
        // holds on both servers after the final drain.
        for server in &report.servers {
            assert_eq!(
                server.injected,
                server.delivered
                    + server.drops_overload
                    + server.drops_policy
                    + server.drops_migration,
                "server {} leaked admitted packets",
                server.server
            );
        }
    }

    #[test]
    fn crash_with_no_survivor_black_holes_packets_until_recovery() {
        // A single-server fleet has nowhere to fail over: packets routed to
        // the dead server are counted as fault drops, and service resumes
        // after recovery.
        let build = || {
            Fleet::new(
                vec![spec_with(
                    TrafficSchedule::constant(Gbps::new(0.5), SimDuration::from_millis(30)),
                    11,
                )],
                FleetConfig::with_strategy(StrategyKind::Pam),
            )
            .unwrap()
        };
        let mut fleet = build();
        fleet.set_fault_plan(crash_recover_plan(0, 5, 15)).unwrap();
        fleet.run(SimTime::from_millis(40));
        let report = fleet.report();
        assert!(report.totals.fault_drops > 0, "the black hole was real");
        assert_eq!(report.totals.server_crashes, 1);
        // Packets admitted before the crash all completed (ingress
        // black-hole, not state loss)...
        assert_eq!(
            report.totals.injected,
            report.totals.delivered
                + report.totals.drops_overload
                + report.totals.drops_policy
                + report.totals.drops_migration
        );
        // ...and recovery restored service: admissions well beyond what a
        // crash-with-no-recovery run of the same scenario ever admits.
        let mut unrecovered = build();
        unrecovered
            .set_fault_plan(FaultPlan::new(vec![FaultEvent {
                at: SimTime::from_millis(5),
                kind: FaultKind::ServerCrash {
                    server: ServerId::new(0),
                },
            }]))
            .unwrap();
        unrecovered.run(SimTime::from_millis(40));
        assert!(
            report.totals.injected > unrecovered.report().totals.injected * 3,
            "recovery must re-admit traffic (got {} vs {} unrecovered)",
            report.totals.injected,
            unrecovered.report().totals.injected
        );
    }

    #[test]
    fn crash_aborts_an_in_flight_precopy_through_the_target_crash_arc() {
        // Find a deterministic instant where server 0 has a pre-copy in
        // flight (the moderate overload triggers a local PAM migration),
        // then replay the same fleet with a crash pinned to that instant.
        let schedule = || {
            TrafficSchedule::step_overload(
                Gbps::new(1.5),
                SimDuration::from_millis(6),
                Gbps::new(2.2),
                SimDuration::from_millis(14),
            )
        };
        // The evaluation default migrates stop-and-copy (atomic, nothing to
        // crash into); run this fleet's migrations in pre-copy mode so a
        // staged target exists mid-flight.
        let build = || {
            use pam_runtime::{MigrationConfig, MigrationMode};
            let mut spec = spec_with(schedule(), 21);
            spec.runtime = RuntimeConfig::evaluation_default().with_migration(MigrationConfig {
                mode: MigrationMode::PreCopy,
                ..MigrationConfig::default()
            });
            Fleet::new(vec![spec], FleetConfig::with_strategy(StrategyKind::Pam)).unwrap()
        };
        // Pre-copy rounds complete in tens of microseconds, so probe finely.
        let mut probe = build();
        let mut at = SimTime::ZERO;
        while !probe.servers()[0].runtime().pre_copy_in_progress() {
            at += SimDuration::from_micros(5);
            assert!(
                at <= SimTime::from_millis(20),
                "no pre-copy migration ever started"
            );
            probe.run(at);
        }
        // The migration may have been started by the control tick at `at`
        // itself, and a fault scheduled at `at` would sort *before* that
        // tick (fault events are queued at start). Crash strictly after the
        // probe point instead, checking the pre-copy is still in flight.
        let crash_at = at + SimDuration::from_micros(1);
        probe.run(crash_at);
        assert!(
            probe.servers()[0].runtime().pre_copy_in_progress(),
            "the staged migration must still be in flight at the crash instant"
        );
        let mut fleet = build();
        fleet
            .set_fault_plan(FaultPlan::new(vec![FaultEvent {
                at: crash_at,
                kind: FaultKind::ServerCrash {
                    server: ServerId::new(0),
                },
            }]))
            .unwrap();
        fleet.run(SimTime::from_millis(20));
        assert_eq!(
            fleet.servers()[0].runtime().target_crashes(),
            1,
            "the crash aborted the staged migration via TargetCrash"
        );
        let report = fleet.report();
        assert!(report.totals.aborted_migrations >= 1);
        assert_eq!(
            report.servers[0].aborted_migrations,
            report.totals.aborted_migrations
        );
        // The abort lost nothing that was admitted: conservation holds.
        assert_eq!(
            report.totals.injected,
            report.totals.delivered
                + report.totals.drops_overload
                + report.totals.drops_policy
                + report.totals.drops_migration
        );
    }

    #[test]
    fn link_faults_delay_but_never_lose_traffic_and_replay_identically() {
        let plan = || {
            FaultPlan::new(vec![
                FaultEvent {
                    at: SimTime::from_millis(3),
                    kind: FaultKind::LinkFlap {
                        server: ServerId::new(0),
                        down_for: SimDuration::from_micros(600),
                    },
                },
                // Overlapping flap: extends the outage; only the later
                // restore may recover the link.
                FaultEvent {
                    at: SimTime::from_micros(3_300),
                    kind: FaultKind::LinkFlap {
                        server: ServerId::new(0),
                        down_for: SimDuration::from_micros(800),
                    },
                },
                FaultEvent {
                    at: SimTime::from_millis(8),
                    kind: FaultKind::CapacitySwing {
                        server: ServerId::new(1),
                        factor: 0.4,
                        period: SimDuration::from_millis(2),
                    },
                },
            ])
        };
        // Traffic ends at 30 ms; run past it so in-flight packets drain
        // before asserting conservation.
        let mut whole = hopeless_fleet(StrategyKind::Pam);
        whole.set_fault_plan(plan()).unwrap();
        whole.run(SimTime::from_millis(32));
        let report = whole.report();
        assert_eq!(report.totals.server_crashes, 0);
        assert_eq!(report.totals.fault_drops, 0);
        assert_eq!(
            report.totals.injected,
            report.totals.delivered
                + report.totals.drops_overload
                + report.totals.drops_policy
                + report.totals.drops_migration,
            "link faults delay packets, they never lose them"
        );
        // Resumable mid-outage: splitting the run across the flap window
        // replays byte-identically.
        let mut split = hopeless_fleet(StrategyKind::Pam);
        split.set_fault_plan(plan()).unwrap();
        split.run(SimTime::from_micros(3_500));
        split.run(SimTime::from_millis(32));
        assert_eq!(
            serde_json::to_string(&whole.report()).unwrap(),
            serde_json::to_string(&split.report()).unwrap(),
            "split faulted runs replay identically"
        );
    }
}
