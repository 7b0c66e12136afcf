//! The only module that names workspace crates.
//!
//! Every call the benchmark makes into the simulator goes through here, and
//! it binds only to constructors that take plain config structs and to the
//! entry points ROADMAP items B and C intend to keep:
//!
//! * `FleetScenario::{new, with_tuning, server_spec, fleet_config}` (plain
//!   data) and `Fleet::{new, run, run_sharded, report, events_scheduled,
//!   shard_stats, servers}`;
//! * `ChainRuntime::{new, run_until, submit, drain_until, outcome,
//!   pcie_stats, stateful_flow_entries, events_scheduled}` and
//!   `Orchestrator::{new, control_step}`;
//! * `TraceSynthesizer::{new, next_packet}`, `PacketBuilder::build`,
//!   `build_kind` + `NetworkFunction::{process_batch_into, export_state,
//!   import_state}`, `EventQueue::{schedule, pop}`, `PcieLink::{new,
//!   propagate_burst, begin_transfer, poll_transfer}`, `LoadEstimator`,
//!   `StrategyKind::build().decide`.
//!
//! It never calls `FleetScenario::run*`, the free `run_*` matrix/ablation
//! functions or `fleet_bench`, which item C replaces. The single exception
//! is [`figure2`]: `run_figure2` is the repository's only reference result,
//! so the accuracy figure has to come from it.
//!
//! Nothing in this module reads the host clock; callers time these calls
//! from outside.

use std::collections::BTreeSet;
use std::hint::black_box;

use pam_core::{ChainModel, Placement, StrategyKind};
use pam_experiments::fleet::{FLEET_BENCH_BATCHES, FLEET_BENCH_MODES, FLEET_BENCH_STRATEGIES};
use pam_experiments::{
    run_figure2, Figure1Scenario, Figure2Config, FleetScenario, FleetScenarioKind, FleetTuning,
};
use pam_fleet::{
    EstimatorConfig, EstimatorKind, Fleet, FleetConfig, FleetReport, LoadEstimator, ServerSpec,
};
use pam_nf::{build_kind, NetworkFunction, NfContext, NfKind, NfVerdict, Packet};
use pam_orchestrator::{Orchestrator, OrchestratorConfig};
use pam_runtime::{ChainRuntime, MigrationMode, RunOutcome};
use pam_sim::{EventQueue, LinkDirection, LinkModel, PcieLink, PcieLinkConfig, TransferStatus};
use pam_traffic::{
    ArrivalProcess, FlowGeneratorConfig, PacketSizeProfile, Phase, TraceConfig, TraceSynthesizer,
    TrafficSchedule,
};
use pam_types::{ByteSize, Gbps, SimDuration, SimTime};
use pam_wire::{FiveTuple, IpProtocol, PacketBuilder, TransportKind};
use serde::value::{Map, Value};
use serde::Serialize;

/// Simulated time past the horizon a cell is run for before packet
/// conservation is checked, so that nothing is in flight (the margin
/// `FaultAudit` uses).
const DRAIN_MARGIN: SimDuration = SimDuration::from_millis(4);

// ---------------------------------------------------------------------------
// Cell descriptions
// ---------------------------------------------------------------------------

/// Who drives a cell's servers.
#[derive(Debug, Clone)]
enum Control {
    /// A fleet controller over every server, run on `lanes` worker lanes.
    Fleet { config: FleetConfig, lanes: usize },
    /// One server with its own poll → decide → migrate loop.
    Chain { orchestrator: OrchestratorConfig },
}

/// Which bar of the fleet headline (rolling hotspot, stop-and-copy, batch 1)
/// a cell is, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Headline {
    /// The no-migration baseline.
    None,
    /// The naive bottleneck migration.
    Naive,
    /// Push-aside migration.
    Pam,
}

/// One simulated cell — the benchmark's unit of operation — as plain data.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Human-readable coordinates, unique within a workload.
    pub label: String,
    /// Whether the cell runs PAM (only those feed the `sim_*` metrics).
    pub pam: bool,
    /// The fleet-headline bar this cell is, if any.
    pub headline: Option<Headline>,
    /// Cells with equal keys are offered exactly the same packets.
    pub traffic_key: String,
    /// Doorbell batch bound of every server's datapath.
    pub batch: usize,
    servers: Vec<ServerSpec>,
    control: Control,
}

impl CellSpec {
    /// Number of servers in the cell.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Whether a fleet controller drives the cell (false: one chain with its
    /// own orchestrator, no `pam-fleet` code at all).
    pub fn is_fleet(&self) -> bool {
        matches!(self.control, Control::Fleet { .. })
    }

    /// End of the offered traffic, nanoseconds of simulated time.
    pub fn horizon_ns(&self) -> u64 {
        self.horizon().as_nanos()
    }

    fn horizon(&self) -> SimTime {
        SimTime::ZERO
            + self
                .servers
                .first()
                .map(|s| s.trace.schedule.total_duration())
                .unwrap_or(SimDuration::ZERO)
    }

    /// Divides every phase of every server's schedule, and so the horizon,
    /// by `divisor` (the `--quick` smoke).
    pub fn shrink(&mut self, divisor: u64) {
        for server in &mut self.servers {
            let phases = server.trace.schedule.phases().iter();
            server.trace.schedule = TrafficSchedule::from_phases(
                phases
                    .map(|p| Phase::new(p.load, p.duration / divisor))
                    .collect(),
            );
        }
    }

    /// The grain runs are sliced at, nanoseconds of simulated time. On one
    /// thread: the control interval, divided so that a slice covers at most
    /// eight servers' worth of it — a millisecond or two of host time
    /// whatever the fleet's size, short enough to fit between the host's
    /// slow moments. On worker lanes: the control interval itself, which is
    /// where the sharded runner synchronises anyway; every further cut would
    /// add a barrier it does not have.
    pub fn window_ns(&self) -> u64 {
        match &self.control {
            Control::Fleet { config, lanes } if *lanes > 1 => {
                config.orchestrator.poll_interval.as_nanos()
            }
            Control::Fleet { config, .. } => {
                config.orchestrator.poll_interval.as_nanos()
                    / (self.servers.len() as u64 / 8).max(1)
            }
            Control::Chain { orchestrator } => orchestrator.poll_interval.as_nanos(),
        }
    }
}

fn fleet_cell(
    scenario: &FleetScenario,
    strategy: StrategyKind,
    lanes: usize,
    label: String,
) -> CellSpec {
    let servers = (0..scenario.servers)
        .map(|index| scenario.server_spec(index))
        .collect();
    let headline = (scenario.kind == FleetScenarioKind::RollingHotspot
        && scenario.tuning.migration_mode == MigrationMode::StopAndCopy
        && scenario.tuning.batch == 1)
        .then_some(match strategy {
            StrategyKind::Pam => Headline::Pam,
            StrategyKind::Original => Headline::None,
            _ => Headline::Naive,
        });
    CellSpec {
        label,
        pam: strategy == StrategyKind::Pam,
        headline,
        traffic_key: format!("{}x{}", scenario.kind.name(), scenario.servers),
        batch: scenario.tuning.batch as usize,
        servers,
        control: Control::Fleet {
            config: scenario.fleet_config(strategy),
            lanes,
        },
    }
}

/// The gated matrix exactly as `fleet_bench` iterates it: scenario × mode ×
/// batch × strategy on four servers.
pub fn matrix48(seed: u64) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for kind in FleetScenarioKind::ALL {
        for mode in FLEET_BENCH_MODES {
            for batch in FLEET_BENCH_BATCHES {
                for strategy in FLEET_BENCH_STRATEGIES {
                    let mut scenario = FleetScenario::new(kind, 4)
                        .with_tuning(FleetTuning::default().with_mode(mode).with_batch(batch));
                    scenario.seed = seed;
                    let label = format!(
                        "{}/{}/b{}/{}",
                        kind.name(),
                        mode.name(),
                        batch,
                        strategy.build().name()
                    );
                    cells.push(fleet_cell(&scenario, strategy, 1, label));
                }
            }
        }
    }
    cells
}

/// The 64-server diurnal wave under PAM with default tuning, on `lanes`
/// worker lanes (1 is the sequential runner).
pub fn fleet64(seed: u64, lanes: usize) -> Vec<CellSpec> {
    let mut scenario = FleetScenario::new(FleetScenarioKind::DiurnalWave, 64);
    scenario.seed = seed;
    let label = format!("diurnal_wave/64/pam/lanes{lanes}");
    vec![fleet_cell(&scenario, StrategyKind::Pam, lanes, label)]
}

/// A one-second flash crowd on four servers, each drawing from a
/// million-flow Zipf population: exact estimator, pre-copy, batch 8, PAM.
pub fn flows1m(seed: u64) -> Vec<CellSpec> {
    let mut scenario = FleetScenario::new(FleetScenarioKind::FlashCrowd, 4).with_tuning(
        FleetTuning::default()
            .with_mode(MigrationMode::PreCopy)
            .with_batch(8)
            .with_estimator(EstimatorKind::Exact)
            .with_flows(1_000_000),
    );
    scenario.seed = seed;
    let label = "flash_crowd/4/1Mflows/pre_copy/b8/pam".to_string();
    let mut cell = fleet_cell(&scenario, StrategyKind::Pam, 1, label);
    cell.traffic_key = "flash_crowd_1s_1Mflows".to_string();
    for (index, server) in cell.servers.iter_mut().enumerate() {
        let (calm, crowd) = if index == 0 { (1.4, 3.8) } else { (1.0, 1.0) };
        server.trace.schedule = TrafficSchedule::from_phases(vec![
            Phase::new(Gbps::new(calm), SimDuration::from_millis(200)),
            Phase::new(Gbps::new(crowd), SimDuration::from_millis(400)),
            Phase::new(Gbps::new(calm), SimDuration::from_millis(400)),
        ]);
    }
    vec![cell]
}

/// The paper's own scenario: the figure-1 chain under one PAM orchestrator at
/// each of the six fixed packet sizes, phases twelve times the default.
pub fn chain_sweep(seed: u64) -> Vec<CellSpec> {
    pam_traffic::size::PAPER_SWEEP_SIZES
        .iter()
        .map(|&bytes| {
            let defaults = Figure1Scenario::default();
            let scenario = Figure1Scenario {
                baseline_duration: defaults.baseline_duration * 12,
                overload_duration: defaults.overload_duration * 12,
                sizes: PacketSizeProfile::Fixed(ByteSize::bytes(bytes)),
                seed,
                ..defaults
            };
            let trace = TraceConfig {
                sizes: scenario.sizes.clone(),
                flows: FlowGeneratorConfig {
                    flow_count: 5_000,
                    zipf_exponent: 1.0,
                    tcp_fraction: 0.8,
                },
                arrival: ArrivalProcess::Cbr,
                schedule: TrafficSchedule::step_overload(
                    scenario.baseline_load,
                    scenario.baseline_duration,
                    scenario.overload_load,
                    scenario.overload_duration,
                ),
                seed: scenario.seed,
            };
            CellSpec {
                label: format!("figure1/{bytes}B/b1/pam"),
                pam: true,
                headline: None,
                traffic_key: format!("figure1/{bytes}B"),
                batch: 1,
                servers: vec![ServerSpec {
                    chain: scenario.chain_spec(),
                    placement: scenario.initial_placement(),
                    runtime: scenario.runtime_config(),
                    trace,
                }],
                control: Control::Chain {
                    orchestrator: OrchestratorConfig::with_strategy(StrategyKind::Pam),
                },
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Running a cell
// ---------------------------------------------------------------------------

enum Sim {
    Fleet {
        fleet: Box<Fleet>,
        lanes: usize,
    },
    Chain {
        runtime: Box<ChainRuntime>,
        trace: Box<TraceSynthesizer>,
        orchestrator: Orchestrator,
        next_poll: SimTime,
    },
}

/// A built cell: everything set-up pays for has happened.
pub struct Cell {
    sim: Sim,
    horizon: SimTime,
}

/// Exact counters read between windows of the traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Progress {
    /// Discrete events scheduled so far.
    pub events: u64,
    /// Packets injected so far.
    pub injected: u64,
    /// Live migrations completed so far.
    pub migrations: u64,
}

impl Cell {
    /// Builds the cell's simulator objects (trace synthesizers with their
    /// flow pools, runtimes with pre-warmed pools, the fleet).
    pub fn build(spec: &CellSpec) -> Result<Cell, String> {
        let horizon = spec.horizon();
        let sim = match &spec.control {
            Control::Fleet { config, lanes } => Sim::Fleet {
                fleet: Box::new(
                    Fleet::new(spec.servers.clone(), *config).map_err(|e| e.to_string())?,
                ),
                lanes: *lanes,
            },
            Control::Chain { orchestrator } => {
                let server = spec
                    .servers
                    .first()
                    .ok_or_else(|| "a chain cell has one server".to_string())?;
                Sim::Chain {
                    runtime: Box::new(
                        ChainRuntime::new(
                            server.chain.clone(),
                            &server.placement,
                            server.runtime.clone(),
                        )
                        .map_err(|e| e.to_string())?,
                    ),
                    trace: Box::new(TraceSynthesizer::new(server.trace.clone())),
                    orchestrator: Orchestrator::new(*orchestrator),
                    next_poll: SimTime::ZERO + orchestrator.poll_interval,
                }
            }
        };
        Ok(Cell { sim, horizon })
    }

    /// Advances the simulation to `until_ns`. One call to the horizon and a
    /// call per control interval leave identical state.
    pub fn run_to(&mut self, until_ns: u64) {
        let until = SimTime::from_nanos(until_ns);
        match &mut self.sim {
            Sim::Fleet { fleet, lanes } => {
                if *lanes > 1 {
                    fleet.run_sharded(until, *lanes);
                } else {
                    fleet.run(until);
                }
            }
            Sim::Chain {
                runtime,
                trace,
                orchestrator,
                next_poll,
            } => {
                let poll = orchestrator.config().poll_interval;
                while *next_poll <= until {
                    runtime.run_until(trace, *next_poll);
                    orchestrator.control_step(runtime, *next_poll);
                    *next_poll += poll;
                }
                runtime.run_until(trace, until);
            }
        }
    }

    /// The exact counters the traced run samples between windows.
    pub fn progress(&self) -> Progress {
        match &self.sim {
            Sim::Fleet { fleet, .. } => {
                let mut progress = Progress {
                    events: fleet.events_scheduled(),
                    ..Progress::default()
                };
                for server in fleet.servers() {
                    let outcome = server.runtime().outcome();
                    progress.injected += outcome.injected;
                    progress.migrations += outcome.migrations.len() as u64;
                }
                progress
            }
            Sim::Chain { runtime, .. } => {
                let outcome = runtime.outcome();
                Progress {
                    events: runtime.events_scheduled(),
                    injected: outcome.injected,
                    migrations: outcome.migrations.len() as u64,
                }
            }
        }
    }

    /// Captures the run's report (`Fleet::report()` / `outcome()`).
    pub fn report(&self) -> Report {
        match &self.sim {
            Sim::Fleet { fleet, .. } => Report::Fleet(fleet.report()),
            Sim::Chain { runtime, .. } => Report::Chain(Box::new(runtime.outcome())),
        }
    }

    /// Side-channel counters that are not part of the report.
    pub fn details(&self) -> Details {
        let mut details = Details::default();
        let mut add_runtime = |runtime: &ChainRuntime| {
            let pcie = runtime.pcie_stats();
            details.pcie_crossings += pcie.total_crossings();
            details.dma_bursts += pcie.dma_bursts;
            details.flow_entries += runtime.stateful_flow_entries() as u64;
            for migration in &runtime.outcome().migrations {
                details.migration_rounds += migration.rounds.len() as u64;
                details.round_bytes += migration
                    .rounds
                    .iter()
                    .map(|r| r.bytes.as_bytes())
                    .sum::<u64>();
            }
        };
        match &self.sim {
            Sim::Fleet { fleet, .. } => {
                for server in fleet.servers() {
                    add_runtime(server.runtime());
                    details.estimator_bytes += server.estimator().resident_bytes() as u64;
                }
                details.events = fleet.events_scheduled();
                let stats = fleet.shard_stats();
                details.shard_windows = stats.windows;
                details.lanes = stats
                    .lanes
                    .iter()
                    .map(|lane| Lane {
                        busy_s: lane.busy_ms / 1e3,
                        wait_s: lane.barrier_wait_ms / 1e3,
                    })
                    .collect();
            }
            Sim::Chain { runtime, .. } => {
                add_runtime(runtime);
                details.events = runtime.events_scheduled();
            }
        }
        details
    }

    /// Runs the cell a further [`DRAIN_MARGIN`] past the horizon, so that
    /// nothing is in flight, and checks exact packet conservation per
    /// server: `injected == delivered + drops by cause`.
    pub fn check_conservation(&mut self) -> Result<(), String> {
        self.run_to((self.horizon + DRAIN_MARGIN).as_nanos());
        let totals = self.report().totals();
        for (index, server) in totals.servers.iter().enumerate() {
            if server.injected != server.accounted {
                return Err(format!(
                    "server {index}: injected {} != delivered + drops {}",
                    server.injected, server.accounted
                ));
            }
        }
        if totals.servers.is_empty() {
            return Err("the report lists no server".to_string());
        }
        Ok(())
    }
}

/// One worker lane's wall-clock accounting in a sharded run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lane {
    /// Seconds the lane spent executing windows.
    pub busy_s: f64,
    /// Seconds the lane waited at barriers for slower lanes.
    pub wait_s: f64,
}

/// Side-channel counters of one finished cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Details {
    /// Discrete events scheduled.
    pub events: u64,
    /// PCIe crossings paid by all packets.
    pub pcie_crossings: u64,
    /// DMA bursts (doorbells) issued for those crossings.
    pub dma_bursts: u64,
    /// Per-flow state entries held by the stateful vNFs at the end.
    pub flow_entries: u64,
    /// Bytes resident in the load estimators at the end.
    pub estimator_bytes: u64,
    /// State-transfer rounds over all migrations.
    pub migration_rounds: u64,
    /// Bytes shipped by those rounds.
    pub round_bytes: u64,
    /// Synchronisation windows of the sharded runner (0 when sequential).
    pub shard_windows: u64,
    /// Per-lane accounting of the sharded runner (empty when sequential).
    pub lanes: Vec<Lane>,
}

/// A captured report, not yet serialised.
pub enum Report {
    /// A fleet run's report.
    Fleet(FleetReport),
    /// A single chain's outcome.
    Chain(Box<RunOutcome>),
}

/// One server's side of the conservation equation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerBalance {
    /// Packets injected at the server.
    pub injected: u64,
    /// Packets delivered plus packets dropped, by every cause.
    pub accounted: u64,
}

/// The numbers of a report the benchmark reads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered end to end.
    pub delivered: u64,
    /// Packets dropped by device overload.
    pub drops_overload: u64,
    /// Packets dropped by vNF policy verdicts.
    pub drops_policy: u64,
    /// Packets dropped during migration blackouts.
    pub drops_migration: u64,
    /// Mean chain latency of delivered packets, simulated microseconds.
    pub mean_us: f64,
    /// Median chain latency, simulated microseconds.
    pub p50_us: f64,
    /// 99th-percentile chain latency, simulated microseconds.
    pub p99_us: f64,
    /// Live migrations executed.
    pub migrations: u64,
    /// Migrations rolled back before handover.
    pub aborted_migrations: u64,
    /// Total migration blackout, simulated microseconds.
    pub blackout_us: f64,
    /// Control ticks the fleet controller ran (0 for a chain cell).
    pub control_steps: u64,
    /// Scale-out actions executed.
    pub scale_outs: u64,
    /// Scale-in actions executed.
    pub scale_ins: u64,
    /// Scale-outs refused for lack of a recipient.
    pub scale_out_blocked: u64,
    /// Packets sent to a server other than their home.
    pub resteered_packets: u64,
    /// Bytes of state shipped between servers.
    pub handoff_bytes: u64,
    /// Inter-server state-transfer time, simulated microseconds.
    pub handoff_us: f64,
    /// Per-server conservation balances, in server order.
    pub servers: Vec<ServerBalance>,
}

impl Report {
    /// Serialises the report: these are the bytes the digest covers.
    pub fn to_json(&self) -> Result<String, String> {
        match self {
            Report::Fleet(report) => serde_json::to_string(report),
            Report::Chain(outcome) => {
                let mut map = Map::new();
                map.insert("injected", outcome.injected.to_value());
                map.insert("delivered", outcome.delivered.to_value());
                map.insert("drops_overload", outcome.drops_overload.to_value());
                map.insert("drops_policy", outcome.drops_policy.to_value());
                map.insert("drops_migration", outcome.drops_migration.to_value());
                map.insert("mean_latency", outcome.mean_latency.to_value());
                map.insert("p50_latency", outcome.p50_latency.to_value());
                map.insert("p99_latency", outcome.p99_latency.to_value());
                map.insert(
                    "delivered_throughput",
                    outcome.delivered_throughput.to_value(),
                );
                map.insert("pcie_crossings", outcome.pcie_crossings.to_value());
                map.insert("migrations", outcome.migrations.to_value());
                map.insert("aborted_migrations", outcome.aborted_migrations.to_value());
                serde_json::to_string(&Value::Object(map))
            }
        }
        .map_err(|e| e.to_string())
    }

    /// The numbers the benchmark reads from the report.
    pub fn totals(&self) -> Totals {
        match self {
            Report::Fleet(report) => {
                let t = &report.totals;
                Totals {
                    injected: t.injected,
                    delivered: t.delivered,
                    drops_overload: t.drops_overload,
                    drops_policy: t.drops_policy,
                    drops_migration: t.drops_migration,
                    mean_us: t.mean_us,
                    p50_us: t.p50_us,
                    p99_us: t.p99_us,
                    migrations: t.migrations,
                    aborted_migrations: t.aborted_migrations,
                    blackout_us: t.blackout_us,
                    control_steps: t.control_steps,
                    scale_outs: t.scale_outs,
                    scale_ins: t.scale_ins,
                    scale_out_blocked: t.scale_out_blocked,
                    resteered_packets: t.resteered_packets,
                    handoff_bytes: t.handoff_bytes,
                    handoff_us: t.handoff_us,
                    servers: report
                        .servers
                        .iter()
                        .map(|s| ServerBalance {
                            injected: s.injected,
                            accounted: s.delivered
                                + s.drops_overload
                                + s.drops_policy
                                + s.drops_migration,
                        })
                        .collect(),
                }
            }
            Report::Chain(outcome) => Totals {
                injected: outcome.injected,
                delivered: outcome.delivered,
                drops_overload: outcome.drops_overload,
                drops_policy: outcome.drops_policy,
                drops_migration: outcome.drops_migration,
                mean_us: outcome.mean_latency.as_micros_f64(),
                p50_us: outcome.p50_latency.as_micros_f64(),
                p99_us: outcome.p99_latency.as_micros_f64(),
                migrations: outcome.migrations.len() as u64,
                aborted_migrations: outcome.aborted_migrations,
                blackout_us: outcome
                    .migrations
                    .iter()
                    .fold(0.0, |sum, m| sum + m.blackout().as_micros_f64()),
                servers: vec![ServerBalance {
                    injected: outcome.injected,
                    accounted: outcome.delivered
                        + outcome.drops_overload
                        + outcome.drops_policy
                        + outcome.drops_migration,
                }],
                ..Totals::default()
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Replay: one layer at a time, on the cell's own inputs
// ---------------------------------------------------------------------------

/// A chunk of one server's offered packets, in send order.
#[derive(Default)]
pub struct Chunk {
    times: Vec<SimTime>,
    packets: Vec<Packet>,
}

impl Chunk {
    /// Adds the chunk's flow ids to `flows`.
    pub fn collect_flows(&self, flows: &mut BTreeSet<u64>) {
        flows.extend(self.packets.iter().map(|p| p.flow_id().raw()));
    }

    /// A copy of the chunk (the datapath consumes its packets).
    pub fn duplicate(&self) -> Chunk {
        Chunk {
            times: self.times.clone(),
            packets: self.packets.clone(),
        }
    }

    fn clear(&mut self) {
        self.times.clear();
        self.packets.clear();
    }
}

/// One server's traffic source, built fresh from the cell's own config.
pub struct Source(TraceSynthesizer);

impl Source {
    /// `TraceSynthesizer::new` on server `index` of the cell.
    pub fn new(spec: &CellSpec, index: usize) -> Source {
        Source(TraceSynthesizer::new(spec.servers[index].trace.clone()))
    }

    /// Replaces `chunk` with up to `max` further packets; false once the
    /// schedule has ended and the chunk came back empty.
    pub fn pull(&mut self, chunk: &mut Chunk, max: usize) -> bool {
        chunk.clear();
        while chunk.packets.len() < max {
            let Some((time, packet)) = self.0.next_packet() else {
                break;
            };
            chunk.times.push(time);
            chunk.packets.push(packet);
        }
        !chunk.packets.is_empty()
    }

    /// Pulls every remaining packet and drops it; returns (packets, bytes).
    pub fn exhaust(&mut self) -> (u64, u64) {
        let (mut packets, mut bytes) = (0u64, 0u64);
        while let Some((_, packet)) = self.0.next_packet() {
            packets += 1;
            bytes += packet.size().as_bytes();
            black_box(&packet);
        }
        (packets, bytes)
    }
}

/// The (tuple, size) sequence of a chunk: what `PacketBuilder` is given.
pub struct WireInputs(Vec<(FiveTuple, ByteSize)>);

impl WireInputs {
    /// Extracts the builder inputs of every packet in `chunk`.
    pub fn of(chunk: &Chunk) -> WireInputs {
        WireInputs(
            chunk
                .packets
                .iter()
                .filter_map(|p| Some((p.five_tuple()?, p.size())))
                .collect(),
        )
    }

    /// `PacketBuilder::build` over the sequence; returns frames built.
    pub fn build_all(&self) -> usize {
        for &(tuple, size) in &self.0 {
            let transport = match tuple.protocol {
                IpProtocol::Tcp => TransportKind::Tcp,
                _ => TransportKind::Udp,
            };
            let frame = PacketBuilder::new()
                .five_tuple(tuple)
                .transport(transport)
                .size(size)
                .build();
            black_box(frame);
        }
        self.0.len()
    }
}

/// The figure-1 chain's vNF kinds, in chain order, with their metric stems.
pub const CHAIN_NFS: [&str; 4] = ["firewall", "monitor", "logger", "lb"];

/// One vNF instance exercised on its own.
pub struct NfUnderTest {
    nf: Box<dyn NetworkFunction>,
    verdicts: Vec<NfVerdict>,
}

impl NfUnderTest {
    /// `build_kind` for position `index` of [`CHAIN_NFS`].
    pub fn new(index: usize) -> NfUnderTest {
        NfUnderTest {
            nf: build_kind(NfKind::FIGURE1[index]),
            verdicts: Vec::new(),
        }
    }

    /// `process_batch_into` over the chunk, `batch` packets at a time.
    pub fn process(&mut self, chunk: &mut Chunk, batch: usize) {
        let batch = batch.max(1);
        let mut start = 0;
        while start < chunk.packets.len() {
            let end = (start + batch).min(chunk.packets.len());
            let ctx = NfContext::at(chunk.times[end - 1]);
            self.verdicts.clear();
            self.nf
                .process_batch_into(&mut chunk.packets[start..end], &ctx, &mut self.verdicts);
            black_box(&self.verdicts);
            start = end;
        }
    }

    /// `export_state`; returns the exported state and its modelled size.
    pub fn export(&self) -> (ExportedState, u64) {
        let state = self.nf.export_state();
        let bytes = state.estimated_size.as_bytes();
        (ExportedState(state), bytes)
    }

    /// `import_state` of `state` into a fresh instance of the same kind.
    pub fn import_fresh(&self, state: ExportedState) -> Result<(), String> {
        let mut fresh = build_kind(self.nf.kind());
        fresh.import_state(state.0).map_err(|e| e.to_string())?;
        black_box(fresh.flow_count());
        Ok(())
    }
}

/// A vNF's exported state, opaque to the caller.
pub struct ExportedState(pam_nf::NfState);

/// One server's datapath on its own: initial placement, no controller.
pub struct Datapath(ChainRuntime);

impl Datapath {
    /// `ChainRuntime::new` for server `index` of the cell.
    pub fn new(spec: &CellSpec, index: usize) -> Result<Datapath, String> {
        let server = &spec.servers[index];
        ChainRuntime::new(
            server.chain.clone(),
            &server.placement,
            server.runtime.clone(),
        )
        .map(Datapath)
        .map_err(|e| e.to_string())
    }

    /// `drain_until` + `submit` for every packet of the chunk, consuming it.
    pub fn feed(&mut self, chunk: Chunk) {
        for (time, packet) in chunk.times.into_iter().zip(chunk.packets) {
            self.0.drain_until(time);
            self.0.submit(time, packet);
        }
    }

    /// Drains whatever is still in flight at `until_ns`.
    pub fn finish(&mut self, until_ns: u64) {
        self.0.drain_until(SimTime::from_nanos(until_ns));
    }
}

/// The names of the two estimator kinds, in replay order.
pub const ESTIMATOR_KINDS: [&str; 2] = ["exact", "sketch"];

/// One load estimator fed on its own.
pub struct EstimatorUnderTest {
    estimator: LoadEstimator,
    interval: SimDuration,
    next_tick: SimTime,
}

impl EstimatorUnderTest {
    /// `LoadEstimator::new` of kind `index` of [`ESTIMATOR_KINDS`], with the
    /// cell's window and control interval (the matrix's when the cell has no
    /// fleet controller).
    pub fn new(spec: &CellSpec, index: usize) -> EstimatorUnderTest {
        let kind = EstimatorKind::ALL[index];
        let (config, interval) = match &spec.control {
            Control::Fleet { config, .. } => (
                EstimatorConfig {
                    kind,
                    ..config.estimator
                },
                config.orchestrator.poll_interval,
            ),
            Control::Chain { .. } => (
                EstimatorConfig::of(kind).with_window(SimDuration::from_micros(1_500)),
                SimDuration::from_micros(500),
            ),
        };
        EstimatorUnderTest {
            estimator: LoadEstimator::new(&config, interval),
            interval,
            next_tick: SimTime::ZERO + interval,
        }
    }

    /// One `record_arrival` per packet and one `record` per control
    /// interval the chunk spans.
    pub fn feed(&mut self, chunk: &Chunk) {
        for (time, packet) in chunk.times.iter().zip(&chunk.packets) {
            while *time >= self.next_tick {
                self.estimator.record(self.next_tick, Gbps::new(1.0));
                self.next_tick += self.interval;
            }
            self.estimator
                .record_arrival(packet.flow_id().raw(), packet.size().as_bytes());
        }
    }
}

/// Whether the cell's own fleet controller runs estimator kind `index` of
/// [`ESTIMATOR_KINDS`] (false for a chain cell: no estimator runs).
pub fn cell_uses_estimator(spec: &CellSpec, index: usize) -> bool {
    match &spec.control {
        Control::Fleet { config, .. } => config.estimator.kind == EstimatorKind::ALL[index],
        Control::Chain { .. } => false,
    }
}

/// The hold model on `EventQueue`: the queue is kept at `depth` events while
/// `ops` times the earliest is popped and a successor scheduled a seeded
/// increment later. Returns a checksum so the work cannot be elided.
pub fn queue_hold(depth: usize, ops: u64, seed: u64) -> u64 {
    let mut state = seed;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut queue: EventQueue<u64> = EventQueue::new();
    for slot in 0..depth as u64 {
        queue.schedule(SimTime::from_nanos(next() % 20_000), slot);
    }
    let mut checksum = 0u64;
    for _ in 0..ops {
        let Some((now, event)) = queue.pop() else {
            break;
        };
        checksum = checksum.wrapping_add(event ^ now.as_nanos());
        queue.schedule(now + SimDuration::from_nanos(1 + next() % 20_000), event);
    }
    checksum
}

/// `bursts` calls of `PcieLink::propagate_burst` on a FIFO link, eight
/// 512-byte packets each, alternating direction.
pub fn link_fifo_bursts(bursts: u64) -> u64 {
    let mut link = PcieLink::new(PcieLinkConfig::default());
    let mut now = SimTime::ZERO;
    let mut checksum = 0u64;
    for i in 0..bursts {
        let direction = LinkDirection::ALL[(i & 1) as usize];
        let arrival = link.propagate_burst(now, 8, ByteSize::bytes(8 * 512), direction);
        checksum = checksum.wrapping_add(arrival.as_nanos());
        now += SimDuration::from_nanos(400);
    }
    checksum
}

/// `rounds` rounds of `concurrency` overlapping 64 KiB transfers on a
/// fair-sharing link: `begin_transfer` each, then `poll_transfer` each until
/// complete. Returns the number of transfers completed.
pub fn link_fair_transfers(rounds: u64, concurrency: usize) -> u64 {
    let mut link =
        PcieLink::new(PcieLinkConfig::default().with_link_model(LinkModel::fair_share()));
    let mut now = SimTime::ZERO;
    let mut done = 0u64;
    let mut pending = Vec::with_capacity(concurrency);
    for _ in 0..rounds {
        pending.clear();
        for _ in 0..concurrency {
            pending.push(link.begin_transfer(now, ByteSize::kib(64), LinkDirection::NicToCpu));
        }
        for &(token, eta) in &pending {
            let mut at = eta.max(now);
            while let TransferStatus::InFlight(later) = link.poll_transfer(token, at) {
                at = later.max(at);
            }
            now = at;
            done += 1;
        }
    }
    done
}

/// `iterations` PAM decisions on the figure-1 chain at 2.2 Gbps.
pub fn pam_decide(iterations: u64) -> u64 {
    let strategy = StrategyKind::Pam.build();
    let chain = ChainModel::figure1_example();
    let placement = Placement::figure1_initial();
    let mut planned = 0u64;
    for _ in 0..iterations {
        let decision = strategy.decide(
            black_box(&chain),
            black_box(&placement),
            black_box(Gbps::new(2.2)),
        );
        planned += u64::from(decision.plan().is_some());
    }
    planned
}

/// The repository's reference result: Figure 2 at its default configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Figure2 {
    /// Mean chain latency before migration, simulated microseconds.
    pub original_mean_us: f64,
    /// Mean chain latency after the naive migration.
    pub naive_mean_us: f64,
    /// Mean chain latency after PAM's migration.
    pub pam_mean_us: f64,
    /// Delivered throughput under overload with the naive migration, Gbps.
    pub naive_gbps: f64,
    /// Delivered throughput under overload with PAM, Gbps.
    pub pam_gbps: f64,
    /// PAM's latency reduction relative to the naive migration, percent.
    pub reduction_pct: f64,
}

/// Runs `run_figure2(&Figure2Config::default())`; `quick` runs the reduced
/// sweep of `Figure2Config::quick()` instead (the harness smoke).
pub fn figure2(quick: bool) -> Figure2 {
    let results = run_figure2(&if quick {
        Figure2Config::quick()
    } else {
        Figure2Config::default()
    });
    let mean = |kind| {
        results
            .row(kind)
            .map(|r| r.mean_latency.as_micros_f64())
            .unwrap_or(0.0)
    };
    let gbps = |kind| {
        results
            .row(kind)
            .map(|r| r.throughput.as_gbps())
            .unwrap_or(0.0)
    };
    Figure2 {
        original_mean_us: mean(StrategyKind::Original),
        naive_mean_us: mean(StrategyKind::NaiveBottleneck),
        pam_mean_us: mean(StrategyKind::Pam),
        naive_gbps: gbps(StrategyKind::NaiveBottleneck),
        pam_gbps: gbps(StrategyKind::Pam),
        reduction_pct: results.pam_latency_reduction_vs_naive(),
    }
}
