//! The fleet scenario matrix.
//!
//! Four fleet-level traffic shapes stress different rungs of the decision
//! ladder (see `pam-fleet`):
//!
//! | Scenario | Shape | What it stresses |
//! |----------|-------|------------------|
//! | `diurnal_wave` | a staircase up and back down, phase-shifted per server | local migration and scale-in |
//! | `flash_crowd` | one server slammed far past both devices' capacity | cross-server scale-out |
//! | `rolling_hotspot` | an overload that walks across the servers in turn | repeated migrate/recover cycles |
//! | `correlated_overload` | every server slammed at once | the scale-out-blocked path |
//!
//! Every scenario runs under either live-migration transfer mode
//! ([`MigrationMode`], the benchmark matrix covers both), and is fully
//! seeded: the same [`FleetScenario`] produces the same packet trace, the
//! same decisions and a byte-identical [`pam_fleet::FleetReport`], which is
//! what lets CI gate on the committed `BENCH_baseline.json`.

use pam_core::{Placement, StrategyKind};
use pam_fleet::{EstimatorConfig, EstimatorKind, Fleet, FleetConfig, FleetReport, ServerSpec};
use pam_nf::ServiceChainSpec;
use pam_runtime::{MigrationMode, RuntimeConfig, RuntimeTuning};
use pam_sim::{LinkModel, PcieLinkConfig};
use pam_traffic::{
    ArrivalProcess, FlowGeneratorConfig, PacketSizeProfile, Phase, TraceConfig, TrafficSchedule,
};
use pam_types::{Gbps, Result, SimDuration, SimTime};
use serde::value::{Map, Value};
use serde::{Deserialize, Error, Serialize};

/// The default seed of the fleet benchmarks (kept stable: CI compares
/// reports against a committed baseline).
pub const DEFAULT_FLEET_SEED: u64 = 2018;

/// The four fleet-level traffic shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FleetScenarioKind {
    /// A staircase up and back down, phase-shifted per server.
    DiurnalWave,
    /// One server slammed far past both devices' capacity.
    FlashCrowd,
    /// An overload that walks across the servers in turn.
    RollingHotspot,
    /// Every server slammed at once; scale-out has nowhere to go.
    CorrelatedOverload,
}

impl FleetScenarioKind {
    /// Every scenario, in matrix order.
    pub const ALL: [FleetScenarioKind; 4] = [
        FleetScenarioKind::DiurnalWave,
        FleetScenarioKind::FlashCrowd,
        FleetScenarioKind::RollingHotspot,
        FleetScenarioKind::CorrelatedOverload,
    ];

    /// The machine-readable name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            FleetScenarioKind::DiurnalWave => "diurnal_wave",
            FleetScenarioKind::FlashCrowd => "flash_crowd",
            FleetScenarioKind::RollingHotspot => "rolling_hotspot",
            FleetScenarioKind::CorrelatedOverload => "correlated_overload",
        }
    }

    /// Parses a CLI scenario name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for FleetScenarioKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The experiment dimensions of a [`FleetScenario`], bundled.
///
/// Every dimension defaults to the committed-baseline knob, so
/// `FleetTuning::default()` reproduces `BENCH_baseline.json` and an
/// ablation overrides exactly the dimensions it moves. New dimensions are
/// added here (one field, one builder) instead of as parallel `with_*`
/// setters on [`FleetScenario`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetTuning {
    /// How every server transfers state during live migration.
    pub migration_mode: MigrationMode,
    /// Doorbell batch size of every server's datapath (1 = unbatched; see
    /// [`pam_runtime::BatchConfig`]).
    pub batch: u32,
    /// Throughput model of every link in the fleet — each server's PCIe link
    /// and the inter-server steering interconnect (FIFO-fixed baseline or
    /// contention-aware fair sharing; see [`pam_sim::LinkModel`]).
    pub link_model: LinkModel,
    /// Which load estimator feeds the fleet controller's decision ladder
    /// (exact per-flow accounting, or the sliding heavy-hitter sketch).
    pub estimator: EstimatorKind,
    /// Synthetic flows per server's trace (the fleet-wide flow population is
    /// `servers x flows`). The baseline 2000; the million-flow nightly cell
    /// raises it to stress estimator memory.
    pub flows: usize,
}

impl Default for FleetTuning {
    fn default() -> Self {
        FleetTuning {
            migration_mode: MigrationMode::StopAndCopy,
            batch: 1,
            link_model: LinkModel::FifoFixed,
            estimator: EstimatorKind::Exact,
            flows: 2000,
        }
    }
}

impl FleetTuning {
    /// Overrides the live-migration transfer mode.
    pub fn with_mode(mut self, mode: MigrationMode) -> Self {
        self.migration_mode = mode;
        self
    }

    /// Overrides the doorbell batch size (1 restores the unbatched baseline).
    pub fn with_batch(mut self, batch: u32) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Overrides the link throughput model.
    pub fn with_link_model(mut self, link_model: LinkModel) -> Self {
        self.link_model = link_model;
        self
    }

    /// Overrides the load estimator kind.
    pub fn with_estimator(mut self, estimator: EstimatorKind) -> Self {
        self.estimator = estimator;
        self
    }

    /// Overrides the per-server flow population.
    pub fn with_flows(mut self, flows: usize) -> Self {
        self.flows = flows.max(1);
        self
    }
}

/// One concrete, fully seeded fleet scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetScenario {
    /// The traffic shape.
    pub kind: FleetScenarioKind,
    /// Number of servers in the fleet.
    pub servers: usize,
    /// The comfortable per-server load.
    pub baseline: Gbps,
    /// The overload every scenario ramps some server(s) to.
    pub peak: Gbps,
    /// The experiment dimensions (migration mode, batch, link model,
    /// estimator, flow population) — see [`FleetTuning`].
    pub tuning: FleetTuning,
    /// Base RNG seed; server `i` traces with `seed + i`.
    pub seed: u64,
}

impl FleetScenario {
    /// The scenario with the benchmark defaults: 1.4 Gbps baseline, a
    /// mildly overloading 1.90 Gbps migratable peak (SmartNIC utilisation
    /// ≈ 1.05 on the figure-1 chain — enough to force migration, mild
    /// enough that the pre-migration queueing transient stays a small
    /// fraction of the run) and the stable benchmark seed.
    pub fn new(kind: FleetScenarioKind, servers: usize) -> Self {
        FleetScenario {
            kind,
            servers,
            baseline: Gbps::new(1.4),
            peak: Gbps::new(1.90),
            tuning: FleetTuning::default(),
            seed: DEFAULT_FLEET_SEED,
        }
    }

    /// The same scenario under the given experiment tuning — the single
    /// builder path for every ablation dimension.
    pub fn with_tuning(mut self, tuning: FleetTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// A load far past what migration can relieve on one box (both devices
    /// saturate): what flash crowds and correlated overloads ramp to.
    fn hopeless_peak(&self) -> Gbps {
        Gbps::new(3.8)
    }

    /// Duration of one scenario phase. The rolling hotspot uses longer
    /// phases: its comparison hinges on steady-state placement quality, so
    /// each visit must dwarf the reaction transient.
    fn phase_len(&self) -> SimDuration {
        match self.kind {
            FleetScenarioKind::RollingHotspot => SimDuration::from_millis(16),
            _ => SimDuration::from_millis(8),
        }
    }

    /// Total simulated horizon of the scenario.
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO + self.schedule_for(0).total_duration()
    }

    /// The offered-load schedule of server `index`.
    pub fn schedule_for(&self, index: usize) -> TrafficSchedule {
        let step = self.phase_len();
        match self.kind {
            // Staircase 60% → 85% → 100% → 85% → 60% of the migratable
            // peak (the top phase *is* the overload), rotated by one phase
            // per server so the fleet's "day" does not hit every server at
            // once.
            FleetScenarioKind::DiurnalWave => {
                let ladder = [0.6, 0.85, 1.0, 0.85, 0.6];
                let phases: Vec<Phase> = (0..ladder.len())
                    .map(|p| {
                        let factor = ladder[(p + index) % ladder.len()];
                        Phase::new(Gbps::new(self.peak.as_gbps() * factor), step)
                    })
                    .collect();
                TrafficSchedule::from_phases(phases)
            }
            // Server 0 is slammed to the hopeless peak for two phases while
            // the rest of the fleet idles at 1.0 Gbps (SmartNIC utilisation
            // ≈ 0.54 — low enough to qualify as a scale-out recipient).
            FleetScenarioKind::FlashCrowd => {
                let idle = Gbps::new(1.0);
                let (calm, crowd) = if index == 0 {
                    (self.baseline, self.hopeless_peak())
                } else {
                    (idle, idle)
                };
                TrafficSchedule::from_phases(vec![
                    Phase::new(calm, step),
                    Phase::new(crowd, step + step),
                    Phase::new(calm, step + step),
                ])
            }
            // The overload visits server `index` during phase `index`.
            FleetScenarioKind::RollingHotspot => {
                let phases: Vec<Phase> = (0..self.servers + 1)
                    .map(|p| {
                        let load = if p == index { self.peak } else { self.baseline };
                        Phase::new(load, step)
                    })
                    .collect();
                TrafficSchedule::from_phases(phases)
            }
            // Everyone is slammed at once: there is no recipient with
            // headroom, so the ladder's scale-out rung reports "blocked".
            FleetScenarioKind::CorrelatedOverload => TrafficSchedule::from_phases(vec![
                Phase::new(self.baseline, step),
                Phase::new(self.hopeless_peak(), step + step),
                Phase::new(self.baseline, step),
            ]),
        }
    }

    /// The server spec of server `index` (figure-1 chain and placement).
    ///
    /// The PCIe crossing latency is set to 40 µs — within the A3 ablation's
    /// 2–60 µs sweep, modelling the busier interconnect of a loaded fleet
    /// server. This accentuates what the poster's §3 stresses: a placement
    /// that breaks chain order (the naive migration's NIC→CPU→NIC→CPU path)
    /// pays two extra crossings on *every* packet.
    pub fn server_spec(&self, index: usize) -> ServerSpec {
        ServerSpec {
            chain: ServiceChainSpec::figure1(),
            placement: Placement::figure1_initial(),
            runtime: RuntimeConfig::evaluation_default()
                .with_pcie(PcieLinkConfig {
                    crossing_latency: SimDuration::from_micros(40),
                    ..PcieLinkConfig::default()
                })
                .tuned(
                    &RuntimeTuning::default()
                        .with_link_model(self.tuning.link_model)
                        .with_migration_mode(self.tuning.migration_mode)
                        .with_max_batch(self.tuning.batch as usize),
                ),
            trace: TraceConfig {
                // The paper's mixed packet sizes: service-time variance gives
                // the steady-state latency distribution a real tail, so p99
                // reflects placement quality, not just reaction transients.
                sizes: PacketSizeProfile::paper_sweep(),
                flows: FlowGeneratorConfig {
                    flow_count: self.tuning.flows,
                    zipf_exponent: 1.0,
                    tcp_fraction: 0.8,
                },
                arrival: ArrivalProcess::Cbr,
                schedule: self.schedule_for(index),
                seed: self.seed + index as u64,
            },
        }
    }

    /// The fleet-controller parameters of the benchmark runs: a 0.5 ms
    /// control cadence with a 1.5 ms window (the current tick plus the three
    /// preceding ones — eviction keeps samples aged exactly one window), so
    /// the ladder reacts within ~2 ms of an onset while still ignoring
    /// single-tick blips.
    pub fn fleet_config(&self, strategy: StrategyKind) -> FleetConfig {
        let mut config = FleetConfig::with_strategy(strategy);
        config.orchestrator.poll_interval = SimDuration::from_micros(500);
        config.estimator =
            EstimatorConfig::of(self.tuning.estimator).with_window(SimDuration::from_micros(1_500));
        config.interconnect = config.interconnect.with_link_model(self.tuning.link_model);
        config
    }

    /// Builds the fleet running `strategy` on every server.
    pub fn build_fleet(&self, strategy: StrategyKind) -> Result<Fleet> {
        let specs = (0..self.servers).map(|i| self.server_spec(i)).collect();
        Fleet::new(specs, self.fleet_config(strategy))
    }

    /// Runs the scenario to its horizon on one lane and returns the fleet's
    /// report.
    pub fn run(&self, strategy: StrategyKind) -> Result<FleetReport> {
        let mut fleet = self.build_fleet(strategy)?;
        fleet.run(self.horizon());
        Ok(fleet.report())
    }
}

// Hand-serialised with the historical *flat* key layout: the tuning
// dimensions appear as top-level `migration_mode` / `batch` / `link_model` /
// `estimator` / `flows` keys, and every missing key deserialises to the
// committed-baseline default — so scenarios written before a dimension
// existed keep parsing (the vendored serde derive has no
// `#[serde(default)]`).
impl Serialize for FleetScenario {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("kind".to_owned(), self.kind.to_value());
        map.insert("servers".to_owned(), self.servers.to_value());
        map.insert("baseline".to_owned(), self.baseline.to_value());
        map.insert("peak".to_owned(), self.peak.to_value());
        map.insert(
            "migration_mode".to_owned(),
            self.tuning.migration_mode.to_value(),
        );
        map.insert("batch".to_owned(), self.tuning.batch.to_value());
        map.insert("link_model".to_owned(), self.tuning.link_model.to_value());
        map.insert("estimator".to_owned(), self.tuning.estimator.to_value());
        map.insert("flows".to_owned(), self.tuning.flows.to_value());
        map.insert("seed".to_owned(), self.seed.to_value());
        Value::Object(map)
    }
}

impl Deserialize for FleetScenario {
    fn from_value(value: &Value) -> std::result::Result<Self, Error> {
        let map = match value {
            Value::Object(map) => map,
            _ => return Err(Error::custom("FleetScenario must be an object")),
        };
        let kind = FleetScenarioKind::from_value(
            map.get("kind")
                .ok_or_else(|| Error::custom("missing field `kind`"))?,
        )?;
        let servers = usize::from_value(
            map.get("servers")
                .ok_or_else(|| Error::custom("missing field `servers`"))?,
        )?;
        let defaults = FleetScenario::new(kind, servers);
        let mut tuning = defaults.tuning;
        if let Some(value) = map.get("migration_mode") {
            tuning.migration_mode = MigrationMode::from_value(value)?;
        }
        if let Some(value) = map.get("batch") {
            tuning.batch = u32::from_value(value)?;
        }
        if let Some(value) = map.get("link_model") {
            tuning.link_model = LinkModel::from_value(value)?;
        }
        if let Some(value) = map.get("estimator") {
            tuning.estimator = EstimatorKind::from_value(value)?;
        }
        if let Some(value) = map.get("flows") {
            tuning.flows = usize::from_value(value)?;
        }
        Ok(FleetScenario {
            kind,
            servers,
            baseline: match map.get("baseline") {
                Some(value) => Gbps::from_value(value)?,
                None => defaults.baseline,
            },
            peak: match map.get("peak") {
                Some(value) => Gbps::from_value(value)?,
                None => defaults.peak,
            },
            tuning,
            seed: match map.get("seed") {
                Some(value) => u64::from_value(value)?,
                None => defaults.seed,
            },
        })
    }
}

/// Aggregate state-transfer round accounting of one fleet run: every round of
/// every live migration on every server (pre-copy iterations plus the final
/// freeze round; stop-and-copy migrations contribute one round each).
struct RoundStats {
    /// State-transfer rounds executed fleet-wide.
    rounds: u64,
    /// Mean simulated duration of a round (including link contention and
    /// queueing), microseconds.
    mean_round_us: f64,
    /// Longest single round, microseconds.
    max_round_us: f64,
}

/// Walks every server's migration reports and aggregates their per-round
/// transfer durations.
fn collect_round_stats(fleet: &Fleet) -> RoundStats {
    let mut rounds = 0u64;
    let mut total_us = 0.0f64;
    let mut max_us = 0.0f64;
    for server in fleet.servers() {
        for migration in &server.runtime().outcome().migrations {
            for round in &migration.rounds {
                rounds += 1;
                let us = round.duration.as_micros_f64();
                total_us += us;
                max_us = max_us.max(us);
            }
        }
    }
    RoundStats {
        rounds,
        mean_round_us: if rounds > 0 {
            total_us / rounds as f64
        } else {
            0.0
        },
        max_round_us: max_us,
    }
}

/// One cell of the link-model ablation: a (scenario, strategy, link model)
/// triple under pre-copy migration, with the migration-facing report metrics
/// plus the out-of-band round accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkModelCell {
    /// Scenario name (see [`FleetScenarioKind::name`]).
    pub scenario: String,
    /// Strategy name (see [`pam_core::MigrationStrategy::name`]).
    pub strategy: String,
    /// Link throughput model name (see [`LinkModel::name`]).
    pub link_model: String,
    /// Live migrations executed fleet-wide.
    pub migrations: u64,
    /// Total migration-blackout time fleet-wide, microseconds.
    pub blackout_us: f64,
    /// Fleet-wide 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Migration-blackout drops fleet-wide.
    pub drops_migration: u64,
    /// State-transfer rounds executed fleet-wide.
    pub rounds: u64,
    /// Mean simulated duration of a round, microseconds.
    pub mean_round_us: f64,
    /// Longest single round, microseconds.
    pub max_round_us: f64,
}

/// The scenarios of the link-model ablation: the migration-heavy shapes,
/// where pre-copy rounds overlap sustained foreground traffic and the two
/// link models actually diverge.
pub const LINK_MODEL_SCENARIOS: [FleetScenarioKind; 2] = [
    FleetScenarioKind::DiurnalWave,
    FleetScenarioKind::RollingHotspot,
];

/// The link throughput models the ablation compares.
pub const LINK_MODEL_MODELS: [LinkModel; 2] = [LinkModel::FifoFixed, LinkModel::fair_share()];

/// Runs the link-model ablation: every migration-heavy scenario × strategy ×
/// link model under pre-copy migration, reporting how the strategy rankings
/// (blackout, p99, migration drops) shift when state transfer has to share
/// the link with foreground DMA — and how much longer the pre-copy rounds
/// themselves take under contention.
pub fn run_link_model_ablation(servers: usize) -> Result<Vec<LinkModelCell>> {
    let mut cells = Vec::new();
    for kind in LINK_MODEL_SCENARIOS {
        for model in LINK_MODEL_MODELS {
            for strategy in FLEET_BENCH_STRATEGIES {
                let scenario = FleetScenario::new(kind, servers).with_tuning(
                    FleetTuning::default()
                        .with_mode(MigrationMode::PreCopy)
                        .with_link_model(model),
                );
                // Run the fleet directly so the round accounting can be read
                // out of band after the horizon: it never enters the gated
                // `FleetReport`.
                let mut fleet = scenario.build_fleet(strategy)?;
                fleet.run(scenario.horizon());
                let report = fleet.report();
                let rounds = collect_round_stats(&fleet);
                cells.push(LinkModelCell {
                    scenario: kind.name().to_string(),
                    strategy: strategy.build().name().to_string(),
                    link_model: model.name().to_string(),
                    migrations: report.totals.migrations,
                    blackout_us: report.totals.blackout_us,
                    p99_us: report.totals.p99_us,
                    drops_migration: report.totals.drops_migration,
                    rounds: rounds.rounds,
                    mean_round_us: rounds.mean_round_us,
                    max_round_us: rounds.max_round_us,
                });
            }
        }
    }
    Ok(cells)
}

/// One cell of the estimator ablation: a (strategy, estimator kind) pair on
/// the flash-crowd scenario, with the control-quality metrics the decision
/// ladder is judged by plus the out-of-band estimator memory accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimatorCell {
    /// Scenario name (see [`FleetScenarioKind::name`]).
    pub scenario: String,
    /// Strategy name (see [`pam_core::MigrationStrategy::name`]).
    pub strategy: String,
    /// Estimator kind name (see [`EstimatorKind::name`]).
    pub estimator: String,
    /// Synthetic flows per server's trace.
    pub flows: usize,
    /// Live migrations executed fleet-wide.
    pub migrations: u64,
    /// Scale-out actions executed fleet-wide.
    pub scale_outs: u64,
    /// Fleet-wide 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Packets dropped fleet-wide, all causes.
    pub drops: u64,
    /// Bytes resident in every server's estimator at the end of the run —
    /// the ablation's headline number. Exact estimators grow with distinct
    /// flows; the sketch is fixed at construction.
    pub estimator_bytes: usize,
    /// The estimator's (epsilon, delta) overcount bound: epsilon as a
    /// fraction of the window's bytes, delta the per-query failure
    /// probability ((0, 0) for exact).
    pub epsilon: f64,
    /// See `epsilon`.
    pub delta: f64,
}

/// The scenario of the estimator ablation: the flash crowd, where one
/// server's flow table floods while the ladder has to pick a scale-out
/// recipient — the exact workload where estimator memory scales with the
/// attack and the sketch does not.
pub const ESTIMATOR_SCENARIO: FleetScenarioKind = FleetScenarioKind::FlashCrowd;

/// Runs the estimator ablation: every strategy × estimator kind on the
/// flash crowd at `flows` synthetic flows per server, comparing control
/// quality (migrations, scale-outs, p99, drops) and estimator memory. Both
/// estimators feed the ladder from the same tick-sample window, so the
/// decisions agree — the ablation's point is the memory column: exact
/// per-flow state holds the distinct flows of the live window, the sketch
/// stays at its fixed (epsilon, delta)-bounded footprint.
pub fn run_estimator_ablation(servers: usize, flows: usize) -> Result<Vec<EstimatorCell>> {
    let mut cells = Vec::new();
    for strategy in FLEET_BENCH_STRATEGIES {
        for estimator in EstimatorKind::ALL {
            let scenario = FleetScenario::new(ESTIMATOR_SCENARIO, servers).with_tuning(
                FleetTuning::default()
                    .with_estimator(estimator)
                    .with_flows(flows),
            );
            // Run the fleet directly (not through `run`) so the estimator's
            // resident bytes can be read out of band after the horizon — the
            // memory column must never enter the gated `FleetReport`.
            let mut fleet = scenario.build_fleet(strategy)?;
            fleet.run(scenario.horizon());
            let report = fleet.report();
            let estimator_bytes = fleet
                .servers()
                .iter()
                .map(|s| s.estimator().resident_bytes())
                .sum();
            let (epsilon, delta) = fleet
                .servers()
                .first()
                .map(|s| s.estimator().error_bound())
                .unwrap_or((0.0, 0.0));
            cells.push(EstimatorCell {
                scenario: ESTIMATOR_SCENARIO.name().to_string(),
                strategy: strategy.build().name().to_string(),
                estimator: estimator.name().to_string(),
                flows,
                migrations: report.totals.migrations,
                scale_outs: report.totals.scale_outs,
                p99_us: report.totals.p99_us,
                drops: report.totals.drops_overload
                    + report.totals.drops_policy
                    + report.totals.drops_migration,
                estimator_bytes,
                epsilon,
                delta,
            });
        }
    }
    Ok(cells)
}

/// One cell of the benchmark matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetBenchEntry {
    /// Scenario name (see [`FleetScenarioKind::name`]).
    pub scenario: String,
    /// Strategy name (see [`pam_core::MigrationStrategy::name`]).
    pub strategy: String,
    /// Live-migration transfer mode (see [`MigrationMode::name`]).
    pub migration_mode: String,
    /// Doorbell batch size of the cell's datapath (1 = unbatched).
    pub batch: u32,
    /// The run's full report.
    pub report: FleetReport,
}

/// The whole benchmark matrix, as committed in `BENCH_baseline.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetBenchOutput {
    /// Schema version of the file.
    pub version: u32,
    /// Number of servers per fleet.
    pub servers: usize,
    /// Base RNG seed of every run.
    pub seed: u64,
    /// One entry per (scenario, strategy) cell, in matrix order.
    pub results: Vec<FleetBenchEntry>,
}

/// The strategies the fleet benchmark compares (no-migration baseline,
/// naive bottleneck migration, PAM).
pub const FLEET_BENCH_STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::Original,
    StrategyKind::NaiveBottleneck,
    StrategyKind::Pam,
];

/// The migration modes the fleet benchmark compares.
pub const FLEET_BENCH_MODES: [MigrationMode; 2] =
    [MigrationMode::StopAndCopy, MigrationMode::PreCopy];

/// The doorbell batch sizes the fleet benchmark compares. `1` is the
/// unbatched baseline the historical (v2) numbers are pinned to — those
/// cells reproduce the v2 reports byte-identically — and `8` is the batched
/// datapath.
pub const FLEET_BENCH_BATCHES: [u32; 2] = [1, 8];

/// The canonical matrix coordinates, in output order.
fn matrix_cells() -> Vec<(FleetScenarioKind, MigrationMode, u32, StrategyKind)> {
    let mut cells = Vec::new();
    for kind in FleetScenarioKind::ALL {
        for mode in FLEET_BENCH_MODES {
            for batch in FLEET_BENCH_BATCHES {
                for strategy in FLEET_BENCH_STRATEGIES {
                    cells.push((kind, mode, batch, strategy));
                }
            }
        }
    }
    cells
}

/// Runs one matrix cell with its fleet on `shards` lanes.
fn run_cell(
    servers: usize,
    shards: usize,
    (kind, mode, batch, strategy): (FleetScenarioKind, MigrationMode, u32, StrategyKind),
) -> Result<FleetBenchEntry> {
    let scenario = FleetScenario::new(kind, servers)
        .with_tuning(FleetTuning::default().with_mode(mode).with_batch(batch));
    let mut fleet = scenario.build_fleet(strategy)?;
    fleet.run_sharded(scenario.horizon(), shards);
    Ok(FleetBenchEntry {
        scenario: kind.name().to_string(),
        strategy: strategy.build().name().to_string(),
        migration_mode: mode.name().to_string(),
        batch,
        report: fleet.report(),
    })
}

/// Runs the full scenario × migration-mode × batch × strategy matrix with
/// the stable benchmark seed, across `jobs` worker threads and with every
/// cell's fleet sharded over `shards` lanes.
///
/// Both parallelism dimensions compose: `jobs` spreads independent cells,
/// `shards` splits one fleet's windows. Every cell is an independent, fully
/// seeded simulation, so cells execute concurrently without sharing any
/// state; workers claim cells from an atomic cursor (deterministic *work
/// list*, racy *assignment*) and write results into the cell's own slot.
/// The output is assembled in canonical matrix order afterwards, so the
/// `FleetBenchOutput` — and its serialized JSON — is byte-identical for
/// every `(jobs, shards)` combination, which CI pins by diffing shards
/// 1/2/8 crossed with jobs 1/4.
pub fn run_fleet_matrix(servers: usize, jobs: usize, shards: usize) -> Result<FleetBenchOutput> {
    let cells = matrix_cells();
    let jobs = jobs.max(1).min(cells.len());
    let shards = shards.max(1);
    let mut slots: Vec<Option<Result<FleetBenchEntry>>> = Vec::new();
    if jobs == 1 {
        slots.extend(
            cells
                .iter()
                .map(|&cell| Some(run_cell(servers, shards, cell))),
        );
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let results: Vec<std::sync::Mutex<Option<Result<FleetBenchEntry>>>> =
            cells.iter().map(|_| std::sync::Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(&cell) = cells.get(index) else {
                        break;
                    };
                    let outcome = run_cell(servers, shards, cell);
                    *results[index].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
                });
            }
        });
        slots.extend(
            results
                .into_iter()
                .map(|slot| slot.into_inner().unwrap_or_else(|e| e.into_inner())),
        );
    }

    let mut entries = Vec::with_capacity(slots.len());
    for slot in slots {
        let Some(entry) = slot else {
            unreachable!("every cell was claimed and run");
        };
        entries.push(entry?);
    }
    Ok(FleetBenchOutput {
        version: 3,
        servers,
        seed: DEFAULT_FLEET_SEED,
        results: entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(
        output: &FleetBenchOutput,
        scenario: FleetScenarioKind,
        strategy: StrategyKind,
        mode: MigrationMode,
        batch: u32,
    ) -> &FleetBenchEntry {
        let strategy = strategy.build().name().to_string();
        output
            .results
            .iter()
            .find(|e| {
                e.scenario == scenario.name()
                    && e.strategy == strategy
                    && e.migration_mode == mode.name()
                    && e.batch == batch
            })
            .expect("matrix cell present")
    }

    #[test]
    fn scenario_names_round_trip() {
        for kind in FleetScenarioKind::ALL {
            assert_eq!(FleetScenarioKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(FleetScenarioKind::from_name("nope"), None);
    }

    #[test]
    fn schedules_cover_the_same_horizon_on_every_server() {
        for kind in FleetScenarioKind::ALL {
            let scenario = FleetScenario::new(kind, 4);
            let total = scenario.schedule_for(0).total_duration();
            for index in 1..4 {
                assert_eq!(
                    scenario.schedule_for(index).total_duration(),
                    total,
                    "{kind} server {index}"
                );
            }
            assert_eq!(scenario.horizon(), SimTime::ZERO + total);
        }
    }

    #[test]
    fn rolling_hotspot_visits_each_server_in_turn() {
        let scenario = FleetScenario::new(FleetScenarioKind::RollingHotspot, 4);
        let step = scenario.phase_len();
        for index in 0..4 {
            let schedule = scenario.schedule_for(index);
            let mid_own_phase = SimTime::ZERO + step * index as u64 + step / 2;
            assert_eq!(schedule.load_at(mid_own_phase), scenario.peak);
            let other = (index + 1) % 4;
            let mid_other_phase = SimTime::ZERO + step * other as u64 + step / 2;
            assert_eq!(schedule.load_at(mid_other_phase), scenario.baseline);
        }
    }

    /// The PR's acceptance criterion: on the 4-server rolling hotspot, PAM
    /// beats both the naive migration and the no-migration baseline on
    /// fleet-wide p99 latency.
    #[test]
    fn pam_beats_both_baselines_on_the_rolling_hotspot_p99() {
        let scenario = FleetScenario::new(FleetScenarioKind::RollingHotspot, 4);
        let pam = scenario.run(StrategyKind::Pam).unwrap();
        let naive = scenario.run(StrategyKind::NaiveBottleneck).unwrap();
        let original = scenario.run(StrategyKind::Original).unwrap();
        assert!(
            pam.totals.p99_us < naive.totals.p99_us,
            "PAM p99 {} !< naive p99 {}",
            pam.totals.p99_us,
            naive.totals.p99_us
        );
        assert!(
            pam.totals.p99_us < original.totals.p99_us,
            "PAM p99 {} !< original p99 {}",
            pam.totals.p99_us,
            original.totals.p99_us
        );
        assert!(pam.totals.migrations > 0, "PAM migrated on the hotspot");
        assert_eq!(original.totals.migrations, 0);
    }

    #[test]
    fn flash_crowd_scales_out_and_correlated_overload_is_blocked() {
        let flash = FleetScenario::new(FleetScenarioKind::FlashCrowd, 4)
            .run(StrategyKind::Pam)
            .unwrap();
        assert!(flash.totals.scale_outs > 0, "flash crowd forces scale-out");
        assert!(flash.totals.resteered_packets > 0);

        let correlated = FleetScenario::new(FleetScenarioKind::CorrelatedOverload, 4)
            .run(StrategyKind::Pam)
            .unwrap();
        assert!(
            correlated.totals.scale_out_blocked > 0,
            "correlated overload leaves no recipient"
        );
    }

    /// The contention tentpole's acceptance criterion: when state transfer
    /// has to fair-share the link with foreground DMA, pre-copy rounds take
    /// measurably longer than under the FIFO-fixed model, where a round's
    /// bytes are serialised at the full line rate. Read off the 4-server
    /// rolling-hotspot PAM cells of the link-model ablation.
    #[test]
    fn fair_share_stretches_precopy_rounds_under_foreground_load() {
        let cells = run_link_model_ablation(4).unwrap();
        let pam = StrategyKind::Pam.build().name().to_string();
        let cell = |model: LinkModel| {
            cells
                .iter()
                .find(|c| {
                    c.scenario == FleetScenarioKind::RollingHotspot.name()
                        && c.strategy == pam
                        && c.link_model == model.name()
                })
                .expect("rolling-hotspot PAM cell present")
        };
        let fifo = cell(LinkModel::FifoFixed);
        let fair = cell(LinkModel::fair_share());
        assert!(fifo.rounds > 0, "the hotspot migrates under FIFO");
        assert!(fair.rounds > 0, "the hotspot migrates under fair sharing");
        assert!(
            fair.mean_round_us > fifo.mean_round_us,
            "fair-share rounds must stretch under foreground load: \
             fair mean {} µs !> fifo mean {} µs",
            fair.mean_round_us,
            fifo.mean_round_us
        );
        assert!(fair.max_round_us > fifo.max_round_us);
    }

    /// The FIFO-fixed cells of the ablation are plain pre-copy runs — the
    /// ablation must not perturb the baseline configuration it compares
    /// against.
    #[test]
    fn link_model_ablation_covers_both_models() {
        let cells = run_link_model_ablation(2).unwrap();
        assert_eq!(
            cells.len(),
            12,
            "2 scenarios x 2 link models x 3 strategies"
        );
        for model in LINK_MODEL_MODELS {
            assert!(cells.iter().any(|c| c.link_model == model.name()));
        }
        // Spot-check one FIFO cell against the same scenario run directly.
        let direct = FleetScenario::new(FleetScenarioKind::RollingHotspot, 2)
            .with_tuning(FleetTuning::default().with_mode(MigrationMode::PreCopy))
            .run(StrategyKind::Pam)
            .unwrap();
        let cell = cells
            .iter()
            .find(|c| {
                c.scenario == "rolling_hotspot"
                    && c.strategy == StrategyKind::Pam.build().name()
                    && c.link_model == "fifo_fixed"
            })
            .unwrap();
        assert_eq!(cell.p99_us, direct.totals.p99_us);
        assert_eq!(cell.migrations, direct.totals.migrations);
        assert_eq!(cell.blackout_us, direct.totals.blackout_us);
    }

    #[test]
    fn identical_runs_produce_byte_identical_reports() {
        let scenario = FleetScenario::new(FleetScenarioKind::FlashCrowd, 3);
        let a = serde_json::to_string(&scenario.run(StrategyKind::Pam).unwrap()).unwrap();
        let b = serde_json::to_string(&scenario.run(StrategyKind::Pam).unwrap()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn matrix_covers_every_cell_and_round_trips_through_json() {
        let output = run_fleet_matrix(2, 1, 1).unwrap();
        assert_eq!(
            output.results.len(),
            48,
            "4 scenarios x 2 modes x 2 batches x 3 strategies"
        );
        let json = serde_json::to_string(&output).unwrap();
        let back: FleetBenchOutput = serde_json::from_str(&json).unwrap();
        assert_eq!(back, output);
        // Spot-check: the no-migration baseline never migrates anywhere,
        // under either transfer mode and either batch size.
        for kind in FleetScenarioKind::ALL {
            for mode in FLEET_BENCH_MODES {
                for batch in FLEET_BENCH_BATCHES {
                    assert_eq!(
                        entry(&output, kind, StrategyKind::Original, mode, batch)
                            .report
                            .totals
                            .migrations,
                        0
                    );
                }
            }
        }
    }

    /// The parallel-runner tentpole's fidelity criterion, across *both*
    /// parallelism dimensions: the matrix output must be byte-identical at
    /// every thread count *and* every within-cell shard count — same cells,
    /// same order, same numbers.
    #[test]
    fn parallel_matrix_is_byte_identical_to_serial() {
        let serial = run_fleet_matrix(2, 1, 1).unwrap();
        let parallel = run_fleet_matrix(2, 4, 2).unwrap();
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap(),
            "matrix JSON must not depend on the thread or shard count"
        );
    }

    /// The tentpole's fidelity criterion: batch=1 must be *exactly* the
    /// historical unbatched datapath — an explicitly batch-1 scenario yields
    /// a byte-identical report to the default-constructed one.
    #[test]
    fn batch_one_is_byte_identical_to_the_default_datapath() {
        let kind = FleetScenarioKind::RollingHotspot;
        let default_run = FleetScenario::new(kind, 2).run(StrategyKind::Pam).unwrap();
        let batch1_run = FleetScenario::new(kind, 2)
            .with_tuning(FleetTuning::default().with_batch(1))
            .run(StrategyKind::Pam)
            .unwrap();
        assert_eq!(
            serde_json::to_string(&default_run).unwrap(),
            serde_json::to_string(&batch1_run).unwrap()
        );
    }

    /// The estimator tentpole's fidelity criterion: `estimator = exact` is
    /// not a new mode — it must reproduce the default-constructed scenario
    /// (and therefore the committed v3 baseline) byte-identically.
    #[test]
    fn exact_estimator_is_byte_identical_to_the_default() {
        let kind = FleetScenarioKind::FlashCrowd;
        let default_run = FleetScenario::new(kind, 2).run(StrategyKind::Pam).unwrap();
        let exact_run = FleetScenario::new(kind, 2)
            .with_tuning(FleetTuning::default().with_estimator(EstimatorKind::Exact))
            .run(StrategyKind::Pam)
            .unwrap();
        assert_eq!(
            serde_json::to_string(&default_run).unwrap(),
            serde_json::to_string(&exact_run).unwrap()
        );
    }

    /// Both estimators feed the ladder from the same tick-sample window, so
    /// on the same seeded trace the *decisions* must agree exactly; only the
    /// memory column differs. Exact memory is bounded by the live window,
    /// not the 100k-flow population: under a tenth of one 16-byte counter
    /// per population flow, and no more than the sketch's fixed matrix.
    #[test]
    fn estimator_ablation_matches_decisions_with_window_bounded_exact_memory() {
        let (servers, flows) = (3, 100_000);
        let cells = run_estimator_ablation(servers, flows).unwrap();
        assert_eq!(cells.len(), 6, "3 strategies x 2 estimator kinds");
        for pair in cells.chunks(2) {
            let (exact, sketch) = (&pair[0], &pair[1]);
            assert_eq!(exact.estimator, "exact");
            assert_eq!(sketch.estimator, "sketch");
            assert_eq!(exact.strategy, sketch.strategy);
            assert_eq!(exact.migrations, sketch.migrations, "{}", exact.strategy);
            assert_eq!(exact.scale_outs, sketch.scale_outs, "{}", exact.strategy);
            assert_eq!(exact.p99_us, sketch.p99_us, "{}", exact.strategy);
            assert_eq!(exact.drops, sketch.drops, "{}", exact.strategy);
            assert!(
                exact.estimator_bytes * 10 < servers * flows * 16,
                "{}: exact {} B grows with the population",
                exact.strategy,
                exact.estimator_bytes
            );
            assert!(
                exact.estimator_bytes <= sketch.estimator_bytes,
                "{}: exact {} B > sketch {} B",
                exact.strategy,
                exact.estimator_bytes,
                sketch.estimator_bytes
            );
            assert_eq!((exact.epsilon, exact.delta), (0.0, 0.0));
            assert!(sketch.epsilon > 0.0 && sketch.delta > 0.0);
        }
    }

    /// Scenario serde keeps the historical flat key layout: pre-redesign
    /// JSON (no `estimator`/`flows` keys) parses to the baseline tuning, and
    /// a round trip preserves every dimension.
    #[test]
    fn scenario_serde_defaults_missing_tuning_keys() {
        let scenario = FleetScenario::new(FleetScenarioKind::FlashCrowd, 4).with_tuning(
            FleetTuning::default()
                .with_mode(MigrationMode::PreCopy)
                .with_estimator(EstimatorKind::Sketch)
                .with_flows(5000),
        );
        let json = serde_json::to_string(&scenario).unwrap();
        let back: FleetScenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, scenario);
        // A pre-redesign scenario: flat keys, no estimator/flows.
        let legacy = r#"{"kind":"FlashCrowd","servers":2,"migration_mode":"PreCopy","batch":8}"#;
        let parsed: FleetScenario = serde_json::from_str(legacy).unwrap();
        assert_eq!(parsed.tuning.migration_mode, MigrationMode::PreCopy);
        assert_eq!(parsed.tuning.batch, 8);
        assert_eq!(parsed.tuning.estimator, EstimatorKind::Exact);
        assert_eq!(parsed.tuning.flows, 2000);
        assert_eq!(parsed.seed, DEFAULT_FLEET_SEED);
        assert_eq!(parsed.baseline, FleetScenario::new(parsed.kind, 2).baseline);
    }

    /// Batching must not change *what* is delivered on a drop-free scenario,
    /// only when: the diurnal wave under the no-migration strategy drops
    /// nothing — for any cause — at either batch size. (Injected and
    /// delivered differ only by the in-flight tail cut off at the horizon,
    /// which grows slightly with the batch size.)
    #[test]
    fn batched_diurnal_wave_stays_drop_free() {
        for batch in FLEET_BENCH_BATCHES {
            let report = FleetScenario::new(FleetScenarioKind::DiurnalWave, 2)
                .with_tuning(FleetTuning::default().with_batch(batch))
                .run(StrategyKind::Original)
                .unwrap();
            assert_eq!(report.totals.drops_overload, 0, "batch={batch}");
            assert_eq!(report.totals.drops_policy, 0, "batch={batch}");
            assert_eq!(report.totals.drops_migration, 0, "batch={batch}");
        }
    }

    /// The PR's acceptance criterion: on the 4-server rolling hotspot at
    /// equal config, pre-copy strictly shrinks the total blackout time and
    /// never drops more packets to migration than stop-and-copy.
    #[test]
    fn pre_copy_beats_stop_and_copy_on_rolling_hotspot_blackout() {
        let scenario = FleetScenario::new(FleetScenarioKind::RollingHotspot, 4);
        let stop = scenario
            .with_tuning(FleetTuning::default().with_mode(MigrationMode::StopAndCopy))
            .run(StrategyKind::Pam)
            .unwrap();
        let pre = scenario
            .with_tuning(FleetTuning::default().with_mode(MigrationMode::PreCopy))
            .run(StrategyKind::Pam)
            .unwrap();
        assert!(stop.totals.migrations > 0, "the hotspot forces migrations");
        assert!(pre.totals.migrations > 0);
        assert!(
            pre.totals.blackout_us < stop.totals.blackout_us,
            "pre-copy blackout {} us !< stop-and-copy {} us",
            pre.totals.blackout_us,
            stop.totals.blackout_us
        );
        assert!(
            pre.totals.drops_migration <= stop.totals.drops_migration,
            "pre-copy dropped {} > stop-and-copy {}",
            pre.totals.drops_migration,
            stop.totals.drops_migration
        );
    }
}
