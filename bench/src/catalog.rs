//! The one table of workloads and metrics. `BENCHMARK.json`, the glossary in
//! `bench/README.md` and everything the binary prints are checked against
//! it by the harness tests.

/// Which clock a number is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host time or memory: what the simulator costs. Noisy.
    Host,
    /// Simulated time: what the modelled SmartNIC/CPU server would take.
    /// Repeats exactly for a seed.
    Sim,
    /// A count made by the program. Repeats exactly for a seed.
    Exact,
}

impl Clock {
    /// The label printed beside every number.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Exact => "exact",
        }
    }
}

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: a closed, single-process set of seeded inputs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// One line: why the workload exists (`BENCHMARK.json`'s `why`).
    pub why: &'static str,
    /// What it runs, through the public API only.
    pub runs: &'static str,
    /// Which layer it isolates, for the README.
    pub isolates: &'static str,
}

/// The five workloads, in round-robin order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "matrix48",
        why: "The representative mix every PR waits on: 4 scenarios x 2 migration modes x batch 1/8 x 3 strategies; every layer does some work, none dominates.",
        runs: "The gated matrix exactly as `fleet_bench` iterates it (`FleetScenarioKind::ALL x FLEET_BENCH_MODES x FLEET_BENCH_BATCHES x FLEET_BENCH_STRATEGIES`), 4 servers, one thread; per cell `Fleet::new` -> `Fleet::run(horizon)` -> `report()`. 48 cells, 16 of them PAM.",
        isolates: "Nothing, on purpose: it is the denominator the other four are read against. At row 0 the per-server datapath is a little over half of it, trace synthesis a sixth, the fleet sequencer and control ladder a quarter.",
    },
    Workload {
        name: "chain_sweep",
        why: "The paper's own figure-1 scenario at its six fixed packet sizes: the datapath does nearly all the work and no fleet code runs at all.",
        runs: "One `ChainRuntime` + `Orchestrator` (PAM) on the figure-1 chain at each of 64/128/256/512/1024/1500 B, `Figure1Scenario` phases x12 (72 ms at 1.5 Gbps, then 288 ms at 2.2 Gbps), batch 1, loop `run_until(next_poll)` + `control_step`. 6 cells, all PAM.",
        isolates: "The datapath: `pam-runtime`'s chain, `pam-nf`, `pam-sim`'s event queue and link, and trace synthesis, including 64 B packets where per-packet cost dominates. `pam-fleet` (controller, estimator, steering, shard) does none of the work, so a fleet-layer change must leave it flat.",
    },
    Workload {
        name: "fleet64_seq",
        why: "One global event queue sequencing 64 servers: the fleet sequencer, steering and 64-server control ladder do the most here.",
        runs: "`FleetScenario::new(DiurnalWave, 64)`, PAM, default tuning, `Fleet::run(horizon)`. 1 cell.",
        isolates: "The fleet runner. The per-server datapath is the same code as everywhere else, so a change to the runner shows here and not in `chain_sweep`.",
    },
    Workload {
        name: "fleet64_shard2",
        why: "The same 64-server fleet through `run_sharded` on 2 lanes: the same layer used the other way, so a gain for one runner that costs the other shows.",
        runs: "The same fleet as `fleet64_seq`, `Fleet::run_sharded(horizon, min(2, nproc))`. 1 cell; its report must be byte-identical to `fleet64_seq`'s.",
        isolates: "The sharded runner: lane busy time, barrier wait and the serial sequencer that bounds its speed-up. ROADMAP B(1) wants one runner; this pair is how that change is judged.",
    },
    Workload {
        name: "flows1m",
        why: "A million-flow Zipf population per server: working set far beyond the caches, inserts beside lookups, the only workload with large set-up and RSS.",
        runs: "Flash-crowd shape on 4 servers from `FleetScenario::server_spec(i)` with 200/400/400 ms phases (server 0: 1.4 -> 3.8 -> 1.4 Gbps, others 1.0), 1 000 000 flows per server, exact estimator, pre-copy, batch 8, PAM, `Fleet::new(specs, fleet_config)`. 1 cell.",
        isolates: "Memory behaviour: Zipf sampling over an 8 MB CDF, flow-table growth in every stateful vNF, the exact estimator's per-flow table, dirty tracking under pre-copy. The other workloads touch at most a few thousand flows and always hit.",
    },
];

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The name it is printed under.
    pub name: &'static str,
    /// Its unit, in `BENCHMARK.json`'s character set.
    pub unit: &'static str,
    /// Which clock it is read from.
    pub clock: Clock,
    /// Which direction is an improvement.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which it may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// What is measured, and how.
    pub definition: &'static str,
    /// Per-layer only: the end-to-end metric it should move, and where it
    /// shows.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
    definition: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        bound: Some(bound),
        definition,
        moves: "",
    }
}

/// The end-to-end metrics: every one is defined on every workload.
///
/// Host times are sums of *fastest repeats*: a run is cut into slices (one
/// per cell build, per control interval and per report), the simulator is
/// deterministic, so slice `i` does the same work in every repeat, and each
/// slice counts with the fastest of its repeats. A shared sandbox slows
/// down and speeds up by tens of percent for minutes at a time; the median
/// of whole runs follows that drift, the sum of fastest slices does not.
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", Clock::Host, Better::Lower, 0.25,
        "Child `main` entry to the first `run` call plus every later cell's build (configs, trace synthesizers with flow pool and Zipf CDF, runtimes, fleets, pre-warmed pools): per cell the fastest of the run's children, summed."),
    e2e("wall_s", "s", Clock::Host, Better::Lower, 0.15,
        "Run to the horizon + `report()`/`outcome()` + JSON serialisation over the workload's cells, excluding set-up: per control interval and per report the fastest of the run's children, summed."),
    e2e("pkts_per_s", "pkt/s", Clock::Host, Better::Higher, 0.15,
        "Packets injected (fixed by the seed) / `wall_s`. Events/s is deliberately not end-to-end: batching lowers events per packet, so it can fall while the run gets faster."),
    e2e("peak_rss_mb", "MiB", Clock::Host, Better::Lower, 0.05,
        "The child's `VmHWM` at exit. Median over the run's children."),
    e2e("sim_mean_us", "sim_us", Clock::Sim, Better::Lower, 0.05,
        "Mean chain latency of delivered packets under PAM (`totals.mean_us` / `RunOutcome::mean_latency`), arithmetic mean over the workload's PAM cells."),
    e2e("sim_delivered_ratio", "ratio", Clock::Sim, Better::Higher, 0.10,
        "Packets delivered / packets injected, summed over the PAM cells: Figure 2(b)'s throughput claim as a ratio."),
    e2e("sim_blackout_us", "sim_us", Clock::Sim, Better::Lower, 0.25,
        "Total migration blackout over the PAM cells (`totals.blackout_us` / sum of `MigrationReport::blackout()`)."),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    definition: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        bound: None,
        definition,
        moves,
    }
}

use Better::{Higher, Lower};
use Clock::{Exact, Host, Sim};

/// The per-layer metrics, grouped by layer (the crate name without `pam-`).
/// A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [Metric; 84] = [
    // pam-traffic ----------------------------------------------------------
    layer("traffic.pkts", "count", Exact, Higher,
        "Packets pulled from fresh `TraceSynthesizer`s over the workload's cells (each distinct trace set once, times its use count).",
        "Denominator of every per-packet figure."),
    layer("traffic.bytes", "bytes", Exact, Higher,
        "Frame bytes of those packets.", "Denominator."),
    layer("traffic.distinct_flows", "count", Exact, Higher,
        "Distinct flow ids among the packets of the distinct trace sets.",
        "Working-set size: ~5 k on the small workloads, hundreds of thousands on `flows1m`."),
    layer("traffic.synth_s", "s", Host, Lower,
        "Host time to pull every packet (`TraceSynthesizer::next_packet`), scaled by use count.",
        "`wall_s`. A sixth of `matrix48` and of `chain_sweep`, under a tenth of `fleet64_seq`; largest per packet on `flows1m` (CDF search misses)."),
    layer("traffic.synth_ns_per_pkt", "ns", Host, Lower,
        "`traffic.synth_s` / `traffic.pkts`.", "`wall_s` via `traffic.synth_s`."),
    layer("traffic.setup_s", "s", Host, Lower,
        "Host time of `TraceSynthesizer::new` for every server (flow pool, Zipf CDF), scaled by use count.",
        "`setup_s`. Large on `flows1m`, near 0 elsewhere."),
    // pam-wire -------------------------------------------------------------
    layer("wire.build_ns_per_pkt", "ns", Host, Lower,
        "`PacketBuilder::build` over the same (tuple, size) sequence, per frame.",
        "`wall_s` via `traffic.synth_s`; `chain_sweep`'s 64 B cell."),
    // pam-sim --------------------------------------------------------------
    layer("sim.events", "count", Exact, Lower,
        "Discrete events scheduled (`events_scheduled()`), summed over cells.",
        "`wall_s`: host time moves with events simulated."),
    layer("sim.events_per_pkt", "count", Exact, Lower,
        "`sim.events` / packets injected.",
        "`wall_s`. 4.0 on `chain_sweep` (no fleet queue), 5.0 on `fleet64_*` (one more event per packet for the sequencer), 4.3-4.4 where half or all cells batch by 8 (`matrix48`, `flows1m`)."),
    layer("sim.queue_hold_ns", "ns", Host, Lower,
        "Hold model on `EventQueue`: depth 256, pop the earliest and schedule a seeded increment later; per pop+schedule pair.",
        "`wall_s`. The same queue code on every workload."),
    layer("sim.queue_s", "s", Host, Lower,
        "`sim.queue_hold_ns` x `sim.events`: what the queue would cost if every event were a hold.",
        "`wall_s`; `fleet64_seq` (one queue feeds 64 servers) before `chain_sweep`."),
    layer("link.crossings_per_pkt", "count", Exact, Lower,
        "PCIe crossings (`pcie_stats()`) / packets delivered.",
        "`sim_mean_us`, `model.p99_us`: the paper's mechanism (PAM ~3.0 vs naive ~4.6 crossings)."),
    layer("link.dma_bursts", "count", Exact, Lower,
        "DMA bursts (doorbells) issued for those crossings.", "`wall_s`, `sim_mean_us`."),
    layer("link.pkts_per_burst", "count", Exact, Higher,
        "Crossings / bursts: the link's effective batching factor.",
        "`wall_s`; 1 on batch-1 workloads."),
    layer("link.burst_fill", "ratio", Exact, Higher,
        "Crossings / (bursts x the cell's batch bound): how full doorbell batches run.",
        "`model.p99_us` (doorbell wait) against `wall_s` (events saved)."),
    layer("link.fifo_ns_per_burst", "ns", Host, Lower,
        "`PcieLink::propagate_burst` on a FIFO link, per call.",
        "`wall_s`; `chain_sweep` (one burst per packet-hop crossing)."),
    layer("link.fair_ns_per_xfer", "ns", Host, Lower,
        "`begin_transfer` + `poll_transfer` on a fair-sharing link under 1, 2 and 4 overlapping transfers, per transfer.",
        "`wall_s` of pre-copy rounds; none of the five workloads selects fair sharing, so no movement is predicted."),
    // pam-nf ---------------------------------------------------------------
    layer("nf.firewall_ns_per_pkt", "ns", Host, Lower,
        "`build_kind(Firewall)` then `process_batch_into` over the materialised packets at the cell's batch size, per packet.",
        "`wall_s` via `runtime.datapath_s`."),
    layer("nf.monitor_ns_per_pkt", "ns", Host, Lower,
        "The same for the flow monitor (a per-flow table: lookups, and inserts on `flows1m`).",
        "`wall_s`; `flows1m` (miss-dominated) against `chain_sweep` (5 k flows, all hits)."),
    layer("nf.logger_ns_per_pkt", "ns", Host, Lower,
        "The same for the sampling logger.", "`wall_s` via `runtime.datapath_s`."),
    layer("nf.lb_ns_per_pkt", "ns", Host, Lower,
        "The same for the load balancer (per-flow table plus a header rewrite).",
        "`wall_s`; `flows1m` against `chain_sweep`."),
    layer("nf.flow_entries", "count", Exact, Lower,
        "`stateful_flow_entries()` over every runtime at the end of the run.",
        "`peak_rss_mb`, `sim_blackout_us` (state to move)."),
    layer("nf.state_bytes", "bytes", Exact, Lower,
        "Modelled size of the replay-built monitor tables' `export_state`.",
        "`sim_blackout_us`; `flows1m`."),
    layer("nf.export_us", "us", Host, Lower,
        "Host time of those `export_state` calls.", "`wall_s` of migrating windows; `flows1m`."),
    layer("nf.import_us", "us", Host, Lower,
        "Host time of `import_state` of that state into fresh monitors.",
        "`wall_s` of migrating windows; `flows1m`."),
    layer("nf.drops_policy", "count", Exact, Lower,
        "Packets dropped by vNF verdicts, all cells.", "`sim_delivered_ratio`."),
    // pam-runtime ----------------------------------------------------------
    layer("runtime.datapath_s", "s", Host, Lower,
        "Pre-materialised packets through standalone `ChainRuntime`s (`drain_until` + `submit`), initial placement, no controller; scaled by use count.",
        "`wall_s`. Nearly all of `chain_sweep`, a little over half of `matrix48`, a third of `fleet64_seq`."),
    layer("runtime.datapath_ns_per_pkt", "ns", Host, Lower,
        "`runtime.datapath_s` / `traffic.pkts`.", "`wall_s`."),
    layer("runtime.window_p50_us", "us", Host, Lower,
        "Median `runtime.window` span: one control interval of one chain.",
        "`wall_s`; `chain_sweep` only."),
    layer("runtime.window_p99_us", "us", Host, Lower,
        "99th-percentile `runtime.window` span.", "`wall_s`; `chain_sweep` only."),
    layer("runtime.migrations", "count", Exact, Lower,
        "Live migrations executed, all cells.", "`sim_blackout_us`."),
    layer("runtime.aborted_migrations", "count", Exact, Lower,
        "Migrations rolled back before handover, all cells.", "`sim_blackout_us`."),
    layer("runtime.precopy_rounds", "count", Exact, Lower,
        "State-transfer rounds over all migrations (one per stop-and-copy migration).",
        "`sim_blackout_us`; `matrix48` pre-copy cells, `flows1m`."),
    layer("runtime.round_bytes", "bytes", Exact, Lower,
        "Bytes those rounds shipped over the modelled link.", "`sim_blackout_us`."),
    layer("runtime.blackout_mean_us", "sim_us", Sim, Lower,
        "Total blackout / migrations, all cells.", "`sim_blackout_us`, `model.p99_us`."),
    layer("runtime.drops_overload", "count", Exact, Lower,
        "Packets dropped at a full device queue, all cells.",
        "`sim_delivered_ratio`: the late signal, after `model.p99_us` has already risen."),
    layer("runtime.drops_migration", "count", Exact, Lower,
        "Packets dropped in migration blackouts, all cells.", "`sim_delivered_ratio`."),
    layer("runtime.migrate_host_us", "us", Host, Lower,
        "Mean host time of slices in which a migration completed, minus the median slice.",
        "`wall_s`; `flows1m` (big tables) before `fleet64_*`."),
    // pam-core -------------------------------------------------------------
    layer("core.decide_ns", "ns", Host, Lower,
        "`StrategyKind::Pam.build().decide(chain, placement, 2.2 Gbps)` on the figure-1 chain, per call.",
        "None expected: a decision runs once per control interval."),
    // pam-fleet ------------------------------------------------------------
    layer("fleet.window_p50_us", "us", Host, Lower,
        "Median `fleet.window` span: one slice of the whole fleet (a control interval; an eighth of one on `fleet64_seq`, so that a slice stays a millisecond or two).",
        "`wall_s`; the three fleet workloads, not `chain_sweep`."),
    layer("fleet.window_p99_us", "us", Host, Lower,
        "99th-percentile `fleet.window` span.", "`wall_s`."),
    layer("fleet.window_max_us", "us", Host, Lower,
        "Longest `fleet.window` span: stall windows (migrations, hand-offs, queue rebases).",
        "`wall_s`."),
    layer("fleet.estimator_exact_ns", "ns", Host, Lower,
        "Replay of (flow, bytes) plus one `record` per control interval into `LoadEstimator::new(exact)`, per arrival.",
        "`wall_s`; `flows1m`."),
    layer("fleet.estimator_sketch_ns", "ns", Host, Lower,
        "The same into the sketch estimator.",
        "None: no workload runs the sketch; it is the alternative's price."),
    layer("fleet.estimator_bytes", "bytes", Exact, Lower,
        "`resident_bytes()` of every server's estimator at the end of the run.",
        "`peak_rss_mb`; `flows1m`."),
    layer("fleet.residual_s", "s", Host, Lower,
        "Traced `run` spans - (`traffic.synth_s` + `runtime.datapath_s` + estimator share): sequencer + steering + control ladder. Trust it only where `trace.attribution_resolved` is 1.",
        "`wall_s`; over half of `fleet64_seq`, a quarter of `matrix48`, ~0 on `chain_sweep`."),
    layer("fleet.control_steps", "count", Exact, Lower,
        "Control ticks the fleet controllers ran.", "`wall_s`."),
    layer("fleet.scale_outs", "count", Exact, Lower,
        "Scale-out actions executed.", "`model.p99_us`, `sim_delivered_ratio`; `matrix48` flash crowd, `flows1m`."),
    layer("fleet.scale_ins", "count", Exact, Lower,
        "Scale-in actions executed.", "`model.p99_us`."),
    layer("fleet.scale_out_blocked", "count", Exact, Lower,
        "Scale-outs refused because no recipient had headroom.",
        "`sim_delivered_ratio`; `matrix48` correlated overload."),
    layer("fleet.scale_out_success_ratio", "ratio", Exact, Higher,
        "Scale-outs executed / (executed + blocked): useful outcomes per attempt.",
        "`sim_delivered_ratio`."),
    layer("fleet.resteered_pkts", "count", Exact, Lower,
        "Packets sent to a server other than their home.", "`model.p99_us`."),
    layer("fleet.handoff_bytes", "bytes", Exact, Lower,
        "State shipped over the inter-server link.", "`model.p99_us`."),
    layer("fleet.handoff_us", "sim_us", Sim, Lower,
        "Inter-server state-transfer time.", "`model.p99_us`."),
    // pam-fleet::shard -----------------------------------------------------
    layer("shard.windows", "count", Exact, Lower,
        "Synchronisation windows of the sharded runner (`Fleet::shard_stats()`): two per control interval, because each slice ends with an empty one.",
        "`wall_s`; `fleet64_shard2` only."),
    layer("shard.lane_busy_s", "s", Host, Lower,
        "Busy time summed over lanes.", "`wall_s`: the part that parallelises."),
    layer("shard.lane_busy_max_s", "s", Host, Lower,
        "Busy time of the busiest lane.", "`wall_s`: it, not the mean, sets the barrier."),
    layer("shard.barrier_wait_s", "s", Host, Lower,
        "Barrier wait summed over lanes.", "`wall_s`."),
    layer("shard.serial_s", "s", Host, Lower,
        "`wall_s` - one lane's busy + wait: the sequencer and control ladder no lane can take.",
        "`wall_s`: the Amdahl floor."),
    layer("shard.serial_frac", "ratio", Host, Lower,
        "`shard.serial_s` / `wall_s`.", "`wall_s`."),
    layer("shard.imbalance", "ratio", Host, Lower,
        "Busiest lane's busy time / mean busy time.", "`wall_s`."),
    layer("shard.speedup_vs_seq", "ratio", Host, Higher,
        "`fleet64_seq`'s `wall_s` / `fleet64_shard2`'s, both from timed runs at the same seed.",
        "`wall_s`; meaningless with one core (the header prints nproc)."),
    // pam-telemetry / pam-experiments ---------------------------------------
    layer("telemetry.report_us", "us", Host, Lower,
        "`Fleet::report()` / `outcome()` (histogram merge and quantiles), summed over cells.",
        "`wall_s`; tiny, predicted flat. `matrix48` (48 reports)."),
    layer("experiments.json_us", "us", Host, Lower,
        "`serde_json::to_string` of the reports, summed over cells.", "`wall_s`; tiny."),
    layer("experiments.json_bytes", "bytes", Exact, Lower,
        "Bytes of report JSON: what the digest covers.", "None."),
    // allocator -------------------------------------------------------------
    layer("alloc.setup_count", "count", Exact, Lower,
        "Heap allocations during set-up (counting `GlobalAlloc`, traced run only).",
        "`setup_s`, `peak_rss_mb`."),
    layer("alloc.run_count", "count", Exact, Lower,
        "Heap allocations inside the run windows. Exact on the single-thread workloads.",
        "`wall_s`."),
    layer("alloc.run_bytes", "bytes", Exact, Lower,
        "Bytes those allocations asked for.", "`wall_s`, `peak_rss_mb`."),
    layer("alloc.per_kpkt", "count", Exact, Lower,
        "`alloc.run_count` per thousand packets injected.",
        "`wall_s`; batch-1 `chain_sweep` against the batch-8 cells (PR 5's zero-allocation path)."),
    // the model against its reference ---------------------------------------
    layer("model.fig2_original_mean_us", "sim_us", Sim, Lower,
        "One untimed `run_figure2(&Figure2Config::default())`: mean latency before migration.",
        "Accuracy, beside every `sim_*` number."),
    layer("model.fig2_naive_mean_us", "sim_us", Sim, Lower,
        "The same run: mean latency after the naive migration.", "Accuracy."),
    layer("model.fig2_pam_mean_us", "sim_us", Sim, Lower,
        "The same run: mean latency after PAM's migration.", "Accuracy."),
    layer("model.fig2_pam_gbps", "Gbps", Sim, Higher,
        "The same run: delivered throughput under overload with PAM.", "Accuracy."),
    layer("model.fig2_naive_gbps", "Gbps", Sim, Higher,
        "The same run: delivered throughput under overload with the naive migration.", "Accuracy."),
    layer("model.fig2_reduction_pct", "%", Sim, Higher,
        "PAM's latency reduction relative to the naive migration (the poster reports ~18 %).",
        "Accuracy."),
    layer("model.fig2_err_pp", "pp", Sim, Lower,
        "|`model.fig2_reduction_pct` - 18|: the simulator's error against the repository's only reference result. Table 1's capacity probe (~15 s) is out of budget and not run.",
        "Accuracy."),
    layer("model.hotspot_none_p99_us", "sim_us", Sim, Lower,
        "`matrix48`'s rolling_hotspot / stop_and_copy / batch-1 cell without migration: p99.",
        "The fleet headline; 0 off `matrix48`."),
    layer("model.hotspot_naive_p99_us", "sim_us", Sim, Lower,
        "The same cell under the naive migration.", "The fleet headline."),
    layer("model.hotspot_pam_p99_us", "sim_us", Sim, Lower,
        "The same cell under PAM.", "The fleet headline."),
    layer("model.p50_us", "sim_us", Sim, Lower,
        "Median chain latency under PAM, arithmetic mean over the PAM cells.",
        "Reads beside `sim_mean_us`."),
    layer("model.p99_us", "sim_us", Sim, Lower,
        "99th-percentile chain latency under PAM, arithmetic mean over the PAM cells. The early signal: modelled latency rises before modelled throughput falls. Per-layer, not end-to-end, because the latency histogram's buckets make it read exactly the same for every seed on three workloads.",
        "Reads beside `sim_mean_us`; moves before `sim_delivered_ratio` does."),
    // the tracing itself ----------------------------------------------------
    layer("trace.spans", "count", Exact, Lower,
        "Spans the traced run recorded.", "None."),
    layer("trace.overhead_pct", "%", Host, Lower,
        "How much longer the traced run took than the timed ones, same seed: the median over slices of traced / timed, plus the share of its run spent between slices (sampling the counts) beyond the timed runs' own.",
        "None; expect a few percent."),
    layer("trace.attribution_resolved", "flag", Exact, Higher,
        "1 when the replayed shares are consistent with the traced run: `fleet.residual_s` >= 0 everywhere and, on `chain_sweep` where no fleet code runs, within 15 % of the `run` spans; 0 when the split is unresolved.",
        "Whether `fleet.residual_s` may be read as a number."),
];

/// The workloads and the glossary as markdown: the README embeds exactly
/// this text.
pub fn glossary() -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        out.push_str(&format!(
            "### `{}`\n\n{}\n\n*Runs:* {}\n\n*Isolates:* {}\n\n",
            w.name, w.why, w.runs, w.isolates
        ));
    }
    out.push_str("## Glossary\n\n");
    out.push_str("| end-to-end metric | unit | clock | better | bound | definition |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {:.0} % | {} |\n",
            m.name,
            m.unit,
            m.clock.label(),
            m.better.label(),
            m.bound.unwrap_or(0.0) * 100.0,
            m.definition
        ));
    }
    out.push_str(
        "\n| per-layer metric | unit | clock | better | definition | should move / shows on |\n",
    );
    out.push_str("|---|---|---|---|---|---|\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.clock.label(),
            m.better.label(),
            m.definition,
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn bounds_fit_the_contract_and_setup_has_the_largest() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            let bound = m.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
            assert!(bound <= setup.bound.unwrap());
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
