//! `fleet_bench` — the deterministic fleet benchmark harness behind CI's
//! perf gate.
//!
//! ```text
//! fleet_bench                               # run the matrix, JSON on stdout
//! fleet_bench --out report.json             # write the JSON to a file
//!                                           # instead of stdout
//! fleet_bench --check BENCH_baseline.json   # compare against a baseline;
//!                                           # exit 1 on regression
//! fleet_bench --tolerance 0.25              # relative tolerance band
//! fleet_bench --servers 4                   # fleet size (default 4)
//! fleet_bench --jobs 4                      # run matrix cells on N worker
//!                                           # threads (default: available
//!                                           # parallelism); the JSON is
//!                                           # byte-identical at any N
//! fleet_bench --timings timings.json        # write per-cell wall-clock and
//!                                           # events/sec to a separate JSON
//!                                           # (kept out of the main output
//!                                           # so it stays deterministic)
//! fleet_bench --summary summary.md          # write a markdown summary
//!                                           # (gate table + simulator
//!                                           # throughput + datapath sweep) —
//!                                           # CI appends it to
//!                                           # $GITHUB_STEP_SUMMARY
//! fleet_bench --shards 4                    # run every matrix cell's fleet
//!                                           # on N lanes (default 1); the
//!                                           # JSON is byte-identical at any N
//! fleet_bench --scale 64,128                # also run the scaling curve at
//!                                           # these fleet sizes ...
//! fleet_bench --scale-shards 1,2,4          # ... across these shard counts
//!                                           # (default 1,2,4); points land in
//!                                           # --timings and --summary
//! fleet_bench --scale-only                  # skip the matrix and the gate,
//!                                           # run only the scaling curve
//!                                           # and/or requested ablations
//! fleet_bench --link-models                 # also run the link-model
//!                                           # ablation (FIFO-fixed vs
//!                                           # fair-share contention under
//!                                           # pre-copy); cells land in
//!                                           # --summary and on stderr
//! fleet_bench --estimators                  # also run the estimator
//!                                           # ablation (exact per-flow vs
//!                                           # heavy-hitter sketch on the
//!                                           # flash crowd); cells land in
//!                                           # --summary and on stderr
//! fleet_bench --estimator-flows 1000000     # flow population per server of
//!                                           # the estimator ablation
//!                                           # (default 100000)
//! fleet_bench --faults                      # also run the failure scenarios
//!                                           # (crash mid-pre-copy, link-flap
//!                                           # storm, correlated overload
//!                                           # recovery) under their invariant
//!                                           # audits; any violation fails the
//!                                           # run. Faulted fleets run on
//!                                           # --shards lanes and the cells
//!                                           # are byte-identical at any
//!                                           # shard/job count
//! fleet_bench --faults-out faults.json      # write the fault cells as JSON
//!                                           # (what CI's fault matrix diffs
//!                                           # across shard counts)
//! ```
//!
//! Every run uses fixed seeds (see `pam_experiments::fleet`), so two runs of
//! the same build produce byte-identical JSON and the baseline comparison is
//! meaningful: metrics moving past the tolerance band are real changes in
//! the algorithms or the simulator, not noise. (The wall-clock column of the
//! `--summary` throughput sweep is the one machine-dependent number; it is
//! reported for reading, never gated.)

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(
    clippy::dbg_macro,
    clippy::todo,
    clippy::unimplemented,
    clippy::mem_forget
)]

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use pam_core::StrategyKind;
use pam_experiments::faults::{run_fault_scenarios, FaultCell};
use pam_experiments::fleet::{
    run_estimator_ablation, run_fleet_matrix_opts, run_link_model_ablation, run_scale_curve,
    EstimatorCell, FleetBenchEntry, FleetBenchOutput, FleetScenario, FleetScenarioKind,
    FleetTuning, LinkModelCell, MatrixTimings, ScalePoint, SCALE_CURVE_SCENARIO,
};

/// Relative tolerance band the gate allows before calling a change a
/// regression (generous: the runs are deterministic, so any drift at all is
/// an intentional code change — the band only tolerates *small* ones).
const DEFAULT_TOLERANCE: f64 = 0.25;

/// Absolute slack on packet counters, so a baseline of zero drops does not
/// fail on a handful of new ones.
const COUNT_SLACK: f64 = 64.0;

struct Args {
    out: Option<String>,
    check: Option<String>,
    summary: Option<String>,
    timings: Option<String>,
    tolerance: f64,
    servers: usize,
    jobs: usize,
    shards: usize,
    scale: Vec<usize>,
    scale_shards: Vec<usize>,
    scale_only: bool,
    link_models: bool,
    estimators: bool,
    estimator_flows: usize,
    faults: bool,
    faults_out: Option<String>,
}

/// The default worker-thread count: the machine's available parallelism.
fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses a comma-separated list of positive integers (`64,128,256`).
fn parse_list(name: &str, raw: &str) -> Result<Vec<usize>, String> {
    raw.split(',')
        .map(|part| {
            part.trim()
                .parse::<usize>()
                .map_err(|e| format!("{name}: `{part}`: {e}"))
                .and_then(|n| {
                    if n == 0 {
                        Err(format!("{name}: entries must be positive"))
                    } else {
                        Ok(n)
                    }
                })
        })
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: None,
        check: None,
        summary: None,
        timings: None,
        tolerance: DEFAULT_TOLERANCE,
        servers: 4,
        jobs: default_jobs(),
        shards: 1,
        scale: Vec::new(),
        scale_shards: vec![1, 2, 4],
        scale_only: false,
        link_models: false,
        estimators: false,
        estimator_flows: 100_000,
        faults: false,
        faults_out: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--out" => args.out = Some(value("--out")?),
            "--check" => args.check = Some(value("--check")?),
            "--summary" => args.summary = Some(value("--summary")?),
            "--timings" => args.timings = Some(value("--timings")?),
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse::<usize>()
                    .map_err(|e| format!("--jobs: {e}"))?
                    .max(1)
            }
            "--shards" => {
                args.shards = value("--shards")?
                    .parse::<usize>()
                    .map_err(|e| format!("--shards: {e}"))?
                    .max(1)
            }
            "--scale" => args.scale = parse_list("--scale", &value("--scale")?)?,
            "--scale-shards" => {
                args.scale_shards = parse_list("--scale-shards", &value("--scale-shards")?)?
            }
            "--scale-only" => args.scale_only = true,
            "--link-models" => args.link_models = true,
            "--estimators" => args.estimators = true,
            "--faults" => args.faults = true,
            "--faults-out" => args.faults_out = Some(value("--faults-out")?),
            "--estimator-flows" => {
                args.estimator_flows = value("--estimator-flows")?
                    .parse::<usize>()
                    .map_err(|e| format!("--estimator-flows: {e}"))?
                    .max(1)
            }
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            "--servers" => {
                args.servers = value("--servers")?
                    .parse()
                    .map_err(|e| format!("--servers: {e}"))?
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.scale_only
        && args.scale.is_empty()
        && !args.link_models
        && !args.estimators
        && !args.faults
    {
        return Err(
            "--scale-only needs --scale (or an ablation: --link-models / --estimators / --faults)"
                .to_string(),
        );
    }
    if args.faults_out.is_some() && !args.faults {
        return Err("--faults-out needs --faults".to_string());
    }
    Ok(args)
}

/// One gate comparison: fails when `current` worsens past the band.
struct Check {
    metric: &'static str,
    baseline: f64,
    current: f64,
    failed: bool,
}

/// Metrics where *larger* is worse (latency, drops, blackout).
fn worse_if_above(metric: &'static str, baseline: f64, current: f64, tolerance: f64) -> Check {
    let slack = if metric.ends_with("drops") {
        COUNT_SLACK
    } else {
        0.0
    };
    let bound = baseline * (1.0 + tolerance) + slack;
    Check {
        metric,
        baseline,
        current,
        failed: current > bound,
    }
}

/// Metrics where *smaller* is worse (delivered packets).
fn worse_if_below(metric: &'static str, baseline: f64, current: f64, tolerance: f64) -> Check {
    Check {
        metric,
        baseline,
        current,
        failed: current < baseline * (1.0 - tolerance),
    }
}

/// Finds the entry of `results` at the same matrix coordinates as `cell`
/// (the one matching predicate shared by the gate and the summary table).
fn find_cell<'a>(
    results: &'a [FleetBenchEntry],
    cell: &FleetBenchEntry,
) -> Option<&'a FleetBenchEntry> {
    results.iter().find(|e| {
        e.scenario == cell.scenario
            && e.strategy == cell.strategy
            && e.migration_mode == cell.migration_mode
            && e.batch == cell.batch
    })
}

fn gate_entry(baseline: &FleetBenchEntry, current: &FleetBenchEntry, tolerance: f64) -> Vec<Check> {
    let b = &baseline.report.totals;
    let c = &current.report.totals;
    vec![
        worse_if_above("p50_us", b.p50_us, c.p50_us, tolerance),
        worse_if_above("p99_us", b.p99_us, c.p99_us, tolerance),
        worse_if_above("mean_us", b.mean_us, c.mean_us, tolerance),
        worse_if_above("blackout_us", b.blackout_us, c.blackout_us, tolerance),
        worse_if_above(
            "overload_drops",
            b.drops_overload as f64,
            c.drops_overload as f64,
            tolerance,
        ),
        worse_if_above(
            "migration_drops",
            b.drops_migration as f64,
            c.drops_migration as f64,
            tolerance,
        ),
        worse_if_below(
            "delivered",
            b.delivered as f64,
            c.delivered as f64,
            tolerance,
        ),
    ]
}

fn run_gate(baseline: &FleetBenchOutput, current: &FleetBenchOutput, tolerance: f64) -> bool {
    // A baseline from a different configuration is a setup error, not a
    // performance regression — comparing cells anyway would misattribute the
    // whole delta to the algorithms.
    if (baseline.version, baseline.servers, baseline.seed)
        != (current.version, current.servers, current.seed)
    {
        eprintln!(
            "perf-gate: CONFIG MISMATCH — baseline is version {} / {} servers / seed {}, \
             this run is version {} / {} servers / seed {}; regenerate the baseline \
             with the same flags instead of comparing",
            baseline.version,
            baseline.servers,
            baseline.seed,
            current.version,
            current.servers,
            current.seed
        );
        return false;
    }
    let mut regressions = 0usize;
    let mut missing = 0usize;
    for base in &baseline.results {
        let Some(cur) = find_cell(&current.results, base) else {
            eprintln!(
                "perf-gate: MISSING  {}/{}/{}/batch{} — cell not in current matrix",
                base.scenario, base.strategy, base.migration_mode, base.batch
            );
            missing += 1;
            continue;
        };
        for check in gate_entry(base, cur, tolerance) {
            if check.failed {
                eprintln!(
                    "perf-gate: FAIL     {}/{}/{}/batch{} {}: baseline {:.1}, current {:.1} (tolerance {:.0}%)",
                    base.scenario,
                    base.strategy,
                    base.migration_mode,
                    base.batch,
                    check.metric,
                    check.baseline,
                    check.current,
                    tolerance * 100.0
                );
                regressions += 1;
            }
        }
    }
    if regressions == 0 && missing == 0 {
        eprintln!(
            "perf-gate: OK — {} cells within the {:.0}% band",
            baseline.results.len(),
            tolerance * 100.0
        );
        true
    } else {
        eprintln!("perf-gate: {regressions} regression(s), {missing} missing cell(s)");
        false
    }
}

/// One point of the datapath-throughput sweep: the rolling-hotspot scenario
/// under PAM at one batch size, with the harness wall-clock alongside the
/// (deterministic) simulation metrics.
struct ThroughputPoint {
    batch: u32,
    wall_secs: f64,
    injected: u64,
    delivered: u64,
    p99_us: f64,
}

/// Runs the rolling-hotspot scenario across batch sizes, timing each run.
/// The simulation metrics are deterministic; only `wall_secs` depends on the
/// machine (which is why the summary reports it but the gate ignores it).
fn throughput_sweep(servers: usize) -> Vec<ThroughputPoint> {
    [1u32, 2, 4, 8, 16]
        .iter()
        .map(|&batch| {
            let scenario = FleetScenario::new(FleetScenarioKind::RollingHotspot, servers)
                .with_tuning(FleetTuning::default().with_batch(batch));
            let start = Instant::now();
            let Ok(report) = scenario.run(StrategyKind::Pam) else {
                unreachable!("the fixed rolling-hotspot scenario always runs");
            };
            let wall_secs = start.elapsed().as_secs_f64();
            ThroughputPoint {
                batch,
                wall_secs,
                injected: report.totals.injected,
                delivered: report.totals.delivered,
                p99_us: report.totals.p99_us,
            }
        })
        .collect()
}

/// Renders the gate comparison as a markdown table (one row per cell). With
/// no baseline the table still lists every cell, with its status marked
/// `new`.
fn render_gate_markdown(
    baseline: Option<&FleetBenchOutput>,
    current: &FleetBenchOutput,
    tolerance: f64,
) -> String {
    let mut md = String::new();
    let _ = writeln!(
        md,
        "## Fleet perf gate — {} cells, ±{:.0}% band\n",
        current.results.len(),
        tolerance * 100.0
    );
    let _ = writeln!(
        md,
        "| scenario | strategy | mode | batch | p50 µs | p99 µs | mean µs | delivered | drops | blackout µs | aborted | crash/rec | status |"
    );
    let _ = writeln!(
        md,
        "|---|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---|"
    );
    for cur in &current.results {
        let totals = &cur.report.totals;
        let drops = totals.drops_overload + totals.drops_policy + totals.drops_migration;
        let status = match baseline.and_then(|b| find_cell(&b.results, cur)) {
            None => "new".to_string(),
            Some(base) => {
                let failed: Vec<&str> = gate_entry(base, cur, tolerance)
                    .into_iter()
                    .filter(|c| c.failed)
                    .map(|c| c.metric)
                    .collect();
                if failed.is_empty() {
                    "ok".to_string()
                } else {
                    format!("**FAIL** ({})", failed.join(", "))
                }
            }
        };
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {:.1} | {:.1} | {:.1} | {} | {} | {:.1} | {} | {}/{} | {} |",
            cur.scenario,
            cur.strategy,
            cur.migration_mode,
            cur.batch,
            totals.p50_us,
            totals.p99_us,
            totals.mean_us,
            totals.delivered,
            drops,
            totals.blackout_us,
            totals.aborted_migrations,
            totals.server_crashes,
            totals.server_recoveries,
            status
        );
    }
    md
}

/// Renders the audited failure scenarios as a markdown table. Every row
/// already passed its `FaultAudit` (a violation would have failed the run),
/// so the table reports *how* the fleet survived: what was black-holed,
/// aborted, re-steered and recovered, next to the fault-free reference.
fn render_faults_markdown(cells: &[FaultCell]) -> String {
    let mut md = String::new();
    let _ = writeln!(
        md,
        "## Failure scenarios — fault injection under invariant audits\n"
    );
    let _ = writeln!(
        md,
        "Each faulted run is audited against a fault-free reference: offered \
         load conserved exactly (`injected + fault drops == reference \
         injected`), per-server `injected == delivered + drops` (no lost \
         acked state, no duplicate apply), blackout bounded, and recovery \
         delivering strictly more than a never-recovered control run."
    );
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "| scenario | servers | faults | injected | delivered | fault drops | crashes | recoveries | aborted | target crashes | re-steered | blackout µs | p99 µs | ref delivered | control delivered |"
    );
    let _ = writeln!(
        md,
        "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|"
    );
    for cell in cells {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {:.1} | {:.1} | {} | {} |",
            cell.scenario,
            cell.servers,
            cell.faults,
            cell.injected,
            cell.delivered,
            cell.fault_drops,
            cell.server_crashes,
            cell.server_recoveries,
            cell.aborted_migrations,
            cell.target_crashes,
            cell.resteered_packets,
            cell.blackout_us,
            cell.p99_us,
            cell.reference_delivered,
            cell.control_delivered
        );
    }
    md
}

/// Renders the simulator-throughput measurements (per-cell wall-clock and
/// events/second, plus the matrix total) as a markdown table. Wall-clock
/// numbers are machine-dependent: they are reported for reading, never
/// gated, and never part of the deterministic benchmark JSON.
fn render_simulator_throughput_markdown(timings: &MatrixTimings) -> String {
    let mut md = String::new();
    let _ = writeln!(
        md,
        "## Simulator throughput — {} cells on {} thread(s), {:.0} ms total\n",
        timings.cells.len(),
        timings.jobs,
        timings.total_wall_ms
    );
    let _ = writeln!(
        md,
        "{} simulated events in total — {:.2}M events/s aggregate. Slowest cells:",
        timings.total_events,
        timings.total_events as f64 / timings.total_wall_ms / 1e3,
    );
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "| scenario | strategy | mode | batch | wall ms | events | events/s |"
    );
    let _ = writeln!(md, "|---|---|---|---:|---:|---:|---:|");
    let mut slowest: Vec<&pam_experiments::fleet::CellTiming> = timings.cells.iter().collect();
    slowest.sort_by(|a, b| b.wall_ms.total_cmp(&a.wall_ms));
    for cell in slowest.into_iter().take(8) {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {:.1} | {} | {:.0} |",
            cell.scenario,
            cell.strategy,
            cell.migration_mode,
            cell.batch,
            cell.wall_ms,
            cell.events,
            cell.events_per_sec
        );
    }
    md
}

/// Renders the sharded scaling curve as a markdown table. Every point was
/// byte-compared against the one-lane run inside `run_scale_curve`, so a
/// row in this table is also a determinism witness; `speedup` is wall-clock
/// (machine-dependent, reported for reading, never gated).
fn render_scale_markdown(points: &[ScalePoint]) -> String {
    let mut md = String::new();
    let _ = writeln!(
        md,
        "## Sharded scaling curve — {} under PAM, byte-identical at every point\n",
        SCALE_CURVE_SCENARIO.name()
    );
    let _ = writeln!(
        md,
        "| servers | shards | wall ms | events | events/s | speedup | windows | max barrier wait ms |"
    );
    let _ = writeln!(md, "|---:|---:|---:|---:|---:|---:|---:|---:|");
    for point in points {
        let max_wait = point
            .lanes
            .iter()
            .map(|l| l.barrier_wait_ms)
            .fold(0.0f64, f64::max);
        let _ = writeln!(
            md,
            "| {} | {} | {:.1} | {} | {:.0} | {:.2}x | {} | {:.1} |",
            point.servers,
            point.shards,
            point.wall_ms,
            point.events,
            point.events_per_sec,
            point.speedup,
            point.windows,
            max_wait
        );
    }
    md
}

/// Renders the link-model ablation as a markdown table: for every
/// (scenario, strategy) pair, the FIFO-fixed row is the committed-baseline
/// behaviour and the fair-share row shows what contention with foreground
/// DMA does to the same migrations — longer pre-copy rounds first, then the
/// knock-on blackout/p99/drop shifts.
fn render_link_models_markdown(cells: &[LinkModelCell]) -> String {
    let mut md = String::new();
    let _ = writeln!(
        md,
        "## Link-model ablation — pre-copy under FIFO-fixed vs fair-share contention\n"
    );
    let _ = writeln!(
        md,
        "Fair sharing splits each link direction's bandwidth across concurrent \
         transfers, so migration state transfer and foreground DMA slow each \
         other down instead of queueing at full line rate."
    );
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "| scenario | strategy | link model | migrations | rounds | mean round µs | max round µs | blackout µs | p99 µs | migration drops |"
    );
    let _ = writeln!(md, "|---|---|---|---:|---:|---:|---:|---:|---:|---:|");
    for cell in cells {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {} |",
            cell.scenario,
            cell.strategy,
            cell.link_model,
            cell.migrations,
            cell.rounds,
            cell.mean_round_us,
            cell.max_round_us,
            cell.blackout_us,
            cell.p99_us,
            cell.drops_migration
        );
    }
    md
}

/// Renders the estimator ablation as a markdown table: for every strategy,
/// the exact row is the committed-baseline estimator and the sketch row runs
/// the same seeded flash crowd behind the sliding heavy-hitter sketch. Both
/// feed the ladder from the same tick-sample window, so the decision columns
/// must agree — the memory column is the win, and the footer states it.
fn render_estimators_markdown(cells: &[EstimatorCell]) -> String {
    let mut md = String::new();
    let flows = cells.first().map(|c| c.flows).unwrap_or(0);
    let _ = writeln!(
        md,
        "## Estimator ablation — exact per-flow vs heavy-hitter sketch, \
         flash crowd at {flows} flows/server\n"
    );
    let _ = writeln!(
        md,
        "| strategy | estimator | migrations | scale-outs | p99 µs | drops | estimator bytes | ε | δ |"
    );
    let _ = writeln!(md, "|---|---|---:|---:|---:|---:|---:|---:|---:|");
    for cell in cells {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {:.1} | {} | {} | {:.4} | {:.4} |",
            cell.strategy,
            cell.estimator,
            cell.migrations,
            cell.scale_outs,
            cell.p99_us,
            cell.drops,
            cell.estimator_bytes,
            cell.epsilon,
            cell.delta
        );
    }
    let exact: usize = cells
        .iter()
        .filter(|c| c.estimator == "exact")
        .map(|c| c.estimator_bytes)
        .sum();
    let sketch: usize = cells
        .iter()
        .filter(|c| c.estimator == "sketch")
        .map(|c| c.estimator_bytes)
        .sum();
    if sketch > 0 {
        let _ = writeln!(md);
        let _ = writeln!(
            md,
            "Sketch estimator memory: {:.1}x less than exact ({} B vs {} B summed \
             across cells) at identical control decisions.",
            exact as f64 / sketch as f64,
            sketch,
            exact
        );
    }
    md
}

/// Renders the datapath-throughput sweep as a markdown table.
fn render_throughput_markdown(points: &[ThroughputPoint]) -> String {
    let mut md = String::new();
    let _ = writeln!(
        md,
        "## Datapath throughput — rolling hotspot under PAM, by batch size\n"
    );
    let _ = writeln!(
        md,
        "Simulated packets per wall-clock second (machine-dependent, reported \
         for reading only — the gate never compares it)."
    );
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "| batch | wall ms | sim pkts/s | speedup | injected | delivered | p99 µs |"
    );
    let _ = writeln!(md, "|---:|---:|---:|---:|---:|---:|---:|");
    let reference = points.first().map(|p| p.wall_secs).unwrap_or(0.0);
    for point in points {
        let pkts_per_sec = if point.wall_secs > 0.0 {
            point.injected as f64 / point.wall_secs
        } else {
            0.0
        };
        let speedup = if point.wall_secs > 0.0 {
            reference / point.wall_secs
        } else {
            0.0
        };
        let _ = writeln!(
            md,
            "| {} | {:.1} | {:.0} | {:.2}x | {} | {} | {:.1} |",
            point.batch,
            point.wall_secs * 1e3,
            pkts_per_sec,
            speedup,
            point.injected,
            point.delivered,
            point.p99_us
        );
    }
    md
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fleet_bench: {e}");
            eprintln!(
                "usage: fleet_bench [--out PATH] [--check BASELINE] [--summary PATH] \
                 [--timings PATH] [--tolerance F] [--servers N] [--jobs N] [--shards N] \
                 [--scale N,N,..] [--scale-shards N,N,..] [--scale-only] [--link-models] \
                 [--estimators] [--estimator-flows N] [--faults] [--faults-out PATH]"
            );
            return ExitCode::FAILURE;
        }
    };

    let matrix = if args.scale_only {
        None
    } else {
        match run_fleet_matrix_opts(args.servers, args.jobs, args.shards) {
            Ok(pair) => Some(pair),
            Err(e) => {
                eprintln!("fleet_bench: matrix failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let (output, mut timings) = match matrix {
        Some((output, timings)) => {
            eprintln!(
                "fleet_bench: {} cells on {} thread(s) x {} shard(s) in {:.1} ms \
                 ({:.2}M events/s aggregate)",
                timings.cells.len(),
                timings.jobs,
                timings.shards,
                timings.total_wall_ms,
                timings.total_events as f64 / timings.total_wall_ms / 1e3,
            );
            (Some(output), timings)
        }
        None => (
            None,
            MatrixTimings {
                jobs: args.jobs,
                shards: args.shards,
                total_wall_ms: 0.0,
                total_events: 0,
                cells: Vec::new(),
                scale: Vec::new(),
            },
        ),
    };

    if !args.scale.is_empty() {
        // Every multi-lane point is byte-compared against its one-lane
        // reference inside `run_scale_curve`; divergence is a hard error.
        timings.scale = match run_scale_curve(&args.scale, &args.scale_shards) {
            Ok(points) => points,
            Err(e) => {
                eprintln!("fleet_bench: scale curve failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        for point in &timings.scale {
            eprintln!(
                "fleet_bench: scale {} servers x {} shard(s): {:.1} ms, {:.2}M events/s, {:.2}x",
                point.servers,
                point.shards,
                point.wall_ms,
                point.events_per_sec / 1e6,
                point.speedup
            );
        }
    }

    let link_model_cells: Vec<LinkModelCell> = if args.link_models {
        match run_link_model_ablation(args.servers) {
            Ok(cells) => {
                for cell in &cells {
                    eprintln!(
                        "fleet_bench: link-model {}/{}/{}: {} migration(s), {} round(s), \
                         mean round {:.1} µs, blackout {:.1} µs, p99 {:.1} µs",
                        cell.scenario,
                        cell.strategy,
                        cell.link_model,
                        cell.migrations,
                        cell.rounds,
                        cell.mean_round_us,
                        cell.blackout_us,
                        cell.p99_us
                    );
                }
                cells
            }
            Err(e) => {
                eprintln!("fleet_bench: link-model ablation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Vec::new()
    };

    let estimator_cells: Vec<EstimatorCell> = if args.estimators {
        match run_estimator_ablation(args.servers, args.estimator_flows) {
            Ok(cells) => {
                for cell in &cells {
                    eprintln!(
                        "fleet_bench: estimator {}/{}/{}: {} migration(s), {} scale-out(s), \
                         p99 {:.1} µs, {} drop(s), {} estimator byte(s)",
                        cell.scenario,
                        cell.strategy,
                        cell.estimator,
                        cell.migrations,
                        cell.scale_outs,
                        cell.p99_us,
                        cell.drops,
                        cell.estimator_bytes
                    );
                }
                cells
            }
            Err(e) => {
                eprintln!("fleet_bench: estimator ablation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Vec::new()
    };

    let fault_cells: Vec<FaultCell> = if args.faults {
        match run_fault_scenarios(args.servers, args.shards) {
            Ok(cells) => {
                for cell in &cells {
                    eprintln!(
                        "fleet_bench: faults {} ({} servers, {} fault(s)): audit OK — \
                         {} injected, {} delivered, {} black-holed, {} crash(es)/{} recover(ies), \
                         {} aborted migration(s), {} TargetCrash abort(s)",
                        cell.scenario,
                        cell.servers,
                        cell.faults,
                        cell.injected,
                        cell.delivered,
                        cell.fault_drops,
                        cell.server_crashes,
                        cell.server_recoveries,
                        cell.aborted_migrations,
                        cell.target_crashes
                    );
                }
                cells
            }
            Err(e) => {
                eprintln!("fleet_bench: fault scenarios failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Vec::new()
    };
    if let Some(path) = &args.faults_out {
        let json = match serde_json::to_string(&fault_cells) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("fleet_bench: serializing fault cells: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("fleet_bench: writing fault cells {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = &args.timings {
        let json = match serde_json::to_string(&timings) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("fleet_bench: serializing timings: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("fleet_bench: writing timings {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(output) = &output {
        let json = match serde_json::to_string(output) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("fleet_bench: serializing the report: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(path) = &args.out {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("fleet_bench: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        } else {
            println!("{json}");
        }
    }

    let baseline: Option<FleetBenchOutput> = match &args.check {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("fleet_bench: reading baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match serde_json::from_str(&text) {
                Ok(baseline) => Some(baseline),
                Err(e) => {
                    eprintln!("fleet_bench: parsing baseline {path}: {e:?}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let gate_ok = match (&baseline, &output) {
        (Some(baseline), Some(output)) => run_gate(baseline, output, args.tolerance),
        (Some(_), None) => {
            eprintln!("fleet_bench: --check needs the matrix; drop --scale-only");
            false
        }
        (None, _) => true,
    };

    if let Some(path) = &args.summary {
        let mut md = String::new();
        if let Some(output) = &output {
            md.push_str(&render_gate_markdown(
                baseline.as_ref(),
                output,
                args.tolerance,
            ));
            md.push('\n');
            md.push_str(&render_simulator_throughput_markdown(&timings));
            md.push('\n');
        }
        if !timings.scale.is_empty() {
            md.push_str(&render_scale_markdown(&timings.scale));
            md.push('\n');
        }
        if !link_model_cells.is_empty() {
            md.push_str(&render_link_models_markdown(&link_model_cells));
            md.push('\n');
        }
        if !estimator_cells.is_empty() {
            md.push_str(&render_estimators_markdown(&estimator_cells));
            md.push('\n');
        }
        if !fault_cells.is_empty() {
            md.push_str(&render_faults_markdown(&fault_cells));
            md.push('\n');
        }
        if output.is_some() {
            md.push_str(&render_throughput_markdown(&throughput_sweep(args.servers)));
        }
        if let Err(e) = std::fs::write(path, md) {
            eprintln!("fleet_bench: writing summary {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if gate_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
