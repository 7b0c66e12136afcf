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
//! fleet_bench --summary summary.md          # write a markdown summary
//!                                           # (gate table + requested
//!                                           # ablation tables) — CI appends
//!                                           # it to $GITHUB_STEP_SUMMARY
//! fleet_bench --shards 4                    # run every matrix cell's fleet
//!                                           # on N lanes (default 1); the
//!                                           # JSON is byte-identical at any N
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
//!                                           # (default 100000; needs
//!                                           # --estimators)
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
//! the algorithms or the simulator, not noise. The tool reads no clock: the
//! simulator's own cost is measured by the perf ledger in `bench/`.

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

use pam_experiments::faults::{run_fault_scenarios, FaultCell};
use pam_experiments::fleet::{
    run_estimator_ablation, run_fleet_matrix, run_link_model_ablation, EstimatorCell,
    FleetBenchEntry, FleetBenchOutput, LinkModelCell,
};

/// Relative tolerance band the gate allows before calling a change a
/// regression (generous: the runs are deterministic, so any drift at all is
/// an intentional code change — the band only tolerates *small* ones).
const DEFAULT_TOLERANCE: f64 = 0.25;

/// Absolute slack on packet counters, so a baseline of zero drops does not
/// fail on a handful of new ones.
const COUNT_SLACK: f64 = 64.0;

/// Flow population per server of the estimator ablation when
/// `--estimator-flows` is not given.
const DEFAULT_ESTIMATOR_FLOWS: usize = 100_000;

struct Args {
    out: Option<String>,
    check: Option<String>,
    summary: Option<String>,
    tolerance: f64,
    servers: usize,
    jobs: usize,
    shards: usize,
    link_models: bool,
    estimators: bool,
    estimator_flows: Option<usize>,
    faults: bool,
    faults_out: Option<String>,
}

/// The default worker-thread count: the machine's available parallelism.
fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: None,
        check: None,
        summary: None,
        tolerance: DEFAULT_TOLERANCE,
        servers: 4,
        jobs: default_jobs(),
        shards: 1,
        link_models: false,
        estimators: false,
        estimator_flows: None,
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
            "--link-models" => args.link_models = true,
            "--estimators" => args.estimators = true,
            "--faults" => args.faults = true,
            "--faults-out" => args.faults_out = Some(value("--faults-out")?),
            "--estimator-flows" => {
                args.estimator_flows = Some(
                    value("--estimator-flows")?
                        .parse::<usize>()
                        .map_err(|e| format!("--estimator-flows: {e}"))?
                        .max(1),
                )
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
    // Every comparison with NaN is false, so a NaN band would pass any
    // regression; a negative band would fail every cell.
    if !(args.tolerance.is_finite() && args.tolerance >= 0.0) {
        return Err(format!(
            "--tolerance must be a finite, non-negative number (got {})",
            args.tolerance
        ));
    }
    if args.servers == 0 {
        return Err("--servers must be at least 1".to_string());
    }
    if args.estimator_flows.is_some() && !args.estimators {
        return Err("--estimator-flows needs --estimators".to_string());
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

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fleet_bench: {e}");
            eprintln!(
                "usage: fleet_bench [--out PATH] [--check BASELINE] [--summary PATH] \
                 [--tolerance F] [--servers N] [--jobs N] [--shards N] [--link-models] \
                 [--estimators] [--estimator-flows N] [--faults] [--faults-out PATH]"
            );
            return ExitCode::FAILURE;
        }
    };

    let output = match run_fleet_matrix(args.servers, args.jobs, args.shards) {
        Ok(output) => output,
        Err(e) => {
            eprintln!("fleet_bench: matrix failed: {e}");
            return ExitCode::FAILURE;
        }
    };

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
        let flows = args.estimator_flows.unwrap_or(DEFAULT_ESTIMATOR_FLOWS);
        match run_estimator_ablation(args.servers, flows) {
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

    let json = match serde_json::to_string(&output) {
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
    let gate_ok = match &baseline {
        Some(baseline) => run_gate(baseline, &output, args.tolerance),
        None => true,
    };

    if let Some(path) = &args.summary {
        let mut md = render_gate_markdown(baseline.as_ref(), &output, args.tolerance);
        md.push('\n');
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
