//! The parent side: runs one fresh child process per run, one at a time,
//! and only waits while it runs; then checks the children against each
//! other and boils them down.
//!
//! Host times are boiled down slice by slice. The simulator is
//! deterministic, so slice `i` (a cell's build, one control interval, a
//! report) does exactly the same work in every child; each slice counts
//! with its fastest repeat, and the metric is the sum. The sandbox this
//! runs in slows down and speeds up by tens of percent for minutes at a
//! time, in bursts of a few milliseconds: the median of whole runs follows
//! that drift, while nearly every slice meets a quiet moment in one repeat
//! or another. The medians and quartiles of the whole runs are printed
//! beside it.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use serde::value::{Map, Value};
use serde::Serialize;

use crate::catalog::{Clock, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::child::ChildResult;
use crate::host;
use crate::stats::{self, Summary};

/// Fewest timed runs a result is ever taken from.
const MIN_TIMED: usize = 3;

/// Share of a run's time the hypervisor may take away before the run counts
/// as disturbed. A quiet hour of this sandbox shows 0.05 %; an episode 30 %
/// and more.
const STOLEN_SHARE: f64 = 0.02;

/// A contract run goes on past `--seconds`, up to this many times as long,
/// while fewer than [`MIN_TIMED`] of its runs were left alone.
const PATIENCE: f64 = 2.5;

/// What a child is asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A run the end-to-end metrics are taken from.
    Timed,
    /// The run the per-layer metrics are taken from.
    Traced,
    /// A run to the horizon in one call, for its report bytes only.
    Unsliced,
}

/// How children are started and where they write.
#[derive(Debug, Clone)]
pub struct Spawner {
    /// This executable.
    pub exe: PathBuf,
    /// Pass `--quick` to every child.
    pub quick: bool,
    /// Directory for `results.json` and `trace-<workload>.jsonl`.
    pub out_dir: PathBuf,
}

impl Spawner {
    /// Runs one child to completion and parses the line it prints.
    pub fn run(&self, workload: &str, seed: u64, kind: Kind) -> Result<ChildResult, String> {
        let traced = kind == Kind::Traced;
        let mut command = Command::new(&self.exe);
        command
            .arg("child")
            .args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }]);
        if self.quick {
            command.arg("--quick");
        }
        if kind == Kind::Unsliced {
            command.arg("--unsliced");
        }
        if traced {
            std::fs::create_dir_all(&self.out_dir)
                .map_err(|e| format!("{}: {e}", self.out_dir.display()))?;
            let path = self.out_dir.join(format!("trace-{workload}.jsonl"));
            command.arg("--trace-out").arg(path);
        }
        // `output` waits for the child to end, so no process outlives us.
        let output = command
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", self.exe.display()))?;
        if !output.status.success() {
            return Err(format!("child for {workload} ended with {}", output.status));
        }
        let text = String::from_utf8_lossy(&output.stdout);
        let line = text
            .lines()
            .last()
            .ok_or_else(|| format!("child for {workload} printed nothing"))?;
        serde_json::from_str(line).map_err(|e| format!("child for {workload}: {e}"))
    }
}

/// Whether the hypervisor ran something else on this machine's CPUs for more
/// than [`STOLEN_SHARE`] of the run (`steal` in `/proc/stat`). Such episodes
/// last minutes and slow every slice of every repeat several times over, so
/// no statistic over the repeats removes them; they can only be set aside.
fn disturbed(run: &ChildResult) -> bool {
    let busy_s: f64 = ["setup_s", "wall_s"]
        .iter()
        .filter_map(|name| run.end_to_end.get(*name))
        .sum();
    run.stolen_s > STOLEN_SHARE * busy_s
}

/// Each slice's fastest repeat, summed, in seconds; `None` when there is no
/// run or the runs disagree on the number of slices.
fn fastest_sum(runs: &[&[u64]]) -> Option<f64> {
    let first = runs.first()?;
    if runs.iter().any(|run| run.len() != first.len()) {
        return None;
    }
    let nanos: u64 = (0..first.len())
        .map(|slice| runs.iter().map(|run| run[slice]).min().unwrap_or(0))
        .sum();
    Some(nanos as f64 / 1e9)
}

/// One end-to-end metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The value reported: for a host time the sum of fastest slices, for
    /// anything else the median of the runs.
    pub value: f64,
    /// The same metric as each whole run measured it.
    pub runs: Summary,
}

/// Every run made of one workload, and what the checks found.
#[derive(Debug, Clone, Default)]
pub struct WorkloadRuns {
    /// The workload's name.
    pub workload: String,
    /// The untraced runs the end-to-end medians come from.
    pub timed: Vec<ChildResult>,
    /// The traced run, if one was made.
    pub traced: Option<ChildResult>,
    /// The slices of `fleet64_seq`'s timed runs at the same seed, for
    /// `shard.speedup_vs_seq` (kept on `fleet64_shard2` only).
    pub seq_slice_ns: Vec<Vec<u64>>,
    /// Cells simulated, over every run.
    pub attempted: u64,
    /// Cells that failed a check, with why.
    pub failures: Vec<String>,
}

impl WorkloadRuns {
    /// Starts an empty record for `workload`.
    pub fn new(workload: &str) -> Self {
        WorkloadRuns {
            workload: workload.to_string(),
            ..Default::default()
        }
    }

    /// The first run made: what every other run's bytes are compared with.
    fn first(&self) -> Option<&ChildResult> {
        self.timed.first().or(self.traced.as_ref())
    }

    /// Counts a run's cells, takes over its own failures and compares its
    /// report bytes, cell by cell, with the first run's (`what` names the
    /// pair).
    fn check(&mut self, run: &ChildResult, what: &str) {
        self.attempted += run.cell_digests.len() as u64;
        self.failures.extend(run.failures.iter().cloned());
        let Some(reference) = self.first().map(|first| first.cell_digests.clone()) else {
            return;
        };
        if run.cell_digests.len() != reference.len() {
            self.failures.push(format!("{what}: cell counts differ"));
        }
        for (index, (a, b)) in run.cell_digests.iter().zip(&reference).enumerate() {
            if a != b {
                self.failures
                    .push(format!("{what}: report bytes of cell {index} differ"));
            }
        }
    }

    /// Adds a timed run, checked against the earlier ones.
    pub fn add_timed(&mut self, run: ChildResult) {
        self.check(&run, "repeat");
        if let Some(earlier) = self.timed.first() {
            if (run.setup_ns.len(), run.slice_ns.len())
                != (earlier.setup_ns.len(), earlier.slice_ns.len())
            {
                self.failures
                    .push("repeat: the runs were cut into different slices".to_string());
            }
        }
        self.timed.push(run);
    }

    /// Checks a run made to the horizon in one call against the sliced
    /// ones: slicing must not change a byte.
    pub fn add_unsliced(&mut self, run: &ChildResult) {
        self.check(run, "unsliced vs sliced");
    }

    /// Adds the traced (sliced) run, checked against the untraced ones.
    pub fn add_traced(&mut self, run: ChildResult) {
        self.check(&run, "traced vs timed");
        self.traced = Some(run);
    }

    /// Adds a run of `fleet64_seq` to `fleet64_shard2`'s record: the two
    /// must report the same bytes.
    pub fn add_sequential_twin(&mut self, run: &ChildResult) {
        self.check(run, "fleet64_seq vs fleet64_shard2");
        self.seq_slice_ns.push(run.slice_ns.clone());
    }

    /// The digest over every cell's report bytes.
    pub fn digest(&self) -> String {
        self.first().map(ChildResult::digest).unwrap_or_default()
    }

    /// The timed runs the hypervisor left alone.
    fn left_alone(&self) -> Vec<&ChildResult> {
        self.timed.iter().filter(|run| !disturbed(run)).collect()
    }

    /// The timed runs host times are taken from: those the hypervisor left
    /// alone, if there are [`MIN_TIMED`] of them; otherwise all of them.
    pub fn steady(&self) -> Vec<&ChildResult> {
        let left_alone = self.left_alone();
        if left_alone.len() >= MIN_TIMED {
            left_alone
        } else {
            self.timed.iter().collect()
        }
    }

    /// Every end-to-end metric over the timed runs.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, Estimate> {
        let steady = self.steady();
        let setups: Vec<&[u64]> = steady.iter().map(|r| r.setup_ns.as_slice()).collect();
        let slices: Vec<&[u64]> = steady.iter().map(|r| r.slice_ns.as_slice()).collect();
        let wall_s = fastest_sum(&slices);
        let packets = self.timed.first().map_or(0, |run| run.packets) as f64;
        END_TO_END
            .iter()
            .filter_map(|metric| {
                let values: Vec<f64> = self
                    .timed
                    .iter()
                    .filter_map(|run| run.end_to_end.get(metric.name).copied())
                    .collect();
                let runs = Summary::of(&values)?;
                // Runs that disagree on their slices are a failed check
                // (see `add_timed`); then the fastest whole run stands in.
                let value = match metric.name {
                    "setup_s" => fastest_sum(&setups).unwrap_or(runs.min),
                    "wall_s" => wall_s.unwrap_or(runs.min),
                    "pkts_per_s" => wall_s.map_or(runs.max, |wall| packets / wall),
                    _ => runs.median,
                };
                Some((metric.name, Estimate { value, runs }))
            })
            .collect()
    }

    /// How much longer the traced run took than the timed ones, in percent:
    /// the median over slices of traced / timed (a slow moment of the host
    /// lengthens a few slices, tracing lengthens all of them), plus the
    /// share of its run spent between slices, sampling the counts, beyond
    /// the timed runs' own.
    fn overhead_pct(&self) -> f64 {
        let Some(traced) = &self.traced else {
            return 0.0;
        };
        let ratios: Vec<f64> = traced
            .slice_ns
            .iter()
            .enumerate()
            .filter_map(|(slice, &ns)| {
                let repeats: Vec<f64> = self
                    .timed
                    .iter()
                    .filter_map(|run| run.slice_ns.get(slice))
                    .map(|&ns| ns as f64)
                    .collect();
                let typical = stats::median(&repeats);
                (typical > 0.0).then(|| ns as f64 / typical)
            })
            .collect();
        if ratios.is_empty() {
            return 0.0;
        }
        let between = |run: &ChildResult| -> f64 {
            let sliced = run.slice_ns.iter().sum::<u64>() as f64 / 1e9;
            match run.end_to_end.get("wall_s") {
                Some(wall) if sliced > 0.0 => wall / sliced - 1.0,
                _ => 0.0,
            }
        };
        let timed_between = stats::median(&self.timed.iter().map(between).collect::<Vec<_>>());
        (stats::median(&ratios) - 1.0 + between(traced) - timed_between) * 100.0
    }

    /// Every per-layer metric: the traced run's, with the sharded runner's
    /// accounting taken from the timed runs and the two cross-run figures
    /// filled in.
    pub fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let steady = self.steady();
        let timed = |name: &str| -> Vec<f64> {
            steady
                .iter()
                .filter_map(|run| run.per_layer.get(name).copied())
                .collect()
        };
        let sharded: Vec<&[u64]> = steady.iter().map(|r| r.slice_ns.as_slice()).collect();
        let sequential: Vec<&[u64]> = self.seq_slice_ns.iter().map(Vec::as_slice).collect();
        let speedup = match (fastest_sum(&sequential), fastest_sum(&sharded)) {
            (Some(sequential), Some(sharded)) if sharded > 0.0 => sequential / sharded,
            _ => 0.0,
        };
        PER_LAYER
            .iter()
            .map(|metric| {
                let from_trace = self
                    .traced
                    .as_ref()
                    .and_then(|run| run.per_layer.get(metric.name).copied());
                let value = match metric.name {
                    "trace.overhead_pct" => self.overhead_pct(),
                    "shard.speedup_vs_seq" => speedup,
                    name if name.starts_with("shard.") && !steady.is_empty() => {
                        stats::median(&timed(name))
                    }
                    _ => from_trace.unwrap_or(0.0),
                };
                (metric.name, value)
            })
            .collect()
    }
}

/// The last line of a contract run: `correct`, `attempted`, `failed` and the
/// metrics, each with its unit.
fn contract_line(runs: &WorkloadRuns, metrics: &[(&Metric, f64)]) -> String {
    let mut values = Map::new();
    for (metric, value) in metrics {
        let mut entry = Map::new();
        entry.insert("value", value.to_value());
        entry.insert("unit", metric.unit.to_value());
        values.insert(metric.name, Value::Object(entry));
    }
    let mut line = Map::new();
    line.insert("correct", runs.failures.is_empty().to_value());
    line.insert("attempted", runs.attempted.max(1).to_value());
    line.insert("failed", (runs.failures.len() as u64).to_value());
    line.insert("metrics", Value::Object(values));
    serde_json::to_string(&Value::Object(line)).unwrap_or_default()
}

fn print_failures(runs: &WorkloadRuns) {
    for failure in &runs.failures {
        println!("FAILED {}: {failure}", runs.workload);
    }
}

fn print_end_to_end(runs: &WorkloadRuns, estimates: &BTreeMap<&'static str, Estimate>) {
    let set_aside = runs.timed.len() - runs.steady().len();
    if set_aside > 0 {
        println!(
            "{:<15} host times leave out {set_aside} of {} runs: the hypervisor took more than {} % of their time",
            runs.workload,
            runs.timed.len(),
            STOLEN_SHARE * 100.0
        );
    }
    for metric in &END_TO_END {
        let Some(Estimate { value, runs: s }) = estimates.get(metric.name) else {
            continue;
        };
        println!(
            "{:<15} {:<20} {:<5} {:>16.6} {:<7} whole runs: median {:.6} q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {}",
            runs.workload,
            metric.name,
            metric.clock.label(),
            value,
            metric.unit,
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.max,
            s.n
        );
    }
}

fn print_per_layer(runs: &WorkloadRuns, values: &BTreeMap<&'static str, f64>) {
    let unresolved = values.get("trace.attribution_resolved") == Some(&0.0);
    for metric in &PER_LAYER {
        let value = values.get(metric.name).copied().unwrap_or(0.0);
        if unresolved && metric.name == "fleet.residual_s" {
            println!(
                "{:<15} {:<30} {:<5} unresolved ({value:.6} {}: the replayed shares do not fit the traced run)",
                runs.workload,
                metric.name,
                metric.clock.label(),
                metric.unit
            );
            continue;
        }
        println!(
            "{:<15} {:<30} {:<5} {:>18.6} {}",
            runs.workload,
            metric.name,
            metric.clock.label(),
            value,
            metric.unit
        );
    }
}

fn print_ops(runs: &WorkloadRuns) {
    println!(
        "{:<15} ops_attempted {} ops_failed {} report_digest {}",
        runs.workload,
        runs.attempted,
        runs.failures.len(),
        runs.digest()
    );
}

/// One run as the driver asks for it: one workload, one seed, a fixed
/// measuring time; the last line printed is the result.
pub fn contract(
    spawner: &Spawner,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<bool, String> {
    if !WORKLOADS.iter().any(|known| known.name == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let clock = Instant::now();
    let mut runs = WorkloadRuns::new(workload);
    let mut run_lengths = Vec::new();
    // Repeat while another run of the usual length still fits; go on for a
    // while longer if the hypervisor left too few runs alone.
    loop {
        let before = clock.elapsed().as_secs_f64();
        runs.add_timed(spawner.run(workload, seed, Kind::Timed)?);
        run_lengths.push(clock.elapsed().as_secs_f64() - before);
        if workload == "fleet64_shard2" && runs.seq_slice_ns.is_empty() {
            runs.add_sequential_twin(&spawner.run("fleet64_seq", seed, Kind::Timed)?);
        }
        if traced {
            break;
        }
        let next_ends = clock.elapsed().as_secs_f64() + stats::median(&run_lengths);
        let limit = if runs.left_alone().len() >= MIN_TIMED {
            seconds
        } else {
            seconds * PATIENCE
        };
        if runs.timed.len() >= MIN_TIMED && next_ends > limit {
            break;
        }
    }
    if traced {
        runs.add_traced(spawner.run(workload, seed, Kind::Traced)?);
    }

    print_failures(&runs);
    let line = if traced {
        let values = runs.per_layer();
        print_per_layer(&runs, &values);
        let metrics: Vec<(&Metric, f64)> = PER_LAYER
            .iter()
            .map(|m| (m, values.get(m.name).copied().unwrap_or(0.0)))
            .collect();
        contract_line(&runs, &metrics)
    } else {
        let estimates = runs.end_to_end();
        print_end_to_end(&runs, &estimates);
        let metrics: Vec<(&Metric, f64)> = END_TO_END
            .iter()
            .map(|m| (m, estimates.get(m.name).map_or(0.0, |e| e.value)))
            .collect();
        contract_line(&runs, &metrics)
    };
    print_ops(&runs);
    println!("{line}");
    Ok(runs.failures.is_empty())
}

/// One set of runs of all five workloads, round-robin: `repeats` timed
/// rounds and, if asked, a traced round.
pub fn run_set(
    spawner: &Spawner,
    seed: u64,
    repeats: usize,
    traced: bool,
) -> Result<Vec<WorkloadRuns>, String> {
    let mut set: Vec<WorkloadRuns> = WORKLOADS
        .iter()
        .map(|w| WorkloadRuns::new(w.name))
        .collect();
    for round in 0..repeats {
        eprintln!("timed round {} of {repeats}", round + 1);
        for runs in &mut set {
            let workload = runs.workload.clone();
            runs.add_timed(spawner.run(&workload, seed, Kind::Timed)?);
        }
    }
    if traced {
        eprintln!("traced round");
        for runs in &mut set {
            let workload = runs.workload.clone();
            runs.add_traced(spawner.run(&workload, seed, Kind::Traced)?);
        }
    }
    // `fleet64_seq` and `fleet64_shard2` are the same fleet run two ways.
    let sequential: Vec<ChildResult> = set
        .iter()
        .find(|r| r.workload == "fleet64_seq")
        .map(|r| r.timed.clone())
        .unwrap_or_default();
    if let Some(sharded) = set.iter_mut().find(|r| r.workload == "fleet64_shard2") {
        for run in &sequential {
            let attempted = sharded.attempted;
            sharded.add_sequential_twin(run);
            // Those cells are already counted under `fleet64_seq`.
            sharded.attempted = attempted;
        }
    }
    Ok(set)
}

/// An untimed round that warms the page cache and the CPU's clocks. Its
/// cells run to their horizons in one call; `check_unsliced` compares their
/// report bytes with the sliced runs'.
fn warm_up(spawner: &Spawner, seed: u64) -> Result<Vec<ChildResult>, String> {
    eprintln!("warm-up round (untimed, unsliced)");
    WORKLOADS
        .iter()
        .map(|workload| spawner.run(workload.name, seed, Kind::Unsliced))
        .collect()
}

fn check_unsliced(set: &mut [WorkloadRuns], unsliced: &[ChildResult]) {
    for (runs, run) in set.iter_mut().zip(unsliced) {
        runs.add_unsliced(run);
    }
}

fn estimate_value(metric: &Metric, estimate: &Estimate) -> Value {
    let s = &estimate.runs;
    let mut map = Map::new();
    map.insert("value", estimate.value.to_value());
    map.insert("unit", metric.unit.to_value());
    map.insert("clock", metric.clock.label().to_value());
    map.insert("better", metric.better.label().to_value());
    map.insert("bound", metric.bound.unwrap_or(0.0).to_value());
    map.insert("median", s.median.to_value());
    map.insert("q1", s.q1.to_value());
    map.insert("q3", s.q3.to_value());
    map.insert("min", s.min.to_value());
    map.insert("max", s.max.to_value());
    map.insert("n", s.n.to_value());
    Value::Object(map)
}

/// A JSON object with one entry per line: a ledger row is read and compared
/// by people. `entries` are keys and already serialised values.
fn object_lines(entries: Vec<(&str, String)>) -> String {
    let lines: Vec<String> = entries
        .iter()
        .map(|(key, value)| format!("{}:{value}", json(key)))
        .collect();
    format!("{{\n{}\n}}", lines.join(",\n"))
}

fn json<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_default()
}

/// The result set as JSON: the header, then per workload its operations,
/// digest, end-to-end estimates and per-layer values, a metric per line.
pub fn results_json(header: &[(&'static str, String)], set: &[WorkloadRuns]) -> String {
    let mut head = Map::new();
    for (key, value) in header {
        head.insert(*key, value.to_value());
    }
    let workloads: Vec<String> = set
        .iter()
        .map(|runs| {
            let estimates = runs.end_to_end();
            let end_to_end = END_TO_END
                .iter()
                .filter_map(|metric| {
                    let estimate = estimates.get(metric.name)?;
                    Some((metric.name, json(&estimate_value(metric, estimate))))
                })
                .collect();
            let values = runs.per_layer();
            let per_layer = PER_LAYER
                .iter()
                .map(|metric| {
                    let mut entry = Map::new();
                    entry.insert(
                        "value",
                        values.get(metric.name).copied().unwrap_or(0.0).to_value(),
                    );
                    entry.insert("unit", metric.unit.to_value());
                    entry.insert("clock", metric.clock.label().to_value());
                    (metric.name, json(&Value::Object(entry)))
                })
                .collect();
            object_lines(vec![
                ("name", json(&runs.workload)),
                ("ops_attempted", json(&runs.attempted)),
                ("ops_failed", json(&(runs.failures.len() as u64))),
                ("failures", json(&runs.failures)),
                ("report_digest", json(&runs.digest())),
                ("end_to_end", object_lines(end_to_end)),
                ("per_layer", object_lines(per_layer)),
            ])
        })
        .collect();
    object_lines(vec![
        ("header", json(&Value::Object(head))),
        ("workloads", format!("[\n{}\n]", workloads.join(",\n"))),
    ])
}

fn print_header(header: &[(&'static str, String)]) {
    for (key, value) in header {
        println!("# {key}: {value}");
    }
}

/// `bench run`: the whole ledger. One untimed warm-up round, `repeats`
/// timed rounds, one traced round; prints every metric by name with its
/// unit and writes `results.json` and the traces. False if any operation
/// failed.
pub fn run(spawner: &Spawner, seed: u64, repeats: usize) -> Result<bool, String> {
    let header = host::header(seed, repeats);
    print_header(&header);
    let unsliced = warm_up(spawner, seed)?;
    let mut set = run_set(spawner, seed, repeats, true)?;
    check_unsliced(&mut set, &unsliced);
    for runs in &set {
        print_failures(runs);
        print_end_to_end(runs, &runs.end_to_end());
        print_per_layer(runs, &runs.per_layer());
        print_ops(runs);
    }
    std::fs::create_dir_all(&spawner.out_dir)
        .map_err(|e| format!("{}: {e}", spawner.out_dir.display()))?;
    let path = spawner.out_dir.join("results.json");
    std::fs::write(&path, results_json(&header, &set) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(set.iter().all(|runs| runs.failures.is_empty()))
}

/// `bench aa`: the same code measured twice. Prints, per workload and
/// end-to-end metric, the two medians, their relative difference and the
/// bound. False if a host metric's medians differ by more than its bound,
/// if anything simulated or counted differs at all, or if an operation
/// failed.
pub fn aa(spawner: &Spawner, seed: u64, repeats: usize) -> Result<bool, String> {
    let header = host::header(seed, repeats);
    print_header(&header);
    let unsliced = warm_up(spawner, seed)?;
    eprintln!("set A");
    let mut a = run_set(spawner, seed, repeats, false)?;
    check_unsliced(&mut a, &unsliced);
    eprintln!("set B");
    let b = run_set(spawner, seed, repeats, false)?;
    let mut agree = true;
    println!(
        "{:<15} {:<22} {:<5} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "clock", "A", "B", "diff %", "bound %"
    );
    for (runs_a, runs_b) in a.iter().zip(&b) {
        let (sa, sb) = (runs_a.end_to_end(), runs_b.end_to_end());
        for metric in &END_TO_END {
            let (Some(ma), Some(mb)) = (sa.get(metric.name), sb.get(metric.name)) else {
                continue;
            };
            let (ma, mb) = (ma.value, mb.value);
            let diff = if ma != 0.0 {
                (mb - ma).abs() / ma.abs()
            } else {
                0.0
            };
            let ok = match metric.clock {
                Clock::Host => diff <= metric.bound.unwrap_or(0.0),
                Clock::Sim | Clock::Exact => ma == mb,
            };
            agree &= ok;
            println!(
                "{:<15} {:<22} {:<5} {:>16.6} {:>16.6} {:>9.3} {:>7.1}  {}",
                runs_a.workload,
                metric.name,
                metric.clock.label(),
                ma,
                mb,
                diff * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                if ok { "ok" } else { "DIFFERS" }
            );
        }
        // Everything counted must repeat exactly, and so must the bytes.
        let counted = |runs: &WorkloadRuns| -> Vec<(&str, f64)> {
            let first = runs.timed.first();
            PER_LAYER
                .iter()
                .filter(|m| m.clock != Clock::Host)
                .filter_map(|m| Some((m.name, *first?.per_layer.get(m.name)?)))
                .collect()
        };
        let same_counts = counted(runs_a) == counted(runs_b);
        let same_bytes = runs_a.digest() == runs_b.digest();
        let no_failures = runs_a.failures.is_empty() && runs_b.failures.is_empty();
        agree &= same_counts && same_bytes && no_failures;
        print_failures(runs_a);
        print_failures(runs_b);
        println!(
            "{:<15} report_digest {} / {} {}  exact counts {}  ops_failed {} / {}",
            runs_a.workload,
            runs_a.digest(),
            runs_b.digest(),
            if same_bytes { "equal" } else { "DIFFER" },
            if same_counts { "equal" } else { "DIFFER" },
            runs_a.failures.len(),
            runs_b.failures.len()
        );
    }
    println!("# A/A {}", if agree { "agrees" } else { "DISAGREES" });
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A child that reported `digests` and ran its one cell in `slices`.
    fn child(digests: &[&str], slices: &[u64]) -> ChildResult {
        let wall_s = slices.iter().sum::<u64>() as f64 / 1e9;
        ChildResult {
            workload: "fleet64_shard2".to_string(),
            seed: 1,
            traced: false,
            cell_digests: digests.iter().map(|d| d.to_string()).collect(),
            failures: Vec::new(),
            packets: 1_000,
            stolen_s: 0.0,
            setup_ns: vec![5_000_000],
            slice_ns: slices.to_vec(),
            end_to_end: [
                ("setup_s", 0.005),
                ("wall_s", wall_s),
                ("pkts_per_s", 1_000.0 / wall_s),
                ("peak_rss_mb", 10.0),
                ("sim_mean_us", 250.0),
                ("sim_delivered_ratio", 0.99),
                ("sim_blackout_us", 700.0),
            ]
            .map(|(name, value)| (name.to_string(), value))
            .into(),
            per_layer: [("shard.serial_s", wall_s / 2.0), ("sim.events", 5_000.0)]
                .map(|(name, value)| (name.to_string(), value))
                .into(),
        }
    }

    #[test]
    fn fastest_sum_takes_each_slices_fastest_repeat() {
        let (a, b, c) = (vec![10, 40, 30], vec![20, 20, 30], vec![30, 50, 10]);
        assert_eq!(
            fastest_sum(&[a.as_slice(), b.as_slice(), c.as_slice()]),
            Some(40e-9)
        );
        assert_eq!(fastest_sum(&[a.as_slice()]), Some(80e-9));
        assert_eq!(fastest_sum(&[]), None);
        assert_eq!(fastest_sum(&[a.as_slice(), &b[..2]]), None);
    }

    #[test]
    fn host_times_are_sums_of_fastest_slices_and_the_rest_are_medians() {
        let mut runs = WorkloadRuns::new("fleet64_seq");
        runs.add_timed(child(&["aa"], &[1_000_000_000, 3_000_000_000]));
        runs.add_timed(child(&["aa"], &[2_000_000_000, 1_000_000_000]));
        runs.add_timed(child(&["aa"], &[2_000_000_000, 2_000_000_000]));
        assert!(runs.failures.is_empty());
        assert_eq!(runs.attempted, 3);
        let estimates = runs.end_to_end();
        assert_eq!(estimates["wall_s"].value, 2.0);
        assert_eq!(estimates["wall_s"].runs.median, 4.0);
        assert_eq!(estimates["wall_s"].runs.n, 3);
        assert_eq!(estimates["pkts_per_s"].value, 500.0);
        assert_eq!(estimates["setup_s"].value, 0.005);
        assert_eq!(estimates["peak_rss_mb"].value, 10.0);
        assert_eq!(estimates["sim_mean_us"].value, 250.0);
        assert_eq!(estimates.len(), END_TO_END.len());
    }

    #[test]
    fn runs_the_hypervisor_disturbed_are_set_aside_when_enough_are_left() {
        let mut runs = WorkloadRuns::new("fleet64_seq");
        let mut stolen = child(&["aa"], &[500_000_000]);
        stolen.stolen_s = 0.2;
        assert!(disturbed(&stolen));
        runs.add_timed(stolen);
        for _ in 0..2 {
            runs.add_timed(child(&["aa"], &[2_000_000_000]));
        }
        // Two quiet runs are too few: all three count.
        assert_eq!(runs.steady().len(), 3);
        assert_eq!(runs.end_to_end()["wall_s"].value, 0.5);
        runs.add_timed(child(&["aa"], &[2_000_000_000]));
        assert_eq!(runs.steady().len(), 3);
        assert_eq!(runs.end_to_end()["wall_s"].value, 2.0);
        assert_eq!(runs.end_to_end()["wall_s"].runs.n, 4, "every run is listed");
        assert!(
            runs.failures.is_empty(),
            "a disturbed run is not a failed one"
        );
    }

    #[test]
    fn differing_report_bytes_fail_the_cell_that_differs() {
        let mut runs = WorkloadRuns::new("matrix48");
        runs.add_timed(child(&["aa", "bb"], &[1, 2]));
        runs.add_timed(child(&["aa", "bb"], &[1, 2]));
        assert!(runs.failures.is_empty());
        runs.add_timed(child(&["aa", "XX"], &[1, 2]));
        assert_eq!(runs.failures, ["repeat: report bytes of cell 1 differ"]);
        runs.add_traced(child(&["YY", "bb"], &[1, 2]));
        assert_eq!(
            runs.failures[1],
            "traced vs timed: report bytes of cell 0 differ"
        );
        runs.add_unsliced(&child(&["aa"], &[1, 2]));
        assert_eq!(runs.failures[2], "unsliced vs sliced: cell counts differ");
        runs.add_timed(child(&["aa", "bb"], &[1, 2, 3]));
        assert_eq!(
            runs.failures[3],
            "repeat: the runs were cut into different slices"
        );
        assert_eq!(runs.attempted, 2 + 2 + 2 + 2 + 1 + 2);
    }

    #[test]
    fn a_childs_own_failures_and_its_sequential_twin_are_checked() {
        let mut runs = WorkloadRuns::new("fleet64_shard2");
        let mut broken = child(&["aa"], &[4_000_000_000]);
        broken
            .failures
            .push("cell: server 3: injected 10 != delivered + drops 9".to_string());
        runs.add_timed(broken);
        assert_eq!(runs.failures.len(), 1);
        runs.add_sequential_twin(&child(&["aa"], &[8_000_000_000]));
        assert_eq!(runs.failures.len(), 1);
        runs.add_sequential_twin(&child(&["zz"], &[8_000_000_000]));
        assert_eq!(
            runs.failures[1],
            "fleet64_seq vs fleet64_shard2: report bytes of cell 0 differ"
        );
        // 8 s sequential over 4 s sharded.
        let layers = runs.per_layer();
        assert_eq!(layers["shard.speedup_vs_seq"], 2.0);
        assert_eq!(layers["shard.serial_s"], 2.0);
        assert_eq!(layers.len(), PER_LAYER.len());
    }

    #[test]
    fn per_layer_values_come_from_the_traced_run_and_overhead_from_both() {
        let mut runs = WorkloadRuns::new("chain_sweep");
        runs.add_timed(child(&["aa"], &[2_000_000_000]));
        let mut traced = child(&["aa"], &[2_100_000_000]);
        traced.traced = true;
        traced.per_layer.insert("sim.events".to_string(), 7_000.0);
        runs.add_traced(traced);
        let layers = runs.per_layer();
        assert_eq!(layers["sim.events"], 7_000.0);
        assert!((layers["trace.overhead_pct"] - 5.0).abs() < 1e-9);
        assert_eq!(layers["traffic.pkts"], 0.0, "absent reads 0");
    }

    #[test]
    fn the_contract_line_has_exactly_the_four_keys_and_every_unit() {
        let mut runs = WorkloadRuns::new("chain_sweep");
        runs.add_timed(child(&["aa"], &[2_000_000_000]));
        let estimates = runs.end_to_end();
        let metrics: Vec<(&Metric, f64)> = END_TO_END
            .iter()
            .map(|m| (m, estimates[m.name].value))
            .collect();
        let line: Value = serde_json::from_str(&contract_line(&runs, &metrics)).unwrap();
        let object = line.as_object().unwrap();
        let keys: Vec<&str> = object.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(object.get("correct"), Some(&Value::Bool(true)));
        let wall = object.get("metrics").unwrap().as_object().unwrap();
        let wall = wall.get("wall_s").unwrap().as_object().unwrap();
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(wall.get("value"), Some(&serde_json::json!(2.0)));

        runs.failures.push("something".to_string());
        let line: Value = serde_json::from_str(&contract_line(&runs, &metrics)).unwrap();
        let object = line.as_object().unwrap();
        assert_eq!(object.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(object.get("failed"), Some(&serde_json::json!(1u64)));
    }

    #[test]
    fn results_json_parses_and_puts_every_metric_on_its_own_line() {
        let mut runs = WorkloadRuns::new("chain_sweep");
        runs.add_timed(child(&["aa"], &[2_000_000_000]));
        let text = results_json(&[("seed", "7".to_string())], &[runs]);
        let root: Value = serde_json::from_str(&text).unwrap();
        let root = root.as_object().unwrap();
        let header = root.get("header").unwrap().as_object().unwrap();
        assert_eq!(header.get("seed").unwrap().as_str(), Some("7"));
        let workload = &root.get("workloads").unwrap().as_array().unwrap()[0];
        let workload = workload.as_object().unwrap();
        assert_eq!(workload.get("name").unwrap().as_str(), Some("chain_sweep"));
        let end_to_end = workload.get("end_to_end").unwrap().as_object().unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        let wall = end_to_end.get("wall_s").unwrap().as_object().unwrap();
        assert_eq!(wall.get("value"), Some(&serde_json::json!(2.0)));
        assert_eq!(wall.get("n"), Some(&serde_json::json!(1u64)));
        let per_layer = workload.get("per_layer").unwrap().as_object().unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            let key = format!("\"{}\":", metric.name);
            assert!(text.lines().any(|line| line.starts_with(&key)), "{key}");
        }
    }
}
