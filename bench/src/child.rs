//! One run of one workload, in this process: build each cell, run it to its
//! horizon one control interval at a time, capture and serialise its report,
//! then check it. The driver executes this in a fresh child process per run
//! so that peak RSS and heap state belong to that run alone.
//!
//! Every step is timed on its own — one slice per cell build, per control
//! interval and per report — because the simulator is deterministic: slice
//! `i` does exactly the same work in every repeat, so the driver can take
//! each slice's fastest repeat (see `driver`).

use std::collections::BTreeMap;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::alloc_count;
use crate::host;
use crate::layers;
use crate::spans::{self, Recorder};
use crate::stats;
use crate::surface::{self, Cell, CellSpec, Details, Totals};

/// What one child is asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildArgs {
    /// The workload's name.
    pub workload: String,
    /// The seed every input is made from.
    pub seed: u64,
    /// Also sample exact counts per interval, count allocations and replay
    /// every layer on its own.
    pub traced: bool,
    /// Run each cell to its horizon in one call (the untimed warm-up round:
    /// slicing must not change a byte of any report).
    pub unsliced: bool,
    /// Divide every horizon by 20 (the harness smoke).
    pub quick: bool,
    /// Where the traced run writes its spans.
    pub trace_out: Option<String>,
}

/// What one child reports back, as one JSON line on its standard output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChildResult {
    /// The workload's name.
    pub workload: String,
    /// The seed the inputs were made from.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// One digest per cell over its report bytes, in cell order.
    pub cell_digests: Vec<String>,
    /// One line per cell that returned an error or broke conservation.
    pub failures: Vec<String>,
    /// Packets injected over all cells (fixed by the seed).
    pub packets: u64,
    /// Seconds the hypervisor took the machine's CPUs away while the cells
    /// ran (`steal` in `/proc/stat`, summed over CPUs).
    pub stolen_s: f64,
    /// Nanoseconds each cell's set-up took, in cell order; the first also
    /// covers everything since `main`.
    pub setup_ns: Vec<u64>,
    /// Nanoseconds of every slice of `wall_s`, in order: per cell, each
    /// control interval and then the report.
    pub slice_ns: Vec<u64>,
    /// The end-to-end metrics as this run alone measured them.
    pub end_to_end: BTreeMap<String, f64>,
    /// Per-layer metrics: all of them from a traced run, only the exact
    /// counters and the shard accounting from a timed one.
    pub per_layer: BTreeMap<String, f64>,
}

impl ChildResult {
    /// One digest over every cell's digest.
    pub fn digest(&self) -> String {
        let mut hash = Fnv::default();
        for cell in &self.cell_digests {
            hash.update(cell.as_bytes());
        }
        hash.hex()
    }
}

/// FNV-1a, 64 bits: enough to tell two report byte strings apart.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The divisor `--quick` applies to every horizon.
pub const QUICK_DIVISOR: u64 = 20;

/// Lanes `fleet64_shard2` runs on.
pub fn shard_lanes() -> usize {
    host::nproc().min(2)
}

/// The cells of `workload`, or `None` for an unknown name.
pub fn cells_of(workload: &str, seed: u64, quick: bool) -> Option<Vec<CellSpec>> {
    let mut cells = match workload {
        "matrix48" => surface::matrix48(seed),
        "chain_sweep" => surface::chain_sweep(seed),
        "fleet64_seq" => surface::fleet64(seed, 1),
        "fleet64_shard2" => surface::fleet64(seed, shard_lanes()),
        "flows1m" => surface::flows1m(seed),
        _ => return None,
    };
    if quick {
        for cell in &mut cells {
            cell.shrink(QUICK_DIVISOR);
        }
    }
    Some(cells)
}

/// Everything kept about one finished cell.
#[derive(Debug, Clone, Default)]
pub struct CellRecord {
    /// The numbers read from the report.
    pub totals: Totals,
    /// Side-channel counters.
    pub details: Details,
    /// Bytes of report JSON.
    pub json_bytes: u64,
    /// Allocations and bytes during set-up (traced run only).
    pub setup_allocs: (u64, u64),
    /// Allocations and bytes inside the control intervals (traced run only).
    pub run_allocs: (u64, u64),
}

/// One finished run, before it is boiled down to metrics.
pub struct Iteration {
    /// The cells, as described.
    pub specs: Vec<CellSpec>,
    /// What each cell produced (default for a cell that failed to build).
    pub records: Vec<CellRecord>,
    /// The spans: per cell `setup`, `run` (one window per control interval
    /// inside it) and `report`.
    pub recorder: Recorder,
    /// Host seconds of set-up over all cells, from `main`'s entry.
    pub setup_s: f64,
    /// Host seconds of run + report capture + serialisation, all cells.
    pub wall_s: f64,
}

fn delta(after: (u64, u64), before: (u64, u64)) -> (u64, u64) {
    (after.0 - before.0, after.1 - before.1)
}

/// Runs the cell to its horizon one control interval at a time, a span per
/// interval; `traced` also attaches the interval's exact counts and counts
/// its allocations.
fn run_sliced(
    cell: &mut Cell,
    spec: &CellSpec,
    traced: bool,
    recorder: &mut Recorder,
    record: &mut CellRecord,
) {
    let name = if spec.is_fleet() {
        "fleet.window"
    } else {
        "runtime.window"
    };
    let (horizon, window) = (spec.horizon_ns(), spec.window_ns().max(1));
    let mut before = traced.then(|| cell.progress());
    let mut at = 0;
    while at < horizon {
        at = (at + window).min(horizon);
        let allocs = alloc_count::snapshot();
        let index = recorder.begin(name);
        cell.run_to(at);
        recorder.end();
        let Some(earlier) = before else {
            continue;
        };
        let spent = delta(alloc_count::snapshot(), allocs);
        record.run_allocs = (record.run_allocs.0 + spent.0, record.run_allocs.1 + spent.1);
        let after = cell.progress();
        recorder.annotate(
            index,
            vec![
                ("events", after.events - earlier.events),
                ("pkts", after.injected - earlier.injected),
                ("migrations", after.migrations - earlier.migrations),
            ],
        );
        before = Some(after);
    }
}

/// Runs every cell of the workload once. `started` is the process's entry
/// instant: set-up is counted from there.
pub fn iterate(args: &ChildArgs, started: Instant) -> Result<ChildResult, String> {
    let specs = cells_of(&args.workload, args.seed, args.quick)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    if args.traced {
        alloc_count::enable();
    }
    let stolen_before = host::stolen_s();
    let mut recorder = Recorder::default();
    let mut records = Vec::with_capacity(specs.len());
    let mut cell_digests = Vec::with_capacity(specs.len());
    let mut failures = Vec::new();
    let (mut setup_s, mut wall_s) = (0.0, 0.0);
    let mut setup_ns = Vec::with_capacity(specs.len());
    let mut entry = Some(started);

    for (index, spec) in specs.iter().enumerate() {
        recorder.set_run(index as u32);
        let mut record = CellRecord::default();

        // Set-up. The first cell's also covers everything since `main`.
        let allocs = alloc_count::snapshot();
        let clock = entry.take().unwrap_or_else(Instant::now);
        recorder.begin("setup");
        let built = Cell::build(spec);
        recorder.end();
        let elapsed = clock.elapsed();
        setup_s += elapsed.as_secs_f64();
        setup_ns.push(elapsed.as_nanos() as u64);
        record.setup_allocs = delta(alloc_count::snapshot(), allocs);
        let mut cell = match built {
            Ok(cell) => cell,
            Err(error) => {
                failures.push(format!("{}: {error}", spec.label));
                cell_digests.push(String::new());
                records.push(record);
                continue;
            }
        };

        // Run + report: what `wall_s` covers.
        let clock = Instant::now();
        recorder.begin("run");
        if args.unsliced {
            cell.run_to(spec.horizon_ns());
        } else {
            run_sliced(&mut cell, spec, args.traced, &mut recorder, &mut record);
        }
        recorder.end();
        recorder.begin("report");
        let (report, _) = recorder.time("report.capture", || cell.report());
        let (json, _) = recorder.time("report.json", || report.to_json());
        recorder.end();
        wall_s += clock.elapsed().as_secs_f64();

        // Checks, untimed.
        let mut hash = Fnv::default();
        match &json {
            Ok(text) => {
                hash.update(text.as_bytes());
                record.json_bytes = text.len() as u64;
            }
            Err(error) => failures.push(format!("{}: report JSON: {error}", spec.label)),
        }
        cell_digests.push(hash.hex());
        record.totals = report.totals();
        record.details = cell.details();
        if let Err(error) = cell.check_conservation() {
            failures.push(format!("{}: {error}", spec.label));
        }
        records.push(record);
    }

    let stolen_s = host::stolen_s() - stolen_before;
    let slice_ns = recorder
        .spans()
        .iter()
        .filter(|s| s.name.ends_with(".window") || s.name == "report")
        .map(|s| s.duration_ns())
        .collect();
    let mut iteration = Iteration {
        specs,
        records,
        recorder,
        setup_s,
        wall_s,
    };
    let end_to_end = end_to_end(&iteration);
    let mut per_layer = layers::counted(&iteration);
    if args.traced {
        per_layer.extend(layers::traced(&mut iteration, args.quick)?);
        if let Some(path) = &args.trace_out {
            std::fs::write(path, spans::to_jsonl(iteration.recorder.spans()))
                .map_err(|e| format!("{path}: {e}"))?;
        }
    }
    Ok(ChildResult {
        workload: args.workload.clone(),
        seed: args.seed,
        traced: args.traced,
        cell_digests,
        failures,
        packets: iteration.records.iter().map(|r| r.totals.injected).sum(),
        stolen_s,
        setup_ns,
        slice_ns,
        end_to_end,
        per_layer,
    })
}

/// The end-to-end metrics as one run alone measured them.
fn end_to_end(iteration: &Iteration) -> BTreeMap<String, f64> {
    let pam: Vec<&Totals> = iteration
        .specs
        .iter()
        .zip(&iteration.records)
        .filter(|(spec, _)| spec.pam)
        .map(|(_, record)| &record.totals)
        .collect();
    let cells = pam.len().max(1) as f64;
    let injected_all: u64 = iteration.records.iter().map(|r| r.totals.injected).sum();
    let injected: u64 = pam.iter().map(|t| t.injected).sum();
    let delivered: u64 = pam.iter().map(|t| t.delivered).sum();
    let mut out = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    put("setup_s", iteration.setup_s);
    put("wall_s", iteration.wall_s);
    put(
        "pkts_per_s",
        if iteration.wall_s > 0.0 {
            injected_all as f64 / iteration.wall_s
        } else {
            0.0
        },
    );
    put("peak_rss_mb", host::peak_rss_kib() as f64 / 1024.0);
    put(
        "sim_mean_us",
        pam.iter().map(|t| t.mean_us).sum::<f64>() / cells,
    );
    put(
        "sim_delivered_ratio",
        if injected > 0 {
            delivered as f64 / injected as f64
        } else {
            0.0
        },
    );
    put(
        "sim_blackout_us",
        stats::total(pam.iter().map(|t| t.blackout_us)),
    );
    out
}
