//! Per-layer metrics: which layer the host time and the modelled latency of
//! a run belong to. Counts come from the run's own reports; host times come
//! from the traced run's spans and from replaying the run's inputs through
//! each layer's public functions in isolation.

use std::collections::{BTreeMap, BTreeSet};

use crate::child::{CellRecord, Iteration};
use crate::spans::{self, Recorder, Span};
use crate::stats;
use crate::surface::{
    self, CellSpec, Chunk, Datapath, EstimatorUnderTest, Headline, NfUnderTest, Source, WireInputs,
    CHAIN_NFS, ESTIMATOR_KINDS,
};

/// Packets materialised at a time during replay: bounds memory on the
/// million-packet workloads while keeping timer reads rare.
const CHUNK: usize = 1 << 16;

type Metrics = BTreeMap<String, f64>;

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The metrics every run can report for free: exact counters from the
/// reports and the sharded runner's own accounting.
pub fn counted(iteration: &Iteration) -> Metrics {
    let mut out = Metrics::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    let records = &iteration.records;
    let sum = |field: &dyn Fn(&CellRecord) -> u64| -> f64 {
        records.iter().map(field).sum::<u64>() as f64
    };

    let injected = sum(&|r| r.totals.injected);
    let delivered = sum(&|r| r.totals.delivered);
    let events = sum(&|r| r.details.events);
    put("sim.events", events);
    put("sim.events_per_pkt", ratio(events, injected));

    let crossings = sum(&|r| r.details.pcie_crossings);
    let bursts = sum(&|r| r.details.dma_bursts);
    let burst_capacity: f64 = iteration
        .specs
        .iter()
        .zip(records)
        .map(|(spec, r)| r.details.dma_bursts as f64 * spec.batch.max(1) as f64)
        .sum();
    put("link.crossings_per_pkt", ratio(crossings, delivered));
    put("link.dma_bursts", bursts);
    put("link.pkts_per_burst", ratio(crossings, bursts));
    put("link.burst_fill", ratio(crossings, burst_capacity));

    put("nf.flow_entries", sum(&|r| r.details.flow_entries));
    put("nf.drops_policy", sum(&|r| r.totals.drops_policy));

    let migrations = sum(&|r| r.totals.migrations);
    let blackout = stats::total(records.iter().map(|r| r.totals.blackout_us));
    put("runtime.migrations", migrations);
    put(
        "runtime.aborted_migrations",
        sum(&|r| r.totals.aborted_migrations),
    );
    put(
        "runtime.precopy_rounds",
        sum(&|r| r.details.migration_rounds),
    );
    put("runtime.round_bytes", sum(&|r| r.details.round_bytes));
    put("runtime.blackout_mean_us", ratio(blackout, migrations));
    put("runtime.drops_overload", sum(&|r| r.totals.drops_overload));
    put(
        "runtime.drops_migration",
        sum(&|r| r.totals.drops_migration),
    );

    put("fleet.estimator_bytes", sum(&|r| r.details.estimator_bytes));
    put("fleet.control_steps", sum(&|r| r.totals.control_steps));
    let scale_outs = sum(&|r| r.totals.scale_outs);
    let blocked = sum(&|r| r.totals.scale_out_blocked);
    put("fleet.scale_outs", scale_outs);
    put("fleet.scale_ins", sum(&|r| r.totals.scale_ins));
    put("fleet.scale_out_blocked", blocked);
    put(
        "fleet.scale_out_success_ratio",
        ratio(scale_outs, scale_outs + blocked),
    );
    put("fleet.resteered_pkts", sum(&|r| r.totals.resteered_packets));
    put("fleet.handoff_bytes", sum(&|r| r.totals.handoff_bytes));
    put(
        "fleet.handoff_us",
        stats::total(records.iter().map(|r| r.totals.handoff_us)),
    );

    // The sharded runner's lanes: each lane's busy + wait is the wall time
    // of the windows, so what is left of `wall_s` is serial.
    let lanes: Vec<surface::Lane> = records
        .iter()
        .flat_map(|r| r.details.lanes.iter().copied())
        .collect();
    let busy = stats::total(lanes.iter().map(|l| l.busy_s));
    let busy_max = lanes.iter().map(|l| l.busy_s).fold(0.0, f64::max);
    let serial = lanes
        .first()
        .map_or(0.0, |l| (iteration.wall_s - (l.busy_s + l.wait_s)).max(0.0));
    put("shard.windows", sum(&|r| r.details.shard_windows));
    put("shard.lane_busy_s", busy);
    put("shard.lane_busy_max_s", busy_max);
    put(
        "shard.barrier_wait_s",
        stats::total(lanes.iter().map(|l| l.wait_s)),
    );
    put("shard.serial_s", serial);
    put("shard.serial_frac", ratio(serial, iteration.wall_s));
    put(
        "shard.imbalance",
        ratio(busy_max, ratio(busy, lanes.len() as f64)),
    );

    put("experiments.json_bytes", sum(&|r| r.json_bytes));

    // The fleet headline and the median beside the mean and the p99.
    let (mut pam_p50, mut pam_p99) = (Vec::new(), Vec::new());
    let mut headline = [0.0; 3];
    for (spec, record) in iteration.specs.iter().zip(records) {
        if spec.pam {
            pam_p50.push(record.totals.p50_us);
            pam_p99.push(record.totals.p99_us);
        }
        match spec.headline {
            Some(Headline::None) => headline[0] = record.totals.p99_us,
            Some(Headline::Naive) => headline[1] = record.totals.p99_us,
            Some(Headline::Pam) => headline[2] = record.totals.p99_us,
            None => {}
        }
    }
    put("model.hotspot_none_p99_us", headline[0]);
    put("model.hotspot_naive_p99_us", headline[1]);
    put("model.hotspot_pam_p99_us", headline[2]);
    put(
        "model.p50_us",
        ratio(pam_p50.iter().sum(), pam_p50.len() as f64),
    );
    put(
        "model.p99_us",
        ratio(pam_p99.iter().sum(), pam_p99.len() as f64),
    );
    out
}

/// Durations of the spans called `name`, ascending, microseconds.
fn durations_us(all: &[Span], name: &str) -> Vec<f64> {
    let mut out: Vec<f64> = all
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// What replaying one distinct input measured, before scaling by how many
/// cells share the input.
#[derive(Debug, Default, Clone)]
struct Replayed {
    uses: f64,
    packets: u64,
    bytes: u64,
    distinct_flows: u64,
    synth_s: f64,
    source_setup_s: f64,
    frames: u64,
    wire_s: f64,
    nf_s: [f64; 4],
    datapath_s: f64,
    estimator_s: [f64; 2],
    state_bytes: u64,
    export_s: f64,
    import_s: f64,
}

/// Pulls every packet of the cell's traffic from fresh sources, timed.
fn replay_traffic(spec: &CellSpec, recorder: &mut Recorder, out: &mut Replayed) {
    let servers = spec.server_count();
    let (sources, ns) = recorder.time("replay.traffic.setup", || {
        (0..servers)
            .map(|index| Source::new(spec, index))
            .collect::<Vec<_>>()
    });
    out.source_setup_s = ns as f64 / 1e9;
    for mut source in sources {
        let ((packets, bytes), ns) = recorder.time("replay.traffic.synth", || source.exhaust());
        out.packets += packets;
        out.bytes += bytes;
        out.synth_s += ns as f64 / 1e9;
    }
}

/// Pushes the cell's traffic, a chunk at a time, through each layer on its
/// own: the frame builder, the four vNFs, a bare datapath per server and
/// both estimators. `with_state` also exports and re-imports the monitor
/// tables the replay built.
fn replay_layers(
    spec: &CellSpec,
    with_state: bool,
    recorder: &mut Recorder,
    out: &mut Replayed,
) -> Result<(), String> {
    let mut flows = BTreeSet::new();
    let mut chunk = Chunk::default();
    for index in 0..spec.server_count() {
        let mut source = Source::new(spec, index);
        let mut datapath = Datapath::new(spec, index)?;
        let mut nfs: Vec<NfUnderTest> = (0..CHAIN_NFS.len()).map(NfUnderTest::new).collect();
        let mut estimators: Vec<EstimatorUnderTest> = (0..ESTIMATOR_KINDS.len())
            .map(|kind| EstimatorUnderTest::new(spec, kind))
            .collect();
        while source.pull(&mut chunk, CHUNK) {
            if with_state {
                chunk.collect_flows(&mut flows);
            }
            let inputs = WireInputs::of(&chunk);
            let (frames, ns) = recorder.time("replay.wire.build", || inputs.build_all());
            out.frames += frames as u64;
            out.wire_s += ns as f64 / 1e9;

            for (kind, estimator) in estimators.iter_mut().enumerate() {
                let ((), ns) = recorder.time("replay.fleet.estimator", || estimator.feed(&chunk));
                out.estimator_s[kind] += ns as f64 / 1e9;
            }

            let copy = chunk.duplicate();
            let ((), ns) = recorder.time("replay.runtime.datapath", || datapath.feed(copy));
            out.datapath_s += ns as f64 / 1e9;

            for (position, nf) in nfs.iter_mut().enumerate() {
                let ((), ns) =
                    recorder.time("replay.nf.process", || nf.process(&mut chunk, spec.batch));
                out.nf_s[position] += ns as f64 / 1e9;
            }
        }
        let ((), ns) = recorder.time("replay.runtime.datapath", || {
            datapath.finish(spec.horizon_ns())
        });
        out.datapath_s += ns as f64 / 1e9;

        if with_state {
            let monitor = &nfs[1];
            let ((state, bytes), ns) = recorder.time("replay.nf.export", || monitor.export());
            out.state_bytes += bytes;
            out.export_s += ns as f64 / 1e9;
            let (imported, ns) = recorder.time("replay.nf.import", || monitor.import_fresh(state));
            imported?;
            out.import_s += ns as f64 / 1e9;
        }
    }
    out.distinct_flows += flows.len() as u64;
    Ok(())
}

/// The metrics only the traced run can report: span statistics, allocation
/// counts, the per-layer replay, the layer micro-measurements and the model
/// against its reference. `quick` divides the fixed-size loops by 20.
pub fn traced(iteration: &mut Iteration, quick: bool) -> Result<Metrics, String> {
    let Iteration {
        specs,
        records,
        recorder,
        ..
    } = iteration;

    // Replay: each distinct traffic once, each distinct (traffic, batch)
    // datapath once, scaled by the number of cells that share it.
    let mut by_traffic: BTreeMap<&str, Replayed> = BTreeMap::new();
    let mut by_datapath: BTreeMap<(&str, usize), Replayed> = BTreeMap::new();
    for spec in specs.iter() {
        let key = spec.traffic_key.as_str();
        if !by_traffic.contains_key(key) {
            let mut replayed = Replayed::default();
            replay_traffic(spec, recorder, &mut replayed);
            by_traffic.insert(key, replayed);
        }
        if !by_datapath.contains_key(&(key, spec.batch)) {
            let first_of_traffic = !by_datapath.keys().any(|(k, _)| *k == key);
            let mut replayed = Replayed::default();
            replay_layers(spec, first_of_traffic, recorder, &mut replayed)?;
            by_datapath.insert((key, spec.batch), replayed);
        }
        for replayed in by_traffic
            .get_mut(key)
            .into_iter()
            .chain(by_datapath.get_mut(&(key, spec.batch)))
        {
            replayed.uses += 1.0;
        }
    }

    // Layer micro-measurements: the same code on every workload.
    let scale = if quick { 20 } else { 1 };
    let per_op = |ns: u64, ops: u64| ratio(ns as f64, ops as f64);
    let ops = 2_000_000 / scale;
    let (_, ns) = recorder.time("micro.sim.queue_hold", || {
        surface::queue_hold(256, ops, 2018)
    });
    let hold_ns = per_op(ns, ops);
    let (_, ns) = recorder.time("micro.link.fifo", || surface::link_fifo_bursts(ops));
    let fifo_ns = per_op(ns, ops);
    let (mut transfers, mut fair_ns) = (0u64, 0u64);
    for concurrency in [1, 2, 4] {
        let (done, ns) = recorder.time("micro.link.fair", || {
            surface::link_fair_transfers(40_000 / scale, concurrency)
        });
        transfers += done;
        fair_ns += ns;
    }
    let decisions = 200_000 / scale;
    let (_, ns) = recorder.time("micro.core.decide", || surface::pam_decide(decisions));
    let decide_ns = per_op(ns, decisions);

    let mut out = Metrics::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    let all = recorder.spans();
    let injected: f64 = records.iter().map(|r| r.totals.injected as f64).sum();
    let events: f64 = records.iter().map(|r| r.details.events as f64).sum();

    // Window spans.
    for (layer, name) in [("runtime", "runtime.window"), ("fleet", "fleet.window")] {
        let sorted = durations_us(all, name);
        put(
            &format!("{layer}.window_p50_us"),
            stats::percentile(&sorted, 0.5),
        );
        put(
            &format!("{layer}.window_p99_us"),
            stats::percentile(&sorted, 0.99),
        );
        if layer == "fleet" {
            put("fleet.window_max_us", sorted.last().copied().unwrap_or(0.0));
        }
    }
    let windows: Vec<&Span> = all.iter().filter(|s| s.name.ends_with(".window")).collect();
    let mut every: Vec<f64> = windows
        .iter()
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    every.sort_by(f64::total_cmp);
    let migrating: Vec<f64> = windows
        .iter()
        .filter(|s| s.counts.iter().any(|&(k, v)| k == "migrations" && v > 0))
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    put(
        "runtime.migrate_host_us",
        if migrating.is_empty() {
            0.0
        } else {
            let mean = migrating.iter().sum::<f64>() / migrating.len() as f64;
            mean - stats::percentile(&every, 0.5)
        },
    );
    put(
        "telemetry.report_us",
        spans::total_s(all, "report.capture") * 1e6,
    );
    put(
        "experiments.json_us",
        spans::total_s(all, "report.json") * 1e6,
    );

    let run_allocs = records.iter().fold((0, 0), |sum, r| {
        (sum.0 + r.run_allocs.0, sum.1 + r.run_allocs.1)
    });
    let setup_allocs: u64 = records.iter().map(|r| r.setup_allocs.0).sum();
    put("alloc.setup_count", setup_allocs as f64);
    put("alloc.run_count", run_allocs.0 as f64);
    put("alloc.run_bytes", run_allocs.1 as f64);
    put("alloc.per_kpkt", ratio(run_allocs.0 as f64 * 1e3, injected));

    let traffic: Vec<&Replayed> = by_traffic.values().collect();
    let packets: f64 = traffic.iter().map(|r| r.packets as f64 * r.uses).sum();
    let synth_s: f64 = traffic.iter().map(|r| r.synth_s * r.uses).sum();
    put("traffic.pkts", packets);
    put(
        "traffic.bytes",
        traffic.iter().map(|r| r.bytes as f64 * r.uses).sum(),
    );
    put("traffic.synth_s", synth_s);
    put("traffic.synth_ns_per_pkt", ratio(synth_s * 1e9, packets));
    put(
        "traffic.setup_s",
        traffic.iter().map(|r| r.source_setup_s * r.uses).sum(),
    );

    let datapaths: Vec<&Replayed> = by_datapath.values().collect();
    // Seconds of one replayed layer over every cell.
    let weighted = |field: &dyn Fn(&Replayed) -> f64| -> f64 {
        datapaths.iter().map(|r| field(r) * r.uses).sum()
    };
    let frames: f64 = datapaths.iter().map(|r| r.frames as f64 * r.uses).sum();
    put(
        "traffic.distinct_flows",
        datapaths.iter().map(|r| r.distinct_flows as f64).sum(),
    );
    put(
        "wire.build_ns_per_pkt",
        ratio(weighted(&|r| r.wire_s) * 1e9, frames),
    );
    for (position, stem) in CHAIN_NFS.iter().enumerate() {
        put(
            &format!("nf.{stem}_ns_per_pkt"),
            ratio(weighted(&|r| r.nf_s[position]) * 1e9, frames),
        );
    }
    let datapath_s = weighted(&|r| r.datapath_s);
    put("runtime.datapath_s", datapath_s);
    put(
        "runtime.datapath_ns_per_pkt",
        ratio(datapath_s * 1e9, frames),
    );
    for (kind, name) in ESTIMATOR_KINDS.iter().enumerate() {
        put(
            &format!("fleet.estimator_{name}_ns"),
            ratio(weighted(&|r| r.estimator_s[kind]) * 1e9, frames),
        );
    }
    put(
        "nf.state_bytes",
        datapaths.iter().map(|r| r.state_bytes as f64).sum(),
    );
    put(
        "nf.export_us",
        datapaths.iter().map(|r| r.export_s).sum::<f64>() * 1e6,
    );
    put(
        "nf.import_us",
        datapaths.iter().map(|r| r.import_s).sum::<f64>() * 1e6,
    );

    // What the run spent that no replayed layer accounts for. Each cell is
    // charged the estimator its own controller runs.
    let mut estimator_s = 0.0;
    for spec in specs.iter() {
        let Some(replayed) = by_datapath.get(&(spec.traffic_key.as_str(), spec.batch)) else {
            continue;
        };
        for kind in 0..ESTIMATOR_KINDS.len() {
            if surface::cell_uses_estimator(spec, kind) {
                estimator_s += replayed.estimator_s[kind];
            }
        }
    }
    let run_s = spans::total_s(all, "run");
    let residual_s = run_s - (synth_s + datapath_s + estimator_s);
    let fleet_runs = specs.iter().any(CellSpec::is_fleet);
    let resolved = if fleet_runs {
        residual_s >= 0.0
    } else {
        residual_s.abs() <= 0.15 * run_s
    };
    put("fleet.residual_s", residual_s);
    put("trace.attribution_resolved", f64::from(u8::from(resolved)));

    put("sim.queue_hold_ns", hold_ns);
    put("sim.queue_s", hold_ns * events / 1e9);
    put("link.fifo_ns_per_burst", fifo_ns);
    put("link.fair_ns_per_xfer", per_op(fair_ns, transfers));
    put("core.decide_ns", decide_ns);

    // The model against the repository's one reference result.
    let (figure2, _) = recorder.time("model.figure2", || surface::figure2(quick));
    put("model.fig2_original_mean_us", figure2.original_mean_us);
    put("model.fig2_naive_mean_us", figure2.naive_mean_us);
    put("model.fig2_pam_mean_us", figure2.pam_mean_us);
    put("model.fig2_pam_gbps", figure2.pam_gbps);
    put("model.fig2_naive_gbps", figure2.naive_gbps);
    put("model.fig2_reduction_pct", figure2.reduction_pct);
    put("model.fig2_err_pp", (figure2.reduction_pct - 18.0).abs());

    put("trace.spans", recorder.spans().len() as f64);
    // Filled in by the driver, which has the untraced runs to compare with.
    put("trace.overhead_pct", 0.0);
    put("shard.speedup_vs_seq", 0.0);
    Ok(out)
}
