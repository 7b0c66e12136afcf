//! Harness tests: `BENCHMARK.json`, the README glossary and the binary's
//! output all agree with `catalog.rs`, and a `--quick` smoke (horizons / 20)
//! exercises all five workloads, timed and traced.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use pam_perf_ledger::catalog::{self, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .as_object()
        .and_then(|map| map.get(key))
        .unwrap_or_else(|| panic!("missing key `{key}`"))
}

fn keys(value: &Value) -> BTreeSet<String> {
    value
        .as_object()
        .expect("an object")
        .iter()
        .map(|(key, _)| key.clone())
        .collect()
}

fn number(value: &Value) -> f64 {
    match value {
        Value::Number(n) => n.as_f64(),
        other => panic!("not a number: {other:?}"),
    }
}

fn manifest() -> Value {
    let path = bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_names_exactly_the_catalog() {
    let manifest = manifest();
    assert_eq!(
        keys(&manifest),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
        .map(String::from)
        .into()
    );
    assert_eq!(
        field(&manifest, "paths"),
        &serde_json::json!(["bench"]),
        "the benchmark lives under bench/ and nowhere else"
    );
    let command: Vec<&str> = field(&manifest, "command")
        .as_array()
        .unwrap()
        .iter()
        .map(|part| part.as_str().unwrap())
        .collect();
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"bench/Cargo.toml") && command.contains(&"--offline"));
    let run_seconds = number(field(&manifest, "run_seconds"));
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);

    let workloads = field(&manifest, "workloads").as_array().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (listed, ours) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(listed), ["name", "why"].map(String::from).into());
        assert_eq!(field(listed, "name").as_str(), Some(ours.name));
        assert_eq!(field(listed, "why").as_str(), Some(ours.why));
    }

    let check = |key: &str, ours: &[Metric], with_bound: bool| {
        let listed = field(&manifest, key).as_array().unwrap();
        assert_eq!(listed.len(), ours.len(), "{key}");
        for (listed, ours) in listed.iter().zip(ours) {
            assert_eq!(field(listed, "name").as_str(), Some(ours.name));
            assert_eq!(
                field(listed, "unit").as_str(),
                Some(ours.unit),
                "{}",
                ours.name
            );
            assert_eq!(
                field(listed, "better").as_str(),
                Some(ours.better.label()),
                "{}",
                ours.name
            );
            if with_bound {
                assert_eq!(keys(listed).len(), 4, "{}", ours.name);
                assert_eq!(
                    number(field(listed, "bound")),
                    ours.bound.unwrap(),
                    "{}",
                    ours.name
                );
            } else {
                assert_eq!(keys(listed).len(), 3, "{}", ours.name);
            }
        }
    };
    check("end_to_end", &END_TO_END, true);
    check("per_layer", &PER_LAYER, false);
}

#[test]
fn readme_embeds_the_generated_glossary() {
    let readme = std::fs::read_to_string(bench_dir().join("README.md")).expect("bench/README.md");
    assert!(
        readme.contains(&catalog::glossary()),
        "bench/README.md is stale: paste the output of `bench glossary` into its glossary section"
    );
    for workload in &WORKLOADS {
        assert!(readme.contains(workload.why), "{}", workload.name);
        assert!(readme.contains(workload.isolates), "{}", workload.name);
    }
}

/// One contract run of the built binary, `--quick`; returns its last line.
fn contract(workload: &str, traced: bool, out: &Path) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.1"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--quick")
        .arg("--out")
        .arg(out)
        .output()
        .expect("the bench binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} traced={traced}: {}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    serde_json::from_str(stdout.lines().last().expect("a last line")).expect("the result parses")
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    dir
}

fn assert_emits(result: &Value, expected: &[Metric], what: &str) {
    assert_eq!(
        keys(result),
        ["correct", "attempted", "failed", "metrics"]
            .map(String::from)
            .into(),
        "{what}"
    );
    assert_eq!(field(result, "correct"), &Value::Bool(true), "{what}");
    assert_eq!(number(field(result, "failed")), 0.0, "{what}");
    assert!(number(field(result, "attempted")) >= 1.0, "{what}");
    let metrics = field(result, "metrics");
    assert_eq!(
        keys(metrics),
        expected.iter().map(|m| m.name.to_string()).collect(),
        "{what}: exactly the named metrics, nothing else"
    );
    for metric in expected {
        let entry = field(metrics, metric.name);
        assert_eq!(keys(entry), ["value", "unit"].map(String::from).into());
        assert_eq!(field(entry, "unit").as_str(), Some(metric.unit), "{what}");
        assert!(number(field(entry, "value")).is_finite(), "{what}");
    }
}

#[test]
fn quick_timed_runs_emit_every_end_to_end_metric_on_every_workload() {
    let out = out_dir("timed");
    for workload in &WORKLOADS {
        let result = contract(workload.name, false, &out);
        assert_emits(&result, &END_TO_END, workload.name);
        // Three children at least, each simulating every cell.
        assert!(
            number(field(&result, "attempted")) >= 3.0,
            "{}",
            workload.name
        );
        for metric in &END_TO_END {
            let value = number(field(
                field(field(&result, "metrics"), metric.name),
                "value",
            ));
            assert!(value > 0.0, "{} {} is never 0", workload.name, metric.name);
        }
    }
}

#[test]
fn quick_traced_runs_emit_every_per_layer_metric_and_write_their_spans() {
    let out = out_dir("traced");
    for workload in &WORKLOADS {
        let result = contract(workload.name, true, &out);
        assert_emits(&result, &PER_LAYER, workload.name);
        let metrics = field(&result, "metrics");
        let value = |name: &str| number(field(field(metrics, name), "value"));
        assert!(value("traffic.pkts") > 0.0 && value("sim.events") > 0.0);
        assert!(value("trace.spans") > 0.0 && value("runtime.datapath_s") > 0.0);
        assert_eq!(
            workload.name == "fleet64_shard2",
            value("shard.speedup_vs_seq") > 0.0,
            "{}: only the sharded workload has a sequential twin",
            workload.name
        );

        let trace = out.join(format!("trace-{}.jsonl", workload.name));
        let text = std::fs::read_to_string(&trace).expect("the traced run wrote its spans");
        assert_eq!(text.lines().count() as f64, value("trace.spans"));
        let names: BTreeSet<String> = text
            .lines()
            .map(|line| {
                let span: Value = serde_json::from_str(line).expect("a span parses");
                field(&span, "name").as_str().unwrap().to_string()
            })
            .collect();
        for expected in [
            "setup",
            "run",
            "report",
            "replay.traffic.synth",
            "replay.runtime.datapath",
        ] {
            assert!(
                names.contains(expected),
                "{}: no `{expected}` span",
                workload.name
            );
        }
        let window = if workload.name == "chain_sweep" {
            "runtime.window"
        } else {
            "fleet.window"
        };
        assert!(
            names.contains(window),
            "{}: no `{window}` span",
            workload.name
        );
    }
}

#[test]
fn a_bad_command_line_is_refused_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "matrix48", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "matrix48",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--frobnicate"][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .output()
            .expect("the bench binary runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
