//! `fleet_bench` rejects inputs that would make the gate or the matrix
//! meaningless with a usage error, before any simulation runs.

use std::process::{Command, Output};

fn fleet_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fleet_bench"))
        .args(args)
        .output()
        .expect("fleet_bench starts")
}

/// Asserts that `args` fail with `message` on stderr, print the usage line
/// and leave stdout empty (no matrix ran, so no JSON was written).
fn assert_usage_error(args: &[&str], message: &str) {
    let output = fleet_bench(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{args:?} exited successfully");
    assert!(
        stderr.contains(message),
        "{args:?}: stderr lacks `{message}`:\n{stderr}"
    );
    assert!(
        stderr.contains("usage: fleet_bench"),
        "{args:?}: no usage line"
    );
    assert!(output.stdout.is_empty(), "{args:?} ran the matrix");
}

const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");

#[test]
fn a_nan_tolerance_is_rejected() {
    // Every comparison with NaN is false: the gate would pass any regression.
    assert_usage_error(
        &["--check", BASELINE, "--tolerance", "nan"],
        "--tolerance must be a finite, non-negative number",
    );
}

#[test]
fn an_infinite_or_negative_tolerance_is_rejected() {
    for tolerance in ["inf", "-inf", "-0.25"] {
        assert_usage_error(
            &["--check", BASELINE, "--tolerance", tolerance],
            "--tolerance must be a finite, non-negative number",
        );
    }
}

#[test]
fn an_empty_fleet_is_rejected() {
    assert_usage_error(&["--servers", "0"], "--servers must be at least 1");
}

#[test]
fn estimator_flows_without_the_estimator_ablation_is_rejected() {
    assert_usage_error(
        &["--estimator-flows", "1000"],
        "--estimator-flows needs --estimators",
    );
}

#[test]
fn faults_out_without_the_fault_scenarios_is_rejected() {
    assert_usage_error(
        &["--faults-out", "faults.json"],
        "--faults-out needs --faults",
    );
}

#[test]
fn the_wall_clock_flags_are_gone() {
    for args in [
        &["--timings", "timings.json"][..],
        &["--scale", "64"][..],
        &["--scale-shards", "1,2"][..],
        &["--scale-only"][..],
    ] {
        assert_usage_error(args, &format!("unknown flag `{}`", args[0]));
    }
}
