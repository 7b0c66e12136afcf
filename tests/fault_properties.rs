//! Property tests of the fault-injection subsystem.
//!
//! Random seeded fault schedules ([`pam::sim::FaultPlan::generate`]) over
//! random mini-fleets, three invariants:
//!
//! 1. **zero loss / no duplicate apply** — after a drain margin, every
//!    server's `injected == delivered + drops` exactly, and the faulted
//!    run's `injected + fault_drops` equals the fault-free reference's
//!    injected count (arrivals are seeded and fault-independent: each one is
//!    either submitted or black-holed, never silently gone and never
//!    double-counted);
//! 2. **lane-count byte-identity under faults** — the faulted run's report
//!    is byte-identical whether the fleet ran on one lane or several (fault
//!    events are window barriers);
//! 3. **replay determinism** — the same `(scenario, plan)` pair replays to
//!    byte-identical JSON.
//!
//! The full randomised suites are `#[ignore]`d out of the tier-1
//! `cargo test -q` path and run by CI's fault jobs (nightly deep sweep at
//! `PROPTEST_CASES=4096`); a deterministic smoke case of each property
//! stays in the default path.

use pam::core::StrategyKind;
use pam::experiments::fleet::{FleetScenario, FleetScenarioKind};
use pam::fleet::FleetReport;
use pam::sim::{FaultPlan, FaultPlanConfig};
use pam::types::SimDuration;
use proptest::prelude::*;

/// Drain margin past the traffic horizon so conservation is exact.
const DRAIN: SimDuration = SimDuration::from_millis(4);

/// The scenario of case `kind_index`, sized and seeded by the case.
fn scenario_for(kind_index: usize, servers: usize, seed: u64) -> FleetScenario {
    let kind = FleetScenarioKind::ALL[kind_index % FleetScenarioKind::ALL.len()];
    let mut scenario = FleetScenario::new(kind, servers);
    scenario.seed = seed;
    scenario
}

/// A generated fault plan fitting the scenario's traffic horizon.
fn plan_for(scenario: &FleetScenario, fault_seed: u64) -> FaultPlan {
    let horizon = scenario.schedule_for(0).total_duration();
    let config = FaultPlanConfig {
        crashes: 2,
        flaps: 3,
        swings: 2,
        ..FaultPlanConfig::default()
    };
    let plan = FaultPlan::generate(fault_seed, scenario.servers, horizon, &config);
    assert!(
        plan.validate(scenario.servers).is_ok(),
        "generated plans always validate"
    );
    plan
}

/// Runs `scenario` under `plan` to the drained horizon on `lanes` lanes and
/// returns the report.
fn faulted_run(scenario: &FleetScenario, plan: &FaultPlan, lanes: usize) -> FleetReport {
    let mut fleet = scenario
        .build_fleet(StrategyKind::Pam)
        .expect("scenario builds");
    fleet
        .set_fault_plan(plan.clone())
        .expect("generated plans install");
    fleet.run_sharded(scenario.horizon() + DRAIN, lanes);
    fleet.report()
}

/// Asserts invariant 1 (zero loss / no duplicate apply) on a faulted run
/// against its fault-free reference.
fn assert_conservation(scenario: &FleetScenario, faulted: &FleetReport, context: &str) {
    let mut reference = scenario
        .build_fleet(StrategyKind::Pam)
        .expect("scenario builds");
    reference.run(scenario.horizon() + DRAIN);
    let reference = reference.report();
    assert_eq!(
        faulted.totals.injected + faulted.totals.fault_drops,
        reference.totals.injected,
        "{context}: offered load not conserved"
    );
    for server in &faulted.servers {
        assert_eq!(
            server.injected,
            server.delivered + server.drops_overload + server.drops_policy + server.drops_migration,
            "{context}: server {} lost or duplicated packets",
            server.server
        );
    }
    // Eventual drain: with the margin past the horizon nothing is in
    // flight, so the fleet totals close exactly too.
    assert_eq!(
        faulted.totals.injected,
        faulted.totals.delivered
            + faulted.totals.drops_overload
            + faulted.totals.drops_policy
            + faulted.totals.drops_migration,
        "{context}: fleet totals did not drain"
    );
}

/// One full case: conservation, shard byte-identity and replay determinism.
fn check_case(kind_index: usize, servers: usize, seed: u64, fault_seed: u64, shards: usize) {
    let scenario = scenario_for(kind_index, servers, seed);
    let plan = plan_for(&scenario, fault_seed);
    let context = format!(
        "{} servers={servers} seed={seed} faults={} fault_seed={fault_seed} shards={shards}",
        scenario.kind,
        plan.len()
    );
    let one_lane = faulted_run(&scenario, &plan, 1);
    assert_conservation(&scenario, &one_lane, &context);
    let one_lane_json = serde_json::to_string(&one_lane).expect("report serializes");
    let sharded = faulted_run(&scenario, &plan, shards);
    assert_eq!(
        one_lane_json,
        serde_json::to_string(&sharded).expect("report serializes"),
        "{context}: {shards}-lane faulted run diverged from the one-lane run"
    );
    let replay = faulted_run(&scenario, &plan, 1);
    assert_eq!(
        one_lane_json,
        serde_json::to_string(&replay).expect("report serializes"),
        "{context}: identical faulted runs diverged"
    );
}

proptest! {
    /// The randomised suite (CI's fault jobs; the nightly deep sweep runs it
    /// at PROPTEST_CASES=4096).
    #[test]
    #[ignore = "randomised suite: run via `cargo test -- --ignored` (CI fault jobs)"]
    fn random_fault_schedules_conserve_and_shard_deterministically(
        kind_index in 0usize..4,
        servers in 2usize..5,
        seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
        shards in 2usize..5,
    ) {
        check_case(kind_index, servers, seed, fault_seed, shards);
    }
}

/// Deterministic smoke case of every property (tier-1 path): one case per
/// traffic shape, crossing shard counts.
#[test]
fn fault_smoke_conserves_and_shards_deterministically() {
    check_case(0, 2, 2018, 7, 2);
    check_case(3, 4, 2018, 21, 3);
}

/// A plan whose crashes never recover still conserves: everything the dead
/// servers would have admitted is either re-steered to survivors or counted
/// as a fault drop — never lost.
#[test]
fn unrecovered_crashes_still_conserve() {
    use pam::sim::FaultKind;
    let scenario = scenario_for(1, 3, 2018);
    let generated = plan_for(&scenario, 99);
    let crash_only = FaultPlan::new(
        generated
            .events()
            .iter()
            .copied()
            .filter(|event| !matches!(event.kind, FaultKind::ServerRecover { .. }))
            .collect(),
    );
    let report = faulted_run(&scenario, &crash_only, 1);
    assert_conservation(&scenario, &report, "crash-only");
}
