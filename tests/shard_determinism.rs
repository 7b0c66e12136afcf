//! The fleet runner on many lanes against the same runner on one lane, end
//! to end through the `pam` facade: same scenario, same seeds, any lane
//! count — the report JSON, the simulator event count and the decision
//! outcome must match byte for byte. The in-crate suites pin the mechanism
//! (window plans, lookahead safety, per-server submission order against the
//! per-event reference runner); this wall pins the product.

use pam::core::StrategyKind;
use pam::experiments::fleet::{FleetScenario, FleetScenarioKind};

mod support;
use support::run_lanes;

/// Runs the `kind` scenario under PAM at every fleet size of
/// `server_counts`, on one lane and on each lane count of `lanes`: every
/// N-lane run must reproduce the one-lane report JSON and event count, and
/// its lanes must have submitted packets (the windowed path ran).
fn assert_lane_independent(kind: FleetScenarioKind, server_counts: &[usize], lanes: &[usize]) {
    for &servers in server_counts {
        let scenario = FleetScenario::new(kind, servers);
        let (one_json, one_events, _) = run_lanes(&scenario, StrategyKind::Pam, 1);
        for &n in lanes {
            let (json, events, lane_packets) = run_lanes(&scenario, StrategyKind::Pam, n);
            // Not `assert_eq!`: a 256-server report is too long to print.
            assert!(
                json == one_json,
                "{servers}-server {kind}: report diverged at {n} lanes"
            );
            assert_eq!(
                events, one_events,
                "{servers}-server {kind}: event count diverged at {n} lanes"
            );
            assert!(
                lane_packets > 0,
                "{servers}-server {kind}: {n} lanes submitted no packets"
            );
        }
    }
}

#[test]
fn every_scenario_is_byte_identical_under_sharding() {
    for kind in FleetScenarioKind::ALL {
        assert_lane_independent(kind, &[2], &[2]);
    }
}

#[test]
fn the_shard_count_never_changes_the_report() {
    assert_lane_independent(FleetScenarioKind::RollingHotspot, &[3], &[2, 8]);
}

#[test]
fn non_pam_strategies_shard_identically_too() {
    let scenario = FleetScenario::new(FleetScenarioKind::FlashCrowd, 2);
    let one_lane = scenario
        .run(StrategyKind::NaiveBottleneck)
        .expect("one-lane run");
    let (two_lanes, _, _) = run_lanes(&scenario, StrategyKind::NaiveBottleneck, 2);
    assert_eq!(
        serde_json::to_string(&one_lane).expect("serializes"),
        two_lanes
    );
}

/// The fleet-scale determinism wall CI's `shard-determinism` job runs in
/// release: 64 servers on 2 and 4 lanes against one lane. The diurnal
/// wave's horizon does not depend on the fleet size, so events grow with
/// servers, and its spill-free steady state leaves every server an
/// independent lane group.
#[test]
#[ignore = "fleet scale; run in release: cargo test --release --test shard_determinism -- --ignored"]
fn diurnal_wave_64_servers_is_lane_independent() {
    assert_lane_independent(FleetScenarioKind::DiurnalWave, &[64], &[2, 4]);
}

/// The nightly deep sweep: 128 and 256 servers on 2, 4 and 8 lanes.
#[test]
#[ignore = "fleet scale; run in release: cargo test --release --test shard_determinism -- --ignored"]
fn diurnal_wave_128_and_256_servers_is_lane_independent() {
    assert_lane_independent(FleetScenarioKind::DiurnalWave, &[128, 256], &[2, 4, 8]);
}
