//! The fleet runner on many lanes against the same runner on one lane, end
//! to end through the `pam` facade: same scenario, same seeds, any lane
//! count — the report JSON, the simulator event count and the decision
//! outcome must match byte for byte. The in-crate suites pin the mechanism
//! (window plans, lookahead safety, per-server submission order against the
//! per-event reference runner); this wall pins the product.

use pam::core::StrategyKind;
use pam::experiments::fleet::{run_scale_curve, FleetScenario, FleetScenarioKind};

/// A run on `lanes` lanes: `(report JSON, events scheduled, lane packets)`.
fn run_on(kind: FleetScenarioKind, servers: usize, lanes: usize) -> (String, u64, u64) {
    let scenario = FleetScenario::new(kind, servers);
    let (report, events, stats) = scenario
        .run_with_stats(StrategyKind::Pam, lanes)
        .expect("scenario runs");
    let json = serde_json::to_string(&report).expect("report serializes");
    let lane_packets = stats.lanes.iter().map(|lane| lane.packets).sum();
    (json, events, lane_packets)
}

#[test]
fn every_scenario_is_byte_identical_under_sharding() {
    for kind in FleetScenarioKind::ALL {
        let (one_json, one_events, _) = run_on(kind, 2, 1);
        let (two_json, two_events, lane_packets) = run_on(kind, 2, 2);
        assert_eq!(one_json, two_json, "{kind} report diverged at 2 lanes");
        assert_eq!(
            one_events, two_events,
            "{kind} scheduled a different number of events on 2 lanes"
        );
        assert!(
            lane_packets > 0,
            "{kind} lanes submitted no packets — the windowed path did not run"
        );
    }
}

#[test]
fn the_shard_count_never_changes_the_report() {
    let kind = FleetScenarioKind::RollingHotspot;
    let (one_json, one_events, _) = run_on(kind, 3, 1);
    for lanes in [2, 8] {
        let (json, events, _) = run_on(kind, 3, lanes);
        assert_eq!(one_json, json, "report diverged at {lanes} lanes");
        assert_eq!(one_events, events, "event count diverged at {lanes} lanes");
    }
}

#[test]
fn non_pam_strategies_shard_identically_too() {
    let scenario = FleetScenario::new(FleetScenarioKind::FlashCrowd, 2);
    let one_lane = scenario
        .run(StrategyKind::NaiveBottleneck)
        .expect("one-lane run");
    let (two_lanes, _, _) = scenario
        .run_with_stats(StrategyKind::NaiveBottleneck, 2)
        .expect("two-lane run");
    assert_eq!(
        serde_json::to_string(&one_lane).expect("serializes"),
        serde_json::to_string(&two_lanes).expect("serializes"),
    );
}

#[test]
fn the_scale_curve_carries_its_own_determinism_check() {
    // `run_scale_curve` byte-compares every multi-lane point against the
    // one-lane reference and errors on divergence, so a successful return
    // IS the determinism assertion; the rest pins the curve's accounting.
    let points = run_scale_curve(&[2], &[1, 2]).expect("curve runs and matches");
    assert_eq!(points.len(), 2);
    assert_eq!(points[0].shards, 1);
    assert!((points[0].speedup - 1.0).abs() < f64::EPSILON);
    assert_eq!(points[1].shards, 2);
    assert_eq!(points[0].events, points[1].events);
    for point in &points {
        assert!(point.windows > 0);
        assert_eq!(point.lanes.len(), point.shards);
    }
}
