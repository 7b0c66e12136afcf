//! Helpers shared by the fleet integration suites.

use pam::core::StrategyKind;
use pam::experiments::fleet::FleetScenario;

/// Runs `scenario` under `strategy` to its horizon on `lanes` lanes and
/// returns `(report JSON, events scheduled, packets the lanes submitted)` —
/// everything a one-lane vs N-lane comparison needs.
pub fn run_lanes(
    scenario: &FleetScenario,
    strategy: StrategyKind,
    lanes: usize,
) -> (String, u64, u64) {
    let mut fleet = scenario.build_fleet(strategy).expect("fleet builds");
    fleet.run_sharded(scenario.horizon(), lanes);
    let json = serde_json::to_string(&fleet.report()).expect("report serializes");
    let lane_packets = fleet
        .shard_stats()
        .lanes
        .iter()
        .map(|lane| lane.packets)
        .sum();
    (json, fleet.events_scheduled(), lane_packets)
}
