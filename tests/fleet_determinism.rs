//! Replay determinism of the fleet layer: two identical fleet runs produce
//! byte-identical JSON reports, across every scenario in the matrix and
//! under both live-migration transfer modes.

use pam::core::StrategyKind;
use pam::experiments::fleet::{FleetScenario, FleetScenarioKind, FleetTuning};
use pam::runtime::MigrationMode;

fn report_json(
    kind: FleetScenarioKind,
    strategy: StrategyKind,
    servers: usize,
    mode: MigrationMode,
) -> String {
    let scenario =
        FleetScenario::new(kind, servers).with_tuning(FleetTuning::default().with_mode(mode));
    let report = scenario.run(strategy).expect("scenario runs");
    serde_json::to_string(&report).expect("report serializes")
}

#[test]
fn every_scenario_replays_byte_identically_under_pam() {
    for kind in FleetScenarioKind::ALL {
        let a = report_json(kind, StrategyKind::Pam, 2, MigrationMode::StopAndCopy);
        let b = report_json(kind, StrategyKind::Pam, 2, MigrationMode::StopAndCopy);
        assert_eq!(a, b, "{kind} diverged between identical runs");
    }
}

#[test]
fn every_scenario_replays_byte_identically_with_pre_copy() {
    for kind in FleetScenarioKind::ALL {
        let a = report_json(kind, StrategyKind::Pam, 2, MigrationMode::PreCopy);
        let b = report_json(kind, StrategyKind::Pam, 2, MigrationMode::PreCopy);
        assert_eq!(a, b, "{kind} diverged between identical pre-copy runs");
    }
}

#[test]
fn every_scenario_replays_byte_identically_with_a_batched_datapath() {
    for kind in FleetScenarioKind::ALL {
        let run = || {
            let scenario = FleetScenario::new(kind, 2).with_tuning(
                FleetTuning::default()
                    .with_mode(MigrationMode::PreCopy)
                    .with_batch(8),
            );
            let report = scenario.run(StrategyKind::Pam).expect("scenario runs");
            serde_json::to_string(&report).expect("report serializes")
        };
        assert_eq!(
            run(),
            run(),
            "{kind} diverged between identical batched runs"
        );
    }
}

#[test]
fn batched_pre_copy_runs_shard_byte_identically() {
    // The heavy configuration — pre-copy live migration on the coalesced
    // batch=8 datapath — on two lanes: exactly the bytes the one-lane run
    // produces.
    for kind in FleetScenarioKind::ALL {
        let scenario = FleetScenario::new(kind, 2).with_tuning(
            FleetTuning::default()
                .with_mode(MigrationMode::PreCopy)
                .with_batch(8),
        );
        let one_lane = scenario.run(StrategyKind::Pam).expect("scenario runs");
        let (two_lanes, _, _) = scenario
            .run_with_stats(StrategyKind::Pam, 2)
            .expect("two-lane scenario runs");
        assert_eq!(
            serde_json::to_string(&one_lane).expect("report serializes"),
            serde_json::to_string(&two_lanes).expect("report serializes"),
            "{kind} diverged between one and two lanes"
        );
    }
}

#[test]
fn batch_size_changes_the_report_but_batch_one_is_the_baseline() {
    let kind = FleetScenarioKind::RollingHotspot;
    let unbatched = FleetScenario::new(kind, 2);
    let baseline = serde_json::to_string(&unbatched.run(StrategyKind::Pam).unwrap()).unwrap();
    // batch=1 is the identity knob...
    let batch1 = unbatched.with_tuning(FleetTuning::default().with_batch(1));
    assert_eq!(
        baseline,
        serde_json::to_string(&batch1.run(StrategyKind::Pam).unwrap()).unwrap()
    );
    // ...and batch=8 is a genuinely different (but self-consistent) datapath.
    let batch8 = unbatched.with_tuning(FleetTuning::default().with_batch(8));
    assert_ne!(
        baseline,
        serde_json::to_string(&batch8.run(StrategyKind::Pam).unwrap()).unwrap()
    );
}

#[test]
fn migration_modes_produce_distinct_but_self_consistent_reports() {
    // The modes must actually change the metrics (blackout accounting), and
    // each must replay exactly.
    let kind = FleetScenarioKind::RollingHotspot;
    let stop = report_json(kind, StrategyKind::Pam, 2, MigrationMode::StopAndCopy);
    let pre = report_json(kind, StrategyKind::Pam, 2, MigrationMode::PreCopy);
    assert_ne!(stop, pre, "modes must not produce one report");
    assert_eq!(
        pre,
        report_json(kind, StrategyKind::Pam, 2, MigrationMode::PreCopy)
    );
}

#[test]
fn strategies_diverge_but_each_is_self_consistent() {
    let kind = FleetScenarioKind::RollingHotspot;
    let pam = report_json(kind, StrategyKind::Pam, 2, MigrationMode::StopAndCopy);
    let naive = report_json(
        kind,
        StrategyKind::NaiveBottleneck,
        2,
        MigrationMode::StopAndCopy,
    );
    assert_ne!(
        pam, naive,
        "different strategies must not produce one report"
    );
    assert_eq!(
        naive,
        report_json(
            kind,
            StrategyKind::NaiveBottleneck,
            2,
            MigrationMode::StopAndCopy
        )
    );
}

#[test]
fn fleet_size_changes_the_report_shape() {
    let kind = FleetScenarioKind::FlashCrowd;
    let two = report_json(kind, StrategyKind::Pam, 2, MigrationMode::PreCopy);
    let three = report_json(kind, StrategyKind::Pam, 3, MigrationMode::PreCopy);
    assert_ne!(two, three);
}
