//! The failure-scenario suite: deterministic fault injection under
//! invariant pins.
//!
//! Three scenarios exercise the fleet's crash/flap/recovery machinery end
//! to end, each gated by a [`FaultAudit`] that cross-checks the faulted run
//! against a fault-free reference run of the same seeded scenario:
//!
//! | Scenario | Faults | What it pins |
//! |----------|--------|--------------|
//! | `crash_during_precopy` | crash the server mid-pre-copy, recover later | the protocol's `TargetCrash` abort arc: the staged target is discarded, no acked flow state is lost, the migration counts as aborted |
//! | `link_flap_storm` | overlapping link flaps plus a capacity swing on every server, under fair-share contention | faults delay but never lose traffic; the restored link carries no phantom pre-flap watermark |
//! | `correlated_overload_recovery` | two servers crash while the whole fleet is slammed, then recover | failover re-steers every flow to survivors (zero ingress black-holing) and recovery demonstrably restores service |
//!
//! The invariants (checked by [`FaultAudit::check`], violations are hard
//! errors in [`FaultScenario::run`]):
//!
//! 1. **offered-load conservation** — every arrival of the reference run is
//!    accounted for in the faulted run: `injected + fault_drops` equals the
//!    reference injection count exactly;
//! 2. **no lost acked state, no duplicate apply** — per server and
//!    fleet-wide, `injected == delivered + drops` exactly after the drain
//!    margin (a lost packet breaks `==` one way, a duplicated delivery the
//!    other);
//! 3. **bounded blackout** — total migration blackout stays within a fixed
//!    slack of the fault-free reference (faults may abort or defer
//!    migrations, never wedge one open);
//! 4. **eventual service after recovery** — the faulted run delivers
//!    strictly more than a control run whose recovery events are stripped,
//!    so coming back measurably matters;
//! 5. **scenario-specific pins** — `crash_during_precopy` must observe at
//!    least one `TargetCrash` abort, the storm must black-hole nothing, the
//!    correlated scenario must crash and recover both targeted servers.
//!
//! Every run is seeded and every fault is delivered through the fleet's
//! deterministic event queue, so a [`FaultCell`] is byte-identical at any
//! shard or job count — CI's fault matrix diffs `--shards 1/2/8` against
//! each other.

use pam_core::StrategyKind;
use pam_fleet::{Fleet, FleetReport};
use pam_runtime::MigrationMode;
use pam_sim::{FaultEvent, FaultKind, FaultPlan, LinkModel};
use pam_types::{PamError, Result, ServerId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::fleet::{FleetScenario, FleetScenarioKind, FleetTuning};

/// The three failure scenarios, in suite order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultScenarioKind {
    /// Crash a server while one of its pre-copy migrations is in flight,
    /// recover it a few milliseconds later.
    CrashDuringPrecopy,
    /// Overlapping link flaps and a capacity swing on every server, under
    /// fair-share link contention.
    LinkFlapStorm,
    /// Two servers crash while the whole fleet is slammed, then recover
    /// while the overload is still running.
    CorrelatedOverloadRecovery,
}

impl FaultScenarioKind {
    /// Every failure scenario, in suite order.
    pub const ALL: [FaultScenarioKind; 3] = [
        FaultScenarioKind::CrashDuringPrecopy,
        FaultScenarioKind::LinkFlapStorm,
        FaultScenarioKind::CorrelatedOverloadRecovery,
    ];

    /// The machine-readable name used in reports and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            FaultScenarioKind::CrashDuringPrecopy => "crash_during_precopy",
            FaultScenarioKind::LinkFlapStorm => "link_flap_storm",
            FaultScenarioKind::CorrelatedOverloadRecovery => "correlated_overload_recovery",
        }
    }

    /// Parses a scenario name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for FaultScenarioKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The scenario-specific pins a [`FaultAudit`] enforces on top of the
/// universal conservation/blackout invariants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultExpectations {
    /// Minimum `TargetCrash` protocol aborts the run must observe.
    pub min_target_crashes: u64,
    /// Minimum server crashes the run must record.
    pub min_crashes: u64,
    /// Minimum server recoveries the run must record.
    pub min_recoveries: u64,
    /// When true, the run must black-hole nothing at a dead ingress
    /// (failover re-steered every arrival to a survivor).
    pub zero_fault_drops: bool,
    /// Slack on the faulted run's total blackout over the reference, µs.
    pub blackout_slack_us: f64,
}

/// The invariant checker of one faulted run: cross-checks the faulted
/// report against the fault-free reference (and, when the plan recovers
/// anything, a recovery-stripped control run), collecting every violation
/// as a human-readable string. An unclean audit is a hard error in
/// [`FaultScenario::run`] — the failure scenarios are gates, not dashboards.
#[derive(Debug, Clone, Default)]
pub struct FaultAudit {
    violations: Vec<String>,
}

impl FaultAudit {
    /// Audits `faulted` against `reference` under `expect`.
    ///
    /// `target_crashes` is the fleet-wide sum of the runtimes'
    /// `TargetCrash` abort counters (a side channel, never part of the
    /// report). `control_delivered` is the delivered count of the
    /// recovery-stripped control run, when the plan has recoveries.
    pub fn check(
        faulted: &FleetReport,
        target_crashes: u64,
        reference: &FleetReport,
        control_delivered: Option<u64>,
        expect: &FaultExpectations,
    ) -> Self {
        let mut audit = FaultAudit::default();
        // 1. Offered-load conservation: arrivals are generated by the seeded
        //    traffic schedules, independent of faults, and every arrival is
        //    either submitted (injected) or black-holed at a dead ingress
        //    (fault_drops) — never silently gone.
        let offered = faulted.totals.injected + faulted.totals.fault_drops;
        if offered != reference.totals.injected {
            audit.flag(format!(
                "offered load not conserved: faulted injected {} + fault drops {} != reference injected {}",
                faulted.totals.injected, faulted.totals.fault_drops, reference.totals.injected
            ));
        }
        // 2. Exact per-server packet conservation after the drain margin: a
        //    lost acked packet breaks the equality one way, a duplicate
        //    apply breaks it the other.
        for (label, report) in [("faulted", faulted), ("reference", reference)] {
            for server in &report.servers {
                let accounted = server.delivered
                    + server.drops_overload
                    + server.drops_policy
                    + server.drops_migration;
                if server.injected != accounted {
                    audit.flag(format!(
                        "{label} server {}: injected {} != delivered+drops {}",
                        server.server, server.injected, accounted
                    ));
                }
            }
        }
        // 3. Bounded blackout: faults may abort or defer migrations but must
        //    never leave one wedged open.
        let bound = reference.totals.blackout_us + expect.blackout_slack_us;
        if faulted.totals.blackout_us > bound {
            audit.flag(format!(
                "blackout unbounded: faulted {:.1} µs > reference {:.1} µs + {:.1} µs slack",
                faulted.totals.blackout_us, reference.totals.blackout_us, expect.blackout_slack_us
            ));
        }
        // 4. Recovery restores service: strictly more delivered than the
        //    control run that never recovers.
        if let Some(control) = control_delivered {
            if faulted.totals.delivered <= control {
                audit.flag(format!(
                    "recovery did not restore service: faulted delivered {} <= no-recovery control {}",
                    faulted.totals.delivered, control
                ));
            }
        }
        // 5. Scenario-specific pins.
        if target_crashes < expect.min_target_crashes {
            audit.flag(format!(
                "expected >= {} TargetCrash abort(s), saw {}",
                expect.min_target_crashes, target_crashes
            ));
        }
        if faulted.totals.server_crashes < expect.min_crashes {
            audit.flag(format!(
                "expected >= {} server crash(es), saw {}",
                expect.min_crashes, faulted.totals.server_crashes
            ));
        }
        if faulted.totals.server_recoveries < expect.min_recoveries {
            audit.flag(format!(
                "expected >= {} server recover(ies), saw {}",
                expect.min_recoveries, faulted.totals.server_recoveries
            ));
        }
        if expect.zero_fault_drops && faulted.totals.fault_drops != 0 {
            audit.flag(format!(
                "failover should have re-steered every arrival, yet {} packet(s) were black-holed",
                faulted.totals.fault_drops
            ));
        }
        audit
    }

    fn flag(&mut self, violation: String) {
        self.violations.push(violation);
    }

    /// True when every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations, in check order (empty when clean).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// One audited failure-scenario run: the faulted run's headline counters
/// next to the fault-free reference. Everything here is deterministic —
/// byte-identical at any shard or job count — which is what CI's fault
/// matrix diffs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultCell {
    /// Scenario name (see [`FaultScenarioKind::name`]).
    pub scenario: String,
    /// Strategy name (see [`pam_core::MigrationStrategy::name`]).
    pub strategy: String,
    /// Fleet size the scenario ran at (scenarios clamp small fleets up to
    /// their minimum viable size).
    pub servers: usize,
    /// Scheduled fault events in the plan.
    pub faults: usize,
    /// Packets submitted fleet-wide in the faulted run.
    pub injected: u64,
    /// Packets delivered fleet-wide in the faulted run.
    pub delivered: u64,
    /// Packets black-holed at a crashed server's ingress.
    pub fault_drops: u64,
    /// Server crashes the fault plan landed.
    pub server_crashes: u64,
    /// Server recoveries completed behind the warm-up guard.
    pub server_recoveries: u64,
    /// Migrations rolled back before handover.
    pub aborted_migrations: u64,
    /// `TargetCrash` protocol aborts (staged pre-copy target discarded).
    pub target_crashes: u64,
    /// Total migration blackout of the faulted run, µs.
    pub blackout_us: f64,
    /// Fleet-wide p99 latency of the faulted run, µs.
    pub p99_us: f64,
    /// Packets re-steered away from their home server (failover shows up
    /// here).
    pub resteered_packets: u64,
    /// Packets injected by the fault-free reference run.
    pub reference_injected: u64,
    /// Packets delivered by the fault-free reference run.
    pub reference_delivered: u64,
    /// Total migration blackout of the reference run, µs.
    pub reference_blackout_us: f64,
    /// Packets delivered by the recovery-stripped control run (0 when the
    /// plan has no recoveries and no control run was needed).
    pub control_delivered: u64,
}

/// One concrete failure scenario: a seeded base [`FleetScenario`] plus the
/// fault plan aimed at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultScenario {
    /// Which failure scenario.
    pub kind: FaultScenarioKind,
    /// Fleet size (clamped up to the scenario's minimum viable size).
    pub servers: usize,
}

/// Drain margin past the traffic horizon, so every in-flight packet lands
/// before the conservation invariants are checked.
const DRAIN_MARGIN: SimDuration = SimDuration::from_millis(4);

/// How long a crashed server stays down in the crash scenarios.
const CRASH_DOWNTIME: SimDuration = SimDuration::from_millis(4);

impl FaultScenario {
    /// The scenario at (at least) `servers` servers: the crash scenarios
    /// need a survivor to fail over to, the correlated scenario crashes two
    /// servers and needs two survivors.
    pub fn new(kind: FaultScenarioKind, servers: usize) -> Self {
        let floor = match kind {
            FaultScenarioKind::CorrelatedOverloadRecovery => 4,
            _ => 2,
        };
        FaultScenario {
            kind,
            servers: servers.max(floor),
        }
    }

    /// The fault-free base scenario the faults are injected into.
    pub fn base(&self) -> FleetScenario {
        match self.kind {
            // Pre-copy must be staged for a target crash to have a target:
            // the rolling hotspot migrates early and often.
            FaultScenarioKind::CrashDuringPrecopy => {
                FleetScenario::new(FleetScenarioKind::RollingHotspot, self.servers)
                    .with_tuning(FleetTuning::default().with_mode(MigrationMode::PreCopy))
            }
            // Link faults bite hardest when transfers share the link.
            FaultScenarioKind::LinkFlapStorm => {
                FleetScenario::new(FleetScenarioKind::DiurnalWave, self.servers)
                    .with_tuning(FleetTuning::default().with_link_model(LinkModel::fair_share()))
            }
            FaultScenarioKind::CorrelatedOverloadRecovery => {
                FleetScenario::new(FleetScenarioKind::CorrelatedOverload, self.servers)
            }
        }
    }

    /// The run horizon: the base traffic horizon plus a drain margin, so
    /// the conservation audit sees every in-flight packet land.
    pub fn horizon(&self) -> SimTime {
        self.base().horizon() + DRAIN_MARGIN
    }

    /// The scenario's invariant pins.
    pub fn expectations(&self) -> FaultExpectations {
        let universal = FaultExpectations {
            min_target_crashes: 0,
            min_crashes: 0,
            min_recoveries: 0,
            zero_fault_drops: true,
            blackout_slack_us: 20_000.0,
        };
        match self.kind {
            FaultScenarioKind::CrashDuringPrecopy => FaultExpectations {
                min_target_crashes: 1,
                min_crashes: 1,
                min_recoveries: 1,
                ..universal
            },
            FaultScenarioKind::LinkFlapStorm => universal,
            FaultScenarioKind::CorrelatedOverloadRecovery => FaultExpectations {
                min_crashes: 2,
                min_recoveries: 2,
                ..universal
            },
        }
    }

    /// Builds the scenario's fault plan. For `crash_during_precopy` this
    /// runs a sequential probe of the fault-free fleet to find the first
    /// instant a pre-copy is in flight — the plan is data, so the faulted
    /// run (sharded or not) replays it byte-identically.
    pub fn plan(&self, strategy: StrategyKind) -> Result<FaultPlan> {
        match self.kind {
            FaultScenarioKind::CrashDuringPrecopy => {
                let (crash_at, server) = precopy_instant(&self.base(), strategy, self.horizon())?;
                Ok(FaultPlan::new(vec![
                    FaultEvent {
                        at: crash_at,
                        kind: FaultKind::ServerCrash { server },
                    },
                    FaultEvent {
                        at: crash_at + CRASH_DOWNTIME,
                        kind: FaultKind::ServerRecover { server },
                    },
                ]))
            }
            // Two waves of overlapping flaps per server (the second flap of
            // each pair extends the first's outage) plus a capacity swing —
            // all inside the diurnal wave's 40 ms horizon.
            FaultScenarioKind::LinkFlapStorm => {
                let mut events = Vec::new();
                for index in 0..self.servers {
                    let server = ServerId::from(index);
                    let stagger = SimDuration::from_micros(500) * index as u64;
                    for wave_ms in [3u64, 12] {
                        let at = SimTime::from_millis(wave_ms) + stagger;
                        events.push(FaultEvent {
                            at,
                            kind: FaultKind::LinkFlap {
                                server,
                                down_for: SimDuration::from_micros(700),
                            },
                        });
                        events.push(FaultEvent {
                            at: at + SimDuration::from_micros(300),
                            kind: FaultKind::LinkFlap {
                                server,
                                down_for: SimDuration::from_micros(900),
                            },
                        });
                    }
                    events.push(FaultEvent {
                        at: SimTime::from_millis(20) + stagger,
                        kind: FaultKind::CapacitySwing {
                            server,
                            factor: 0.4,
                            period: SimDuration::from_millis(2),
                        },
                    });
                }
                Ok(FaultPlan::new(events))
            }
            // Servers 0 and 1 die two milliseconds into the fleet-wide
            // overload (which runs 8–24 ms) and come back while it is still
            // on, so recovery has to prove itself under pressure.
            FaultScenarioKind::CorrelatedOverloadRecovery => {
                let mut events = Vec::new();
                for index in 0..2usize {
                    let server = ServerId::from(index);
                    events.push(FaultEvent {
                        at: SimTime::from_millis(10),
                        kind: FaultKind::ServerCrash { server },
                    });
                    events.push(FaultEvent {
                        at: SimTime::from_millis(18),
                        kind: FaultKind::ServerRecover { server },
                    });
                }
                Ok(FaultPlan::new(events))
            }
        }
    }

    /// Runs the scenario end to end: fault-free reference, faulted run on
    /// `shards` lanes, recovery-stripped control (when the plan recovers
    /// anything), then the [`FaultAudit`]. An audit violation is a hard
    /// error.
    pub fn run(&self, strategy: StrategyKind, shards: usize) -> Result<FaultCell> {
        let base = self.base();
        let plan = self.plan(strategy)?;
        let horizon = self.horizon();

        let mut reference = base.build_fleet(strategy)?;
        reference.run(horizon);
        let reference_report = reference.report();

        let mut faulted = base.build_fleet(strategy)?;
        faulted.set_fault_plan(plan.clone())?;
        faulted.run_sharded(horizon, shards);
        let report = faulted.report();
        let target_crashes = total_target_crashes(&faulted);

        let has_recovery = plan
            .events()
            .iter()
            .any(|event| matches!(event.kind, FaultKind::ServerRecover { .. }));
        let control_delivered = if has_recovery {
            let stripped = FaultPlan::new(
                plan.events()
                    .iter()
                    .copied()
                    .filter(|event| !matches!(event.kind, FaultKind::ServerRecover { .. }))
                    .collect(),
            );
            let mut control = base.build_fleet(strategy)?;
            control.set_fault_plan(stripped)?;
            control.run(horizon);
            Some(control.report().totals.delivered)
        } else {
            None
        };

        let audit = FaultAudit::check(
            &report,
            target_crashes,
            &reference_report,
            control_delivered,
            &self.expectations(),
        );
        if !audit.is_clean() {
            return Err(PamError::InvalidState(format!(
                "fault audit failed for {}: {}",
                self.kind,
                audit.violations().join("; ")
            )));
        }

        Ok(FaultCell {
            scenario: self.kind.name().to_string(),
            strategy: strategy.build().name().to_string(),
            servers: self.servers,
            faults: plan.len(),
            injected: report.totals.injected,
            delivered: report.totals.delivered,
            fault_drops: report.totals.fault_drops,
            server_crashes: report.totals.server_crashes,
            server_recoveries: report.totals.server_recoveries,
            aborted_migrations: report.totals.aborted_migrations,
            target_crashes,
            blackout_us: report.totals.blackout_us,
            p99_us: report.totals.p99_us,
            resteered_packets: report.totals.resteered_packets,
            reference_injected: reference_report.totals.injected,
            reference_delivered: reference_report.totals.delivered,
            reference_blackout_us: reference_report.totals.blackout_us,
            control_delivered: control_delivered.unwrap_or(0),
        })
    }
}

/// Sums the fleet's `TargetCrash` abort counters (a runtime side channel,
/// deliberately outside [`FleetReport`]).
fn total_target_crashes(fleet: &Fleet) -> u64 {
    fleet
        .servers()
        .iter()
        .map(|server| server.runtime().target_crashes())
        .sum()
}

/// Probes the fault-free fleet sequentially in 5 µs steps for the first
/// instant a pre-copy migration is in flight on some server, and returns a
/// crash instant pinned 1 µs after it.
///
/// The +1 µs matters: fault events are scheduled before arrivals and
/// control ticks, so a fault at the probe instant itself would sort *ahead*
/// of the equal-time control tick that starts the migration and find
/// nothing staged yet. The probe re-checks that the pre-copy is still in
/// flight at the pinned crash instant before accepting it.
fn precopy_instant(
    base: &FleetScenario,
    strategy: StrategyKind,
    horizon: SimTime,
) -> Result<(SimTime, ServerId)> {
    let mut probe = base.build_fleet(strategy)?;
    let step = SimDuration::from_micros(5);
    let mut at = SimTime::ZERO;
    while at < horizon {
        at += step;
        probe.run(at);
        let staged = probe
            .servers()
            .iter()
            .position(|server| server.runtime().pre_copy_in_progress());
        if let Some(index) = staged {
            let crash_at = at + SimDuration::from_micros(1);
            probe.run(crash_at);
            if probe.servers()[index].runtime().pre_copy_in_progress() {
                return Ok((crash_at, ServerId::from(index)));
            }
        }
    }
    Err(PamError::InvalidState(format!(
        "no in-flight pre-copy found probing {} up to {horizon}",
        base.kind
    )))
}

/// Runs every failure scenario under PAM at (at least) `servers` servers,
/// each faulted run on `shards` lanes. Any invariant violation is an error.
pub fn run_fault_scenarios(servers: usize, shards: usize) -> Result<Vec<FaultCell>> {
    FaultScenarioKind::ALL
        .into_iter()
        .map(|kind| FaultScenario::new(kind, servers).run(StrategyKind::Pam, shards))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_round_trip() {
        for kind in FaultScenarioKind::ALL {
            assert_eq!(FaultScenarioKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(FaultScenarioKind::from_name("nope"), None);
    }

    #[test]
    fn scenarios_clamp_to_their_minimum_fleet_size() {
        assert_eq!(
            FaultScenario::new(FaultScenarioKind::CrashDuringPrecopy, 1).servers,
            2
        );
        assert_eq!(
            FaultScenario::new(FaultScenarioKind::CorrelatedOverloadRecovery, 2).servers,
            4
        );
        assert_eq!(
            FaultScenario::new(FaultScenarioKind::LinkFlapStorm, 3).servers,
            3
        );
    }

    /// The PR's acceptance criterion: the crash lands while a pre-copy is
    /// staged, drives the protocol's `TargetCrash` abort arc, loses no
    /// acked state (the audit's exact conservation pin) and keeps the
    /// blackout bounded — all asserted inside `run`.
    #[test]
    fn crash_during_precopy_exercises_the_target_crash_abort() {
        let cell = FaultScenario::new(FaultScenarioKind::CrashDuringPrecopy, 2)
            .run(StrategyKind::Pam, 1)
            .unwrap();
        assert!(cell.target_crashes >= 1, "no TargetCrash abort observed");
        assert!(cell.aborted_migrations >= 1);
        assert_eq!(cell.server_crashes, 1);
        assert_eq!(cell.server_recoveries, 1);
        assert_eq!(cell.fault_drops, 0, "failover re-steers every arrival");
        assert_eq!(cell.injected, cell.reference_injected);
        assert!(
            cell.delivered > cell.control_delivered,
            "recovery must restore service over the no-recovery control"
        );
    }

    #[test]
    fn link_flap_storm_delays_but_never_loses_traffic() {
        let cell = FaultScenario::new(FaultScenarioKind::LinkFlapStorm, 2)
            .run(StrategyKind::Pam, 1)
            .unwrap();
        assert_eq!(cell.server_crashes, 0);
        assert_eq!(cell.fault_drops, 0);
        assert_eq!(cell.injected, cell.reference_injected);
        assert!(cell.faults >= 10, "two waves of paired flaps plus swings");
    }

    #[test]
    fn correlated_overload_recovery_fails_over_and_comes_back() {
        let cell = FaultScenario::new(FaultScenarioKind::CorrelatedOverloadRecovery, 4)
            .run(StrategyKind::Pam, 1)
            .unwrap();
        assert_eq!(cell.server_crashes, 2);
        assert_eq!(cell.server_recoveries, 2);
        assert_eq!(cell.fault_drops, 0, "survivors absorb the re-steered load");
        assert!(
            cell.resteered_packets > 0,
            "failover re-steering is visible"
        );
        assert!(
            cell.delivered > cell.control_delivered,
            "recovering mid-overload must beat staying down"
        );
    }

    /// The determinism pin behind CI's fault matrix: a faulted cell is
    /// byte-identical whether its fleet ran on one lane or three.
    #[test]
    fn fault_cells_are_byte_identical_across_shard_counts() {
        let scenario = FaultScenario::new(FaultScenarioKind::LinkFlapStorm, 3);
        let one_lane = scenario.run(StrategyKind::Pam, 1).unwrap();
        let three_lanes = scenario.run(StrategyKind::Pam, 3).unwrap();
        assert_eq!(
            serde_json::to_string(&one_lane).unwrap(),
            serde_json::to_string(&three_lanes).unwrap()
        );
    }

    #[test]
    fn audit_flags_broken_invariants() {
        let clean = FaultScenario::new(FaultScenarioKind::LinkFlapStorm, 2);
        let base = clean.base();
        let mut fleet = base.build_fleet(StrategyKind::Pam).unwrap();
        fleet.run(clean.horizon());
        let report = fleet.report();
        // Same report as faulted and reference, impossible expectations:
        // the pins must flag, conservation must not.
        let expect = FaultExpectations {
            min_target_crashes: 1,
            min_crashes: 3,
            min_recoveries: 3,
            zero_fault_drops: true,
            blackout_slack_us: 20_000.0,
        };
        let audit = FaultAudit::check(&report, 0, &report, Some(report.totals.delivered), &expect);
        assert!(!audit.is_clean());
        assert_eq!(
            audit.violations().len(),
            4,
            "TargetCrash, crashes, recoveries and the control-run pin: {:?}",
            audit.violations()
        );
        // And a clean check against itself with no expectations passes.
        let relaxed = FaultExpectations {
            min_target_crashes: 0,
            min_crashes: 0,
            min_recoveries: 0,
            zero_fault_drops: true,
            blackout_slack_us: 0.0,
        };
        assert!(FaultAudit::check(&report, 0, &report, None, &relaxed).is_clean());
    }
}
