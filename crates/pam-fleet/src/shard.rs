//! The fleet's runner: conservative time-window execution on one lane or
//! many.
//!
//! [`Fleet::run_sharded`] runs a fleet with **conservative time-window
//! synchronisation**, spreading each window's data-plane work over up to
//! `shards` worker lanes; [`Fleet::run`] is the same runner on one lane. The
//! state it produces — report, counters, event totals — is the same at every
//! lane count. The design separates what must be ordered from what is
//! expensive:
//!
//! * **Sequencing stays sequential.** The fleet's own deterministic
//!   [`pam_sim::EventQueue`] carries home-arrival, control-tick and fault
//!   events, and arrival streams are pure per-server seeded traces — so the
//!   caller's thread pops the queue in its exact global `(time, seq)` order,
//!   parks each due packet's *draw* (tuple, size, send time; not the frame)
//!   on its home server and appends `(time, home)` to the window's order
//!   list. Every `schedule` call happens on this thread in pop order, so equal-time
//!   cross-server ties (common under CBR traffic) resolve the same way at
//!   every lane count and [`Fleet::events_scheduled`] matches to the event.
//! * **Execution parallelises.** The expensive work — building each frame,
//!   routing it through the steering table into a server's [`ChainRuntime`]
//!   (`drain_until` + `submit`) and draining every runtime to the window end
//!   — runs on worker lanes at each barrier.
//!
//! A **window** ends at every queue event that is not an arrival: a control
//! tick, a fault-plan event, or the end of a link flap or capacity swing.
//! The orchestrator only re-steers flows at those barriers, so the steering
//! table is frozen mid-window and a [`ShardPlan`] built from it is valid for
//! the whole window. Every active spill is a zero-lookahead channel (a
//! re-steered packet reaches its recipient at its original arrival instant),
//! so the plan merges spill-connected servers into one *group*, and every
//! group is dealt whole onto one lane; independent servers parallelise
//! freely. Each lane walks the window's order list and delivers the arrivals
//! whose home server it owns. At the barrier the caller's thread applies the
//! event (the control tick runs the decision ladder: scale-out handoffs over
//! the shared interconnect, scale-in, local migration) and the plan is
//! rebuilt for the next window.
//!
//! Determinism argument, per server runtime: the sequence of
//! `drain_until`/`submit` calls it observes is the same at every lane count,
//! and the same as under a per-event loop that delivers each arrival the
//! moment it pops (kept as the `#[cfg(test)]` reference runner every
//! byte-identity test compares against) — same packets, same times, same
//! relative order (a lane delivers its servers' subsequence of the global
//! pop order, and extra `drain_until` calls at window ends are idempotent
//! no-ops the control tick performs too). Runtimes are deterministic functions of
//! their call sequence, and all cross-server merges (steering counters,
//! per-tick byte loads) are order-independent `u64` sums, so the merged
//! report is byte-identical.
//!
//! Wall-clock measurements ([`ShardRunStats`]) are a side channel for the
//! perf ledger in `bench/` and never enter the gated report; this module is
//! the only workspace code allowed to touch `std::time::Instant` outside
//! `pam-bench` (enforced by `scripts/lint_determinism.sh`, which also pins
//! scoped threads to this module and the experiment harness's matrix
//! runner).
//!
//! [`ChainRuntime`]: pam_runtime::ChainRuntime

use std::time::Instant;

use pam_sim::{ShardChannel, ShardPlan};
use pam_types::{ServerId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::controller::{Fleet, FleetEvent};
use crate::health::NodeHealth;
use crate::node::FleetServer;
use crate::steering::{SteeringStats, SteeringTable};

/// Wall-clock and event counters for one worker lane across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardLane {
    /// Packets this lane submitted into its runtimes.
    pub packets: u64,
    /// Data-plane events its runtimes scheduled while this lane owned them.
    pub events: u64,
    /// Wall-clock time the lane spent executing windows.
    pub busy_ms: f64,
    /// Wall-clock time the lane waited at barriers for slower lanes
    /// (window wall time minus its own busy time, summed over windows).
    pub barrier_wait_ms: f64,
}

/// What the windowed runner did: a machine-dependent side channel, never
/// part of the gated report. The perf ledger in `bench/` reads it through
/// [`Fleet::shard_stats`] for its `shard.*` metrics (lane busy time, barrier
/// wait, imbalance). A one-lane run ([`Fleet::run`]) records one lane.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardRunStats {
    /// The largest lane count any run requested.
    pub shards: usize,
    /// Synchronisation windows executed (including partial final windows).
    pub windows: u64,
    /// Fewest independent groups seen in any window — the parallelism floor.
    pub groups_min: usize,
    /// Most independent groups seen in any window.
    pub groups_max: usize,
    /// Per-lane counters, indexed by lane; lanes beyond the group count of
    /// every window stay zero.
    pub lanes: Vec<ShardLane>,
}

/// Executes one lane's share of a window. `servers` is indexed by server id
/// and holds the servers this lane owns (`None` for the other lanes'). The
/// lane walks the window's `order` list, builds each of its arrivals from the
/// parked draw, routes it against the window-frozen steering table (packets
/// whose target is crashed are black-holed and never submitted), then drains
/// every runtime it owns to the window end (the barrier). Returns the lane's
/// steering tally, packets submitted, runtime events scheduled, fault drops
/// and busy wall-clock milliseconds.
fn run_lane(
    servers: &mut [Option<&mut FleetServer>],
    order: &[(SimTime, ServerId)],
    steering: &SteeringTable,
    health: &NodeHealth,
    end: SimTime,
) -> (SteeringStats, u64, u64, u64, f64) {
    let clock = Instant::now();
    let scheduled = |servers: &[Option<&mut FleetServer>]| -> u64 {
        servers
            .iter()
            .flatten()
            .map(|server| server.runtime().events_scheduled())
            .sum()
    };
    let before = scheduled(servers);
    let mut stats = SteeringStats::default();
    let mut packets = 0u64;
    let mut fault_drops = 0u64;
    for &(at, home) in order {
        let Some(home_server) = servers[home.index()].as_deref_mut() else {
            continue; // another lane's arrival
        };
        let Some(draw) = home_server.take_parked() else {
            unreachable!("the sequencer parked one draw per order entry");
        };
        let packet = draw.build();
        let target = steering.route_into(home, packet.flow_id(), &mut stats);
        if !health.is_alive(target) {
            // A crashed server black-holes its ingress: the packet is counted
            // and dropped before admission. (`crash_server` installs the
            // failover spill at the crash instant, so this only fires when
            // every candidate survivor is down too.)
            fault_drops += 1;
            continue;
        }
        let Some(server) = servers[target.index()].as_deref_mut() else {
            unreachable!("spill channels keep recipients on the home's lane");
        };
        server.note_arrival(packet.flow_id().raw(), packet.size());
        #[cfg(test)]
        server.log_submission(at, packet.flow_id().raw());
        let runtime = server.runtime_mut();
        runtime.drain_until(at);
        runtime.submit(at, packet);
        packets += 1;
    }
    for server in servers.iter_mut().flatten() {
        server.runtime_mut().drain_until(end);
    }
    let events = scheduled(servers) - before;
    let busy_ms = clock.elapsed().as_secs_f64() * 1e3;
    (stats, packets, events, fault_drops, busy_ms)
}

impl Fleet {
    /// Runs the fleet until `until`, executing each window's data-plane work
    /// on up to `shards` worker lanes (`0` counts as one). The state it
    /// produces is the same at any lane count; [`Fleet::run`] is one lane.
    /// Returns the number of control ticks run. Runs may be resumed, and
    /// lane counts mixed, freely: every run drives the same queue.
    pub fn run_sharded(&mut self, until: SimTime, shards: usize) -> u64 {
        let shards = shards.max(1);
        self.start();
        let ticks_before = self.control_steps;
        let interval = self.config.orchestrator.poll_interval;
        self.shard_stats.shards = self.shard_stats.shards.max(shards);
        if self.shard_stats.lanes.len() < shards {
            self.shard_stats.lanes.resize(shards, ShardLane::default());
        }
        let mut plan = self.shard_plan(interval);
        let mut order: Vec<(SimTime, ServerId)> = Vec::new();
        while self.events.peek_time().is_some_and(|next| next <= until) {
            let Some((now, event)) = self.events.pop() else {
                unreachable!("peeked event must pop");
            };
            match event {
                FleetEvent::Arrival(home) => {
                    let server = &mut self.servers[home.index()];
                    if let Some((send_time, draw)) = server.take_pending() {
                        debug_assert_eq!(
                            send_time, now,
                            "arrival event fires at the packet's send time"
                        );
                        debug_assert!(
                            plan.is_safe(self.last_tick, now),
                            "sequenced arrival past the window's safe horizon"
                        );
                        order.push((now, home));
                        server.park(draw);
                    }
                    if let Some(at) = server.next_arrival() {
                        self.events.schedule(at, FleetEvent::Arrival(home));
                    }
                }
                // Every other event is a window barrier: everything sequenced
                // so far executes against the pre-barrier state, the event
                // applies on the caller's thread, and the groups are
                // re-planned — a control tick or a crash may have re-steered
                // flows, so the old plan's groups may no longer co-schedule
                // the right servers.
                barrier => {
                    self.execute_window(&plan, &order, now, shards);
                    order.clear();
                    self.apply_barrier(now, barrier);
                    plan = self.shard_plan(interval);
                }
            }
        }
        // Partial final window: execute what was sequenced so far and drain
        // every runtime to `until`.
        self.execute_window(&plan, &order, until, shards);
        self.control_steps - ticks_before
    }

    /// The conservative plan for the current steering table: one node per
    /// server; every active spill is a zero-lookahead channel (re-steered
    /// packets reach the recipient at their original arrival instant), so
    /// its endpoints are co-scheduled. Scale-out handoffs and controller
    /// decisions happen only at the tick barrier itself and need no channel
    /// — the barrier already orders them.
    fn shard_plan(&self, barrier: SimDuration) -> ShardPlan {
        let channels: Vec<ShardChannel> = (0..self.servers.len())
            .filter_map(|home| {
                self.steering
                    .spill_of(ServerId::from(home))
                    .map(|spill| ShardChannel {
                        from: home,
                        to: spill.to.index(),
                        lookahead: SimDuration::ZERO,
                    })
            })
            .collect();
        ShardPlan::conservative(self.servers.len(), &channels, barrier)
    }

    /// Executes one synchronisation window: deals the plan's groups onto
    /// worker lanes, delivers the window's sequenced arrivals and drains every
    /// runtime to `end`, then merges the lanes' order-independent tallies.
    fn execute_window(
        &mut self,
        plan: &ShardPlan,
        order: &[(SimTime, ServerId)],
        end: SimTime,
        shards: usize,
    ) {
        let groups = plan.groups().len();
        if self.shard_stats.windows == 0 {
            self.shard_stats.groups_min = groups;
            self.shard_stats.groups_max = groups;
        } else {
            self.shard_stats.groups_min = self.shard_stats.groups_min.min(groups);
            self.shard_stats.groups_max = self.shard_stats.groups_max.max(groups);
        }
        self.shard_stats.windows += 1;

        // Every lane gets a server-indexed view of the fleet holding only the
        // servers of the groups dealt to it.
        let count = self.servers.len();
        let lanes = plan.lanes(shards);
        let mut owner = vec![0; count];
        for (lane, lane_groups) in lanes.iter().enumerate() {
            for &group in lane_groups {
                for &node in &plan.groups()[group] {
                    owner[node] = lane;
                }
            }
        }
        let mut lane_servers: Vec<Vec<Option<&mut FleetServer>>> = lanes
            .iter()
            .map(|_| std::iter::repeat_with(|| None).take(count).collect())
            .collect();
        for (node, server) in self.servers.iter_mut().enumerate() {
            lane_servers[owner[node]][node] = Some(server);
        }

        let steering = &self.steering;
        let health = &self.health;
        let window_clock = Instant::now();
        let results: Vec<(SteeringStats, u64, u64, u64, f64)> = if lane_servers.len() <= 1 {
            lane_servers
                .iter_mut()
                .map(|servers| run_lane(servers, order, steering, health, end))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = lane_servers
                    .into_iter()
                    .map(|mut servers| {
                        scope.spawn(move || run_lane(&mut servers, order, steering, health, end))
                    })
                    .collect();
                // Join in lane order: the merge below is order-independent,
                // but a deterministic order keeps panics reproducible.
                handles
                    .into_iter()
                    .map(|handle| match handle.join() {
                        Ok(result) => result,
                        Err(panic) => std::panic::resume_unwind(panic),
                    })
                    .collect()
            })
        };
        let window_wall_ms = window_clock.elapsed().as_secs_f64() * 1e3;

        for (lane_index, (stats, packets, events, fault_drops, busy_ms)) in
            results.into_iter().enumerate()
        {
            self.steering.absorb(stats);
            self.fault_drops += fault_drops;
            let lane = &mut self.shard_stats.lanes[lane_index];
            lane.packets += packets;
            lane.events += events;
            lane.busy_ms += busy_ms;
            lane.barrier_wait_ms += (window_wall_ms - busy_ms).max(0.0);
        }
    }
}

/// The per-event reference runner: each arrival is delivered the moment it
/// pops — frame built, routed, drained to and submitted — and every other
/// event applies as it pops. It is the plain reading of the fleet's event
/// queue that the windowed runner must reproduce byte for byte, kept only
/// for the tests, as the reference heap is kept behind the calendar queue.
#[cfg(test)]
mod reference {
    use super::*;

    impl Fleet {
        /// Runs the fleet until `until` one event at a time. Returns the
        /// number of control ticks run.
        pub(crate) fn run_reference(&mut self, until: SimTime) -> u64 {
            self.start();
            let ticks_before = self.control_steps;
            while self.events.peek_time().is_some_and(|next| next <= until) {
                let Some((now, event)) = self.events.pop() else {
                    unreachable!("peeked event must pop");
                };
                match event {
                    FleetEvent::Arrival(home) => self.on_arrival(now, home),
                    barrier => self.apply_barrier(now, barrier),
                }
            }
            for server in &mut self.servers {
                server.runtime_mut().drain_until(until);
            }
            self.control_steps - ticks_before
        }

        /// Delivers one home packet of `home`, re-steered or not.
        fn on_arrival(&mut self, now: SimTime, home: ServerId) {
            if let Some((send_time, draw)) = self.servers[home.index()].take_pending() {
                assert_eq!(send_time, now, "arrival event fires at the send time");
                let packet = draw.build();
                let target = self.steering.route(home, packet.flow_id());
                if !self.health.is_alive(target) {
                    self.fault_drops += 1;
                } else {
                    let server = &mut self.servers[target.index()];
                    server.note_arrival(packet.flow_id().raw(), packet.size());
                    server.log_submission(now, packet.flow_id().raw());
                    let runtime = server.runtime_mut();
                    runtime.drain_until(now);
                    runtime.submit(now, packet);
                }
            }
            if let Some(at) = self.servers[home.index()].next_arrival() {
                self.events.schedule(at, FleetEvent::Arrival(home));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::FleetConfig;
    use crate::node::ServerSpec;
    use pam_core::{Placement, StrategyKind};
    use pam_nf::ServiceChainSpec;
    use pam_runtime::RuntimeConfig;
    use pam_traffic::{
        ArrivalProcess, FlowGeneratorConfig, PacketSizeProfile, Phase, TraceConfig, TrafficSchedule,
    };
    use pam_types::{ByteSize, Gbps};

    /// The lane counts every byte-identity test runs: the one-lane
    /// sequential case, and more lanes than the fleets have servers.
    const LANES: [usize; 4] = [1, 2, 3, 8];

    fn spec_with(schedule: TrafficSchedule, seed: u64) -> ServerSpec {
        ServerSpec {
            chain: ServiceChainSpec::figure1(),
            placement: Placement::figure1_initial(),
            runtime: RuntimeConfig::evaluation_default(),
            trace: TraceConfig {
                sizes: PacketSizeProfile::Fixed(ByteSize::bytes(512)),
                flows: FlowGeneratorConfig {
                    flow_count: 2000,
                    zipf_exponent: 1.0,
                    tcp_fraction: 0.8,
                },
                arrival: ArrivalProcess::Cbr,
                schedule,
                seed,
            },
        }
    }

    /// Server 0 takes a hopeless burst that forces cross-server scale-out
    /// (and later scale-in); servers 1..n idle — the scenario exercising
    /// spill groups, handoffs and window re-planning.
    fn hopeless_fleet(servers: usize, strategy: StrategyKind) -> Fleet {
        let hot = TrafficSchedule::from_phases(vec![
            Phase::new(Gbps::new(3.9), SimDuration::from_millis(10)),
            Phase::new(Gbps::new(0.3), SimDuration::from_millis(20)),
        ]);
        let mut specs = vec![spec_with(hot, 11)];
        for cold in 1..servers {
            specs.push(spec_with(
                TrafficSchedule::constant(Gbps::new(0.5), SimDuration::from_millis(30)),
                11 + cold as u64,
            ));
        }
        Fleet::new(specs, FleetConfig::with_strategy(strategy)).unwrap()
    }

    fn report_json(fleet: &Fleet) -> String {
        serde_json::to_string(&fleet.report()).unwrap()
    }

    #[test]
    fn sharded_run_is_byte_identical_to_sequential() {
        let mut reference = hopeless_fleet(4, StrategyKind::Pam);
        reference.run_reference(SimTime::from_millis(30));
        for shards in LANES {
            let mut sharded = hopeless_fleet(4, StrategyKind::Pam);
            let ticks = sharded.run_sharded(SimTime::from_millis(30), shards);
            assert_eq!(ticks, 30, "1 ms cadence over 30 ms");
            assert_eq!(
                report_json(&reference),
                report_json(&sharded),
                "{shards} lanes diverged from the reference run"
            );
            assert_eq!(
                reference.events_scheduled(),
                sharded.events_scheduled(),
                "{shards} lanes scheduled a different event count"
            );
            assert_eq!(reference.scale_outs(), sharded.scale_outs());
            assert_eq!(reference.scale_ins(), sharded.scale_ins());
            assert_eq!(reference.log(), sharded.log());
        }
    }

    #[test]
    fn per_server_submission_sequences_match_the_sequential_run() {
        let mut reference = hopeless_fleet(3, StrategyKind::Pam);
        reference.run_reference(SimTime::from_millis(30));
        for shards in LANES {
            let mut sharded = hopeless_fleet(3, StrategyKind::Pam);
            sharded.run_sharded(SimTime::from_millis(30), shards);
            for (a, b) in reference.servers.iter().zip(&sharded.servers) {
                assert!(!a.submissions().is_empty(), "scenario feeds every server");
                assert_eq!(
                    a.submissions(),
                    b.submissions(),
                    "server {:?} saw a different (time, flow) submission sequence on {shards} lanes",
                    a.id()
                );
            }
        }
    }

    #[test]
    fn sharded_runs_resume_and_mix_with_sequential_runs() {
        let mut whole = hopeless_fleet(2, StrategyKind::Pam);
        whole.run_reference(SimTime::from_millis(30));
        let expected = report_json(&whole);

        let mut resumed = hopeless_fleet(2, StrategyKind::Pam);
        resumed.run_sharded(SimTime::from_millis(13), 4);
        resumed.run_sharded(SimTime::from_millis(30), 4);
        assert_eq!(expected, report_json(&resumed), "split sharded runs");

        let mut mixed = hopeless_fleet(2, StrategyKind::Pam);
        mixed.run_reference(SimTime::from_millis(9));
        mixed.run_sharded(SimTime::from_millis(21), 2);
        mixed.run(SimTime::from_millis(30));
        assert_eq!(expected, report_json(&mixed), "mixed runners and lanes");
    }

    #[test]
    fn one_lane_runs_windows() {
        let mut fleet = hopeless_fleet(2, StrategyKind::Pam);
        let ticks = fleet.run(SimTime::from_millis(30));
        let stats = fleet.shard_stats();
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.lanes.len(), 1, "one lane");
        assert!(
            stats.windows >= ticks,
            "{} windows for {ticks} control ticks",
            stats.windows
        );
        assert_eq!(
            stats.lanes[0].packets,
            fleet.report().totals.injected,
            "the lane submitted every injected packet"
        );
    }

    #[test]
    fn shard_stats_account_every_submitted_packet() {
        let mut fleet = hopeless_fleet(4, StrategyKind::Pam);
        fleet.run_sharded(SimTime::from_millis(30), 4);
        let stats = fleet.shard_stats().clone();
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.lanes.len(), 4);
        assert!(stats.windows >= 30, "one window per control tick");
        assert!(stats.groups_min >= 1 && stats.groups_max <= 4);
        assert!(
            stats.groups_min < 4,
            "the scale-out window co-schedules the spill pair"
        );
        let report = fleet.report();
        let submitted: u64 = stats.lanes.iter().map(|lane| lane.packets).sum();
        assert_eq!(submitted, report.totals.injected);
        let lane_events: u64 = stats.lanes.iter().map(|lane| lane.events).sum();
        let runtime_events: u64 = fleet
            .servers()
            .iter()
            .map(|server| server.runtime().events_scheduled())
            .sum();
        assert_eq!(lane_events, runtime_events);
    }

    #[test]
    fn window_plans_co_schedule_active_spills() {
        let mut fleet = hopeless_fleet(2, StrategyKind::Pam);
        fleet.run(SimTime::from_millis(5));
        assert!(fleet.scale_outs() > 0, "the burst forces a spill by 5 ms");
        let plan = fleet.shard_plan(fleet.config().orchestrator.poll_interval);
        assert_eq!(plan.groups().len(), 1, "spill pair shares a group");
        assert_eq!(
            plan.safe_horizon(),
            fleet.config().orchestrator.poll_interval
        );
    }

    /// The sequencer schedules exactly like the reference runner: drive both
    /// queues side by side and compare every `(time, event)` pop. This is the
    /// strongest form of the "identical `(time, seq)` sequences" property —
    /// checked at the fleet queue (the sequencer) here, and per server by
    /// `per_server_submission_sequences_match_the_sequential_run`.
    #[test]
    fn sequencer_pop_order_matches_the_sequential_run() {
        let mut reference = hopeless_fleet(3, StrategyKind::Pam);
        let mut sharded = hopeless_fleet(3, StrategyKind::Pam);
        // Alternate 1 ms slices so both fleets interleave run styles.
        for slice in 1..=30u64 {
            let until = SimTime::from_millis(slice);
            reference.run_reference(until);
            sharded.run_sharded(until, 3);
            assert_eq!(
                reference.events.scheduled_total(),
                sharded.events.scheduled_total(),
                "sequencer diverged by {slice} ms"
            );
            assert_eq!(
                reference.events.peek_time(),
                sharded.events.peek_time(),
                "next event time diverged by {slice} ms"
            );
        }
        assert_eq!(report_json(&reference), report_json(&sharded));
    }

    use pam_sim::{FaultEvent, FaultKind, FaultPlan};

    /// A schedule mixing every fault kind: server 0 crashes mid-burst and
    /// recovers, server 1's link flaps twice (overlapping), server 2's
    /// capacity swings.
    fn mixed_fault_plan() -> FaultPlan {
        FaultPlan::new(vec![
            FaultEvent {
                at: SimTime::from_millis(4),
                kind: FaultKind::ServerCrash {
                    server: ServerId::new(0),
                },
            },
            FaultEvent {
                at: SimTime::from_micros(6_200),
                kind: FaultKind::LinkFlap {
                    server: ServerId::new(1),
                    down_for: SimDuration::from_micros(700),
                },
            },
            FaultEvent {
                at: SimTime::from_micros(6_500),
                kind: FaultKind::LinkFlap {
                    server: ServerId::new(1),
                    down_for: SimDuration::from_micros(900),
                },
            },
            FaultEvent {
                at: SimTime::from_millis(9),
                kind: FaultKind::CapacitySwing {
                    server: ServerId::new(2),
                    factor: 0.35,
                    period: SimDuration::from_millis(2),
                },
            },
            FaultEvent {
                at: SimTime::from_millis(14),
                kind: FaultKind::ServerRecover {
                    server: ServerId::new(0),
                },
            },
        ])
    }

    #[test]
    fn sharded_run_with_faults_is_byte_identical_to_sequential() {
        let mut reference = hopeless_fleet(4, StrategyKind::Pam);
        reference.set_fault_plan(mixed_fault_plan()).unwrap();
        reference.run_reference(SimTime::from_millis(30));
        let report = reference.report();
        assert_eq!(report.totals.server_crashes, 1, "the plan actually fired");
        assert_eq!(report.totals.server_recoveries, 1);
        for shards in LANES {
            let mut sharded = hopeless_fleet(4, StrategyKind::Pam);
            sharded.set_fault_plan(mixed_fault_plan()).unwrap();
            sharded.run_sharded(SimTime::from_millis(30), shards);
            assert_eq!(
                report_json(&reference),
                report_json(&sharded),
                "{shards} lanes diverged from the reference faulted run"
            );
            assert_eq!(
                reference.events_scheduled(),
                sharded.events_scheduled(),
                "{shards} lanes scheduled a different event count under faults"
            );
            assert_eq!(reference.log(), sharded.log());
            assert_eq!(reference.fault_drops(), sharded.fault_drops());
        }
        // Mixed runners and lane counts resume across fault instants too.
        let mut mixed = hopeless_fleet(4, StrategyKind::Pam);
        mixed.set_fault_plan(mixed_fault_plan()).unwrap();
        mixed.run_reference(SimTime::from_micros(4_500));
        mixed.run_sharded(SimTime::from_millis(13), 3);
        mixed.run(SimTime::from_millis(30));
        assert_eq!(report_json(&reference), report_json(&mixed));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Random mini-fleets: any mix of rates, seeds, server counts and
            /// lane counts replays the reference run byte-identically, with
            /// identical per-server submission sequences. Ignored on the
            /// default path (each case simulates two full fleets); CI's
            /// proptest job runs it deep in release.
            #[test]
            #[ignore = "randomised deep suite; CI proptest job runs it in release"]
            fn random_fleets_are_byte_identical_under_sharding(
                servers in 2usize..5,
                shards in 1usize..7,
                seed in 0u64..1_000,
                hot_tenths in 30u64..40,
                horizon_ms in 4u64..9,
            ) {
                let build = || {
                    let mut specs = Vec::new();
                    for index in 0..servers {
                        let rate = if index == 0 {
                            Gbps::new(hot_tenths as f64 / 10.0)
                        } else {
                            Gbps::new(0.4 + index as f64 * 0.2)
                        };
                        specs.push(spec_with(
                            TrafficSchedule::constant(rate, SimDuration::from_millis(horizon_ms)),
                            seed + index as u64,
                        ));
                    }
                    Fleet::new(specs, FleetConfig::with_strategy(StrategyKind::Pam)).unwrap()
                };
                let until = SimTime::from_millis(horizon_ms);
                let mut reference = build();
                reference.run_reference(until);
                let mut sharded = build();
                sharded.run_sharded(until, shards);
                prop_assert_eq!(report_json(&reference), report_json(&sharded));
                prop_assert_eq!(reference.events_scheduled(), sharded.events_scheduled());
                for (a, b) in reference.servers.iter().zip(&sharded.servers) {
                    prop_assert_eq!(a.submissions(), b.submissions());
                }
            }
        }
    }
}
