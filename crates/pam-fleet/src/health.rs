//! Node-health tracking for fault injection.
//!
//! [`NodeHealth`] is the fleet controller's view of which servers are up.
//! Fault events (a [`pam_sim::FaultPlan`] delivered through the fleet's
//! event queue) move servers between three states:
//!
//! * **Up** — serving, eligible for ladder decisions and as a spill
//!   recipient;
//! * **Down** — crashed: its ingress black-holes (packets routed to it are
//!   counted as fault drops, never submitted), its steering entries are
//!   drained to survivors, and the ladder skips it entirely;
//! * **Warming** — recovered but inside the warm-up guard: it serves
//!   traffic again, but the ladder neither acts *for* it nor picks it as a
//!   recipient until the guard expires, so a freshly re-admitted server is
//!   not immediately re-loaded while its caches and windows are cold.
//!
//! Everything here is plain indexed state mutated only at sequenced fault
//! and control-tick events, so runs on any lane count observe the same
//! health history (fault events are window barriers in
//! [`crate::Fleet::run_sharded`]).

use pam_types::{ServerId, SimDuration, SimTime};

/// The default warm-up guard after a recovery: long enough to cover a few
/// control ticks at the default 1 ms cadence.
pub const DEFAULT_WARMUP: SimDuration = SimDuration::from_millis(2);

/// One server's health state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    /// Serving and fully eligible.
    Up,
    /// Crashed: ingress black-holed, ladder skips it.
    Down,
    /// Recovered at some instant; eligible again once `until` has passed.
    Warming {
        /// End of the warm-up guard.
        until: SimTime,
    },
}

/// Per-server liveness, with crash/recovery counters for the fleet report.
#[derive(Debug, Clone)]
pub struct NodeHealth {
    states: Vec<NodeState>,
    crashes: Vec<u64>,
    recoveries: Vec<u64>,
    warmup: SimDuration,
}

impl NodeHealth {
    /// All `servers` up, with the given warm-up guard.
    pub fn new(servers: usize, warmup: SimDuration) -> Self {
        NodeHealth {
            states: vec![NodeState::Up; servers],
            crashes: vec![0; servers],
            recoveries: vec![0; servers],
            warmup,
        }
    }

    /// The configured warm-up guard.
    pub fn warmup(&self) -> SimDuration {
        self.warmup
    }

    /// Replaces the warm-up guard applied to *future* recoveries (servers
    /// already warming keep the deadline they were given).
    pub fn set_warmup(&mut self, warmup: SimDuration) {
        self.warmup = warmup;
    }

    /// True when `server` accepts traffic (up or warming — a warming server
    /// serves, it just is not eligible for ladder decisions yet).
    pub fn is_alive(&self, server: ServerId) -> bool {
        !matches!(self.states[server.index()], NodeState::Down)
    }

    /// True when the ladder may act for (or pick) `server` at `now`: alive
    /// and past any warm-up guard. Pure — a `Warming` state whose guard has
    /// expired simply behaves as `Up` from then on.
    pub fn eligible(&self, server: ServerId, now: SimTime) -> bool {
        match self.states[server.index()] {
            NodeState::Up => true,
            NodeState::Down => false,
            NodeState::Warming { until } => now >= until,
        }
    }

    /// Marks `server` crashed. Returns `true` if it was alive (a crash of an
    /// already-dead server is a no-op and does not count).
    pub fn crash(&mut self, server: ServerId) -> bool {
        if !self.is_alive(server) {
            return false;
        }
        self.states[server.index()] = NodeState::Down;
        self.crashes[server.index()] += 1;
        true
    }

    /// Re-admits `server` at `now` behind the warm-up guard. Returns `true`
    /// if it was down (recovering a live server is a no-op).
    pub fn recover(&mut self, server: ServerId, now: SimTime) -> bool {
        if self.is_alive(server) {
            return false;
        }
        self.states[server.index()] = NodeState::Warming {
            until: now + self.warmup,
        };
        self.recoveries[server.index()] += 1;
        true
    }

    /// Crashes `server` has suffered so far.
    pub fn crashes(&self, server: ServerId) -> u64 {
        self.crashes[server.index()]
    }

    /// Recoveries `server` has completed so far.
    pub fn recoveries(&self, server: ServerId) -> u64 {
        self.recoveries[server.index()]
    }

    /// Total crashes across the fleet.
    pub fn total_crashes(&self) -> u64 {
        self.crashes.iter().sum()
    }

    /// Total recoveries across the fleet.
    pub fn total_recoveries(&self) -> u64 {
        self.recoveries.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S0: ServerId = ServerId::new(0);
    const S1: ServerId = ServerId::new(1);

    #[test]
    fn crash_recover_cycle_counts_and_guards() {
        let mut health = NodeHealth::new(2, SimDuration::from_millis(1));
        assert!(health.is_alive(S0) && health.eligible(S0, SimTime::ZERO));

        assert!(health.crash(S0));
        assert!(!health.crash(S0), "double crash is a no-op");
        assert!(!health.is_alive(S0));
        assert!(!health.eligible(S0, SimTime::from_millis(10)));
        assert!(health.is_alive(S1), "other servers unaffected");
        assert_eq!(health.crashes(S0), 1);
        assert_eq!(health.total_crashes(), 1);

        let back = SimTime::from_millis(5);
        assert!(health.recover(S0, back));
        assert!(!health.recover(S0, back), "double recover is a no-op");
        assert!(health.is_alive(S0), "warming servers serve traffic");
        assert!(
            !health.eligible(S0, back),
            "the warm-up guard holds the ladder back"
        );
        assert!(health.eligible(S0, back + health.warmup()));
        assert_eq!(health.recoveries(S0), 1);
        assert_eq!(health.total_recoveries(), 1);
        assert_eq!(health.recoveries(S1), 0);
    }
}
