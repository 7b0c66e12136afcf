//! One server of the fleet.
//!
//! A [`FleetServer`] bundles what PR 1's single-server pipeline kept at the
//! top level: a packet-level [`ChainRuntime`] (its own SmartNIC, CPU and
//! PCIe link), the home traffic arriving at that server, the per-server
//! [`Orchestrator`] running the local PAM control loop, and the
//! sliding-window estimator the fleet controller feeds its decisions from.

use pam_core::Placement;
use pam_nf::ServiceChainSpec;
use pam_orchestrator::{Orchestrator, OrchestratorConfig};
use pam_runtime::{ChainRuntime, RuntimeConfig};
use pam_traffic::{PacketDraw, TraceConfig, TraceSynthesizer};
use pam_types::{Gbps, Result, ServerId, SimDuration, SimTime};

use crate::estimator::LoadEstimator;

/// Everything needed to stand up one server of the fleet.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// The service chain deployed on the server.
    pub chain: ServiceChainSpec,
    /// The initial NIC/CPU placement.
    pub placement: Placement,
    /// Device, link and migration-cost parameters.
    pub runtime: RuntimeConfig,
    /// The server's home traffic (before any cross-server re-steering).
    pub trace: TraceConfig,
}

/// One server: runtime, home traffic, local control loop and load window.
pub struct FleetServer {
    id: ServerId,
    runtime: ChainRuntime,
    trace: TraceSynthesizer,
    pending: Option<(SimTime, PacketDraw)>,
    orchestrator: Orchestrator,
    estimator: LoadEstimator,
    bytes_since_tick: u64,
    /// Home packets sequenced into the current synchronisation window, kept
    /// as draws until their lane builds and submits them.
    parked: std::collections::VecDeque<PacketDraw>,
    /// Test-only: the `(time, flow)` sequence of every packet submitted to
    /// this server's runtime, for pinning that the windowed runner replays
    /// the reference runner's per-server submission order exactly.
    #[cfg(test)]
    submissions: Vec<(SimTime, u64)>,
}

impl std::fmt::Debug for FleetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetServer")
            .field("id", &self.id)
            .field("orchestrator", &self.orchestrator)
            .field("window_samples", &self.estimator.samples())
            .finish()
    }
}

impl FleetServer {
    /// Builds the server from its spec, control-loop parameters and the
    /// load estimator the fleet controller will feed (see
    /// [`LoadEstimator::new`]).
    pub fn new(
        id: ServerId,
        spec: ServerSpec,
        orchestrator: OrchestratorConfig,
        estimator: LoadEstimator,
    ) -> Result<Self> {
        let runtime = ChainRuntime::new(spec.chain, &spec.placement, spec.runtime)?;
        Ok(FleetServer {
            id,
            runtime,
            trace: TraceSynthesizer::new(spec.trace),
            pending: None,
            orchestrator: Orchestrator::new(orchestrator),
            estimator,
            bytes_since_tick: 0,
            parked: std::collections::VecDeque::new(),
            #[cfg(test)]
            submissions: Vec::new(),
        })
    }

    /// The server's fleet id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The server's data plane.
    pub fn runtime(&self) -> &ChainRuntime {
        &self.runtime
    }

    /// Mutable access to the data plane (packet submission, draining).
    pub fn runtime_mut(&mut self) -> &mut ChainRuntime {
        &mut self.runtime
    }

    /// The server's local control loop.
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orchestrator
    }

    /// Mutable access to the local control loop.
    pub fn orchestrator_mut(&mut self) -> &mut Orchestrator {
        &mut self.orchestrator
    }

    /// Read-only access to the server's load estimator (kind, error bounds,
    /// resident bytes, heavy hitters). All mutation goes through
    /// [`FleetServer::record_load`] and [`FleetServer::note_arrival`] — the
    /// concrete estimator type is no longer part of the server's API.
    pub fn estimator(&self) -> &LoadEstimator {
        &self.estimator
    }

    /// Records the offered load measured over the tick ending at `now` into
    /// the estimator's sliding window (sealing the tick's per-flow slot).
    pub fn record_load(&mut self, now: SimTime, offered: Gbps) {
        self.estimator.record(now, offered);
    }

    /// The estimator's windowed mean load — what the fleet ladder's
    /// migration and scale-out decisions consume.
    pub fn windowed_load(&self) -> Gbps {
        self.estimator.windowed()
    }

    /// The estimator's windowed peak load — what holds scale-in back until
    /// the whole window has receded.
    pub fn peak_load(&self) -> Gbps {
        self.estimator.peak()
    }

    /// The control loop and data plane together, split-borrowed so the
    /// orchestrator can drive its own runtime.
    pub fn control_parts(&mut self) -> (&mut Orchestrator, &mut ChainRuntime) {
        (&mut self.orchestrator, &mut self.runtime)
    }

    /// Accounts one packet arriving at this server (home or re-steered):
    /// the tick byte counter for offered load, and the estimator's per-flow
    /// window for heavy-hitter queries.
    pub fn note_arrival(&mut self, flow: u64, size: pam_types::ByteSize) {
        self.bytes_since_tick += size.as_bytes();
        self.estimator.record_arrival(flow, size.as_bytes());
    }

    /// The load that actually arrived since the previous tick, measured over
    /// `interval`. Resets the per-tick byte counter.
    pub fn take_tick_load(&mut self, interval: SimDuration) -> pam_types::Gbps {
        let bytes = std::mem::take(&mut self.bytes_since_tick);
        let secs = interval.as_secs_f64();
        if secs <= 0.0 {
            return pam_types::Gbps::ZERO;
        }
        pam_types::Gbps::from_bytes_per_sec(bytes as f64 / secs)
    }

    /// The send time of the server's next home packet, if any. Draws the
    /// packet from the trace and holds it until [`FleetServer::take_pending`].
    pub(crate) fn next_arrival(&mut self) -> Option<SimTime> {
        if self.pending.is_none() {
            self.pending = self.trace.next_draw();
        }
        self.pending.as_ref().map(|(t, _)| *t)
    }

    /// Takes the held home packet draw (call after its arrival event fired).
    pub(crate) fn take_pending(&mut self) -> Option<(SimTime, PacketDraw)> {
        self.pending.take()
    }

    /// Parks one due home packet draw for the current window. The sequencer
    /// calls this in global `(time, seq)` pop order, so the FIFO preserves
    /// that order within the window.
    pub(crate) fn park(&mut self, draw: PacketDraw) {
        self.parked.push_back(draw);
    }

    /// Takes the oldest draw parked by [`FleetServer::park`].
    pub(crate) fn take_parked(&mut self) -> Option<PacketDraw> {
        self.parked.pop_front()
    }

    /// Test-only: records one packet submission to this server's runtime.
    #[cfg(test)]
    pub(crate) fn log_submission(&mut self, at: SimTime, flow: u64) {
        self.submissions.push((at, flow));
    }

    /// Test-only: the recorded `(time, flow)` submission sequence.
    #[cfg(test)]
    pub(crate) fn submissions(&self) -> &[(SimTime, u64)] {
        &self.submissions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pam_traffic::{ArrivalProcess, FlowGeneratorConfig, PacketSizeProfile, TrafficSchedule};
    use pam_types::{ByteSize, Gbps};

    fn spec() -> ServerSpec {
        ServerSpec {
            chain: ServiceChainSpec::figure1(),
            placement: Placement::figure1_initial(),
            runtime: RuntimeConfig::evaluation_default(),
            trace: TraceConfig {
                sizes: PacketSizeProfile::Fixed(ByteSize::bytes(512)),
                flows: FlowGeneratorConfig::default(),
                arrival: ArrivalProcess::Cbr,
                schedule: TrafficSchedule::constant(Gbps::new(1.0), SimDuration::from_millis(2)),
                seed: 7,
            },
        }
    }

    #[test]
    fn arrivals_are_parked_until_taken() {
        let estimator = LoadEstimator::new(
            &crate::estimator::EstimatorConfig::default(),
            SimDuration::from_micros(500),
        );
        let mut server = FleetServer::new(
            ServerId::new(0),
            spec(),
            OrchestratorConfig::default(),
            estimator,
        )
        .unwrap();
        let first = server.next_arrival().expect("trace has packets");
        // Peeking again must not consume a second packet.
        assert_eq!(server.next_arrival(), Some(first));
        let (at, draw) = server.take_pending().expect("held draw");
        assert_eq!(at, first);
        assert_eq!(draw.send_time, first);
        assert_eq!(draw.build().size(), draw.size);
        assert_ne!(server.next_arrival(), None);
        assert_eq!(server.id(), ServerId::new(0));
    }
}
