//! The trace synthesizer: turning profiles into a packet stream.

use pam_nf::Packet;
use pam_sim::SimRng;
use pam_types::{ByteSize, Gbps, SimDuration, SimTime};
use pam_wire::{FiveTuple, PacketBuilder, TransportKind};
use serde::{Deserialize, Serialize};

use crate::arrival::ArrivalProcess;
use crate::flows::{FlowGenerator, FlowGeneratorConfig};
use crate::schedule::TrafficSchedule;
use crate::size::PacketSizeProfile;

/// Configuration of a synthetic trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Packet-size profile.
    pub sizes: PacketSizeProfile,
    /// Flow population.
    pub flows: FlowGeneratorConfig,
    /// Arrival pacing.
    pub arrival: ArrivalProcess,
    /// Offered load over time.
    pub schedule: TrafficSchedule,
    /// RNG seed (the same seed reproduces the same trace byte-for-byte).
    pub seed: u64,
}

impl TraceConfig {
    /// The default evaluation trace: the paper's packet-size sweep, a 10 000
    /// flow Zipf population, CBR pacing and a constant offered load.
    pub fn evaluation_default(load: Gbps, duration: SimDuration) -> Self {
        TraceConfig {
            sizes: PacketSizeProfile::paper_sweep(),
            flows: FlowGeneratorConfig::default(),
            arrival: ArrivalProcess::Cbr,
            schedule: TrafficSchedule::constant(load, duration),
            seed: DEFAULT_TRACE_SEED,
        }
    }
}

/// The default seed used by evaluation traces (the conference date of the
/// poster, so reproduction runs are recognisably deterministic).
pub const DEFAULT_TRACE_SEED: u64 = 20180820;

/// Everything the trace drew for one packet, before its frame is built.
///
/// A draw is a few dozen bytes where the frame it describes is up to 1.5 KB,
/// so a consumer that holds packets before submitting them (the fleet's
/// windowed runner parks a whole window of arrivals) keeps draws and builds
/// each frame only when it is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketDraw {
    /// The packet id (its index in the trace).
    pub id: u64,
    /// The flow the packet belongs to.
    pub tuple: FiveTuple,
    /// The transport header the frame carries.
    pub transport: TransportKind,
    /// The on-wire frame length: the drawn size raised to the header stack,
    /// exactly as [`PacketBuilder::build`] pads it.
    pub size: ByteSize,
    /// When the packet is sent.
    pub send_time: SimTime,
}

impl PacketDraw {
    /// Builds the frame the draw describes.
    pub fn build(&self) -> Packet {
        let bytes = PacketBuilder::new()
            .five_tuple(self.tuple)
            .transport(self.transport)
            .size(self.size)
            .build();
        Packet::from_bytes(self.id, bytes, self.send_time)
    }
}

/// A generator of timestamped packets following a [`TraceConfig`].
#[derive(Debug)]
pub struct TraceSynthesizer {
    config: TraceConfig,
    flow_gen: FlowGenerator,
    rng: SimRng,
    next_time: SimTime,
    next_id: u64,
    emitted_bytes: u64,
}

impl TraceSynthesizer {
    /// Creates a synthesizer from its configuration.
    pub fn new(config: TraceConfig) -> Self {
        let rng = SimRng::seed_from(config.seed);
        let flow_gen = FlowGenerator::new(&config.flows, &mut rng.fork(1));
        TraceSynthesizer {
            config,
            flow_gen,
            rng,
            next_time: SimTime::ZERO,
            next_id: 0,
            emitted_bytes: 0,
        }
    }

    /// The configuration this synthesizer follows.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Total bytes emitted so far.
    pub fn emitted_bytes(&self) -> u64 {
        self.emitted_bytes
    }

    /// Number of packets emitted so far.
    pub fn emitted_packets(&self) -> u64 {
        self.next_id
    }

    /// Produces the next packet, or `None` when the schedule has ended.
    pub fn next_packet(&mut self) -> Option<(SimTime, Packet)> {
        let (send_time, draw) = self.next_draw()?;
        Some((send_time, draw.build()))
    }

    /// Draws the next packet without building its frame, or `None` when the
    /// schedule has ended. Makes the same random draws in the same order as
    /// [`TraceSynthesizer::next_packet`], which is this followed by
    /// [`PacketDraw::build`].
    pub fn next_draw(&mut self) -> Option<(SimTime, PacketDraw)> {
        // Find the offered load at the current send time, skipping over any
        // zero-load gaps (there are none in the provided schedules, but a
        // custom schedule may include quiet phases).
        let mut load = self.config.schedule.load_at(self.next_time);
        while load.as_gbps() <= 0.0 {
            self.next_time = self.config.schedule.phase_end_after(self.next_time)?;
            load = self.config.schedule.load_at(self.next_time);
        }

        let size = self.config.sizes.sample(&mut self.rng);
        let tuple = self.flow_gen.sample(&mut self.rng);
        let transport = match tuple.protocol {
            pam_wire::IpProtocol::Tcp => TransportKind::Tcp,
            _ => TransportKind::Udp,
        };
        let header_stack = PacketBuilder::new().transport(transport).header_overhead();
        let send_time = self.next_time;
        let draw = PacketDraw {
            id: self.next_id,
            tuple,
            transport,
            size: size.max(ByteSize::bytes(header_stack as u64)),
            send_time,
        };
        self.next_id += 1;
        self.emitted_bytes += draw.size.as_bytes();

        let gap = self.config.arrival.next_gap(load, draw.size, &mut self.rng);
        // Guard against zero gaps (degenerate loads) so time always advances.
        self.next_time = send_time + gap.max(SimDuration::from_nanos(1));
        Some((send_time, draw))
    }

    /// Collects the entire trace into a vector (convenient for tests and for
    /// benches that want to reuse one trace across strategies).
    pub fn collect_all(mut self) -> Vec<(SimTime, Packet)> {
        let mut out = Vec::new();
        while let Some(item) = self.next_packet() {
            out.push(item);
        }
        out
    }

    /// The offered throughput achieved so far (emitted bytes over elapsed
    /// trace time), useful to sanity-check a configuration.
    pub fn offered_throughput(&self) -> Gbps {
        let elapsed = self.next_time.as_secs_f64();
        if elapsed <= 0.0 {
            return Gbps::ZERO;
        }
        Gbps::from_bytes_per_sec(self.emitted_bytes as f64 / elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pam_types::ByteSize;

    fn config(load: f64, millis: u64, seed: u64) -> TraceConfig {
        TraceConfig {
            sizes: PacketSizeProfile::Fixed(ByteSize::bytes(512)),
            flows: FlowGeneratorConfig {
                flow_count: 100,
                zipf_exponent: 1.0,
                tcp_fraction: 0.5,
            },
            arrival: ArrivalProcess::Cbr,
            schedule: TrafficSchedule::constant(Gbps::new(load), SimDuration::from_millis(millis)),
            seed,
        }
    }

    #[test]
    fn offered_load_matches_schedule() {
        let synth = TraceSynthesizer::new(config(2.0, 5, 1));
        let packets = synth.collect_all();
        assert!(!packets.is_empty());
        let total_bytes: u64 = packets.iter().map(|(_, p)| p.size().as_bytes()).sum();
        let last = packets.last().unwrap().0.as_secs_f64();
        let achieved = total_bytes as f64 * 8.0 / last / 1e9;
        assert!((achieved - 2.0).abs() < 0.05, "achieved {achieved} Gbps");
    }

    #[test]
    fn timestamps_are_monotonic_and_within_schedule() {
        let packets = TraceSynthesizer::new(config(1.0, 3, 2)).collect_all();
        for pair in packets.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
        assert!(packets.last().unwrap().0 < SimTime::from_millis(3));
    }

    #[test]
    fn same_seed_same_trace_different_seed_different_trace() {
        let a = TraceSynthesizer::new(config(1.0, 2, 7)).collect_all();
        let b = TraceSynthesizer::new(config(1.0, 2, 7)).collect_all();
        let c = TraceSynthesizer::new(config(1.0, 2, 8)).collect_all();
        assert_eq!(a.len(), b.len());
        for ((ta, pa), (tb, pb)) in a.iter().zip(&b) {
            assert_eq!(ta, tb);
            assert_eq!(pa.bytes(), pb.bytes());
        }
        let identical_to_c = a.len() == c.len()
            && a.iter()
                .zip(&c)
                .all(|((ta, pa), (tc, pc))| ta == tc && pa.bytes() == pc.bytes());
        assert!(!identical_to_c, "different seeds should differ");
    }

    #[test]
    fn packets_parse_and_belong_to_the_flow_pool() {
        let synth = TraceSynthesizer::new(config(1.0, 1, 3));
        let flow_pool: std::collections::HashSet<_> = synth.flow_gen.flows().collect();
        let packets = synth.collect_all();
        for (_, packet) in &packets {
            let tuple = packet.five_tuple().expect("generated packets parse");
            assert!(flow_pool.contains(&tuple), "unknown tuple {tuple}");
        }
    }

    #[test]
    fn step_schedule_produces_more_traffic_in_the_heavy_phase() {
        let cfg = TraceConfig {
            sizes: PacketSizeProfile::Fixed(ByteSize::bytes(1000)),
            flows: FlowGeneratorConfig {
                flow_count: 10,
                zipf_exponent: 0.0,
                tcp_fraction: 1.0,
            },
            arrival: ArrivalProcess::Cbr,
            schedule: TrafficSchedule::step_overload(
                Gbps::new(1.0),
                SimDuration::from_millis(5),
                Gbps::new(3.0),
                SimDuration::from_millis(5),
            ),
            seed: 4,
        };
        let packets = TraceSynthesizer::new(cfg).collect_all();
        let boundary = SimTime::from_millis(5);
        let first: usize = packets.iter().filter(|(t, _)| *t < boundary).count();
        let second = packets.len() - first;
        let ratio = second as f64 / first as f64;
        assert!((ratio - 3.0).abs() < 0.2, "phase packet ratio {ratio}");
    }

    #[test]
    fn counters_track_emission() {
        let mut synth = TraceSynthesizer::new(config(1.0, 1, 5));
        assert_eq!(synth.emitted_packets(), 0);
        let mut count = 0;
        while synth.next_packet().is_some() {
            count += 1;
        }
        assert_eq!(synth.emitted_packets(), count);
        assert_eq!(synth.emitted_bytes(), count * 512);
        assert!((synth.offered_throughput().as_gbps() - 1.0).abs() < 0.05);
        assert_eq!(synth.config().seed, 5);
    }

    /// `next_packet` as it was before draws existed, building the frame from
    /// the unpadded drawn size and pacing on the built frame's length: the
    /// reference `next_draw` followed by `build` must reproduce.
    fn next_packet_reference(synth: &mut TraceSynthesizer) -> Option<(SimTime, Packet)> {
        let mut load = synth.config.schedule.load_at(synth.next_time);
        while load.as_gbps() <= 0.0 {
            synth.next_time = synth.config.schedule.phase_end_after(synth.next_time)?;
            load = synth.config.schedule.load_at(synth.next_time);
        }
        let size = synth.config.sizes.sample(&mut synth.rng);
        let tuple = synth.flow_gen.sample(&mut synth.rng);
        let transport = match tuple.protocol {
            pam_wire::IpProtocol::Tcp => TransportKind::Tcp,
            _ => TransportKind::Udp,
        };
        let bytes = PacketBuilder::new()
            .five_tuple(tuple)
            .transport(transport)
            .size(size)
            .build();
        let send_time = synth.next_time;
        let packet = Packet::from_bytes(synth.next_id, bytes, send_time);
        synth.next_id += 1;
        synth.emitted_bytes += packet.size().as_bytes();
        let gap = synth
            .config
            .arrival
            .next_gap(load, packet.size(), &mut synth.rng);
        synth.next_time = send_time + gap.max(SimDuration::from_nanos(1));
        Some((send_time, packet))
    }

    #[test]
    fn draws_built_later_equal_the_packets_built_at_once() {
        // The paper sweep, IMIX, and a fixed size below even the UDP header
        // stack (every frame is padded up to its transport's minimum).
        for sizes in [
            PacketSizeProfile::paper_sweep(),
            PacketSizeProfile::Imix,
            PacketSizeProfile::Fixed(ByteSize::bytes(20)),
        ] {
            let cfg = TraceConfig {
                sizes,
                ..config(1.0, 1, 9)
            };
            let mut packets = TraceSynthesizer::new(cfg.clone());
            let mut draws = TraceSynthesizer::new(cfg);
            let mut count = 0;
            while let Some((at, packet)) = next_packet_reference(&mut packets) {
                let (drawn_at, draw) = draws.next_draw().expect("same trace length");
                let built = draw.build();
                assert_eq!(drawn_at, at);
                assert_eq!(draw.send_time, at);
                assert_eq!(draw.size, packet.size());
                assert_eq!(Some(draw.tuple), packet.five_tuple());
                assert_eq!(built.id, packet.id);
                assert_eq!(built.ingress_time, packet.ingress_time);
                assert_eq!(built.bytes(), packet.bytes());
                assert_eq!(draws.emitted_bytes(), packets.emitted_bytes());
                count += 1;
            }
            assert!(count > 0);
            assert!(draws.next_draw().is_none(), "same trace length");
            assert_eq!(draws.emitted_packets(), packets.emitted_packets());
        }
    }

    #[test]
    fn evaluation_default_uses_paper_sweep() {
        let cfg = TraceConfig::evaluation_default(Gbps::new(2.2), SimDuration::from_millis(1));
        assert_eq!(cfg.sizes, PacketSizeProfile::paper_sweep());
        assert_eq!(cfg.arrival, ArrivalProcess::Cbr);
    }
}
