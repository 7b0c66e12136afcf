//! The [`NetworkFunction`] trait, vNF taxonomy and migratable state.
//!
//! vNFs process packets one at a time through [`NetworkFunction::process`].
//! Live migration between the SmartNIC and the CPU (the mechanism PAM adopts
//! from UNO \[4\] and OpenNF \[1\]) needs each vNF to be able to serialise its
//! runtime state on the source device and restore it on the target device;
//! [`NfState`] carries that snapshot plus an estimated transfer size that the
//! runtime uses to model the PCIe cost of the transfer.

use std::fmt;

use pam_types::{ByteSize, PamError, Result, SimTime};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use crate::packet::Packet;

/// The kinds of vNF the workspace implements.
///
/// The first four are the poster's Figure 1 chain (with capacities from
/// Table 1); the rest are additional vNFs used by the examples and the
/// ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NfKind {
    /// Stateless 5-tuple firewall.
    Firewall,
    /// Per-flow statistics monitor.
    Monitor,
    /// Sampling packet logger.
    Logger,
    /// L4 load balancer with connection stickiness.
    LoadBalancer,
    /// Source NAT with port allocation.
    Nat,
    /// Deep packet inspection (multi-pattern payload scanning).
    Dpi,
    /// Token-bucket rate limiter.
    RateLimiter,
}

impl NfKind {
    /// Every implemented kind.
    pub const ALL: [NfKind; 7] = [
        NfKind::Firewall,
        NfKind::Monitor,
        NfKind::Logger,
        NfKind::LoadBalancer,
        NfKind::Nat,
        NfKind::Dpi,
        NfKind::RateLimiter,
    ];

    /// The four kinds of the poster's Figure 1 chain.
    pub const FIGURE1: [NfKind; 4] = [
        NfKind::Firewall,
        NfKind::Monitor,
        NfKind::Logger,
        NfKind::LoadBalancer,
    ];

    /// The human-readable name the paper uses.
    pub const fn name(self) -> &'static str {
        match self {
            NfKind::Firewall => "Firewall",
            NfKind::Monitor => "Monitor",
            NfKind::Logger => "Logger",
            NfKind::LoadBalancer => "Load Balancer",
            NfKind::Nat => "NAT",
            NfKind::Dpi => "DPI",
            NfKind::RateLimiter => "Rate Limiter",
        }
    }

    /// True for vNFs that keep per-flow state (and therefore have a
    /// non-trivial migration transfer cost).
    pub const fn is_stateful(self) -> bool {
        !matches!(self, NfKind::Firewall)
    }
}

impl fmt::Display for NfKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// What a vNF decided to do with a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NfVerdict {
    /// Pass the packet to the next hop.
    Forward,
    /// Drop the packet (policy, rate limit, signature match, ...).
    Drop,
}

impl NfVerdict {
    /// True when the packet continues through the chain.
    pub const fn is_forward(self) -> bool {
        matches!(self, NfVerdict::Forward)
    }
}

/// Per-packet context handed to [`NetworkFunction::process`].
#[derive(Debug, Clone, Copy)]
pub struct NfContext {
    /// Current simulation time.
    pub now: SimTime,
}

impl NfContext {
    /// Creates a context for the given instant.
    pub const fn at(now: SimTime) -> Self {
        NfContext { now }
    }
}

/// A serialised snapshot of a vNF's runtime state, used for live migration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NfState {
    /// The kind of vNF this state belongs to (import refuses a mismatch).
    pub kind: NfKind,
    /// The serialised state payload.
    pub data: serde_json::Value,
    /// Estimated on-the-wire size of the state when transferred over PCIe.
    pub estimated_size: ByteSize,
}

impl NfState {
    /// Serialises a typed state value.
    pub fn encode<T: Serialize>(kind: NfKind, value: &T) -> Self {
        let data = serde_json::to_value(value).unwrap_or(serde_json::Value::Null);
        // The JSON text length is a reasonable proxy for the serialised size;
        // real systems ship a compact binary encoding, so charge 60% of it.
        // The length is counted off the tree already built, not by printing
        // a copy of it.
        let json_len = serde_json::serialized_len(&data).unwrap_or(0);
        NfState {
            kind,
            data,
            estimated_size: ByteSize::bytes((json_len as u64 * 6) / 10),
        }
    }

    /// Deserialises the payload back into a typed value, checking the kind.
    pub fn decode<T: DeserializeOwned>(&self, expected: NfKind) -> Result<T> {
        if self.kind != expected {
            return Err(PamError::state(format!(
                "cannot import {} state into a {} instance",
                self.kind, expected
            )));
        }
        // Deserialize through the by-reference trait entry point: cloning
        // `self.data` first would deep-copy the whole state tree (the largest
        // allocation of a migration import) only to drop it immediately.
        T::from_value(&self.data)
            .map_err(|e| PamError::state(format!("corrupt {} state: {e}", self.kind)))
    }

    /// An empty state for stateless vNFs.
    pub fn empty(kind: NfKind) -> Self {
        NfState {
            kind,
            data: serde_json::Value::Null,
            estimated_size: ByteSize::ZERO,
        }
    }
}

/// A virtual network function.
///
/// Implementations are synchronous, single-threaded packet processors; the
/// simulation runtime provides timing, queueing and placement around them.
pub trait NetworkFunction: Send {
    /// The kind of this vNF.
    fn kind(&self) -> NfKind;

    /// Processes one packet, possibly mutating it, and returns a verdict.
    fn process(&mut self, packet: &mut Packet, ctx: &NfContext) -> NfVerdict;

    /// Processes a doorbell batch of packets that were serviced together,
    /// returning one verdict per packet (in order).
    ///
    /// The default loops over [`NetworkFunction::process`], so every vNF is
    /// batch-correct by construction. Implementations with real per-batch
    /// amortisation (the monitor's per-flow counter runs, the NAT's and load
    /// balancer's repeated-flow lookups) override it — but any override MUST
    /// be observationally equivalent to the default: same verdicts, same end
    /// state. `ctx.now` is the device clock at batch service completion, the
    /// single timestamp every packet of the batch is accounted at.
    ///
    /// One deliberate consequence of the shared timestamp: *time-dependent*
    /// vNFs observe the doorbell's burstiness. A token-bucket
    /// [rate limiter](crate::RateLimiter) refills once per batch, not
    /// between the batch's packets — exactly as real hardware sees a DMA'd
    /// burst arrive at one instant — so its verdicts may legitimately differ
    /// between batch sizes even though every state-keyed vNF's must not.
    fn process_batch(&mut self, packets: &mut [Packet], ctx: &NfContext) -> Vec<NfVerdict> {
        let mut verdicts = Vec::with_capacity(packets.len());
        self.process_batch_into(packets, ctx, &mut verdicts);
        verdicts
    }

    /// Allocation-free flavour of [`NetworkFunction::process_batch`]: appends
    /// one verdict per packet (in order) to `verdicts` instead of returning a
    /// fresh `Vec`. The hot datapath calls this with a reused buffer so
    /// steady-state batch service never touches the allocator; overriders of
    /// the batch path implement *this* method and inherit `process_batch`.
    fn process_batch_into(
        &mut self,
        packets: &mut [Packet],
        ctx: &NfContext,
        verdicts: &mut Vec<NfVerdict>,
    ) {
        verdicts.extend(packets.iter_mut().map(|packet| self.process(packet, ctx)));
    }

    /// Exports the vNF's migratable runtime state.
    fn export_state(&self) -> NfState;

    /// Imports previously exported state (used on the migration target).
    fn import_state(&mut self, state: NfState) -> Result<()>;

    /// Number of per-flow entries currently held (drives the modelled state
    /// transfer size during migration).
    fn flow_count(&self) -> usize {
        0
    }

    /// Marks the current state as the baseline for dirty tracking. Iterative
    /// pre-copy migration calls this right after each round's export so the
    /// next round sees only what changed since. The default is a no-op, which
    /// pairs with the conservative defaults below (everything always dirty).
    fn clear_dirty(&mut self) {}

    /// Number of flows dirtied since the last [`NetworkFunction::clear_dirty`].
    /// Defaults to [`NetworkFunction::flow_count`] — "all state is dirty" —
    /// which is always safe: pre-copy then converges via its round cap.
    fn dirty_flow_count(&self) -> usize {
        self.flow_count()
    }

    /// Exports only the state changed since the last
    /// [`NetworkFunction::clear_dirty`]. Defaults to a full export.
    fn export_dirty_state(&self) -> NfState {
        self.export_state()
    }

    /// Merges a delta produced by [`NetworkFunction::export_dirty_state`]
    /// into this instance (the migration target applies one per pre-copy
    /// round). Defaults to a full-state import, matching the default export.
    fn import_dirty_state(&mut self, state: NfState) -> Result<()> {
        self.import_state(state)
    }

    /// Clears all runtime state.
    fn reset(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_match_the_paper() {
        assert_eq!(NfKind::Firewall.name(), "Firewall");
        assert_eq!(NfKind::Monitor.to_string(), "Monitor");
        assert_eq!(NfKind::Logger.name(), "Logger");
        assert_eq!(NfKind::LoadBalancer.name(), "Load Balancer");
        assert_eq!(NfKind::ALL.len(), 7);
        assert_eq!(NfKind::FIGURE1.len(), 4);
    }

    #[test]
    fn statefulness_classification() {
        assert!(!NfKind::Firewall.is_stateful());
        assert!(NfKind::Monitor.is_stateful());
        assert!(NfKind::Nat.is_stateful());
        assert!(NfKind::LoadBalancer.is_stateful());
    }

    #[test]
    fn verdict_helpers() {
        assert!(NfVerdict::Forward.is_forward());
        assert!(!NfVerdict::Drop.is_forward());
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct ToyState {
        counters: Vec<u64>,
        name: String,
    }

    #[test]
    fn state_encode_decode_round_trip() {
        let value = ToyState {
            counters: vec![1, 2, 3],
            name: "monitor".into(),
        };
        let state = NfState::encode(NfKind::Monitor, &value);
        assert!(state.estimated_size > ByteSize::ZERO);
        let back: ToyState = state.decode(NfKind::Monitor).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn state_kind_mismatch_is_rejected() {
        let state = NfState::encode(NfKind::Monitor, &vec![1u64, 2, 3]);
        let err = state.decode::<Vec<u64>>(NfKind::Logger).unwrap_err();
        assert!(err.to_string().contains("Monitor"));
        assert!(err.to_string().contains("Logger"));
    }

    #[test]
    fn corrupt_state_is_rejected() {
        let mut state = NfState::encode(NfKind::Monitor, &vec![1u64]);
        state.data = serde_json::json!({"not": "a list"});
        assert!(state.decode::<Vec<u64>>(NfKind::Monitor).is_err());
    }

    #[test]
    fn empty_state_has_zero_size() {
        let state = NfState::empty(NfKind::Firewall);
        assert_eq!(state.estimated_size, ByteSize::ZERO);
        assert_eq!(state.kind, NfKind::Firewall);
    }

    #[test]
    fn state_size_grows_with_contents() {
        let small = NfState::encode(NfKind::Monitor, &vec![0u64; 4]);
        let large = NfState::encode(NfKind::Monitor, &vec![0u64; 4000]);
        assert!(large.estimated_size > small.estimated_size * 100);
    }

    #[test]
    fn estimated_size_is_sixty_percent_of_the_printed_json_for_every_kind() {
        use pam_wire::{PacketBuilder, TransportKind};

        // Every kind, with state in it, full and dirty exports: the counted
        // length must be exactly what printing the tree used to measure.
        for kind in NfKind::ALL {
            let mut nf = crate::registry::build_kind(kind);
            for i in 0..300u16 {
                let transport = if i % 3 == 0 {
                    TransportKind::Udp
                } else {
                    TransportKind::Tcp
                };
                let bytes = PacketBuilder::new()
                    .ports(1000 + i % 97, 80 + i % 5)
                    .transport(transport)
                    .total_len(64 + usize::from(i) * 4)
                    .build();
                let mut packet = Packet::from_bytes(u64::from(i), bytes, SimTime::ZERO);
                nf.process(
                    &mut packet,
                    &NfContext::at(SimTime::from_micros(u64::from(i))),
                );
                if i == 150 {
                    nf.clear_dirty();
                }
            }
            for state in [nf.export_state(), nf.export_dirty_state()] {
                let printed = serde_json::to_string(&state.data).unwrap().len() as u64;
                assert_eq!(
                    state.estimated_size,
                    ByteSize::bytes(printed * 6 / 10),
                    "{kind}"
                );
            }
        }
    }

    #[test]
    fn context_carries_time() {
        let ctx = NfContext::at(SimTime::from_micros(9));
        assert_eq!(ctx.now, SimTime::from_micros(9));
    }
}
