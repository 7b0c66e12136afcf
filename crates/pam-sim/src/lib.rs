//! Deterministic discrete-event simulation core for the PAM workspace.
//!
//! The paper's testbed — a Netronome Agilio CX SmartNIC, Xeon CPUs and the
//! PCIe link between them — is reproduced here as a discrete-event
//! simulation. This crate provides the reusable building blocks; the
//! packet-level service-chain runtime in `pam-runtime` composes them:
//!
//! * [`EventQueue`] and the [`EventHandler`]/[`run_until`] driver — a
//!   time-ordered, insertion-stable event loop. Determinism matters: two runs
//!   with the same seed produce byte-identical results, which the
//!   reproducibility tests rely on.
//! * [`SimRng`] — a seeded random-number generator with the sampling helpers
//!   the traffic generator and workloads need; [`GuidedCdf`] puts a guide
//!   table in front of an inverse-CDF search.
//! * [`CostMemo`] — a direct-mapped memo of per-length costs (service and
//!   serialisation times), bit-identical to the formula it caches.
//! * [`RateServer`] — a work-conserving FIFO server whose service times are
//!   derived from throughput capacities; this is what turns the paper's
//!   "resource utilisation grows linearly with throughput" assumption into
//!   packet timings.
//! * [`ComputeDevice`] — a SmartNIC NPU or host CPU modelled as a shared
//!   [`RateServer`] plus utilisation accounting (the quantity Eq. 2 and Eq. 3
//!   of the poster constrain).
//! * [`PcieLink`] — the latency/bandwidth model of the PCIe path between the
//!   two devices, with per-direction crossing counters.
//! * [`FairShareLink`] and [`LinkModel`] — an opt-in contention-aware
//!   throughput model where concurrent transfers on a link direction split
//!   the bandwidth via a pluggable [`DegradationFn`] (fair `throughput / n`
//!   by default); the FIFO-fixed model remains the baseline default.
//! * [`ReorderBuffer`] — a bounded link-reorder model (window `0` = FIFO)
//!   whose deliverable set is *enumerable*, so the protocol model checker in
//!   `pam-protocol` can branch on every legal delivery interleaving.
//! * [`FaultPlan`] — a seeded, serde-configured schedule of fault-injection
//!   events (server crashes/recoveries, link flaps, capacity swings) that the
//!   fleet layer delivers through its event queue, so chaos runs replay
//!   byte-identically at any shard/job count.
//! * [`ShardPlan`] — conservative-lookahead shard planning for parallel
//!   simulation: partitions nodes into groups no sub-barrier channel
//!   crosses, so a windowed runner can execute groups on worker threads and
//!   stay event-for-event identical at any lane count (`pam-fleet`'s
//!   `run_sharded` is the consumer).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(
    clippy::dbg_macro,
    clippy::todo,
    clippy::unimplemented,
    clippy::mem_forget
)]
#![warn(missing_docs)]

pub mod device;
pub mod events;
pub mod fault;
pub mod link;
pub mod memo;
pub mod reorder;
pub mod rng;
pub mod server;
pub mod shard;
pub mod sharing;

pub use device::{ComputeDevice, DeviceConfig, DeviceStats, ProcessOutcome};
pub use events::{run_until, EventHandler, EventQueue, ScheduledEvent};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanConfig};
pub use link::{
    LinkDirection, PcieLink, PcieLinkConfig, PcieLinkStats, TransferStatus, TransferToken,
};
pub use memo::CostMemo;
pub use reorder::ReorderBuffer;
pub use rng::{GuidedCdf, SimRng};
pub use server::{RateServer, ServerStats};
pub use shard::{ShardChannel, ShardPlan};
pub use sharing::{
    ActivityId, DegradationFn, FairShareLink, FairShareStats, LinkModel, SharedTransfer,
};
