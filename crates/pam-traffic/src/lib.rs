//! Synthetic traffic generation.
//!
//! The paper's evaluation drives the service chain with a DPDK packet sender
//! sweeping packet sizes from 64 B to 1500 B. This crate is the simulated
//! counterpart: it synthesises reproducible packet streams — real frames
//! built with `pam-wire`, grouped into flows, paced by an arrival process —
//! that the runtime feeds into the chain.
//!
//! * [`PacketSizeProfile`] — fixed sizes, the paper's 64–1500 B sweep, or the
//!   classic IMIX mix.
//! * [`FlowGenerator`] — a pool of synthetic 5-tuples with Zipf-distributed
//!   popularity (a few heavy flows, many mice), as seen in real traces.
//! * [`ArrivalProcess`] — constant-bit-rate, Poisson or bursty on/off pacing
//!   towards a target offered load.
//! * [`TrafficSchedule`] — piecewise-constant offered load over time, used to
//!   create the traffic fluctuation that overloads the SmartNIC mid-run.
//! * [`TraceSynthesizer`] — combines the above into a deterministic stream of
//!   [`pam_nf::Packet`]s with ingress timestamps, or of [`PacketDraw`]s that
//!   build their frame on demand.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(
    clippy::dbg_macro,
    clippy::todo,
    clippy::unimplemented,
    clippy::mem_forget
)]
#![warn(missing_docs)]

pub mod arrival;
pub mod flows;
pub mod schedule;
pub mod size;
pub mod trace;

pub use arrival::ArrivalProcess;
pub use flows::{FlowGenerator, FlowGeneratorConfig};
pub use schedule::{Phase, TrafficSchedule};
pub use size::PacketSizeProfile;
pub use trace::{PacketDraw, TraceConfig, TraceSynthesizer};
