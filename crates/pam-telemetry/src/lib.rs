//! Telemetry primitives for the PAM workspace.
//!
//! The poster's control loop "periodically query\[s\] the load of SmartNIC and
//! CPU" — this crate provides the measurement machinery behind that query,
//! plus the latency/throughput instrumentation the experiments report:
//!
//! * [`Counter`] — monotone event counters.
//! * [`LatencyHistogram`] — a log-bucketed streaming histogram with
//!   mean/percentile queries, used for every per-packet latency figure.
//! * [`ThroughputMeter`] — windowed delivered-throughput measurement.
//! * [`TimeSeries`] — bounded time-stamped samples (utilisation over time).
//! * [`MetricsRegistry`] — a shareable registry the runtime writes and the
//!   orchestrator reads, mirroring an operator's monitoring endpoint.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(
    clippy::dbg_macro,
    clippy::todo,
    clippy::unimplemented,
    clippy::mem_forget
)]
#![warn(missing_docs)]

pub mod histogram;
pub mod meters;
pub mod registry;

pub use histogram::{LatencyHistogram, LatencySample};
pub use meters::{Counter, ThroughputMeter, TimeSeries};
pub use registry::{ChainMetrics, MetricsRegistry};
