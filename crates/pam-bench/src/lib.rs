//! Benchmark crate: the Criterion targets under `benches/` time the code
//! paths the perf ledger in `bench/` does not yet cover — live-migration
//! cost (A4), the PCIe crossing-latency sweep (A3) and wire parsing with
//! per-packet vNF work. Each ablation target prints its reproduced rows
//! before timing. Every other host-time measurement of the simulator lives
//! in the ledger; the experiment index is the `pam-experiments` crate
//! documentation.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(
    clippy::dbg_macro,
    clippy::todo,
    clippy::unimplemented,
    clippy::mem_forget
)]
