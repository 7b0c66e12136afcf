//! The perf ledger: five workloads, eight end-to-end metrics and per-layer
//! attribution for the PAM simulator. See `bench/README.md`.
//!
//! Every number is labelled **host** (what the simulator costs), **sim**
//! (what the modelled SmartNIC/CPU server would take) or **exact** (a count
//! the program makes). Sim and exact numbers repeat exactly for a seed.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
pub mod alloc_count;
pub mod catalog;
pub mod child;
pub mod cli;
pub mod driver;
pub mod host;
pub mod layers;
pub mod spans;
pub mod stats;
pub mod surface;

#[global_allocator]
static ALLOCATOR: alloc_count::CountingAllocator = alloc_count::CountingAllocator;
