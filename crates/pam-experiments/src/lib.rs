//! The experiment harness: every table and figure of the poster, regenerated.
//!
//! | Experiment | Paper artefact | Entry point |
//! |------------|----------------|-------------|
//! | E1 | Table 1 — vNF capacities on SmartNIC and CPU | [`table1::run_table1`] |
//! | E2 | Figure 2(a) — service-chain latency (Original / Naive / PAM) | [`figure2::run_figure2`] |
//! | E3 | Figure 2(b) — service-chain throughput (Original / Naive / PAM) | [`figure2::run_figure2`] |
//! | A1 | Ablation — algorithm decision time | the perf ledger's `core.decide_ns` (`bench/`) |
//! | A2 | Ablation — strategy comparison over random chains | [`ablations::strategy_sweep`] |
//! | A3 | Ablation — latency penalty vs PCIe crossing latency | [`ablations::pcie_sweep`] |
//! | A4 | Ablation — live-migration cost vs flow-table size | [`ablations::migration_cost_sweep`] |
//! | F1 | Fleet — scenario × strategy matrix behind CI's perf gate | [`fleet::run_fleet_matrix`] |
//! | F2 | Fleet — failure scenarios under invariant pins (crash mid-pre-copy, link-flap storm, correlated crash/recovery) | [`faults::run_fault_scenarios`] |
//!
//! Each experiment returns plain data rows plus a [`report`]-rendered text
//! table whose layout mirrors the paper, so `pam_repro`'s stdout doubles as
//! the experiment record.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(
    clippy::dbg_macro,
    clippy::todo,
    clippy::unimplemented,
    clippy::mem_forget
)]
#![warn(missing_docs)]

pub mod ablations;
pub mod faults;
pub mod figure2;
pub mod fleet;
pub mod report;
pub mod scenarios;
pub mod table1;

pub use faults::{run_fault_scenarios, FaultAudit, FaultCell, FaultScenario, FaultScenarioKind};
pub use figure2::{run_figure2, Figure2Config, Figure2Results, Figure2Row};
pub use fleet::{
    run_estimator_ablation, run_fleet_matrix, EstimatorCell, FleetBenchEntry, FleetBenchOutput,
    FleetScenario, FleetScenarioKind, FleetTuning,
};
pub use scenarios::Figure1Scenario;
pub use table1::{run_table1, Table1Results};
