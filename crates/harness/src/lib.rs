//! **vsgm-harness** — deterministic simulation of the complete system.
//!
//! Composes GCS end-points (`vsgm-core` or the `vsgm-baseline`
//! comparison algorithm) with the simulated `CO_RFIFO` network
//! (`vsgm-net`), a membership service (`vsgm-membership`), and blocking
//! application clients, under scenario control: partitions, heals,
//! crashes, recoveries, cascaded membership changes, and message
//! workloads. Every externally observable action is recorded in a global
//! [`vsgm_ioa::Trace`] and — when checking is enabled — validated *online*
//! against the full battery of specification automata from `vsgm-spec`.
//!
//! * [`sim::Sim`] — the oracle-driven simulator (scripted membership).
//! * [`server_sim::ServerSim`] — end-to-end runs with real membership
//!   servers exchanging proposals over their own simulated network.
//! * [`metrics`] — trace queries the experiments report.
//! * [`experiments`] — one function per experiment in `DESIGN.md` §5
//!   (E1–E11 plus the layer ablation), each regenerating one table of
//!   `EXPERIMENTS.md`.

#![warn(missing_docs)]
#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    clippy::panic,
    clippy::indexing_slicing,
    reason = "outside P1: a simulation harness fails loudly when a scenario or a run goes wrong"
)]

pub mod experiments;
pub mod metrics;
pub mod scenario;
pub mod server_sim;
pub mod sim;

pub use scenario::{apply_step, Scenario, Step};
pub use sim::{Sim, SimOptions};
