//! **vsgm-chaos** — randomized fault-injection search over the complete
//! protocol stack, with deterministic replay and failing-run minimization.
//!
//! Three pieces, composable as a library and packaged as the `chaos` bin:
//!
//! * [`gen`] — a generator that turns a `u64` seed into a random but
//!   *legal* [`vsgm_harness::Scenario`]: message workloads, partitions and
//!   heals, crashes (including crashes in the middle of a sync round),
//!   recoveries, `start_change` cascades, and a network [`FaultPlan`]
//!   (drop / burst loss / reorder jitter) that stays inside the `CO_RFIFO`
//!   spec envelope. Legality matters: the membership oracle panics on
//!   nonsensical scripts (a `form_view` nobody asked for), and such a
//!   panic must never be confused with a protocol bug.
//! * [`run`] — executes a scenario under the *full* oracle: every spec
//!   automaton from `vsgm-spec`, the paper invariants, and — after a
//!   stabilization phase that heals, recovers, and reconfigures to the
//!   whole group — conditional liveness (Property 4.2). Any violation or
//!   panic becomes a structured [`run::Failure`] with the trace of the
//!   dying run attached.
//! * [`minimize`] — delta-debugging over a failing scenario: drop steps,
//!   weaken fault fields, shrink the group, while the failure signature
//!   (same kind, same first checker) is preserved. The output is a
//!   minimal reproducer small enough to read.
//!
//! Everything downstream of the seed is deterministic: same seed, same
//! scenario, same schedule, same faults, byte-identical report. A failure
//! found on seed `s` anywhere reproduces from `--seed s` everywhere.
//!
//! [`FaultPlan`]: vsgm_net::FaultPlan

#![warn(missing_docs)]
#![allow(clippy::expect_used, reason = "outside P1: a test driver, not protocol code")]

pub mod gen;
pub mod minimize;
pub mod run;

pub use gen::{generate, ChaosConfig, CorruptMode};
pub use minimize::{minimize, Minimized};
pub use run::{batch_for_seed, run_scenario, validate, Artifact, Failure, RunOptions, RunOutcome};
