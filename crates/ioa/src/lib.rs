//! Execution kit for I/O-automaton-style components (§2 of the paper).
//!
//! The paper models every component — end-points, the membership service,
//! the `CO_RFIFO` substrate — as an I/O automaton: a state machine whose
//! locally controlled actions fire when their preconditions hold, under a
//! fairness condition over tasks. This crate provides the machinery shared
//! by the executable transcriptions of those automata:
//!
//! * [`time::SimTime`] — discrete simulated time.
//! * [`rng::SimRng`] — seeded, reproducible randomness for schedule and
//!   fault exploration.
//! * [`trace::Trace`] — a recorded global execution trace of external
//!   actions, with projections and JSON export.
//! * [`check::Checker`] — the interface spec automata implement to validate
//!   traces (the executable counterpart of the paper's trace-inclusion
//!   proofs), and [`check::CheckSet`] to run many at once.

#![warn(missing_docs)]
#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "outside P1: `CheckSet::assert_clean` panics for tests; expects state invariants"
)]

pub mod check;
pub mod depend;
pub mod rng;
pub mod time;
pub mod trace;

pub use check::{CheckSet, Checker, Violation};
pub use depend::{Dependence, SleepSet};
pub use rng::SimRng;
pub use time::SimTime;
pub use trace::{Trace, TraceEntry};
