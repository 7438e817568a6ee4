//! **vsgm-explore** — bounded exhaustive model checking of the composed
//! protocol (DESIGN.md §14).
//!
//! The chaos searcher (`vsgm-chaos`) samples schedules randomly; rare
//! interleavings around the synchronization cut (Fig. 10) can hide
//! violations forever. This crate instead enumerates **every**
//! interleaving of a small configuration — 3–4 end-points, one or two
//! view changes, optional crash/recovery — over the same `vsgm-core`
//! endpoints and idealized per-channel FIFO network used by the
//! fine-grained schedule-exploration tests, and judges every terminal
//! path with the full shared spec suite ([`vsgm_spec::judge_trace`]):
//! all seven safety automata plus Property 4.2 conditional liveness.
//!
//! Exhaustive enumeration is made tractable by DPOR-style partial-order
//! reduction: sleep sets ([`vsgm_ioa::SleepSet`]) over a conservative
//! per-endpoint dependence relation prune interleavings that only swap
//! commuting transitions. Canonical path and state counts for the seed
//! configurations are pinned as regression tests, so both a pruning bug
//! and a protocol change that alters the reachable state space fail
//! loudly.
//!
//! * [`config`] — scripted external events and the seed configurations.
//! * [`machine`] — the composed state, schedulable transitions, and the
//!   dependence relation.
//! * [`run`] — the DFS explorer, statistics, counterexamples, replay.

#![warn(missing_docs)]
#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "outside P1: a model checker fails loudly when its model breaks"
)]

pub mod config;
pub mod machine;
pub mod run;

pub use config::{ExploreConfig, ExtEvent, ExtKind};
pub use machine::{Machine, State, Transition};
pub use run::{explore, replay, Counterexample, ExploreOptions, Outcome, Stats};
