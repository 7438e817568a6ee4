//! Executable specification automata for the vsgm stack.
//!
//! Each checker transcribes a specification automaton from the paper into
//! a [`vsgm_ioa::Checker`] that replays a global trace and rejects it if
//! any observed external action has no enabled transition in the spec:
//!
//! | Module | Spec | Paper figure |
//! |---|---|---|
//! | [`mbrshp`] | `MBRSHP` membership service safety | Fig. 2 |
//! | [`co_rfifo`] | `CO_RFIFO` reliable FIFO multicast | Fig. 3 |
//! | [`view_sync`] | [`ViewSyncSpec`]: the next three as one automaton | Figs. 4–6 |
//! | `wv_rfifo` | its `WV_RFIFO:SPEC` part: within-view reliable FIFO | Fig. 4 |
//! | `vs_rfifo` | its `VS_RFIFO:SPEC` part: virtual synchrony (agreed cuts) | Fig. 5 |
//! | `trans_set` | its `TRANS_SET:SPEC` part: transitional sets | Fig. 6 / Property 4.1 |
//! | [`self_delivery`] | `SELF:SPEC` self delivery | Fig. 7 |
//! | [`client`] | `CLIENT:SPEC` blocking application client | Fig. 12 |
//! | [`liveness`] | Property 4.2 (conditional liveness) | §4.2 |
//!
//! Crash/recovery events (§8) are handled by every checker: while a
//! process is crashed its application-facing actions are violations, and
//! on recovery its per-incarnation state is reset while view-identifier
//! monotonicity is preserved across the crash (the paper's "preserve the
//! pre-crashed values of the `start_change` and `current_view`
//! variables").
//!
//! [`standard_checks`] builds the full safety [`CheckSet`] used by tests
//! and the simulation harness.

#![warn(missing_docs)]

pub mod client;
pub mod co_rfifo;
pub mod liveness;
pub mod mbrshp;
pub mod self_delivery;
pub mod stabilize;
mod trans_set;
pub mod view_sync;
mod vs_rfifo;
mod wv_rfifo;

pub use client::ClientSpec;
pub use co_rfifo::CoRfifoSpec;
pub use liveness::LivenessSpec;
pub use mbrshp::MbrshpSpec;
pub use self_delivery::SelfDeliverySpec;
pub use stabilize::{judge_split, judge_suffix, ConvergenceReport};
pub use view_sync::ViewSyncSpec;

use vsgm_ioa::{CheckSet, TraceEntry, Violation};
use vsgm_types::View;

/// Builds the standard battery of safety checkers: `MBRSHP`, `CO_RFIFO`,
/// `WV_RFIFO:SPEC` with `VS_RFIFO:SPEC` and `TRANS_SET:SPEC` (one
/// [`ViewSyncSpec`]), `SELF:SPEC`, and `CLIENT:SPEC`.
///
/// ```
/// let mut checks = vsgm_spec::standard_checks();
/// checks.run(&[]); // the empty trace satisfies every safety spec
/// checks.assert_clean();
/// ```
pub fn standard_checks() -> CheckSet {
    let mut set = CheckSet::new();
    set.add(MbrshpSpec::new());
    set.add(CoRfifoSpec::new());
    set.add(ViewSyncSpec::new());
    set.add(SelfDeliverySpec::new());
    set.add(ClientSpec::new());
    set
}

/// Builds the **full** oracle suite: every safety checker from
/// [`standard_checks`], plus — when `final_view` names the view the run
/// stabilizes to — the Property 4.2 conditional-liveness checker.
///
/// This is the single judging entry point shared by the simulation
/// harness (`vsgm-harness`), the fault-injection searcher (`vsgm-chaos`),
/// and the exhaustive interleaving explorer (`vsgm-explore`): all three
/// judge traces with exactly this battery, so a checker added here is
/// automatically enforced everywhere.
pub fn full_checks(final_view: Option<View>) -> CheckSet {
    let mut set = standard_checks();
    if let Some(v) = final_view {
        set.add(LivenessSpec::new(v));
    }
    set
}

/// Judges a complete recorded trace against [`full_checks`] and returns
/// every violation found (empty = the trace satisfies all specs; with a
/// `final_view`, also Property 4.2 for that view).
///
/// ```
/// assert!(vsgm_spec::judge_trace(&[], None).is_empty());
/// ```
pub fn judge_trace(entries: &[TraceEntry], final_view: Option<View>) -> Vec<Violation> {
    let mut set = full_checks(final_view);
    set.run(entries).to_vec()
}

// Declared down here so the doc-tests above keep the line numbers cargo
// names them by.
mod coverage;
mod forgetting;
