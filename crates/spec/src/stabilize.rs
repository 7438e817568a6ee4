//! Convergence-to-legal-state judging for the self-stabilization tier.
//!
//! A state-corruption fault (see `vsgm_core::corrupt`) transiently breaks
//! the endpoint's protocol state; per the self-stabilization literature
//! the system is judged not on the deviation window but on whether it
//! **converges**: after detection (`vsgm_core::audit`) and reconciliation
//! (the §8 recovery path) the behaviour must again satisfy every
//! specification. This module makes that judgment executable by splitting
//! a recorded trace in three:
//!
//! ```text
//!   [0, injection)            — pre-fault: every safety spec must hold
//!   [injection, stabilized)   — deviation window: not judged
//!   [stabilized, end)         — suffix: the FULL oracle suite must hold
//! ```
//!
//! The suffix is judged with *fresh* checkers, which would wrongly reject
//! cross-process deliveries in views installed before the split. We
//! therefore replay the prefix to derive one **snapshot** per live
//! process — its current view and reliable-connection declaration as of
//! the split — and prepend the equivalent events ([`snapshot_entries`]),
//! so the suffix checkers start from the legal state the run actually
//! stabilized into rather than from a blank slate.

use crate::{full_checks, standard_checks};
use std::collections::BTreeMap;
use vsgm_ioa::{SimTime, TraceEntry, Violation};
use vsgm_types::{Event, ProcSet, ProcessId, View};

/// Per-process externally visible state as of a trace split point.
#[derive(Debug, Default, Clone)]
struct Snapshot {
    view: Option<View>,
    reliable: Option<ProcSet>,
    crashed: bool,
}

/// Verdict of a split-trace stabilization judgment ([`judge_split`]).
#[derive(Debug)]
pub struct ConvergenceReport {
    /// Safety violations strictly before the corruption was injected —
    /// these predate the fault and are genuine protocol bugs.
    pub pre_violations: Vec<Violation>,
    /// Violations of the full suite on the post-stabilization suffix —
    /// non-empty means the system failed to converge to a legal state.
    pub post_violations: Vec<Violation>,
    /// Synthesized snapshot events prepended to the suffix.
    pub snapshots: usize,
}

impl ConvergenceReport {
    /// Whether the run both behaved legally before the fault and
    /// converged to legal behaviour after stabilization.
    pub fn converged(&self) -> bool {
        self.pre_violations.is_empty() && self.post_violations.is_empty()
    }

    /// All violations, pre-fault first.
    pub fn violations(&self) -> Vec<Violation> {
        self.pre_violations.iter().chain(&self.post_violations).cloned().collect()
    }
}

/// Replays `prefix` and derives the snapshot events a fresh checker set
/// needs to judge the remainder of the trace: for every process, its
/// reliable-set declaration and then its current view (with the trivial
/// transitional set `{p}`), as of the end of the prefix. Snapshots equal
/// to a fresh checker's defaults (initial singleton view, self-only
/// reliable set) are omitted; a process down at the split contributes a
/// `crash` event instead.
pub fn snapshot_entries(prefix: &[TraceEntry]) -> Vec<TraceEntry> {
    let mut snaps: BTreeMap<ProcessId, Snapshot> = BTreeMap::new();
    for entry in prefix {
        match &entry.event {
            Event::GcsView { p, view, .. } => {
                snaps.entry(*p).or_default().view = Some(view.clone());
            }
            Event::Reliable { p, set } => {
                snaps.entry(*p).or_default().reliable = Some(set.clone());
            }
            // §8: a crash wipes the endpoint; recovery restarts it in its
            // initial state, which is exactly a fresh checker's default.
            Event::Crash { p } => {
                snaps.insert(*p, Snapshot { crashed: true, ..Snapshot::default() });
            }
            Event::Recover { p } => {
                snaps.entry(*p).or_default().crashed = false;
            }
            _ => {}
        }
    }
    let (step, time) = prefix.last().map(|e| (e.step, e.time)).unwrap_or((0, SimTime::ZERO));
    let mut out = Vec::new();
    let mut push = |event: Event| out.push(TraceEntry { step, time, event });
    for (p, snap) in snaps {
        if snap.crashed {
            push(Event::Crash { p });
            continue;
        }
        let self_only: ProcSet = [p].into_iter().collect();
        if let Some(set) = snap.reliable {
            if set != self_only {
                push(Event::Reliable { p, set });
            }
        }
        if let Some(view) = snap.view {
            if view != View::initial(p) {
                push(Event::GcsView { p, view, transitional: self_only });
            }
        }
    }
    out
}

/// Judges `entries[split..]` with the full oracle suite
/// ([`full_checks`]), prepending the prefix-derived [`snapshot_entries`]
/// so the fresh checkers start from the state the run stabilized into.
/// Returns the violations and the number of snapshots synthesized.
pub fn judge_suffix(
    entries: &[TraceEntry],
    split: usize,
    final_view: Option<View>,
) -> (Vec<Violation>, usize) {
    let split = split.min(entries.len());
    let prefix = entries.get(..split).unwrap_or(&[]);
    let suffix = entries.get(split..).unwrap_or(&[]);
    let mut replay = snapshot_entries(prefix);
    let snapshots = replay.len();
    replay.extend(suffix.iter().cloned());
    let mut set = full_checks(final_view);
    (set.run(&replay).to_vec(), snapshots)
}

/// The complete three-part judgment: safety specs on the pre-fault
/// prefix `[0, injection)`, nothing on the deviation window, and the full
/// suite (with snapshots) on the suffix `[stabilized, ..)`.
///
/// `injection` is the trace length when the first corruption was
/// injected; `stabilized` is the trace length once the run went quiescent
/// after reconciliation (the convergence point under test). Marks are
/// clamped into range (and `stabilized` to at least `injection`), so the
/// call is total.
pub fn judge_split(
    entries: &[TraceEntry],
    injection: usize,
    stabilized: usize,
    final_view: Option<View>,
) -> ConvergenceReport {
    let injection = injection.min(entries.len());
    let stabilized = stabilized.clamp(injection, entries.len());
    let pre = entries.get(..injection).unwrap_or(&[]);
    let mut safety = standard_checks();
    let pre_violations = safety.run(pre).to_vec();
    let (post_violations, snapshots) = judge_suffix(entries, stabilized, final_view);
    ConvergenceReport { pre_violations, post_violations, snapshots }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_types::{AppMsg, StartChangeId, ViewId};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn set(ids: &[u64]) -> ProcSet {
        ids.iter().map(|&i| ProcessId::new(i)).collect()
    }

    fn view12(epoch: u64) -> View {
        View::new(
            ViewId::new(epoch, 0),
            [p(1), p(2)],
            [(p(1), StartChangeId::new(epoch)), (p(2), StartChangeId::new(epoch))],
        )
    }

    fn trace(events: Vec<Event>) -> Vec<TraceEntry> {
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceEntry { step: i as u64, time: SimTime::ZERO, event })
            .collect()
    }

    /// Both processes install `view12(1)` and declare each other
    /// reliable; returns the events.
    fn installed_prefix() -> Vec<Event> {
        let v = view12(1);
        let mut evs = Vec::new();
        for i in [1u64, 2] {
            evs.push(Event::MbrshpStartChange {
                p: p(i),
                cid: StartChangeId::new(1),
                set: set(&[1, 2]),
            });
        }
        for i in [1u64, 2] {
            evs.push(Event::MbrshpView { p: p(i), view: v.clone() });
        }
        for i in [1u64, 2] {
            evs.push(Event::Reliable { p: p(i), set: set(&[1, 2]) });
            evs.push(Event::GcsView { p: p(i), view: v.clone(), transitional: set(&[i]) });
        }
        evs
    }

    #[test]
    fn empty_trace_converges() {
        let report = judge_split(&[], 0, 0, None);
        assert!(report.converged(), "{report:?}");
        assert_eq!(report.snapshots, 0);
    }

    #[test]
    fn snapshots_skip_fresh_checker_defaults() {
        // p1 has installed a real view; p2 appears only with defaults.
        let entries = trace(vec![
            Event::Reliable { p: p(1), set: set(&[1, 2]) },
            Event::GcsView { p: p(1), view: view12(1), transitional: set(&[1]) },
            Event::Reliable { p: p(2), set: set(&[2]) },
        ]);
        let snaps = snapshot_entries(&entries);
        assert_eq!(snaps.len(), 2, "{snaps:?}");
        assert!(matches!(&snaps[0].event, Event::Reliable { p: q, .. } if *q == p(1)));
        assert!(matches!(&snaps[1].event, Event::GcsView { p: q, .. } if *q == p(1)));
    }

    #[test]
    fn crash_wipes_a_snapshot_and_recovery_resets_it() {
        let mut evs = installed_prefix();
        evs.push(Event::Crash { p: p(2) });
        let snaps = snapshot_entries(&trace(evs.clone()));
        // p1's two snapshot events plus p2's crash marker.
        assert_eq!(snaps.len(), 3, "{snaps:?}");
        assert!(matches!(&snaps[2].event, Event::Crash { p: q } if *q == p(2)));
        evs.push(Event::Recover { p: p(2) });
        let snaps = snapshot_entries(&trace(evs));
        // Recovered = initial state = fresh-checker default: no snapshot.
        assert_eq!(snaps.len(), 2, "{snaps:?}");
    }

    #[test]
    fn suffix_judgment_depends_on_the_snapshots() {
        // Suffix: p1 multicasts in view12(1) and both deliver.
        let mut evs = installed_prefix();
        let split = evs.len();
        evs.push(Event::Send { p: p(1), msg: AppMsg::from("x") });
        evs.push(Event::Deliver { p: p(1), q: p(1), msg: AppMsg::from("x") });
        evs.push(Event::Deliver { p: p(2), q: p(1), msg: AppMsg::from("x") });
        let entries = trace(evs);
        // Fresh checkers on the bare suffix reject the cross-process
        // delivery (p2 still in its initial singleton view)...
        let bare = crate::judge_trace(entries.get(split..).unwrap_or(&[]), None);
        assert!(!bare.is_empty(), "bare suffix should not stand alone");
        // ...but with the synthesized snapshots the suffix is legal.
        let (violations, snapshots) = judge_suffix(&entries, split, None);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(snapshots, 4, "two events for each of p1, p2");
    }

    #[test]
    fn judge_split_flags_pre_fault_violations() {
        // A self-inclusion violation before the injection mark is a real
        // bug, not a corruption symptom.
        let v1only = View::new(ViewId::new(1, 0), [p(1)], [(p(1), StartChangeId::new(1))]);
        let entries =
            trace(vec![Event::GcsView { p: p(2), view: v1only, transitional: set(&[2]) }]);
        let report = judge_split(&entries, 1, 1, None);
        assert!(!report.converged());
        assert!(!report.pre_violations.is_empty());
    }

    #[test]
    fn deviation_window_is_not_judged_but_suffix_is() {
        let mut evs = installed_prefix();
        let injection = evs.len();
        // Deviation window: an out-of-thin-air delivery (corruption
        // symptom) that must NOT fail the judgment...
        evs.push(Event::Deliver { p: p(2), q: p(1), msg: AppMsg::from("forged") });
        let stabilized = evs.len();
        // ...and a legal suffix.
        evs.push(Event::Send { p: p(2), msg: AppMsg::from("ok") });
        evs.push(Event::Deliver { p: p(2), q: p(2), msg: AppMsg::from("ok") });
        evs.push(Event::Deliver { p: p(1), q: p(2), msg: AppMsg::from("ok") });
        let entries = trace(evs);
        let report = judge_split(&entries, injection, stabilized, None);
        assert!(report.converged(), "{report:?}");
        // The same forged delivery inside the judged region fails.
        let report = judge_split(&entries, entries.len(), entries.len(), None);
        assert!(!report.converged());
    }

    #[test]
    fn marks_are_clamped_into_range() {
        let entries = trace(installed_prefix());
        let report = judge_split(&entries, usize::MAX, 0, None);
        assert!(report.converged(), "{report:?}");
    }
}
