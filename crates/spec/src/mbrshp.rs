//! `MBRSHP` — membership service safety specification (Fig. 2).

use vsgm_ioa::{Checker, TraceEntry, Violation};
use vsgm_types::{Event, ProcSet, ProcessId, StartChangeId, VecMap, View, ViewId};

/// Per-process mode of the membership service (Fig. 2, `mode[p]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Normal,
    ChangeStarted,
}

#[derive(Debug, Clone)]
struct PerProc {
    /// `mbrshp_view[p].id` — only the identifier matters for the
    /// preconditions; preserved across crashes (§8: the membership service
    /// does not crash).
    view_id: ViewId,
    /// `start_change[p]`.
    sc_id: StartChangeId,
    sc_set: ProcSet,
    mode: Mode,
    /// Whether `start_change[p]` still holds its initial value (`cid₀`
    /// with an empty set). The first real `start_change` must only be
    /// *≥*-comparable against `cid₀` per the strict `cid >
    /// start_change[p].id` precondition, so we track initiality to allow
    /// `cid₀` itself never to be reused.
    initial: bool,
}

impl PerProc {
    fn new(p: ProcessId) -> Self {
        let _ = p;
        PerProc {
            view_id: ViewId::ZERO,
            sc_id: StartChangeId::ZERO,
            sc_set: ProcSet::new(),
            mode: Mode::Normal,
            initial: true,
        }
    }
}

/// Checker for the membership service safety specification (Fig. 2).
///
/// Validates, for every process `p`:
///
/// * `start_change_p(cid, set)`: `cid` strictly exceeds the previous
///   start-change id at `p`, and `p ∈ set`.
/// * `view_p(v)`: *Local Monotonicity* (`v.id > mbrshp_view[p].id`),
///   `v.set ⊆ start_change[p].set`, *Self Inclusion* (`p ∈ v.set`),
///   `v.startId(p) = start_change[p].id`, and a `start_change` preceded
///   the view (`mode[p] = change_started`).
///
/// §8: `crash_p` leaves the service state intact; `recover_p` resets
/// `mode[p]` to `normal`, forcing a fresh `start_change` before the next
/// view.
#[derive(Debug, Default)]
pub struct MbrshpSpec {
    procs: VecMap<ProcessId, PerProc>,
}

impl MbrshpSpec {
    /// Creates the checker in the spec's initial state.
    pub fn new() -> Self {
        MbrshpSpec::default()
    }

    fn proc(&mut self, p: ProcessId) -> &mut PerProc {
        self.procs.entry(p).or_insert_with(|| PerProc::new(p))
    }
}

impl Checker for MbrshpSpec {
    fn observe(&mut self, entry: &TraceEntry) -> Result<(), Violation> {
        let step = entry.step;
        match &entry.event {
            Event::MbrshpStartChange { p, cid, set } => {
                let st = self.proc(*p);
                if !st.initial && *cid <= st.sc_id {
                    return Err(Violation::at_step(
                        "MBRSHP",
                        step,
                        format!(
                            "start_change_{p}: cid {cid} not greater than previous {}",
                            st.sc_id
                        ),
                    ));
                }
                // (For the first change any cid is acceptable:
                // StartChangeId::ZERO is the type's minimum, so the spec's
                // `cid ≥ cid₀` holds by construction.)
                if !set.contains(p) {
                    return Err(Violation::at_step(
                        "MBRSHP",
                        step,
                        format!("start_change_{p}: p not in suggested set {set:?}"),
                    ));
                }
                st.sc_id = *cid;
                st.sc_set = set.clone();
                st.mode = Mode::ChangeStarted;
                st.initial = false;
                Ok(())
            }
            Event::MbrshpView { p, view } => {
                let st = self.proc(*p);
                check_view_preconditions(*p, view, st, step)?;
                st.view_id = view.id();
                st.mode = Mode::Normal;
                Ok(())
            }
            Event::Recover { p } => {
                // §8: recover_p() sets mbrshp.mode[p] to normal.
                self.proc(*p).mode = Mode::Normal;
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

fn check_view_preconditions(
    p: ProcessId,
    view: &View,
    st: &PerProc,
    step: u64,
) -> Result<(), Violation> {
    if view.id() <= st.view_id {
        return Err(Violation::at_step(
            "MBRSHP",
            step,
            format!(
                "view_{p}: Local Monotonicity violated, {} not greater than {}",
                view.id(),
                st.view_id
            ),
        ));
    }
    if !view.contains(p) {
        return Err(Violation::at_step(
            "MBRSHP",
            step,
            format!("view_{p}: Self Inclusion violated, {p} not in {view}"),
        ));
    }
    if st.mode != Mode::ChangeStarted {
        return Err(Violation::at_step(
            "MBRSHP",
            step,
            format!("view_{p}: no start_change preceded this view (mode=normal)"),
        ));
    }
    if !view.members().iter().all(|m| st.sc_set.contains(m)) {
        return Err(Violation::at_step(
            "MBRSHP",
            step,
            format!(
                "view_{p}: member set {:?} not a subset of suggested set {:?}",
                view.members(),
                st.sc_set
            ),
        ));
    }
    if view.start_id(p) != Some(st.sc_id) {
        return Err(Violation::at_step(
            "MBRSHP",
            step,
            format!(
                "view_{p}: startId(p) = {:?} but last start_change id at p is {}",
                view.start_id(p),
                st.sc_id
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_ioa::{SimTime, Trace};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn set(ids: &[u64]) -> ProcSet {
        ids.iter().map(|&i| p(i)).collect()
    }

    fn run(events: Vec<Event>) -> Vec<Violation> {
        let mut trace = Trace::new();
        for e in events {
            trace.record(SimTime::ZERO, e);
        }
        let mut spec = MbrshpSpec::new();
        let mut violations = Vec::new();
        for entry in trace.entries() {
            if let Err(v) = spec.observe(entry) {
                violations.push(v);
            }
        }
        violations
    }

    fn view(epoch: u64, members: &[u64], cids: &[u64]) -> View {
        View::new(
            ViewId::new(epoch, 0),
            members.iter().map(|&i| p(i)),
            members.iter().zip(cids).map(|(&i, &c)| (p(i), StartChangeId::new(c))),
        )
    }

    #[test]
    fn normal_sequence_accepted() {
        let v = view(1, &[1, 2], &[1, 1]);
        let violations = run(vec![
            Event::MbrshpStartChange { p: p(1), cid: StartChangeId::new(1), set: set(&[1, 2]) },
            Event::MbrshpStartChange { p: p(2), cid: StartChangeId::new(1), set: set(&[1, 2]) },
            Event::MbrshpView { p: p(1), view: v.clone() },
            Event::MbrshpView { p: p(2), view: v },
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn view_without_start_change_rejected() {
        let v = view(1, &[1], &[1]);
        let violations = run(vec![Event::MbrshpView { p: p(1), view: v }]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("no start_change"), "{violations:?}");
    }

    #[test]
    fn non_monotone_cid_rejected() {
        let violations = run(vec![
            Event::MbrshpStartChange { p: p(1), cid: StartChangeId::new(5), set: set(&[1]) },
            Event::MbrshpStartChange { p: p(1), cid: StartChangeId::new(5), set: set(&[1]) },
        ]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("not greater"));
    }

    #[test]
    fn self_exclusion_in_start_change_rejected() {
        let violations = run(vec![Event::MbrshpStartChange {
            p: p(1),
            cid: StartChangeId::new(1),
            set: set(&[2, 3]),
        }]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("p not in suggested set"));
    }

    #[test]
    fn view_id_monotonicity_enforced() {
        let v1 = view(2, &[1], &[1]);
        let v2 = view(1, &[1], &[2]); // smaller epoch
        let violations = run(vec![
            Event::MbrshpStartChange { p: p(1), cid: StartChangeId::new(1), set: set(&[1]) },
            Event::MbrshpView { p: p(1), view: v1 },
            Event::MbrshpStartChange { p: p(1), cid: StartChangeId::new(2), set: set(&[1]) },
            Event::MbrshpView { p: p(1), view: v2 },
        ]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("Local Monotonicity"));
    }

    #[test]
    fn view_members_must_be_subset_of_suggested() {
        let v = view(1, &[1, 2], &[1, 0]);
        let violations = run(vec![
            Event::MbrshpStartChange { p: p(1), cid: StartChangeId::new(1), set: set(&[1]) },
            Event::MbrshpView { p: p(1), view: v },
        ]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("subset"));
    }

    #[test]
    fn start_id_must_match_last_start_change() {
        let v = view(1, &[1], &[9]); // startId(p1) = 9 but last cid was 1
        let violations = run(vec![
            Event::MbrshpStartChange { p: p(1), cid: StartChangeId::new(1), set: set(&[1]) },
            Event::MbrshpView { p: p(1), view: v },
        ]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("startId"));
    }

    #[test]
    fn two_views_require_two_start_changes() {
        let v1 = view(1, &[1], &[1]);
        let v2 = view(2, &[1], &[1]);
        let violations = run(vec![
            Event::MbrshpStartChange { p: p(1), cid: StartChangeId::new(1), set: set(&[1]) },
            Event::MbrshpView { p: p(1), view: v1 },
            Event::MbrshpView { p: p(1), view: v2 }, // mode back to normal ⇒ reject
        ]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("no start_change"));
    }

    #[test]
    fn recovery_resets_mode() {
        let v1 = view(1, &[1], &[1]);
        let violations = run(vec![
            Event::MbrshpStartChange { p: p(1), cid: StartChangeId::new(1), set: set(&[1]) },
            Event::Crash { p: p(1) },
            Event::Recover { p: p(1) },
            // mode was reset to normal by recovery ⇒ view without a fresh
            // start_change is rejected.
            Event::MbrshpView { p: p(1), view: v1 },
        ]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("no start_change"));
    }

    #[test]
    fn cascading_start_changes_allowed_before_view() {
        // The spec explicitly allows adding processes mid-reconfiguration
        // as long as a new start_change is sent.
        let v = view(1, &[1, 2, 3], &[2, 0, 0]);
        let violations = run(vec![
            Event::MbrshpStartChange { p: p(1), cid: StartChangeId::new(1), set: set(&[1, 2]) },
            Event::MbrshpStartChange { p: p(1), cid: StartChangeId::new(2), set: set(&[1, 2, 3]) },
            Event::MbrshpView { p: p(1), view: v },
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
