//! `VS_RFIFO:SPEC` — virtual synchrony via agreed cuts (Fig. 5).

use std::collections::BTreeMap;
use vsgm_ioa::{Checker, TraceEntry, Violation};
use vsgm_types::{Cut, Event, ProcessId, VecMap, View, ViewId};

/// Checker for the Virtual Synchrony property (Fig. 5).
///
/// The spec automaton nondeterministically fixes, per pair of views
/// `(v, v')`, a *cut* — the exact per-sender message counts every process
/// moving from `v` to `v'` must have delivered in `v` at the moment it
/// installs `v'`. The checker reconstructs the cut from the **first**
/// process observed making the transition (simulating the spec's internal
/// `set_cut` just before that `view` event, exactly as the paper's
/// refinement proof does with the `H_cut` history variable) and requires
/// every later process making the same transition to match it.
///
/// `VS_RFIFO:SPEC` is a child of `WV_RFIFO:SPEC` (Fig. 5 modifies Fig. 4),
/// so `view_p(v)` keeps the parent's Local Monotonicity precondition: a
/// `view` whose identifier does not exceed every one `p` was given before
/// is not a transition of this automaton either, and is rejected without
/// moving `p`.
///
/// # What is forgotten
///
/// `cut[v][v']` is read only by a process in `v` installing `v'`. Once no
/// process is in `v` and Local Monotonicity lets none enter it any more,
/// no event, legal or violating, can read `cut[v][·]`, and the checker
/// drops it.
#[derive(Debug, Default)]
pub struct VsRfifoSpec {
    current_view: VecMap<ProcessId, View>,
    /// Largest view id ever delivered to `p` (survives crashes).
    floor: VecMap<ProcessId, ViewId>,
    /// Messages delivered to `receiver` from `sender` in the receiver's
    /// current view: `last_dlvrd[(sender, receiver)]`.
    last_dlvrd: VecMap<(ProcessId, ProcessId), u64>,
    /// `cut[v][v']`, keyed by the (full-triple) views.
    cut: BTreeMap<(View, View), Cut>,
    /// Never forget anything: the reference the pruning differential
    /// test compares against.
    retain_all: bool,
}

impl VsRfifoSpec {
    /// Creates the checker in the spec's initial state.
    pub fn new() -> Self {
        VsRfifoSpec::default()
    }

    /// The checker that never forgets.
    #[cfg(test)]
    pub(crate) fn retaining() -> Self {
        VsRfifoSpec { retain_all: true, ..VsRfifoSpec::default() }
    }

    fn view_of(&self, p: ProcessId) -> View {
        self.current_view.get(&p).cloned().unwrap_or_else(|| View::initial(p))
    }

    fn delivered_cut(&self, receiver: ProcessId) -> Cut {
        self.last_dlvrd
            .iter()
            .filter(|((_, r), _)| *r == receiver)
            .map(|((s, _), n)| (*s, *n))
            .collect()
    }

    /// The agreed cut recorded for the transition `v → v'`, if any process
    /// has made it and one still can. Exposed for tests and experiment
    /// metrics.
    pub fn recorded_cut(&self, v: &View, v_new: &View) -> Option<&Cut> {
        self.cut.get(&(v.clone(), v_new.clone()))
    }

    /// Whether some process is in `v` or can still install it.
    fn reachable(&self, v: &View) -> bool {
        self.current_view.values().any(|cv| cv == v)
            || v.members().iter().any(|r| match self.floor.get(r) {
                Some(floor) => *floor < v.id(),
                // Never given a view: still in its initial one.
                None => true,
            })
    }

    /// Drops the cuts out of views nobody is in or can enter; run whenever
    /// a process changes view.
    fn forget_unreachable(&mut self) {
        if self.retain_all {
            return;
        }
        let mut cut = std::mem::take(&mut self.cut);
        cut.retain(|(v, _), _| self.reachable(v));
        self.cut = cut;
    }
}

impl Checker for VsRfifoSpec {
    fn name(&self) -> &'static str {
        "VS_RFIFO:SPEC"
    }

    fn observe(&mut self, entry: &TraceEntry) -> Result<(), Violation> {
        let step = entry.step;
        match &entry.event {
            Event::Deliver { p: receiver, q: sender, .. } => {
                *self.last_dlvrd.entry((*sender, *receiver)).or_insert(0) += 1;
                Ok(())
            }
            Event::GcsView { p, view: v_new, .. } => {
                let floor = self.floor.get(p).copied().unwrap_or(ViewId::ZERO);
                if v_new.id() <= floor {
                    return Err(Violation::at_step(
                        "VS_RFIFO:SPEC",
                        step,
                        format!(
                            "view_{p}: {} not greater than {floor} (Local Monotonicity, \
                             inherited from WV_RFIFO:SPEC)",
                            v_new.id()
                        ),
                    ));
                }
                let v_old = self.view_of(*p);
                let delivered = self.delivered_cut(*p);
                let key = (v_old.clone(), v_new.clone());
                if let Some(agreed) = self.cut.get(&key) {
                    // Later mover: must match the established cut exactly
                    // (pointwise, absent entries read as 0).
                    let senders: std::collections::BTreeSet<ProcessId> = agreed
                        .iter()
                        .map(|(s, _)| s)
                        .chain(delivered.iter().map(|(s, _)| s))
                        .collect();
                    for s in senders {
                        if delivered.get(s) != agreed.get(s) {
                            return Err(Violation::at_step(
                                "VS_RFIFO:SPEC",
                                step,
                                format!(
                                    "view_{p}: moving {} -> {} with {} messages delivered \
                                     from {s}, but the agreed cut says {} \
                                     (Virtual Synchrony violated)",
                                    v_old,
                                    v_new,
                                    delivered.get(s),
                                    agreed.get(s)
                                ),
                            ));
                        }
                    }
                } else {
                    // First mover: this fixes the cut (spec's set_cut).
                    self.cut.insert(key, delivered);
                }
                self.current_view.insert(*p, v_new.clone());
                self.floor.insert(*p, v_new.id());
                self.last_dlvrd.retain(|(_, r), _| r != p);
                self.forget_unreachable();
                Ok(())
            }
            Event::Recover { p } => {
                self.current_view.insert(*p, View::initial(*p));
                self.last_dlvrd.retain(|(_, r), _| r != p);
                self.forget_unreachable();
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_ioa::{SimTime, Trace};
    use vsgm_types::{AppMsg, StartChangeId, ViewId};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn view12(epoch: u64) -> View {
        View::new(
            ViewId::new(epoch, 0),
            [p(1), p(2)],
            [(p(1), StartChangeId::new(epoch)), (p(2), StartChangeId::new(epoch))],
        )
    }

    fn run(events: Vec<Event>) -> Vec<Violation> {
        let mut trace = Trace::new();
        for e in events {
            trace.record(SimTime::ZERO, e);
        }
        let mut spec = VsRfifoSpec::new();
        trace.entries().iter().filter_map(|e| spec.observe(e).err()).collect()
    }

    fn deliver(to: u64, from: u64, s: &str) -> Event {
        Event::Deliver { p: p(to), q: p(from), msg: AppMsg::from(s) }
    }

    fn install(at: u64, v: &View) -> Event {
        Event::GcsView { p: p(at), view: v.clone(), transitional: Default::default() }
    }

    #[test]
    fn same_cut_accepted() {
        let v1 = view12(1);
        let v2 = view12(2);
        let violations = run(vec![
            install(1, &v1),
            install(2, &v1),
            Event::Send { p: p(1), msg: AppMsg::from("a") },
            deliver(1, 1, "a"),
            deliver(2, 1, "a"),
            install(1, &v2),
            install(2, &v2),
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn diverging_cut_rejected() {
        let v1 = view12(1);
        let v2 = view12(2);
        let violations = run(vec![
            install(1, &v1),
            install(2, &v1),
            Event::Send { p: p(1), msg: AppMsg::from("a") },
            deliver(1, 1, "a"),
            install(1, &v2), // p1 moves having delivered 1 message from p1
            install(2, &v2), // p2 moves having delivered 0 ⇒ violation
        ]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("Virtual Synchrony"), "{violations:?}");
    }

    #[test]
    fn extra_delivery_before_move_rejected() {
        let v1 = view12(1);
        let v2 = view12(2);
        let violations = run(vec![
            install(1, &v1),
            install(2, &v1),
            Event::Send { p: p(2), msg: AppMsg::from("x") },
            install(1, &v2), // cut fixed at 0 messages from p2
            deliver(2, 2, "x"),
            install(2, &v2), // p2 delivered 1 ⇒ violation
        ]);
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn movers_from_different_old_views_unconstrained() {
        // p1 moves v1 -> v3, p2 moves v2 -> v3: different (old, new) pairs,
        // so their delivery counts need not match.
        let v1 = view12(1);
        let v2 = view12(2);
        let v3 = view12(3);
        let violations = run(vec![
            install(1, &v1),
            install(2, &v2),
            Event::Send { p: p(2), msg: AppMsg::from("x") },
            deliver(2, 2, "x"),
            install(1, &v3),
            install(2, &v3),
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn cut_recorded_for_first_mover() {
        let v1 = view12(1);
        let v2 = view12(2);
        let mut spec = VsRfifoSpec::new();
        let mut trace = Trace::new();
        for e in [
            install(1, &v1),
            Event::Send { p: p(1), msg: AppMsg::from("a") },
            deliver(1, 1, "a"),
            install(1, &v2),
        ] {
            trace.record(SimTime::ZERO, e);
        }
        for e in trace.entries() {
            spec.observe(e).unwrap();
        }
        let cut = spec.recorded_cut(&v1, &v2).unwrap();
        assert_eq!(cut.get(p(1)), 1);
    }

    #[test]
    fn recovery_resets_view_to_initial() {
        let v1 = view12(1);
        let v9 = view12(9);
        // After recovery p1's transition is initial(p1) -> v9, which has an
        // independent cut from the (v1 -> v9) transition.
        let violations = run(vec![
            install(1, &v1),
            Event::Crash { p: p(1) },
            Event::Recover { p: p(1) },
            install(1, &v9),
            install(2, &v9), // p2 moves initial(p2) -> v9: also fine
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    fn view123(epoch: u64) -> View {
        View::new(
            ViewId::new(epoch, 0),
            [p(1), p(2), p(3)],
            (1..=3).map(|i| (p(i), StartChangeId::new(epoch))),
        )
    }

    #[test]
    fn late_installer_is_still_held_to_the_agreed_cut() {
        // p1 and p2 have both left v2 when p3 first enters it: the cut for
        // v2 -> v3 must have been kept for as long as p3 could do that.
        let (v1, v2, v3) = (view123(1), view123(2), view123(3));
        let violations = run(vec![
            install(1, &v1),
            install(2, &v1),
            install(3, &v1),
            install(1, &v2),
            install(2, &v2),
            Event::Send { p: p(1), msg: AppMsg::from("a") },
            deliver(1, 1, "a"),
            deliver(2, 1, "a"),
            install(1, &v3),
            install(2, &v3),
            install(3, &v2),
            install(3, &v3), // delivered nothing from p1 in v2 ⇒ violation
        ]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].message.contains("Virtual Synchrony"), "{violations:?}");
    }

    #[test]
    fn cuts_out_of_a_view_nobody_can_reach_are_forgotten() {
        let v1 = view12(1);
        let v2 = view12(2);
        let mut spec = VsRfifoSpec::new();
        let mut trace = Trace::new();
        for e in [install(1, &v1), install(2, &v1), install(1, &v2)] {
            trace.record(SimTime::ZERO, e);
        }
        for e in trace.entries() {
            spec.observe(e).unwrap();
        }
        assert!(spec.recorded_cut(&v1, &v2).is_some(), "p2 is still in v1");
        let step = trace.record(SimTime::ZERO, install(2, &v2));
        spec.observe(&trace.entries()[step as usize]).unwrap();
        assert!(spec.recorded_cut(&v1, &v2).is_none());
        assert!(spec.cut.is_empty(), "{:?}", spec.cut);
    }

    #[test]
    fn view_regression_is_not_a_transition() {
        let v1 = view12(1);
        let v2 = view12(2);
        let violations = run(vec![install(1, &v2), install(1, &v1), install(2, &v1)]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].message.contains("Local Monotonicity"), "{violations:?}");
    }
}
