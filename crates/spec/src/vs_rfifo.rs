//! `VS_RFIFO:SPEC` — virtual synchrony via agreed cuts (Fig. 5).

use crate::view_sync::ViewCursor;
use vsgm_types::{Cut, ProcSet, ProcessId, VecMap, View};

/// The name `VS_RFIFO:SPEC`'s violations carry.
pub(crate) const VS: &str = "VS_RFIFO:SPEC";

/// The part of the Virtual Synchrony specification (Fig. 5) that is not
/// the [`ViewCursor`]: the agreed cuts.
///
/// The spec automaton nondeterministically fixes, per pair of views
/// `(v, v')`, a *cut* — the exact per-sender message counts every process
/// moving from `v` to `v'` must have delivered in `v` at the moment it
/// installs `v'`. The checker reconstructs the cut from the **first**
/// process observed making the transition (simulating the spec's internal
/// `set_cut` just before that `view` event, exactly as the paper's
/// refinement proof does with the `H_cut` history variable) and requires
/// every later process making the same transition to match it. What a
/// mover has delivered is the cursor's `last_dlvrd`.
///
/// # What is forgotten
///
/// `cut[v][v']` is read only by a process in `v` installing `v'`. Once no
/// process is in `v` and Local Monotonicity lets none enter it any more,
/// no event, legal or violating, can read `cut[v][·]`, and
/// [`Cuts::forget`] drops it. The map then holds the cuts out of live
/// views only, so a sorted vector suits it.
#[derive(Debug, Default)]
pub(crate) struct Cuts {
    /// `cut[v][v']`, keyed by the (full-triple) views.
    cut: VecMap<(View, View), Cut>,
}

impl Cuts {
    /// Judges `view_p(v_new)`, admitted by the cursor, against the cut
    /// agreed for `p`'s move; the first mover fixes it.
    pub(crate) fn transition(
        &mut self,
        cursor: &ViewCursor,
        p: ProcessId,
        v_new: &View,
    ) -> Result<(), String> {
        let v_old = cursor.view(p);
        let delivered = cursor.delivered_cut(p);
        let key = (v_old, v_new.clone());
        let Some(agreed) = self.cut.get(&key) else {
            // First mover: this fixes the cut (spec's set_cut).
            self.cut.insert(key, delivered);
            return Ok(());
        };
        // Later mover: must match the established cut exactly (pointwise,
        // absent entries read as 0).
        let senders: ProcSet =
            agreed.iter().map(|(s, _)| s).chain(delivered.iter().map(|(s, _)| s)).collect();
        match senders.into_iter().find(|s| delivered.get(*s) != agreed.get(*s)) {
            None => Ok(()),
            Some(s) => Err(format!(
                "view_{p}: moving {} -> {v_new} with {} messages delivered from {s}, \
                 but the agreed cut says {} (Virtual Synchrony violated)",
                key.0,
                delivered.get(s),
                agreed.get(s)
            )),
        }
    }

    /// Drops the cuts out of views nobody is in or can enter; run whenever
    /// a process changes view.
    pub(crate) fn forget(&mut self, cursor: &ViewCursor) {
        self.cut.retain(|(v, _), _| {
            v.members().iter().any(|r| cursor.is_in(*r, v) || cursor.can_install(*r, v))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view_sync::{tests::replay, ViewSyncSpec};
    use crate::wv_rfifo::WV;
    use vsgm_ioa::{Checker, SimTime, Trace, Violation};
    use vsgm_types::{AppMsg, Event, ProcSet, StartChangeId, ViewId};

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

    /// `VS_RFIFO:SPEC`'s violations over `events`.
    fn run(events: Vec<Event>) -> Vec<Violation> {
        replay(events).1.into_iter().filter(|v| v.checker == VS).collect()
    }

    fn recorded_cut<'a>(spec: &'a ViewSyncSpec, v: &View, v_new: &View) -> Option<&'a Cut> {
        spec.vs.cut.get(&(v.clone(), v_new.clone()))
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
        let (spec, violations) = replay(vec![
            install(1, &v1),
            Event::Send { p: p(1), msg: AppMsg::from("a") },
            deliver(1, 1, "a"),
            install(1, &v2),
        ]);
        assert!(violations.iter().all(|v| v.checker != VS), "{violations:?}");
        let cut = recorded_cut(&spec, &v1, &v2).unwrap();
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
        let mut spec = ViewSyncSpec::new();
        let mut trace = Trace::new();
        let mut feed = |spec: &mut ViewSyncSpec, e: Event| {
            let step = trace.record(SimTime::ZERO, e);
            if let Err(violation) = spec.observe(&trace.entries()[step as usize]) {
                assert_ne!(violation.checker, VS, "{violation}");
            }
        };
        for e in [install(1, &v1), install(2, &v1), install(1, &v2)] {
            feed(&mut spec, e);
        }
        assert!(recorded_cut(&spec, &v1, &v2).is_some(), "p2 is still in v1");
        feed(&mut spec, install(2, &v2));
        assert!(recorded_cut(&spec, &v1, &v2).is_none());
        assert!(spec.vs.cut.is_empty(), "{:?}", spec.vs.cut);
    }

    #[test]
    fn view_regression_is_not_a_transition() {
        // p1 is refused v1 after v2 (Local Monotonicity, reported once, by
        // WV) and stays in v2; p2's move into v1 is then judged alone.
        let v1 = view12(1);
        let v2 = view12(2);
        let alone = |at: u64, v: &View| Event::GcsView {
            p: p(at),
            view: v.clone(),
            transitional: ProcSet::from([p(at)]),
        };
        let (spec, violations) = replay(vec![alone(1, &v2), alone(1, &v1), alone(2, &v1)]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].checker, WV, "{violations:?}");
        assert!(violations[0].message.contains("Local Monotonicity"), "{violations:?}");
        assert_eq!(spec.cursor.view(p(1)), v2);
    }
}
