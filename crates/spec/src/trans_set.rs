//! `TRANS_SET:SPEC` — transitional sets (Fig. 6, Property 4.1).

use crate::view_sync::ViewCursor;
use vsgm_types::{ProcSet, ProcessId, VecMap, View};

/// The name `TRANS_SET:SPEC`'s violations carry.
pub(crate) const TS: &str = "TRANS_SET:SPEC";

/// The part of the Transitional Set property (Property 4.1) that is not
/// the [`ViewCursor`]: the transitions into views some member can still
/// install.
///
/// > When a process `p` moves from view `v` to view `v'`, the transitional
/// > set it delivers with `v'` is a subset of `v.set ∩ v'.set` which
/// > includes all the processes that move directly from `v` to `v'`
/// > (including `p`), and does not include any member of `v'.set` that
/// > moves to `v'` from any view other than `v`.
///
/// The subset and self-membership clauses are checked at each `view`
/// event. The cross-process clauses need every transition into `v'`
/// (another process may install `v'` later), so they run when the last
/// member of `v'` that could still install it has moved — into `v'` or
/// past it — and at the end of the run for the views some member can
/// still install. The transitions of a judged view are dropped: nothing
/// can join them any more, since the cursor's Local Monotonicity admits
/// no member below its floor, so the views held are the live ones.
#[derive(Debug, Default)]
pub(crate) struct Transitions {
    /// The observed transitions into each view some member can still
    /// install.
    open: VecMap<View, Vec<Transition>>,
}

/// One observed `view_p(next, T)`: the process, the view it moved from,
/// and its transitional set.
#[derive(Debug, Clone)]
struct Transition {
    p: ProcessId,
    prev: View,
    t_set: ProcSet,
    step: u64,
}

/// The cross-process clauses of Property 4.1 over the transitions into
/// `next`.
fn judge(next: &View, group: &[Transition]) -> Result<(), String> {
    for a in group {
        for b in group {
            if a.p == b.p {
                continue;
            }
            // b moved to `next` from b.prev.
            if a.t_set.contains(&b.p) && b.prev != a.prev {
                return Err(format!(
                    "step {}: {}'s transitional set for {next} contains {} \
                     which moved from {} (not {})",
                    a.step, a.p, b.p, b.prev, a.prev
                ));
            }
            if b.prev == a.prev && !a.t_set.contains(&b.p) {
                return Err(format!(
                    "step {}: {} moved {} -> {next} together with {} but is \
                     missing from {}'s transitional set",
                    a.step, b.p, a.prev, a.p, a.p
                ));
            }
        }
    }
    Ok(())
}

impl Transitions {
    /// Judges the local clauses of `view_p(next, transitional)`, admitted
    /// by the cursor, and records the transition if they hold.
    pub(crate) fn transition(
        &mut self,
        cursor: &ViewCursor,
        p: ProcessId,
        next: &View,
        transitional: &ProcSet,
        step: u64,
    ) -> Result<(), String> {
        let prev = cursor.view(p);
        // T ⊆ v.set ∩ v'.set
        if let Some(q) = transitional.iter().find(|q| !prev.contains(**q) || !next.contains(**q)) {
            return Err(format!(
                "view_{p}: transitional set member {q} not in {prev}.set ∩ {next}.set"
            ));
        }
        // p ∈ T
        if !transitional.contains(&p) {
            return Err(format!("view_{p}: {p} missing from its own transitional set"));
        }
        self.open.entry(next.clone()).or_default().push(Transition {
            p,
            prev,
            t_set: transitional.clone(),
            step,
        });
        Ok(())
    }

    /// Judges and drops every view whose last possible mover has moved;
    /// run after each `view` the other parts accepted.
    pub(crate) fn settle(&mut self, cursor: &ViewCursor) -> Result<(), String> {
        let mut verdict = Ok(());
        self.open.retain(|next, group| {
            if next.members().iter().any(|r| cursor.can_install(*r, next)) {
                return true;
            }
            if verdict.is_ok() {
                verdict = judge(next, group);
            }
            false
        });
        verdict
    }

    /// Judges the views still open at the end of the run.
    pub(crate) fn finish(&self) -> Result<(), String> {
        self.open.iter().try_for_each(|(next, group)| judge(next, group))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view_sync::{tests::replay, ViewSyncSpec};
    use crate::wv_rfifo::WV;
    use vsgm_ioa::{Checker, SimTime, Trace, Violation};
    use vsgm_types::{Event, StartChangeId, ViewId};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn set(ids: &[u64]) -> ProcSet {
        ids.iter().map(|&i| p(i)).collect()
    }

    fn view(epoch: u64, members: &[u64]) -> View {
        View::new(
            ViewId::new(epoch, 0),
            members.iter().map(|&i| p(i)),
            members.iter().map(|&i| (p(i), StartChangeId::new(epoch))),
        )
    }

    /// `TRANS_SET:SPEC`'s violations over `events`, the end of the run
    /// included.
    fn run(events: Vec<Event>) -> Vec<Violation> {
        replay(events).1.into_iter().filter(|v| v.checker == TS).collect()
    }

    fn install(at: u64, v: &View, t: &[u64]) -> Event {
        Event::GcsView { p: p(at), view: v.clone(), transitional: set(t) }
    }

    #[test]
    fn joint_movers_with_full_t_accepted() {
        let v1 = view(1, &[1, 2]);
        let v2 = view(2, &[1, 2]);
        let violations = run(vec![
            install(1, &v1, &[1]),
            install(2, &v1, &[2]),
            install(1, &v2, &[1, 2]),
            install(2, &v2, &[1, 2]),
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn t_must_contain_self() {
        let v1 = view(1, &[1, 2]);
        let violations = run(vec![install(1, &v1, &[])]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("missing from its own"));
    }

    #[test]
    fn t_subset_of_intersection() {
        // p3 is in neither p1's previous view (initial singleton) nor...
        let v1 = view(1, &[1, 3]);
        let violations = run(vec![install(1, &v1, &[1, 3])]);
        // p3 ∈ v1.set but p3 ∉ initial(p1).set ⇒ violation.
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("∩"));
    }

    #[test]
    fn member_from_other_view_must_be_excluded() {
        // p1 moves v1 -> v3; p2 moves v2 -> v3. p1 wrongly includes p2.
        let v1 = view(1, &[1, 2]);
        let v2 = view(2, &[1, 2]);
        let v3 = view(3, &[1, 2]);
        let violations = run(vec![
            install(1, &v1, &[1]),
            install(2, &v2, &[2]),
            install(1, &v3, &[1, 2]), // claims p2 moved with it from v1
            install(2, &v3, &[2]),    // but p2 moved from v2
        ]);
        assert!(
            violations.iter().any(|v| v.message.contains("which moved from")),
            "{violations:?}"
        );
    }

    #[test]
    fn joint_mover_must_be_included() {
        let v1 = view(1, &[1, 2]);
        let v2 = view(2, &[1, 2]);
        let violations = run(vec![
            install(1, &v1, &[1]),
            install(2, &v1, &[2]),
            install(1, &v2, &[1]), // both moved v1 -> v2, p2 missing from p1's T
            install(2, &v2, &[1, 2]),
        ]);
        assert!(violations.iter().any(|v| v.message.contains("missing from")), "{violations:?}");
    }

    #[test]
    fn different_transitional_sets_for_different_prev_views_ok() {
        // From the paper: different transitional sets may be associated
        // with the same view v' at different processes.
        let v1 = view(1, &[1, 2]);
        let v2 = view(2, &[1, 2]);
        let v3 = view(3, &[1, 2]);
        let violations = run(vec![
            install(1, &v1, &[1]),
            install(2, &v2, &[2]),
            install(1, &v3, &[1]),
            install(2, &v3, &[2]),
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn recovery_changes_prev_view_to_initial() {
        let v1 = view(1, &[1, 2]);
        let v2 = view(2, &[1, 2]);
        // p1 crashes in v1 and recovers; it then moves initial -> v2, so
        // p2 (moving v1 -> v2) must NOT include p1 in its transitional set.
        let violations = run(vec![
            install(1, &v1, &[1]),
            install(2, &v1, &[2]),
            Event::Crash { p: p(1) },
            Event::Recover { p: p(1) },
            install(1, &v2, &[1]),
            install(2, &v2, &[2]),
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn settled_view_is_judged_when_its_last_mover_moves() {
        // Same violation as `joint_mover_must_be_included`, but found by
        // `observe` at p2's install — the last member that could still
        // install v2 — with nothing left for `finish`.
        let v1 = view(1, &[1, 2]);
        let v2 = view(2, &[1, 2]);
        let mut trace = Trace::new();
        for e in [
            install(1, &v1, &[1]),
            install(2, &v1, &[2]),
            install(1, &v2, &[1]),
            install(2, &v2, &[1, 2]),
        ] {
            trace.record(SimTime::ZERO, e);
        }
        let mut spec = ViewSyncSpec::new();
        let found: Vec<Violation> =
            trace.entries().iter().filter_map(|e| spec.observe(e).err()).collect();
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].checker, TS, "{found:?}");
        assert_eq!(found[0].step, Some(3));
        assert!(found[0].message.contains("missing from"), "{found:?}");
        assert!(spec.ts.open.is_empty(), "{:?}", spec.ts.open);
        assert!(spec.finish().is_ok());
    }

    #[test]
    fn view_a_member_can_still_install_stays_open_until_it_moves_past() {
        let v1 = view(1, &[1, 2]);
        let v2 = view(2, &[1, 2]);
        let mut trace = Trace::new();
        let mut spec = ViewSyncSpec::new();
        let mut feed = |spec: &mut ViewSyncSpec, e: Event| {
            let step = trace.record(SimTime::ZERO, e);
            spec.observe(&trace.entries()[step as usize]).unwrap();
        };
        feed(&mut spec, install(1, &v1, &[1]));
        assert_eq!(spec.ts.open.len(), 1, "p2 can still install v1");
        // p2 skips v1: it can install neither v1 nor (again) v2 after this.
        feed(&mut spec, install(2, &v2, &[2]));
        assert_eq!(spec.ts.open.keys().collect::<Vec<_>>(), vec![&v2], "p1 can still install v2");
        feed(&mut spec, install(1, &v2, &[1]));
        assert!(spec.ts.open.is_empty(), "{:?}", spec.ts.open);
    }

    #[test]
    fn view_regression_is_not_a_transition() {
        // Refused by the cursor (Local Monotonicity, reported once, by WV):
        // p1 stays in v2, and no transition into v1 is recorded.
        let v1 = view(1, &[1, 2]);
        let v2 = view(2, &[1, 2]);
        let (spec, violations) = replay(vec![install(1, &v2, &[1]), install(1, &v1, &[1])]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].checker, WV, "{violations:?}");
        assert!(violations[0].message.contains("Local Monotonicity"), "{violations:?}");
        assert_eq!(spec.cursor.view(p(1)), v2);
        assert!(!spec.ts.open.contains_key(&v1), "{:?}", spec.ts.open);
    }
}
