//! `TRANS_SET:SPEC` — transitional sets (Fig. 6, Property 4.1).

use std::collections::BTreeMap;
use vsgm_ioa::{Checker, TraceEntry, Violation};
use vsgm_types::{Event, ProcSet, ProcessId, VecMap, View, ViewId};

/// Checker for the Transitional Set property (Property 4.1):
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
/// past it — and in [`Checker::finish`] for the views some member can
/// still install. The transitions of a judged view are dropped: nothing
/// can join them any more.
///
/// `TRANS_SET:SPEC` is a child of `WV_RFIFO:SPEC` (Fig. 6 modifies Fig. 4),
/// so `view_p(v)` keeps the parent's Local Monotonicity precondition: a
/// `view` whose identifier does not exceed every one `p` was given before
/// is not a transition of this automaton either, and is rejected without
/// moving `p`. That is what makes "could still install" decidable.
#[derive(Debug, Default)]
pub struct TransSetSpec {
    current_view: VecMap<ProcessId, View>,
    /// Largest view id ever delivered to `p` (survives crashes).
    floor: VecMap<ProcessId, ViewId>,
    /// The observed transitions into each view some member can still
    /// install.
    open: BTreeMap<View, Vec<Transition>>,
    /// Judge nothing before `finish`: the reference the pruning
    /// differential test compares against.
    retain_all: bool,
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

impl TransSetSpec {
    /// Creates the checker in the spec's initial state.
    pub fn new() -> Self {
        TransSetSpec::default()
    }

    /// The checker that judges every view at `finish`.
    #[cfg(test)]
    pub(crate) fn retaining() -> Self {
        TransSetSpec { retain_all: true, ..TransSetSpec::default() }
    }

    fn view_of(&self, p: ProcessId) -> View {
        self.current_view.get(&p).cloned().unwrap_or_else(|| View::initial(p))
    }

    fn floor_of(&self, p: ProcessId) -> ViewId {
        self.floor.get(&p).copied().unwrap_or(ViewId::ZERO)
    }

    /// Judges and drops every view whose last possible mover has moved;
    /// run after each `view`.
    fn judge_settled(&mut self) -> Result<(), String> {
        if self.retain_all {
            return Ok(());
        }
        let mut verdict = Ok(());
        let mut open = std::mem::take(&mut self.open);
        open.retain(|next, group| {
            if next.members().iter().any(|r| self.floor_of(*r) < next.id()) {
                return true;
            }
            if verdict.is_ok() {
                verdict = judge(next, group);
            }
            false
        });
        self.open = open;
        verdict
    }
}

impl Checker for TransSetSpec {
    fn name(&self) -> &'static str {
        "TRANS_SET:SPEC"
    }

    fn observe(&mut self, entry: &TraceEntry) -> Result<(), Violation> {
        let step = entry.step;
        match &entry.event {
            Event::GcsView { p, view: next, transitional } => {
                let floor = self.floor_of(*p);
                if next.id() <= floor {
                    return Err(Violation::at_step(
                        "TRANS_SET:SPEC",
                        step,
                        format!(
                            "view_{p}: {} not greater than {floor} (Local Monotonicity, \
                             inherited from WV_RFIFO:SPEC)",
                            next.id()
                        ),
                    ));
                }
                let prev = self.view_of(*p);
                // T ⊆ v.set ∩ v'.set
                for q in transitional {
                    if !prev.contains(*q) || !next.contains(*q) {
                        return Err(Violation::at_step(
                            "TRANS_SET:SPEC",
                            step,
                            format!(
                                "view_{p}: transitional set member {q} not in \
                                 {prev}.set ∩ {next}.set"
                            ),
                        ));
                    }
                }
                // p ∈ T
                if !transitional.contains(p) {
                    return Err(Violation::at_step(
                        "TRANS_SET:SPEC",
                        step,
                        format!("view_{p}: {p} missing from its own transitional set"),
                    ));
                }
                self.open.entry(next.clone()).or_default().push(Transition {
                    p: *p,
                    prev,
                    t_set: transitional.clone(),
                    step,
                });
                self.current_view.insert(*p, next.clone());
                self.floor.insert(*p, next.id());
                self.judge_settled().map_err(|m| Violation::at_step("TRANS_SET:SPEC", step, m))
            }
            Event::Recover { p } => {
                self.current_view.insert(*p, View::initial(*p));
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn finish(&mut self) -> Result<(), Violation> {
        for (next, group) in &self.open {
            judge(next, group).map_err(|m| Violation::at_end("TRANS_SET:SPEC", m))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_ioa::{SimTime, Trace};
    use vsgm_types::{StartChangeId, ViewId};

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

    fn run(events: Vec<Event>) -> Vec<Violation> {
        let mut trace = Trace::new();
        for e in events {
            trace.record(SimTime::ZERO, e);
        }
        let mut spec = TransSetSpec::new();
        let mut out: Vec<Violation> =
            trace.entries().iter().filter_map(|e| spec.observe(e).err()).collect();
        if let Err(v) = spec.finish() {
            out.push(v);
        }
        out
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
        assert!(
            violations.iter().any(|v| v.message.contains("missing from")),
            "{violations:?}"
        );
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
        let mut spec = TransSetSpec::new();
        let found: Vec<Violation> =
            trace.entries().iter().filter_map(|e| spec.observe(e).err()).collect();
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].step, Some(3));
        assert!(found[0].message.contains("missing from"), "{found:?}");
        assert!(spec.open.is_empty(), "{:?}", spec.open);
        assert!(spec.finish().is_ok());
    }

    #[test]
    fn view_a_member_can_still_install_stays_open_until_it_moves_past() {
        let v1 = view(1, &[1, 2]);
        let v2 = view(2, &[1, 2]);
        let mut trace = Trace::new();
        let mut spec = TransSetSpec::new();
        let mut feed = |spec: &mut TransSetSpec, e: Event| {
            let step = trace.record(SimTime::ZERO, e);
            spec.observe(&trace.entries()[step as usize]).unwrap();
        };
        feed(&mut spec, install(1, &v1, &[1]));
        assert_eq!(spec.open.len(), 1, "p2 can still install v1");
        // p2 skips v1: it can install neither v1 nor (again) v2 after this.
        feed(&mut spec, install(2, &v2, &[2]));
        assert_eq!(spec.open.keys().collect::<Vec<_>>(), vec![&v2], "p1 can still install v2");
        feed(&mut spec, install(1, &v2, &[1]));
        assert!(spec.open.is_empty(), "{:?}", spec.open);
    }

    #[test]
    fn view_regression_is_not_a_transition() {
        let v1 = view(1, &[1, 2]);
        let v2 = view(2, &[1, 2]);
        let violations = run(vec![install(1, &v2, &[1]), install(1, &v1, &[1])]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].message.contains("Local Monotonicity"), "{violations:?}");
    }
}
