//! Property 4.2 — conditional liveness (§4.2).

use std::collections::BTreeMap;
use vsgm_ioa::{Checker, TraceEntry, Violation};
use vsgm_types::{AppMsg, Event, ProcessId, View};

/// Checker for the liveness property (Property 4.2):
///
/// > Let `v` be a view with `v.set = S`. If for every `p ∈ S` the action
/// > `MBRSHP.view_p(v)` occurs and is followed by neither `MBRSHP.view_p`
/// > nor `MBRSHP.start_change_p` actions, then at each `p ∈ S`,
/// > `GCS.view_p(v)` eventually occurs; furthermore every message sent
/// > after that is delivered at every `q ∈ S`.
///
/// "Eventually" is judged at the end of the run: the harness runs the
/// simulation to quiescence (every fair task has fired), at which point
/// anything that has not happened never will.
///
/// The premise is monitored too: if the membership does *not* stabilize on
/// `v` (a later membership event reaches a member), the property holds
/// vacuously and [`Checker::finish`] accepts.
#[derive(Debug)]
pub struct LivenessSpec {
    /// The view the membership is expected to stabilize on.
    target: View,
    /// Step at which `MBRSHP.view_p(target)` occurred, per member.
    mbrshp_seen: BTreeMap<ProcessId, u64>,
    /// Whether the stabilization premise broke (vacuous acceptance).
    premise_broken: bool,
    /// Step at which `GCS.view_p(target)` occurred, per member.
    installed: BTreeMap<ProcessId, u64>,
    /// Messages sent by `p` after it installed the target view.
    sends_after: BTreeMap<ProcessId, Vec<AppMsg>>,
    /// Messages delivered to `q` from `p` after `q` installed the target.
    delivered_after: BTreeMap<(ProcessId, ProcessId), Vec<AppMsg>>,
}

impl LivenessSpec {
    /// Creates a checker expecting the membership to stabilize on `target`.
    pub fn new(target: View) -> Self {
        LivenessSpec {
            target,
            mbrshp_seen: BTreeMap::new(),
            premise_broken: false,
            installed: BTreeMap::new(),
            sends_after: BTreeMap::new(),
            delivered_after: BTreeMap::new(),
        }
    }

    /// Whether the stabilization premise held for the whole observed run.
    pub fn premise_held(&self) -> bool {
        !self.premise_broken && self.mbrshp_seen.len() == self.target.len()
    }
}

impl Checker for LivenessSpec {
    fn observe(&mut self, entry: &TraceEntry) -> Result<(), Violation> {
        let step = entry.step;
        match &entry.event {
            Event::MbrshpView { p, view } => {
                if !self.target.contains(*p) {
                    return Ok(());
                }
                if view == &self.target {
                    self.mbrshp_seen.insert(*p, step);
                } else if self.mbrshp_seen.contains_key(p) {
                    // A later membership view at a member: premise broken.
                    self.premise_broken = true;
                }
                Ok(())
            }
            Event::MbrshpStartChange { p, .. } => {
                if self.target.contains(*p) && self.mbrshp_seen.contains_key(p) {
                    self.premise_broken = true;
                }
                Ok(())
            }
            Event::GcsView { p, view, .. } => {
                if view == &self.target {
                    self.installed.insert(*p, step);
                }
                Ok(())
            }
            Event::Send { p, msg } => {
                if self.installed.contains_key(p) {
                    self.sends_after.entry(*p).or_default().push(msg.clone());
                }
                Ok(())
            }
            Event::Deliver { p: q, q: p, msg } => {
                if self.installed.contains_key(q) {
                    self.delivered_after.entry((*q, *p)).or_default().push(msg.clone());
                }
                Ok(())
            }
            Event::Crash { p } => {
                // A member crashing after stabilization breaks the
                // premise (the membership will reconfigure). A crash
                // *before* the target view reached `p` is history the
                // stabilized suffix already accounts for — essential now
                // that `Sim::add_checker` replays the recorded prefix.
                if self.target.contains(*p) && self.mbrshp_seen.contains_key(p) {
                    self.premise_broken = true;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn finish(&mut self) -> Result<(), Violation> {
        if !self.premise_held() {
            return Ok(()); // vacuously true
        }
        for p in self.target.members() {
            if !self.installed.contains_key(p) {
                return Err(Violation::at_end(
                    "LIVENESS(4.2)",
                    format!(
                        "membership stabilized on {} but {p} never delivered it \
                         to its application",
                        self.target
                    ),
                ));
            }
        }
        for p in self.target.members() {
            let sent = self.sends_after.get(p).cloned().unwrap_or_default();
            for q in self.target.members() {
                let got = self.delivered_after.get(&(*q, *p)).cloned().unwrap_or_default();
                if got != sent {
                    return Err(Violation::at_end(
                        "LIVENESS(4.2)",
                        format!(
                            "{p} sent {} messages in the stable view but {q} \
                             delivered {} of them (expected all, in FIFO order)",
                            sent.len(),
                            got.len()
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_ioa::{SimTime, Trace};
    use vsgm_types::{ProcSet, StartChangeId, ViewId};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn target() -> View {
        View::new(
            ViewId::new(1, 0),
            [p(1), p(2)],
            [(p(1), StartChangeId::new(1)), (p(2), StartChangeId::new(1))],
        )
    }

    fn run(events: Vec<Event>) -> Vec<Violation> {
        let mut trace = Trace::new();
        for e in events {
            trace.record(SimTime::ZERO, e);
        }
        let mut spec = LivenessSpec::new(target());
        let mut out: Vec<Violation> =
            trace.entries().iter().filter_map(|e| spec.observe(e).err()).collect();
        if let Err(v) = spec.finish() {
            out.push(v);
        }
        out
    }

    fn stabilize() -> Vec<Event> {
        vec![
            Event::MbrshpView { p: p(1), view: target() },
            Event::MbrshpView { p: p(2), view: target() },
        ]
    }

    fn install_all() -> Vec<Event> {
        vec![
            Event::GcsView { p: p(1), view: target(), transitional: ProcSet::new() },
            Event::GcsView { p: p(2), view: target(), transitional: ProcSet::new() },
        ]
    }

    #[test]
    fn stable_and_installed_accepted() {
        let mut events = stabilize();
        events.extend(install_all());
        assert!(run(events).is_empty());
    }

    #[test]
    fn missing_installation_rejected() {
        let mut events = stabilize();
        events.push(Event::GcsView { p: p(1), view: target(), transitional: ProcSet::new() });
        let violations = run(events);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("never delivered"));
    }

    #[test]
    fn vacuous_when_premise_broken_by_start_change() {
        let mut events = stabilize();
        events.push(Event::MbrshpStartChange {
            p: p(1),
            cid: StartChangeId::new(9),
            set: [p(1)].into_iter().collect(),
        });
        // Nothing installed, but the premise broke ⇒ vacuously accepted.
        assert!(run(events).is_empty());
    }

    #[test]
    fn vacuous_when_membership_never_stabilizes() {
        // Only p1 ever receives the target view.
        let events = vec![Event::MbrshpView { p: p(1), view: target() }];
        assert!(run(events).is_empty());
    }

    #[test]
    fn vacuous_when_member_crashes() {
        let mut events = stabilize();
        events.push(Event::Crash { p: p(2) });
        assert!(run(events).is_empty());
    }

    #[test]
    fn crash_before_stabilization_does_not_vacuate() {
        // §8 history replayed into a late-attached checker: the member
        // crashed (and implicitly recovered) before the target view; the
        // stabilized suffix is still binding.
        let mut events = vec![Event::Crash { p: p(2) }, Event::Recover { p: p(2) }];
        events.extend(stabilize());
        let violations = run(events);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].message.contains("never delivered"));
    }

    #[test]
    fn undelivered_message_in_stable_view_rejected() {
        let mut events = stabilize();
        events.extend(install_all());
        events.push(Event::Send { p: p(1), msg: AppMsg::from("m") });
        events.push(Event::Deliver { p: p(1), q: p(1), msg: AppMsg::from("m") });
        // p2 never delivers it.
        let violations = run(events);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("delivered 0"), "{violations:?}");
    }

    #[test]
    fn all_messages_delivered_accepted() {
        let mut events = stabilize();
        events.extend(install_all());
        events.push(Event::Send { p: p(1), msg: AppMsg::from("m") });
        events.push(Event::Deliver { p: p(1), q: p(1), msg: AppMsg::from("m") });
        events.push(Event::Deliver { p: p(2), q: p(1), msg: AppMsg::from("m") });
        assert!(run(events).is_empty());
    }

    #[test]
    fn sends_before_installation_not_required() {
        // A message sent before GCS.view_p(v) is outside the property's
        // scope.
        let mut events = stabilize();
        events.push(Event::Send { p: p(1), msg: AppMsg::from("early") });
        events.extend(install_all());
        assert!(run(events).is_empty());
    }
}
