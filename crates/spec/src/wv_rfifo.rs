//! `WV_RFIFO:SPEC` — within-view reliable FIFO multicast (Fig. 4).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use vsgm_ioa::{Checker, TraceEntry, Violation};
use vsgm_types::{AppMsg, Event, ProcessId, VecMap, View, ViewId};

/// Checker for the within-view reliable FIFO multicast specification
/// (Fig. 4).
///
/// Replays the centralized spec state:
///
/// * `msgs[p][v]` — the sequence of messages `p`'s application sent in
///   view `v`;
/// * `last_dlvrd[q][p]` — the index of the last message from `q` delivered
///   to `p` in `p`'s current view;
/// * `current_view[p]`.
///
/// and enforces on every event:
///
/// * `deliver_p(q, m)`: `m` is exactly message `last_dlvrd[q][p] + 1` of
///   `msgs[q][current_view[p]]` — i.e. delivery is gap-free, FIFO, and in
///   the view in which the message was sent;
/// * `view_p(v)`: Self Inclusion and Local Monotonicity.
///
/// Crash/recovery (§8): a recovered process restarts as a fresh
/// *incarnation* with initial state, but view-identifier monotonicity is
/// preserved across the crash (the spec keeps the pre-crash
/// `current_view`). Messages a fresh incarnation sends in its initial
/// singleton view are tracked separately from pre-crash ones.
///
/// # What is forgotten
///
/// `msgs[q][v]` is read only by a `deliver` at a live process whose
/// current view is `v`, from index `last_dlvrd[q][p]` on, and Local
/// Monotonicity lets `p` enter `v` only while `v.id` exceeds every view
/// identifier `p` was ever given. So the checker drops the prefix of
/// `msgs[q][v]` below the least `last_dlvrd[q][p]` over the live processes
/// in `v` once no member of `v` can still install it, and the whole
/// sequence once no process is in `v` either. No event, legal or
/// violating, can tell: what it keeps is a function of the group's
/// membership and its undelivered messages, not of the run's length.
#[derive(Debug, Default)]
pub struct WvRfifoSpec {
    crashed: BTreeSet<ProcessId>,
    /// Incarnation counters; bumped on recovery.
    inc: VecMap<ProcessId, u64>,
    /// Largest view id ever delivered to `p` (survives crashes).
    floor: VecMap<ProcessId, ViewId>,
    current_view: VecMap<ProcessId, View>,
    /// `msgs[view][sender]`.
    msgs: BTreeMap<View, VecMap<ProcessId, Sent>>,
    /// `last_dlvrd[(sender, receiver)]`.
    last_dlvrd: VecMap<(ProcessId, ProcessId), u64>,
    /// Never forget anything: the reference the pruning differential
    /// test compares against.
    retain_all: bool,
}

/// What one incarnation of a sender sent in one view.
#[derive(Debug, Default)]
struct Sent {
    /// The sending incarnation. A shared view has one (a second
    /// incarnation sending in it is a violation); an initial view is
    /// re-entered by each fresh incarnation, which starts over.
    inc: u64,
    /// Messages forgotten from the front: the index of `msgs[0]`.
    base: u64,
    msgs: VecDeque<AppMsg>,
}

impl Sent {
    fn len(&self) -> usize {
        self.base as usize + self.msgs.len()
    }

    fn get(&self, idx: u64) -> Option<&AppMsg> {
        self.msgs.get(idx.checked_sub(self.base)? as usize)
    }

    fn forget_below(&mut self, idx: u64) {
        while self.base < idx && self.msgs.pop_front().is_some() {
            self.base += 1;
        }
    }
}

impl WvRfifoSpec {
    /// Creates the checker in the spec's initial state.
    pub fn new() -> Self {
        WvRfifoSpec::default()
    }

    /// The checker that never forgets.
    #[cfg(test)]
    pub(crate) fn retaining() -> Self {
        WvRfifoSpec { retain_all: true, ..WvRfifoSpec::default() }
    }

    fn incarnation(&self, p: ProcessId) -> u64 {
        self.inc.get(&p).copied().unwrap_or(0)
    }

    fn view_of(&self, p: ProcessId) -> View {
        self.current_view.get(&p).cloned().unwrap_or_else(|| View::initial(p))
    }

    fn guard_alive(&self, p: ProcessId, what: &str, step: u64) -> Result<(), Violation> {
        if self.crashed.contains(&p) {
            return Err(Violation::at_step(
                "WV_RFIFO:SPEC",
                step,
                format!("{what} at {p} while crashed"),
            ));
        }
        Ok(())
    }

    /// Number of messages `sender` has sent in `view` (for other checkers'
    /// tests and the harness's metrics).
    pub fn sent_in_view(&self, sender: ProcessId, view: &View) -> usize {
        let sent = self.msgs.get(view).and_then(|senders| senders.get(&sender));
        let current = |s: &&Sent| !view.is_initial() || s.inc == self.incarnation(sender);
        sent.filter(current).map_or(0, Sent::len)
    }

    /// The first index of `msgs[sender][v]` a future `deliver` can still
    /// read: 0 while some member of `v` can still install it (it would
    /// start from the beginning), else the least `last_dlvrd[sender][r]`
    /// over the live processes `r` in `v` — `None` when there is none, so
    /// nothing sent in `v` will ever be read again.
    fn horizon(&self, v: &View, sender: ProcessId) -> Option<u64> {
        let mut least: Option<u64> = None;
        for r in v.members() {
            if self.floor.get(r).copied().unwrap_or(ViewId::ZERO) < v.id() {
                return Some(0);
            }
            let in_v = self.current_view.get(r).map_or(v.is_initial(), |cv| cv == v);
            if in_v && !self.crashed.contains(r) {
                let next = self.last_dlvrd.get(&(sender, *r)).copied().unwrap_or(0);
                least = Some(least.map_or(next, |l| l.min(next)));
            }
        }
        least
    }

    /// Drops what [`WvRfifoSpec::horizon`] says no `deliver` can read any
    /// more; run whenever a process leaves a view or gives up the right
    /// to install one (`view`, `crash`, `recover`).
    fn forget_unreadable(&mut self) {
        if self.retain_all {
            return;
        }
        let mut msgs = std::mem::take(&mut self.msgs);
        msgs.retain(|v, senders| {
            senders.retain(|sender, sent| match self.horizon(v, *sender) {
                Some(idx) => {
                    sent.forget_below(idx);
                    true
                }
                None => false,
            });
            !senders.is_empty()
        });
        self.msgs = msgs;
    }
}

impl Checker for WvRfifoSpec {
    fn name(&self) -> &'static str {
        "WV_RFIFO:SPEC"
    }

    fn observe(&mut self, entry: &TraceEntry) -> Result<(), Violation> {
        let step = entry.step;
        match &entry.event {
            Event::Send { p, msg } => {
                self.guard_alive(*p, "send", step)?;
                let v = self.view_of(*p);
                let i = self.incarnation(*p);
                let shared = !v.is_initial();
                let sent = self.msgs.entry(v.clone()).or_default().entry(*p).or_insert_with(|| {
                    Sent { inc: i, ..Sent::default() }
                });
                if sent.inc != i {
                    // Whatever the earlier incarnation sent here is out of
                    // every reader's reach from now on.
                    *sent = Sent { inc: i, ..Sent::default() };
                    // Initial singleton views are private to their owner and
                    // may be re-entered by a fresh incarnation after
                    // recovery; only shared (non-initial) views need the
                    // uniqueness tracking.
                    if shared {
                        return Err(Violation::at_step(
                            "WV_RFIFO:SPEC",
                            step,
                            format!("send_{p}: two incarnations of {p} sent in the same view {v}"),
                        ));
                    }
                }
                sent.msgs.push_back(msg.clone());
                Ok(())
            }
            Event::Deliver { p: q, q: sender, msg } => {
                self.guard_alive(*q, "deliver", step)?;
                let v = self.view_of(*q);
                let inc = self.incarnation(*q);
                let sent = self
                    .msgs
                    .get(&v)
                    .and_then(|senders| senders.get(sender))
                    // A process reads back only what its own current
                    // incarnation sent.
                    .filter(|sent| sender != q || sent.inc == inc);
                if sent.is_none() && sender != q {
                    return Err(Violation::at_step(
                        "WV_RFIFO:SPEC",
                        step,
                        format!(
                            "deliver_{q}({sender}, ..): {sender} sent no messages \
                             in {q}'s current view {v}"
                        ),
                    ));
                }
                let idx = self.last_dlvrd.get(&(*sender, *q)).copied().unwrap_or(0);
                match sent.and_then(|s| s.get(idx)) {
                    Some(m) if m == msg => {
                        let oldest = sent.is_some_and(|s| s.base == idx);
                        self.last_dlvrd.insert((*sender, *q), idx + 1);
                        // Only the reader of the oldest retained message
                        // can have been the last one holding it.
                        if oldest && !self.retain_all {
                            let horizon = self.horizon(&v, *sender).unwrap_or(0);
                            if let Some(sent) =
                                self.msgs.get_mut(&v).and_then(|senders| senders.get_mut(sender))
                            {
                                sent.forget_below(horizon);
                            }
                        }
                        Ok(())
                    }
                    Some(m) => Err(Violation::at_step(
                        "WV_RFIFO:SPEC",
                        step,
                        format!(
                            "deliver_{q}({sender}, {msg:?}): expected message #{} of view {v} \
                             to be {m:?} (FIFO order violated)",
                            idx + 1
                        ),
                    )),
                    None => Err(Violation::at_step(
                        "WV_RFIFO:SPEC",
                        step,
                        format!(
                            "deliver_{q}({sender}, {msg:?}): {sender} sent only {} messages \
                             in view {v}, cannot deliver #{}",
                            sent.map_or(0, Sent::len),
                            idx + 1
                        ),
                    )),
                }
            }
            Event::GcsView { p, view, .. } => {
                self.guard_alive(*p, "view", step)?;
                if !view.contains(*p) {
                    return Err(Violation::at_step(
                        "WV_RFIFO:SPEC",
                        step,
                        format!("view_{p}: Self Inclusion violated, {p} not in {view}"),
                    ));
                }
                let floor = self.floor.get(p).copied().unwrap_or(ViewId::ZERO);
                if view.id() <= floor {
                    return Err(Violation::at_step(
                        "WV_RFIFO:SPEC",
                        step,
                        format!(
                            "view_{p}: Local Monotonicity violated, {} not greater than {}",
                            view.id(),
                            floor
                        ),
                    ));
                }
                self.current_view.insert(*p, view.clone());
                self.floor.insert(*p, view.id());
                self.last_dlvrd.retain(|(_, receiver), _| receiver != p);
                self.forget_unreadable();
                Ok(())
            }
            Event::Crash { p } => {
                self.crashed.insert(*p);
                self.forget_unreadable();
                Ok(())
            }
            Event::Recover { p } => {
                self.crashed.remove(p);
                *self.inc.entry(*p).or_insert(0) += 1;
                self.current_view.insert(*p, View::initial(*p));
                self.last_dlvrd.retain(|(_, receiver), _| receiver != p);
                self.forget_unreadable();
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
    use vsgm_types::StartChangeId;

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
        let mut spec = WvRfifoSpec::new();
        trace
            .entries()
            .iter()
            .filter_map(|e| spec.observe(e).err())
            .collect()
    }

    fn m(s: &str) -> AppMsg {
        AppMsg::from(s)
    }

    #[test]
    fn fifo_delivery_within_view_accepted() {
        let v = view12(1);
        let violations = run(vec![
            Event::GcsView { p: p(1), view: v.clone(), transitional: Default::default() },
            Event::GcsView { p: p(2), view: v, transitional: Default::default() },
            Event::Send { p: p(1), msg: m("a") },
            Event::Send { p: p(1), msg: m("b") },
            Event::Deliver { p: p(2), q: p(1), msg: m("a") },
            Event::Deliver { p: p(2), q: p(1), msg: m("b") },
            Event::Deliver { p: p(1), q: p(1), msg: m("a") },
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn out_of_order_delivery_rejected() {
        let v = view12(1);
        let violations = run(vec![
            Event::GcsView { p: p(1), view: v.clone(), transitional: Default::default() },
            Event::GcsView { p: p(2), view: v, transitional: Default::default() },
            Event::Send { p: p(1), msg: m("a") },
            Event::Send { p: p(1), msg: m("b") },
            Event::Deliver { p: p(2), q: p(1), msg: m("b") },
        ]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("FIFO order"), "{violations:?}");
    }

    #[test]
    fn delivery_of_unsent_message_rejected() {
        let v = view12(1);
        let violations = run(vec![
            Event::GcsView { p: p(1), view: v.clone(), transitional: Default::default() },
            Event::GcsView { p: p(2), view: v, transitional: Default::default() },
            Event::Deliver { p: p(2), q: p(1), msg: m("ghost") },
        ]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("sent no messages"), "{violations:?}");
    }

    #[test]
    fn cross_view_delivery_rejected() {
        // p1 sends in view v1; p2 moves to v2 and then tries to deliver ⇒
        // within-view delivery violated.
        let v1 = view12(1);
        let v2 = view12(2);
        let violations = run(vec![
            Event::GcsView { p: p(1), view: v1.clone(), transitional: Default::default() },
            Event::GcsView { p: p(2), view: v1, transitional: Default::default() },
            Event::Send { p: p(1), msg: m("a") },
            Event::GcsView { p: p(2), view: v2, transitional: Default::default() },
            Event::Deliver { p: p(2), q: p(1), msg: m("a") },
        ]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("sent no messages"), "{violations:?}");
    }

    #[test]
    fn delivery_counters_reset_on_view_change() {
        let v1 = view12(1);
        let v2 = view12(2);
        let violations = run(vec![
            Event::GcsView { p: p(1), view: v1.clone(), transitional: Default::default() },
            Event::GcsView { p: p(2), view: v1, transitional: Default::default() },
            Event::Send { p: p(1), msg: m("a") },
            Event::Deliver { p: p(2), q: p(1), msg: m("a") },
            Event::GcsView { p: p(1), view: v2.clone(), transitional: Default::default() },
            Event::GcsView { p: p(2), view: v2, transitional: Default::default() },
            Event::Send { p: p(1), msg: m("x") },
            // Delivery restarts at index 1 in the new view.
            Event::Deliver { p: p(2), q: p(1), msg: m("x") },
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn self_inclusion_enforced() {
        let v = View::new(ViewId::new(1, 0), [p(2)], [(p(2), StartChangeId::ZERO)]);
        let violations =
            run(vec![Event::GcsView { p: p(1), view: v, transitional: Default::default() }]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("Self Inclusion"));
    }

    #[test]
    fn local_monotonicity_enforced() {
        let v2 = view12(2);
        let v1 = view12(1);
        let violations = run(vec![
            Event::GcsView { p: p(1), view: v2, transitional: Default::default() },
            Event::GcsView { p: p(1), view: v1, transitional: Default::default() },
        ]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("Local Monotonicity"));
    }

    #[test]
    fn events_at_crashed_process_rejected() {
        let violations = run(vec![
            Event::Crash { p: p(1) },
            Event::Send { p: p(1), msg: m("a") },
        ]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("while crashed"));
    }

    #[test]
    fn monotonicity_preserved_across_recovery() {
        let v5 = view12(5);
        let v3 = view12(3);
        let violations = run(vec![
            Event::GcsView { p: p(1), view: v5, transitional: Default::default() },
            Event::Crash { p: p(1) },
            Event::Recover { p: p(1) },
            // §8: the first view after recovery must still exceed the
            // pre-crash view id.
            Event::GcsView { p: p(1), view: v3, transitional: Default::default() },
        ]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("Local Monotonicity"), "{violations:?}");
    }

    #[test]
    fn fresh_incarnation_can_self_deliver_in_initial_view() {
        // p1 recovers into its initial singleton view and self-delivers a
        // newly sent message: allowed, tracked per incarnation.
        let violations = run(vec![
            Event::Send { p: p(1), msg: m("old") },
            Event::Deliver { p: p(1), q: p(1), msg: m("old") },
            Event::Crash { p: p(1) },
            Event::Recover { p: p(1) },
            Event::Send { p: p(1), msg: m("new") },
            Event::Deliver { p: p(1), q: p(1), msg: m("new") },
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn sent_in_view_counts() {
        let v = view12(1);
        let mut trace = Trace::new();
        trace.record(
            SimTime::ZERO,
            Event::GcsView { p: p(1), view: v.clone(), transitional: Default::default() },
        );
        trace.record(SimTime::ZERO, Event::Send { p: p(1), msg: m("a") });
        trace.record(SimTime::ZERO, Event::Send { p: p(1), msg: m("b") });
        let mut spec = WvRfifoSpec::new();
        for e in trace.entries() {
            spec.observe(e).unwrap();
        }
        assert_eq!(spec.sent_in_view(p(1), &v), 2);
        assert_eq!(spec.sent_in_view(p(2), &v), 0);
    }

    #[test]
    fn delivered_prefix_is_forgotten_once_nobody_can_install_the_view() {
        let v = view12(1);
        let mut trace = Trace::new();
        let mut spec = WvRfifoSpec::new();
        let mut feed = |spec: &mut WvRfifoSpec, e: Event| {
            let step = trace.record(SimTime::ZERO, e);
            spec.observe(&trace.entries()[step as usize]).unwrap();
        };
        let install = |at: u64| Event::GcsView {
            p: p(at),
            view: v.clone(),
            transitional: Default::default(),
        };
        let held = |spec: &WvRfifoSpec| spec.msgs[&v][&p(1)].msgs.len();
        feed(&mut spec, install(1));
        feed(&mut spec, Event::Send { p: p(1), msg: m("a") });
        feed(&mut spec, Event::Send { p: p(1), msg: m("b") });
        feed(&mut spec, Event::Deliver { p: p(1), q: p(1), msg: m("a") });
        // p2 can still install v and would then read "a" first.
        assert_eq!(held(&spec), 2);
        feed(&mut spec, install(2));
        feed(&mut spec, Event::Deliver { p: p(2), q: p(1), msg: m("a") });
        assert_eq!(held(&spec), 1, "both readers are past \"a\"");
        assert_eq!(spec.sent_in_view(p(1), &v), 2, "the count stays absolute");
        feed(&mut spec, Event::Deliver { p: p(2), q: p(1), msg: m("b") });
        assert_eq!(held(&spec), 1, "p1 has not delivered \"b\" yet");
        // Once both have moved on nothing sent in v is kept.
        let v2 = view12(2);
        for at in [1, 2] {
            feed(
                &mut spec,
                Event::GcsView { p: p(at), view: v2.clone(), transitional: Default::default() },
            );
        }
        assert!(spec.msgs.is_empty(), "{:?}", spec.msgs);
    }

    #[test]
    fn crashed_member_does_not_hold_messages_back() {
        let v = view12(1);
        let violations = run(vec![
            Event::GcsView { p: p(1), view: v.clone(), transitional: Default::default() },
            Event::GcsView { p: p(2), view: v, transitional: Default::default() },
            Event::Crash { p: p(2) },
            Event::Send { p: p(1), msg: m("a") },
            Event::Deliver { p: p(1), q: p(1), msg: m("a") },
            // "a" is forgotten (p2 cannot read it any more): a duplicate
            // delivery is still the gap it always was.
            Event::Deliver { p: p(1), q: p(1), msg: m("a") },
        ]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].message.contains("sent only 1 messages"), "{violations:?}");
    }
}
