//! `WV_RFIFO:SPEC` — within-view reliable FIFO multicast (Fig. 4).

use crate::view_sync::{Reader, ViewCursor};
use std::collections::VecDeque;
use vsgm_types::{AppMsg, ProcessId, VecMap, View};

/// The name `WV_RFIFO:SPEC`'s violations carry.
pub(crate) const WV: &str = "WV_RFIFO:SPEC";

/// The part of the within-view reliable FIFO multicast specification
/// (Fig. 4) that is not the [`ViewCursor`]: `msgs[q][v]`, the sequence of
/// messages `q`'s application sent in view `v`. With the cursor's
/// `current_view[p]` and `last_dlvrd[q][p]` it enforces
///
/// * `send_p(m)`: `p` is alive, and no earlier incarnation of `p` sent in
///   the shared view `p` is in;
/// * `deliver_p(q, m)`: `m` is exactly message `last_dlvrd[q][p] + 1` of
///   `msgs[q][current_view[p]]` — i.e. delivery is gap-free, FIFO, and in
///   the view in which the message was sent.
///
/// `view_p(v)`'s Self Inclusion and Local Monotonicity are the cursor's.
///
/// Crash/recovery (§8): a recovered process restarts as a fresh
/// *incarnation* in its initial singleton view. Messages a fresh
/// incarnation sends there are tracked separately from pre-crash ones.
///
/// # What is forgotten
///
/// `msgs[q][v]` is read only by a `deliver` at a live process whose
/// current view is `v`, from index `last_dlvrd[q][p]` on, and Local
/// Monotonicity lets `p` enter `v` only while `v.id` exceeds its floor.
/// So [`Windows::forget`] drops the prefix of `msgs[q][v]` below the least
/// `last_dlvrd[q][p]` over the live processes in `v` once no member of `v`
/// can still install it, and the whole sequence once no process is in `v`
/// either. No event, legal or violating, can tell: what it keeps is a
/// function of the group's membership and its undelivered messages, not
/// of the run's length — the live views, keyed in a sorted vector.
#[derive(Debug, Default)]
pub(crate) struct Windows {
    /// `msgs[view][sender]`.
    msgs: VecMap<View, VecMap<ProcessId, Sent>>,
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

/// The first index of `msgs[sender][v]` a future `deliver` can still
/// read: 0 while some member of `v` can still install it (it would start
/// from the beginning), else the least `last_dlvrd[sender][r]` over the
/// live processes `r` in `v` — `None` when there is none, so nothing sent
/// in `v` will ever be read again.
fn horizon(cursor: &ViewCursor, v: &View, sender: ProcessId) -> Option<u64> {
    let mut least: Option<u64> = None;
    for r in v.members() {
        match cursor.reader(*r, v) {
            Reader::CanInstall => return Some(0),
            Reader::Live => {
                let next = cursor.delivered(sender, *r);
                least = Some(least.map_or(next, |l| l.min(next)));
            }
            Reader::Gone => {}
        }
    }
    least
}

impl Windows {
    /// `send_p(msg)` by a live `p`.
    pub(crate) fn send(
        &mut self,
        cursor: &ViewCursor,
        p: ProcessId,
        msg: &AppMsg,
    ) -> Result<(), String> {
        let v = cursor.view(p);
        let i = cursor.incarnation(p);
        let shared = !v.is_initial();
        let sent = self
            .msgs
            .entry(v.clone())
            .or_default()
            .entry(p)
            .or_insert_with(|| Sent { inc: i, ..Sent::default() });
        if sent.inc != i {
            // Whatever the earlier incarnation sent here is out of every
            // reader's reach from now on.
            *sent = Sent { inc: i, ..Sent::default() };
            // Initial singleton views are private to their owner and may
            // be re-entered by a fresh incarnation after recovery; only
            // shared (non-initial) views need the uniqueness tracking.
            if shared {
                return Err(format!("send_{p}: two incarnations of {p} sent in the same view {v}"));
            }
        }
        // Exactly one slot for the first message: most senders have one
        // or a few undelivered at a time, and a `VecDeque`'s first
        // growth would make room for four.
        if sent.msgs.capacity() == 0 {
            sent.msgs.reserve_exact(1);
        }
        sent.msgs.push_back(msg.clone());
        Ok(())
    }

    /// Judges `deliver_q(sender, msg)` by a live `q`. On success, the view
    /// whose oldest kept message it read, if it did: once the cursor has
    /// counted the delivery, [`Windows::forget_read`] may drop it.
    pub(crate) fn deliver(
        &self,
        cursor: &ViewCursor,
        q: ProcessId,
        sender: ProcessId,
        msg: &AppMsg,
    ) -> Result<Option<View>, String> {
        let v = cursor.view(q);
        let sent = self
            .msgs
            .get(&v)
            .and_then(|senders| senders.get(&sender))
            // A process reads back only what its own current incarnation
            // sent.
            .filter(|sent| sender != q || sent.inc == cursor.incarnation(q));
        if sent.is_none() && sender != q {
            return Err(format!(
                "deliver_{q}({sender}, ..): {sender} sent no messages in {q}'s current view {v}"
            ));
        }
        let idx = cursor.delivered(sender, q);
        match sent.and_then(|s| s.get(idx)) {
            Some(m) if m == msg => Ok(sent.is_some_and(|s| s.base == idx).then_some(v)),
            Some(m) => Err(format!(
                "deliver_{q}({sender}, {msg:?}): expected message #{} of view {v} \
                 to be {m:?} (FIFO order violated)",
                idx + 1
            )),
            None => Err(format!(
                "deliver_{q}({sender}, {msg:?}): {sender} sent only {} messages \
                 in view {v}, cannot deliver #{}",
                sent.map_or(0, Sent::len),
                idx + 1
            )),
        }
    }

    /// Drops what a delivery of the oldest message `sender` sent in `v`
    /// has made unreadable: its reader may have been the last one holding
    /// it.
    pub(crate) fn forget_read(&mut self, cursor: &ViewCursor, v: &View, sender: ProcessId) {
        let horizon = horizon(cursor, v, sender).unwrap_or(0);
        if let Some(sent) = self.msgs.get_mut(v).and_then(|senders| senders.get_mut(&sender)) {
            sent.forget_below(horizon);
        }
    }

    /// Drops what [`horizon`] says no `deliver` can read any more; run
    /// whenever a process leaves a view or gives up the right to install
    /// one (`view`, `crash`, `recover`).
    pub(crate) fn forget(&mut self, cursor: &ViewCursor) {
        self.msgs.retain(|v, senders| {
            senders.retain(|sender, sent| match horizon(cursor, v, *sender) {
                Some(idx) => {
                    sent.forget_below(idx);
                    true
                }
                None => false,
            });
            !senders.is_empty()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view_sync::{tests::replay, ViewSyncSpec};
    use vsgm_ioa::{Checker, SimTime, Trace, Violation};
    use vsgm_types::{Event, StartChangeId, ViewId};

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

    /// `WV_RFIFO:SPEC`'s violations over `events`.
    fn run(events: Vec<Event>) -> Vec<Violation> {
        replay(events).1.into_iter().filter(|v| v.checker == WV).collect()
    }

    /// Number of messages `sender` has sent in `view`.
    fn sent_in_view(spec: &ViewSyncSpec, sender: ProcessId, view: &View) -> usize {
        let sent = spec.wv.msgs.get(view).and_then(|senders| senders.get(&sender));
        let current = |s: &&Sent| !view.is_initial() || s.inc == spec.cursor.incarnation(sender);
        sent.filter(current).map_or(0, Sent::len)
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
        let violations = run(vec![Event::Crash { p: p(1) }, Event::Send { p: p(1), msg: m("a") }]);
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
        let (spec, violations) = replay(vec![
            Event::GcsView { p: p(1), view: v.clone(), transitional: [p(1)].into() },
            Event::Send { p: p(1), msg: m("a") },
            Event::Send { p: p(1), msg: m("b") },
        ]);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(sent_in_view(&spec, p(1), &v), 2);
        assert_eq!(sent_in_view(&spec, p(2), &v), 0);
    }

    #[test]
    fn delivered_prefix_is_forgotten_once_nobody_can_install_the_view() {
        let v = view12(1);
        let mut trace = Trace::new();
        let mut spec = ViewSyncSpec::new();
        let mut feed = |spec: &mut ViewSyncSpec, e: Event| {
            let step = trace.record(SimTime::ZERO, e);
            if let Err(violation) = spec.observe(&trace.entries()[step as usize]) {
                assert_ne!(violation.checker, WV, "{violation}");
            }
        };
        let install = |at: u64| Event::GcsView {
            p: p(at),
            view: v.clone(),
            transitional: Default::default(),
        };
        let held =
            |spec: &ViewSyncSpec| spec.wv.msgs.get(&v).unwrap().get(&p(1)).unwrap().msgs.len();
        feed(&mut spec, install(1));
        feed(&mut spec, Event::Send { p: p(1), msg: m("a") });
        feed(&mut spec, Event::Send { p: p(1), msg: m("b") });
        feed(&mut spec, Event::Deliver { p: p(1), q: p(1), msg: m("a") });
        // p2 can still install v and would then read "a" first.
        assert_eq!(held(&spec), 2);
        feed(&mut spec, install(2));
        feed(&mut spec, Event::Deliver { p: p(2), q: p(1), msg: m("a") });
        assert_eq!(held(&spec), 1, "both readers are past \"a\"");
        assert_eq!(sent_in_view(&spec, p(1), &v), 2, "the count stays absolute");
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
        assert!(spec.wv.msgs.is_empty(), "{:?}", spec.wv.msgs);
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
