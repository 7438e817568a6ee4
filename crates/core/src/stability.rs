//! Stability: what an end-point may forget (this repo's extension of
//! Fig. 9; DESIGN.md §18).
//!
//! The paper keeps `msgs[q][v]` to deliver, to cut (Fig. 10) and to
//! honour forwarding duties (§5.2.2), and leaves discarding old messages
//! to "some sort of a garbage collection mechanism". This is it. Each
//! end-point tells the other members of its view how far it has delivered
//! — an `ack_msg` carrying its `last_dlvrd` vector, riding in-stream
//! behind its `view_msg` — and drops from `msgs[q][current_view]` what
//! *every* member has delivered:
//!
//! ```text
//! floor[q] = min(last_dlvrd[q], min over the other members r of acked[r][q])
//! ```
//!
//! A member that has not acknowledged counts as 0. A message at or below
//! the floor can be in no later cut's missing range and in no forwarding
//! duty: every member of the view holds a delivery of it.
//!
//! *When* to acknowledge is the host's call: [`on_ack_due`] arms one
//! [`send_ack_pre`] / [`send_ack_eff`] transition. An end-point that is
//! never told [`crate::Input::AckDue`] sends nothing, hears nothing and
//! retains everything — unless its host can see the floor without
//! asking. `vsgm-server`'s `Node` asks once every `ACK_EVERY` messages
//! delivered to its application. The daemon's `GroupInstance` runs
//! every member's end-point itself, in one process: after each step it
//! reads every member's `last_dlvrd` and hands each end-point the floor
//! ([`crate::Endpoint::forget_delivered`]), and acknowledges nothing.
//! *Whether* to drop is not an option.

use crate::state::State;
use vsgm_types::{Cut, MsgIndex, NetMsg, ProcSet, ProcessId};

// ----- input actions -----

/// `ack_due_p()` from the host: arm one acknowledgement. Ignored until
/// the current view has been announced — there is no stream yet for the
/// acknowledgement to ride in, and the host asks again.
pub fn on_ack_due(st: &mut State) {
    if st.in_current_view_stream(st.pid) {
        st.stability.get_or_insert_with(Box::default).armed = true;
    }
}

/// `co_rfifo.deliver(tag=ack_msg, cut)` from `q`: `q` has delivered `cut`
/// in the view its stream currently belongs to. Recorded, and acted on,
/// only if that is this end-point's current view.
pub fn on_ack(st: &mut State, q: ProcessId, cut: Cut) {
    if q == st.pid || !st.current_view.contains(q) || !st.in_current_view_stream(q) {
        return;
    }
    st.stability.get_or_insert_with(Box::default).acked.insert(q, cut);
    collect(st);
}

// ----- locally controlled actions -----

/// `co_rfifo.send_p(set, tag=ack_msg, last_dlvrd)` precondition: the host
/// asked, the view is announced, and there is something new to say.
pub fn send_ack_pre(st: &State) -> bool {
    st.stability.as_ref().is_some_and(|s| s.armed && s.announced != st.last_dlvrd)
        && st.in_current_view_stream(st.pid)
}

/// `co_rfifo.send_p(set, tag=ack_msg, last_dlvrd)` effect. Returns the
/// destination set (current view minus self) and the message; `None` when
/// [`send_ack_pre`] is false.
pub fn send_ack_eff(st: &mut State) -> Option<(ProcSet, NetMsg)> {
    if !send_ack_pre(st) {
        return None;
    }
    let s = st.stability.as_mut()?;
    s.armed = false;
    s.announced = st.last_dlvrd.clone();
    // Alone in a view, the own deliveries are everybody's.
    collect(st);
    let set: ProcSet = st.current_view.members().iter().copied().filter(|q| *q != st.pid).collect();
    let cut: Cut = st.last_dlvrd.iter().map(|(q, i)| (*q, *i)).collect();
    Some((set, NetMsg::Ack(cut)))
}

/// `view_p(v)` effect added by this extension: acknowledgements are about
/// one view.
pub fn view_eff(st: &mut State) {
    st.stability = None;
}

// ----- the rule -----

/// How many of `q`'s current-view messages every member of the current
/// view is known to have delivered. A claim to have delivered more own
/// messages than were multicast is forged: it counts as silence (and
/// fails the [`crate::audit`]).
pub fn floor(st: &State, q: ProcessId) -> MsgIndex {
    let acked = st.stability.as_ref().map(|s| &s.acked);
    st.current_view
        .members()
        .iter()
        .filter(|r| **r != st.pid)
        .map(|r| acked.and_then(|a| a.get(r)).map_or(0, |cut| cut.get(q)))
        .map(|claimed| if q == st.pid && claimed > st.last_sent { 0 } else { claimed })
        .fold(st.dlvrd(q), MsgIndex::min)
}

/// Drops from every `msgs[q][current_view]` what lies at or below
/// [`floor`].
pub fn collect(st: &mut State) {
    let floors: Vec<(ProcessId, MsgIndex)> =
        st.last_dlvrd.keys().map(|q| (*q, floor(st, *q))).filter(|(_, f)| *f > 0).collect();
    let mut key = (st.pid, st.current_view.clone());
    for (q, f) in floors {
        key.0 = q;
        if let Some(buf) = st.msgs.get_mut(&key) {
            buf.free_through(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wv;
    use vsgm_types::{AppMsg, StartChangeId, View, ViewId};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn view123() -> View {
        View::new(
            ViewId::new(1, 0),
            [p(1), p(2), p(3)],
            [1, 2, 3].map(|i| (p(i), StartChangeId::new(1))),
        )
    }

    /// p1 in the announced view {1,2,3}, having received and delivered
    /// `n` messages from p2.
    fn delivered_from_p2(n: u64) -> State {
        let mut st = State::new(p(1));
        let v = view123();
        st.mbrshp_view = v.clone();
        wv::view_eff(&mut st);
        st.reliable_set = v.members().clone();
        wv::send_view_msg_eff(&mut st);
        wv::on_view_msg(&mut st, p(2), v.clone());
        wv::on_view_msg(&mut st, p(3), v);
        for k in 0..n {
            wv::on_app_msg(&mut st, p(2), AppMsg::from(format!("m{k}").as_str()));
            wv::deliver_eff(&mut st, p(2));
        }
        st
    }

    fn ack(entries: &[(u64, u64)]) -> Cut {
        entries.iter().map(|(q, i)| (p(*q), *i)).collect()
    }

    fn retained_from_p2(st: &State) -> usize {
        st.buf(p(2), &st.current_view).map_or(0, |b| b.retained())
    }

    #[test]
    fn the_floor_is_the_minimum_and_a_silent_member_counts_as_zero() {
        let mut st = delivered_from_p2(10);
        on_ack(&mut st, p(2), ack(&[(2, 10)]));
        assert_eq!(floor(&st, p(2)), 0, "p3 has said nothing");
        assert_eq!(retained_from_p2(&st), 10);
        on_ack(&mut st, p(3), ack(&[(2, 4)]));
        assert_eq!(floor(&st, p(2)), 4);
        assert_eq!(retained_from_p2(&st), 6);
        // Absolute indices survive the drop.
        let buf = st.buf(p(2), &st.current_view).unwrap();
        assert_eq!((buf.get(4), buf.get(5)), (None, Some(&AppMsg::from("m4"))));
        assert_eq!((buf.longest_prefix(), buf.last_index(), buf.freed()), (10, 10, 4));
        // A peer ahead of the own deliveries frees nothing undelivered.
        on_ack(&mut st, p(2), ack(&[(2, 99)]));
        on_ack(&mut st, p(3), ack(&[(2, 99)]));
        assert_eq!(floor(&st, p(2)), 10);
    }

    #[test]
    fn a_claim_beyond_what_was_sent_counts_as_silence() {
        let mut st = delivered_from_p2(0);
        wv::on_app_send(&mut st, AppMsg::from("own"));
        wv::send_app_msg_eff(&mut st);
        wv::deliver_eff(&mut st, p(1));
        on_ack(&mut st, p(2), ack(&[(1, 1)]));
        on_ack(&mut st, p(3), ack(&[(1, 2)]));
        assert_eq!(floor(&st, p(1)), 0);
        on_ack(&mut st, p(3), ack(&[(1, 1)]));
        assert_eq!(floor(&st, p(1)), 1);
    }

    #[test]
    fn an_ack_from_another_view_or_a_non_member_frees_nothing() {
        let mut st = delivered_from_p2(5);
        on_ack(&mut st, p(2), ack(&[(2, 5)]));
        // p3's stream still belongs to an older view.
        wv::on_view_msg(&mut st, p(3), View::initial(p(3)));
        on_ack(&mut st, p(3), ack(&[(2, 5)]));
        on_ack(&mut st, p(9), ack(&[(2, 5)]));
        on_ack(&mut st, p(1), ack(&[(2, 5)]));
        assert_eq!(st.stability.as_ref().map(|s| s.acked.len()), Some(1));
        assert_eq!(retained_from_p2(&st), 5);
    }

    #[test]
    fn ack_due_arms_one_ack_and_only_news_is_announced() {
        let mut st = delivered_from_p2(3);
        assert!(!send_ack_pre(&st), "nobody asked");
        on_ack_due(&mut st);
        assert!(send_ack_pre(&st));
        let (to, msg) = send_ack_eff(&mut st).expect("armed");
        assert_eq!(to, [p(2), p(3)].into_iter().collect());
        assert_eq!(msg, NetMsg::Ack(ack(&[(2, 3)])));
        assert!(send_ack_eff(&mut st).is_none(), "disarmed");
        on_ack_due(&mut st);
        assert!(!send_ack_pre(&st), "nothing delivered since");
        wv::on_app_msg(&mut st, p(2), AppMsg::from("more"));
        wv::deliver_eff(&mut st, p(2));
        assert!(send_ack_pre(&st), "the request was kept");
    }

    #[test]
    fn ack_due_before_the_view_is_announced_is_dropped() {
        let mut st = State::new(p(1));
        st.mbrshp_view = view123();
        wv::view_eff(&mut st);
        on_ack_due(&mut st);
        assert_eq!(st.stability, None);
    }

    #[test]
    fn alone_in_a_view_the_own_ack_frees() {
        let mut st = State::new(p(1));
        for _ in 0..3 {
            wv::on_app_send(&mut st, AppMsg::from("solo"));
            wv::send_app_msg_eff(&mut st);
            wv::deliver_eff(&mut st, p(1));
        }
        on_ack_due(&mut st);
        let (to, _) = send_ack_eff(&mut st).expect("armed");
        assert!(to.is_empty());
        assert_eq!(st.buf(p(1), &st.current_view).map(|b| b.retained()), Some(0));
    }

    #[test]
    fn a_view_change_forgets_the_acknowledgements() {
        let mut st = delivered_from_p2(2);
        on_ack(&mut st, p(2), ack(&[(2, 2)]));
        on_ack_due(&mut st);
        send_ack_eff(&mut st);
        on_ack_due(&mut st);
        view_eff(&mut st);
        assert_eq!(st.stability, None);
    }
}
