//! Layer 1 — `WV_RFIFO_p` (Fig. 9): within-view reliable FIFO multicast.
//!
//! Preconditions and effects of the base automaton. Each function mirrors
//! one transition of Fig. 9; the `VS` and `SD` layers add restrictions on
//! top (see [`crate::vs`], [`crate::sd`]), exactly as the paper's child
//! automata do.

use crate::state::{MsgSeq, State};
use vsgm_types::{AppMsg, FwdPayload, MsgIndex, NetMsg, ProcSet, ProcessId, View};

// ----- input actions (always enabled) -----

/// `send_p(m)`: the application multicasts `m` — append to
/// `msgs[p][current_view]`.
///
/// Exception: once the own synchronization message for an in-progress
/// view change has been sent, the committed cut no longer covers new own
/// messages. Appending here would stamp the *old* view on a message the
/// old view's agreement never saw, so such sends are queued in
/// `pending_sends` and re-issued when the next view installs (the paper's
/// blocking client, Fig. 12, makes this window unreachable; a
/// non-blocking client hits it).
pub fn on_app_send(st: &mut State, m: AppMsg) {
    if let Some((cid, _)) = &st.start_change {
        if st.sync(st.pid, *cid).is_some() {
            st.pending_sends.push(m);
            return;
        }
    }
    let view = st.current_view.clone();
    let pid = st.pid;
    if st.batch_opened_us.is_none() {
        st.batch_opened_us = Some(st.now_us);
    }
    st.buf_mut(pid, &view).push(m);
}

/// `mbrshp.view_p(v)`: record the membership view.
pub fn on_mbrshp_view(st: &mut State, v: View) {
    st.mbrshp_view = v;
}

/// `co_rfifo.deliver(tag=view_msg, v)` from `q`: subsequent original
/// messages from `q` belong to view `v`.
pub fn on_view_msg(st: &mut State, q: ProcessId, v: View) {
    st.view_msg.insert(q, v);
    st.last_rcvd.insert(q, 0);
}

/// `co_rfifo.deliver(tag=app_msg, m)` from `q`: store at the next index of
/// the stream delimited by the latest `view_msg` from `q`.
pub fn on_app_msg(st: &mut State, q: ProcessId, m: AppMsg) {
    let v = st.view_msg_of(q);
    let idx = st.rcvd(q) + 1;
    st.buf_mut(q, &v).set(idx, m);
    st.last_rcvd.insert(q, idx);
}

/// `co_rfifo.deliver(tag=fwd_msg, r, v, m, i)`: store the forwarded
/// original at its tagged position. Returns `false` when the buffer
/// refused the index ([`MsgSeq::set`]).
pub fn on_fwd_msg(st: &mut State, f: FwdPayload) -> bool {
    st.buf_mut(f.origin, &f.view).set(f.index, f.msg)
}

// ----- locally controlled actions -----

/// `view_p(v)` precondition: `v = mbrshp_view ∧ v.id > current_view.id`.
pub fn view_pre(st: &State) -> bool {
    st.mbrshp_view.id() > st.current_view.id()
}

/// `view_p(v)` effect: install the membership view, reset per-view
/// counters.
pub fn view_eff(st: &mut State) {
    st.current_view = st.mbrshp_view.clone();
    st.last_sent = 0;
    st.last_dlvrd.clear();
}

/// `deliver_p(q, m)` precondition: the next FIFO message from `q` in the
/// current view is present, and own messages are only self-delivered
/// after being multicast (`q = p ⇒ last_dlvrd[q] < last_sent`). Returns
/// the message to deliver.
pub fn deliver_pre(st: &State, q: ProcessId) -> Option<&AppMsg> {
    let next = st.dlvrd(q) + 1;
    if q == st.pid && st.dlvrd(q) >= st.last_sent {
        return None;
    }
    st.buf(q, &st.current_view).and_then(|seq| seq.get(next))
}

/// `deliver_p(q, m)` effect.
pub fn deliver_eff(st: &mut State, q: ProcessId) {
    let next = st.dlvrd(q) + 1;
    st.last_dlvrd.insert(q, next);
}

/// `co_rfifo.send_p(set, tag=view_msg, v)` precondition: the current view
/// has not been announced yet and reliable channels cover it.
pub fn send_view_msg_pre(st: &State) -> bool {
    !st.in_current_view_stream(st.pid)
        && st.current_view.members().iter().all(|m| st.reliable_set.contains(m))
}

/// `co_rfifo.send_p(set, tag=view_msg, v)` effect. Returns the destination
/// set (current view minus self) and the message.
pub fn send_view_msg_eff(st: &mut State) -> (ProcSet, NetMsg) {
    let set: ProcSet = st.current_view.members().iter().copied().filter(|m| *m != st.pid).collect();
    let msg = NetMsg::ViewMsg(st.current_view.clone());
    st.view_msg.insert(st.pid, st.current_view.clone());
    (set, msg)
}

/// `co_rfifo.send_p(set, tag=app_msg, m)` precondition: the view has been
/// announced and an unsent own message exists. Returns it.
pub fn send_app_msg_pre(st: &State) -> Option<&AppMsg> {
    if !st.in_current_view_stream(st.pid) {
        return None;
    }
    st.buf(st.pid, &st.current_view).and_then(|seq| seq.get(st.last_sent + 1))
}

/// `co_rfifo.send_p(set, tag=app_msg, m)` effect. `None` when
/// [`send_app_msg_pre`] is false (the action is not enabled).
pub fn send_app_msg_eff(st: &mut State) -> Option<(ProcSet, NetMsg)> {
    let m = send_app_msg_pre(st)?.clone();
    let set: ProcSet = st.current_view.members().iter().copied().filter(|q| *q != st.pid).collect();
    st.last_sent += 1;
    rearm_batch_clock(st);
    Some((set, NetMsg::App(m)))
}

/// Precondition of the batched send: identical to [`send_app_msg_pre`].
/// Batching changes *how many* unsent messages one `co_rfifo.send_p`
/// covers, never *whether* the action is enabled — the enabling condition
/// is still "the view is announced and an unsent own message exists".
pub fn send_app_batch_pre(st: &State) -> Option<&AppMsg> {
    send_app_msg_pre(st)
}

/// Batched variant of [`send_app_msg_eff`]: packs up to `max_msgs` /
/// `max_bytes` worth of consecutive unsent own messages into one wire
/// frame. The batch is exactly a prefix of the unsent suffix of
/// `msgs[p][current_view]` — `last_sent` advances over it atomically, so
/// per-message semantics are preserved byte-for-byte (receivers unbatch
/// in order). The first message is always included even when it alone
/// exceeds `max_bytes` (it flushes by itself). Returns the destination
/// set, the wire message (`NetMsg::App` for a single message so the
/// per-message wire format is unchanged when batching never engages), and
/// the number of messages covered.
pub fn send_app_batch_eff(
    st: &mut State,
    max_msgs: u64,
    max_bytes: usize,
) -> Option<(ProcSet, NetMsg, u64)> {
    let first = send_app_batch_pre(st)?.clone();
    let mut batch = vec![first];
    let mut bytes = batch.first().map_or(0, AppMsg::len);
    if let Some(buf) = st.buf(st.pid, &st.current_view) {
        while (batch.len() as u64) < max_msgs.max(1) {
            let Some(next) = buf.get(st.last_sent + batch.len() as u64 + 1) else {
                break;
            };
            if bytes + next.len() > max_bytes {
                break;
            }
            bytes += next.len();
            batch.push(next.clone());
        }
    }
    let set: ProcSet = st.current_view.members().iter().copied().filter(|q| *q != st.pid).collect();
    let k = batch.len() as u64;
    st.last_sent += k;
    rearm_batch_clock(st);
    let msg = if k == 1 { NetMsg::App(batch.pop()?) } else { NetMsg::AppBatch(batch) };
    Some((set, msg, k))
}

/// After a send advanced `last_sent`: clear the linger clock if the
/// pending batch drained, else restart it for the remaining suffix.
fn rearm_batch_clock(st: &mut State) {
    let remaining =
        st.buf(st.pid, &st.current_view).is_some_and(|seq| seq.last_index() > st.last_sent);
    st.batch_opened_us = remaining.then_some(st.now_us);
}

/// The number of messages from `q` buffered gap-free for the current view
/// (for cut computation and tests).
pub fn available_from(st: &State, q: ProcessId) -> MsgIndex {
    st.buf(q, &st.current_view).map_or(0, MsgSeq::longest_prefix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_types::{StartChangeId, ViewId};

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

    #[test]
    fn app_send_appends_to_current_view_buffer() {
        let mut st = State::new(p(1));
        on_app_send(&mut st, AppMsg::from("a"));
        on_app_send(&mut st, AppMsg::from("b"));
        assert_eq!(available_from(&st, p(1)), 2);
    }

    #[test]
    fn self_delivery_gated_on_multicast() {
        let mut st = State::new(p(1));
        on_app_send(&mut st, AppMsg::from("a"));
        // Not yet sent via CO_RFIFO: self-delivery disabled.
        assert_eq!(deliver_pre(&st, p(1)), None);
        st.last_sent = 1;
        assert_eq!(deliver_pre(&st, p(1)), Some(&AppMsg::from("a")));
        deliver_eff(&mut st, p(1));
        assert_eq!(deliver_pre(&st, p(1)), None);
    }

    #[test]
    fn view_pre_requires_larger_id() {
        let mut st = State::new(p(1));
        assert!(!view_pre(&st));
        st.mbrshp_view = view12(1);
        assert!(view_pre(&st));
        view_eff(&mut st);
        assert!(!view_pre(&st));
        assert_eq!(st.current_view, view12(1));
        assert_eq!(st.last_sent, 0);
    }

    #[test]
    fn view_msg_gates_app_sends() {
        let mut st = State::new(p(1));
        st.mbrshp_view = view12(1);
        view_eff(&mut st);
        on_app_send(&mut st, AppMsg::from("a"));
        // view_msg for the new view not announced yet.
        assert_eq!(send_app_msg_pre(&st), None);
        // Cannot announce until reliable covers the view.
        assert!(!send_view_msg_pre(&st));
        st.reliable_set = [p(1), p(2)].into_iter().collect();
        assert!(send_view_msg_pre(&st));
        let (set, msg) = send_view_msg_eff(&mut st);
        assert_eq!(set, [p(2)].into_iter().collect());
        assert!(matches!(msg, NetMsg::ViewMsg(v) if v == view12(1)));
        // Now app messages flow.
        assert_eq!(send_app_msg_pre(&st), Some(&AppMsg::from("a")));
        let (set, msg) = send_app_msg_eff(&mut st).expect("send enabled");
        assert_eq!(set, [p(2)].into_iter().collect());
        assert!(matches!(msg, NetMsg::App(m) if m == AppMsg::from("a")));
        assert_eq!(st.last_sent, 1);
    }

    #[test]
    fn batched_send_covers_unsent_suffix_in_order() {
        let mut st = State::new(p(1));
        st.mbrshp_view = view12(1);
        view_eff(&mut st);
        st.reliable_set = [p(1), p(2)].into_iter().collect();
        send_view_msg_eff(&mut st);
        for m in ["a", "b", "c"] {
            on_app_send(&mut st, AppMsg::from(m));
        }
        let (set, msg, k) = send_app_batch_eff(&mut st, 2, 1024).expect("enabled");
        assert_eq!(k, 2);
        assert_eq!(set, [p(2)].into_iter().collect());
        assert!(matches!(
            msg,
            NetMsg::AppBatch(b) if b == vec![AppMsg::from("a"), AppMsg::from("b")]
        ));
        assert_eq!(st.last_sent, 2);
        // One message left: the batch clock stays armed for it.
        assert!(st.batch_opened_us.is_some());
        // The remainder goes out as a plain App frame (k == 1).
        let (_, msg, k) = send_app_batch_eff(&mut st, 2, 1024).expect("enabled");
        assert_eq!(k, 1);
        assert!(matches!(msg, NetMsg::App(m) if m == AppMsg::from("c")));
        assert_eq!(st.batch_opened_us, None);
    }

    #[test]
    fn batch_byte_budget_stops_packing_but_oversized_head_flushes_alone() {
        let mut st = State::new(p(1));
        on_app_send(&mut st, AppMsg::from(vec![0u8; 10]));
        on_app_send(&mut st, AppMsg::from(vec![1u8; 10]));
        st.last_sent = 0;
        // Budget of 15 bytes: the 10-byte head fits, the second would
        // overflow.
        let (_, msg, k) = send_app_batch_eff(&mut st, 8, 15).expect("enabled");
        assert_eq!(k, 1);
        assert!(matches!(msg, NetMsg::App(_)));
        // Budget of 5 bytes: smaller than the head — it still goes alone.
        let (_, _, k) = send_app_batch_eff(&mut st, 8, 5).expect("enabled");
        assert_eq!(k, 1);
    }

    #[test]
    fn send_after_own_sync_queues_for_next_view() {
        use crate::state::SyncRecord;
        use vsgm_types::Cut;
        let mut st = State::new(p(1));
        let cid = StartChangeId::new(9);
        st.start_change = Some((cid, [p(1), p(2)].into_iter().collect()));
        st.sync_msgs.insert(
            (p(1), cid),
            SyncRecord { view: Some(st.current_view.clone()), cut: Cut::default(), stream_pos: 0 },
        );
        on_app_send(&mut st, AppMsg::from("late"));
        // Not in the old view's buffer — queued for the next view.
        assert_eq!(available_from(&st, p(1)), 0);
        assert_eq!(st.pending_sends, vec![AppMsg::from("late")]);
        // Before the own sync is sent, sends still reach the buffer.
        let mut st2 = State::new(p(1));
        st2.start_change = Some((cid, [p(1), p(2)].into_iter().collect()));
        on_app_send(&mut st2, AppMsg::from("in-time"));
        assert_eq!(available_from(&st2, p(1)), 1);
        assert!(st2.pending_sends.is_empty());
    }

    #[test]
    fn incoming_stream_is_associated_with_announced_view() {
        let mut st = State::new(p(2));
        let v = view12(1);
        // p1's stream: view_msg then two app messages.
        on_view_msg(&mut st, p(1), v.clone());
        on_app_msg(&mut st, p(1), AppMsg::from("a"));
        on_app_msg(&mut st, p(1), AppMsg::from("b"));
        assert_eq!(st.buf(p(1), &v).unwrap().longest_prefix(), 2);
        // Not yet deliverable: p2 still in its initial view.
        assert_eq!(deliver_pre(&st, p(1)), None);
        st.mbrshp_view = v;
        view_eff(&mut st);
        assert_eq!(deliver_pre(&st, p(1)), Some(&AppMsg::from("a")));
    }

    #[test]
    fn fwd_msg_fills_tagged_slot() {
        let mut st = State::new(p(2));
        let v = view12(1);
        on_fwd_msg(
            &mut st,
            FwdPayload { origin: p(1), view: v.clone(), index: 3, msg: AppMsg::from("c") },
        );
        assert_eq!(st.buf(p(1), &v).unwrap().get(3), Some(&AppMsg::from("c")));
        assert_eq!(st.buf(p(1), &v).unwrap().longest_prefix(), 0);
    }

    #[test]
    fn view_msg_resets_stream_counter() {
        let mut st = State::new(p(2));
        let v1 = view12(1);
        let v2 = view12(2);
        on_view_msg(&mut st, p(1), v1.clone());
        on_app_msg(&mut st, p(1), AppMsg::from("a"));
        on_view_msg(&mut st, p(1), v2.clone());
        on_app_msg(&mut st, p(1), AppMsg::from("x"));
        assert_eq!(st.buf(p(1), &v1).unwrap().longest_prefix(), 1);
        assert_eq!(st.buf(p(1), &v2).unwrap().longest_prefix(), 1);
    }
}
