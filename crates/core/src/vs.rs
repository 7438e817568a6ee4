//! Layer 2 — `VS_RFIFO+TS_p` (Fig. 10): Virtual Synchrony and
//! Transitional Sets.
//!
//! The one-round synchronization protocol: on `start_change(cid, set)` the
//! end-point sends a single synchronization message tagged with its
//! **locally unique** `cid`, carrying its current view and a *cut* — the
//! per-sender message counts it commits to deliver before moving on. When
//! the membership view `v'` arrives, its `startId` map identifies which
//! synchronization message of each peer everyone must use, so no globally
//! agreed tag is ever negotiated: the virtual-synchrony round runs in
//! parallel with the membership round.

use crate::state::{State, SyncRecord};
use vsgm_types::{Cut, MsgIndex, NetMsg, ProcSet, ProcessId, StartChangeId, SyncPayload};

/// The deterministic aggregation leader for a suggested membership (§9
/// extension): the smallest process id.
pub fn leader(set: &ProcSet) -> Option<ProcessId> {
    set.iter().next().copied()
}

// ----- input actions -----

/// `mbrshp.start_change_p(id, set)`.
pub fn on_start_change(st: &mut State, cid: StartChangeId, set: ProcSet) {
    st.agg_scope = Some(set.clone());
    st.start_change = Some((cid, set));
    // A cascaded change restarts the aggregation round.
    st.agg_buffer.clear();
    st.agg_flushed = false;
}

/// `co_rfifo.deliver(tag=sync_msg, cid, v, cut)` from `q`. Returns the
/// record stored (for the aggregation relay logic in the endpoint).
pub fn on_sync(st: &mut State, q: ProcessId, payload: &SyncPayload) -> SyncRecord {
    // The sync rides the sender's FIFO stream, so the receive position
    // marks the end of the sender's current-view message sequence.
    let rec =
        SyncRecord { view: payload.view.clone(), cut: payload.cut.clone(), stream_pos: st.rcvd(q) };
    st.sync_msgs.insert((q, payload.cid), rec.clone());
    let latest = st.latest_sync_cid.entry(q).or_insert(payload.cid);
    if payload.cid > *latest {
        *latest = payload.cid;
    }
    rec
}

// ----- locally controlled actions -----

/// The target of `co_rfifo.reliable_p(set)` under the Fig. 10 restriction:
/// `current_view.set` while stable, `current_view.set ∪ start_change.set`
/// during a change.
pub fn reliable_target(st: &State) -> ProcSet {
    let mut set: ProcSet = st.current_view.members().clone();
    if let Some((_, sc_set)) = &st.start_change {
        set.extend(sc_set.iter().copied());
    }
    set
}

/// Whether `reliable_set` already equals [`reliable_target`], decided by
/// walking the two member sets in order instead of building the target.
pub fn reliable_at_target(st: &State) -> bool {
    let members = st.current_view.members();
    match &st.start_change {
        Some((_, sc_set)) => members.union(sc_set).eq(st.reliable_set.iter()),
        None => *members == st.reliable_set,
    }
}

/// `co_rfifo.send_p(set, tag=sync_msg, …)` precondition (Fig. 10; the SD
/// layer adds `block_status = blocked` on top).
///
/// Under [`crate::Config::implicit_cuts`] the sync must additionally ride
/// *behind* the whole current-view stream: the view must be announced and
/// every buffered own message already multicast, so the sync's stream
/// position marks the true end of the sender's sequence.
pub fn send_sync_pre(st: &State, implicit_cuts: bool) -> bool {
    let base = match &st.start_change {
        Some((cid, sc_set)) => {
            sc_set.iter().all(|q| st.reliable_set.contains(q)) && st.sync(st.pid, *cid).is_none()
        }
        None => false,
    };
    if !base {
        return false;
    }
    if implicit_cuts {
        let sent_all =
            st.last_sent == st.buf(st.pid, &st.current_view).map_or(0, |b| b.last_index());
        let announced = st.in_current_view_stream(st.pid);
        return sent_all && (announced || st.current_view.len() == 1);
    }
    true
}

/// The destinations and messages for the synchronization send, honoring
/// the §5.2.4 slim optimization and the §9 aggregation extension, plus
/// the record to store as `sync_msg[p][cid]`.
pub struct SyncSendPlan {
    /// `(destinations, message)` pairs to hand to `CO_RFIFO`.
    pub sends: Vec<(ProcSet, NetMsg)>,
    /// The start-change id answered.
    pub cid: StartChangeId,
    /// The record stored locally.
    pub record: SyncRecord,
}

/// `co_rfifo.send_p(set, tag=sync_msg, cid, v, cut)` effect. `None` when
/// no change is in progress (the action is not enabled).
pub fn send_sync_eff(
    st: &mut State,
    slim: bool,
    aggregation: bool,
    implicit_cuts: bool,
) -> Option<SyncSendPlan> {
    let (cid, sc_set) = st.start_change.clone()?;
    let cv = st.current_view.clone();
    let cut = st.commit_cut();
    let record = SyncRecord { view: Some(cv.clone()), cut: cut.clone(), stream_pos: st.last_sent };
    st.sync_msgs.insert((st.pid, cid), record.clone());

    // Second §5.2.4 optimization: entries about continuing members
    // (start_change.set ∩ current_view.set) are implied by those members'
    // own in-stream syncs and need not travel.
    let wire_cut: Cut = if implicit_cuts {
        cut.iter().filter(|(q, _)| !sc_set.contains(q) || !cv.contains(*q)).collect()
    } else {
        cut
    };
    let full = SyncPayload { cid, view: Some(cv.clone()), cut: wire_cut };
    let mut sends = Vec::new();
    if aggregation {
        // §9: route through the deterministic leader; the leader buffers
        // its own contribution and batches everything (endpoint flushes).
        // The start_change set always includes self, so a leader exists.
        if let Some(ldr) = leader(&sc_set) {
            if ldr == st.pid {
                st.agg_buffer.insert(st.pid, (cid, record.clone()));
            } else {
                sends.push(([ldr].into_iter().collect(), NetMsg::Sync(full)));
            }
        }
    } else if slim {
        // §5.2.4: peers outside our current view cannot have us in their
        // transitional sets; a cid-only message suffices for them.
        let in_view: ProcSet = sc_set
            .iter()
            .copied()
            .filter(|q| *q != st.pid && st.current_view.contains(*q))
            .collect();
        let outside: ProcSet = sc_set
            .iter()
            .copied()
            .filter(|q| *q != st.pid && !st.current_view.contains(*q))
            .collect();
        if !in_view.is_empty() {
            sends.push((in_view, NetMsg::Sync(full.clone())));
        }
        if !outside.is_empty() {
            let slim_msg = SyncPayload { cid, view: None, cut: Cut::new() };
            sends.push((outside, NetMsg::Sync(slim_msg)));
        }
    } else {
        let dests: ProcSet = sc_set.iter().copied().filter(|q| *q != st.pid).collect();
        if !dests.is_empty() {
            sends.push((dests, NetMsg::Sync(full)));
        }
    }
    Some(SyncSendPlan { sends, cid, record })
}

/// The agreed post-view delivery bound for messages from `q`, computed
/// from the syncs the membership view selects. Under implicit cuts, the
/// bound for a continuing member is the stream position of its own sync;
/// for everyone else (and always when the optimization is off) it is the
/// max over the transitional candidates' cut entries.
fn agreed_bound(st: &State, q: ProcessId, implicit_cuts: bool) -> MsgIndex {
    let v = &st.mbrshp_view;
    if implicit_cuts && v.contains(q) && st.current_view.contains(q) {
        if let Some(rec) = v.start_id(q).and_then(|cid| st.sync(q, cid)) {
            if rec.view.as_ref() == Some(&st.current_view) {
                return rec.stream_pos;
            }
        }
        // The member's sync shows another previous view (or is missing):
        // nothing of its current-view stream is agreed.
        return 0;
    }
    potential_transitional(st)
        .filter_map(|r| {
            let r_cid = v.start_id(r)?;
            Some(st.sync(r, r_cid)?.cut.get(q))
        })
        .max()
        .unwrap_or(0)
}

/// The Fig. 10 restriction on `deliver_p(q, m)`: once the end-point has
/// committed to a cut (own sync sent for the pending change), it may not
/// deliver beyond the relevant bound. Returns `None` when unrestricted.
pub fn delivery_bound_with(st: &State, q: ProcessId, implicit_cuts: bool) -> Option<MsgIndex> {
    let (cid, _) = st.start_change.as_ref()?;
    let own = st.sync(st.pid, *cid)?;
    if st.mbrshp_view.start_id(st.pid) == Some(*cid) {
        // The membership view for this change has arrived.
        Some(agreed_bound(st, q, implicit_cuts))
    } else {
        Some(own.cut.get(q))
    }
}

/// [`delivery_bound_with`] with the optimization off (the paper's plain
/// Fig. 10 semantics): the bound `deliver`'s precondition enforces, under
/// every configuration, and what the audit's Invariant 7.1 check reads.
pub fn delivery_bound(st: &State, q: ProcessId) -> Option<MsgIndex> {
    delivery_bound_with(st, q, false)
}

/// `S` of Fig. 10's deliver restriction: processes in
/// `mbrshp_view.set ∩ current_view.set` whose selected synchronization
/// message shows they move from our current view.
fn potential_transitional(st: &State) -> impl Iterator<Item = ProcessId> + '_ {
    st.mbrshp_view.intersection(&st.current_view).filter(|r| {
        st.mbrshp_view
            .start_id(*r)
            .and_then(|cid| st.sync(*r, cid))
            .is_some_and(|rec| rec.view.as_ref() == Some(&st.current_view))
    })
}

/// The Fig. 10 restriction on `view_p(v, T)`. Returns the transitional
/// set when every precondition holds, `None` otherwise:
///
/// 1. `v.startId(p) = start_change.id` — never deliver obsolete views;
/// 2. a synchronization message selected by `v.startId` is present from
///    every member of `v.set ∩ current_view.set`;
/// 3. exactly the agreed cut has been delivered:
///    `∀q ∈ current_view.set: last_dlvrd[q] = max_{r∈T} cut_r(q)`.
///
/// `implicit_cuts` is [`crate::Config::implicit_cuts`].
pub fn view_restriction_with(st: &State, implicit_cuts: bool) -> Option<ProcSet> {
    if !view_ready(st, implicit_cuts) {
        return None;
    }
    st.transitional_set()
}

/// Whether [`view_restriction_with`] holds, decided without building the
/// transitional set.
pub fn view_ready(st: &State, implicit_cuts: bool) -> bool {
    let v = &st.mbrshp_view;
    let Some((cid, _)) = &st.start_change else { return false };
    if v.start_id(st.pid) != Some(*cid) {
        return false;
    }
    // All required sync messages present?
    let selected_present = |q| v.start_id(q).is_some_and(|q_cid| st.sync(q, q_cid).is_some());
    if !v.intersection(&st.current_view).all(selected_present) {
        return false;
    }
    // Agreed-cut equality.
    st.current_view.members().iter().all(|q| st.dlvrd(*q) == agreed_bound(st, *q, implicit_cuts))
}

/// `view_p(v, T)` effect added by this layer.
pub fn view_eff(st: &mut State) {
    st.start_change = None;
    // Aggregation bookkeeping is deliberately retained: the leader keeps
    // relaying straggler syncs to members that have not installed yet.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wv;
    use vsgm_types::{AppMsg, View, ViewId};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn set(ids: &[u64]) -> ProcSet {
        ids.iter().map(|&i| p(i)).collect()
    }

    fn view12(epoch: u64, cid1: u64, cid2: u64) -> View {
        View::new(
            ViewId::new(epoch, 0),
            [p(1), p(2)],
            [(p(1), StartChangeId::new(cid1)), (p(2), StartChangeId::new(cid2))],
        )
    }

    /// p1 in view {1,2}, having announced it, with a pending change.
    fn reconfiguring_state() -> State {
        let mut st = State::new(p(1));
        st.mbrshp_view = view12(1, 1, 1);
        wv::view_eff(&mut st);
        st.reliable_set = set(&[1, 2]);
        st.view_msg.insert(p(1), st.current_view.clone());
        on_start_change(&mut st, StartChangeId::new(2), set(&[1, 2]));
        st
    }

    #[test]
    fn leader_is_min() {
        assert_eq!(leader(&set(&[3, 1, 2])), Some(p(1)));
        assert_eq!(leader(&ProcSet::new()), None);
    }

    #[test]
    fn reliable_target_grows_during_change() {
        let mut st = State::new(p(1));
        assert_eq!(reliable_target(&st), set(&[1]));
        on_start_change(&mut st, StartChangeId::new(1), set(&[1, 2, 3]));
        assert_eq!(reliable_target(&st), set(&[1, 2, 3]));
    }

    #[test]
    fn sync_send_requires_reliable_coverage() {
        let mut st = State::new(p(1));
        on_start_change(&mut st, StartChangeId::new(1), set(&[1, 2]));
        assert!(!send_sync_pre(&st, false), "reliable set does not cover the change set yet");
        st.reliable_set = set(&[1, 2]);
        assert!(send_sync_pre(&st, false));
        let plan = send_sync_eff(&mut st, false, false, false).expect("sync enabled");
        assert_eq!(plan.sends.len(), 1);
        assert_eq!(plan.sends[0].0, set(&[2]));
        // Own sync stored: the action disables itself.
        assert!(!send_sync_pre(&st, false));
    }

    #[test]
    fn sync_cut_commits_buffered_prefix() {
        let mut st = reconfiguring_state();
        // Two messages from p2 buffered, one own message sent.
        let cv = st.current_view.clone();
        wv::on_view_msg(&mut st, p(2), cv);
        wv::on_app_msg(&mut st, p(2), AppMsg::from("a"));
        wv::on_app_msg(&mut st, p(2), AppMsg::from("b"));
        wv::on_app_send(&mut st, AppMsg::from("own"));
        let plan = send_sync_eff(&mut st, false, false, false).expect("sync enabled");
        assert_eq!(plan.record.cut.get(p(2)), 2);
        assert_eq!(plan.record.cut.get(p(1)), 1);
    }

    #[test]
    fn slim_sync_splits_destinations() {
        let mut st = reconfiguring_state();
        // Change set includes p3, which is outside the current view.
        on_start_change(&mut st, StartChangeId::new(3), set(&[1, 2, 3]));
        st.reliable_set = set(&[1, 2, 3]);
        let plan = send_sync_eff(&mut st, true, false, false).expect("sync enabled");
        assert_eq!(plan.sends.len(), 2);
        let full = &plan.sends[0];
        let slim = &plan.sends[1];
        assert_eq!(full.0, set(&[2]));
        assert_eq!(slim.0, set(&[3]));
        match (&full.1, &slim.1) {
            (NetMsg::Sync(f), NetMsg::Sync(s)) => {
                assert!(!f.is_slim());
                assert!(s.is_slim());
                assert!(s.wire_size() < f.wire_size());
            }
            other => panic!("unexpected messages {other:?}"),
        }
    }

    #[test]
    fn aggregation_routes_to_leader() {
        let mut st = State::new(p(2));
        st.reliable_set = set(&[1, 2, 3]);
        on_start_change(&mut st, StartChangeId::new(1), set(&[1, 2, 3]));
        let plan = send_sync_eff(&mut st, false, true, false).expect("sync enabled");
        assert_eq!(plan.sends.len(), 1);
        assert_eq!(plan.sends[0].0, set(&[1]), "non-leader sends only to the leader");
    }

    #[test]
    fn aggregation_leader_buffers_own() {
        let mut st = State::new(p(1));
        st.reliable_set = set(&[1, 2, 3]);
        on_start_change(&mut st, StartChangeId::new(1), set(&[1, 2, 3]));
        let plan = send_sync_eff(&mut st, false, true, false).expect("sync enabled");
        assert!(plan.sends.is_empty());
        assert!(st.agg_buffer.contains_key(&p(1)));
    }

    #[test]
    fn delivery_unrestricted_before_own_sync() {
        let st = reconfiguring_state();
        assert_eq!(delivery_bound(&st, p(2)), None);
    }

    #[test]
    fn delivery_bounded_by_own_cut_before_view() {
        let mut st = reconfiguring_state();
        let cv = st.current_view.clone();
        wv::on_view_msg(&mut st, p(2), cv);
        wv::on_app_msg(&mut st, p(2), AppMsg::from("a"));
        let _ = send_sync_eff(&mut st, false, false, false).expect("sync enabled");
        // mbrshp_view is still the old view: bound = own cut.
        assert_eq!(delivery_bound(&st, p(2)), Some(1));
        // A message arriving after the cut is not deliverable.
        wv::on_app_msg(&mut st, p(2), AppMsg::from("late"));
        assert_eq!(delivery_bound(&st, p(2)), Some(1));
    }

    #[test]
    fn delivery_bound_uses_max_cut_after_view() {
        let mut st = reconfiguring_state();
        let _ = send_sync_eff(&mut st, false, false, false).expect("sync enabled");
        // The new membership view arrives (cids: p1→2, p2→5).
        st.mbrshp_view = view12(2, 2, 5);
        // p2's sync commits to 3 messages from p2.
        let mut cut = Cut::new();
        cut.set(p(2), 3);
        let cv = st.current_view.clone();
        on_sync(
            &mut st,
            p(2),
            &SyncPayload { cid: StartChangeId::new(5), view: Some(cv.clone()), cut },
        );
        assert_eq!(delivery_bound(&st, p(2)), Some(3));
    }

    #[test]
    fn view_restriction_rejects_obsolete_views() {
        let mut st = reconfiguring_state();
        let _ = send_sync_eff(&mut st, false, false, false).expect("sync enabled");
        // A view tagged with an OLD cid for p1 (cid 1, but the pending
        // change is cid 2): obsolete, must not be delivered.
        st.mbrshp_view = view12(2, 1, 1);
        assert_eq!(view_restriction_with(&st, false), None);
    }

    #[test]
    fn view_restriction_full_flow() {
        let mut st = reconfiguring_state();
        let _ = send_sync_eff(&mut st, false, false, false).expect("sync enabled");
        st.mbrshp_view = view12(2, 2, 7);
        // Missing p2's sync: not yet installable.
        assert_eq!(view_restriction_with(&st, false), None);
        let cv = st.current_view.clone();
        on_sync(
            &mut st,
            p(2),
            &SyncPayload { cid: StartChangeId::new(7), view: Some(cv.clone()), cut: Cut::new() },
        );
        let t = view_restriction_with(&st, false).expect("installable");
        assert_eq!(t, set(&[1, 2]));
        view_eff(&mut st);
        assert!(st.start_change.is_none());
    }

    #[test]
    fn joiner_from_other_view_excluded_from_t() {
        let mut st = reconfiguring_state();
        let _ = send_sync_eff(&mut st, false, false, false).expect("sync enabled");
        // New view includes p3, whose sync shows a different previous view.
        let v = View::new(
            ViewId::new(2, 0),
            [p(1), p(2), p(3)],
            [
                (p(1), StartChangeId::new(2)),
                (p(2), StartChangeId::new(4)),
                (p(3), StartChangeId::new(9)),
            ],
        );
        st.mbrshp_view = v;
        let cv = st.current_view.clone();
        on_sync(
            &mut st,
            p(2),
            &SyncPayload { cid: StartChangeId::new(4), view: Some(cv.clone()), cut: Cut::new() },
        );
        // p3 moves from its own (initial) view — slim or different view.
        let t = view_restriction_with(&st, false).expect("installable");
        assert_eq!(t, set(&[1, 2]), "p3 not in current view ⇒ not consulted for T");
    }
}
