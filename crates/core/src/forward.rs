//! Forwarding strategies (§5.2.2): recovering messages for peers that
//! miss them.
//!
//! During a view change an end-point may have committed (via its cut) to
//! messages that some peer never received — e.g. because the original
//! sender is partitioned away. Members holding such messages *forward*
//! them. The paper leaves the policy open as a
//! `ForwardingStrategyPredicate` and gives two examples, both implemented
//! here:
//!
//! * [`ForwardStrategyKind::Eager`] — a member forwards every message it
//!   has committed to as soon as a peer's synchronization message reveals
//!   the peer misses it. Simple, low latency, up to `|T|−1` copies per
//!   missing message.
//! * [`ForwardStrategyKind::MinCopy`] — members deterministically elect,
//!   per missing message, the committed holder with the smallest id as
//!   the unique forwarder. Usually one copy per missing message.

use crate::state::{State, SyncRecord};
use std::convert::Infallible;
use std::ops::ControlFlow;
use vsgm_types::{Cut, MsgIndex, ProcSet, ProcessId, StartChangeId, View, ViewId};

/// One forwarding obligation: send `msgs[origin][view][index]` to `to`.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardCmd {
    /// Destinations still missing the message.
    pub to: ProcSet,
    /// Original sender.
    pub origin: ProcessId,
    /// View the message was originally sent in.
    pub view: View,
    /// 1-based index in `msgs[origin][view]`.
    pub index: MsgIndex,
}

/// Which `ForwardingStrategyPredicate` of §5.2.2 an end-point runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForwardStrategyKind {
    /// Forwarding disabled (for ablation; liveness under partitions is
    /// lost).
    Disabled,
    /// The paper's first example strategy: everyone committed forwards.
    #[default]
    Eager,
    /// The paper's second example strategy: the minimum-id committed
    /// holder forwards a single copy.
    MinCopy,
}

impl ForwardStrategyKind {
    /// Enumerates the currently enabled forwarding actions, already
    /// filtered against `st.forwarded` (Fig. 10's `forwarded_set`
    /// precondition) and against messages we do not hold.
    pub fn candidates(self, st: &State) -> Vec<ForwardCmd> {
        let mut out = Vec::new();
        let _: ControlFlow<Infallible> = self.walk(st, &mut |cmd| {
            out.push(cmd);
            ControlFlow::Continue(())
        });
        out
    }

    /// The first of [`ForwardStrategyKind::candidates`], found by the same
    /// walk stopped at its first obligation. A walk that finds none
    /// allocates nothing.
    pub fn first_candidate(self, st: &State) -> Option<ForwardCmd> {
        match self.walk(st, &mut ControlFlow::Break) {
            ControlFlow::Break(cmd) => Some(cmd),
            ControlFlow::Continue(()) => None,
        }
    }

    /// Whether `cmd` is one of [`ForwardStrategyKind::candidates`], found
    /// by the same walk stopped where it meets `cmd`.
    pub fn offers(self, st: &State, cmd: &ForwardCmd) -> bool {
        let hit = self.walk(st, &mut |c| {
            if c == *cmd {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        hit.is_break()
    }

    /// Hands every enabled forwarding action to `emit`, in candidate
    /// order, until `emit` breaks.
    fn walk<B>(
        self,
        st: &State,
        emit: &mut impl FnMut(ForwardCmd) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        // Both strategies need a peer's sync record beside an own one, so
        // fewer than two records means nothing is due. That holds only
        // until the first view change: [`State::gc`] keeps one generation,
        // the n records the current view was installed from, so a member
        // of a stable view of n > 1 takes the walk below on every step.
        if st.sync_msgs.len() <= 1 {
            return ControlFlow::Continue(());
        }
        match self {
            ForwardStrategyKind::Disabled => ControlFlow::Continue(()),
            ForwardStrategyKind::Eager => eager(st, emit),
            ForwardStrategyKind::MinCopy => min_copy(st, emit),
        }
    }
}

/// One `sync_msg[q][cid]` cell as `State::sync_msgs` stores it.
type SenderRecord = ((ProcessId, StartChangeId), SyncRecord);

/// The cut of the latest (max-cid) record in `records` that carries view
/// `v`. `records` is one sender's run of `sync_msgs`, in cid order.
fn latest_cut<'a>(records: &'a [SenderRecord], v: &View) -> Option<&'a Cut> {
    records.iter().rev().find(|(_, rec)| rec.view.as_ref() == Some(v)).map(|(_, rec)| &rec.cut)
}

/// The smallest view above `after` that a record in `records` carries: the
/// carried views in order, one call each, without collecting them.
fn next_view<'a>(records: &'a [SenderRecord], after: Option<&View>) -> Option<&'a View> {
    records
        .iter()
        .filter_map(|(_, rec)| rec.view.as_ref())
        .filter(|v| after.is_none_or(|a| *v > a))
        .min()
}

/// §5.2.2, first strategy: `p` forwards `m` (sent by `r` in view `v`) to
/// `q` iff `p` committed to deliver `m`, `p` knows no later view of `q`
/// than `v`, and `q`'s latest sync for `v` shows `q` misses `m`.
///
/// Candidates come per own commitment in view order, then per peer in id
/// order, each side's commitment being its latest (max-cid) non-slim sync
/// record for that view.
fn eager<B>(st: &State, emit: &mut impl FnMut(ForwardCmd) -> ControlFlow<B>) -> ControlFlow<B> {
    // `sync_msgs` is ordered by sender, then cid: one run per sender.
    let by_sender = || st.sync_msgs.as_slice().chunk_by(|(a, _), (b, _)| a.0 == b.0);
    let Some(own) = by_sender().find(|run| run.first().is_some_and(|((q, _), _)| *q == st.pid))
    else {
        return ControlFlow::Continue(());
    };
    let mut after = None;
    while let Some(v) = next_view(own, after) {
        after = Some(v);
        let Some(own_cut) = latest_cut(own, v) else { continue };
        for run in by_sender() {
            let Some(((q, _), _)) = run.first() else { continue };
            if *q == st.pid {
                continue;
            }
            let Some(q_cut) = latest_cut(run, v) else { continue };
            // The largest view id this end-point knows `q` to have reached
            // (via `view_msg`s and sync messages).
            let known = run
                .iter()
                .filter_map(|(_, rec)| rec.view.as_ref().map(View::id))
                .fold(st.view_msg.get(q).map_or(ViewId::ZERO, View::id), ViewId::max);
            if known > v.id() {
                continue; // q has moved on; its old cut is obsolete
            }
            for r in v.members() {
                if r == q {
                    continue; // q has its own messages
                }
                let lo = q_cut.get(*r);
                let hi = own_cut.get(*r);
                for i in (lo + 1)..=hi {
                    if st.forwarded.contains(&(*q, *r, v.clone(), i)) {
                        continue;
                    }
                    if st.buf(*r, v).and_then(|s| s.get(i)).is_none() {
                        continue;
                    }
                    emit(ForwardCmd {
                        to: [*q].into_iter().collect(),
                        origin: *r,
                        view: v.clone(),
                        index: i,
                    })?;
                }
            }
        }
    }
    ControlFlow::Continue(())
}

/// §5.2.2, second strategy: once the membership view `v'` and the sync
/// messages it selects are known, the transitional set `T` elects, for
/// each message from an origin `r ∉ T`, the minimum-id member of `T`
/// committed to it as the unique forwarder; it forwards to the members of
/// `T` whose cuts show they miss the message.
fn min_copy<B>(st: &State, emit: &mut impl FnMut(ForwardCmd) -> ControlFlow<B>) -> ControlFlow<B> {
    let v_new = &st.mbrshp_view;
    // Own sync for this change must exist (we've committed).
    let Some(own_cid) = v_new.start_id(st.pid) else { return ControlFlow::Continue(()) };
    let Some(own) = st.sync(st.pid, own_cid) else { return ControlFlow::Continue(()) };
    let Some(v_old) = &own.view else { return ControlFlow::Continue(()) };

    // All selected syncs from I = v'.set ∩ v_old.set must be present.
    let selected = |q| v_new.start_id(q).and_then(|cid| st.sync(q, cid));
    if v_new.intersection(v_old).any(|q| selected(q).is_none()) {
        return ControlFlow::Continue(());
    }
    // `q`'s cut if `q ∈ T`: its selected sync shows it moving from v_old.
    let t_cut =
        |q| selected(q).filter(|rec| rec.view.as_ref() == Some(v_old)).map(|rec| &rec.cut);
    let t = || v_new.intersection(v_old).filter_map(|q| Some((q, t_cut(q)?)));
    for r in v_old.members() {
        if t_cut(*r).is_some() {
            continue; // r ∈ T: its messages arrive from r directly
        }
        // Below every member's cut nobody misses a message.
        let min_cut = t().map(|(_, c)| c.get(*r)).min().unwrap_or(0);
        let max_cut = t().map(|(_, c)| c.get(*r)).max().unwrap_or(0);
        for i in (min_cut + 1)..=max_cut {
            let min_holder = t().filter(|(_, c)| c.get(*r) >= i).map(|(u, _)| u).min();
            if min_holder != Some(st.pid) {
                continue;
            }
            let misses = |(u, c): &(ProcessId, &Cut)| {
                c.get(*r) < i && !st.forwarded.contains(&(*u, *r, v_old.clone(), i))
            };
            let to: ProcSet = t().filter(misses).map(|(u, _)| u).collect();
            if to.is_empty() {
                continue;
            }
            if st.buf(*r, v_old).and_then(|s| s.get(i)).is_none() {
                continue;
            }
            emit(ForwardCmd { to, origin: *r, view: v_old.clone(), index: i })?;
        }
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::MsgSeq;
    use crate::{vs, wv, Config, Effect, Endpoint, Input};
    use vsgm_types::{AppMsg, SyncPayload};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn set(ids: &[u64]) -> ProcSet {
        ids.iter().map(|&i| p(i)).collect()
    }

    fn view(epoch: u64, members: &[u64], cids: &[u64]) -> View {
        View::new(
            ViewId::new(epoch, 0),
            members.iter().map(|&i| p(i)),
            members.iter().zip(cids).map(|(&m, &c)| (p(m), StartChangeId::new(c))),
        )
    }

    /// p1 in view {1,2,3}; p3 (the origin) sent 2 messages which p1 holds
    /// but p2 misses; reconfiguration to {1,2} in progress.
    fn scenario() -> State {
        let mut st = State::new(p(1));
        let v = view(1, &[1, 2, 3], &[1, 1, 1]);
        st.mbrshp_view = v.clone();
        wv::view_eff(&mut st);
        st.reliable_set = set(&[1, 2, 3]);
        st.view_msg.insert(p(1), v.clone());
        // Receive p3's stream.
        wv::on_view_msg(&mut st, p(3), v.clone());
        wv::on_app_msg(&mut st, p(3), AppMsg::from("m1"));
        wv::on_app_msg(&mut st, p(3), AppMsg::from("m2"));
        // Change starts: {1,2} (p3 partitioned away).
        vs::on_start_change(&mut st, StartChangeId::new(2), set(&[1, 2]));
        // Own sync commits to both of p3's messages.
        let plan = vs::send_sync_eff(&mut st, false, false, false).expect("sync enabled");
        assert_eq!(plan.record.cut.get(p(3)), 2);
        st
    }

    fn p2_sync(st: &mut State, missing_from_p3: u64) {
        let mut cut = Cut::new();
        cut.set(p(3), missing_from_p3);
        let cv = st.current_view.clone();
        vs::on_sync(
            st,
            p(2),
            &SyncPayload {
                cid: StartChangeId::new(4),
                view: Some(cv.clone()),
                cut,
            },
        );
    }

    #[test]
    fn disabled_yields_nothing() {
        let mut st = scenario();
        p2_sync(&mut st, 0);
        assert!(ForwardStrategyKind::Disabled.candidates(&st).is_empty());
    }

    #[test]
    fn eager_forwards_missing_messages() {
        let mut st = scenario();
        p2_sync(&mut st, 0); // p2 has none of p3's messages
        let cmds = ForwardStrategyKind::Eager.candidates(&st);
        assert_eq!(cmds.len(), 2, "{cmds:?}");
        for cmd in &cmds {
            assert_eq!(cmd.to, set(&[2]));
            assert_eq!(cmd.origin, p(3));
        }
        let idxs: Vec<MsgIndex> = cmds.iter().map(|c| c.index).collect();
        assert!(idxs.contains(&1) && idxs.contains(&2));
    }

    #[test]
    fn eager_respects_peer_progress() {
        let mut st = scenario();
        p2_sync(&mut st, 1); // p2 already has message 1
        let cmds = ForwardStrategyKind::Eager.candidates(&st);
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].index, 2);
    }

    #[test]
    fn eager_skips_already_forwarded() {
        let mut st = scenario();
        p2_sync(&mut st, 0);
        st.forwarded.insert((p(2), p(3), st.current_view.clone(), 1));
        let cmds = ForwardStrategyKind::Eager.candidates(&st);
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].index, 2);
    }

    #[test]
    fn eager_ignores_peers_known_to_have_moved_on() {
        let mut st = scenario();
        p2_sync(&mut st, 0);
        // p2 announces a NEWER view: its old cut is obsolete.
        wv::on_view_msg(&mut st, p(2), view(5, &[2], &[9]));
        assert!(ForwardStrategyKind::Eager.candidates(&st).is_empty());
    }

    #[test]
    fn min_copy_waits_for_membership_view() {
        let mut st = scenario();
        p2_sync(&mut st, 0);
        // mbrshp_view still the old view: its startId(p1) = 1 selects an
        // older sync of ours which does not exist ⇒ no candidates yet.
        assert!(ForwardStrategyKind::MinCopy.candidates(&st).is_empty());
    }

    #[test]
    fn min_copy_elects_minimum_holder() {
        let mut st = scenario();
        p2_sync(&mut st, 0);
        st.mbrshp_view = view(2, &[1, 2], &[2, 4]);
        let cmds = ForwardStrategyKind::MinCopy.candidates(&st);
        // p1 is the only (hence min) holder; forwards both to p2, one copy
        // each.
        assert_eq!(cmds.len(), 2, "{cmds:?}");
        for cmd in &cmds {
            assert_eq!(cmd.to, set(&[2]));
            assert_eq!(cmd.origin, p(3));
        }
    }

    #[test]
    fn min_copy_defers_to_smaller_holder() {
        // Like `scenario`, but from p2's perspective, where p1 (smaller
        // id) also committed to the messages: p2 must not forward.
        let mut st = State::new(p(2));
        let v = view(1, &[1, 2, 3], &[1, 1, 1]);
        st.mbrshp_view = v.clone();
        wv::view_eff(&mut st);
        st.reliable_set = set(&[1, 2, 3]);
        wv::on_view_msg(&mut st, p(3), v.clone());
        wv::on_app_msg(&mut st, p(3), AppMsg::from("m1"));
        vs::on_start_change(&mut st, StartChangeId::new(4), set(&[1, 2]));
        let _ = vs::send_sync_eff(&mut st, false, false, false).expect("sync enabled");
        // p1 also committed to message 1 (and misses nothing).
        let mut cut = Cut::new();
        cut.set(p(3), 1);
        vs::on_sync(
            &mut st,
            p(1),
            &SyncPayload { cid: StartChangeId::new(2), view: Some(v), cut },
        );
        st.mbrshp_view = view(2, &[1, 2], &[2, 4]);
        let cmds = ForwardStrategyKind::MinCopy.candidates(&st);
        assert!(cmds.is_empty(), "p1 is the elected forwarder, not p2: {cmds:?}");
    }

    #[test]
    fn min_copy_skips_messages_nobody_misses() {
        let mut st = scenario();
        p2_sync(&mut st, 2); // p2 has everything
        st.mbrshp_view = view(2, &[1, 2], &[2, 4]);
        assert!(ForwardStrategyKind::MinCopy.candidates(&st).is_empty());
    }

    #[test]
    fn min_copy_ignores_origins_inside_t() {
        let mut st = scenario();
        // p2's sync shows p2 moves with us and misses one of OUR messages;
        // but we are in T, so our messages are not forwarded (the original
        // sender channel covers them).
        let mut cut = Cut::new();
        cut.set(p(1), 0);
        cut.set(p(3), 2);
        let cv = st.current_view.clone();
        vs::on_sync(
            &mut st,
            p(2),
            &SyncPayload {
                cid: StartChangeId::new(4),
                view: Some(cv.clone()),
                cut,
            },
        );
        // Give ourselves a sent message so a naive strategy would forward.
        wv::on_app_send(&mut st, AppMsg::from("own"));
        // Re-commit is not possible (sync already sent); directly check.
        st.mbrshp_view = view(2, &[1, 2], &[2, 4]);
        let cmds = ForwardStrategyKind::MinCopy.candidates(&st);
        assert!(
            cmds.iter().all(|c| c.origin != p(1)),
            "own (T-member) messages must not be forwarded: {cmds:?}"
        );
    }

    #[test]
    fn latest_sync_per_view_uses_max_cid() {
        // p2 synced twice from the same view: the later record (cid 5)
        // says it holds both of p3's messages, the earlier one (cid 3)
        // that it holds none. Only the later one counts.
        let mut st = scenario();
        let v = st.current_view.clone();
        let p2_record = |held: u64| SyncRecord {
            view: Some(v.clone()),
            cut: [(p(3), held)].into_iter().collect(),
            stream_pos: 0,
        };
        st.sync_msgs.insert((p(2), StartChangeId::new(3)), p2_record(0));
        st.sync_msgs.insert((p(2), StartChangeId::new(5)), p2_record(2));
        assert!(ForwardStrategyKind::Eager.candidates(&st).is_empty());
        st.sync_msgs.insert((p(2), StartChangeId::new(5)), p2_record(1));
        let cmds = ForwardStrategyKind::Eager.candidates(&st);
        assert_eq!(cmds.iter().map(|c| c.index).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn first_candidate_is_the_first_of_the_candidates() {
        let mut st = scenario();
        p2_sync(&mut st, 0);
        let all = ForwardStrategyKind::Eager.candidates(&st);
        assert_eq!(all.len(), 2);
        assert_eq!(ForwardStrategyKind::Eager.first_candidate(&st).as_ref(), all.first());
        st.mbrshp_view = view(2, &[1, 2], &[2, 4]);
        let all = ForwardStrategyKind::MinCopy.candidates(&st);
        assert_eq!(all.len(), 2);
        assert_eq!(ForwardStrategyKind::MinCopy.first_candidate(&st).as_ref(), all.first());
        assert_eq!(ForwardStrategyKind::Disabled.first_candidate(&st), None);
    }

    /// Four end-points through one complete view change into {1,2,3,4},
    /// then a round of multicasts in it; returns p1.
    fn stable_member_of_four(forward: ForwardStrategyKind) -> Endpoint {
        let cfg = Config { forward, ..Config::default() };
        let mut eps: Vec<Endpoint> = (1..=4).map(|i| Endpoint::new(p(i), cfg.clone())).collect();
        let members = set(&[1, 2, 3, 4]);
        let settle = |eps: &mut Vec<Endpoint>| loop {
            let mut wire = Vec::new();
            for ep in eps.iter_mut() {
                let from = ep.pid();
                for effect in ep.poll() {
                    match effect {
                        Effect::NetSend { to, msg } => {
                            wire.extend(to.into_iter().map(|dest| (from, dest, msg.clone())));
                        }
                        Effect::Block => {
                            ep.handle(Input::BlockOk);
                        }
                        _ => {}
                    }
                }
            }
            if wire.is_empty() {
                return;
            }
            for (from, dest, msg) in wire {
                let ep = eps.iter_mut().find(|ep| ep.pid() == dest).expect("a member");
                ep.handle(Input::Net { from, msg });
            }
        };
        for ep in eps.iter_mut() {
            ep.handle(Input::StartChange { cid: StartChangeId::new(1), set: members.clone() });
        }
        settle(&mut eps);
        let v = view(1, &[1, 2, 3, 4], &[1, 1, 1, 1]);
        for ep in eps.iter_mut() {
            ep.handle(Input::MbrshpView(v.clone()));
        }
        settle(&mut eps);
        for ep in eps.iter_mut() {
            ep.handle(Input::AppSend(AppMsg::from("steady")));
        }
        settle(&mut eps);
        assert!(eps.iter().all(|ep| ep.current_view() == &v && !ep.reconfiguring()));
        eps.swap_remove(0)
    }

    #[test]
    fn a_stable_view_keeps_its_sync_records_and_owes_no_forward() {
        for forward in [ForwardStrategyKind::Eager, ForwardStrategyKind::MinCopy] {
            let ep = stable_member_of_four(forward);
            let st = ep.state();
            // The records the view was installed from survive `State::gc`,
            // so steady state is past the fast path, on the full walk.
            assert_eq!(st.sync_msgs.len(), 4, "{forward:?}");
            assert_eq!(st.buf(p(4), &st.current_view).map(MsgSeq::last_index), Some(1));
            assert_eq!(forward.candidates(st), [], "{forward:?}");
            assert_eq!(forward.first_candidate(st), None, "{forward:?}");
        }
    }
}
