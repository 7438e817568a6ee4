//! **vsgm-baseline** — a traditional *two-round, pre-agreement* virtually
//! synchronous multicast end-point, the comparison arm for the paper's
//! headline claim.
//!
//! Previously suggested virtual-synchrony algorithms (the paper's
//! references \[7, 22\]) have processes first agree on a **globally unique
//! identifier** (round 1: all-to-all proposals deterministically merged
//! into a tag), and only then exchange synchronization messages labeled
//! with that tag (round 2). The paper's algorithm eliminates round 1 by
//! tagging synchronization messages with *locally* unique start-change
//! ids and letting the membership view's `startId` map select them.
//!
//! [`BaselineEndpoint`] implements the two-round scheme behind the same
//! [`GroupEndpoint`] interface as the paper's algorithm, over the same
//! `CO_RFIFO` substrate and membership notifications, so the experiment
//! harness can run both under identical scenarios and measure:
//!
//! * one extra message round per view change (E1/E2);
//! * zero application deliveries during reconfiguration — the baseline
//!   conservatively blocks delivery while agreement is running, whereas
//!   the paper's algorithm keeps delivering (E4);
//! * installation of soon-to-be-obsolete views under cascaded membership
//!   changes, which the paper's `startId` precondition rules out (E3).
//!
//! Scope: the baseline is faithful for clean, fully connected view
//! changes (what the comparative experiments use). It does not implement
//! message forwarding, and under adversarial cascade timings its
//! transitional sets can be inconsistent — limitations shared by the
//! simple pre-agreement schemes it models, and part of why the paper's
//! design is preferable.

#![warn(missing_docs)]
#![allow(
    clippy::disallowed_types,
    reason = "outside D1: `rounds` is probed by key, never iterated"
)]
#![allow(clippy::panic, reason = "outside P1: a comparison baseline that stops on a livelock")]

use std::collections::{BTreeMap, BTreeSet, HashMap};
use vsgm_core::state::State;
use vsgm_core::{wv, Effect, GroupEndpoint, Input};
use vsgm_obs::Recorder;
use vsgm_types::{BaselineMsg, Cut, MsgIndex, NetMsg, ProcSet, ProcessId, View};

/// A globally unique agreement tag: `(max proposed seq, proposer id)`.
pub type Tag = (u64, u64);

#[derive(Debug, Clone, Default)]
struct Round {
    /// Max-merged proposal sequence numbers, per participant.
    proposals: BTreeMap<ProcessId, u64>,
    /// Received (and own) tagged synchronization messages.
    syncs: BTreeMap<(ProcessId, Tag), (View, Cut)>,
    /// The local change counter value our latest proposal answered.
    own_change: u64,
    /// Tags for which we already sent our sync.
    synced: BTreeSet<Tag>,
}

impl Round {
    /// The agreed tag, once proposals from every participant are in.
    fn tag(&self, participants: &ProcSet) -> Option<Tag> {
        if !participants.iter().all(|q| self.proposals.contains_key(q)) {
            return None;
        }
        self.proposals.iter().map(|(q, seq)| (*seq, q.raw())).max()
    }
}

/// The pre-agreement baseline end-point.
///
/// Reuses the `WV_RFIFO` machinery of `vsgm-core` verbatim (the
/// within-view FIFO layer is identical in both designs); only the view
/// synchronization differs.
///
/// ```
/// use vsgm_baseline::BaselineEndpoint;
/// use vsgm_core::{GroupEndpoint, Input};
/// use vsgm_obs::NoopRecorder;
/// use vsgm_types::{ProcessId, StartChangeId};
///
/// let mut ep = BaselineEndpoint::new(ProcessId::new(1));
/// let set = [ProcessId::new(1)].into_iter().collect();
/// let start = Input::StartChange { cid: StartChangeId::new(1), set };
/// ep.step(Some(start), &mut NoopRecorder, &mut Vec::new());
/// assert!(ep.reconfiguring());
/// ```
#[derive(Debug, Clone)]
pub struct BaselineEndpoint {
    st: State,
    /// Monotone proposal counter.
    seq: u64,
    /// Local count of `start_change` notifications (drives re-proposals
    /// on cascades).
    changes_seen: u64,
    rounds: HashMap<ProcSet, Round>,
}

impl BaselineEndpoint {
    /// Creates a baseline end-point in its initial singleton view.
    pub fn new(pid: ProcessId) -> Self {
        BaselineEndpoint { st: State::new(pid), seq: 0, changes_seen: 0, rounds: HashMap::new() }
    }

    /// Read access to the shared state (tests).
    pub fn state(&self) -> &State {
        &self.st
    }

    /// Participant sets we currently need agreement for: the pending
    /// change's suggestion, plus the member set of a pending membership
    /// view when it differs (re-agreement fallback).
    fn agreement_targets(&self) -> Vec<ProcSet> {
        let mut out = Vec::new();
        if let Some((_, sc_set)) = &self.st.start_change {
            out.push(sc_set.clone());
            if self.st.mbrshp_view.id() > self.st.current_view.id()
                && self.st.mbrshp_view.members() != sc_set
            {
                out.push(self.st.mbrshp_view.members().clone());
            }
        }
        out
    }

    fn reliable_target(&self) -> ProcSet {
        let mut set = self.st.current_view.members().clone();
        for s in self.agreement_targets() {
            set.extend(s);
        }
        set
    }

    fn blocked(&self) -> bool {
        self.st.block_status == vsgm_core::state::BlockStatus::Blocked
    }

    /// Proposal sends that are currently due.
    fn due_proposals(&self) -> Vec<ProcSet> {
        if !self.blocked() {
            return Vec::new();
        }
        self.agreement_targets()
            .into_iter()
            .filter(|s| {
                s.iter().all(|q| self.st.reliable_set.contains(q))
                    && self.rounds.get(s).is_none_or(|r| r.own_change < self.changes_seen)
            })
            .collect()
    }

    /// Tagged-sync sends that are currently due: `(participants, tag)`.
    fn due_syncs(&self) -> Vec<(ProcSet, Tag)> {
        if !self.blocked() {
            return Vec::new();
        }
        self.agreement_targets()
            .into_iter()
            .filter_map(|s| {
                let r = self.rounds.get(&s)?;
                let tag = r.tag(&s)?;
                if r.synced.contains(&tag) {
                    None
                } else {
                    Some((s, tag))
                }
            })
            .collect()
    }

    /// The delivery bound while reconfiguring: the max committed cut for
    /// `q` over current-tag, same-view syncs — or `Some(dlvrd)` (i.e. "no
    /// further delivery") while agreement is still running. `None` when
    /// no change is pending.
    fn delivery_bound(&self, q: ProcessId) -> Option<MsgIndex> {
        let (_, sc_set) = self.st.start_change.as_ref()?;
        let r = self.rounds.get(sc_set)?;
        let Some(tag) = r.tag(sc_set) else {
            return Some(self.st.dlvrd(q)); // agreement running: fully blocked
        };
        if !r.synced.contains(&tag) {
            return Some(self.st.dlvrd(q));
        }
        let bound = r
            .syncs
            .iter()
            .filter(|((_, t), (v, _))| *t == tag && v == &self.st.current_view)
            .map(|(_, (_, cut))| cut.get(q))
            .max()
            .unwrap_or(self.st.dlvrd(q));
        Some(bound)
    }

    /// Install precondition: view pending, agreement for its member set
    /// complete, tagged syncs from every continuing member present, and
    /// exactly the agreed cut delivered. Returns the transitional set.
    fn installable(&self) -> Option<ProcSet> {
        let v = &self.st.mbrshp_view;
        if v.id() <= self.st.current_view.id() {
            return None;
        }
        let r = self.rounds.get(v.members())?;
        let tag = r.tag(v.members())?;
        let mut t = ProcSet::new();
        for q in v.intersection(&self.st.current_view) {
            let (qv, _) = r.syncs.get(&(q, tag))?;
            if qv == &self.st.current_view {
                t.insert(q);
            }
        }
        for q in self.st.current_view.members() {
            let agreed = t
                .iter()
                .filter_map(|u| r.syncs.get(&(*u, tag)).map(|(_, c)| c.get(*q)))
                .max()
                .unwrap_or(0);
            if self.st.dlvrd(*q) != agreed {
                return None;
            }
        }
        Some(t)
    }

    /// Fires the first enabled locally controlled action, pushing its
    /// effects onto `out`; returns whether anything fired.
    fn fire_next(&mut self, out: &mut Vec<Effect>) -> bool {
        if self.st.crashed {
            return false;
        }
        let pid = self.st.pid;

        // reliable
        let target = self.reliable_target();
        if target != self.st.reliable_set {
            self.st.reliable_set = target.clone();
            out.push(Effect::SetReliable(target));
            return true;
        }
        // view_msg
        if wv::send_view_msg_pre(&self.st) {
            let (set, msg) = wv::send_view_msg_eff(&mut self.st);
            if !set.is_empty() {
                out.push(Effect::NetSend { to: set, msg });
            }
            return true;
        }
        // block
        if self.st.start_change.is_some()
            && self.st.block_status == vsgm_core::state::BlockStatus::Unblocked
        {
            self.st.block_status = vsgm_core::state::BlockStatus::Requested;
            out.push(Effect::Block);
            return true;
        }
        // round 1: proposals
        if let Some(participants) = self.due_proposals().into_iter().next() {
            self.seq += 1;
            let seq = self.seq;
            let r = self.rounds.entry(participants.clone()).or_default();
            let prev = r.proposals.entry(pid).or_insert(0);
            *prev = (*prev).max(seq);
            r.own_change = self.changes_seen;
            let to: ProcSet = participants.iter().copied().filter(|q| *q != pid).collect();
            if !to.is_empty() {
                out.push(Effect::NetSend {
                    to,
                    msg: NetMsg::Baseline(BaselineMsg::Propose { participants, seq }),
                });
            }
            return true;
        }
        // round 2: tagged syncs
        if let Some((participants, tag)) = self.due_syncs().into_iter().next() {
            let view = self.st.current_view.clone();
            let cut = self.st.commit_cut();
            let r = self.rounds.entry(participants.clone()).or_default();
            r.syncs.insert((pid, tag), (view.clone(), cut.clone()));
            r.synced.insert(tag);
            let to: ProcSet = participants.iter().copied().filter(|q| *q != pid).collect();
            if !to.is_empty() {
                out.push(Effect::NetSend {
                    to,
                    msg: NetMsg::Baseline(BaselineMsg::Sync { participants, tag, view, cut }),
                });
            }
            return true;
        }
        // app multicast
        if let Some((set, msg)) = wv::send_app_msg_eff(&mut self.st) {
            if !set.is_empty() {
                out.push(Effect::NetSend { to: set, msg });
            }
            return true;
        }
        // deliveries
        let members: Vec<ProcessId> = self.st.current_view.members().iter().copied().collect();
        for q in members {
            if let Some(m) = wv::deliver_pre(&self.st, q).cloned() {
                let allowed = match self.delivery_bound(q) {
                    None => true,
                    Some(bound) => self.st.dlvrd(q) < bound,
                };
                if allowed {
                    wv::deliver_eff(&mut self.st, q);
                    out.push(Effect::DeliverApp { from: q, msg: m });
                    return true;
                }
            }
        }
        // view installation
        if let Some(t) = self.installable() {
            let installed_members = self.st.mbrshp_view.members().clone();
            wv::view_eff(&mut self.st);
            // The change is only over if no newer start_change arrived
            // since we proposed for this round (cascades restart it).
            let round_change = self.rounds.remove(&installed_members).map_or(0, |r| r.own_change);
            let done = match &self.st.start_change {
                Some((_, sc_set)) => {
                    *sc_set == installed_members && round_change == self.changes_seen
                }
                None => true,
            };
            if done {
                self.st.start_change = None;
                self.st.block_status = vsgm_core::state::BlockStatus::Unblocked;
            }
            out.push(Effect::InstallView { view: self.st.current_view.clone(), transitional: t });
            return true;
        }
        false
    }
}

impl GroupEndpoint for BaselineEndpoint {
    fn pid(&self) -> ProcessId {
        self.st.pid
    }

    /// Counts nothing: the baseline is not instrumented.
    fn step(&mut self, input: Option<Input>, _rec: &mut dyn Recorder, out: &mut Vec<Effect>) {
        let Some(input) = input else {
            for _ in 0..1_000_000 {
                if !self.fire_next(out) {
                    return;
                }
            }
            panic!("baseline endpoint livelock");
        };
        if self.st.crashed {
            if input == Input::Recover {
                self.st.reset();
                self.seq = 0;
                self.changes_seen = 0;
                self.rounds.clear();
            }
            return;
        }
        match input {
            Input::AppSend(m) => wv::on_app_send(&mut self.st, m),
            Input::BlockOk => self.st.block_status = vsgm_core::state::BlockStatus::Blocked,
            Input::StartChange { cid, set } => {
                self.changes_seen += 1;
                self.st.start_change = Some((cid, set));
            }
            Input::MbrshpView(v) => wv::on_mbrshp_view(&mut self.st, v),
            Input::Net { from, msg } => match msg {
                NetMsg::ViewMsg(v) => wv::on_view_msg(&mut self.st, from, v),
                NetMsg::App(m) => wv::on_app_msg(&mut self.st, from, m),
                NetMsg::AppBatch(batch) => {
                    for m in batch {
                        wv::on_app_msg(&mut self.st, from, m);
                    }
                }
                NetMsg::Fwd(f) => {
                    wv::on_fwd_msg(&mut self.st, f);
                }
                NetMsg::Baseline(BaselineMsg::Propose { participants, seq }) => {
                    let r = self.rounds.entry(participants).or_default();
                    let e = r.proposals.entry(from).or_insert(0);
                    *e = (*e).max(seq);
                }
                NetMsg::Baseline(BaselineMsg::Sync { participants, tag, view, cut }) => {
                    let r = self.rounds.entry(participants).or_default();
                    r.syncs.insert((from, tag), (view, cut));
                }
                // The paper's protocol messages are not ours.
                NetMsg::Sync(_) | NetMsg::SyncAgg(_) | NetMsg::Ack(_) => {}
            },
            Input::Crash => self.st.crashed = true,
            Input::Recover => {}
            // The baseline has no batching stage; its clock is unused.
            Input::Tick(_) => {}
            // Nor a stability rule: it retains every message.
            Input::AckDue => {}
        }
    }

    fn current_view(&self) -> &View {
        &self.st.current_view
    }

    fn reconfiguring(&self) -> bool {
        self.st.start_change.is_some()
    }

    fn is_crashed(&self) -> bool {
        self.st.crashed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap as StdHashMap, VecDeque};
    use vsgm_core::{Hosted, Sink};
    use vsgm_obs::{NoopRecorder, Recorder};
    use vsgm_types::{AppMsg, Event, StartChangeId, ViewId};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn set(ids: &[u64]) -> ProcSet {
        ids.iter().map(|&i| p(i)).collect()
    }

    /// Instant-routing harness mirroring the one in vsgm-core's tests.
    struct Net {
        eps: StdHashMap<ProcessId, Hosted<BaselineEndpoint>>,
        delivered: Vec<(ProcessId, ProcessId, AppMsg)>,
        views: Vec<(ProcessId, View, ProcSet)>,
        msgs_by_tag: StdHashMap<&'static str, u64>,
    }

    impl Net {
        fn new(ids: &[u64]) -> Self {
            Net {
                eps: ids
                    .iter()
                    .map(|&i| (p(i), Hosted::new(BaselineEndpoint::new(p(i)))))
                    .collect(),
                delivered: Vec::new(),
                views: Vec::new(),
                msgs_by_tag: StdHashMap::new(),
            }
        }

        fn input(&mut self, to: u64, input: Input) {
            self.run(p(to), |h, rec, out| h.input(input, rec, out));
        }

        fn settle(&mut self) {
            for _ in 0..1000 {
                let mut progress = false;
                let ids: Vec<ProcessId> = self.eps.keys().copied().collect();
                for id in ids {
                    progress |= self.run(id, |h, rec, out| h.poll(rec, out));
                }
                if !progress {
                    return;
                }
            }
            panic!("did not settle");
        }

        /// Runs `call` on `p`'s hosted end-point, then hands every message
        /// sent on to its addressees at once, until none is left.
        fn run<R>(
            &mut self,
            p: ProcessId,
            call: impl FnOnce(&mut Hosted<BaselineEndpoint>, &mut dyn Recorder, &mut Sink<'_>) -> R,
        ) -> R {
            let mut sent = VecDeque::new();
            let result = self.step(p, call, &mut sent);
            while let Some((from, to, msg)) = sent.pop_front() {
                self.step(to, |h, rec, out| h.input(Input::Net { from, msg }, rec, out), &mut sent);
            }
            result
        }

        fn step<R>(
            &mut self,
            p: ProcessId,
            call: impl FnOnce(&mut Hosted<BaselineEndpoint>, &mut dyn Recorder, &mut Sink<'_>) -> R,
            sent: &mut VecDeque<(ProcessId, ProcessId, NetMsg)>,
        ) -> R {
            let Net { eps, delivered, views, msgs_by_tag } = self;
            call(eps.get_mut(&p).unwrap(), &mut NoopRecorder, &mut |event, _| match event {
                Event::NetSend { p: from, set, msg } => {
                    *msgs_by_tag.entry(msg.tag()).or_insert(0) += set.len() as u64;
                    for to in set.into_iter().filter(|to| *to != from) {
                        sent.push_back((from, to, msg.clone()));
                    }
                }
                Event::Deliver { p, q, msg } => delivered.push((p, q, msg)),
                Event::GcsView { p, view, transitional } => views.push((p, view, transitional)),
                _ => {}
            })
        }

        fn reconfigure(&mut self, members: &[u64], epoch: u64, cid: u64) -> View {
            let member_set = set(members);
            for &m in members {
                self.input(
                    m,
                    Input::StartChange { cid: StartChangeId::new(cid), set: member_set.clone() },
                );
            }
            self.settle();
            let view = View::new(
                ViewId::new(epoch, 0),
                member_set.iter().copied(),
                member_set.iter().map(|m| (*m, StartChangeId::new(cid))),
            );
            for &m in members {
                self.input(m, Input::MbrshpView(view.clone()));
            }
            self.settle();
            view
        }
    }

    #[test]
    fn two_endpoints_form_view() {
        let mut net = Net::new(&[1, 2]);
        net.reconfigure(&[1, 2], 1, 1);
        assert_eq!(net.views.len(), 2, "{:?}", net.views);
    }

    #[test]
    fn two_rounds_of_messages_per_change() {
        let mut net = Net::new(&[1, 2, 3]);
        net.reconfigure(&[1, 2, 3], 1, 1);
        // Both message kinds present: proposals AND tagged syncs — the
        // extra round the paper's algorithm eliminates.
        assert_eq!(net.msgs_by_tag["bl_propose"], 6, "{:?}", net.msgs_by_tag);
        assert_eq!(net.msgs_by_tag["bl_sync"], 6, "{:?}", net.msgs_by_tag);
    }

    #[test]
    fn multicast_works_between_changes() {
        let mut net = Net::new(&[1, 2]);
        net.reconfigure(&[1, 2], 1, 1);
        net.input(1, Input::AppSend(AppMsg::from("x")));
        net.settle();
        assert_eq!(net.delivered.len(), 2); // both deliver (self + peer)
    }

    #[test]
    fn transitional_sets_on_joint_move() {
        let mut net = Net::new(&[1, 2]);
        net.reconfigure(&[1, 2], 1, 1);
        net.views.clear();
        net.reconfigure(&[1, 2], 2, 2);
        for (_, _, t) in &net.views {
            assert_eq!(t, &set(&[1, 2]), "{:?}", net.views);
        }
    }

    #[test]
    fn deliveries_blocked_while_agreement_runs() {
        let mut net = Net::new(&[1, 2]);
        net.reconfigure(&[1, 2], 1, 1);
        net.input(1, Input::AppSend(AppMsg::from("pre")));
        net.settle();
        net.delivered.clear();
        // Message in flight while a change starts, but we do not settle in
        // between: feed start_change to p2 only, so agreement cannot
        // complete (p1 never proposes).
        net.input(2, Input::StartChange { cid: StartChangeId::new(2), set: set(&[1, 2]) });
        net.input(1, Input::AppSend(AppMsg::from("during")));
        // Deliver p2's poll: it is blocked, so nothing reaches its app.
        let mut seen = Vec::new();
        net.eps.get_mut(&p(2)).unwrap().poll(&mut NoopRecorder, &mut |e, _| seen.push(e));
        assert!(
            !seen.iter().any(|e| matches!(e, Event::Deliver { .. })),
            "baseline must not deliver while agreement is pending: {seen:?}"
        );
    }

    #[test]
    fn installs_obsolete_views_under_cascades() {
        // The behavior E3 quantifies: the baseline installs a view even
        // when a newer start_change is already known.
        let mut net = Net::new(&[1, 2]);
        net.reconfigure(&[1, 2], 1, 1);
        net.views.clear();
        // Change 2 starts and agreement completes...
        let members = set(&[1, 2]);
        for m in [1, 2] {
            net.input(m, Input::StartChange { cid: StartChangeId::new(2), set: members.clone() });
        }
        net.settle();
        // ...then change 3 is announced BEFORE view 2 arrives.
        for m in [1, 2] {
            net.input(m, Input::StartChange { cid: StartChangeId::new(3), set: members.clone() });
        }
        // View 2 (now obsolete) arrives: the baseline installs it anyway.
        let view2 = View::new(
            ViewId::new(2, 0),
            members.iter().copied(),
            members.iter().map(|m| (*m, StartChangeId::new(2))),
        );
        for m in [1, 2] {
            net.input(m, Input::MbrshpView(view2.clone()));
        }
        net.settle();
        assert_eq!(net.views.len(), 2, "baseline installs the obsolete view: {:?}", net.views);
        // A restart-style membership then re-runs the whole protocol for
        // the next change: a fresh start_change and the final view.
        for m in [1, 2] {
            net.input(m, Input::StartChange { cid: StartChangeId::new(4), set: members.clone() });
        }
        net.settle();
        let view3 = View::new(
            ViewId::new(3, 0),
            members.iter().copied(),
            members.iter().map(|m| (*m, StartChangeId::new(4))),
        );
        for m in [1, 2] {
            net.input(m, Input::MbrshpView(view3.clone()));
        }
        net.settle();
        assert_eq!(net.views.len(), 4, "{:?}", net.views);
    }

    #[test]
    fn crash_and_recover_reset() {
        let mut ep = BaselineEndpoint::new(p(1));
        let mut out = Vec::new();
        let start = Input::StartChange { cid: StartChangeId::new(1), set: set(&[1]) };
        for input in [start, Input::Crash] {
            ep.step(Some(input), &mut NoopRecorder, &mut out);
        }
        assert!(ep.is_crashed());
        ep.step(None, &mut NoopRecorder, &mut out);
        assert!(out.is_empty());
        ep.step(Some(Input::Recover), &mut NoopRecorder, &mut out);
        assert!(!ep.is_crashed());
        assert!(!ep.reconfiguring());
    }
}
