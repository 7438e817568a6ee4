//! One hosted group instance: the paper's full single-group protocol
//! stack (views, cuts, FIFO buffers) owned by exactly one shard worker.
//!
//! A `GroupInstance` hosts the GCS end-points of its clients in the
//! daemon. The paper puts each end-point at its client and only the
//! membership service in servers (PAPER.md §1); running the end-points
//! in the daemon, with thin clients, is this repo's deployment choice,
//! and the stability rule below relies on it. It owns one [`Hosted`]
//! end-point per process that ever joined — the end-point with its
//! `CLIENT:SPEC` client, composed once in `vsgm-core` — the scripted
//! [`MembershipOracle`] that turns each join or leave into one paper
//! reconfiguration (`start_change` + view), and a FIFO queue standing in
//! for `CO_RFIFO` between co-hosted end-points. Nothing is simulated: no
//! latency model, no clock, no randomness, no recorded trace. Because
//! every member's end-point is here, the instance can read what each has
//! delivered instead of asking: after every run to quiescence it frees
//! from every member's window what all of them have delivered
//! (DESIGN.md §18), so a window holds a message only within the step
//! that delivers it, and no stability acknowledgement is ever sent. Every
//! [`Event`] a hosted end-point emits is shown once to the full
//! [`vsgm_spec::full_checks`] battery, which judges it online and keeps
//! only what it needs to judge the next one; a `Deliver` and a `GcsView`
//! also become the frame the client is owed.
//!
//! Commands arrive as [`GroupCmd`] values through the owning shard's
//! channel, so per-group execution is totally ordered and reproducible:
//! a group driven through a shared server produces the identical output
//! frames to the same command sequence applied to an isolated instance —
//! the property the multi-group differential suite pins, together with
//! frame-for-frame equality against the `harness::Sim`-backed oracle in
//! `tests/support/`.
//!
//! Determinism discipline: only ordered containers, no ambient clocks,
//! no ambient randomness. The lints below pin it to this file: a group
//! is a function of its commands.

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::collections::VecDeque;
use vsgm_core::{Config, Endpoint, Hosted, Input, Sink};
use vsgm_ioa::{CheckSet, SimTime, TraceEntry, Violation};
use vsgm_membership::MembershipOracle;
use vsgm_obs::{NoopRecorder, Recorder};
use vsgm_types::{AppMsg, Event, FwdPayload, GroupId, NetMsg, ProcSet, ProcessId, VecMap};

/// Derives a per-group seed from a server-wide base seed. The direct
/// host draws no randomness, so nothing in this crate consumes the
/// result; the function stays because the frozen `benchmark/` calls it
/// (ROADMAP item 1(c)), and the `Sim`-backed test oracle seeds its
/// simulated network with it.
pub fn group_seed(base: u64, gid: GroupId) -> u64 {
    base ^ gid.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Whether a group of `capacity` admits process `p`: ids `1..=capacity`.
pub(crate) fn admits(capacity: u64, p: ProcessId) -> bool {
    (1..=capacity).contains(&p.raw())
}

/// A command applied to one group instance. Every mutation of group
/// state flows through this enum — through one shard channel — so each
/// group observes a total command order.
#[derive(Debug, Clone)]
pub enum GroupCmd {
    /// A client joins as member `p` (must be within the instance's
    /// capacity); triggers one reconfiguration if newly joined.
    Join(ProcessId),
    /// Member `p` leaves; triggers one reconfiguration while members
    /// remain (an empty group goes dormant instead).
    Leave(ProcessId),
    /// Member `from` multicasts `msg` within the group.
    Send {
        /// The multicasting member.
        from: ProcessId,
        /// The payload.
        msg: AppMsg,
    },
    /// Runs the group to quiescence.
    Run,
}

/// A snapshot of one group's externally observable health, cheap enough
/// to gather across thousands of groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupReport {
    /// The group's identity.
    pub gid: GroupId,
    /// Currently joined members.
    pub members: ProcSet,
    /// External actions performed (and judged) so far.
    pub trace_len: usize,
    /// Application messages delivered so far.
    pub delivered: u64,
    /// Views installed so far (GCS `view` events).
    pub views_installed: u64,
}

/// An output frame a hosted group owes one of its clients: a delivery
/// or an installed view, addressed to member `to`.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupOutput {
    /// The member (== client process) the frame is for.
    pub to: ProcessId,
    /// The frame: `Fwd` for deliveries, `ViewMsg` for installed views.
    pub msg: NetMsg,
}

/// One group's full protocol instance. See the module docs.
pub struct GroupInstance {
    gid: GroupId,
    capacity: u64,
    members: ProcSet,
    /// Created on a process's first join and kept when it leaves.
    hosted: VecMap<ProcessId, Hosted>,
    oracle: MembershipOracle,
    proposer_seq: u64,
    /// `CO_RFIFO` between co-hosted end-points: `(from, to, msg)` in send
    /// order, which keeps every channel FIFO.
    net: VecDeque<(ProcessId, ProcessId, NetMsg)>,
    /// End-points that took an input since they were last polled.
    dirty: ProcSet,
    /// Whose messages were delivered since the last
    /// [`GroupInstance::forget_delivered`].
    delivered_from: Origins,
    checks: CheckSet,
    /// External actions emitted so far (the next event's step number).
    emitted: u64,
    /// Frames owed to clients since the last [`GroupInstance::drain_outputs`].
    outputs: Vec<GroupOutput>,
    delivered: u64,
    views_installed: u64,
    /// Per-(receiver, origin) running delivery index for `Fwd` frames.
    fwd_index: VecMap<(ProcessId, ProcessId), u64>,
}

impl GroupInstance {
    /// Creates a dormant instance with no members and no end-points;
    /// `capacity` bounds the process ids it admits
    /// ([`GroupInstance::in_capacity`]) and costs nothing until they
    /// join. `_seed` is accepted for the frozen `benchmark/`'s call sites
    /// and unused (see [`group_seed`]).
    pub fn new(gid: GroupId, capacity: u64, _seed: u64) -> GroupInstance {
        GroupInstance {
            gid,
            capacity,
            members: ProcSet::new(),
            hosted: VecMap::new(),
            oracle: MembershipOracle::new(),
            proposer_seq: 0,
            net: VecDeque::new(),
            dirty: ProcSet::new(),
            delivered_from: Origins::None,
            checks: vsgm_spec::full_checks(None),
            emitted: 0,
            outputs: Vec::new(),
            delivered: 0,
            views_installed: 0,
            fwd_index: VecMap::new(),
        }
    }

    /// The group's identity.
    pub fn gid(&self) -> GroupId {
        self.gid
    }

    /// Currently joined members.
    pub fn members(&self) -> &ProcSet {
        &self.members
    }

    /// Whether `p` may join: process ids `1..=capacity` are admitted.
    pub fn in_capacity(&self, p: ProcessId) -> bool {
        admits(self.capacity, p)
    }

    /// Applies one command: feeds its inputs to the end-points concerned
    /// and lets them react locally; messages between end-points wait for
    /// [`GroupInstance::run_to_quiescence`]. Commands referencing
    /// processes outside the instance's capacity (or non-members, where
    /// membership is required) are ignored rather than corrupting group
    /// state.
    pub fn apply(&mut self, cmd: GroupCmd) {
        match cmd {
            GroupCmd::Join(p) => {
                if self.in_capacity(p) && self.members.insert(p) {
                    self.hosted
                        .entry(p)
                        .or_insert_with(|| Hosted::new(Endpoint::new(p, Config::default())));
                    self.reconfigure();
                }
            }
            GroupCmd::Leave(p) => {
                if self.members.remove(&p) && !self.members.is_empty() {
                    self.reconfigure();
                }
            }
            GroupCmd::Send { from, msg } => {
                if !self.members.contains(&from) {
                    return;
                }
                // A blocked client holds the send back until its next view.
                self.step(from, |h, rec, out| h.send(msg, rec, out));
            }
            GroupCmd::Run => self.run_to_quiescence(),
        }
    }

    /// Runs the instance to quiescence: polls every end-point that took
    /// an input, once, then hands each queued message to its addressee,
    /// until nothing is enabled and nothing is in flight; then frees what
    /// every member has delivered ([`GroupInstance::forget_delivered`]).
    /// (Daemon mode runs this after every command so outputs are promptly
    /// drainable.)
    pub fn run_to_quiescence(&mut self) {
        loop {
            self.poll_dirty();
            if self.net.is_empty() {
                break;
            }
            while let Some((from, to, msg)) = self.net.pop_front() {
                self.emit(Event::NetDeliver { p: from, q: to, msg: msg.clone() });
                self.feed(to, Input::Net { from, msg });
            }
        }
        self.forget_delivered();
        // A view change queues ~n² messages at once; an idle group should
        // not keep a buffer sized for its last one.
        self.net.shrink_to_fit();
    }

    /// The stability rule read off the members' states rather than
    /// acknowledged (DESIGN.md §18): for each origin `q` delivered from
    /// since the last call, every member frees its current-view window
    /// of `q` through `min over members r of r.last_dlvrd[q]`. It runs
    /// only when the group is settled — every member in the view of the
    /// group's members, none of them changing views or crashed — since
    /// only then are all `last_dlvrd` counts about one view; otherwise
    /// the windows keep their messages until a view change collects
    /// them. O(n) for a multicast's step, and no allocation.
    fn forget_delivered(&mut self) {
        let origins = std::mem::replace(&mut self.delivered_from, Origins::None);
        let members = &self.members;
        let view = members.first().and_then(|p| self.hosted.get(p)).map(|h| h.ep().current_view());
        let settled = view.is_some_and(|v| {
            v.members() == members
                && members.iter().all(|p| {
                    self.hosted.get(p).is_some_and(|h| {
                        let ep = h.ep();
                        ep.current_view() == v && !ep.reconfiguring() && !ep.is_crashed()
                    })
                })
        });
        if !settled {
            return;
        }
        match origins {
            Origins::None => {}
            Origins::One(q) => forget_delivered_from(members, &mut self.hosted, q),
            Origins::Several => {
                for q in members {
                    forget_delivered_from(members, &mut self.hosted, *q);
                }
            }
        }
    }

    /// Hands over the frames owed to clients since the previous drain:
    /// a [`NetMsg::Fwd`] per delivery (origin, the receiver's view at the
    /// delivery, running per-channel index) and a [`NetMsg::ViewMsg`] per
    /// installed view, in the order the end-points produced them.
    pub fn drain_outputs(&mut self) -> Vec<GroupOutput> {
        std::mem::take(&mut self.outputs)
    }

    /// Cheap health snapshot of running counters; it does not depend on
    /// what has been drained.
    pub fn report(&self) -> GroupReport {
        GroupReport {
            gid: self.gid,
            members: self.members.clone(),
            trace_len: self.emitted as usize,
            delivered: self.delivered,
            views_installed: self.views_installed,
        }
    }

    /// Finalizes the spec checkers and returns every violation. The
    /// instance remains usable (checkers keep running online).
    pub fn finish(&mut self) -> Vec<Violation> {
        self.checks.finish();
        self.checks.violations().to_vec()
    }

    /// One paper reconfiguration to the current member set:
    /// `start_change` to every member, then the membership view, each
    /// followed by the members' local reactions.
    fn reconfigure(&mut self) {
        let members = self.members.clone();
        // Co-hosted end-points neither crash nor partition: all are live.
        let live: ProcSet = self.hosted.keys().copied().collect();
        for n in self.oracle.start_change(&members) {
            self.emit(Event::MbrshpStartChange { p: n.p, cid: n.cid, set: n.set.clone() });
            self.emit(Event::Live { p: n.p, set: live.clone() });
            self.feed(n.p, Input::StartChange { cid: n.cid, set: n.set });
        }
        self.poll_dirty();
        self.proposer_seq += 1;
        let view = self.oracle.form_view(&members, self.proposer_seq);
        for p in &members {
            self.emit(Event::MbrshpView { p: *p, view: view.clone() });
            self.emit(Event::Live { p: *p, set: live.clone() });
            self.feed(*p, Input::MbrshpView(view.clone()));
        }
        self.poll_dirty();
    }

    /// `(retained, heap capacity)` of every message window of every
    /// end-point the group ever hosted.
    #[cfg(test)]
    pub(crate) fn windows(&self) -> Vec<(usize, usize)> {
        self.hosted
            .values()
            .flat_map(|h| h.ep().state().msgs.values().map(|b| (b.retained(), b.capacity())))
            .collect()
    }

    /// Shows one external action to every checker.
    fn emit(&mut self, event: Event) {
        emit(&mut self.checks, &mut self.emitted, event);
    }

    /// Feeds one input to `p`'s end-point and marks it for polling.
    fn feed(&mut self, p: ProcessId, input: Input) {
        if self.step(p, |h, rec, out| h.input(input, rec, out)).is_some() {
            self.dirty.insert(p);
        }
    }

    /// Polls every marked end-point once, in process order.
    /// [`Hosted::poll`] runs to local quiescence, and its events can only
    /// re-mark the end-point polled (its own block acknowledgement, its
    /// own released sends).
    fn poll_dirty(&mut self) {
        while let Some(p) = self.dirty.pop_first() {
            self.step(p, |h, rec, out| h.poll(rec, out));
        }
    }

    /// Runs `call` on `p`'s hosted end-point, if `p` ever joined, and
    /// carries out the events it emits: a `NetSend` queues one message per
    /// addressee, a `Deliver` marks its origin for
    /// [`GroupInstance::forget_delivered`] and becomes a `Fwd` frame and a
    /// `GcsView` a `ViewMsg` frame for `p`'s client, an input fed to the end-point
    /// (its `BlockOk`, a released `Send`) marks it for polling, and an
    /// audit reset (`Crash`, `Recover`) drops what it had in flight and
    /// re-admits it to the oracle. Every event is then judged.
    fn step<R>(
        &mut self,
        p: ProcessId,
        call: impl FnOnce(&mut Hosted, &mut dyn Recorder, &mut Sink<'_>) -> R,
    ) -> Option<R> {
        let GroupInstance {
            hosted,
            oracle,
            net,
            dirty,
            delivered_from,
            checks,
            emitted,
            outputs,
            delivered,
            views_installed,
            fwd_index,
            ..
        } = self;
        let h = hosted.get_mut(&p)?;
        // The view p's application holds. A single poll can deliver
        // messages and then install the next view, and each `Fwd` frame
        // is stamped with the view it was delivered in.
        let mut view = h.ep().current_view().clone();
        let result = call(h, &mut NoopRecorder, &mut |event, _| {
            match &event {
                Event::NetSend { p, set, msg } => {
                    // End-points never multicast to themselves.
                    for q in set.iter().filter(|q| *q != p) {
                        net.push_back((*p, *q, msg.clone()));
                    }
                }
                Event::Deliver { p, q, msg } => {
                    *delivered += 1;
                    delivered_from.mark(*q);
                    let index = fwd_index.entry((*p, *q)).or_insert(0);
                    *index += 1;
                    let (stamp, msg) = (view.clone(), msg.clone());
                    let fwd = FwdPayload { origin: *q, view: stamp, index: *index, msg };
                    outputs.push(GroupOutput { to: *p, msg: NetMsg::Fwd(fwd) });
                }
                Event::GcsView { p, view: installed, .. } => {
                    *views_installed += 1;
                    outputs.push(GroupOutput { to: *p, msg: NetMsg::ViewMsg(installed.clone()) });
                    view = installed.clone();
                }
                Event::BlockOk { p } | Event::Send { p, .. } => {
                    dirty.insert(*p);
                }
                Event::Crash { p } => net.retain(|(from, _, _)| from != p),
                Event::Recover { p } => oracle.recover(*p),
                _ => {}
            }
            emit(checks, emitted, event);
        });
        Some(result)
    }
}

/// Whose messages a group delivered in a step. A multicast's step
/// delivers one origin's; a step with several — a view change releasing
/// held sends, or a `Run` after many commands — frees every member's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origins {
    /// Nobody's.
    None,
    /// One origin's only.
    One(ProcessId),
    /// More than one origin's.
    Several,
}

impl Origins {
    fn mark(&mut self, q: ProcessId) {
        *self = match *self {
            Origins::None => Origins::One(q),
            Origins::One(p) if p == q => return,
            _ => Origins::Several,
        };
    }
}

/// Frees from every member's current-view window of `q` what all of
/// them have delivered from `q`.
fn forget_delivered_from(members: &ProcSet, hosted: &mut VecMap<ProcessId, Hosted>, q: ProcessId) {
    let dlvrd = |p: &ProcessId| hosted.get(p).map_or(0, |h| h.ep().state().dlvrd(q));
    let floor = members.iter().map(dlvrd).min().unwrap_or(0);
    for p in members {
        if let Some(h) = hosted.get_mut(p) {
            h.ep_mut().forget_delivered(q, floor);
        }
    }
}

/// Shows `event` to every checker as the next step. Checkers read the
/// event and its step number only; there is no clock to stamp it with.
fn emit(checks: &mut CheckSet, emitted: &mut u64, event: Event) {
    let entry = TraceEntry { step: *emitted, time: SimTime::ZERO, event };
    *emitted += 1;
    checks.observe(&entry);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_types::View;

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn joined(g: &mut GroupInstance, ids: &[u64]) {
        for i in ids {
            g.apply(GroupCmd::Join(p(*i)));
        }
    }

    /// What a shard worker does with one command.
    fn step(g: &mut GroupInstance, cmd: GroupCmd) -> Vec<GroupOutput> {
        g.apply(cmd);
        g.run_to_quiescence();
        g.drain_outputs()
    }

    fn send(from: u64, text: &str) -> GroupCmd {
        GroupCmd::Send { from: p(from), msg: AppMsg::from(text) }
    }

    fn views_to(out: &[GroupOutput], to: u64) -> Vec<View> {
        out.iter()
            .filter_map(|o| match &o.msg {
                NetMsg::ViewMsg(v) if o.to == p(to) => Some(v.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn join_send_deliver_roundtrip() {
        let mut g = GroupInstance::new(GroupId::new(1), 3, 7);
        joined(&mut g, &[1, 2, 3]);
        g.apply(send(1, "hello"));
        g.apply(GroupCmd::Run);
        let r = g.report();
        assert_eq!(r.members, [p(1), p(2), p(3)].into_iter().collect::<ProcSet>());
        // Every member, the sender included, delivers the message.
        assert_eq!(r.delivered, 3, "{r:?}");
        assert!(r.views_installed >= 3, "{r:?}");
        assert!(g.finish().is_empty(), "spec checkers clean");
    }

    #[test]
    fn same_commands_same_outputs() {
        let run = || {
            let mut g = GroupInstance::new(GroupId::new(4), 3, group_seed(99, GroupId::new(4)));
            joined(&mut g, &[1, 2, 3]);
            g.apply(send(2, "m1"));
            g.apply(GroupCmd::Leave(p(3)));
            g.apply(send(1, "m2"));
            g.apply(GroupCmd::Run);
            assert!(g.finish().is_empty());
            g.drain_outputs()
        };
        assert_eq!(run(), run(), "identical reruns");
    }

    #[test]
    fn out_of_capacity_and_non_member_commands_are_ignored() {
        let mut g = GroupInstance::new(GroupId::new(2), 2, 3);
        joined(&mut g, &[1, 2]);
        assert_eq!(step(&mut g, GroupCmd::Run).len(), 3, "p1's two views and p2's one");
        let before = g.report();
        g.apply(GroupCmd::Join(p(9))); // beyond capacity
        g.apply(GroupCmd::Join(p(0))); // below it
        g.apply(send(9, "x"));
        g.apply(GroupCmd::Leave(p(9)));
        assert!(step(&mut g, GroupCmd::Run).is_empty());
        assert_eq!(g.report(), before, "ignored commands perform no action");
        assert_eq!(step(&mut g, send(2, "")).len(), 2, "a member's send still goes through");
        assert!(g.finish().is_empty());
    }

    #[test]
    fn outputs_are_fwd_frames_stamped_with_the_delivery_view_and_view_frames() {
        let mut g = GroupInstance::new(GroupId::new(3), 2, 11);
        joined(&mut g, &[1, 2]);
        let out = step(&mut g, send(1, "payload"));
        let full = views_to(&out, 2).pop().expect("p2 installed the pair view");
        assert!(full.contains(p(1)) && full.contains(p(2)), "{out:?}");
        for to in [1, 2] {
            let fwd: Vec<_> = out
                .iter()
                .filter_map(|o| match &o.msg {
                    NetMsg::Fwd(f) if o.to == p(to) => Some(f),
                    _ => None,
                })
                .collect();
            assert_eq!(fwd.len(), 1, "{out:?}");
            assert_eq!(
                (fwd[0].origin, fwd[0].index, &fwd[0].view, &fwd[0].msg),
                (p(1), 1, &full, &AppMsg::from("payload"))
            );
        }
        // A second drain with no new events is empty.
        assert!(g.drain_outputs().is_empty());
        // The per-channel index keeps running across views.
        step(&mut g, GroupCmd::Leave(p(2)));
        let alone = step(&mut g, send(1, "solo"));
        assert!(
            matches!(&alone[..], [GroupOutput { to, msg: NetMsg::Fwd(f) }]
                if *to == p(1) && f.index == 2 && f.view.len() == 1),
            "{alone:?}"
        );
        assert!(g.finish().is_empty());
    }

    #[test]
    fn the_report_does_not_depend_on_who_drained_what() {
        let mut g = GroupInstance::new(GroupId::new(3), 2, 11);
        joined(&mut g, &[1, 2]);
        g.apply(send(1, "one"));
        g.apply(GroupCmd::Run);
        let undrained = g.report();
        assert!(undrained.trace_len > 0 && undrained.delivered == 2, "{undrained:?}");
        let out = g.drain_outputs();
        assert_eq!(out.len() as u64, undrained.delivered + undrained.views_installed);
        assert_eq!(g.report(), undrained);
        assert_eq!(step(&mut g, send(2, "two")).len(), 2);
        let later = g.report();
        // Send, NetSend, the sender's Deliver, then NetDeliver + Deliver.
        assert_eq!(later.trace_len, undrained.trace_len + 5);
        assert_eq!(later.delivered, 4);
        assert!(g.finish().is_empty());
    }

    /// The counted side of EXPERIMENTS.md E16 (after Arnon & Sharma): a
    /// multicast is exactly 2n+1 events — `Send`, `NetSend`, n `Deliver`,
    /// n−1 `NetDeliver` — with no acknowledgement term, since the group
    /// reads its members' deliveries instead of asking for them, and
    /// after every step no window holds a message or a heap buffer. What
    /// it saves: a round, asked of every member as a `Node` host asks,
    /// adds n `NetSend` and n(n−1) `NetDeliver`.
    #[test]
    fn events_per_multicast_are_2n_plus_1_and_a_round_is_n_squared() {
        for n in [2u64, 4, 8, 16] {
            let mut g = GroupInstance::new(GroupId::new(n), n, 0);
            for i in 1..=n {
                step(&mut g, GroupCmd::Join(p(i)));
                assert!(g.windows().iter().all(|w| *w == (0, 0)), "n = {n}: {:?}", g.windows());
            }
            let before = g.report().trace_len as u64;
            let multicasts = 4 * n;
            for k in 0..multicasts {
                assert_eq!(step(&mut g, send(1 + k % n, "m")).len() as u64, n);
                assert!(g.windows().iter().all(|w| *w == (0, 0)), "n = {n}: {:?}", g.windows());
            }
            let events = g.report().trace_len as u64 - before;
            assert_eq!(events, multicasts * (2 * n + 1), "n = {n}");
            for i in 1..=n {
                g.feed(p(i), Input::AckDue);
            }
            g.run_to_quiescence();
            let round = g.report().trace_len as u64 - before - events;
            assert_eq!(round, n + n * (n - 1), "n = {n}");
            assert!(g.finish().is_empty());
        }
    }

    /// Through multicasts, a leave and a re-join, every window empties
    /// and hands its buffer back by the end of each step, the left
    /// member's included, and no end-point keeps an acknowledgement
    /// record. (That forgetting changes no frame is the multigroup
    /// differential's to show, against the `Sim`-backed oracle.)
    #[test]
    fn through_churn_no_window_or_acknowledgement_record_outlives_its_step() {
        let mut g = GroupInstance::new(GroupId::new(10), 4, 0);
        let mut cmds: Vec<GroupCmd> = (1..=4).map(|i| GroupCmd::Join(p(i))).collect();
        cmds.extend((0..22).map(|k| send(1 + k % 4, "m")));
        cmds.push(GroupCmd::Leave(p(4)));
        cmds.extend((0..6).map(|k| send(1 + k % 3, "without p4")));
        cmds.push(GroupCmd::Join(p(4)));
        cmds.extend((0..4).map(|k| send(4 - k, "back")));
        for cmd in cmds {
            step(&mut g, cmd);
            assert!(g.windows().iter().all(|w| *w == (0, 0)), "{:?}", g.windows());
            let records = g.hosted.values().filter(|h| h.ep().state().stability.is_some());
            assert_eq!(records.count(), 0, "no end-point was asked to acknowledge");
        }
        assert_eq!(g.report().delivered, 22 * 4 + 6 * 3 + 4 * 4);
        assert!(g.finish().is_empty());
    }

    #[test]
    fn unsettled_joins_in_a_row_end_in_one_full_view() {
        let mut g = GroupInstance::new(GroupId::new(7), 4, 0);
        joined(&mut g, &[1, 2, 3, 4]);
        let out = step(&mut g, GroupCmd::Run);
        let last: Vec<View> =
            (1..=4).map(|i| views_to(&out, i).pop().expect("every member got a view")).collect();
        assert!(last.iter().all(|v| v == &last[0] && v.len() == 4), "{last:?}");
        assert_eq!(step(&mut g, send(3, "after")).len(), 4);
        assert!(g.finish().is_empty());
    }

    #[test]
    fn a_left_member_keeps_its_end_point_and_rejoins_in_a_fresh_view() {
        let mut g = GroupInstance::new(GroupId::new(8), 4, 0);
        for i in 1..=4 {
            step(&mut g, GroupCmd::Join(p(i)));
        }
        step(&mut g, GroupCmd::Leave(p(4)));
        assert_eq!(step(&mut g, send(1, "without p4")).len(), 3);
        assert!(step(&mut g, send(4, "ghost")).is_empty(), "a non-member cannot send");
        let back = step(&mut g, GroupCmd::Join(p(4)));
        assert_eq!(views_to(&back, 4).pop().map(|v| v.len()), Some(4), "{back:?}");
        assert_eq!(step(&mut g, send(4, "back")).len(), 4);
        assert!(g.finish().is_empty());
    }

    /// An end-point keeps one generation of sync records: after churn,
    /// one per member of its current view, the one that view selects.
    #[test]
    fn after_churn_each_end_point_holds_one_sync_record_per_member() {
        let mut g = GroupInstance::new(GroupId::new(9), 4, 0);
        for i in 1..=4 {
            step(&mut g, GroupCmd::Join(p(i)));
        }
        for _ in 0..3 {
            step(&mut g, GroupCmd::Leave(p(4)));
            step(&mut g, GroupCmd::Join(p(4)));
        }
        for h in g.hosted.values() {
            let st = h.ep().state();
            let v = &st.current_view;
            assert_eq!(v.len(), 4);
            let selected: Vec<_> = v.start_ids().iter().map(|(q, cid)| (*q, *cid)).collect();
            let held: Vec<_> = st.sync_msgs.keys().copied().collect();
            assert_eq!(held, selected, "{}", h.ep().pid());
        }
        assert!(g.finish().is_empty());
    }

    #[test]
    fn empty_group_goes_dormant_not_panicking() {
        let mut g = GroupInstance::new(GroupId::new(5), 2, 1);
        joined(&mut g, &[1, 2]);
        g.apply(GroupCmd::Leave(p(1)));
        g.apply(GroupCmd::Leave(p(2)));
        g.apply(send(1, "ghost"));
        g.apply(GroupCmd::Run);
        assert!(g.members().is_empty());
        assert!(g.finish().is_empty());
    }
}
