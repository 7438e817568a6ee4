//! One hosted group instance: the paper's full single-group protocol
//! stack (views, cuts, FIFO buffers) owned by exactly one shard worker.
//!
//! A `GroupInstance` hosts the GCS end-points of its clients directly
//! (§3: the server runs the end-points, the clients stay lightweight).
//! It owns one [`Endpoint`] and one [`BlockingClient`] per process that
//! ever joined, the scripted [`MembershipOracle`] that turns each join
//! or leave into one paper reconfiguration (`start_change` + view), and
//! a FIFO queue standing in for `CO_RFIFO` between co-hosted end-points.
//! Nothing is simulated: no latency model, no clock, no randomness, no
//! recorded trace. Once every [`ACK_EVERY`] multicasts it asks its members
//! for a stability acknowledgement, so that their message buffers follow
//! what is undelivered rather than what was ever sent (DESIGN.md §18).
//! Every external action the host performs is emitted once, as the same
//! [`Event`] a trace would hold, to the full [`vsgm_spec::full_checks`]
//! battery, which judges it online and keeps only what it needs to judge
//! the next one.
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
//! no ambient randomness. The lints below pin it to this file.

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::collections::{BTreeSet, VecDeque};
use vsgm_core::{BlockingClient, Config, Effect, Endpoint, Input};
use vsgm_ioa::{CheckSet, SimTime, TraceEntry, Violation};
use vsgm_membership::MembershipOracle;
use vsgm_types::{AppMsg, Event, FwdPayload, GroupId, NetMsg, ProcSet, ProcessId, VecMap, View};

/// Derives a per-group seed from a server-wide base seed. The direct
/// host draws no randomness, so nothing in this crate consumes the
/// result; the function stays because the frozen `benchmark/` calls it
/// (ROADMAP item 1(c)), and the `Sim`-backed test oracle seeds its
/// simulated network with it.
pub fn group_seed(base: u64, gid: GroupId) -> u64 {
    base ^ gid.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Multicasts applied between two rounds of stability acknowledgements:
/// a member retains about this many messages per sender, and a round
/// costs n + n(n−1) events (EXPERIMENTS.md E16).
const ACK_EVERY: u64 = 64;

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

/// One client's end of the group: its GCS end-point and the
/// `CLIENT:SPEC` automaton that acknowledges blocks and holds sends
/// back while blocked.
struct Hosted {
    ep: Endpoint,
    client: BlockingClient,
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
    dirty: BTreeSet<ProcessId>,
    /// Multicasts applied since the last acknowledgement round.
    sends_since_ack: u64,
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
            dirty: BTreeSet::new(),
            sends_since_ack: 0,
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
                    self.hosted.entry(p).or_insert_with(|| Hosted {
                        ep: Endpoint::new(p, Config::default()),
                        client: BlockingClient::new(),
                    });
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
                let Some(h) = self.hosted.get_mut(&from) else { return };
                // A blocked client holds the send back until its next view.
                if let Some(msg) = h.client.want_send(msg) {
                    self.emit(Event::Send { p: from, msg: msg.clone() });
                    self.feed(from, Input::AppSend(msg));
                    self.sends_since_ack += 1;
                }
            }
            GroupCmd::Run => self.run_to_quiescence(),
        }
    }

    /// Runs the instance to quiescence: polls every end-point that took
    /// an input, once, then hands each queued message to its addressee,
    /// until nothing is enabled and nothing is in flight; when
    /// [`ACK_EVERY`] multicasts have been applied since the last round,
    /// every member is then asked to acknowledge, and that runs to
    /// quiescence too. (Daemon mode runs this after every command so
    /// outputs are promptly drainable.)
    pub fn run_to_quiescence(&mut self) {
        loop {
            self.poll_dirty();
            if self.net.is_empty() {
                if self.sends_since_ack >= ACK_EVERY {
                    self.sends_since_ack = 0;
                    for p in self.members.clone() {
                        self.feed(p, Input::AckDue);
                    }
                    continue;
                }
                // A view change queues ~n² messages at once; an idle group
                // should not keep a buffer sized for its last one.
                self.net.shrink_to_fit();
                return;
            }
            while let Some((from, to, msg)) = self.net.pop_front() {
                self.emit(Event::NetDeliver { p: from, q: to, msg: msg.clone() });
                self.feed(to, Input::Net { from, msg });
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

    /// Shows one external action to every checker. Checkers read the
    /// event and its step number only; there is no clock to stamp it with.
    fn emit(&mut self, event: Event) {
        let entry = TraceEntry { step: self.emitted, time: SimTime::ZERO, event };
        self.emitted += 1;
        self.checks.observe(&entry);
    }

    /// Feeds one input to `p`'s end-point and marks it for polling.
    fn feed(&mut self, p: ProcessId, input: Input) {
        let Some(h) = self.hosted.get_mut(&p) else { return };
        let effects = h.ep.handle(input);
        let view = h.ep.current_view().clone();
        self.dirty.insert(p);
        self.route(p, view, effects);
    }

    /// Polls every marked end-point once, in process order.
    /// [`Endpoint::poll`] runs to local quiescence, and routing its
    /// effects can only re-mark the end-point polled (its own block
    /// acknowledgement, its own released sends).
    fn poll_dirty(&mut self) {
        while let Some(p) = self.dirty.pop_first() {
            let Some(h) = self.hosted.get_mut(&p) else { continue };
            let view = h.ep.current_view().clone();
            let effects = h.ep.poll();
            self.route(p, view, effects);
        }
    }

    /// Carries out `from`'s effects in order. `view` is the view `from`'s
    /// application held before the first of them — a single poll can
    /// deliver messages and then install the next view, and each `Fwd`
    /// frame is stamped with the view it was delivered in.
    fn route(&mut self, from: ProcessId, mut view: View, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::NetSend { to, msg } => {
                    // End-points never multicast to themselves.
                    for q in to.iter().filter(|q| **q != from) {
                        self.net.push_back((from, *q, msg.clone()));
                    }
                    self.emit(Event::NetSend { p: from, set: to, msg });
                }
                Effect::SetReliable(set) => self.emit(Event::Reliable { p: from, set }),
                Effect::DeliverApp { from: origin, msg } => {
                    self.delivered += 1;
                    self.emit(Event::Deliver { p: from, q: origin, msg: msg.clone() });
                    let index = self.fwd_index.entry((from, origin)).or_insert(0);
                    *index += 1;
                    self.outputs.push(GroupOutput {
                        to: from,
                        msg: NetMsg::Fwd(FwdPayload {
                            origin,
                            view: view.clone(),
                            index: *index,
                            msg,
                        }),
                    });
                }
                Effect::InstallView { view: installed, transitional } => {
                    self.views_installed += 1;
                    self.emit(Event::GcsView { p: from, view: installed.clone(), transitional });
                    self.outputs
                        .push(GroupOutput { to: from, msg: NetMsg::ViewMsg(installed.clone()) });
                    view = installed;
                    let released =
                        self.hosted.get_mut(&from).map(|h| h.client.on_view()).unwrap_or_default();
                    for msg in released {
                        self.emit(Event::Send { p: from, msg: msg.clone() });
                        self.feed(from, Input::AppSend(msg));
                    }
                }
                Effect::Block => {
                    self.emit(Event::Block { p: from });
                    let acked = self.hosted.get_mut(&from).is_some_and(|h| {
                        h.client.on_block();
                        h.client.ack_block()
                    });
                    if acked {
                        self.emit(Event::BlockOk { p: from });
                        self.feed(from, Input::BlockOk);
                    }
                }
                // Only the audit pass resets an end-point, and
                // `Config::default()` leaves the audit off.
                Effect::Reconciled => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    /// multicast is 2n+1 events — `Send`, `NetSend`, n `Deliver`, n−1
    /// `NetDeliver` — and every [`ACK_EVERY`] of them a round of
    /// acknowledgements adds n `NetSend` and n(n−1) `NetDeliver`.
    #[test]
    fn events_per_multicast_are_2n_plus_1_and_a_round_is_n_squared() {
        for n in [2u64, 4, 8] {
            let mut g = GroupInstance::new(GroupId::new(n), n, 0);
            for i in 1..=n {
                step(&mut g, GroupCmd::Join(p(i)));
            }
            let before = g.report().trace_len as u64;
            let rounds = 10;
            for k in 0..rounds * ACK_EVERY {
                assert_eq!(step(&mut g, send(1 + k % n, "m")).len() as u64, n);
            }
            let events = g.report().trace_len as u64 - before;
            assert_eq!(
                events,
                rounds * ACK_EVERY * (2 * n + 1) + rounds * (n + n * (n - 1)),
                "n = {n}"
            );
            // The last round left every member's buffers empty.
            for h in g.hosted.values() {
                let st = h.ep.state();
                let held: usize = st.msgs.values().map(|buf| buf.retained()).sum();
                assert_eq!(held, 0, "n = {n}: {} retains {held}", h.ep.pid());
            }
            assert!(g.finish().is_empty());
        }
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
