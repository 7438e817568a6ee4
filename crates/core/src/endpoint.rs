//! The GCS end-point: composition of the three layers.

use crate::config::Config;
use crate::forward::ForwardCmd;
use crate::state::{State, SyncRecord};
use crate::{sd, stability, vs, wv};
use vsgm_obs::{names, NoopRecorder, Recorder};
use vsgm_types::{
    AppMsg, FwdPayload, MsgIndex, NetMsg, ProcSet, ProcessId, StartChangeId, SyncPayload, View,
};

/// An input action of the end-point (inputs are always enabled; effects
/// are disabled while crashed, §8).
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// `send_p(m)` from the local application.
    AppSend(AppMsg),
    /// `block_ok_p()` from the local application (Fig. 11).
    BlockOk,
    /// `mbrshp.start_change_p(cid, set)` from the membership service.
    StartChange {
        /// Locally unique start-change identifier.
        cid: StartChangeId,
        /// Suggested membership.
        set: ProcSet,
    },
    /// `mbrshp.view_p(v)` from the membership service.
    MbrshpView(View),
    /// `co_rfifo.deliver_{q,p}(m)` from the transport.
    Net {
        /// The sending peer.
        from: ProcessId,
        /// The wire message.
        msg: NetMsg,
    },
    /// `crash_p()` (§8).
    Crash,
    /// `recover_p()` (§8) — restart with initial state, same identity.
    Recover,
    /// Clock advance to the given absolute microsecond timestamp (the
    /// driver's clock: simulated time under the harness, wall clock in a
    /// real node pump). Two things observe it: the batching linger
    /// deadline ([`Config::batch`]), and with [`Config::audit`] on, the
    /// [`crate::audit`] pass each tick runs, which resets an illegal state
    /// ([`Effect::Reconciled`]). With both off it is inert.
    Tick(u64),
    /// The host asks for one stability acknowledgement
    /// ([`crate::stability`]): arms [`Action::SendAck`]. How often is the
    /// host's call; an end-point never asked retains every message of its
    /// current view.
    AckDue,
}

/// An externally visible effect of the end-point.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// `deliver_p(q, m)`: hand `msg` from `from` to the local application.
    DeliverApp {
        /// Original sender.
        from: ProcessId,
        /// The delivered payload.
        msg: AppMsg,
    },
    /// `view_p(v, T)`: install a view with its transitional set.
    InstallView {
        /// The new view.
        view: View,
        /// The transitional set (Property 4.1).
        transitional: ProcSet,
    },
    /// `block_p()`: ask the application to stop sending.
    Block,
    /// `co_rfifo.send_p(set, m)`: hand a message to the transport.
    NetSend {
        /// Destination set.
        to: ProcSet,
        /// The wire message.
        msg: NetMsg,
    },
    /// `co_rfifo.reliable_p(set)`: reconfigure the transport's reliable
    /// connections.
    SetReliable(ProcSet),
    /// Self-stabilization ([`Config::audit`]): the tick-cadence
    /// [`crate::audit`] pass found the local state illegal and the
    /// end-point reset itself through the §8 recovery path.
    /// [`crate::Hosted`] shows its host a `Crash` and a `Recover` event and
    /// gives the end-point a fresh client; the host tears down the
    /// end-point's channels and re-admits it through the membership
    /// service, as for an observed crash+recover pair.
    Reconciled,
}

/// A locally controlled action, in canonical firing order.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// `co_rfifo.reliable_p(set)`.
    SetReliable,
    /// `co_rfifo.send_p(…, tag=view_msg, v)`.
    SendViewMsg,
    /// `co_rfifo.send_p(…, tag=sync_msg, …)` (Fig. 10/11).
    SendSyncMsg,
    /// `block_p()` (Fig. 11).
    Block,
    /// §9 extension: the aggregation leader flushes its batch.
    FlushAgg,
    /// `co_rfifo.send_p(…, tag=app_msg, m)`.
    SendAppMsg,
    /// `deliver_p(q, m)`: deliver the next message from `q`.
    DeliverApp(ProcessId),
    /// `view_p(v, T)`.
    DeliverView,
    /// `co_rfifo.send_p(…, tag=fwd_msg, …)` per the forwarding strategy.
    Forward(ForwardCmd),
    /// `co_rfifo.send_p(…, tag=ack_msg, last_dlvrd)` once armed by
    /// [`Input::AckDue`] ([`crate::stability`]).
    SendAck,
}

/// The driving interface shared by every group-multicast end-point in
/// this workspace (the paper's algorithm in this crate and the two-round
/// pre-agreement baseline in `vsgm-baseline`), letting the simulation
/// harness and experiments run either behind the same scenarios.
///
/// An end-point is an I/O automaton, and [`GroupEndpoint::step`] is its
/// one entry point: an input action, or its locally controlled actions
/// run to quiescence. Effects go into the caller's buffer.
pub trait GroupEndpoint {
    /// The end-point's identity.
    fn pid(&self) -> ProcessId;
    /// One step, its effects pushed onto `out` in order. `Some(input)`
    /// applies that input action only; `None` fires every enabled locally
    /// controlled action, in canonical order, until quiescence. `rec`
    /// counts what the step does; a silent caller passes
    /// [`NoopRecorder`].
    fn step(&mut self, input: Option<Input>, rec: &mut dyn Recorder, out: &mut Vec<Effect>);
    /// The view last delivered to the application.
    fn current_view(&self) -> &View;
    /// Whether a view change is in progress.
    fn reconfiguring(&self) -> bool;
    /// Whether the end-point is crashed.
    fn is_crashed(&self) -> bool;
    /// The absolute [`Input::Tick`] timestamp at which a held message
    /// batch flushes on its own, if one is pending. Drivers advance their
    /// clock here when the network is otherwise idle. The default (`None`)
    /// suits end-points without a batching stage.
    fn next_deadline_us(&self) -> Option<u64> {
        None
    }
}

impl GroupEndpoint for Endpoint {
    fn pid(&self) -> ProcessId {
        Endpoint::pid(self)
    }
    fn step(&mut self, input: Option<Input>, rec: &mut dyn Recorder, out: &mut Vec<Effect>) {
        Endpoint::step(self, input, rec, out);
    }
    fn current_view(&self) -> &View {
        Endpoint::current_view(self)
    }
    fn reconfiguring(&self) -> bool {
        Endpoint::reconfiguring(self)
    }
    fn is_crashed(&self) -> bool {
        Endpoint::is_crashed(self)
    }
    fn next_deadline_us(&self) -> Option<u64> {
        Endpoint::next_deadline_us(self)
    }
}

/// A GCS end-point: the executable `GCS_p` automaton (or a configured
/// prefix of its inheritance chain — see [`Config::stack`]).
///
/// Drive it through [`Endpoint::step`]: `Some(input)` feeds an [`Input`],
/// `None` fires its enabled locally controlled actions in bulk. A
/// schedule-exploring driver fires them one at a time instead, with
/// [`Endpoint::enabled_actions`] and [`Endpoint::fire`].
#[derive(Debug, Clone)]
pub struct Endpoint {
    cfg: Config,
    st: State,
}

impl Endpoint {
    /// Creates an end-point with identity `pid` in its initial singleton
    /// view.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` enables both `implicit_cuts` and `aggregation`:
    /// leader-relayed synchronization messages do not ride the sender's
    /// FIFO stream, so their positions carry no meaning.
    pub fn new(pid: ProcessId, cfg: Config) -> Self {
        assert!(
            !(cfg.implicit_cuts && cfg.aggregation),
            "implicit_cuts and aggregation are mutually exclusive"
        );
        Endpoint { cfg, st: State::new(pid) }
    }

    /// This end-point's identity.
    pub fn pid(&self) -> ProcessId {
        self.st.pid
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// The view last delivered to the application.
    pub fn current_view(&self) -> &View {
        &self.st.current_view
    }

    /// Whether a view change is pending (`start_change ≠ ⊥`).
    pub fn reconfiguring(&self) -> bool {
        self.st.start_change.is_some()
    }

    /// Whether the end-point is crashed (§8).
    pub fn is_crashed(&self) -> bool {
        self.st.crashed
    }

    /// Read access to the full state (for checkers, strategies, tests).
    pub fn state(&self) -> &State {
        &self.st
    }

    /// Frees from `msgs[q][current_view]` what every member of the
    /// current view has delivered from `q`, up to `floor`, as its host has
    /// read it off their states ([`State::forget_delivered`], DESIGN.md
    /// §18). For a host that runs every member's end-point itself; its
    /// peers' deliveries are otherwise known only from their
    /// acknowledgements ([`crate::stability`]). Not an action: it fires
    /// nothing, and changes no delivery, view or cut.
    pub fn forget_delivered(&mut self, q: ProcessId, floor: MsgIndex) {
        self.st.forget_delivered(q, floor);
    }

    /// One step of the automaton, its effects pushed onto `out` in order
    /// ([`GroupEndpoint::step`]). `Some(input)` applies that input action
    /// only; effects from an input are rare (the §9 aggregation relay and
    /// the audit reset), everything else surfaces through the locally
    /// controlled actions. `None` fires every enabled locally controlled
    /// action, in canonical order, until quiescence. `rec` counts what
    /// is not a trace event of its own — recoveries, audit resets,
    /// refused stores and batch flushes — beside the `endpoint.*` counts
    /// of the actions as they fire.
    ///
    /// # Panics
    ///
    /// Panics if the end-point fails to quiesce within a large internal
    /// step bound (indicates a livelock bug).
    pub fn step(&mut self, input: Option<Input>, rec: &mut dyn Recorder, out: &mut Vec<Effect>) {
        let Some(input) = input else { return self.quiesce(rec, out) };
        if self.st.crashed {
            if input == Input::Recover {
                self.st.reset();
                rec.counter(names::EP_RECOVERIES, 1);
            }
            return; // §8: input effects disabled while crashed
        }
        match input {
            Input::AppSend(m) => wv::on_app_send(&mut self.st, m),
            Input::BlockOk => {
                if self.cfg.stack.has_sd() {
                    sd::on_block_ok(&mut self.st);
                }
            }
            Input::StartChange { cid, set } => {
                if self.cfg.stack.has_vs() {
                    vs::on_start_change(&mut self.st, cid, set);
                }
            }
            Input::MbrshpView(v) => wv::on_mbrshp_view(&mut self.st, v),
            Input::Net { from, msg } => self.handle_net(from, msg, rec, out),
            Input::Crash => self.st.crashed = true,
            Input::Recover => {} // not crashed: no-op
            Input::Tick(us) => {
                self.st.now_us = self.st.now_us.max(us);
                if self.cfg.audit && crate::audit::check(&self.cfg, &self.st).is_err() {
                    self.reconcile(rec, out);
                }
            }
            Input::AckDue => stability::on_ack_due(&mut self.st),
        }
    }

    /// [`Endpoint::step`] with `Some(input)`, recording nothing, into a
    /// fresh `Vec`. Kept for the frozen `benchmark/src/layers.rs`, which
    /// calls it, until that benchmark moves to `step` (ROADMAP item 1(c));
    /// tests use it as a shorthand.
    pub fn handle(&mut self, input: Input) -> Vec<Effect> {
        let mut out = Vec::new();
        self.step(Some(input), &mut NoopRecorder, &mut out);
        out
    }

    /// [`Endpoint::step`] with `None`, recording nothing, into a fresh
    /// `Vec`. Kept, like [`Endpoint::handle`], for the frozen
    /// `benchmark/src/layers.rs` until ROADMAP item 1(c).
    ///
    /// # Panics
    ///
    /// Panics on the same livelock bound as [`Endpoint::step`].
    pub fn poll(&mut self) -> Vec<Effect> {
        let mut out = Vec::new();
        self.step(None, &mut NoopRecorder, &mut out);
        out
    }

    /// Damages the protocol state with one [`crate::corrupt`] mutator —
    /// the fault-injection hook of the self-stabilization tier. Test
    /// drivers only; nothing in the protocol calls this.
    pub fn corrupt(&mut self, kind: crate::corrupt::CorruptionKind, salt: u64) {
        crate::corrupt::apply(&mut self.st, kind, salt);
    }

    /// The §8 self-reset taken when the tick-cadence audit finds the
    /// state illegal: count the detection, wipe the volatile state
    /// exactly as a crash+recover pair would, and tell the driver via
    /// [`Effect::Reconciled`]. (Drivers wanting the specific failed
    /// check re-run [`crate::audit::check`] before feeding the tick.)
    fn reconcile(&mut self, rec: &mut dyn Recorder, out: &mut Vec<Effect>) {
        rec.counter(names::EP_AUDIT_FAILURES, 1);
        self.st.reset();
        rec.counter(names::EP_AUDIT_RECONCILES, 1);
        out.push(Effect::Reconciled);
    }

    fn handle_net(
        &mut self,
        from: ProcessId,
        msg: NetMsg,
        rec: &mut dyn Recorder,
        out: &mut Vec<Effect>,
    ) {
        match msg {
            NetMsg::ViewMsg(v) => wv::on_view_msg(&mut self.st, from, v),
            NetMsg::App(m) => wv::on_app_msg(&mut self.st, from, m),
            NetMsg::AppBatch(batch) => {
                // Unbatch before any protocol processing: the stored
                // stream is identical to receiving each message in its own
                // frame, so checkers and delivery order are unaffected.
                for m in batch {
                    wv::on_app_msg(&mut self.st, from, m);
                }
            }
            NetMsg::Fwd(f) => {
                if !wv::on_fwd_msg(&mut self.st, f) {
                    rec.counter(names::EP_STORES_REFUSED, 1);
                }
            }
            NetMsg::Ack(cut) => stability::on_ack(&mut self.st, from, cut),
            NetMsg::Sync(payload) => {
                if self.cfg.stack.has_vs() {
                    let srec = vs::on_sync(&mut self.st, from, &payload);
                    self.maybe_relay_as_leader(from, payload.cid, srec, out);
                }
            }
            NetMsg::SyncAgg(entries) => {
                if !self.cfg.stack.has_vs() {
                    return;
                }
                for (sender, payload) in entries {
                    if sender != self.st.pid {
                        vs::on_sync(&mut self.st, sender, &payload);
                    }
                }
            }
            // Baseline-protocol traffic is not ours; tolerate and drop it
            // (mixed deployments only occur in comparative experiments).
            NetMsg::Baseline(_) => {}
        }
    }

    /// §9 leader logic: buffer incoming syncs; once the batch has been
    /// flushed, relay stragglers immediately.
    fn maybe_relay_as_leader(
        &mut self,
        from: ProcessId,
        cid: StartChangeId,
        rec: SyncRecord,
        out: &mut Vec<Effect>,
    ) {
        if !self.cfg.aggregation {
            return;
        }
        let Some(sc_set) = self.st.agg_scope.clone() else { return };
        if vs::leader(&sc_set) != Some(self.st.pid) {
            return;
        }
        self.st.agg_buffer.insert(from, (cid, rec.clone()));
        if self.st.agg_flushed {
            let to: ProcSet =
                sc_set.iter().copied().filter(|q| *q != self.st.pid && *q != from).collect();
            let payload = SyncPayload { cid, view: rec.view, cut: rec.cut };
            net_send(out, to, NetMsg::SyncAgg(vec![(from, payload)]));
        }
    }

    /// The pending batch — the unsent suffix of the own current-view
    /// buffer — as `(message count, payload bytes)`.
    fn pending_batch(&self) -> (u64, usize) {
        let Some(buf) = self.st.buf(self.st.pid, &self.st.current_view) else {
            return (0, 0);
        };
        let mut count = 0u64;
        let mut bytes = 0usize;
        let mut i = self.st.last_sent + 1;
        while let Some(m) = buf.get(i) {
            count += 1;
            bytes += m.len();
            i += 1;
        }
        (count, bytes)
    }

    /// Whether the batching stage holds back an otherwise-enabled
    /// `SendAppMsg`. Any pending view change releases the hold
    /// unconditionally: the forced flush precedes the synchronization
    /// cut, so view installation (which waits for the own stream to reach
    /// its agreed bound) can never deadlock on held messages.
    fn batch_holds(&self) -> bool {
        if !self.cfg.batch.enabled() {
            return false;
        }
        if self.st.start_change.is_some() || wv::view_pre(&self.st) {
            return false;
        }
        let (count, bytes) = self.pending_batch();
        crate::batch::holds(&self.cfg.batch, count, bytes, self.st.batch_opened_us, self.st.now_us)
    }

    /// The absolute clock value (same timebase as [`Input::Tick`]) at
    /// which the pending batch's linger deadline expires — `None` when
    /// nothing is held. Drivers use this to know how far to advance time
    /// when the network is otherwise idle.
    pub fn next_deadline_us(&self) -> Option<u64> {
        if !self.cfg.batch.enabled() {
            return None;
        }
        let opened = self.st.batch_opened_us?;
        let (count, _) = self.pending_batch();
        if count == 0 {
            return None;
        }
        Some(opened.saturating_add(self.cfg.batch.linger_us))
    }

    fn reliable_target(&self) -> ProcSet {
        if self.cfg.stack.has_vs() {
            vs::reliable_target(&self.st)
        } else {
            self.st.current_view.members().clone()
        }
    }

    /// `reliable_target() == reliable_set`, without building the target.
    fn reliable_at_target(&self) -> bool {
        if self.cfg.stack.has_vs() {
            vs::reliable_at_target(&self.st)
        } else {
            *self.st.current_view.members() == self.st.reliable_set
        }
    }

    fn sync_enabled(&self) -> bool {
        self.cfg.stack.has_vs()
            && vs::send_sync_pre(&self.st, self.cfg.implicit_cuts)
            && (!self.cfg.stack.has_sd() || sd::sync_restriction(&self.st))
    }

    fn send_app_enabled(&self) -> bool {
        wv::send_app_msg_pre(&self.st).is_some() && !self.batch_holds()
    }

    fn deliver_enabled(&self, q: ProcessId) -> bool {
        let Some(_) = wv::deliver_pre(&self.st, q) else { return false };
        if self.cfg.stack.has_vs() {
            if let Some(bound) = vs::delivery_bound(&self.st, q) {
                return self.st.dlvrd(q) < bound;
            }
        }
        true
    }

    /// `view_enabled().is_some()`, without building the transitional set.
    fn view_ready(&self) -> bool {
        wv::view_pre(&self.st)
            && (!self.cfg.stack.has_vs() || vs::view_ready(&self.st, self.cfg.implicit_cuts))
    }

    fn view_enabled(&self) -> Option<ProcSet> {
        if !wv::view_pre(&self.st) {
            return None;
        }
        if self.cfg.stack.has_vs() {
            vs::view_restriction_with(&self.st, self.cfg.implicit_cuts)
        } else {
            Some(self.st.mbrshp_view.intersection(&self.st.current_view).collect())
        }
    }

    fn flush_agg_enabled(&self) -> bool {
        if !(self.cfg.aggregation && self.cfg.stack.has_vs()) {
            return false;
        }
        let Some((cid, sc_set)) = &self.st.start_change else { return false };
        if vs::leader(sc_set) != Some(self.st.pid) || self.st.agg_flushed {
            return false;
        }
        if self.st.agg_buffer.is_empty() {
            return false;
        }
        let complete = sc_set.iter().all(|q| self.st.agg_buffer.contains_key(q));
        let view_arrived = self.st.mbrshp_view.start_id(self.st.pid) == Some(*cid);
        complete || view_arrived
    }

    /// [`Endpoint::step`]'s `None`: fires every enabled locally
    /// controlled action, in canonical order, until quiescence.
    fn quiesce(&mut self, rec: &mut dyn Recorder, out: &mut Vec<Effect>) {
        let mut steps = 0usize;
        loop {
            let next = self.first_enabled();
            debug_assert_eq!(
                self.enabled_actions().first(),
                next.as_ref(),
                "first_enabled must choose what enabled_actions lists first"
            );
            let Some(action) = next else { return };
            self.fire(&action, rec, out);
            steps += 1;
            assert!(steps < 1_000_000, "endpoint livelock: {action:?} keeps firing");
        }
    }

    /// The action [`Endpoint::enabled_actions`] lists first: the same
    /// canonical order, walked until the first precondition that holds.
    /// Every predicate on the walk borrows the state, so the walk that
    /// finds nothing — the last one of every poll — allocates nothing.
    pub fn first_enabled(&self) -> Option<Action> {
        if self.st.crashed {
            return None;
        }
        if !self.reliable_at_target() {
            return Some(Action::SetReliable);
        }
        if wv::send_view_msg_pre(&self.st) {
            return Some(Action::SendViewMsg);
        }
        if self.sync_enabled() {
            return Some(Action::SendSyncMsg);
        }
        if self.cfg.stack.has_sd() && sd::block_pre(&self.st) {
            return Some(Action::Block);
        }
        if self.flush_agg_enabled() {
            return Some(Action::FlushAgg);
        }
        if self.send_app_enabled() {
            return Some(Action::SendAppMsg);
        }
        let members = self.st.current_view.members();
        if let Some(q) = members.iter().copied().find(|q| self.deliver_enabled(*q)) {
            return Some(Action::DeliverApp(q));
        }
        if self.view_ready() {
            return Some(Action::DeliverView);
        }
        if self.cfg.stack.has_vs() {
            if let Some(cmd) = self.cfg.forward.first_candidate(&self.st) {
                return Some(Action::Forward(cmd));
            }
        }
        stability::send_ack_pre(&self.st).then_some(Action::SendAck)
    }

    /// Whether `action`'s precondition holds: the precondition half of
    /// each precondition/effect pair, as [`Endpoint::fire`]'s match is the
    /// effect half. Both matches are exhaustive, with no `_` arm, so an
    /// [`Action`] without both halves does not compile.
    pub fn pre(&self, action: &Action) -> bool {
        if self.st.crashed {
            return false;
        }
        match action {
            Action::SetReliable => !self.reliable_at_target(),
            Action::SendViewMsg => wv::send_view_msg_pre(&self.st),
            Action::SendSyncMsg => self.sync_enabled(),
            Action::Block => self.cfg.stack.has_sd() && sd::block_pre(&self.st),
            Action::FlushAgg => self.flush_agg_enabled(),
            Action::SendAppMsg => self.send_app_enabled(),
            Action::DeliverApp(q) => {
                self.st.current_view.members().contains(q) && self.deliver_enabled(*q)
            }
            Action::DeliverView => self.view_ready(),
            Action::Forward(cmd) => {
                self.cfg.stack.has_vs() && self.cfg.forward.offers(&self.st, cmd)
            }
            Action::SendAck => stability::send_ack_pre(&self.st),
        }
    }

    /// Every enabled action in canonical order — the reference
    /// [`Endpoint::first_enabled`] is checked against in debug builds.
    pub fn enabled_actions(&self) -> Vec<Action> {
        if self.st.crashed {
            return Vec::new();
        }
        let mut out = Vec::new();
        if self.reliable_target() != self.st.reliable_set {
            out.push(Action::SetReliable);
        }
        if wv::send_view_msg_pre(&self.st) {
            out.push(Action::SendViewMsg);
        }
        if self.sync_enabled() {
            out.push(Action::SendSyncMsg);
        }
        if self.cfg.stack.has_sd() && sd::block_pre(&self.st) {
            out.push(Action::Block);
        }
        if self.flush_agg_enabled() {
            out.push(Action::FlushAgg);
        }
        if self.send_app_enabled() {
            out.push(Action::SendAppMsg);
        }
        for q in self.st.current_view.members() {
            if self.deliver_enabled(*q) {
                out.push(Action::DeliverApp(*q));
            }
        }
        if self.view_enabled().is_some() {
            out.push(Action::DeliverView);
        }
        if self.cfg.stack.has_vs() {
            for cmd in self.cfg.forward.candidates(&self.st) {
                out.push(Action::Forward(cmd));
            }
        }
        if stability::send_ack_pre(&self.st) {
            out.push(Action::SendAck);
        }
        out
    }

    /// Fires one enabled locally controlled action atomically, pushing its
    /// externally visible effects onto `out` and counting to `rec`. Each
    /// arm's `let … else { return }` reads what the precondition already
    /// guarantees, so a disabled action does nothing.
    pub fn fire(&mut self, action: &Action, rec: &mut dyn Recorder, out: &mut Vec<Effect>) {
        debug_assert!(self.pre(action), "fire of {action:?}, which is not enabled");
        match action {
            Action::SetReliable => {
                let target = self.reliable_target();
                self.st.reliable_set = target.clone();
                out.push(Effect::SetReliable(target));
            }
            Action::SendViewMsg => {
                let (set, msg) = wv::send_view_msg_eff(&mut self.st);
                net_send(out, set, msg);
            }
            Action::SendSyncMsg => {
                let Some(plan) = vs::send_sync_eff(
                    &mut self.st,
                    self.cfg.slim_sync,
                    self.cfg.aggregation,
                    self.cfg.implicit_cuts,
                ) else {
                    return;
                };
                // A sync counts when it leaves the process: not in a
                // change to this process alone, and not at a §9 leader,
                // which buffers its own until `FlushAgg`.
                if !plan.sends.is_empty() {
                    rec.counter(names::EP_SYNCS_SENT, 1);
                }
                let pid = self.st.pid;
                let latest = self.st.latest_sync_cid.entry(pid).or_insert(plan.cid);
                if plan.cid > *latest {
                    *latest = plan.cid;
                }
                out.extend(plan.sends.into_iter().map(|(to, msg)| Effect::NetSend { to, msg }));
            }
            Action::Block => {
                rec.counter(names::EP_BLOCKS, 1);
                sd::block_eff(&mut self.st);
                out.push(Effect::Block);
            }
            Action::FlushAgg => {
                let Some((_, sc_set)) = self.st.start_change.clone() else { return };
                let entries: Vec<(ProcessId, SyncPayload)> = self
                    .st
                    .agg_buffer
                    .iter()
                    .map(|(sender, (cid, rec))| {
                        (
                            *sender,
                            SyncPayload { cid: *cid, view: rec.view.clone(), cut: rec.cut.clone() },
                        )
                    })
                    .collect();
                self.st.agg_flushed = true;
                let to: ProcSet = sc_set.iter().copied().filter(|q| *q != self.st.pid).collect();
                // The leader's own sync leaves here, if it is in the batch.
                if !to.is_empty() && entries.iter().any(|(sender, _)| *sender == self.st.pid) {
                    rec.counter(names::EP_SYNCS_SENT, 1);
                }
                net_send(out, to, NetMsg::SyncAgg(entries));
            }
            Action::SendAppMsg => {
                // Attribute the flush before the effect consumes the
                // pending suffix.
                let reconfiguring = self.st.start_change.is_some() || wv::view_pre(&self.st);
                let pending = self.cfg.batch.enabled().then(|| self.pending_batch());
                let Some((set, msg, k)) = wv::send_app_batch_eff(
                    &mut self.st,
                    self.cfg.batch.max_msgs,
                    self.cfg.batch.max_bytes,
                ) else {
                    return;
                };
                rec.counter(names::EP_MSGS_SENT, k);
                if let Some((pcount, pbytes)) = pending {
                    let cause =
                        crate::batch::flush_cause(&self.cfg.batch, reconfiguring, pcount, pbytes);
                    rec.counter(names::EP_BATCH_FLUSHES, 1);
                    rec.counter(cause.counter_name(), 1);
                    rec.observe(names::EP_BATCH_SIZE, k);
                }
                net_send(out, set, msg);
            }
            Action::DeliverApp(q) => {
                let Some(m) = wv::deliver_pre(&self.st, *q).cloned() else { return };
                rec.counter(names::EP_MSGS_DELIVERED, 1);
                wv::deliver_eff(&mut self.st, *q);
                out.push(Effect::DeliverApp { from: *q, msg: m });
            }
            Action::DeliverView => {
                let Some(t) = self.view_enabled() else { return };
                rec.counter(names::EP_VIEWS_INSTALLED, 1);
                let previous = self.st.current_view.clone();
                wv::view_eff(&mut self.st);
                if self.cfg.stack.has_vs() {
                    vs::view_eff(&mut self.st);
                }
                if self.cfg.stack.has_sd() {
                    sd::view_eff(&mut self.st);
                }
                stability::view_eff(&mut self.st);
                self.st.gc(&previous);
                // Re-issue application sends that arrived after the own
                // sync for the just-completed change: they were queued
                // (not stamped with the old view) and now join the new
                // view's stream in arrival order.
                let queued = std::mem::take(&mut self.st.pending_sends);
                for m in queued {
                    wv::on_app_send(&mut self.st, m);
                }
                out.push(Effect::InstallView {
                    view: self.st.current_view.clone(),
                    transitional: t,
                });
            }
            Action::Forward(cmd) => {
                let buf = self.st.buf(cmd.origin, &cmd.view);
                let Some(msg) = buf.and_then(|s| s.get(cmd.index)).cloned() else { return };
                rec.counter(names::EP_FORWARDS_SENT, 1);
                for dest in &cmd.to {
                    self.st.forwarded.insert((*dest, cmd.origin, cmd.view.clone(), cmd.index));
                }
                out.push(Effect::NetSend {
                    to: cmd.to.clone(),
                    msg: NetMsg::Fwd(FwdPayload {
                        origin: cmd.origin,
                        view: cmd.view.clone(),
                        index: cmd.index,
                        msg,
                    }),
                });
            }
            Action::SendAck => {
                let Some((set, msg)) = stability::send_ack_eff(&mut self.st) else { return };
                rec.counter(names::EP_ACKS_SENT, 1);
                net_send(out, set, msg);
            }
        }
    }
}

/// `co_rfifo.send_p(to, msg)` as an effect, unless `to` is empty.
fn net_send(out: &mut Vec<Effect>, to: ProcSet, msg: NetMsg) {
    if !to.is_empty() {
        out.push(Effect::NetSend { to, msg });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Stack;
    use std::collections::HashMap;

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn set(ids: &[u64]) -> ProcSet {
        ids.iter().map(|&i| p(i)).collect()
    }

    /// Minimal in-test harness: endpoints + instant FIFO message routing +
    /// a scripted membership.
    struct Net {
        eps: HashMap<ProcessId, Endpoint>,
        delivered: Vec<(ProcessId, ProcessId, AppMsg)>,
        views: Vec<(ProcessId, View, ProcSet)>,
        blocked: Vec<ProcessId>,
    }

    impl Net {
        fn new(ids: &[u64], cfg: Config) -> Self {
            Net {
                eps: ids.iter().map(|&i| (p(i), Endpoint::new(p(i), cfg.clone()))).collect(),
                delivered: Vec::new(),
                views: Vec::new(),
                blocked: Vec::new(),
            }
        }

        fn input(&mut self, to: u64, input: Input) {
            let effects = self.eps.get_mut(&p(to)).unwrap().handle(input);
            self.route(p(to), effects);
        }

        /// Poll every endpoint until global quiescence, auto-answering
        /// block requests with block_ok.
        fn settle(&mut self) {
            for _ in 0..1000 {
                let mut progress = false;
                let ids: Vec<ProcessId> = self.eps.keys().copied().collect();
                for id in ids {
                    let effects = self.eps.get_mut(&id).unwrap().poll();
                    if !effects.is_empty() {
                        progress = true;
                        self.route(id, effects);
                    }
                }
                if !progress {
                    return;
                }
            }
            panic!("network did not settle");
        }

        fn route(&mut self, from: ProcessId, effects: Vec<Effect>) {
            for e in effects {
                match e {
                    Effect::NetSend { to, msg } => {
                        for dest in to {
                            if dest == from {
                                continue;
                            }
                            let more = self
                                .eps
                                .get_mut(&dest)
                                .unwrap()
                                .handle(Input::Net { from, msg: msg.clone() });
                            self.route(dest, more);
                        }
                    }
                    Effect::DeliverApp { from: sender, msg } => {
                        self.delivered.push((from, sender, msg));
                    }
                    Effect::InstallView { view, transitional } => {
                        self.views.push((from, view, transitional));
                    }
                    Effect::Block => {
                        self.blocked.push(from);
                        let more = self.eps.get_mut(&from).unwrap().handle(Input::BlockOk);
                        self.route(from, more);
                    }
                    Effect::SetReliable(_) => {}
                    Effect::Reconciled => {}
                }
            }
        }

        /// Scripted membership: start_change + view to all members.
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
                vsgm_types::ViewId::new(epoch, 0),
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
    fn singleton_self_delivery() {
        let mut net = Net::new(&[1], Config::default());
        net.input(1, Input::AppSend(AppMsg::from("solo")));
        net.settle();
        assert_eq!(net.delivered, vec![(p(1), p(1), AppMsg::from("solo"))]);
    }

    #[test]
    fn two_endpoints_form_view_and_multicast() {
        let mut net = Net::new(&[1, 2], Config::default());
        let v = net.reconfigure(&[1, 2], 1, 1);
        assert_eq!(net.views.len(), 2, "{:?}", net.views);
        for (_, view, t) in &net.views {
            assert_eq!(view, &v);
            assert!(t.contains(&view.members().iter().next().copied().unwrap()) || !t.is_empty());
        }
        net.input(1, Input::AppSend(AppMsg::from("hi")));
        net.settle();
        let receivers: Vec<ProcessId> = net.delivered.iter().map(|(to, _, _)| *to).collect();
        assert!(receivers.contains(&p(1)) && receivers.contains(&p(2)), "{receivers:?}");
    }

    #[test]
    fn transitional_set_is_self_on_first_view() {
        let mut net = Net::new(&[1, 2], Config::default());
        net.reconfigure(&[1, 2], 1, 1);
        // Both moved from their own singleton initial views: T = {self}.
        for (who, _, t) in &net.views {
            assert_eq!(t, &[*who].into_iter().collect::<ProcSet>(), "{:?}", net.views);
        }
    }

    #[test]
    fn transitional_set_is_full_on_joint_move() {
        let mut net = Net::new(&[1, 2], Config::default());
        net.reconfigure(&[1, 2], 1, 1);
        net.views.clear();
        net.reconfigure(&[1, 2], 2, 2);
        for (_, _, t) in &net.views {
            assert_eq!(t, &set(&[1, 2]), "{:?}", net.views);
        }
    }

    #[test]
    fn block_handshake_happens_per_view_change() {
        let mut net = Net::new(&[1, 2], Config::default());
        net.reconfigure(&[1, 2], 1, 1);
        assert_eq!(net.blocked.len(), 2);
        net.reconfigure(&[1, 2], 2, 2);
        assert_eq!(net.blocked.len(), 4);
    }

    #[test]
    fn virtual_synchrony_on_partition_shrink() {
        let mut net = Net::new(&[1, 2, 3], Config::default());
        net.reconfigure(&[1, 2, 3], 1, 1);
        net.input(1, Input::AppSend(AppMsg::from("m")));
        net.settle();
        net.delivered.clear();
        net.views.clear();
        // p3 leaves; {1,2} reconfigure.
        let member_set = set(&[1, 2]);
        for m in [1, 2] {
            net.input(
                m,
                Input::StartChange { cid: StartChangeId::new(2), set: member_set.clone() },
            );
        }
        net.settle();
        let view = View::new(
            vsgm_types::ViewId::new(2, 0),
            member_set.iter().copied(),
            member_set.iter().map(|m| (*m, StartChangeId::new(2))),
        );
        for m in [1, 2] {
            net.input(m, Input::MbrshpView(view.clone()));
        }
        net.settle();
        assert_eq!(net.views.len(), 2, "{:?}", net.views);
        for (_, _, t) in &net.views {
            assert_eq!(t, &set(&[1, 2]));
        }
    }

    #[test]
    fn obsolete_view_never_delivered() {
        let mut net = Net::new(&[1, 2], Config::default());
        net.reconfigure(&[1, 2], 1, 1);
        net.views.clear();
        // start_change cid=2, then a cascade cid=3 BEFORE the view for
        // cid=2 arrives.
        let members = set(&[1, 2]);
        for m in [1, 2] {
            net.input(m, Input::StartChange { cid: StartChangeId::new(2), set: members.clone() });
        }
        net.settle();
        for m in [1, 2] {
            net.input(m, Input::StartChange { cid: StartChangeId::new(3), set: members.clone() });
        }
        net.settle();
        // The view tagged with the OLD cids arrives: must be ignored.
        let obsolete = View::new(
            vsgm_types::ViewId::new(2, 0),
            members.iter().copied(),
            members.iter().map(|m| (*m, StartChangeId::new(2))),
        );
        for m in [1, 2] {
            net.input(m, Input::MbrshpView(obsolete.clone()));
        }
        net.settle();
        assert!(net.views.is_empty(), "obsolete view was delivered: {:?}", net.views);
        // The up-to-date view goes through.
        let fresh = View::new(
            vsgm_types::ViewId::new(3, 0),
            members.iter().copied(),
            members.iter().map(|m| (*m, StartChangeId::new(3))),
        );
        for m in [1, 2] {
            net.input(m, Input::MbrshpView(fresh.clone()));
        }
        net.settle();
        assert_eq!(net.views.len(), 2);
    }

    #[test]
    fn messages_delivered_during_reconfiguration() {
        // The paper: "our algorithm allows some application messages to be
        // delivered while it is reconfiguring."
        let mut net = Net::new(&[1, 2], Config::default());
        net.reconfigure(&[1, 2], 1, 1);
        // In-flight message sent before the change...
        net.input(1, Input::AppSend(AppMsg::from("during")));
        net.delivered.clear();
        let members = set(&[1, 2]);
        for m in [1, 2] {
            net.input(m, Input::StartChange { cid: StartChangeId::new(2), set: members.clone() });
        }
        net.settle();
        // Delivered while no view has arrived yet (still reconfiguring).
        assert!(
            net.delivered.iter().any(|(_, _, m)| m == &AppMsg::from("during")),
            "{:?}",
            net.delivered
        );
        assert!(net.eps[&p(1)].reconfiguring());
    }

    #[test]
    fn crash_disables_recover_restores() {
        let mut ep = Endpoint::new(p(1), Config::default());
        ep.handle(Input::Crash);
        assert!(ep.is_crashed());
        assert!(ep.enabled_actions().is_empty());
        ep.handle(Input::AppSend(AppMsg::from("lost")));
        ep.handle(Input::Recover);
        assert!(!ep.is_crashed());
        // The pre-crash send is gone (no stable storage).
        assert_eq!(ep.state().buf(p(1), ep.current_view()).map_or(0, |b| b.last_index()), 0);
    }

    #[test]
    fn wv_stack_ignores_start_change_and_installs_views_directly() {
        let cfg = Config { stack: Stack::Wv, ..Config::default() };
        let mut net = Net::new(&[1, 2], cfg);
        // No sync round needed: view installs straight away.
        let members = set(&[1, 2]);
        let view = View::new(
            vsgm_types::ViewId::new(1, 0),
            members.iter().copied(),
            members.iter().map(|m| (*m, StartChangeId::new(1))),
        );
        for m in [1, 2] {
            net.input(m, Input::MbrshpView(view.clone()));
        }
        net.settle();
        assert_eq!(net.views.len(), 2);
        assert!(net.blocked.is_empty(), "WV stack never blocks");
    }

    #[test]
    fn vs_stack_without_sd_never_blocks() {
        let cfg = Config { stack: Stack::VsTs, ..Config::default() };
        let mut net = Net::new(&[1, 2], cfg);
        net.reconfigure(&[1, 2], 1, 1);
        assert_eq!(net.views.len(), 2);
        assert!(net.blocked.is_empty());
    }

    #[test]
    fn aggregation_stack_still_reaches_view() {
        let cfg = Config { aggregation: true, ..Config::default() };
        let mut net = Net::new(&[1, 2, 3], cfg);
        net.reconfigure(&[1, 2, 3], 1, 1);
        assert_eq!(net.views.len(), 3, "{:?}", net.views);
    }

    #[test]
    fn slim_sync_stack_still_reaches_view() {
        let cfg = Config { slim_sync: true, ..Config::default() };
        let mut net = Net::new(&[1, 2], cfg);
        net.reconfigure(&[1, 2], 1, 1);
        net.views.clear();
        net.reconfigure(&[1, 2], 2, 2);
        assert_eq!(net.views.len(), 2);
        for (_, _, t) in &net.views {
            assert_eq!(t, &set(&[1, 2]));
        }
    }

    fn batched_cfg(max_msgs: u64, linger_us: u64) -> Config {
        Config {
            batch: crate::batch::BatchConfig { max_msgs, max_bytes: 64 * 1024, linger_us },
            ..Config::default()
        }
    }

    #[test]
    fn batch_holds_until_count_then_one_frame_carries_all() {
        let mut net = Net::new(&[1, 2], batched_cfg(3, 1_000_000));
        net.reconfigure(&[1, 2], 1, 1);
        net.delivered.clear();
        // Two sends: under the count limit, long linger — held.
        net.input(1, Input::AppSend(AppMsg::from("a")));
        net.input(1, Input::AppSend(AppMsg::from("b")));
        net.settle();
        assert!(
            !net.delivered.iter().any(|(to, _, _)| *to == p(2)),
            "held batch leaked to the wire: {:?}",
            net.delivered
        );
        assert_eq!(net.eps[&p(1)].next_deadline_us(), Some(1_000_000));
        // Third send reaches the count limit: everything flushes at once.
        net.input(1, Input::AppSend(AppMsg::from("c")));
        net.settle();
        let at2: Vec<&AppMsg> = net
            .delivered
            .iter()
            .filter(|(to, from, _)| *to == p(2) && *from == p(1))
            .map(|(_, _, m)| m)
            .collect();
        assert_eq!(at2, vec![&AppMsg::from("a"), &AppMsg::from("b"), &AppMsg::from("c")]);
        assert_eq!(net.eps[&p(1)].next_deadline_us(), None);
    }

    #[test]
    fn linger_deadline_releases_held_batch_on_tick() {
        let mut net = Net::new(&[1, 2], batched_cfg(8, 500));
        net.reconfigure(&[1, 2], 1, 1);
        net.delivered.clear();
        net.input(1, Input::AppSend(AppMsg::from("m")));
        net.settle();
        assert!(net.delivered.is_empty(), "{:?}", net.delivered);
        // Advance short of the deadline: still held.
        net.input(1, Input::Tick(499));
        net.settle();
        assert!(net.delivered.is_empty(), "{:?}", net.delivered);
        net.input(1, Input::Tick(500));
        net.settle();
        assert!(
            net.delivered.iter().any(|(to, _, m)| *to == p(2) && m == &AppMsg::from("m")),
            "{:?}",
            net.delivered
        );
    }

    #[test]
    fn view_change_flushes_half_full_batch_before_cut() {
        let mut net = Net::new(&[1, 2], batched_cfg(8, 1_000_000));
        net.reconfigure(&[1, 2], 1, 1);
        net.delivered.clear();
        net.views.clear();
        // Half-full batch held at p1, then a view change races it.
        net.input(1, Input::AppSend(AppMsg::from("held")));
        net.settle();
        assert!(net.delivered.is_empty(), "{:?}", net.delivered);
        net.reconfigure(&[1, 2], 2, 2);
        // The view installed everywhere (no deadlock on the held batch)…
        assert_eq!(net.views.len(), 2, "{:?}", net.views);
        // …and the held message was delivered to everyone in the OLD view
        // (it was flushed before the synchronization cut).
        for target in [1u64, 2] {
            assert!(
                net.delivered.iter().any(|(to, from, m)| *to == p(target)
                    && *from == p(1)
                    && m == &AppMsg::from("held")),
                "missing delivery at p{target}: {:?}",
                net.delivered
            );
        }
    }

    #[test]
    fn batch_flush_is_journalled_with_cause_and_size() {
        let mut ep = Endpoint::new(p(1), batched_cfg(2, 1_000_000));
        let mut reg = vsgm_obs::Registry::new();
        let mut out = Vec::new();
        ep.step(Some(Input::AppSend(AppMsg::from("a"))), &mut reg, &mut out);
        ep.step(Some(Input::AppSend(AppMsg::from("b"))), &mut reg, &mut out);
        ep.step(None, &mut reg, &mut out);
        assert_eq!(reg.counter(names::EP_BATCH_FLUSHES), 1);
        assert_eq!(reg.counter(names::EP_BATCH_FLUSH_COUNT), 1);
        assert_eq!(reg.counter(names::EP_BATCH_FLUSH_LINGER), 0);
        let h = reg.histogram(names::EP_BATCH_SIZE).expect("batch size recorded");
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 2);
        // Both messages counted sent, by the one flush.
        assert_eq!(reg.counter(names::EP_MSGS_SENT), 2);
    }

    #[test]
    fn send_racing_view_change_lands_in_new_view() {
        // Regression for the view-stamping bug: a send arriving after the
        // own sync message was already sent must NOT be stamped with the
        // old view — it is queued and re-issued in the next view.
        let mut net = Net::new(&[1, 2], Config::default());
        net.reconfigure(&[1, 2], 1, 1);
        net.delivered.clear();
        let members = set(&[1, 2]);
        for m in [1, 2] {
            net.input(m, Input::StartChange { cid: StartChangeId::new(2), set: members.clone() });
        }
        net.settle();
        // Both endpoints have sent their syncs (settle drains all locally
        // controlled actions). A send now hits the closed window.
        assert!(net.eps[&p(1)].state().sync(p(1), StartChangeId::new(2)).is_some());
        net.input(1, Input::AppSend(AppMsg::from("racer")));
        net.settle();
        assert!(net.delivered.is_empty(), "{:?}", net.delivered);
        assert_eq!(net.eps[&p(1)].state().pending_sends, vec![AppMsg::from("racer")]);
        // The view arrives; the queued send goes out in the NEW view.
        let view = View::new(
            vsgm_types::ViewId::new(2, 0),
            members.iter().copied(),
            members.iter().map(|m| (*m, StartChangeId::new(2))),
        );
        for m in [1, 2] {
            net.input(m, Input::MbrshpView(view.clone()));
        }
        net.settle();
        let deliveries: Vec<&(ProcessId, ProcessId, AppMsg)> =
            net.delivered.iter().filter(|(_, _, m)| m == &AppMsg::from("racer")).collect();
        assert_eq!(deliveries.len(), 2, "{:?}", net.delivered);
        for ep in net.eps.values() {
            assert_eq!(ep.current_view(), &view);
            assert!(ep.state().pending_sends.is_empty());
            // The message sits in the NEW view's own buffer, not the old.
            if ep.pid() == p(1) {
                assert_eq!(ep.state().buf(p(1), &view).map_or(0, |b| b.last_index()), 1);
            }
        }
    }

    #[test]
    fn audit_tick_reconciles_a_corrupted_endpoint() {
        use crate::corrupt::CorruptionKind;
        let cfg = Config { audit: true, ..Config::default() };
        let mut net = Net::new(&[1, 2], cfg);
        net.reconfigure(&[1, 2], 1, 1);
        let ep = net.eps.get_mut(&p(1)).unwrap();
        ep.corrupt(CorruptionKind::ScrambleMembership, 0);
        let mut reg = vsgm_obs::Registry::new();
        let mut effects = Vec::new();
        ep.step(Some(Input::Tick(1)), &mut reg, &mut effects);
        assert_eq!(effects, vec![Effect::Reconciled]);
        // Reset to the initial state, §8-style.
        assert_eq!(ep.current_view(), &View::initial(p(1)));
        assert_eq!(reg.counter(names::EP_AUDIT_FAILURES), 1);
        assert_eq!(reg.counter(names::EP_AUDIT_RECONCILES), 1);
        // The next tick finds the fresh state legal: no further resets.
        assert!(ep.handle(Input::Tick(2)).is_empty());
    }

    #[test]
    fn audit_off_ticks_never_reconcile() {
        use crate::corrupt::CorruptionKind;
        let mut net = Net::new(&[1, 2], Config::default());
        let v = net.reconfigure(&[1, 2], 1, 1);
        let ep = net.eps.get_mut(&p(1)).unwrap();
        ep.corrupt(CorruptionKind::FutureViewId, 0);
        assert!(ep.handle(Input::Tick(1)).is_empty());
        // The damage is still there — nothing noticed it.
        assert!(ep.current_view().id() > v.id());
    }

    #[test]
    fn fifo_order_preserved_end_to_end() {
        let mut net = Net::new(&[1, 2], Config::default());
        net.reconfigure(&[1, 2], 1, 1);
        net.delivered.clear();
        for i in 0..10 {
            net.input(1, Input::AppSend(AppMsg::from(format!("m{i}").as_str())));
        }
        net.settle();
        let at2: Vec<&AppMsg> = net
            .delivered
            .iter()
            .filter(|(to, from, _)| *to == p(2) && *from == p(1))
            .map(|(_, _, m)| m)
            .collect();
        assert_eq!(at2.len(), 10);
        for (i, m) in at2.iter().enumerate() {
            assert_eq!(**m, AppMsg::from(format!("m{i}").as_str()));
        }
    }
}
