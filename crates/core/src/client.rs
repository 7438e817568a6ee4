//! A reference blocking application client (Fig. 12), and [`Hosted`]:
//! the one composition of an end-point with it. `harness::Sim`, the
//! daemon's `GroupInstance`, explore's `Machine` and [`crate::Node`] all
//! host end-points through it, and keep only their channel and what they
//! do with each [`Event`] — where a `NetSend` goes, who sees a `Deliver`.

use crate::endpoint::{Action, Effect, Endpoint, GroupEndpoint, Input};
use std::collections::VecDeque;
use vsgm_obs::Recorder;
use vsgm_types::{AppMsg, Event};

/// Client-side block-handshake status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Status {
    #[default]
    Unblocked,
    Requested,
    Blocked,
}

/// A well-behaved application client per the `CLIENT:SPEC` automaton
/// (Fig. 12): it eventually answers every `block` with `block_ok` and
/// then refrains from sending until a view is delivered.
///
/// Messages the application wants to send while blocked are queued and
/// released on the next view, so application code never has to care about
/// reconfiguration timing.
///
/// ```
/// use vsgm_core::BlockingClient;
/// use vsgm_types::AppMsg;
///
/// let mut client = BlockingClient::new();
/// assert_eq!(client.want_send(AppMsg::from("a")), Some(AppMsg::from("a")));
/// client.on_block();
/// assert!(client.ack_block()); // emits block_ok
/// assert_eq!(client.want_send(AppMsg::from("b")), None); // queued
/// let released = client.on_view();
/// assert_eq!(released, vec![AppMsg::from("b")]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BlockingClient {
    status: Status,
    queued: VecDeque<AppMsg>,
}

impl BlockingClient {
    /// Creates an unblocked client with an empty queue.
    pub fn new() -> Self {
        BlockingClient::default()
    }

    /// Input `block_p()` from the GCS.
    pub fn on_block(&mut self) {
        self.status = Status::Requested;
    }

    /// Emits `block_ok_p()` if a block was requested. Returns whether the
    /// acknowledgment fired (callers forward it to the end-point as
    /// [`crate::Input::BlockOk`]).
    pub fn ack_block(&mut self) -> bool {
        if self.status == Status::Requested {
            self.status = Status::Blocked;
            true
        } else {
            false
        }
    }

    /// The application wants to multicast `m`. Returns `Some(m)` when the
    /// send may proceed now, `None` when it was queued because the client
    /// is blocked.
    pub fn want_send(&mut self, m: AppMsg) -> Option<AppMsg> {
        if self.status == Status::Blocked {
            self.queued.push_back(m);
            None
        } else {
            Some(m)
        }
    }

    /// Input `view_p(v, T)` from the GCS: unblocks and releases queued
    /// sends, in order.
    pub fn on_view(&mut self) -> Vec<AppMsg> {
        self.status = Status::Unblocked;
        self.queued.drain(..).collect()
    }

    /// Whether the client is currently blocked.
    pub fn is_blocked(&self) -> bool {
        self.status == Status::Blocked
    }

    /// Number of messages waiting for the next view.
    pub fn queued_len(&self) -> usize {
        self.queued.len()
    }
}

/// Where a [`Hosted`] end-point's events go, one at a time and in order,
/// with the recorder the end-point counts to (a host that moves a
/// message through an instrumented network counts that hop too).
pub type Sink<'a> = dyn FnMut(Event, &mut dyn Recorder) + 'a;

/// One GCS end-point composed with its [`BlockingClient`] (Fig. 12). Its
/// only output is the trace's [`Event`]s, handed to a [`Sink`]:
///
/// | [`Effect`] | events, then what the composition does |
/// |---|---|
/// | `NetSend` | `NetSend` |
/// | `SetReliable` | `Reliable` |
/// | `DeliverApp` | `Deliver` |
/// | `InstallView` | `GcsView`, then per released send `Send` and [`Input::AppSend`] |
/// | `Block` | `Block`, `BlockOk`, then [`Input::BlockOk`] |
/// | `Reconciled` | `Crash`, `Recover`, and a fresh client |
///
/// An input fed here ([`Input::BlockOk`], a released send) is handled at
/// once; the actions it enables wait for the host's next
/// [`Hosted::poll`], as after any other input.
#[derive(Debug, Clone)]
pub struct Hosted<E: GroupEndpoint = Endpoint> {
    ep: E,
    client: BlockingClient,
}

impl<E: GroupEndpoint> Hosted<E> {
    /// Composes `ep` with an unblocked client.
    pub fn new(ep: E) -> Self {
        Hosted { ep, client: BlockingClient::new() }
    }

    /// The end-point.
    pub fn ep(&self) -> &E {
        &self.ep
    }

    /// The end-point, for drivers that damage it on purpose
    /// ([`Endpoint::corrupt`]).
    pub fn ep_mut(&mut self) -> &mut E {
        &mut self.ep
    }

    /// The client.
    pub fn client(&self) -> &BlockingClient {
        &self.client
    }

    /// The application multicasts `msg`: `Send` and [`Input::AppSend`]
    /// when the client may send, nothing while it is blocked (the message
    /// waits for the next view). Returns whether it went out now.
    pub fn send(&mut self, msg: AppMsg, rec: &mut dyn Recorder, out: &mut Sink<'_>) -> bool {
        let Some(msg) = self.client.want_send(msg) else { return false };
        self.app_send(msg, rec, out);
        true
    }

    /// Feeds one input to the end-point and carries out its effects.
    pub fn input(&mut self, input: Input, rec: &mut dyn Recorder, out: &mut Sink<'_>) {
        let mut effects = Vec::new();
        self.ep.step(Some(input), rec, &mut effects);
        self.route(effects, rec, out);
    }

    /// Runs the end-point to local quiescence and carries out its
    /// effects. Returns whether it did anything.
    pub fn poll(&mut self, rec: &mut dyn Recorder, out: &mut Sink<'_>) -> bool {
        let mut effects = Vec::new();
        self.ep.step(None, rec, &mut effects);
        let acted = !effects.is_empty();
        self.route(effects, rec, out);
        acted
    }

    /// Crashes the end-point (§8): `Crash`, [`Input::Crash`], and a fresh
    /// client — what the application had queued dies with it.
    pub fn crash(&mut self, rec: &mut dyn Recorder, out: &mut Sink<'_>) {
        out(Event::Crash { p: self.ep.pid() }, rec);
        self.input(Input::Crash, rec, out);
        self.client = BlockingClient::new();
    }

    /// Recovers a crashed end-point in its initial state: `Recover`, then
    /// [`Input::Recover`].
    pub fn recover(&mut self, rec: &mut dyn Recorder, out: &mut Sink<'_>) {
        out(Event::Recover { p: self.ep.pid() }, rec);
        self.input(Input::Recover, rec, out);
    }

    fn app_send(&mut self, msg: AppMsg, rec: &mut dyn Recorder, out: &mut Sink<'_>) {
        out(Event::Send { p: self.ep.pid(), msg: msg.clone() }, rec);
        self.input(Input::AppSend(msg), rec, out);
    }

    /// Carries out `effects` in order. The one `match` over [`Effect`]
    /// outside the end-points themselves. Each call's effects sit in a
    /// buffer of that call alone, so an idle end-point holds none, and an
    /// input fed here (a `BlockOk`, a released send) routes its own
    /// effects before the next of these, depth first.
    fn route(&mut self, effects: Vec<Effect>, rec: &mut dyn Recorder, out: &mut Sink<'_>) {
        let p = self.ep.pid();
        for effect in effects {
            match effect {
                Effect::NetSend { to, msg } => out(Event::NetSend { p, set: to, msg }, rec),
                Effect::SetReliable(set) => out(Event::Reliable { p, set }, rec),
                Effect::DeliverApp { from, msg } => out(Event::Deliver { p, q: from, msg }, rec),
                Effect::InstallView { view, transitional } => {
                    out(Event::GcsView { p, view, transitional }, rec);
                    for msg in self.client.on_view() {
                        self.app_send(msg, rec, out);
                    }
                }
                Effect::Block => {
                    out(Event::Block { p }, rec);
                    self.client.on_block();
                    if self.client.ack_block() {
                        out(Event::BlockOk { p }, rec);
                        self.input(Input::BlockOk, rec, out);
                    }
                }
                // The end-point already reset itself; the host sees what a
                // crash and an instant recovery would show it.
                Effect::Reconciled => {
                    out(Event::Crash { p }, rec);
                    out(Event::Recover { p }, rec);
                    self.client = BlockingClient::new();
                }
            }
        }
    }
}

impl Hosted<Endpoint> {
    /// Fires one enabled locally controlled action and carries out its
    /// effects — the model checker's step, finer than [`Hosted::poll`].
    pub fn fire(&mut self, action: &Action, rec: &mut dyn Recorder, out: &mut Sink<'_>) {
        let mut effects = Vec::new();
        self.ep.fire(action, rec, &mut effects);
        self.route(effects, rec, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sends_pass_through_while_unblocked() {
        let mut c = BlockingClient::new();
        assert_eq!(c.want_send(AppMsg::from("x")), Some(AppMsg::from("x")));
        assert!(!c.is_blocked());
    }

    #[test]
    fn ack_only_after_request() {
        let mut c = BlockingClient::new();
        assert!(!c.ack_block(), "no spurious block_ok");
        c.on_block();
        assert!(c.ack_block());
        assert!(!c.ack_block(), "block_ok fires once");
        assert!(c.is_blocked());
    }

    #[test]
    fn sends_queue_while_blocked_and_release_on_view() {
        let mut c = BlockingClient::new();
        c.on_block();
        c.ack_block();
        assert_eq!(c.want_send(AppMsg::from("a")), None);
        assert_eq!(c.want_send(AppMsg::from("b")), None);
        assert_eq!(c.queued_len(), 2);
        let released = c.on_view();
        assert_eq!(released, vec![AppMsg::from("a"), AppMsg::from("b")]);
        assert!(!c.is_blocked());
        assert_eq!(c.queued_len(), 0);
    }

    #[test]
    fn sends_allowed_between_block_and_ack() {
        // Fig. 12: the client may keep sending until it answers block_ok.
        let mut c = BlockingClient::new();
        c.on_block();
        assert_eq!(c.want_send(AppMsg::from("late")), Some(AppMsg::from("late")));
    }

    // ----- Hosted -----

    use crate::{Config, CorruptionKind};
    use vsgm_obs::NoopRecorder;
    use vsgm_types::{ProcSet, ProcessId, StartChangeId, View, ViewId};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    /// What a host would see: the events of one call, in order.
    fn events(
        h: &mut Hosted,
        call: impl FnOnce(&mut Hosted, &mut dyn Recorder, &mut Sink<'_>),
    ) -> Vec<Event> {
        let mut seen = Vec::new();
        call(h, &mut NoopRecorder, &mut |e, _| seen.push(e));
        seen
    }

    fn kinds(events: &[Event]) -> Vec<&'static str> {
        events.iter().map(Event::kind).collect()
    }

    /// p1 in the middle of a change to `{p1}`: asked to block, blocked.
    fn blocked(cfg: Config) -> Hosted {
        let mut h = Hosted::new(Endpoint::new(p(1), cfg));
        let set: ProcSet = [p(1)].into_iter().collect();
        let cid = StartChangeId::new(1);
        events(&mut h, |h, r, o| h.input(Input::StartChange { cid, set }, r, o));
        let seen = events(&mut h, |h, r, o| {
            h.poll(r, o);
        });
        assert!(h.client().is_blocked(), "{seen:?}");
        h
    }

    fn view_of_p1() -> View {
        View::new(ViewId::new(1, 0), [p(1)], [(p(1), StartChangeId::new(1))])
    }

    #[test]
    fn the_handshake_emits_block_then_block_ok() {
        let mut h = Hosted::new(Endpoint::new(p(1), Config::default()));
        let set: ProcSet = [p(1), p(2)].into_iter().collect();
        let cid = StartChangeId::new(1);
        events(&mut h, |h, r, o| h.input(Input::StartChange { cid, set }, r, o));
        let seen = events(&mut h, |h, r, o| {
            h.poll(r, o);
        });
        let handshake: Vec<&str> =
            kinds(&seen).into_iter().filter(|k| matches!(*k, "block" | "block_ok")).collect();
        assert_eq!(handshake, ["block", "block_ok"], "{seen:?}");
        let block = seen.iter().position(|e| e.kind() == "block");
        assert_eq!(seen.get(block.map_or(0, |i| i + 1)), Some(&Event::BlockOk { p: p(1) }));
        assert!(h.client().is_blocked());
    }

    #[test]
    fn a_send_while_blocked_waits_for_the_view_then_goes_out_in_order() {
        let mut h = blocked(Config::default());
        for text in ["a", "b"] {
            let seen = events(&mut h, |h, r, o| assert!(!h.send(AppMsg::from(text), r, o)));
            assert!(seen.is_empty(), "a blocked client emits nothing: {seen:?}");
        }
        assert!(events(&mut h, |h, r, o| assert!(!h.poll(r, o))).is_empty());
        events(&mut h, |h, r, o| h.input(Input::MbrshpView(view_of_p1()), r, o));
        let seen = events(&mut h, |h, r, o| {
            h.poll(r, o);
        });
        let view = seen.iter().position(|e| e.kind() == "view").expect("the view installs");
        let sends: Vec<Event> = seen.iter().filter(|e| e.kind() == "send").cloned().collect();
        assert_eq!(sends, ["a", "b"].map(|m| Event::Send { p: p(1), msg: AppMsg::from(m) }));
        assert!(seen.iter().take(view).all(|e| e.kind() != "send"), "{seen:?}");
        assert!(!h.client().is_blocked());
        // Released sends are inputs: the next poll delivers them, in order.
        let seen = events(&mut h, |h, r, o| {
            h.poll(r, o);
        });
        let delivered: Vec<&Event> = seen.iter().filter(|e| e.kind() == "deliver").collect();
        assert_eq!(delivered.len(), 2, "{seen:?}");
        assert!(matches!(delivered[0], Event::Deliver { msg, .. } if *msg == AppMsg::from("a")));
        assert!(matches!(delivered[1], Event::Deliver { msg, .. } if *msg == AppMsg::from("b")));
    }

    #[test]
    fn a_crash_leaves_a_fresh_client_and_drops_queued_sends() {
        let mut h = blocked(Config::default());
        events(&mut h, |h, r, o| assert!(!h.send(AppMsg::from("lost"), r, o)));
        let seen = events(&mut h, Hosted::crash);
        assert_eq!(seen, [Event::Crash { p: p(1) }]);
        assert!(h.ep().is_crashed());
        assert!(!h.client().is_blocked());
        assert_eq!(h.client().queued_len(), 0);
        assert_eq!(events(&mut h, Hosted::recover), [Event::Recover { p: p(1) }]);
        assert!(!h.ep().is_crashed());
    }

    #[test]
    fn a_reconciled_end_point_shows_a_crash_and_recover_and_gets_a_fresh_client() {
        let mut h = blocked(Config { audit: true, ..Config::default() });
        events(&mut h, |h, r, o| assert!(!h.send(AppMsg::from("lost"), r, o)));
        h.ep_mut().corrupt(CorruptionKind::ScrambleMembership, 0);
        let seen = events(&mut h, |h, r, o| h.input(Input::Tick(1), r, o));
        assert_eq!(seen, [Event::Crash { p: p(1) }, Event::Recover { p: p(1) }]);
        assert!(!h.ep().is_crashed(), "the end-point reset itself; it is not down");
        assert!(!h.client().is_blocked());
        assert_eq!(h.client().queued_len(), 0);
    }
}
