//! A runtime node: a [`Hosted`] end-point pumped over a real
//! [`TcpTransport`], as a client runs it. Its application is held to
//! `CLIENT:SPEC` by the composition every host shares ([`vsgm_core::client`]).

use std::io;
use std::time::{Duration, Instant};
use vsgm_core::{Endpoint, Hosted, Input, Sink};
use vsgm_net::TcpTransport;
use vsgm_obs::{Recorder, Registry};
use vsgm_types::{AppMsg, Event, ProcSet, ProcessId, View};

/// How often a [`Node`] asks for acknowledgements ([`Input::AckDue`]):
/// once this many messages were delivered to its application. A busy
/// member then retains about this many messages per sender, and a round
/// costs n + n(n−1) events (EXPERIMENTS.md E16). The daemon's
/// [`crate::GroupInstance`] does not ask: it reads its members'
/// deliveries directly and frees after every step (DESIGN.md §18). The
/// trigger stays in the hosts, not in [`Hosted`]: `harness::Sim`
/// acknowledges only on `Sim::ack_round`, its un-acknowledged run is the
/// retaining reference `tests/stability_differential.rs` compares
/// against, and a trigger inside the composition would need a switch to
/// turn it off.
pub const ACK_EVERY: u64 = 64;

/// An application-facing event produced by a [`Node`] pump.
#[derive(Debug, Clone, PartialEq)]
pub enum AppEvent {
    /// A multicast message was delivered.
    Delivered {
        /// Original sender.
        from: ProcessId,
        /// The payload.
        msg: AppMsg,
    },
    /// A new view was installed.
    View {
        /// The view.
        view: View,
        /// Its transitional set.
        transitional: ProcSet,
    },
}

/// A single-threaded pump binding a [`Hosted`] end-point to a
/// [`TcpTransport`]: incoming frames are fed to the end-point, its
/// `NetSend`s go back out, and deliveries and views are returned to the
/// caller. Blocks are acknowledged for the application, which may keep
/// calling [`Node::send`]: what it sends while blocked goes out in the
/// next view. An audit reset (§8) leaves it a fresh client; the
/// transport reconnects lazily, so it needs nothing else.
///
/// TCP is reliable per connected pair, so `Reliable` events are
/// informational and dropped. Once every [`ACK_EVERY`] deliveries the
/// pump asks the end-point for a stability acknowledgement
/// ([`vsgm_core::stability`]). Every step counts into the node's
/// [`Registry`] ([`Node::registry`]).
#[derive(Debug)]
pub struct Node {
    hosted: Hosted,
    transport: TcpTransport,
    /// Origin of the endpoint's [`Input::Tick`] timebase (wall clock,
    /// measured from node creation).
    epoch: Instant,
    /// Deliveries dispatched since the last [`Input::AckDue`].
    delivered_since_ack: u64,
    /// What the end-point's steps count.
    registry: Registry,
}

impl Node {
    /// Wraps `ep` over `transport`.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint and transport disagree about the identity.
    #[expect(
        clippy::disallowed_methods,
        reason = "the tick epoch is driver-shell bookkeeping; the endpoint only ever sees \
                  the derived monotone microsecond input"
    )]
    pub fn new(ep: Endpoint, transport: TcpTransport) -> Self {
        assert_eq!(ep.pid(), transport.me(), "endpoint/transport identity mismatch");
        Node {
            hosted: Hosted::new(ep),
            transport,
            epoch: Instant::now(),
            delivered_since_ack: 0,
            registry: Registry::new(),
        }
    }

    /// The wrapped endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        self.hosted.ep()
    }

    /// The transport.
    pub fn transport(&self) -> &TcpTransport {
        &self.transport
    }

    /// What the end-point's steps counted: the `endpoint.*` counters.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Multicasts `m` to the current view — or, while the client is
    /// blocked, to the next one — and pumps.
    ///
    /// # Errors
    ///
    /// Propagates transport send failures.
    pub fn send(&mut self, m: AppMsg) -> io::Result<Vec<AppEvent>> {
        let mut out = Vec::new();
        self.step(&mut out, |h, rec, sink| h.send(m, rec, sink))?;
        out.extend(self.pump(Duration::ZERO)?);
        Ok(out)
    }

    /// Feeds a membership notification (`StartChange` / `MbrshpView`) and
    /// pumps.
    ///
    /// # Errors
    ///
    /// Propagates transport send failures.
    pub fn membership(&mut self, input: Input) -> io::Result<Vec<AppEvent>> {
        let mut out = Vec::new();
        self.step(&mut out, |h, rec, sink| h.input(input, rec, sink))?;
        out.extend(self.pump(Duration::ZERO)?);
        Ok(out)
    }

    /// Runs one pump cycle: drains the transport for up to `wait`, feeds
    /// everything to the endpoint, fires its enabled actions, sends its
    /// outgoing traffic, and returns application-facing events.
    ///
    /// # Errors
    ///
    /// Propagates transport send failures.
    #[expect(
        clippy::disallowed_methods,
        reason = "pump() is the real-transport driver shell: its deadline only bounds \
                  blocking on the socket, and the clock enters the automaton as an \
                  Input::Tick, as in the simulator"
    )]
    pub fn pump(&mut self, wait: Duration) -> io::Result<Vec<AppEvent>> {
        let deadline = Instant::now() + wait;
        let mut out = Vec::new();
        loop {
            // Feed the wall clock as an explicit Tick input: the batching
            // linger deadline reads it, and so does the audit, whose reset
            // the composition carries out.
            let now_us = self.epoch.elapsed().as_micros() as u64;
            self.step(&mut out, |h, rec, sink| h.input(Input::Tick(now_us), rec, sink))?;
            // Ingest whatever is queued (blocking up to the deadline for
            // the first frame only).
            let mut got_any = false;
            while let Some((from, msg)) = self.transport.try_recv() {
                got_any = true;
                self.step(&mut out, |h, rec, sink| h.input(Input::Net { from, msg }, rec, sink))?;
            }
            let acted = self.step(&mut out, |h, rec, sink| h.poll(rec, sink))?;
            if got_any || acted {
                continue;
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(out);
            }
            // Wake early if a held batch flushes before the caller's
            // deadline, so the linger bound holds under an idle socket.
            let mut wait_for = deadline - now;
            let mut flush_wake = false;
            if let Some(flush_at) = self.hosted.ep().next_deadline_us() {
                let remaining = Duration::from_micros(flush_at.saturating_sub(now_us));
                if remaining < wait_for {
                    wait_for = remaining;
                    flush_wake = true;
                }
            }
            match self.transport.recv_timeout(wait_for) {
                Some((from, msg)) => {
                    let input = Input::Net { from, msg };
                    self.step(&mut out, |h, rec, sink| h.input(input, rec, sink))?;
                }
                // A flush wake is not the caller's deadline: loop again
                // (the fresh Tick releases the batch).
                None if flush_wake => {}
                None => return Ok(out),
            }
        }
    }

    /// Runs `call` on the hosted end-point: a `NetSend` goes out over TCP
    /// (none after the first failure, which is returned once the other
    /// events are handled), a `Deliver` or `GcsView` becomes an
    /// [`AppEvent`], and every [`ACK_EVERY`]th delivery arms an
    /// acknowledgement once `call` returns.
    fn step<R>(
        &mut self,
        out: &mut Vec<AppEvent>,
        call: impl FnOnce(&mut Hosted, &mut dyn Recorder, &mut Sink<'_>) -> R,
    ) -> io::Result<R> {
        let Node { hosted, transport, delivered_since_ack, registry, .. } = self;
        let mut failed = None;
        let mut ack_due = false;
        let result = call(hosted, registry, &mut |event, _| match event {
            Event::NetSend { set, msg, .. } if failed.is_none() => {
                failed = transport.send(&set, &msg).err();
            }
            Event::Deliver { q, msg, .. } => {
                out.push(AppEvent::Delivered { from: q, msg });
                *delivered_since_ack += 1;
                if *delivered_since_ack >= ACK_EVERY {
                    *delivered_since_ack = 0;
                    ack_due = true;
                }
            }
            Event::GcsView { view, transitional, .. } => {
                out.push(AppEvent::View { view, transitional });
            }
            _ => {}
        });
        if ack_due {
            // Arms the acknowledgement, which has no effects of its own;
            // the pump's next poll sends it.
            hosted.input(Input::AckDue, registry, &mut |_, _| {});
        }
        failed.map_or(Ok(result), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_core::{Config, CorruptionKind};
    use vsgm_types::{StartChangeId, ViewId};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn tcp_pair(cfg: Config) -> (Node, Node) {
        let t1 = TcpTransport::bind(p(1), "127.0.0.1:0").unwrap();
        let t2 = TcpTransport::bind(p(2), "127.0.0.1:0").unwrap();
        t1.register_peer(p(2), t2.local_addr());
        t2.register_peer(p(1), t1.local_addr());
        (Node::new(Endpoint::new(p(1), cfg.clone()), t1), Node::new(Endpoint::new(p(2), cfg), t2))
    }

    fn two_view() -> View {
        View::new(
            ViewId::new(1, 0),
            [p(1), p(2)],
            [(p(1), StartChangeId::new(1)), (p(2), StartChangeId::new(1))],
        )
    }

    fn pump_until(
        nodes: &mut [&mut Node],
        mut done: impl FnMut(&[AppEvent]) -> bool,
        collected: &mut Vec<AppEvent>,
    ) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done(collected) {
            assert!(Instant::now() < deadline, "timed out; saw {collected:?}");
            for n in nodes.iter_mut() {
                collected.extend(n.pump(Duration::from_millis(5)).unwrap());
            }
        }
    }

    #[test]
    fn two_nodes_over_tcp_form_view_and_exchange() {
        let (mut a, mut b) = tcp_pair(Config::default());
        let members: ProcSet = [p(1), p(2)].into_iter().collect();
        let view = two_view();
        let mut events = Vec::new();
        for n in [&mut a, &mut b] {
            events.extend(
                n.membership(Input::StartChange {
                    cid: StartChangeId::new(1),
                    set: members.clone(),
                })
                .unwrap(),
            );
        }
        for n in [&mut a, &mut b] {
            events.extend(n.membership(Input::MbrshpView(view.clone())).unwrap());
        }
        pump_until(
            &mut [&mut a, &mut b],
            |evs| evs.iter().filter(|e| matches!(e, AppEvent::View { .. })).count() >= 2,
            &mut events,
        );
        // Multicast a message from a; both applications deliver it.
        events.extend(a.send(AppMsg::from("over tcp")).unwrap());
        pump_until(
            &mut [&mut a, &mut b],
            |evs| {
                evs.iter()
                    .filter(
                        |e| matches!(e, AppEvent::Delivered { msg, .. } if *msg == AppMsg::from("over tcp")),
                    )
                    .count()
                    >= 2
            },
            &mut events,
        );
    }

    /// Pumps both nodes until `done` holds for each one's own events.
    fn pump_each_until(
        nodes: [&mut Node; 2],
        seen: &mut [Vec<AppEvent>; 2],
        done: impl Fn(&[AppEvent]) -> bool,
    ) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let [a, b] = nodes;
        while !(done(&seen[0]) && done(&seen[1])) {
            assert!(Instant::now() < deadline, "timed out; saw {seen:?}");
            seen[0].extend(a.pump(Duration::from_millis(5)).unwrap());
            seen[1].extend(b.pump(Duration::from_millis(5)).unwrap());
        }
    }

    /// `CLIENT:SPEC` (Fig. 12): once a node has answered `block`, what its
    /// application sends waits for the next view and is delivered in it,
    /// at both nodes.
    #[test]
    fn a_send_between_block_ok_and_the_next_view_is_delivered_in_that_view() {
        let (mut a, mut b) = tcp_pair(Config::default());
        let members: ProcSet = [p(1), p(2)].into_iter().collect();
        let mut seen = [Vec::new(), Vec::new()];
        for (i, n) in [&mut a, &mut b].into_iter().enumerate() {
            let cid = StartChangeId::new(1);
            seen[i].extend(n.membership(Input::StartChange { cid, set: members.clone() }).unwrap());
        }
        for (i, n) in [&mut a, &mut b].into_iter().enumerate() {
            seen[i].extend(n.membership(Input::MbrshpView(two_view())).unwrap());
        }
        let first = two_view();
        pump_each_until([&mut a, &mut b], &mut seen, |evs| {
            evs.iter().any(|e| matches!(e, AppEvent::View { view, .. } if *view == first))
        });
        // A second change: both nodes answer block with block_ok.
        for (i, n) in [&mut a, &mut b].into_iter().enumerate() {
            let cid = StartChangeId::new(2);
            seen[i].extend(n.membership(Input::StartChange { cid, set: members.clone() }).unwrap());
        }
        assert!(a.hosted.client().is_blocked() && b.hosted.client().is_blocked());
        let held = AppMsg::from("held");
        seen[0].extend(a.send(held.clone()).unwrap());
        assert_eq!(a.hosted.client().queued_len(), 1, "the send waits for the view");
        // The end-point is never handed a send after block_ok.
        assert!(a.endpoint().state().pending_sends.is_empty());
        let next = View::new(
            ViewId::new(2, 0),
            [p(1), p(2)],
            [(p(1), StartChangeId::new(2)), (p(2), StartChangeId::new(2))],
        );
        for (i, n) in [&mut a, &mut b].into_iter().enumerate() {
            seen[i].extend(n.membership(Input::MbrshpView(next.clone())).unwrap());
        }
        let delivered = |evs: &[AppEvent]| {
            evs.iter().any(|e| matches!(e, AppEvent::Delivered { msg, .. } if *msg == held))
        };
        pump_each_until([&mut a, &mut b], &mut seen, delivered);
        for evs in &seen {
            let at = |want: &dyn Fn(&AppEvent) -> bool| evs.iter().position(want);
            let view = at(&|e| matches!(e, AppEvent::View { view, .. } if *view == next));
            let delivery = at(&|e| matches!(e, AppEvent::Delivered { msg, .. } if *msg == held));
            assert!(view.is_some() && view < delivery, "delivered in the next view: {evs:?}");
        }
    }

    /// An audited node whose end-point is damaged resets through the
    /// composition: the tick of one pump finds the state illegal, and the
    /// client starts over, unblocked, its queued send gone with the state.
    #[test]
    fn an_audit_reset_reaches_the_node_and_leaves_a_fresh_client() {
        let (mut a, _b) = tcp_pair(Config { audit: true, ..Config::default() });
        let members: ProcSet = [p(1), p(2)].into_iter().collect();
        a.membership(Input::StartChange { cid: StartChangeId::new(1), set: members }).unwrap();
        assert!(a.hosted.client().is_blocked());
        a.send(AppMsg::from("lost")).unwrap();
        assert_eq!(a.hosted.client().queued_len(), 1);
        a.hosted.ep_mut().corrupt(CorruptionKind::ScrambleMembership, 0);
        a.pump(Duration::ZERO).unwrap();
        assert!(!a.hosted.client().is_blocked());
        assert_eq!(a.hosted.client().queued_len(), 0);
        assert_eq!(a.endpoint().current_view(), &View::initial(p(1)));
    }
}
