//! A runtime node: an [`Endpoint`] pumped over a real [`Transport`].

use crate::endpoint::{Effect, Endpoint, Input};
use std::io;
use std::time::{Duration, Instant};
use vsgm_net::Transport;
use vsgm_types::{AppMsg, ProcSet, ProcessId, View};

/// Deliveries dispatched between two stability acknowledgements.
const ACK_EVERY: u64 = 64;

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
    /// The GCS asked the application to stop sending (only surfaced when
    /// [`Node::set_auto_block_ok`] is disabled).
    BlockRequested,
}

/// A single-threaded pump binding an [`Endpoint`] to a [`Transport`]
/// (e.g. [`vsgm_net::TcpTransport`]): incoming frames are fed to the
/// endpoint, its `NetSend` effects go back out, and application-facing
/// effects are returned to the caller.
///
/// Transports are assumed reliable per connected pair (TCP is), so
/// `SetReliable` effects are informational and dropped. Once every
/// [`ACK_EVERY`] deliveries the pump asks the endpoint for a stability
/// acknowledgement ([`crate::stability`]).
#[derive(Debug)]
pub struct Node<T: Transport> {
    ep: Endpoint,
    transport: T,
    auto_block_ok: bool,
    /// Origin of the endpoint's [`Input::Tick`] timebase (wall clock,
    /// measured from node creation).
    epoch: Instant,
    /// Deliveries dispatched since the last [`Input::AckDue`].
    delivered_since_ack: u64,
}

impl<T: Transport> Node<T> {
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
    pub fn new(ep: Endpoint, transport: T) -> Self {
        assert_eq!(ep.pid(), transport.me(), "endpoint/transport identity mismatch");
        Node { ep, transport, auto_block_ok: true, epoch: Instant::now(), delivered_since_ack: 0 }
    }

    /// Whether `block` requests are auto-acknowledged (default: true).
    /// Disable to drive the handshake from application code.
    pub fn set_auto_block_ok(&mut self, auto: bool) {
        self.auto_block_ok = auto;
    }

    /// The wrapped endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    /// The transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The endpoint's protocol counters.
    pub fn stats(&self) -> crate::endpoint::EndpointStats {
        self.ep.stats()
    }

    /// Multicasts `m` to the current view and pumps.
    ///
    /// # Errors
    ///
    /// Propagates transport send failures.
    pub fn send(&mut self, m: AppMsg) -> io::Result<Vec<AppEvent>> {
        let effects = self.ep.handle(Input::AppSend(m));
        let mut out = self.dispatch(effects)?;
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
        let effects = self.ep.handle(input);
        let mut out = self.dispatch(effects)?;
        out.extend(self.pump(Duration::ZERO)?);
        Ok(out)
    }

    /// Acknowledges a block request (when auto-ack is disabled).
    ///
    /// # Errors
    ///
    /// Propagates transport send failures.
    pub fn block_ok(&mut self) -> io::Result<Vec<AppEvent>> {
        let effects = self.ep.handle(Input::BlockOk);
        let mut out = self.dispatch(effects)?;
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
            // Feed the wall clock as an explicit Tick input (only the
            // batching linger deadline reads it).
            let now_us = self.epoch.elapsed().as_micros() as u64;
            let _ = self.ep.handle(Input::Tick(now_us));
            // Ingest whatever is queued (blocking up to the deadline for
            // the first frame only).
            let mut got_any = false;
            while let Some((from, msg)) = self.transport.try_recv() {
                got_any = true;
                let effects = self.ep.handle(Input::Net { from, msg });
                out.extend(self.dispatch(effects)?);
            }
            let effects = self.ep.poll();
            let had_effects = !effects.is_empty();
            out.extend(self.dispatch(effects)?);
            if got_any || had_effects {
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
            if let Some(flush_at) = self.ep.next_deadline_us() {
                let remaining = Duration::from_micros(flush_at.saturating_sub(now_us));
                if remaining < wait_for {
                    wait_for = remaining;
                    flush_wake = true;
                }
            }
            match self.transport.recv_timeout(wait_for) {
                Some((from, msg)) => {
                    let effects = self.ep.handle(Input::Net { from, msg });
                    out.extend(self.dispatch(effects)?);
                }
                // A flush wake is not the caller's deadline: loop again
                // (the fresh Tick releases the batch).
                None if flush_wake => {}
                None => return Ok(out),
            }
        }
    }

    fn dispatch(&mut self, effects: Vec<Effect>) -> io::Result<Vec<AppEvent>> {
        let mut out = Vec::new();
        for e in effects {
            match e {
                Effect::NetSend { to, msg } => self.transport.send(&to, &msg)?,
                Effect::SetReliable(_) => {}
                Effect::DeliverApp { from, msg } => {
                    out.push(AppEvent::Delivered { from, msg });
                    self.delivered_since_ack += 1;
                    if self.delivered_since_ack >= ACK_EVERY {
                        self.delivered_since_ack = 0;
                        // Arms the acknowledgement; the pump's next poll
                        // sends it.
                        let _ = self.ep.handle(Input::AckDue);
                    }
                }
                Effect::InstallView { view, transitional } => {
                    out.push(AppEvent::View { view, transitional });
                }
                Effect::Block => {
                    if self.auto_block_ok {
                        let more = self.ep.handle(Input::BlockOk);
                        out.extend(self.dispatch(more)?);
                    } else {
                        out.push(AppEvent::BlockRequested);
                    }
                }
                // Audit-driven self-reset (never fires here: nodes run
                // with the audit off unless a deployment opts in, and a
                // legal-state endpoint never trips it). The transport
                // reconnects lazily, so no teardown is needed.
                Effect::Reconciled => {}
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;
    use vsgm_net::TcpTransport;
    use vsgm_types::{StartChangeId, ViewId};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn tcp_pair() -> (Node<TcpTransport>, Node<TcpTransport>) {
        let t1 = TcpTransport::bind(p(1), "127.0.0.1:0").unwrap();
        let t2 = TcpTransport::bind(p(2), "127.0.0.1:0").unwrap();
        t1.register_peer(p(2), t2.local_addr());
        t2.register_peer(p(1), t1.local_addr());
        (
            Node::new(Endpoint::new(p(1), Config::default()), t1),
            Node::new(Endpoint::new(p(2), Config::default()), t2),
        )
    }

    fn two_view() -> View {
        View::new(
            ViewId::new(1, 0),
            [p(1), p(2)],
            [(p(1), StartChangeId::new(1)), (p(2), StartChangeId::new(1))],
        )
    }

    fn pump_until<T: Transport>(
        nodes: &mut [&mut Node<T>],
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
        let (mut a, mut b) = tcp_pair();
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

    #[test]
    fn manual_block_handshake_surfaces_event() {
        let (mut a, b) = tcp_pair();
        a.set_auto_block_ok(false);
        let members: ProcSet = [p(1), p(2)].into_iter().collect();
        let evs = a
            .membership(Input::StartChange { cid: StartChangeId::new(1), set: members.clone() })
            .unwrap();
        assert!(evs.contains(&AppEvent::BlockRequested), "{evs:?}");
        // The sync message is withheld until block_ok.
        let _ = b;
        let evs = a.block_ok().unwrap();
        assert!(evs.is_empty() || !evs.contains(&AppEvent::BlockRequested));
    }
}
