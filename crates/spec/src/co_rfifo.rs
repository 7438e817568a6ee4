//! `CO_RFIFO` — connection-oriented reliable FIFO multicast spec (Fig. 3).

use std::collections::VecDeque;
use vsgm_ioa::{Checker, TraceEntry, Violation};
use vsgm_types::{Event, NetMsg, ProcSet, ProcessId, VecMap};

#[derive(Debug, Clone)]
struct Pending {
    msg: NetMsg,
    /// Whether the receiver was in the sender's `reliable_set` at send time.
    reliable: bool,
    /// Channel epoch at send time; the epoch bumps whenever the receiver
    /// leaves the sender's `reliable_set`, at which point `lose(p, q)`
    /// becomes enabled for everything in the channel.
    epoch: u64,
}

/// The messages in transit on one channel, oldest first. The oldest is
/// kept inline: outside a view change a channel rarely holds more than
/// one, so a send and its delivery allocate nothing.
#[derive(Debug)]
struct Channel {
    first: Pending,
    rest: VecDeque<Pending>,
}

impl Channel {
    fn iter(&self) -> impl Iterator<Item = &Pending> {
        std::iter::once(&self.first).chain(&self.rest)
    }

    /// Drops the messages up to position `at`; `false` if none is left.
    fn drop_through(&mut self, at: usize) -> bool {
        self.rest.drain(..at.min(self.rest.len()));
        match self.rest.pop_front() {
            Some(next) => {
                self.first = next;
                true
            }
            None => false,
        }
    }
}

/// Checker for the reliable FIFO multicast service specification (Fig. 3).
///
/// Maintains the spec's `channel[p][q]` queues and `reliable_set[p]`, and
/// verifies that every `deliver_{p,q}(m)` removes the *first* message of
/// the channel — allowing for the internal `lose(p, q)` action, which may
/// silently discard a message only if `q ∉ reliable_set[p]` held at some
/// point while it was in transit. Deliveries of never-sent messages,
/// duplicated deliveries, reorderings, and gaps in reliable streams are
/// violations.
///
/// §8: a crash of `p` empties `reliable_set[p]`, making everything in
/// `p`'s outgoing channels losable; recovery resets it to `{p}`.
#[derive(Debug, Default)]
pub struct CoRfifoSpec {
    reliable: VecMap<ProcessId, ProcSet>,
    epoch: VecMap<(ProcessId, ProcessId), u64>,
    channel: VecMap<(ProcessId, ProcessId), Channel>,
}

impl CoRfifoSpec {
    /// Creates the checker in the spec's initial state.
    pub fn new() -> Self {
        CoRfifoSpec::default()
    }

    fn reliable_set(&self, p: ProcessId) -> ProcSet {
        self.reliable.get(&p).cloned().unwrap_or_else(|| [p].into_iter().collect())
    }

    fn epoch(&self, p: ProcessId, q: ProcessId) -> u64 {
        self.epoch.get(&(p, q)).copied().unwrap_or(0)
    }

    fn bump_epochs_for_removed(&mut self, p: ProcessId, old: &ProcSet, new: &ProcSet) {
        for q in old {
            if !new.contains(q) {
                *self.epoch.entry((p, *q)).or_insert(0) += 1;
            }
        }
    }
}

impl Checker for CoRfifoSpec {
    fn observe(&mut self, entry: &TraceEntry) -> Result<(), Violation> {
        let step = entry.step;
        match &entry.event {
            Event::Reliable { p, set } => {
                let old = self.reliable_set(*p);
                self.bump_epochs_for_removed(*p, &old, set);
                self.reliable.insert(*p, set.clone());
                Ok(())
            }
            Event::NetSend { p, set, msg } => {
                let rel = self.reliable.get(p);
                for q in set {
                    let pending = Pending {
                        msg: msg.clone(),
                        // Absent: the initial reliable set, `{p}`.
                        reliable: rel.map_or(q == p, |rel| rel.contains(q)),
                        epoch: self.epoch(*p, *q),
                    };
                    match self.channel.get_mut(&(*p, *q)) {
                        Some(chan) => chan.rest.push_back(pending),
                        None => {
                            let chan = Channel { first: pending, rest: VecDeque::new() };
                            self.channel.insert((*p, *q), chan);
                        }
                    }
                }
                Ok(())
            }
            Event::NetDeliver { p, q, msg } => {
                let cur_epoch = self.epoch(*p, *q);
                let not_in_transit = || {
                    Violation::at_step(
                        "CO_RFIFO",
                        step,
                        format!(
                            "deliver_{p},{q}: delivered {} which is not in transit \
                             (never sent, duplicated, or already delivered)",
                            msg.tag()
                        ),
                    )
                };
                // A rejected delivery changes nothing: no channel is made
                // for a pair that has none, and nothing is dropped.
                let Some(chan) = self.channel.get_mut(&(*p, *q)) else {
                    return Err(not_in_transit());
                };
                // The message must be the first one in the channel that
                // cannot have been lost; those before it were lost.
                let undroppable = |m: &Pending| m.reliable && cur_epoch <= m.epoch;
                let Some(at) = chan.iter().position(|m| m.msg == *msg || undroppable(m)) else {
                    return Err(not_in_transit());
                };
                if let Some(first) = chan.iter().nth(at).filter(|m| m.msg != *msg) {
                    return Err(Violation::at_step(
                        "CO_RFIFO",
                        step,
                        format!(
                            "deliver_{p},{q}: delivered {} but the first undroppable \
                             message in the channel is {} (FIFO/reliability violated)",
                            msg.tag(),
                            first.msg.tag()
                        ),
                    ));
                }
                // A drained channel is dropped, so an idle pair holds
                // nothing, and an idle checker keeps no room for channels.
                if !chan.drop_through(at) {
                    self.channel.remove(&(*p, *q));
                    if self.channel.is_empty() {
                        self.channel = VecMap::new();
                    }
                }
                Ok(())
            }
            Event::Crash { p } => {
                let old = self.reliable_set(*p);
                self.bump_epochs_for_removed(*p, &old, &ProcSet::new());
                self.reliable.insert(*p, ProcSet::new());
                Ok(())
            }
            Event::Recover { p } => {
                self.reliable.insert(*p, [*p].into_iter().collect());
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_ioa::{SimTime, Trace};
    use vsgm_types::{AppMsg, View};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn set(ids: &[u64]) -> ProcSet {
        ids.iter().map(|&i| p(i)).collect()
    }

    fn app(s: &str) -> NetMsg {
        NetMsg::App(AppMsg::from(s))
    }

    fn run(events: Vec<Event>) -> Vec<Violation> {
        let mut trace = Trace::new();
        for e in events {
            trace.record(SimTime::ZERO, e);
        }
        let mut spec = CoRfifoSpec::new();
        trace.entries().iter().filter_map(|e| spec.observe(e).err()).collect()
    }

    #[test]
    fn fifo_delivery_accepted() {
        let violations = run(vec![
            Event::Reliable { p: p(1), set: set(&[1, 2]) },
            Event::NetSend { p: p(1), set: set(&[2]), msg: app("a") },
            Event::NetSend { p: p(1), set: set(&[2]), msg: app("b") },
            Event::NetDeliver { p: p(1), q: p(2), msg: app("a") },
            Event::NetDeliver { p: p(1), q: p(2), msg: app("b") },
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn reorder_on_reliable_channel_rejected() {
        let violations = run(vec![
            Event::Reliable { p: p(1), set: set(&[1, 2]) },
            Event::NetSend { p: p(1), set: set(&[2]), msg: app("a") },
            Event::NetSend { p: p(1), set: set(&[2]), msg: app("b") },
            Event::NetDeliver { p: p(1), q: p(2), msg: app("b") },
        ]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("FIFO"), "{violations:?}");
    }

    #[test]
    fn never_sent_delivery_rejected() {
        let violations = run(vec![Event::NetDeliver { p: p(1), q: p(2), msg: app("ghost") }]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("not in transit"));
    }

    #[test]
    fn duplicate_delivery_rejected() {
        let violations = run(vec![
            Event::Reliable { p: p(1), set: set(&[1, 2]) },
            Event::NetSend { p: p(1), set: set(&[2]), msg: app("a") },
            Event::NetDeliver { p: p(1), q: p(2), msg: app("a") },
            Event::NetDeliver { p: p(1), q: p(2), msg: app("a") },
        ]);
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn a_rejected_delivery_leaves_the_channels_as_they_were() {
        let mut spec = CoRfifoSpec::new();
        let mut trace = Trace::new();
        for e in [
            Event::Reliable { p: p(1), set: set(&[1, 2]) },
            Event::NetSend { p: p(1), set: set(&[2, 3]), msg: app("a") },
            Event::NetDeliver { p: p(1), q: p(2), msg: app("a") },
        ] {
            let step = trace.record(SimTime::ZERO, e);
            spec.observe(&trace.entries()[step as usize]).unwrap();
        }
        // p1 → p2 drained, so it holds nothing; p1 → p3 holds a losable "a".
        assert_eq!(spec.channel.keys().collect::<Vec<_>>(), [&(p(1), p(3))]);
        let before = format!("{spec:?}");
        for forged in [
            Event::NetDeliver { p: p(1), q: p(2), msg: app("a") },
            Event::NetDeliver { p: p(4), q: p(2), msg: app("ghost") },
            Event::NetDeliver { p: p(1), q: p(3), msg: app("ghost") },
        ] {
            let step = trace.record(SimTime::ZERO, forged);
            assert!(spec.observe(&trace.entries()[step as usize]).is_err());
            assert_eq!(format!("{spec:?}"), before);
        }
    }

    #[test]
    fn loss_allowed_outside_reliable_set() {
        // q=2 is not in p1's reliable set; "a" may be lost and "b"
        // delivered directly.
        let violations = run(vec![
            Event::NetSend { p: p(1), set: set(&[2]), msg: app("a") },
            Event::NetSend { p: p(1), set: set(&[2]), msg: app("b") },
            Event::NetDeliver { p: p(1), q: p(2), msg: app("b") },
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn loss_allowed_after_leaving_reliable_set() {
        // Sent while reliable, but the receiver was later dropped from the
        // reliable set ⇒ the suffix becomes losable.
        let violations = run(vec![
            Event::Reliable { p: p(1), set: set(&[1, 2]) },
            Event::NetSend { p: p(1), set: set(&[2]), msg: app("a") },
            Event::NetSend { p: p(1), set: set(&[2]), msg: app("b") },
            Event::Reliable { p: p(1), set: set(&[1]) }, // drop q=2
            Event::NetDeliver { p: p(1), q: p(2), msg: app("b") },
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn gap_in_continuously_reliable_stream_rejected() {
        let violations = run(vec![
            Event::Reliable { p: p(1), set: set(&[1, 2]) },
            Event::NetSend { p: p(1), set: set(&[2]), msg: app("a") },
            Event::NetSend { p: p(1), set: set(&[2]), msg: app("b") },
            // q stays in the reliable set the whole time: skipping "a" is
            // a violation.
            Event::NetDeliver { p: p(1), q: p(2), msg: app("b") },
        ]);
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn crash_makes_outgoing_losable() {
        let violations = run(vec![
            Event::Reliable { p: p(1), set: set(&[1, 2]) },
            Event::NetSend { p: p(1), set: set(&[2]), msg: app("a") },
            Event::NetSend { p: p(1), set: set(&[2]), msg: app("b") },
            Event::Crash { p: p(1) },
            Event::NetDeliver { p: p(1), q: p(2), msg: app("b") },
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn multicast_enqueues_on_every_destination() {
        let mut spec = CoRfifoSpec::new();
        let mut trace = Trace::new();
        trace.record(SimTime::ZERO, Event::NetSend { p: p(1), set: set(&[2, 3]), msg: app("a") });
        for e in trace.entries() {
            spec.observe(e).unwrap();
        }
        let in_transit = |p: ProcessId, q: ProcessId| {
            spec.channel.get(&(p, q)).map_or(0, |chan| chan.iter().count())
        };
        assert_eq!(in_transit(p(1), p(2)), 1);
        assert_eq!(in_transit(p(1), p(3)), 1);
        assert_eq!(in_transit(p(1), p(1)), 0);
    }

    #[test]
    fn view_msgs_also_checked() {
        let v = View::initial(p(1));
        let violations = run(vec![
            Event::Reliable { p: p(1), set: set(&[1, 2]) },
            Event::NetSend { p: p(1), set: set(&[2]), msg: NetMsg::ViewMsg(v.clone()) },
            Event::NetDeliver { p: p(1), q: p(2), msg: NetMsg::ViewMsg(v) },
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
