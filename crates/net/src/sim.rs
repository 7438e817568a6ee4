//! Deterministic discrete-event network implementing `CO_RFIFO` (Fig. 3).

use crate::fault::{FaultAction, FaultInjector, FaultPlan, FaultStats};
use crate::latency::LatencyModel;
use crate::stats::NetStats;
use crate::Wire;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use vsgm_ioa::{SimRng, SimTime};
use vsgm_obs::{names, Recorder};
use vsgm_types::{NetMsg, ProcSet, ProcessId};

#[derive(Debug, Clone)]
struct InFlight<M> {
    msg: M,
    sent: SimTime,
    arrival: SimTime,
}

/// A deterministic simulated network with the semantics of the `CO_RFIFO`
/// specification (Fig. 3):
///
/// * per-ordered-pair FIFO channels — arrival times are monotone within a
///   channel, so messages never overtake each other;
/// * **reliability** is governed by each sender's `reliable_set`
///   ([`SimNet::set_reliable`]): messages to peers in the set are never
///   lost (they wait out partitions); messages to peers outside it are
///   dropped when the pair is disconnected (the spec's `lose` action);
/// * **liveness** is governed by connectivity ([`SimNet::partition`] /
///   [`SimNet::heal`]): a message is only delivered while its endpoints
///   are in the same partition component, which is exactly the spec's
///   `live_set`-gated delivery task;
/// * crash/recovery per §8: a crash empties the victim's `reliable_set`
///   (its in-flight output becomes losable and is dropped, modeling reset
///   connections) and pauses its input until recovery.
///
/// All randomness (latency jitter) is drawn from a seeded [`SimRng`], so a
/// run is a pure function of `(scenario, seed)`.
#[derive(Debug)]
pub struct SimNet<M: Wire = NetMsg> {
    procs: Vec<ProcessId>,
    latency: LatencyModel,
    rng: SimRng,
    channels: BTreeMap<(ProcessId, ProcessId), VecDeque<InFlight<M>>>,
    reliable: HashMap<ProcessId, ProcSet>,
    component: HashMap<ProcessId, u32>,
    crashed: HashSet<ProcessId>,
    stats: NetStats,
    /// Optional chaos fault injector ([`SimNet::set_faults`]).
    injector: Option<FaultInjector>,
}

impl<M: Wire> SimNet<M> {
    /// Creates a fully connected network over `procs`.
    pub fn new(
        procs: impl IntoIterator<Item = ProcessId>,
        latency: LatencyModel,
        rng: SimRng,
    ) -> SimNet<M> {
        let procs: Vec<ProcessId> = procs.into_iter().collect();
        let component = procs.iter().map(|p| (*p, 0)).collect();
        let reliable = procs.iter().map(|p| (*p, [*p].into_iter().collect())).collect();
        SimNet {
            procs,
            latency,
            rng,
            channels: BTreeMap::new(),
            reliable,
            component,
            crashed: HashSet::new(),
            stats: NetStats::new(),
            injector: None,
        }
    }

    /// Installs a chaos [`FaultPlan`]: from now on every enqueue consults
    /// a [`FaultInjector`] seeded by forking this network's own rng, so
    /// the whole faulty run stays a pure function of `(scenario, seed)`.
    /// Passing a plan with nothing to inject removes the injector.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        if plan.is_none() {
            self.injector = None;
        } else {
            let rng = self.rng.fork(0xFA);
            self.injector = Some(FaultInjector::new(plan, rng));
        }
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.injector.as_ref().map(FaultInjector::plan)
    }

    /// What the fault injector has done so far (zeroes when no plan is
    /// installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.as_ref().map(FaultInjector::stats).unwrap_or_default()
    }

    /// The registered processes.
    pub fn procs(&self) -> &[ProcessId] {
        &self.procs
    }

    /// Whether `p` and `q` are currently in the same partition component
    /// (and neither is unknown). A process is always connected to itself.
    pub fn connected(&self, p: ProcessId, q: ProcessId) -> bool {
        if p == q {
            return true;
        }
        match (self.component.get(&p), self.component.get(&q)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// The spec's `live_set[p]`: peers currently alive and connected to
    /// `p`, including `p` itself.
    pub fn live_set(&self, p: ProcessId) -> ProcSet {
        self.procs
            .iter()
            .copied()
            .filter(|q| *q == p || (self.connected(p, *q) && !self.crashed.contains(q)))
            .collect()
    }

    /// `CO_RFIFO.reliable_p(set)`: declare the peers `p` wants gap-free
    /// FIFO channels to.
    pub fn set_reliable(&mut self, p: ProcessId, set: ProcSet) {
        // Dropping a peer from the reliable set makes the channel suffix
        // losable; if the pair is also disconnected we drop eagerly, since
        // nothing will ever retransmit.
        let removed: Vec<ProcessId> = self
            .reliable
            .get(&p)
            .map(|old| old.difference(&set).copied().collect())
            .unwrap_or_default();
        for q in removed {
            if !self.connected(p, q) {
                self.drop_channel(p, q);
            }
        }
        self.reliable.insert(p, set);
    }

    /// The current `reliable_set[p]`.
    pub fn reliable_set(&self, p: ProcessId) -> ProcSet {
        self.reliable.get(&p).cloned().unwrap_or_else(|| [p].into_iter().collect())
    }

    /// Whether `q` is in `reliable_set[p]`, without copying the set.
    fn is_reliable(&self, p: ProcessId, q: ProcessId) -> bool {
        self.reliable.get(&p).map_or(p == q, |s| s.contains(&q))
    }

    /// `CO_RFIFO.send_p(set, m)` at simulated time `now`. `rec` mirrors
    /// the per-tag traffic and drop accounting.
    pub fn send(
        &mut self,
        now: SimTime,
        from: ProcessId,
        set: &ProcSet,
        msg: &M,
        rec: &mut dyn Recorder,
    ) {
        for q in set {
            if *q == from {
                continue; // end-points never multicast to themselves
            }
            let reliable = self.is_reliable(from, *q);
            if !reliable && !self.connected(from, *q) {
                // lose(from, q): the freshly appended message is the tail.
                self.stats.dropped += 1;
                rec.counter(names::NET_DROPPED, 1);
                continue;
            }
            // Chaos faults: loss/duplication only where the spec's `lose`
            // is enabled (receiver outside the reliable set); extra delay
            // anywhere (the asynchronous model never bounds latency).
            let action = match &mut self.injector {
                Some(inj) => inj.on_send(!reliable),
                None => FaultAction::Deliver { copies: 1, extra_delay: SimTime::ZERO },
            };
            let (copies, extra_delay) = match action {
                FaultAction::Drop => {
                    // Injected lose(from, q): identical to the spec drop.
                    self.stats.dropped += 1;
                    rec.counter(names::NET_DROPPED, 1);
                    continue;
                }
                FaultAction::Deliver { copies, extra_delay } => (copies, extra_delay),
            };
            for _ in 0..copies {
                self.stats.record_send(msg);
                rec.traffic(msg.tag(), msg.wire_size() as u64);
                let chan = self.channels.entry((from, *q)).or_default();
                let floor = chan.back().map_or(SimTime::ZERO, |m| m.arrival);
                let arrival = (now + self.latency.sample(&mut self.rng) + extra_delay).max(floor);
                chan.push_back(InFlight { msg: msg.clone(), sent: now, arrival });
            }
        }
    }

    /// Splits the network into the given partition components. Processes
    /// not named in any group each get their own singleton component.
    /// In-flight messages on newly disconnected channels are dropped when
    /// the receiver is outside the sender's `reliable_set` (the spec's
    /// `lose`), and retained otherwise.
    pub fn partition(&mut self, groups: &[Vec<ProcessId>]) {
        let mut comp: HashMap<ProcessId, u32> = HashMap::new();
        for (i, g) in groups.iter().enumerate() {
            for p in g {
                comp.insert(*p, i as u32);
            }
        }
        let mut next = groups.len() as u32;
        for p in &self.procs {
            comp.entry(*p).or_insert_with(|| {
                let c = next;
                next += 1;
                c
            });
        }
        self.component = comp;
        // Apply loss on newly disconnected, unreliable channels.
        let keys: Vec<(ProcessId, ProcessId)> = self.channels.keys().copied().collect();
        for (p, q) in keys {
            if !self.connected(p, q) && !self.is_reliable(p, q) {
                self.drop_channel(p, q);
            }
        }
    }

    /// Reconnects everything into a single component. Queued messages on
    /// previously blocked channels are re-stamped to arrive after `now`
    /// (they still need a network traversal).
    pub fn heal(&mut self, now: SimTime) {
        let blocked: Vec<(ProcessId, ProcessId)> =
            self.channels.keys().copied().filter(|(p, q)| !self.connected(*p, *q)).collect();
        for p in &self.procs {
            self.component.insert(*p, 0);
        }
        for key in blocked {
            let mut floor = SimTime::ZERO;
            let latency = &self.latency;
            let rng = &mut self.rng;
            if let Some(chan) = self.channels.get_mut(&key) {
                for m in chan.iter_mut() {
                    let stamped = (now + latency.sample(rng)).max(floor);
                    m.arrival = m.arrival.max(stamped);
                    floor = m.arrival;
                }
            }
        }
    }

    /// `crash_p()` (§8): empties `p`'s reliable set (dropping its
    /// in-flight output — reset connections) and pauses delivery to `p`.
    pub fn crash(&mut self, p: ProcessId) {
        self.crashed.insert(p);
        self.reliable.insert(p, ProcSet::new());
        let outgoing: Vec<(ProcessId, ProcessId)> =
            self.channels.keys().copied().filter(|(from, _)| *from == p).collect();
        for (from, to) in outgoing {
            self.drop_channel(from, to);
        }
    }

    /// `recover_p()` (§8): resumes delivery; reliable set back to `{p}`.
    pub fn recover(&mut self, p: ProcessId) {
        self.crashed.remove(&p);
        self.reliable.insert(p, [p].into_iter().collect());
    }

    /// Whether `p` is currently crashed.
    pub fn is_crashed(&self, p: ProcessId) -> bool {
        self.crashed.contains(&p)
    }

    fn deliverable(&self, from: ProcessId, to: ProcessId) -> bool {
        self.connected(from, to) && !self.crashed.contains(&to)
    }

    /// Earliest arrival among deliverable channels, if any.
    pub fn next_arrival(&self) -> Option<SimTime> {
        self.channels
            .iter()
            .filter(|((from, to), _)| self.deliverable(*from, *to))
            .filter_map(|(_, chan)| chan.front().map(|m| m.arrival))
            .min()
    }

    /// Removes and returns every message whose arrival time is `<= now` on
    /// a deliverable channel, preserving per-channel FIFO order. Channel
    /// iteration order is deterministic (sorted by `(from, to)`). `rec`
    /// counts deliveries and feeds each message's network transit time
    /// into the `net.delivery_latency_us` histogram.
    pub fn pop_ready(
        &mut self,
        now: SimTime,
        rec: &mut dyn Recorder,
    ) -> Vec<(ProcessId, ProcessId, M)> {
        let mut out = Vec::new();
        let keys: Vec<(ProcessId, ProcessId)> = self.channels.keys().copied().collect();
        for key in keys {
            if !self.deliverable(key.0, key.1) {
                continue;
            }
            let Some(chan) = self.channels.get_mut(&key) else { continue };
            while chan.front().is_some_and(|m| m.arrival <= now) {
                let Some(m) = chan.pop_front() else { break };
                self.stats.delivered += 1;
                rec.counter(names::NET_DELIVERED, 1);
                rec.observe(
                    names::NET_DELIVERY_LATENCY_US,
                    m.arrival.saturating_sub(m.sent).as_micros(),
                );
                out.push((key.0, key.1, m.msg));
            }
        }
        out
    }

    /// Number of messages currently queued from `p` to `q`.
    pub fn in_transit(&self, p: ProcessId, q: ProcessId) -> usize {
        self.channels.get(&(p, q)).map_or(0, VecDeque::len)
    }

    /// Whether any message is queued anywhere (even on blocked channels).
    pub fn is_idle(&self) -> bool {
        self.channels.values().all(VecDeque::is_empty)
    }

    /// Traffic statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Resets traffic statistics (e.g. between experiment phases).
    pub fn reset_stats(&mut self) {
        self.stats = NetStats::new();
    }

    fn drop_channel(&mut self, p: ProcessId, q: ProcessId) {
        if let Some(chan) = self.channels.get_mut(&(p, q)) {
            self.stats.dropped += chan.len() as u64;
            chan.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_obs::NoopRecorder;
    use vsgm_types::AppMsg;

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn procs(n: u64) -> Vec<ProcessId> {
        (1..=n).map(p).collect()
    }

    fn app(s: &str) -> NetMsg {
        NetMsg::App(AppMsg::from(s))
    }

    fn set(ids: &[u64]) -> ProcSet {
        ids.iter().map(|&i| p(i)).collect()
    }

    fn lan_net(n: u64, seed: u64) -> SimNet {
        SimNet::new(procs(n), LatencyModel::lan(), SimRng::new(seed))
    }

    fn drain_all(net: &mut SimNet) -> Vec<(ProcessId, ProcessId, NetMsg)> {
        let mut out = Vec::new();
        while let Some(t) = net.next_arrival() {
            out.extend(net.pop_ready(t, &mut NoopRecorder));
        }
        out
    }

    #[test]
    fn fifo_order_preserved_despite_jitter() {
        let mut net = lan_net(2, 1);
        net.set_reliable(p(1), set(&[1, 2]));
        for i in 0..50 {
            net.send(SimTime::ZERO, p(1), &set(&[2]), &app(&format!("m{i}")), &mut NoopRecorder);
        }
        let got = drain_all(&mut net);
        assert_eq!(got.len(), 50);
        for (i, (_, _, m)) in got.iter().enumerate() {
            assert_eq!(*m, app(&format!("m{i}")));
        }
    }

    #[test]
    fn multicast_reaches_all_destinations_but_not_self() {
        let mut net = lan_net(3, 2);
        net.set_reliable(p(1), set(&[1, 2, 3]));
        net.send(SimTime::ZERO, p(1), &set(&[1, 2, 3]), &app("x"), &mut NoopRecorder);
        assert_eq!(net.in_transit(p(1), p(1)), 0);
        assert_eq!(net.in_transit(p(1), p(2)), 1);
        assert_eq!(net.in_transit(p(1), p(3)), 1);
    }

    #[test]
    fn partition_blocks_reliable_channel_until_heal() {
        let mut net = lan_net(2, 3);
        net.set_reliable(p(1), set(&[1, 2]));
        net.partition(&[vec![p(1)], vec![p(2)]]);
        net.send(SimTime::ZERO, p(1), &set(&[2]), &app("x"), &mut NoopRecorder);
        assert_eq!(net.in_transit(p(1), p(2)), 1);
        assert_eq!(net.next_arrival(), None, "blocked channel must not deliver");
        net.heal(SimTime::from_millis(10));
        let got = drain_all(&mut net);
        assert_eq!(got.len(), 1);
        assert!(got[0].2 == app("x"));
        // Re-stamped to arrive after the heal.
        assert!(net.stats().delivered == 1);
    }

    #[test]
    fn partition_drops_unreliable_messages() {
        let mut net = lan_net(2, 4);
        // p2 NOT in p1's reliable set.
        net.set_reliable(p(1), set(&[1]));
        net.partition(&[vec![p(1)], vec![p(2)]]);
        net.send(SimTime::ZERO, p(1), &set(&[2]), &app("x"), &mut NoopRecorder);
        assert_eq!(net.in_transit(p(1), p(2)), 0);
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn partition_drops_in_flight_unreliable() {
        let mut net = lan_net(2, 5);
        net.set_reliable(p(1), set(&[1]));
        // Connected: queued.
        net.send(SimTime::ZERO, p(1), &set(&[2]), &app("x"), &mut NoopRecorder);
        assert_eq!(net.in_transit(p(1), p(2)), 1);
        net.partition(&[vec![p(1)], vec![p(2)]]);
        assert_eq!(net.in_transit(p(1), p(2)), 0);
    }

    #[test]
    fn shrinking_reliable_set_while_disconnected_drops() {
        let mut net = lan_net(2, 6);
        net.set_reliable(p(1), set(&[1, 2]));
        net.partition(&[vec![p(1)], vec![p(2)]]);
        net.send(SimTime::ZERO, p(1), &set(&[2]), &app("x"), &mut NoopRecorder);
        assert_eq!(net.in_transit(p(1), p(2)), 1);
        net.set_reliable(p(1), set(&[1]));
        assert_eq!(net.in_transit(p(1), p(2)), 0);
    }

    #[test]
    fn crash_drops_outgoing_and_blocks_incoming() {
        let mut net = lan_net(2, 7);
        net.set_reliable(p(1), set(&[1, 2]));
        net.set_reliable(p(2), set(&[1, 2]));
        net.send(SimTime::ZERO, p(1), &set(&[2]), &app("to2"), &mut NoopRecorder);
        net.send(SimTime::ZERO, p(2), &set(&[1]), &app("to1"), &mut NoopRecorder);
        net.crash(p(2));
        // p2's outgoing dropped; p1's message to p2 parked.
        assert_eq!(net.in_transit(p(2), p(1)), 0);
        assert_eq!(net.in_transit(p(1), p(2)), 1);
        assert_eq!(net.next_arrival(), None);
        net.recover(p(2));
        let got = drain_all(&mut net);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].2, app("to2"));
    }

    #[test]
    fn live_set_reflects_partitions_and_crashes() {
        let mut net = lan_net(3, 8);
        assert_eq!(net.live_set(p(1)), set(&[1, 2, 3]));
        net.partition(&[vec![p(1), p(2)], vec![p(3)]]);
        assert_eq!(net.live_set(p(1)), set(&[1, 2]));
        net.crash(p(2));
        assert_eq!(net.live_set(p(1)), set(&[1]));
        assert_eq!(net.live_set(p(3)), set(&[3]));
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed| {
            let mut net = lan_net(3, seed);
            net.set_reliable(p(1), set(&[1, 2, 3]));
            for i in 0..10 {
                net.send(
                    SimTime::from_micros(i),
                    p(1),
                    &set(&[2, 3]),
                    &app(&format!("{i}")),
                    &mut NoopRecorder,
                );
            }
            drain_all(&mut net)
                .into_iter()
                .map(|(a, b, m)| (a, b, m.tag().to_string(), format!("{m:?}")))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn is_idle_tracks_queues() {
        let mut net = lan_net(2, 9);
        assert!(net.is_idle());
        net.set_reliable(p(1), set(&[1, 2]));
        net.send(SimTime::ZERO, p(1), &set(&[2]), &app("x"), &mut NoopRecorder);
        assert!(!net.is_idle());
        drain_all(&mut net);
        assert!(net.is_idle());
    }

    #[test]
    fn fault_drop_spares_reliable_channels() {
        let mut net = lan_net(3, 11);
        net.set_reliable(p(1), set(&[1, 2])); // p3 NOT reliable
        net.set_faults(FaultPlan { drop: 1.0, ..FaultPlan::default() });
        for i in 0..20 {
            net.send(
                SimTime::from_micros(i),
                p(1),
                &set(&[2, 3]),
                &app(&format!("m{i}")),
                &mut NoopRecorder,
            );
        }
        // Every copy to p2 arrives; every copy to p3 is lost.
        assert_eq!(net.in_transit(p(1), p(2)), 20);
        assert_eq!(net.in_transit(p(1), p(3)), 0);
        assert_eq!(net.fault_stats().injected_drops, 20);
        assert_eq!(net.stats().dropped, 20);
    }

    #[test]
    fn fault_dup_enqueues_two_copies_on_unreliable_channel() {
        let mut net = lan_net(2, 12);
        net.set_reliable(p(1), set(&[1])); // p2 unreliable but connected
        net.set_faults(FaultPlan { dup: 1.0, ..FaultPlan::default() });
        net.send(SimTime::ZERO, p(1), &set(&[2]), &app("x"), &mut NoopRecorder);
        assert_eq!(net.in_transit(p(1), p(2)), 2);
        assert_eq!(net.fault_stats().injected_dups, 1);
        let got = drain_all(&mut net);
        assert_eq!(got.len(), 2, "duplicate delivered twice");
    }

    #[test]
    fn fault_jitter_keeps_per_channel_fifo() {
        let mut net = lan_net(2, 13);
        net.set_reliable(p(1), set(&[1, 2]));
        net.set_faults(FaultPlan { reorder_ms: 30, ..FaultPlan::default() });
        for i in 0..40 {
            net.send(
                SimTime::from_micros(i),
                p(1),
                &set(&[2]),
                &app(&format!("m{i}")),
                &mut NoopRecorder,
            );
        }
        let got = drain_all(&mut net);
        assert_eq!(got.len(), 40);
        for (i, (_, _, m)) in got.iter().enumerate() {
            assert_eq!(*m, app(&format!("m{i}")), "jitter must not reorder within a channel");
        }
        assert!(net.fault_stats().delayed > 0);
    }

    #[test]
    fn fault_burst_loses_consecutive_unreliable_messages() {
        let mut net = lan_net(2, 14);
        net.set_reliable(p(1), set(&[1]));
        net.set_faults(FaultPlan { burst: 1.0, burst_len: 64, ..FaultPlan::default() });
        for i in 0..10 {
            net.send(
                SimTime::from_micros(i),
                p(1),
                &set(&[2]),
                &app(&format!("m{i}")),
                &mut NoopRecorder,
            );
        }
        assert_eq!(net.in_transit(p(1), p(2)), 0, "whole burst window lost");
        assert_eq!(net.fault_stats().injected_drops, 10);
    }

    #[test]
    fn faulty_runs_are_deterministic_per_seed() {
        let run = |seed| {
            let mut net = lan_net(3, seed);
            net.set_reliable(p(1), set(&[1, 2]));
            net.set_faults(FaultPlan {
                drop: 0.4,
                reorder_ms: 5,
                burst: 0.1,
                burst_len: 3,
                ..FaultPlan::default()
            });
            for i in 0..50 {
                net.send(
                    SimTime::from_micros(i),
                    p(1),
                    &set(&[2, 3]),
                    &app(&format!("{i}")),
                    &mut NoopRecorder,
                );
            }
            let drained: Vec<String> = drain_all(&mut net)
                .into_iter()
                .map(|(a, b, m)| format!("{a}->{b}:{m:?}"))
                .collect();
            (drained, net.fault_stats())
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21), run(22));
    }

    #[test]
    fn clearing_faults_restores_the_identity_network() {
        let mut net = lan_net(2, 15);
        net.set_reliable(p(1), set(&[1]));
        net.set_faults(FaultPlan { drop: 1.0, ..FaultPlan::default() });
        assert!(net.fault_plan().is_some());
        net.set_faults(FaultPlan::none());
        assert!(net.fault_plan().is_none());
        net.send(SimTime::ZERO, p(1), &set(&[2]), &app("x"), &mut NoopRecorder);
        assert_eq!(net.in_transit(p(1), p(2)), 1);
    }

    #[test]
    fn unlisted_processes_get_singleton_components() {
        let mut net = lan_net(3, 10);
        net.partition(&[vec![p(1), p(2)]]);
        assert!(net.connected(p(1), p(2)));
        assert!(!net.connected(p(1), p(3)));
        assert!(!net.connected(p(2), p(3)));
        assert!(net.connected(p(3), p(3)));
    }
}
