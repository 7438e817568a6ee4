//! Randomized delivery interleavings for the membership servers: the
//! synchronous in-crate tests route every broadcast instantly; here
//! proposals are queued per ordered server pair (FIFO, as their reliable
//! channels guarantee) and delivered in random order across channels,
//! interleaved with connectivity changes. Every emitted notification must
//! still satisfy the `MBRSHP` spec, and once connectivity stabilizes all
//! servers must converge on the same final view.

use std::collections::{BTreeMap, VecDeque};
use vsgm_ioa::{Checker, SimRng, SimTime, TraceEntry};
use vsgm_membership::{Server, ServerMsg, ServerOutput};
use vsgm_obs::NoopRecorder;
use vsgm_spec::MbrshpSpec;
use vsgm_types::{Event, ProcSet, ProcessId, View};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn set(ids: &[u64]) -> ProcSet {
    ids.iter().map(|&i| p(i)).collect()
}

struct RandomCluster {
    servers: Vec<Server>,
    /// Per ordered pair FIFO channels of in-flight proposals.
    channels: BTreeMap<(ProcessId, ProcessId), VecDeque<ServerMsg>>,
    spec: MbrshpSpec,
    step: u64,
    last_views: BTreeMap<ProcessId, View>,
    rng: SimRng,
}

impl RandomCluster {
    fn new(layout: &[(u64, &[u64])], seed: u64) -> Self {
        RandomCluster {
            servers: layout
                .iter()
                .map(|(sid, cs)| Server::new(p(*sid), cs.iter().map(|&c| p(c))))
                .collect(),
            channels: BTreeMap::new(),
            spec: MbrshpSpec::new(),
            step: 0,
            last_views: BTreeMap::new(),
            rng: SimRng::new(seed),
        }
    }

    fn absorb(&mut self, from: ProcessId, outputs: Vec<ServerOutput>) {
        for out in outputs {
            match out {
                ServerOutput::StartChange(n) => {
                    let entry = TraceEntry {
                        step: self.step,
                        time: SimTime::ZERO,
                        event: Event::MbrshpStartChange { p: n.p, cid: n.cid, set: n.set },
                    };
                    self.step += 1;
                    self.spec.observe(&entry).expect("MBRSHP spec holds under interleaving");
                }
                ServerOutput::View { client, view } => {
                    let entry = TraceEntry {
                        step: self.step,
                        time: SimTime::ZERO,
                        event: Event::MbrshpView { p: client, view: view.clone() },
                    };
                    self.step += 1;
                    self.spec.observe(&entry).expect("MBRSHP spec holds under interleaving");
                    self.last_views.insert(client, view);
                }
                ServerOutput::Broadcast { to, msg } => {
                    for dest in to {
                        self.channels.entry((from, dest)).or_default().push_back(msg.clone());
                    }
                }
            }
        }
    }

    fn connect(&mut self, servers: &ProcSet, alive: &ProcSet) {
        for i in 0..self.servers.len() {
            let id = self.servers[i].id();
            if servers.contains(&id) {
                let outs = self.servers[i].set_connectivity(
                    servers.clone(),
                    alive.clone(),
                    &mut NoopRecorder,
                );
                self.absorb(id, outs);
            }
            // Random partial progress between notifications.
            for _ in 0..self.rng.range(0, 4) {
                self.deliver_one();
            }
        }
    }

    /// Delivers one random channel head; returns false when idle.
    fn deliver_one(&mut self) -> bool {
        let nonempty: Vec<(ProcessId, ProcessId)> =
            self.channels.iter().filter(|(_, q)| !q.is_empty()).map(|(k, _)| *k).collect();
        if nonempty.is_empty() {
            return false;
        }
        let key = nonempty[self.rng.index(nonempty.len())];
        let msg = self.channels.get_mut(&key).unwrap().pop_front().unwrap();
        let to = key.1;
        let outs = self
            .servers
            .iter_mut()
            .find(|s| s.id() == to)
            .expect("known server")
            .handle(msg, &mut NoopRecorder);
        self.absorb(to, outs);
        true
    }

    fn drain(&mut self) {
        for _ in 0..100_000 {
            if !self.deliver_one() {
                return;
            }
        }
        panic!("server protocol did not quiesce");
    }
}

fn scenario(seed: u64) {
    let mut c = RandomCluster::new(&[(100, &[1, 2]), (200, &[3, 4]), (300, &[5, 6])], seed);
    let all_servers = set(&[100, 200, 300]);
    let all_clients = set(&[1, 2, 3, 4, 5, 6]);
    // Bootstrap with random interleavings.
    c.connect(&all_servers, &all_clients);
    c.drain();
    // Churn: a client leaves; with partial deliveries interleaved.
    c.connect(&all_servers, &set(&[1, 2, 3, 4, 5]));
    c.drain();
    // A server drops out, then everything reconnects.
    c.connect(&set(&[100, 200]), &set(&[1, 2, 3, 4]));
    c.drain();
    c.connect(&all_servers, &all_clients);
    c.drain();

    // Convergence: every client's LAST view is the full 6-member view and
    // identical everywhere.
    assert_eq!(c.last_views.len(), 6, "seed {seed}: {:?}", c.last_views);
    let reference = c.last_views[&p(1)].clone();
    assert_eq!(reference.members(), &all_clients, "seed {seed}");
    for (client, v) in &c.last_views {
        assert_eq!(v, &reference, "seed {seed}: {client} diverged");
    }
}

#[test]
fn random_interleavings_converge_and_satisfy_spec() {
    for seed in 0..60 {
        scenario(seed);
    }
}

#[test]
fn deep_interleaving_sweep() {
    for seed in 1000..1100 {
        scenario(seed);
    }
}
