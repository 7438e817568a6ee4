//! Multi-server membership scenarios: three and four servers, server
//! exclusion, asymmetric estimates, and spec compliance throughout.

use std::collections::{HashMap, VecDeque};
use vsgm_ioa::{Checker, SimTime, TraceEntry};
use vsgm_membership::{Server, ServerOutput};
use vsgm_obs::NoopRecorder;
use vsgm_spec::MbrshpSpec;
use vsgm_types::{Event, ProcSet, ProcessId, View};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn set(ids: &[u64]) -> ProcSet {
    ids.iter().map(|&i| p(i)).collect()
}

/// Instant router with spec checking (mirrors the in-crate test helper
/// but supports arbitrary server counts and per-call routing scopes).
struct Cluster {
    servers: Vec<Server>,
    spec: MbrshpSpec,
    step: u64,
    views: Vec<(ProcessId, View)>,
}

impl Cluster {
    fn new(layout: &[(u64, &[u64])]) -> Self {
        Cluster {
            servers: layout
                .iter()
                .map(|(sid, cs)| Server::new(p(*sid), cs.iter().map(|&c| p(c))))
                .collect(),
            spec: MbrshpSpec::new(),
            step: 0,
            views: Vec::new(),
        }
    }

    fn feed_spec(&mut self, event: Event) {
        let entry = TraceEntry { step: self.step, time: SimTime::ZERO, event };
        self.step += 1;
        self.spec.observe(&entry).expect("MBRSHP spec holds");
    }

    fn route(&mut self, outputs: Vec<ServerOutput>) {
        let mut queue: VecDeque<ServerOutput> = outputs.into();
        while let Some(out) = queue.pop_front() {
            match out {
                ServerOutput::StartChange(n) => {
                    self.feed_spec(Event::MbrshpStartChange { p: n.p, cid: n.cid, set: n.set });
                }
                ServerOutput::View { client, view } => {
                    self.feed_spec(Event::MbrshpView { p: client, view: view.clone() });
                    self.views.push((client, view));
                }
                ServerOutput::Broadcast { to, msg } => {
                    for dest in &to {
                        if let Some(srv) = self.servers.iter_mut().find(|s| s.id() == *dest) {
                            let more = srv.handle(msg.clone(), &mut NoopRecorder);
                            queue.extend(more);
                        }
                    }
                }
            }
        }
    }

    fn connect(&mut self, servers: &ProcSet, alive: &ProcSet) {
        for i in 0..self.servers.len() {
            if servers.contains(&self.servers[i].id()) {
                let outs = self.servers[i].set_connectivity(
                    servers.clone(),
                    alive.clone(),
                    &mut NoopRecorder,
                );
                self.route(outs);
            }
        }
    }

    fn last_views(&self) -> HashMap<ProcessId, View> {
        let mut out = HashMap::new();
        for (c, v) in &self.views {
            out.insert(*c, v.clone());
        }
        out
    }
}

#[test]
fn three_servers_agree() {
    let mut c = Cluster::new(&[(100, &[1, 2]), (200, &[3, 4]), (300, &[5, 6])]);
    c.connect(&set(&[100, 200, 300]), &set(&[1, 2, 3, 4, 5, 6]));
    let last = c.last_views();
    assert_eq!(last.len(), 6);
    let reference = &last[&p(1)];
    assert_eq!(reference.members(), &set(&[1, 2, 3, 4, 5, 6]));
    assert!(last.values().all(|v| v == reference), "{last:?}");
}

#[test]
fn server_exclusion_shrinks_membership() {
    let mut c = Cluster::new(&[(100, &[1, 2]), (200, &[3, 4]), (300, &[5, 6])]);
    c.connect(&set(&[100, 200, 300]), &set(&[1, 2, 3, 4, 5, 6]));
    c.views.clear();
    // Server 300 becomes unreachable; the remaining two re-agree without
    // its clients.
    c.connect(&set(&[100, 200]), &set(&[1, 2, 3, 4]));
    let last = c.last_views();
    for i in 1..=4 {
        assert_eq!(last[&p(i)].members(), &set(&[1, 2, 3, 4]), "client {i}");
    }
    // 300's clients saw nothing new.
    assert!(!last.contains_key(&p(5)) && !last.contains_key(&p(6)), "{last:?}");
}

#[test]
fn excluded_server_rejoins() {
    let mut c = Cluster::new(&[(100, &[1]), (200, &[2]), (300, &[3])]);
    let all_servers = set(&[100, 200, 300]);
    c.connect(&all_servers, &set(&[1, 2, 3]));
    c.connect(&set(&[100, 200]), &set(&[1, 2]));
    // 300 alone forms a singleton-ish view for its client.
    c.connect(&set(&[300]), &set(&[3]));
    c.views.clear();
    // Everyone reconnects.
    c.connect(&all_servers, &set(&[1, 2, 3]));
    let last = c.last_views();
    assert_eq!(last.len(), 3, "views so far: {:?}", c.views);
    let reference = &last[&p(1)];
    assert_eq!(reference.members(), &set(&[1, 2, 3]));
    assert!(last.values().all(|v| v == reference));
}

#[test]
fn four_servers_pairwise_partitions_and_merge() {
    let mut c = Cluster::new(&[(100, &[1]), (200, &[2]), (300, &[3]), (400, &[4])]);
    c.connect(&set(&[100, 200, 300, 400]), &set(&[1, 2, 3, 4]));
    // Two pairs.
    c.connect(&set(&[100, 200]), &set(&[1, 2]));
    c.connect(&set(&[300, 400]), &set(&[3, 4]));
    let last = c.last_views();
    assert_eq!(last[&p(1)].members(), &set(&[1, 2]));
    assert_eq!(last[&p(3)].members(), &set(&[3, 4]));
    assert_ne!(last[&p(1)].id(), last[&p(3)].id());
    // Merge.
    c.views.clear();
    c.connect(&set(&[100, 200, 300, 400]), &set(&[1, 2, 3, 4]));
    let last = c.last_views();
    let reference = &last[&p(1)];
    assert_eq!(reference.members(), &set(&[1, 2, 3, 4]));
    assert!(last.values().all(|v| v == reference));
}

#[test]
fn empty_server_contributes_no_members() {
    // A server with no live clients still participates in agreement.
    let mut c = Cluster::new(&[(100, &[1, 2]), (200, &[])]);
    c.connect(&set(&[100, 200]), &set(&[1, 2]));
    let last = c.last_views();
    assert_eq!(last.len(), 2);
    assert_eq!(last[&p(1)].members(), &set(&[1, 2]));
}

#[test]
fn rapid_flapping_converges() {
    let mut c = Cluster::new(&[(100, &[1, 2]), (200, &[3, 4])]);
    let servers = set(&[100, 200]);
    for round in 0..10u64 {
        let alive = if round % 2 == 0 { set(&[1, 2, 3, 4]) } else { set(&[1, 3]) };
        c.connect(&servers, &alive);
    }
    // Final state: the last (odd-round) membership {1,3}.
    let last = c.last_views();
    let reference = &last[&p(1)];
    assert_eq!(reference.members(), &set(&[1, 3]));
    assert_eq!(&last[&p(3)], reference, "clients 1 and 3 out of sync");
}
