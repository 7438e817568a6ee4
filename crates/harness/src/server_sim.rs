//! End-to-end simulation with real membership servers.
//!
//! The paper's architecture (Fig. 1): GCS end-points at the clients, a
//! small set of dedicated membership servers maintaining membership. Here
//! both tiers run as message-passing components: the servers exchange
//! [`ServerMsg`] proposals over their own simulated network (the
//! server-to-server WAN of \[27\]), and their `start_change`/`view`
//! notifications feed the client end-points of an inner [`Sim`].
//!
//! Server↔client notification delivery is instantaneous (clients attach
//! to a nearby server; that channel's latency is not what any experiment
//! measures), while server↔server traffic pays the configured latency —
//! which is exactly the membership round the paper's virtual-synchrony
//! round runs in parallel with.

use crate::sim::{Sim, SimOptions};
use std::collections::BTreeMap;
use vsgm_core::{Config, Endpoint};
use vsgm_ioa::{SimRng, SimTime};
use vsgm_membership::{Server, ServerMsg, ServerOutput};
use vsgm_net::SimNet;
use vsgm_obs::NoopRecorder;
use vsgm_types::{ProcSet, ProcessId};

/// A two-tier simulation: membership servers over their own network, GCS
/// end-points underneath.
pub struct ServerSim {
    /// The inner client-side simulation (endpoints + CO_RFIFO + trace).
    pub sim: Sim<Endpoint>,
    servers: BTreeMap<ProcessId, Server>,
    server_net: SimNet<ServerMsg>,
    time: SimTime,
}

impl ServerSim {
    /// Creates `servers.len()` membership servers, each owning the listed
    /// clients; client end-points run the paper's algorithm with `cfg`.
    /// Server ids must not collide with client ids (convention: ≥ 1000).
    pub fn new(servers: Vec<(ProcessId, Vec<ProcessId>)>, cfg: Config, opts: SimOptions) -> Self {
        let clients: BTreeMap<ProcessId, Endpoint> = servers
            .iter()
            .flat_map(|(_, cs)| cs.iter().copied())
            .map(|c| (c, Endpoint::new(c, cfg.clone())))
            .collect();
        let server_ids: Vec<ProcessId> = servers.iter().map(|(s, _)| *s).collect();
        let mut server_net =
            SimNet::new(server_ids.iter().copied(), opts.latency, SimRng::new(opts.seed ^ 0x5eed));
        // Servers keep reliable channels to each other permanently.
        let all_servers: ProcSet = server_ids.iter().copied().collect();
        for s in &server_ids {
            server_net.set_reliable(*s, all_servers.clone());
        }
        let sim = Sim::with_endpoints(clients, opts);
        let servers = servers.into_iter().map(|(s, cs)| (s, Server::new(s, cs))).collect();
        ServerSim { sim, servers, server_net, time: SimTime::ZERO }
    }

    /// All server ids.
    pub fn server_ids(&self) -> ProcSet {
        self.servers.keys().copied().collect()
    }

    /// The server-tier network statistics (membership traffic).
    pub fn server_net_stats(&self) -> &vsgm_net::NetStats {
        self.server_net.stats()
    }

    /// Updates every reachable server's failure-detector estimate and
    /// routes the resulting protocol activity to quiescence.
    pub fn set_connectivity(&mut self, reachable_servers: &ProcSet, alive_clients: &ProcSet) {
        let ids: Vec<ProcessId> = self.servers.keys().copied().collect();
        for id in ids {
            if reachable_servers.contains(&id) {
                let server = self.servers.get_mut(&id).expect("known server");
                let outs = server.set_connectivity(
                    reachable_servers.clone(),
                    alive_clients.clone(),
                    &mut NoopRecorder,
                );
                self.route_server(id, outs);
            }
        }
        self.run_to_quiescence();
    }

    fn route_server(&mut self, from: ProcessId, outputs: Vec<ServerOutput>) {
        for out in outputs {
            match out {
                ServerOutput::StartChange(n) => {
                    self.sim.feed_start_change(n.p, n.cid, n.set);
                }
                ServerOutput::View { client, view } => {
                    self.sim.feed_view(client, view);
                }
                ServerOutput::Broadcast { to, msg } => {
                    self.server_net.send(self.time, from, &to, &msg, &mut NoopRecorder);
                }
            }
        }
    }

    /// Runs both tiers until no message is in flight anywhere and every
    /// endpoint is quiescent.
    pub fn run_to_quiescence(&mut self) {
        for _ in 0..10_000_000u64 {
            self.sim.step_all();
            let tc = self.sim.net().next_arrival();
            let ts = self.server_net.next_arrival();
            match (tc, ts) {
                (None, None) => return,
                (Some(_), None) => {
                    self.sim.deliver_next();
                }
                (None, Some(t)) => self.deliver_server_batch(t),
                (Some(c), Some(s)) => {
                    if c <= s {
                        self.sim.deliver_next();
                    } else {
                        self.deliver_server_batch(s);
                    }
                }
            }
        }
        panic!("server sim did not quiesce");
    }

    fn deliver_server_batch(&mut self, t: SimTime) {
        self.time = t;
        let batch = self.server_net.pop_ready(t, &mut NoopRecorder);
        for (_, to, msg) in batch {
            let server = self.servers.get_mut(&to).expect("known server");
            let outs = server.handle(msg, &mut NoopRecorder);
            self.route_server(to, outs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::procs_of;
    use vsgm_types::AppMsg;

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn two_tier() -> ServerSim {
        ServerSim::new(
            vec![(p(1001), vec![p(1), p(2)]), (p(1002), vec![p(3), p(4)])],
            Config::default(),
            SimOptions::default(),
        )
    }

    #[test]
    fn end_to_end_view_formation_and_multicast() {
        let mut s = two_tier();
        s.set_connectivity(&procs_of(&[1001, 1002]), &procs_of(&[1, 2, 3, 4]));
        // Every client is in the 4-member view.
        for i in 1..=4 {
            let v = s.sim.endpoint(p(i)).current_view();
            assert_eq!(v.len(), 4, "client {i} in {v}");
        }
        s.sim.send(p(1), AppMsg::from("across tiers"));
        s.run_to_quiescence();
        let counts = s.sim.trace().kind_counts();
        assert_eq!(counts["deliver"], 4, "{counts:?}");
        assert!(s.sim.finish().is_empty());
    }

    #[test]
    fn client_failure_reconfigures_through_servers() {
        let mut s = two_tier();
        s.set_connectivity(&procs_of(&[1001, 1002]), &procs_of(&[1, 2, 3, 4]));
        s.set_connectivity(&procs_of(&[1001, 1002]), &procs_of(&[1, 2, 3]));
        for i in 1..=3 {
            assert_eq!(s.sim.endpoint(p(i)).current_view().len(), 3);
        }
        assert!(s.sim.finish().is_empty());
    }

    #[test]
    fn server_partition_yields_component_views() {
        let mut s = two_tier();
        s.set_connectivity(&procs_of(&[1001, 1002]), &procs_of(&[1, 2, 3, 4]));
        // Servers partition; clients partition correspondingly.
        s.sim.partition(&[vec![p(1), p(2)], vec![p(3), p(4)]]);
        s.set_connectivity(&procs_of(&[1001]), &procs_of(&[1, 2]));
        s.set_connectivity(&procs_of(&[1002]), &procs_of(&[3, 4]));
        assert_eq!(s.sim.endpoint(p(1)).current_view().len(), 2);
        assert_eq!(s.sim.endpoint(p(3)).current_view().len(), 2);
        assert_ne!(
            s.sim.endpoint(p(1)).current_view().id(),
            s.sim.endpoint(p(3)).current_view().id()
        );
        // Heal and merge.
        s.sim.heal();
        s.set_connectivity(&procs_of(&[1001, 1002]), &procs_of(&[1, 2, 3, 4]));
        for i in 1..=4 {
            assert_eq!(s.sim.endpoint(p(i)).current_view().len(), 4, "client {i}");
        }
        assert!(s.sim.finish().is_empty());
    }

    #[test]
    fn membership_traffic_is_per_server_not_per_client() {
        // The client-server scalability claim (E9): membership agreement
        // traffic depends on the number of servers, not clients.
        let mut small = ServerSim::new(
            vec![(p(1001), vec![p(1)]), (p(1002), vec![p(2)])],
            Config::default(),
            SimOptions::default(),
        );
        small.set_connectivity(&procs_of(&[1001, 1002]), &procs_of(&[1, 2]));
        let small_msgs = small.server_net_stats().count("mbrshp.proposal");

        let many: Vec<ProcessId> = (1..=16).map(p).collect();
        let mut big = ServerSim::new(
            vec![(p(1001), many[..8].to_vec()), (p(1002), many[8..].to_vec())],
            Config::default(),
            SimOptions::default(),
        );
        big.set_connectivity(&procs_of(&[1001, 1002]), &many.iter().copied().collect());
        let big_msgs = big.server_net_stats().count("mbrshp.proposal");
        assert_eq!(small_msgs, big_msgs, "proposal count independent of client count");
    }
}
