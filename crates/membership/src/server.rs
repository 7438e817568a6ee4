//! A client-server membership implementation in the style of the paper's
//! reference \[27\] (Keidar, Sussman, Marzullo, Dolev).
//!
//! Dedicated membership *servers* — not the clients — agree on views.
//! Each server owns a static set of clients. The protocol is round-based:
//!
//! * a server **initiates** a new round when its failure-detector estimate
//!   changes, and **joins** any higher round it hears of in a peer's
//!   proposal;
//! * entering a round always does two things atomically: send fresh
//!   `start_change` notifications (new locally unique cids) to the live
//!   local clients, and broadcast one [`ServerMsg::Proposal`] to the peer
//!   servers — so every view a server later delivers is necessarily
//!   preceded by a `start_change` at each of its clients (the Fig. 2
//!   `mode` discipline holds structurally);
//! * once a server holds proposals for its **current round from every
//!   server in its estimate** (all agreeing on that estimate), the view is
//!   a *deterministic function of the proposal set* — members are the
//!   union of proposed client sets, the `startId` map is the union of the
//!   proposed cid maps, the epoch is one past the largest proposed epoch —
//!   so all servers deliver the *same* view with no further messages: a
//!   one-round membership algorithm in the steady state, exactly what the
//!   paper's virtual-synchrony layer runs in parallel with.
//!
//! If the union of proposed members is not covered by every proposal's
//! suggestion (a join discovered via a peer), every server deterministically
//! escalates to the next round with the larger suggestion — the spec's
//! "cascaded `start_change`" path — and converges one round later.

use crate::oracle::Notice;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vsgm_net::Wire;
use vsgm_obs::{names, Recorder};
use vsgm_types::{ProcSet, ProcessId, StartChangeId, View, ViewId};

/// Server-to-server protocol messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServerMsg {
    /// One server's contribution to a membership round.
    Proposal {
        /// The proposing server.
        from: ProcessId,
        /// The round this proposal belongs to.
        round: u64,
        /// The proposer's current epoch (max view epoch it knows).
        epoch: u64,
        /// The proposer's live local clients.
        members: ProcSet,
        /// Latest start-change cid sent to each live local client.
        start_ids: BTreeMap<ProcessId, StartChangeId>,
        /// The membership the proposer suggested in those start_changes.
        suggested: ProcSet,
        /// The proposer's server-connectivity estimate (including itself).
        est_servers: ProcSet,
    },
}

impl Wire for ServerMsg {
    fn tag(&self) -> &'static str {
        "mbrshp.proposal"
    }
    fn wire_size(&self) -> usize {
        match self {
            ServerMsg::Proposal { members, start_ids, suggested, est_servers, .. } => {
                32 + members.len() * 8
                    + start_ids.len() * 16
                    + suggested.len() * 8
                    + est_servers.len() * 8
            }
        }
    }
}

/// An action the server asks its host to perform.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerOutput {
    /// Deliver a `start_change` notification to a local client.
    StartChange(Notice),
    /// Deliver a view to a local client.
    View {
        /// The local client.
        client: ProcessId,
        /// The formed view.
        view: View,
    },
    /// Send a protocol message to the given peer servers.
    Broadcast {
        /// Destination servers.
        to: ProcSet,
        /// The message.
        msg: ServerMsg,
    },
}

#[derive(Debug, Clone)]
struct StoredProposal {
    round: u64,
    epoch: u64,
    members: ProcSet,
    start_ids: BTreeMap<ProcessId, StartChangeId>,
    suggested: ProcSet,
    est_servers: ProcSet,
}

/// One membership server.
///
/// Drive it with [`Server::set_connectivity`] (from a failure detector /
/// the simulation's connectivity oracle) and [`Server::handle`] (peer
/// messages); both return [`ServerOutput`]s for the host to route.
#[derive(Debug)]
pub struct Server {
    id: ProcessId,
    local_clients: ProcSet,
    alive_clients: ProcSet,
    est_servers: ProcSet,
    round: u64,
    epoch: u64,
    next_cid: BTreeMap<ProcessId, u64>,
    suggested: ProcSet,
    proposals: BTreeMap<ProcessId, StoredProposal>,
    /// Proposal-set signature (server → round) of the last formed view.
    last_formed: Option<BTreeMap<ProcessId, u64>>,
    bootstrapped: bool,
}

impl Server {
    /// Creates a server owning `local_clients`. The first call to
    /// [`Server::set_connectivity`] bootstraps the first round.
    pub fn new(id: ProcessId, local_clients: impl IntoIterator<Item = ProcessId>) -> Self {
        Server {
            id,
            local_clients: local_clients.into_iter().collect(),
            alive_clients: ProcSet::new(),
            est_servers: [id].into_iter().collect(),
            round: 0,
            epoch: 0,
            next_cid: BTreeMap::new(),
            suggested: ProcSet::new(),
            proposals: BTreeMap::new(),
            last_formed: None,
            bootstrapped: false,
        }
    }

    /// This server's identity.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The clients this server owns (static assignment).
    pub fn local_clients(&self) -> &ProcSet {
        &self.local_clients
    }

    /// The server's current round (for tests and metrics).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Updates the failure-detector estimate: which servers are reachable
    /// (must include this server) and which clients are alive (filtered to
    /// this server's own). A change initiates a new round. `rec` counts
    /// rounds entered, `start_change` notifications issued, and view
    /// deliveries produced by the estimate change.
    ///
    /// # Panics
    ///
    /// Panics if `servers` does not include this server.
    pub fn set_connectivity(
        &mut self,
        servers: ProcSet,
        alive_clients: ProcSet,
        rec: &mut dyn Recorder,
    ) -> Vec<ServerOutput> {
        assert!(servers.contains(&self.id), "estimate must include self");
        let alive: ProcSet = alive_clients.intersection(&self.local_clients).copied().collect();
        if self.bootstrapped && servers == self.est_servers && alive == self.alive_clients {
            return Vec::new();
        }
        self.bootstrapped = true;
        // Forget proposals from servers no longer in the estimate.
        self.proposals.retain(|s, _| servers.contains(s));
        self.est_servers = servers;
        self.alive_clients = alive;
        let next_round = self.highest_known_round() + 1;
        let suggestion = self.current_union_estimate();
        let round_before = self.round;
        let outs = self.enter_round(next_round, suggestion);
        record_round_progress(rec, round_before, self.round, &outs);
        outs
    }

    /// Handles a protocol message from a peer server. `rec` counts
    /// processed proposals, rounds joined, `start_change` notifications
    /// issued, and views formed.
    pub fn handle(&mut self, msg: ServerMsg, rec: &mut dyn Recorder) -> Vec<ServerOutput> {
        rec.counter(names::MBRSHP_PROPOSALS, 1);
        let round_before = self.round;
        let outs = self.handle_inner(msg);
        record_round_progress(rec, round_before, self.round, &outs);
        outs
    }

    fn handle_inner(&mut self, msg: ServerMsg) -> Vec<ServerOutput> {
        let ServerMsg::Proposal { from, round, epoch, members, start_ids, suggested, est_servers } =
            msg;
        if self.proposals.get(&from).is_some_and(|p| p.round >= round) {
            return Vec::new(); // stale
        }
        // Proposals from servers outside the current estimate are stored
        // (so a later reconnection knows the highest round in play — see
        // `set_connectivity`) but trigger no protocol action.
        self.proposals.insert(
            from,
            StoredProposal { round, epoch, members, start_ids, suggested, est_servers },
        );
        if !self.est_servers.contains(&from) {
            return Vec::new(); // from a server we consider disconnected
        }
        if round > self.round {
            // Join the higher round: fresh start_changes + own proposal.
            let suggestion = self.current_union_estimate();
            self.enter_round(round, suggestion)
        } else {
            self.try_form()
        }
    }

    fn highest_known_round(&self) -> u64 {
        self.proposals.values().map(|p| p.round).max().unwrap_or(0).max(self.round)
    }

    /// Union-of-knowledge membership estimate: live local clients plus
    /// every client proposed by servers in the current estimate.
    fn current_union_estimate(&self) -> ProcSet {
        let mut est = self.alive_clients.clone();
        for (s, prop) in &self.proposals {
            if *s != self.id && self.est_servers.contains(s) {
                est.extend(prop.members.iter().copied());
            }
        }
        est
    }

    /// Enters `round`: issues fresh `start_change`s to live local clients,
    /// broadcasts this server's proposal, then tries to form a view.
    fn enter_round(&mut self, round: u64, suggestion: ProcSet) -> Vec<ServerOutput> {
        self.round = round;
        let mut suggested = suggestion;
        suggested.extend(self.alive_clients.iter().copied());
        self.suggested = suggested.clone();
        let mut out = Vec::new();
        let mut start_ids = BTreeMap::new();
        for c in self.alive_clients.clone() {
            let next = self.next_cid.entry(c).or_insert(1);
            let cid = StartChangeId::new(*next);
            *next += 1;
            start_ids.insert(c, cid);
            out.push(ServerOutput::StartChange(Notice { p: c, cid, set: suggested.clone() }));
        }
        let proposal = StoredProposal {
            round,
            epoch: self.epoch,
            members: self.alive_clients.clone(),
            start_ids,
            suggested,
            est_servers: self.est_servers.clone(),
        };
        self.proposals.insert(self.id, proposal.clone());
        let peers: ProcSet = self.est_servers.iter().copied().filter(|s| *s != self.id).collect();
        if !peers.is_empty() {
            out.push(ServerOutput::Broadcast {
                to: peers,
                msg: ServerMsg::Proposal {
                    from: self.id,
                    round,
                    epoch: proposal.epoch,
                    members: proposal.members,
                    start_ids: proposal.start_ids,
                    suggested: proposal.suggested,
                    est_servers: proposal.est_servers,
                },
            });
        }
        let mut formed = self.try_form();
        out.append(&mut formed);
        out
    }

    fn try_form(&mut self) -> Vec<ServerOutput> {
        // Need a proposal for the current round from every server in the
        // estimate, all agreeing on that estimate.
        let mut props: Vec<(ProcessId, &StoredProposal)> = Vec::new();
        for s in &self.est_servers {
            match self.proposals.get(s) {
                Some(p) if p.round == self.round && p.est_servers == self.est_servers => {
                    props.push((*s, p));
                }
                _ => return Vec::new(),
            }
        }
        let members: ProcSet = props.iter().flat_map(|(_, p)| p.members.iter().copied()).collect();
        if members.is_empty() {
            return Vec::new();
        }
        // Every proposal's suggestion must cover the union; otherwise all
        // servers deterministically escalate to the next round with the
        // larger suggestion (cascaded start_change).
        let covered = props.iter().all(|(_, p)| members.iter().all(|m| p.suggested.contains(m)));
        // Deduplicate: don't re-form from an unchanged proposal set.
        let signature: BTreeMap<ProcessId, u64> =
            props.iter().map(|(s, p)| (*s, p.round)).collect();
        let epoch = 1 + props.iter().map(|(_, p)| p.epoch).max().unwrap_or(0);
        let Some(proposer) = props.iter().map(|(s, _)| s.raw()).min() else {
            return Vec::new(); // unreachable: est_servers always contains self
        };
        let mut start_ids: Vec<(ProcessId, StartChangeId)> = Vec::new();
        for (_, p) in &props {
            for (c, cid) in &p.start_ids {
                if members.contains(c) {
                    start_ids.push((*c, *cid));
                }
            }
        }
        drop(props);
        if !covered {
            let next = self.round + 1;
            return self.enter_round(next, members);
        }
        if self.last_formed.as_ref() == Some(&signature) {
            return Vec::new();
        }
        let view = View::new(ViewId::new(epoch, proposer), members.iter().copied(), start_ids);
        self.epoch = epoch;
        self.last_formed = Some(signature);
        self.alive_clients
            .iter()
            .filter(|c| members.contains(c))
            .map(|c| ServerOutput::View { client: *c, view: view.clone() })
            .collect()
    }
}

/// Mirrors one server call's round progress and outputs into a recorder.
fn record_round_progress(
    rec: &mut dyn Recorder,
    round_before: u64,
    round_after: u64,
    outs: &[ServerOutput],
) {
    if round_after > round_before {
        rec.counter(names::MBRSHP_ROUNDS, 1);
    }
    for o in outs {
        match o {
            ServerOutput::StartChange(_) => rec.counter(names::MBRSHP_START_CHANGES, 1),
            ServerOutput::View { .. } => rec.counter(names::MBRSHP_VIEWS_FORMED, 1),
            ServerOutput::Broadcast { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_ioa::{Checker, SimTime, TraceEntry};
    use vsgm_obs::NoopRecorder;
    use vsgm_spec::MbrshpSpec;
    use vsgm_types::Event;

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn set(ids: &[u64]) -> ProcSet {
        ids.iter().map(|&i| p(i)).collect()
    }

    /// Routes outputs between servers until quiescence, feeding client
    /// notifications through the MBRSHP spec checker and collecting views.
    struct Cluster {
        servers: Vec<Server>,
        spec: MbrshpSpec,
        step: u64,
        views: Vec<(ProcessId, View)>,
        broadcasts: u64,
    }

    impl Cluster {
        fn new(servers: Vec<Server>) -> Self {
            Cluster { servers, spec: MbrshpSpec::new(), step: 0, views: Vec::new(), broadcasts: 0 }
        }

        fn feed_spec(&mut self, event: Event) {
            let entry = TraceEntry { step: self.step, time: SimTime::ZERO, event };
            self.step += 1;
            self.spec.observe(&entry).expect("server output must satisfy MBRSHP spec");
        }

        fn route(&mut self, outputs: Vec<ServerOutput>) {
            let mut queue: std::collections::VecDeque<ServerOutput> = outputs.into();
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
                        self.broadcasts += 1;
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
    }

    fn two_server_cluster() -> Cluster {
        // Servers 100, 200; clients 1,2 on 100 and 3,4 on 200.
        Cluster::new(vec![Server::new(p(100), [p(1), p(2)]), Server::new(p(200), [p(3), p(4)])])
    }

    #[test]
    fn two_servers_agree_on_one_view() {
        let mut c = two_server_cluster();
        c.connect(&set(&[100, 200]), &set(&[1, 2, 3, 4]));
        // Every client's *last* view is the full one, and identical across
        // clients.
        let mut last: BTreeMap<ProcessId, View> = BTreeMap::new();
        for (cl, v) in &c.views {
            last.insert(*cl, v.clone());
        }
        assert_eq!(last.len(), 4, "{:?}", c.views);
        let reference = last[&p(1)].clone();
        assert!(last.values().all(|v| *v == reference));
        assert_eq!(reference.members(), &set(&[1, 2, 3, 4]));
        for m in reference.members() {
            assert!(reference.start_id(*m).is_some());
        }
    }

    #[test]
    fn single_server_forms_local_view() {
        let mut c = Cluster::new(vec![Server::new(p(100), [p(1), p(2)])]);
        c.connect(&set(&[100]), &set(&[1, 2]));
        assert_eq!(c.views.len(), 2);
        assert_eq!(c.views[0].1.members(), &set(&[1, 2]));
    }

    #[test]
    fn client_crash_triggers_smaller_view() {
        let mut c = two_server_cluster();
        c.connect(&set(&[100, 200]), &set(&[1, 2, 3, 4]));
        c.views.clear();
        // Client 4 dies.
        c.connect(&set(&[100, 200]), &set(&[1, 2, 3]));
        let mut last: BTreeMap<ProcessId, View> = BTreeMap::new();
        for (cl, v) in &c.views {
            last.insert(*cl, v.clone());
        }
        assert_eq!(last.len(), 3, "{:?}", c.views);
        assert!(last.values().all(|v| v.members() == &set(&[1, 2, 3])));
    }

    #[test]
    fn server_partition_forms_concurrent_views() {
        let mut c = two_server_cluster();
        c.connect(&set(&[100, 200]), &set(&[1, 2, 3, 4]));
        c.views.clear();
        // Servers split: each forms a view of its own clients.
        c.connect(&set(&[100]), &set(&[1, 2]));
        c.connect(&set(&[200]), &set(&[3, 4]));
        let views_100: Vec<_> =
            c.views.iter().filter(|(cl, _)| *cl == p(1) || *cl == p(2)).collect();
        let views_200: Vec<_> =
            c.views.iter().filter(|(cl, _)| *cl == p(3) || *cl == p(4)).collect();
        assert_eq!(views_100.len(), 2);
        assert_eq!(views_200.len(), 2);
        assert_eq!(views_100[0].1.members(), &set(&[1, 2]));
        assert_eq!(views_200[0].1.members(), &set(&[3, 4]));
        assert_ne!(views_100[0].1.id(), views_200[0].1.id());
    }

    #[test]
    fn merge_after_partition_produces_larger_view() {
        let mut c = two_server_cluster();
        c.connect(&set(&[100]), &set(&[1, 2]));
        c.connect(&set(&[200]), &set(&[3, 4]));
        let pre_merge_max_epoch = c.views.iter().map(|(_, v)| v.id().epoch).max().unwrap();
        c.views.clear();
        c.connect(&set(&[100, 200]), &set(&[1, 2, 3, 4]));
        let mut last: BTreeMap<ProcessId, View> = BTreeMap::new();
        for (cl, v) in &c.views {
            last.insert(*cl, v.clone());
        }
        assert_eq!(last.len(), 4, "{:?}", c.views);
        let merged = &last[&p(1)];
        assert_eq!(merged.members(), &set(&[1, 2, 3, 4]));
        assert!(merged.id().epoch > pre_merge_max_epoch);
        assert!(last.values().all(|v| v == merged));
    }

    #[test]
    fn stable_connectivity_is_a_noop() {
        let mut c = two_server_cluster();
        c.connect(&set(&[100, 200]), &set(&[1, 2, 3, 4]));
        let views_before = c.views.len();
        c.connect(&set(&[100, 200]), &set(&[1, 2, 3, 4]));
        assert_eq!(c.views.len(), views_before, "no new views on unchanged estimate");
    }

    #[test]
    fn steady_state_change_is_one_round() {
        // After bootstrap (which needs an escalation round because servers
        // have not yet heard of each other's clients), a leave completes in
        // ONE proposal per server: the one-round property of [27].
        let mut c = two_server_cluster();
        c.connect(&set(&[100, 200]), &set(&[1, 2, 3, 4]));
        c.broadcasts = 0;
        c.views.clear();
        c.connect(&set(&[100, 200]), &set(&[1, 2, 3]));
        // One broadcast from s2 (whose client left) + one from s1 joining
        // the round: one proposal per server, no escalation.
        assert_eq!(c.broadcasts, 2, "expected one proposal per server");
        assert!(!c.views.is_empty());
    }

    #[test]
    fn stale_proposal_ignored() {
        let mut s1 = Server::new(p(100), [p(1)]);
        let _ = s1.set_connectivity(set(&[100, 200]), set(&[1]), &mut NoopRecorder);
        let fresh = ServerMsg::Proposal {
            from: p(200),
            round: 5,
            epoch: 0,
            members: set(&[9]),
            start_ids: [(p(9), StartChangeId::new(1))].into_iter().collect(),
            suggested: set(&[1, 9]),
            est_servers: set(&[100, 200]),
        };
        let stale = ServerMsg::Proposal {
            from: p(200),
            round: 4,
            epoch: 0,
            members: set(&[8]),
            start_ids: [(p(8), StartChangeId::new(1))].into_iter().collect(),
            suggested: set(&[1, 8]),
            est_servers: set(&[100, 200]),
        };
        let _ = s1.handle(fresh, &mut NoopRecorder);
        let outs = s1.handle(stale, &mut NoopRecorder);
        assert!(outs.is_empty(), "stale proposal must be ignored: {outs:?}");
    }

    #[test]
    fn proposal_from_excluded_server_ignored() {
        let mut s1 = Server::new(p(100), [p(1)]);
        let _ = s1.set_connectivity(set(&[100]), set(&[1]), &mut NoopRecorder);
        let msg = ServerMsg::Proposal {
            from: p(200),
            round: 1,
            epoch: 0,
            members: set(&[9]),
            start_ids: [(p(9), StartChangeId::new(1))].into_iter().collect(),
            suggested: set(&[9]),
            est_servers: set(&[100, 200]),
        };
        assert!(s1.handle(msg, &mut NoopRecorder).is_empty());
    }

    #[test]
    fn recorder_counts_rounds_starts_and_views() {
        use vsgm_obs::Registry;
        let mut reg = Registry::new();
        let mut s = Server::new(p(100), [p(1), p(2)]);
        let outs = s.set_connectivity(set(&[100]), set(&[1, 2]), &mut reg);
        // A lone server enters one round and forms the local view at once.
        assert!(!outs.is_empty());
        assert_eq!(reg.counter(names::MBRSHP_ROUNDS), 1);
        assert_eq!(reg.counter(names::MBRSHP_START_CHANGES), 2);
        assert_eq!(reg.counter(names::MBRSHP_VIEWS_FORMED), 2);
        assert_eq!(reg.counter(names::MBRSHP_PROPOSALS), 0);
        // A stale proposal is still counted as processed but changes nothing.
        let stale = ServerMsg::Proposal {
            from: p(100),
            round: 0,
            epoch: 0,
            members: set(&[9]),
            start_ids: BTreeMap::new(),
            suggested: set(&[9]),
            est_servers: set(&[100]),
        };
        let outs = s.handle(stale, &mut reg);
        assert!(outs.is_empty());
        assert_eq!(reg.counter(names::MBRSHP_PROPOSALS), 1);
        assert_eq!(reg.counter(names::MBRSHP_ROUNDS), 1);
    }

    #[test]
    fn view_epochs_monotone_per_client() {
        let mut c = two_server_cluster();
        c.connect(&set(&[100, 200]), &set(&[1, 2, 3, 4]));
        c.connect(&set(&[100, 200]), &set(&[1, 2, 3]));
        c.connect(&set(&[100, 200]), &set(&[1, 2, 3, 4]));
        let mut per_client: BTreeMap<ProcessId, Vec<u64>> = BTreeMap::new();
        for (cl, v) in &c.views {
            per_client.entry(*cl).or_default().push(v.id().epoch);
        }
        for (cl, epochs) in per_client {
            for w in epochs.windows(2) {
                assert!(w[0] < w[1], "{cl}: epochs not monotone: {epochs:?}");
            }
        }
    }
}
