//! The end-to-end rig: a real `GroupServer` bound in this process, four
//! bare `TcpTransport` clients on loopback, and **one** generator thread
//! (the caller's) that drives all of them.
//!
//! The generator never busy-waits. It drains what has arrived, then blocks
//! on the one client socket the oldest unfinished operation still owes a
//! frame to, with a timeout at the next thing due. Traffic crosses the
//! host's loopback interface with no injected delay, so every latency
//! here is processor time plus thread wake-ups, never wire time.

use crate::check::{check_dir_reply, Checker, Delivery};
use crate::gen::{Generator, Op};
use crate::plan::{self, Workload, CLIENTS};
use crate::procfs;
use crate::stats::Samples;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use vsgm_net::{TcpConfig, TcpTransport};
use vsgm_server::{GroupServer, ServerConfig};
use vsgm_types::{AppMsg, GroupId, NetMsg, ProcSet, ProcessId};

/// Directory requests a client keeps outstanding during set-up.
const DIR_WINDOW: usize = 32;
/// Longest the generator sleeps or blocks in one step.
const MAX_NAP: Duration = Duration::from_millis(20);
/// The same during set-up, where the views awaited name no one client to
/// block on and a long nap would be counted into `setup_s`.
const SETUP_NAP: Duration = Duration::from_millis(1);
/// A closed loop notes the time of every this-many-th completion.
const MARK_EVERY: u64 = 500;

const SERVER: ProcessId = ProcessId::new(0);
const OP_TIMEOUT: Duration = Duration::from_secs(plan::OP_TIMEOUT_S);

type ThreadMap = std::collections::BTreeMap<u64, procfs::ThreadCpu>;

// Client sets are `u8` masks.
const _: () = assert!(CLIENTS <= 8);

fn bit(c: usize) -> u8 {
    1 << c
}

fn mask(clients: &[usize]) -> u8 {
    clients.iter().fold(0, |m, c| m | bit(*c))
}

pub fn pid_of(c: usize) -> ProcessId {
    ProcessId::new(c as u64 + 1)
}

/// The directory hands out gids from 1 in creation order, and set-up
/// creates the groups in order (each `create` reply is checked for it).
pub fn gid_of(g: usize) -> GroupId {
    GroupId::new(g as u64 + 1)
}

fn client_of(p: ProcessId) -> Option<usize> {
    (p.raw() as usize).checked_sub(1).filter(|c| *c < CLIENTS)
}

/// A multicast on its way: when it started (or was due), and which
/// clients have yet to receive it.
struct Flight {
    started: Instant,
    owed: u8,
}

/// A directory request awaiting its reply.
struct DirPending {
    request: String,
    /// The gid a `create` must be answered with.
    expect_gid: Option<u64>,
}

/// A view change under way: a `leave` or `join` was sent at `started`; it
/// completes when the reply is in and every client in `waiting` has
/// installed a view with exactly `members`.
struct ViewWait {
    group: usize,
    requester: usize,
    members: u8,
    waiting: u8,
    reply_pending: bool,
    started: Instant,
}

/// Paced-phase results.
pub struct Paced {
    pub lat: Samples,
    pub late_ms: Samples,
    pub completed: u64,
    pub failed: u64,
    /// Process CPU over the phase from `/proc/self/stat`, microseconds, to
    /// hold the per-thread accounting against.
    pub cpu_us: u64,
    /// The same by thread category, in the order of [`CPU_CATEGORIES`].
    pub cpu_by_thread: [f64; CPU_CATEGORIES.len()],
    pub rss_kb: u64,
    pub threads: usize,
    pub backlog_end: usize,
    pub view_lat: Samples,
}

/// What a closed loop completed before it stopped issuing, and how long
/// that took.
pub struct Closed {
    pub completed: u64,
    pub seconds: f64,
    /// Seconds from the start at every `MARK_EVERY`-th completion.
    marks: Vec<f64>,
}

impl Closed {
    /// Throughput over the last third of the completions as a share of
    /// that over the first third; 1 when there are too few to tell.
    pub fn last_over_first(&self) -> f64 {
        let third = self.marks.len() / 3;
        if third == 0 {
            return 1.0;
        }
        let first = self.marks[third - 1];
        let last = self.marks[self.marks.len() - 1] - self.marks[self.marks.len() - 1 - third];
        first / last.max(f64::MIN_POSITIVE)
    }
}

pub const CPU_CATEGORIES: [&str; 7] = [
    "cpu.server_shard_us",
    "cpu.server_router_us",
    "cpu.server_fwd_us",
    "cpu.net_loop_server_us",
    "cpu.net_loop_client_us",
    "cpu.net_accept_hb_us",
    "cpu.driver_us",
];

pub struct Rig {
    w: &'static Workload,
    server: GroupServer,
    clients: Vec<TcpTransport>,
    server_set: ProcSet,
    /// Threads that existed once the daemon was bound and no client was.
    server_tids: Vec<u64>,
    main_tid: u64,
    names: Vec<String>,
    checker: Checker,
    gen: Generator,
    /// Multicasts sent per (group, client).
    sent: Vec<u64>,
    flights: VecDeque<Flight>,
    /// Multicast id of `flights[0]`.
    base_id: u64,
    open: usize,
    dir_pending: [VecDeque<DirPending>; CLIENTS],
    /// Member set (as a client mask) of the latest view per (group, client).
    latest_members: Vec<[u8; CLIENTS]>,
    /// (group, member) pairs whose latest view is the full membership.
    pairs_at_full: usize,
    view_wait: Option<ViewWait>,
    /// Churn: operations issued so far and when the next is due.
    churn_ops: u64,
    churn_due: Option<Instant>,
    // Per-phase sinks, taken by the phase that filled them.
    lat: Samples,
    view_lat: Samples,
    completed: u64,
    failed: u64,
    // Whole-run totals for the result line.
    pub attempted_total: u64,
    pub failed_total: u64,
    problems: Vec<String>,
}

impl Rig {
    /// Phase 1: bind, connect, create and join every group through the
    /// directory verbs, wait until every member holds the full-membership
    /// view, then one multicast from every sender of every group. Returns
    /// the rig and the wall time all of that took.
    pub fn setup(w: &'static Workload, groups: usize, seed: u64) -> Result<(Rig, f64), String> {
        let t0 = Instant::now();
        let cfg = ServerConfig {
            shards: plan::SHARDS,
            // Not `w.members`: a `GroupInstance` admits process ids 1 to its
            // capacity only, and `pair_n2` spreads its pairs over all four
            // clients.
            group_capacity: CLIENTS as u64,
            tcp: TcpConfig::default(),
            ..ServerConfig::default()
        };
        let server = GroupServer::bind(SERVER, "127.0.0.1:0", cfg).map_err(|e| e.to_string())?;
        // The daemon's threads exist now and no client's does: this is
        // what tells server loop threads from client loop threads. (Their
        // names may not be set yet; a thread names itself as it starts.)
        let server_tids = procfs::threads().into_keys().collect();
        let mut clients = Vec::with_capacity(CLIENTS);
        for c in 0..CLIENTS {
            let cfg = TcpConfig {
                loop_threads: 1,
                ..TcpConfig::default()
            };
            let t = TcpTransport::bind_with(pid_of(c), "127.0.0.1:0", cfg)
                .map_err(|e| e.to_string())?;
            t.register_peer(SERVER, server.local_addr());
            server.register_client(pid_of(c), t.local_addr());
            clients.push(t);
        }
        let mut rig = Rig {
            w,
            server,
            clients,
            server_set: [SERVER].into_iter().collect(),
            server_tids,
            main_tid: u64::from(std::process::id()),
            names: (0..groups).map(|g| format!("bench-g{g}")).collect(),
            checker: Checker::new(seed, groups, plan::PAYLOAD),
            gen: Generator::new(seed, w, groups),
            sent: vec![0; groups * CLIENTS],
            flights: VecDeque::new(),
            base_id: 0,
            open: 0,
            dir_pending: Default::default(),
            latest_members: vec![[0; CLIENTS]; groups],
            pairs_at_full: 0,
            view_wait: None,
            churn_ops: 0,
            churn_due: None,
            lat: Samples::default(),
            view_lat: Samples::default(),
            completed: 0,
            failed: 0,
            attempted_total: 0,
            failed_total: 0,
            problems: Vec::new(),
        };
        rig.join_all(groups)?;
        rig.first_sends();
        if rig.failed > 0 {
            return Err(format!("{} first multicasts failed", rig.failed));
        }
        rig.take_phase();
        Ok((rig, t0.elapsed().as_secs_f64()))
    }

    fn groups(&self) -> usize {
        self.names.len()
    }

    fn group_of(&self, gid: GroupId) -> Option<usize> {
        (gid.raw() as usize)
            .checked_sub(1)
            .filter(|g| *g < self.groups())
    }

    /// The first member of each group creates it, one group at a time so
    /// that gid = group + 1 and the shard layout is the same on every run;
    /// then the other members join, each client keeping `DIR_WINDOW`
    /// requests outstanding.
    fn join_all(&mut self, groups: usize) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut joins: [VecDeque<String>; CLIENTS] = Default::default();
        for g in 0..groups {
            let members = self.w.members_of(g);
            let (creator, joiners) = members.split_first().expect("groups have members");
            self.send_dir(
                *creator,
                format!("create {}", self.names[g]),
                Some(gid_of(g).raw()),
            );
            while !self.dir_pending[*creator].is_empty() && Instant::now() < deadline {
                self.pump(Instant::now() + SETUP_NAP);
            }
            for j in joiners {
                joins[*j].push_back(format!("join {}", self.names[g]));
            }
        }
        // One round trip per client, in order, before the joins race each
        // other: the daemon assigns connections to its event-loop threads
        // in the order they are made, and that order should not differ
        // from run to run.
        for c in 0..CLIENTS {
            self.send_dir(c, format!("lookup {}", self.names[0]), None);
            while !self.dir_pending[c].is_empty() && Instant::now() < deadline {
                self.pump(Instant::now() + SETUP_NAP);
            }
        }
        let want: usize = (0..groups).map(|g| self.w.members_of(g).len()).sum();
        while self.pairs_at_full < want {
            for (c, todo) in joins.iter_mut().enumerate() {
                while self.dir_pending[c].len() < DIR_WINDOW {
                    let Some(request) = todo.pop_front() else {
                        break;
                    };
                    self.send_dir(c, request, None);
                }
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "set-up: {} of {want} members reached the full view",
                    self.pairs_at_full
                ));
            }
            self.pump(Instant::now() + SETUP_NAP);
        }
        match self.failed_total {
            0 => Ok(()),
            n => Err(format!(
                "set-up: {n} directory requests failed: {:?}",
                self.problems
            )),
        }
    }

    fn send_dir(&mut self, c: usize, request: String, expect_gid: Option<u64>) {
        self.attempted_total += 1;
        let msg = NetMsg::App(AppMsg::from(request.as_str()));
        if let Err(e) = self.clients[c].send_to_group(GroupId::DIRECTORY, &self.server_set, &msg) {
            self.fail(format!("c{c}: {request:?} not sent: {e}"));
            return;
        }
        self.dir_pending[c].push_back(DirPending {
            request,
            expect_gid,
        });
    }

    fn fail(&mut self, why: String) {
        self.failed_total += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    // ----- multicasts -----

    fn send_next(&mut self, started: Instant) {
        let op = self.gen.next_op();
        self.send_op(op, started);
    }

    fn send_op(&mut self, op: Op, started: Instant) {
        debug_assert_eq!(op.id, self.base_id + self.flights.len() as u64);
        self.attempted_total += 1;
        self.sent[op.group * CLIENTS + op.sender] += 1;
        let msg = NetMsg::App(AppMsg::new(op.payload));
        let owed =
            match self.clients[op.sender].send_to_group(gid_of(op.group), &self.server_set, &msg) {
                Ok(()) => mask(&self.w.senders_of(op.group)),
                Err(e) => {
                    self.fail(format!("multicast {} not sent: {e}", op.id));
                    self.failed += 1;
                    0
                }
            };
        if owed != 0 {
            self.open += 1;
        }
        self.flights.push_back(Flight { started, owed });
        self.pop_done();
    }

    fn on_fwd(&mut self, c: usize, id: u64, now: Instant) {
        let Some(f) = id
            .checked_sub(self.base_id)
            .and_then(|i| self.flights.get_mut(i as usize))
        else {
            return;
        };
        if f.owed & bit(c) == 0 {
            return;
        }
        f.owed &= !bit(c);
        if f.owed == 0 {
            self.open -= 1;
            self.completed += 1;
            self.lat
                .push(now.duration_since(f.started).as_secs_f64() * 1e6);
            self.pop_done();
        }
    }

    fn pop_done(&mut self) {
        while self.flights.front().is_some_and(|f| f.owed == 0) {
            self.flights.pop_front();
            self.base_id += 1;
        }
    }

    /// Gives up on multicasts and view changes older than the time-out.
    fn expire(&mut self, now: Instant) {
        while let Some(f) = self.flights.front() {
            if now.duration_since(f.started) < OP_TIMEOUT {
                break;
            }
            let id = self.base_id;
            let owed = f.owed;
            self.flights[0].owed = 0;
            self.open -= 1;
            self.failed += 1;
            self.fail(format!(
                "multicast {id} not delivered to clients {owed:#06b} in time"
            ));
            self.pop_done();
        }
        if self
            .view_wait
            .as_ref()
            .is_some_and(|v| now.duration_since(v.started) >= OP_TIMEOUT)
        {
            let v = self.view_wait.take().expect("checked");
            self.fail(format!(
                "view change of g{} not seen by clients {:#06b} in time",
                v.group, v.waiting
            ));
        }
    }

    // ----- frames -----

    fn on_frame(&mut self, c: usize, gid: Option<GroupId>, msg: NetMsg, now: Instant) {
        match (gid, msg) {
            (Some(GroupId::DIRECTORY), NetMsg::App(reply)) => {
                self.on_dir_reply(c, reply.as_bytes())
            }
            (Some(gid), NetMsg::ViewMsg(view)) => {
                let Some(g) = self.group_of(gid) else {
                    return self.fail(format!("c{c}: view for unknown {gid}"));
                };
                let members: Vec<usize> = view
                    .members()
                    .iter()
                    .filter_map(|p| client_of(*p))
                    .collect();
                let now_mask = mask(&members);
                self.checker.on_view(g, c, view.id(), members);
                let full = mask(&self.w.members_of(g));
                let slot = &mut self.latest_members[g][c];
                self.pairs_at_full -= usize::from(*slot == full);
                self.pairs_at_full += usize::from(now_mask == full);
                *slot = now_mask;
                if let Some(v) = &mut self.view_wait {
                    if v.group == g && v.members == now_mask {
                        v.waiting &= !bit(c);
                    }
                }
                self.finish_view_wait(now);
            }
            (Some(gid), NetMsg::Fwd(f)) => {
                let (Some(g), Some(origin)) = (self.group_of(gid), client_of(f.origin)) else {
                    return self.fail(format!("c{c}: delivery for unknown {gid} or {}", f.origin));
                };
                let d = Delivery {
                    group: g,
                    receiver: c,
                    origin,
                    view: f.view.id(),
                    index: f.index,
                    payload: f.msg.as_bytes(),
                };
                if let Some((id, _)) = self.checker.on_delivery(&d) {
                    self.on_fwd(c, id, now);
                }
            }
            (gid, other) => self.fail(format!("c{c}: unexpected {} frame on {gid:?}", other.tag())),
        }
    }

    fn on_dir_reply(&mut self, c: usize, reply: &[u8]) {
        let reply = String::from_utf8_lossy(reply);
        let Some(pending) = self.dir_pending[c].pop_front() else {
            return self.fail(format!("c{c}: directory reply {reply:?} to nothing"));
        };
        match check_dir_reply(&pending.request, &reply) {
            Ok(gid) if pending.expect_gid.is_some_and(|want| want != gid) => {
                self.fail(format!(
                    "{:?} created gid {gid}, not the next in order",
                    pending.request
                ));
            }
            Ok(_) => {}
            Err(why) => self.fail(why),
        }
        if let Some(v) = &mut self.view_wait {
            if v.requester == c {
                v.reply_pending = false;
            }
        }
        self.finish_view_wait(Instant::now());
    }

    fn finish_view_wait(&mut self, now: Instant) {
        if self
            .view_wait
            .as_ref()
            .is_some_and(|v| v.waiting == 0 && !v.reply_pending)
        {
            let v = self.view_wait.take().expect("checked");
            self.view_lat
                .push(now.duration_since(v.started).as_secs_f64() * 1e6);
        }
    }

    /// The client the oldest unfinished operation still owes a frame to.
    fn owed_client(&self) -> Option<usize> {
        let lowest = |m: u8| (m != 0).then(|| m.trailing_zeros() as usize);
        if let Some(c) = self.flights.iter().find_map(|f| lowest(f.owed)) {
            return Some(c);
        }
        if let Some(v) = &self.view_wait {
            return if v.reply_pending {
                Some(v.requester)
            } else {
                lowest(v.waiting)
            };
        }
        (0..CLIENTS).find(|c| !self.dir_pending[*c].is_empty())
    }

    /// Handles every frame that has arrived; if there was none, blocks
    /// until one arrives where one is owed, or until `until`.
    fn pump(&mut self, until: Instant) {
        let mut any = false;
        for c in 0..CLIENTS {
            while let Some((_, gid, msg)) = self.clients[c].try_recv_routed() {
                any = true;
                self.on_frame(c, gid, msg, Instant::now());
            }
        }
        if any {
            return;
        }
        let wait = until.saturating_duration_since(Instant::now()).min(MAX_NAP);
        if wait.is_zero() {
            return;
        }
        match self.owed_client() {
            Some(c) => {
                if let Some((_, gid, msg)) = self.clients[c].recv_routed_timeout(wait) {
                    self.on_frame(c, gid, msg, Instant::now());
                }
            }
            None => std::thread::sleep(wait),
        }
    }

    // ----- view changes -----

    /// Sends `leave` (or `join`) of group `g` for its churner, timed from
    /// `started`.
    fn start_view_change(&mut self, g: usize, leave: bool, started: Instant) {
        let churner = self.w.churner_of(g);
        let full = mask(&self.w.members_of(g));
        let members = if leave { full & !bit(churner) } else { full };
        let verb = if leave { "leave" } else { "join" };
        self.view_wait = Some(ViewWait {
            group: g,
            requester: churner,
            members,
            waiting: members,
            reply_pending: true,
            started,
        });
        self.send_dir(churner, format!("{verb} {}", self.names[g]), None);
        if self.dir_pending[churner].is_empty() {
            self.view_wait = None; // the send failed and was counted
        }
    }

    /// Churn operation `k` leaves (even) or re-joins (odd) group
    /// `(k / 2) % groups`. Issues the next one, timed from `started`.
    fn next_churn_op(&mut self, started: Instant) {
        let k = self.churn_ops;
        self.churn_ops += 1;
        self.start_view_change(
            (k / 2) as usize % self.groups(),
            k.is_multiple_of(2),
            started,
        );
    }

    /// One churn operation is due every `CHURN_PERIOD_MS`; the next waits
    /// for the previous to finish.
    fn churn_tick(&mut self, now: Instant) {
        let Some(due) = self.churn_due else { return };
        if now < due || self.view_wait.is_some() {
            return;
        }
        self.churn_due = Some(due + Duration::from_millis(plan::CHURN_PERIOD_MS));
        self.next_churn_op(due);
    }

    fn start_churn(&mut self) {
        if self.w.churn {
            self.churn_due = Some(Instant::now() + Duration::from_millis(plan::CHURN_PERIOD_MS));
        }
    }

    /// Stops churn with every group back at full membership.
    fn stop_churn(&mut self) {
        if self.churn_due.take().is_none() {
            return;
        }
        self.wait_view_change();
        if !self.churn_ops.is_multiple_of(2) {
            self.next_churn_op(Instant::now());
            self.wait_view_change();
        }
    }

    fn wait_view_change(&mut self) {
        while self.view_wait.is_some() {
            self.pump(Instant::now() + MAX_NAP);
            self.expire(Instant::now());
        }
    }

    /// When the generator next has something to do besides receiving.
    fn next_wake(&self, now: Instant, next_send: Option<Instant>) -> Instant {
        let mut wake = now + MAX_NAP;
        if let Some(t) = next_send {
            wake = wake.min(t);
        }
        if let (Some(t), None) = (self.churn_due, &self.view_wait) {
            wake = wake.min(t);
        }
        wake
    }

    fn take_phase(&mut self) -> (Samples, Samples, u64, u64) {
        (
            std::mem::take(&mut self.lat),
            std::mem::take(&mut self.view_lat),
            std::mem::take(&mut self.completed),
            std::mem::take(&mut self.failed),
        )
    }

    /// Lets everything in flight finish (or time out).
    fn drain(&mut self) {
        while self.open > 0 {
            self.pump(Instant::now() + MAX_NAP);
            self.expire(Instant::now());
        }
    }

    // ----- phases -----

    /// Phase 2: open loop at the workload's rate for `secs` seconds' worth
    /// of multicasts. Latency runs from the instant each was due.
    pub fn paced(&mut self, secs: f64) -> Paced {
        let rate = self.w.paced_rate;
        let total = (rate as f64 * secs) as u64;
        let due = |t0: Instant, k: u64| t0 + Duration::from_nanos(k * 1_000_000_000 / rate);
        let mut late_ms = Samples::default();
        let (mut sent, mut backlog_end) = (0u64, 0usize);
        self.start_churn();
        let cpu0 = procfs::process_cpu_us();
        let threads0 = procfs::threads();
        let t0 = Instant::now();
        while self.completed + self.failed < total {
            let mut now = Instant::now();
            while sent < total && due(t0, sent) <= now {
                late_ms.push(now.duration_since(due(t0, sent)).as_secs_f64() * 1e3);
                self.send_next(due(t0, sent));
                sent += 1;
                if sent == total {
                    backlog_end = self.open;
                }
                now = Instant::now();
            }
            self.churn_tick(now);
            self.expire(now);
            let wake = self.next_wake(now, (sent < total).then(|| due(t0, sent)));
            self.pump(wake);
        }
        let cpu_us = procfs::process_cpu_us() - cpu0;
        let threads1 = procfs::threads();
        let rss_kb = procfs::rss_kb();
        self.stop_churn();
        let cpu_by_thread = self.cpu_by_thread(&threads0, &threads1);
        let (lat, view_lat, completed, failed) = self.take_phase();
        Paced {
            lat,
            late_ms,
            completed,
            failed,
            cpu_us,
            cpu_by_thread,
            rss_kb,
            threads: threads1.len(),
            backlog_end,
            view_lat,
        }
    }

    /// CPU spent between two thread listings, microseconds by category.
    fn cpu_by_thread(&self, from: &ThreadMap, to: &ThreadMap) -> [f64; CPU_CATEGORIES.len()] {
        let mut by_thread = [0.0; CPU_CATEGORIES.len()];
        for (tid, t) in to {
            let before = from.get(tid).map_or(0, |b| b.run_ns);
            by_thread[self.cpu_category(*tid, &t.comm)] +=
                t.run_ns.saturating_sub(before) as f64 / 1e3;
        }
        by_thread
    }

    /// Index into [`CPU_CATEGORIES`]. Thread names are the ones the net and
    /// server crates give their threads (comm keeps 15 bytes).
    fn cpu_category(&self, tid: u64, comm: &str) -> usize {
        match comm {
            _ if tid == self.main_tid => 6,
            c if c.starts_with("vsgm-shard-") => 0,
            "vsgm-server-rou" => 1,
            "vsgm-server-fwd" => 2,
            "vsgm-net-loop" if self.server_tids.contains(&tid) => 3,
            "vsgm-net-loop" => 4,
            // Accept and heartbeat threads of all five transports, and
            // anything unforeseen: small, and kept so the shares add up.
            _ => 5,
        }
    }

    /// Ends set-up: one multicast from every sender of every group, so that
    /// whatever the daemon sets up at a first send (the connections it
    /// dials back, buffers, a group's first step) is set up before anything
    /// is timed. `SATURATE_WINDOW` in flight.
    fn first_sends(&mut self) {
        for g in 0..self.groups() {
            for c in self.w.senders_of(g) {
                while self.open >= plan::SATURATE_WINDOW {
                    self.pump(Instant::now() + MAX_NAP);
                    self.expire(Instant::now());
                }
                let op = self.gen.op_for(g, c);
                self.send_op(op, Instant::now());
            }
        }
        self.drain();
    }

    /// After set-up and before anything is timed: `count` multicasts at
    /// window 1, so that caches, socket buffers and the allocator are warm.
    pub fn warm_up(&mut self, count: u64) -> Result<(), String> {
        self.closed_loop(1, None, Some(count));
        let (_, _, _, failed) = self.take_phase();
        match failed {
            0 => Ok(()),
            n => Err(format!("{n} warm-up multicasts failed")),
        }
    }

    /// Closed loop with `window` multicasts in flight, until `secs` have
    /// passed or `cap` have completed.
    fn closed_loop(&mut self, window: usize, secs: Option<f64>, cap: Option<u64>) -> Closed {
        let t0 = Instant::now();
        let end = secs.map(|s| t0 + Duration::from_secs_f64(s));
        let cap = cap.unwrap_or(u64::MAX);
        let mut issued = 0u64;
        let mut marks = Vec::new();
        let closed = loop {
            let now = Instant::now();
            while self.completed >= (marks.len() as u64 + 1) * MARK_EVERY {
                marks.push((now - t0).as_secs_f64());
            }
            if end.is_some_and(|e| now >= e) || issued >= cap {
                break Closed {
                    completed: self.completed,
                    seconds: (now - t0).as_secs_f64(),
                    marks,
                };
            }
            while self.open < window && issued < cap {
                self.send_next(Instant::now());
                issued += 1;
            }
            self.churn_tick(now);
            self.expire(now);
            let wake = self.next_wake(now, end);
            self.pump(wake);
        };
        self.drain();
        closed
    }

    /// Phase 3: closed loop, one multicast in flight. Returns the latencies.
    pub fn unloaded(&mut self, secs: f64) -> Samples {
        self.start_churn();
        self.closed_loop(1, Some(secs), None);
        self.stop_churn();
        self.take_phase().0
    }

    /// Phase 4: closed loop, `SATURATE_WINDOW` multicasts in flight.
    pub fn saturate(&mut self, secs: f64) -> Closed {
        self.start_churn();
        let closed = self.closed_loop(plan::SATURATE_WINDOW, Some(secs), Some(plan::SATURATE_CAP));
        self.stop_churn();
        self.take_phase();
        closed
    }

    /// Phase 5: with no other traffic, the churner of each group in turn
    /// leaves and re-joins, one view change at a time.
    pub fn reconfig(&mut self, secs: f64) -> Samples {
        let end = Instant::now() + Duration::from_secs_f64(secs);
        let mut k = 0;
        while Instant::now() < end {
            for leave in [true, false] {
                self.start_view_change(k % self.groups(), leave, Instant::now());
                self.wait_view_change();
            }
            k += 1;
        }
        self.take_phase().1
    }

    /// End of run: the checker's verdict, the daemon's own spec checkers
    /// for every hosted group, and its unroutable-frame counter. Returns
    /// what was wrong, empty when all is well.
    pub fn verdict(mut self) -> Vec<String> {
        self.drain();
        let sent = std::mem::take(&mut self.sent);
        self.checker.finish(|g, c| sent[g * CLIENTS + c]);
        let mut wrong = std::mem::take(&mut self.problems);
        wrong.extend(self.checker.violations().iter().cloned());
        if self.checker.violation_count() > wrong.len() as u64 {
            wrong.push(format!(
                "{} checker violations in all",
                self.checker.violation_count()
            ));
        }
        for gid in (0..self.groups()).map(gid_of) {
            match self.server.shards().finish(gid) {
                Some(v) if v.is_empty() => {}
                Some(v) => wrong.push(format!("{gid}: spec checkers report {v:?}")),
                None => wrong.push(format!("{gid}: not hosted")),
            }
        }
        let stats = self.server.stats();
        if stats.frames_unroutable != 0 {
            wrong.push(format!("{} unroutable frames", stats.frames_unroutable));
        }
        if stats.groups_hosted != self.groups() as u64 {
            wrong.push(format!(
                "{} groups hosted, {} created",
                stats.groups_hosted,
                self.groups()
            ));
        }
        wrong
    }
}
