//! The shard pool: group-id → worker routing with no cross-shard locks
//! on the hot path.
//!
//! Each shard is one worker thread owning a `BTreeMap<GroupId,
//! Box<GroupInstance>>` it alone touches — group state needs no lock at
//! all, because ownership is partitioned, not shared. Routing is pure
//! arithmetic (`gid.raw() % shards`), so dispatching a command takes
//! one channel send to the owning shard, whose worker owns the receiver;
//! groups on different shards never contend, and groups on one shard
//! serialize through their channel in arrival order (the total per-group
//! command order the differential suite relies on).
//!
//! A worker pays per batch, not per command: it drains its channel, up
//! to [`MAX_BATCH`] commands or until it is empty, steps each command
//! exactly as it would alone, and then hands the whole batch's outputs
//! to the pool's sink in one call, on its own thread — the
//! [`ShardConfig::outputs`] channel, or the daemon's client sockets,
//! where that is one write per client. Directory replies ride the same
//! batch. Each group's frames keep their step order. A worker hands over
//! what it holds before it answers a report or finish, and before it
//! exits.
//!
//! Determinism discipline: ordered containers only, no ambient clocks or
//! randomness; the lints below pin it to this file. Wall-clock pacing
//! and sockets live in `server.rs`, behind the daemon's sink; a hosted
//! group has no notion of time, and frees what its members delivered
//! at the end of each step, so a worker keeps no timer for it.

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use crate::group::{GroupCmd, GroupInstance, GroupOutput, GroupReport};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use vsgm_ioa::Violation;
use vsgm_net::tiered::{blocking, Tiered};
use vsgm_types::{GroupId, NetMsg, ProcessId};

/// Most commands a worker steps before it hands their outputs to the
/// sink.
const MAX_BATCH: usize = 64;

/// One frame a worker owes a client: `(group, client, frame)`.
pub(crate) type Outbound = (GroupId, ProcessId, NetMsg);

/// Where a worker hands the frames it owes clients, called on the
/// worker's thread with one batch's outputs in step order. The sink may
/// take them out of the `Vec`; the worker clears it after, and reuses
/// its buffer.
pub(crate) type Sink = Arc<dyn Fn(&mut Vec<Outbound>) + Send + Sync>;

/// A command routed to the shard owning one group.
enum ShardCmd {
    /// Instantiate a group (idempotent: re-creating an existing gid is
    /// ignored — the directory already guarantees one winner), then
    /// apply its creator's `Join`, if any.
    Create { gid: GroupId, capacity: u64, creator: Option<ProcessId> },
    /// Apply a [`GroupCmd`] to a hosted group.
    Apply { gid: GroupId, cmd: GroupCmd },
    /// Hand one directory reply to the sink.
    Reply(GroupOutput),
    /// Snapshot one group's report.
    Report { gid: GroupId, reply: Sender<Option<GroupReport>> },
    /// Snapshot every group this shard hosts.
    ReportAll { reply: Sender<Vec<GroupReport>> },
    /// Finalize one group's checkers and return its violations.
    Finish { gid: GroupId, reply: Sender<Option<Vec<Violation>>> },
    /// Drain and exit.
    Shutdown,
}

/// Counters shared by all shard workers; mirrored into `server.*`
/// metrics by the daemon.
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Commands routed to a hosted group.
    pub frames_routed: AtomicU64,
    /// Commands whose gid resolved to no hosted group.
    pub frames_unroutable: AtomicU64,
    /// Group instances currently hosted across all shards.
    pub groups_hosted: AtomicU64,
}

/// The fixed pool of shard workers. See the module docs.
pub struct ShardPool {
    senders: Vec<Sender<ShardCmd>>,
    /// The workers' join handles. A leaf: taken only by shutdown to
    /// drain them; never held while sending on a shard channel.
    handles: Tiered<Vec<std::thread::JoinHandle<()>>, 6>,
    counters: Arc<ShardCounters>,
}

/// How eagerly workers advance hosted groups.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker threads; also the shard count for `gid % shards` routing.
    pub shards: usize,
    /// Daemon mode: after every applied command, run the group to
    /// quiescence and forward drained outputs to `outputs`. Off, groups
    /// advance only on explicit [`GroupCmd::Run`] commands and their
    /// outputs stay undrained.
    pub auto_run: bool,
    /// Where drained `(gid, member, frame)` outputs go in daemon mode.
    /// Its channel type is the one the repository benchmark passes.
    pub outputs: Option<crossbeam::channel::Sender<(GroupId, ProcessId, NetMsg)>>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shards: 4, auto_run: false, outputs: None }
    }
}

impl ShardPool {
    /// Spawns the worker threads.
    pub fn spawn(cfg: ShardConfig) -> ShardPool {
        let sink: Sink = match cfg.outputs {
            Some(tx) => Arc::new(move |batch: &mut Vec<Outbound>| {
                for out in batch.drain(..) {
                    let _ = tx.send(out);
                }
            }),
            None => Arc::new(|_: &mut Vec<Outbound>| {}),
        };
        ShardPool::with_sink(cfg.shards, cfg.auto_run, sink)
    }

    /// [`ShardPool::spawn`], handing outputs to `sink`, not a channel.
    pub(crate) fn with_sink(shards: usize, auto_run: bool, sink: Sink) -> ShardPool {
        let shards = shards.max(1);
        let counters = Arc::new(ShardCounters::default());
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for i in 0..shards {
            let (tx, rx) = channel();
            let counters = Arc::clone(&counters);
            let sink = sink.clone();
            #[expect(
                clippy::expect_used,
                reason = "thread-spawn failure is OS resource exhaustion at server startup: \
                          there is nothing to unwind to"
            )]
            let handle = std::thread::Builder::new()
                .name(format!("vsgm-shard-{i}"))
                .spawn(move || shard_main(rx, &counters, auto_run, &sink))
                .expect("spawn shard worker");
            senders.push(tx);
            handles.push(handle);
        }
        ShardPool { senders, handles: Tiered::new(handles), counters }
    }

    /// Number of shards (worker threads).
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// The shard owning `gid` — pure arithmetic, no locks.
    pub fn shard_of(&self, gid: GroupId) -> usize {
        (gid.raw() % self.senders.len().max(1) as u64) as usize
    }

    /// Shared routing/hosting counters.
    pub fn counters(&self) -> &ShardCounters {
        &self.counters
    }

    fn send_to(&self, shard: usize, cmd: ShardCmd) {
        if let Some(tx) = self.senders.get(shard) {
            // A send only fails after shutdown; commands raced past the
            // end of the pool's life are dropped by design.
            let _ = tx.send(cmd);
        }
    }

    /// Instantiates a group on its owning shard (idempotent per gid).
    /// `_seed` is unused, as in [`GroupInstance::new`].
    pub fn create_group(&self, gid: GroupId, capacity: u64, _seed: u64) {
        self.send_to(self.shard_of(gid), ShardCmd::Create { gid, capacity, creator: None });
    }

    /// Instantiates a group and joins `creator` to it, as one command:
    /// a create wakes its shard once.
    pub(crate) fn create_and_join(&self, gid: GroupId, capacity: u64, creator: ProcessId) {
        let cmd = ShardCmd::Create { gid, capacity, creator: Some(creator) };
        self.send_to(self.shard_of(gid), cmd);
    }

    /// Routes one command to `gid`'s instance.
    pub fn apply(&self, gid: GroupId, cmd: GroupCmd) {
        self.send_to(self.shard_of(gid), ShardCmd::Apply { gid, cmd });
    }

    /// Hands `msg` for client `to` to the sink, from shard `to % shards`.
    /// Every reply to one client goes through the same worker, so the
    /// client receives its replies in the order they were queued here.
    pub(crate) fn reply(&self, to: ProcessId, msg: NetMsg) {
        let shard = (to.raw() % self.senders.len().max(1) as u64) as usize;
        self.send_to(shard, ShardCmd::Reply(GroupOutput { to, msg }));
    }

    /// Blocking snapshot of one group (`None` if unhosted).
    pub fn report(&self, gid: GroupId) -> Option<GroupReport> {
        let (reply, rx) = channel();
        self.send_to(self.shard_of(gid), ShardCmd::Report { gid, reply });
        blocking(|| rx.recv()).ok().flatten()
    }

    /// Blocking snapshot of every hosted group, ordered by gid.
    pub fn report_all(&self) -> Vec<GroupReport> {
        let mut replies = Vec::with_capacity(self.senders.len());
        for tx in &self.senders {
            let (reply, rx) = channel();
            if tx.send(ShardCmd::ReportAll { reply }).is_ok() {
                replies.push(rx);
            }
        }
        let mut all: Vec<GroupReport> =
            replies.into_iter().filter_map(|rx| blocking(|| rx.recv()).ok()).flatten().collect();
        all.sort_by_key(|r| r.gid);
        all
    }

    /// Blocking checker finalization for one group (`None` if unhosted).
    pub fn finish(&self, gid: GroupId) -> Option<Vec<Violation>> {
        let (reply, rx) = channel();
        self.send_to(self.shard_of(gid), ShardCmd::Finish { gid, reply });
        blocking(|| rx.recv()).ok().flatten()
    }

    /// Stops every worker after it drains its queue, and joins them.
    /// Idempotent; later commands are dropped.
    pub fn shutdown(&self) {
        for tx in &self.senders {
            let _ = tx.send(ShardCmd::Shutdown);
        }
        let handles: Vec<_> = self.handles.lock().drain(..).collect();
        for handle in handles {
            let _ = blocking(|| handle.join());
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A worker's state: the groups it owns and the outputs of the batch it
/// is stepping.
struct Worker<'a> {
    /// Boxed: gids arrive in ascending order, which leaves the B-tree's
    /// leaves a little over half full, and an unused slot then costs a
    /// pointer rather than a whole instance.
    groups: BTreeMap<GroupId, Box<GroupInstance>>,
    out: Vec<Outbound>,
    counters: &'a ShardCounters,
    auto_run: bool,
    sink: &'a Sink,
}

impl Worker<'_> {
    /// Applies `cmd` to `gid`'s instance and, in daemon mode, runs it to
    /// quiescence and collects what it owes its clients.
    fn apply(&mut self, gid: GroupId, cmd: GroupCmd) {
        let Some(g) = self.groups.get_mut(&gid) else {
            self.counters.frames_unroutable.fetch_add(1, Ordering::Relaxed);
            return;
        };
        self.counters.frames_routed.fetch_add(1, Ordering::Relaxed);
        g.apply(cmd);
        if self.auto_run {
            g.run_to_quiescence();
            self.out.extend(g.drain_outputs().into_iter().map(|o| (gid, o.to, o.msg)));
        }
    }

    /// Hands the batch's outputs to the sink, if there are any.
    fn hand_over(&mut self) {
        if !self.out.is_empty() {
            (self.sink)(&mut self.out);
            self.out.clear();
        }
    }

    /// Steps one command; `false` once it was [`ShardCmd::Shutdown`].
    fn step(&mut self, cmd: ShardCmd) -> bool {
        match cmd {
            ShardCmd::Create { gid, capacity, creator } => {
                if let std::collections::btree_map::Entry::Vacant(slot) = self.groups.entry(gid) {
                    slot.insert(Box::new(GroupInstance::new(gid, capacity, 0)));
                    self.counters.groups_hosted.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(p) = creator {
                    self.apply(gid, GroupCmd::Join(p));
                }
            }
            ShardCmd::Apply { gid, cmd } => self.apply(gid, cmd),
            ShardCmd::Reply(out) => self.out.push((GroupId::DIRECTORY, out.to, out.msg)),
            ShardCmd::Report { gid, reply } => {
                self.hand_over();
                let _ = reply.send(self.groups.get(&gid).map(|g| g.report()));
            }
            ShardCmd::ReportAll { reply } => {
                self.hand_over();
                let _ = reply.send(self.groups.values().map(|g| g.report()).collect());
            }
            ShardCmd::Finish { gid, reply } => {
                self.hand_over();
                let _ = reply.send(self.groups.get_mut(&gid).map(|g| g.finish()));
            }
            ShardCmd::Shutdown => return false,
        }
        true
    }
}

fn shard_main(rx: Receiver<ShardCmd>, counters: &ShardCounters, auto_run: bool, sink: &Sink) {
    let mut w = Worker { groups: BTreeMap::new(), out: Vec::new(), counters, auto_run, sink };
    while let Ok(first) = blocking(|| rx.recv()) {
        let queued = std::iter::from_fn(|| rx.try_recv().ok());
        for cmd in std::iter::once(first).chain(queued).take(MAX_BATCH) {
            if !w.step(cmd) {
                w.hand_over();
                return;
            }
        }
        w.hand_over();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::group_seed;
    use vsgm_types::AppMsg;

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn routing_is_pure_modulo() {
        let pool = ShardPool::spawn(ShardConfig { shards: 4, ..ShardConfig::default() });
        assert_eq!(pool.shard_of(GroupId::new(1)), 1);
        assert_eq!(pool.shard_of(GroupId::new(4)), 0);
        assert_eq!(pool.shard_of(GroupId::new(7)), 3);
        assert_eq!(pool.shards(), 4);
    }

    #[test]
    fn commands_serialize_per_group_and_groups_stay_independent() {
        let pool = ShardPool::spawn(ShardConfig { shards: 2, ..ShardConfig::default() });
        let (g1, g2) = (GroupId::new(1), GroupId::new(2));
        pool.create_group(g1, 3, group_seed(5, g1));
        pool.create_group(g2, 3, group_seed(5, g2));
        for gid in [g1, g2] {
            for m in 1..=3 {
                pool.apply(gid, GroupCmd::Join(p(m)));
            }
        }
        pool.apply(g1, GroupCmd::Send { from: p(1), msg: AppMsg::from("one") });
        pool.apply(g2, GroupCmd::Send { from: p(2), msg: AppMsg::from("two") });
        pool.apply(g1, GroupCmd::Run);
        pool.apply(g2, GroupCmd::Run);
        let r1 = pool.report(g1).expect("g1 hosted");
        let r2 = pool.report(g2).expect("g2 hosted");
        assert!(r1.delivered >= 2 && r2.delivered >= 2, "{r1:?} {r2:?}");
        assert_eq!(pool.finish(g1), Some(vec![]));
        assert_eq!(pool.finish(g2), Some(vec![]));
        let all = pool.report_all();
        assert_eq!(all.iter().map(|r| r.gid).collect::<Vec<_>>(), vec![g1, g2]);
        assert_eq!(pool.counters().groups_hosted.load(Ordering::Relaxed), 2);
        assert!(pool.counters().frames_routed.load(Ordering::Relaxed) >= 10);
    }

    #[test]
    fn unroutable_commands_count_instead_of_crashing() {
        let pool = ShardPool::spawn(ShardConfig::default());
        pool.apply(GroupId::new(77), GroupCmd::Run);
        assert_eq!(pool.report(GroupId::new(77)), None);
        assert!(pool.counters().frames_unroutable.load(Ordering::Relaxed) >= 1);
        assert_eq!(pool.finish(GroupId::new(77)), None);
    }

    #[test]
    fn create_is_idempotent_per_gid() {
        let pool = ShardPool::spawn(ShardConfig::default());
        let gid = GroupId::new(9);
        pool.create_group(gid, 2, 1);
        pool.apply(gid, GroupCmd::Join(p(1)));
        pool.apply(gid, GroupCmd::Join(p(2)));
        // A racing duplicate create must not reset the instance.
        pool.create_group(gid, 2, 999);
        let r = pool.report(gid).expect("hosted");
        assert_eq!(r.members.len(), 2, "duplicate create reset the group: {r:?}");
        assert_eq!(pool.counters().groups_hosted.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn hosted_group_outputs_match_isolated_instance() {
        let gid = GroupId::new(6);
        let (tx, rx) = channel();
        let sink: Sink = Arc::new(move |batch: &mut Vec<Outbound>| {
            for out in batch.drain(..) {
                tx.send(out).unwrap();
            }
        });
        let pool = ShardPool::with_sink(3, true, sink);
        pool.create_group(gid, 3, 0);
        let cmds = |apply: &mut dyn FnMut(GroupCmd)| {
            for m in 1..=3 {
                apply(GroupCmd::Join(p(m)));
            }
            apply(GroupCmd::Send { from: p(1), msg: AppMsg::from("a") });
            apply(GroupCmd::Leave(p(2)));
            apply(GroupCmd::Send { from: p(3), msg: AppMsg::from("b") });
        };
        cmds(&mut |c| pool.apply(gid, c));
        assert_eq!(pool.finish(gid), Some(vec![]));
        pool.shutdown(); // every command has been stepped and drained
        let hosted: Vec<GroupOutput> = rx
            .try_iter()
            .map(|(g, to, msg)| {
                assert_eq!(g, gid);
                GroupOutput { to, msg }
            })
            .collect();
        let mut isolated = GroupInstance::new(gid, 3, 0);
        let mut expected = Vec::new();
        cmds(&mut |c| {
            isolated.apply(c);
            isolated.run_to_quiescence();
            expected.extend(isolated.drain_outputs());
        });
        assert!(expected.len() > 8, "{expected:?}");
        assert_eq!(hosted, expected, "hosted == isolated, frame for frame");
    }

    /// A worker in daemon mode leaves no message, and no heap buffer, in
    /// any window of any group it hosts once it has stepped a command:
    /// nothing waits for a clock to be freed.
    #[test]
    fn a_daemon_worker_leaves_no_message_in_any_window_after_each_command() {
        let (sink, log) = recording();
        let counters = ShardCounters::default();
        let mut w = Worker {
            groups: BTreeMap::new(),
            out: Vec::new(),
            counters: &counters,
            auto_run: true,
            sink: &sink,
        };
        let (g1, g2) = (GroupId::new(1), GroupId::new(2));
        let mut cmds = vec![
            ShardCmd::Create { gid: g1, capacity: 3, creator: Some(p(1)) },
            ShardCmd::Create { gid: g2, capacity: 2, creator: Some(p(2)) },
        ];
        for m in [2, 3] {
            cmds.push(ShardCmd::Apply { gid: g1, cmd: GroupCmd::Join(p(m)) });
        }
        cmds.push(ShardCmd::Apply { gid: g2, cmd: GroupCmd::Join(p(1)) });
        for k in 0..12 {
            cmds.push(ShardCmd::Apply { gid: g1, cmd: send(1 + k % 3, "to g1") });
            cmds.push(ShardCmd::Apply { gid: g2, cmd: send(1 + k % 2, "to g2") });
        }
        cmds.push(ShardCmd::Apply { gid: g1, cmd: GroupCmd::Leave(p(3)) });
        cmds.push(ShardCmd::Apply { gid: g1, cmd: send(2, "without p3") });
        cmds.push(ShardCmd::Apply { gid: g1, cmd: GroupCmd::Join(p(3)) });
        cmds.push(ShardCmd::Apply { gid: g1, cmd: send(3, "back") });
        for cmd in cmds {
            assert!(w.step(cmd));
            for (gid, g) in &w.groups {
                assert!(g.windows().iter().all(|w| *w == (0, 0)), "{gid}: {:?}", g.windows());
            }
        }
        w.hand_over();
        let frames = log
            .lock()
            .unwrap()
            .iter()
            .flatten()
            .filter(|(_, _, m)| matches!(m, NetMsg::Fwd(_)))
            .count();
        assert_eq!(frames, 12 * 3 + 12 * 2 + 2 + 3);
        assert!(w.groups.values_mut().all(|g| g.finish().is_empty()));
    }

    /// Steps `cmds`, then a `Shutdown`, all queued before the worker
    /// starts, on this thread: the batches are then exactly
    /// `MAX_BATCH` commands each, the last one shorter.
    fn run_burst(cmds: Vec<ShardCmd>, sink: &Sink) -> ShardCounters {
        let (tx, rx) = channel();
        for cmd in cmds.into_iter().chain([ShardCmd::Shutdown]) {
            tx.send(cmd).unwrap();
        }
        let counters = ShardCounters::default();
        shard_main(rx, &counters, true, sink);
        counters
    }

    /// A sink that records each batch it is handed.
    fn recording() -> (Sink, Arc<std::sync::Mutex<Vec<Vec<Outbound>>>>) {
        let log: Arc<std::sync::Mutex<Vec<Vec<Outbound>>>> = Arc::default();
        let sink_log = Arc::clone(&log);
        let sink: Sink = Arc::new(move |batch: &mut Vec<Outbound>| {
            sink_log.lock().unwrap().push(std::mem::take(batch));
        });
        (sink, log)
    }

    /// What an isolated instance owes its clients for `cmds`, stepped one
    /// at a time.
    fn isolated(gid: GroupId, capacity: u64, cmds: &[GroupCmd]) -> Vec<Outbound> {
        let mut g = GroupInstance::new(gid, capacity, 0);
        let mut out = Vec::new();
        for cmd in cmds {
            g.apply(cmd.clone());
            g.run_to_quiescence();
            out.extend(g.drain_outputs().into_iter().map(|o| (gid, o.to, o.msg)));
        }
        out
    }

    fn send(from: u64, text: &str) -> GroupCmd {
        GroupCmd::Send { from: p(from), msg: AppMsg::from(text) }
    }

    /// One worker fed one burst of interleaved commands for three groups
    /// — creates fused with their creators' joins, joins, multicasts, a
    /// leave and a directory reply — hands each group exactly the frames
    /// an isolated instance produces, in its order, in one sink call per
    /// `MAX_BATCH` commands.
    #[test]
    fn one_burst_for_three_groups_gives_each_its_isolated_frames_in_order() {
        let gids = [GroupId::new(3), GroupId::new(5), GroupId::new(8)];
        let script = |k: u64| -> Vec<GroupCmd> {
            let mut cmds: Vec<GroupCmd> = (1..=3).map(|m| GroupCmd::Join(p(m))).collect();
            cmds.extend((0..40).map(|i| send(1 + (i + k) % 3, &format!("g{k} m{i}"))));
            cmds.push(GroupCmd::Leave(p(2)));
            cmds.push(send(3, "after the leave"));
            cmds
        };
        let mut cmds = Vec::new();
        let mut per_group: Vec<std::vec::IntoIter<GroupCmd>> =
            (0..3).map(|k| script(k).into_iter()).collect();
        for (gid, group) in gids.iter().zip(&mut per_group) {
            let Some(GroupCmd::Join(creator)) = group.next() else { unreachable!() };
            cmds.push(ShardCmd::Create { gid: *gid, capacity: 3, creator: Some(creator) });
        }
        let reply = GroupOutput { to: p(2), msg: NetMsg::App(AppMsg::from("ok lookup x 3")) };
        cmds.push(ShardCmd::Reply(reply.clone()));
        loop {
            let mut any = false;
            for (gid, group) in gids.iter().zip(&mut per_group) {
                if let Some(cmd) = group.next() {
                    cmds.push(ShardCmd::Apply { gid: *gid, cmd });
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        let n = cmds.len();
        let (sink, log) = recording();
        let counters = run_burst(cmds, &sink);
        let batches = log.lock().unwrap().clone();
        assert_eq!(batches.len(), n.div_ceil(MAX_BATCH), "one sink call per batch");
        let handed: Vec<Outbound> = batches.into_iter().flatten().collect();
        assert_eq!(
            handed.iter().filter(|(g, _, _)| *g == GroupId::DIRECTORY).collect::<Vec<_>>(),
            [&(GroupId::DIRECTORY, reply.to, reply.msg)]
        );
        for (k, gid) in (0..).zip(gids) {
            let hosted: Vec<Outbound> =
                handed.iter().filter(|(g, _, _)| *g == gid).cloned().collect();
            let expected = isolated(gid, 3, &script(k));
            assert!(expected.len() > 100, "{}", expected.len());
            assert_eq!(hosted, expected, "{gid}: hosted == isolated, frame for frame");
        }
        assert_eq!(counters.frames_routed.load(Ordering::Relaxed), 3 * 45);
        assert_eq!(counters.groups_hosted.load(Ordering::Relaxed), 3);
    }

    /// A batch whose outputs reach `c` idle clients costs the daemon's
    /// transport exactly `c` socket writes, each made on the worker's
    /// thread, and credits every frame as flushed.
    #[test]
    fn a_batch_reaching_c_idle_clients_raises_flushes_by_exactly_c() {
        const C: u64 = 4;
        let quiet = vsgm_net::TcpConfig {
            heartbeat_interval: std::time::Duration::ZERO,
            ..vsgm_net::TcpConfig::default()
        };
        let bind =
            |i: u64| vsgm_net::TcpTransport::bind_with(p(i), "127.0.0.1:0", quiet.clone()).unwrap();
        let server = Arc::new(bind(0));
        let clients: Vec<_> = (1..=C).map(bind).collect();
        for (i, c) in (1..).zip(&clients) {
            server.register_peer(p(i), c.local_addr());
        }

        // Dial every client, then wait for the writes to settle.
        let hello: Vec<Outbound> =
            (1..=C).map(|i| (GroupId::new(1), p(i), NetMsg::App(AppMsg::from("hi")))).collect();
        assert_eq!(server.send_batch(&hello), 0);
        for c in &clients {
            c.recv_timeout(std::time::Duration::from_secs(10)).expect("hello arrives");
        }
        let settled = |s: &vsgm_net::NetStats| s.frames_flushed == s.frames_enqueued;
        while !settled(&server.stats()) {
            std::thread::yield_now();
        }
        let before = server.stats();
        let handed: Arc<AtomicU64> = Arc::default();
        let sink: Sink = {
            let (server, handed) = (Arc::clone(&server), Arc::clone(&handed));
            Arc::new(move |batch: &mut Vec<Outbound>| {
                handed.fetch_add(batch.len() as u64, Ordering::Relaxed);
                assert_eq!(server.send_batch(batch), 0);
            })
        };
        let gid = GroupId::new(1);
        let mut cmds = vec![ShardCmd::Create { gid, capacity: C, creator: Some(p(1)) }];
        cmds.extend((2..=C).map(|m| ShardCmd::Apply { gid, cmd: GroupCmd::Join(p(m)) }));
        cmds.push(ShardCmd::Apply { gid, cmd: send(1, "to all") });
        run_burst(cmds, &sink);
        let after = server.stats();
        let frames = handed.load(Ordering::Relaxed);
        assert_eq!(after.flushes - before.flushes, C, "{before:?} {after:?}");
        assert_eq!(after.frames_flushed - before.frames_flushed, frames);
        assert_eq!(after.frames_enqueued - before.frames_enqueued, frames);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut got = 0;
        while got < frames {
            assert!(std::time::Instant::now() < deadline, "{got} of {frames} frames arrived");
            for c in &clients {
                while c.try_recv().is_some() {
                    got += 1;
                }
            }
        }
        assert_eq!(got, frames);
    }

    /// `report` and `finish` are answered only once every output of the
    /// commands queued before them has been handed to the sink, even
    /// when they share a batch with those commands.
    #[test]
    fn report_and_finish_answer_after_their_batch_is_handed_over() {
        let gid = GroupId::new(2);
        let (report_tx, report_rx) = channel();
        let (finish_tx, finish_rx) = channel();
        // Each sink call logs its batch size and the replies sent so far.
        // The sink is shared, so it reads the receivers through a lock.
        let log: Arc<std::sync::Mutex<Vec<(usize, usize)>>> = Arc::default();
        let reports: Arc<std::sync::Mutex<Vec<Option<GroupReport>>>> = Arc::default();
        let replies = Arc::new(std::sync::Mutex::new((report_rx, finish_rx)));
        let sink: Sink = {
            let (log, reports, replies) =
                (Arc::clone(&log), Arc::clone(&reports), Arc::clone(&replies));
            Arc::new(move |batch: &mut Vec<Outbound>| {
                let (report_rx, finish_rx) = &*replies.lock().unwrap();
                let mut reports = reports.lock().unwrap();
                reports.extend(report_rx.try_iter());
                let answered = reports.len() + finish_rx.try_iter().count();
                log.lock().unwrap().push((batch.len(), answered));
            })
        };
        run_burst(
            vec![
                ShardCmd::Create { gid, capacity: 2, creator: Some(p(1)) },
                ShardCmd::Apply { gid, cmd: GroupCmd::Join(p(2)) },
                ShardCmd::Apply { gid, cmd: send(1, "before the report") },
                ShardCmd::Report { gid, reply: report_tx },
                ShardCmd::Apply { gid, cmd: send(2, "before the finish") },
                ShardCmd::Finish { gid, reply: finish_tx },
            ],
            &sink,
        );
        let mut cmds = vec![GroupCmd::Join(p(1)), GroupCmd::Join(p(2)), send(1, "x")];
        let before_report = isolated(gid, 2, &cmds).len();
        cmds.push(send(2, "y"));
        let before_finish = isolated(gid, 2, &cmds).len() - before_report;
        assert!(before_report > 0 && before_finish > 0);
        assert_eq!(*log.lock().unwrap(), [(before_report, 0), (before_finish, 1)]);
        assert!(matches!(reports.lock().unwrap().as_slice(), [Some(r)] if r.delivered > 0));
        assert_eq!(replies.lock().unwrap().1.recv().unwrap(), Some(vec![]));
    }
}
