//! The shard pool: group-id → worker routing with no cross-shard locks
//! on the hot path.
//!
//! Each shard is one worker thread owning a `BTreeMap<GroupId,
//! GroupInstance>` it alone touches — group state needs no lock at all,
//! because ownership is partitioned, not shared. Routing is pure
//! arithmetic (`gid.raw() % shards`), so dispatching a command takes
//! only the lock-free channel send to the owning shard; groups on
//! different shards never contend, and groups on the same shard
//! serialize through their channel in arrival order (the total per-group
//! command order the differential suite relies on).
//!
//! In daemon mode a worker hands what each step drained to the pool's
//! sink, on its own thread: the [`ShardConfig::outputs`] channel, or the
//! daemon's client sockets.
//!
//! Determinism discipline (analyzer rule D1 pins this file): ordered
//! containers only, no ambient clocks or randomness. Wall-clock pacing
//! and sockets live in `server.rs`, behind the daemon's sink; a hosted
//! group has no notion of time.

use crate::group::{GroupCmd, GroupInstance, GroupOutput, GroupReport};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vsgm_ioa::Violation;
use vsgm_types::{GroupId, NetMsg, ProcessId};

/// Where a worker hands the frames it owes clients: `(gid, outputs)`,
/// called on the worker's thread with one step's outputs in order.
pub(crate) type Sink = Arc<dyn Fn(GroupId, Vec<GroupOutput>) + Send + Sync>;

/// A command routed to the shard owning one group.
enum ShardCmd {
    /// Instantiate a group (idempotent: re-creating an existing gid is
    /// ignored — the directory already guarantees one winner).
    Create { gid: GroupId, capacity: u64 },
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
    // vsgm-lock-tier(6): leaf — taken only by shutdown/Drop to drain the
    // join handles; never held while sending on a shard channel.
    handles: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
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
    pub outputs: Option<Sender<(GroupId, ProcessId, NetMsg)>>,
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
            Some(tx) => Arc::new(move |gid, drained| {
                for out in drained {
                    let _ = tx.send((gid, out.to, out.msg));
                }
            }),
            None => Arc::new(|_, _| {}),
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
            let (tx, rx) = unbounded();
            let counters = Arc::clone(&counters);
            let sink = sink.clone();
            let handle = std::thread::Builder::new()
                .name(format!("vsgm-shard-{i}"))
                .spawn(move || shard_main(&rx, &counters, auto_run, &sink))
                // vsgm-allow(P1): thread-spawn failure is OS resource
                // exhaustion at server startup — nothing to unwind to
                .expect("spawn shard worker");
            senders.push(tx);
            handles.push(handle);
        }
        ShardPool { senders, handles: parking_lot::Mutex::new(handles), counters }
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
        self.send_to(self.shard_of(gid), ShardCmd::Create { gid, capacity });
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
        let (reply, rx) = unbounded();
        self.send_to(self.shard_of(gid), ShardCmd::Report { gid, reply });
        rx.recv().ok().flatten()
    }

    /// Blocking snapshot of every hosted group, ordered by gid.
    pub fn report_all(&self) -> Vec<GroupReport> {
        let mut replies = Vec::with_capacity(self.senders.len());
        for tx in &self.senders {
            let (reply, rx) = unbounded();
            if tx.send(ShardCmd::ReportAll { reply }).is_ok() {
                replies.push(rx);
            }
        }
        let mut all: Vec<GroupReport> =
            replies.into_iter().filter_map(|rx| rx.recv().ok()).flatten().collect();
        all.sort_by_key(|r| r.gid);
        all
    }

    /// Blocking checker finalization for one group (`None` if unhosted).
    pub fn finish(&self, gid: GroupId) -> Option<Vec<Violation>> {
        let (reply, rx) = unbounded();
        self.send_to(self.shard_of(gid), ShardCmd::Finish { gid, reply });
        rx.recv().ok().flatten()
    }

    /// Stops every worker after it drains its queue, and joins them.
    /// Idempotent; later commands are dropped.
    pub fn shutdown(&self) {
        for tx in &self.senders {
            let _ = tx.send(ShardCmd::Shutdown);
        }
        let handles: Vec<_> = self.handles.lock().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn shard_main(
    rx: &Receiver<ShardCmd>,
    counters: &ShardCounters,
    auto_run: bool,
    sink: &Sink,
) {
    let mut groups: BTreeMap<GroupId, GroupInstance> = BTreeMap::new();
    while let Ok(cmd) = rx.recv() {
        match cmd {
            ShardCmd::Create { gid, capacity } => {
                if let std::collections::btree_map::Entry::Vacant(slot) = groups.entry(gid) {
                    slot.insert(GroupInstance::new(gid, capacity, 0));
                    counters.groups_hosted.fetch_add(1, Ordering::Relaxed);
                }
            }
            ShardCmd::Apply { gid, cmd } => match groups.get_mut(&gid) {
                Some(g) => {
                    counters.frames_routed.fetch_add(1, Ordering::Relaxed);
                    g.apply(cmd);
                    if auto_run {
                        g.run_to_quiescence();
                        sink(gid, g.drain_outputs());
                    }
                }
                None => {
                    counters.frames_unroutable.fetch_add(1, Ordering::Relaxed);
                }
            },
            ShardCmd::Reply(out) => sink(GroupId::DIRECTORY, vec![out]),
            ShardCmd::Report { gid, reply } => {
                let _ = reply.send(groups.get(&gid).map(GroupInstance::report));
            }
            ShardCmd::ReportAll { reply } => {
                let _ = reply.send(groups.values().map(GroupInstance::report).collect());
            }
            ShardCmd::Finish { gid, reply } => {
                let _ = reply.send(groups.get_mut(&gid).map(GroupInstance::finish));
            }
            ShardCmd::Shutdown => break,
        }
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
        let (tx, rx) = unbounded();
        let pool = ShardPool::spawn(ShardConfig { shards: 3, auto_run: true, outputs: Some(tx) });
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
}
