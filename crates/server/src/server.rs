//! The `vsgm-server` daemon: one TCP transport, many groups.
//!
//! The paper's client-server architecture (§3) assumes servers that
//! host group state for many lightweight clients. [`GroupServer`] is
//! that server: one event-loop [`TcpTransport`] and one [`ShardPool`],
//! nothing in between. The loop that decodes a frame routes it by its
//! v2 group envelope:
//!
//! * to [`GroupId::DIRECTORY`] — control plane. The UTF-8 `App` payload
//!   is a [`DirRequest`] (`create/join/lookup/leave <name>`); the reply
//!   goes back to the client on the same reserved group.
//! * to any other gid — data plane. An `App` payload becomes a
//!   [`GroupCmd::Send`] on shard `gid % shards` from the client's process
//!   id, which doubles as its member id within every group it joins.
//! * anything else — a non-`App` frame, or an un-enveloped legacy frame
//!   with no group context — is counted as unroutable, not guessed at.
//!
//! A loop never blocks (DESIGN.md §17): routing only touches the
//! [`Directory`], queues commands and bumps counters. Every write the
//! daemon starts — directory replies, deliveries and views
//! ([`crate::group::GroupInstance::drain_outputs`]) — is started by a
//! shard worker: once per batch of commands, one
//! [`TcpTransport::send_batch`] that pushes one buffer per client, written
//! on the worker's thread when the client's connection is idle.
//!
//! A client dials the daemon and names itself in the transport's 8-byte
//! pid handshake; everything the daemon sends it goes back on that one
//! connection. The daemon never dials: it knows no client's address.
//! Frames it could not queue — to a client whose connection has closed,
//! until it connects again — are counted in
//! [`ServerStats::frames_unsent`]. One connection lives on one loop, so a
//! client's frames reach its groups' shards in the order it sent them; a
//! new group's `Create`, fused with its creator's `Join`, is queued before
//! any loop can resolve its name.

use crate::directory::{err_response, ok_response, DirOutcome, DirRequest, Directory};
use crate::group::{admits, GroupCmd};
use crate::shard::{ShardPool, Sink};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use vsgm_net::tiered::blocking;
use vsgm_net::{FrameHandler, NetStats, TcpConfig, TcpTransport};
use vsgm_types::{AppMsg, GroupId, NetMsg, ProcessId};

/// Daemon knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Shard worker threads (`gid % shards` routing).
    pub shards: usize,
    /// The highest client process id that can join a group: ids
    /// `1..=group_capacity` are admitted, the rest are refused with
    /// `err over-capacity`.
    pub group_capacity: u64,
    /// Transport knobs for the daemon's socket.
    pub tcp: TcpConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { shards: 4, group_capacity: 16, tcp: TcpConfig::default() }
    }
}

/// Counter snapshot across the daemon's layers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Group instances currently hosted.
    pub groups_hosted: u64,
    /// Shard worker threads.
    pub shards: u64,
    /// Frames routed to a hosted group.
    pub frames_routed: u64,
    /// Frames with no routable group (unknown gid, missing envelope, or
    /// non-App payloads on any group).
    pub frames_unroutable: u64,
    /// Directory creates: `create` requests that made a new group.
    pub dir_creates: u64,
    /// Directory joins: `join` requests that resolved, and `create`
    /// requests that lost the race for the name.
    pub dir_joins: u64,
    /// Directory lookups.
    pub dir_lookups: u64,
    /// Directory leaves: `leave` requests that resolved.
    pub dir_leaves: u64,
    /// Frames the shards owed clients that could not be queued on a
    /// client's connection: it has closed (and the client has not
    /// connected again), or it is broken or stalled.
    pub frames_unsent: u64,
}

/// The multi-group daemon. See the module docs.
pub struct GroupServer {
    transport: Arc<TcpTransport>,
    directory: Arc<Directory>,
    pool: Arc<ShardPool>,
    /// Frames the sink could not queue ([`ServerStats::frames_unsent`]).
    unsent: Arc<AtomicU64>,
}

impl GroupServer {
    /// Binds the daemon's transport as process `me` on `addr` and
    /// starts the shard workers.
    ///
    /// # Errors
    ///
    /// Returns any error from binding the TCP listener.
    pub fn bind(me: ProcessId, addr: &str, cfg: ServerConfig) -> io::Result<GroupServer> {
        let directory = Arc::new(Directory::new());
        // The loops' router holds the pool, and the pool's sink needs
        // the transport: the sink gets a weak handle once it is bound.
        let bound: Arc<OnceLock<Weak<TcpTransport>>> = Arc::default();
        let unsent: Arc<AtomicU64> = Arc::default();
        let pool = Arc::new(ShardPool::with_sink(cfg.shards, true, send_on(&bound, &unsent)));
        let router = route(Arc::clone(&directory), Arc::clone(&pool), cfg.group_capacity);
        let transport = TcpTransport::bind_with_handler(me, addr, cfg.tcp, router).map(Arc::new);
        // Set even on failure, so that no worker waits for it forever.
        let _ = bound.set(transport.as_ref().map_or_else(|_| Weak::new(), Arc::downgrade));
        Ok(GroupServer { transport: transport?, directory, pool, unsent })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.transport.local_addr()
    }

    /// Does nothing: the daemon answers each client on the connection the
    /// client dialed, and never dials a client back. Kept for callers
    /// written when it did.
    pub fn register_client(&self, _peer: ProcessId, _addr: SocketAddr) {}

    /// The daemon transport's counters: it dials nobody, so its
    /// [`NetStats::retries`] stay 0.
    pub fn net_stats(&self) -> NetStats {
        self.transport.stats()
    }

    /// How many clients the daemon's transport keeps a record of: those
    /// with an open connection ([`TcpTransport::peer_records`]).
    pub fn client_records(&self) -> usize {
        self.transport.peer_records()
    }

    /// The name service.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// The shard pool (snapshots, conformance checks).
    pub fn shards(&self) -> &ShardPool {
        &self.pool
    }

    /// Counter snapshot across directory and shards.
    pub fn stats(&self) -> ServerStats {
        let c = self.pool.counters();
        let (dir_creates, dir_joins, dir_lookups, dir_leaves) = self.directory.counters();
        ServerStats {
            groups_hosted: c.groups_hosted.load(Ordering::Relaxed),
            shards: self.pool.shards() as u64,
            frames_routed: c.frames_routed.load(Ordering::Relaxed),
            frames_unroutable: c.frames_unroutable.load(Ordering::Relaxed),
            dir_creates,
            dir_joins,
            dir_lookups,
            dir_leaves,
            frames_unsent: self.unsent.load(Ordering::Relaxed),
        }
    }

    /// Mirrors the `server.*` counters into an observability recorder
    /// (one-shot export, like `TcpTransport::export_obs`).
    pub fn export_obs(&self, rec: &mut dyn vsgm_obs::Recorder) {
        use vsgm_obs::names;
        let s = self.stats();
        rec.gauge(names::SERVER_GROUPS_HOSTED, s.groups_hosted);
        rec.gauge(names::SERVER_SHARDS, s.shards);
        rec.counter(names::SERVER_FRAMES_ROUTED, s.frames_routed);
        rec.counter(names::SERVER_FRAMES_UNROUTABLE, s.frames_unroutable);
        rec.counter(names::SERVER_FRAMES_UNSENT, s.frames_unsent);
        self.directory.export_obs(rec);
    }
}

impl Drop for GroupServer {
    fn drop(&mut self) {
        // Step what the shards hold and send it while the transport is
        // open. Dropping the transport then closes its sockets; its
        // loops, whose router holds the pool, exit within their grace.
        self.pool.shutdown();
    }
}

/// The shards' sink: a batch's outputs, each enveloped to its group,
/// one buffer per client — on the worker's thread. Counts the frames
/// that could not be queued into `unsent`.
fn send_on(bound: &Arc<OnceLock<Weak<TcpTransport>>>, unsent: &Arc<AtomicU64>) -> Sink {
    let (bound, unsent) = (Arc::clone(bound), Arc::clone(unsent));
    Arc::new(move |batch| {
        // Outputs follow frames, which can beat `bind` storing the
        // handle by a moment; a handle that does not upgrade belongs to
        // a daemon that failed to bind or is shutting down.
        let lost = match blocking(|| bound.wait()).upgrade() {
            Some(transport) => transport.send_batch(batch),
            None => batch.len() as u64,
        };
        unsent.fetch_add(lost, Ordering::Relaxed);
    })
}

/// The loops' frame handler. It must not block (module docs): it calls
/// only the directory, the pool's queueing calls and the counters.
fn route(directory: Arc<Directory>, pool: Arc<ShardPool>, capacity: u64) -> FrameHandler {
    Box::new(move |peer, group, msg| match (group, msg) {
        (Some(GroupId::DIRECTORY), NetMsg::App(req)) => {
            let reply = handle_directory(&directory, &pool, capacity, peer, req.as_bytes());
            pool.reply(peer, NetMsg::App(AppMsg::from(reply.as_str())));
        }
        (Some(gid), NetMsg::App(payload)) => {
            pool.apply(gid, GroupCmd::Send { from: peer, msg: payload });
        }
        _ => {
            pool.counters().frames_unroutable.fetch_add(1, Ordering::Relaxed);
        }
    })
}

fn handle_directory(
    directory: &Directory,
    pool: &ShardPool,
    capacity: u64,
    peer: ProcessId,
    raw: &[u8],
) -> String {
    let Ok(line) = std::str::from_utf8(raw) else {
        return err_response("bad-request", "?");
    };
    let Some(req) = DirRequest::parse(line) else {
        return err_response("bad-request", line.trim());
    };
    // A group admits process ids 1..=capacity only; an `ok` to anyone
    // else would leave them waiting for a view that never comes.
    if let DirRequest::Create(name) | DirRequest::Join(name) = &req {
        if !admits(capacity, peer) {
            return err_response("over-capacity", name);
        }
    }
    match req {
        DirRequest::Create(name) => {
            // Atomic create-or-join: exactly one concurrent creator
            // instantiates the group, queueing its `Create` before any
            // other loop can resolve the name; every other caller joins.
            // The winner's `Create` carries its `Join`: one command.
            let outcome = directory
                .create_or_join_with(&name, |gid| pool.create_and_join(gid, capacity, peer));
            let verb = match outcome {
                DirOutcome::Created(_) => "create",
                DirOutcome::Joined(gid) => {
                    pool.apply(gid, GroupCmd::Join(peer));
                    "join"
                }
            };
            ok_response(verb, &name, outcome.gid())
        }
        DirRequest::Join(name) => match directory.join(&name) {
            Some(gid) => {
                pool.apply(gid, GroupCmd::Join(peer));
                ok_response("join", &name, gid)
            }
            None => err_response("unknown-group", &name),
        },
        DirRequest::Lookup(name) => match directory.lookup(&name) {
            Some(gid) => ok_response("lookup", &name, gid),
            None => err_response("unknown-group", &name),
        },
        DirRequest::Leave(name) => match directory.leave(&name) {
            Some(gid) => {
                pool.apply(gid, GroupCmd::Leave(peer));
                ok_response("leave", &name, gid)
            }
            None => err_response("unknown-group", &name),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    struct Client {
        t: TcpTransport,
        server: ProcessId,
        /// Frames received while waiting for something else; kept so a
        /// later await can still observe them (two awaits in sequence
        /// must not drop each other's frames).
        pending: std::cell::RefCell<Vec<(ProcessId, Option<GroupId>, NetMsg)>>,
    }

    impl Client {
        fn connect(me: u64, server: &GroupServer) -> Client {
            let t = TcpTransport::bind(p(me), "127.0.0.1:0").expect("bind client");
            t.register_peer(p(0), server.local_addr());
            Client { t, server: p(0), pending: std::cell::RefCell::new(Vec::new()) }
        }

        /// Waits until a frame satisfying `want` arrives: first scans the
        /// pending buffer, then polls the socket, parking non-matching
        /// frames in the buffer for later awaits.
        fn await_frame(
            &self,
            what: &str,
            mut want: impl FnMut(&(ProcessId, Option<GroupId>, NetMsg)) -> bool,
        ) -> (ProcessId, Option<GroupId>, NetMsg) {
            {
                let mut pending = self.pending.borrow_mut();
                if let Some(i) = pending.iter().position(&mut want) {
                    return pending.remove(i);
                }
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match self.t.recv_routed_timeout(Duration::from_millis(100)) {
                    Some(frame) if want(&frame) => return frame,
                    Some(other) => self.pending.borrow_mut().push(other),
                    None => assert!(Instant::now() < deadline, "{what} never arrived"),
                }
            }
        }

        fn request(&self, line: &str) -> String {
            let to = [self.server].into_iter().collect();
            self.t
                .send_to_group(GroupId::DIRECTORY, &to, &NetMsg::App(AppMsg::from(line)))
                .expect("send directory request");
            let frame = self.await_frame("directory reply", |(_, g, m)| {
                matches!((g, m), (Some(GroupId::DIRECTORY), NetMsg::App(_)))
            });
            match frame {
                (_, _, NetMsg::App(reply)) => {
                    String::from_utf8_lossy(reply.as_bytes()).into_owned()
                }
                other => panic!("matched non-App frame {other:?}"),
            }
        }

        fn send(&self, gid: GroupId, payload: &str) {
            let to = [self.server].into_iter().collect();
            self.t
                .send_to_group(gid, &to, &NetMsg::App(AppMsg::from(payload)))
                .expect("send group frame");
        }

        fn await_delivery(&self, gid: GroupId, from: ProcessId, payload: &str) {
            self.await_frame(&format!("delivery of {payload:?} in {gid}"), |(_, g, m)| {
                matches!(m, NetMsg::Fwd(f)
                    if *g == Some(gid) && f.origin == from && f.msg == AppMsg::from(payload))
            });
        }
    }

    #[test]
    fn over_capacity_create_and_join_are_refused_before_anything_is_touched() {
        let directory = Directory::new();
        let pool = ShardPool::spawn(crate::ShardConfig::default());
        let ask = |peer: u64, line: &str| {
            handle_directory(&directory, &pool, 2, p(peer), line.as_bytes())
        };
        // Nobody outside 1..=2 (pid 0 included) may create a group...
        assert_eq!(ask(3, "create room"), "err over-capacity room");
        assert_eq!(ask(0, "create room"), "err over-capacity room");
        assert!(directory.is_empty(), "a refused create must not register the name");
        assert_eq!(pool.counters().groups_hosted.load(Ordering::Relaxed), 0);
        // ...or join one that exists.
        assert_eq!(ask(1, "create room"), "ok create room 1");
        assert_eq!(ask(3, "join room"), "err over-capacity room");
        assert_eq!(ask(0, "join room"), "err over-capacity room");
        assert_eq!(ask(3, "create room"), "err over-capacity room");
        assert_eq!(directory.counters(), (1, 0, 0, 0), "refusals touch no counter");
        let report = pool.report(GroupId::new(1)).expect("hosted");
        assert_eq!(report.members, [p(1)].into_iter().collect());
        // A malformed verb from the same client is a bad request, not a
        // capacity matter; verbs that join nobody are still answered.
        assert_eq!(ask(3, "crate room"), "err bad-request crate room");
        assert_eq!(ask(3, "join"), "err bad-request join");
        assert_eq!(ask(3, "lookup room"), "ok lookup room 1");
        assert_eq!(ask(2, "join room"), "ok join room 1");
    }

    #[test]
    fn end_to_end_create_join_send_deliver() {
        let server =
            GroupServer::bind(p(0), "127.0.0.1:0", ServerConfig::default()).expect("bind server");
        let alice = Client::connect(1, &server);
        let bob = Client::connect(2, &server);
        let reply = alice.request("create room");
        assert_eq!(reply, "ok create room 1");
        let reply = bob.request("create room");
        assert_eq!(reply, "ok join room 1", "second creator joins the same instance");
        let gid = GroupId::new(1);
        alice.send(gid, "hello-bob");
        bob.await_delivery(gid, p(1), "hello-bob");
        bob.send(gid, "hello-alice");
        alice.await_delivery(gid, p(2), "hello-alice");
        let stats = server.stats();
        assert_eq!(stats.groups_hosted, 1);
        assert!(stats.frames_routed >= 4, "{stats:?}");
        assert_eq!(stats.dir_creates, 1);
        assert_eq!(stats.dir_joins, 1);
        // The hosted group's spec checkers are green.
        assert_eq!(server.shards().finish(gid), Some(vec![]));
        let mut reg = vsgm_obs::Registry::new();
        server.export_obs(&mut reg);
        assert_eq!(reg.counter(vsgm_obs::names::SERVER_FRAMES_ROUTED), stats.frames_routed);
    }

    #[test]
    fn groups_are_independent_on_one_server() {
        let server =
            GroupServer::bind(p(0), "127.0.0.1:0", ServerConfig::default()).expect("bind server");
        let a = Client::connect(1, &server);
        let b = Client::connect(2, &server);
        assert_eq!(a.request("create red"), "ok create red 1");
        assert_eq!(b.request("create blue"), "ok create blue 2");
        assert_eq!(a.request("join blue"), "ok join blue 2");
        assert_eq!(b.request("join red"), "ok join red 1");
        a.send(GroupId::new(1), "red-msg");
        a.send(GroupId::new(2), "blue-msg");
        b.await_delivery(GroupId::new(1), p(1), "red-msg");
        b.await_delivery(GroupId::new(2), p(1), "blue-msg");
        let stats = server.stats();
        assert_eq!(stats.groups_hosted, 2);
        // Two `create` winners, two `join`s, and nobody looked anything up.
        assert_eq!((stats.dir_creates, stats.dir_joins, stats.dir_lookups), (2, 2, 0), "{stats:?}");
        assert_eq!(server.shards().finish(GroupId::new(1)), Some(vec![]));
        assert_eq!(server.shards().finish(GroupId::new(2)), Some(vec![]));
    }

    #[test]
    fn directory_errors_and_unroutable_frames_are_graceful() {
        let server =
            GroupServer::bind(p(0), "127.0.0.1:0", ServerConfig::default()).expect("bind server");
        let c = Client::connect(1, &server);
        assert_eq!(c.request("join nowhere"), "err unknown-group nowhere");
        assert_eq!(c.request("lookup nowhere"), "err unknown-group nowhere");
        assert_eq!(c.request("leave nowhere"), "err unknown-group nowhere");
        assert_eq!(c.request("gibberish"), "err bad-request gibberish");
        let stats = server.stats();
        assert_eq!(
            (stats.dir_creates, stats.dir_joins, stats.dir_lookups, stats.dir_leaves),
            (0, 0, 1, 0),
            "a verb that resolves nothing joins or leaves nothing"
        );
        // A frame to an unhosted gid, a legacy un-enveloped frame and a
        // non-App frame on the directory's group are counted, not
        // crashed on.
        c.send(GroupId::new(99), "void");
        let to = [p(0)].into_iter().collect();
        c.t.send(&to, &NetMsg::App(AppMsg::from("legacy"))).expect("legacy send");
        let view = NetMsg::ViewMsg(vsgm_types::View::initial(p(1)));
        c.t.send_to_group(GroupId::DIRECTORY, &to, &view).expect("view on group 0");
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().frames_unroutable < 3 {
            assert!(Instant::now() < deadline, "unroutable frames never counted");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.stats().frames_unroutable, 3);
        assert_eq!(server.stats().groups_hosted, 0);
    }
}
