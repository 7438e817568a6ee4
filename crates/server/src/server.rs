//! The `vsgm-server` daemon: one TCP transport, many groups.
//!
//! The paper's client-server architecture (§3) assumes servers that
//! host group state for many lightweight clients. [`GroupServer`] is
//! that server: it binds one event-loop [`TcpTransport`], routes every
//! inbound frame by its v2 group envelope, and dispatches to the
//! [`ShardPool`] — `gid → shard` arithmetic, one lock-free channel send,
//! no cross-shard locks on the hot path.
//!
//! Frame routing:
//!
//! * envelope to [`GroupId::DIRECTORY`] — control plane. The UTF-8
//!   payload is a [`DirRequest`] (`create/join/lookup/leave <name>`);
//!   the reply goes back to the requesting client on the same reserved
//!   group.
//! * envelope to any other gid — data plane. An `App` payload becomes a
//!   [`GroupCmd::Send`] from the client's process id, which doubles as
//!   its member id within every group it joins.
//! * un-enveloped legacy frames have no group context on a multi-group
//!   server and are counted as unroutable rather than guessed at.
//!
//! Deliveries and view installations flow back to clients as enveloped
//! `Fwd`/`ViewMsg` frames ([`crate::group::GroupInstance::drain_outputs`]).
//! Because inbound connections are identified only by the 8-byte pid
//! handshake, the reverse path needs addresses:
//! [`GroupServer::register_client`].

use crate::directory::{err_response, ok_response, DirOutcome, DirRequest, Directory};
use crate::group::{admits, GroupCmd};
use crate::shard::{ShardConfig, ShardPool};
use crossbeam::channel::{unbounded, Receiver};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vsgm_net::{TcpConfig, TcpTransport};
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
    /// non-App data-plane payloads).
    pub frames_unroutable: u64,
    /// Directory creates / joins / lookups / leaves.
    pub dir_creates: u64,
    /// Directory joins: `join` requests that resolved, and `create`
    /// requests that lost the race for the name.
    pub dir_joins: u64,
    /// Directory lookups.
    pub dir_lookups: u64,
    /// Directory leaves.
    pub dir_leaves: u64,
}

/// The multi-group daemon. See the module docs.
pub struct GroupServer {
    transport: Arc<TcpTransport>,
    directory: Arc<Directory>,
    pool: Arc<ShardPool>,
    shutdown: Arc<AtomicBool>,
    router: Option<std::thread::JoinHandle<()>>,
    forwarder: Option<std::thread::JoinHandle<()>>,
}

impl GroupServer {
    /// Binds the daemon's transport as process `me` on `addr` and
    /// starts the router, forwarder, and shard workers.
    ///
    /// # Errors
    ///
    /// Returns any error from binding the TCP listener.
    pub fn bind(me: ProcessId, addr: &str, cfg: ServerConfig) -> io::Result<GroupServer> {
        let transport = Arc::new(TcpTransport::bind_with(me, addr, cfg.tcp.clone())?);
        let directory = Arc::new(Directory::new());
        let (out_tx, out_rx) = unbounded();
        let pool = Arc::new(ShardPool::spawn(ShardConfig {
            shards: cfg.shards,
            auto_run: true,
            outputs: Some(out_tx),
        }));
        let shutdown = Arc::new(AtomicBool::new(false));
        let router = {
            let transport = Arc::clone(&transport);
            let directory = Arc::clone(&directory);
            let pool = Arc::clone(&pool);
            let shutdown = Arc::clone(&shutdown);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("vsgm-server-router".into())
                .spawn(move || router_main(&transport, &directory, &pool, &shutdown, &cfg))
                // vsgm-allow(P1): thread-spawn failure is OS resource
                // exhaustion at daemon startup — nothing to unwind to
                .expect("spawn server router")
        };
        let forwarder = {
            let transport = Arc::clone(&transport);
            std::thread::Builder::new()
                .name("vsgm-server-fwd".into())
                .spawn(move || forwarder_main(&transport, &out_rx))
                // vsgm-allow(P1): as above
                .expect("spawn server forwarder")
        };
        Ok(GroupServer {
            transport,
            directory,
            pool,
            shutdown,
            router: Some(router),
            forwarder: Some(forwarder),
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.transport.local_addr()
    }

    /// Registers where client `peer` listens, enabling the delivery /
    /// directory-response path back to it.
    pub fn register_client(&self, peer: ProcessId, addr: SocketAddr) {
        self.transport.register_peer(peer, addr);
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
        self.directory.export_obs(rec);
    }
}

impl Drop for GroupServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.router.take() {
            let _ = h.join();
        }
        // Stopping the shard workers closes the output channel (they
        // hold its only senders), which lets the forwarder exit.
        self.pool.shutdown();
        if let Some(h) = self.forwarder.take() {
            let _ = h.join();
        }
    }
}

fn router_main(
    transport: &TcpTransport,
    directory: &Directory,
    pool: &ShardPool,
    shutdown: &AtomicBool,
    cfg: &ServerConfig,
) {
    while !shutdown.load(Ordering::SeqCst) {
        let Some((peer, group, msg)) = transport.recv_routed_timeout(Duration::from_millis(25))
        else {
            continue;
        };
        match group {
            Some(GroupId::DIRECTORY) => {
                if let NetMsg::App(req) = msg {
                    let reply = handle_directory(directory, pool, cfg, peer, req.as_bytes());
                    let to = [peer].into_iter().collect();
                    let _ = transport.send_to_group(
                        GroupId::DIRECTORY,
                        &to,
                        &NetMsg::App(AppMsg::from(reply.as_str())),
                    );
                }
            }
            Some(gid) => match msg {
                NetMsg::App(payload) => {
                    pool.apply(gid, GroupCmd::Send { from: peer, msg: payload });
                }
                _ => {
                    // Data-plane frames other than App are not part of
                    // the client protocol.
                    pool.counters().frames_unroutable.fetch_add(1, Ordering::Relaxed);
                }
            },
            None => {
                // Legacy single-group frame: no group context here.
                pool.counters().frames_unroutable.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn handle_directory(
    directory: &Directory,
    pool: &ShardPool,
    cfg: &ServerConfig,
    peer: ProcessId,
    raw: &[u8],
) -> String {
    let Ok(line) = std::str::from_utf8(raw) else {
        return err_response("bad-request", "?");
    };
    let Some(req) = DirRequest::parse(line) else {
        return err_response("bad-request", line.trim());
    };
    // A group admits process ids 1..=group_capacity only; an `ok` to
    // anyone else would leave them waiting for a view that never comes.
    if let DirRequest::Create(name) | DirRequest::Join(name) = &req {
        if !admits(cfg.group_capacity, peer) {
            return err_response("over-capacity", name);
        }
    }
    match req {
        DirRequest::Create(name) => {
            // Atomic create-or-join: exactly one concurrent creator
            // instantiates the group; every other caller joins it.
            let outcome = directory.create_or_join(&name);
            let gid = outcome.gid();
            if let DirOutcome::Created(gid) = outcome {
                pool.create_group(gid, cfg.group_capacity, 0);
            }
            pool.apply(gid, GroupCmd::Join(peer));
            let verb = match outcome {
                DirOutcome::Created(_) => "create",
                DirOutcome::Joined(_) => "join",
            };
            ok_response(verb, &name, gid)
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

fn forwarder_main(
    transport: &TcpTransport,
    outputs: &Receiver<(GroupId, ProcessId, NetMsg)>,
) {
    // Exits when every shard worker (the only senders) has shut down.
    while let Ok((gid, to, msg)) = outputs.recv() {
        let to = [to].into_iter().collect();
        let _ = transport.send_to_group(gid, &to, &msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use vsgm_net::Transport;

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
            let t = TcpTransport::bind(p(me), "127.0.0.1:0")
                .expect("bind client");
            t.register_peer(p(0), server.local_addr());
            server.register_client(p(me), t.local_addr());
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
        let pool = ShardPool::spawn(ShardConfig::default());
        let cfg = ServerConfig { group_capacity: 2, ..ServerConfig::default() };
        let ask = |peer: u64, line: &str| {
            handle_directory(&directory, &pool, &cfg, p(peer), line.as_bytes())
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
        assert_eq!(c.request("gibberish"), "err bad-request gibberish");
        // A frame to an unhosted gid and a legacy un-enveloped frame are
        // counted, not crashed on.
        c.send(GroupId::new(99), "void");
        let to = [p(0)].into_iter().collect();
        c.t.send(&to, &NetMsg::App(AppMsg::from("legacy"))).expect("legacy send");
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().frames_unroutable < 2 {
            assert!(Instant::now() < deadline, "unroutable frames never counted");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.stats().groups_hosted, 0);
    }
}
