//! The daemon as its process sees it: the threads a serving
//! `GroupServer` runs, that dropping one gives back every thread and
//! descriptor it took, that one client's frames reach its group in the
//! order the client sent them, directory verbs included, and that
//! clients racing `create`/`join` from different loops all end in views.
//! A client only dials: the daemon answers on that one connection — the
//! shipped binary too — and forgets the client when it closes.
//!
//! The tests run one at a time ([`serial`]): some of them read
//! process-wide `/proc/self` counts that a neighbour would skew.

use std::cell::RefCell;
use std::collections::BTreeMap;
#[cfg(debug_assertions)]
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
#[cfg(debug_assertions)]
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use vsgm_net::{TcpConfig, TcpTransport};
use vsgm_server::{GroupServer, ServerConfig};
use vsgm_types::{AppMsg, GroupId, NetMsg, ProcSet, ProcessId};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn wait_until(what: &str, deadline: Duration, mut ok: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !ok() {
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn two_shards() -> GroupServer {
    let cfg = ServerConfig { shards: 2, tcp: TcpConfig::default(), ..ServerConfig::default() };
    GroupServer::bind(p(0), "127.0.0.1:0", cfg).expect("bind daemon")
}

/// This process's `vsgm-*` threads, counted by name (`comm` keeps 15
/// bytes; `vsgm-net-loop` and `vsgm-shard-<i>` fit).
fn vsgm_threads() -> BTreeMap<String, usize> {
    let mut by_name = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs").flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if comm.starts_with("vsgm-") {
            *by_name.entry(comm.trim().to_string()).or_default() += 1;
        }
    }
    by_name
}

fn count_dir(path: &str) -> usize {
    std::fs::read_dir(path).map(|d| d.count()).unwrap_or(0)
}

/// This process's open sockets: the listeners and connections of every
/// transport in it.
fn open_sockets() -> usize {
    let fds = std::fs::read_dir("/proc/self/fd").expect("procfs").flatten();
    fds.filter(|fd| {
        std::fs::read_link(fd.path()).is_ok_and(|t| t.to_string_lossy().starts_with("socket:"))
    })
    .count()
}

type Frame = (ProcessId, Option<GroupId>, NetMsg);

/// A bare client: one transport with one loop, and the frames it has
/// received while waiting for others.
struct Client {
    t: TcpTransport,
    pending: RefCell<Vec<Frame>>,
}

impl Client {
    fn connect(me: u64, server: &GroupServer) -> Client {
        let cfg = TcpConfig { loop_threads: 1, ..TcpConfig::default() };
        let t = TcpTransport::bind_with(p(me), "127.0.0.1:0", cfg).expect("bind client");
        t.register_peer(p(0), server.local_addr());
        Client { t, pending: RefCell::new(Vec::new()) }
    }

    fn to_server(&self, gid: GroupId, text: &str) {
        let server: ProcSet = [p(0)].into_iter().collect();
        self.t.send_to_group(gid, &server, &NetMsg::App(AppMsg::from(text))).expect("send");
    }

    /// The first frame, buffered or arriving, that `want` accepts.
    fn await_frame(&self, what: &str, mut want: impl FnMut(&Frame) -> bool) -> Frame {
        let buffered = self.pending.borrow().iter().position(&mut want);
        if let Some(i) = buffered {
            return self.pending.borrow_mut().remove(i);
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

    fn await_reply(&self) -> String {
        match self.await_frame("directory reply", |(_, g, m)| {
            *g == Some(GroupId::DIRECTORY) && matches!(m, NetMsg::App(_))
        }) {
            (_, _, NetMsg::App(reply)) => String::from_utf8_lossy(reply.as_bytes()).into_owned(),
            other => panic!("not a reply: {other:?}"),
        }
    }

    fn request(&self, line: &str) -> String {
        self.to_server(GroupId::DIRECTORY, line);
        self.await_reply()
    }

    fn await_delivery(&self, gid: GroupId, from: ProcessId, text: &str) {
        self.await_frame(&format!("delivery of {text:?} in {gid}"), |(_, g, m)| {
            matches!(m, NetMsg::Fwd(f)
                if *g == Some(gid) && f.origin == from && f.msg == AppMsg::from(text))
        });
    }

    fn await_view(&self, gid: GroupId, members: &[u64]) {
        let want: ProcSet = members.iter().map(|i| p(*i)).collect();
        self.await_frame(
            &format!("view {members:?} of {gid}"),
            |(_, g, m)| matches!(m, NetMsg::ViewMsg(v) if *g == Some(gid) && *v.members() == want),
        );
    }

    fn await_view_holding(&self, gid: GroupId, member: ProcessId) {
        self.await_frame(
            &format!("a view of {gid} holding {member}"),
            |(_, g, m)| matches!(m, NetMsg::ViewMsg(v) if *g == Some(gid) && v.contains(member)),
        );
    }

    /// Whether a delivery of `text` has been received and set aside.
    fn holds_delivery_of(&self, text: &str) -> bool {
        self.pending
            .borrow()
            .iter()
            .any(|(_, _, m)| matches!(m, NetMsg::Fwd(f) if f.msg == AppMsg::from(text)))
    }
}

/// With two shards and the default transport a daemon runs four threads
/// — two event loops (the first also accepts; both send heartbeats) and
/// one worker per shard — and serving a client starts no more. Nothing
/// stands between the loops and the shards.
#[test]
fn a_two_shard_daemon_runs_four_threads() {
    let _serial = serial();
    wait_until("earlier daemons' threads to exit", Duration::from_secs(10), || {
        vsgm_threads().is_empty()
    });
    let daemon: BTreeMap<String, usize> =
        [("vsgm-net-loop", 2), ("vsgm-shard-0", 1), ("vsgm-shard-1", 1)]
            .into_iter()
            .map(|(name, n)| (name.to_string(), n))
            .collect();
    let server = two_shards();
    // A thread names itself as it starts: give the names a moment.
    wait_until("the daemon's four threads", Duration::from_secs(5), || vsgm_threads() == daemon);
    assert_eq!(daemon.values().sum::<usize>(), 4);
    // Serving one client (its one loop) adds no daemon thread.
    let c = Client::connect(1, &server);
    assert_eq!(c.request("create room"), "ok create room 1");
    c.to_server(GroupId::new(1), "hello");
    c.await_delivery(GroupId::new(1), p(1), "hello");
    let mut serving = daemon.clone();
    *serving.entry("vsgm-net-loop".to_string()).or_default() += 1;
    assert_eq!(vsgm_threads(), serving);
}

/// Bind, serve one create/send/deliver, drop — twenty times: the
/// process's thread and descriptor counts come back to where they were.
/// The loops' router holds the shard pool and the pool's sink sends on
/// the transport; were that a cycle of strong references, every round
/// would leave a daemon's threads and sockets behind.
#[test]
fn dropping_a_daemon_gives_back_its_threads_and_descriptors() {
    let _serial = serial();
    let round = || {
        let server = two_shards();
        let c = Client::connect(1, &server);
        assert_eq!(c.request("create room"), "ok create room 1");
        c.to_server(GroupId::new(1), "hello");
        c.await_delivery(GroupId::new(1), p(1), "hello");
    };
    // Warm-up: lazy allocations settle before the baseline is taken.
    round();
    wait_until("warm-up teardown", Duration::from_secs(10), || vsgm_threads().is_empty());
    let fd0 = count_dir("/proc/self/fd");
    let th0 = count_dir("/proc/self/task");
    for _ in 0..20 {
        round();
    }
    wait_until("threads and descriptors back at baseline", Duration::from_secs(20), || {
        count_dir("/proc/self/fd") <= fd0 && count_dir("/proc/self/task") <= th0
    });
    assert!(vsgm_threads().is_empty(), "{:?}", vsgm_threads());
}

/// A client's frames reach its group's shard in the order it sent them,
/// directory verbs included: a multicast sent right behind `join g`,
/// without waiting for the reply, is applied after the join and
/// delivered; one sent right behind `leave g` is applied after the leave
/// and so delivered in no view at all.
#[test]
fn a_clients_verbs_and_multicasts_are_applied_in_the_order_it_sent_them() {
    let _serial = serial();
    let server = two_shards();
    let a = Client::connect(1, &server);
    let b = Client::connect(2, &server);
    let g = GroupId::new(1);
    assert_eq!(a.request("create room"), "ok create room 1");
    b.to_server(GroupId::DIRECTORY, "join room");
    b.to_server(g, "right behind the join");
    a.await_delivery(g, p(2), "right behind the join");
    b.await_delivery(g, p(2), "right behind the join");
    assert_eq!(b.await_reply(), "ok join room 1");
    let before = server.shards().report(g).expect("hosted");
    assert_eq!(before.delivered, 2, "{before:?}");

    b.to_server(GroupId::DIRECTORY, "leave room");
    b.to_server(g, "right behind the leave");
    // A reply to a later verb is routed after the multicast was queued on
    // the group's shard, and the report is taken behind that multicast.
    b.to_server(GroupId::DIRECTORY, "lookup room");
    assert_eq!(b.await_reply(), "ok leave room 1");
    assert_eq!(b.await_reply(), "ok lookup room 1");
    let after = server.shards().report(g).expect("hosted");
    assert_eq!(after.members, [p(1)].into_iter().collect::<ProcSet>());
    assert_eq!(after.delivered, before.delivered, "the leaver's multicast was delivered");
    // What the group sends `a` arrives in step order: `a`'s own marker
    // comes after anything the leaver's multicast could have produced.
    a.await_view(g, &[1]);
    a.to_server(g, "marker");
    a.await_delivery(g, p(1), "marker");
    assert!(!a.holds_delivery_of("right behind the leave"));
    assert_eq!(server.shards().finish(g), Some(vec![]));
}

/// Clients on both of the daemon's loops race `create` and `join` on a
/// fresh name, round after round, without waiting for replies. Every
/// name resolves to one group, and every `ok` leads to a view of that
/// group holding the client: no loop queues a `Join` on the group's shard
/// ahead of the `Create` another loop queued, so no `Join` is dropped as
/// unroutable.
#[test]
fn racing_creates_and_joins_from_both_loops_each_lead_to_a_view() {
    const CLIENTS: u64 = 6;
    const ROUNDS: u64 = 50;
    let _serial = serial();
    let server = two_shards();
    let clients: Vec<Client> = (1..=CLIENTS).map(|i| Client::connect(i, &server)).collect();
    let to_server: ProcSet = [p(0)].into_iter().collect();
    // Each client opens its connection with a legacy frame, which draws no
    // reply (the daemon counts it as unroutable); one at a time, so the
    // daemon's round-robin puts the clients on alternate loops.
    for (i, c) in (1..).zip(&clients) {
        c.t.send(&to_server, &NetMsg::App(AppMsg::from("hello"))).expect("send");
        wait_until("the legacy frame", Duration::from_secs(5), || {
            server.stats().frames_unroutable == i
        });
    }
    // Two in three send `create`, so each round has losers that join.
    let creates = |i: u64, round: u64| !(i + round).is_multiple_of(3);
    let barrier = std::sync::Barrier::new(clients.len());
    std::thread::scope(|s| {
        for (i, c) in (1..).zip(&clients) {
            let (t, barrier, to_server) = (&c.t, &barrier, &to_server);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    let verb = if creates(i, round) { "create" } else { "join" };
                    let line = NetMsg::App(AppMsg::from(format!("{verb} room{round}").as_str()));
                    barrier.wait();
                    t.send_to_group(GroupId::DIRECTORY, to_server, &line).expect("send");
                }
            });
        }
    });
    let mut gid_of: BTreeMap<String, GroupId> = BTreeMap::new();
    for (i, c) in (1..).zip(&clients) {
        for round in 0..ROUNDS {
            let name = format!("room{round}");
            let reply = c.await_reply();
            match reply.split(' ').collect::<Vec<_>>().as_slice() {
                ["ok", _, n, gid] if *n == name => {
                    let gid = GroupId::new(gid.parse().expect("numeric gid"));
                    assert_eq!(*gid_of.entry(name).or_insert(gid), gid, "{reply}");
                    c.await_view_holding(gid, p(i));
                }
                // A `join` that beat every `create` of its round.
                ["err", "unknown-group", n] if *n == name && !creates(i, round) => {}
                _ => panic!("client {i}, round {round}: {reply}"),
            }
        }
    }
    let stats = server.stats();
    assert_eq!((stats.dir_creates, stats.frames_unroutable), (ROUNDS, CLIENTS), "{stats:?}");
    for gid in gid_of.values() {
        assert_eq!(server.shards().finish(*gid), Some(vec![]));
    }
}

/// A client that goes away stays a member of its group, so the group
/// keeps owing it frames. Once its connection has closed — the daemon
/// never dials a client, so it tries no other — each of them is counted
/// in `frames_unsent`, exactly one per multicast here, and the group's
/// other members still receive theirs. (Before the counter, the daemon's
/// sink discarded every send error.)
#[test]
fn frames_owed_to_a_dropped_client_are_counted_and_the_others_still_get_theirs() {
    let _serial = serial();
    let server = two_shards();
    let (a, b, c) =
        (Client::connect(1, &server), Client::connect(2, &server), Client::connect(3, &server));
    let g = GroupId::new(1);
    assert_eq!(a.request("create room"), "ok create room 1");
    assert_eq!(b.request("join room"), "ok join room 1");
    assert_eq!(c.request("join room"), "ok join room 1");
    for client in [&a, &b, &c] {
        client.await_view(g, &[1, 2, 3]);
    }
    a.to_server(g, "all there");
    for client in [&a, &b, &c] {
        client.await_delivery(g, p(1), "all there");
    }
    assert_eq!(server.stats().frames_unsent, 0);
    drop(c);
    // Multicast until the daemon has found `c`'s connection broken.
    let mut sent = 0;
    while server.stats().frames_unsent == 0 {
        assert!(sent < 200, "no frame for the dropped client was ever counted");
        let text = format!("probe {sent}");
        a.to_server(g, &text);
        b.await_delivery(g, p(1), &text);
        sent += 1;
    }
    // A report is answered only after the shard handed over everything
    // queued before it: no push to `c` is still under way.
    server.shards().report(g).expect("hosted");
    let counted = server.stats().frames_unsent;
    for i in 0..5 {
        let text = format!("after {i}");
        a.to_server(g, &text);
        a.await_delivery(g, p(1), &text);
        b.await_delivery(g, p(1), &text);
    }
    server.shards().report(g).expect("hosted");
    assert_eq!(server.stats().frames_unsent, counted + 5, "{:?}", server.stats());
    let mut reg = vsgm_obs::Registry::new();
    server.export_obs(&mut reg);
    assert_eq!(reg.counter(vsgm_obs::names::SERVER_FRAMES_UNSENT), counted + 5);
    assert_eq!(server.shards().finish(g), Some(vec![]));
    assert_eq!(server.net_stats().retries, 0, "the daemon tried to dial the dropped client");
}

/// README's quick-start, line for line but for the wait: a client that
/// dials the daemon, and that nobody registered with it, gets its
/// directory reply, its view and its own multicast back on the
/// connection it dialed. The daemon owes it nothing and dials nobody.
/// (While the daemon replied by dialing back, such a client got nothing
/// and the reply was counted in `frames_unsent`.)
#[test]
fn the_readme_quick_start_is_answered_on_the_connection_the_client_dialed() {
    let _serial = serial();
    let daemon = two_shards();
    let (me, server_pid, server_addr) = (p(1), p(0), daemon.local_addr());
    let server: ProcSet = [server_pid].into_iter().collect();
    let run = || -> std::io::Result<Vec<Frame>> {
        let t = TcpTransport::bind(me, "127.0.0.1:0")?; // me = your member id
        t.register_peer(server_pid, server_addr);
        t.send_to_group(GroupId::DIRECTORY, &server, &NetMsg::App("create room".into()))?;
        let mut got = Vec::new();
        let reply = NetMsg::App("ok create room 1".into());
        wait_until("ok create room 1", Duration::from_secs(10), || {
            got.extend(t.try_recv_routed());
            got.iter().any(|(_, g, m)| *g == Some(GroupId::DIRECTORY) && *m == reply)
        });
        t.send_to_group(GroupId::new(1), &server, &NetMsg::App("hello".into()))?;
        wait_until("the delivery of hello", Duration::from_secs(10), || {
            got.extend(t.try_recv_routed());
            got.iter().any(|(_, _, m)| matches!(m, NetMsg::Fwd(f) if f.msg == "hello".into()))
        });
        Ok(got)
    };
    let got = run().expect("the quick-start's calls succeed");
    let view_of_one = |m: &NetMsg| matches!(m, NetMsg::ViewMsg(v) if v.contains(me));
    assert!(got.iter().any(|(_, g, m)| *g == Some(GroupId::new(1)) && view_of_one(m)), "{got:?}");
    let (stats, net) = (daemon.stats(), daemon.net_stats());
    assert_eq!((stats.frames_unsent, net.retries), (0, 0), "{stats:?} {net:?}");
}

/// One connection per client, and one socket for it on each side: with
/// daemon and clients in one process, each client that has had its
/// first reply adds three sockets — its listener, the connection it
/// dialed, and the daemon's accepted end of it. (The daemon used to dial
/// each client back: five sockets per client, that connection's two ends
/// besides.)
#[test]
fn a_client_costs_one_socket_on_each_side() {
    const CLIENTS: usize = 3;
    let _serial = serial();
    wait_until("earlier daemons' threads and sockets to go", Duration::from_secs(10), || {
        vsgm_threads().is_empty()
    });
    let server = two_shards();
    let before = open_sockets();
    let clients: Vec<Client> = (1..=CLIENTS as u64).map(|i| Client::connect(i, &server)).collect();
    for c in &clients {
        assert_eq!(c.request("lookup room"), "err unknown-group room");
    }
    assert_eq!(open_sockets(), before + 3 * CLIENTS);
    assert_eq!(server.client_records(), CLIENTS);
}

/// The daemon keeps a record of a client only while the client's
/// connection is open: 500 clients under fresh pids, one after another,
/// each handshaking, asking one `lookup` and closing, leave behind the
/// record of the one client still connected. (The daemon's per-peer
/// liveness map used to keep every one of them, and `suspected_peers`
/// listed them for good.)
#[test]
fn a_departed_clients_record_goes_with_its_connection() {
    const DEPARTED: u64 = 500;
    let _serial = serial();
    let server = two_shards();
    let live = Client::connect(1, &server);
    assert_eq!(live.request("create room"), "ok create room 1");
    let mut lookup = Vec::new();
    let line = NetMsg::App(AppMsg::from("lookup room"));
    vsgm_net::codec::append_frame_grouped(&mut lookup, GroupId::DIRECTORY, &line);
    for pid in 1000..1000 + DEPARTED {
        let mut raw = TcpStream::connect(server.local_addr()).expect("dial the daemon");
        raw.write_all(&pid.to_le_bytes()).expect("handshake");
        raw.write_all(&lookup).expect("lookup");
    }
    // Count only once every departed client was heard: a record exists
    // only past a handshake, so one still unread has none yet.
    wait_until("the departed clients' records to go", Duration::from_secs(10), || {
        server.stats().dir_lookups == DEPARTED && server.client_records() == 1
    });
    assert_eq!(live.request("lookup room"), "ok lookup room 1");
    // Every departed client was heard before it went.
    assert_eq!(server.stats().dir_lookups, DEPARTED + 1);
    assert_eq!((server.client_records(), server.net_stats().retries), (1, 0));
}

/// A `vsgm-server` child process, killed and reaped when dropped — also
/// when an assertion fails first.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The shipped binary answers a client that only dials it: README's
/// quick-start against `vsgm-server --addr 127.0.0.1:0 --shards 1`, its
/// address read from the binary's first line, gets `ok create room 1`,
/// a view and the delivery of its own multicast.
#[test]
fn the_shipped_binary_answers_the_readme_quick_start() {
    let _serial = serial();
    let child = Command::new(env!("CARGO_BIN_EXE_vsgm-server"))
        .args(["--addr", "127.0.0.1:0", "--shards", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("start vsgm-server");
    let mut daemon = Daemon(child);
    let stdout = daemon.0.stdout.take().expect("piped stdout");
    let mut first = String::new();
    BufReader::new(stdout).read_line(&mut first).expect("the first line");
    // `vsgm-server p0 on 127.0.0.1:<port> (1 shards)`
    let addr = first.split(' ').nth(3).and_then(|a| a.parse().ok());
    let addr = addr.unwrap_or_else(|| panic!("no address in {first:?}"));
    let t = TcpTransport::bind(p(1), "127.0.0.1:0").expect("bind");
    t.register_peer(p(0), addr);
    let c = Client { t, pending: RefCell::new(Vec::new()) };
    assert_eq!(c.request("create room"), "ok create room 1");
    c.await_view(GroupId::new(1), &[1]);
    c.to_server(GroupId::new(1), "hello");
    c.await_delivery(GroupId::new(1), p(1), "hello");
}

/// Every lock and blocking call site in the non-test code of the
/// transport and the daemon, as `(file, line)`: the lines that call
/// `.lock()`, `blocking` or `blocking_holding`, outside items
/// compiled for tests only. `tiered.rs` implements them and is left out.
#[cfg(debug_assertions)]
fn tracked_sites() -> BTreeSet<(String, u32)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut sites = BTreeSet::new();
    for dir in ["crates/net/src", "crates/server/src"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("read a source dir") {
            let path = entry.expect("read a source entry").path();
            let name = path.file_name().expect("a file name").to_string_lossy().into_owned();
            if !name.ends_with(".rs") || name == "tiered.rs" {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("read a source file");
            let mut in_test_item: Option<usize> = None;
            for (i, line) in text.lines().enumerate() {
                let code = line.trim_start();
                let indent = line.len() - code.len();
                if let Some(at) = in_test_item {
                    if indent == at && code.starts_with('}') {
                        in_test_item = None;
                    }
                    continue;
                }
                if code == "#[cfg(test)]" {
                    in_test_item = Some(indent);
                } else if !code.starts_with("//") && calls_a_tracked_site(code) {
                    sites.insert((format!("{dir}/{name}"), i as u32 + 1));
                }
            }
        }
    }
    sites
}

#[cfg(debug_assertions)]
fn calls_a_tracked_site(code: &str) -> bool {
    let word_at = |i: usize| !code[..i].ends_with(|c: char| c == '_' || c.is_alphanumeric());
    code.contains(".lock()")
        || ["blocking(", "blocking_holding::<"]
            .iter()
            .any(|call| code.match_indices(call).any(|(i, _)| word_at(i)))
}

/// The lock order and the no-guard-across-a-blocking-call rule of
/// `vsgm_net::tiered` are checked as the code runs, so they cover the
/// paths that run. This session runs every one of [`tracked_sites`]: a
/// daemon serving two clients through every directory verb, a
/// multicast, the shard pool's blocking snapshots and its shutdown; a
/// dial that fails and backs off; a peer that never reads, so heartbeats
/// coalesce behind a stuck frame and a full queue times out; and a peer
/// that vanishes while its loop probes it. It must end with each site
/// reached and no violation seen, on any thread.
#[cfg(debug_assertions)]
#[test]
fn every_tiered_lock_and_blocking_call_site_runs_under_the_tracker() {
    use vsgm_net::tiered::{sites_reached, violations};

    let _serial = serial();
    // A violation on a thread the session waits on shows up as a frame
    // that never arrives: report the violation first.
    let session = std::panic::catch_unwind(tracked_session);
    assert_eq!(violations(), Vec::<String>::new());
    if let Err(panic) = session {
        std::panic::resume_unwind(panic);
    }
    let sites = tracked_sites();
    let missing = || {
        let reached: BTreeSet<(String, u32)> =
            sites_reached().into_iter().map(|(f, l)| (f.to_string(), l)).collect();
        sites.difference(&reached).cloned().collect::<Vec<_>>()
    };
    // The loops and workers finish their shutdown on their own threads.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !missing().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(sites.len() > 31, "{sites:?}");
    assert_eq!(violations(), Vec::<String>::new());
    assert_eq!(missing(), vec![], "lock or blocking call sites never reached");
}

/// The session [`every_tiered_lock_and_blocking_call_site_runs_under_the_tracker`]
/// judges. It returns once everything it started is shutting down.
#[cfg(debug_assertions)]
fn tracked_session() {
    use std::net::TcpListener;

    let server = two_shards();
    let (a, b) = (Client::connect(1, &server), Client::connect(2, &server));
    let room = GroupId::new(1);
    assert_eq!(a.request("create room"), "ok create room 1");
    assert_eq!(b.request("join room"), "ok join room 1");
    assert_eq!(b.request("lookup room"), "ok lookup room 1");
    a.await_view(room, &[1, 2]);
    a.to_server(room, "hello");
    b.await_delivery(room, p(1), "hello");
    assert_eq!(b.request("leave room"), "ok leave room 1");
    assert_eq!(server.directory().len(), 1);
    assert!(server.shards().report(room).is_some());
    assert_eq!(server.shards().report_all().len(), 1);
    assert_eq!(server.shards().finish(room), Some(vec![]));
    assert!(a.t.suspected_peers().is_empty());
    assert_eq!(server.client_records(), 2);

    // A dial refused on every attempt, with backoff sleeps between.
    let refused = TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr()).expect("port");
    a.t.register_peer(p(9), refused);
    let (hi, big) = (NetMsg::App(AppMsg::from("hi")), NetMsg::App(AppMsg::from(vec![0; 16 << 20])));
    assert!(a.t.send(&[p(9)].into_iter().collect(), &hi).is_err());
    assert!(a.t.stats().retries > 0);

    let cfg = TcpConfig {
        heartbeat_interval: Duration::from_millis(5),
        writer_queue: 1,
        enqueue_timeout: Duration::from_millis(50),
        loop_threads: 1,
        ..TcpConfig::default()
    };
    let t = TcpTransport::bind_with(p(8), "127.0.0.1:0", cfg).expect("bind");
    // A peer that never reads: a frame larger than the socket buffers
    // stays half written, heartbeats coalesce behind it, and once the
    // one queue slot is taken the next send times out.
    let deaf = TcpListener::bind("127.0.0.1:0").expect("bind");
    t.register_peer(p(7), deaf.local_addr().expect("addr"));
    let to_deaf: ProcSet = [p(7)].into_iter().collect();
    t.send(&to_deaf, &big).expect("queued");
    wait_until("coalesced heartbeats", Duration::from_secs(10), || t.stats().heartbeats >= 3);
    t.send(&to_deaf, &hi).expect("the one queue slot");
    assert!(t.send(&to_deaf, &hi).is_err(), "a full queue times out");
    // A peer that goes away: its loop finds the connection broken.
    let gone = TcpListener::bind("127.0.0.1:0").expect("bind");
    t.register_peer(p(6), gone.local_addr().expect("addr"));
    t.send(&[p(6)].into_iter().collect(), &hi).expect("queued");
    drop(gone);
    wait_until("both connections retired", Duration::from_secs(10), || t.stats().conns_open == 0);
    // Ten more rounds of the loop's probe, past the retired connections.
    std::thread::sleep(Duration::from_millis(50));
    // Shutting down waits for a half-written frame: the loop keeps
    // checking whether it is flushed until its grace runs out.
    let deaf_too = TcpListener::bind("127.0.0.1:0").expect("bind");
    t.register_peer(p(5), deaf_too.local_addr().expect("addr"));
    t.send(&[p(5)].into_iter().collect(), &big).expect("queued");
    drop((t, a, b, server));
    // Past the loop's shutdown grace, so it has given up on the frames.
    std::thread::sleep(Duration::from_millis(600));
    drop((deaf, deaf_too));
}
