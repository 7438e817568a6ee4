//! Groups × clients scaling: many independent group instances
//! multiplexed through one `vsgm-server` daemon on TCP loopback
//! (EXPERIMENTS.md E15).
//!
//! The headline arm is 1000 groups × 10 clients: every client joins
//! every group through the directory protocol, then the clients
//! multicast round-robin across all groups and the run is judged
//! end-to-end — every expected delivery observed back at a client
//! socket, every group's spec checkers green, zero unroutable frames.
//!
//! Emits a machine-readable `BENCH_groups.json` (path overridable via
//! `VSGM_BENCH_JSON`). Knobs: `VSGM_GROUPS` (default 1000),
//! `VSGM_GROUP_CLIENTS` (default 10), `VSGM_GROUP_SENDS` (total
//! multicasts, default one per group), `VSGM_GROUP_SHARDS` (default 4),
//! and `VSGM_GROUPS_FLOOR` (deliveries/s floor; the process exits
//! nonzero below it — the CI smoke gate).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use vsgm_server::{GroupServer, ServerConfig};
use vsgm_types::{AppMsg, GroupId, NetMsg, ProcessId};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// One bench client: a transport plus a receive thread that routes
/// directory replies to the requester and counts bench deliveries.
struct Client {
    transport: Arc<vsgm_net::TcpTransport>,
    replies: mpsc::Receiver<String>,
    deliveries: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    rx_thread: Option<std::thread::JoinHandle<()>>,
    server: ProcessId,
}

impl Client {
    fn connect(me: u64, server: &GroupServer) -> Client {
        let pid = ProcessId::new(me);
        let transport =
            Arc::new(vsgm_net::TcpTransport::bind(pid, "127.0.0.1:0").expect("bind client"));
        transport.register_peer(ProcessId::new(0), server.local_addr());
        let (reply_tx, replies) = mpsc::channel();
        let deliveries = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let rx_thread = {
            let transport = Arc::clone(&transport);
            let deliveries = Arc::clone(&deliveries);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match transport.recv_routed_timeout(Duration::from_millis(25)) {
                        Some((_, Some(GroupId::DIRECTORY), NetMsg::App(reply))) => {
                            let _ = reply_tx
                                .send(String::from_utf8_lossy(reply.as_bytes()).into_owned());
                        }
                        Some((_, Some(_), NetMsg::Fwd(f)))
                            if f.msg.as_bytes().starts_with(b"bench-") =>
                        {
                            deliveries.fetch_add(1, Ordering::Relaxed);
                        }
                        // View installations and other control traffic are
                        // not part of the delivery count.
                        _ => {}
                    }
                }
            })
        };
        Client {
            transport,
            replies,
            deliveries,
            stop,
            rx_thread: Some(rx_thread),
            server: ProcessId::new(0),
        }
    }

    fn request(&self, line: &str) -> String {
        let to = [self.server].into_iter().collect();
        self.transport
            .send_to_group(GroupId::DIRECTORY, &to, &NetMsg::App(AppMsg::from(line)))
            .expect("directory request");
        self.replies.recv_timeout(Duration::from_secs(30)).expect("directory reply")
    }

    fn send(&self, gid: GroupId, payload: &str) {
        let to = [self.server].into_iter().collect();
        self.transport
            .send_to_group(gid, &to, &NetMsg::App(AppMsg::from(payload)))
            .expect("group send");
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.rx_thread.take() {
            let _ = h.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_json(
    groups: u64,
    clients: u64,
    shards: u64,
    sends_total: u64,
    create_rate: f64,
    join_rate: f64,
    deliveries: u64,
    delivery_rate: f64,
    frames_routed: u64,
    frames_unroutable: u64,
    wall_secs: f64,
) {
    let path = std::env::var("VSGM_BENCH_JSON").unwrap_or_else(|_| "BENCH_groups.json".into());
    let body = format!(
        "{{\n  \"bench\": \"group_scaling\",\n  \"groups\": {groups},\n  \
         \"clients\": {clients},\n  \"shards\": {shards},\n  \
         \"sends_total\": {sends_total},\n  \
         \"create_groups_per_sec\": {create_rate:.1},\n  \
         \"join_ops_per_sec\": {join_rate:.1},\n  \
         \"deliveries\": {deliveries},\n  \
         \"deliveries_per_sec\": {delivery_rate:.1},\n  \
         \"frames_routed\": {frames_routed},\n  \
         \"frames_unroutable\": {frames_unroutable},\n  \
         \"checkers_green\": true,\n  \"wall_secs\": {wall_secs:.2}\n}}\n"
    );
    match std::fs::write(&path, &body) {
        Ok(()) => println!("group_scaling: wrote {path}"),
        Err(e) => eprintln!("group_scaling: cannot write {path}: {e}"),
    }
}

fn main() {
    // Criterion-style CLI args (--bench etc.) are accepted and ignored.
    let groups = env_u64("VSGM_GROUPS", 1000);
    let clients = env_u64("VSGM_GROUP_CLIENTS", 10);
    let sends_total = env_u64("VSGM_GROUP_SENDS", groups);
    let shards = env_u64("VSGM_GROUP_SHARDS", 4);
    let wall_start = Instant::now();

    let cfg = ServerConfig {
        shards: shards as usize,
        group_capacity: clients,
        ..ServerConfig::default()
    };
    let server =
        GroupServer::bind(ProcessId::new(0), "127.0.0.1:0", cfg).expect("bind group server");
    let handles: Vec<Client> = (1..=clients).map(|i| Client::connect(i, &server)).collect();

    // Phase 1 — client 1 creates every group.
    let creator = handles.first().expect("at least one client");
    let t = Instant::now();
    for g in 0..groups {
        let reply = creator.request(&format!("create bench-g{g}"));
        assert!(reply.starts_with("ok create "), "create failed: {reply}");
    }
    let create_secs = t.elapsed().as_secs_f64();
    let create_rate = groups as f64 / create_secs.max(f64::EPSILON);

    // Phase 2 — every other client joins every group.
    let t = Instant::now();
    for c in handles.iter().skip(1) {
        for g in 0..groups {
            let reply = c.request(&format!("join bench-g{g}"));
            assert!(reply.starts_with("ok join "), "join failed: {reply}");
        }
    }
    let join_ops = groups * clients.saturating_sub(1);
    let join_rate = join_ops as f64 / t.elapsed().as_secs_f64().max(f64::EPSILON);

    // Phase 3 — multicast round-robin across groups and clients, then
    // wait for every expected delivery to land back on a client socket
    // (each group member, sender included, observes each multicast).
    let expected = sends_total * clients;
    let t = Instant::now();
    for i in 0..sends_total {
        let gid = GroupId::new(1 + i % groups);
        let sender = &handles[(i % clients) as usize];
        sender.send(gid, &format!("bench-{i}"));
    }
    let deadline = Instant::now() + Duration::from_secs(600);
    let observed = loop {
        let observed: u64 = handles.iter().map(|c| c.deliveries.load(Ordering::Relaxed)).sum();
        if observed >= expected {
            break observed;
        }
        assert!(
            Instant::now() < deadline,
            "deliveries stalled: {observed}/{expected} after {:?}",
            t.elapsed()
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    let delivery_secs = t.elapsed().as_secs_f64();
    let delivery_rate = observed as f64 / delivery_secs.max(f64::EPSILON);

    // Judge: every group's spec checkers green, nothing unroutable.
    for g in 1..=groups {
        let verdict = server.shards().finish(GroupId::new(g)).expect("hosted group");
        assert!(verdict.is_empty(), "group {g} violations: {verdict:?}");
    }
    let stats = server.stats();
    assert_eq!(stats.frames_unroutable, 0, "unroutable frames during the run: {stats:?}");
    assert_eq!(stats.groups_hosted, groups, "hosted-group count: {stats:?}");

    let wall_secs = wall_start.elapsed().as_secs_f64();
    println!(
        "group_scaling: {groups} groups x {clients} clients ({shards} shards): \
         create {create_rate:.0}/s, join {join_rate:.0}/s, \
         {observed} deliveries at {delivery_rate:.0}/s, wall {wall_secs:.2}s"
    );
    emit_json(
        groups,
        clients,
        shards,
        sends_total,
        create_rate,
        join_rate,
        observed,
        delivery_rate,
        stats.frames_routed,
        stats.frames_unroutable,
        wall_secs,
    );

    let floor = env_u64("VSGM_GROUPS_FLOOR", 0);
    assert!(
        floor == 0 || delivery_rate >= floor as f64,
        "deliveries/s {delivery_rate:.0} below floor {floor}"
    );
}
