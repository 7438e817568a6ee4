//! The layer pass: single layers timed from outside through their public
//! functions, on the benchmark thread, with no daemon in the way (except
//! the one directory round trip). Every number here is workload-independent.
//! README.md says which end-to-end metric each should move.

use crate::procfs;
use crate::run::Metrics;
use crate::stats::Samples;
use crossbeam::channel::{unbounded, Receiver};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};
use vsgm_core::{Config, Effect, Endpoint, Input};
use vsgm_harness::{Sim, SimOptions};
use vsgm_membership::MembershipOracle;
use vsgm_net::{codec, TcpConfig, TcpTransport, WireFormat};
use vsgm_server::{
    Directory, GroupCmd, GroupInstance, GroupServer, ServerConfig, ShardConfig, ShardPool,
};
use vsgm_types::{
    AppMsg, FwdPayload, GroupId, NetMsg, ProcSet, ProcessId, StartChangeId, View, ViewId,
};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn procs(n: u64) -> ProcSet {
    (1..=n).map(p).collect()
}

fn app(len: usize) -> AppMsg {
    AppMsg::new(vec![0xA5u8; len])
}

/// Nanoseconds per call of `f`, over `iters` calls.
fn ns_per_iter(iters: u64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Iteration counts are divided by `divisor` (10 under `--smoke`).
pub fn run(divisor: u64) -> Metrics {
    let mut m = Metrics::new();
    let n = |full: u64| (full / divisor).max(20);
    codec_layer(&mut m, n(200_000));
    tcp_layer(&mut m, &n);
    endpoint_layer(&mut m, &n);
    sim_layer(&mut m, n(5000));
    group_layer(&mut m, &n);
    shard_layer(&mut m, &n);
    directory_layer(&mut m, &n);
    m
}

// ----- net.codec -----

fn codec_layer(m: &mut Metrics, iters: u64) {
    let gid = GroupId::new(1);
    let encode =
        |msg: &NetMsg| codec::encode_frame_grouped(gid, msg, WireFormat::Binary).expect("binary");
    let decode_ns = |frame: &[u8], iters: u64| {
        let body = &frame[4..];
        ns_per_iter(iters, || {
            black_box(codec::decode_body_routed(black_box(body), true));
        })
    };
    let app64 = NetMsg::App(app(64));
    let app4k = NetMsg::App(app(4096));
    let view = View::new(
        ViewId::new(3, 1),
        procs(4),
        procs(4).into_iter().map(|q| (q, StartChangeId::new(2))),
    );
    // What the daemon's forwarder emits for every delivery.
    let fwd64 = NetMsg::Fwd(FwdPayload {
        origin: p(1),
        view,
        index: 7,
        msg: app(64),
    });
    m.insert(
        "net.codec.encode_app_ns_64b",
        ns_per_iter(iters, || drop(black_box(encode(black_box(&app64))))),
    );
    m.insert(
        "net.codec.encode_app_ns_4k",
        ns_per_iter(iters / 4, || drop(black_box(encode(black_box(&app4k))))),
    );
    m.insert(
        "net.codec.encode_fwd_ns_64b",
        ns_per_iter(iters, || drop(black_box(encode(black_box(&fwd64))))),
    );
    m.insert("net.codec.decode_ns_64b", decode_ns(&encode(&app64), iters));
    m.insert(
        "net.codec.decode_ns_4k",
        decode_ns(&encode(&app4k), iters / 4),
    );
    m.insert("net.codec.fwd_frame_bytes_64b", encode(&fwd64).len() as f64);
}

// ----- net.tcp / net.evloop / net.writer -----

/// Sends `count` frames from `a` to `b` as fast as the write queue takes
/// them, draining `b` as it goes; returns the seconds until the last one
/// has arrived.
fn flood(a: &TcpTransport, b: &TcpTransport, to: &ProcSet, msg: &NetMsg, count: u64) -> f64 {
    let t0 = Instant::now();
    let (mut sent, mut got) = (0u64, 0u64);
    while got < count {
        for _ in 0..256.min(count - sent) {
            a.send_to_group(GroupId::new(1), to, msg)
                .expect("flood send");
            sent += 1;
        }
        while b.try_recv_routed().is_some() {
            got += 1;
        }
        if sent == count && got < count && b.recv_routed_timeout(Duration::from_secs(10)).is_some()
        {
            got += 1;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "flood stalled at {got}/{count}"
        );
    }
    t0.elapsed().as_secs_f64()
}

fn tcp_layer(m: &mut Metrics, n: &dyn Fn(u64) -> u64) {
    // `a` is shaped like a benchmark client, `b` like the daemon's socket.
    let a = TcpTransport::bind_with(
        p(1),
        "127.0.0.1:0",
        TcpConfig {
            loop_threads: 1,
            ..TcpConfig::default()
        },
    )
    .expect("bind a");
    let b = TcpTransport::bind(p(2), "127.0.0.1:0").expect("bind b");
    a.register_peer(p(2), b.local_addr());
    let to: ProcSet = [p(2)].into_iter().collect();
    let msg64 = NetMsg::App(app(64));
    // Window 1: the send call, and send → receive across one hop.
    let (mut call, mut oneway) = (Samples::default(), Samples::default());
    for i in 0..n(5000) + 100 {
        let t0 = Instant::now();
        a.send_to_group(GroupId::new(1), &to, &msg64).expect("send");
        let t1 = Instant::now();
        b.recv_routed_timeout(Duration::from_secs(10))
            .expect("one-way frame");
        let t2 = Instant::now();
        if i >= 100 {
            call.push((t1 - t0).as_nanos() as f64);
            oneway.push(us(t2 - t0));
        }
    }
    m.insert(
        "net.tcp.send_call_ns",
        call.p50("send call", 0).expect("samples"),
    );
    m.insert(
        "net.tcp.oneway_p50_us",
        oneway.p50("one-way", 0).expect("samples"),
    );
    // An idle connected pair still wakes for heartbeats and accept polling.
    let cpu = || procfs::threads().values().map(|t| t.run_ns).sum::<u64>();
    let (cpu0, t0) = (cpu(), Instant::now());
    std::thread::sleep(Duration::from_millis(n(1000)));
    m.insert(
        "net.tcp.idle_cpu_ms_per_s",
        (cpu() - cpu0) as f64 / 1e6 / t0.elapsed().as_secs_f64(),
    );
    let before = a.stats();
    let frames = n(400_000);
    m.insert(
        "net.tcp.frames_per_s_64b",
        frames as f64 / flood(&a, &b, &to, &msg64, frames),
    );
    let after = a.stats();
    m.insert(
        "net.tcp.frames_per_flush",
        (after.frames_flushed - before.frames_flushed) as f64
            / (after.flushes - before.flushes).max(1) as f64,
    );
    let frames = n(100_000);
    let secs = flood(&a, &b, &to, &NetMsg::App(app(4096)), frames);
    m.insert("net.tcp.mb_per_s_4k", frames as f64 * 4096.0 / 1e6 / secs);
    let s = a.stats();
    m.insert("net.tcp.queue_depth_max", s.queue_depth_max as f64);
    m.insert("net.tcp.backpressure_hits", s.backpressure_hits as f64);
    m.insert("net.tcp.frames_dropped", s.frames_dropped as f64);
}

// ----- core.endpoint -----

/// Four sans-IO end-points hosted by hand: `NetSend` effects go through a
/// queue, `Block` is acknowledged at once. This is the floor a host that
/// runs the protocol directly (ROADMAP item 1) would pay.
struct Host {
    eps: Vec<Endpoint>,
    net: VecDeque<(ProcessId, ProcessId, NetMsg)>,
    oracle: MembershipOracle,
    views: u64,
    effects: u64,
    polls: u64,
    poll_time: Duration,
}

impl Host {
    fn new(n: u64) -> Host {
        Host {
            eps: (1..=n)
                .map(|i| Endpoint::new(p(i), Config::default()))
                .collect(),
            net: VecDeque::new(),
            oracle: MembershipOracle::new(),
            views: 0,
            effects: 0,
            polls: 0,
            poll_time: Duration::ZERO,
        }
    }

    fn ep(&mut self, q: ProcessId) -> &mut Endpoint {
        &mut self.eps[q.raw() as usize - 1]
    }

    fn route(&mut self, from: ProcessId, effects: Vec<Effect>) {
        self.effects += effects.len() as u64;
        for e in effects {
            match e {
                Effect::NetSend { to, msg } => {
                    self.net.extend(
                        to.into_iter()
                            .filter(|q| *q != from)
                            .map(|q| (from, q, msg.clone())),
                    );
                }
                Effect::Block => {
                    let more = self.ep(from).handle(Input::BlockOk);
                    self.route(from, more);
                }
                Effect::InstallView { .. } => self.views += 1,
                Effect::DeliverApp { .. } | Effect::SetReliable(_) | Effect::Reconciled => {}
            }
        }
    }

    fn poll_all(&mut self) {
        for i in 1..=self.eps.len() as u64 {
            let t0 = Instant::now();
            let effects = self.ep(p(i)).poll();
            self.poll_time += t0.elapsed();
            self.polls += 1;
            self.route(p(i), effects);
        }
    }

    /// Polls and delivers until nothing is enabled and nothing in flight.
    fn settle(&mut self) {
        loop {
            self.poll_all();
            let Some((from, to, msg)) = self.net.pop_front() else {
                return;
            };
            let effects = self.ep(to).handle(Input::Net { from, msg });
            self.route(to, effects);
        }
    }

    /// `StartChange` to every member, then the membership view, then
    /// whatever the end-points need to install it.
    fn reconfigure(&mut self, members: &ProcSet, proposer: u64) {
        let (notices, view) = self.oracle.reconfigure(members, proposer);
        for n in notices {
            let effects = self.ep(n.p).handle(Input::StartChange {
                cid: n.cid,
                set: n.set,
            });
            self.route(n.p, effects);
        }
        self.poll_all();
        for q in members {
            let effects = self.ep(*q).handle(Input::MbrshpView(view.clone()));
            self.route(*q, effects);
        }
        self.settle();
    }
}

fn endpoint_layer(m: &mut Metrics, n: &dyn Fn(u64) -> u64) {
    let members = procs(4);
    let mut host = Host::new(4);
    host.reconfigure(&members, 1);
    assert_eq!(
        host.views, 4,
        "hand-driven end-points install the first view"
    );
    let (sends, msg) = (n(20_000), app(64));
    let (mut send_time, mut net_time, mut net_inputs) = (Duration::ZERO, Duration::ZERO, 0u64);
    host.effects = 0;
    host.polls = 0;
    host.poll_time = Duration::ZERO;
    for i in 0..sends {
        let from = p(1 + i % 4);
        let t0 = Instant::now();
        let effects = host.ep(from).handle(Input::AppSend(msg.clone()));
        send_time += t0.elapsed();
        host.route(from, effects);
        host.poll_all();
        while let Some((from, to, msg)) = host.net.pop_front() {
            let t0 = Instant::now();
            let effects = host.ep(to).handle(Input::Net { from, msg });
            net_time += t0.elapsed();
            net_inputs += 1;
            host.route(to, effects);
            host.poll_all();
        }
    }
    m.insert(
        "core.endpoint.app_send_ns",
        send_time.as_nanos() as f64 / sends as f64,
    );
    m.insert(
        "core.endpoint.net_app_ns",
        net_time.as_nanos() as f64 / net_inputs.max(1) as f64,
    );
    m.insert(
        "core.endpoint.poll_ns",
        host.poll_time.as_nanos() as f64 / host.polls as f64,
    );
    m.insert(
        "core.endpoint.effects_per_send_n4",
        host.effects as f64 / sends as f64,
    );
    let changes = n(2000);
    let t0 = Instant::now();
    for i in 0..changes {
        host.reconfigure(&members, 2 + i);
    }
    m.insert(
        "core.endpoint.view_change_us_n4",
        us(t0.elapsed()) / changes as f64,
    );
    assert_eq!(
        host.views,
        4 * (1 + changes),
        "every change installed a view at every member"
    );
}

// ----- harness.sim + spec -----

fn sim_layer(m: &mut Metrics, sends: u64) {
    // The options GroupInstance gives its Sim: online checkers, LAN latency.
    let mut sim = Sim::new_paper(
        4,
        Config::default(),
        SimOptions {
            seed: 7,
            ..SimOptions::default()
        },
    );
    sim.reconfigure(&procs(4));
    sim.run_to_quiescence();
    let before = sim.trace().len();
    let msg = app(64);
    let ns = ns_per_iter(sends, || {
        sim.send(p(1), msg.clone());
        sim.run_to_quiescence();
    });
    m.insert("harness.sim.send_us_n4", ns / 1e3);
    // The counted side of the Arnon–Sharma predicted-vs-counted row.
    m.insert(
        "harness.sim.events_per_send_n4",
        (sim.trace().len() - before) as f64 / sends as f64,
    );
    let entries = sim.trace().entries();
    let t0 = Instant::now();
    let violations = vsgm_spec::judge_trace(entries, None);
    m.insert(
        "spec.judge_ns_per_event",
        t0.elapsed().as_nanos() as f64 / entries.len() as f64,
    );
    assert!(violations.is_empty(), "{violations:?}");
}

// ----- server.group -----

fn group(members: u64, capacity: u64) -> GroupInstance {
    let gid = GroupId::new(1);
    let mut g = GroupInstance::new(gid, capacity, vsgm_server::group_seed(1, gid));
    for i in 1..=members {
        g.apply(GroupCmd::Join(p(i)));
    }
    g.run_to_quiescence();
    g.drain_outputs();
    g
}

/// What a shard worker does per multicast; returns the three parts' total
/// time and the outputs drained.
fn group_sends(g: &mut GroupInstance, members: u64, sends: u64) -> ([Duration; 3], u64) {
    let (mut parts, mut outputs, msg) = ([Duration::ZERO; 3], 0u64, app(64));
    for i in 0..sends {
        let t0 = Instant::now();
        g.apply(GroupCmd::Send {
            from: p(1 + i % members),
            msg: msg.clone(),
        });
        let t1 = Instant::now();
        g.run_to_quiescence();
        let t2 = Instant::now();
        outputs += g.drain_outputs().len() as u64;
        parts[0] += t1 - t0;
        parts[1] += t2 - t1;
        parts[2] += t2.elapsed();
    }
    (parts, outputs)
}

fn send_us(g: &mut GroupInstance, members: u64, sends: u64) -> f64 {
    us(group_sends(g, members, sends).0.iter().sum()) / sends as f64
}

fn group_layer(m: &mut Metrics, n: &dyn Fn(u64) -> u64) {
    m.insert(
        "server.group.send_us_n2",
        send_us(&mut group(2, 2), 2, n(5000)),
    );
    // Two members in four end-points: what `pair_n2` runs, whose pairs are
    // spread over all four clients (a group admits ids 1 to its capacity).
    m.insert(
        "server.group.send_us_n2_cap4",
        send_us(&mut group(2, 4), 2, n(5000)),
    );
    m.insert(
        "server.group.send_us_n8",
        send_us(&mut group(8, 8), 8, n(1000)),
    );
    m.insert(
        "server.group.send_us_n16",
        send_us(&mut group(16, 16), 16, n(200)),
    );
    // Four members in the shipped default capacity of 16 end-points.
    m.insert(
        "server.group.send_us_n4_cap16",
        send_us(&mut group(4, 16), 4, n(5000)),
    );
    let mut g4 = group(4, 4);
    let sends = n(5000);
    let (parts, outputs) = group_sends(&mut g4, 4, sends);
    m.insert(
        "server.group.send_us_n4",
        us(parts.iter().sum()) / sends as f64,
    );
    m.insert("server.group.apply_us_n4", us(parts[0]) / sends as f64);
    m.insert("server.group.run_us_n4", us(parts[1]) / sends as f64);
    m.insert("server.group.drain_us_n4", us(parts[2]) / sends as f64);
    m.insert(
        "server.group.outputs_per_send_n4",
        outputs as f64 / sends as f64,
    );
    // The trace only grows: cost and memory after many more messages.
    let rss0 = procfs::rss_kb();
    let more = n(50_000) - sends;
    group_sends(&mut g4, 4, more);
    m.insert(
        "server.group.rss_bytes_per_send_n4",
        (procfs::rss_kb().saturating_sub(rss0) * 1024) as f64 / more as f64,
    );
    m.insert(
        "server.group.send_us_n4_after50k",
        send_us(&mut g4, 4, n(2000)),
    );
    let joins = n(400);
    let t0 = Instant::now();
    for _ in 0..joins / 4 {
        let mut g = GroupInstance::new(GroupId::new(1), 4, 1);
        for i in 1..=4 {
            g.apply(GroupCmd::Join(p(i)));
            g.run_to_quiescence();
            black_box(g.drain_outputs());
        }
    }
    m.insert(
        "server.group.join_us_n4",
        us(t0.elapsed()) / (joins / 4 * 4) as f64,
    );
}

// ----- server.shard -----

type Outputs = Receiver<(GroupId, ProcessId, NetMsg)>;

fn shard_pool(groups: u64) -> (ShardPool, Outputs) {
    let (tx, rx) = unbounded();
    let pool = ShardPool::spawn(ShardConfig {
        shards: crate::plan::SHARDS,
        auto_run: true,
        outputs: Some(tx),
    });
    for g in 1..=groups {
        let gid = GroupId::new(g);
        pool.create_group(gid, 4, vsgm_server::group_seed(1, gid));
        for i in 1..=4 {
            pool.apply(gid, GroupCmd::Join(p(i)));
        }
    }
    // report_all answers only after every shard has worked through its
    // queue, so the views the joins produced are all in the channel now.
    pool.report_all();
    while rx.try_recv().is_ok() {}
    (pool, rx)
}

/// Commands per second through the pool with all of them queued at once.
fn shard_flood(groups: u64, cmds: u64) -> f64 {
    let (pool, rx) = shard_pool(groups);
    let msg = app(64);
    let t0 = Instant::now();
    for i in 0..cmds {
        pool.apply(
            GroupId::new(1 + i % groups),
            GroupCmd::Send {
                from: p(1 + i % 4),
                msg: msg.clone(),
            },
        );
    }
    for _ in 0..cmds * 4 {
        rx.recv_timeout(Duration::from_secs(60))
            .expect("flood outputs");
    }
    cmds as f64 / t0.elapsed().as_secs_f64()
}

fn shard_layer(m: &mut Metrics, n: &dyn Fn(u64) -> u64) {
    let (pool, rx) = shard_pool(8);
    let (mut roundtrip, msg) = (Samples::default(), app(64));
    for i in 0..n(5000) {
        let t0 = Instant::now();
        pool.apply(
            GroupId::new(1 + i % 8),
            GroupCmd::Send {
                from: p(1 + i % 4),
                msg: msg.clone(),
            },
        );
        rx.recv_timeout(Duration::from_secs(10))
            .expect("first output");
        roundtrip.push(us(t0.elapsed()));
        for _ in 0..3 {
            rx.recv_timeout(Duration::from_secs(10))
                .expect("remaining outputs");
        }
    }
    drop(pool);
    m.insert(
        "server.shard.roundtrip_p50_us",
        roundtrip.p50("shard round trip", 0).expect("samples"),
    );
    m.insert("server.shard.cmds_per_s_g8", shard_flood(8, n(20_000)));
    m.insert(
        "server.shard.cmds_per_s_g1000",
        shard_flood(n(1000), n(20_000)),
    );
}

// ----- server.directory / membership.oracle / server.server -----

fn directory_layer(m: &mut Metrics, n: &dyn Fn(u64) -> u64) {
    let names: Vec<String> = (0..n(100_000)).map(|i| format!("bench-g{i}")).collect();
    let dir = Directory::new();
    let mut next = names.iter();
    m.insert(
        "server.directory.create_ns",
        ns_per_iter(names.len() as u64, || {
            black_box(dir.create_or_join(next.next().expect("one name per call")));
        }),
    );
    let mut again = names.iter().cycle();
    m.insert(
        "server.directory.lookup_ns",
        ns_per_iter(names.len() as u64 * 2, || {
            black_box(dir.lookup(again.next().expect("cycle")));
        }),
    );
    let (mut oracle, members, mut proposer) = (MembershipOracle::new(), procs(4), 0);
    m.insert(
        "membership.oracle.reconfigure_ns_n4",
        ns_per_iter(n(100_000), || {
            proposer += 1;
            black_box(oracle.reconfigure(&members, proposer));
        }),
    );
    // One directory round trip from a client socket through the daemon.
    let cfg = ServerConfig {
        shards: crate::plan::SHARDS,
        group_capacity: 4,
        ..ServerConfig::default()
    };
    let server = GroupServer::bind(p(0), "127.0.0.1:0", cfg).expect("bind daemon");
    let client = TcpTransport::bind_with(
        p(1),
        "127.0.0.1:0",
        TcpConfig {
            loop_threads: 1,
            ..TcpConfig::default()
        },
    )
    .expect("bind client");
    client.register_peer(p(0), server.local_addr());
    server.register_client(p(1), client.local_addr());
    let to: ProcSet = [p(0)].into_iter().collect();
    let request = |line: &str| {
        client
            .send_to_group(GroupId::DIRECTORY, &to, &NetMsg::App(AppMsg::from(line)))
            .expect("request");
        loop {
            match client
                .recv_routed_timeout(Duration::from_secs(10))
                .expect("directory reply")
            {
                (_, Some(GroupId::DIRECTORY), NetMsg::App(reply)) => {
                    assert!(reply.as_bytes().starts_with(b"ok "), "{reply:?}");
                    return;
                }
                _ => continue, // the view the create installs
            }
        }
    };
    request("create bench-rtt");
    let mut rtt = Samples::default();
    for _ in 0..n(3000) {
        let t0 = Instant::now();
        request("lookup bench-rtt");
        rtt.push(us(t0.elapsed()));
    }
    m.insert(
        "server.server.dir_rtt_p50_us",
        rtt.p50("directory round trip", 0).expect("samples"),
    );
}
