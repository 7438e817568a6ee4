//! Pinned regressions for the event-loop transport rewrite.
//!
//! Three bugs of the old thread-per-connection transport, each pinned
//! at the transport level (the queue-level heartbeat pin lives in
//! `writer.rs`):
//!
//! 1. the frame reader trusted the peer's length prefix — one malformed
//!    frame could demand a multi-gigabyte allocation; now capped by
//!    `TcpConfig::max_frame_len` with connection teardown;
//! 2. a half-open peer stalling mid-handshake pinned a blocked reader
//!    thread and its socket forever; now evicted after
//!    `TcpConfig::read_idle_timeout` and counted in `NetStats`;
//! 3. heartbeats shared the bounded writer queue with data, so a
//!    saturated queue silently skipped liveness probes and triggered
//!    false suspicion of a healthy-but-busy peer; now probes claim a
//!    reserved slot and drain ahead of queued data.
//!
//! One encoding: a `{`-led (JSON) body is malformed like any other
//! non-binary body and tears its connection down.
//!
//! Plus the connection-churn soak: repeated connect/disconnect storms
//! across 64 peers must leak no file descriptors or threads, conserve
//! frames (`enqueued == flushed + dropped`), and shut the loop threads
//! down cleanly.
//!
//! And two pins of the epoll loop: no wake-up is ever lost (the loops
//! wait without a timeout, so a lost one hangs a round trip), and an idle
//! connected pair is asleep rather than polling.
//!
//! The tests run one at a time ([`serial`]): the leak soak and the idle
//! test read process-wide `/proc` counts that a neighbour would skew.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use vsgm_net::codec::encode_frame;
use vsgm_net::{TcpConfig, TcpTransport};
use vsgm_types::{AppMsg, NetMsg, ProcSet, ProcessId};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn only(to: u64) -> ProcSet {
    [p(to)].into_iter().collect()
}

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn connected_pair() -> (TcpTransport, TcpTransport) {
    let a = TcpTransport::bind(p(1), "127.0.0.1:0").unwrap();
    let b = TcpTransport::bind(p(2), "127.0.0.1:0").unwrap();
    a.register_peer(p(2), b.local_addr());
    b.register_peer(p(1), a.local_addr());
    (a, b)
}

fn wait_until(what: &str, deadline: Duration, mut ok: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !ok() {
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Bug 1 (pinned): a length prefix over `max_frame_len` must tear the
/// connection down — never allocate. Frames before the poisoned prefix
/// still deliver, and the reject is counted in `NetStats` and the
/// observability registry.
#[test]
fn oversize_length_prefix_tears_the_connection_down() {
    let _serial = serial();
    let srv = TcpTransport::bind_with(
        p(1),
        "127.0.0.1:0",
        TcpConfig { max_frame_len: 1024, ..TcpConfig::default() },
    )
    .unwrap();
    let mut raw = TcpStream::connect(srv.local_addr()).unwrap();
    raw.write_all(&2u64.to_le_bytes()).unwrap(); // handshake: we are p2
    let good = encode_frame(&NetMsg::App(AppMsg::from("ok")));
    raw.write_all(&good).unwrap();
    // A frame claiming 1 MiB against the 1 KiB cap: teardown, no read.
    raw.write_all(&(1u32 << 20).to_le_bytes()).unwrap();
    let (from, msg) = srv.recv_timeout(Duration::from_secs(5)).expect("pre-poison frame");
    assert_eq!((from, msg), (p(2), NetMsg::App(AppMsg::from("ok"))));
    wait_until("oversize reject", Duration::from_secs(5), || srv.stats().oversize_rejected == 1);
    // The transport hung up on us (read sees EOF/reset, not a hang).
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut probe = [0u8; 1];
    assert!(
        matches!(raw.read(&mut probe), Ok(0) | Err(_)),
        "poisoned connection must be closed by the transport"
    );
    wait_until("conn teardown", Duration::from_secs(5), || srv.stats().conns_open == 0);
    // The counter survives the obs export.
    let mut reg = vsgm_obs::Registry::new();
    srv.export_obs(&mut reg);
    assert_eq!(reg.counter(vsgm_obs::names::NET_OVERSIZE_REJECTED), 1);
}

/// A frame whose body is not binary is malformed: a peer speaking the
/// retired JSON encoding gets its good frames delivered up to the first
/// `{`-led body, then the connection torn down.
#[test]
fn json_body_tears_the_connection_down() {
    let _serial = serial();
    let srv = TcpTransport::bind(p(1), "127.0.0.1:0").unwrap();
    let mut raw = TcpStream::connect(srv.local_addr()).unwrap();
    raw.write_all(&2u64.to_le_bytes()).unwrap(); // handshake: we are p2
    raw.write_all(&encode_frame(&NetMsg::App(AppMsg::from("ok")))).unwrap();
    let json = serde_json::to_vec(&NetMsg::App(AppMsg::from("json"))).unwrap();
    assert_eq!(json.first(), Some(&b'{'));
    raw.write_all(&(json.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&json).unwrap();
    let (from, msg) = srv.recv_timeout(Duration::from_secs(5)).expect("binary frame");
    assert_eq!((from, msg), (p(2), NetMsg::App(AppMsg::from("ok"))));
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut probe = [0u8; 1];
    assert!(
        matches!(raw.read(&mut probe), Ok(0) | Err(_)),
        "a JSON body must close the connection"
    );
    wait_until("conn teardown", Duration::from_secs(5), || srv.stats().conns_open == 0);
    assert!(srv.try_recv().is_none(), "the JSON frame was delivered");
}

/// Bug 2 (pinned): a peer that sends 3 of the 8 handshake bytes and
/// stalls used to leak a blocked reader thread plus its socket until
/// process exit. The event loop must evict it after `read_idle_timeout`
/// and count the eviction in `NetStats` — woken by that deadline alone,
/// since nothing else happens on the stalled socket.
#[test]
fn half_open_peer_stalled_mid_handshake_is_evicted() {
    let _serial = serial();
    let srv = TcpTransport::bind_with(
        p(1),
        "127.0.0.1:0",
        TcpConfig { read_idle_timeout: Duration::from_millis(100), ..TcpConfig::default() },
    )
    .unwrap();
    let mut raw = TcpStream::connect(srv.local_addr()).unwrap();
    raw.write_all(&7u64.to_le_bytes()[..3]).unwrap(); // 3 of 8 header bytes, then silence
    wait_until("conn adopted", Duration::from_secs(5), || srv.stats().conns_open == 1);
    wait_until("idle eviction", Duration::from_secs(5), || {
        let s = srv.stats();
        s.idle_evictions == 1 && s.conns_open == 0
    });
    // The socket really was reclaimed, not just counted.
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut probe = [0u8; 1];
    assert!(
        matches!(raw.read(&mut probe), Ok(0) | Err(_)),
        "evicted connection must be closed by the transport"
    );
    // Idle *between* frames is legal: a completed handshake with no
    // pending partial frame is never evicted.
    let mut calm = TcpStream::connect(srv.local_addr()).unwrap();
    calm.write_all(&8u64.to_le_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(srv.stats().idle_evictions, 1, "quiescent peer wrongly evicted");
    assert_eq!(srv.stats().conns_open, 1);
    drop(calm);
}

/// Bug 3 (pinned): with the write queue saturated against a stalled
/// receiver, heartbeat probes must still be accepted (reserved slot)
/// and must appear on the wire ahead of the queued data backlog. The
/// old transport enqueued probes like data with a zero timeout: a full
/// queue dropped every probe and a healthy-but-busy peer was falsely
/// suspected.
#[test]
fn saturated_queue_still_sends_heartbeats_ahead_of_data() {
    let _serial = serial();
    const FRAMES: usize = 400;
    let payload = AppMsg::from(vec![0x5a; 64 << 10]);
    let sender = TcpTransport::bind_with(
        p(1),
        "127.0.0.1:0",
        TcpConfig {
            writer_queue: 4,
            enqueue_timeout: Duration::from_secs(30),
            heartbeat_interval: Duration::from_millis(20),
            ..TcpConfig::default()
        },
    )
    .unwrap();
    let peer = TcpListener::bind("127.0.0.1:0").unwrap();
    sender.register_peer(p(2), peer.local_addr().unwrap());
    {
        let to = only(2);
        let msg = NetMsg::App(payload);
        let sender = &sender;
        // The scope joins the pump thread on exit (propagating its
        // panics), so every `send` is known to have succeeded.
        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..FRAMES {
                    sender.send(&to, &msg).expect("send during saturation");
                }
            });
            // The receiver: accept, read the handshake, then stall until
            // the sender's queue is saturated.
            let (mut conn, _) = peer.accept().unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut hs = [0u8; 8];
            conn.read_exact(&mut hs).unwrap();
            assert_eq!(u64::from_le_bytes(hs), 1);
            wait_until("queue saturation", Duration::from_secs(10), || {
                sender.stats().backpressure_hits > 0
            });
            // While saturated, probes keep flowing into the reserved
            // slot — this is the regression: pre-fix, `heartbeats`
            // stayed frozen here and the peer was falsely suspected.
            let hb0 = sender.stats().heartbeats;
            std::thread::sleep(Duration::from_millis(150));
            let hb1 = sender.stats().heartbeats;
            assert!(
                hb1 > hb0,
                "saturated queue must still accept heartbeat probes ({hb0} -> {hb1})"
            );
            // Drain the stream and record frame sizes in arrival order.
            let mut sizes: Vec<usize> = Vec::new();
            let mut data_seen = 0usize;
            while data_seen < FRAMES {
                let mut len4 = [0u8; 4];
                conn.read_exact(&mut len4).unwrap();
                let len = u32::from_le_bytes(len4) as usize;
                if len > 0 {
                    let mut body = vec![0u8; len];
                    conn.read_exact(&mut body).unwrap();
                    data_seen += 1;
                }
                sizes.push(len);
            }
            let first_hb = sizes.iter().position(|&l| l == 0);
            let last_data = sizes.iter().rposition(|&l| l > 0).unwrap();
            let hb = first_hb.expect("at least one heartbeat must reach the wire");
            assert!(
                hb < last_data,
                "heartbeat must be emitted ahead of the queued data backlog \
                 (first probe at {hb}, last data at {last_data})"
            );
        });
    }
    // Quiescent conservation: everything enqueued reached the wire.
    wait_until("conservation", Duration::from_secs(5), || {
        let s = sender.stats();
        s.frames_enqueued == s.frames_flushed + s.frames_dropped
    });
}

fn count_dir(path: &str) -> usize {
    std::fs::read_dir(path).map(|d| d.count()).unwrap_or(0)
}

/// Connection-churn soak: 64 peers across four connect/disconnect
/// storms. Asserts no fd or thread leak (`/proc/self/fd`,
/// `/proc/self/task`), per-client frame conservation at quiescence, and
/// that every client's loop/heartbeat threads shut down cleanly.
#[test]
fn connection_churn_soaks_without_leaking_fds_or_threads() {
    let _serial = serial();
    let client_cfg = TcpConfig {
        loop_threads: 1,
        heartbeat_interval: Duration::from_millis(25),
        ..TcpConfig::default()
    };
    let srv = TcpTransport::bind(p(1), "127.0.0.1:0").unwrap();
    let run_storm = |round: u64| {
        let clients: Vec<TcpTransport> = (0..16)
            .map(|i| {
                let c = TcpTransport::bind_with(
                    p(100 + round * 16 + i),
                    "127.0.0.1:0",
                    client_cfg.clone(),
                )
                .unwrap();
                c.register_peer(p(1), srv.local_addr());
                c
            })
            .collect();
        for c in &clients {
            for k in 0..5 {
                c.send(&only(1), &NetMsg::App(AppMsg::from(format!("r{round}k{k}").as_str())))
                    .unwrap();
            }
        }
        for _ in 0..(16 * 5) {
            srv.recv_timeout(Duration::from_secs(10)).expect("storm frame arrives");
        }
        // Each client quiesces with its books balanced before teardown.
        for c in &clients {
            wait_until("client conservation", Duration::from_secs(5), || {
                let s = c.stats();
                s.frames_enqueued == s.frames_flushed + s.frames_dropped
            });
        }
        drop(clients);
    };
    // Warm-up storm: let lazy allocations (channel buffers, pools)
    // settle before taking the leak baseline.
    run_storm(0);
    let settle = |what: &str, fd0: usize, th0: usize| {
        wait_until(what, Duration::from_secs(20), || {
            count_dir("/proc/self/fd") <= fd0 && count_dir("/proc/self/task") <= th0
        });
    };
    settle("warm-up teardown", count_dir("/proc/self/fd") + 2, count_dir("/proc/self/task"));
    let fd0 = count_dir("/proc/self/fd");
    let th0 = count_dir("/proc/self/task");
    for round in 1..4 {
        run_storm(round);
    }
    // Everything the storms created must be gone again: sockets closed
    // (fds), and every client's loop/heartbeat thread exited.
    settle("post-storm resource return", fd0 + 2, th0);
    wait_until("server conns retired", Duration::from_secs(10), || srv.stats().conns_open == 0);
    let s = srv.stats();
    assert_eq!(s.loop_threads, TcpConfig::default().loop_threads as u64);
    assert_eq!(s.oversize_rejected, 0, "{s:?}");
    assert_eq!(s.idle_evictions, 0, "{s:?}");
    assert_eq!(s.frames_enqueued, s.frames_flushed + s.frames_dropped, "{s:?}");
}

/// No lost wake-up: 20 000 window-1 round trips, each within 1 s. The
/// loops park in `epoll_wait` without a timeout, so a wake-up lost
/// between a sender's enqueue and the loop's wait would hang a round
/// trip until the 1 s bound fails it, rather than cost one tick.
#[test]
fn twenty_thousand_round_trips_never_lose_a_wake_up() {
    let _serial = serial();
    let (a, b) = connected_pair();
    let ping = NetMsg::App(AppMsg::from("ping"));
    for i in 0..20_000 {
        a.send(&only(2), &ping).unwrap();
        let (_, msg) = b
            .recv_timeout(Duration::from_secs(1))
            .unwrap_or_else(|| panic!("round trip {i}: a → b not delivered within 1 s"));
        b.send(&only(1), &msg).unwrap();
        a.recv_timeout(Duration::from_secs(1))
            .unwrap_or_else(|| panic!("round trip {i}: b → a not delivered within 1 s"));
    }
}

/// `(comm, on-CPU ns)` of every thread of this process, by tid.
fn thread_cpu() -> BTreeMap<u64, (String, u64)> {
    let mut out = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) else { continue };
        let read = |f: &str| std::fs::read_to_string(task.path().join(f)).unwrap_or_default();
        let ns = read("schedstat").split_whitespace().next().and_then(|n| n.parse().ok());
        out.insert(tid, (read("comm").trim().to_string(), ns.unwrap_or(0)));
    }
    out
}

/// Idle means asleep: a connected pair that has nothing to say costs its
/// threads < 5 ms of CPU over a second — a handful of heartbeat wake-ups.
/// The condvar loops this replaced rescanned every 0.8 ms and read ≈ 40
/// ms here.
#[test]
fn an_idle_connected_pair_sleeps() {
    let _serial = serial();
    let before_bind = thread_cpu();
    let (a, b) = connected_pair();
    a.send(&only(2), &NetMsg::App(AppMsg::from("hi"))).unwrap();
    b.recv_timeout(Duration::from_secs(5)).expect("a → b");
    b.send(&only(1), &NetMsg::App(AppMsg::from("yo"))).unwrap();
    a.recv_timeout(Duration::from_secs(5)).expect("b → a");
    // The pair's threads: every transport thread its two binds started.
    let cpu0 = thread_cpu();
    let ours: Vec<u64> = cpu0
        .iter()
        .filter(|(t, (comm, _))| !before_bind.contains_key(t) && comm.starts_with("vsgm-"))
        .map(|(t, _)| *t)
        .collect();
    assert!(
        ours.iter().any(|t| cpu0.get(t).is_some_and(|(comm, _)| comm == "vsgm-net-loop")),
        "the pair's loop threads were not found: {cpu0:?}"
    );
    std::thread::sleep(Duration::from_secs(1));
    let cpu1 = thread_cpu();
    let spent: Vec<(String, f64)> = ours
        .iter()
        .filter_map(|t| {
            let (comm, ns0) = cpu0.get(t)?;
            let (_, ns1) = cpu1.get(t)?;
            Some((comm.clone(), ns1.saturating_sub(*ns0) as f64 / 1e6))
        })
        .collect();
    let total_ms: f64 = spent.iter().map(|(_, ms)| ms).sum();
    assert!(total_ms < 5.0, "an idle pair burned {total_ms:.2} ms of CPU in 1 s: {spent:?}");
}
