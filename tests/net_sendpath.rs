//! Regression tests for the TCP multicast send path.
//!
//! Each test pins one of the send-path bugs the per-connection-writer
//! rebuild fixed; all of them fail against the pre-rebuild transport:
//!
//! 1. **Fail-fast fan-out** — `send` used to return on the first broken
//!    peer, silently skipping the rest of the `ProcSet`.
//! 2. **Torn frames** — heartbeats were written on `try_clone()`d streams
//!    concurrently with data `write_all`s, so a heartbeat could land in
//!    the middle of a data frame and poison the stream framing.
//! 3. **Connect races** — two threads racing the first send to a peer
//!    both connected and handshook, and the second map insert evicted a
//!    live socket.
//!
//! Since a connection carries frames both ways, two more pin the choice
//! of the one connection a peer's sends use:
//!
//! 4. **Simultaneous dials** — two peers dialing each other at once end
//!    up with two connections; a dial must not displace the connection
//!    the peer dialed once sends go out on it, or one direction's frames
//!    split across two sockets and lose their order.
//! 5. **Reconnects** — a client with no registered address that comes
//!    back under its pid is answered on its new connection.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use vsgm_net::{TcpConfig, TcpTransport};
use vsgm_types::{AppMsg, NetMsg, ProcSet, ProcessId};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

/// Bug 1: a multicast with one dead destination must still reach every
/// live destination, and the error must name the peer that failed.
#[test]
fn multicast_survives_a_dead_peer() {
    // p2's address was live once (a listener existed) but the process is
    // gone; p3 and p4 are healthy.
    let gone = TcpListener::bind("127.0.0.1:0").unwrap();
    let dead_addr = gone.local_addr().unwrap();
    drop(gone);

    let a = TcpTransport::bind(p(1), "127.0.0.1:0").unwrap();
    let c = TcpTransport::bind(p(3), "127.0.0.1:0").unwrap();
    let d = TcpTransport::bind(p(4), "127.0.0.1:0").unwrap();
    a.register_peer(p(2), dead_addr);
    a.register_peer(p(3), c.local_addr());
    a.register_peer(p(4), d.local_addr());

    // BTreeSet order puts the dead p2 first: pre-rebuild, the fan-out
    // aborted there and neither p3 nor p4 ever saw the frame.
    let to: ProcSet = [p(2), p(3), p(4)].into_iter().collect();
    let err = a.send(&to, &NetMsg::App(AppMsg::from("everyone"))).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("p2"), "error should name the dead peer: {text}");
    assert!(text.contains("2/3"), "error should count reached peers: {text}");

    for peer in [&c, &d] {
        let (from, msg) =
            peer.recv_timeout(Duration::from_secs(5)).expect("live peer must still receive");
        assert_eq!(from, p(1));
        assert_eq!(msg, NetMsg::App(AppMsg::from("everyone")));
    }
}

/// Bug 2: concurrent senders plus an aggressive heartbeat prober must
/// never tear a frame. A torn frame desyncs the receiver's framing and
/// kills the reader, so the missing-message count below is the detector.
#[test]
fn concurrent_sends_and_heartbeats_never_tear_frames() {
    const THREADS: u64 = 2;
    const PER_THREAD: u64 = 5_000;

    let config = TcpConfig {
        // Heartbeat every millisecond: pre-rebuild these raced the data
        // write_alls on a cloned stream and tore frames mid-burst.
        heartbeat_interval: Duration::from_millis(1),
        suspect_after: Duration::from_secs(30),
        writer_queue: 4096,
        enqueue_timeout: Duration::from_secs(30),
        ..TcpConfig::default()
    };
    let a = TcpTransport::bind_with(p(1), "127.0.0.1:0", config.clone()).unwrap();
    let b = TcpTransport::bind_with(p(2), "127.0.0.1:0", config).unwrap();
    a.register_peer(p(2), b.local_addr());
    b.register_peer(p(1), a.local_addr());
    let to: ProcSet = [p(2)].into_iter().collect();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let a = &a;
            let to = &to;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    // Every 50th frame is large (256 KiB) so a concurrent
                    // heartbeat has a wide window to land inside it.
                    let msg = if i % 50 == 0 {
                        let mut big = vec![0u8; 256 * 1024];
                        big[0] = t as u8;
                        NetMsg::App(AppMsg::from(big))
                    } else {
                        NetMsg::App(AppMsg::from(format!("t{t}:{i}").as_str()))
                    };
                    a.send(to, &msg).expect("send must not fail mid-hammer");
                }
            });
        }
    });

    // Every frame must arrive intact: one torn frame desyncs the length
    // prefix, the decoder rejects the garbage, and the connection drops —
    // observable as missing messages here.
    let mut got = 0u64;
    let mut small_seen: BTreeMap<u64, u64> = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    while got < THREADS * PER_THREAD {
        let left = deadline.saturating_duration_since(Instant::now());
        let Some((_, msg)) = b.recv_timeout(left.min(Duration::from_secs(5))) else {
            panic!(
                "only {got}/{} frames arrived — a frame was torn or a reader died",
                THREADS * PER_THREAD
            );
        };
        got += 1;
        let NetMsg::App(appmsg) = msg else { panic!("unexpected message kind") };
        let bytes = appmsg.as_bytes();
        if bytes.len() < 1024 {
            // Small frames carry "t<thread>:<i>": FIFO per sender thread
            // is preserved through the shared writer queue.
            let text = String::from_utf8(bytes.to_vec()).expect("frame payload corrupted");
            let (t, i) = text
                .strip_prefix('t')
                .and_then(|r| r.split_once(':'))
                .map(|(t, i)| (t.parse::<u64>().unwrap(), i.parse::<u64>().unwrap()))
                .expect("frame payload corrupted");
            let next = small_seen.entry(t).or_insert(0);
            assert!(i >= *next, "thread {t} frames reordered: saw {i} after {next}");
            *next = i + 1;
        }
    }
    assert_eq!(got, THREADS * PER_THREAD);
}

/// Bug 3: threads racing the first send to the same peer must end up
/// sharing one connection — one handshake, one accepted socket — instead
/// of double-connecting and evicting each other's live stream.
#[test]
fn racing_first_sends_share_one_connection() {
    const TRIALS: usize = 20;
    const RACERS: usize = 4;

    for trial in 0..TRIALS {
        let a = TcpTransport::bind(p(1), "127.0.0.1:0").unwrap();
        let b = TcpTransport::bind(p(2), "127.0.0.1:0").unwrap();
        a.register_peer(p(2), b.local_addr());
        let to: ProcSet = [p(2)].into_iter().collect();

        let barrier = Barrier::new(RACERS);
        std::thread::scope(|s| {
            for r in 0..RACERS {
                let a = &a;
                let to = &to;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    a.send(to, &NetMsg::App(AppMsg::from(format!("r{r}").as_str())))
                        .expect("racing first send failed");
                });
            }
        });

        // All four racers' frames arrive (none rode a socket that a rival
        // insert evicted)...
        for _ in 0..RACERS {
            b.recv_timeout(Duration::from_secs(5))
                .expect("a racer's frame was lost to an evicted connection");
        }
        // ...and the receiver accepted exactly one inbound connection.
        // Pre-rebuild, racing `connection_to` calls each dialed and
        // handshook their own socket.
        let deadline = Instant::now() + Duration::from_secs(2);
        while b.accepted_connections() < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            b.accepted_connections(),
            1,
            "trial {trial}: racing first sends opened more than one connection"
        );
    }
}

/// `t:i`, the `i`-th frame of sender thread `t`.
fn numbered(t: u64, i: u64) -> NetMsg {
    NetMsg::App(AppMsg::from(format!("{t}:{i}").as_str()))
}

/// Bug 4: two transports that registered each other send their first
/// frames at each other at once, from several threads a side. However
/// the dials and accepts interleave, each side sends on one connection:
/// every receiver gets every sender thread's numbered frames in order,
/// and each side dials at most once.
#[test]
fn simultaneous_first_sends_keep_each_direction_on_one_connection() {
    const TRIALS: usize = 50;
    const THREADS: u64 = 3;
    const FRAMES: u64 = 40;

    for trial in 0..TRIALS {
        let a = TcpTransport::bind(p(1), "127.0.0.1:0").unwrap();
        let b = TcpTransport::bind(p(2), "127.0.0.1:0").unwrap();
        a.register_peer(p(2), b.local_addr());
        b.register_peer(p(1), a.local_addr());
        let barrier = Barrier::new(2 * THREADS as usize);
        std::thread::scope(|s| {
            for (from, to) in [(&a, p(2)), (&b, p(1))] {
                for t in 0..THREADS {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let to: ProcSet = [to].into_iter().collect();
                        barrier.wait();
                        for i in 0..FRAMES {
                            from.send(&to, &numbered(t, i)).expect("racing send failed");
                        }
                    });
                }
            }
        });
        for (rx, sender) in [(&a, p(2)), (&b, p(1))] {
            let mut next = [0u64; THREADS as usize];
            for _ in 0..THREADS * FRAMES {
                let (from, msg) = rx
                    .recv_timeout(Duration::from_secs(5))
                    .unwrap_or_else(|| panic!("trial {trial}: a frame from {sender} was lost"));
                assert_eq!(from, sender);
                let NetMsg::App(body) = msg else { panic!("unexpected message kind") };
                let text = String::from_utf8_lossy(body.as_bytes()).into_owned();
                let (t, i) = text.split_once(':').expect("numbered frame");
                let (t, i): (usize, u64) = (t.parse().unwrap(), i.parse().unwrap());
                assert_eq!(
                    i, next[t],
                    "trial {trial}: {sender}'s thread {t} reordered — its frames split across \
                     two connections"
                );
                next[t] += 1;
            }
        }
        assert!(
            a.accepted_connections() <= 1 && b.accepted_connections() <= 1,
            "trial {trial}: a side dialed twice"
        );
    }
}

/// Bug 5: a server that knows no client's address answers each client on
/// the connection the client dialed. A client that drops its transport
/// and binds a new one under the same pid is answered on the new
/// connection within 2 s — once the server sees the old one close, the
/// new one is installed at its next frame — and the server never dials.
#[test]
fn a_client_that_reconnects_under_its_pid_is_answered_on_its_new_connection() {
    let server = TcpTransport::bind(p(0), "127.0.0.1:0").unwrap();
    let client = || {
        let c = TcpTransport::bind(p(7), "127.0.0.1:0").unwrap();
        c.register_peer(p(0), server.local_addr());
        c
    };
    let to_server: ProcSet = [p(0)].into_iter().collect();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        // The server echoes every frame to its sender.
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                if let Some((from, msg)) = server.recv_timeout(Duration::from_millis(10)) {
                    let _ = server.send(&[from].into_iter().collect(), &msg);
                }
            }
        });
        let first = client();
        first.send(&to_server, &NetMsg::App(AppMsg::from("one"))).unwrap();
        let (_, echo) = first.recv_timeout(Duration::from_secs(5)).expect("first echo");
        assert_eq!(echo, NetMsg::App(AppMsg::from("one")));
        drop(first);
        let second = client();
        let t0 = Instant::now();
        let echo = loop {
            second.send(&to_server, &NetMsg::App(AppMsg::from("two"))).unwrap();
            if let Some((_, echo)) = second.recv_timeout(Duration::from_millis(50)) {
                break echo;
            }
            assert!(t0.elapsed() < Duration::from_secs(2), "no echo on the new connection");
        };
        assert_eq!(echo, NetMsg::App(AppMsg::from("two")));
        done.store(true, Ordering::Release);
    });
    assert_eq!(server.stats().retries, 0, "the server dialed");
    // Both clients are gone, and so is the server's record of p7.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.peer_records() != 0 {
        assert!(Instant::now() < deadline, "a closed connection's record outlived it");
        std::thread::sleep(Duration::from_millis(5));
    }
}
