//! Concurrency and stress tests for the TCP transport.

use std::sync::Arc;
use std::time::{Duration, Instant};
use vsgm_net::TcpTransport;
use vsgm_types::{AppMsg, NetMsg, ProcSet, ProcessId};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn only(i: u64) -> ProcSet {
    [p(i)].into_iter().collect()
}

fn payload(tag: u64, k: usize) -> NetMsg {
    NetMsg::App(AppMsg::from(format!("{tag}:{k}").as_str()))
}

#[test]
fn tcp_concurrent_senders_share_one_transport() {
    // TcpTransport::send takes &self: multiple threads may send through the
    // same node concurrently. Each thread's stream must stay FIFO.
    let a = Arc::new(TcpTransport::bind(p(1), "127.0.0.1:0").unwrap());
    let b = TcpTransport::bind(p(2), "127.0.0.1:0").unwrap();
    a.register_peer(p(2), b.local_addr());
    b.register_peer(p(1), a.local_addr());

    const THREADS: u64 = 4;
    const PER_THREAD: usize = 50;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let a = Arc::clone(&a);
        handles.push(std::thread::spawn(move || {
            for k in 0..PER_THREAD {
                a.send(&only(2), &payload(t, k)).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Collect everything; per-tag sequences must be in order.
    let mut seqs: std::collections::HashMap<u64, Vec<usize>> = Default::default();
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut got = 0;
    while got < THREADS as usize * PER_THREAD {
        assert!(Instant::now() < deadline, "only {got} messages arrived");
        if let Some((_, NetMsg::App(m))) = b.recv_timeout(Duration::from_millis(100)) {
            let text = String::from_utf8_lossy(m.as_bytes()).into_owned();
            let (tag, k) = text.split_once(':').unwrap();
            seqs.entry(tag.parse().unwrap()).or_default().push(k.parse().unwrap());
            got += 1;
        }
    }
    for (tag, seq) in seqs {
        let expected: Vec<usize> = (0..PER_THREAD).collect();
        assert_eq!(seq, expected, "thread {tag} stream reordered");
    }
}

#[test]
fn tcp_many_peers_fan_out() {
    const N: u64 = 6;
    let transports: Vec<TcpTransport> =
        (1..=N).map(|i| TcpTransport::bind(p(i), "127.0.0.1:0").unwrap()).collect();
    let addrs: Vec<_> = transports.iter().map(|t| t.local_addr()).collect();
    for t in &transports {
        for i in 1..=N {
            if p(i) != t.me() {
                t.register_peer(p(i), addrs[(i - 1) as usize]);
            }
        }
    }
    let everyone: ProcSet = (1..=N).map(p).collect();
    transports[0].send(&everyone, &payload(0, 0)).unwrap();
    for t in &transports[1..] {
        let (from, msg) = t.recv_timeout(Duration::from_secs(10)).expect("fan-out arrives");
        assert_eq!(from, p(1));
        assert_eq!(msg, payload(0, 0));
    }
}
