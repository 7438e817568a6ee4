//! Wire robustness: a peer that goes away must never take a transport
//! down or corrupt its streams. (The end-point behind a transport, fed
//! hostile frames that decode, is `vsgm-server`'s `tests/robustness.rs`.)

use std::time::Duration;
use vsgm_net::TcpTransport;
use vsgm_types::{AppMsg, NetMsg, ProcSet, ProcessId};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn only(i: u64) -> ProcSet {
    [p(i)].into_iter().collect()
}

#[test]
fn tcp_reader_survives_peer_disconnect() {
    let a = TcpTransport::bind(p(1), "127.0.0.1:0").unwrap();
    let b = TcpTransport::bind(p(2), "127.0.0.1:0").unwrap();
    a.register_peer(p(2), b.local_addr());
    b.register_peer(p(1), a.local_addr());
    a.send(&only(2), &NetMsg::App(AppMsg::from("x"))).unwrap();
    b.recv_timeout(Duration::from_secs(5)).unwrap();
    // Drop a: its connections close; b keeps running.
    drop(a);
    std::thread::sleep(Duration::from_millis(50));
    assert!(b.try_recv().is_none());
    // b can still talk to a NEW peer.
    let c = TcpTransport::bind(p(3), "127.0.0.1:0").unwrap();
    c.register_peer(p(2), b.local_addr());
    c.send(&only(2), &NetMsg::App(AppMsg::from("fresh"))).unwrap();
    let (from, msg) = b.recv_timeout(Duration::from_secs(5)).expect("new peer works");
    assert_eq!(from, p(3));
    assert_eq!(msg, NetMsg::App(AppMsg::from("fresh")));
}
