//! Wire robustness: malformed, truncated, or hostile frames must never
//! crash a transport or corrupt its streams — nor, when they decode, the
//! end-point behind it.

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

/// Well-formed frames with hostile contents: the codec cannot refuse a
/// `u64`, so the end-point must. A `Fwd` whose index is far past anything
/// sent used to size a buffer straight from the wire (`1 << 40` slots: an
/// allocation abort; `u64::MAX`: "capacity overflow"); an `Ack` claiming
/// more than was ever multicast must free nothing and fail the audit.
#[test]
fn forged_indices_in_well_formed_frames_do_not_take_a_node_down() {
    use vsgm_core::{audit, Config, Endpoint, Input, Node};
    use vsgm_types::{Cut, FwdPayload, StartChangeId, SyncPayload, View, ViewId};

    let attacker = TcpTransport::bind(p(1), "127.0.0.1:0").unwrap();
    let victim = TcpTransport::bind(p(2), "127.0.0.1:0").unwrap();
    attacker.register_peer(p(2), victim.local_addr());
    victim.register_peer(p(1), attacker.local_addr());
    let mut node = Node::new(Endpoint::new(p(2), Config::default()), victim);

    // Bring the victim into view {p1, p2}: the attacker plays a p1 that
    // joins from its own singleton view.
    let members: ProcSet = [p(1), p(2)].into_iter().collect();
    let cid = StartChangeId::new(1);
    let view = View::new(ViewId::new(1, 0), members.clone(), members.iter().map(|m| (*m, cid)));
    node.membership(Input::StartChange { cid, set: members }).unwrap();
    node.membership(Input::MbrshpView(view.clone())).unwrap();
    let sync = SyncPayload { cid, view: Some(View::initial(p(1))), cut: Cut::new() };
    attacker.send(&only(2), &NetMsg::Sync(sync)).unwrap();
    attacker.send(&only(2), &NetMsg::ViewMsg(view.clone())).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while node.endpoint().current_view() != &view {
        assert!(std::time::Instant::now() < deadline, "victim never installed {view}");
        node.pump(Duration::from_millis(5)).unwrap();
    }
    node.send(AppMsg::from("mine")).unwrap();

    let fwd = |index: u64| {
        NetMsg::Fwd(FwdPayload { origin: p(1), view: view.clone(), index, msg: AppMsg::from("x") })
    };
    for forged in [
        fwd(1 << 40),
        fwd(u64::MAX),
        NetMsg::Ack(Cut::from_iter([(p(2), 1 << 40)])),
        NetMsg::App(AppMsg::from("still alive")),
    ] {
        attacker.send(&only(2), &forged).unwrap();
    }
    let mut events = Vec::new();
    while !events.iter().any(|e| {
        matches!(e, vsgm_core::node::AppEvent::Delivered { msg, .. }
            if *msg == AppMsg::from("still alive"))
    }) {
        assert!(std::time::Instant::now() < deadline, "victim wedged; saw {events:?}");
        events.extend(node.pump(Duration::from_millis(5)).unwrap());
    }
    assert_eq!(node.registry().counter(vsgm_obs::names::EP_STORES_REFUSED), 2);
    let st = node.endpoint().state();
    assert_eq!(st.buf(p(2), &view).map(|b| b.retained()), Some(1), "the forged ack freed nothing");
    let failure = audit::check(node.endpoint().config(), st).expect_err("forged ack recorded");
    assert_eq!(failure.check, "acked_within_sent");
}
