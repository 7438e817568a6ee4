//! End-to-end over real TCP sockets: the runtime `Node` pump with the
//! full algorithm, single-threaded round-robin for determinism.

use std::time::{Duration, Instant};
use vsgm_core::node::AppEvent;
use vsgm_core::{Config, Endpoint, Input, Node};
use vsgm_net::TcpTransport;
use vsgm_types::{AppMsg, ProcSet, ProcessId, StartChangeId, View, ViewId};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn cluster(n: u64) -> Vec<Node> {
    let transports: Vec<TcpTransport> =
        (1..=n).map(|i| TcpTransport::bind(p(i), "127.0.0.1:0").expect("bind")).collect();
    let addrs: Vec<_> = transports.iter().map(|t| t.local_addr()).collect();
    for t in &transports {
        for i in 1..=n {
            if p(i) != t.me() {
                t.register_peer(p(i), addrs[(i - 1) as usize]);
            }
        }
    }
    transports
        .into_iter()
        .map(|t| {
            let me = t.me();
            Node::new(Endpoint::new(me, Config::default()), t)
        })
        .collect()
}

fn scripted_view(members: &ProcSet, epoch: u64, cid: u64) -> View {
    View::new(
        ViewId::new(epoch, 0),
        members.iter().copied(),
        members.iter().map(|&m| (m, StartChangeId::new(cid))),
    )
}

fn pump_all(nodes: &mut [Node], events: &mut Vec<(ProcessId, AppEvent)>) {
    for n in nodes.iter_mut() {
        let me = n.endpoint().pid();
        for e in n.pump(Duration::from_millis(5)).expect("pump") {
            events.push((me, e));
        }
    }
}

fn pump_until(
    nodes: &mut [Node],
    events: &mut Vec<(ProcessId, AppEvent)>,
    mut done: impl FnMut(&[(ProcessId, AppEvent)]) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done(events) {
        assert!(Instant::now() < deadline, "timeout; events: {events:#?}");
        pump_all(nodes, events);
    }
}

fn form_view(
    nodes: &mut [Node],
    events: &mut Vec<(ProcessId, AppEvent)>,
    members: &ProcSet,
    epoch: u64,
    cid: u64,
) -> View {
    let view = scripted_view(members, epoch, cid);
    for n in nodes.iter_mut() {
        if members.contains(&n.endpoint().pid()) {
            let me = n.endpoint().pid();
            for e in n
                .membership(Input::StartChange {
                    cid: StartChangeId::new(cid),
                    set: members.clone(),
                })
                .expect("membership")
            {
                events.push((me, e));
            }
        }
    }
    for n in nodes.iter_mut() {
        if members.contains(&n.endpoint().pid()) {
            let me = n.endpoint().pid();
            for e in n.membership(Input::MbrshpView(view.clone())).expect("membership") {
                events.push((me, e));
            }
        }
    }
    let expected = members.len();
    let v = view.clone();
    pump_until(nodes, events, |evs| {
        evs.iter().filter(|(_, e)| matches!(e, AppEvent::View { view, .. } if view == &v)).count()
            >= expected
    });
    view
}

#[test]
fn three_nodes_view_and_fifo_multicast() {
    let mut nodes = cluster(3);
    let mut events = Vec::new();
    let members: ProcSet = (1..=3).map(p).collect();
    form_view(&mut nodes, &mut events, &members, 1, 1);

    // A FIFO burst from p1.
    for k in 0..10 {
        let me = nodes[0].endpoint().pid();
        for e in nodes[0].send(AppMsg::from(format!("m{k}").as_str())).expect("send") {
            events.push((me, e));
        }
    }
    pump_until(&mut nodes, &mut events, |evs| {
        evs.iter().filter(|(_, e)| matches!(e, AppEvent::Delivered { .. })).count() >= 30
    });
    // Per receiver, messages arrive in send order.
    for i in 1..=3u64 {
        let got: Vec<String> = events
            .iter()
            .filter_map(|(to, e)| match e {
                AppEvent::Delivered { from, msg } if *to == p(i) && *from == p(1) => {
                    Some(String::from_utf8_lossy(msg.as_bytes()).into_owned())
                }
                _ => None,
            })
            .collect();
        let expected: Vec<String> = (0..10).map(|k| format!("m{k}")).collect();
        assert_eq!(got, expected, "receiver p{i}");
    }
}

#[test]
fn view_change_over_tcp_preserves_virtual_synchrony() {
    let mut nodes = cluster(3);
    let mut events = Vec::new();
    let members: ProcSet = (1..=3).map(p).collect();
    form_view(&mut nodes, &mut events, &members, 1, 1);

    // Traffic, then shrink to {1,2}.
    let me = nodes[2].endpoint().pid();
    for e in nodes[2].send(AppMsg::from("from p3")).expect("send") {
        events.push((me, e));
    }
    pump_until(&mut nodes, &mut events, |evs| {
        evs.iter()
            .filter(|(_, e)| matches!(e, AppEvent::Delivered { msg, .. } if *msg == AppMsg::from("from p3")))
            .count()
            >= 3
    });
    let pair: ProcSet = (1..=2).map(p).collect();
    let v2 = form_view(&mut nodes[..2], &mut events, &pair, 2, 2);
    // Transitional sets on the shrink: both survivors moved together.
    for (who, e) in &events {
        if let AppEvent::View { view, transitional } = e {
            if view == &v2 {
                assert_eq!(transitional, &pair, "T at {who}");
            }
        }
    }
    // Multicast still works in the pair view.
    let me = nodes[0].endpoint().pid();
    for e in nodes[0].send(AppMsg::from("pair msg")).expect("send") {
        events.push((me, e));
    }
    pump_until(&mut nodes[..2], &mut events, |evs| {
        evs.iter()
            .filter(|(_, e)| matches!(e, AppEvent::Delivered { msg, .. } if *msg == AppMsg::from("pair msg")))
            .count()
            >= 2
    });
}
