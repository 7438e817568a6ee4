//! Garbage collection and memory-boundedness: the paper notes that "any
//! actual implementation of the algorithm needs to employ some sort of a
//! garbage collection mechanism for discarding old messages." The
//! end-point keeps the current and previous view generations (the
//! previous one because forwarding duties may still be pending) and drops
//! everything older on view installation. Within the current view it
//! drops what every member has acknowledged delivering
//! (`vsgm_core::stability`) — whenever its host asks for a round of
//! acknowledgements, and never otherwise.

use vsgm_core::{Config, Endpoint, Input};
use vsgm_types::{AppMsg, ProcSet, ProcessId, StartChangeId, View, ViewId};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn members() -> ProcSet {
    [p(1), p(2)].into_iter().collect()
}

fn view(epoch: u64, cid: u64) -> View {
    View::new(
        ViewId::new(epoch, 0),
        members(),
        members().iter().map(|&m| (m, StartChangeId::new(cid))),
    )
}

/// Drives two endpoints through one reconfiguration by direct message
/// routing.
fn reconfigure(a: &mut Endpoint, b: &mut Endpoint, epoch: u64, cid: u64) {
    let v = view(epoch, cid);
    for ep in [&mut *a, &mut *b] {
        ep.handle(Input::StartChange { cid: StartChangeId::new(cid), set: members() });
        ep.handle(Input::MbrshpView(v.clone()));
    }
    exchange(a, b);
}

/// Routes the two endpoints' traffic to each other, acknowledging any
/// block request, until neither has anything left to say.
fn exchange(a: &mut Endpoint, b: &mut Endpoint) {
    for _ in 0..50 {
        let mut traffic = Vec::new();
        for (me, ep) in [(p(1), &mut *a), (p(2), &mut *b)] {
            let mut effects = ep.handle(Input::BlockOk);
            effects.extend(ep.poll());
            for e in effects {
                if let vsgm_core::Effect::NetSend { to, msg } = e {
                    traffic.push((me, to, msg));
                }
            }
        }
        if traffic.is_empty() {
            break;
        }
        for (from, to, msg) in traffic {
            for (me, ep) in [(p(1), &mut *a), (p(2), &mut *b)] {
                if to.contains(&me) && me != from {
                    ep.handle(Input::Net { from, msg: msg.clone() });
                }
            }
        }
    }
    a.poll();
    b.poll();
}

/// How many slots `ep` retains of `from`'s stream in its current view.
fn retained(ep: &Endpoint, from: u64) -> usize {
    ep.state().buf(p(from), ep.current_view()).map_or(0, |b| b.retained())
}

/// `count` multicasts from p1, delivered everywhere.
fn multicast(a: &mut Endpoint, b: &mut Endpoint, count: usize) {
    for k in 0..count {
        a.handle(Input::AppSend(AppMsg::from(format!("m{k}").as_str())));
    }
    exchange(a, b);
}

#[test]
fn one_round_of_acknowledgements_frees_a_stable_view() {
    let mut a = Endpoint::new(p(1), Config::default());
    let mut b = Endpoint::new(p(2), Config::default());
    reconfigure(&mut a, &mut b, 1, 1);
    multicast(&mut a, &mut b, 200);
    assert_eq!(b.state().dlvrd(p(1)), 200);
    // Nobody asked: both hold all 200, as the paper's automaton does.
    assert_eq!((retained(&a, 1), retained(&b, 1)), (200, 200));
    for ep in [&mut a, &mut b] {
        ep.handle(Input::AckDue);
    }
    exchange(&mut a, &mut b);
    assert_eq!((retained(&a, 1), retained(&b, 1)), (0, 0));
    // What is retained from here on is what was sent since that round.
    multicast(&mut a, &mut b, 7);
    assert_eq!((retained(&a, 1), retained(&b, 1)), (7, 7));
    // The cut still counts everything: the next view change agrees on 207.
    assert_eq!(a.state().commit_cut().get(p(1)), 207);
    reconfigure(&mut a, &mut b, 2, 2);
    assert_eq!(a.current_view().id().epoch, 2);
}

#[test]
fn an_ack_for_a_view_not_yet_installed_frees_nothing() {
    let mut a = Endpoint::new(p(1), Config::default());
    let mut b = Endpoint::new(p(2), Config::default());
    reconfigure(&mut a, &mut b, 1, 1);
    multicast(&mut a, &mut b, 5);
    // The next change: p2 hears the membership view, p1 only the
    // start_change — so p2 installs view 2 (p1's synchronization message
    // is all it needs) while p1 stays in view 1.
    let v2 = view(2, 2);
    for ep in [&mut a, &mut b] {
        ep.handle(Input::StartChange { cid: StartChangeId::new(2), set: members() });
    }
    b.handle(Input::MbrshpView(v2.clone()));
    exchange(&mut a, &mut b);
    assert_eq!((a.current_view().id().epoch, b.current_view().id().epoch), (1, 2));
    // In view 2, p2 multicasts and acknowledges its own delivery. At p1
    // the acknowledgement is attributed to `view_msg[p2]` = view 2, which
    // p1 has not installed: ignored.
    b.handle(Input::AppSend(AppMsg::from("early")));
    b.handle(Input::AckDue);
    exchange(&mut a, &mut b);
    assert!(b.state().stability.as_ref().is_some_and(|s| !s.announced.is_empty()));
    assert_eq!(a.state().stability, None);
    assert_eq!(retained(&a, 1), 5);
    // Once p1 installs view 2 it delivers the early message, and still
    // holds it: nobody has acknowledged it in a view p1 was in.
    a.handle(Input::MbrshpView(v2));
    exchange(&mut a, &mut b);
    assert_eq!(a.current_view().id().epoch, 2);
    assert_eq!((a.state().dlvrd(p(2)), retained(&a, 2)), (1, 1));
}

#[test]
fn buffers_bounded_across_many_view_changes() {
    let mut a = Endpoint::new(p(1), Config::default());
    let mut b = Endpoint::new(p(2), Config::default());
    let mut max_buffers = 0usize;
    let mut max_syncs = 0usize;
    for round in 1..=50u64 {
        reconfigure(&mut a, &mut b, round, round);
        assert_eq!(a.current_view().id().epoch, round, "round {round} installed");
        // Traffic every round so buffers would grow without GC.
        a.handle(Input::AppSend(AppMsg::from(format!("r{round}").as_str())));
        a.poll();
        max_buffers = max_buffers.max(a.state().msgs.len()).max(b.state().msgs.len());
        max_syncs = max_syncs.max(a.state().sync_msgs.len()).max(b.state().sync_msgs.len());
    }
    // Current + previous generation only: a handful of (sender, view)
    // buffers and sync records, regardless of 50 view changes.
    assert!(max_buffers <= 8, "msgs buffers grew unbounded: {max_buffers}");
    assert!(max_syncs <= 8, "sync records grew unbounded: {max_syncs}");
}

#[test]
fn gc_keeps_previous_generation_for_forwarding() {
    let mut a = Endpoint::new(p(1), Config::default());
    let mut b = Endpoint::new(p(2), Config::default());
    reconfigure(&mut a, &mut b, 1, 1);
    let v1 = a.current_view().clone();
    a.handle(Input::AppSend(AppMsg::from("kept")));
    a.poll();
    reconfigure(&mut a, &mut b, 2, 2);
    // The previous view's buffer survives one generation...
    assert!(
        a.state().buf(p(1), &v1).is_some(),
        "previous-generation buffer must be retained for forwarding"
    );
    reconfigure(&mut a, &mut b, 3, 3);
    // ...and is collected after the next.
    assert!(a.state().buf(p(1), &v1).is_none(), "buffers two generations old must be collected");
}

#[test]
fn forwarded_set_pruned_with_buffers() {
    let mut a = Endpoint::new(p(1), Config::default());
    let mut b = Endpoint::new(p(2), Config::default());
    for round in 1..=10u64 {
        reconfigure(&mut a, &mut b, round, round);
    }
    assert!(a.state().forwarded.len() <= 4, "forwarded set must not leak");
}
