//! The endpoint's protocol counters, as a `Registry` reads them.

use vsgm_core::{Config, Effect, Endpoint, Input};
use vsgm_obs::{names, Recorder, Registry};
use vsgm_types::{
    AppMsg, Cut, NetMsg, ProcSet, ProcessId, StartChangeId, SyncPayload, View, ViewId,
};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn set(ids: &[u64]) -> ProcSet {
    ids.iter().map(|&i| p(i)).collect()
}

fn pair_view(epoch: u64, cid: u64) -> View {
    View::new(
        ViewId::new(epoch, 0),
        [p(1), p(2)],
        [(p(1), StartChangeId::new(cid)), (p(2), StartChangeId::new(cid))],
    )
}

/// One [`Endpoint::step`] counting to `rec`, its effects returned.
fn step(ep: &mut Endpoint, input: Option<Input>, rec: &mut dyn Recorder) -> Vec<Effect> {
    let mut out = Vec::new();
    ep.step(input, rec, &mut out);
    out
}

/// Drives one endpoint through a full view change, answering for the
/// absent peer p2.
fn full_change(ep: &mut Endpoint, epoch: u64, cid: u64, rec: &mut dyn Recorder) {
    step(ep, Some(Input::StartChange { cid: StartChangeId::new(cid), set: set(&[1, 2]) }), rec);
    step(ep, None, rec);
    step(ep, Some(Input::BlockOk), rec);
    step(ep, None, rec);
    let sync = NetMsg::Sync(SyncPayload {
        cid: StartChangeId::new(cid),
        view: Some(ep.current_view().clone()),
        cut: Cut::new(),
    });
    step(ep, Some(Input::Net { from: p(2), msg: sync }), rec);
    step(ep, Some(Input::MbrshpView(pair_view(epoch, cid))), rec);
    step(ep, None, rec);
}

/// The counters a view change and a multicast move, in order: views
/// installed, blocks, syncs sent, messages sent, messages delivered.
fn counts(reg: &Registry) -> [u64; 5] {
    [
        names::EP_VIEWS_INSTALLED,
        names::EP_BLOCKS,
        names::EP_SYNCS_SENT,
        names::EP_MSGS_SENT,
        names::EP_MSGS_DELIVERED,
    ]
    .map(|n| reg.counter(n))
}

#[test]
fn counters_track_the_protocol() {
    let mut ep = Endpoint::new(p(1), Config::default());
    let mut reg = Registry::new();
    assert_eq!(reg.counter_rows().count(), 0);
    full_change(&mut ep, 1, 1, &mut reg);
    assert_eq!(counts(&reg), [1, 1, 1, 0, 0]);

    step(&mut ep, Some(Input::AppSend(AppMsg::from("one"))), &mut reg);
    step(&mut ep, Some(Input::AppSend(AppMsg::from("two"))), &mut reg);
    let effects = step(&mut ep, None, &mut reg);
    // Self-deliveries happen after the CO_RFIFO sends.
    let delivered = effects.iter().filter(|e| matches!(e, Effect::DeliverApp { .. })).count();
    assert_eq!(delivered, 2);
    assert_eq!(counts(&reg), [1, 1, 1, 2, 2]);

    full_change(&mut ep, 2, 2, &mut reg);
    assert_eq!(counts(&reg), [2, 2, 2, 2, 2]);
}

#[test]
fn acknowledgements_and_refused_stores_are_counted_and_recorded() {
    use vsgm_types::FwdPayload;
    let mut ep = Endpoint::new(p(1), Config::default());
    let mut rec = Registry::new();
    full_change(&mut ep, 1, 1, &mut rec);
    step(&mut ep, Some(Input::AppSend(AppMsg::from("one"))), &mut rec);
    step(&mut ep, None, &mut rec);
    // The host asks once: one acknowledgement of the own delivery.
    step(&mut ep, Some(Input::AckDue), &mut rec);
    let effects = step(&mut ep, None, &mut rec);
    assert_eq!(
        effects,
        vec![Effect::NetSend { to: set(&[2]), msg: NetMsg::Ack(Cut::from_iter([(p(1), 1)])) }]
    );
    assert!(step(&mut ep, None, &mut rec).is_empty(), "one request, one acknowledgement");
    // A forward whose index no stream could have reached is refused.
    let forged = FwdPayload {
        origin: p(2),
        view: ep.current_view().clone(),
        index: u64::MAX,
        msg: AppMsg::from("forged"),
    };
    step(&mut ep, Some(Input::Net { from: p(2), msg: NetMsg::Fwd(forged) }), &mut rec);
    assert_eq!(rec.counter(names::EP_ACKS_SENT), 1);
    assert_eq!(rec.counter(names::EP_STORES_REFUSED), 1);
}

#[test]
fn a_recovery_is_counted_once_and_counting_carries_on() {
    let mut ep = Endpoint::new(p(1), Config::default());
    let mut reg = Registry::new();
    full_change(&mut ep, 1, 1, &mut reg);
    step(&mut ep, Some(Input::Recover), &mut reg);
    assert_eq!(reg.counter(names::EP_RECOVERIES), 0, "recover while up is a no-op");

    step(&mut ep, Some(Input::Crash), &mut reg);
    // Inputs while crashed are inert and count nothing.
    step(&mut ep, Some(Input::AppSend(AppMsg::from("lost"))), &mut reg);
    assert!(step(&mut ep, None, &mut reg).is_empty());
    step(&mut ep, Some(Input::Recover), &mut reg);
    assert_eq!(reg.counter(names::EP_RECOVERIES), 1);
    assert_eq!(ep.current_view(), &View::initial(p(1)), "§8: initial state");

    // The registry outlives the volatile state: counts carry on.
    full_change(&mut ep, 2, 2, &mut reg);
    assert_eq!(counts(&reg), [2, 2, 2, 0, 0]);
}

#[test]
fn wv_stack_counts_no_syncs_or_blocks() {
    let cfg = Config { stack: vsgm_core::Stack::Wv, ..Config::default() };
    let mut ep = Endpoint::new(p(1), cfg);
    let mut reg = Registry::new();
    step(&mut ep, Some(Input::MbrshpView(pair_view(1, 1))), &mut reg);
    step(&mut ep, None, &mut reg);
    assert_eq!(counts(&reg), [1, 0, 0, 0, 0]);
}

#[test]
fn journal_covers_block_and_forward_events() {
    let mut ep = Endpoint::new(p(1), Config::default());
    let mut rec = Registry::new();

    // Move into the 3-member view {1,2,3}.
    let v3 = View::new(
        ViewId::new(1, 0),
        [p(1), p(2), p(3)],
        [
            (p(1), StartChangeId::new(1)),
            (p(2), StartChangeId::new(1)),
            (p(3), StartChangeId::new(1)),
        ],
    );
    let start = Input::StartChange { cid: StartChangeId::new(1), set: set(&[1, 2, 3]) };
    step(&mut ep, Some(start), &mut rec);
    step(&mut ep, None, &mut rec);
    step(&mut ep, Some(Input::BlockOk), &mut rec);
    step(&mut ep, None, &mut rec);
    step(&mut ep, Some(Input::MbrshpView(v3.clone())), &mut rec);
    step(&mut ep, None, &mut rec);
    assert_eq!(rec.counter(names::EP_VIEWS_INSTALLED), 1);

    // p3's current-view stream: its view_msg plus one application
    // message, which p1 buffers (and p2 will turn out to miss).
    for msg in [NetMsg::ViewMsg(v3.clone()), NetMsg::App(AppMsg::from("m1"))] {
        step(&mut ep, Some(Input::Net { from: p(3), msg }), &mut rec);
    }

    // A change to {1,2} starts (p3 partitioned away): the block handshake
    // runs and p1's sync commits to p3's message.
    let start = Input::StartChange { cid: StartChangeId::new(2), set: set(&[1, 2]) };
    step(&mut ep, Some(start), &mut rec);
    step(&mut ep, None, &mut rec);
    step(&mut ep, Some(Input::BlockOk), &mut rec);
    step(&mut ep, None, &mut rec);
    assert_eq!(rec.counter(names::EP_BLOCKS), 2);
    assert_eq!(rec.counter(names::EP_SYNCS_SENT), 2);

    // p2's sync reveals it misses p3's message: the default eager
    // strategy forwards it, counted in `endpoint.forwards_sent`.
    let mut cut = Cut::new();
    cut.set(p(3), 0);
    let sync = SyncPayload { cid: StartChangeId::new(4), view: Some(v3.clone()), cut };
    step(&mut ep, Some(Input::Net { from: p(2), msg: NetMsg::Sync(sync) }), &mut rec);
    step(&mut ep, None, &mut rec);
    assert_eq!(rec.counter(names::EP_FORWARDS_SENT), 1, "eager forward of p3's m1");
}
