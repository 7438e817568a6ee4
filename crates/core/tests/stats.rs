//! The endpoint's protocol counters.

use vsgm_core::{Config, Effect, Endpoint, Input};
use vsgm_obs::Recorder;
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

/// One [`Endpoint::step`] journaling to `rec`, its effects returned.
fn step(ep: &mut Endpoint, input: Option<Input>, rec: &mut dyn Recorder) -> Vec<Effect> {
    let mut out = Vec::new();
    ep.step(input, rec, &mut out);
    out
}

/// Drives one endpoint through a full view change, answering for the
/// absent peer p2.
fn full_change(ep: &mut Endpoint, epoch: u64, cid: u64) {
    ep.handle(Input::StartChange { cid: StartChangeId::new(cid), set: set(&[1, 2]) });
    ep.poll();
    ep.handle(Input::BlockOk);
    ep.poll();
    ep.handle(Input::Net {
        from: p(2),
        msg: NetMsg::Sync(SyncPayload {
            cid: StartChangeId::new(cid),
            view: Some(ep.current_view().clone()),
            cut: Cut::new(),
        }),
    });
    ep.handle(Input::MbrshpView(pair_view(epoch, cid)));
    ep.poll();
}

#[test]
fn counters_track_the_protocol() {
    let mut ep = Endpoint::new(p(1), Config::default());
    assert_eq!(ep.stats(), Default::default());
    full_change(&mut ep, 1, 1);
    let s = ep.stats();
    assert_eq!(s.views_installed, 1);
    assert_eq!(s.blocks, 1);
    assert_eq!(s.syncs_sent, 1);
    assert_eq!(s.msgs_sent, 0);

    ep.handle(Input::AppSend(AppMsg::from("one")));
    ep.handle(Input::AppSend(AppMsg::from("two")));
    let effects = ep.poll();
    // Self-deliveries happen after the CO_RFIFO sends.
    let delivered = effects.iter().filter(|e| matches!(e, Effect::DeliverApp { .. })).count();
    let s = ep.stats();
    assert_eq!(s.msgs_sent, 2);
    assert_eq!(s.msgs_delivered as usize, delivered);
    assert_eq!(s.msgs_delivered, 2);

    full_change(&mut ep, 2, 2);
    let s = ep.stats();
    assert_eq!(s.views_installed, 2);
    assert_eq!(s.blocks, 2);
    assert_eq!(s.syncs_sent, 2);
}

#[test]
fn acknowledgements_and_refused_stores_are_counted_and_recorded() {
    use vsgm_obs::{names, ObsRecorder};
    use vsgm_types::FwdPayload;
    let mut ep = Endpoint::new(p(1), Config::default());
    let mut rec = ObsRecorder::new();
    full_change(&mut ep, 1, 1);
    ep.handle(Input::AppSend(AppMsg::from("one")));
    ep.poll();
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
    assert_eq!(ep.stats().stores_refused, 1);
    assert_eq!(rec.registry().counter(names::EP_ACKS_SENT), 1);
    assert_eq!(rec.registry().counter(names::EP_STORES_REFUSED), 1);
}

#[test]
fn recovery_resets_counters() {
    let mut ep = Endpoint::new(p(1), Config::default());
    full_change(&mut ep, 1, 1);
    assert_ne!(ep.stats(), Default::default());
    ep.handle(Input::Crash);
    ep.handle(Input::Recover);
    assert_eq!(ep.stats(), Default::default());
}

#[test]
fn recovery_zeroes_every_counter_and_journals_the_reset() {
    use vsgm_obs::{ObsEvent, ObsRecorder};
    let mut ep = Endpoint::new(p(1), Config::default());
    let mut rec = ObsRecorder::new();
    full_change(&mut ep, 1, 1);
    ep.handle(Input::AppSend(AppMsg::from("pre-crash")));
    ep.poll();
    let s = ep.stats();
    assert!(s.views_installed >= 1 && s.msgs_sent >= 1 && s.syncs_sent >= 1);

    step(&mut ep, Some(Input::Crash), &mut rec);
    // Inputs while crashed are inert and must not disturb the counters.
    ep.handle(Input::AppSend(AppMsg::from("lost")));
    step(&mut ep, Some(Input::Recover), &mut rec);

    // §8: recovery restarts from the initial volatile state — every
    // counter field individually back at zero.
    let s = ep.stats();
    assert_eq!(s.views_installed, 0);
    assert_eq!(s.msgs_sent, 0);
    assert_eq!(s.msgs_delivered, 0);
    assert_eq!(s.syncs_sent, 0);
    assert_eq!(s.forwards_sent, 0);
    assert_eq!(s.blocks, 0);
    // The reset itself is journalled exactly once.
    assert_eq!(rec.journal().count(ObsEvent::RecoveryReset), 1);

    // Counting restarts from scratch after the reset.
    full_change(&mut ep, 2, 2);
    let s = ep.stats();
    assert_eq!(s.views_installed, 1);
    assert_eq!(s.syncs_sent, 1);
    assert_eq!(s.blocks, 1);
}

#[test]
fn wv_stack_counts_no_syncs_or_blocks() {
    let cfg = Config { stack: vsgm_core::Stack::Wv, ..Config::default() };
    let mut ep = Endpoint::new(p(1), cfg);
    ep.handle(Input::MbrshpView(pair_view(1, 1)));
    ep.poll();
    let s = ep.stats();
    assert_eq!(s.views_installed, 1);
    assert_eq!(s.syncs_sent, 0);
    assert_eq!(s.blocks, 0);
}

#[test]
fn journal_covers_block_and_forward_events() {
    use vsgm_obs::{ObsEvent, ObsRecorder};
    let mut ep = Endpoint::new(p(1), Config::default());
    let mut rec = ObsRecorder::new();

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
    assert_eq!(rec.journal().count(ObsEvent::ViewInstalled), 1);

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
    assert_eq!(rec.journal().count(ObsEvent::BlockOk), 2);
    assert_eq!(rec.journal().count(ObsEvent::SyncSent), 2);

    // p2's sync reveals it misses p3's message: the default eager
    // strategy forwards it, journalled as ForwardSent.
    let mut cut = Cut::new();
    cut.set(p(3), 0);
    let sync = SyncPayload { cid: StartChangeId::new(4), view: Some(v3.clone()), cut };
    step(&mut ep, Some(Input::Net { from: p(2), msg: NetMsg::Sync(sync) }), &mut rec);
    step(&mut ep, None, &mut rec);
    assert_eq!(rec.journal().count(ObsEvent::ForwardSent), 1, "eager forward of p3's m1");
}
