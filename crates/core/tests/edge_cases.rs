//! Edge-case behavior of the end-point automaton: inputs arriving in odd
//! orders, stale and foreign traffic, and defensive handling the paper's
//! abstract automata take for granted.

use vsgm_core::{Action, Config, Effect, Endpoint, Input, Stack};
use vsgm_types::{
    AppMsg, Cut, FwdPayload, NetMsg, ProcSet, ProcessId, StartChangeId, SyncPayload, View, ViewId,
};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn set(ids: &[u64]) -> ProcSet {
    ids.iter().map(|&i| p(i)).collect()
}

fn view(epoch: u64, members: &[u64], cid: u64) -> View {
    View::new(
        ViewId::new(epoch, 0),
        members.iter().map(|&i| p(i)),
        members.iter().map(|&i| (p(i), StartChangeId::new(cid))),
    )
}

#[test]
fn app_msg_from_unknown_peer_is_buffered_not_fatal() {
    let mut ep = Endpoint::new(p(1), Config::default());
    // A message from p9, never seen before, with no preceding view_msg:
    // it lands in p9's initial-view buffer and stays inert.
    ep.handle(Input::Net { from: p(9), msg: NetMsg::App(AppMsg::from("stray")) });
    let effects = ep.poll();
    assert!(!effects.iter().any(|e| matches!(e, Effect::DeliverApp { .. })));
}

#[test]
fn fwd_msg_for_unknown_view_is_stored_inert() {
    let mut ep = Endpoint::new(p(1), Config::default());
    let foreign = view(7, &[2, 3], 9);
    ep.handle(Input::Net {
        from: p(2),
        msg: NetMsg::Fwd(FwdPayload {
            origin: p(3),
            view: foreign.clone(),
            index: 5,
            msg: AppMsg::from("future"),
        }),
    });
    assert!(ep.poll().iter().all(|e| !matches!(e, Effect::DeliverApp { .. })));
    assert!(ep.state().buf(p(3), &foreign).is_some());
}

#[test]
fn view_with_non_matching_start_id_blocks_installation_forever() {
    let mut ep = Endpoint::new(p(1), Config::default());
    ep.handle(Input::StartChange { cid: StartChangeId::new(2), set: set(&[1, 2]) });
    ep.poll();
    ep.handle(Input::BlockOk);
    ep.poll();
    // View claims cid 1 for us, but our pending change is cid 2.
    ep.handle(Input::MbrshpView(view(1, &[1, 2], 1)));
    ep.poll();
    assert!(ep.reconfiguring());
    assert!(ep.current_view().is_initial(), "obsolete view must not install");
}

#[test]
fn equal_view_id_is_not_installable() {
    let mut ep = Endpoint::new(p(1), Config::default());
    // mbrshp view with id equal to the current (initial) view id.
    let same_id = View::new(ViewId::ZERO, [p(1)], [(p(1), StartChangeId::new(1))]);
    ep.handle(Input::StartChange { cid: StartChangeId::new(1), set: set(&[1]) });
    ep.handle(Input::MbrshpView(same_id));
    ep.handle(Input::BlockOk);
    let effects = ep.poll();
    assert!(!effects.iter().any(|e| matches!(e, Effect::InstallView { .. })));
}

#[test]
fn sync_overwrite_keeps_latest_per_cid() {
    let mut ep = Endpoint::new(p(1), Config::default());
    let mk = |n: u64| {
        NetMsg::Sync(SyncPayload {
            cid: StartChangeId::new(1),
            view: Some(View::initial(p(2))),
            cut: Cut::from_iter([(p(2), n)]),
        })
    };
    ep.handle(Input::Net { from: p(2), msg: mk(1) });
    ep.handle(Input::Net { from: p(2), msg: mk(4) });
    assert_eq!(
        ep.state().sync(p(2), StartChangeId::new(1)).unwrap().cut.get(p(2)),
        4,
        "later record for the same cid wins"
    );
}

#[test]
fn block_ok_without_block_is_harmless_for_wv_stack() {
    let cfg = Config { stack: Stack::Wv, ..Config::default() };
    let mut ep = Endpoint::new(p(1), cfg);
    ep.handle(Input::BlockOk); // no SD layer: ignored entirely
    assert!(ep.poll().is_empty());
}

#[test]
fn actions_disabled_after_crash_enabled_after_recover() {
    let mut ep = Endpoint::new(p(1), Config::default());
    ep.handle(Input::StartChange { cid: StartChangeId::new(1), set: set(&[1, 2]) });
    assert!(!ep.enabled_actions().is_empty());
    ep.handle(Input::Crash);
    assert!(ep.enabled_actions().is_empty());
    // Inputs while crashed have no effect.
    ep.handle(Input::AppSend(AppMsg::from("void")));
    ep.handle(Input::MbrshpView(view(3, &[1], 3)));
    assert!(ep.enabled_actions().is_empty());
    ep.handle(Input::Recover);
    // Fresh state: the old start_change is gone, initial view back.
    assert!(!ep.reconfiguring());
    assert!(ep.current_view().is_initial());
}

#[test]
fn canonical_action_order_is_stable() {
    // SetReliable must come first so the sync (which requires reliable
    // coverage) can follow within one poll; Block before SendSyncMsg's
    // effects need the handshake.
    let mut ep = Endpoint::new(p(1), Config::default());
    ep.handle(Input::StartChange { cid: StartChangeId::new(1), set: set(&[1, 2, 3]) });
    let actions = ep.enabled_actions();
    assert_eq!(actions.first(), Some(&Action::SetReliable), "{actions:?}");
    let effects = ep.poll();
    // One poll carries the whole local phase: reliable + block.
    assert!(effects.iter().any(|e| matches!(e, Effect::SetReliable(_))));
    assert!(effects.iter().any(|e| matches!(e, Effect::Block)));
    // Sync still withheld (no block_ok yet).
    assert!(!effects.iter().any(|e| matches!(e, Effect::NetSend { msg: NetMsg::Sync(_), .. })));
}

#[test]
fn repeated_identical_start_change_is_idempotent_protocolwise() {
    let mut a = Endpoint::new(p(1), Config::default());
    a.handle(Input::StartChange { cid: StartChangeId::new(1), set: set(&[1, 2]) });
    a.poll();
    a.handle(Input::BlockOk);
    let first = a.poll();
    let syncs =
        first.iter().filter(|e| matches!(e, Effect::NetSend { msg: NetMsg::Sync(_), .. })).count();
    assert_eq!(syncs, 1);
    // Replaying the same cid (allowed nowhere by the spec, but defensive):
    // no second sync for the same cid.
    a.handle(Input::StartChange { cid: StartChangeId::new(1), set: set(&[1, 2]) });
    let again = a.poll();
    assert!(
        !again.iter().any(|e| matches!(e, Effect::NetSend { msg: NetMsg::Sync(_), .. })),
        "{again:?}"
    );
}

#[test]
fn cascaded_start_change_produces_fresh_sync() {
    let mut a = Endpoint::new(p(1), Config::default());
    a.handle(Input::StartChange { cid: StartChangeId::new(1), set: set(&[1, 2]) });
    a.poll();
    a.handle(Input::BlockOk);
    a.poll();
    a.handle(Input::StartChange { cid: StartChangeId::new(2), set: set(&[1, 2, 3]) });
    let effects = a.poll();
    let sync_cids: Vec<StartChangeId> = effects
        .iter()
        .filter_map(|e| match e {
            Effect::NetSend { msg: NetMsg::Sync(s), .. } => Some(s.cid),
            _ => None,
        })
        .collect();
    assert_eq!(sync_cids, vec![StartChangeId::new(2)]);
    // Both own records exist (old one retained for late view selection).
    assert!(a.state().sync(p(1), StartChangeId::new(1)).is_some());
    assert!(a.state().sync(p(1), StartChangeId::new(2)).is_some());
}

#[test]
fn send_view_msg_only_after_reliable_covers_view() {
    let mut a = Endpoint::new(p(1), Config::default());
    a.handle(Input::StartChange { cid: StartChangeId::new(1), set: set(&[1, 2]) });
    a.handle(Input::BlockOk);
    a.poll();
    a.handle(Input::Net {
        from: p(2),
        msg: NetMsg::Sync(SyncPayload {
            cid: StartChangeId::new(1),
            view: Some(View::initial(p(2))),
            cut: Cut::new(),
        }),
    });
    a.handle(Input::MbrshpView(view(1, &[1, 2], 1)));
    let effects = a.poll();
    // view_msg must appear, and only after a SetReliable covering {1,2}.
    let reliable_pos =
        effects.iter().position(|e| matches!(e, Effect::SetReliable(s) if s.contains(&p(2))));
    let viewmsg_pos =
        effects.iter().position(|e| matches!(e, Effect::NetSend { msg: NetMsg::ViewMsg(_), .. }));
    match (reliable_pos, viewmsg_pos) {
        (Some(r), Some(v)) => assert!(r < v, "{effects:?}"),
        // reliable may have been set in an earlier poll; view_msg present
        // is the essential part.
        (None, Some(_)) => {}
        other => panic!("missing view_msg announcement: {other:?} in {effects:?}"),
    }
}

#[test]
fn gcs_view_effect_carries_transitional_set() {
    let mut a = Endpoint::new(p(1), Config::default());
    a.handle(Input::StartChange { cid: StartChangeId::new(1), set: set(&[1, 2]) });
    a.poll();
    a.handle(Input::BlockOk);
    a.poll();
    a.handle(Input::Net {
        from: p(2),
        msg: NetMsg::Sync(SyncPayload {
            cid: StartChangeId::new(1),
            view: Some(View::initial(p(2))),
            cut: Cut::new(),
        }),
    });
    a.handle(Input::MbrshpView(view(1, &[1, 2], 1)));
    let effects = a.poll();
    let t = effects.iter().find_map(|e| match e {
        Effect::InstallView { transitional, .. } => Some(transitional.clone()),
        _ => None,
    });
    // p2 moved from ITS initial view, not ours: T = {p1}.
    assert_eq!(t, Some(set(&[1])));
}
