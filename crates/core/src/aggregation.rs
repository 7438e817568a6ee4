//! §9 extension: two-tier synchronization-message aggregation.
//!
//! The paper's conclusion sketches a scalability extension: instead of
//! every end-point multicasting its synchronization message to all peers
//! (`n·(n−1)` point-to-point messages per view change), cut messages are
//! sent to a designated *leader* which aggregates them into a single
//! batched message — `2·(n−1)` point-to-point messages.
//!
//! Enabled with [`crate::Config::aggregation`]:
//!
//! * the leader for a change is the smallest id in `start_change.set`
//!   ([`crate::vs::leader`]) — deterministic, no election round;
//! * non-leaders send their sync message to the leader only;
//! * the leader buffers contributions and fires the `FlushAgg` action
//!   once every suggested member has contributed, or as soon as the
//!   membership view arrives (whichever is earlier); stragglers after the
//!   flush are relayed individually;
//! * receivers unpack [`vsgm_types::NetMsg::SyncAgg`] entries into the
//!   same `sync_msg[q][cid]` cells, so the core algorithm is unchanged —
//!   aggregation is purely a message-routing optimization.
//!
//! Correctness is unaffected (same records reach everyone); liveness
//! additionally assumes the leader stays connected for the duration of a
//! change — if it does not, the membership issues a new `start_change`
//! excluding it and a new leader takes over in the fresh round. The
//! message-count benefit is quantified by experiment E10.

#[cfg(test)]
mod tests {
    use crate::{Action, Config, Effect, Endpoint, Input};
    use vsgm_types::{
        AppMsg, Cut, NetMsg, ProcSet, ProcessId, StartChangeId, SyncPayload, View, ViewId,
    };

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn set(ids: &[u64]) -> ProcSet {
        ids.iter().map(|&i| p(i)).collect()
    }

    fn agg_endpoint(i: u64) -> Endpoint {
        Endpoint::new(p(i), Config { aggregation: true, ..Config::default() })
    }

    fn sync_from(i: u64, cid: u64) -> Input {
        Input::Net {
            from: p(i),
            msg: NetMsg::Sync(SyncPayload {
                cid: StartChangeId::new(cid),
                view: Some(View::initial(p(i))),
                cut: Cut::new(),
            }),
        }
    }

    /// Drives the leader up to (but not including) the flush.
    fn leader_with_buffered_syncs() -> Endpoint {
        let mut ep = agg_endpoint(1);
        ep.handle(Input::StartChange { cid: StartChangeId::new(1), set: set(&[1, 2, 3]) });
        // Settle reliable/block/sync locally.
        let effects = ep.poll();
        // Leader's own sync is buffered, not sent.
        assert!(
            !effects.iter().any(|e| matches!(e, Effect::NetSend { msg: NetMsg::Sync(_), .. })),
            "{effects:?}"
        );
        ep.handle(Input::BlockOk);
        ep.poll();
        ep
    }

    #[test]
    fn leader_flushes_batch_when_all_contributions_arrive() {
        let mut ep = leader_with_buffered_syncs();
        ep.handle(sync_from(2, 7));
        assert!(
            !ep.enabled_actions().contains(&Action::FlushAgg),
            "incomplete batch must not flush"
        );
        ep.handle(sync_from(3, 4));
        assert!(ep.enabled_actions().contains(&Action::FlushAgg));
        let effects = ep.poll();
        let agg = effects.iter().find_map(|e| match e {
            Effect::NetSend { to, msg: NetMsg::SyncAgg(entries) } => Some((to, entries)),
            _ => None,
        });
        let (to, entries) = agg.expect("flush emits a SyncAgg");
        assert_eq!(to, &set(&[2, 3]));
        assert_eq!(entries.len(), 3, "all three contributions batched");
    }

    #[test]
    fn leader_flushes_early_when_view_arrives() {
        let mut ep = leader_with_buffered_syncs();
        ep.handle(sync_from(2, 7));
        // The membership view arrives before p3's sync.
        let v = View::new(
            ViewId::new(1, 0),
            [p(1), p(2), p(3)],
            [
                (p(1), StartChangeId::new(1)),
                (p(2), StartChangeId::new(7)),
                (p(3), StartChangeId::new(4)),
            ],
        );
        ep.handle(Input::MbrshpView(v));
        assert!(ep.enabled_actions().contains(&Action::FlushAgg));
        let effects = ep.poll();
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::NetSend { msg: NetMsg::SyncAgg(_), .. })));
        // A straggler after the flush is relayed immediately from the
        // input handler.
        let relays = ep.handle(sync_from(3, 4));
        let relayed = relays.iter().find_map(|e| match e {
            Effect::NetSend { to, msg: NetMsg::SyncAgg(entries) } => Some((to, entries)),
            _ => None,
        });
        let (to, entries) = relayed.expect("straggler relayed");
        assert_eq!(entries.len(), 1);
        assert_eq!(to, &set(&[2]), "relay excludes leader and the straggler itself");
    }

    #[test]
    fn non_leader_routes_sync_to_leader_only() {
        let mut ep = agg_endpoint(2);
        ep.handle(Input::StartChange { cid: StartChangeId::new(1), set: set(&[1, 2, 3]) });
        ep.poll();
        ep.handle(Input::BlockOk);
        let effects = ep.poll();
        let sync_send = effects.iter().find_map(|e| match e {
            Effect::NetSend { to, msg: NetMsg::Sync(_) } => Some(to),
            _ => None,
        });
        assert_eq!(sync_send, Some(&set(&[1])));
    }

    #[test]
    fn receivers_unpack_aggregates() {
        let mut ep = agg_endpoint(3);
        ep.handle(Input::StartChange { cid: StartChangeId::new(1), set: set(&[1, 2, 3]) });
        let payload = |i: u64, cid: u64| SyncPayload {
            cid: StartChangeId::new(cid),
            view: Some(View::initial(p(i))),
            cut: Cut::new(),
        };
        ep.handle(Input::Net {
            from: p(1),
            msg: NetMsg::SyncAgg(vec![
                (p(1), payload(1, 5)),
                (p(2), payload(2, 6)),
                (p(3), payload(3, 1)), // own entry: ignored
            ]),
        });
        assert!(ep.state().sync(p(1), StartChangeId::new(5)).is_some());
        assert!(ep.state().sync(p(2), StartChangeId::new(6)).is_some());
        assert!(
            ep.state().sync(p(3), StartChangeId::new(1)).is_none(),
            "own entry must not overwrite local record"
        );
    }

    #[test]
    fn cascaded_change_resets_aggregation_round() {
        let mut ep = leader_with_buffered_syncs();
        ep.handle(sync_from(2, 7));
        // Cascade: new start_change restarts the round.
        ep.handle(Input::StartChange { cid: StartChangeId::new(2), set: set(&[1, 2, 3]) });
        assert!(ep.state().agg_buffer.is_empty());
        assert!(!ep.state().agg_flushed);
        let _ = ep.handle(Input::AppSend(AppMsg::from("keepalive")));
    }
}
