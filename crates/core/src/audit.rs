//! `StateAudit`: the local legal-state predicate of the
//! self-stabilization tier.
//!
//! Every reachable state of a fault-free end-point satisfies every check
//! in this module (pinned by the exploration cross-check in
//! `vsgm-explore`); a state damaged by [`crate::corrupt`] generally does
//! not. The end-point runs [`check`] on its tick cadence when
//! [`crate::Config::audit`] is set and, on failure, reconciles through
//! the §8 crash/recovery path — see [`crate::endpoint`].
//!
//! The audit *is* the paper's local proof invariants (§6–§7), the one
//! implementation of each: `Sim::assert_paper_invariants` runs [`check`]
//! on every end-point, then the cross-process ones of
//! [`crate::invariants`]. The rest of the checks are written against each
//! field of [`State`] directly: the audit is the *coverage* surface
//! ([`check`] destructures `State` with no `..`, so a new field is a
//! compile error here until a check reads it), and a detection must name
//! the specific field-level contradiction for the minimized
//! counterexample to be actionable.
//!
//! | Check | Paper |
//! |---|---|
//! | `self_inclusion` | Invariant 6.1: `p ∈ mbrshp_view.set ∧ p ∈ current_view.set` |
//! | `reliable_covers_view` | Invariant 6.2: once the view is announced, `current_view.set ⊆ reliable_set` |
//! | `own_sync_in_current_view` | Invariant 6.9: the pending change's own sync was computed in the current view |
//! | `own_cut_commits_all_sent` | Invariant 6.13: the own cut covers every own message |
//! | `delivery_within_bound` | Invariant 7.1: no delivery beyond the bound `deliver`'s precondition enforces |
//! | `cut_covered_by_buffers` | Invariant 7.2: the own cut only names messages actually buffered |
//! | `view_ids_monotone` | `mbrshp_view.id ≥ current_view.id` (used throughout §7) |
//!
//! Soundness notes (why these hold in every legal state):
//!
//! * Delivery advances contiguously from index 1 over
//!   `msgs[q][current_view]`, and a live buffer loses messages only from
//!   the front, at or below the stability floor (`gc` only prunes
//!   generations older than the previous view); a buffer's gap-free
//!   prefix counts what it dropped, so `last_dlvrd[q]` never exceeds it.
//! * The stability floor ([`crate::stability`]) is a minimum that
//!   includes the own `last_dlvrd[q]`, the announced vector is a copy of
//!   an earlier `last_dlvrd`, and a peer can have delivered no more own
//!   messages than were multicast — all three reset with the view.
//! * The own current-view buffer is filled only by `push`, so it has no
//!   gaps, and `last_sent` only advances over existing entries.
//! * `last_rcvd[q]` is reset when a `view_msg` from `q` arrives and then
//!   advances in lock-step with inserts into `msgs[q][view_msg[q]]`; the
//!   check is gated on that buffer still existing because garbage
//!   collection may legitimately prune a lagging sender's stream.

use crate::config::Config;
use crate::state::{BlockStatus, State};
use crate::vs;
use std::fmt;

/// A failed audit check: which predicate tripped and the field-level
/// contradiction it saw. Carried on the
/// [`crate::endpoint::ObsEvent`]-recorded detection and in test
/// assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFailure {
    /// Stable name of the violated check (e.g. `"own_stream_contiguous"`).
    pub check: &'static str,
    /// Human-readable description of the contradiction.
    pub detail: String,
}

impl fmt::Display for AuditFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "audit check {} failed: {}", self.check, self.detail)
    }
}

fn fail(check: &'static str, detail: String) -> Result<(), AuditFailure> {
    Err(AuditFailure { check, detail })
}

/// Runs every audit check against `st`. `Ok(())` means the state is
/// legal as far as local knowledge goes; the first contradiction found
/// is returned otherwise. Crashed end-points are exempt (their state is
/// frozen mid-action and will be reset on recovery anyway).
pub fn check(cfg: &Config, st: &State) -> Result<(), AuditFailure> {
    // Every field by name, with no `..`: a field added to `State` does
    // not compile here until a check reads it. Each names its readers.
    let State {
        pid: _,             // self_inclusion, and every check of own state
        msgs: _,            // windows_consistent, forwarded_backed_by_buffer
        last_sent: _,       // sent_within_buffer
        last_rcvd: _,       // received_within_stream
        last_dlvrd: _,      // delivered_within_prefix
        current_view: _,    // view_ids_monotone
        mbrshp_view: _,     // view_ids_monotone
        view_msg: _,        // announced_view_not_ahead
        reliable_set: _,    // reliable_covers_view
        start_change: _,    // block_status_implies_change, own_sync_in_current_view
        sync_msgs: _,       // sync_cids_tracked
        latest_sync_cid: _, // sync_cids_tracked
        forwarded: _,       // forwarded_backed_by_buffer
        block_status: _,    // block_status_implies_change
        agg_buffer: _,      // agg_state_gated
        agg_flushed: _,     // agg_state_gated
        agg_scope: _,       // agg_state_gated
        now_us: _,          // batch_clock_monotone
        batch_opened_us: _, // batch_clock_monotone
        pending_sends: _,   // pending_sends_gated
        stability: _,       // announced_within_delivered, acked_within_sent
        crashed,
    } = st;
    if *crashed {
        return Ok(());
    }
    view_ids_monotone(st)?;
    self_inclusion(st)?;
    announced_view_not_ahead(st)?;
    own_stream_contiguous(st)?;
    sent_within_buffer(st)?;
    delivered_within_prefix(st)?;
    received_within_stream(st)?;
    windows_consistent(st)?;
    window_behind_delivery(st)?;
    announced_within_delivered(st)?;
    acked_within_sent(st)?;
    delivery_within_bound(st)?;
    reliable_covers_view(st)?;
    own_sync_in_current_view(st)?;
    own_cut_commits_all_sent(st)?;
    cut_covered_by_buffers(st)?;
    sync_cids_tracked(st)?;
    forwarded_backed_by_buffer(st)?;
    block_status_implies_change(st)?;
    pending_sends_gated(st)?;
    agg_state_gated(cfg, st)?;
    batch_clock_monotone(st)
}

/// `mbrshp_view.id ≥ current_view.id`: the membership service never
/// moves backwards past an installed view.
fn view_ids_monotone(st: &State) -> Result<(), AuditFailure> {
    if st.mbrshp_view.id() < st.current_view.id() {
        return fail(
            "view_ids_monotone",
            format!("mbrshp_view {} behind current_view {}", st.mbrshp_view, st.current_view),
        );
    }
    Ok(())
}

/// Self Inclusion (Invariant 6.1), extended to every membership-shaped
/// field: the end-point is in both tracked views, keeps a reliable
/// channel to itself, and any pending change suggests a set containing
/// it.
fn self_inclusion(st: &State) -> Result<(), AuditFailure> {
    if !st.current_view.contains(st.pid) {
        return fail(
            "self_inclusion",
            format!("{} missing from current_view {}", st.pid, st.current_view),
        );
    }
    if !st.mbrshp_view.contains(st.pid) {
        return fail(
            "self_inclusion",
            format!("{} missing from mbrshp_view {}", st.pid, st.mbrshp_view),
        );
    }
    if !st.reliable_set.contains(&st.pid) {
        return fail(
            "self_inclusion",
            format!("{} missing from reliable_set {:?}", st.pid, st.reliable_set),
        );
    }
    if let Some((cid, set)) = &st.start_change {
        if !set.contains(&st.pid) {
            return fail(
                "self_inclusion",
                format!("{} missing from start_change({cid}) set {set:?}", st.pid),
            );
        }
    }
    Ok(())
}

/// The view we last announced (`view_msg[pid]`) is never ahead of the
/// view we installed.
fn announced_view_not_ahead(st: &State) -> Result<(), AuditFailure> {
    if let Some(v) = st.view_msg.get(&st.pid) {
        if v.id() > st.current_view.id() {
            return fail(
                "announced_view_not_ahead",
                format!("announced {} but current_view is {}", v, st.current_view),
            );
        }
    }
    Ok(())
}

/// The own current-view stream is filled only by appends, so it has no
/// gaps: its gap-free prefix equals its last populated index.
fn own_stream_contiguous(st: &State) -> Result<(), AuditFailure> {
    if let Some(buf) = st.buf(st.pid, &st.current_view) {
        if buf.longest_prefix() != buf.last_index() {
            return fail(
                "own_stream_contiguous",
                format!(
                    "own buffer has prefix {} but last index {}",
                    buf.longest_prefix(),
                    buf.last_index()
                ),
            );
        }
    }
    Ok(())
}

/// `last_sent` counts messages actually present in the own current-view
/// buffer.
fn sent_within_buffer(st: &State) -> Result<(), AuditFailure> {
    let have = st.buf(st.pid, &st.current_view).map_or(0, |b| b.last_index());
    if st.last_sent > have {
        return fail(
            "sent_within_buffer",
            format!("last_sent {} exceeds own buffer last index {have}", st.last_sent),
        );
    }
    Ok(())
}

/// `last_dlvrd[q]` never exceeds the gap-free prefix buffered from `q`
/// in the current view, and the own entry never exceeds `last_sent`.
fn delivered_within_prefix(st: &State) -> Result<(), AuditFailure> {
    for (q, dlvrd) in &st.last_dlvrd {
        let have = st.buf(*q, &st.current_view).map_or(0, |b| b.longest_prefix());
        if *dlvrd > have {
            return fail(
                "delivered_within_prefix",
                format!("delivered {dlvrd} from {q} but only {have} buffered gap-free"),
            );
        }
    }
    if st.dlvrd(st.pid) > st.last_sent {
        return fail(
            "delivered_within_prefix",
            format!("delivered {} own messages but sent {}", st.dlvrd(st.pid), st.last_sent),
        );
    }
    Ok(())
}

/// `last_rcvd[q]` counts inserts into `msgs[q][view_msg[q]]`, so while
/// that buffer is live its last index covers the counter. (Skipped when
/// garbage collection pruned the buffer.)
fn received_within_stream(st: &State) -> Result<(), AuditFailure> {
    for (q, rcvd) in &st.last_rcvd {
        let v = st.view_msg_of(*q);
        if let Some(buf) = st.buf(*q, &v) {
            if *rcvd > buf.last_index() {
                return fail(
                    "received_within_stream",
                    format!(
                        "last_rcvd[{q}] = {rcvd} but msgs[{q}][{v}] ends at {}",
                        buf.last_index()
                    ),
                );
            }
        }
    }
    Ok(())
}

/// Every buffer's bookkeeping (dropped count, gap-free prefix) agrees
/// with the slots it retains.
fn windows_consistent(st: &State) -> Result<(), AuditFailure> {
    for ((q, v), buf) in &st.msgs {
        if !buf.is_consistent() {
            return fail(
                "windows_consistent",
                format!(
                    "msgs[{q}][{v}] records prefix {} over {} dropped and {} retained slots",
                    buf.longest_prefix(),
                    buf.freed(),
                    buf.retained()
                ),
            );
        }
    }
    Ok(())
}

/// A current-view buffer has dropped nothing this end-point has yet to
/// deliver: the stability floor never passes the own `last_dlvrd`.
fn window_behind_delivery(st: &State) -> Result<(), AuditFailure> {
    for q in st.current_view.members() {
        let freed = st.buf(*q, &st.current_view).map_or(0, |b| b.freed());
        if freed > st.dlvrd(*q) {
            return fail(
                "window_behind_delivery",
                format!("dropped {freed} messages from {q} but delivered {}", st.dlvrd(*q)),
            );
        }
    }
    Ok(())
}

/// The vector last announced is an earlier `last_dlvrd` of the current
/// view, and both it and a pending acknowledgement request exist only
/// once that view has been announced.
fn announced_within_delivered(st: &State) -> Result<(), AuditFailure> {
    let Some(s) = &st.stability else { return Ok(()) };
    for (q, announced) in &s.announced {
        if *announced > st.dlvrd(*q) {
            return fail(
                "announced_within_delivered",
                format!("announced {announced} from {q} but delivered {}", st.dlvrd(*q)),
            );
        }
    }
    if (s.armed || !s.announced.is_empty()) && !st.in_current_view_stream(st.pid) {
        return fail(
            "announced_within_delivered",
            format!(
                "acknowledgement state (armed = {}, {} announced) before {} was announced",
                s.armed,
                s.announced.len(),
                st.current_view
            ),
        );
    }
    Ok(())
}

/// Acknowledgements are recorded from the other members of the current
/// view only, and none claims more own messages than were multicast.
fn acked_within_sent(st: &State) -> Result<(), AuditFailure> {
    let Some(s) = &st.stability else { return Ok(()) };
    for (r, cut) in &s.acked {
        if *r == st.pid || !st.current_view.contains(*r) {
            return fail(
                "acked_within_sent",
                format!("acknowledgement recorded from {r}, no peer in {}", st.current_view),
            );
        }
        if cut.get(st.pid) > st.last_sent {
            return fail(
                "acked_within_sent",
                format!("{r} acknowledged {} own messages but sent {}", cut.get(st.pid), st.last_sent),
            );
        }
    }
    Ok(())
}

/// Invariant 7.1: deliveries never exceed the bound `deliver`'s
/// precondition enforces. That bound is the same with implicit cuts on:
/// the stream-position bound gates only view installation, and reads 0
/// for a continuing member whose sync has yet to arrive.
fn delivery_within_bound(st: &State) -> Result<(), AuditFailure> {
    for q in st.current_view.members() {
        if let Some(bound) = vs::delivery_bound(st, *q) {
            if st.dlvrd(*q) > bound {
                return fail(
                    "delivery_within_bound",
                    format!("delivered {} from {q}, committed bound is {bound}", st.dlvrd(*q)),
                );
            }
        }
    }
    Ok(())
}

/// Invariant 6.2: once the current view has been announced, reliable
/// channels cover its members.
fn reliable_covers_view(st: &State) -> Result<(), AuditFailure> {
    if st.view_msg_of(st.pid) == st.current_view {
        for m in st.current_view.members() {
            if !st.reliable_set.contains(m) {
                return fail(
                    "reliable_covers_view",
                    format!("view announced but {m} not in reliable_set {:?}", st.reliable_set),
                );
            }
        }
    }
    Ok(())
}

/// Invariant 6.9: the own synchronization message for the pending
/// change, if sent, was computed in the current view.
fn own_sync_in_current_view(st: &State) -> Result<(), AuditFailure> {
    if let Some((cid, _)) = &st.start_change {
        if let Some(rec) = st.sync(st.pid, *cid) {
            if rec.view.as_ref() != Some(&st.current_view) {
                return fail(
                    "own_sync_in_current_view",
                    format!(
                        "own sync for {cid} carries view {:?}, current is {}",
                        rec.view, st.current_view
                    ),
                );
            }
        }
    }
    Ok(())
}

/// Invariant 6.13: the own committed cut covers every own message in
/// the current-view buffer.
fn own_cut_commits_all_sent(st: &State) -> Result<(), AuditFailure> {
    if let Some((cid, _)) = &st.start_change {
        if let Some(rec) = st.sync(st.pid, *cid) {
            let sent = st.buf(st.pid, &st.current_view).map_or(0, |b| b.last_index());
            if rec.cut.get(st.pid) != sent {
                return fail(
                    "own_cut_commits_all_sent",
                    format!("own cut commits {} of {sent} own messages", rec.cut.get(st.pid)),
                );
            }
        }
    }
    Ok(())
}

/// Invariant 7.2: the own cut only commits to messages buffered
/// gap-free locally.
fn cut_covered_by_buffers(st: &State) -> Result<(), AuditFailure> {
    if let Some((cid, _)) = &st.start_change {
        if let Some(rec) = st.sync(st.pid, *cid) {
            for (q, committed) in rec.cut.iter() {
                let have = st.buf(q, &st.current_view).map_or(0, |b| b.longest_prefix());
                if committed > have {
                    return fail(
                        "cut_covered_by_buffers",
                        format!("own cut commits {committed} from {q} but only {have} buffered"),
                    );
                }
            }
        }
    }
    Ok(())
}

/// `latest_sync_cid[q]` tracks the maximum over the stored `sync_msgs`
/// cells of each *peer* (the own cells are indexed by the local cid
/// directly).
fn sync_cids_tracked(st: &State) -> Result<(), AuditFailure> {
    for (q, cid) in st.sync_msgs.keys() {
        if *q == st.pid {
            continue;
        }
        let latest = st.latest_sync_cid.get(q).copied();
        if latest.is_none() || latest.is_some_and(|l| l < *cid) {
            return fail(
                "sync_cids_tracked",
                format!("sync_msgs holds ({q},{cid}) but latest_sync_cid[{q}] = {latest:?}"),
            );
        }
    }
    Ok(())
}

/// Every `forwarded` record points at a message the buffer it was
/// copied from still holds, or has dropped since as stable (buffers and
/// forwarding records are garbage-collected under the same view floor).
fn forwarded_backed_by_buffer(st: &State) -> Result<(), AuditFailure> {
    for (dest, origin, v, idx) in &st.forwarded {
        let present = st
            .msgs
            .get(&(*origin, v.clone()))
            .is_some_and(|b| b.get(*idx).is_some() || (1..=b.freed()).contains(idx));
        if !present {
            return fail(
                "forwarded_backed_by_buffer",
                format!("forwarded msgs[{origin}][{v}][{idx}] to {dest} but do not buffer it"),
            );
        }
    }
    Ok(())
}

/// The block handshake only runs while a view change is pending.
fn block_status_implies_change(st: &State) -> Result<(), AuditFailure> {
    if st.block_status != BlockStatus::Unblocked && st.start_change.is_none() {
        return fail(
            "block_status_implies_change",
            format!("block_status {:?} with no pending start_change", st.block_status),
        );
    }
    Ok(())
}

/// Sends are queued for the next view only while a change is pending.
fn pending_sends_gated(st: &State) -> Result<(), AuditFailure> {
    if !st.pending_sends.is_empty() && st.start_change.is_none() {
        return fail(
            "pending_sends_gated",
            format!("{} queued sends with no pending start_change", st.pending_sends.len()),
        );
    }
    Ok(())
}

/// §9 aggregation bookkeeping stays empty when the extension is off,
/// and never outlives the change scope it belongs to.
fn agg_state_gated(cfg: &Config, st: &State) -> Result<(), AuditFailure> {
    if !cfg.aggregation && (!st.agg_buffer.is_empty() || st.agg_flushed) {
        return fail(
            "agg_state_gated",
            format!(
                "aggregation off but agg_buffer has {} entries, agg_flushed = {}",
                st.agg_buffer.len(),
                st.agg_flushed
            ),
        );
    }
    if (!st.agg_buffer.is_empty() || st.agg_flushed) && st.agg_scope.is_none() {
        return fail(
            "agg_state_gated",
            "aggregation state present with no agg_scope".to_string(),
        );
    }
    Ok(())
}

/// The batching linger deadline never opens in the future of the local
/// clock.
fn batch_clock_monotone(st: &State) -> Result<(), AuditFailure> {
    if let Some(opened) = st.batch_opened_us {
        if opened > st.now_us {
            return fail(
                "batch_clock_monotone",
                format!("batch opened at {opened}us but now_us is {}", st.now_us),
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corrupt::{self, CorruptionKind};
    use crate::state::SyncRecord;
    use vsgm_types::{AppMsg, Cut, ProcSet, ProcessId, StartChangeId, View, ViewId};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    /// A state mid-view-change: three-member view, one own message sent
    /// and self-delivered, pending change with the own sync committed.
    fn busy_state() -> State {
        let v = View::new(
            ViewId::new(1, 0),
            [p(1), p(2), p(3)],
            [
                (p(1), StartChangeId::new(1)),
                (p(2), StartChangeId::new(1)),
                (p(3), StartChangeId::new(1)),
            ],
        );
        let mut st = State::new(p(1));
        st.current_view = v.clone();
        st.mbrshp_view = v.clone();
        st.view_msg.insert(p(1), v.clone());
        st.reliable_set = [p(1), p(2), p(3)].into_iter().collect();
        st.buf_mut(p(1), &v).push(AppMsg::from("m1"));
        st.last_sent = 1;
        st.last_dlvrd.insert(p(1), 1);
        st.buf_mut(p(2), &v).push(AppMsg::from("n1"));
        st.last_rcvd.insert(p(2), 1);
        st.view_msg.insert(p(2), v.clone());
        st.last_dlvrd.insert(p(2), 1);
        let cid = StartChangeId::new(2);
        st.start_change = Some((cid, [p(1), p(2)].into_iter().collect::<ProcSet>()));
        let mut cut = Cut::new();
        cut.set(p(1), 1);
        cut.set(p(2), 1);
        st.sync_msgs
            .insert((p(1), cid), SyncRecord { view: Some(v), cut, stream_pos: 1 });
        st
    }

    #[test]
    fn initial_and_busy_states_pass() {
        let cfg = Config::default();
        check(&cfg, &State::new(p(1))).unwrap();
        check(&cfg, &busy_state()).unwrap();
    }

    /// Implicit cuts, mid-change: the membership view has arrived, but the
    /// continuing member p2's sync has not. The end-point delivered p2's
    /// message under its own cut, as `deliver`'s precondition allows; the
    /// stream-position bound for p2 would still read 0 here.
    #[test]
    fn implicit_cuts_view_before_peer_sync_is_legal() {
        let mut st = busy_state();
        st.mbrshp_view = View::new(
            ViewId::new(2, 0),
            [p(1), p(2)],
            [(p(1), StartChangeId::new(2)), (p(2), StartChangeId::new(5))],
        );
        assert_eq!(vs::delivery_bound_with(&st, p(2), true), Some(0));
        check(&Config { implicit_cuts: true, ..Config::default() }, &st).unwrap();
    }

    #[test]
    fn crashed_states_are_exempt() {
        let mut st = busy_state();
        st.current_view = View::initial(p(9)); // would violate self inclusion ...
        st.crashed = true; // ... but the state is frozen mid-action
        check(&Config::default(), &st).unwrap();
    }

    /// Every corruption kind applied to the busy mid-change state is
    /// caught by the audit (this state has every ingredient, so no kind
    /// degenerates to a no-op).
    #[test]
    fn every_corruption_kind_is_detected_on_the_busy_state() {
        let cfg = Config::default();
        for kind in CorruptionKind::ALL {
            let mut st = busy_state();
            corrupt::apply(&mut st, kind, 0);
            let failure = check(&cfg, &st)
                .expect_err(&format!("{} not detected", kind.name()));
            assert!(!failure.check.is_empty(), "{failure}");
        }
    }

    #[test]
    fn expected_check_fires_per_kind() {
        let cfg = Config::default();
        let expect = [
            (CorruptionKind::ForgeMsgId, "own_stream_contiguous"),
            (CorruptionKind::DupMsgId, "sent_within_buffer"),
            (CorruptionKind::StaleViewId, "view_ids_monotone"),
            (CorruptionKind::FutureViewId, "view_ids_monotone"),
            (CorruptionKind::ScrambleCut, "own_cut_commits_all_sent"),
            (CorruptionKind::ScrambleMembership, "self_inclusion"),
            (CorruptionKind::TruncateMsgs, "delivered_within_prefix"),
            (CorruptionKind::OverrunLastDlvrd, "delivered_within_prefix"),
            (CorruptionKind::ForgedAck, "acked_within_sent"),
            (CorruptionKind::BaseAhead, "window_behind_delivery"),
        ];
        for (kind, check_name) in expect {
            let mut st = busy_state();
            corrupt::apply(&mut st, kind, 0);
            let failure = check(&cfg, &st).expect_err(check_name);
            assert_eq!(failure.check, check_name, "{kind:?}: {failure}");
        }
    }

    #[test]
    fn no_op_kinds_leave_the_initial_state_legal() {
        // On the untouched initial state some kinds have nothing to
        // scramble; applying them must not create an illegal state out
        // of thin air (the convergence judge counts these runs as
        // trivially converged).
        let cfg = Config::default();
        for kind in
            [CorruptionKind::ScrambleCut, CorruptionKind::TruncateMsgs, CorruptionKind::ForgedAck]
        {
            let mut st = State::new(p(1));
            corrupt::apply(&mut st, kind, 0);
            check(&cfg, &st).unwrap();
        }
    }

    #[test]
    fn stale_view_detection_needs_a_non_initial_view() {
        // StaleViewId rolls mbrshp_view back to the initial view — a
        // no-op (still legal) when the end-point never left it.
        let cfg = Config::default();
        let mut st = State::new(p(1));
        corrupt::apply(&mut st, CorruptionKind::StaleViewId, 0);
        check(&cfg, &st).unwrap();
    }

    #[test]
    fn audit_failure_displays_check_name() {
        let mut st = busy_state();
        corrupt::apply(&mut st, CorruptionKind::DupMsgId, 1);
        let failure = check(&Config::default(), &st).unwrap_err();
        assert!(failure.to_string().contains("sent_within_buffer"));
    }
}
