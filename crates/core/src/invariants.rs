//! The paper's numbered invariants (§6–§7) as executable state checks.
//!
//! The correctness proofs rest on invariant assertions over reachable
//! states. This module re-states the machine-checkable ones as functions
//! over end-point states (and, for the cross-process ones, over the set
//! of all states), so the test suites can assert them on every reachable
//! state a simulation visits — a mechanical audit of the proof's load-
//! bearing claims.
//!
//! | Function | Paper invariant |
//! |---|---|
//! | [`self_inclusion`] | Invariant 6.1: `p ∈ mbrshp_view.set ∧ p ∈ current_view.set` |
//! | [`reliable_covers_view`] | Invariant 6.2: once the view is announced, `current_view.set ⊆ reliable_set` |
//! | [`own_sync_in_current_view`] | Invariant 6.9: the pending change's own sync was computed in the current view |
//! | [`own_cut_commits_all_sent`] | Invariant 6.13: with a blocking client, the own cut covers every own message |
//! | [`delivery_within_bound`] | Invariant 7.1: no delivery beyond the committed bound |
//! | [`cut_covered_by_buffers`] | Invariant 7.2: the own cut only names messages actually buffered |
//! | [`sync_records_agree`] | Invariant 6.7: received sync records equal the sender's own record |
//! | [`buffers_agree_with_origin`] | Invariant 6.6(3): buffered copies equal the original sender's copy |
//! | [`view_ids_monotone`] | `mbrshp_view.id ≥ current_view.id` (used throughout §7) |

use crate::state::State;
use crate::vs;

/// Invariant 6.1 — Self Inclusion in both tracked views.
pub fn self_inclusion(st: &State) -> Result<(), String> {
    if !st.mbrshp_view.contains(st.pid) {
        return Err(format!("6.1: {} not in mbrshp_view {}", st.pid, st.mbrshp_view));
    }
    if !st.current_view.contains(st.pid) {
        return Err(format!("6.1: {} not in current_view {}", st.pid, st.current_view));
    }
    Ok(())
}

/// Invariant 6.2 — if the current view has been announced
/// (`view_msg[p] = current_view`), reliable channels cover it.
pub fn reliable_covers_view(st: &State) -> Result<(), String> {
    if st.view_msg_of(st.pid) == st.current_view {
        for m in st.current_view.members() {
            if !st.reliable_set.contains(m) {
                return Err(format!(
                    "6.2: view announced but {m} not in reliable_set {:?}",
                    st.reliable_set
                ));
            }
        }
    }
    Ok(())
}

/// Invariant 6.9 — the synchronization message for the pending change,
/// if already sent, was computed in the current view.
pub fn own_sync_in_current_view(st: &State) -> Result<(), String> {
    if let Some((cid, _)) = &st.start_change {
        if let Some(rec) = st.sync(st.pid, *cid) {
            if rec.view.as_ref() != Some(&st.current_view) {
                return Err(format!(
                    "6.9: own sync for {cid} carries view {:?}, current is {}",
                    rec.view, st.current_view
                ));
            }
        }
    }
    Ok(())
}

/// Invariant 6.13 — with a blocking client (the full stack), the own cut
/// commits to *every* message the application sent in the current view.
pub fn own_cut_commits_all_sent(st: &State) -> Result<(), String> {
    if let Some((cid, _)) = &st.start_change {
        if let Some(rec) = st.sync(st.pid, *cid) {
            let sent = st.buf(st.pid, &st.current_view).map_or(0, |b| b.last_index());
            if rec.cut.get(st.pid) != sent {
                return Err(format!(
                    "6.13: own cut commits {} of {} own messages",
                    rec.cut.get(st.pid),
                    sent
                ));
            }
        }
    }
    Ok(())
}

/// Invariant 7.1 — deliveries never exceed the committed bound.
pub fn delivery_within_bound(st: &State) -> Result<(), String> {
    for q in st.current_view.members() {
        if let Some(bound) = vs::delivery_bound(st, *q) {
            if st.dlvrd(*q) > bound {
                return Err(format!(
                    "7.1: delivered {} from {q}, bound is {bound}",
                    st.dlvrd(*q)
                ));
            }
        }
    }
    Ok(())
}

/// Invariant 7.2 — the own cut only commits to messages present (as a
/// gap-free prefix) in the local buffers.
pub fn cut_covered_by_buffers(st: &State) -> Result<(), String> {
    if let Some((cid, _)) = &st.start_change {
        if let Some(rec) = st.sync(st.pid, *cid) {
            for (q, committed) in rec.cut.iter() {
                let have = st.buf(q, &st.current_view).map_or(0, |b| b.longest_prefix());
                if committed > have {
                    return Err(format!(
                        "7.2: cut commits {committed} from {q} but only {have} buffered"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// `mbrshp_view.id ≥ current_view.id` in every reachable state.
pub fn view_ids_monotone(st: &State) -> Result<(), String> {
    if st.mbrshp_view.id() < st.current_view.id() {
        return Err(format!(
            "mbrshp_view {} behind current_view {}",
            st.mbrshp_view, st.current_view
        ));
    }
    Ok(())
}

/// Every local invariant at once (skipped for crashed end-points, whose
/// state is frozen mid-action).
pub fn check_local(st: &State) -> Result<(), String> {
    if st.crashed {
        return Ok(());
    }
    self_inclusion(st)?;
    reliable_covers_view(st)?;
    own_sync_in_current_view(st)?;
    own_cut_commits_all_sent(st)?;
    delivery_within_bound(st)?;
    cut_covered_by_buffers(st)?;
    view_ids_monotone(st)
}

/// Invariant 6.7 — a synchronization record held *about* `p` equals the
/// record `p` holds about itself (when `p` still has it; garbage
/// collection may have pruned old generations).
pub fn sync_records_agree<'a>(states: impl Iterator<Item = &'a State> + Clone) -> Result<(), String> {
    let all: Vec<&State> = states.collect();
    for holder in &all {
        for ((sender, cid), rec) in &holder.sync_msgs {
            if *sender == holder.pid {
                continue;
            }
            let Some(origin) = all.iter().find(|s| s.pid == *sender) else { continue };
            if origin.crashed {
                continue; // §8: the origin restarted; its record is gone
            }
            if let Some(own) = origin.sync(*sender, *cid) {
                // Slim messages legitimately differ (no view/cut); the
                // stream position is receiver-local; and under the
                // implicit-cuts optimization the wire cut is a
                // *restriction* of the origin's (continuing-member entries
                // elided). So: views must match, and every entry the
                // holder has must equal the origin's.
                if rec.view.is_some() {
                    if rec.view != own.view {
                        return Err(format!(
                            "6.7: {}'s record of sync({sender},{cid}) carries view {:?}, \
                             origin has {:?}",
                            holder.pid, rec.view, own.view
                        ));
                    }
                    for (q, idx) in rec.cut.iter() {
                        if own.cut.get(q) != idx {
                            return Err(format!(
                                "6.7: {}'s record of sync({sender},{cid}) says cut({q})={idx}, \
                                 origin says {}",
                                holder.pid,
                                own.cut.get(q)
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Invariant 6.6(3) — every buffered copy of a message equals the
/// original sender's copy (when the sender still buffers that view).
pub fn buffers_agree_with_origin<'a>(
    states: impl Iterator<Item = &'a State> + Clone,
) -> Result<(), String> {
    let all: Vec<&State> = states.collect();
    for holder in &all {
        for ((sender, view), seq) in &holder.msgs {
            if *sender == holder.pid {
                continue;
            }
            let Some(origin) = all.iter().find(|s| s.pid == *sender) else { continue };
            if origin.crashed {
                continue;
            }
            let Some(own) = origin.buf(*sender, view) else { continue };
            // What the origin dropped as stable, every member delivered.
            for i in seq.freed().max(own.freed()) + 1..=seq.last_index() {
                if let Some(m) = seq.get(i) {
                    match own.get(i) {
                        Some(orig) if orig == m => {}
                        Some(orig) => {
                            return Err(format!(
                                "6.6: {}'s copy of msgs[{sender}][{view}][{i}] = {m:?} \
                                 differs from origin's {orig:?}",
                                holder.pid
                            ))
                        }
                        None => {
                            return Err(format!(
                                "6.6: {} buffers msgs[{sender}][{view}][{i}] the origin \
                                 never sent",
                                holder.pid
                            ))
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Corollary 6.1 flavor: two end-points holding the full sync record set
/// for the same `(view, startId-selected cids)` compute the same
/// transitional set. Checked pairwise over ready end-points.
pub fn transitional_sets_agree<'a>(
    states: impl Iterator<Item = &'a State> + Clone,
) -> Result<(), String> {
    let all: Vec<&State> = states.collect();
    for a in &all {
        for b in &all {
            if a.pid >= b.pid || a.crashed || b.crashed {
                continue;
            }
            if a.mbrshp_view != b.mbrshp_view || a.current_view != b.current_view {
                continue;
            }
            if let (Some(ta), Some(tb)) = (a.transitional_set(), b.transitional_set()) {
                if ta != tb {
                    return Err(format!(
                        "Cor 6.1: {} computes T={ta:?} but {} computes T={tb:?} for the \
                         same transition",
                        a.pid, b.pid
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Every cross-process invariant at once.
pub fn check_global<'a>(states: impl Iterator<Item = &'a State> + Clone) -> Result<(), String> {
    sync_records_agree(states.clone())?;
    buffers_agree_with_origin(states.clone())?;
    transitional_sets_agree(states)
}

/// One call for a set of end-points: all local + all global invariants.
pub fn check_all<'a>(states: impl Iterator<Item = &'a State> + Clone) -> Result<(), String> {
    for st in states.clone() {
        check_local(st).map_err(|e| format!("{}: {e}", st.pid))?;
    }
    check_global(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SyncRecord;
    use vsgm_types::ProcessId;
    use crate::wv;
    use vsgm_types::{AppMsg, Cut, ProcSet, StartChangeId, View, ViewId};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn healthy_state() -> State {
        State::new(p(1))
    }

    #[test]
    fn initial_state_satisfies_all_local_invariants() {
        check_local(&healthy_state()).unwrap();
    }

    #[test]
    fn self_inclusion_detects_foreign_view() {
        let mut st = healthy_state();
        st.current_view = View::initial(p(2));
        assert!(self_inclusion(&st).unwrap_err().contains("6.1"));
    }

    #[test]
    fn reliable_coverage_detects_gap() {
        let mut st = healthy_state();
        let v = View::new(
            ViewId::new(1, 0),
            [p(1), p(2)],
            [(p(1), StartChangeId::new(1)), (p(2), StartChangeId::new(1))],
        );
        st.mbrshp_view = v.clone();
        wv::view_eff(&mut st);
        st.view_msg.insert(p(1), v); // announced, but reliable_set = {p1}
        assert!(reliable_covers_view(&st).unwrap_err().contains("6.2"));
    }

    #[test]
    fn own_sync_view_mismatch_detected() {
        let mut st = healthy_state();
        st.start_change = Some((StartChangeId::new(1), [p(1)].into_iter().collect::<ProcSet>()));
        st.sync_msgs.insert(
            (p(1), StartChangeId::new(1)),
            SyncRecord { view: Some(View::initial(p(9))), cut: Cut::new(), stream_pos: 0 },
        );
        assert!(own_sync_in_current_view(&st).unwrap_err().contains("6.9"));
    }

    #[test]
    fn uncommitted_own_message_detected() {
        let mut st = healthy_state();
        st.start_change = Some((StartChangeId::new(1), [p(1)].into_iter().collect::<ProcSet>()));
        st.sync_msgs.insert(
            (p(1), StartChangeId::new(1)),
            SyncRecord { view: Some(st.current_view.clone()), cut: Cut::new(), stream_pos: 0 },
        );
        // A message the cut missed lands in the buffer directly: the
        // legitimate send path (`wv::on_app_send`) now queues sends that
        // arrive after the own sync, so the corrupt state must be forged.
        let v = st.current_view.clone();
        st.buf_mut(p(1), &v).push(AppMsg::from("late"));
        assert!(own_cut_commits_all_sent(&st).unwrap_err().contains("6.13"));
    }

    #[test]
    fn over_delivery_detected() {
        let mut st = healthy_state();
        st.start_change = Some((StartChangeId::new(1), [p(1)].into_iter().collect::<ProcSet>()));
        st.sync_msgs.insert(
            (p(1), StartChangeId::new(1)),
            SyncRecord { view: Some(st.current_view.clone()), cut: Cut::new(), stream_pos: 0 },
        );
        st.last_dlvrd.insert(p(1), 5); // beyond the (empty) cut
        assert!(delivery_within_bound(&st).unwrap_err().contains("7.1"));
    }

    #[test]
    fn phantom_cut_detected() {
        let mut st = healthy_state();
        let mut cut = Cut::new();
        cut.set(p(1), 3); // commits 3 messages we do not have
        st.start_change = Some((StartChangeId::new(1), [p(1)].into_iter().collect::<ProcSet>()));
        st.sync_msgs.insert(
            (p(1), StartChangeId::new(1)),
            SyncRecord { view: Some(st.current_view.clone()), cut, stream_pos: 0 },
        );
        assert!(cut_covered_by_buffers(&st).unwrap_err().contains("7.2"));
    }

    #[test]
    fn sync_record_divergence_detected() {
        let a = {
            let mut st = State::new(p(1));
            let mut cut = Cut::new();
            cut.set(p(9), 7);
            st.sync_msgs.insert(
                (p(2), StartChangeId::new(1)),
                SyncRecord { view: Some(View::initial(p(2))), cut, stream_pos: 0 },
            );
            st
        };
        let b = {
            let mut st = State::new(p(2));
            st.sync_msgs.insert(
                (p(2), StartChangeId::new(1)),
                SyncRecord { view: Some(View::initial(p(2))), cut: Cut::new(), stream_pos: 0 },
            );
            st
        };
        let states = [&a, &b];
        assert!(sync_records_agree(states.into_iter()).unwrap_err().contains("6.7"));
    }

    #[test]
    fn buffer_divergence_detected() {
        let v = View::new(
            ViewId::new(1, 0),
            [p(1), p(2)],
            [(p(1), StartChangeId::new(1)), (p(2), StartChangeId::new(1))],
        );
        let origin = {
            let mut st = State::new(p(2));
            st.buf_mut(p(2), &v).push(AppMsg::from("real"));
            st
        };
        let holder = {
            let mut st = State::new(p(1));
            st.buf_mut(p(2), &v).push(AppMsg::from("forged"));
            st
        };
        let states = [&origin, &holder];
        assert!(buffers_agree_with_origin(states.into_iter()).unwrap_err().contains("6.6"));
    }

    #[test]
    fn crashed_endpoints_are_exempt() {
        let mut st = healthy_state();
        st.current_view = View::initial(p(9)); // would violate 6.1 ...
        st.crashed = true; // ... but crashed states are frozen mid-action
        check_local(&st).unwrap();
    }
}
