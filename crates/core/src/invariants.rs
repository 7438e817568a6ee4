//! The paper's cross-process invariants (§6–§7): what no single
//! end-point can check against its own state.
//!
//! The local invariants (6.1, 6.2, 6.9, 6.13, 7.1, 7.2) are checks of the
//! legal-state predicate [`crate::audit`], whose module docs map each to
//! its paper number. `Sim::assert_paper_invariants` runs that predicate on
//! every end-point and then [`check_global`] over all of them, on every
//! reachable state a simulation visits.
//!
//! | Function | Paper invariant |
//! |---|---|
//! | [`sync_records_agree`] | Invariant 6.7: received sync records equal the sender's own record |
//! | [`buffers_agree_with_origin`] | Invariant 6.6(3): buffered copies equal the original sender's copy |
//! | [`transitional_sets_agree`] | Corollary 6.1: the same transition yields the same transitional set |

use crate::state::State;

/// Invariant 6.7 — a synchronization record held *about* `p` equals the
/// record `p` holds about itself (when `p` still has it; garbage
/// collection may have pruned old generations).
pub fn sync_records_agree<'a>(
    states: impl Iterator<Item = &'a State> + Clone,
) -> Result<(), String> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SyncRecord;
    use crate::{audit, wv, Config};
    use vsgm_types::{AppMsg, Cut, ProcSet, ProcessId, StartChangeId, View, ViewId};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn healthy_state() -> State {
        State::new(p(1))
    }

    /// The name of the audit check that rejects `st`.
    fn audit_rejects(st: &State) -> &'static str {
        audit::check(&Config::default(), st).expect_err("a forged breach").check
    }

    /// p1 has a change pending and has recorded its own sync for it.
    fn own_sync_sent(st: &mut State, view: View, cut: Cut) {
        st.start_change = Some((StartChangeId::new(1), [p(1)].into_iter().collect::<ProcSet>()));
        st.sync_msgs.insert(
            (p(1), StartChangeId::new(1)),
            SyncRecord { view: Some(view), cut, stream_pos: 0 },
        );
    }

    // The local invariants are checks of the audit; each breach below is
    // forged directly and must be rejected by the check stating it.

    #[test]
    fn initial_state_satisfies_all_local_invariants() {
        audit::check(&Config::default(), &healthy_state()).unwrap();
    }

    #[test]
    fn self_inclusion_detects_foreign_view() {
        // 6.1
        let mut st = healthy_state();
        st.current_view = View::initial(p(2));
        assert_eq!(audit_rejects(&st), "self_inclusion");
    }

    #[test]
    fn reliable_coverage_detects_gap() {
        // 6.2
        let mut st = healthy_state();
        let v = View::new(
            ViewId::new(1, 0),
            [p(1), p(2)],
            [(p(1), StartChangeId::new(1)), (p(2), StartChangeId::new(1))],
        );
        st.mbrshp_view = v.clone();
        wv::view_eff(&mut st);
        st.view_msg.insert(p(1), v); // announced, but reliable_set = {p1}
        assert_eq!(audit_rejects(&st), "reliable_covers_view");
    }

    #[test]
    fn own_sync_view_mismatch_detected() {
        // 6.9
        let mut st = healthy_state();
        own_sync_sent(&mut st, View::initial(p(9)), Cut::new());
        assert_eq!(audit_rejects(&st), "own_sync_in_current_view");
    }

    #[test]
    fn uncommitted_own_message_detected() {
        // 6.13
        let mut st = healthy_state();
        let v = st.current_view.clone();
        own_sync_sent(&mut st, v.clone(), Cut::new());
        // A message the cut missed lands in the buffer directly: the
        // legitimate send path (`wv::on_app_send`) queues sends that
        // arrive after the own sync, so the corrupt state must be forged.
        st.buf_mut(p(1), &v).push(AppMsg::from("late"));
        assert_eq!(audit_rejects(&st), "own_cut_commits_all_sent");
    }

    #[test]
    fn over_delivery_detected() {
        // 7.1
        let mut st = healthy_state();
        let v = st.current_view.clone();
        own_sync_sent(&mut st, v.clone(), Cut::new());
        for _ in 0..5 {
            st.buf_mut(p(1), &v).push(AppMsg::from("m"));
        }
        st.last_sent = 5;
        st.last_dlvrd.insert(p(1), 5); // beyond the (empty) cut
        assert_eq!(audit_rejects(&st), "delivery_within_bound");
    }

    #[test]
    fn phantom_cut_detected() {
        // 7.2
        let mut st = healthy_state();
        let mut cut = Cut::new();
        cut.set(p(2), 3); // commits 3 messages we do not have
        let v = st.current_view.clone();
        own_sync_sent(&mut st, v, cut);
        assert_eq!(audit_rejects(&st), "cut_covered_by_buffers");
    }

    /// p1 holds a record of p2's sync that disagrees with p2's own.
    fn divergent_sync_records() -> (State, State) {
        let holder = {
            let mut st = State::new(p(1));
            let mut cut = Cut::new();
            cut.set(p(9), 7);
            st.sync_msgs.insert(
                (p(2), StartChangeId::new(1)),
                SyncRecord { view: Some(View::initial(p(2))), cut, stream_pos: 0 },
            );
            st
        };
        let origin = {
            let mut st = State::new(p(2));
            st.sync_msgs.insert(
                (p(2), StartChangeId::new(1)),
                SyncRecord { view: Some(View::initial(p(2))), cut: Cut::new(), stream_pos: 0 },
            );
            st
        };
        (holder, origin)
    }

    #[test]
    fn sync_record_divergence_detected() {
        let (holder, origin) = divergent_sync_records();
        let states = [&holder, &origin];
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
        // A crashed origin restarts without its records (§8), so what
        // others still hold about it is judged against nothing.
        let (holder, mut origin) = divergent_sync_records();
        origin.crashed = true;
        check_global([&holder, &origin].into_iter()).unwrap();
    }
}
