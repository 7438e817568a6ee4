//! State-corruption fault injection (the self-stabilization tier).
//!
//! Per Dolev et al.'s practically-self-stabilizing virtual synchrony, a
//! transient fault may leave an end-point in an *arbitrary* state; the
//! system's obligation is to converge back to a legal state, not to
//! prevent the damage. This module is the damage: each
//! [`CorruptionKind`] is a deterministic mutator that perturbs one class
//! of protocol state outside any legal transition. The matching
//! legal-state predicate lives in [`crate::audit`]; the reconciliation
//! path (audit failure → §8 reset → rejoin) lives in
//! [`crate::endpoint`].
//!
//! Mutators are **total**: every kind can be applied to every state.
//! Some kinds degenerate to a no-op on states that lack the ingredient
//! they scramble (e.g. [`CorruptionKind::ScrambleCut`] with no pending
//! synchronization message) — the resulting state is then still legal
//! and the run converges trivially, which the convergence judge counts
//! as such rather than as a missed detection.

use crate::state::State;
use serde::{Deserialize, Serialize};
use vsgm_types::{AppMsg, Cut, View, ViewId};

/// One class of state corruption. Serialized (snake_case) inside chaos
/// scenarios, so minimized counterexamples replay byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum CorruptionKind {
    /// Forge a message id: plant a never-sent message two slots past the
    /// end of the own current-view stream, leaving a gap (a forged index
    /// the FIFO stream cannot have produced).
    ForgeMsgId,
    /// Duplicate message ids: advance `last_sent` past the end of the own
    /// buffer, as if messages had been (re-)multicast that the stream
    /// never carried.
    DupMsgId,
    /// Roll `mbrshp_view` back to the initial singleton view — a stale
    /// view id behind the installed one.
    StaleViewId,
    /// Jump `current_view`'s epoch far into the future (same membership),
    /// ahead of anything the membership service issued.
    FutureViewId,
    /// Scramble the committed cut of the own pending synchronization
    /// message so it promises messages the buffers do not hold.
    ScrambleCut,
    /// Scramble the membership set of `current_view`: drop the end-point
    /// itself from its own view (violating Self Inclusion).
    ScrambleMembership,
    /// Truncate a `msgs[q][view]` suffix below what was already delivered
    /// (or, lacking deliveries, below what was already sent).
    TruncateMsgs,
    /// Overrun a `last_dlvrd` counter past the gap-free prefix actually
    /// buffered.
    OverrunLastDlvrd,
    /// Forge a stability acknowledgement: record that a peer of the
    /// current view delivered more own messages than were ever multicast.
    ForgedAck,
    /// Push a buffer's retained window ahead of the own deliveries: drop
    /// a message of the own current-view stream before delivering it.
    BaseAhead,
}

impl CorruptionKind {
    /// Every corruption class, in a fixed order (the E11 sweep and the
    /// chaos generator index into this).
    pub const ALL: [CorruptionKind; 10] = [
        CorruptionKind::ForgeMsgId,
        CorruptionKind::DupMsgId,
        CorruptionKind::StaleViewId,
        CorruptionKind::FutureViewId,
        CorruptionKind::ScrambleCut,
        CorruptionKind::ScrambleMembership,
        CorruptionKind::TruncateMsgs,
        CorruptionKind::OverrunLastDlvrd,
        CorruptionKind::ForgedAck,
        CorruptionKind::BaseAhead,
    ];

    /// Stable snake_case name (report keys in `BENCH_stabilize.json`).
    pub const fn name(self) -> &'static str {
        match self {
            CorruptionKind::ForgeMsgId => "forge_msg_id",
            CorruptionKind::DupMsgId => "dup_msg_id",
            CorruptionKind::StaleViewId => "stale_view_id",
            CorruptionKind::FutureViewId => "future_view_id",
            CorruptionKind::ScrambleCut => "scramble_cut",
            CorruptionKind::ScrambleMembership => "scramble_membership",
            CorruptionKind::TruncateMsgs => "truncate_msgs",
            CorruptionKind::OverrunLastDlvrd => "overrun_last_dlvrd",
            CorruptionKind::ForgedAck => "forged_ack",
            CorruptionKind::BaseAhead => "base_ahead",
        }
    }
}

/// Applies `kind` to `st`. Deterministic in `(st, kind, salt)` — `salt`
/// varies the damage (how far a counter is pushed, which peer is hit)
/// without any ambient randomness, so chaos replays are exact.
pub fn apply(st: &mut State, kind: CorruptionKind, salt: u64) {
    match kind {
        CorruptionKind::ForgeMsgId => {
            let view = st.current_view.clone();
            let pid = st.pid;
            let buf = st.buf_mut(pid, &view);
            let gap_index = buf.last_index() + 2;
            buf.set(gap_index, AppMsg::from("<forged>"));
        }
        CorruptionKind::DupMsgId => {
            let sent = st.buf(st.pid, &st.current_view).map_or(0, |b| b.last_index());
            st.last_sent = sent + 1 + salt % 3;
        }
        CorruptionKind::StaleViewId => {
            st.mbrshp_view = View::initial(st.pid);
        }
        CorruptionKind::FutureViewId => {
            let cur = st.current_view.clone();
            let id = ViewId::new(cur.id().epoch + 1000, cur.id().proposer);
            st.current_view = View::new(
                id,
                cur.members().iter().copied(),
                cur.start_ids().iter().map(|(q, c)| (*q, *c)),
            );
        }
        CorruptionKind::ScrambleCut => {
            let pid = st.pid;
            if let Some(cid) = st.start_change.as_ref().map(|(cid, _)| *cid) {
                if let Some(rec) = st.sync_msgs.get_mut(&(pid, cid)) {
                    let inflated = rec.cut.get(pid) + 2 + salt % 2;
                    rec.cut.set(pid, inflated);
                }
            }
        }
        CorruptionKind::ScrambleMembership => {
            let cur = st.current_view.clone();
            let pid = st.pid;
            st.current_view = View::new(
                cur.id(),
                cur.members().iter().copied().filter(|q| *q != pid),
                cur.start_ids().iter().filter(|(q, _)| **q != pid).map(|(q, c)| (*q, *c)),
            );
        }
        CorruptionKind::TruncateMsgs => {
            // Preferred victim: a peer stream already delivered from —
            // cutting below `last_dlvrd` contradicts the delivery
            // history. Fallback: the own stream below `last_sent`.
            let view = st.current_view.clone();
            let victim = st
                .last_dlvrd
                .iter()
                .filter(|(q, d)| **d > 0 && **q != st.pid)
                .map(|(q, d)| (*q, *d))
                .next();
            if let Some((q, dlvrd)) = victim {
                if let Some(buf) = st.msgs.get_mut(&(q, view)) {
                    buf.truncate(dlvrd.saturating_sub(1));
                }
            } else if st.last_sent > 0 {
                let pid = st.pid;
                if let Some(buf) = st.msgs.get_mut(&(pid, view)) {
                    buf.truncate(st.last_sent.saturating_sub(1));
                }
            }
        }
        CorruptionKind::OverrunLastDlvrd => {
            let members: Vec<_> = st.current_view.members().iter().copied().collect();
            let Some(&q) = members.get((salt as usize) % members.len().max(1)) else {
                return;
            };
            let prefix = st.buf(q, &st.current_view).map_or(0, |b| b.longest_prefix());
            st.last_dlvrd.insert(q, prefix + 3);
        }
        CorruptionKind::ForgedAck => {
            // A peer to forge from; alone in a view there is none.
            let peers: Vec<_> =
                st.current_view.members().iter().copied().filter(|q| *q != st.pid).collect();
            let Some(&r) = peers.get((salt as usize) % peers.len().max(1)) else {
                return;
            };
            let forged = Cut::from_iter([(st.pid, st.last_sent + 1 + salt % 3)]);
            st.stability.get_or_insert_with(Box::default).acked.insert(r, forged);
        }
        CorruptionKind::BaseAhead => {
            let view = st.current_view.clone();
            let pid = st.pid;
            let buf = st.buf_mut(pid, &view);
            buf.push(AppMsg::from("<forged>"));
            buf.free_through(buf.last_index());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_types::ProcessId;

    #[test]
    fn kind_names_are_unique_snake_case() {
        let mut seen = std::collections::BTreeSet::new();
        for k in CorruptionKind::ALL {
            let n = k.name();
            assert!(seen.insert(n), "duplicate name {n}");
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn serde_roundtrips_every_kind() {
        for k in CorruptionKind::ALL {
            let json = serde_json::to_string(&k).unwrap();
            assert_eq!(json, format!("\"{}\"", k.name()));
            let back: CorruptionKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, k);
        }
    }

    #[test]
    fn apply_is_total_on_the_initial_state() {
        // Every kind must apply without panicking even to the untouched
        // initial state (no buffers, no pending change).
        for k in CorruptionKind::ALL {
            for salt in 0..4 {
                let mut st = State::new(ProcessId::new(1));
                apply(&mut st, k, salt);
            }
        }
    }

    #[test]
    fn apply_is_deterministic_in_the_salt() {
        for k in CorruptionKind::ALL {
            let run = |salt: u64| {
                let mut st = State::new(ProcessId::new(1));
                apply(&mut st, k, salt);
                format!("{st:?}")
            };
            assert_eq!(run(7), run(7));
        }
    }
}
