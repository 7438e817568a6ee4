//! End-point state: the union of the state variables of Figs. 9–11.

use std::collections::{BTreeSet, VecDeque};
use vsgm_types::{AppMsg, Cut, MsgIndex, ProcSet, ProcessId, StartChangeId, VecMap, View};

/// How many slots past its gap-free prefix a buffer accepts a message.
/// A legitimate forward is never further ahead than what some member's
/// cut committed; the index of a `fwd_msg` comes straight off the wire.
pub const MAX_GAP: MsgIndex = 1 << 20;

/// One `msgs[q][v]` buffer: a 1-indexed, possibly sparse sequence of
/// application messages, of which only a window is retained. Sparse
/// because forwarded messages (Fig. 9, `fwd_msg`) can fill arbitrary
/// indices out of order; a window because the stability rule
/// ([`crate::stability`]) drops the prefix every member of the view has
/// delivered. Indices stay absolute: [`MsgSeq::get`] is `None` for a
/// dropped index, and [`MsgSeq::longest_prefix`] and
/// [`MsgSeq::last_index`] count dropped messages as present.
#[derive(Debug, Clone, Default)]
pub struct MsgSeq {
    /// Indices `1..=base` have been dropped.
    base: MsgIndex,
    /// Slot `k` holds index `base + 1 + k`; the back slot is populated.
    slots: VecDeque<Option<AppMsg>>,
    /// `LongestPrefixOf`, kept as messages arrive: indices `1..=prefix`
    /// are or were all present, and `prefix >= base`.
    prefix: MsgIndex,
}

impl MsgSeq {
    fn slot(&self, i: MsgIndex) -> Option<usize> {
        i.checked_sub(self.base + 1).map(|k| k as usize)
    }

    /// The message at 1-based index `i`, if retained.
    pub fn get(&self, i: MsgIndex) -> Option<&AppMsg> {
        self.slots.get(self.slot(i)?).and_then(Option::as_ref)
    }

    /// Stores a message at 1-based index `i`, growing with gaps as
    /// needed. Idempotent for equal content (forwarded copies of the same
    /// original are identical — Invariant 6.6); a copy of a message
    /// already dropped is ignored. Returns `false`, storing nothing, for
    /// an index outside the sequence: 0, or more than [`MAX_GAP`] past
    /// the gap-free prefix.
    pub fn set(&mut self, i: MsgIndex, m: AppMsg) -> bool {
        let Some(k) = self.slot(i) else { return i != 0 };
        if i.saturating_sub(self.prefix) > MAX_GAP {
            return false;
        }
        if self.slots.len() <= k {
            reserve_first(&mut self.slots, k + 1);
            self.slots.resize(k + 1, None);
        }
        if let Some(slot) = self.slots.get_mut(k) {
            *slot = Some(m);
        }
        while self.get(self.prefix + 1).is_some() {
            self.prefix += 1;
        }
        true
    }

    /// Appends at the next index (original sends from the local client).
    pub fn push(&mut self, m: AppMsg) {
        if self.prefix == self.last_index() {
            self.prefix += 1;
        }
        reserve_first(&mut self.slots, 1);
        self.slots.push_back(Some(m));
    }

    /// `LongestPrefixOf`: the largest `k` such that indices `1..=k` are
    /// or were all present.
    pub fn longest_prefix(&self) -> MsgIndex {
        self.prefix
    }

    /// The largest populated index (0 if empty).
    pub fn last_index(&self) -> MsgIndex {
        self.base + self.slots.len() as MsgIndex
    }

    /// How many leading indices have been dropped.
    pub fn freed(&self) -> MsgIndex {
        self.base
    }

    /// How many slots are retained (gaps included).
    pub fn retained(&self) -> usize {
        self.slots.len()
    }

    /// How many slots the window has room for before it allocates again
    /// (0 once [`State::release_empty_windows`] handed it back).
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Drops every index up to `k`, but never past the gap-free prefix.
    pub fn free_through(&mut self, k: MsgIndex) {
        let n = k.min(self.prefix).saturating_sub(self.base);
        self.slots.drain(..n as usize);
        self.base += n;
    }

    /// Discards every slot above 1-based index `keep` (so `get(i)` is
    /// `None` for all `i > keep`). Used only by the corruption fault
    /// injector ([`crate::corrupt`]) — no legal transition shrinks a
    /// buffer from the back.
    pub fn truncate(&mut self, keep: MsgIndex) {
        self.slots.truncate(keep.saturating_sub(self.base) as usize);
        self.base = self.base.min(keep);
        while self.slots.back().is_some_and(Option::is_none) {
            self.slots.pop_back();
        }
        self.prefix = self.prefix.min(self.last_index());
    }

    /// Whether the bookkeeping agrees with the slots: the recorded prefix
    /// is the first gap, nothing below the window is counted missing, and
    /// the back slot is populated. For [`crate::audit`].
    pub fn is_consistent(&self) -> bool {
        let held = self.slots.iter().take_while(|s| s.is_some()).count() as MsgIndex;
        self.prefix == self.base + held && self.slots.back().is_none_or(Option::is_some)
    }
}

/// Gives an unallocated window room for exactly `n` slots. A group
/// acknowledges every [`crate::stability::ACK_EVERY`] multicasts and
/// when it goes quiet, so most windows hold one message or a few at a
/// time; a `VecDeque`'s first growth would make room for four.
fn reserve_first(slots: &mut VecDeque<Option<AppMsg>>, n: usize) {
    if slots.capacity() == 0 {
        slots.reserve_exact(n);
    }
}

/// A stored synchronization message (one `sync_msg[q][cid]` cell of
/// Fig. 10). `view = None` for §5.2.4 slim messages.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncRecord {
    /// The sender's view at sync time (`None` for slim messages).
    pub view: Option<View>,
    /// The sender's committed delivery cut.
    pub cut: Cut,
    /// Where in the sender's message stream this sync arrived: the
    /// receiver's `last_rcvd[sender]` at receipt (for the local record:
    /// the sender's own `last_sent`). Because syncs travel in-stream on
    /// the same FIFO channels as application messages, this position is
    /// identical at every receiver — the observation behind the second
    /// §5.2.4 optimization ([`crate::Config::implicit_cuts`]).
    pub stream_pos: MsgIndex,
}

/// What an end-point knows about deliveries in its current view
/// ([`crate::stability`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stability {
    /// `acked[r]`: the latest `last_dlvrd` vector peer `r` acknowledged.
    pub acked: VecMap<ProcessId, Cut>,
    /// The `last_dlvrd` vector this end-point last announced.
    pub announced: VecMap<ProcessId, MsgIndex>,
    /// Whether the host asked for an acknowledgement
    /// ([`crate::Input::AckDue`]) that has not been sent yet.
    pub armed: bool,
}

/// Block-handshake status (Fig. 11, `block_status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockStatus {
    /// The application may send.
    #[default]
    Unblocked,
    /// A `block` request was issued, not yet acknowledged.
    Requested,
    /// The application acknowledged and is silent until the next view.
    Blocked,
}

/// The complete end-point state: Fig. 9 (`WV_RFIFO_p`) plus the state
/// extensions of Fig. 10 (`VS_RFIFO+TS_p`) and Fig. 11 (`GCS_p`).
#[derive(Debug, Clone)]
pub struct State {
    /// This end-point's identity.
    pub pid: ProcessId,

    // ----- WV_RFIFO_p (Fig. 9) -----
    /// `msgs[q][v]`: per-sender, per-view message buffers.
    pub msgs: VecMap<(ProcessId, View), MsgSeq>,
    /// Index of the last own message multicast via `CO_RFIFO`.
    pub last_sent: MsgIndex,
    /// `last_rcvd[q]`: last original-stream index received from `q`.
    pub last_rcvd: VecMap<ProcessId, MsgIndex>,
    /// `last_dlvrd[q]`: last index delivered to the application from `q`
    /// in the current view.
    pub last_dlvrd: VecMap<ProcessId, MsgIndex>,
    /// The view last delivered to the application.
    pub current_view: View,
    /// The view last received from the membership service.
    pub mbrshp_view: View,
    /// `view_msg[q]`: the view conveyed by the latest `view_msg` from `q`
    /// (`view_msg[pid]` = the last view *we* announced).
    pub view_msg: VecMap<ProcessId, View>,
    /// Peers we asked `CO_RFIFO` to keep reliable channels to.
    pub reliable_set: ProcSet,

    // ----- VS_RFIFO+TS_p extension (Fig. 10) -----
    /// The pending `start_change`, if a view change is in progress.
    pub start_change: Option<(StartChangeId, ProcSet)>,
    /// `sync_msg[q][cid]` cells.
    pub sync_msgs: VecMap<(ProcessId, StartChangeId), SyncRecord>,
    /// Largest sync cid received from each peer (used by the eager
    /// forwarding strategy to find the peer's freshest cut).
    pub latest_sync_cid: VecMap<ProcessId, StartChangeId>,
    /// `(dest, origin, view, index)` tuples already forwarded.
    pub forwarded: BTreeSet<(ProcessId, ProcessId, View, MsgIndex)>,

    // ----- GCS_p extension (Fig. 11) -----
    /// Block-handshake status with the local application.
    pub block_status: BlockStatus,

    // ----- §9 aggregation extension -----
    /// Leader-side buffer of collected synchronization messages for the
    /// current change: `(sender, cid, record)`.
    pub agg_buffer: VecMap<ProcessId, (StartChangeId, SyncRecord)>,
    /// Whether the leader already flushed the batched aggregate for the
    /// current change (stragglers are then relayed individually).
    pub agg_flushed: bool,
    /// The suggested set of the latest change, kept across view
    /// installation so the leader can still relay straggler syncs to
    /// members that have not installed yet.
    pub agg_scope: Option<ProcSet>,

    // ----- endpoint batching extension (see `crate::batch`) -----
    /// The end-point's monotone local clock in microseconds, fed by
    /// [`crate::Input::Tick`] (simulated time under the harness, wall
    /// clock in a real node pump). Only the batching linger deadline reads
    /// it — the protocol automata stay time-free.
    pub now_us: u64,
    /// When the oldest unsent own message entered the pending batch (for
    /// the linger deadline); `None` while nothing is pending.
    pub batch_opened_us: Option<u64>,
    /// Application sends received after the own synchronization message
    /// for an in-progress view change was already sent: the committed cut
    /// excludes them, so they are queued here and re-issued in the *next*
    /// view instead of being stamped with the old one (see
    /// [`crate::wv::on_app_send`]).
    pub pending_sends: Vec<AppMsg>,

    // ----- stability extension (see `crate::stability`) -----
    /// Acknowledgement bookkeeping for the current view; allocated when
    /// the first acknowledgement is asked for or heard, so an end-point
    /// whose host never asks carries one null pointer.
    pub stability: Option<Box<Stability>>,

    // ----- §8 crash/recovery -----
    /// While `true`, locally controlled actions and input effects are
    /// disabled.
    pub crashed: bool,
}

impl State {
    /// Initial state of an end-point (everything per Figs. 9–11 initial
    /// values; `current_view = mbrshp_view = v_p`).
    pub fn new(pid: ProcessId) -> Self {
        let initial = View::initial(pid);
        State {
            pid,
            msgs: VecMap::new(),
            last_sent: 0,
            last_rcvd: VecMap::new(),
            last_dlvrd: VecMap::new(),
            current_view: initial.clone(),
            mbrshp_view: initial,
            view_msg: VecMap::new(),
            reliable_set: [pid].into_iter().collect(),
            start_change: None,
            sync_msgs: VecMap::new(),
            latest_sync_cid: VecMap::new(),
            forwarded: BTreeSet::new(),
            block_status: BlockStatus::Unblocked,
            agg_buffer: VecMap::new(),
            agg_flushed: false,
            agg_scope: None,
            now_us: 0,
            batch_opened_us: None,
            pending_sends: Vec::new(),
            stability: None,
            crashed: false,
        }
    }

    /// The buffer `msgs[q][v]`, creating it lazily.
    pub fn buf_mut(&mut self, q: ProcessId, v: &View) -> &mut MsgSeq {
        self.msgs.entry((q, v.clone())).or_default()
    }

    /// The buffer `msgs[q][v]` if it exists (looked up by reference: no
    /// key is built).
    pub fn buf(&self, q: ProcessId, v: &View) -> Option<&MsgSeq> {
        self.msgs.get_by(|(kq, kv)| kq.cmp(&q).then_with(|| kv.cmp(v)))
    }

    /// `view_msg[q]`, defaulting to `q`'s initial view.
    pub fn view_msg_of(&self, q: ProcessId) -> View {
        self.view_msg.get(&q).cloned().unwrap_or_else(|| View::initial(q))
    }

    /// Whether `view_msg[q]` is the current view: `q`'s stream (the own
    /// one for `q = pid`) currently belongs to it.
    pub fn in_current_view_stream(&self, q: ProcessId) -> bool {
        match self.view_msg.get(&q) {
            Some(v) => *v == self.current_view,
            None => self.current_view.is_initial_of(q),
        }
    }

    /// `last_dlvrd[q]`, defaulting to 0.
    pub fn dlvrd(&self, q: ProcessId) -> MsgIndex {
        self.last_dlvrd.get(&q).copied().unwrap_or(0)
    }

    /// `last_rcvd[q]`, defaulting to 0.
    pub fn rcvd(&self, q: ProcessId) -> MsgIndex {
        self.last_rcvd.get(&q).copied().unwrap_or(0)
    }

    /// `sync_msg[q][cid]`, if received/sent.
    pub fn sync(&self, q: ProcessId, cid: StartChangeId) -> Option<&SyncRecord> {
        self.sync_msgs.get(&(q, cid))
    }

    /// The cut this end-point would commit to right now: for every member
    /// `q` of the current view, the longest gap-free prefix of
    /// `msgs[q][current_view]` (Fig. 10, `co_rfifo.send sync_msg`
    /// precondition).
    pub fn commit_cut(&self) -> Cut {
        self.current_view
            .members()
            .iter()
            .map(|q| {
                let n = self.buf(*q, &self.current_view).map_or(0, MsgSeq::longest_prefix);
                (*q, n)
            })
            .collect()
    }

    /// The transitional set for moving from `current_view` into
    /// `mbrshp_view` based on the synchronization messages selected by the
    /// view's `startId` map — `None` if some required sync message is
    /// still missing (Fig. 10, `view` precondition).
    pub fn transitional_set(&self) -> Option<ProcSet> {
        let v_new = &self.mbrshp_view;
        let mut t = ProcSet::new();
        for q in v_new.intersection(&self.current_view) {
            let cid = v_new.start_id(q)?;
            let rec = self.sync(q, cid)?;
            if rec.view.as_ref() == Some(&self.current_view) {
                t.insert(q);
            }
        }
        Some(t)
    }

    /// Drops what no later step can read, once view `v` (the current
    /// view) is installed and `previous_view` (`u`) was left. Buffers and
    /// forwarding marks of views older than `u` go; those of `u` stay,
    /// since forwarding duties for it may still be pending. Of the sync
    /// records, one generation stays (DESIGN.md §18):
    ///
    /// * of `q ∈ v`, those at or above `v.start_id(q)` — a later view
    ///   selects a cid at least that, since `q`'s start ids only grow;
    /// * of `q ∈ u \ v`, those at or above `u.start_id(q)`;
    /// * of `q` in neither view, all — one may be the sync for a change
    ///   this end-point has not seen yet, and dropping it would block
    ///   that change forever.
    ///
    /// A dropped record carries a view older than `u`, whose buffers are
    /// gone, or is an older record of a sender that has synced since.
    pub fn gc(&mut self, previous_view: &View) {
        let floor = previous_view.id();
        self.msgs.retain(|(_, v), _| v.id() >= floor);
        self.forwarded.retain(|(_, _, v, _)| v.id() >= floor);
        let v = &self.current_view;
        self.sync_msgs.retain(|(q, cid), _| {
            v.start_id(*q).or_else(|| previous_view.start_id(*q)).is_none_or(|from| *cid >= from)
        });
        self.sync_msgs.shrink_to_fit();
    }

    /// Hands back the allocation of every `msgs[q][v]` window that
    /// retains no slot — what an acknowledgement round in a quiet group
    /// leaves behind (DESIGN.md §18) — and, once the round is done (no
    /// acknowledgement is armed), the round's record. The indices stay: a
    /// released window answers every call as before, and its next message
    /// allocates it again. The record only kept the end-point from
    /// repeating an acknowledgement it already sent, and the floor from
    /// reading 0 until the next round; that round follows a multicast,
    /// which every member delivers and then announces, so it replaces
    /// every entry anyway.
    pub fn release_empty_windows(&mut self) {
        for buf in self.msgs.values_mut().filter(|buf| buf.slots.is_empty()) {
            buf.slots = VecDeque::new();
        }
        if self.stability.as_ref().is_some_and(|s| !s.armed) {
            self.stability = None;
        }
    }

    /// Resets everything to the initial state (§8 recovery — no stable
    /// storage). The local clock survives: recovery does not move time
    /// backwards.
    pub fn reset(&mut self) {
        let now_us = self.now_us;
        *self = State::new(self.pid);
        self.now_us = now_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn msg_seq_push_and_get() {
        let mut s = MsgSeq::default();
        s.push(AppMsg::from("a"));
        s.push(AppMsg::from("b"));
        assert_eq!(s.get(1), Some(&AppMsg::from("a")));
        assert_eq!(s.get(2), Some(&AppMsg::from("b")));
        assert_eq!(s.get(3), None);
        assert_eq!(s.get(0), None);
        assert_eq!(s.longest_prefix(), 2);
        assert_eq!(s.last_index(), 2);
    }

    #[test]
    fn msg_seq_sparse_fill() {
        let mut s = MsgSeq::default();
        s.set(3, AppMsg::from("c"));
        assert_eq!(s.longest_prefix(), 0);
        assert_eq!(s.last_index(), 3);
        s.set(1, AppMsg::from("a"));
        assert_eq!(s.longest_prefix(), 1);
        s.set(2, AppMsg::from("b"));
        assert_eq!(s.longest_prefix(), 3);
    }

    #[test]
    fn msg_seq_ignores_index_zero() {
        let mut s = MsgSeq::default();
        s.set(0, AppMsg::from("x"));
        assert_eq!(s.get(0), None);
        assert_eq!(s.last_index(), 0);
        assert_eq!(s.longest_prefix(), 0);
    }

    #[test]
    fn msg_seq_window_keeps_absolute_indices() {
        let mut s = MsgSeq::default();
        for k in 1..=6u8 {
            s.push(AppMsg::from(vec![k]));
        }
        s.set(8, AppMsg::from("gap"));
        s.free_through(4);
        assert_eq!((s.freed(), s.retained()), (4, 4));
        assert_eq!((s.get(4), s.get(5)), (None, Some(&AppMsg::from(vec![5u8]))));
        assert_eq!((s.longest_prefix(), s.last_index()), (6, 8));
        // Never past the gap-free prefix, and a late copy of a dropped
        // message is ignored.
        s.free_through(100);
        assert_eq!((s.freed(), s.get(8)), (6, Some(&AppMsg::from("gap"))));
        assert!(s.set(2, AppMsg::from("late copy")));
        assert_eq!((s.get(2), s.freed(), s.retained()), (None, 6, 2));
        // Filling the gap advances the prefix across what was buffered.
        assert!(s.set(7, AppMsg::from("fill")));
        assert_eq!(s.longest_prefix(), 8);
        s.push(AppMsg::from("next"));
        assert_eq!((s.longest_prefix(), s.last_index()), (9, 9));
        assert!(s.is_consistent());
    }

    #[test]
    fn releasing_empty_windows_frees_their_buffers_and_keeps_their_indices() {
        let mut st = State::new(p(1));
        let v = st.current_view.clone();
        for k in 1..=6u8 {
            st.buf_mut(p(1), &v).push(AppMsg::from(vec![k]));
            st.buf_mut(p(2), &v).push(AppMsg::from(vec![k]));
        }
        st.buf_mut(p(1), &v).free_through(6);
        st.buf_mut(p(2), &v).free_through(5);
        st.release_empty_windows();
        let emptied = st.buf(p(1), &v).unwrap();
        assert_eq!(emptied.capacity(), 0, "the emptied window is handed back");
        assert_eq!((emptied.freed(), emptied.longest_prefix(), emptied.last_index()), (6, 6, 6));
        let held = st.buf(p(2), &v).unwrap();
        assert_eq!((held.retained(), held.get(6)), (1, Some(&AppMsg::from(vec![6u8]))));
        let next = st.buf_mut(p(1), &v);
        next.push(AppMsg::from("next"));
        assert_eq!((next.get(7), next.longest_prefix()), (Some(&AppMsg::from("next")), 7));
        assert!(next.is_consistent());
    }

    #[test]
    fn msg_seq_refuses_an_index_far_past_its_prefix() {
        let mut s = MsgSeq::default();
        s.push(AppMsg::from("a"));
        for forged in [1 + MAX_GAP + 1, 1 << 40, u64::MAX] {
            assert!(!s.set(forged, AppMsg::from("forged")), "{forged}");
        }
        assert_eq!((s.last_index(), s.retained()), (1, 1));
        assert!(s.set(1 + MAX_GAP, AppMsg::from("edge")));
        assert_eq!(s.last_index(), 1 + MAX_GAP);
    }

    #[test]
    fn msg_seq_truncate_reaches_below_the_window() {
        let mut s = MsgSeq::default();
        for _ in 0..5 {
            s.push(AppMsg::from("m"));
        }
        s.set(8, AppMsg::from("far"));
        s.truncate(7);
        assert_eq!((s.last_index(), s.longest_prefix()), (5, 5), "trailing gaps go too");
        s.free_through(4);
        s.truncate(2);
        assert_eq!((s.freed(), s.retained(), s.longest_prefix(), s.last_index()), (2, 0, 2, 2));
        assert!(s.is_consistent());
    }

    #[test]
    fn initial_state_matches_figures() {
        let st = State::new(p(1));
        assert_eq!(st.current_view, View::initial(p(1)));
        assert_eq!(st.mbrshp_view, View::initial(p(1)));
        assert_eq!(st.reliable_set, [p(1)].into_iter().collect());
        assert_eq!(st.last_sent, 0);
        assert!(st.start_change.is_none());
        assert_eq!(st.block_status, BlockStatus::Unblocked);
        assert!(!st.crashed);
    }

    #[test]
    fn commit_cut_covers_current_view_members() {
        let mut st = State::new(p(1));
        st.buf_mut(p(1), &View::initial(p(1))).push(AppMsg::from("m"));
        let cut = st.commit_cut();
        assert_eq!(cut.get(p(1)), 1);
        assert_eq!(cut.get(p(2)), 0);
    }

    /// End-points joined by channels that deliver at once, each block
    /// request acknowledged, for driving the view changes whose garbage
    /// [`State::gc`] collects.
    struct Mesh(VecMap<ProcessId, crate::Endpoint>);

    impl Mesh {
        fn new(ids: &[u64]) -> Mesh {
            let ep = |i: &u64| (p(*i), crate::Endpoint::new(p(*i), crate::Config::default()));
            Mesh(ids.iter().map(ep).collect())
        }

        fn state(&self, i: u64) -> &State {
            self.0.get(&p(i)).expect("a member of the mesh").state()
        }

        /// `input` at each of `at`, then traffic until nobody has anything
        /// left to say.
        fn input(&mut self, at: &[u64], input: crate::Input) {
            for i in at {
                self.0.get_mut(&p(*i)).expect("a member of the mesh").handle(input.clone());
            }
            loop {
                let mut traffic = Vec::new();
                for ep in self.0.values_mut() {
                    let mut effects = ep.handle(crate::Input::BlockOk);
                    effects.extend(ep.poll());
                    for e in effects {
                        if let crate::Effect::NetSend { to, msg } = e {
                            traffic.push((ep.pid(), to, msg));
                        }
                    }
                }
                if traffic.is_empty() {
                    return;
                }
                for (from, to, msg) in traffic {
                    for ep in self.0.values_mut().filter(|ep| to.contains(&ep.pid())) {
                        ep.handle(crate::Input::Net { from, msg: msg.clone() });
                    }
                }
            }
        }

        fn start_change(&mut self, at: &[u64], cid: u64, set: &[u64]) {
            let set = set.iter().map(|i| p(*i)).collect();
            self.input(at, crate::Input::StartChange { cid: StartChangeId::new(cid), set });
        }

        /// Announces view `epoch` of `start_ids` to its members and
        /// returns it.
        fn view(&mut self, epoch: u64, start_ids: &[(u64, u64)]) -> View {
            let ids = start_ids.iter().map(|(i, cid)| (p(*i), StartChangeId::new(*cid)));
            let v = View::new(vsgm_types::ViewId::new(epoch, 0), ids.clone().map(|(q, _)| q), ids);
            let members: Vec<u64> = start_ids.iter().map(|(i, _)| *i).collect();
            self.input(&members, crate::Input::MbrshpView(v.clone()));
            v
        }

        /// The `(q, cid)` keys of `i`'s sync records.
        fn records(&self, i: u64) -> Vec<(u64, u64)> {
            self.state(i).sync_msgs.keys().map(|(q, cid)| (q.raw(), cid.raw())).collect()
        }
    }

    #[test]
    fn after_a_cascaded_change_only_the_current_views_start_ids_remain() {
        let mut m = Mesh::new(&[1, 2]);
        m.start_change(&[1, 2], 1, &[1, 2]);
        m.view(1, &[(1, 1), (2, 1)]);
        m.start_change(&[1, 2], 2, &[1, 2]);
        m.start_change(&[1, 2], 3, &[1, 2]);
        assert_eq!(m.records(1), [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]);
        let v = m.view(2, &[(1, 3), (2, 3)]);
        for i in [1, 2] {
            assert_eq!(m.state(i).current_view, v);
            assert_eq!(m.records(i), [(1, 3), (2, 3)], "p{i}");
        }
    }

    #[test]
    fn a_member_that_leaves_and_rejoins_leaves_one_generation_behind() {
        let mut m = Mesh::new(&[1, 2, 3]);
        m.start_change(&[1, 2, 3], 1, &[1, 2, 3]);
        m.view(1, &[(1, 1), (2, 1), (3, 1)]);
        // p3 leaves; the survivors keep its record of the view it left.
        m.start_change(&[1, 2], 2, &[1, 2]);
        m.view(2, &[(1, 2), (2, 2)]);
        assert_eq!(m.records(1), [(1, 2), (2, 2), (3, 1)]);
        // It re-joins from the view it left, and every member ends with
        // one record per member of the view.
        m.start_change(&[1, 2, 3], 3, &[1, 2, 3]);
        let v = m.view(3, &[(1, 3), (2, 3), (3, 3)]);
        for i in [1, 2, 3] {
            assert_eq!(m.state(i).current_view, v, "p{i}");
            assert_eq!(m.records(i), [(1, 3), (2, 3), (3, 3)], "p{i}");
        }
    }

    #[test]
    fn a_future_joiners_early_sync_survives_the_install_and_the_next_view_installs() {
        let mut m = Mesh::new(&[1, 2, 3]);
        m.start_change(&[1, 2], 1, &[1, 2]);
        m.view(1, &[(1, 1), (2, 1)]);
        // p3 hears of a change that adds it before p1 and p2 do, and its
        // sync reaches them while they are still changing without it.
        m.start_change(&[3], 7, &[1, 2, 3]);
        m.start_change(&[1, 2], 2, &[1, 2]);
        assert!(m.records(1).contains(&(3, 7)));
        m.view(2, &[(1, 2), (2, 2)]);
        assert_eq!(m.records(1), [(1, 2), (2, 2), (3, 7)]);
        m.start_change(&[1, 2], 3, &[1, 2, 3]);
        let v = m.view(3, &[(1, 3), (2, 3), (3, 7)]);
        for i in [1, 2, 3] {
            assert_eq!(m.state(i).current_view, v, "p{i}");
            assert_eq!(m.records(i), [(1, 3), (2, 3), (3, 7)], "p{i}");
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut st = State::new(p(1));
        st.last_sent = 5;
        st.crashed = true;
        st.reset();
        assert_eq!(st.last_sent, 0);
        assert!(!st.crashed);
        assert_eq!(st.pid, p(1));
    }
}
