//! Property tests for the core message-buffer data structure (`MsgSeq`)
//! and the cut computation built on it.

use proptest::prelude::*;
use vsgm_core::state::{MsgSeq, State, MAX_GAP};
use vsgm_types::{AppMsg, ProcessId};

fn msg(k: u64) -> AppMsg {
    AppMsg::from(format!("m{k}").as_str())
}

/// The reference window: every slot in a deque on the heap, whatever it
/// holds. `MsgSeq` keeps a window of one slot inline and must not be told
/// apart from it, by its answers or by its `Debug` text, which explore
/// fingerprints hash.
mod heap {
    use std::collections::VecDeque;
    use vsgm_core::state::MAX_GAP;
    use vsgm_types::{AppMsg, MsgIndex};

    #[derive(Debug, Default)]
    pub struct MsgSeq {
        base: MsgIndex,
        slots: VecDeque<Option<AppMsg>>,
        prefix: MsgIndex,
    }

    impl MsgSeq {
        pub fn get(&self, i: MsgIndex) -> Option<&AppMsg> {
            let k = i.checked_sub(self.base + 1)?;
            self.slots.get(k as usize)?.as_ref()
        }

        pub fn set(&mut self, i: MsgIndex, m: AppMsg) -> bool {
            let Some(k) = i.checked_sub(self.base + 1) else { return i != 0 };
            if i.saturating_sub(self.prefix) > MAX_GAP {
                return false;
            }
            let k = k as usize;
            if self.slots.len() <= k {
                self.slots.resize(k + 1, None);
            }
            self.slots[k] = Some(m);
            while self.get(self.prefix + 1).is_some() {
                self.prefix += 1;
            }
            true
        }

        pub fn push(&mut self, m: AppMsg) {
            if self.prefix == self.last_index() {
                self.prefix += 1;
            }
            self.slots.push_back(Some(m));
        }

        pub fn longest_prefix(&self) -> MsgIndex {
            self.prefix
        }

        pub fn last_index(&self) -> MsgIndex {
            self.base + self.slots.len() as MsgIndex
        }

        pub fn freed(&self) -> MsgIndex {
            self.base
        }

        pub fn retained(&self) -> usize {
            self.slots.len()
        }

        pub fn free_through(&mut self, k: MsgIndex) {
            let n = k.min(self.prefix).saturating_sub(self.base);
            self.slots.drain(..n as usize);
            self.base += n;
        }

        pub fn truncate(&mut self, keep: MsgIndex) {
            self.slots.truncate(keep.saturating_sub(self.base) as usize);
            self.base = self.base.min(keep);
            while self.slots.back().is_some_and(Option::is_none) {
                self.slots.pop_back();
            }
            self.prefix = self.prefix.min(self.last_index());
        }

        pub fn is_consistent(&self) -> bool {
            let held = self.slots.iter().take_while(|s| s.is_some()).count() as MsgIndex;
            self.prefix == self.base + held && self.slots.back().is_none_or(Option::is_some)
        }
    }
}

/// One operation on a window.
#[derive(Debug, Clone)]
enum Op {
    Set(u64),
    Push,
    FreeThrough(u64),
    Truncate(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..16).prop_map(Op::Set),
        2 => Just(Op::Push),
        2 => (0u64..18).prop_map(Op::FreeThrough),
        1 => (0u64..18).prop_map(Op::Truncate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// A window that holds one message inline, moves to the heap past it
    /// and back once it empties answers every query as the heap-only
    /// window does, after every operation, and prints the same text.
    #[test]
    fn an_inline_window_answers_and_prints_as_a_heap_window(
        ops in prop::collection::vec(op(), 0..60),
    ) {
        let mut window = MsgSeq::default();
        let mut reference = heap::MsgSeq::default();
        for (k, op) in (0u64..).zip(&ops) {
            match *op {
                Op::Set(i) => prop_assert_eq!(window.set(i, msg(k)), reference.set(i, msg(k))),
                Op::Push => {
                    window.push(msg(k));
                    reference.push(msg(k));
                }
                Op::FreeThrough(i) => {
                    window.free_through(i);
                    reference.free_through(i);
                }
                Op::Truncate(i) => {
                    window.truncate(i);
                    reference.truncate(i);
                }
            }
            for i in 0..=reference.last_index() + 1 {
                prop_assert_eq!(window.get(i), reference.get(i), "get({}) after {:?}", i, op);
            }
            prop_assert_eq!(window.longest_prefix(), reference.longest_prefix());
            prop_assert_eq!(window.last_index(), reference.last_index());
            prop_assert_eq!(window.freed(), reference.freed());
            prop_assert_eq!(window.retained(), reference.retained());
            prop_assert_eq!(window.is_consistent(), reference.is_consistent());
            prop_assert_eq!(format!("{window:?}"), format!("{reference:?}"));
            prop_assert_eq!(format!("{window:#?}"), format!("{reference:#?}"));
            // Two slots or more are on the heap; no slot is not.
            if window.retained() > 1 {
                prop_assert!(window.capacity() >= window.retained());
            }
            if window.retained() == 0 {
                prop_assert_eq!(window.capacity(), 0);
            }
        }
    }

    /// Filling 1..=n in any order yields prefix n; any missing index caps
    /// the prefix just below the first gap.
    #[test]
    fn longest_prefix_is_first_gap(
        present in prop::collection::btree_set(1u64..40, 0..30),
    ) {
        let mut s = MsgSeq::default();
        for &i in &present {
            s.set(i, msg(i));
        }
        let expected = (1u64..).take_while(|i| present.contains(i)).count() as u64;
        prop_assert_eq!(s.longest_prefix(), expected);
        prop_assert_eq!(s.last_index(), present.iter().max().copied().unwrap_or(0));
    }

    /// set() then get() round-trips; get() outside is None.
    #[test]
    fn set_get_roundtrip(indices in prop::collection::vec(1u64..60, 0..40)) {
        let mut s = MsgSeq::default();
        for &i in &indices {
            s.set(i, msg(i));
        }
        for &i in &indices {
            prop_assert_eq!(s.get(i), Some(&msg(i)));
        }
        prop_assert_eq!(s.get(0), None);
        prop_assert_eq!(s.get(1000), None);
    }

    /// push() is equivalent to set() at successive indices.
    #[test]
    fn push_equals_sequential_set(n in 0u64..50) {
        let mut a = MsgSeq::default();
        let mut b = MsgSeq::default();
        for k in 1..=n {
            a.push(msg(k));
            b.set(k, msg(k));
        }
        prop_assert_eq!(a.longest_prefix(), b.longest_prefix());
        prop_assert_eq!(a.last_index(), b.last_index());
        for k in 1..=n {
            prop_assert_eq!(a.get(k), b.get(k));
        }
    }

    /// Overwriting an index with the same content is idempotent
    /// (forwarded duplicates — Invariant 6.6).
    #[test]
    fn idempotent_refill(indices in prop::collection::vec(1u64..30, 1..20)) {
        let mut s = MsgSeq::default();
        for &i in &indices {
            s.set(i, msg(i));
        }
        let before: Vec<_> = (1..=30).map(|i| s.get(i).cloned()).collect();
        for &i in &indices {
            s.set(i, msg(i)); // duplicate arrival
        }
        let after: Vec<_> = (1..=30).map(|i| s.get(i).cloned()).collect();
        prop_assert_eq!(before, after);
    }

    /// Dropping a stable prefix changes what `get` returns below it and
    /// nothing else: indices, prefix and last index stay absolute, and
    /// later arrivals land where they would have.
    #[test]
    fn window_is_invisible_above_the_floor(
        first in prop::collection::btree_set(1u64..40, 0..30),
        floor in 0u64..45,
        second in prop::collection::btree_set(1u64..40, 0..30),
    ) {
        let mut windowed = MsgSeq::default();
        let mut whole = MsgSeq::default();
        for &i in &first {
            windowed.set(i, msg(i));
            whole.set(i, msg(i));
        }
        windowed.free_through(floor);
        let freed = floor.min(whole.longest_prefix());
        prop_assert_eq!(windowed.freed(), freed);
        for &i in &second {
            windowed.set(i, msg(i));
            whole.set(i, msg(i));
        }
        prop_assert_eq!(windowed.longest_prefix(), whole.longest_prefix());
        prop_assert_eq!(windowed.last_index(), whole.last_index());
        prop_assert!(windowed.is_consistent());
        for i in 0..45 {
            prop_assert_eq!(windowed.get(i), if i <= freed { None } else { whole.get(i) });
        }
        prop_assert_eq!(windowed.retained() as u64, whole.last_index() - freed);
    }

    /// An index from the wire is refused, and allocates nothing, once it
    /// is more than `MAX_GAP` past the gap-free prefix — wherever the
    /// prefix and the window are.
    #[test]
    fn set_refuses_exactly_beyond_the_gap_bound(
        n in 0u64..20,
        floor in 0u64..25,
        far in any::<u64>(),
    ) {
        let mut s = MsgSeq::default();
        for k in 1..=n {
            s.push(msg(k));
        }
        s.free_through(floor);
        let before = (s.retained(), s.last_index(), s.longest_prefix());
        let beyond = n + MAX_GAP + 1;
        let forged = beyond.max(far);
        prop_assert!(!s.set(forged, msg(0)));
        prop_assert!(!s.set(beyond, msg(0)));
        prop_assert!(!s.set(0, msg(0)));
        prop_assert_eq!((s.retained(), s.last_index(), s.longest_prefix()), before);
        prop_assert!(s.set(beyond - 1, msg(0)));
        prop_assert_eq!(s.last_index(), n + MAX_GAP);
    }

    /// commit_cut is monotone under message arrival: receiving more never
    /// shrinks any component.
    #[test]
    fn commit_cut_monotone(
        first in prop::collection::vec(1u64..20, 0..10),
        second in prop::collection::vec(1u64..20, 0..10),
    ) {
        let me = ProcessId::new(1);
        let mut st = State::new(me);
        let view = st.current_view.clone();
        for &i in &first {
            st.buf_mut(me, &view).set(i, msg(i));
        }
        let before = st.commit_cut();
        for &i in &second {
            st.buf_mut(me, &view).set(i, msg(i));
        }
        let after = st.commit_cut();
        prop_assert!(before.dominated_by(&after), "{before:?} vs {after:?}");
    }
}
