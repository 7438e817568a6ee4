//! Property tests for the core message-buffer data structure (`MsgSeq`)
//! and the cut computation built on it.

use proptest::prelude::*;
use vsgm_core::state::{MsgSeq, State, MAX_GAP};
use vsgm_types::{AppMsg, ProcessId};

fn msg(k: u64) -> AppMsg {
    AppMsg::from(format!("m{k}").as_str())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

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
