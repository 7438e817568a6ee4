//! Property-based tests for the foundational data types.

use proptest::prelude::*;
use vsgm_types::{AppMsg, Cut, NetMsg, ProcessId, StartChangeId, SyncPayload, View, ViewId};

fn arb_pid() -> impl Strategy<Value = ProcessId> {
    (0u64..32).prop_map(ProcessId::new)
}

fn arb_cut() -> impl Strategy<Value = Cut> {
    prop::collection::btree_map(arb_pid(), 0u64..100, 0..8).prop_map(|m| m.into_iter().collect())
}

fn arb_view() -> impl Strategy<Value = View> {
    (0u64..10, 0u64..4, prop::collection::btree_map(arb_pid(), 0u64..50, 1..8)).prop_map(
        |(epoch, proposer, start_ids)| {
            View::new(
                ViewId::new(epoch, proposer),
                start_ids.keys().copied().collect::<Vec<_>>(),
                start_ids.into_iter().map(|(p, c)| (p, StartChangeId::new(c))),
            )
        },
    )
}

proptest! {
    // ----- Cut: join is a semilattice operation -----

    #[test]
    fn cut_join_idempotent(a in arb_cut()) {
        let mut j = a.clone();
        j.join(&a);
        prop_assert!(j.dominated_by(&a) && a.dominated_by(&j));
    }

    #[test]
    fn cut_join_commutative(a in arb_cut(), b in arb_cut()) {
        let ab = Cut::join_all([&a, &b]);
        let ba = Cut::join_all([&b, &a]);
        prop_assert!(ab.dominated_by(&ba) && ba.dominated_by(&ab));
    }

    #[test]
    fn cut_join_associative(a in arb_cut(), b in arb_cut(), c in arb_cut()) {
        let left = Cut::join_all([&Cut::join_all([&a, &b]), &c]);
        let right = Cut::join_all([&a, &Cut::join_all([&b, &c])]);
        prop_assert!(left.dominated_by(&right) && right.dominated_by(&left));
    }

    #[test]
    fn cut_join_is_upper_bound(a in arb_cut(), b in arb_cut()) {
        let j = Cut::join_all([&a, &b]);
        prop_assert!(a.dominated_by(&j));
        prop_assert!(b.dominated_by(&j));
    }

    #[test]
    fn cut_dominated_by_is_a_partial_order(a in arb_cut(), b in arb_cut(), c in arb_cut()) {
        // Reflexive.
        prop_assert!(a.dominated_by(&a));
        // Transitive.
        if a.dominated_by(&b) && b.dominated_by(&c) {
            prop_assert!(a.dominated_by(&c));
        }
    }

    #[test]
    fn cut_serde_roundtrip(a in arb_cut()) {
        let s = serde_json::to_string(&a).unwrap();
        let back: Cut = serde_json::from_str(&s).unwrap();
        prop_assert_eq!(a, back);
    }

    // ----- View -----

    #[test]
    fn view_serde_roundtrip(v in arb_view()) {
        let s = serde_json::to_string(&v).unwrap();
        let back: View = serde_json::from_str(&s).unwrap();
        prop_assert_eq!(v, back);
    }

    #[test]
    fn view_members_and_start_ids_agree(v in arb_view()) {
        for m in v.members() {
            prop_assert!(v.start_id(*m).is_some());
        }
        prop_assert_eq!(v.start_ids().len(), v.len());
    }

    #[test]
    fn view_intersection_is_symmetric(a in arb_view(), b in arb_view()) {
        let ab: Vec<_> = a.intersection(&b).collect();
        let ba: Vec<_> = b.intersection(&a).collect();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn view_equality_requires_identical_start_ids(v in arb_view()) {
        // Bump one member's start id: views must differ.
        let p = *v.members().iter().next().unwrap();
        let bumped = View::new(
            v.id(),
            v.members().iter().copied().collect::<Vec<_>>(),
            v.start_ids().iter().map(|(q, c)| {
                if *q == p { (*q, c.next()) } else { (*q, *c) }
            }),
        );
        prop_assert_ne!(v, bumped);
    }

    // ----- ViewId order -----

    #[test]
    fn view_id_successor_dominates(epoch in 0u64..1000, proposer in 0u64..8, next in 0u64..8) {
        let v = ViewId::new(epoch, proposer);
        prop_assert!(v.successor(next) > v);
    }

    #[test]
    fn view_id_order_total_and_antisymmetric(a in 0u64..50, b in 0u64..4, c in 0u64..50, d in 0u64..4) {
        let x = ViewId::new(a, b);
        let y = ViewId::new(c, d);
        prop_assert_eq!(x < y, y > x);
        if x <= y && y <= x {
            prop_assert_eq!(x, y);
        }
    }

    // ----- wire messages -----

    #[test]
    fn net_msg_serde_roundtrip(payload in prop::collection::vec(any::<u8>(), 0..256)) {
        let m = NetMsg::App(AppMsg::from(payload));
        let s = serde_json::to_string(&m).unwrap();
        prop_assert_eq!(serde_json::from_str::<NetMsg>(&s).unwrap(), m);
    }

    #[test]
    fn sync_payload_slim_is_never_larger(cid in 0u64..100, cut in arb_cut(), v in arb_view()) {
        let full = SyncPayload { cid: StartChangeId::new(cid), view: Some(v), cut };
        let slim = SyncPayload { cid: StartChangeId::new(cid), view: None, cut: Cut::new() };
        prop_assert!(slim.wire_size() <= full.wire_size());
    }

    #[test]
    fn wire_size_is_monotone_in_payload(a in 0usize..512, b in 0usize..512) {
        let ma = NetMsg::App(AppMsg::from(vec![0u8; a]));
        let mb = NetMsg::App(AppMsg::from(vec![0u8; b]));
        prop_assert_eq!(a <= b, ma.wire_size() <= mb.wire_size());
    }
}
