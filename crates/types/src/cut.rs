//! Delivery cuts: per-sender committed message indices (§4.1.2, §5.2).

use crate::ids::ProcessId;
use crate::message::MsgIndex;
use crate::vec_map::VecMap;
use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;
use std::sync::Arc;

/// A *cut*: a map from processes to 1-based message indices.
///
/// `cut.get(q) = i` means "the first `i` messages sent by `q` in the
/// relevant view". Cuts appear in two roles:
///
/// * inside synchronization messages, as the set of messages the sender
///   commits to deliver before the next view (Fig. 10), and
/// * in the `VS_RFIFO:SPEC` automaton, as the agreed set of messages every
///   process moving from view `v` to `v'` must deliver (Fig. 5).
///
/// Absent keys are read as 0 ("no messages from that sender").
///
/// A cut is one immutable, shared allocation: the sender's sync record,
/// each queued copy of the message and each receiver's record hold the
/// same entries, and a clone bumps a count. An empty cut allocates
/// nothing. [`Cut::set`], [`Cut::join`] and [`Extend`] build a new cut,
/// so a cut built entry by entry costs a copy per entry — build it from
/// an iterator instead ([`FromIterator`], [`Cut::join_all`]), which sorts
/// once.
///
/// ```
/// use vsgm_types::{Cut, ProcessId};
/// let p = ProcessId::new(1);
/// let mut c = Cut::default();
/// c.set(p, 4);
/// assert_eq!(c.get(p), 4);
/// assert_eq!(c.get(ProcessId::new(9)), 0);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Cut {
    /// Explicit entries with strictly increasing pids; `None` when there
    /// are none, so every empty cut is the same value.
    entries: Option<Arc<[(ProcessId, MsgIndex)]>>,
}

impl Cut {
    /// Creates an empty cut (everything 0).
    pub fn new() -> Self {
        Cut::default()
    }

    /// A cut of `entries`, which must have strictly increasing pids.
    fn from_sorted(entries: impl ExactSizeIterator<Item = (ProcessId, MsgIndex)>) -> Self {
        match entries.len() {
            0 => Cut::default(),
            _ => Cut { entries: Some(entries.collect()) },
        }
    }

    fn as_slice(&self) -> &[(ProcessId, MsgIndex)] {
        self.entries.as_deref().unwrap_or_default()
    }

    /// The explicit entry for `q`, if any.
    fn entry(&self, q: ProcessId) -> Option<MsgIndex> {
        let entries = self.as_slice();
        let k = entries.binary_search_by_key(&q, |(p, _)| *p).ok()?;
        entries.get(k).map(|(_, i)| *i)
    }

    /// The committed index for `q` (0 if absent).
    pub fn get(&self, q: ProcessId) -> MsgIndex {
        self.entry(q).unwrap_or(0)
    }

    /// Sets the committed index for `q`: a copy of the cut with the entry
    /// replaced or inserted, unless it already reads `index`.
    pub fn set(&mut self, q: ProcessId, index: MsgIndex) {
        if self.entry(q) != Some(index) {
            *self = self.iter().chain([(q, index)]).collect();
        }
    }

    /// Number of explicit entries.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the cut has no explicit entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_none()
    }

    /// Iterates over the explicit `(process, index)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, MsgIndex)> + '_ {
        self.as_slice().iter().copied()
    }

    /// Pointwise maximum with another cut, in place. Used to compute
    /// `max_{r∈T} sync_msg[r].cut(q)` — the agreed delivery set over the
    /// transitional set `T` (Fig. 10, `view` precondition).
    pub fn join(&mut self, other: &Cut) {
        *self = Cut::join_all([&*self, other]);
    }

    /// Pointwise maximum over any number of cuts, built once.
    ///
    /// ```
    /// use vsgm_types::{Cut, ProcessId};
    /// let p = ProcessId::new(1);
    /// let a = Cut::from_iter([(p, 3)]);
    /// let b = Cut::from_iter([(p, 5)]);
    /// assert_eq!(Cut::join_all([&a, &b]).get(p), 5);
    /// ```
    pub fn join_all<'a>(cuts: impl IntoIterator<Item = &'a Cut>) -> Cut {
        let mut pairs: Vec<(ProcessId, MsgIndex)> =
            cuts.into_iter().flat_map(|c| c.iter()).collect();
        // Ascending, so of one pid's entries the last, which `collect`
        // keeps, is the largest.
        pairs.sort_unstable();
        pairs.into_iter().collect()
    }

    /// Whether this cut is pointwise ≤ `other` (over the union of keys).
    pub fn dominated_by(&self, other: &Cut) -> bool {
        self.iter().all(|(p, i)| i <= other.get(p))
    }
}

impl FromIterator<(ProcessId, MsgIndex)> for Cut {
    /// Collects in any order; of repeated pids the last index wins.
    fn from_iter<T: IntoIterator<Item = (ProcessId, MsgIndex)>>(iter: T) -> Self {
        let entries: VecMap<ProcessId, MsgIndex> = iter.into_iter().collect();
        Cut::from_sorted(entries.into_iter())
    }
}

impl Extend<(ProcessId, MsgIndex)> for Cut {
    /// Of repeated pids the last index wins; the new cut is built once.
    fn extend<T: IntoIterator<Item = (ProcessId, MsgIndex)>>(&mut self, iter: T) {
        *self = self.iter().chain(iter).collect();
    }
}

impl fmt::Debug for Cut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cut{{")?;
        for (i, (p, idx)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}:{idx}")?;
        }
        write!(f, "}}")
    }
}

/// A cut's serialized form: `{"indices":{"<pid>":<index>,…}}`.
#[derive(Serialize, Deserialize)]
struct CutJson {
    indices: VecMap<ProcessId, MsgIndex>,
}

impl Serialize for Cut {
    fn to_value(&self) -> Value {
        CutJson { indices: self.iter().collect() }.to_value()
    }
}

impl Deserialize for Cut {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let CutJson { indices } = CutJson::from_value(v)?;
        Ok(Cut::from_sorted(indices.into_iter()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn get_defaults_to_zero() {
        let c = Cut::new();
        assert_eq!(c.get(p(1)), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn set_then_get() {
        let mut c = Cut::new();
        c.set(p(1), 7);
        assert_eq!(c.get(p(1)), 7);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut a = Cut::from_iter([(p(1), 3), (p(2), 9)]);
        let b = Cut::from_iter([(p(1), 5), (p(3), 1)]);
        a.join(&b);
        assert_eq!(a.get(p(1)), 5);
        assert_eq!(a.get(p(2)), 9);
        assert_eq!(a.get(p(3)), 1);
    }

    #[test]
    fn join_all_of_none_is_empty() {
        let c = Cut::join_all([]);
        assert!(c.is_empty());
    }

    #[test]
    fn dominated_by_checks_pointwise() {
        let a = Cut::from_iter([(p(1), 3)]);
        let b = Cut::from_iter([(p(1), 5), (p(2), 2)]);
        assert!(a.dominated_by(&b));
        assert!(!b.dominated_by(&a));
        // Equal cuts dominate each other.
        assert!(a.dominated_by(&a));
    }

    #[test]
    fn extend_and_collect() {
        let mut c: Cut = [(p(1), 1)].into_iter().collect();
        c.extend([(p(2), 2)]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn debug_format() {
        let c = Cut::from_iter([(p(1), 4)]);
        assert_eq!(format!("{c:?}"), "Cut{p1:4}");
    }

    #[test]
    fn serde_roundtrip() {
        let c = Cut::from_iter([(p(1), 4), (p(8), 0)]);
        let s = serde_json::to_string(&c).unwrap();
        assert_eq!(serde_json::from_str::<Cut>(&s).unwrap(), c);
    }

    /// The text and JSON forms of the `VecMap`-backed cut this one
    /// replaced, byte for byte.
    #[test]
    fn debug_and_json_literals_are_the_vec_map_cuts() {
        let c = Cut::from_iter([(p(8), 0), (p(1), 4)]);
        assert_eq!(format!("{c:?}"), "Cut{p1:4,p8:0}");
        assert_eq!(serde_json::to_string(&c).unwrap(), r#"{"indices":{"1":4,"8":0}}"#);
        assert_eq!(format!("{:?}", Cut::new()), "Cut{}");
        assert_eq!(serde_json::to_string(&Cut::new()).unwrap(), r#"{"indices":{}}"#);
    }

    #[test]
    fn a_set_on_a_clone_leaves_the_original_unchanged() {
        let original = Cut::from_iter([(p(1), 3), (p(2), 5)]);
        let mut copy = original.clone();
        copy.set(p(1), 9);
        copy.set(p(4), 1);
        copy.join(&Cut::from_iter([(p(2), 7)]));
        copy.extend([(p(6), 2)]);
        assert_eq!(format!("{original:?}"), "Cut{p1:3,p2:5}");
        assert_eq!(format!("{copy:?}"), "Cut{p1:9,p2:7,p4:1,p6:2}");
    }

    #[test]
    fn an_empty_cut_is_equal_however_it_was_built() {
        let mut extended = Cut::new();
        extended.extend([]);
        let mut joined = Cut::new();
        joined.join(&Cut::new());
        let empties = [
            Cut::new(),
            Cut::default(),
            Cut::from_iter([]),
            Cut::join_all([]),
            Cut::join_all([&Cut::new(), &Cut::new()]),
            extended,
            joined,
            serde_json::from_str(r#"{"indices":{}}"#).unwrap(),
        ];
        for c in &empties {
            assert_eq!(c, &Cut::new());
            assert!(c.is_empty() && c.len() == 0 && c.entries.is_none(), "{c:?} allocates");
        }
    }

    type Model = VecMap<ProcessId, MsgIndex>;

    #[derive(Debug, Clone)]
    enum Op {
        Get(u64),
        Set(u64, MsgIndex),
        Join(Vec<(u64, MsgIndex)>),
        JoinAll(Vec<Vec<(u64, MsgIndex)>>),
        DominatedBy(Vec<(u64, MsgIndex)>),
        Extend(Vec<(u64, MsgIndex)>),
        FromIter(Vec<(u64, MsgIndex)>),
    }

    fn entries() -> impl Strategy<Value = Vec<(u64, MsgIndex)>> {
        proptest::collection::vec((0u64..12, 0u64..6), 0..6)
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..12).prop_map(Op::Get),
            (0u64..12, 0u64..6).prop_map(|(q, i)| Op::Set(q, i)),
            entries().prop_map(Op::Join),
            proptest::collection::vec(entries(), 0..4).prop_map(Op::JoinAll),
            entries().prop_map(Op::DominatedBy),
            entries().prop_map(Op::Extend),
            entries().prop_map(Op::FromIter),
        ]
    }

    fn pids(items: &[(u64, MsgIndex)]) -> impl Iterator<Item = (ProcessId, MsgIndex)> + '_ {
        items.iter().map(|(q, i)| (p(*q), *i))
    }

    /// `max` into `model` entry by entry, as the `VecMap` cut joined.
    fn join_model(model: &mut Model, other: &Model) {
        for (q, i) in other {
            let e = model.entry(*q).or_insert(0);
            *e = (*e).max(*i);
        }
    }

    /// The `VecMap`-backed cut's `Debug` text.
    fn model_debug(model: &Model) -> String {
        let entries: Vec<String> = model.iter().map(|(q, i)| format!("{q}:{i}")).collect();
        format!("Cut{{{}}}", entries.join(","))
    }

    proptest! {
        /// Every call answers as the `VecMap`-backed cut did and leaves
        /// the same entries, `Debug` text and JSON; the JSON reads back
        /// to the same cut, and a clone taken before the call keeps
        /// what it held.
        #[test]
        fn behaves_like_a_vec_map_cut(ops in proptest::collection::vec(op(), 0..40)) {
            let mut cut = Cut::new();
            let mut model = Model::new();
            for op in ops {
                let (before, before_model) = (cut.clone(), model.clone());
                match op {
                    Op::Get(q) => {
                        prop_assert_eq!(cut.get(p(q)), model.get(&p(q)).copied().unwrap_or(0));
                    }
                    Op::Set(q, i) => {
                        cut.set(p(q), i);
                        model.insert(p(q), i);
                    }
                    Op::Join(items) => {
                        cut.join(&pids(&items).collect());
                        join_model(&mut model, &pids(&items).collect());
                    }
                    Op::JoinAll(lists) => {
                        let cuts: Vec<Cut> = lists.iter().map(|l| pids(l).collect()).collect();
                        cut = Cut::join_all(std::iter::once(&cut).chain(&cuts));
                        for l in &lists {
                            join_model(&mut model, &pids(l).collect());
                        }
                    }
                    Op::DominatedBy(items) => {
                        let other: Model = pids(&items).collect();
                        let expected = model
                            .iter()
                            .all(|(q, i)| *i <= other.get(q).copied().unwrap_or(0));
                        prop_assert_eq!(cut.dominated_by(&pids(&items).collect()), expected);
                    }
                    Op::Extend(items) => {
                        cut.extend(pids(&items));
                        model.extend(pids(&items));
                    }
                    Op::FromIter(items) => {
                        cut = pids(&items).collect();
                        model = pids(&items).collect();
                    }
                }
                prop_assert_eq!(cut.len(), model.len());
                prop_assert!(cut.iter().eq(model.iter().map(|(q, i)| (*q, *i))));
                prop_assert_eq!(format!("{cut:?}"), model_debug(&model));
                let json = serde_json::to_string(&cut).unwrap();
                prop_assert_eq!(
                    &json,
                    &format!(r#"{{"indices":{}}}"#, serde_json::to_string(&model).unwrap())
                );
                prop_assert_eq!(serde_json::from_str::<Cut>(&json).unwrap(), cut.clone());
                prop_assert!(before.iter().eq(before_model.iter().map(|(q, i)| (*q, *i))));
            }
        }
    }
}
