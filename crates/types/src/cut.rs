//! Delivery cuts: per-sender committed message indices (§4.1.2, §5.2).

use crate::ids::ProcessId;
use crate::message::MsgIndex;
use crate::vec_map::VecMap;
use serde::{Deserialize, Serialize};
use std::fmt;

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
/// ```
/// use vsgm_types::{Cut, ProcessId};
/// let p = ProcessId::new(1);
/// let mut c = Cut::default();
/// c.set(p, 4);
/// assert_eq!(c.get(p), 4);
/// assert_eq!(c.get(ProcessId::new(9)), 0);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cut {
    indices: VecMap<ProcessId, MsgIndex>,
}

impl Cut {
    /// Creates an empty cut (everything 0).
    pub fn new() -> Self {
        Cut::default()
    }

    /// The committed index for `q` (0 if absent).
    pub fn get(&self, q: ProcessId) -> MsgIndex {
        self.indices.get(&q).copied().unwrap_or(0)
    }

    /// Sets the committed index for `q`.
    pub fn set(&mut self, q: ProcessId, index: MsgIndex) {
        self.indices.insert(q, index);
    }

    /// Number of explicit entries.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the cut has no explicit entries.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterates over the explicit `(process, index)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, MsgIndex)> + '_ {
        self.indices.iter().map(|(p, i)| (*p, *i))
    }

    /// Pointwise maximum with another cut, in place. Used to compute
    /// `max_{r∈T} sync_msg[r].cut(q)` — the agreed delivery set over the
    /// transitional set `T` (Fig. 10, `view` precondition).
    pub fn join(&mut self, other: &Cut) {
        for (p, i) in other.iter() {
            let e = self.indices.entry(p).or_insert(0);
            *e = (*e).max(i);
        }
    }

    /// Pointwise maximum over any number of cuts.
    ///
    /// ```
    /// use vsgm_types::{Cut, ProcessId};
    /// let p = ProcessId::new(1);
    /// let a = Cut::from_iter([(p, 3)]);
    /// let b = Cut::from_iter([(p, 5)]);
    /// assert_eq!(Cut::join_all([&a, &b]).get(p), 5);
    /// ```
    pub fn join_all<'a>(cuts: impl IntoIterator<Item = &'a Cut>) -> Cut {
        let mut out = Cut::new();
        for c in cuts {
            out.join(c);
        }
        out
    }

    /// Whether this cut is pointwise ≤ `other` (over the union of keys).
    pub fn dominated_by(&self, other: &Cut) -> bool {
        self.iter().all(|(p, i)| i <= other.get(p))
    }
}

impl FromIterator<(ProcessId, MsgIndex)> for Cut {
    fn from_iter<T: IntoIterator<Item = (ProcessId, MsgIndex)>>(iter: T) -> Self {
        Cut { indices: iter.into_iter().collect() }
    }
}

impl Extend<(ProcessId, MsgIndex)> for Cut {
    fn extend<T: IntoIterator<Item = (ProcessId, MsgIndex)>>(&mut self, iter: T) {
        self.indices.extend(iter);
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
