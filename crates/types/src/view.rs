//! Membership views (Fig. 2: `Type View: ViewId × SetOf(Proc) × (Proc → StartChangeId)`).

use crate::ids::{ProcessId, StartChangeId, ViewId};
use crate::{ProcSet, VecMap};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A membership view: the triple `⟨id, set, startId⟩` delivered by the
/// membership service (Fig. 2).
///
/// * `id` — an increasing view identifier.
/// * `set` — the processes believed alive and mutually connected.
/// * `startId` — maps each member to the identifier of the **last**
///   `start_change` it received before receiving this view. This map is
///   what lets the virtual-synchrony algorithm pick the right
///   synchronization message from each peer without any globally
///   pre-agreed tag (§5.2).
///
/// Per the paper, *"two views are considered to be the same if they consist
/// of identical triples"* — `PartialEq`/`Hash` compare all three
/// components.
///
/// Views are internally reference-counted ([`Arc`]); cloning is cheap, so
/// they can be freely embedded in wire messages and per-sender bookkeeping.
///
/// ```
/// use vsgm_types::{ProcessId, StartChangeId, View, ViewId};
///
/// let p = ProcessId::new(1);
/// let q = ProcessId::new(2);
/// let v = View::new(
///     ViewId::new(1, 0),
///     [p, q],
///     [(p, StartChangeId::new(1)), (q, StartChangeId::new(4))],
/// );
/// assert!(v.contains(p));
/// assert_eq!(v.start_id(q), Some(StartChangeId::new(4)));
/// assert_eq!(v.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct View {
    inner: Arc<ViewInner>,
}

/// The order of the triples (id, then members, then start ids), without
/// the walk over both sets when the two share one allocation — the
/// shortcut `==` on an `Arc` already takes. Views are keys of per-view
/// maps that are searched with clones of the view they hold.
impl Ord for View {
    fn cmp(&self, other: &View) -> Ordering {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return Ordering::Equal;
        }
        self.inner.cmp(&other.inner)
    }
}

impl PartialOrd for View {
    fn partial_cmp(&self, other: &View) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
struct ViewInner {
    id: ViewId,
    members: ProcSet,
    start_ids: VecMap<ProcessId, StartChangeId>,
}

impl View {
    /// Creates a view from its three components.
    ///
    /// # Panics
    ///
    /// Panics if the key set of `start_ids` differs from `members`:
    /// Fig. 2 requires `startId` to be defined exactly on the view's
    /// member set.
    pub fn new(
        id: ViewId,
        members: impl IntoIterator<Item = ProcessId>,
        start_ids: impl IntoIterator<Item = (ProcessId, StartChangeId)>,
    ) -> Self {
        let members: ProcSet = members.into_iter().collect();
        let start_ids: VecMap<ProcessId, StartChangeId> = start_ids.into_iter().collect();
        assert!(
            members.iter().eq(start_ids.keys()),
            "startId map must be defined exactly on the member set \
             (members {members:?}, startId keys {:?})",
            start_ids.keys().collect::<Vec<_>>(),
        );
        View { inner: Arc::new(ViewInner { id, members, start_ids }) }
    }

    /// The default initial view of process `p`: `⟨vid₀, {p}, {p → cid₀}⟩`
    /// (Fig. 2, initial state).
    pub fn initial(p: ProcessId) -> Self {
        View::new(ViewId::ZERO, [p], [(p, StartChangeId::ZERO)])
    }

    /// The view identifier (`v.id`).
    pub fn id(&self) -> ViewId {
        self.inner.id
    }

    /// The member set (`v.set`).
    pub fn members(&self) -> &ProcSet {
        &self.inner.members
    }

    /// Whether `p ∈ v.set`.
    pub fn contains(&self, p: ProcessId) -> bool {
        self.inner.members.contains(&p)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.inner.members.len()
    }

    /// Whether the member set is empty (never true for well-formed views,
    /// which satisfy Self Inclusion at their recipient).
    pub fn is_empty(&self) -> bool {
        self.inner.members.is_empty()
    }

    /// `v.startId(p)`: the start-change identifier recorded for member `p`,
    /// or `None` if `p ∉ v.set`.
    pub fn start_id(&self, p: ProcessId) -> Option<StartChangeId> {
        self.inner.start_ids.get(&p).copied()
    }

    /// The full `startId` map.
    pub fn start_ids(&self) -> &VecMap<ProcessId, StartChangeId> {
        &self.inner.start_ids
    }

    /// Whether this is an initial (`vid₀`) view.
    pub fn is_initial(&self) -> bool {
        self.inner.id == ViewId::ZERO
    }

    /// Whether this view equals [`View::initial`]`(p)`, decided without
    /// building that view.
    pub fn is_initial_of(&self, p: ProcessId) -> bool {
        self.is_initial() && self.len() == 1 && self.start_id(p) == Some(StartChangeId::ZERO)
    }

    /// Paper equality: identical triples. (Same as `==`; provided for
    /// call-site readability where the distinction matters.)
    pub fn same_view(&self, other: &View) -> bool {
        self == other
    }

    /// Iterates over `self.set ∩ other.set`, the candidate transitional-set
    /// members when moving between the two views (§4.1.3).
    pub fn intersection<'a>(&'a self, other: &'a View) -> impl Iterator<Item = ProcessId> + 'a {
        self.inner.members.intersection(&other.inner.members).copied()
    }
}

impl fmt::Debug for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "View({}, {{", self.inner.id)?;
        for (i, m) in self.inner.members.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match self.inner.start_ids.get(m) {
                Some(cid) => write!(f, "{m}:{cid}")?,
                None => write!(f, "{m}:?")?,
            }
        }
        write!(f, "}})")
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn initial_view_shape() {
        let v = View::initial(p(3));
        assert_eq!(v.id(), ViewId::ZERO);
        assert_eq!(v.len(), 1);
        assert!(v.contains(p(3)));
        assert_eq!(v.start_id(p(3)), Some(StartChangeId::ZERO));
        assert!(v.is_initial());
        assert!(v.is_initial_of(p(3)) && !v.is_initial_of(p(4)));
        let pair =
            View::new(ViewId::ZERO, [p(3), p(4)], [p(3), p(4)].map(|q| (q, StartChangeId::ZERO)));
        let later = View::new(ViewId::ZERO, [p(3)], [(p(3), StartChangeId::new(1))]);
        assert!(!pair.is_initial_of(p(3)) && !later.is_initial_of(p(3)));
    }

    #[test]
    fn start_id_absent_for_non_member() {
        let v = View::initial(p(1));
        assert_eq!(v.start_id(p(2)), None);
    }

    #[test]
    #[should_panic(expected = "startId map must be defined exactly")]
    fn mismatched_start_ids_panic() {
        let _ = View::new(ViewId::new(1, 0), [p(1), p(2)], [(p(1), StartChangeId::ZERO)]);
    }

    #[test]
    fn equality_is_triple_equality() {
        let a = View::new(
            ViewId::new(1, 0),
            [p(1), p(2)],
            [(p(1), StartChangeId::new(1)), (p(2), StartChangeId::new(1))],
        );
        let b = View::new(
            ViewId::new(1, 0),
            [p(1), p(2)],
            [(p(1), StartChangeId::new(1)), (p(2), StartChangeId::new(1))],
        );
        // Same id and set but different startId map ⇒ different view.
        let c = View::new(
            ViewId::new(1, 0),
            [p(1), p(2)],
            [(p(1), StartChangeId::new(2)), (p(2), StartChangeId::new(1))],
        );
        assert_eq!(a, b);
        assert!(a.same_view(&b));
        assert_ne!(a, c);
        // The order agrees, whether or not the two share an allocation.
        assert_eq!((a.cmp(&a.clone()), a.cmp(&b)), (Ordering::Equal, Ordering::Equal));
        assert_eq!((a.cmp(&c), c.cmp(&b)), (Ordering::Less, Ordering::Greater));
    }

    #[test]
    fn intersection_lists_common_members() {
        let a = View::new(
            ViewId::new(1, 0),
            [p(1), p(2), p(3)],
            [(p(1), StartChangeId::ZERO), (p(2), StartChangeId::ZERO), (p(3), StartChangeId::ZERO)],
        );
        let b = View::new(
            ViewId::new(2, 0),
            [p(2), p(3), p(4)],
            [(p(2), StartChangeId::ZERO), (p(3), StartChangeId::ZERO), (p(4), StartChangeId::ZERO)],
        );
        let inter: Vec<_> = a.intersection(&b).collect();
        assert_eq!(inter, vec![p(2), p(3)]);
    }

    #[test]
    fn serde_roundtrip() {
        let v = View::new(
            ViewId::new(4, 1),
            [p(1), p(9)],
            [(p(1), StartChangeId::new(2)), (p(9), StartChangeId::new(5))],
        );
        let s = serde_json::to_string(&v).unwrap();
        let back: View = serde_json::from_str(&s).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn debug_format_is_informative() {
        let v = View::initial(p(7));
        let d = format!("{v:?}");
        assert!(d.contains("p7"), "{d}");
        assert!(d.contains("v0.0"), "{d}");
    }
}
