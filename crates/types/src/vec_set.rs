//! A set kept as one sorted vector, for sets of processes the group bounds.

use serde::{Deserialize, Error, Serialize, Value};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::Peekable;

/// An ordered set stored as a vector of strictly increasing elements,
/// looked up by binary search — the set twin of [`VecMap`](crate::VecMap).
///
/// A `BTreeSet` allocates a leaf of eleven slots for its first element, so
/// a set of the four members of a group pays for eleven; this set pays for
/// what it holds. Insertion and removal shift the tail, which is cheap at
/// the sizes a group bounds. Collecting and extending sort once, so a set
/// built from `n` elements costs `O(n log n)` whatever their order.
///
/// It offers the part of the `BTreeSet` interface this workspace uses, with
/// the same semantics: iteration in order, `Debug` as a set (`{a, b}`),
/// serialization as an array, and `Eq`, `Ord` and `Hash` over the elements
/// in order, so its text and JSON forms are byte-identical to a `BTreeSet`
/// holding the same elements.
///
/// ```
/// use vsgm_types::VecSet;
/// let mut s: VecSet<u32> = [3, 1, 3].into_iter().collect();
/// s.insert(2);
/// assert_eq!(s.iter().copied().collect::<Vec<_>>(), [1, 2, 3]);
/// assert_eq!(format!("{s:?}"), "{1, 2, 3}");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct VecSet<T> {
    items: Vec<T>,
}

impl<T> Default for VecSet<T> {
    fn default() -> Self {
        VecSet { items: Vec::new() }
    }
}

impl<T> VecSet<T> {
    /// An empty set; allocates nothing.
    pub const fn new() -> Self {
        VecSet { items: Vec::new() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set holds no element.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Elements in order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// The smallest element.
    pub fn first(&self) -> Option<&T> {
        self.items.first()
    }

    /// The largest element.
    pub fn last(&self) -> Option<&T> {
        self.items.last()
    }

    /// Removes and returns the smallest element.
    pub fn pop_first(&mut self) -> Option<T> {
        (!self.items.is_empty()).then(|| self.items.remove(0))
    }

    /// Keeps the elements for which `keep` returns `true`, in order.
    pub fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        self.items.retain(keep);
    }
}

impl<T: Ord> VecSet<T> {
    /// `Ok(position)` of `value`, or `Err(position)` where it would go.
    fn find<Q>(&self, value: &Q) -> Result<usize, usize>
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.items.binary_search_by(|x| x.borrow().cmp(value))
    }

    /// Whether `value` is in the set.
    pub fn contains<Q>(&self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.find(value).is_ok()
    }

    /// Adds `value`; returns whether it was absent. An element already
    /// present is kept, as in `BTreeSet`.
    pub fn insert(&mut self, value: T) -> bool {
        match self.find(&value) {
            Ok(_) => false,
            Err(i) => {
                self.items.insert(i, value);
                true
            }
        }
    }

    /// Removes `value`; returns whether it was present.
    pub fn remove<Q>(&mut self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        match self.find(value) {
            Ok(i) => {
                self.items.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Elements of `self` or `other`, in order, each once.
    pub fn union<'a>(&'a self, other: &'a VecSet<T>) -> Union<'a, T> {
        Union { a: self.iter().peekable(), b: other.iter().peekable() }
    }

    /// Elements of both `self` and `other`, in order.
    pub fn intersection<'a>(&'a self, other: &'a VecSet<T>) -> impl Iterator<Item = &'a T> + 'a {
        self.iter().filter(move |x| other.contains(*x))
    }

    /// Elements of `self` not in `other`, in order.
    pub fn difference<'a>(&'a self, other: &'a VecSet<T>) -> impl Iterator<Item = &'a T> + 'a {
        self.iter().filter(move |x| !other.contains(*x))
    }

    /// Whether every element of `self` is in `other`.
    pub fn is_subset(&self, other: &VecSet<T>) -> bool {
        self.len() <= other.len() && self.iter().all(|x| other.contains(x))
    }

    /// Restores the strictly increasing order after elements were pushed
    /// unsorted; of equal elements the first is kept.
    fn normalize(&mut self) {
        self.items.sort();
        self.items.dedup();
    }
}

/// Iterator over the union of two [`VecSet`]s, from [`VecSet::union`]: a
/// merge of the two sorted vectors.
pub struct Union<'a, T> {
    a: Peekable<std::slice::Iter<'a, T>>,
    b: Peekable<std::slice::Iter<'a, T>>,
}

impl<'a, T: Ord> Iterator for Union<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        match (self.a.peek(), self.b.peek()) {
            (Some(x), Some(y)) => match x.cmp(y) {
                Ordering::Less => self.a.next(),
                Ordering::Greater => self.b.next(),
                Ordering::Equal => {
                    self.b.next();
                    self.a.next()
                }
            },
            (Some(_), None) => self.a.next(),
            (None, _) => self.b.next(),
        }
    }
}

impl<T: Ord> FromIterator<T> for VecSet<T> {
    /// Collects in any order with one sort; repeated elements are kept once.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = VecSet { items: iter.into_iter().collect() };
        set.normalize();
        set
    }
}

impl<T: Ord> Extend<T> for VecSet<T> {
    /// Appends, then sorts once: the run already in the set and the
    /// appended one are merged by the stable sort.
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let before = self.items.len();
        self.items.extend(iter);
        if self.items.len() > before {
            self.normalize();
        }
    }
}

impl<T: Ord, const N: usize> From<[T; N]> for VecSet<T> {
    fn from(items: [T; N]) -> Self {
        items.into_iter().collect()
    }
}

impl<T> IntoIterator for VecSet<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a, T> IntoIterator for &'a VecSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The length, then each element in order — what `BTreeSet` feeds a
/// hasher, so the two hash alike.
impl<T: Hash> Hash for VecSet<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.items.len());
        for x in &self.items {
            x.hash(state);
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for VecSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: Serialize> Serialize for VecSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for VecSet<T> {
    /// Reads an array as a `BTreeSet` does, in any order, repeats included.
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = v.as_array().ok_or_else(|| Error::expected("array", v))?;
        items.iter().map(T::from_value).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProcessId, StartChangeId, View, ViewId};
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::hash::DefaultHasher;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u8),
        Remove(u8),
        Contains(u8),
        Retain(u8),
        Extend(Vec<u8>),
        PopFirst,
        Ends,
        Against(Vec<u8>),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..24).prop_map(Op::Insert),
            (0u8..24).prop_map(Op::Remove),
            (0u8..24).prop_map(Op::Contains),
            (1u8..5).prop_map(Op::Retain),
            proptest::collection::vec(0u8..24, 0..6).prop_map(Op::Extend),
            Just(Op::PopFirst),
            Just(Op::Ends),
            proptest::collection::vec(0u8..24, 0..10).prop_map(Op::Against),
        ]
    }

    fn hash_of(x: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    proptest! {
        /// Every operation gives the same answer as on a `BTreeSet` and
        /// leaves the two sets with the same elements in the same order,
        /// the same `Debug` text, hash and JSON; the JSON reads back to
        /// the same set.
        #[test]
        fn behaves_like_a_btree_set(ops in proptest::collection::vec(op(), 0..60)) {
            let mut model: BTreeSet<u8> = BTreeSet::new();
            let mut set: VecSet<u8> = VecSet::new();
            for op in ops {
                match op {
                    Op::Insert(x) => prop_assert_eq!(set.insert(x), model.insert(x)),
                    Op::Remove(x) => prop_assert_eq!(set.remove(&x), model.remove(&x)),
                    Op::Contains(x) => prop_assert_eq!(set.contains(&x), model.contains(&x)),
                    Op::Retain(d) => {
                        let keep = |x: &u8| x % d != 0;
                        set.retain(keep);
                        model.retain(keep);
                    }
                    Op::Extend(items) => {
                        set.extend(items.iter().copied());
                        model.extend(items);
                    }
                    Op::PopFirst => prop_assert_eq!(set.pop_first(), model.pop_first()),
                    Op::Ends => {
                        prop_assert_eq!(set.first(), model.first());
                        prop_assert_eq!(set.last(), model.last());
                    }
                    Op::Against(items) => {
                        let other: VecSet<u8> = items.iter().copied().collect();
                        let other_model: BTreeSet<u8> = items.into_iter().collect();
                        prop_assert!(other.iter().eq(other_model.iter()));
                        prop_assert!(set.union(&other).eq(model.union(&other_model)));
                        prop_assert!(set.intersection(&other).eq(model.intersection(&other_model)));
                        prop_assert!(set.difference(&other).eq(model.difference(&other_model)));
                        prop_assert!(other.difference(&set).eq(other_model.difference(&model)));
                        prop_assert_eq!(set.is_subset(&other), model.is_subset(&other_model));
                        prop_assert_eq!(other.is_subset(&set), other_model.is_subset(&model));
                        prop_assert_eq!(set.cmp(&other), model.cmp(&other_model));
                    }
                }
                prop_assert_eq!(set.len(), model.len());
                prop_assert!(set.iter().eq(model.iter()));
                prop_assert_eq!(format!("{set:?}"), format!("{model:?}"));
                prop_assert_eq!(hash_of(&set), hash_of(&model));
                let json = serde_json::to_string(&set).unwrap();
                prop_assert_eq!(&json, &serde_json::to_string(&model).unwrap());
                prop_assert_eq!(serde_json::from_str::<VecSet<u8>>(&json).unwrap(), set.clone());
            }
        }
    }

    /// A view built from shuffled, repeated members and start ids reads as
    /// it did when its sets were B-trees, in `Debug` and in JSON.
    #[test]
    fn a_view_reads_as_it_did_with_btree_sets() {
        let p = ProcessId::new;
        let v = View::new(
            ViewId::new(7, 2),
            [p(9), p(2), p(5), p(2), p(9)],
            [
                (p(5), StartChangeId::new(1)),
                (p(9), StartChangeId::new(3)),
                (p(2), StartChangeId::new(8)),
                (p(9), StartChangeId::new(4)),
            ],
        );
        assert_eq!(format!("{v:?}"), "View(v7.2, {p2:c8,p5:c1,p9:c4})");
        assert_eq!(format!("{:?}", v.members()), "{ProcessId(2), ProcessId(5), ProcessId(9)}");
        assert_eq!(
            format!("{:?}", v.start_ids()),
            "{ProcessId(2): StartChangeId(8), ProcessId(5): StartChangeId(1), \
             ProcessId(9): StartChangeId(4)}"
        );
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(
            json,
            r#"{"inner":{"id":{"epoch":7,"proposer":2},"members":[2,5,9],"start_ids":{"2":8,"5":1,"9":4}}}"#
        );
        assert_eq!(serde_json::from_str::<View>(&json).unwrap(), v);
    }
}
