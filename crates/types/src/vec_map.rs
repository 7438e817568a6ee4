//! A map kept as one sorted vector, for state bounded by the group.

use serde::{Deserialize, Error, Serialize, Value};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// An ordered map stored as a vector of `(key, value)` pairs with strictly
/// increasing keys, looked up by binary search.
///
/// A `BTreeMap` allocates a leaf of eleven slots for its first entry, so
/// a map holding one entry per member of a group of four pays for eleven;
/// this map pays for what it holds (rounded up to the vector's growth).
/// Insertion and removal shift the tail, which is cheap at the sizes the
/// group bounds — use it where the number of keys follows the group's
/// membership, and a `BTreeMap` where it follows traffic or history.
///
/// It offers the part of the `BTreeMap` interface this workspace uses,
/// with the same semantics: iteration in key order, `Debug` as a map
/// (`{k: v, ..}`) and serialization as a map object, so its text and JSON
/// forms are byte-identical to a `BTreeMap` holding the same entries.
///
/// ```
/// use vsgm_types::VecMap;
/// let mut m = VecMap::new();
/// m.insert(3, "c");
/// m.insert(1, "a");
/// *m.entry(2).or_insert("") = "b";
/// assert_eq!(m.keys().copied().collect::<Vec<_>>(), [1, 2, 3]);
/// assert_eq!(format!("{m:?}"), r#"{1: "a", 2: "b", 3: "c"}"#);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

/// Iterator over `(&key, &value)` in key order.
pub type Iter<'a, K, V> =
    std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> (&'a K, &'a V)>;

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap { entries: Vec::new() }
    }
}

impl<K, V> VecMap<K, V> {
    /// An empty map; allocates nothing.
    pub const fn new() -> Self {
        VecMap { entries: Vec::new() }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// The entries as one slice in key order, so runs of neighbouring
    /// keys can be walked with the slice's own tools (`chunk_by`).
    pub fn as_slice(&self) -> &[(K, V)] {
        &self.entries
    }

    /// The value whose key `cmp` answers `Equal` for. `cmp` orders a key
    /// against the one sought and must agree with the key order. It looks
    /// up by a borrowed form of the key that `Borrow` cannot express — a
    /// tuple holding a reference — without building an owned key.
    pub fn get_by(&self, mut cmp: impl FnMut(&K) -> Ordering) -> Option<&V> {
        let i = self.entries.binary_search_by(|(k, _)| cmp(k)).ok()?;
        self.entries.get(i).map(|(_, v)| v)
    }

    /// Keys in order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &K> + ExactSizeIterator {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in key order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &V> + ExactSizeIterator {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Mutable values in key order.
    pub fn values_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut V> + ExactSizeIterator {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Removes every entry, keeping the allocation for the next ones.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Keeps the entries for which `keep` returns `true`, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }
}

impl<K: Ord, V> VecMap<K, V> {
    /// `Ok(position)` of `key`, or `Err(position)` where it would go.
    fn find<Q>(&self, key: &Q) -> Result<usize, usize>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.entries.binary_search_by(|(k, _)| k.borrow().cmp(key))
    }

    /// The value for `key`, if present.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let i = self.find(key).ok()?;
        self.entries.get(i).map(|(_, v)| v)
    }

    /// The value for `key`, mutably, if present.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let i = self.find(key).ok()?;
        self.entries.get_mut(i).map(|(_, v)| v)
    }

    /// Whether `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.find(key).is_ok()
    }

    /// Inserts `value` at `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => self.entries.get_mut(i).map(|(_, v)| std::mem::replace(v, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let i = self.find(key).ok()?;
        Some(self.entries.remove(i).1)
    }

    /// The entry for `key`, for in-place insertion or update.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        let at = self.find(&key);
        Entry { entries: &mut self.entries, key, at }
    }
}

/// A view into one key's slot of a [`VecMap`], from [`VecMap::entry`].
pub struct Entry<'a, K, V> {
    entries: &'a mut Vec<(K, V)>,
    key: K,
    at: Result<usize, usize>,
}

impl<'a, K, V> Entry<'a, K, V> {
    /// The value, inserting `default()` first if the key is absent.
    pub fn or_insert_with(self, default: impl FnOnce() -> V) -> &'a mut V {
        let i = match self.at {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (self.key, default()));
                i
            }
        };
        &mut self.entries.get_mut(i).expect("the entry's position was found or just filled").1
    }

    /// The value, inserting `default` first if the key is absent.
    pub fn or_insert(self, default: V) -> &'a mut V {
        self.or_insert_with(|| default)
    }

    /// The value, inserting `V::default()` first if the key is absent.
    pub fn or_default(self) -> &'a mut V
    where
        V: Default,
    {
        self.or_insert_with(V::default)
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for VecMap<K, V> {
    /// Collects in any order; of repeated keys the last value wins, as in
    /// `BTreeMap`.
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut entries: Vec<(K, V)> = iter.into_iter().collect();
        // Stable, so equal keys keep their order and the last one is kept.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        VecMap { entries }
    }
}

impl<K: Ord, V> Extend<(K, V)> for VecMap<K, V> {
    fn extend<T: IntoIterator<Item = (K, V)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<K, V> IntoIterator for VecMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a, K, V> IntoIterator for &'a VecMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for VecMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Serialize, V: Serialize> Serialize for VecMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| {
                    let key = serde::__key_to_string(&k.to_value())
                        .expect("unsupported map key type for serialization");
                    (key, v.to_value())
                })
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for VecMap<K, V> {
    /// Reads as a `BTreeMap` does, repeated keys included.
    fn from_value(v: &Value) -> Result<Self, Error> {
        BTreeMap::from_value(v).map(|m: BTreeMap<K, V>| m.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u8, u16),
        Remove(u8),
        Entry(u8, u16),
        Retain(u8),
        Extend(Vec<(u8, u16)>),
        Get(u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..24, any::<u16>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u8..24).prop_map(Op::Remove),
            (0u8..24, any::<u16>()).prop_map(|(k, v)| Op::Entry(k, v)),
            (1u8..5).prop_map(Op::Retain),
            proptest::collection::vec((0u8..24, any::<u16>()), 0..6).prop_map(Op::Extend),
            (0u8..24).prop_map(Op::Get),
        ]
    }

    proptest! {
        /// Every operation leaves the two maps with the same contents in
        /// the same order, the same `Debug` text and the same JSON, and
        /// returns the same answer.
        #[test]
        fn behaves_like_a_btree_map(ops in proptest::collection::vec(op(), 0..60)) {
            let mut model: BTreeMap<u8, u16> = BTreeMap::new();
            let mut map: VecMap<u8, u16> = VecMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => prop_assert_eq!(map.insert(k, v), model.insert(k, v)),
                    Op::Remove(k) => prop_assert_eq!(map.remove(&k), model.remove(&k)),
                    Op::Entry(k, v) => {
                        let bump = |x: &mut u16| *x = x.wrapping_add(1);
                        bump(map.entry(k).or_insert(v));
                        bump(model.entry(k).or_insert(v));
                        bump(map.entry(k.wrapping_add(1)).or_default());
                        bump(model.entry(k.wrapping_add(1)).or_default());
                    }
                    Op::Retain(d) => {
                        let keep = |k: &u8, v: &mut u16| (*k as u16).wrapping_add(*v) % d as u16 != 0;
                        map.retain(keep);
                        model.retain(keep);
                    }
                    Op::Extend(items) => {
                        map.extend(items.clone());
                        model.extend(items);
                    }
                    Op::Get(k) => {
                        prop_assert_eq!(map.get(&k), model.get(&k));
                        prop_assert_eq!(map.get_by(|x| x.cmp(&k)), model.get(&k));
                        prop_assert_eq!(map.contains_key(&k), model.contains_key(&k));
                    }
                }
                prop_assert_eq!(map.len(), model.len());
                prop_assert!(map.iter().eq(model.iter()));
                prop_assert_eq!(format!("{map:?}"), format!("{model:?}"));
                prop_assert_eq!(
                    serde_json::to_string(&map).unwrap(),
                    serde_json::to_string(&model).unwrap()
                );
            }
        }

        /// Collecting keeps the last of repeated keys, as `BTreeMap` does,
        /// and JSON reads back to the same map.
        #[test]
        fn collects_and_reads_back_like_a_btree_map(
            items in proptest::collection::vec((0u8..12, any::<u16>()), 0..30)
        ) {
            let map: VecMap<u8, u16> = items.iter().copied().collect();
            let model: BTreeMap<u8, u16> = items.into_iter().collect();
            prop_assert!(map.iter().eq(model.iter()));
            let json = serde_json::to_string(&map).unwrap();
            prop_assert_eq!(serde_json::from_str::<VecMap<u8, u16>>(&json).unwrap(), map);
        }
    }

    #[test]
    fn index_and_values_mut() {
        let mut m: VecMap<&str, u32> = [("b", 2), ("a", 1)].into_iter().collect();
        for v in m.values_mut() {
            *v *= 10;
        }
        assert_eq!((m.get("a"), m.get("b")), (Some(&10), Some(&20)));
        assert_eq!(m.into_iter().collect::<Vec<_>>(), [("a", 10), ("b", 20)]);
    }
}
