//! The idiomatic Scala multi-map (Figure 5's baseline).
//!
//! Scala's standard library offers a mutable `MultiMap` trait that hoists a
//! regular map of sets into a multi-map; the paper ports that program logic
//! to the immutable case. Two Scala-specific behaviours are reproduced:
//!
//! * **always-nested sets** — every key maps to a set, even singletons, but
//!   Scala's small immutable sets are *specialized* (`Set1..Set4` hold their
//!   elements as fields, no trie) which is why Scala's multi-map footprint
//!   turned out close to Clojure's (the paper's §4.4 Discussion: "Scala's
//!   hash-set does specialize singletons");
//! * **memoized hash codes** in both the outer map and overflow sets, giving
//!   Scala its negative-lookup advantage (Hypothesis 2).

use std::hash::Hash;

use hamt::{MemoHamtMap, MemoHamtSet};
use heapmodel::{Accounting, JvmArch, JvmFootprint, JvmSize, LayoutPolicy, RustFootprint};
use trie_common::iter::{MaybeIter, TuplesOf};
use trie_common::ops::{EditInPlace, MultiMapAlgebraOps, MultiMapMutOps, MultiMapOps, ValuesView};

/// An immutable Scala-style set: `Set1..Set4` field specializations with a
/// hash-trie overflow (`HashSet`) beyond four elements.
///
/// Mirroring Scala: `SetN - elem` yields `SetN-1`, while the trie overflow
/// never converts back to a field-specialized `SetN`.
#[derive(Debug)]
pub enum ScalaSet<V> {
    /// One element, stored as a field.
    S1(V),
    /// Two elements.
    S2(V, V),
    /// Three elements.
    S3(V, V, V),
    /// Four elements.
    S4(V, V, V, V),
    /// Five or more elements (or shrunk trie): a hash-trie set.
    Trie(MemoHamtSet<V>),
}

impl<V: Clone> Clone for ScalaSet<V> {
    fn clone(&self) -> Self {
        match self {
            ScalaSet::S1(a) => ScalaSet::S1(a.clone()),
            ScalaSet::S2(a, b) => ScalaSet::S2(a.clone(), b.clone()),
            ScalaSet::S3(a, b, c) => ScalaSet::S3(a.clone(), b.clone(), c.clone()),
            ScalaSet::S4(a, b, c, d) => ScalaSet::S4(a.clone(), b.clone(), c.clone(), d.clone()),
            ScalaSet::Trie(s) => ScalaSet::Trie(s.clone()),
        }
    }
}

impl<V: Clone + Eq + Hash> PartialEq for ScalaSet<V> {
    fn eq(&self, other: &Self) -> bool {
        // Set semantics: same elements regardless of representation or order.
        if self.len() != other.len() {
            return false;
        }
        let mut equal = true;
        self.for_each(&mut |v| equal = equal && other.contains(v));
        equal
    }
}

impl<V> ScalaSet<V> {
    /// Iterates the set's elements in unspecified order.
    pub fn iter(&self) -> ScalaSetIter<'_, V> {
        match self {
            ScalaSet::S1(a) => ScalaSetIter::small([Some(a), None, None, None]),
            ScalaSet::S2(a, b) => ScalaSetIter::small([Some(a), Some(b), None, None]),
            ScalaSet::S3(a, b, c) => ScalaSetIter::small([Some(a), Some(b), Some(c), None]),
            ScalaSet::S4(a, b, c, d) => ScalaSetIter::small([Some(a), Some(b), Some(c), Some(d)]),
            ScalaSet::Trie(s) => ScalaSetIter::Trie(s.iter()),
        }
    }
}

impl<'a, V: Clone + Eq + Hash> ValuesView<'a, V> for &'a ScalaSet<V> {
    type Iter = ScalaSetIter<'a, V>;

    fn len(&self) -> usize {
        ScalaSet::len(self)
    }

    fn contains(&self, value: &V) -> bool {
        ScalaSet::contains(self, value)
    }

    fn iter(&self) -> ScalaSetIter<'a, V> {
        ScalaSet::iter(self)
    }
}

impl<'a, V> IntoIterator for &'a ScalaSet<V> {
    type Item = &'a V;
    type IntoIter = ScalaSetIter<'a, V>;
    fn into_iter(self) -> ScalaSetIter<'a, V> {
        self.iter()
    }
}

/// Iterator over a [`ScalaSet`]'s elements. Created by [`ScalaSet::iter`].
#[derive(Debug)]
pub enum ScalaSetIter<'a, V> {
    /// Iterating the fields of a `Set1..Set4` specialization.
    Small {
        /// The (up to four) borrowed elements.
        items: [Option<&'a V>; 4],
        /// Next field to yield.
        idx: usize,
    },
    /// Iterating the hash-trie overflow set.
    Trie(hamt::set::MemoIter<'a, V>),
}

impl<'a, V> ScalaSetIter<'a, V> {
    fn small(items: [Option<&'a V>; 4]) -> Self {
        ScalaSetIter::Small { items, idx: 0 }
    }
}

impl<'a, V> Iterator for ScalaSetIter<'a, V> {
    type Item = &'a V;
    fn next(&mut self) -> Option<&'a V> {
        match self {
            ScalaSetIter::Small { items, idx } => {
                let out = items.get(*idx).copied().flatten();
                *idx += 1;
                out
            }
            ScalaSetIter::Trie(it) => it.next(),
        }
    }
}

impl<V: Clone + Eq + Hash> ScalaSet<V> {
    fn single(v: V) -> Self {
        ScalaSet::S1(v)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            ScalaSet::S1(..) => 1,
            ScalaSet::S2(..) => 2,
            ScalaSet::S3(..) => 3,
            ScalaSet::S4(..) => 4,
            ScalaSet::Trie(s) => s.len(),
        }
    }

    /// True if no element is stored (only possible for an empty trie).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    pub fn contains(&self, value: &V) -> bool {
        match self {
            ScalaSet::S1(a) => a == value,
            ScalaSet::S2(a, b) => a == value || b == value,
            ScalaSet::S3(a, b, c) => a == value || b == value || c == value,
            ScalaSet::S4(a, b, c, d) => a == value || b == value || c == value || d == value,
            ScalaSet::Trie(s) => s.contains(value),
        }
    }

    /// Returns the set with `value` added, or `None` if present.
    fn inserted(&self, value: &V) -> Option<ScalaSet<V>> {
        if let ScalaSet::Trie(s) = self {
            // One value hash: a present value leaves the trie as it was.
            let grown = s.inserted(value.clone());
            return (grown.len() > s.len()).then_some(ScalaSet::Trie(grown));
        }
        if self.contains(value) {
            return None;
        }
        Some(match self {
            ScalaSet::S1(a) => ScalaSet::S2(a.clone(), value.clone()),
            ScalaSet::S2(a, b) => ScalaSet::S3(a.clone(), b.clone(), value.clone()),
            ScalaSet::S3(a, b, c) => ScalaSet::S4(a.clone(), b.clone(), c.clone(), value.clone()),
            ScalaSet::S4(a, b, c, d) => {
                // Set4 + elem overflows into HashSet.
                let s: MemoHamtSet<V> = [a, b, c, d]
                    .into_iter()
                    .cloned()
                    .chain(std::iter::once(value.clone()))
                    .collect();
                ScalaSet::Trie(s)
            }
            ScalaSet::Trie(s) => ScalaSet::Trie(s.inserted(value.clone())),
        })
    }

    /// Returns the set without `value`; `None` if absent; `Some(None)` if it
    /// became empty.
    #[allow(clippy::option_option)]
    fn removed(&self, value: &V) -> Option<Option<ScalaSet<V>>> {
        if let ScalaSet::Trie(s) = self {
            // One value hash: an absent value leaves the trie as it was.
            // Faithful to Scala, the trie does not demote to `SetN`.
            let shrunk = s.removed(value);
            return (shrunk.len() < s.len())
                .then(|| (!shrunk.is_empty()).then_some(ScalaSet::Trie(shrunk)));
        }
        if !self.contains(value) {
            return None;
        }
        let keep =
            |vs: Vec<&V>| -> Vec<V> { vs.into_iter().filter(|v| *v != value).cloned().collect() };
        Some(match self {
            ScalaSet::S1(_) => None,
            ScalaSet::S2(a, b) => {
                let r = keep(vec![a, b]);
                Some(ScalaSet::S1(r[0].clone()))
            }
            ScalaSet::S3(a, b, c) => {
                let r = keep(vec![a, b, c]);
                Some(ScalaSet::S2(r[0].clone(), r[1].clone()))
            }
            ScalaSet::S4(a, b, c, d) => {
                let r = keep(vec![a, b, c, d]);
                Some(ScalaSet::S3(r[0].clone(), r[1].clone(), r[2].clone()))
            }
            ScalaSet::Trie(s) => Some(ScalaSet::Trie(s.removed(value))),
        })
    }

    /// Invokes `f` for every element.
    pub fn for_each(&self, f: &mut dyn FnMut(&V)) {
        for v in self.iter() {
            f(v);
        }
    }
}

/// A persistent multi-map in the idiomatic Scala style: a hash-memoizing map
/// whose values are always [`ScalaSet`]s.
///
/// # Examples
///
/// ```
/// use idiomatic::ScalaMultiMap;
/// use trie_common::ops::MultiMapOps;
///
/// let mm = ScalaMultiMap::<u32, u32>::empty().inserted(1, 10).inserted(1, 11);
/// assert_eq!(mm.value_count(&1), 2);
/// ```
pub struct ScalaMultiMap<K, V> {
    map: MemoHamtMap<K, ScalaSet<V>>,
    tuples: usize,
}

impl<K, V> Clone for ScalaMultiMap<K, V> {
    fn clone(&self) -> Self {
        ScalaMultiMap {
            map: self.map.clone(),
            tuples: self.tuples,
        }
    }
}

impl<K, V> std::fmt::Debug for ScalaMultiMap<K, V>
where
    K: std::fmt::Debug + Clone + Eq + Hash,
    V: std::fmt::Debug + Clone + Eq + Hash,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.map.iter()).finish()
    }
}

impl<K, V> ScalaMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    /// Creates an empty multi-map.
    pub fn new() -> Self {
        ScalaMultiMap {
            map: MemoHamtMap::new(),
            tuples: 0,
        }
    }

    /// Borrowed view of the value set for `key`, if any.
    pub fn get(&self, key: &K) -> Option<&ScalaSet<V>> {
        self.map.get(key)
    }

    /// Inserts `(key, value)` in place (`addBinding`). Returns true if the
    /// relation grew.
    pub fn insert_mut(&mut self, key: K, value: V) -> bool {
        match self.map.get(&key) {
            None => {
                self.map.insert_mut(key, ScalaSet::single(value));
                self.tuples += 1;
                true
            }
            Some(set) => match set.inserted(&value) {
                None => false,
                Some(set) => {
                    self.map.insert_mut(key, set);
                    self.tuples += 1;
                    true
                }
            },
        }
    }

    /// Removes `(key, value)` in place (`removeBinding`). Returns true if
    /// present. Keys whose set empties are removed.
    pub fn remove_tuple_mut(&mut self, key: &K, value: &V) -> bool {
        match self.map.get(key) {
            None => false,
            Some(set) => match set.removed(value) {
                None => false,
                Some(None) => {
                    self.map.remove_mut(key);
                    self.tuples -= 1;
                    true
                }
                Some(Some(set)) => {
                    self.map.insert_mut(key.clone(), set);
                    self.tuples -= 1;
                    true
                }
            },
        }
    }

    /// Removes every tuple for `key` in place. Returns the number removed.
    pub fn remove_key_mut(&mut self, key: &K) -> usize {
        let removed = self.map.get(key).map_or(0, ScalaSet::len);
        if removed > 0 {
            self.map.remove_mut(key);
            self.tuples -= removed;
        }
        removed
    }

    /// Iterates all `(key, value)` tuples in unspecified order.
    pub fn iter(&self) -> ScalaTuples<'_, K, V> {
        TuplesOf::new(self.map.iter())
    }

    /// Iterates the distinct keys in unspecified order.
    pub fn keys(&self) -> hamt::memo::Keys<'_, K, ScalaSet<V>> {
        self.map.keys()
    }

    /// Iterates the values bound to `key` (nothing if the key is absent).
    pub fn values_of(&self, key: &K) -> MaybeIter<ScalaSetIter<'_, V>> {
        MaybeIter::of(self.map.get(key).map(ScalaSet::iter))
    }
}

/// Iterator over a [`ScalaMultiMap`]'s flattened tuples. Created by
/// [`ScalaMultiMap::iter`].
pub type ScalaTuples<'a, K, V> = TuplesOf<'a, K, ScalaSet<V>, hamt::memo::Iter<'a, K, ScalaSet<V>>>;

impl<'a, K, V> IntoIterator for &'a ScalaMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    type Item = (&'a K, &'a V);
    type IntoIter = ScalaTuples<'a, K, V>;
    fn into_iter(self) -> ScalaTuples<'a, K, V> {
        self.iter()
    }
}

impl<K, V> Default for ScalaMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    fn default() -> Self {
        ScalaMultiMap::new()
    }
}

impl<K, V> FromIterator<(K, V)> for ScalaMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        trie_common::ops::from_iter_via(iter)
    }
}

impl<K, V> Extend<(K, V)> for ScalaMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        trie_common::ops::extend_via(self, iter);
    }
}

impl<K, V> EditInPlace<(K, V)> for ScalaMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    fn edit_insert(&mut self, (key, value): (K, V)) -> bool {
        self.insert_mut(key, value)
    }
}

impl<K, V> MultiMapMutOps<K, V> for ScalaMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    type ValueSet = MemoHamtSet<V>;

    fn insert_mut(&mut self, key: K, value: V) -> bool {
        ScalaMultiMap::insert_mut(self, key, value)
    }

    fn remove_tuple_mut(&mut self, key: &K, value: &V) -> bool {
        ScalaMultiMap::remove_tuple_mut(self, key, value)
    }

    fn remove_key_mut(&mut self, key: &K) -> usize {
        ScalaMultiMap::remove_key_mut(self, key)
    }

    /// The overflow trie as an `O(1)` clone; a `Set1..Set4` is built into a
    /// trie set.
    fn value_set(&self, key: &K) -> Option<MemoHamtSet<V>> {
        self.map.get(key).map(|set| match set {
            ScalaSet::Trie(s) => s.clone(),
            small => small.iter().cloned().collect(),
        })
    }

    /// Up to four values are rebuilt as the `Set1..Set4` a fresh Scala set
    /// of them would be; a larger set is stored as it is.
    fn put_value_set_mut(&mut self, key: K, set: MemoHamtSet<V>) -> isize {
        let new = set.len();
        if new == 0 {
            return -(self.remove_key_mut(&key) as isize);
        }
        let stored = if new > 4 {
            ScalaSet::Trie(set)
        } else {
            let mut vs = set.iter().cloned();
            let mut next = || vs.next().expect("counted above");
            match new {
                1 => ScalaSet::S1(next()),
                2 => ScalaSet::S2(next(), next()),
                3 => ScalaSet::S3(next(), next(), next()),
                _ => ScalaSet::S4(next(), next(), next(), next()),
            }
        };
        let old = self.map.get(&key).map_or(0, ScalaSet::len);
        self.map.insert_mut(key, stored);
        self.tuples = self.tuples + new - old;
        new as isize - old as isize
    }
}

// The idiomatic emulation layers on a memoized map of sets, so the tuple
// algebra rides the element-wise fallback defaults.
impl<K, V> MultiMapAlgebraOps<K, V> for ScalaMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
}

impl<K, V> MultiMapOps<K, V> for ScalaMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    const NAME: &'static str = "scala-multimap";

    type Tuples<'a>
        = ScalaTuples<'a, K, V>
    where
        Self: 'a,
        K: 'a,
        V: 'a;
    type Keys<'a>
        = hamt::memo::Keys<'a, K, ScalaSet<V>>
    where
        Self: 'a,
        K: 'a,
        V: 'a;
    type ValuesOf<'a>
        = MaybeIter<ScalaSetIter<'a, V>>
    where
        Self: 'a,
        K: 'a,
        V: 'a;
    type Values<'a>
        = &'a ScalaSet<V>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    fn empty() -> Self {
        ScalaMultiMap::new()
    }

    fn tuple_count(&self) -> usize {
        self.tuples
    }

    fn key_count(&self) -> usize {
        self.map.len()
    }

    fn get(&self, key: &K) -> Option<&ScalaSet<V>> {
        self.map.get(key)
    }

    fn inserted(&self, key: K, value: V) -> Self {
        let mut next = self.clone();
        next.insert_mut(key, value);
        next
    }

    fn tuple_removed(&self, key: &K, value: &V) -> Self {
        let mut next = self.clone();
        next.remove_tuple_mut(key, value);
        next
    }

    fn key_removed(&self, key: &K) -> Self {
        let mut next = self.clone();
        next.remove_key_mut(key);
        next
    }

    fn tuples(&self) -> Self::Tuples<'_> {
        self.iter()
    }

    fn keys(&self) -> Self::Keys<'_> {
        ScalaMultiMap::keys(self)
    }

    fn values_of<'a>(&'a self, key: &K) -> Self::ValuesOf<'a> {
        ScalaMultiMap::values_of(self, key)
    }
}

impl<K, V> JvmFootprint for ScalaMultiMap<K, V>
where
    K: Clone + Eq + Hash + JvmSize,
    V: Clone + Eq + Hash + JvmSize,
{
    fn jvm_footprint(&self, arch: &JvmArch, policy: &LayoutPolicy, acc: &mut Accounting) {
        hamt::map_jvm_with(&self.map, arch, policy, acc, &mut |k, set, acc| {
            // The outer leaf object (HashMap1: hash + key + value + kv ref)
            // plus the live Tuple2 the `map + (key -> set)` idiom stores in
            // the leaf's kv field.
            acc.structure(arch.object(3, 1, 0) + arch.object(2, 0, 0));
            acc.payload(k.jvm_size(arch));
            match set {
                // SetN: one object with N element fields.
                ScalaSet::S1(a) => {
                    acc.structure(arch.object(1, 0, 0));
                    acc.payload(a.jvm_size(arch));
                }
                ScalaSet::S2(a, b) => {
                    acc.structure(arch.object(2, 0, 0));
                    acc.payload(a.jvm_size(arch));
                    acc.payload(b.jvm_size(arch));
                }
                ScalaSet::S3(a, b, c) => {
                    acc.structure(arch.object(3, 0, 0));
                    for v in [a, b, c] {
                        acc.payload(v.jvm_size(arch));
                    }
                }
                ScalaSet::S4(a, b, c, d) => {
                    acc.structure(arch.object(4, 0, 0));
                    for v in [a, b, c, d] {
                        acc.payload(v.jvm_size(arch));
                    }
                }
                ScalaSet::Trie(s) => {
                    acc.structure(arch.object(1, 2, 0));
                    hamt::nested_set_jvm(s, arch, policy, acc);
                }
            }
        });
    }
}

impl<K, V> RustFootprint for ScalaMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    fn rust_footprint(&self, acc: &mut Accounting) {
        hamt::map_rust_with(&self.map, acc, &mut |_, set, acc| {
            if let ScalaSet::Trie(s) = set {
                hamt::nested_set_rust(s, acc);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Mm = ScalaMultiMap<u32, u32>;

    #[test]
    fn small_set_ladder() {
        let mut mm = Mm::empty();
        for v in 0..4 {
            mm.insert_mut(1, v);
        }
        assert!(matches!(mm.get(&1), Some(ScalaSet::S4(..))));
        mm.insert_mut(1, 4);
        assert!(matches!(mm.get(&1), Some(ScalaSet::Trie(_))));
        assert_eq!(mm.value_count(&1), 5);
        // Shrinking the trie does not demote to SetN (Scala-faithful).
        for v in (1..5).rev() {
            assert!(mm.remove_tuple_mut(&1, &v));
        }
        assert!(matches!(mm.get(&1), Some(ScalaSet::Trie(_))));
        assert_eq!(mm.value_count(&1), 1);
        assert!(mm.remove_tuple_mut(&1, &0));
        assert!(!mm.contains_key(&1));
    }

    #[test]
    fn set_n_demotes_within_ladder() {
        let mut mm = Mm::empty();
        for v in 0..3 {
            mm.insert_mut(1, v);
        }
        assert!(matches!(mm.get(&1), Some(ScalaSet::S3(..))));
        mm.remove_tuple_mut(&1, &1);
        assert!(matches!(mm.get(&1), Some(ScalaSet::S2(..))));
        assert!(mm.contains_tuple(&1, &0) && mm.contains_tuple(&1, &2));
    }

    #[test]
    fn counts_and_iteration() {
        let mut mm = Mm::empty();
        for k in 0..100u32 {
            mm.insert_mut(k, 0);
            if k % 2 == 0 {
                mm.insert_mut(k, 1);
            }
        }
        assert_eq!(mm.key_count(), 100);
        assert_eq!(mm.tuple_count(), 150);
        let mut n = 0;
        mm.for_each_tuple(&mut |_, _| n += 1);
        assert_eq!(n, 150);
    }

    #[test]
    fn footprints() {
        let mm: Mm = (0..300u32).map(|k| (k / 3, k)).collect();
        let fp = mm.jvm_bytes(&JvmArch::COMPRESSED_OOPS, &LayoutPolicy::BASELINE);
        assert!(fp.total() > 0);
        assert!(mm.rust_bytes() > 0);
    }
}
