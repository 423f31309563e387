//! The nested-CHAMP multi-map: a CHAMP map of CHAMP sets.
//!
//! This is the "CHAMP" configuration of the paper's Table 1 (and of the
//! earlier OOPSLA'15 dominators study): sets nested as the values of a
//! polymorphic map to simulate multi-maps with basic collection types.
//! Unlike AXIOM and the Clojure protocol, singletons are **not** inlined —
//! every key pays for a nested set, which is exactly what AXIOM's `preds`
//! compression (≈4.4×) exploits on mostly-1:1 relations.

use std::hash::Hash;

use champ::{ChampMap, ChampSet};
use heapmodel::{Accounting, JvmArch, JvmFootprint, JvmSize, LayoutPolicy, RustFootprint};
use trie_common::iter::{MaybeIter, TuplesOf};
use trie_common::ops::{EditInPlace, MultiMapAlgebraOps, MultiMapMutOps, MultiMapOps};

/// A persistent multi-map as a [`ChampMap`] from keys to non-empty
/// [`ChampSet`]s.
///
/// # Examples
///
/// ```
/// use idiomatic::NestedChampMultiMap;
/// use trie_common::ops::MultiMapOps;
///
/// let mm = NestedChampMultiMap::<u32, u32>::empty().inserted(1, 10);
/// assert_eq!(mm.tuple_count(), 1);
/// assert!(mm.contains_tuple(&1, &10));
/// ```
pub struct NestedChampMultiMap<K, V> {
    map: ChampMap<K, ChampSet<V>>,
    tuples: usize,
}

impl<K, V> Clone for NestedChampMultiMap<K, V> {
    fn clone(&self) -> Self {
        NestedChampMultiMap {
            map: self.map.clone(),
            tuples: self.tuples,
        }
    }
}

impl<K, V> std::fmt::Debug for NestedChampMultiMap<K, V>
where
    K: std::fmt::Debug + Clone + Eq + Hash,
    V: std::fmt::Debug + Clone + Eq + Hash,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.map.iter()).finish()
    }
}

impl<K, V> NestedChampMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    /// Creates an empty multi-map.
    pub fn new() -> Self {
        NestedChampMultiMap {
            map: ChampMap::new(),
            tuples: 0,
        }
    }

    /// Borrowed view of the value set for `key`, if any.
    pub fn get(&self, key: &K) -> Option<&ChampSet<V>> {
        self.map.get(key)
    }

    /// Inserts `(key, value)` in place. Returns true if the relation grew.
    pub fn insert_mut(&mut self, key: K, value: V) -> bool {
        match self.map.get(&key) {
            None => {
                let set: ChampSet<V> = std::iter::once(value).collect();
                self.map.insert_mut(key, set);
                self.tuples += 1;
                true
            }
            Some(set) => {
                if set.contains(&value) {
                    return false;
                }
                let set = set.inserted(value);
                self.map.insert_mut(key, set);
                self.tuples += 1;
                true
            }
        }
    }

    /// Removes `(key, value)` in place. Returns true if present. Keys whose
    /// set empties are removed.
    pub fn remove_tuple_mut(&mut self, key: &K, value: &V) -> bool {
        match self.map.get(key) {
            None => false,
            Some(set) => {
                if !set.contains(value) {
                    return false;
                }
                if set.len() == 1 {
                    self.map.remove_mut(key);
                } else {
                    let set = set.removed(value);
                    self.map.insert_mut(key.clone(), set);
                }
                self.tuples -= 1;
                true
            }
        }
    }

    /// Removes every tuple for `key` in place. Returns the number removed.
    pub fn remove_key_mut(&mut self, key: &K) -> usize {
        let removed = self.map.get(key).map_or(0, ChampSet::len);
        if removed > 0 {
            self.map.remove_mut(key);
            self.tuples -= removed;
        }
        removed
    }

    /// Iterates all `(key, value)` tuples in unspecified order.
    pub fn iter(&self) -> NestedTuples<'_, K, V> {
        TuplesOf::new(self.map.iter())
    }

    /// Iterates the distinct keys in unspecified order.
    pub fn keys(&self) -> champ::map::Keys<'_, K, ChampSet<V>> {
        self.map.keys()
    }

    /// Iterates the values bound to `key` (nothing if the key is absent).
    pub fn values_of(&self, key: &K) -> MaybeIter<champ::set::Iter<'_, V>> {
        MaybeIter::of(self.map.get(key).map(ChampSet::iter))
    }
}

/// Iterator over a [`NestedChampMultiMap`]'s flattened tuples. Created by
/// [`NestedChampMultiMap::iter`].
pub type NestedTuples<'a, K, V> =
    TuplesOf<'a, K, ChampSet<V>, champ::map::Iter<'a, K, ChampSet<V>>>;

impl<'a, K, V> IntoIterator for &'a NestedChampMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    type Item = (&'a K, &'a V);
    type IntoIter = NestedTuples<'a, K, V>;
    fn into_iter(self) -> NestedTuples<'a, K, V> {
        self.iter()
    }
}

impl<K, V> Default for NestedChampMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    fn default() -> Self {
        NestedChampMultiMap::new()
    }
}

impl<K, V> FromIterator<(K, V)> for NestedChampMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        trie_common::ops::from_iter_via(iter)
    }
}

impl<K, V> Extend<(K, V)> for NestedChampMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        trie_common::ops::extend_via(self, iter);
    }
}

impl<K, V> EditInPlace<(K, V)> for NestedChampMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    fn edit_insert(&mut self, (key, value): (K, V)) -> bool {
        self.insert_mut(key, value)
    }
}

impl<K, V> MultiMapMutOps<K, V> for NestedChampMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    type ValueSet = ChampSet<V>;

    fn insert_mut(&mut self, key: K, value: V) -> bool {
        NestedChampMultiMap::insert_mut(self, key, value)
    }

    fn remove_tuple_mut(&mut self, key: &K, value: &V) -> bool {
        NestedChampMultiMap::remove_tuple_mut(self, key, value)
    }

    fn remove_key_mut(&mut self, key: &K) -> usize {
        NestedChampMultiMap::remove_key_mut(self, key)
    }

    /// The nested set itself, an `O(1)` clone.
    fn value_set(&self, key: &K) -> Option<ChampSet<V>> {
        self.map.get(key).cloned()
    }

    /// One map insert of the set as it is, so the key is hashed once and
    /// the set keeps sharing its nodes, as in AXIOM.
    fn put_value_set_mut(&mut self, key: K, set: ChampSet<V>) -> isize {
        if set.is_empty() {
            return -(self.remove_key_mut(&key) as isize);
        }
        let new = set.len();
        let old = self.map.replace_mut(key, set).map_or(0, |old| old.len());
        self.tuples = self.tuples + new - old;
        new as isize - old as isize
    }
}

// The idiomatic emulation layers on a map of sets, so the tuple algebra
// rides the element-wise fallback defaults.
impl<K, V> MultiMapAlgebraOps<K, V> for NestedChampMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
}

impl<K, V> MultiMapOps<K, V> for NestedChampMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    const NAME: &'static str = "nested-champ-multimap";

    type Tuples<'a>
        = NestedTuples<'a, K, V>
    where
        Self: 'a,
        K: 'a,
        V: 'a;
    type Keys<'a>
        = champ::map::Keys<'a, K, ChampSet<V>>
    where
        Self: 'a,
        K: 'a,
        V: 'a;
    type ValuesOf<'a>
        = MaybeIter<champ::set::Iter<'a, V>>
    where
        Self: 'a,
        K: 'a,
        V: 'a;
    type Values<'a>
        = &'a ChampSet<V>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    fn empty() -> Self {
        NestedChampMultiMap::new()
    }

    fn tuple_count(&self) -> usize {
        self.tuples
    }

    fn key_count(&self) -> usize {
        self.map.len()
    }

    fn get(&self, key: &K) -> Option<&ChampSet<V>> {
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
        NestedChampMultiMap::keys(self)
    }

    fn values_of<'a>(&'a self, key: &K) -> Self::ValuesOf<'a> {
        NestedChampMultiMap::values_of(self, key)
    }
}

impl<K, V> JvmFootprint for NestedChampMultiMap<K, V>
where
    K: Clone + Eq + Hash + JvmSize,
    V: Clone + Eq + Hash + JvmSize,
{
    fn jvm_footprint(&self, arch: &JvmArch, policy: &LayoutPolicy, acc: &mut Accounting) {
        champ::champ_map_jvm_with(&self.map, arch, policy, acc, &mut |k, set, acc| {
            acc.payload(k.jvm_size(arch));
            // Nested set wrapper (size + cached hash + root ref).
            acc.structure(arch.object(1, 2, 0));
            champ::nested_set_jvm(set, arch, policy, acc);
        });
    }
}

impl<K, V> RustFootprint for NestedChampMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    fn rust_footprint(&self, acc: &mut Accounting) {
        champ::champ_map_rust_with(&self.map, acc, &mut |_, set, acc| {
            champ::nested_set_rust(set, acc);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Mm = NestedChampMultiMap<u32, u32>;

    #[test]
    fn singletons_still_pay_for_sets() {
        let mm = Mm::empty().inserted(1, 10);
        assert_eq!(mm.get(&1).map(ChampSet::len), Some(1));
        assert_eq!(mm.tuple_count(), 1);
        assert_eq!(mm.key_count(), 1);
    }

    #[test]
    fn tuple_lifecycle() {
        let mut mm = Mm::empty();
        assert!(mm.insert_mut(1, 10));
        assert!(mm.insert_mut(1, 11));
        assert!(!mm.insert_mut(1, 10));
        assert_eq!(mm.tuple_count(), 2);
        assert!(mm.remove_tuple_mut(&1, &10));
        assert!(!mm.remove_tuple_mut(&1, &10));
        assert_eq!(mm.tuple_count(), 1);
        assert!(mm.remove_tuple_mut(&1, &11));
        assert!(!mm.contains_key(&1));
    }

    #[test]
    fn nested_footprint_exceeds_flat_axiom_on_singletons() {
        // The whole point of AXIOM's 1:1 inlining: map-of-sets pays a nested
        // set per key even when all mappings are 1:1.
        use axiom::AxiomMultiMap;
        let data: Vec<(u32, u32)> = (0..256).map(|k| (k, k)).collect();
        let nested: Mm = data.iter().copied().collect();
        let flat: AxiomMultiMap<u32, u32> = data.into_iter().collect();
        let arch = JvmArch::COMPRESSED_OOPS;
        let n = nested.jvm_bytes(&arch, &LayoutPolicy::BASELINE);
        let a = flat.jvm_bytes(&arch, &LayoutPolicy::BASELINE);
        assert!(
            n.structure > a.structure,
            "nested {} must exceed axiom {}",
            n.structure,
            a.structure
        );
    }
}
