//! Harness-facing trait implementations ([`trie_common::ops`]).
//!
//! Thin forwarding shims: the associated iterator types are the inherent
//! iterators of [`ChampMap`]/[`ChampSet`], and the transient builder rides
//! the `Rc`-uniqueness `insert_mut` path via [`EditInPlace`].

use std::hash::Hash;

use trie_common::ops::{
    EditInPlace, MapDiff, MapMergeOps, MapMutOps, MapOps, SetAlgebraOps, SetDiff, SetMutOps,
    SetOps, ValuesView,
};

use crate::{map, set, ChampMap, ChampSet};

impl<K, V> MapOps<K, V> for ChampMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    const NAME: &'static str = "champ-map";

    type Entries<'a>
        = map::Iter<'a, K, V>
    where
        Self: 'a,
        K: 'a,
        V: 'a;
    type Keys<'a>
        = map::Keys<'a, K, V>
    where
        Self: 'a,
        K: 'a,
        V: 'a;
    type Values<'a>
        = map::Values<'a, K, V>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    fn empty() -> Self {
        ChampMap::new()
    }

    fn len(&self) -> usize {
        ChampMap::len(self)
    }

    fn get(&self, key: &K) -> Option<&V> {
        ChampMap::get(self, key)
    }

    fn inserted(&self, key: K, value: V) -> Self {
        ChampMap::inserted(self, key, value)
    }

    fn removed(&self, key: &K) -> Self {
        ChampMap::removed(self, key)
    }

    fn entries(&self) -> Self::Entries<'_> {
        ChampMap::iter(self)
    }

    fn keys(&self) -> Self::Keys<'_> {
        ChampMap::keys(self)
    }

    fn values(&self) -> Self::Values<'_> {
        ChampMap::values(self)
    }
}

impl<K, V> MapMergeOps<K, V> for ChampMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    fn diff(&self, other: &Self) -> MapDiff<K, V> {
        ChampMap::diff(self, other)
    }
}

impl<K, V> EditInPlace<(K, V)> for ChampMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    fn edit_insert(&mut self, (key, value): (K, V)) -> bool {
        self.insert_mut(key, value)
    }
}

impl<K, V> MapMutOps<K, V> for ChampMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    fn insert_mut(&mut self, key: K, value: V) -> bool {
        ChampMap::insert_mut(self, key, value)
    }

    fn remove_mut(&mut self, key: &K) -> bool {
        ChampMap::remove_mut(self, key)
    }
}

impl<T> SetOps<T> for ChampSet<T>
where
    T: Clone + Eq + Hash,
{
    const NAME: &'static str = "champ-set";

    type Elems<'a>
        = set::Iter<'a, T>
    where
        Self: 'a,
        T: 'a;

    fn empty() -> Self {
        ChampSet::new()
    }

    fn len(&self) -> usize {
        ChampSet::len(self)
    }

    fn contains(&self, value: &T) -> bool {
        ChampSet::contains(self, value)
    }

    fn inserted(&self, value: T) -> Self {
        ChampSet::inserted(self, value)
    }

    fn removed(&self, value: &T) -> Self {
        ChampSet::removed(self, value)
    }

    fn iter(&self) -> Self::Elems<'_> {
        ChampSet::iter(self)
    }
}

impl<T> SetAlgebraOps<T> for ChampSet<T>
where
    T: Clone + Eq + Hash,
{
    fn diff(&self, other: &Self) -> SetDiff<T> {
        ChampSet::diff(self, other)
    }

    fn union(&self, other: &Self) -> Self {
        ChampSet::union(self, other)
    }

    fn intersect(&self, other: &Self) -> Self {
        ChampSet::intersect(self, other)
    }

    fn difference(&self, other: &Self) -> Self {
        ChampSet::difference(self, other)
    }
}

impl<T> SetMutOps<T> for ChampSet<T>
where
    T: Clone + Eq + Hash,
{
    fn insert_mut(&mut self, value: T) -> bool {
        ChampSet::insert_mut(self, value)
    }

    fn remove_mut(&mut self, value: &T) -> bool {
        ChampSet::remove_mut(self, value)
    }
}

/// A borrowed set as one multi-map key's values (the nested-CHAMP
/// multi-map's [`MultiMapOps::get`](trie_common::ops::MultiMapOps::get)).
impl<'a, T> ValuesView<'a, T> for &'a ChampSet<T>
where
    T: Clone + Eq + Hash,
{
    type Iter = set::Iter<'a, T>;

    fn len(&self) -> usize {
        ChampSet::len(self)
    }

    fn contains(&self, value: &T) -> bool {
        ChampSet::contains(self, value)
    }

    fn iter(&self) -> Self::Iter {
        ChampSet::iter(self)
    }
}

impl<T> EditInPlace<T> for ChampSet<T>
where
    T: Clone + Eq + Hash,
{
    fn edit_insert(&mut self, value: T) -> bool {
        self.insert_mut(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trie_common::ops::{Builder, TransientOps};

    #[test]
    fn traits_are_wired() {
        let m = <ChampMap<u32, u32> as MapOps<u32, u32>>::empty().inserted(1, 2);
        assert_eq!(MapOps::get(&m, &1), Some(&2));
        let s = <ChampSet<u32> as SetOps<u32>>::empty().inserted(3);
        assert!(SetOps::contains(&s, &3));
    }

    #[test]
    fn trait_iterators_forward_to_inherent() {
        let m: ChampMap<u32, u32> = (0..64).map(|i| (i, i * 2)).collect();
        let mut entries: Vec<(u32, u32)> = MapOps::entries(&m).map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable();
        assert_eq!(entries, (0..64).map(|i| (i, i * 2)).collect::<Vec<_>>());
        assert_eq!(MapOps::keys(&m).count(), 64);
        assert_eq!(MapOps::values(&m).count(), 64);

        let s: ChampSet<u32> = (0..32).collect();
        assert_eq!(SetOps::iter(&s).count(), 32);
    }

    #[test]
    fn transient_builder_roundtrip() {
        let mut t = ChampMap::<u32, u32>::transient_builder();
        assert_eq!(t.insert_all_mut((0..100).map(|i| (i, i))), 100);
        assert!(!t.insert_mut((0, 9))); // replacement, no growth
        let m = t.build();
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&0), Some(&9));

        // persistent → transient → freeze keeps old handles intact.
        let old = m.clone();
        let grown = m.bulk_inserted([(200, 1), (201, 2)]);
        assert_eq!(grown.len(), 102);
        assert_eq!(old.len(), 100);
    }
}
