//! Harness-facing trait implementations ([`trie_common::ops`]).
//!
//! Thin forwarding shims, once for both flavours: the associated iterator
//! types are the inherent iterators of the HAMT maps and sets, the transient
//! builder rides the `Rc`-uniqueness `insert_mut` path via [`EditInPlace`],
//! and `diff` is the structural walk of [`trie_common::algebra`].

use std::hash::Hash;

use trie_common::ops::{
    EditInPlace, MapDiff, MapMergeOps, MapMutOps, MapOps, SetAlgebraOps, SetDiff, SetMutOps, SetOps,
};

use crate::trie::{Iter, Keys, Leaf, Map, Set, Values};

impl<K, V, L: Leaf> MapOps<K, V> for Map<K, V, L>
where
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    const NAME: &'static str = L::MAP_NAME;

    type Entries<'a>
        = Iter<'a, K, V, L>
    where
        Self: 'a,
        K: 'a,
        V: 'a;
    type Keys<'a>
        = Keys<'a, K, V, L>
    where
        Self: 'a,
        K: 'a,
        V: 'a;
    type Values<'a>
        = Values<'a, K, V, L>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    fn empty() -> Self {
        Map::new()
    }
    fn len(&self) -> usize {
        Map::len(self)
    }
    fn get(&self, key: &K) -> Option<&V> {
        Map::get(self, key)
    }
    fn inserted(&self, key: K, value: V) -> Self {
        Map::inserted(self, key, value)
    }
    fn removed(&self, key: &K) -> Self {
        Map::removed(self, key)
    }
    fn entries(&self) -> Self::Entries<'_> {
        Map::iter(self)
    }
    fn keys(&self) -> Self::Keys<'_> {
        Map::keys(self)
    }
    fn values(&self) -> Self::Values<'_> {
        Map::values(self)
    }
}

impl<K, V, L: Leaf> MapMergeOps<K, V> for Map<K, V, L>
where
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    fn diff(&self, other: &Self) -> MapDiff<K, V> {
        Map::diff(self, other)
    }
}

impl<K, V, L: Leaf> EditInPlace<(K, V)> for Map<K, V, L>
where
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    fn edit_insert(&mut self, (key, value): (K, V)) -> bool {
        self.insert_mut(key, value)
    }
}

impl<K, V, L: Leaf> MapMutOps<K, V> for Map<K, V, L>
where
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    fn insert_mut(&mut self, key: K, value: V) -> bool {
        Map::insert_mut(self, key, value)
    }

    fn remove_mut(&mut self, key: &K) -> bool {
        Map::remove_mut(self, key)
    }
}

impl<T: Clone + Eq + Hash, L: Leaf> SetOps<T> for Set<T, L> {
    const NAME: &'static str = L::SET_NAME;

    type Elems<'a>
        = Keys<'a, T, (), L>
    where
        Self: 'a,
        T: 'a;

    fn empty() -> Self {
        Set::new()
    }
    fn len(&self) -> usize {
        Set::len(self)
    }
    fn contains(&self, value: &T) -> bool {
        Set::contains(self, value)
    }
    fn inserted(&self, value: T) -> Self {
        Set::inserted(self, value)
    }
    fn removed(&self, value: &T) -> Self {
        Set::removed(self, value)
    }
    fn iter(&self) -> Self::Elems<'_> {
        Set::iter(self)
    }
}

impl<T: Clone + Eq + Hash, L: Leaf> SetAlgebraOps<T> for Set<T, L> {
    fn diff(&self, other: &Self) -> SetDiff<T> {
        Set::diff(self, other)
    }
}

impl<T: Clone + Eq + Hash, L: Leaf> EditInPlace<T> for Set<T, L> {
    fn edit_insert(&mut self, value: T) -> bool {
        self.insert_mut(value)
    }
}

impl<T: Clone + Eq + Hash, L: Leaf> SetMutOps<T> for Set<T, L> {
    fn insert_mut(&mut self, value: T) -> bool {
        Set::insert_mut(self, value)
    }

    fn remove_mut(&mut self, value: &T) -> bool {
        Set::remove_mut(self, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HamtMap, HamtSet, MemoHamtMap, MemoHamtSet};
    use trie_common::ops::{Builder, TransientOps};

    fn exercise<M: MapOps<u32, u32>>() {
        let m = M::empty().inserted(1, 2).inserted(3, 4).removed(&1);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&3), Some(&4));
        assert_eq!(m.entries().count(), 1);
        assert_eq!(m.keys().count(), 1);
        assert_eq!(m.values().count(), 1);
    }

    #[test]
    fn traits_are_wired() {
        exercise::<HamtMap<u32, u32>>();
        exercise::<MemoHamtMap<u32, u32>>();
        let s = <HamtSet<u32> as SetOps<u32>>::empty().inserted(1);
        assert!(SetOps::contains(&s, &1));
        assert_eq!(SetOps::iter(&s).count(), 1);
        let s = <MemoHamtSet<u32> as SetOps<u32>>::empty().inserted(1);
        assert!(SetOps::contains(&s, &1));
        assert_eq!(SetOps::iter(&s).count(), 1);
    }

    #[test]
    fn transient_builders_roundtrip() {
        let m = MemoHamtMap::<u32, u32>::built_from((0..50).map(|i| (i, i)));
        assert_eq!(m.len(), 50);
        let mut t = HamtSet::<u32>::transient_builder();
        assert_eq!(t.insert_all_mut(0..20), 20);
        assert!(!t.insert_mut(0));
        assert_eq!(t.build().len(), 20);
    }
}
