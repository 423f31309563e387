//! Harness-facing trait implementations ([`trie_common::ops`]).
//!
//! Thin forwarding shims: the associated iterator types are the inherent
//! AXIOM iterators, and the transient builder rides the `Rc`-uniqueness
//! `insert_mut` path via [`EditInPlace`]. The multi-map impl is generic over
//! the [`ValueBag`] strategy, so [`crate::AxiomFusedMultiMap`] gets the same
//! surface for free.

use std::hash::Hash;

use trie_common::ops::{
    EditInPlace, MapDiff, MapMergeOps, MapMutOps, MapOps, MultiMapAlgebraOps, MultiMapDiff,
    MultiMapMutOps, MultiMapOps, SetAlgebraOps, SetDiff, SetMutOps, SetOps, ValuesView,
};

use crate::bag::ValueBag;
use crate::map::{self, AxiomMap};
use crate::multimap::{self, AxiomMultiMap, BindingRef};
use crate::set::{self, AxiomSet};

impl<K, V> MapOps<K, V> for AxiomMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    const NAME: &'static str = "axiom-map";

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
        AxiomMap::new()
    }

    fn len(&self) -> usize {
        AxiomMap::len(self)
    }

    fn get(&self, key: &K) -> Option<&V> {
        AxiomMap::get(self, key)
    }

    fn inserted(&self, key: K, value: V) -> Self {
        AxiomMap::inserted(self, key, value)
    }

    fn removed(&self, key: &K) -> Self {
        AxiomMap::removed(self, key)
    }

    fn entries(&self) -> Self::Entries<'_> {
        AxiomMap::iter(self)
    }

    fn keys(&self) -> Self::Keys<'_> {
        AxiomMap::keys(self)
    }

    fn values(&self) -> Self::Values<'_> {
        AxiomMap::values(self)
    }
}

impl<K, V> MapMergeOps<K, V> for AxiomMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    fn diff(&self, other: &Self) -> MapDiff<K, V> {
        AxiomMap::diff(self, other)
    }
}

impl<K, V> EditInPlace<(K, V)> for AxiomMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    fn edit_insert(&mut self, (key, value): (K, V)) -> bool {
        self.insert_mut(key, value)
    }
}

impl<K, V> MapMutOps<K, V> for AxiomMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    fn insert_mut(&mut self, key: K, value: V) -> bool {
        AxiomMap::insert_mut(self, key, value)
    }

    fn remove_mut(&mut self, key: &K) -> bool {
        AxiomMap::remove_mut(self, key)
    }
}

impl<T> SetOps<T> for AxiomSet<T>
where
    T: Clone + Eq + Hash,
{
    const NAME: &'static str = "axiom-set";

    type Elems<'a>
        = set::Iter<'a, T>
    where
        Self: 'a,
        T: 'a;

    fn empty() -> Self {
        AxiomSet::new()
    }

    fn len(&self) -> usize {
        AxiomSet::len(self)
    }

    fn contains(&self, value: &T) -> bool {
        AxiomSet::contains(self, value)
    }

    fn inserted(&self, value: T) -> Self {
        AxiomSet::inserted(self, value)
    }

    fn removed(&self, value: &T) -> Self {
        AxiomSet::removed(self, value)
    }

    fn iter(&self) -> Self::Elems<'_> {
        AxiomSet::iter(self)
    }
}

impl<T> SetAlgebraOps<T> for AxiomSet<T>
where
    T: Clone + Eq + Hash,
{
    fn diff(&self, other: &Self) -> SetDiff<T> {
        AxiomSet::diff(self, other)
    }

    fn union(&self, other: &Self) -> Self {
        AxiomSet::union(self, other)
    }

    fn intersect(&self, other: &Self) -> Self {
        AxiomSet::intersect(self, other)
    }

    fn difference(&self, other: &Self) -> Self {
        AxiomSet::difference(self, other)
    }
}

impl<T> EditInPlace<T> for AxiomSet<T>
where
    T: Clone + Eq + Hash,
{
    fn edit_insert(&mut self, value: T) -> bool {
        self.insert_mut(value)
    }
}

impl<T> SetMutOps<T> for AxiomSet<T>
where
    T: Clone + Eq + Hash,
{
    fn insert_mut(&mut self, value: T) -> bool {
        AxiomSet::insert_mut(self, value)
    }

    fn remove_mut(&mut self, value: &T) -> bool {
        AxiomSet::remove_mut(self, value)
    }
}

impl<K, V, B> MultiMapOps<K, V> for AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    const NAME: &'static str = "axiom-multimap";

    type Tuples<'a>
        = multimap::Tuples<'a, K, V, B>
    where
        Self: 'a,
        K: 'a,
        V: 'a;
    type Keys<'a>
        = multimap::Keys<'a, K, V, B>
    where
        Self: 'a,
        K: 'a,
        V: 'a;
    type ValuesOf<'a>
        = multimap::ValuesOf<'a, V, B>
    where
        Self: 'a,
        K: 'a,
        V: 'a;
    type Values<'a>
        = BindingRef<'a, V, B>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    fn empty() -> Self {
        AxiomMultiMap::new()
    }

    fn tuple_count(&self) -> usize {
        AxiomMultiMap::tuple_count(self)
    }

    fn key_count(&self) -> usize {
        AxiomMultiMap::key_count(self)
    }

    fn get(&self, key: &K) -> Option<Self::Values<'_>> {
        AxiomMultiMap::get(self, key)
    }

    fn inserted(&self, key: K, value: V) -> Self {
        AxiomMultiMap::inserted(self, key, value)
    }

    fn tuple_removed(&self, key: &K, value: &V) -> Self {
        AxiomMultiMap::tuple_removed(self, key, value)
    }

    fn key_removed(&self, key: &K) -> Self {
        AxiomMultiMap::key_removed(self, key)
    }

    fn tuples(&self) -> Self::Tuples<'_> {
        AxiomMultiMap::iter(self)
    }

    fn keys(&self) -> Self::Keys<'_> {
        AxiomMultiMap::keys(self)
    }

    fn values_of<'a>(&'a self, key: &K) -> Self::ValuesOf<'a> {
        AxiomMultiMap::values_of(self, key)
    }
}

impl<K, V, B> MultiMapAlgebraOps<K, V> for AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    fn diff(&self, other: &Self) -> MultiMapDiff<K, V> {
        AxiomMultiMap::diff(self, other)
    }

    fn union(&self, other: &Self) -> Self {
        AxiomMultiMap::union(self, other)
    }
}

impl<K, V, B> MultiMapMutOps<K, V> for AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    type ValueSet = AxiomSet<V>;

    fn insert_mut(&mut self, key: K, value: V) -> bool {
        AxiomMultiMap::insert_mut(self, key, value)
    }

    fn remove_tuple_mut(&mut self, key: &K, value: &V) -> bool {
        AxiomMultiMap::remove_tuple_mut(self, key, value)
    }

    fn remove_key_mut(&mut self, key: &K) -> usize {
        AxiomMultiMap::remove_key_mut(self, key)
    }

    fn value_set(&self, key: &K) -> Option<AxiomSet<V>> {
        AxiomMultiMap::value_set(self, key)
    }

    fn put_value_set_mut(&mut self, key: K, set: AxiomSet<V>) -> isize {
        AxiomMultiMap::put_value_set_mut(self, key, set)
    }

    fn replace_values_mut(&mut self, key: K, values: impl IntoIterator<Item = V>) -> isize {
        AxiomMultiMap::replace_values_mut(self, key, values)
    }
}

impl<'a, V, B> ValuesView<'a, V> for BindingRef<'a, V, B>
where
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    type Iter = multimap::BindingIter<'a, V, B>;

    fn len(&self) -> usize {
        BindingRef::len(self)
    }

    fn contains(&self, value: &V) -> bool {
        BindingRef::contains(self, value)
    }

    fn iter(&self) -> Self::Iter {
        BindingRef::iter(self)
    }
}

impl<K, V, B> EditInPlace<(K, V)> for AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    fn edit_insert(&mut self, (key, value): (K, V)) -> bool {
        self.insert_mut(key, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trie_common::ops::{Builder, TransientOps};

    fn exercise_map<M: MapOps<u32, u32>>() {
        let m = M::empty().inserted(1, 2).inserted(3, 4);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&1), Some(&2));
        let m = m.removed(&1);
        assert_eq!(m.len(), 1);
        let mut n = 0;
        m.for_each_entry(&mut |_, _| n += 1);
        assert_eq!(n, 1);
        assert_eq!(m.entries().count(), 1);
    }

    fn exercise_multimap<M: MultiMapOps<u32, u32>>() {
        let m = M::empty().inserted(1, 2).inserted(1, 3).inserted(5, 6);
        assert_eq!(m.tuple_count(), 3);
        assert_eq!(m.key_count(), 2);
        assert!(m.contains_tuple(&1, &3));
        assert_eq!(m.value_count(&1), 2);
        assert_eq!(m.tuples().count(), 3);
        assert_eq!(m.keys().count(), 2);
        assert_eq!(m.values_of(&1).count(), 2);
        assert_eq!(m.values_of(&99).count(), 0);
        let m = m.tuple_removed(&1, &2);
        assert_eq!(m.tuple_count(), 2);
        let m = m.key_removed(&1);
        assert_eq!(m.key_count(), 1);
        let mut vals = Vec::new();
        m.for_each_value_of(&5, &mut |v| vals.push(*v));
        assert_eq!(vals, vec![6]);
    }

    #[test]
    fn traits_are_wired() {
        exercise_map::<AxiomMap<u32, u32>>();
        exercise_multimap::<AxiomMultiMap<u32, u32>>();
        exercise_multimap::<crate::AxiomFusedMultiMap<u32, u32>>();
        let s = <AxiomSet<u32> as SetOps<u32>>::empty().inserted(1);
        assert!(SetOps::contains(&s, &1));
    }

    #[test]
    fn transient_builder_matches_fold() {
        let tuples: Vec<(u32, u32)> = (0..200).map(|i| (i / 2, i)).collect();
        let folded = tuples
            .iter()
            .fold(AxiomMultiMap::<u32, u32>::new(), |mm, &(k, v)| {
                mm.inserted(k, v)
            });
        let built = AxiomMultiMap::<u32, u32>::built_from(tuples.iter().copied());
        assert_eq!(folded, built);

        let mut t = AxiomMultiMap::<u32, u32>::transient_builder();
        assert_eq!(t.insert_all_mut(tuples.iter().copied()), tuples.len());
        assert_eq!(t.insert_all_mut(tuples.iter().copied()), 0); // re-insert: no growth
        assert_eq!(t.build(), folded);
    }
}
