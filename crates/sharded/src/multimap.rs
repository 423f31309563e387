//! The multi-map kind: [`MultiMap`], the [`ShardedMultiMap`] /
//! [`MultiMapSnapshot`] aliases, and the relation queries and union on top
//! of the generic [`Sharded`] store.

use std::hash::Hash;
use std::marker::PhantomData;

use axiom::AxiomMultiMap;
use serde::Serialize;
use trie_common::ops::{
    MultiMapAlgebraOps, MultiMapDiff, MultiMapEdit, MultiMapMutOps, MultiMapOps,
};
use trie_common::snapshot::{encode_section, Kind, Section, SnapshotError};

use crate::kind::{DiffKind, EditKind, SaveKind, ShardKind};
use crate::{Sharded, Snapshot};

/// The kind marker of multi-maps: tuples `(K, V)`, duplicate keys allowed.
pub struct MultiMap<K, V>(PhantomData<fn() -> (K, V)>);

/// A concurrent multi-map: `N` persistent tries (one per slice of the key
/// space) published under one global epoch sequence. The backing trie `M`
/// defaults to [`AxiomMultiMap`] but any [`MultiMapOps`] +
/// [`MultiMapMutOps`] + [`TransientOps`](trie_common::ops::TransientOps)
/// implementation works.
///
/// # Examples
///
/// ```
/// use sharded::ShardedMultiMap;
///
/// let mm: ShardedMultiMap<u32, u32> = ShardedMultiMap::with_shards(4);
/// mm.insert(1, 10);
/// mm.insert(1, 11);
/// mm.insert(2, 20);
/// assert_eq!(mm.tuple_count(), 3);
///
/// let snap = mm.snapshot();       // pinned epoch, lock-free to query
/// mm.remove_key(&1);
/// assert_eq!(snap.value_count(&1), 2); // the snapshot is unaffected
/// assert_eq!(mm.tuple_count(), 1);
/// ```
pub type ShardedMultiMap<K, V, M = AxiomMultiMap<K, V>> = Sharded<M, MultiMap<K, V>>;

/// An immutable pinned epoch of a [`ShardedMultiMap`].
pub type MultiMapSnapshot<K, V, M = AxiomMultiMap<K, V>> = Snapshot<M, MultiMap<K, V>>;

impl<K: Hash, V, M: MultiMapOps<K, V>> ShardKind<M> for MultiMap<K, V> {
    type Key = K;
    type Elem = (K, V);
    const KIND: Kind = Kind::MultiMap;

    fn empty() -> M {
        M::empty()
    }

    fn count(shard: &M) -> usize {
        shard.tuple_count()
    }

    fn elem_key((k, _): &(K, V)) -> &K {
        k
    }
}

impl<K: Hash, V: Clone, M: MultiMapMutOps<K, V>> EditKind<M> for MultiMap<K, V> {
    type Edit = MultiMapEdit<K, V>;

    fn edit_key(edit: &MultiMapEdit<K, V>) -> &K {
        edit.key()
    }

    fn apply_mut(shard: &mut M, edit: MultiMapEdit<K, V>) -> isize {
        shard.apply_mut(edit)
    }
}

impl<K, V, M> DiffKind<M> for MultiMap<K, V>
where
    K: Hash + Clone,
    V: Clone,
    M: MultiMapAlgebraOps<K, V>,
{
    type Diff = MultiMapDiff<K, V>;

    fn diff(old: &M, new: &M) -> MultiMapDiff<K, V> {
        old.diff(new)
    }

    fn merge(parts: Vec<MultiMapDiff<K, V>>) -> MultiMapDiff<K, V> {
        let mut out = MultiMapDiff::new();
        for d in parts {
            out.added.extend(d.added);
            out.removed.extend(d.removed);
        }
        out
    }
}

impl<K: Hash + Serialize, V: Serialize, M: MultiMapOps<K, V>> SaveKind<M> for MultiMap<K, V> {
    fn encode(shard: &M) -> Result<Section, SnapshotError> {
        encode_section(shard.tuples())
    }
}

impl<K: Hash, V, M: MultiMapOps<K, V>> ShardedMultiMap<K, V, M> {
    /// Total number of tuples (over one pinned epoch).
    pub fn tuple_count(&self) -> usize {
        self.sum(M::tuple_count)
    }

    /// Number of distinct keys (keys never span shards, so the sum is
    /// exact).
    pub fn key_count(&self) -> usize {
        self.sum(M::key_count)
    }

    /// True if `key` maps to at least one value.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard_now(key).contains_key(key)
    }

    /// True if the exact tuple `(key, value)` is present.
    pub fn contains_tuple(&self, key: &K, value: &V) -> bool {
        self.shard_now(key).contains_tuple(key, value)
    }

    /// Number of values associated with `key` (0 if absent).
    pub fn value_count(&self, key: &K) -> usize {
        self.shard_now(key).value_count(key)
    }
}

impl<K: Hash, V: Clone, M: MultiMapMutOps<K, V>> ShardedMultiMap<K, V, M> {
    /// Inserts one tuple. Returns true if the relation grew.
    ///
    /// One-tuple batches pay a full shard publication each; prefer
    /// [`Sharded::apply`] for anything that arrives in groups.
    pub fn insert(&self, key: K, value: V) -> bool {
        self.edit_shard(self.shard_of(&key), |m| m.insert_mut(key, value))
    }

    /// Removes one tuple. Returns true if it was present.
    pub fn remove_tuple(&self, key: &K, value: &V) -> bool {
        self.edit_shard(self.shard_of(key), |m| m.remove_tuple_mut(key, value))
    }

    /// Removes every tuple for `key`. Returns how many were removed.
    pub fn remove_key(&self, key: &K) -> usize {
        self.edit_shard(self.shard_of(key), |m| m.remove_key_mut(key))
    }
}

impl<K, V, M> ShardedMultiMap<K, V, M>
where
    K: Hash + Clone + Send,
    V: Clone + Send,
    M: MultiMapAlgebraOps<K, V> + Send + Sync,
{
    /// Pairwise shard union with `other` (tuple granularity), one scoped
    /// worker per shard pair.
    ///
    /// # Panics
    ///
    /// Panics if the two multi-maps have different shard counts.
    pub fn union_with(&self, other: &Self) -> Self {
        self.combine(other, |a, b| a.union(b))
    }
}

impl<K: Hash, V, M: MultiMapOps<K, V>> MultiMapSnapshot<K, V, M> {
    /// Total number of tuples.
    pub fn tuple_count(&self) -> usize {
        self.sum(M::tuple_count)
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.sum(M::key_count)
    }

    /// True if `key` maps to at least one value.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard_for(key).contains_key(key)
    }

    /// True if the exact tuple `(key, value)` is present.
    pub fn contains_tuple(&self, key: &K, value: &V) -> bool {
        self.shard_for(key).contains_tuple(key, value)
    }

    /// Number of values associated with `key` (0 if absent).
    pub fn value_count(&self, key: &K) -> usize {
        self.shard_for(key).value_count(key)
    }

    /// Iterates the values bound to `key` (nothing if absent).
    pub fn values_of<'a>(&'a self, key: &K) -> M::ValuesOf<'a> {
        self.shard_for(key).values_of(key)
    }

    /// Iterates all `(key, value)` tuples, shard by shard.
    pub fn tuples(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.shards().flat_map(M::tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use trie_common::ops::TransientOps;

    type Mm = ShardedMultiMap<u32, u32>;

    #[test]
    fn routing_and_point_ops() {
        let mm = Mm::with_shards(8);
        assert!(mm.is_empty());
        assert!(mm.insert(1, 10));
        assert!(mm.insert(1, 11));
        assert!(!mm.insert(1, 10)); // duplicate tuple
        assert!(mm.insert(2, 20));
        assert_eq!(mm.tuple_count(), 3);
        assert_eq!(mm.key_count(), 2);
        assert_eq!(mm.value_count(&1), 2);
        assert!(mm.contains_tuple(&1, &11));
        assert!(mm.remove_tuple(&1, &11));
        assert!(!mm.remove_tuple(&1, &11));
        assert_eq!(mm.remove_key(&1), 1);
        assert_eq!(mm.tuple_count(), 1);
    }

    #[test]
    fn snapshots_are_frozen() {
        let mm = Mm::with_shards(4);
        mm.apply((0..100).map(|i| MultiMapEdit::Insert(i, i)));
        let snap = mm.snapshot();
        assert_eq!(snap.tuple_count(), 100);
        mm.apply((0..50).map(MultiMapEdit::RemoveKey));
        assert_eq!(mm.tuple_count(), 50);
        assert_eq!(snap.tuple_count(), 100); // unmoved
        let seen: BTreeSet<u32> = snap.tuples().map(|(k, _)| *k).collect();
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn apply_returns_tuple_delta() {
        let mm = Mm::with_shards(2);
        let delta = mm.apply([
            MultiMapEdit::Insert(1, 1),
            MultiMapEdit::Insert(1, 2),
            MultiMapEdit::Insert(2, 1),
            MultiMapEdit::RemoveTuple(1, 2),
            MultiMapEdit::RemoveTuple(9, 9), // absent: no effect
        ]);
        assert_eq!(delta, 2);
        assert_eq!(mm.tuple_count(), 2);
        assert_eq!(mm.apply([MultiMapEdit::RemoveKey(1)]), -1);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let tuples: Vec<(u32, u32)> = (0..5000).map(|i| (i / 3, i)).collect();
        let sharded = Mm::build_parallel(8, tuples.iter().copied());
        let reference = AxiomMultiMap::<u32, u32>::built_from(tuples.iter().copied());
        assert_eq!(sharded.tuple_count(), reference.tuple_count());
        assert_eq!(sharded.key_count(), reference.key_count());
        let snap = sharded.snapshot();
        for (k, v) in &tuples {
            assert!(snap.contains_tuple(k, v));
        }
        assert_eq!(snap.tuples().count(), reference.tuple_count());
    }

    #[test]
    fn skewed_parallel_build_leaves_empty_shards_valid() {
        // One single key routes to one shard; the other 7 stay empty.
        let sharded = Mm::build_parallel(8, std::iter::repeat_n((42u32, 1u32), 3));
        assert_eq!(sharded.tuple_count(), 1); // duplicate tuples collapse
        assert_eq!(sharded.key_count(), 1);
        assert_eq!(sharded.snapshot().tuples().count(), 1);
    }

    #[test]
    fn extend_parallel_grows_in_place() {
        let mm = Mm::build_parallel(4, (0..100u32).map(|i| (i, i)));
        let snap = mm.snapshot();
        let grew = mm.extend_parallel((0..200u32).map(|i| (i, i + 1)));
        assert_eq!(grew, 200);
        assert_eq!(mm.tuple_count(), 300);
        assert_eq!(snap.tuple_count(), 100); // pre-extend snapshot frozen
    }

    #[test]
    fn works_over_other_tries() {
        use idiomatic::NestedChampMultiMap;
        let mm: ShardedMultiMap<u32, u32, NestedChampMultiMap<u32, u32>> =
            ShardedMultiMap::build_parallel(2, (0..500u32).map(|i| (i % 100, i)));
        assert_eq!(mm.tuple_count(), 500);
        assert_eq!(mm.key_count(), 100);
        mm.apply([MultiMapEdit::RemoveKey(5)]);
        assert_eq!(mm.key_count(), 99);
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<Mm>();
        check::<MultiMapSnapshot<u32, u32>>();
    }
}
