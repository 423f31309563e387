//! The map kind: [`Map`], the [`ShardedMap`] / [`MapSnapshot`] aliases, and
//! the keyed-map queries and merge on top of the generic
//! [`Sharded`] store.

use std::hash::Hash;
use std::marker::PhantomData;

use axiom::AxiomMap;
use serde::Serialize;
use trie_common::ops::{MapDiff, MapEdit, MapMergeOps, MapMutOps, MapOps};
use trie_common::snapshot::{encode_section, Kind, Section, SnapshotError};

use crate::kind::{DiffKind, EditKind, SaveKind, ShardKind};
use crate::{Sharded, Snapshot};

/// The kind marker of keyed maps: entries `(K, V)`, unique keys.
pub struct Map<K, V>(PhantomData<fn() -> (K, V)>);

/// A concurrent map: `N` persistent trie maps published under one global
/// epoch sequence. Defaults to [`AxiomMap`] shards.
///
/// # Examples
///
/// ```
/// use sharded::ShardedMap;
///
/// let m: ShardedMap<u32, &str> = ShardedMap::with_shards(2);
/// m.insert(1, "one");
/// let snap = m.snapshot();
/// m.remove(&1);
/// assert_eq!(snap.get(&1), Some(&"one")); // the snapshot is unaffected
/// assert_eq!(m.len(), 0);
/// ```
pub type ShardedMap<K, V, M = AxiomMap<K, V>> = Sharded<M, Map<K, V>>;

/// An immutable pinned epoch of a [`ShardedMap`].
pub type MapSnapshot<K, V, M = AxiomMap<K, V>> = Snapshot<M, Map<K, V>>;

impl<K: Hash, V, M: MapOps<K, V>> ShardKind<M> for Map<K, V> {
    type Key = K;
    type Elem = (K, V);
    const KIND: Kind = Kind::Map;

    fn empty() -> M {
        M::empty()
    }

    fn count(shard: &M) -> usize {
        shard.len()
    }

    fn elem_key((k, _): &(K, V)) -> &K {
        k
    }
}

impl<K: Hash, V, M: MapMutOps<K, V>> EditKind<M> for Map<K, V> {
    type Edit = MapEdit<K, V>;

    fn edit_key(edit: &MapEdit<K, V>) -> &K {
        edit.key()
    }

    fn apply_mut(shard: &mut M, edit: MapEdit<K, V>) -> isize {
        shard.apply_mut(edit)
    }
}

impl<K, V, M> DiffKind<M> for Map<K, V>
where
    K: Hash + Clone,
    V: Clone + PartialEq,
    M: MapMergeOps<K, V>,
{
    type Diff = MapDiff<K, V>;

    fn diff(old: &M, new: &M) -> MapDiff<K, V> {
        old.diff(new)
    }

    fn merge(parts: Vec<MapDiff<K, V>>) -> MapDiff<K, V> {
        let mut out = MapDiff::new();
        for d in parts {
            out.added.extend(d.added);
            out.removed.extend(d.removed);
            out.changed.extend(d.changed);
        }
        out
    }
}

impl<K: Hash + Serialize, V: Serialize, M: MapOps<K, V>> SaveKind<M> for Map<K, V> {
    fn encode(shard: &M) -> Result<Section, SnapshotError> {
        encode_section(shard.entries())
    }
}

impl<K: Hash, V, M: MapOps<K, V>> ShardedMap<K, V, M> {
    /// Number of entries (over one pinned epoch).
    pub fn len(&self) -> usize {
        self.sum(M::len)
    }

    /// True if `key` has a binding.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard_now(key).contains_key(key)
    }

    /// Looks up `key`, cloning the value out of the current shard snapshot
    /// (borrowing reads go through [`Sharded::snapshot`]).
    pub fn get_cloned(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.shard_now(key).get(key).cloned()
    }
}

impl<K: Hash, V, M: MapMutOps<K, V>> ShardedMap<K, V, M> {
    /// Binds `key` to `value`. Returns true if a new key was added.
    pub fn insert(&self, key: K, value: V) -> bool {
        self.edit_shard(self.shard_of(&key), |m| m.insert_mut(key, value))
    }

    /// Removes `key`. Returns true if a binding was removed.
    pub fn remove(&self, key: &K) -> bool {
        self.edit_shard(self.shard_of(key), |m| m.remove_mut(key))
    }
}

impl<K, V, M> ShardedMap<K, V, M>
where
    K: Hash + Clone + Send,
    V: Clone + PartialEq + Send,
    M: MapMergeOps<K, V> + Send + Sync,
{
    /// Pairwise right-biased shard merge with `other` (`other` wins on
    /// conflicting keys), one scoped worker per shard pair.
    ///
    /// # Panics
    ///
    /// Panics if the two maps have different shard counts.
    pub fn merged_with(&self, other: &Self) -> Self {
        self.combine(other, |a, b| a.merged(b))
    }
}

impl<K: Hash, V, M: MapOps<K, V>> MapSnapshot<K, V, M> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.sum(M::len)
    }

    /// Looks up the value bound to `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.shard_for(key).get(key)
    }

    /// True if `key` has a binding.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard_for(key).contains_key(key)
    }

    /// Iterates all `(key, value)` entries, shard by shard.
    pub fn entries(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.shards().flat_map(M::entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_semantics_across_shards() {
        let m: ShardedMap<u32, u32> = ShardedMap::with_shards(4);
        assert!(m.insert(1, 10));
        assert!(!m.insert(1, 11)); // replacement
        assert_eq!(m.get_cloned(&1), Some(11));
        assert_eq!(m.len(), 1);
        assert_eq!(
            m.apply([
                MapEdit::Insert(2, 2),
                MapEdit::Insert(3, 3),
                MapEdit::Remove(1)
            ]),
            1
        );
        assert_eq!(m.len(), 2);
        assert!(!m.contains_key(&1));
    }

    #[test]
    fn parallel_build_and_snapshot_reads() {
        use champ::ChampMap;
        let entries: Vec<(u32, u32)> = (0..3000).map(|i| (i, i * 2)).collect();
        let m: ShardedMap<u32, u32, ChampMap<u32, u32>> =
            ShardedMap::build_parallel(8, entries.iter().copied());
        assert_eq!(m.len(), 3000);
        let snap = m.snapshot();
        for (k, v) in &entries {
            assert_eq!(snap.get(k), Some(v));
        }
        assert_eq!(snap.entries().count(), 3000);
        assert_eq!(m.extend_parallel((3000..3100).map(|i| (i, i))), 100);
        assert_eq!(m.len(), 3100);
        assert_eq!(snap.len(), 3000);
    }

    #[test]
    fn validated_apply_detects_read_write_conflicts() {
        let m: ShardedMap<u32, u32> = ShardedMap::with_shards(4);
        m.apply((0..32).map(|i| MapEdit::Insert(i, 0)));
        let base = m.snapshot();
        let read_shard = base.shard_of(&7);
        // An interposed writer bumps the shard we read from.
        m.insert(7, 99);
        let err = m
            .apply_validated(&base, &[read_shard], [MapEdit::Insert(100, 1)])
            .unwrap_err();
        assert_eq!(err.shard, read_shard);
        // Retry against a fresh pin succeeds.
        let fresh = m.snapshot();
        let delta = m
            .apply_validated(&fresh, &[fresh.shard_of(&7)], [MapEdit::Insert(100, 1)])
            .unwrap();
        assert_eq!(delta, 1);
        assert_eq!(m.get_cloned(&100), Some(1));
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<ShardedMap<u32, u32>>();
        check::<MapSnapshot<u32, u32>>();
    }
}
