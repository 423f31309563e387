//! The [`Serve`] trait: what the engine needs from a store.
//!
//! Each sharded wrapper ([`ShardedMap`], [`ShardedSet`],
//! [`ShardedMultiMap`]) implements `Serve` with its own typed read/reply
//! vocabulary from [`crate::ops`] and its edit type from
//! [`trie_common::ops`]. The engine itself is generic: one worker pool,
//! one admission layer, one transaction protocol for all three.

use std::hash::Hash;

use sharded::{EpochConflict, ShardedMap, ShardedMultiMap, ShardedSet};
use trie_common::ops::{
    MapEdit, MapMutOps, MapOps, MultiMapEdit, MultiMapMutOps, MultiMapOps, SetEdit, SetMutOps,
    SetOps,
};

use crate::ops::{MapRead, MapReply, MultiMapRead, MultiMapReply, SetRead, SetReply};

/// A store the serving engine can run over: epoch-pinned snapshots to
/// answer reads from, and both unconditional and epoch-validated batch
/// application for writes.
///
/// All methods that answer reads are associated functions over the
/// *snapshot* — once pinned, answering never touches the live store, which
/// is what makes the read path lock-free.
pub trait Serve: Send + Sync + 'static {
    /// One typed read operation.
    type Read: Send + 'static;
    /// The reply to one read operation.
    type Reply: Send + 'static;
    /// One typed write operation (the `*Edit` enums from `trie_common`).
    type Edit: Send + 'static;
    /// A pinned epoch: consistent across shards, lock-free to query,
    /// frozen forever.
    type Snapshot: Clone + Send + Sync + 'static;

    /// Pins the current epoch.
    fn pin(&self) -> Self::Snapshot;

    /// Blocks until the epoch advances past `epoch`, then pins (the
    /// long-poll primitive).
    fn pin_after(&self, epoch: u64) -> Self::Snapshot;

    /// The epoch a snapshot was pinned at.
    fn epoch_of(snap: &Self::Snapshot) -> u64;

    /// The store's current publication epoch.
    fn current_epoch(&self) -> u64;

    /// Answers one read against a pinned snapshot.
    fn answer(snap: &Self::Snapshot, op: &Self::Read) -> Self::Reply;

    /// Appends the shard indices `op` reads from to `out` (what a
    /// transaction validates at commit).
    fn read_shards(snap: &Self::Snapshot, op: &Self::Read, out: &mut Vec<usize>);

    /// Applies a batch unconditionally (one epoch however many shards it
    /// touches). Returns the store's count delta.
    fn apply(&self, batch: Vec<Self::Edit>) -> isize;

    /// Applies a batch only if every written shard — plus every shard in
    /// `read_shards` — is still at the version `base` pinned.
    fn apply_validated(
        &self,
        base: &Self::Snapshot,
        read_shards: &[usize],
        batch: Vec<Self::Edit>,
    ) -> Result<isize, EpochConflict>;
}

impl<K, V, M> Serve for ShardedMap<K, V, M>
where
    K: Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    M: MapOps<K, V> + MapMutOps<K, V> + Send + Sync + 'static,
{
    type Read = MapRead<K>;
    type Reply = MapReply<K, V>;
    type Edit = MapEdit<K, V>;
    type Snapshot = sharded::MapSnapshot<K, V, M>;

    fn pin(&self) -> Self::Snapshot {
        self.snapshot()
    }

    fn pin_after(&self, epoch: u64) -> Self::Snapshot {
        self.snapshot_after(epoch)
    }

    fn epoch_of(snap: &Self::Snapshot) -> u64 {
        snap.epoch()
    }

    fn current_epoch(&self) -> u64 {
        ShardedMap::current_epoch(self)
    }

    fn answer(snap: &Self::Snapshot, op: &Self::Read) -> Self::Reply {
        match op {
            MapRead::Get(k) => MapReply::Value(snap.get(k).cloned()),
            MapRead::Contains(k) => MapReply::Bool(snap.contains_key(k)),
            MapRead::Scan { limit } => MapReply::Entries(
                snap.entries()
                    .take(*limit)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            ),
            MapRead::Len => MapReply::Count(snap.len()),
        }
    }

    fn read_shards(snap: &Self::Snapshot, op: &Self::Read, out: &mut Vec<usize>) {
        match op {
            MapRead::Get(k) | MapRead::Contains(k) => out.push(snap.shard_of(k)),
            MapRead::Scan { .. } | MapRead::Len => out.extend(0..snap.shard_count()),
        }
    }

    fn apply(&self, batch: Vec<Self::Edit>) -> isize {
        ShardedMap::apply(self, batch)
    }

    fn apply_validated(
        &self,
        base: &Self::Snapshot,
        read_shards: &[usize],
        batch: Vec<Self::Edit>,
    ) -> Result<isize, EpochConflict> {
        ShardedMap::apply_validated(self, base, read_shards, batch)
    }
}

impl<T, S> Serve for ShardedSet<T, S>
where
    T: Hash + Clone + Send + Sync + 'static,
    S: SetOps<T> + SetMutOps<T> + Send + Sync + 'static,
{
    type Read = SetRead<T>;
    type Reply = SetReply<T>;
    type Edit = SetEdit<T>;
    type Snapshot = sharded::SetSnapshot<T, S>;

    fn pin(&self) -> Self::Snapshot {
        self.snapshot()
    }

    fn pin_after(&self, epoch: u64) -> Self::Snapshot {
        self.snapshot_after(epoch)
    }

    fn epoch_of(snap: &Self::Snapshot) -> u64 {
        snap.epoch()
    }

    fn current_epoch(&self) -> u64 {
        ShardedSet::current_epoch(self)
    }

    fn answer(snap: &Self::Snapshot, op: &Self::Read) -> Self::Reply {
        match op {
            SetRead::Contains(v) => SetReply::Bool(snap.contains(v)),
            SetRead::Scan { limit } => SetReply::Elems(snap.iter().take(*limit).cloned().collect()),
            SetRead::Len => SetReply::Count(snap.len()),
        }
    }

    fn read_shards(snap: &Self::Snapshot, op: &Self::Read, out: &mut Vec<usize>) {
        match op {
            SetRead::Contains(v) => out.push(snap.shard_of(v)),
            SetRead::Scan { .. } | SetRead::Len => out.extend(0..snap.shard_count()),
        }
    }

    fn apply(&self, batch: Vec<Self::Edit>) -> isize {
        ShardedSet::apply(self, batch)
    }

    fn apply_validated(
        &self,
        base: &Self::Snapshot,
        read_shards: &[usize],
        batch: Vec<Self::Edit>,
    ) -> Result<isize, EpochConflict> {
        ShardedSet::apply_validated(self, base, read_shards, batch)
    }
}

impl<K, V, M> Serve for ShardedMultiMap<K, V, M>
where
    K: Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    M: MultiMapOps<K, V> + MultiMapMutOps<K, V> + Send + Sync + 'static,
{
    type Read = MultiMapRead<K, V>;
    type Reply = MultiMapReply<K, V>;
    type Edit = MultiMapEdit<K, V>;
    type Snapshot = sharded::MultiMapSnapshot<K, V, M>;

    fn pin(&self) -> Self::Snapshot {
        self.snapshot()
    }

    fn pin_after(&self, epoch: u64) -> Self::Snapshot {
        self.snapshot_after(epoch)
    }

    fn epoch_of(snap: &Self::Snapshot) -> u64 {
        snap.epoch()
    }

    fn current_epoch(&self) -> u64 {
        ShardedMultiMap::current_epoch(self)
    }

    fn answer(snap: &Self::Snapshot, op: &Self::Read) -> Self::Reply {
        match op {
            MultiMapRead::ValuesOf(k) => {
                MultiMapReply::Values(snap.values_of(k).cloned().collect())
            }
            MultiMapRead::FanOut(keys) => MultiMapReply::FanOut(
                keys.iter()
                    .map(|k| (k.clone(), snap.values_of(k).cloned().collect()))
                    .collect(),
            ),
            MultiMapRead::ContainsKey(k) => MultiMapReply::Bool(snap.contains_key(k)),
            MultiMapRead::ContainsTuple(k, v) => MultiMapReply::Bool(snap.contains_tuple(k, v)),
            MultiMapRead::Scan { limit } => MultiMapReply::Tuples(
                snap.tuples()
                    .take(*limit)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            ),
            MultiMapRead::TupleCount => MultiMapReply::Count(snap.tuple_count()),
        }
    }

    fn read_shards(snap: &Self::Snapshot, op: &Self::Read, out: &mut Vec<usize>) {
        match op {
            MultiMapRead::ValuesOf(k)
            | MultiMapRead::ContainsKey(k)
            | MultiMapRead::ContainsTuple(k, _) => out.push(snap.shard_of(k)),
            MultiMapRead::FanOut(keys) => out.extend(keys.iter().map(|k| snap.shard_of(k))),
            MultiMapRead::Scan { .. } | MultiMapRead::TupleCount => {
                out.extend(0..snap.shard_count())
            }
        }
    }

    fn apply(&self, batch: Vec<Self::Edit>) -> isize {
        ShardedMultiMap::apply(self, batch)
    }

    fn apply_validated(
        &self,
        base: &Self::Snapshot,
        read_shards: &[usize],
        batch: Vec<Self::Edit>,
    ) -> Result<isize, EpochConflict> {
        ShardedMultiMap::apply_validated(self, base, read_shards, batch)
    }
}
