//! The [`Serve`] trait: what the engine needs from a store.
//!
//! The generic sharded store [`Sharded<C, Kd>`] implements `Serve` once.
//! Pinning, epochs and (validated) batch application are the store's own;
//! only the typed read/reply vocabulary from [`crate::ops`] differs per
//! kind, and [`ServeKind`] supplies it for the [`Map`], [`Set`] and
//! [`MultiMap`] markers (so [`ShardedMap`](sharded::ShardedMap),
//! [`ShardedSet`](sharded::ShardedSet) and
//! [`ShardedMultiMap`](sharded::ShardedMultiMap) all serve). The engine
//! itself is generic: one admission queue, one applier, one transaction
//! protocol for all three.

use std::hash::Hash;

use sharded::{EditKind, EpochConflict, Map, MultiMap, Set, Sharded, Snapshot};
use trie_common::ops::{MapMutOps, MultiMapMutOps, SetMutOps, ValuesView};

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

    /// Answers a batch of reads against one pinned snapshot: one reply per
    /// op, in op order, each what [`Serve::answer`] gives for it. Every
    /// read the engine serves goes through here (the wire's writer half,
    /// [`Engine::execute`](crate::Engine::execute) and the read pool).
    ///
    /// The default calls `answer` per op; a store can share work across
    /// the batch, as the multi-map kind does with one
    /// [`get_many`](trie_common::ops::MultiMapOps::get_many) per shard.
    fn answer_batch(snap: &Self::Snapshot, ops: &[Self::Read]) -> Vec<Self::Reply> {
        ops.iter().map(|op| Self::answer(snap, op)).collect()
    }

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

/// The serving vocabulary of one kind of sharded store: its typed reads
/// and replies, and how a pinned [`Snapshot`] answers them.
pub trait ServeKind<C>: EditKind<C> {
    /// One typed read operation.
    type Read: Send + 'static;
    /// The reply to one read operation.
    type Reply: Send + 'static;

    /// Answers one read against a pinned snapshot.
    fn answer(snap: &Snapshot<C, Self>, op: &Self::Read) -> Self::Reply;

    /// Answers a batch of reads against one pinned snapshot, one reply per
    /// op in op order (see [`Serve::answer_batch`]). The default calls
    /// `answer` per op.
    fn answer_batch(snap: &Snapshot<C, Self>, ops: &[Self::Read]) -> Vec<Self::Reply> {
        ops.iter().map(|op| Self::answer(snap, op)).collect()
    }

    /// Appends the shard indices `op` reads from to `out`.
    fn read_shards(snap: &Snapshot<C, Self>, op: &Self::Read, out: &mut Vec<usize>);
}

impl<C, Kd> Serve for Sharded<C, Kd>
where
    C: Clone + Send + Sync + 'static,
    Kd: ServeKind<C> + 'static,
    Kd::Edit: Send + 'static,
{
    type Read = Kd::Read;
    type Reply = Kd::Reply;
    type Edit = Kd::Edit;
    type Snapshot = Snapshot<C, Kd>;

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
        Sharded::current_epoch(self)
    }

    fn answer(snap: &Self::Snapshot, op: &Self::Read) -> Self::Reply {
        Kd::answer(snap, op)
    }

    fn answer_batch(snap: &Self::Snapshot, ops: &[Self::Read]) -> Vec<Self::Reply> {
        Kd::answer_batch(snap, ops)
    }

    fn read_shards(snap: &Self::Snapshot, op: &Self::Read, out: &mut Vec<usize>) {
        Kd::read_shards(snap, op, out)
    }

    fn apply(&self, batch: Vec<Self::Edit>) -> isize {
        Sharded::apply(self, batch)
    }

    fn apply_validated(
        &self,
        base: &Self::Snapshot,
        read_shards: &[usize],
        batch: Vec<Self::Edit>,
    ) -> Result<isize, EpochConflict> {
        Sharded::apply_validated(self, base, read_shards, batch)
    }
}

impl<K, V, M> ServeKind<M> for Map<K, V>
where
    K: Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    M: MapMutOps<K, V>,
{
    type Read = MapRead<K>;
    type Reply = MapReply<K, V>;

    fn answer(snap: &Snapshot<M, Self>, op: &MapRead<K>) -> MapReply<K, V> {
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

    fn read_shards(snap: &Snapshot<M, Self>, op: &MapRead<K>, out: &mut Vec<usize>) {
        match op {
            MapRead::Get(k) | MapRead::Contains(k) => out.push(snap.shard_of(k)),
            MapRead::Scan { .. } | MapRead::Len => out.extend(0..snap.shard_count()),
        }
    }
}

impl<T, S> ServeKind<S> for Set<T>
where
    T: Hash + Clone + Send + Sync + 'static,
    S: SetMutOps<T>,
{
    type Read = SetRead<T>;
    type Reply = SetReply<T>;

    fn answer(snap: &Snapshot<S, Self>, op: &SetRead<T>) -> SetReply<T> {
        match op {
            SetRead::Contains(v) => SetReply::Bool(snap.contains(v)),
            SetRead::Scan { limit } => SetReply::Elems(snap.iter().take(*limit).cloned().collect()),
            SetRead::Len => SetReply::Count(snap.len()),
        }
    }

    fn read_shards(snap: &Snapshot<S, Self>, op: &SetRead<T>, out: &mut Vec<usize>) {
        match op {
            SetRead::Contains(v) => out.push(snap.shard_of(v)),
            SetRead::Scan { .. } | SetRead::Len => out.extend(0..snap.shard_count()),
        }
    }
}

impl<K, V, M> ServeKind<M> for MultiMap<K, V>
where
    K: Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    M: MultiMapMutOps<K, V>,
{
    type Read = MultiMapRead<K, V>;
    type Reply = MultiMapReply<K, V>;

    fn answer(snap: &Snapshot<M, Self>, op: &MultiMapRead<K, V>) -> MultiMapReply<K, V> {
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

    /// Looks up every key the batch's `ValuesOf`, `ContainsKey`,
    /// `ContainsTuple` and `FanOut` ops probe with one
    /// [`get_many`](trie_common::ops::MultiMapOps::get_many) per shard, then
    /// builds the replies in op order; `Scan` and `TupleCount` take the
    /// per-op path. The replies are those of [`ServeKind::answer`].
    fn answer_batch(
        snap: &Snapshot<M, Self>,
        ops: &[MultiMapRead<K, V>],
    ) -> Vec<MultiMapReply<K, V>> {
        // Every probed key, numbered in op order and grouped by shard.
        let probed = ops.iter().map(|op| probed_keys(op).len()).sum();
        let mut routed: Vec<(usize, usize, &K)> = Vec::with_capacity(probed);
        routed.extend(
            ops.iter()
                .flat_map(probed_keys)
                .enumerate()
                .map(|(at, key)| (snap.shard_of(key), at, key)),
        );
        routed.sort_unstable_by_key(|&(shard, at, _)| (shard, at));
        let keys: Vec<&K> = routed.iter().map(|&(_, _, key)| key).collect();
        let mut found = Vec::with_capacity(keys.len());
        let mut start = 0;
        for run in routed.chunk_by(|a, b| a.0 == b.0) {
            let end = start + run.len();
            snap.shard(run[0].0).get_many(&keys[start..end], &mut found);
            start = end;
        }
        // `found[j]` answers `routed[j]`; take the answers in op order.
        let mut rank = vec![0; routed.len()];
        for (j, &(_, at, _)) in routed.iter().enumerate() {
            rank[at] = j;
        }
        let mut answers = rank.into_iter().map(|j| found[j].take());
        let mut next = || answers.next().expect("one answer per probed key");
        let values =
            |vs: Option<M::Values<'_>>| vs.map_or_else(Vec::new, |vs| vs.iter().cloned().collect());
        ops.iter()
            .map(|op| match op {
                MultiMapRead::ValuesOf(_) => MultiMapReply::Values(values(next())),
                MultiMapRead::FanOut(keys) => MultiMapReply::FanOut(
                    keys.iter().map(|k| (k.clone(), values(next()))).collect(),
                ),
                MultiMapRead::ContainsKey(_) => MultiMapReply::Bool(next().is_some()),
                MultiMapRead::ContainsTuple(_, v) => {
                    MultiMapReply::Bool(next().is_some_and(|vs| vs.contains(v)))
                }
                MultiMapRead::Scan { .. } | MultiMapRead::TupleCount => Self::answer(snap, op),
            })
            .collect()
    }

    fn read_shards(snap: &Snapshot<M, Self>, op: &MultiMapRead<K, V>, out: &mut Vec<usize>) {
        match op {
            MultiMapRead::Scan { .. } | MultiMapRead::TupleCount => {
                out.extend(0..snap.shard_count())
            }
            _ => out.extend(probed_keys(op).iter().map(|k| snap.shard_of(k))),
        }
    }
}

/// The keys a multi-map read looks up one by one: none for `Scan` and
/// `TupleCount`.
fn probed_keys<K, V>(op: &MultiMapRead<K, V>) -> &[K] {
    match op {
        MultiMapRead::ValuesOf(k)
        | MultiMapRead::ContainsKey(k)
        | MultiMapRead::ContainsTuple(k, _) => std::slice::from_ref(k),
        MultiMapRead::FanOut(keys) => keys,
        MultiMapRead::Scan { .. } | MultiMapRead::TupleCount => &[],
    }
}
