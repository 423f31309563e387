//! The one generic sharded store, [`Sharded<C, Kd>`], and its pinned
//! [`Snapshot<C, Kd>`].
//!
//! Everything that does not depend on collection semantics lives here
//! exactly once: key routing, epoch pinning, the group-by-shard batch path
//! (with optional epoch validation), the scoped-thread parallel
//! build/extend/diff/combine drivers, and the snapshot accessors. The kind
//! marker `Kd` supplies the rest through the [`crate::kind`] traits; the
//! per-kind modules add only their query and algebra methods.

use std::marker::PhantomData;
use std::sync::Arc;
use std::thread;

use trie_common::ops::{Builder, TransientOps};

use crate::default_shard_count;
use crate::kind::{DiffKind, EditKind, ShardKind};
use crate::partition::{partition_by, Partition};
use crate::publish::{EpochCell, EpochConflict, EpochCore};

/// A concurrent collection: `N` persistent tries `C` (one per slice of the
/// key space) published under one global epoch sequence, with the kind
/// marker `Kd` ([`crate::Map`], [`crate::Set`] or [`crate::MultiMap`])
/// fixing the semantics. Usually named through its aliases
/// [`ShardedMap`](crate::ShardedMap), [`ShardedSet`](crate::ShardedSet)
/// and [`ShardedMultiMap`](crate::ShardedMultiMap).
///
/// Writers batch edits into shard-local successors built through the
/// `_mut` protocol and publish with one pointer swap (a multi-shard batch
/// commits as **one** epoch); readers pin [`Snapshot`]s and query them
/// lock-free.
pub struct Sharded<C, Kd> {
    cell: EpochCell<C>,
    partition: Partition,
    _kind: PhantomData<fn() -> Kd>,
}

/// An immutable pinned epoch of a [`Sharded`] store: one frozen persistent
/// trie per shard, all captured at a single global publication point.
/// Every query is lock-free; the snapshot stays valid (and unchanged) no
/// matter what writers publish afterwards.
pub struct Snapshot<C, Kd> {
    pin: Arc<EpochCore<C>>,
    _kind: PhantomData<fn() -> Kd>,
}

impl<C, Kd> Sharded<C, Kd> {
    /// Builds a store from one collection per shard.
    pub(crate) fn from_parts(partition: Partition, parts: impl IntoIterator<Item = C>) -> Self {
        Sharded {
            cell: EpochCell::new(partition, parts),
            partition,
            _kind: PhantomData,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.partition.count()
    }

    /// Pins the current epoch: every shard at one global publication point
    /// (one `Arc` clone, no per-shard loads). All queries on the snapshot
    /// are lock-free, and any two reads answered from the same snapshot
    /// are mutually consistent — including across shards.
    pub fn snapshot(&self) -> Snapshot<C, Kd> {
        Snapshot::of(self.cell.pin())
    }

    /// Blocks until the published epoch advances past `epoch`, then returns
    /// the new pinned snapshot (the long-poll/subscription primitive).
    pub fn snapshot_after(&self, epoch: u64) -> Snapshot<C, Kd> {
        Snapshot::of(self.cell.wait_past(epoch))
    }

    /// The global publication epoch (bumps once per commit, however many
    /// shards the commit touched); cheap staleness check for cached
    /// readers.
    pub fn current_epoch(&self) -> u64 {
        self.cell.pin().epoch
    }

    /// Folds a read over every shard of one pinned epoch (the aggregate
    /// counts; consistent because the pin is).
    pub(crate) fn sum(&self, f: impl Fn(&C) -> usize) -> usize {
        self.snapshot().sum(f)
    }
}

impl<C, Kd: ShardKind<C>> Sharded<C, Kd> {
    /// Creates an empty store with one shard per available CPU (rounded up
    /// to a power of two).
    pub fn new() -> Self {
        Self::with_shards(default_shard_count())
    }

    /// Creates an empty store over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics unless `shards` is a power of two in
    /// `1..=`[`crate::MAX_SHARDS`].
    pub fn with_shards(shards: usize) -> Self {
        let partition = Partition::new(shards);
        Self::from_parts(partition, (0..shards).map(|_| Kd::empty()))
    }

    /// The shard a key routes to (top bits of its 32-bit trie hash).
    pub fn shard_of(&self, key: &Kd::Key) -> usize {
        self.partition.shard_of(key)
    }

    /// True if no shard holds an element (over one pinned epoch).
    pub fn is_empty(&self) -> bool {
        self.sum(Kd::count) == 0
    }

    /// The current snapshot of the shard `key` routes to (point reads that
    /// need only one shard).
    pub(crate) fn shard_now(&self, key: &Kd::Key) -> Arc<C> {
        self.cell.load(self.shard_of(key))
    }
}

impl<C: Clone, Kd> Sharded<C, Kd> {
    /// One single-shard clone-edit-publish under the shard's write lock.
    pub(crate) fn edit_shard<R>(&self, index: usize, edit: impl FnOnce(&mut C) -> R) -> R {
        self.cell.update(index, |c| {
            let mut next = c.clone();
            let out = edit(&mut next);
            (next, out)
        })
    }
}

impl<C: Clone, Kd: EditKind<C>> Sharded<C, Kd> {
    /// Applies a batch of edits: groups them by shard (preserving input
    /// order within each shard), stages every group on a shard-local
    /// successor through the `_mut` protocol, and publishes all touched
    /// shards as **one** epoch — a pinned reader observes either none or
    /// all of the batch, even across shards. Returns the total count delta.
    ///
    /// Concurrent `apply` calls to disjoint shards stage fully in
    /// parallel; calls touching the same shard serialize on that shard's
    /// write lock, and only the pointer swap itself serializes globally.
    pub fn apply<I: IntoIterator<Item = Kd::Edit>>(&self, batch: I) -> isize {
        self.commit(batch, None)
            .expect("unvalidated commit cannot conflict")
    }

    /// Optimistically applies `batch` against the epoch pinned by `base`:
    /// the commit succeeds only if every shard the batch writes — plus
    /// every shard in `read_shards` (the shards a transaction read from) —
    /// is still at the version `base` pinned. On conflict nothing is
    /// staged; re-pin and retry.
    pub fn apply_validated<I: IntoIterator<Item = Kd::Edit>>(
        &self,
        base: &Snapshot<C, Kd>,
        read_shards: &[usize],
        batch: I,
    ) -> Result<isize, EpochConflict> {
        self.commit(batch, Some((&base.pin, read_shards)))
    }

    fn commit(
        &self,
        batch: impl IntoIterator<Item = Kd::Edit>,
        validate: Option<(&EpochCore<C>, &[usize])>,
    ) -> Result<isize, EpochConflict> {
        let mut groups: Vec<Vec<Kd::Edit>> = (0..self.shard_count()).map(|_| Vec::new()).collect();
        for edit in batch {
            groups[self.shard_of(Kd::edit_key(&edit))].push(edit);
        }
        let touched: Vec<usize> = (0..groups.len())
            .filter(|&i| !groups[i].is_empty())
            .collect();
        let deltas = self
            .cell
            .update_many(&touched, validate, |index, current| {
                let mut next = current.clone();
                let d = std::mem::take(&mut groups[index])
                    .into_iter()
                    .map(|e| Kd::apply_mut(&mut next, e))
                    .sum::<isize>();
                (next, d)
            })?;
        Ok(deltas.into_iter().sum())
    }
}

impl<C: Send, Kd: ShardKind<C>> Sharded<C, Kd> {
    /// Bulk-builds a store: partitions the elements by shard, then builds
    /// every shard **in parallel** (one scoped worker thread per non-empty
    /// shard) through the transient builder protocol.
    pub fn build_parallel(shards: usize, elems: impl IntoIterator<Item = Kd::Elem>) -> Self
    where
        C: TransientOps<Kd::Elem>,
        Kd::Elem: Send,
    {
        let parts = partition_by(shards, elems, Kd::elem_key);
        Self::built_from_parts(Partition::new(shards), parts)
    }

    /// The parallel bulk-build driver behind [`Sharded::build_parallel`]
    /// and the snapshot restore: one scoped worker thread per *non-empty*
    /// part (empty shards are created inline — no point spawning a thread
    /// to build nothing).
    pub(crate) fn built_from_parts(partition: Partition, parts: Vec<Vec<Kd::Elem>>) -> Self
    where
        C: TransientOps<Kd::Elem>,
        Kd::Elem: Send,
    {
        assert_eq!(parts.len(), partition.count(), "one partition per shard");
        let built: Vec<C> = thread::scope(|scope| {
            let workers: Vec<_> = parts
                .into_iter()
                .map(|part| (!part.is_empty()).then(|| scope.spawn(move || C::built_from(part))))
                .collect();
            workers
                .into_iter()
                .map(|worker| match worker {
                    Some(handle) => handle.join().expect("shard builder panicked"),
                    None => C::built_from(Vec::new()),
                })
                .collect()
        });
        Self::from_parts(partition, built)
    }
}

impl<C: Send + Sync, Kd: ShardKind<C>> Sharded<C, Kd> {
    /// Bulk-extends in place: partitions the batch, then every touched
    /// shard clones its snapshot into a transient, bulk-inserts its slice
    /// on a scoped worker thread, and publishes as its own epoch. Returns
    /// how many insertions reported growth.
    pub fn extend_parallel(&self, elems: impl IntoIterator<Item = Kd::Elem>) -> usize
    where
        C: TransientOps<Kd::Elem> + Clone,
        Kd::Elem: Send,
    {
        let parts = partition_by(self.shard_count(), elems, Kd::elem_key);
        let touched = parts.into_iter().enumerate().filter(|(_, p)| !p.is_empty());
        let grew = parallel(touched, |(index, part)| {
            self.cell.update(index, |c| {
                let mut t = c.clone().transient();
                let grew = t.insert_all_mut(part);
                (t.build(), grew)
            })
        });
        grew.into_iter().sum()
    }

    /// The element-level delta since `since` (`since` old, current state
    /// new). Shards whose publication counter is unchanged are skipped
    /// outright; each changed shard is diffed structurally on its own
    /// scoped worker thread, so the cost tracks the number of edited
    /// elements, not the collection size.
    ///
    /// # Panics
    ///
    /// Panics if `since` was pinned from a store with a different
    /// partition.
    pub fn changes_since(&self, since: &Snapshot<C, Kd>) -> Kd::Diff
    where
        Kd: DiffKind<C>,
        Kd::Diff: Send,
    {
        assert_eq!(
            self.partition, since.pin.partition,
            "snapshot pinned from a store with a different partition"
        );
        let now = self.cell.pin();
        let changed = now
            .shards
            .iter()
            .zip(since.pin.shards.iter())
            .filter(|((version, _), (old_version, _))| version != old_version);
        Kd::merge(parallel(changed, |((_, current), (_, old))| {
            Kd::diff(old, current)
        }))
    }

    /// Combines two stores pairwise into a new one, one scoped worker per
    /// shard pair (the parallel drive behind the sharded set algebra).
    /// Each operand contributes one pinned epoch.
    ///
    /// # Panics
    ///
    /// Panics if the two stores have different partitions.
    pub(crate) fn combine(&self, other: &Self, combine: impl Fn(&C, &C) -> C + Sync) -> Self {
        assert_eq!(
            self.partition, other.partition,
            "sharded algebra requires operands with the same partition"
        );
        let (left, right) = (self.cell.pin(), other.cell.pin());
        let pairs = left.shards.iter().zip(right.shards.iter());
        let combined = parallel(pairs, |((_, a), (_, b))| combine(a, b));
        Self::from_parts(self.partition, combined)
    }
}

/// Runs `f` on every item, one scoped worker thread each, and returns the
/// results in item order.
fn parallel<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let f = &f;
    thread::scope(|scope| {
        let workers: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("shard worker panicked"))
            .collect()
    })
}

impl<C, Kd: ShardKind<C>> Default for Sharded<C, Kd> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C, Kd: ShardKind<C>> std::fmt::Debug for Sharded<C, Kd> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sharded")
            .field("kind", &Kd::KIND)
            .field("shards", &self.shard_count())
            .field("count", &self.sum(Kd::count))
            .finish()
    }
}

impl<C, Kd> Clone for Snapshot<C, Kd> {
    fn clone(&self) -> Self {
        Snapshot::of(Arc::clone(&self.pin))
    }
}

impl<C, Kd> Snapshot<C, Kd> {
    fn of(pin: Arc<EpochCore<C>>) -> Self {
        Snapshot {
            pin,
            _kind: PhantomData,
        }
    }

    /// The global epoch this snapshot was pinned at.
    pub fn epoch(&self) -> u64 {
        self.pin.epoch
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.pin.shards.len()
    }

    /// Borrow of one shard's frozen trie (e.g. to run per-shard analytics).
    pub fn shard(&self, index: usize) -> &C {
        &self.pin.shards[index].1
    }

    /// Every shard's frozen trie, in shard order (what the flattened
    /// element iterators and the snapshot encoder walk).
    pub(crate) fn shards(&self) -> impl Iterator<Item = &C> {
        self.pin.shards.iter().map(|(_, c)| &**c)
    }

    pub(crate) fn sum(&self, f: impl Fn(&C) -> usize) -> usize {
        self.shards().map(f).sum()
    }
}

impl<C, Kd: ShardKind<C>> Snapshot<C, Kd> {
    /// The shard a key routes to.
    pub fn shard_of(&self, key: &Kd::Key) -> usize {
        self.pin.partition.shard_of(key)
    }

    /// The frozen trie of the shard `key` routes to.
    pub(crate) fn shard_for(&self, key: &Kd::Key) -> &C {
        self.shard(self.shard_of(key))
    }

    /// True if the snapshot holds no elements.
    pub fn is_empty(&self) -> bool {
        self.sum(Kd::count) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardedMultiMap, ShardedSet};
    use trie_common::ops::{MultiMapEdit, SetEdit};

    /// `count` distinct elements that all route to shard `target` of
    /// `shards`.
    fn routed_to(shards: usize, target: usize, count: usize) -> Vec<u32> {
        let partition = Partition::new(shards);
        (0u32..)
            .filter(|v| partition.shard_of(v) == target)
            .take(count)
            .collect()
    }

    #[test]
    fn build_parallel_skips_threads_for_empty_parts() {
        // 3 of 4 partitions empty: must still produce 4 shards, with the
        // empty ones built inline.
        let set: ShardedSet<u32> = ShardedSet::build_parallel(4, routed_to(4, 0, 3));
        assert_eq!(set.shard_count(), 4);
        let snap = set.snapshot();
        assert_eq!(snap.shard(0).len(), 3);
        assert!((1..4).all(|i| snap.shard(i).is_empty()));
    }

    #[test]
    fn apply_grouped_routes_sums_and_publishes_one_epoch() {
        let mm: ShardedMultiMap<u32, u32> = ShardedMultiMap::with_shards(2);
        let (a, b) = (routed_to(2, 0, 1)[0], routed_to(2, 1, 1)[0]);
        let delta = mm.apply([
            MultiMapEdit::Insert(a, 1),
            MultiMapEdit::Insert(b, 1),
            MultiMapEdit::Insert(b, 2),
            MultiMapEdit::Insert(a, 2),
            // Order within a shard preserves input order: the removal
            // sees the insert just before it.
            MultiMapEdit::RemoveTuple(b, 2),
        ]);
        assert_eq!(delta, 3);
        let snap = mm.snapshot();
        assert_eq!(snap.epoch(), 1, "two shards touched, one epoch");
        assert_eq!(snap.shard(0).tuple_count(), 2);
        assert_eq!(snap.shard(1).tuple_count(), 1);
    }

    #[test]
    fn validated_apply_conflicts_on_read_shards_too() {
        let set: ShardedSet<u32> = ShardedSet::with_shards(2);
        let (read, write) = (routed_to(2, 0, 2), routed_to(2, 1, 1)[0]);
        let base = set.snapshot();
        // Concurrent writer republishes shard 0.
        set.apply([SetEdit::Insert(read[0])]);
        // Writing only shard 1, but having read shard 0 at the base pin:
        // the commit must conflict.
        let err = set
            .apply_validated(&base, &[0], [SetEdit::Insert(write)])
            .unwrap_err();
        assert_eq!(err.shard, 0);
        // Against a fresh pin the same commit goes through.
        let fresh = set.snapshot();
        assert_eq!(
            set.apply_validated(&fresh, &[0], [SetEdit::Insert(write)]),
            Ok(1)
        );
    }
}
