//! The set kind: [`Set`], the [`ShardedSet`] / [`SetSnapshot`] aliases, and
//! the membership queries and set algebra on top of the generic
//! [`Sharded`] store.

use std::hash::Hash;
use std::marker::PhantomData;

use axiom::AxiomSet;
use serde::Serialize;
use trie_common::ops::{SetAlgebraOps, SetDiff, SetEdit, SetMutOps, SetOps};
use trie_common::snapshot::{encode_section, Kind, Section, SnapshotError};

use crate::kind::{DiffKind, EditKind, SaveKind, ShardKind};
use crate::{Sharded, Snapshot};

/// The kind marker of sets: elements `T`.
pub struct Set<T>(PhantomData<fn() -> T>);

/// A concurrent set: `N` persistent trie sets published under one global
/// epoch sequence. Defaults to [`AxiomSet`] shards.
///
/// # Examples
///
/// ```
/// use sharded::ShardedSet;
///
/// let s: ShardedSet<u32> = ShardedSet::with_shards(2);
/// s.insert(7);
/// let snap = s.snapshot();
/// s.remove(&7);
/// assert!(snap.contains(&7)); // the snapshot is unaffected
/// assert!(s.is_empty());
/// ```
pub type ShardedSet<T, S = AxiomSet<T>> = Sharded<S, Set<T>>;

/// An immutable pinned epoch of a [`ShardedSet`].
pub type SetSnapshot<T, S = AxiomSet<T>> = Snapshot<S, Set<T>>;

impl<T: Hash, S: SetOps<T>> ShardKind<S> for Set<T> {
    type Key = T;
    type Elem = T;
    const KIND: Kind = Kind::Set;

    fn empty() -> S {
        S::empty()
    }

    fn count(shard: &S) -> usize {
        shard.len()
    }

    fn elem_key(elem: &T) -> &T {
        elem
    }
}

impl<T: Hash, S: SetMutOps<T>> EditKind<S> for Set<T> {
    type Edit = SetEdit<T>;

    fn edit_key(edit: &SetEdit<T>) -> &T {
        edit.key()
    }

    fn apply_mut(shard: &mut S, edit: SetEdit<T>) -> isize {
        shard.apply_mut(edit)
    }
}

impl<T: Hash + Clone, S: SetAlgebraOps<T>> DiffKind<S> for Set<T> {
    type Diff = SetDiff<T>;

    fn diff(old: &S, new: &S) -> SetDiff<T> {
        old.diff(new)
    }

    fn merge(parts: Vec<SetDiff<T>>) -> SetDiff<T> {
        let mut out = SetDiff::new();
        for d in parts {
            out.added.extend(d.added);
            out.removed.extend(d.removed);
        }
        out
    }
}

impl<T: Hash + Serialize, S: SetOps<T>> SaveKind<S> for Set<T> {
    fn encode(shard: &S) -> Result<Section, SnapshotError> {
        encode_section(shard.iter())
    }
}

impl<T: Hash, S: SetOps<T>> ShardedSet<T, S> {
    /// Number of elements (over one pinned epoch).
    pub fn len(&self) -> usize {
        self.sum(S::len)
    }

    /// Membership test against the current shard snapshot.
    pub fn contains(&self, value: &T) -> bool {
        self.shard_now(value).contains(value)
    }
}

impl<T: Hash, S: SetMutOps<T>> ShardedSet<T, S> {
    /// Inserts `value`. Returns true if the set grew.
    pub fn insert(&self, value: T) -> bool {
        self.edit_shard(self.shard_of(&value), |s| s.insert_mut(value))
    }

    /// Removes `value`. Returns true if the set shrank.
    pub fn remove(&self, value: &T) -> bool {
        self.edit_shard(self.shard_of(value), |s| s.remove_mut(value))
    }
}

impl<T, S> ShardedSet<T, S>
where
    T: Hash + Clone + Send,
    S: SetAlgebraOps<T> + Send + Sync,
{
    /// Pairwise shard union with `other`, one scoped worker per shard pair,
    /// each running the underlying trie's structural (sharing-aware) union.
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different shard counts.
    pub fn union_with(&self, other: &Self) -> Self {
        self.combine(other, |a, b| a.union(b))
    }

    /// Pairwise shard intersection with `other` (see
    /// [`ShardedSet::union_with`]).
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different shard counts.
    pub fn intersect_with(&self, other: &Self) -> Self {
        self.combine(other, |a, b| a.intersect(b))
    }

    /// Pairwise shard difference with `other` (see
    /// [`ShardedSet::union_with`]).
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different shard counts.
    pub fn difference_with(&self, other: &Self) -> Self {
        self.combine(other, |a, b| a.difference(b))
    }
}

impl<T: Hash, S: SetOps<T>> SetSnapshot<T, S> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.sum(S::len)
    }

    /// Membership test.
    pub fn contains(&self, value: &T) -> bool {
        self.shard_for(value).contains(value)
    }

    /// Iterates all elements, shard by shard.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.shards().flat_map(S::iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_semantics_across_shards() {
        let s: ShardedSet<u32> = ShardedSet::with_shards(4);
        assert!(s.insert(1));
        assert!(!s.insert(1));
        assert!(s.contains(&1));
        assert_eq!(
            s.apply([SetEdit::Insert(2), SetEdit::Insert(3), SetEdit::Remove(1)]),
            1
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn parallel_build_and_frozen_snapshots() {
        let s: ShardedSet<u32> = ShardedSet::build_parallel(8, 0..2000);
        assert_eq!(s.len(), 2000);
        let snap = s.snapshot();
        assert_eq!(snap.iter().count(), 2000);
        assert_eq!(s.extend_parallel(2000..2500), 500);
        assert_eq!(snap.len(), 2000);
        assert_eq!(s.len(), 2500);
        for v in 0..2500 {
            assert!(s.contains(&v));
        }
    }

    #[test]
    fn validated_apply_roundtrip() {
        let s: ShardedSet<u32> = ShardedSet::with_shards(4);
        let base = s.snapshot();
        assert_eq!(s.apply_validated(&base, &[], [SetEdit::Insert(1)]), Ok(1));
        // base is now stale for shard_of(1): a second validated write to the
        // same shard must conflict.
        let shard = s.shard_of(&1);
        let err = s
            .apply_validated(&base, &[shard], [SetEdit::Insert(1)])
            .unwrap_err();
        assert_eq!(err.shard, shard);
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<ShardedSet<u32>>();
        check::<SetSnapshot<u32>>();
    }
}
