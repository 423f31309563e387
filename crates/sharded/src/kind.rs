//! The per-kind vocabulary of [`Sharded`](crate::Sharded): what a map, a
//! set and a multi-map each contribute to the one generic store.
//!
//! A kind is a zero-sized marker ([`crate::Map`], [`crate::Set`],
//! [`crate::MultiMap`]) implementing these traits for its shard collection
//! `C`. The traits are split by the trie capability they need, so each
//! generic method of the store asks for exactly what it uses: building and
//! reading need only [`ShardKind`], writes [`EditKind`] (the `_mut`
//! family), deltas [`DiffKind`] (structural diff), saves [`SaveKind`]
//! (serializable elements).

use std::hash::Hash;

use trie_common::snapshot::{Kind, Section, SnapshotError};

/// The kind-specific facts every store operation needs: the routing key,
/// the element shape bulk builds and restores consume, and the snapshot
/// tag.
pub trait ShardKind<C>: Sized {
    /// What an element or edit routes on: the key for maps and multi-maps,
    /// the element itself for sets.
    type Key: Hash;
    /// One owned element: `(K, V)` for maps and multi-maps, `T` for sets.
    type Elem;
    /// The shape tag a saved snapshot carries.
    const KIND: Kind;

    /// An empty shard.
    fn empty() -> C;
    /// The shard's element count (entries, elements or tuples).
    fn count(shard: &C) -> usize;
    /// The key `elem` routes on.
    fn elem_key(elem: &Self::Elem) -> &Self::Key;
}

/// The write vocabulary: one scripted edit and how a shard applies it.
pub trait EditKind<C>: ShardKind<C> {
    /// One scripted edit (the `*Edit` enums of [`trie_common::ops`]).
    type Edit;
    /// The key `edit` routes on.
    fn edit_key(edit: &Self::Edit) -> &Self::Key;
    /// Applies `edit` to `shard` in place; returns the count delta.
    fn apply_mut(shard: &mut C, edit: Self::Edit) -> isize;
}

/// The delta vocabulary behind `changes_since`.
pub trait DiffKind<C>: ShardKind<C> {
    /// The element-level delta between two versions of the collection.
    type Diff;
    /// The delta from `old` to `new` of one shard.
    fn diff(old: &C, new: &C) -> Self::Diff;
    /// Concatenates per-shard deltas (keys never span shards, so no
    /// element appears in two parts).
    fn merge(parts: Vec<Self::Diff>) -> Self::Diff;
}

/// The save vocabulary: the element stream one snapshot section encodes.
pub trait SaveKind<C>: ShardKind<C> {
    /// Encodes every element of `shard` as one snapshot section.
    fn encode(shard: &C) -> Result<Section, SnapshotError>;
}
