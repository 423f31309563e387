//! Dense slot-array editing helpers, and the copy-on-write steps of the one
//! edit walk every trie in the workspace runs (AXIOM's map, set and
//! multi-map; the CHAMP map and set; the HAMT and memoizing HAMT maps).
//!
//! The slice helpers are the owned family (`inserted_at_owned`,
//! `removed_at_owned`, `migrate_map`): the caller holds the slot array
//! uniquely (a fused bag's inline values, or a HAMT node via
//! `Arc::get_mut`), so slots are *moved*, never cloned, and
//! arity-preserving edits reuse the existing allocation. A shared HAMT
//! node is rebuilt once from its borrowed slots by the copying helpers
//! behind [`CowNode`] for `Arc<N>`.
//!
//! Every edit (`insert_mut`, `remove_mut`, …, and the persistent
//! `inserted`/`removed` built on them) is one recursive walk over a node
//! handle: `&mut Packed` for the one-allocation AXIOM and CHAMP nodes
//! ([`crate::packed`]), `&mut Arc<Node>` for the HAMTs' [`SlotNode`] (a
//! bitmap plus a `Box<[Slot]>` array, whose one bitmap marks a mixed
//! run). Both handles are a [`CowNode`], and
//! the functions below are the steps where the walk meets a node it may
//! share with another handle:
//!
//! * [`edit_child`] descends. Under a uniquely-owned node the child handle
//!   is edited where it stands; under a shared node the walk edits a clone
//!   of the handle, so everything below reads as shared, and copies this
//!   node only when the child reports a change.
//! * [`insert_slot`] and [`remove_slot`] change a node's arity. A unique
//!   node moves its slots into one new array; a shared node is rebuilt
//!   once from its borrowed slots, never copied first and resized after.
//! * [`survivor`] hands the last payload of a collapsing node to its
//!   parent: moved out of a unique node, cloned out of a shared one.
//!
//! Arity-preserving edits (value replacement, slot-kind migration) need no
//! helper: the walk decides the outcome from the borrowed node, returns
//! early on a no-op, and otherwise edits the node behind `make_mut` (with
//! the owned helpers, or `Packed::migrate`). So does every collision-node
//! edit. The shape rules stay with each trie: AXIOM, CHAMP and the
//! memoizing HAMT inline a collapsed sub-trie on delete, the Clojure-style
//! HAMT leaves degenerate paths in place.

use std::sync::Arc;

/// A handle to a trie node that the copy-on-write walk reshapes: an
/// `Arc` around a node with a `Box<[Slot]>` array (any [`SlotNode`]), or a
/// one-allocation [`Packed`](crate::packed::Packed) node. Only bitmap
/// nodes go through these methods; the walk edits a collision node
/// directly.
pub trait CowNode: Clone {
    /// The node's branch bitmap: AXIOM's 2-bit `SlotBitmap`, CHAMP's
    /// `(datamap, nodemap)` pair, the HAMT's single `u32`.
    type Bitmap: Copy;

    /// One slot, by value.
    type Slot;

    /// The sub-trie handle in slot `idx`.
    fn child(&self, idx: usize) -> &Self;

    /// The sub-trie handle in slot `idx`, if this handle is the node's only
    /// owner, so that the child can be edited where it stands.
    fn unique_child(&mut self, idx: usize) -> Option<&mut Self>;

    /// Stores `child` in slot `idx` of a node this handle shares, by
    /// copying the node.
    fn copy_with_child(&mut self, idx: usize, child: Self);

    /// Installs `bitmap` and inserts `slot` at `idx`, or removes the slot at
    /// `idx` when `slot` is `None`: a unique node's slots move into the
    /// resized node, a shared node's are cloned into it.
    fn resize(&mut self, bitmap: Self::Bitmap, idx: usize, slot: Option<Self::Slot>);

    /// Slot `keep` of a two-slot node: moved out of a unique node (left
    /// empty, for the parent to drop), cloned out of a shared one.
    fn take_slot(&mut self, keep: usize) -> Self::Slot;
}

/// Runs `edit` on the child handle in slot `idx` and returns its outcome.
/// Under a unique node the handle is edited in place. Under a shared node
/// `edit` gets a clone of the handle, and this node is copied to store the
/// edited child only when `store` accepts the outcome.
#[inline]
pub fn edit_child<N: CowNode, R>(
    this: &mut N,
    idx: usize,
    edit: impl FnOnce(&mut N) -> R,
    store: impl FnOnce(&R) -> bool,
) -> R {
    if let Some(child) = this.unique_child(idx) {
        return edit(child);
    }
    edit_shared_child(this, idx, edit, store)
}

/// The shared-node half of [`edit_child`]. It stays out of line so that
/// the unique descent, which every transient edit takes, keeps no copied
/// handle in its frame: inlined, it made CHAMP and HAMT builds with
/// reference-counted values about 10 % slower.
#[inline(never)]
fn edit_shared_child<N: CowNode, R>(
    this: &mut N,
    idx: usize,
    edit: impl FnOnce(&mut N) -> R,
    store: impl FnOnce(&R) -> bool,
) -> R {
    let mut child = this.child(idx).clone();
    let outcome = edit(&mut child);
    if store(&outcome) {
        this.copy_with_child(idx, child);
    }
    outcome
}

/// Installs `bitmap` and inserts `slot` at `idx`.
#[inline]
pub fn insert_slot<N: CowNode>(this: &mut N, bitmap: N::Bitmap, idx: usize, slot: N::Slot) {
    this.resize(bitmap, idx, Some(slot));
}

/// Installs `bitmap` and removes the slot at `idx`.
#[inline]
pub fn remove_slot<N: CowNode>(this: &mut N, bitmap: N::Bitmap, idx: usize) {
    this.resize(bitmap, idx, None);
}

/// The other slot of a two-slot node whose slot `gone` is removed. A
/// unique node gives it up by move (and is left empty, for the parent to
/// drop); a shared node is left as it is and the slot cloned.
#[inline]
pub fn survivor<N: CowNode>(this: &mut N, gone: usize) -> N::Slot {
    this.take_slot(1 - gone)
}

/// A trie node stored as a bitmap plus a `Box<[Slot]>` array, whose
/// `Arc` handle is a [`CowNode`].
pub trait SlotNode: Clone {
    /// The node's branch bitmap.
    type Bitmap: Copy;

    /// One physical slot.
    type Slot: Clone;

    /// The bitmap node's bitmap and slot array.
    fn parts(&self) -> (Self::Bitmap, &[Self::Slot]);

    /// The bitmap node's slot array, mutably.
    fn slots_mut(&mut self) -> &mut Box<[Self::Slot]>;

    /// A bitmap node of the given parts.
    fn of_parts(bitmap: Self::Bitmap, slots: Box<[Self::Slot]>) -> Self;

    /// The sub-trie handle a child slot holds.
    fn child(slot: &Self::Slot) -> &Arc<Self>;

    /// The sub-trie handle a child slot holds, mutably.
    fn child_mut(slot: &mut Self::Slot) -> &mut Arc<Self>;
}

impl<N: SlotNode> CowNode for Arc<N> {
    type Bitmap = N::Bitmap;
    type Slot = N::Slot;

    #[inline]
    fn child(&self, idx: usize) -> &Self {
        N::child(&self.parts().1[idx])
    }

    #[inline]
    fn unique_child(&mut self, idx: usize) -> Option<&mut Self> {
        Arc::get_mut(self).map(|node| N::child_mut(&mut node.slots_mut()[idx]))
    }

    fn copy_with_child(&mut self, idx: usize, child: Self) {
        let (bitmap, slots) = self.parts();
        let mut slot = slots[idx].clone();
        *N::child_mut(&mut slot) = child;
        *self = Arc::new(N::of_parts(bitmap, replaced_at(slots, idx, slot)));
    }

    #[inline]
    fn resize(&mut self, bitmap: N::Bitmap, idx: usize, slot: Option<N::Slot>) {
        match (Arc::get_mut(self), slot) {
            (Some(node), Some(slot)) => {
                let slots = std::mem::take(node.slots_mut());
                *node = N::of_parts(bitmap, inserted_at_owned(slots, idx, slot));
            }
            (Some(node), None) => {
                let slots = std::mem::take(node.slots_mut());
                *node = N::of_parts(bitmap, removed_at_owned(slots, idx));
            }
            (None, Some(slot)) => {
                *self = Arc::new(N::of_parts(bitmap, inserted_at(self.parts().1, idx, slot)))
            }
            (None, None) => *self = Arc::new(N::of_parts(bitmap, removed_at(self.parts().1, idx))),
        }
    }

    #[inline]
    fn take_slot(&mut self, keep: usize) -> N::Slot {
        debug_assert_eq!(self.parts().1.len(), 2);
        match Arc::get_mut(self) {
            Some(node) => std::mem::take(node.slots_mut())
                .into_vec()
                .swap_remove(keep),
            None => self.parts().1[keep].clone(),
        }
    }
}

/// Returns a copy of `slots` with `item` inserted at `idx`.
pub(crate) fn inserted_at<T: Clone>(slots: &[T], idx: usize, item: T) -> Box<[T]> {
    debug_assert!(idx <= slots.len());
    let mut out = Vec::with_capacity(slots.len() + 1);
    out.extend_from_slice(&slots[..idx]);
    out.push(item);
    out.extend_from_slice(&slots[idx..]);
    out.into_boxed_slice()
}

/// Returns a copy of `slots` with the element at `idx` removed.
pub(crate) fn removed_at<T: Clone>(slots: &[T], idx: usize) -> Box<[T]> {
    debug_assert!(idx < slots.len());
    let mut out = Vec::with_capacity(slots.len() - 1);
    out.extend_from_slice(&slots[..idx]);
    out.extend_from_slice(&slots[idx + 1..]);
    out.into_boxed_slice()
}

/// Returns a copy of `slots` with the element at `idx` replaced by `item`.
/// The displaced slot is skipped, not cloned-then-overwritten.
pub(crate) fn replaced_at<T: Clone>(slots: &[T], idx: usize, item: T) -> Box<[T]> {
    debug_assert!(idx < slots.len());
    let mut out = Vec::with_capacity(slots.len());
    out.extend_from_slice(&slots[..idx]);
    out.push(item);
    out.extend_from_slice(&slots[idx + 1..]);
    out.into_boxed_slice()
}

/// Returns `slots` with `item` inserted at `idx`: consumes the slot array
/// and builds the grown one by *moving* every element (one allocation, zero
/// clones).
pub fn inserted_at_owned<T>(slots: Box<[T]>, idx: usize, item: T) -> Box<[T]> {
    debug_assert!(idx <= slots.len());
    let mut out = Vec::with_capacity(slots.len() + 1);
    let mut rest = slots.into_vec().into_iter();
    out.extend(rest.by_ref().take(idx));
    out.push(item);
    out.extend(rest);
    out.into_boxed_slice()
}

/// Returns `slots` without the element at `idx`: consumes the slot array
/// and builds the shrunk one by moving the survivors. The removed element
/// is dropped.
pub fn removed_at_owned<T>(slots: Box<[T]>, idx: usize) -> Box<[T]> {
    debug_assert!(idx < slots.len());
    let mut out = Vec::with_capacity(slots.len() - 1);
    let mut rest = slots.into_vec().into_iter();
    out.extend(rest.by_ref().take(idx));
    drop(rest.next());
    out.extend(rest);
    out.into_boxed_slice()
}

/// Moves the slot at `from` so that it lands at index `to` *of the
/// resulting array* — the data→node and node→data migrations of
/// CHAMP-style updates — inside the existing allocation, rewriting it
/// *through* `f`, which receives the old slot by value and returns its
/// replacement (`from == to` degenerates to an in-place slot transform).
pub fn migrate_map<T>(slots: &mut Box<[T]>, from: usize, to: usize, f: impl FnOnce(T) -> T) {
    debug_assert!(from < slots.len());
    debug_assert!(to < slots.len());
    let mut v = std::mem::take(slots).into_vec();
    let old = v.remove(from);
    v.insert(to, f(old));
    debug_assert_eq!(v.len(), v.capacity());
    *slots = v.into_boxed_slice();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn borrowed_family_roundtrip() {
        let base = [1, 2, 3];
        assert_eq!(&*inserted_at(&base, 1, 9), &[1, 9, 2, 3]);
        assert_eq!(&*removed_at(&base, 1), &[1, 3]);
        assert_eq!(&*replaced_at(&base, 2, 9), &[1, 2, 9]);
    }

    #[test]
    fn owned_family_moves_without_clone() {
        // Box<u32> is not bounded by Clone here: compiling proves the owned
        // family moves.
        let slots: Box<[Box<u32>]> = Box::new([Box::new(1), Box::new(2)]);
        let grown = inserted_at_owned(slots, 2, Box::new(3));
        assert_eq!(&*grown, &[Box::new(1), Box::new(2), Box::new(3)]);
        let mut slots = grown;
        migrate_map(&mut slots, 1, 1, |old| Box::new(*old * 10));
        assert_eq!(&*slots, &[Box::new(1), Box::new(20), Box::new(3)]);
        let shrunk = removed_at_owned(slots, 0);
        assert_eq!(&*shrunk, &[Box::new(20), Box::new(3)]);
    }

    #[test]
    fn owned_matches_borrowed() {
        let base: Box<[i32]> = Box::new([1, 2, 3, 4]);
        for idx in 0..=base.len() {
            assert_eq!(
                inserted_at_owned(base.clone(), idx, 9),
                inserted_at(&base, idx, 9)
            );
        }
        for idx in 0..base.len() {
            assert_eq!(removed_at_owned(base.clone(), idx), removed_at(&base, idx));
        }
        for from in 0..base.len() {
            for to in 0..base.len() {
                let mut slots = base.clone();
                migrate_map(&mut slots, from, to, |_| 9);
                let mut moved = base.to_vec();
                moved.remove(from);
                moved.insert(to, 9);
                assert_eq!(*slots, *moved, "{from}->{to}");
            }
        }
    }
}
