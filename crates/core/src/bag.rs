//! Storage strategies for the values of a `1:n` multi-mapping.
//!
//! The multi-map's `CAT2` slots associate a key with *at least two* values.
//! How those values are stored is a pluggable strategy:
//!
//! * [`AxiomSet<V>`](crate::AxiomSet) — the paper's baseline: a nested
//!   persistent set data structure;
//! * [`FusedBag<V>`] — the paper's §4.4 *fusion* variant: small value
//!   collections are stored inline (one flat allocation, no nested-set
//!   wrapper and no trie indirections), overflowing into a trie set only
//!   past [`FUSE_MAX`] elements. The paper reports fusion strictly improves
//!   runtimes "due to less memory indirections" while further shrinking
//!   footprints (×2.43 over Clojure/Scala on average).
//!
//! The [`ValueBag`] trait is sealed: the two strategies above are the ones
//! the evaluation defines; downstream code selects one via the multi-map's
//! third type parameter.
//!
//! Each strategy also picks how a key and its bag sit side by side in a
//! node's `CAT2` region ([`BagSlot::Entry`]). A nested set is stored as
//! [`SetEntry`]: the key, the set's length as a `u32` and its root pointer,
//! so a `u32` key fills what would be padding and the element of a
//! `u32 → u32` multi-map is 16 bytes, not the 24 of a `(u32, AxiomSet)`
//! pair. A multi-map hands a stored bag out as a [`BagRef`].

use std::hash::Hash;

use trie_common::algebra;

use crate::set::{self, AxiomSet};

mod sealed {
    pub trait Sealed {}
    impl<V> Sealed for crate::set::AxiomSet<V> {}
    impl<V> Sealed for super::FusedBag<V> {}
}

/// Outcome of the in-place [`ValueBag::remove_mut`].
#[derive(Debug)]
pub enum BagEdited<V> {
    /// The value was not in the bag; the bag is unchanged.
    NotFound,
    /// The value was removed in place; at least two values remain.
    Shrunk,
    /// The value was removed and exactly one value survives. The bag itself
    /// is left in a degenerate (< 2 values) state and **must be discarded**:
    /// the caller demotes the `1:n` slot to an inlined `1:1` pair holding
    /// the returned survivor.
    Single(V),
}

/// How a bag is stored next to its key in a multi-map node's `CAT2`
/// region. Implemented for both [`ValueBag`]s with no bound on `V`, so a
/// multi-map type can be named for any key and value type.
pub trait BagSlot<V>: sealed::Sealed {
    /// A key and its bag, laid out as the strategy chooses.
    type Entry<K>;
}

impl<V> BagSlot<V> for AxiomSet<V> {
    type Entry<K> = SetEntry<K, V>;
}

impl<V> BagSlot<V> for FusedBag<V> {
    type Entry<K> = (K, FusedBag<V>);
}

/// A collection of ≥ 2 values nested under one multi-map key.
///
/// This trait is sealed; see the [module documentation](self) for the two
/// implementations.
pub trait ValueBag<V>: Clone + PartialEq + BagSlot<V> {
    /// Borrowing iterator over the values.
    type Iter<'a>: Iterator<Item = &'a V>
    where
        Self: 'a,
        V: 'a;

    /// Builds a bag from two *distinct* values (promotion of a `1:1` slot).
    fn from_two(a: V, b: V) -> Self;

    /// True if the bag is a hash trie, whose [`ValueBag::from_two_hashed`]
    /// needs the values' hashes; an inline bag ignores them, so its
    /// promotion computes none.
    const HASHED: bool;

    /// [`ValueBag::from_two`] of values whose 32-bit hashes (`ha`, `hb`)
    /// the caller already computed (any value when not
    /// [`ValueBag::HASHED`]): runs no `Hash` or `Eq` of `V`, so the
    /// promotion can build the bag while it moves the slot.
    fn from_two_hashed(a: V, ha: u32, b: V, hb: u32) -> Self;

    /// Number of values (always ≥ 2 while stored in a `CAT2` slot).
    fn len(&self) -> usize;

    /// True if the bag holds no values (never the case inside a multi-map;
    /// provided for API completeness).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    fn contains(&self, value: &V) -> bool;

    /// Adds `value` in place. Returns true if the bag grew; a present value
    /// is dropped and the bag left untouched. A bag in a trie node shared
    /// with another handle is edited on the copied node's clone of it.
    fn insert_mut(&mut self, value: V) -> bool;

    /// Removes `value` in place, reporting demotion through
    /// [`BagEdited::Single`] (after which the bag is degenerate and must be
    /// discarded by the caller).
    fn remove_mut(&mut self, value: &V) -> BagEdited<V>;

    /// Iterates the values in unspecified order.
    fn iter(&self) -> Self::Iter<'_>;

    /// The bag of a set's ≥ 2 values, keeping the set's trie where the
    /// representation stores one; no value is hashed.
    fn of_set(set: AxiomSet<V>) -> Self;

    /// The `CAT2` element of `key` and `bag`.
    fn entry<K>(key: K, bag: Self) -> Self::Entry<K>;

    /// The key and bag of a `CAT2` element (inverse of [`ValueBag::entry`]).
    fn split<K>(entry: Self::Entry<K>) -> (K, Self);

    /// A clone of a `CAT2` element: `O(1)` for a stored trie.
    fn clone_entry<K: Clone>(entry: &Self::Entry<K>) -> Self::Entry<K>;

    /// The key of a `CAT2` element.
    fn key<K>(entry: &Self::Entry<K>) -> &K;

    /// The bag of a `CAT2` element, borrowed.
    fn bag<K>(entry: &Self::Entry<K>) -> BagRef<'_, V>;

    /// [`ValueBag::insert_mut`] on the bag of a `CAT2` element.
    fn insert_in<K>(entry: &mut Self::Entry<K>, value: V) -> bool;

    /// [`ValueBag::remove_mut`] on the bag of a `CAT2` element.
    fn remove_in<K>(entry: &mut Self::Entry<K>, value: &V) -> BagEdited<V>;

    /// Replaces the bag of a `CAT2` element, keeping its key.
    fn put_in<K>(entry: &mut Self::Entry<K>, bag: Self);
}

/// The value count a [`SetEntry`] stores for a set at least this long: its
/// length is then counted by walking the trie.
const LONG: u32 = u32::MAX;

/// The stored count of a set of `len` values.
fn stored_len(len: usize) -> u32 {
    u32::try_from(len).unwrap_or(LONG)
}

/// The length of the set at `root` whose stored count is `stored`.
fn decoded_len<V>(root: &set::Node<V>, stored: u32) -> usize {
    match stored {
        LONG => set::count(root),
        n => n as usize,
    }
}

/// The `CAT2` element of a multi-map with nested [`AxiomSet`]s: the key,
/// the set's length and the root of its trie, side by side (16 bytes for a
/// `u32` key). The set handle is rebuilt from the fields in `O(1)`.
///
/// A length of `u32::MAX` or more is stored as `u32::MAX` and then counted
/// by walking the trie, so this adds no limit to a set's size.
pub struct SetEntry<K, V> {
    key: K,
    len: u32,
    root: set::Node<V>,
}

impl<K, V> SetEntry<K, V> {
    /// The stored set, its length still encoded: a lookup that only needs
    /// presence or membership never decodes it.
    fn set(&self) -> BagRef<'_, V> {
        BagRef(Values::Set(&self.root, self.len))
    }
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for SetEntry<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SetEntry")
            .field(&self.key)
            .field(&self.set())
            .finish()
    }
}

impl<V: Clone + Eq + Hash> ValueBag<V> for AxiomSet<V> {
    type Iter<'a>
        = crate::set::Iter<'a, V>
    where
        V: 'a;

    fn from_two(a: V, b: V) -> Self {
        AxiomSet::from_two(a, b)
    }

    const HASHED: bool = true;

    fn from_two_hashed(a: V, ha: u32, b: V, hb: u32) -> Self {
        AxiomSet::from_two_hashed(a, ha, b, hb)
    }

    fn len(&self) -> usize {
        AxiomSet::len(self)
    }

    fn contains(&self, value: &V) -> bool {
        AxiomSet::contains(self, value)
    }

    fn insert_mut(&mut self, value: V) -> bool {
        AxiomSet::insert_mut(self, value)
    }

    fn remove_mut(&mut self, value: &V) -> BagEdited<V> {
        if !AxiomSet::remove_mut(self, value) {
            return BagEdited::NotFound;
        }
        if self.len() == 1 {
            BagEdited::Single(self.sole().clone())
        } else {
            BagEdited::Shrunk
        }
    }

    fn iter(&self) -> Self::Iter<'_> {
        AxiomSet::iter(self)
    }

    fn of_set(set: AxiomSet<V>) -> Self {
        debug_assert!(set.len() >= 2);
        set
    }

    fn entry<K>(key: K, bag: Self) -> SetEntry<K, V> {
        let (root, len) = bag.map.into_parts();
        SetEntry {
            key,
            len: stored_len(len),
            root,
        }
    }

    fn split<K>(entry: SetEntry<K, V>) -> (K, Self) {
        let len = decoded_len(&entry.root, entry.len);
        (entry.key, AxiomSet::from_root(entry.root, len))
    }

    fn clone_entry<K: Clone>(entry: &SetEntry<K, V>) -> SetEntry<K, V> {
        SetEntry {
            key: entry.key.clone(),
            len: entry.len,
            root: entry.root.clone(),
        }
    }

    fn key<K>(entry: &SetEntry<K, V>) -> &K {
        &entry.key
    }

    fn bag<K>(entry: &SetEntry<K, V>) -> BagRef<'_, V> {
        entry.set()
    }

    fn insert_in<K>(entry: &mut SetEntry<K, V>, value: V) -> bool {
        let grew = set::insert_root(&mut entry.root, value);
        if grew && entry.len != LONG {
            entry.len += 1;
        }
        grew
    }

    fn remove_in<K>(entry: &mut SetEntry<K, V>, value: &V) -> BagEdited<V> {
        if !set::remove_root(&mut entry.root, value) {
            return BagEdited::NotFound;
        }
        entry.len = match entry.len {
            LONG => stored_len(set::count(&entry.root)),
            n => n - 1,
        };
        match entry.len {
            1 => BagEdited::Single(entry.set().iter().next().expect("one value left").clone()),
            _ => BagEdited::Shrunk,
        }
    }

    fn put_in<K>(entry: &mut SetEntry<K, V>, bag: Self) {
        let (root, len) = bag.map.into_parts();
        entry.len = stored_len(len);
        entry.root = root;
    }
}

/// Largest value count stored inline by [`FusedBag`] before overflowing into
/// a trie set. Mirrors the small-collection specialization depth of the JVM
/// libraries the paper compares against (Scala's `Set1..Set4`).
pub const FUSE_MAX: usize = 4;

/// Fusion storage: `2..=FUSE_MAX` values live in one flat slice reached
/// directly from the trie slot; larger collections use a nested
/// [`AxiomSet`]. Invariant: `Inline` holds `2..=FUSE_MAX` distinct values,
/// `Trie` holds `> FUSE_MAX`.
#[derive(Debug)]
pub enum FusedBag<V> {
    /// Up to [`FUSE_MAX`] values, stored inline without a nested collection.
    Inline(Box<[V]>),
    /// Overflow representation for larger value sets.
    Trie(AxiomSet<V>),
}

impl<V> FusedBag<V> {
    fn as_ref(&self) -> BagRef<'_, V> {
        match self {
            FusedBag::Inline(vs) => BagRef(Values::Inline(vs)),
            FusedBag::Trie(s) => BagRef(Values::Set(s.root_node(), stored_len(s.map.len()))),
        }
    }
}

impl<V: Clone> Clone for FusedBag<V> {
    fn clone(&self) -> Self {
        match self {
            FusedBag::Inline(vs) => FusedBag::Inline(vs.clone()),
            FusedBag::Trie(s) => FusedBag::Trie(s.clone()),
        }
    }
}

impl<V: Clone + Eq + Hash> PartialEq for FusedBag<V> {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl<V: Clone + Eq + Hash> Eq for FusedBag<V> {}

impl<V: Clone + Eq + Hash> ValueBag<V> for FusedBag<V> {
    type Iter<'a>
        = BagIter<'a, V>
    where
        V: 'a;

    fn from_two(a: V, b: V) -> Self {
        debug_assert!(a != b);
        FusedBag::Inline(Box::new([a, b]))
    }

    const HASHED: bool = false;

    fn from_two_hashed(a: V, _: u32, b: V, _: u32) -> Self {
        FusedBag::Inline(Box::new([a, b]))
    }

    fn len(&self) -> usize {
        self.as_ref().len()
    }

    fn contains(&self, value: &V) -> bool {
        self.as_ref().contains(value)
    }

    fn insert_mut(&mut self, value: V) -> bool {
        match self {
            FusedBag::Inline(vs) => {
                if vs.contains(&value) {
                    return false;
                }
                if vs.len() < FUSE_MAX {
                    let idx = vs.len();
                    *vs = trie_common::slices::inserted_at_owned(std::mem::take(vs), idx, value);
                } else {
                    // Overflow: move the inline values into a trie set.
                    let mut set = AxiomSet::new();
                    for v in std::mem::take(vs).into_vec() {
                        set.insert_mut(v);
                    }
                    set.insert_mut(value);
                    *self = FusedBag::Trie(set);
                }
                true
            }
            FusedBag::Trie(s) => s.insert_mut(value),
        }
    }

    fn remove_mut(&mut self, value: &V) -> BagEdited<V> {
        match self {
            FusedBag::Inline(vs) => {
                let Some(pos) = vs.iter().position(|v| v == value) else {
                    return BagEdited::NotFound;
                };
                if vs.len() == 2 {
                    let mut v = std::mem::take(vs).into_vec();
                    return BagEdited::Single(v.swap_remove(1 - pos));
                }
                *vs = trie_common::slices::removed_at_owned(std::mem::take(vs), pos);
                BagEdited::Shrunk
            }
            FusedBag::Trie(s) => {
                if !s.remove_mut(value) {
                    return BagEdited::NotFound;
                }
                if s.len() <= FUSE_MAX {
                    // Demote back to the inline representation.
                    let out: Vec<V> = s.iter().cloned().collect();
                    *self = FusedBag::Inline(out.into_boxed_slice());
                }
                BagEdited::Shrunk
            }
        }
    }

    fn iter(&self) -> Self::Iter<'_> {
        self.as_ref().iter()
    }

    fn of_set(set: AxiomSet<V>) -> Self {
        debug_assert!(set.len() >= 2);
        if set.len() > FUSE_MAX {
            FusedBag::Trie(set)
        } else {
            FusedBag::Inline(set.iter().cloned().collect())
        }
    }

    fn entry<K>(key: K, bag: Self) -> (K, Self) {
        (key, bag)
    }

    fn split<K>(entry: (K, Self)) -> (K, Self) {
        entry
    }

    fn clone_entry<K: Clone>(entry: &(K, Self)) -> (K, Self) {
        entry.clone()
    }

    fn key<K>(entry: &(K, Self)) -> &K {
        &entry.0
    }

    fn bag<K>(entry: &(K, Self)) -> BagRef<'_, V> {
        entry.1.as_ref()
    }

    fn insert_in<K>(entry: &mut (K, Self), value: V) -> bool {
        entry.1.insert_mut(value)
    }

    fn remove_in<K>(entry: &mut (K, Self), value: &V) -> BagEdited<V> {
        entry.1.remove_mut(value)
    }

    fn put_in<K>(entry: &mut (K, Self), bag: Self) {
        entry.1 = bag;
    }
}

/// A borrowed bag of a multi-map key's ≥ 2 values, whichever strategy
/// stores it. Handed out by [`BindingRef::Many`](crate::BindingRef::Many).
pub struct BagRef<'a, V>(pub(crate) Values<'a, V>);

/// What a [`BagRef`] borrows.
pub(crate) enum Values<'a, V> {
    /// A set trie: its root and its stored length ([`LONG`] for a set
    /// counted by walking), decoded only where a length is asked for.
    Set(&'a set::Node<V>, u32),
    /// A fused bag's inline values.
    Inline(&'a [V]),
}

impl<'a, V> Clone for BagRef<'a, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'a, V> Copy for BagRef<'a, V> {}

impl<'a, V> Clone for Values<'a, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'a, V> Copy for Values<'a, V> {}

impl<'a, V> BagRef<'a, V> {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self.0 {
            Values::Set(root, len) => decoded_len(root, len),
            Values::Inline(vs) => vs.len(),
        }
    }

    /// Always false: a stored bag holds at least two values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hints the CPU to load the bag's first values: the set trie's root
    /// node or the inline values (see [`trie_common::packed::prefetch`]).
    pub(crate) fn prefetch(&self) {
        match self.0 {
            Values::Set(root, _) => root.prefetch(),
            Values::Inline(vs) => trie_common::packed::prefetch(vs),
        }
    }

    /// Iterates the values in unspecified order.
    pub fn iter(&self) -> BagIter<'a, V> {
        match self.0 {
            Values::Set(root, _) => BagIter::Trie(set::Iter::new(root, self.len())),
            Values::Inline(vs) => BagIter::Slice(vs.iter()),
        }
    }
}

impl<'a, V: Clone + Eq + Hash> BagRef<'a, V> {
    /// Membership test.
    pub fn contains(&self, value: &V) -> bool {
        match self.0 {
            Values::Set(root, _) => set::contains_root(root, value),
            Values::Inline(vs) => vs.contains(value),
        }
    }

    /// The values as a nested set: an `O(1)` handle sharing a stored trie,
    /// built (each value hashed) for inline values.
    pub fn to_set(&self) -> AxiomSet<V> {
        match self.0 {
            Values::Set(root, _) => AxiomSet::from_root(root.clone(), self.len()),
            Values::Inline(vs) => vs.iter().cloned().collect(),
        }
    }

    /// Checks the stored trie's invariants and its recorded length.
    pub(crate) fn assert_invariants(&self) {
        match self.0 {
            Values::Set(root, _) => {
                assert_eq!(
                    trie_common::node::validate(root, 0).0,
                    self.len(),
                    "bag length"
                )
            }
            Values::Inline(vs) => {
                for (i, v) in vs.iter().enumerate() {
                    assert!(!vs[i + 1..].contains(v), "duplicate in an inline bag");
                }
            }
        }
    }
}

impl<'a, V: Clone + Eq + Hash> PartialEq for BagRef<'a, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && match (self.0, other.0) {
                (Values::Set(a, _), Values::Set(b, _)) => algebra::eq::<set::View<V>>(a, b),
                // Inline values are unordered: compare as sets.
                _ => self.iter().all(|v| other.contains(v)),
            }
    }
}

impl<'a, V: std::fmt::Debug> std::fmt::Debug for BagRef<'a, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over a bag's values: a [`BagRef`]'s, or a [`FusedBag`]'s.
#[derive(Debug)]
pub enum BagIter<'a, V> {
    /// Iterating an inline slice.
    Slice(std::slice::Iter<'a, V>),
    /// Iterating a trie set.
    Trie(crate::set::Iter<'a, V>),
}

impl<'a, V> Iterator for BagIter<'a, V> {
    type Item = &'a V;

    fn next(&mut self) -> Option<&'a V> {
        match self {
            BagIter::Slice(it) => it.next(),
            BagIter::Trie(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            BagIter::Slice(it) => it.size_hint(),
            BagIter::Trie(it) => it.size_hint(),
        }
    }
}

impl<'a, V> ExactSizeIterator for BagIter<'a, V> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn elems<B: ValueBag<u32>>(b: &B) -> BTreeSet<u32> {
        b.iter().copied().collect()
    }

    #[test]
    fn set_bag_promote_insert_remove() {
        let b: AxiomSet<u32> = ValueBag::from_two(1, 2);
        assert_eq!(ValueBag::len(&b), 2);
        assert!(ValueBag::contains(&b, &1));
        assert!(!ValueBag::insert_mut(&mut b.clone(), 1));
        let mut b3 = b.clone();
        assert!(ValueBag::insert_mut(&mut b3, 3));
        assert_eq!(elems(&b3), BTreeSet::from([1, 2, 3]));
        match ValueBag::remove_mut(&mut b.clone(), &1) {
            BagEdited::Single(v) => assert_eq!(v, 2),
            _ => panic!("expected demotion"),
        }
        match ValueBag::remove_mut(&mut b3.clone(), &9) {
            BagEdited::NotFound => {}
            _ => panic!("expected NotFound"),
        }
    }

    #[test]
    fn a_set_entry_counts_a_long_set_by_walking() {
        let set: AxiomSet<u32> = (0..10).collect();
        let mut entry: SetEntry<u32, u32> = ValueBag::entry(7, set);
        assert_eq!(std::mem::size_of_val(&entry), 16);
        assert_eq!(AxiomSet::bag(&entry).len(), 10);
        // What a set of `u32::MAX` or more values stores.
        assert_eq!(stored_len(u32::MAX as usize), LONG);
        assert_eq!(stored_len(usize::MAX), LONG);
        entry.len = LONG;
        assert_eq!(AxiomSet::bag(&entry).len(), 10, "counted by walking");
        assert!(AxiomSet::insert_in(&mut entry, 10));
        assert_eq!(entry.len, LONG, "a long set stays long");
        assert_eq!(AxiomSet::bag(&entry).len(), 11);
        assert!(matches!(
            AxiomSet::remove_in(&mut entry, &0),
            BagEdited::Shrunk
        ));
        assert_eq!(entry.len, 10, "a removal recounts");
        let (key, set) = AxiomSet::split(entry);
        assert_eq!((key, set.len()), (7, 10));
        set.assert_invariants();
    }

    #[test]
    fn fused_bag_stays_inline_up_to_fuse_max() {
        let mut b: FusedBag<u32> = ValueBag::from_two(0, 1);
        for v in 2..FUSE_MAX as u32 {
            assert!(b.insert_mut(v));
        }
        assert!(matches!(b, FusedBag::Inline(_)));
        assert_eq!(b.len(), FUSE_MAX);
        // One more overflows into the trie.
        let mut big = b.clone();
        assert!(big.insert_mut(FUSE_MAX as u32));
        assert!(matches!(big, FusedBag::Trie(_)));
        assert_eq!(big.len(), FUSE_MAX + 1);
        assert_eq!(elems(&big), (0..=FUSE_MAX as u32).collect());
    }

    #[test]
    fn fused_bag_demotes_from_trie_to_inline() {
        let mut b: FusedBag<u32> = ValueBag::from_two(0, 1);
        for v in 2..10u32 {
            assert!(b.insert_mut(v));
        }
        assert!(matches!(b, FusedBag::Trie(_)));
        // Remove down to FUSE_MAX: must flip back to Inline.
        for v in (FUSE_MAX as u32..10).rev() {
            assert!(matches!(b.remove_mut(&v), BagEdited::Shrunk), "unexpected");
        }
        assert!(matches!(b, FusedBag::Inline(_)));
        assert_eq!(elems(&b), (0..FUSE_MAX as u32).collect());
        // And all the way down to a single survivor.
        for v in (2..FUSE_MAX as u32).rev() {
            assert!(matches!(b.remove_mut(&v), BagEdited::Shrunk), "unexpected");
        }
        match b.remove_mut(&1) {
            BagEdited::Single(v) => assert_eq!(v, 0),
            _ => panic!("expected demotion"),
        }
    }

    #[test]
    fn fused_bag_duplicate_and_missing() {
        let mut b: FusedBag<u32> = ValueBag::from_two(5, 6);
        assert!(!b.insert_mut(5));
        assert!(matches!(b.remove_mut(&99), BagEdited::NotFound));
        assert!(!b.contains(&99));
    }

    #[test]
    fn both_bags_agree_under_random_ops() {
        let mut set_bag: AxiomSet<u32> = ValueBag::from_two(0, 1);
        let mut fused: FusedBag<u32> = ValueBag::from_two(0, 1);
        let mut state = 99u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 40) as u32 % 24
        };
        for _ in 0..500 {
            let v = next();
            let before = elems(&set_bag);
            let (set_before, fused_before) = (set_bag.clone(), fused.clone());
            if v % 2 == 0 {
                let grew = ValueBag::insert_mut(&mut set_bag, v);
                assert_eq!(fused.insert_mut(v), grew, "bags diverged on insert");
            } else if ValueBag::len(&set_bag) > 2 {
                match (ValueBag::remove_mut(&mut set_bag, &v), fused.remove_mut(&v)) {
                    (BagEdited::NotFound, BagEdited::NotFound)
                    | (BagEdited::Shrunk, BagEdited::Shrunk) => {}
                    (BagEdited::Single(_), BagEdited::Single(_)) => break,
                    _ => panic!("bags diverged on remove"),
                }
            }
            // The walk edits a shared bag on a clone: the clone taken before
            // the edit must not see it.
            assert_eq!(elems(&set_before), before);
            assert_eq!(elems(&fused_before), before);
            assert_eq!(ValueBag::len(&set_bag), fused.len());
            assert_eq!(elems(&set_bag), elems(&fused));
        }
    }
}
