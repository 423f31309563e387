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

use std::hash::Hash;

use crate::set::AxiomSet;

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

/// A collection of ≥ 2 values nested under one multi-map key.
///
/// This trait is sealed; see the [module documentation](self) for the two
/// implementations.
pub trait ValueBag<V>: Clone + PartialEq + sealed::Sealed {
    /// Borrowing iterator over the values.
    type Iter<'a>: Iterator<Item = &'a V>
    where
        Self: 'a,
        V: 'a;

    /// Builds a bag from two *distinct* values (promotion of a `1:1` slot).
    fn from_two(a: V, b: V) -> Self;

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

    /// The values as a nested set: an `O(1)` clone of a bag stored as one,
    /// built (each value hashed) for an inline bag.
    fn to_set(&self) -> AxiomSet<V>;

    /// The bag of a set's ≥ 2 values, keeping the set's trie where the
    /// representation stores one; no value is hashed.
    fn of_set(set: AxiomSet<V>) -> Self;
}

impl<V: Clone + Eq + Hash> ValueBag<V> for AxiomSet<V> {
    type Iter<'a>
        = crate::set::Iter<'a, V>
    where
        V: 'a;

    fn from_two(a: V, b: V) -> Self {
        AxiomSet::from_two(a, b)
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

    fn to_set(&self) -> AxiomSet<V> {
        self.clone()
    }

    fn of_set(set: AxiomSet<V>) -> Self {
        debug_assert!(set.len() >= 2);
        set
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
        match (self, other) {
            (FusedBag::Inline(a), FusedBag::Inline(b)) => {
                // Inline slices are unordered: compare as sets.
                a.len() == b.len() && a.iter().all(|v| b.contains(v))
            }
            (FusedBag::Trie(a), FusedBag::Trie(b)) => a == b,
            // Representations are size-segregated, so mixed comparisons are
            // only reachable between bags of different sizes.
            _ => false,
        }
    }
}

impl<V: Clone + Eq + Hash> Eq for FusedBag<V> {}

impl<V: Clone + Eq + Hash> ValueBag<V> for FusedBag<V> {
    type Iter<'a>
        = FusedIter<'a, V>
    where
        V: 'a;

    fn from_two(a: V, b: V) -> Self {
        debug_assert!(a != b);
        FusedBag::Inline(Box::new([a, b]))
    }

    fn len(&self) -> usize {
        match self {
            FusedBag::Inline(vs) => vs.len(),
            FusedBag::Trie(s) => s.len(),
        }
    }

    fn contains(&self, value: &V) -> bool {
        match self {
            FusedBag::Inline(vs) => vs.iter().any(|v| v == value),
            FusedBag::Trie(s) => s.contains(value),
        }
    }

    fn insert_mut(&mut self, value: V) -> bool {
        match self {
            FusedBag::Inline(vs) => {
                if vs.contains(&value) {
                    return false;
                }
                if vs.len() < FUSE_MAX {
                    let idx = vs.len();
                    *vs = crate::slots::inserted_at_owned(std::mem::take(vs), idx, value);
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
                *vs = crate::slots::removed_at_owned(std::mem::take(vs), pos);
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
        match self {
            FusedBag::Inline(vs) => FusedIter::Slice(vs.iter()),
            FusedBag::Trie(s) => FusedIter::Trie(s.iter()),
        }
    }

    fn to_set(&self) -> AxiomSet<V> {
        match self {
            FusedBag::Inline(vs) => vs.iter().cloned().collect(),
            FusedBag::Trie(s) => s.clone(),
        }
    }

    fn of_set(set: AxiomSet<V>) -> Self {
        debug_assert!(set.len() >= 2);
        if set.len() > FUSE_MAX {
            FusedBag::Trie(set)
        } else {
            FusedBag::Inline(set.iter().cloned().collect())
        }
    }
}

/// Iterator over a [`FusedBag`]'s values.
#[derive(Debug)]
pub enum FusedIter<'a, V> {
    /// Iterating an inline slice.
    Slice(std::slice::Iter<'a, V>),
    /// Iterating the overflow trie set.
    Trie(crate::set::Iter<'a, V>),
}

impl<'a, V> Iterator for FusedIter<'a, V> {
    type Item = &'a V;

    fn next(&mut self) -> Option<&'a V> {
        match self {
            FusedIter::Slice(it) => it.next(),
            FusedIter::Trie(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            FusedIter::Slice(it) => it.size_hint(),
            FusedIter::Trie(it) => it.size_hint(),
        }
    }
}

impl<'a, V> ExactSizeIterator for FusedIter<'a, V> {}

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
