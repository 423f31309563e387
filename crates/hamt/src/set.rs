//! HAMT sets: Clojure-flavoured [`HamtSet`] and Scala-flavoured
//! [`MemoHamtSet`].
//!
//! Clojure's `PersistentHashSet` is a thin wrapper around its hash map with
//! the element stored as both key and value; [`HamtSet`] mirrors that as a
//! newtype over [`HamtMap<T, ()>`], and the JVM heap model accounts for the
//! doubled slot (the value slot references the same element object, so no
//! extra payload box is counted). [`MemoHamtSet`] wraps [`MemoHamtMap`] and
//! inherits its memoized hashes (Scala `HashSet` leaves store their hash).
//!
//! [`HamtSet::diff`] is its map's structural `diff`
//! ([`trie_common::algebra`]), and the [`trie_common::ops::SetAlgebraOps`]
//! defaults route `union`, `intersect` and `difference` through it.
//! [`MemoHamtSet`] takes all four element-wise.

use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::Arc;

use crate::map::HamtMap;
use crate::memo::MemoHamtMap;

/// A persistent hash set over the Clojure-flavoured HAMT.
///
/// # Examples
///
/// ```
/// use hamt::HamtSet;
///
/// let s: HamtSet<u32> = (0..5).collect();
/// assert!(s.contains(&3));
/// assert_eq!(s.inserted(9).len(), 6);
/// assert_eq!(s.len(), 5); // persistent
/// ```
#[derive(Clone)]
pub struct HamtSet<T> {
    pub(crate) map: HamtMap<T, ()>,
}

impl<T> HamtSet<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the set holds no elements.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates the elements in unspecified (trie) order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            inner: self.map.keys(),
        }
    }
}

impl<T: Clone + Eq + Hash> HamtSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        HamtSet {
            map: HamtMap::new(),
        }
    }

    /// Membership test.
    pub fn contains<Q>(&self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.contains_key(value)
    }

    /// Returns a set including `value`; `self` is unchanged.
    pub fn inserted(&self, value: T) -> Self {
        HamtSet {
            map: self.map.inserted(value, ()),
        }
    }

    /// Inserts `value` in place. Returns true if the set grew.
    pub fn insert_mut(&mut self, value: T) -> bool {
        self.map.insert_mut(value, ())
    }

    /// Returns a set excluding `value`; `self` is unchanged.
    pub fn removed<Q>(&self, value: &Q) -> Self
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        HamtSet {
            map: self.map.removed(value),
        }
    }

    /// Removes `value` in place. Returns true if the set shrank.
    pub fn remove_mut<Q>(&mut self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.remove_mut(value)
    }

    /// The sole element of a singleton set.
    ///
    /// # Panics
    ///
    /// Panics if the set does not hold exactly one element.
    pub fn sole(&self) -> &T {
        assert_eq!(self.len(), 1, "sole() requires a singleton set");
        self.iter().next().expect("len == 1")
    }

    /// What changed between `self` (old) and `other` (new), via the inner
    /// map's lockstep structural walk (pointer-shared subtrees are skipped;
    /// non-canonical shapes fall back to content recursion).
    pub fn diff(&self, other: &Self) -> trie_common::ops::SetDiff<T> {
        let d = self.map.diff(&other.map);
        let mut out = trie_common::ops::SetDiff::new();
        out.added.extend(d.added.into_iter().map(|(k, ())| k));
        out.removed.extend(d.removed.into_iter().map(|(k, ())| k));
        out
    }

    pub(crate) fn inner(&self) -> &HamtMap<T, ()> {
        &self.map
    }

    /// Structural sanity checks (see [`HamtMap::assert_invariants`]).
    ///
    /// # Panics
    ///
    /// Panics if any structural invariant is violated.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        self.map.assert_invariants();
    }
}

impl<T: Clone + Eq + Hash> Default for HamtSet<T> {
    fn default() -> Self {
        HamtSet::new()
    }
}

impl<T: Clone + Eq + Hash> PartialEq for HamtSet<T> {
    /// Same root ⇒ equal, with no element probed (the identity short-cut
    /// of `java.util.AbstractSet.equals`); otherwise every element of one
    /// side is looked up in the other.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (Arc::ptr_eq(&self.map.root, &other.map.root)
                || self.iter().all(|v| other.contains(v)))
    }
}

impl<T: Clone + Eq + Hash> Eq for HamtSet<T> {}

impl<T: std::fmt::Debug> std::fmt::Debug for HamtSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: Clone + Eq + Hash> FromIterator<T> for HamtSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        trie_common::ops::from_iter_via(iter)
    }
}

impl<T: Clone + Eq + Hash> Extend<T> for HamtSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        trie_common::ops::extend_via(self, iter);
    }
}

impl<'a, T> IntoIterator for &'a HamtSet<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// Iterator over a [`HamtSet`]'s elements. Created by [`HamtSet::iter`].
#[derive(Debug)]
pub struct Iter<'a, T> {
    inner: crate::map::Keys<'a, T, ()>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;
    fn next(&mut self) -> Option<&'a T> {
        self.inner.next()
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a, T> ExactSizeIterator for Iter<'a, T> {}

/// A persistent hash set over the Scala-flavoured memoizing HAMT.
///
/// # Examples
///
/// ```
/// use hamt::MemoHamtSet;
///
/// let s: MemoHamtSet<&str> = ["a", "b"].into_iter().collect();
/// assert!(s.contains(&"a"));
/// ```
#[derive(Clone)]
pub struct MemoHamtSet<T> {
    pub(crate) map: MemoHamtMap<T, ()>,
}

impl<T> MemoHamtSet<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the set holds no elements.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates the elements in unspecified (trie) order.
    pub fn iter(&self) -> MemoIter<'_, T> {
        MemoIter {
            inner: self.map.keys(),
        }
    }
}

impl<T: Clone + Eq + Hash> MemoHamtSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        MemoHamtSet {
            map: MemoHamtMap::new(),
        }
    }

    /// Membership test (memoized-hash fast path for misses).
    pub fn contains<Q>(&self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.contains_key(value)
    }

    /// Returns a set including `value`; `self` is unchanged.
    pub fn inserted(&self, value: T) -> Self {
        MemoHamtSet {
            map: self.map.inserted(value, ()),
        }
    }

    /// Inserts `value` in place. Returns true if the set grew.
    pub fn insert_mut(&mut self, value: T) -> bool {
        self.map.insert_mut(value, ())
    }

    /// Returns a set excluding `value`; `self` is unchanged.
    pub fn removed<Q>(&self, value: &Q) -> Self
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        MemoHamtSet {
            map: self.map.removed(value),
        }
    }

    /// Removes `value` in place. Returns true if the set shrank.
    pub fn remove_mut<Q>(&mut self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.remove_mut(value)
    }

    /// The sole element of a singleton set.
    ///
    /// # Panics
    ///
    /// Panics if the set does not hold exactly one element.
    pub fn sole(&self) -> &T {
        assert_eq!(self.len(), 1, "sole() requires a singleton set");
        self.iter().next().expect("len == 1")
    }

    pub(crate) fn inner(&self) -> &MemoHamtMap<T, ()> {
        &self.map
    }

    /// Structural checks (see [`MemoHamtMap::assert_invariants`]).
    ///
    /// # Panics
    ///
    /// Panics if any structural invariant is violated.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        self.map.assert_invariants();
    }
}

impl<T: Clone + Eq + Hash> Default for MemoHamtSet<T> {
    fn default() -> Self {
        MemoHamtSet::new()
    }
}

impl<T: Clone + Eq + Hash> PartialEq for MemoHamtSet<T> {
    /// Same root ⇒ equal, with no element probed (the identity short-cut
    /// of `java.util.AbstractSet.equals`); otherwise every element of one
    /// side is looked up in the other.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (Arc::ptr_eq(&self.map.root, &other.map.root)
                || self.iter().all(|v| other.contains(v)))
    }
}

impl<T: Clone + Eq + Hash> Eq for MemoHamtSet<T> {}

impl<T: std::fmt::Debug> std::fmt::Debug for MemoHamtSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: Clone + Eq + Hash> FromIterator<T> for MemoHamtSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        trie_common::ops::from_iter_via(iter)
    }
}

impl<T: Clone + Eq + Hash> Extend<T> for MemoHamtSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        trie_common::ops::extend_via(self, iter);
    }
}

impl<'a, T> IntoIterator for &'a MemoHamtSet<T> {
    type Item = &'a T;
    type IntoIter = MemoIter<'a, T>;
    fn into_iter(self) -> MemoIter<'a, T> {
        self.iter()
    }
}

/// Iterator over a [`MemoHamtSet`]'s elements. Created by
/// [`MemoHamtSet::iter`].
#[derive(Debug)]
pub struct MemoIter<'a, T> {
    inner: crate::memo::Keys<'a, T, ()>,
}

impl<'a, T> Iterator for MemoIter<'a, T> {
    type Item = &'a T;
    fn next(&mut self) -> Option<&'a T> {
        self.inner.next()
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a, T> ExactSizeIterator for MemoIter<'a, T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn hamt_set_roundtrip() {
        let mut s: HamtSet<u32> = (0..300).collect();
        assert_eq!(s.len(), 300);
        s.assert_invariants();
        for i in 0..300 {
            assert!(s.contains(&i));
            assert!(s.remove_mut(&i));
        }
        assert!(s.is_empty());
    }

    #[test]
    fn memo_set_roundtrip() {
        let mut s: MemoHamtSet<u32> = (0..300).collect();
        assert_eq!(s.len(), 300);
        s.assert_invariants();
        for i in (0..300).rev() {
            assert!(s.remove_mut(&i));
            s.assert_invariants();
        }
        assert!(s.is_empty());
    }

    #[test]
    fn equality_and_iteration() {
        let a: HamtSet<u32> = (0..50).collect();
        let b: HamtSet<u32> = (0..50).rev().collect();
        assert_eq!(a, b);
        let elems: BTreeSet<u32> = a.iter().copied().collect();
        assert_eq!(elems, (0..50).collect());
        assert_ne!(a, b.inserted(99));
    }

    #[test]
    fn sole_elements() {
        let s: HamtSet<u32> = std::iter::once(4).collect();
        assert_eq!(*s.sole(), 4);
        let m: MemoHamtSet<u32> = std::iter::once(6).collect();
        assert_eq!(*m.sole(), 6);
    }
}
