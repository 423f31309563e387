//! HAMT sets: Clojure-flavoured [`HamtSet`] and Scala-flavoured
//! [`MemoHamtSet`].
//!
//! Clojure's `PersistentHashSet` is a thin wrapper around its hash map with
//! the element stored as both key and value; [`HamtSet`] mirrors that as a
//! wrapper over [`HamtMap<T, ()>`](crate::HamtMap), and the JVM heap model
//! accounts for the doubled slot (the value slot references the same
//! element object, so no extra payload box is counted). [`MemoHamtSet`]
//! wraps [`MemoHamtMap`](crate::MemoHamtMap) and inherits its memoized
//! hashes (Scala `HashSet` leaves store their hash).
//!
//! Both sets' `diff` is their map's structural `diff`
//! ([`trie_common::algebra`]), and the [`trie_common::ops::SetAlgebraOps`]
//! defaults route `union`, `intersect` and `difference` through it.
//!
//! # Methods
//!
//! The two sets are one handle with a different leaf, so they have the
//! same methods: `new()`, `len()`, `is_empty()`, `contains(&value)`,
//! `inserted(value)` and `removed(&value)` (new sets, `self` unchanged),
//! `insert_mut(value) -> bool` and `remove_mut(&value) -> bool` (in
//! place; true if the set changed), `sole()` (the element of a singleton
//! set), `iter()` ([`Iter`], [`MemoIter`]) and `diff(&other) ->
//! SetDiff<T>`. Both implement `Clone`, `Default`, `Debug`,
//! `PartialEq`/`Eq` (same root, or the same elements), `FromIterator`,
//! `Extend`, and `SetOps`, `SetMutOps`, `SetAlgebraOps` and `EditInPlace`
//! of [`trie_common::ops`].

use crate::trie::{self, Clojure, Scala};

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
pub type HamtSet<T> = trie::Set<T, Clojure>;

/// Iterator over a [`HamtSet`]'s elements. Created by `HamtSet::iter`.
pub type Iter<'a, T> = trie::Keys<'a, T, (), Clojure>;

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
pub type MemoHamtSet<T> = trie::Set<T, Scala>;

/// Iterator over a [`MemoHamtSet`]'s elements. Created by
/// `MemoHamtSet::iter`.
pub type MemoIter<'a, T> = trie::Keys<'a, T, (), Scala>;

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
