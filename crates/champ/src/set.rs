//! The CHAMP persistent hash set (the map's sibling; see [`crate::map`]).
//!
//! Used by the evaluation as the nested collection of the map-of-sets
//! multi-map baseline (`idiomatic::NestedChampMultiMap`, the "CHAMP" column
//! of Table 1) and as a standalone set.
//!
//! A set is a map to `()`: [`ChampSet`] wraps the node of
//! [`ChampMap<T, ()>`](crate::ChampMap), whose elements take the size of
//! `T`, and runs the one node walk of [`trie_common::node`], shared with
//! the AXIOM set. `union`, `intersect`, `difference`, `diff` and `==` are
//! the lockstep walks of [`trie_common::algebra`] over the same node.
//!
//! # Examples
//!
//! ```
//! use champ::ChampSet;
//!
//! let s: ChampSet<u32> = (0..10).collect();
//! assert!(s.contains(&7));
//! assert_eq!(s.removed(&7).len(), 9);
//! assert_eq!(s.len(), 10); // persistent
//! ```

use std::borrow::Borrow;
use std::hash::Hash;

use trie_common::node;
use trie_common::ops::SetDiff;

use crate::map::Bitmaps;

/// A set node: the node of a map to `()`.
pub(crate) type Node<T> = node::Node<Bitmaps, T, ()>;

/// A persistent hash set with the CHAMP encoding. See the
/// [module documentation](self).
pub struct ChampSet<T> {
    pub(crate) map: node::Map<Bitmaps, T, ()>,
}

impl<T> Clone for ChampSet<T> {
    fn clone(&self) -> Self {
        ChampSet {
            map: self.map.clone(),
        }
    }
}

impl<T: Clone + Eq + Hash> ChampSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        ChampSet {
            map: node::Map::new(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the set holds no elements.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Membership test.
    pub fn contains<Q>(&self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.get(value).is_some()
    }

    /// Returns a set including `value`; `self` is unchanged.
    pub fn inserted(&self, value: T) -> Self {
        let mut next = self.clone();
        next.insert_mut(value);
        next
    }

    /// Inserts `value` in place: uniquely-owned trie nodes along the spine
    /// are edited directly, shared nodes are path-copied. Returns true if
    /// the set grew.
    pub fn insert_mut(&mut self, value: T) -> bool {
        self.map.insert_mut(value, ()).is_none()
    }

    /// Returns a set excluding `value`; `self` is unchanged.
    pub fn removed<Q>(&self, value: &Q) -> Self
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let mut next = self.clone();
        next.remove_mut(value);
        next
    }

    /// Removes `value` in place: uniquely-owned trie nodes along the spine
    /// are edited directly, shared nodes are path-copied. Returns true if
    /// the set shrank.
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
        self.map.sole()
    }

    /// Iterates the elements in unspecified (trie) order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            inner: self.map.iter(),
        }
    }

    /// Union of two sets via a lockstep structural walk
    /// ([`trie_common::algebra`]): subtrees the operands share by pointer
    /// are reused wholesale, so the cost is O(changed) — and a self-union
    /// returns `self` without allocating.
    pub fn union(&self, other: &Self) -> Self {
        ChampSet {
            map: self.map.union(&other.map),
        }
    }

    /// Intersection of two sets via a lockstep structural walk (shared
    /// subtrees survive by pointer, cost O(changed)).
    pub fn intersect(&self, other: &Self) -> Self {
        ChampSet {
            map: self.map.intersect(&other.map),
        }
    }

    /// Elements of `self` not in `other`, via a lockstep structural walk
    /// (a shared subtree cancels out in O(1)).
    pub fn difference(&self, other: &Self) -> Self {
        ChampSet {
            map: self.map.difference(&other.map),
        }
    }

    /// What changed between `self` (old) and `other` (new): pointer-shared
    /// subtrees emit nothing, so output and walk are both O(changed).
    pub fn diff(&self, other: &Self) -> SetDiff<T> {
        self.map.diff(&other.map, SetDiff::new())
    }

    /// Element-wise union: iterates the smaller into the larger. Retained as
    /// the documented fallback path (differential-testing and benchmark
    /// baseline for the structural walk).
    pub fn union_elementwise(&self, other: &Self) -> Self {
        ChampSet {
            map: self.map.union_elementwise(&other.map),
        }
    }

    /// Element-wise intersection: scans the smaller, probes the larger.
    /// Retained as the documented fallback path (differential-testing and
    /// benchmark baseline for the structural walk).
    pub fn intersect_elementwise(&self, other: &Self) -> Self {
        ChampSet {
            map: self.map.intersect_elementwise(&other.map),
        }
    }

    /// Element-wise difference: probes `other` per element. Retained as the
    /// documented fallback path (differential-testing and benchmark baseline
    /// for the structural walk).
    pub fn difference_elementwise(&self, other: &Self) -> Self {
        ChampSet {
            map: self.map.difference_elementwise(&other.map),
        }
    }

    /// True if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        self.map.is_subset(&other.map)
    }

    pub(crate) fn root_node(&self) -> &Node<T> {
        self.map.root()
    }

    /// Recursively checks the canonical-form invariants (test support).
    ///
    /// # Panics
    ///
    /// Panics if any structural invariant is violated.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        self.map.assert_invariants();
    }
}

impl<T: Clone + Eq + Hash> Default for ChampSet<T> {
    fn default() -> Self {
        ChampSet::new()
    }
}

impl<T: Clone + Eq + Hash> std::ops::BitOr for &ChampSet<T> {
    type Output = ChampSet<T>;

    /// `a | b` is the structural [`union`](ChampSet::union).
    fn bitor(self, rhs: Self) -> ChampSet<T> {
        self.union(rhs)
    }
}

impl<T: Clone + Eq + Hash> std::ops::BitAnd for &ChampSet<T> {
    type Output = ChampSet<T>;

    /// `a & b` is the structural [`intersect`](ChampSet::intersect).
    fn bitand(self, rhs: Self) -> ChampSet<T> {
        self.intersect(rhs)
    }
}

impl<T: Clone + Eq + Hash> std::ops::Sub for &ChampSet<T> {
    type Output = ChampSet<T>;

    /// `a - b` is the structural [`difference`](ChampSet::difference).
    fn sub(self, rhs: Self) -> ChampSet<T> {
        self.difference(rhs)
    }
}

impl<T: Clone + Eq + Hash> PartialEq for ChampSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl<T: Clone + Eq + Hash> Eq for ChampSet<T> {}

impl<T: Clone + Eq + Hash> std::hash::Hash for ChampSet<T> {
    /// Order-independent hash (sum of element hashes).
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.map.hash(state);
    }
}

impl<T: std::fmt::Debug + Clone + Eq + Hash> std::fmt::Debug for ChampSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: Clone + Eq + Hash> FromIterator<T> for ChampSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        trie_common::ops::from_iter_via(iter)
    }
}

impl<T: Clone + Eq + Hash> Extend<T> for ChampSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        trie_common::ops::extend_via(self, iter);
    }
}

impl<'a, T: Clone + Eq + Hash> IntoIterator for &'a ChampSet<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// Iterator over set elements. Created by [`ChampSet::iter`].
pub struct Iter<'a, T> {
    inner: node::Iter<'a, Bitmaps, T, ()>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        self.inner.next().map(|(e, ())| e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a, T> ExactSizeIterator for Iter<'a, T> {}

impl<'a, T> std::fmt::Debug for Iter<'a, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::hash::Hasher;
    use trie_common::packed::Packed;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Collide {
        bucket: u32,
        id: u32,
    }

    impl Hash for Collide {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u32(self.bucket);
        }
    }

    #[test]
    fn basics_and_roundtrip() {
        let mut s = ChampSet::new();
        for i in 0..600u32 {
            assert!(s.insert_mut(i));
        }
        assert_eq!(s.len(), 600);
        s.assert_invariants();
        for i in 0..600u32 {
            assert!(s.contains(&i));
            assert!(s.remove_mut(&i));
        }
        assert!(s.is_empty());
        s.assert_invariants();
    }

    #[test]
    fn collisions() {
        let mut s = ChampSet::new();
        for id in 0..8 {
            s.insert_mut(Collide { bucket: 77, id });
        }
        assert_eq!(s.len(), 8);
        s.assert_invariants();
        for id in 0..7 {
            assert!(s.remove_mut(&Collide { bucket: 77, id }));
            s.assert_invariants();
        }
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn algebra() {
        let a: ChampSet<u32> = (0..20).collect();
        let b: ChampSet<u32> = (10..30).collect();
        assert_eq!(a.union(&b).len(), 30);
        assert_eq!(a.intersect(&b).len(), 10);
        assert_eq!(a.difference(&b).len(), 10);
        assert!(a.intersect(&b).is_subset(&a));
        // Structural and element-wise paths agree.
        assert_eq!(a.union(&b), a.union_elementwise(&b));
        assert_eq!(a.intersect(&b), a.intersect_elementwise(&b));
        assert_eq!(a.difference(&b), a.difference_elementwise(&b));
        // Operator sugar routes through the structural walks.
        assert_eq!(&a | &b, a.union(&b));
        assert_eq!(&a & &b, a.intersect(&b));
        assert_eq!(&a - &b, a.difference(&b));
    }

    #[test]
    fn algebra_shares_structure() {
        let a: ChampSet<u32> = (0..1000).collect();
        let b = a.inserted(5000);
        assert_eq!(a.union(&b), b);
        let self_union = a.union(&a.clone());
        assert!(Packed::ptr_eq(self_union.root_node(), a.root_node()));
        let back = b.union(&a);
        assert!(Packed::ptr_eq(back.root_node(), b.root_node()));
        let inter = a.intersect(&b);
        assert!(Packed::ptr_eq(inter.root_node(), a.root_node()));
        assert!(a.difference(&a.clone()).is_empty());
        assert_eq!(b.difference(&a).len(), 1);
        a.union(&b).assert_invariants();
    }

    #[test]
    fn diff_is_sparse() {
        let a: ChampSet<u32> = (0..1000).collect();
        let mut b = a.clone();
        b.insert_mut(7777);
        b.remove_mut(&13);
        let d = a.diff(&b);
        assert_eq!(d.added, vec![7777]);
        assert_eq!(d.removed, vec![13]);
        assert!(a.diff(&a.clone()).is_empty());
    }

    #[test]
    fn algebra_with_collisions() {
        let a: ChampSet<Collide> = (0..40).map(|id| Collide { bucket: id % 4, id }).collect();
        let b: ChampSet<Collide> = (20..60).map(|id| Collide { bucket: id % 4, id }).collect();
        let union = a.union(&b);
        let inter = a.intersect(&b);
        let diff = a.difference(&b);
        assert_eq!(union.len(), 60);
        assert_eq!(inter.len(), 20);
        assert_eq!(diff.len(), 20);
        assert_eq!(union, a.union_elementwise(&b));
        assert_eq!(inter, a.intersect_elementwise(&b));
        assert_eq!(diff, a.difference_elementwise(&b));
        union.assert_invariants();
        inter.assert_invariants();
        diff.assert_invariants();
        let d = a.diff(&b);
        assert_eq!(d.added.len(), 20);
        assert_eq!(d.removed.len(), 20);
    }

    #[test]
    fn persistence_and_equality() {
        let v0: ChampSet<u32> = (0..100).collect();
        let v1 = v0.inserted(200);
        assert_eq!(v0.len(), 100);
        assert_ne!(v0, v1);
        assert_eq!(v0, v1.removed(&200));
        let elems: BTreeSet<u32> = v0.iter().copied().collect();
        assert_eq!(elems, (0..100).collect());
    }

    #[test]
    fn sole() {
        let s: ChampSet<u32> = std::iter::once(9).collect();
        assert_eq!(*s.sole(), 9);
    }
}
