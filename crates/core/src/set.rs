//! A persistent hash set built on the AXIOM node encoding.
//!
//! [`AxiomSet`] serves two roles: it is the nested collection behind the
//! multi-map's `1:n` mappings (paper §3: "1:n mappings allocate and nest a
//! set data structure"), and a standalone persistent set used by the static
//! analysis case study's relational algebra.
//!
//! Sets are the homogeneous instance of AXIOM: only categories `EMPTY`,
//! `CAT1` (an element) and `NODE` are populated, which is exactly the CHAMP
//! special case of the encoding (paper §3.1). A set is a map to `()`: it
//! wraps the node of [`AxiomMap<T, ()>`](crate::AxiomMap) and runs the one
//! node walk of [`trie_common::node`]. `(T, ())` has the size of `T`, so a
//! node is one allocation holding the 2-bit bitmap, the inlined elements
//! and the sub-trie handles, each group ascending by mask; the bitmap is
//! the only tag. `union`, `intersect`, `difference`, `diff` and `==` are
//! the lockstep walks of [`trie_common::algebra`] over the same node.
//!
//! # Examples
//!
//! ```
//! use axiom::AxiomSet;
//!
//! let a: AxiomSet<u32> = (0..100).collect();
//! let b = a.inserted(200);
//! assert_eq!(a.len(), 100); // persistent: `a` is unchanged
//! assert_eq!(b.len(), 101);
//! assert!(b.contains(&200));
//! let c = b.removed(&200);
//! assert_eq!(a, c);
//! ```

use std::borrow::Borrow;
use std::hash::Hash;

use trie_common::hash::hash32;
use trie_common::node;
use trie_common::ops::SetDiff;

use crate::bitmap::SlotBitmap;

pub(crate) use trie_common::node::count;

/// A set node: the node of a map to `()`.
pub(crate) type Node<T> = node::Node<SlotBitmap, T, ()>;

/// The [`trie_common::algebra`] view of a set trie.
pub(crate) type View<T> = node::View<SlotBitmap, T, ()>;

/// Inserts `value` into the trie at `root`. Returns true if the set grew.
pub(crate) fn insert_root<T: Clone + Eq + Hash>(root: &mut Node<T>, value: T) -> bool {
    node::bind(root, value, node::Value(())).is_none()
}

/// Removes `value` from the trie at `root`. Returns true if it was there.
pub(crate) fn remove_root<T: Clone + Eq + Hash>(root: &mut Node<T>, value: &T) -> bool {
    node::remove_root(root, value, None).is_some()
}

/// Membership test on the trie at `root`.
pub(crate) fn contains_root<T, Q>(root: &Node<T>, value: &Q) -> bool
where
    T: Clone + Eq + Hash + Borrow<Q>,
    Q: Eq + Hash + ?Sized,
{
    node::get(root, hash32(value), 0, value).is_some()
}

/// A persistent (immutable, structurally shared) hash set.
///
/// Cheap to clone (`O(1)`, bumps one reference count); every update returns a
/// new set sharing unchanged sub-tries with its ancestors. See the
/// [module documentation](self) for the encoding.
pub struct AxiomSet<T> {
    pub(crate) map: node::Map<SlotBitmap, T, ()>,
}

impl<T> Clone for AxiomSet<T> {
    fn clone(&self) -> Self {
        AxiomSet {
            map: self.map.clone(),
        }
    }
}

impl<T> AxiomSet<T> {
    /// The set with the trie at `root`, holding `len` elements.
    pub(crate) fn from_root(root: Node<T>, len: usize) -> Self {
        AxiomSet {
            map: node::Map::from_parts(root, len),
        }
    }

    pub(crate) fn root_node(&self) -> &Node<T> {
        self.map.root()
    }
}

impl<T: Clone + Eq + Hash> AxiomSet<T> {
    /// Creates an empty set.
    ///
    /// # Examples
    ///
    /// ```
    /// let s = axiom::AxiomSet::<u32>::new();
    /// assert!(s.is_empty());
    /// ```
    pub fn new() -> Self {
        AxiomSet {
            map: node::Map::new(),
        }
    }

    /// Creates the two-element set used when a `1:1` multi-map slot is
    /// promoted to `1:n`. `a` and `b` must be distinct.
    pub(crate) fn from_two(a: T, b: T) -> Self {
        let (ha, hb) = (hash32(&a), hash32(&b));
        Self::from_two_hashed(a, ha, b, hb)
    }

    /// [`AxiomSet::from_two`] of values whose hashes the caller computed:
    /// hashes nothing.
    pub(crate) fn from_two_hashed(a: T, ha: u32, b: T, hb: u32) -> Self {
        AxiomSet {
            map: node::Map::from_two(a, ha, b, hb),
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
    ///
    /// # Examples
    ///
    /// ```
    /// let s: axiom::AxiomSet<String> = ["a".to_string()].into_iter().collect();
    /// assert!(s.contains("a")); // borrowed-form lookup
    /// ```
    pub fn contains<Q>(&self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.get(value).is_some()
    }

    /// Returns a reference to the stored element equal to `value`, if any.
    pub fn get<Q>(&self, value: &Q) -> Option<&T>
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.get(value).map(|(e, ())| e)
    }

    /// Returns a set additionally containing `value`; `self` is unchanged.
    pub fn inserted(&self, value: T) -> Self {
        let mut next = self.clone();
        next.insert_mut(value);
        next
    }

    /// Inserts `value` in place. Uniquely-owned trie nodes along the spine
    /// are edited directly; nodes shared with other handles are path-copied,
    /// so other handles to the previous version are unaffected. Returns true
    /// if the set grew.
    pub fn insert_mut(&mut self, value: T) -> bool {
        self.map.insert_mut(value, ()).is_none()
    }

    /// Returns a set without `value`; `self` is unchanged.
    pub fn removed<Q>(&self, value: &Q) -> Self
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let mut next = self.clone();
        next.remove_mut(value);
        next
    }

    /// Removes `value` in place (editing uniquely-owned nodes, path-copying
    /// shared ones). Returns true if the set shrank.
    pub fn remove_mut<Q>(&mut self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.remove_mut(value)
    }

    /// The sole element of a singleton set (multi-map demotion helper).
    ///
    /// # Panics
    ///
    /// Panics if the set does not hold exactly one element.
    pub(crate) fn sole(&self) -> &T {
        self.map.sole()
    }

    /// Iterates the elements in unspecified (trie) order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter::new(self.root_node(), self.len())
    }

    /// Rebuilds the one-element set (canonicalization helper).
    pub(crate) fn singleton(value: T) -> Self {
        AxiomSet {
            map: node::Map::single(value),
        }
    }

    /// Union of two sets via a lockstep structural walk
    /// ([`trie_common::algebra`]): subtrees the operands share by pointer
    /// are reused wholesale, so the cost is O(changed) — and a self-union
    /// returns `self` without allocating.
    pub fn union(&self, other: &Self) -> Self {
        AxiomSet {
            map: self.map.union(&other.map),
        }
    }

    /// Intersection of two sets via a lockstep structural walk (shared
    /// subtrees survive by pointer, cost O(changed)).
    pub fn intersect(&self, other: &Self) -> Self {
        AxiomSet {
            map: self.map.intersect(&other.map),
        }
    }

    /// Elements of `self` not in `other`, via a lockstep structural walk
    /// (a shared subtree cancels out in O(1)).
    pub fn difference(&self, other: &Self) -> Self {
        AxiomSet {
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
        AxiomSet {
            map: self.map.union_elementwise(&other.map),
        }
    }

    /// Element-wise intersection: scans the smaller, probes the larger.
    /// Retained as the documented fallback path (differential-testing and
    /// benchmark baseline for the structural walk).
    pub fn intersect_elementwise(&self, other: &Self) -> Self {
        AxiomSet {
            map: self.map.intersect_elementwise(&other.map),
        }
    }

    /// Element-wise difference: probes `other` per element. Retained as the
    /// documented fallback path (differential-testing and benchmark baseline
    /// for the structural walk).
    pub fn difference_elementwise(&self, other: &Self) -> Self {
        AxiomSet {
            map: self.map.difference_elementwise(&other.map),
        }
    }

    /// True if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        self.map.is_subset(&other.map)
    }

    /// True if the sets share no element.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.map.is_disjoint(&other.map)
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

impl<T: Clone + Eq + Hash> Default for AxiomSet<T> {
    fn default() -> Self {
        AxiomSet::new()
    }
}

impl<T: Clone + Eq + Hash> std::ops::BitOr for &AxiomSet<T> {
    type Output = AxiomSet<T>;

    /// `a | b` is the structural [`union`](AxiomSet::union).
    fn bitor(self, rhs: Self) -> AxiomSet<T> {
        self.union(rhs)
    }
}

impl<T: Clone + Eq + Hash> std::ops::BitAnd for &AxiomSet<T> {
    type Output = AxiomSet<T>;

    /// `a & b` is the structural [`intersect`](AxiomSet::intersect).
    fn bitand(self, rhs: Self) -> AxiomSet<T> {
        self.intersect(rhs)
    }
}

impl<T: Clone + Eq + Hash> std::ops::Sub for &AxiomSet<T> {
    type Output = AxiomSet<T>;

    /// `a - b` is the structural [`difference`](AxiomSet::difference).
    fn sub(self, rhs: Self) -> AxiomSet<T> {
        self.difference(rhs)
    }
}

impl<T: Clone + Eq + Hash> PartialEq for AxiomSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl<T: Clone + Eq + Hash> Eq for AxiomSet<T> {}

impl<T: Clone + Eq + Hash> std::hash::Hash for AxiomSet<T> {
    /// Order-independent hash: the sum of per-element hashes, so equal sets
    /// hash equally regardless of trie-internal ordering.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.map.hash(state);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for AxiomSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set()
            .entries(Iter::new(self.root_node(), self.map.len()))
            .finish()
    }
}

impl<T: Clone + Eq + Hash> FromIterator<T> for AxiomSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        trie_common::ops::from_iter_via(iter)
    }
}

impl<T: Clone + Eq + Hash> Extend<T> for AxiomSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        trie_common::ops::extend_via(self, iter);
    }
}

impl<'a, T: Clone + Eq + Hash> IntoIterator for &'a AxiomSet<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// Iterator over the elements of an [`AxiomSet`]. Created by
/// [`AxiomSet::iter`].
///
/// Because slots are grouped by category, all of a node's inlined elements
/// are yielded before any sub-trie is entered — the paper's histogram-driven
/// batch iteration (§3.3) falls out of the grouping for free.
///
/// The walk's stack lives in the iterator, so iterating allocates nothing.
pub struct Iter<'a, T> {
    inner: node::Iter<'a, SlotBitmap, T, ()>,
}

impl<'a, T> Iter<'a, T> {
    pub(crate) fn new(root: &'a Node<T>, len: usize) -> Self {
        Iter {
            inner: node::Iter::new(root, len),
        }
    }
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

/// Owning iterator over an [`AxiomSet`] (materializes the elements).
#[derive(Debug)]
pub struct IntoIter<T> {
    inner: std::vec::IntoIter<T>,
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.inner.next()
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<T: Clone + Eq + Hash> IntoIterator for AxiomSet<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;
    fn into_iter(self) -> IntoIter<T> {
        IntoIter {
            inner: self.iter().cloned().collect::<Vec<_>>().into_iter(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::hash::Hasher;

    /// Key with a controllable hash: only `bucket` feeds the hasher, so equal
    /// buckets collide on all 32 hash bits while `id` keeps keys distinct.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
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
    fn empty_set_basics() {
        let s = AxiomSet::<u32>::new();
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert!(!s.contains(&1));
        assert_eq!(s.iter().count(), 0);
        s.assert_invariants();
    }

    #[test]
    fn insert_lookup_thousand() {
        let mut s = AxiomSet::new();
        for i in 0..1000u32 {
            assert!(s.insert_mut(i));
        }
        assert_eq!(s.len(), 1000);
        for i in 0..1000u32 {
            assert!(s.contains(&i), "{i}");
        }
        for i in 1000..1100u32 {
            assert!(!s.contains(&i), "{i}");
        }
        s.assert_invariants();
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let s: AxiomSet<u32> = (0..50).collect();
        let t = s.inserted(7);
        assert_eq!(s, t);
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn remove_roundtrip() {
        let full: AxiomSet<u32> = (0..300).collect();
        let mut s = full.clone();
        for i in (0..300u32).rev() {
            assert!(s.remove_mut(&i));
            assert!(!s.contains(&i));
            s.assert_invariants();
        }
        assert!(s.is_empty());
        // Persistence: the original version is untouched.
        assert_eq!(full.len(), 300);
        full.assert_invariants();
    }

    #[test]
    fn remove_absent_is_noop() {
        let s: AxiomSet<u32> = (0..20).collect();
        let t = s.removed(&999);
        assert_eq!(s, t);
    }

    #[test]
    fn persistence_keeps_old_versions_valid() {
        let v0: AxiomSet<u32> = (0..100).collect();
        let v1 = v0.inserted(100);
        let v2 = v1.removed(&0);
        assert!(v0.contains(&0) && !v0.contains(&100));
        assert!(v1.contains(&0) && v1.contains(&100));
        assert!(!v2.contains(&0) && v2.contains(&100));
        for v in [&v0, &v1, &v2] {
            v.assert_invariants();
        }
    }

    #[test]
    fn full_hash_collisions_resolve() {
        let mut s = AxiomSet::new();
        for id in 0..10 {
            assert!(s.insert_mut(Collide { bucket: 42, id }));
        }
        for id in 0..10 {
            assert!(s.contains(&Collide { bucket: 42, id }));
        }
        assert!(!s.contains(&Collide { bucket: 42, id: 10 }));
        assert_eq!(s.len(), 10);
        s.assert_invariants();

        for id in 0..9 {
            assert!(s.remove_mut(&Collide { bucket: 42, id }));
            s.assert_invariants();
        }
        assert_eq!(s.len(), 1);
        assert!(s.contains(&Collide { bucket: 42, id: 9 }));
    }

    #[test]
    fn mixed_collisions_and_regular_keys() {
        let mut s = AxiomSet::new();
        for id in 0..8 {
            s.insert_mut(Collide { bucket: 1, id });
            s.insert_mut(Collide { bucket: 2, id });
            s.insert_mut(Collide {
                bucket: 1000 + id,
                id,
            });
        }
        assert_eq!(s.len(), 24);
        s.assert_invariants();
        let as_btree: BTreeSet<_> = s.iter().cloned().collect();
        assert_eq!(as_btree.len(), 24);
    }

    #[test]
    fn iteration_yields_every_element_once() {
        let s: AxiomSet<u32> = (0..512).collect();
        let seen: BTreeSet<u32> = s.iter().copied().collect();
        assert_eq!(seen.len(), 512);
        assert_eq!(s.iter().len(), 512);
        assert_eq!(seen, (0..512).collect());
    }

    #[test]
    fn equality_is_order_independent() {
        let a: AxiomSet<u32> = (0..100).collect();
        let b: AxiomSet<u32> = (0..100).rev().collect();
        assert_eq!(a, b);
        let c = b.inserted(200);
        assert_ne!(a, c);
    }

    #[test]
    fn equal_sets_hash_equal() {
        use std::collections::hash_map::DefaultHasher;
        let a: AxiomSet<u32> = (0..64).collect();
        let b: AxiomSet<u32> = (0..64).rev().collect();
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn set_algebra() {
        let a: AxiomSet<u32> = (0..10).collect();
        let b: AxiomSet<u32> = (5..15).collect();
        let union = a.union(&b);
        let inter = a.intersect(&b);
        let diff = a.difference(&b);
        assert_eq!(union.len(), 15);
        assert_eq!(inter.len(), 5);
        assert_eq!(diff.len(), 5);
        assert!(inter.is_subset(&a) && inter.is_subset(&b));
        assert!(diff.is_disjoint(&b));
        assert!(a.is_subset(&union));
        union.assert_invariants();
        inter.assert_invariants();
        // Structural and element-wise paths agree.
        assert_eq!(union, a.union_elementwise(&b));
        assert_eq!(inter, a.intersect_elementwise(&b));
        assert_eq!(diff, a.difference_elementwise(&b));
        // Operator sugar routes through the structural walks.
        assert_eq!(&a | &b, union);
        assert_eq!(&a & &b, inter);
        assert_eq!(&a - &b, diff);
    }

    #[test]
    fn set_algebra_shares_structure() {
        let a: AxiomSet<u32> = (0..1000).collect();
        // A successor differing by one element shares almost everything.
        let b = a.inserted(5000);
        let u = a.union(&b);
        assert_eq!(u, b);
        // Union with self (or an equal-rooted successor) reuses the root handle.
        let self_union = a.union(&a.clone());
        assert!(Node::ptr_eq(self_union.root_node(), a.root_node()));
        // Union where `other` adds nothing also reuses the root.
        let back = b.union(&a);
        assert!(Node::ptr_eq(back.root_node(), b.root_node()));
        // Intersection with a superset keeps `self` unchanged by pointer.
        let inter = a.intersect(&b);
        assert!(Node::ptr_eq(inter.root_node(), a.root_node()));
        // Difference against self is empty; against the successor drops 0.
        assert!(a.difference(&a.clone()).is_empty());
        assert_eq!(b.difference(&a).len(), 1);
        u.assert_invariants();
    }

    #[test]
    fn set_diff_is_sparse() {
        let a: AxiomSet<u32> = (0..1000).collect();
        let mut b = a.clone();
        b.insert_mut(7777);
        b.remove_mut(&13);
        let d = a.diff(&b);
        assert_eq!(d.added, vec![7777]);
        assert_eq!(d.removed, vec![13]);
        assert!(a.diff(&a.clone()).is_empty());
    }

    #[test]
    fn set_algebra_with_collisions() {
        let a: AxiomSet<Collide> = (0..40).map(|id| Collide { bucket: id % 4, id }).collect();
        let b: AxiomSet<Collide> = (20..60).map(|id| Collide { bucket: id % 4, id }).collect();
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
    fn from_two_builds_canonical_pair() {
        let s = AxiomSet::from_two(1u32, 2u32);
        assert_eq!(s.len(), 2);
        assert!(s.contains(&1) && s.contains(&2));
        s.assert_invariants();
        // Colliding pair lands in a collision chain.
        let c = AxiomSet::from_two(Collide { bucket: 9, id: 0 }, Collide { bucket: 9, id: 1 });
        assert_eq!(c.len(), 2);
        c.assert_invariants();
    }

    #[test]
    fn sole_returns_singleton_element() {
        let s: AxiomSet<u32> = std::iter::once(7).collect();
        assert_eq!(*s.sole(), 7);
    }

    #[test]
    fn borrowed_lookup_for_strings() {
        let s: AxiomSet<String> = ["alpha", "beta"].iter().map(|s| s.to_string()).collect();
        assert!(s.contains("alpha"));
        assert!(!s.contains("gamma"));
        assert_eq!(s.get("beta").map(String::as_str), Some("beta"));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AxiomSet<u32>>();
        assert_send_sync::<Iter<'static, u32>>();
    }
}
