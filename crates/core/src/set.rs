//! A persistent hash set built on the AXIOM node encoding.
//!
//! [`AxiomSet`] serves two roles: it is the nested collection behind the
//! multi-map's `1:n` mappings (paper §3: "1:n mappings allocate and nest a
//! set data structure"), and a standalone persistent set used by the static
//! analysis case study's relational algebra.
//!
//! Sets are the homogeneous instance of AXIOM: only categories `EMPTY`,
//! `CAT1` (an element) and `NODE` are populated, which is exactly the CHAMP
//! special case of the encoding (paper §3.1). Each node is one allocation
//! ([`trie_common::packed`]): the 2-bit bitmap, then the inlined elements,
//! then the sub-trie handles, each group ascending by mask. The bitmap is
//! the only tag; no slot carries one.
//!
//! `union`, `intersect`, `difference`, `diff` and `==` are the lockstep
//! walks of [`trie_common::algebra`], shared with the CHAMP set; this
//! module supplies their node view (`View`): one cursor per slot group,
//! and the insert, remove and node-building hooks.
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
use std::convert::Infallible;
use std::hash::Hash;
use std::marker::PhantomData;

use trie_common::algebra::{self, masks, At, Canonical, Removal, SetTrie, Trie};
use trie_common::bits::{hash_exhausted, mask, next_shift};
use trie_common::hash::hash32;
use trie_common::ops::SetDiff;
use trie_common::packed::{Children, Ones, Packed, Slot};

use crate::bitmap::{Category, SlotBitmap};
use crate::slots::{edit_child, insert_slot, remove_slot, survivor};

/// A trie node: one allocation holding the bitmap, the inlined elements
/// and the sub-trie handles (`[T] | [Node]`). Past the last hash level a
/// node is a collision node: elements sharing one 32-bit hash, no children,
/// an unused bitmap.
pub(crate) type Node<T> = Packed<SlotBitmap, T, Infallible>;

fn empty<T>() -> Node<T> {
    Node::new(SlotBitmap::EMPTY, [], [], [])
}

/// Builds the minimal sub-trie holding two *distinct* elements whose hash
/// prefixes agree up to `shift`.
fn pair<T>(h1: u32, e1: T, h2: u32, e2: T, shift: u32) -> Node<T> {
    if hash_exhausted(shift) {
        debug_assert_eq!(h1, h2);
        return Node::new(SlotBitmap::EMPTY, [e1, e2], [], []);
    }
    let m1 = mask(h1, shift);
    let m2 = mask(h2, shift);
    if m1 == m2 {
        let child = pair(h1, e1, h2, e2, next_shift(shift));
        return Node::new(SlotBitmap::EMPTY.with(m1, Category::Node), [], [], [child]);
    }
    let bitmap = SlotBitmap::EMPTY
        .with(m1, Category::Cat1)
        .with(m2, Category::Cat1);
    let elems = if m1 < m2 { [e1, e2] } else { [e2, e1] };
    Node::new(bitmap, elems, [], [])
}

/// The root of a one-element set (a collapsed trie's last element).
fn single<T: Hash>(value: T) -> Node<T> {
    let bitmap = SlotBitmap::EMPTY.with(mask(hash32(&value), 0), Category::Cat1);
    Node::new(bitmap, [value], [], [])
}

fn get<'a, T, Q>(node: &'a Node<T>, hash: u32, shift: u32, value: &Q) -> Option<&'a T>
where
    T: Borrow<Q>,
    Q: Eq + ?Sized,
{
    if hash_exhausted(shift) {
        return node.ones().iter().find(|e| (*e).borrow() == value);
    }
    // Fused dispatch: category and slot index from one pass.
    match node.word().locate(mask(hash, shift)) {
        (Category::Cat1, idx) => Some(node.one(idx)).filter(|e| (*e).borrow() == value),
        (Category::Node, idx) => get(node.child(idx), hash, next_shift(shift), value),
        _ => None,
    }
}

fn contains<T, Q>(node: &Node<T>, hash: u32, shift: u32, value: &Q) -> bool
where
    T: Borrow<Q>,
    Q: Eq + ?Sized,
{
    get(node, hash, shift, value).is_some()
}

/// Inserts `value` into the trie at `root` (see [`insert_in_place`]).
/// Returns true if the set grew.
pub(crate) fn insert_root<T: Clone + Eq + Hash>(root: &mut Node<T>, value: T) -> bool {
    let hash = hash32(&value);
    insert_in_place(root, hash, 0, value)
}

/// Removes `value` from the trie at `root`, re-rooting a trie that
/// collapsed to one element. Returns true if the set shrank.
pub(crate) fn remove_root<T, Q>(root: &mut Node<T>, value: &Q) -> bool
where
    T: Clone + Eq + Hash + Borrow<Q>,
    Q: Eq + Hash + ?Sized,
{
    match remove_in_place(root, hash32(value), 0, value) {
        Removal::NotFound => false,
        Removal::Removed => true,
        Removal::Single(survivor) => {
            // Only reachable when the root collapses to one element.
            *root = single(survivor);
            true
        }
    }
}

/// Membership test on the trie at `root`.
pub(crate) fn contains_root<T, Q>(root: &Node<T>, value: &Q) -> bool
where
    T: Borrow<Q>,
    Q: Eq + Hash + ?Sized,
{
    contains(root, hash32(value), 0, value)
}

/// Number of elements below `node`, counted by walking the trie.
pub(crate) fn count<T>(node: &Node<T>) -> usize {
    node.ones().len() + node.children().iter().map(count).sum::<usize>()
}

/// Inserts `value` below `this`, editing unique nodes in place and copying
/// shared ones on write (see [`crate::slots`]). Takes `value` by ownership
/// so the common paths move it into its final slot. Returns true if the set
/// grew.
fn insert_in_place<T: Clone + Eq + Hash>(
    this: &mut Node<T>,
    hash: u32,
    shift: u32,
    value: T,
) -> bool {
    if hash_exhausted(shift) {
        if this.ones().contains(&value) {
            return false;
        }
        let end = this.ones().len();
        this.insert(SlotBitmap::EMPTY, end, Slot::One(value));
        return true;
    }
    let bitmap = this.word();
    let m = mask(hash, shift);
    match bitmap.locate(m) {
        (Category::Cat1, idx) => {
            let existing = this.one(idx);
            if *existing == value {
                return false;
            }
            // Prefix clash: both elements descend into a fresh sub-trie;
            // the slot migrates CAT1 → NODE.
            let existing_hash = hash32(existing);
            let bitmap = bitmap.with(m, Category::Node);
            let to = bitmap.slot_index(Category::Node, m);
            this.migrate::<Ones, _>(bitmap, idx, to, |existing| {
                let child = pair(existing_hash, existing, hash, value, next_shift(shift));
                (Slot::Child(child), ())
            });
            true
        }
        (Category::Node, idx) => edit_child(
            this,
            idx,
            |child| insert_in_place(child, hash, next_shift(shift), value),
            |grew| *grew,
        ),
        _ => {
            let bitmap = bitmap.with(m, Category::Cat1);
            let idx = bitmap.slot_index(Category::Cat1, m);
            insert_slot(this, bitmap, idx, Slot::One(value));
            true
        }
    }
}

/// Removes `value` below `this` with the same copy-on-write discipline as
/// [`insert_in_place`], canonicalizing on the way up.
fn remove_in_place<T, Q>(this: &mut Node<T>, hash: u32, shift: u32, value: &Q) -> Removal<T>
where
    T: Clone + Eq + Hash + Borrow<Q>,
    Q: Eq + ?Sized,
{
    if hash_exhausted(shift) {
        let Some(pos) = this.ones().iter().position(|e| e.borrow() == value) else {
            return Removal::NotFound;
        };
        return match this.ones().len() {
            2 => Removal::Single(take_element(survivor(this, pos))),
            _ => {
                this.remove(SlotBitmap::EMPTY, pos);
                Removal::Removed
            }
        };
    }
    let bitmap = this.word();
    let m = mask(hash, shift);
    match bitmap.locate(m) {
        (Category::Cat1, idx) => {
            if this.one(idx).borrow() != value {
                return Removal::NotFound;
            }
            let bitmap = bitmap.with(m, Category::Empty);
            if shift > 0 && bitmap.payload_arity() == 1 && bitmap.node_arity() == 0 {
                // The node held exactly two elements; hand the survivor to
                // the parent for inlining.
                return Removal::Single(take_element(survivor(this, idx)));
            }
            remove_slot(this, bitmap, idx);
            Removal::Removed
        }
        (Category::Node, idx) => {
            // A pure chain node dissolves when its child collapses.
            let chain = shift > 0 && bitmap.payload_arity() == 0 && bitmap.node_arity() == 1;
            match edit_child(
                this,
                idx,
                |child| remove_in_place(child, hash, next_shift(shift), value),
                |outcome| matches!(outcome, Removal::Removed),
            ) {
                Removal::Single(e) if !chain => {
                    // Inline the survivor: NODE → CAT1, dropping the
                    // collapsed child after the move.
                    let bitmap = bitmap.with(m, Category::Cat1);
                    let to = bitmap.slot_index(Category::Cat1, m);
                    this.migrate::<Children, _>(bitmap, idx, to, |child| (Slot::One(e), child));
                    Removal::Removed
                }
                outcome => outcome,
            }
        }
        _ => Removal::NotFound,
    }
}

/// The element of a surviving set slot: a set node's payload is all
/// `CAT1`, and a collapsing node holds no child.
fn take_element<T>(slot: Slot<T, Infallible, Node<T>>) -> T {
    match slot {
        Slot::One(e) => e,
        Slot::Many(never) => match never {},
        Slot::Child(_) => unreachable!("a collapsing node holds two elements"),
    }
}

/// The [`algebra`] view of a set trie: the node hooks the structural
/// `union`, `intersect`, `difference`, `diff` and `==` walks run on.
pub(crate) struct View<T>(PhantomData<T>);

impl<T: Clone + Eq + Hash> Trie for View<T> {
    type Key = T;
    type Value = ();
    type Node = Node<T>;

    fn ptr_eq(a: &Node<T>, b: &Node<T>) -> bool {
        Node::ptr_eq(a, b)
    }

    fn occupied_with(a: &Node<T>, b: &Node<T>) -> impl Iterator<Item = u32> {
        a.word().occupied_with(b.word())
    }

    /// One cursor per slot group: each group is ascending by mask, so no
    /// branch costs a popcount.
    fn cursor<'a>(node: &'a Node<T>) -> impl FnMut(u32) -> At<'a, Self>
    where
        Self: 'a,
    {
        let (bitmap, mut elems, mut children) =
            (node.word(), node.ones().iter(), node.children().iter());
        move |m| match bitmap.get(m) {
            Category::Cat1 => elems.next().map_or(At::Nothing, |e| At::Payload(e, &())),
            Category::Node => children.next().map_or(At::Nothing, At::Sub),
            _ => At::Nothing,
        }
    }

    fn payload<'a>(node: &'a Node<T>) -> impl Iterator<Item = (&'a T, &'a ())> + Clone
    where
        Self: 'a,
    {
        node.ones().iter().map(|e| (e, &()))
    }

    fn children<'a>(node: &'a Node<T>) -> impl Iterator<Item = &'a Node<T>>
    where
        Self: 'a,
    {
        node.children().iter()
    }

    fn get<'a>(node: &'a Node<T>, hash: u32, shift: u32, key: &T) -> Option<&'a ()>
    where
        Self: 'a,
    {
        get(node, hash, shift, key).map(|_| &())
    }
}

impl<T: Clone + Eq + Hash> Canonical for View<T> {
    fn same_payload(a: &Node<T>, b: &Node<T>) -> bool {
        a.word() == b.word() && a.ones() == b.ones()
    }
}

impl<T: Clone + Eq + Hash> SetTrie for View<T> {
    fn pair(h1: u32, e1: T, h2: u32, e2: T, shift: u32) -> Node<T> {
        pair(h1, e1, h2, e2, shift)
    }

    fn insert(node: &mut Node<T>, hash: u32, shift: u32, e: T) -> bool {
        insert_in_place(node, hash, shift, e)
    }

    fn remove(node: &mut Node<T>, hash: u32, shift: u32, e: &T) -> Removal<T> {
        remove_in_place(node, hash, shift, e)
    }

    fn collision(elems: Vec<T>) -> Node<T> {
        Node::new(SlotBitmap::EMPTY, elems, [], [])
    }

    fn assemble(
        elem_masks: u32,
        child_masks: u32,
        elems: impl ExactSizeIterator<Item = T>,
        children: impl ExactSizeIterator<Item = Node<T>>,
    ) -> Node<T> {
        let mut bitmap = SlotBitmap::EMPTY;
        masks(elem_masks).for_each(|m| bitmap = bitmap.with(m, Category::Cat1));
        masks(child_masks).for_each(|m| bitmap = bitmap.with(m, Category::Node));
        Node::new(bitmap, elems, [], children)
    }
}

/// A persistent (immutable, structurally shared) hash set.
///
/// Cheap to clone (`O(1)`, bumps one reference count); every update returns a
/// new set sharing unchanged sub-tries with its ancestors. See the
/// [module documentation](self) for the encoding.
pub struct AxiomSet<T> {
    pub(crate) root: Node<T>,
    pub(crate) len: usize,
}

impl<T> Clone for AxiomSet<T> {
    fn clone(&self) -> Self {
        AxiomSet {
            root: self.root.clone(),
            len: self.len,
        }
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
            root: empty(),
            len: 0,
        }
    }

    /// Creates the two-element set used when a `1:1` multi-map slot is
    /// promoted to `1:n`. `a` and `b` must be distinct.
    pub(crate) fn from_two(a: T, b: T) -> Self {
        debug_assert!(a != b);
        let (ha, hb) = (hash32(&a), hash32(&b));
        Self::from_two_hashed(a, ha, b, hb)
    }

    /// [`AxiomSet::from_two`] of values whose hashes the caller computed:
    /// hashes nothing.
    pub(crate) fn from_two_hashed(a: T, ha: u32, b: T, hb: u32) -> Self {
        AxiomSet {
            root: pair(ha, a, hb, b, 0),
            len: 2,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the set holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        contains_root(&self.root, value)
    }

    /// Returns a reference to the stored element equal to `value`, if any.
    pub fn get<Q>(&self, value: &Q) -> Option<&T>
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        get(&self.root, hash32(value), 0, value)
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
        let grew = insert_root(&mut self.root, value);
        self.len += usize::from(grew);
        grew
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
        let shrank = remove_root(&mut self.root, value);
        self.len -= usize::from(shrank);
        shrank
    }

    /// The sole element of a singleton set (multi-map demotion helper).
    ///
    /// # Panics
    ///
    /// Panics if the set does not hold exactly one element.
    pub(crate) fn sole(&self) -> &T {
        assert_eq!(self.len, 1, "sole() requires a singleton set");
        self.iter().next().expect("len == 1")
    }

    /// Iterates the elements in unspecified (trie) order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter::new(&self.root, self.len)
    }

    /// Rebuilds the one-element set (canonicalization helper).
    pub(crate) fn singleton(value: T) -> Self {
        AxiomSet {
            root: single(value),
            len: 1,
        }
    }

    /// Union of two sets via a lockstep structural walk
    /// ([`trie_common::algebra`]): subtrees the operands share by pointer
    /// are reused wholesale, so the cost is O(changed) — and a self-union
    /// returns `self` without allocating.
    pub fn union(&self, other: &Self) -> Self {
        self.or(algebra::union::<View<T>>(self.parts(), other.parts()))
    }

    /// Intersection of two sets via a lockstep structural walk (shared
    /// subtrees survive by pointer, cost O(changed)).
    pub fn intersect(&self, other: &Self) -> Self {
        self.or(algebra::intersect::<View<T>>(self.parts(), other.parts()))
    }

    /// Elements of `self` not in `other`, via a lockstep structural walk
    /// (a shared subtree cancels out in O(1)).
    pub fn difference(&self, other: &Self) -> Self {
        self.or(algebra::difference::<View<T>>(self.parts(), other.parts()))
    }

    /// What changed between `self` (old) and `other` (new): pointer-shared
    /// subtrees emit nothing, so output and walk are both O(changed).
    pub fn diff(&self, other: &Self) -> SetDiff<T> {
        algebra::diff::<View<T>, _>(&self.root, &other.root, SetDiff::new())
    }

    fn parts(&self) -> (&Node<T>, usize) {
        (&self.root, self.len)
    }

    /// `self`, or the set at the root and length a walk built.
    fn or(&self, walked: Option<(Node<T>, usize)>) -> Self {
        walked.map_or_else(|| self.clone(), |(root, len)| AxiomSet { root, len })
    }

    /// Element-wise union: iterates the smaller into the larger. Retained as
    /// the documented fallback path (differential-testing and benchmark
    /// baseline for the structural walk).
    pub fn union_elementwise(&self, other: &Self) -> Self {
        let (big, small) = if self.len >= other.len {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = big.clone();
        for v in small.iter() {
            out.insert_mut(v.clone());
        }
        out
    }

    /// Element-wise intersection: scans the smaller, probes the larger.
    /// Retained as the documented fallback path (differential-testing and
    /// benchmark baseline for the structural walk).
    pub fn intersect_elementwise(&self, other: &Self) -> Self {
        let (probe, scan) = if self.len >= other.len {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = AxiomSet::new();
        for v in scan.iter() {
            if probe.contains(v) {
                out.insert_mut(v.clone());
            }
        }
        out
    }

    /// Element-wise difference: probes `other` per element. Retained as the
    /// documented fallback path (differential-testing and benchmark baseline
    /// for the structural walk).
    pub fn difference_elementwise(&self, other: &Self) -> Self {
        let mut out = AxiomSet::new();
        for v in self.iter() {
            if !other.contains(v) {
                out.insert_mut(v.clone());
            }
        }
        out
    }

    /// True if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        self.len <= other.len && self.iter().all(|v| other.contains(v))
    }

    /// True if the sets share no element.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        let (probe, scan) = if self.len >= other.len {
            (self, other)
        } else {
            (other, self)
        };
        scan.iter().all(|v| !probe.contains(v))
    }

    pub(crate) fn root_node(&self) -> &Node<T> {
        &self.root
    }

    /// Recursively checks the canonical-form invariants (test support).
    ///
    /// # Panics
    ///
    /// Panics if any structural invariant is violated.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        let counted = validate(&self.root, 0, None);
        assert_eq!(counted, self.len, "len bookkeeping");
    }
}

/// Validates canonical form below `node`; returns the element count.
pub(crate) fn validate<T: Clone + Eq + Hash>(
    node: &Node<T>,
    shift: u32,
    prefix: Option<u32>,
) -> usize {
    if hash_exhausted(shift) {
        let elems = node.ones();
        assert!(node.children().is_empty(), "collision node with children");
        assert!(elems.len() >= 2, "collision node with < 2 elements");
        let hash = hash32(&elems[0]);
        for (i, e) in elems.iter().enumerate() {
            assert_eq!(hash32(e), hash, "collision member hash");
            assert!(!elems[i + 1..].contains(e), "duplicate in collision node");
        }
        if let Some(p) = prefix {
            assert_eq!(hash, p, "collision hash disagrees with path");
        }
        return elems.len();
    }
    let bitmap = node.word();
    assert_eq!(bitmap.count(Category::Cat2), 0, "sets never use CAT2");
    assert_eq!(
        node.ones().len(),
        bitmap.count(Category::Cat1),
        "element count"
    );
    assert_eq!(node.children().len(), bitmap.node_arity(), "child count");
    for (e, m) in node.ones().iter().zip(bitmap.masks_of(Category::Cat1)) {
        assert_eq!(mask(hash32(e), shift), m, "element in wrong branch");
    }
    let mut total = node.ones().len();
    for child in node.children() {
        let sub = validate(child, next_shift(shift), prefix);
        assert!(sub >= 2, "sub-trie with < 2 elements not inlined");
        total += sub;
    }
    if shift > 0 {
        assert!(
            !(bitmap.payload_arity() == 1 && bitmap.node_arity() == 0),
            "non-root singleton payload node must be inlined"
        );
        assert!(bitmap.arity() >= 1, "empty non-root node");
    }
    total
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
        self.len == other.len && algebra::eq::<View<T>>(&self.root, &other.root)
    }
}

impl<T: Clone + Eq + Hash> Eq for AxiomSet<T> {}

impl<T: Clone + Eq + Hash> std::hash::Hash for AxiomSet<T> {
    /// Order-independent hash: the sum of per-element hashes, so equal sets
    /// hash equally regardless of trie-internal ordering.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let mut acc = 0u64;
        for v in self.iter() {
            acc = acc.wrapping_add(hash32(v) as u64);
        }
        state.write_u64(acc);
        state.write_usize(self.len);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for AxiomSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set()
            .entries(Iter::new(&self.root, self.len))
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
    elems: std::slice::Iter<'a, T>,
    /// The unvisited children of each node on the path from the root.
    stack: [std::slice::Iter<'a, Node<T>>; DEPTH],
    depth: usize,
    remaining: usize,
}

/// The most nodes on one root-to-leaf path: seven bitmap levels consume the
/// 32 hash bits five at a time, and a collision node may sit below them.
const DEPTH: usize = 8;

impl<'a, T> Iter<'a, T> {
    pub(crate) fn new(root: &'a Node<T>, len: usize) -> Self {
        let mut stack: [std::slice::Iter<'a, Node<T>>; DEPTH] = Default::default();
        stack[0] = root.children().iter();
        Iter {
            elems: root.ones().iter(),
            stack,
            depth: 1,
            remaining: len,
        }
    }
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(e) = self.elems.next() {
                self.remaining -= 1;
                return Some(e);
            }
            match self.stack[..self.depth].last_mut()?.next() {
                Some(child) => {
                    self.elems = child.ones().iter();
                    self.stack[self.depth] = child.children().iter();
                    self.depth += 1;
                }
                None => self.depth -= 1,
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<'a, T> ExactSizeIterator for Iter<'a, T> {}

impl<'a, T> std::fmt::Debug for Iter<'a, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Iter")
            .field("remaining", &self.remaining)
            .finish()
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
        assert!(Node::ptr_eq(&self_union.root, &a.root));
        // Union where `other` adds nothing also reuses the root.
        let back = b.union(&a);
        assert!(Node::ptr_eq(&back.root, &b.root));
        // Intersection with a superset keeps `self` unchanged by pointer.
        let inter = a.intersect(&b);
        assert!(Node::ptr_eq(&inter.root, &a.root));
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
