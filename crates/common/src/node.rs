//! The bitmap-trie node walk of the AXIOM and CHAMP sets and maps, written
//! once.
//!
//! A set is the homogeneous case of the AXIOM encoding, "exactly the CHAMP
//! special case" (paper §3.1), and a set is a map to `()`. So the four
//! tries are one node and one walk over two bitmap syntaxes:
//!
//! * a node is a [`Packed`] block holding its bitmap word, its inlined
//!   `(key, value)` entries ascending by mask and its sub-trie handles
//!   ascending by mask; `(T, ())` has the size of `T`, so a set node is
//!   what it would be with the elements alone;
//! * the word is any [`Bitmap`]: AXIOM's 2-bit `SlotBitmap` using `CAT1`
//!   and `NODE` only, or CHAMP's `(datamap, nodemap)` pair. Both fit the
//!   block's 16-byte header;
//! * past the last hash level a node is a collision node: entries sharing
//!   one 32-bit hash, no children, an `EMPTY` word. The walks tell it from
//!   a bitmap node by depth.
//!
//! The walk provides point lookup ([`get`]), insertion that replaces a
//! value only when it is unequal ([`insert_root`]), removal that inlines a
//! sub-trie left with one entry into its parent ([`remove_root`]), the
//! iterator ([`Iter`]), the canonical-form check ([`validate`]), the
//! [`algebra`] view ([`View`]) and the traversal of the footprint walks
//! ([`visit`]). [`Map`] is the handle the four public types wrap: a root
//! node and its length.

use std::borrow::Borrow;
use std::convert::Infallible;
use std::hash::Hash;
use std::marker::PhantomData;

use crate::algebra::{self, masks, At, Canonical, Removal, SetTrie, Sink, Trie};
use crate::bits::{hash_exhausted, mask, next_shift};
use crate::hash::hash32;
use crate::packed::{Children, Ones, Packed, Slot};
use crate::slices::{edit_child, insert_slot, remove_slot, survivor};

/// What a node holds at one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Branch {
    /// Nothing.
    Empty,
    /// An inlined entry.
    Payload,
    /// A sub-trie.
    Node,
}

/// A bitmap syntax: how a node's word records which of its 32 branches
/// hold an entry and which a sub-trie, and where each sits in the node's
/// slots (entries first, then sub-tries, each ascending by mask).
pub trait Bitmap: Copy + Eq {
    /// The word of a node with every branch empty.
    const EMPTY: Self;

    /// What branch `mask` holds.
    fn get(self, mask: u32) -> Branch;

    /// What branch `mask` holds and its absolute slot index (meaningless
    /// for an empty branch), in one pass over the word.
    fn locate(self, mask: u32) -> (Branch, usize);

    /// The word with branch `mask` set to hold `branch`.
    fn with(self, mask: u32, branch: Branch) -> Self;

    /// The absolute slot index of branch `mask`, which holds `branch`.
    fn slot_index(self, branch: Branch, mask: u32) -> usize;

    /// Number of branches holding an entry.
    fn payload_arity(self) -> usize;

    /// Number of branches holding a sub-trie.
    fn node_arity(self) -> usize;

    /// The masks occupied in `self` or in `other`, ascending.
    fn occupied_with(self, other: Self) -> impl Iterator<Item = u32>;
}

/// A trie node: one allocation holding the word, the inlined entries and
/// the sub-trie handles.
pub type Node<W, K, V> = Packed<W, (K, V), Infallible>;

/// The minimal sub-trie holding two entries with distinct keys whose hash
/// prefixes agree up to `shift`.
fn pair<W: Bitmap, K, V>(h1: u32, e1: (K, V), h2: u32, e2: (K, V), shift: u32) -> Node<W, K, V> {
    if hash_exhausted(shift) {
        debug_assert_eq!(h1, h2);
        return Node::new(W::EMPTY, [e1, e2], [], []);
    }
    let (m1, m2) = (mask(h1, shift), mask(h2, shift));
    if m1 == m2 {
        let child = pair(h1, e1, h2, e2, next_shift(shift));
        return Node::new(W::EMPTY.with(m1, Branch::Node), [], [], [child]);
    }
    let word = W::EMPTY.with(m1, Branch::Payload).with(m2, Branch::Payload);
    let entries = if m1 < m2 { [e1, e2] } else { [e2, e1] };
    Node::new(word, entries, [], [])
}

/// The root of a one-entry trie (a collapsed trie's last entry).
fn single<W: Bitmap, K: Hash, V>(entry: (K, V)) -> Node<W, K, V> {
    let word = W::EMPTY.with(mask(hash32(&entry.0), 0), Branch::Payload);
    Node::new(word, [entry], [], [])
}

/// The entry for `key` below `node`, whose branches are selected by the
/// hash bits from `shift` on.
pub fn get<'a, W, K, V, Q>(
    node: &'a Node<W, K, V>,
    hash: u32,
    shift: u32,
    key: &Q,
) -> Option<&'a (K, V)>
where
    W: Bitmap,
    K: Borrow<Q>,
    Q: Eq + ?Sized,
{
    if hash_exhausted(shift) {
        return node.ones().iter().find(|(k, _)| k.borrow() == key);
    }
    match node.word().locate(mask(hash, shift)) {
        (Branch::Payload, idx) => Some(node.one(idx)).filter(|(k, _)| k.borrow() == key),
        (Branch::Node, idx) => get(node.child(idx), hash, next_shift(shift), key),
        (Branch::Empty, _) => None,
    }
}

/// What inserting one entry below a node did.
enum Inserted<V> {
    /// An equal value was already bound; the offered one is handed back.
    Unchanged(V),
    /// The value the key was bound to before.
    Replaced(V),
    /// The key is new.
    Added,
}

/// Binds `key` to `value` in the trie at `root`, editing unique nodes in
/// place and copying shared ones on write. Returns `None` for a new key,
/// else the value it was bound to (or `value` itself, when equal: then
/// nothing is copied).
pub fn insert_root<W, K, V>(root: &mut Node<W, K, V>, key: K, value: V) -> Option<V>
where
    W: Bitmap,
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    let hash = hash32(&key);
    match insert(root, hash, 0, key, value) {
        Inserted::Unchanged(v) | Inserted::Replaced(v) => Some(v),
        Inserted::Added => None,
    }
}

/// Binds `key` to `value` below `this`. Takes the entry by ownership so the
/// common paths move it into its final slot.
fn insert<W, K, V>(this: &mut Node<W, K, V>, hash: u32, shift: u32, key: K, value: V) -> Inserted<V>
where
    W: Bitmap,
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    if hash_exhausted(shift) {
        return match this.ones().iter().position(|(k, _)| *k == key) {
            Some(pos) => replace(this, pos, value),
            None => {
                let end = this.ones().len();
                this.insert(W::EMPTY, end, Slot::One((key, value)));
                Inserted::Added
            }
        };
    }
    let word = this.word();
    let m = mask(hash, shift);
    match word.locate(m) {
        (Branch::Payload, idx) => {
            let (existing, _) = this.one(idx);
            if *existing == key {
                return replace(this, idx, value);
            }
            // Prefix clash: both entries descend into a fresh sub-trie; the
            // slot migrates payload → sub-trie.
            let existing_hash = hash32(existing);
            let word = word.with(m, Branch::Node);
            let to = word.slot_index(Branch::Node, m);
            this.migrate::<Ones, _>(word, idx, to, |existing| {
                let child = pair(
                    existing_hash,
                    existing,
                    hash,
                    (key, value),
                    next_shift(shift),
                );
                (Slot::Child(child), ())
            });
            Inserted::Added
        }
        (Branch::Node, idx) => edit_child(
            this,
            idx,
            |child| insert(child, hash, next_shift(shift), key, value),
            |outcome| !matches!(outcome, Inserted::Unchanged(_)),
        ),
        (Branch::Empty, _) => {
            let word = word.with(m, Branch::Payload);
            let idx = word.slot_index(Branch::Payload, m);
            insert_slot(this, word, idx, Slot::One((key, value)));
            Inserted::Added
        }
    }
}

/// Rebinds the entry at `idx` to `value` unless its value already equals
/// it.
fn replace<W, K, V>(this: &mut Node<W, K, V>, idx: usize, value: V) -> Inserted<V>
where
    W: Bitmap,
    K: Clone,
    V: Clone + PartialEq,
{
    if this.one(idx).1 == value {
        return Inserted::Unchanged(value);
    }
    Inserted::Replaced(std::mem::replace(&mut this.make_mut().ones[idx].1, value))
}

/// Removes `key` from the trie at `root`, re-rooting a trie that collapsed
/// to one entry. Returns true if an entry was removed.
pub fn remove_root<W, K, V, Q>(root: &mut Node<W, K, V>, key: &Q) -> bool
where
    W: Bitmap,
    K: Clone + Hash + Borrow<Q>,
    V: Clone,
    Q: Eq + Hash + ?Sized,
{
    match remove(root, hash32(key), 0, key) {
        Removal::NotFound => false,
        Removal::Removed => true,
        Removal::Single(entry) => {
            *root = single(entry);
            true
        }
    }
}

/// Removes `key` below `this` with the same copy-on-write discipline as
/// [`insert_root`]. Canonicalizes on the way up: a sub-trie left with one
/// entry hands it to its parent for inlining.
fn remove<W, K, V, Q>(this: &mut Node<W, K, V>, hash: u32, shift: u32, key: &Q) -> Removal<(K, V)>
where
    W: Bitmap,
    K: Clone + Borrow<Q>,
    V: Clone,
    Q: Eq + ?Sized,
{
    if hash_exhausted(shift) {
        let Some(pos) = this.ones().iter().position(|(k, _)| k.borrow() == key) else {
            return Removal::NotFound;
        };
        if this.ones().len() == 2 {
            return Removal::Single(take_entry(survivor(this, pos)));
        }
        this.remove(W::EMPTY, pos);
        return Removal::Removed;
    }
    let word = this.word();
    let m = mask(hash, shift);
    match word.locate(m) {
        (Branch::Payload, idx) => {
            if this.one(idx).0.borrow() != key {
                return Removal::NotFound;
            }
            let word = word.with(m, Branch::Empty);
            if shift > 0 && word.payload_arity() == 1 && word.node_arity() == 0 {
                // The node held exactly two entries; hand the survivor to
                // the parent for inlining.
                return Removal::Single(take_entry(survivor(this, idx)));
            }
            remove_slot(this, word, idx);
            Removal::Removed
        }
        (Branch::Node, idx) => {
            // A pure chain node dissolves when its child collapses.
            let chain = shift > 0 && word.payload_arity() == 0 && word.node_arity() == 1;
            match edit_child(
                this,
                idx,
                |child| remove(child, hash, next_shift(shift), key),
                |outcome| matches!(outcome, Removal::Removed),
            ) {
                Removal::Single(entry) if !chain => {
                    // Inline the survivor: sub-trie → payload, dropping the
                    // collapsed child after the move.
                    let word = word.with(m, Branch::Payload);
                    let to = word.slot_index(Branch::Payload, m);
                    this.migrate::<Children, _>(word, idx, to, |child| (Slot::One(entry), child));
                    Removal::Removed
                }
                outcome => outcome,
            }
        }
        (Branch::Empty, _) => Removal::NotFound,
    }
}

/// The entry of a surviving slot: a collapsing node holds two entries.
fn take_entry<K, V, N>(slot: Slot<(K, V), Infallible, N>) -> (K, V) {
    match slot {
        Slot::One(entry) => entry,
        Slot::Many(never) => match never {},
        Slot::Child(_) => unreachable!("a collapsing node holds two entries"),
    }
}

/// Number of entries below `node`, counted by walking the trie.
pub fn count<W, K, V>(node: &Node<W, K, V>) -> usize {
    node.ones().len() + node.children().iter().map(count).sum::<usize>()
}

/// The entry the walk of `node` yields first.
fn first<W, K, V>(node: &Node<W, K, V>) -> &(K, V) {
    match node.ones().first() {
        Some(entry) => entry,
        None => first(&node.children()[0]),
    }
}

/// Checks the canonical form below `node`, whose branches are selected by
/// the hash bits from `shift` on, and returns its entry count.
///
/// # Panics
///
/// Panics if an invariant is violated.
pub fn validate<W: Bitmap, K: Eq + Hash, V>(node: &Node<W, K, V>, shift: u32) -> usize {
    let (entries, children) = (node.ones(), node.children());
    if hash_exhausted(shift) {
        assert!(children.is_empty(), "collision node with children");
        assert!(entries.len() >= 2, "collision node with < 2 entries");
        let hash = hash32(&entries[0].0);
        for (i, (k, _)) in entries.iter().enumerate() {
            assert_eq!(hash32(k), hash, "collision member hash");
            assert!(
                entries[i + 1..].iter().all(|(other, _)| other != k),
                "duplicate key in collision node"
            );
        }
        return entries.len();
    }
    let word = node.word();
    assert_eq!(entries.len(), word.payload_arity(), "entry count");
    assert_eq!(children.len(), word.node_arity(), "child count");
    let occupied = word.occupied_with(W::EMPTY).count();
    assert_eq!(
        occupied,
        entries.len() + children.len(),
        "branch neither entry nor sub-trie"
    );
    for (i, (k, _)) in entries.iter().enumerate() {
        let at = word.locate(mask(hash32(k), shift));
        assert_eq!(at, (Branch::Payload, i), "entry in wrong branch");
    }
    let mut total = entries.len();
    for (i, child) in children.iter().enumerate() {
        let sub = validate(child, next_shift(shift));
        assert!(sub >= 2, "sub-trie with < 2 entries not inlined");
        let at = word.locate(mask(hash32(&first(child).0), shift));
        assert_eq!(
            at,
            (Branch::Node, entries.len() + i),
            "sub-trie in wrong branch"
        );
        total += sub;
    }
    if shift > 0 {
        assert!(
            !(entries.len() == 1 && children.is_empty()),
            "non-root singleton payload node must be inlined"
        );
        assert!(occupied >= 1, "empty non-root node");
    }
    total
}

/// Iterator over the entries of a trie.
///
/// A node's inlined entries are yielded before any of its sub-tries is
/// entered, the paper's grouped batch iteration (§3.3). The walk's stack
/// lives in the iterator, so iterating allocates nothing.
pub struct Iter<'a, W, K, V> {
    entries: std::slice::Iter<'a, (K, V)>,
    /// The unvisited children of each node on the path from the root.
    stack: [std::slice::Iter<'a, Node<W, K, V>>; DEPTH],
    depth: usize,
    remaining: usize,
}

/// The most nodes on one root-to-leaf path: seven bitmap levels consume the
/// 32 hash bits five at a time, and a collision node may sit below them.
const DEPTH: usize = 8;

impl<'a, W, K, V> Iter<'a, W, K, V> {
    /// An iterator over the `len` entries of the trie at `root`.
    pub fn new(root: &'a Node<W, K, V>, len: usize) -> Self {
        let mut stack: [std::slice::Iter<'a, Node<W, K, V>>; DEPTH] = Default::default();
        stack[0] = root.children().iter();
        Iter {
            entries: root.ones().iter(),
            stack,
            depth: 1,
            remaining: len,
        }
    }
}

impl<'a, W, K, V> Iterator for Iter<'a, W, K, V> {
    type Item = &'a (K, V);

    fn next(&mut self) -> Option<&'a (K, V)> {
        loop {
            if let Some(entry) = self.entries.next() {
                self.remaining -= 1;
                return Some(entry);
            }
            match self.stack[..self.depth].last_mut()?.next() {
                Some(child) => {
                    self.entries = child.ones().iter();
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

impl<'a, W, K, V> ExactSizeIterator for Iter<'a, W, K, V> {}

impl<'a, W, K, V> std::fmt::Debug for Iter<'a, W, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Iter")
            .field("remaining", &self.remaining)
            .finish()
    }
}

/// The [`algebra`] view of a trie with bitmap syntax `W`: the node hooks
/// the structural `union`, `intersect`, `difference`, `diff` and `==`
/// walks run on.
#[derive(Debug)]
pub struct View<W, K, V>(PhantomData<(W, K, V)>);

impl<W: Bitmap, K: Clone + Eq + Hash, V: Clone + PartialEq> Trie for View<W, K, V> {
    type Key = K;
    type Value = V;
    type Node = Node<W, K, V>;

    fn ptr_eq(a: &Self::Node, b: &Self::Node) -> bool {
        Packed::ptr_eq(a, b)
    }

    fn occupied_with(a: &Self::Node, b: &Self::Node) -> impl Iterator<Item = u32> {
        a.word().occupied_with(b.word())
    }

    /// One cursor per slot run: each run is ascending by mask, so no branch
    /// costs a popcount.
    fn cursor<'a>(node: &'a Self::Node) -> impl FnMut(u32) -> At<'a, Self>
    where
        Self: 'a,
    {
        let (word, mut entries, mut children) =
            (node.word(), node.ones().iter(), node.children().iter());
        move |m| match word.get(m) {
            Branch::Payload => entries
                .next()
                .map_or(At::Nothing, |(k, v)| At::Payload(k, v)),
            Branch::Node => children.next().map_or(At::Nothing, At::Sub),
            Branch::Empty => At::Nothing,
        }
    }

    fn payload<'a>(node: &'a Self::Node) -> impl Iterator<Item = (&'a K, &'a V)> + Clone
    where
        Self: 'a,
    {
        node.ones().iter().map(|(k, v)| (k, v))
    }

    fn children<'a>(node: &'a Self::Node) -> impl Iterator<Item = &'a Self::Node>
    where
        Self: 'a,
    {
        node.children().iter()
    }

    fn get<'a>(node: &'a Self::Node, hash: u32, shift: u32, key: &K) -> Option<&'a V>
    where
        Self: 'a,
    {
        get(node, hash, shift, key).map(|(_, v)| v)
    }
}

impl<W: Bitmap, K: Clone + Eq + Hash, V: Clone + PartialEq> Canonical for View<W, K, V> {
    fn same_payload(a: &Self::Node, b: &Self::Node) -> bool {
        a.word() == b.word() && a.ones() == b.ones()
    }
}

impl<W: Bitmap, T: Clone + Eq + Hash> SetTrie for View<W, T, ()> {
    fn pair(h1: u32, e1: T, h2: u32, e2: T, shift: u32) -> Self::Node {
        pair(h1, (e1, ()), h2, (e2, ()), shift)
    }

    fn insert(node: &mut Self::Node, hash: u32, shift: u32, e: T) -> bool {
        matches!(insert(node, hash, shift, e, ()), Inserted::Added)
    }

    fn remove(node: &mut Self::Node, hash: u32, shift: u32, e: &T) -> Removal<T> {
        match remove(node, hash, shift, e) {
            Removal::NotFound => Removal::NotFound,
            Removal::Removed => Removal::Removed,
            Removal::Single((e, ())) => Removal::Single(e),
        }
    }

    fn collision(elems: Vec<T>) -> Self::Node {
        Node::new(W::EMPTY, elems.into_iter().map(|e| (e, ())), [], [])
    }

    fn assemble(
        elem_masks: u32,
        child_masks: u32,
        elems: impl ExactSizeIterator<Item = T>,
        children: impl ExactSizeIterator<Item = Self::Node>,
    ) -> Self::Node {
        let mut word = W::EMPTY;
        masks(elem_masks).for_each(|m| word = word.with(m, Branch::Payload));
        masks(child_masks).for_each(|m| word = word.with(m, Branch::Node));
        Node::new(word, elems.map(|e| (e, ())), [], children)
    }
}

/// A trie handle: the root node and the entry count. The AXIOM and CHAMP
/// maps wrap a `Map<W, K, V>`, their sets a `Map<W, T, ()>`.
#[derive(Debug)]
pub struct Map<W, K, V> {
    root: Node<W, K, V>,
    len: usize,
}

impl<W, K, V> Clone for Map<W, K, V> {
    fn clone(&self) -> Self {
        Map {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<W: Bitmap, K, V> Map<W, K, V> {
    /// An empty trie.
    pub fn new() -> Self {
        Map::from_parts(Node::new(W::EMPTY, [], [], []), 0)
    }
}

impl<W: Bitmap, K, V> Default for Map<W, K, V> {
    fn default() -> Self {
        Map::new()
    }
}

impl<W, K, V> Map<W, K, V> {
    /// The handle of the trie at `root`, holding `len` entries.
    pub fn from_parts(root: Node<W, K, V>, len: usize) -> Self {
        Map { root, len }
    }

    /// The root node and the entry count.
    pub fn into_parts(self) -> (Node<W, K, V>, usize) {
        (self.root, self.len)
    }

    /// The root node.
    pub fn root(&self) -> &Node<W, K, V> {
        &self.root
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the trie holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the entries in unspecified (trie) order.
    pub fn iter(&self) -> Iter<'_, W, K, V> {
        Iter::new(&self.root, self.len)
    }
}

impl<W: Bitmap, K: Clone + Eq + Hash, V: Clone + PartialEq> Map<W, K, V> {
    /// The entry for `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&(K, V)>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        get(&self.root, hash32(key), 0, key)
    }

    /// Binds `key` to `value` in place (see [`insert_root`]): `None` for a
    /// new key, else the value it was bound to.
    pub fn insert_mut(&mut self, key: K, value: V) -> Option<V> {
        let old = insert_root(&mut self.root, key, value);
        self.len += usize::from(old.is_none());
        old
    }

    /// Removes `key` in place. Returns true if an entry was removed.
    pub fn remove_mut<Q>(&mut self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let removed = remove_root(&mut self.root, key);
        self.len -= usize::from(removed);
        removed
    }

    /// What changed from `self` (old) to `other` (new), reported into the
    /// empty `out`: pointer-shared subtrees emit nothing.
    pub fn diff<D: Sink<K, V>>(&self, other: &Self, out: D) -> D {
        algebra::diff::<View<W, K, V>, _>(&self.root, &other.root, out)
    }

    /// Checks the canonical form and the entry count.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn assert_invariants(&self) {
        assert_eq!(validate(&self.root, 0), self.len, "len bookkeeping");
    }
}

impl<W: Bitmap, K: Clone + Eq + Hash, V: Clone + PartialEq> PartialEq for Map<W, K, V> {
    /// Structural equality: bitmaps and payloads compare node by node, and
    /// a shared subtree compares in O(1).
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && algebra::eq::<View<W, K, V>>(&self.root, &other.root)
    }
}

/// A set: a map to `()`.
impl<W: Bitmap, T: Clone + Eq + Hash> Map<W, T, ()> {
    /// The two-element set of distinct `a` and `b`, whose hashes the caller
    /// computed.
    pub fn from_two(a: T, ha: u32, b: T, hb: u32) -> Self {
        debug_assert!(a != b);
        Map::from_parts(pair(ha, (a, ()), hb, (b, ()), 0), 2)
    }

    /// The one-element set.
    pub fn single(e: T) -> Self {
        Map::from_parts(single((e, ())), 1)
    }

    /// Iterates the elements.
    pub fn elements(&self) -> impl ExactSizeIterator<Item = &T> {
        self.iter().map(|(e, ())| e)
    }

    /// The sole element of a singleton set.
    ///
    /// # Panics
    ///
    /// Panics if the set does not hold exactly one element.
    pub fn sole(&self) -> &T {
        assert_eq!(self.len, 1, "sole() requires a singleton set");
        &first(&self.root).0
    }

    fn parts(&self) -> (&Node<W, T, ()>, usize) {
        (&self.root, self.len)
    }

    /// `self`, or the set at the root and length a walk built.
    fn or(&self, walked: Option<(Node<W, T, ()>, usize)>) -> Self {
        walked.map_or_else(|| self.clone(), |(root, len)| Map::from_parts(root, len))
    }

    /// Union by a lockstep structural walk ([`algebra::union`]).
    pub fn union(&self, other: &Self) -> Self {
        self.or(algebra::union::<View<W, T, ()>>(
            self.parts(),
            other.parts(),
        ))
    }

    /// Intersection by a lockstep structural walk.
    pub fn intersect(&self, other: &Self) -> Self {
        self.or(algebra::intersect::<View<W, T, ()>>(
            self.parts(),
            other.parts(),
        ))
    }

    /// Difference by a lockstep structural walk.
    pub fn difference(&self, other: &Self) -> Self {
        self.or(algebra::difference::<View<W, T, ()>>(
            self.parts(),
            other.parts(),
        ))
    }

    /// The smaller and the larger of two sets.
    fn by_len<'a>(&'a self, other: &'a Self) -> (&'a Self, &'a Self) {
        if self.len >= other.len {
            (other, self)
        } else {
            (self, other)
        }
    }

    /// Element-wise union: inserts the smaller set into the larger.
    pub fn union_elementwise(&self, other: &Self) -> Self {
        let (small, big) = self.by_len(other);
        let mut out = big.clone();
        for e in small.elements() {
            out.insert_mut(e.clone(), ());
        }
        out
    }

    /// Element-wise intersection: scans the smaller set and probes the
    /// larger.
    pub fn intersect_elementwise(&self, other: &Self) -> Self {
        let (small, big) = self.by_len(other);
        small.filtered(|e| big.get(e).is_some())
    }

    /// Element-wise difference: probes `other` for each element.
    pub fn difference_elementwise(&self, other: &Self) -> Self {
        self.filtered(|e| other.get(e).is_none())
    }

    /// The elements that `keep` accepts, inserted one by one.
    fn filtered(&self, keep: impl Fn(&T) -> bool) -> Self {
        let mut out = Map::new();
        for e in self.elements().filter(|e| keep(e)) {
            out.insert_mut(e.clone(), ());
        }
        out
    }

    /// True if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        self.len <= other.len && self.elements().all(|e| other.get(e).is_some())
    }

    /// True if the sets share no element.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        let (small, big) = self.by_len(other);
        small.elements().all(|e| big.get(e).is_none())
    }
}

impl<W, T: Hash> Hash for Map<W, T, ()> {
    /// Order-independent: the sum of the elements' hashes, so equal sets
    /// hash equally whatever their insertion order.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let sum = self
            .iter()
            .fold(0u64, |acc, (k, _)| acc.wrapping_add(hash32(k) as u64));
        state.write_u64(sum);
        state.write_usize(self.len);
    }
}

/// Calls `f` on each node below `node` with the shift its branches are
/// selected at, parents first, descending only below the nodes for which
/// `f` returns true: the traversal of the footprint walks (a native walk
/// stops at a node it has counted already).
pub fn visit<W, A, B>(
    node: &Packed<W, A, B>,
    shift: u32,
    f: &mut impl FnMut(&Packed<W, A, B>, u32) -> bool,
) {
    if f(node, shift) {
        for child in node.children() {
            visit(child, next_shift(shift), f);
        }
    }
}
