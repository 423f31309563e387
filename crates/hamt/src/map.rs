//! A classic HAMT persistent map (Bagwell 2001), Clojure-flavoured.
//!
//! One 32-bit bitmap marks occupied branches; a dense array stores an
//! **untyped mix** of inlined entries and sub-tries, so every access performs
//! a dynamic slot-type check (the Rust `match` below stands in for the JVM's
//! `instanceof`, paper Figure 2a). Deletion does **not** canonicalize:
//! like Clojure's `PersistentHashMap`, removing entries can leave degenerate
//! single-entry paths in place — one of the differences CHAMP/AXIOM exploit.
//!
//! # Examples
//!
//! ```
//! use hamt::HamtMap;
//!
//! let m = HamtMap::<u32, &str>::new().inserted(1, "a").inserted(2, "b");
//! assert_eq!(m.get(&2), Some(&"b"));
//! assert_eq!(m.removed(&1).len(), 1);
//! ```

use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::Arc;

use trie_common::bits::{bit_pos, hash_exhausted, index_in, mask, next_shift};
use trie_common::hash::hash32;
use trie_common::slices::{edit_child, insert_slot, migrate_map, remove_slot, SlotNode};

/// One slot: an inlined entry or a sub-trie, dynamically discriminated.
#[derive(Debug, Clone)]
pub(crate) enum Slot<K, V> {
    Entry(K, V),
    Child(Arc<Node<K, V>>),
}

/// A HAMT node: one bitmap, mixed slots in mask order.
#[derive(Debug, Clone)]
pub(crate) struct BitmapNode<K, V> {
    pub(crate) bitmap: u32,
    pub(crate) slots: Box<[Slot<K, V>]>,
}

/// Hash-collision overflow node. Unlike CHAMP/AXIOM, it may degenerate to a
/// single entry after deletions (no canonicalization).
#[derive(Debug, Clone)]
pub(crate) struct CollisionNode<K, V> {
    pub(crate) hash: u32,
    pub(crate) entries: Vec<(K, V)>,
}

/// A trie node.
#[derive(Debug, Clone)]
pub(crate) enum Node<K, V> {
    Bitmap(BitmapNode<K, V>),
    Collision(CollisionNode<K, V>),
}

/// Insertion outcome: the walk edits or copies nodes where they stand, so
/// only the bookkeeping flag travels.
pub(crate) enum EditInserted {
    Unchanged,
    Replaced,
    Added,
}

/// Removal outcome. `Empty` tells the parent to drop the branch: the node
/// would lose its last slot, and is left as it is.
pub(crate) enum EditRemoved {
    NotFound,
    Removed,
    Empty,
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> Node<K, V> {
    fn empty() -> Node<K, V> {
        Node::Bitmap(BitmapNode {
            bitmap: 0,
            slots: Box::new([]),
        })
    }

    fn pair(h1: u32, k1: K, v1: V, h2: u32, k2: K, v2: V, shift: u32) -> Node<K, V> {
        if hash_exhausted(shift) {
            debug_assert_eq!(h1, h2);
            return Node::Collision(CollisionNode {
                hash: h1,
                entries: vec![(k1, v1), (k2, v2)],
            });
        }
        let m1 = mask(h1, shift);
        let m2 = mask(h2, shift);
        if m1 == m2 {
            let child = Node::pair(h1, k1, v1, h2, k2, v2, next_shift(shift));
            Node::Bitmap(BitmapNode {
                bitmap: bit_pos(m1),
                slots: Box::new([Slot::Child(Arc::new(child))]),
            })
        } else {
            let slots: Box<[Slot<K, V>]> = if m1 < m2 {
                Box::new([Slot::Entry(k1, v1), Slot::Entry(k2, v2)])
            } else {
                Box::new([Slot::Entry(k2, v2), Slot::Entry(k1, v1)])
            };
            Node::Bitmap(BitmapNode {
                bitmap: bit_pos(m1) | bit_pos(m2),
                slots,
            })
        }
    }

    fn get<Q>(&self, hash: u32, shift: u32, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        match self {
            Node::Collision(c) => c
                .entries
                .iter()
                .find(|(k, _)| k.borrow() == key)
                .map(|(_, v)| v),
            Node::Bitmap(b) => {
                let bit = bit_pos(mask(hash, shift));
                if b.bitmap & bit == 0 {
                    return None;
                }
                // Dynamic slot-type dispatch — the HAMT's `instanceof`.
                match &b.slots[index_in(b.bitmap, bit)] {
                    Slot::Entry(k, v) => (k.borrow() == key).then_some(v),
                    Slot::Child(child) => child.get(hash, next_shift(shift), key),
                }
            }
        }
    }

    /// Binds `key` to `value` below `this`, editing unique nodes in place
    /// and copying shared ones on write (see [`trie_common::slices`]).
    fn insert_in_place(
        this: &mut Arc<Node<K, V>>,
        hash: u32,
        shift: u32,
        key: K,
        value: V,
    ) -> EditInserted {
        let b = match &**this {
            Node::Collision(c) => {
                debug_assert_eq!(c.hash, hash);
                let pos = c.entries.iter().position(|(k, _)| *k == key);
                if pos.is_some_and(|pos| c.entries[pos].1 == value) {
                    return EditInserted::Unchanged;
                }
                let Node::Collision(c) = Arc::make_mut(this) else {
                    unreachable!("matched a collision node")
                };
                return match pos {
                    Some(pos) => {
                        c.entries[pos].1 = value;
                        EditInserted::Replaced
                    }
                    None => {
                        c.entries.push((key, value));
                        EditInserted::Added
                    }
                };
            }
            Node::Bitmap(b) => b,
        };
        let bit = bit_pos(mask(hash, shift));
        if b.bitmap & bit == 0 {
            let bitmap = b.bitmap | bit;
            insert_slot(this, bitmap, index_in(bitmap, bit), Slot::Entry(key, value));
            return EditInserted::Added;
        }
        let idx = index_in(b.bitmap, bit);
        // Dynamic slot-type dispatch — the HAMT's `instanceof`.
        let Slot::Entry(ek, ev) = &b.slots[idx] else {
            return edit_child(
                this,
                idx,
                |child| Node::insert_in_place(child, hash, next_shift(shift), key, value),
                |outcome| !matches!(outcome, EditInserted::Unchanged),
            );
        };
        if *ek == key {
            if *ev == value {
                return EditInserted::Unchanged;
            }
            Arc::make_mut(this).slots_mut()[idx] = Slot::Entry(key, value);
            return EditInserted::Replaced;
        }
        // The mixed layout keeps the slot's position: a `from == to`
        // migration turns Entry into Child in place, moving both entries
        // into the fresh sub-trie.
        let existing_hash = hash32(ek);
        migrate_map(Arc::make_mut(this).slots_mut(), idx, idx, |slot| {
            let Slot::Entry(ek, ev) = slot else {
                unreachable!("just matched an entry")
            };
            Slot::Child(Arc::new(Node::pair(
                existing_hash,
                ek,
                ev,
                hash,
                key,
                value,
                next_shift(shift),
            )))
        });
        EditInserted::Added
    }

    /// Removes `key` below `this` with the same copy-on-write discipline
    /// as [`Node::insert_in_place`]. Deletion stays non-canonical: nothing
    /// is inlined upward, and a 1-entry collision node may survive.
    fn remove_in_place<Q>(this: &mut Arc<Node<K, V>>, hash: u32, shift: u32, key: &Q) -> EditRemoved
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let b = match &**this {
            Node::Collision(c) => {
                let Some(pos) = c.entries.iter().position(|(k, _)| k.borrow() == key) else {
                    return EditRemoved::NotFound;
                };
                if c.entries.len() == 1 {
                    return EditRemoved::Empty;
                }
                let Node::Collision(c) = Arc::make_mut(this) else {
                    unreachable!("matched a collision node")
                };
                c.entries.swap_remove(pos);
                return EditRemoved::Removed;
            }
            Node::Bitmap(b) => b,
        };
        let bit = bit_pos(mask(hash, shift));
        if b.bitmap & bit == 0 {
            return EditRemoved::NotFound;
        }
        let idx = index_in(b.bitmap, bit);
        match &b.slots[idx] {
            Slot::Entry(k, _) if k.borrow() != key => return EditRemoved::NotFound,
            Slot::Entry(..) => {}
            Slot::Child(_) => match edit_child(
                this,
                idx,
                |child| Node::remove_in_place(child, hash, next_shift(shift), key),
                |outcome| matches!(outcome, EditRemoved::Removed),
            ) {
                EditRemoved::Empty => {}
                outcome => return outcome,
            },
        }
        // Drop the matched entry or the emptied branch. Non-canonical: a
        // single surviving slot is not inlined into the parent.
        let (bitmap, slots) = this.parts();
        if slots.len() == 1 {
            return EditRemoved::Empty;
        }
        remove_slot(this, bitmap & !bit, idx);
        EditRemoved::Removed
    }
}

impl<K: Clone, V: Clone> SlotNode for Node<K, V> {
    type Bitmap = u32;
    type Slot = Slot<K, V>;

    fn parts(&self) -> (u32, &[Slot<K, V>]) {
        match self {
            Node::Bitmap(b) => (b.bitmap, &b.slots),
            Node::Collision(_) => unreachable!("only bitmap nodes have slots"),
        }
    }

    fn slots_mut(&mut self) -> &mut Box<[Slot<K, V>]> {
        match self {
            Node::Bitmap(b) => &mut b.slots,
            Node::Collision(_) => unreachable!("only bitmap nodes have slots"),
        }
    }

    fn of_parts(bitmap: u32, slots: Box<[Slot<K, V>]>) -> Self {
        Node::Bitmap(BitmapNode { bitmap, slots })
    }

    fn child(slot: &Slot<K, V>) -> &Arc<Self> {
        match slot {
            Slot::Child(child) => child,
            Slot::Entry(..) => unreachable!("slot holds a child"),
        }
    }

    fn child_mut(slot: &mut Slot<K, V>) -> &mut Arc<Self> {
        match slot {
            Slot::Child(child) => child,
            Slot::Entry(..) => unreachable!("slot holds a child"),
        }
    }
}

// ---------------------------------------------------------------------------
// Structural diff: a lockstep walk that skips pointer-shared subtrees.
//
// The HAMT is NOT canonical (deletion leaves degenerate single-entry paths
// and 1-entry collision nodes in place), so `Arc::ptr_eq` is only a one-way
// short-circuit here: identical pointers imply identical content, but equal
// content need not be pointer-identical — those subtrees fall back to
// content recursion, which emits nothing when entries match. Node kinds
// still align at equal depth (collision nodes exist only past hash
// exhaustion), but a defensive unstructured compare guards the mix anyway.
// ---------------------------------------------------------------------------

/// What one lockstep walk found at a mask position.
enum At<'a, K, V> {
    Nothing,
    Entry(&'a K, &'a V),
    Sub(&'a Arc<Node<K, V>>),
}

fn at<'a, K, V>(b: &'a BitmapNode<K, V>, bit: u32) -> At<'a, K, V> {
    if b.bitmap & bit == 0 {
        return At::Nothing;
    }
    // Dynamic slot-type dispatch — the HAMT's `instanceof`.
    match &b.slots[index_in(b.bitmap, bit)] {
        Slot::Entry(k, v) => At::Entry(k, v),
        Slot::Child(c) => At::Sub(c),
    }
}

fn for_each_entry_node<K, V>(node: &Node<K, V>, f: &mut impl FnMut(&K, &V)) {
    match node {
        Node::Collision(c) => c.entries.iter().for_each(|(k, v)| f(k, v)),
        Node::Bitmap(b) => {
            for s in &b.slots {
                match s {
                    Slot::Entry(k, v) => f(k, v),
                    Slot::Child(c) => for_each_entry_node(c, f),
                }
            }
        }
    }
}

/// Fallback for subtree pairs the lockstep walk cannot align (reachable only
/// through non-canonical shapes): compare entry lists outright.
fn unstructured_diff<K: Clone + Eq + Hash, V: Clone + PartialEq>(
    a: &Node<K, V>,
    b: &Node<K, V>,
    out: &mut trie_common::ops::MapDiff<K, V>,
) {
    let mut old: Vec<(K, V)> = Vec::new();
    for_each_entry_node(a, &mut |k, v| old.push((k.clone(), v.clone())));
    let mut new: Vec<(K, V)> = Vec::new();
    for_each_entry_node(b, &mut |k, v| new.push((k.clone(), v.clone())));
    for (k, v) in &old {
        match new.iter().find(|(nk, _)| nk == k) {
            None => out.removed.push((k.clone(), v.clone())),
            Some((_, nv)) if nv != v => {
                out.changed.push((k.clone(), v.clone(), nv.clone()));
            }
            Some(_) => {}
        }
    }
    for (k, v) in &new {
        if !old.iter().any(|(ok, _)| ok == k) {
            out.added.push((k.clone(), v.clone()));
        }
    }
}

/// Lockstep diff (`a` old, `b` new): pointer-identical subtrees emit
/// nothing; equal-but-not-pointer-equal subtrees recurse on content.
fn diff_nodes<K: Clone + Eq + Hash, V: Clone + PartialEq>(
    a: &Node<K, V>,
    b: &Node<K, V>,
    shift: u32,
    out: &mut trie_common::ops::MapDiff<K, V>,
) {
    match (a, b) {
        (Node::Collision(x), Node::Collision(y)) => {
            debug_assert_eq!(x.hash, y.hash, "lockstep paths fix the full hash");
            for (k, v) in &x.entries {
                match y.entries.iter().find(|(yk, _)| yk == k) {
                    None => out.removed.push((k.clone(), v.clone())),
                    Some((_, yv)) if yv != v => {
                        out.changed.push((k.clone(), v.clone(), yv.clone()));
                    }
                    Some(_) => {}
                }
            }
            for (k, v) in &y.entries {
                if !x.entries.iter().any(|(xk, _)| xk == k) {
                    out.added.push((k.clone(), v.clone()));
                }
            }
        }
        (Node::Bitmap(x), Node::Bitmap(y)) => {
            for m in 0..32u32 {
                let bit = bit_pos(m);
                match (at(x, bit), at(y, bit)) {
                    (At::Nothing, At::Nothing) => {}
                    (At::Entry(k, v), At::Nothing) => out.removed.push((k.clone(), v.clone())),
                    (At::Nothing, At::Entry(k, v)) => out.added.push((k.clone(), v.clone())),
                    (At::Sub(ac), At::Nothing) => {
                        for_each_entry_node(ac, &mut |k, v| {
                            out.removed.push((k.clone(), v.clone()));
                        });
                    }
                    (At::Nothing, At::Sub(bc)) => {
                        for_each_entry_node(bc, &mut |k, v| {
                            out.added.push((k.clone(), v.clone()));
                        });
                    }
                    (At::Entry(ka, va), At::Entry(kb, vb)) => {
                        if ka == kb {
                            if va != vb {
                                out.changed.push((ka.clone(), va.clone(), vb.clone()));
                            }
                        } else {
                            out.removed.push((ka.clone(), va.clone()));
                            out.added.push((kb.clone(), vb.clone()));
                        }
                    }
                    (At::Entry(ka, va), At::Sub(bc)) => {
                        // Degenerate single-entry subtrees are legal here, so
                        // this mix is common after deletions.
                        match bc.get(hash32(ka), next_shift(shift), ka) {
                            None => out.removed.push((ka.clone(), va.clone())),
                            Some(vb) if vb != va => {
                                out.changed.push((ka.clone(), va.clone(), vb.clone()));
                            }
                            Some(_) => {}
                        }
                        for_each_entry_node(bc, &mut |k, v| {
                            if k != ka {
                                out.added.push((k.clone(), v.clone()));
                            }
                        });
                    }
                    (At::Sub(ac), At::Entry(kb, vb)) => {
                        match ac.get(hash32(kb), next_shift(shift), kb) {
                            None => out.added.push((kb.clone(), vb.clone())),
                            Some(va) if va != vb => {
                                out.changed.push((kb.clone(), va.clone(), vb.clone()));
                            }
                            Some(_) => {}
                        }
                        for_each_entry_node(ac, &mut |k, v| {
                            if k != kb {
                                out.removed.push((k.clone(), v.clone()));
                            }
                        });
                    }
                    (At::Sub(ac), At::Sub(bc)) => {
                        if !Arc::ptr_eq(ac, bc) {
                            diff_nodes(ac, bc, next_shift(shift), out);
                        }
                    }
                }
            }
        }
        _ => unstructured_diff(a, b, out),
    }
}

/// A persistent hash map with the classic single-bitmap HAMT encoding
/// (Clojure-flavoured: dynamic slot dispatch, non-canonical deletion).
pub struct HamtMap<K, V> {
    pub(crate) root: Arc<Node<K, V>>,
    pub(crate) len: usize,
}

impl<K, V> Clone for HamtMap<K, V> {
    fn clone(&self) -> Self {
        HamtMap {
            root: Arc::clone(&self.root),
            len: self.len,
        }
    }
}

impl<K, V> HamtMap<K, V> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates `(key, value)` entries in unspecified (trie) order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            stack: vec![cursor_of(&self.root)],
            remaining: self.len,
        }
    }

    /// Iterates the keys in unspecified order.
    pub fn keys(&self) -> Keys<'_, K, V> {
        Keys { inner: self.iter() }
    }

    /// Iterates the values in unspecified order.
    pub fn values(&self) -> Values<'_, K, V> {
        Values { inner: self.iter() }
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> HamtMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        HamtMap {
            root: Arc::new(Node::empty()),
            len: 0,
        }
    }

    /// Looks up the value bound to `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.root.get(hash32(key), 0, key)
    }

    /// True if `key` has a binding.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Returns a map with `key` bound to `value`; `self` is unchanged.
    pub fn inserted(&self, key: K, value: V) -> Self {
        let mut next = self.clone();
        next.insert_mut(key, value);
        next
    }

    /// Binds `key` to `value` in place: uniquely-owned trie nodes along the
    /// spine are edited directly, shared nodes are path-copied. Returns true
    /// if a new key was added.
    pub fn insert_mut(&mut self, key: K, value: V) -> bool {
        let hash = hash32(&key);
        match Node::insert_in_place(&mut self.root, hash, 0, key, value) {
            EditInserted::Unchanged | EditInserted::Replaced => false,
            EditInserted::Added => {
                self.len += 1;
                true
            }
        }
    }

    /// Returns a map without a binding for `key`; `self` is unchanged.
    pub fn removed<Q>(&self, key: &Q) -> Self
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let mut next = self.clone();
        next.remove_mut(key);
        next
    }

    /// Removes `key` in place: uniquely-owned trie nodes along the spine
    /// are edited directly, shared nodes are path-copied. Returns true if a
    /// binding was removed.
    pub fn remove_mut<Q>(&mut self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        match Node::remove_in_place(&mut self.root, hash32(key), 0, key) {
            EditRemoved::NotFound => false,
            EditRemoved::Removed => {
                self.len -= 1;
                true
            }
            EditRemoved::Empty => {
                self.root = Arc::new(Node::empty());
                self.len -= 1;
                true
            }
        }
    }

    /// What changed between `self` (old) and `other` (new), via a lockstep
    /// structural walk. Pointer-shared subtrees are skipped; because the
    /// HAMT is non-canonical, equal-but-not-pointer-equal subtrees fall back
    /// to content recursion (which emits nothing when entries match).
    pub fn diff(&self, other: &Self) -> trie_common::ops::MapDiff<K, V> {
        let mut out = trie_common::ops::MapDiff::new();
        if Arc::ptr_eq(&self.root, &other.root) {
            return out;
        }
        if self.is_empty() {
            out.added
                .extend(other.iter().map(|(k, v)| (k.clone(), v.clone())));
            return out;
        }
        if other.is_empty() {
            out.removed
                .extend(self.iter().map(|(k, v)| (k.clone(), v.clone())));
            return out;
        }
        diff_nodes(&self.root, &other.root, 0, &mut out);
        out
    }

    pub(crate) fn root_node(&self) -> &Node<K, V> {
        &self.root
    }

    /// Structural sanity checks (weaker than CHAMP/AXIOM: degenerate paths
    /// are legal here, but bookkeeping and branch placement must hold).
    ///
    /// # Panics
    ///
    /// Panics if any structural invariant is violated.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        let counted = validate(&self.root, 0);
        assert_eq!(counted, self.len, "len bookkeeping");
    }
}

fn validate<K: Clone + Eq + Hash, V: Clone + PartialEq>(node: &Node<K, V>, shift: u32) -> usize {
    match node {
        Node::Collision(c) => {
            assert!(hash_exhausted(shift));
            assert!(!c.entries.is_empty());
            for (k, _) in &c.entries {
                assert_eq!(hash32(k), c.hash);
            }
            c.entries.len()
        }
        Node::Bitmap(b) => {
            assert_eq!(b.slots.len(), b.bitmap.count_ones() as usize);
            let mut total = 0;
            let mut bit_iter = (0..32).filter(|m| b.bitmap & bit_pos(*m) != 0);
            for slot in b.slots.iter() {
                let m = bit_iter.next().expect("slot without branch");
                match slot {
                    Slot::Entry(k, _) => {
                        assert_eq!(mask(hash32(k), shift), m, "entry in wrong branch");
                        total += 1;
                    }
                    Slot::Child(child) => {
                        let sub = validate(child, next_shift(shift));
                        assert!(sub >= 1, "empty child node retained");
                        total += sub;
                    }
                }
            }
            total
        }
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> Default for HamtMap<K, V> {
    fn default() -> Self {
        HamtMap::new()
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> PartialEq for HamtMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        // Non-canonical tries may encode equal maps with different shapes, so
        // equality is content-based rather than structural.
        self.len == other.len
            && self
                .iter()
                .all(|(k, v)| other.get(k).is_some_and(|w| w == v))
    }
}

impl<K: Clone + Eq + Hash, V: Clone + Eq> Eq for HamtMap<K, V> {}

impl<K, V> std::fmt::Debug for HamtMap<K, V>
where
    K: std::fmt::Debug,
    V: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> FromIterator<(K, V)> for HamtMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        trie_common::ops::from_iter_via(iter)
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> Extend<(K, V)> for HamtMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        trie_common::ops::extend_via(self, iter);
    }
}

impl<'a, K: Clone + Eq + Hash, V: Clone + PartialEq> IntoIterator for &'a HamtMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;
    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

enum Cursor<'a, K, V> {
    Bitmap { slots: &'a [Slot<K, V>], idx: usize },
    Collision { entries: &'a [(K, V)], idx: usize },
}

fn cursor_of<K, V>(node: &Node<K, V>) -> Cursor<'_, K, V> {
    match node {
        Node::Bitmap(b) => Cursor::Bitmap {
            slots: &b.slots,
            idx: 0,
        },
        Node::Collision(c) => Cursor::Collision {
            entries: &c.entries,
            idx: 0,
        },
    }
}

/// Iterator over map entries. Created by [`HamtMap::iter`].
///
/// Note the contrast with CHAMP/AXIOM: slots mix entries and children, so
/// every step re-discriminates the slot type — the per-element checks the
/// paper's grouped layouts avoid.
pub struct Iter<'a, K, V> {
    stack: Vec<Cursor<'a, K, V>>,
    remaining: usize,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        loop {
            let top = self.stack.last_mut()?;
            match top {
                Cursor::Collision { entries, idx } => {
                    if *idx < entries.len() {
                        let (k, v) = &entries[*idx];
                        *idx += 1;
                        self.remaining -= 1;
                        return Some((k, v));
                    }
                    self.stack.pop();
                }
                Cursor::Bitmap { slots, idx } => {
                    if *idx >= slots.len() {
                        self.stack.pop();
                        continue;
                    }
                    let slot = &slots[*idx];
                    *idx += 1;
                    match slot {
                        Slot::Entry(k, v) => {
                            self.remaining -= 1;
                            return Some((k, v));
                        }
                        Slot::Child(child) => self.stack.push(cursor_of(child)),
                    }
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<'a, K, V> ExactSizeIterator for Iter<'a, K, V> {}

impl<'a, K, V> std::fmt::Debug for Iter<'a, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Iter")
            .field("remaining", &self.remaining)
            .finish()
    }
}

/// Iterator over map keys. Created by [`HamtMap::keys`].
#[derive(Debug)]
pub struct Keys<'a, K, V> {
    inner: Iter<'a, K, V>,
}

impl<'a, K, V> Iterator for Keys<'a, K, V> {
    type Item = &'a K;
    fn next(&mut self) -> Option<&'a K> {
        self.inner.next().map(|(k, _)| k)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a, K, V> ExactSizeIterator for Keys<'a, K, V> {}

/// Iterator over map values. Created by [`HamtMap::values`].
#[derive(Debug)]
pub struct Values<'a, K, V> {
    inner: Iter<'a, K, V>,
}

impl<'a, K, V> Iterator for Values<'a, K, V> {
    type Item = &'a V;
    fn next(&mut self) -> Option<&'a V> {
        self.inner.next().map(|(_, v)| v)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a, K, V> ExactSizeIterator for Values<'a, K, V> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::Hasher;

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
    fn basics() {
        let m: HamtMap<u32, u32> = (0..800).map(|i| (i, i + 1)).collect();
        assert_eq!(m.len(), 800);
        for i in 0..800 {
            assert_eq!(m.get(&i), Some(&(i + 1)));
        }
        assert_eq!(m.get(&9999), None);
        m.assert_invariants();
    }

    #[test]
    fn removal_may_leave_degenerate_paths_but_stays_correct() {
        let mut m: HamtMap<u32, u32> = (0..300).map(|i| (i, i)).collect();
        for i in 0..299 {
            assert!(m.remove_mut(&i));
            m.assert_invariants();
        }
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&299), Some(&299));
    }

    #[test]
    fn collisions() {
        let mut m = HamtMap::new();
        for id in 0..6 {
            m.insert_mut(Collide { bucket: 1, id }, id);
        }
        assert_eq!(m.len(), 6);
        for id in 0..6 {
            assert_eq!(m.get(&Collide { bucket: 1, id }), Some(&id));
        }
        for id in 0..6 {
            assert!(m.remove_mut(&Collide { bucket: 1, id }));
            m.assert_invariants();
        }
        assert!(m.is_empty());
    }

    #[test]
    fn model_based_random_ops() {
        let mut model: HashMap<u32, u32> = HashMap::new();
        let mut m: HamtMap<u32, u32> = HamtMap::new();
        let mut state = 5u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..4000 {
            let op = next() % 3;
            let key = next() % 150;
            match op {
                0 | 1 => {
                    let val = next();
                    model.insert(key, val);
                    m.insert_mut(key, val);
                }
                _ => {
                    model.remove(&key);
                    m.remove_mut(&key);
                }
            }
            assert_eq!(m.len(), model.len());
        }
        m.assert_invariants();
        let collected: HashMap<u32, u32> = m.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(collected, model);
    }

    #[test]
    fn content_equality_across_shapes() {
        // Build one map by pure insertion and an equal one via a deletion
        // detour: shapes may differ (non-canonical), equality must not.
        let a: HamtMap<u32, u32> = (0..64).map(|i| (i, i)).collect();
        let mut b: HamtMap<u32, u32> = (0..100).map(|i| (i, i)).collect();
        for i in 64..100 {
            b.remove_mut(&i);
        }
        assert_eq!(a, b);
    }
}
