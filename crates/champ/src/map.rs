//! The CHAMP persistent hash map (Steindorfer & Vinju, OOPSLA 2015).
//!
//! CHAMP encodes each trie node's three branch states with **two** 32-bit
//! bitmaps: `datamap` marks branches holding an inlined key/value pair,
//! `nodemap` marks branches holding a sub-trie, and absence from both means
//! `EMPTY`. Content is permuted — all payload entries first, then all
//! sub-tries — and deletion canonicalizes (collapsed sub-tries are inlined
//! into parents), which is what distinguishes CHAMP from a plain HAMT.
//!
//! This is the special-purpose baseline AXIOM is measured against in the
//! paper's §5 (Figure 6) and §6 (Table 1): AXIOM generalizes this encoding
//! (`datamap` ≡ `CAT1`, `nodemap` ≡ `NODE` in 2-bit tags).
//!
//! `diff` and `==` are the lockstep walks of [`trie_common::algebra`],
//! shared with the AXIOM and HAMT maps; this module supplies their node
//! view (`View`).
//!
//! # Examples
//!
//! ```
//! use champ::ChampMap;
//!
//! let m = ChampMap::<u32, &str>::new().inserted(1, "one");
//! assert_eq!(m.get(&1), Some(&"one"));
//! assert!(m.removed(&1).is_empty());
//! assert_eq!(m.len(), 1); // persistent
//! ```

use std::borrow::Borrow;
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::Arc;

use trie_common::algebra::{self, masks, At, Canonical, Trie};
use trie_common::bits::{bit_pos, hash_exhausted, index_in, mask, next_shift};
use trie_common::hash::hash32;
use trie_common::ops::MapDiff;
use trie_common::slices::{edit_child, insert_slot, migrate_map, remove_slot, survivor, SlotNode};

/// One physical slot: an inlined entry or a sub-trie.
#[derive(Debug, Clone)]
pub(crate) enum Slot<K, V> {
    Entry(K, V),
    Child(Arc<Node<K, V>>),
}

/// A CHAMP node: two bitmaps plus dense permuted slots
/// (`[entries… | children…]`).
#[derive(Debug, Clone)]
pub(crate) struct BitmapNode<K, V> {
    pub(crate) datamap: u32,
    pub(crate) nodemap: u32,
    pub(crate) slots: Box<[Slot<K, V>]>,
}

impl<K, V> BitmapNode<K, V> {
    #[inline]
    pub(crate) fn payload_arity(&self) -> usize {
        self.datamap.count_ones() as usize
    }

    #[inline]
    pub(crate) fn node_arity(&self) -> usize {
        self.nodemap.count_ones() as usize
    }

    /// Absolute slot index of the payload entry for `bit`.
    #[inline]
    fn data_index(&self, bit: u32) -> usize {
        index_in(self.datamap, bit)
    }

    /// Absolute slot index of the sub-trie for `bit`.
    #[inline]
    fn node_index(&self, bit: u32) -> usize {
        self.payload_arity() + index_in(self.nodemap, bit)
    }
}

/// Hash-collision overflow node.
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
/// only the displaced value travels.
pub(crate) enum EditInserted<V> {
    /// An equal value was already bound; the offered one is handed back.
    Unchanged(V),
    /// The value the key was bound to before.
    Replaced(V),
    Added,
}

/// Removal outcome: only the canonicalization payload travels upward.
pub(crate) enum EditRemoved<K, V> {
    NotFound,
    Removed,
    /// The sub-tree collapsed to one entry (a unique node is left
    /// consumed; the parent drops it and inlines the survivor).
    Single(K, V),
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> Node<K, V> {
    fn empty() -> Node<K, V> {
        Node::Bitmap(BitmapNode {
            datamap: 0,
            nodemap: 0,
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
                datamap: 0,
                nodemap: bit_pos(m1),
                slots: Box::new([Slot::Child(Arc::new(child))]),
            })
        } else {
            let datamap = bit_pos(m1) | bit_pos(m2);
            let slots: Box<[Slot<K, V>]> = if m1 < m2 {
                Box::new([Slot::Entry(k1, v1), Slot::Entry(k2, v2)])
            } else {
                Box::new([Slot::Entry(k2, v2), Slot::Entry(k1, v1)])
            };
            Node::Bitmap(BitmapNode {
                datamap,
                nodemap: 0,
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
                if b.datamap & bit != 0 {
                    match &b.slots[b.data_index(bit)] {
                        Slot::Entry(k, v) if k.borrow() == key => Some(v),
                        Slot::Entry(..) => None,
                        Slot::Child(_) => unreachable!("datamap says entry"),
                    }
                } else if b.nodemap & bit != 0 {
                    match &b.slots[b.node_index(bit)] {
                        Slot::Child(child) => child.get(hash, next_shift(shift), key),
                        Slot::Entry(..) => unreachable!("nodemap says child"),
                    }
                } else {
                    None
                }
            }
        }
    }

    /// Binds `key` to `value` below `this`, editing unique nodes in place
    /// and copying shared ones on write (see [`trie_common::slices`]).
    /// Takes the entry by ownership so the common paths move it into its
    /// final slot.
    fn insert_in_place(
        this: &mut Arc<Node<K, V>>,
        hash: u32,
        shift: u32,
        key: K,
        value: V,
    ) -> EditInserted<V> {
        let b = match &**this {
            Node::Collision(c) => {
                debug_assert_eq!(c.hash, hash);
                let pos = c.entries.iter().position(|(k, _)| *k == key);
                if pos.is_some_and(|pos| c.entries[pos].1 == value) {
                    return EditInserted::Unchanged(value);
                }
                let Node::Collision(c) = Arc::make_mut(this) else {
                    unreachable!("matched a collision node")
                };
                return match pos {
                    Some(pos) => {
                        EditInserted::Replaced(std::mem::replace(&mut c.entries[pos].1, value))
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
        if b.datamap & bit != 0 {
            let idx = b.data_index(bit);
            let Slot::Entry(ek, ev) = &b.slots[idx] else {
                unreachable!("datamap says entry")
            };
            if *ek == key {
                if *ev == value {
                    return EditInserted::Unchanged(value);
                }
                let slot = &mut Arc::make_mut(this).slots_mut()[idx];
                let Slot::Entry(_, old) = std::mem::replace(slot, Slot::Entry(key, value)) else {
                    unreachable!("datamap says entry")
                };
                return EditInserted::Replaced(old);
            }
            // Prefix clash: the entry migrates data group → node group;
            // both entries move into the fresh sub-trie.
            let existing_hash = hash32(ek);
            let Node::Bitmap(b) = Arc::make_mut(this) else {
                unreachable!("matched a bitmap node")
            };
            b.datamap &= !bit;
            b.nodemap |= bit;
            let to = b.node_index(bit);
            migrate_map(&mut b.slots, idx, to, |slot| {
                let Slot::Entry(ek, ev) = slot else {
                    unreachable!("datamap says entry")
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
        } else if b.nodemap & bit != 0 {
            let idx = b.node_index(bit);
            edit_child(
                this,
                idx,
                |child| Node::insert_in_place(child, hash, next_shift(shift), key, value),
                |outcome| !matches!(outcome, EditInserted::Unchanged(_)),
            )
        } else {
            let bitmap = (b.datamap | bit, b.nodemap);
            let idx = index_in(bitmap.0, bit);
            insert_slot(this, bitmap, idx, Slot::Entry(key, value));
            EditInserted::Added
        }
    }

    /// Removes `key` below `this` with the same copy-on-write discipline
    /// as [`Node::insert_in_place`]. Canonicalizes on the way up: a sub-trie
    /// left with one entry hands it to the parent for inlining.
    fn remove_in_place<Q>(
        this: &mut Arc<Node<K, V>>,
        hash: u32,
        shift: u32,
        key: &Q,
    ) -> EditRemoved<K, V>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let b = match &**this {
            Node::Collision(c) => {
                let Some(pos) = c.entries.iter().position(|(k, _)| k.borrow() == key) else {
                    return EditRemoved::NotFound;
                };
                let Node::Collision(c) = Arc::make_mut(this) else {
                    unreachable!("matched a collision node")
                };
                if c.entries.len() == 2 {
                    let (k, v) = c.entries.swap_remove(1 - pos);
                    return EditRemoved::Single(k, v);
                }
                c.entries.swap_remove(pos);
                return EditRemoved::Removed;
            }
            Node::Bitmap(b) => b,
        };
        let bit = bit_pos(mask(hash, shift));
        if b.datamap & bit != 0 {
            let idx = b.data_index(bit);
            let Slot::Entry(k, _) = &b.slots[idx] else {
                unreachable!("datamap says entry")
            };
            if k.borrow() != key {
                return EditRemoved::NotFound;
            }
            let bitmap = (b.datamap & !bit, b.nodemap);
            if shift > 0 && bitmap.0.count_ones() == 1 && bitmap.1 == 0 {
                // The node held exactly two entries; hand the survivor to
                // the parent for inlining.
                let Slot::Entry(k, v) = survivor(this, idx) else {
                    unreachable!("both slots are payload")
                };
                return EditRemoved::Single(k, v);
            }
            remove_slot(this, bitmap, idx);
            EditRemoved::Removed
        } else if b.nodemap & bit != 0 {
            // A pure chain node dissolves when its child collapses.
            let chain = shift > 0 && b.datamap == 0 && b.nodemap.count_ones() == 1;
            let idx = b.node_index(bit);
            match edit_child(
                this,
                idx,
                |child| Node::remove_in_place(child, hash, next_shift(shift), key),
                |outcome| matches!(outcome, EditRemoved::Removed),
            ) {
                EditRemoved::Single(k, v) if !chain => {
                    // Inline the survivor: the slot migrates node group →
                    // data group, dropping the collapsed child.
                    let Node::Bitmap(b) = Arc::make_mut(this) else {
                        unreachable!("matched a bitmap node")
                    };
                    b.datamap |= bit;
                    b.nodemap &= !bit;
                    let to = b.data_index(bit);
                    migrate_map(&mut b.slots, idx, to, |_child| Slot::Entry(k, v));
                    EditRemoved::Removed
                }
                outcome => outcome,
            }
        } else {
            EditRemoved::NotFound
        }
    }
}

impl<K: Clone, V: Clone> SlotNode for Node<K, V> {
    type Bitmap = (u32, u32);
    type Slot = Slot<K, V>;

    fn parts(&self) -> ((u32, u32), &[Slot<K, V>]) {
        match self {
            Node::Bitmap(b) => ((b.datamap, b.nodemap), &b.slots),
            Node::Collision(_) => unreachable!("only bitmap nodes have slots"),
        }
    }

    fn slots_mut(&mut self) -> &mut Box<[Slot<K, V>]> {
        match self {
            Node::Bitmap(b) => &mut b.slots,
            Node::Collision(_) => unreachable!("only bitmap nodes have slots"),
        }
    }

    fn of_parts((datamap, nodemap): (u32, u32), slots: Box<[Slot<K, V>]>) -> Self {
        Node::Bitmap(BitmapNode {
            datamap,
            nodemap,
            slots,
        })
    }

    fn child(slot: &Slot<K, V>) -> &Arc<Self> {
        match slot {
            Slot::Child(child) => child,
            Slot::Entry(..) => unreachable!("nodemap says child"),
        }
    }

    fn child_mut(slot: &mut Slot<K, V>) -> &mut Arc<Self> {
        match slot {
            Slot::Child(child) => child,
            Slot::Entry(..) => unreachable!("nodemap says child"),
        }
    }
}

/// The [`algebra`] view of a map trie: the node hooks the structural
/// `diff` and `==` walks run on.
pub(crate) struct View<K, V>(PhantomData<(K, V)>);

impl<K, V> Slot<K, V> {
    fn entry(&self) -> Option<(&K, &V)> {
        match self {
            Slot::Entry(k, v) => Some((k, v)),
            Slot::Child(_) => None,
        }
    }

    fn child(&self) -> Option<&Arc<Node<K, V>>> {
        match self {
            Slot::Child(child) => Some(child),
            Slot::Entry(..) => None,
        }
    }
}

/// A node's `datamap` and `nodemap`; a collision node occupies no branch.
fn bitmaps<K, V>(node: &Node<K, V>) -> (u32, u32) {
    match node {
        Node::Bitmap(b) => (b.datamap, b.nodemap),
        Node::Collision(_) => (0, 0),
    }
}

/// A node's entry slots, a collision node's entries, and sub-trie slots.
type Runs<'a, K, V> = (&'a [Slot<K, V>], &'a [(K, V)], &'a [Slot<K, V>]);

/// A node's entry slots (and a collision node's entries), and its
/// sub-trie slots.
fn runs<K, V>(node: &Node<K, V>) -> Runs<'_, K, V> {
    match node {
        Node::Bitmap(b) => {
            let (entries, children) = b.slots.split_at(b.payload_arity());
            (entries, &[], children)
        }
        Node::Collision(c) => (&[], &c.entries, &[]),
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> Trie for View<K, V> {
    type Key = K;
    type Value = V;
    type Node = Arc<Node<K, V>>;

    fn ptr_eq(a: &Arc<Node<K, V>>, b: &Arc<Node<K, V>>) -> bool {
        Arc::ptr_eq(a, b)
    }

    fn occupied_with(a: &Arc<Node<K, V>>, b: &Arc<Node<K, V>>) -> impl Iterator<Item = u32> {
        let ((da, na), (db, nb)) = (bitmaps(a), bitmaps(b));
        masks(da | na | db | nb)
    }

    /// The payload run and the sub-trie run are each ascending by mask, so
    /// the two bitmaps pick the run and no branch costs a popcount.
    fn cursor<'a>(node: &'a Arc<Node<K, V>>) -> impl FnMut(u32) -> At<'a, Self>
    where
        Self: 'a,
    {
        let (datamap, nodemap) = bitmaps(node);
        let (mut payload, mut children) = (Self::payload(node), Self::children(node));
        move |m| {
            if datamap & bit_pos(m) != 0 {
                payload
                    .next()
                    .map_or(At::Nothing, |(k, v)| At::Payload(k, v))
            } else if nodemap & bit_pos(m) != 0 {
                children.next().map_or(At::Nothing, At::Sub)
            } else {
                At::Nothing
            }
        }
    }

    fn payload<'a>(node: &'a Arc<Node<K, V>>) -> impl Iterator<Item = (&'a K, &'a V)> + Clone
    where
        Self: 'a,
    {
        let (slots, entries, _) = runs(node);
        let entries = entries.iter().map(|(k, v)| (k, v));
        slots.iter().filter_map(Slot::entry).chain(entries)
    }

    fn children<'a>(node: &'a Arc<Node<K, V>>) -> impl Iterator<Item = &'a Arc<Node<K, V>>>
    where
        Self: 'a,
    {
        runs(node).2.iter().filter_map(Slot::child)
    }

    fn get<'a>(node: &'a Arc<Node<K, V>>, hash: u32, shift: u32, key: &K) -> Option<&'a V>
    where
        Self: 'a,
    {
        node.get(hash, shift, key)
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> Canonical for View<K, V> {
    fn same_payload(a: &Arc<Node<K, V>>, b: &Arc<Node<K, V>>) -> bool {
        let entries = |node| runs(node).0.iter().map(Slot::entry);
        bitmaps(a) == bitmaps(b) && entries(a).eq(entries(b))
    }
}

/// A persistent hash map with the CHAMP encoding. See the
/// [module documentation](self).
pub struct ChampMap<K, V> {
    pub(crate) root: Arc<Node<K, V>>,
    pub(crate) len: usize,
}

impl<K, V> Clone for ChampMap<K, V> {
    fn clone(&self) -> Self {
        ChampMap {
            root: Arc::clone(&self.root),
            len: self.len,
        }
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> ChampMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        ChampMap {
            root: Arc::new(Node::empty()),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        self.replace_mut(key, value).is_none()
    }

    /// Binds `key` to `value` in place, like [`ChampMap::insert_mut`], and
    /// returns the value the key was bound to before (`None` for a new
    /// key). If that value equals `value`, the map is left untouched and
    /// `value` itself comes back.
    pub fn replace_mut(&mut self, key: K, value: V) -> Option<V> {
        let hash = hash32(&key);
        match Node::insert_in_place(&mut self.root, hash, 0, key, value) {
            EditInserted::Unchanged(v) | EditInserted::Replaced(v) => Some(v),
            EditInserted::Added => {
                self.len += 1;
                None
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

    /// Removes `key` in place: uniquely-owned trie nodes along the spine are
    /// edited directly, shared nodes are path-copied. Returns true if a
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
            EditRemoved::Single(k, v) => {
                // Only reachable when the root collapses to one entry.
                self.root = Arc::new(Node::empty());
                Node::insert_in_place(&mut self.root, hash32(&k), 0, k, v);
                self.len -= 1;
                true
            }
        }
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

    /// What changed between `self` (old) and `other` (new), via a lockstep
    /// structural walk: pointer-shared subtrees emit nothing, so output and
    /// walk are both O(changed).
    pub fn diff(&self, other: &Self) -> MapDiff<K, V> {
        algebra::diff::<View<K, V>, _>(&self.root, &other.root, MapDiff::new())
    }

    pub(crate) fn root_node(&self) -> &Node<K, V> {
        &self.root
    }

    /// Recursively checks the canonical-form invariants (test support).
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
            assert!(c.entries.len() >= 2);
            for (k, _) in &c.entries {
                assert_eq!(hash32(k), c.hash);
            }
            c.entries.len()
        }
        Node::Bitmap(b) => {
            assert_eq!(b.datamap & b.nodemap, 0, "maps must be disjoint");
            assert_eq!(
                b.slots.len(),
                b.payload_arity() + b.node_arity(),
                "slot count"
            );
            let mut total = 0;
            for (i, slot) in b.slots.iter().enumerate() {
                match slot {
                    Slot::Entry(k, _) => {
                        assert!(i < b.payload_arity(), "entry in node region");
                        let m = mask(hash32(k), shift);
                        assert!(b.datamap & bit_pos(m) != 0, "entry branch not in datamap");
                        assert_eq!(b.data_index(bit_pos(m)), i, "entry at wrong index");
                        total += 1;
                    }
                    Slot::Child(child) => {
                        assert!(i >= b.payload_arity(), "child in data region");
                        let sub = validate(child, next_shift(shift));
                        assert!(sub >= 2, "sub-trie with < 2 entries not inlined");
                        total += sub;
                    }
                }
            }
            if shift > 0 {
                assert!(
                    !(b.payload_arity() == 1 && b.node_arity() == 0),
                    "non-root singleton payload node must be inlined"
                );
            }
            total
        }
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> Default for ChampMap<K, V> {
    fn default() -> Self {
        ChampMap::new()
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> PartialEq for ChampMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && algebra::eq::<View<K, V>>(&self.root, &other.root)
    }
}

impl<K: Clone + Eq + Hash, V: Clone + Eq> Eq for ChampMap<K, V> {}

impl<K, V> std::fmt::Debug for ChampMap<K, V>
where
    K: std::fmt::Debug + Clone + Eq + Hash,
    V: std::fmt::Debug + Clone + PartialEq,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> FromIterator<(K, V)> for ChampMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        trie_common::ops::from_iter_via(iter)
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> Extend<(K, V)> for ChampMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        trie_common::ops::extend_via(self, iter);
    }
}

impl<'a, K: Clone + Eq + Hash, V: Clone + PartialEq> IntoIterator for &'a ChampMap<K, V> {
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

/// Iterator over map entries. Created by [`ChampMap::iter`].
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

/// Iterator over map keys. Created by [`ChampMap::keys`].
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

/// Iterator over map values. Created by [`ChampMap::values`].
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
        let m = ChampMap::<u32, u32>::new();
        assert!(m.is_empty());
        let m = m.inserted(1, 2);
        assert_eq!(m.get(&1), Some(&2));
        assert_eq!(m.len(), 1);
        m.assert_invariants();
    }

    #[test]
    fn thousand_entries() {
        let m: ChampMap<u32, u32> = (0..1000).map(|i| (i, i * 7)).collect();
        assert_eq!(m.len(), 1000);
        for i in 0..1000 {
            assert_eq!(m.get(&i), Some(&(i * 7)));
        }
        assert!(!m.contains_key(&5000));
        m.assert_invariants();
    }

    #[test]
    fn replace_keeps_len() {
        let m = ChampMap::new().inserted(1u32, 1u32).inserted(1, 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&1), Some(&2));
    }

    #[test]
    fn noop_insert_shares_root() {
        let m: ChampMap<u32, u32> = (0..64).map(|i| (i, i)).collect();
        let m2 = m.inserted(3, 3);
        assert!(Arc::ptr_eq(&m.root, &m2.root));
    }

    #[test]
    fn canonical_removal() {
        let full: ChampMap<u32, u32> = (0..400).map(|i| (i, i)).collect();
        let mut m = full.clone();
        for i in 0..400 {
            assert!(m.remove_mut(&i));
            m.assert_invariants();
        }
        assert!(m.is_empty());
        assert_eq!(full.len(), 400);
    }

    #[test]
    fn collisions() {
        let mut m = ChampMap::new();
        for id in 0..10 {
            m.insert_mut(Collide { bucket: 5, id }, id);
        }
        assert_eq!(m.len(), 10);
        m.assert_invariants();
        for id in 0..10 {
            assert_eq!(m.get(&Collide { bucket: 5, id }), Some(&id));
        }
        for id in 0..9 {
            assert!(m.remove_mut(&Collide { bucket: 5, id }));
            m.assert_invariants();
        }
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn model_based_random_ops() {
        let mut model: HashMap<u32, u32> = HashMap::new();
        let mut m: ChampMap<u32, u32> = ChampMap::new();
        let mut state = 42u64;
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
        for (k, v) in &model {
            assert_eq!(m.get(k), Some(v));
        }
        let collected: HashMap<u32, u32> = m.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(collected, model);
    }

    #[test]
    fn equality() {
        let a: ChampMap<u32, u32> = (0..100).map(|i| (i, i)).collect();
        let b: ChampMap<u32, u32> = (0..100).rev().map(|i| (i, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, b.removed(&7));
    }

    #[test]
    fn iteration_is_payload_before_children() {
        // Grouping invariant: within any node, entries precede children.
        let m: ChampMap<u32, u32> = (0..2000).map(|i| (i, i)).collect();
        assert_eq!(m.iter().count(), 2000);
        assert_eq!(m.keys().count(), 2000);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ChampMap<u32, u32>>();
    }
}
