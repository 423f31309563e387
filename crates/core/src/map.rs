//! A persistent hash map built on the AXIOM node encoding.
//!
//! [`AxiomMap`] is the paper's §5 subject: AXIOM instantiated with 100 % `1:1`
//! mappings (categories `EMPTY`, `CAT1` = key/value pair, `NODE`), measured
//! against the special-purpose CHAMP map to isolate the cost of generalizing
//! to type-heterogeneity (2-bit tag decoding and bitmap filtering) and the
//! benefit of grouped slots for iteration.
//!
//! # Examples
//!
//! ```
//! use axiom::AxiomMap;
//!
//! let m: AxiomMap<u32, &str> = AxiomMap::new().inserted(1, "one").inserted(2, "two");
//! assert_eq!(m.get(&1), Some(&"one"));
//! let m2 = m.inserted(1, "uno"); // replaces; `m` is unchanged
//! assert_eq!(m.get(&1), Some(&"one"));
//! assert_eq!(m2.get(&1), Some(&"uno"));
//! ```

use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::Arc;

use trie_common::bits::{hash_exhausted, mask, next_shift};
use trie_common::hash::hash32;

use crate::bitmap::{Category, SlotBitmap};
use crate::slots::{edit_child, insert_slot, migrate_map, remove_slot, survivor, CowNode};

/// One physical slot of a map node.
#[derive(Debug, Clone)]
pub(crate) enum Slot<K, V> {
    /// `CAT1`: an inlined key/value pair.
    Entry(K, V),
    /// `NODE`: a shared sub-trie.
    Child(Arc<Node<K, V>>),
}

/// A compressed trie node: bitmap plus dense permuted slots
/// (`[entries… | children…]`).
#[derive(Debug, Clone)]
pub(crate) struct BitmapNode<K, V> {
    pub(crate) bitmap: SlotBitmap,
    pub(crate) slots: Box<[Slot<K, V>]>,
}

/// Hash-collision overflow node (below the deepest bitmap level).
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

/// Removal outcome.
pub(crate) enum EditRemoved<K, V> {
    NotFound,
    Removed,
    /// Sub-tree collapsed to a single entry (a unique node is left
    /// consumed; the parent drops it and inlines the survivor).
    Single(K, V),
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> Node<K, V> {
    fn empty() -> Node<K, V> {
        Node::Bitmap(BitmapNode {
            bitmap: SlotBitmap::EMPTY,
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
                bitmap: SlotBitmap::EMPTY.with(m1, Category::Node),
                slots: Box::new([Slot::Child(Arc::new(child))]),
            })
        } else {
            let bitmap = SlotBitmap::EMPTY
                .with(m1, Category::Cat1)
                .with(m2, Category::Cat1);
            let slots: Box<[Slot<K, V>]> = if m1 < m2 {
                Box::new([Slot::Entry(k1, v1), Slot::Entry(k2, v2)])
            } else {
                Box::new([Slot::Entry(k2, v2), Slot::Entry(k1, v1)])
            };
            Node::Bitmap(BitmapNode { bitmap, slots })
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
                // Fused dispatch: category and slot index from one pass.
                match b.bitmap.locate(mask(hash, shift)) {
                    (Category::Empty, _) => None,
                    (Category::Cat1, idx) => match &b.slots[idx] {
                        Slot::Entry(k, v) if k.borrow() == key => Some(v),
                        Slot::Entry(..) => None,
                        Slot::Child(_) => unreachable!("bitmap says CAT1"),
                    },
                    (Category::Node, idx) => match &b.slots[idx] {
                        Slot::Child(child) => child.get(hash, next_shift(shift), key),
                        Slot::Entry(..) => unreachable!("bitmap says NODE"),
                    },
                    (Category::Cat2, _) => unreachable!("maps never use CAT2"),
                }
            }
        }
    }

    /// The root of a one-entry map (a collapsed trie's last entry).
    fn single(key: K, value: V) -> Node<K, V> {
        Node::Bitmap(BitmapNode {
            bitmap: SlotBitmap::EMPTY.with(mask(hash32(&key), 0), Category::Cat1),
            slots: Box::new([Slot::Entry(key, value)]),
        })
    }

    /// Binds `key` to `value` below `this`, editing unique nodes in place
    /// and copying shared ones on write (see [`crate::slots`]). Takes the
    /// entry by ownership so the common paths move it into its final slot.
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
        let m = mask(hash, shift);
        let (cat, idx) = b.bitmap.locate(m);
        match cat {
            Category::Empty => {
                let bitmap = b.bitmap.with(m, Category::Cat1);
                let idx = bitmap.slot_index(Category::Cat1, m);
                insert_slot(this, bitmap, idx, Slot::Entry(key, value));
                EditInserted::Added
            }
            Category::Cat1 => {
                let Slot::Entry(ek, ev) = &b.slots[idx] else {
                    unreachable!("bitmap says CAT1")
                };
                if *ek == key {
                    if *ev == value {
                        return EditInserted::Unchanged;
                    }
                    Arc::make_mut(this).bitmap_node_mut().slots[idx] = Slot::Entry(key, value);
                    return EditInserted::Replaced;
                }
                // Prefix clash: the slot migrates CAT1 → NODE; both entries
                // move into the fresh sub-trie.
                let existing_hash = hash32(ek);
                let BitmapNode { bitmap, slots } = Arc::make_mut(this).bitmap_node_mut();
                *bitmap = bitmap.with(m, Category::Node);
                let to = bitmap.slot_index(Category::Node, m);
                migrate_map(slots, idx, to, |slot| {
                    let Slot::Entry(ek, ev) = slot else {
                        unreachable!("bitmap says CAT1")
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
            Category::Node => edit_child(
                this,
                idx,
                |child| Node::insert_in_place(child, hash, next_shift(shift), key, value),
                |outcome| !matches!(outcome, EditInserted::Unchanged),
            ),
            Category::Cat2 => unreachable!("maps never use CAT2"),
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
        let m = mask(hash, shift);
        let (cat, idx) = b.bitmap.locate(m);
        match cat {
            Category::Empty => EditRemoved::NotFound,
            Category::Cat1 => {
                let matches = match &b.slots[idx] {
                    Slot::Entry(k, _) => k.borrow() == key,
                    Slot::Child(_) => unreachable!("bitmap says CAT1"),
                };
                if !matches {
                    return EditRemoved::NotFound;
                }
                let bitmap = b.bitmap.with(m, Category::Empty);
                if shift > 0 && bitmap.payload_arity() == 1 && bitmap.node_arity() == 0 {
                    let Slot::Entry(k, v) = survivor(this, idx) else {
                        unreachable!("both slots are payload")
                    };
                    return EditRemoved::Single(k, v);
                }
                remove_slot(this, bitmap, idx);
                EditRemoved::Removed
            }
            Category::Node => {
                // A pure chain node dissolves when its child collapses.
                let chain =
                    shift > 0 && b.bitmap.payload_arity() == 0 && b.bitmap.node_arity() == 1;
                match edit_child(
                    this,
                    idx,
                    |child| Node::remove_in_place(child, hash, next_shift(shift), key),
                    |outcome| matches!(outcome, EditRemoved::Removed),
                ) {
                    EditRemoved::Single(k, v) if !chain => {
                        // Inline the survivor: NODE → CAT1, dropping the
                        // collapsed child.
                        let BitmapNode { bitmap, slots } = Arc::make_mut(this).bitmap_node_mut();
                        *bitmap = bitmap.with(m, Category::Cat1);
                        let to = bitmap.slot_index(Category::Cat1, m);
                        migrate_map(slots, idx, to, |_child| Slot::Entry(k, v));
                        EditRemoved::Removed
                    }
                    outcome => outcome,
                }
            }
            Category::Cat2 => unreachable!("maps never use CAT2"),
        }
    }
}

impl<K, V> Node<K, V> {
    /// The bitmap node, mutably.
    fn bitmap_node_mut(&mut self) -> &mut BitmapNode<K, V> {
        match self {
            Node::Bitmap(b) => b,
            Node::Collision(_) => unreachable!("only bitmap nodes have slots"),
        }
    }
}

impl<K: Clone, V: Clone> CowNode for Node<K, V> {
    type Bitmap = SlotBitmap;
    type Slot = Slot<K, V>;

    fn parts(&self) -> (SlotBitmap, &[Slot<K, V>]) {
        match self {
            Node::Bitmap(b) => (b.bitmap, &b.slots),
            Node::Collision(_) => unreachable!("only bitmap nodes have slots"),
        }
    }

    fn slots_mut(&mut self) -> &mut Box<[Slot<K, V>]> {
        &mut self.bitmap_node_mut().slots
    }

    fn of_parts(bitmap: SlotBitmap, slots: Box<[Slot<K, V>]>) -> Self {
        Node::Bitmap(BitmapNode { bitmap, slots })
    }

    fn child_mut(slot: &mut Slot<K, V>) -> &mut Arc<Self> {
        match slot {
            Slot::Child(child) => child,
            Slot::Entry(..) => unreachable!("bitmap says NODE"),
        }
    }
}

// ---------------------------------------------------------------------------
// Structural diff: a lockstep walk that skips pointer-shared subtrees.
// Canonical form makes `Arc::ptr_eq` a sound subtree-equivalence test, so
// both the walk and the emitted diff are O(changed). The derived algebra in
// `trie_common::ops::MapMergeOps` routes `merged`/`intersect`/`difference`
// through this walk.
// ---------------------------------------------------------------------------

/// What one lockstep walk found at a mask position.
enum At<'a, K, V> {
    Nothing,
    Entry(&'a K, &'a V),
    Sub(&'a Arc<Node<K, V>>),
}

fn at<'a, K, V>(b: &'a BitmapNode<K, V>, m: u32) -> At<'a, K, V> {
    match b.bitmap.locate(m) {
        (Category::Empty, _) => At::Nothing,
        (Category::Cat1, idx) => match &b.slots[idx] {
            Slot::Entry(k, v) => At::Entry(k, v),
            Slot::Child(_) => unreachable!("bitmap says CAT1"),
        },
        (Category::Node, idx) => match &b.slots[idx] {
            Slot::Child(c) => At::Sub(c),
            Slot::Entry(..) => unreachable!("bitmap says NODE"),
        },
        (Category::Cat2, _) => unreachable!("maps never use CAT2"),
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

/// Lockstep diff (`a` old, `b` new): pointer-identical subtrees emit
/// nothing; a surviving key with a different value lands in `changed`.
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
                match (at(x, m), at(y, m)) {
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
        _ => unreachable!("canonical tries align node kinds at equal depth"),
    }
}

/// A persistent (immutable, structurally shared) hash map on the AXIOM
/// encoding.
///
/// See the [module documentation](self) for its role in the evaluation.
pub struct AxiomMap<K, V> {
    pub(crate) root: Arc<Node<K, V>>,
    pub(crate) len: usize,
}

impl<K, V> Clone for AxiomMap<K, V> {
    fn clone(&self) -> Self {
        AxiomMap {
            root: Arc::clone(&self.root),
            len: self.len,
        }
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> AxiomMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        AxiomMap {
            root: Arc::new(Node::empty()),
            len: 0,
        }
    }

    /// Number of key/value entries.
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

    /// Returns a map with `key` bound to `value` (replacing any previous
    /// binding); `self` is unchanged.
    pub fn inserted(&self, key: K, value: V) -> Self {
        let mut next = self.clone();
        next.insert_mut(key, value);
        next
    }

    /// Binds `key` to `value` in place: uniquely-owned trie nodes along the
    /// spine are edited directly, shared nodes are path-copied (other
    /// handles keep their version). Returns true if a *new key* was added
    /// (false on replacement or no-op).
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

    /// Removes `key` in place (editing uniquely-owned nodes, path-copying
    /// shared ones). Returns true if a binding was removed.
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
                self.root = Arc::new(Node::single(k, v));
                self.len -= 1;
                true
            }
        }
    }

    /// Iterates `(key, value)` entries in unspecified (trie) order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter::new(&self.root, self.len)
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

    /// Recursively checks the canonical-form invariants (test support).
    ///
    /// # Panics
    ///
    /// Panics if any structural invariant is violated.
    #[doc(hidden)]
    pub fn assert_invariants(&self)
    where
        V: Eq,
    {
        let counted = validate(&self.root, 0);
        assert_eq!(counted, self.len, "len bookkeeping");
    }
}

fn validate<K: Clone + Eq + Hash, V: Clone + PartialEq>(node: &Node<K, V>, shift: u32) -> usize {
    match node {
        Node::Collision(c) => {
            assert!(hash_exhausted(shift), "collision node above max depth");
            assert!(c.entries.len() >= 2, "collision node with < 2 entries");
            for (i, (k, _)) in c.entries.iter().enumerate() {
                assert_eq!(hash32(k), c.hash, "collision member hash");
                for (k2, _) in &c.entries[i + 1..] {
                    assert!(k2 != k, "duplicate key in collision node");
                }
            }
            c.entries.len()
        }
        Node::Bitmap(b) => {
            assert_eq!(b.bitmap.count(Category::Cat2), 0, "maps never use CAT2");
            assert_eq!(b.slots.len(), b.bitmap.arity(), "slot count");
            let mut total = 0usize;
            for (i, m) in b.bitmap.masks_of(Category::Cat1).enumerate() {
                match &b.slots[b.bitmap.offset(Category::Cat1) + i] {
                    Slot::Entry(k, _) => {
                        assert_eq!(mask(hash32(k), shift), m, "entry in wrong branch");
                        total += 1;
                    }
                    Slot::Child(_) => panic!("payload slot holds a child"),
                }
            }
            for (i, _) in b.bitmap.masks_of(Category::Node).enumerate() {
                match &b.slots[b.bitmap.offset(Category::Node) + i] {
                    Slot::Child(child) => {
                        let sub = validate(child, next_shift(shift));
                        assert!(sub >= 2, "sub-trie with < 2 entries not inlined");
                        total += sub;
                    }
                    Slot::Entry(..) => panic!("node slot holds payload"),
                }
            }
            if shift > 0 {
                assert!(
                    !(b.bitmap.payload_arity() == 1 && b.bitmap.node_arity() == 0),
                    "non-root singleton payload node must be inlined"
                );
            }
            total
        }
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> Default for AxiomMap<K, V> {
    fn default() -> Self {
        AxiomMap::new()
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> PartialEq for AxiomMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && node_eq(&self.root, &other.root)
    }
}

impl<K: Clone + Eq + Hash, V: Clone + Eq> Eq for AxiomMap<K, V> {}

fn node_eq<K: Clone + Eq + Hash, V: Clone + PartialEq>(a: &Node<K, V>, b: &Node<K, V>) -> bool {
    match (a, b) {
        (Node::Bitmap(x), Node::Bitmap(y)) => {
            x.bitmap == y.bitmap
                && x.slots
                    .iter()
                    .zip(y.slots.iter())
                    .all(|(s, t)| match (s, t) {
                        (Slot::Entry(k1, v1), Slot::Entry(k2, v2)) => k1 == k2 && v1 == v2,
                        (Slot::Child(c), Slot::Child(d)) => Arc::ptr_eq(c, d) || node_eq(c, d),
                        _ => false,
                    })
        }
        (Node::Collision(x), Node::Collision(y)) => {
            x.hash == y.hash
                && x.entries.len() == y.entries.len()
                && x.entries
                    .iter()
                    .all(|(k, v)| y.entries.iter().any(|(k2, v2)| k == k2 && v == v2))
        }
        _ => false,
    }
}

impl<K, V> std::fmt::Debug for AxiomMap<K, V>
where
    K: std::fmt::Debug + Clone + Eq + Hash,
    V: std::fmt::Debug + Clone + PartialEq,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> FromIterator<(K, V)> for AxiomMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        trie_common::ops::from_iter_via(iter)
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> Extend<(K, V)> for AxiomMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        trie_common::ops::extend_via(self, iter);
    }
}

impl<'a, K: Clone + Eq + Hash, V: Clone + PartialEq> IntoIterator for &'a AxiomMap<K, V> {
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

/// Iterator over map entries. Created by [`AxiomMap::iter`].
pub struct Iter<'a, K, V> {
    stack: Vec<Cursor<'a, K, V>>,
    remaining: usize,
}

impl<'a, K, V> Iter<'a, K, V> {
    fn new(root: &'a Node<K, V>, len: usize) -> Self {
        Iter {
            stack: vec![cursor_of(root)],
            remaining: len,
        }
    }
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

/// Iterator over map keys. Created by [`AxiomMap::keys`].
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

/// Iterator over map values. Created by [`AxiomMap::values`].
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
    fn empty_map_basics() {
        let m = AxiomMap::<u32, u32>::new();
        assert!(m.is_empty());
        assert_eq!(m.get(&1), None);
        m.assert_invariants();
    }

    #[test]
    fn insert_get_thousand() {
        let m: AxiomMap<u32, u32> = (0..1000).map(|i| (i, i * 2)).collect();
        assert_eq!(m.len(), 1000);
        for i in 0..1000 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
        assert_eq!(m.get(&1000), None);
        m.assert_invariants();
    }

    #[test]
    fn insert_replaces_value() {
        let m = AxiomMap::new().inserted(1u32, "a").inserted(1, "b");
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&1), Some(&"b"));
    }

    #[test]
    fn insert_same_value_is_structural_noop() {
        let m: AxiomMap<u32, u32> = (0..64).map(|i| (i, i)).collect();
        let m2 = m.inserted(10, 10);
        assert!(
            Arc::ptr_eq(&m.root, &m2.root),
            "no-op insert must share the root"
        );
    }

    #[test]
    fn remove_roundtrip_canonical() {
        let full: AxiomMap<u32, u32> = (0..500).map(|i| (i, i + 1)).collect();
        let mut m = full.clone();
        for i in 0..500 {
            assert!(m.remove_mut(&i));
            m.assert_invariants();
        }
        assert!(m.is_empty());
        assert_eq!(full.len(), 500);
    }

    #[test]
    fn collision_keys_full_lifecycle() {
        let mut m = AxiomMap::new();
        for id in 0..12 {
            m.insert_mut(Collide { bucket: 3, id }, id);
        }
        assert_eq!(m.len(), 12);
        m.assert_invariants();
        for id in 0..12 {
            assert_eq!(m.get(&Collide { bucket: 3, id }), Some(&id));
        }
        // Replacement inside a collision node.
        m.insert_mut(Collide { bucket: 3, id: 5 }, 99);
        assert_eq!(m.len(), 12);
        assert_eq!(m.get(&Collide { bucket: 3, id: 5 }), Some(&99));
        for id in 0..11 {
            assert!(m.remove_mut(&Collide { bucket: 3, id }));
            m.assert_invariants();
        }
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn model_based_random_ops() {
        // Deterministic pseudo-random op sequence checked against HashMap.
        let mut model: HashMap<u32, u32> = HashMap::new();
        let mut m: AxiomMap<u32, u32> = AxiomMap::new();
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..4000 {
            let op = next() % 3;
            let key = next() % 200;
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
        for (k, v) in &model {
            assert_eq!(m.get(k), Some(v));
        }
        assert_eq!(m.iter().count(), model.len());
        m.assert_invariants();
    }

    #[test]
    fn iteration_consistency() {
        let m: AxiomMap<u32, u32> = (0..256).map(|i| (i, i * 3)).collect();
        let collected: HashMap<u32, u32> = m.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(collected.len(), 256);
        assert_eq!(m.keys().count(), 256);
        assert_eq!(m.values().count(), 256);
        for (k, v) in collected {
            assert_eq!(v, k * 3);
        }
    }

    #[test]
    fn equality_structural_and_order_independent() {
        let a: AxiomMap<u32, u32> = (0..128).map(|i| (i, i)).collect();
        let b: AxiomMap<u32, u32> = (0..128).rev().map(|i| (i, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, b.inserted(5, 99));
        assert_ne!(a, b.removed(&5));
    }

    #[test]
    fn persistence_under_heavy_branching() {
        let v0: AxiomMap<u32, u32> = (0..1024).map(|i| (i, i)).collect();
        let v1 = v0.inserted(5000, 0);
        let v2 = v0.removed(&512);
        assert_eq!(v0.len(), 1024);
        assert_eq!(v1.len(), 1025);
        assert_eq!(v2.len(), 1023);
        assert!(v0.contains_key(&512));
        assert!(!v2.contains_key(&512));
        v1.assert_invariants();
        v2.assert_invariants();
    }

    #[test]
    fn borrowed_string_keys() {
        let m: AxiomMap<String, u32> = [("x".to_string(), 1), ("y".to_string(), 2)]
            .into_iter()
            .collect();
        assert_eq!(m.get("x"), Some(&1));
        assert!(!m.contains_key("z"));
        assert_eq!(m.removed("x").len(), 1);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AxiomMap<u32, u32>>();
    }
}
