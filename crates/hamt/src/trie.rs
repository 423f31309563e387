//! The HAMT both flavours run (Bagwell 2001): node walk, handles and
//! iterators.
//!
//! One 32-bit bitmap marks occupied branches; a dense array stores an
//! **untyped mix** of inlined entries and sub-tries, so every access performs
//! a dynamic slot-type check (the Rust `match` below stands in for the JVM's
//! `instanceof`, paper Figure 2a). The flavours differ in their leaf only,
//! and [`Leaf`] carries the difference: what an entry stores beside its key
//! and value, whether a lookup compares a memoized hash before `Eq`, where a
//! push-down gets the displaced key's hash, and the deletion shape rule.
//! Those rules stay two walks: [`Node::remove_degenerate`] leaves the
//! degenerate paths Clojure's `PersistentHashMap` leaves, and
//! [`Node::remove_canonical`] inlines collapsed sub-tries as Scala does.
//!
//! [`HamtMap`](crate::HamtMap) and [`MemoHamtMap`](crate::MemoHamtMap) are
//! one [`Map`] with a different leaf `L`, and so are the two sets. The
//! module is private: outside the crate these types are named through the
//! aliases. The handles live beside the walk on purpose: rustc assigns
//! generic instances to codegen units by defining module, and with the
//! handles in a module of their own the Scala multi-map's inserts and
//! deletes ran about 10 % slower in `fig5`.

use std::borrow::Borrow;
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::Arc;

use trie_common::algebra::{self, masks, At, Trie};
use trie_common::bits::{bit_pos, hash_exhausted, index_in, mask, next_shift};
use trie_common::hash::hash32;
use trie_common::ops::{MapDiff, SetDiff};
use trie_common::slices::{edit_child, insert_slot, migrate_map, remove_slot, survivor, SlotNode};

/// What one HAMT flavour does differently, carried by its marker type.
pub trait Leaf: Clone + 'static {
    /// What an entry stores beside its key and value: nothing, or the
    /// memoized hash of its key.
    type Memo: Copy + Eq;

    /// The harness name of the flavour's map.
    const MAP_NAME: &'static str;

    /// The harness name of the flavour's set.
    const SET_NAME: &'static str;

    /// True if deletion canonicalizes (a sub-trie left with one entry is
    /// inlined into its parent); false if it leaves degenerate paths. The
    /// shape `validate` asserts.
    const CANONICAL: bool;

    /// The memo of an entry whose key hashes to `hash`.
    fn memo(hash: u32) -> Self::Memo;

    /// False if an entry with `memo` cannot hold a key hashing to `hash`:
    /// the check a probe makes before the key's `Eq`.
    fn may_match(memo: Self::Memo, hash: u32) -> bool;

    /// The hash of an entry's key, which a push-down needs: the key
    /// re-hashed, or the memoized hash.
    fn hash_of<K: Hash + ?Sized>(memo: Self::Memo, key: &K) -> u32;

    /// Removes `key`, which hashes to `hash`, from `map`'s trie by the
    /// flavour's deletion shape rule, leaving `len` to the caller. Returns
    /// true if it was bound.
    fn remove_from<K, V, Q>(map: &mut Map<K, V, Self>, hash: u32, key: &Q) -> bool
    where
        K: Clone + Eq + Hash + Borrow<Q>,
        V: Clone + PartialEq,
        Q: Eq + ?Sized;
}

/// Clojure's `PersistentHashMap`: bare `(key, value)` entries, deletion
/// that leaves degenerate paths.
#[derive(Debug, Clone)]
pub enum Clojure {}

/// Scala's `immutable.HashMap` (pre-2.13): entries memoize their full
/// 32-bit hash (the `HashMap1` leaf), deletion canonicalizes.
#[derive(Debug, Clone)]
pub enum Scala {}

impl Leaf for Clojure {
    type Memo = ();
    const MAP_NAME: &'static str = "hamt-map";
    const SET_NAME: &'static str = "hamt-set";
    const CANONICAL: bool = false;

    fn memo(_: u32) {}

    fn may_match((): (), _: u32) -> bool {
        true
    }

    fn hash_of<K: Hash + ?Sized>((): (), key: &K) -> u32 {
        hash32(key)
    }

    fn remove_from<K, V, Q>(map: &mut Map<K, V, Self>, hash: u32, key: &Q) -> bool
    where
        K: Clone + Eq + Hash + Borrow<Q>,
        V: Clone + PartialEq,
        Q: Eq + ?Sized,
    {
        match Node::remove_degenerate(&mut map.root, hash, 0, key) {
            Degenerate::NotFound => false,
            Degenerate::Removed => true,
            Degenerate::Empty => {
                map.root = Arc::new(Node::empty());
                true
            }
        }
    }
}

impl Leaf for Scala {
    type Memo = u32;
    const MAP_NAME: &'static str = "memo-hamt-map";
    const SET_NAME: &'static str = "memo-hamt-set";
    const CANONICAL: bool = true;

    fn memo(hash: u32) -> u32 {
        hash
    }

    /// Failed probes usually bail here, before the (possibly expensive)
    /// key equality: the reason AXIOM loses Figure 5's `Lookup (Fail)`.
    fn may_match(memo: u32, hash: u32) -> bool {
        memo == hash
    }

    fn hash_of<K: Hash + ?Sized>(memo: u32, _: &K) -> u32 {
        memo
    }

    fn remove_from<K, V, Q>(map: &mut Map<K, V, Self>, hash: u32, key: &Q) -> bool
    where
        K: Clone + Eq + Hash + Borrow<Q>,
        V: Clone + PartialEq,
        Q: Eq + ?Sized,
    {
        match Node::remove_canonical(&mut map.root, hash, 0, key) {
            Canonical::NotFound => false,
            Canonical::Removed => true,
            // Only a node below the root moves its survivor up.
            Canonical::Single(..) => unreachable!("the root inlines a collapsed sub-trie"),
        }
    }
}

/// One slot: an inlined entry or a sub-trie, dynamically discriminated.
#[derive(Clone)]
pub(crate) enum Slot<K, V, L: Leaf> {
    Entry(L::Memo, K, V),
    Child(Arc<Node<K, V, L>>),
}

/// A HAMT node: one bitmap, mixed slots in mask order.
#[derive(Clone)]
pub(crate) struct BitmapNode<K, V, L: Leaf> {
    pub(crate) bitmap: u32,
    pub(crate) slots: Box<[Slot<K, V, L>]>,
}

/// Hash-collision overflow node. Unlike CHAMP/AXIOM, the Clojure flavour's
/// may degenerate to a single entry after deletions.
#[derive(Clone)]
pub(crate) struct CollisionNode<K, V> {
    pub(crate) hash: u32,
    pub(crate) entries: Vec<(K, V)>,
}

/// A trie node.
#[derive(Clone)]
pub(crate) enum Node<K, V, L: Leaf> {
    Bitmap(BitmapNode<K, V, L>),
    Collision(CollisionNode<K, V>),
}

/// Insertion outcome: the walk edits or copies nodes where they stand, so
/// only the bookkeeping flag travels.
enum EditInserted {
    Unchanged,
    Replaced,
    Added,
}

/// Outcome of the Clojure removal walk.
enum Degenerate {
    NotFound,
    Removed,
    /// The node would lose its last slot: it is left as it is, for the
    /// parent to drop the branch.
    Empty,
}

/// Outcome of the Scala removal walk.
enum Canonical<K, V> {
    NotFound,
    Removed,
    /// The sub-trie collapsed to one entry: a unique node is left consumed,
    /// for the parent to inline the survivor with its memoized hash.
    Single(u32, K, V),
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq, L: Leaf> Node<K, V, L> {
    fn empty() -> Self {
        Node::Bitmap(BitmapNode {
            bitmap: 0,
            slots: Box::new([]),
        })
    }

    fn pair(h1: u32, k1: K, v1: V, h2: u32, k2: K, v2: V, shift: u32) -> Self {
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
            let (e1, e2) = (
                Slot::Entry(L::memo(h1), k1, v1),
                Slot::Entry(L::memo(h2), k2, v2),
            );
            let slots: Box<[_]> = if m1 < m2 {
                Box::new([e1, e2])
            } else {
                Box::new([e2, e1])
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
            // The path to a collision node fixed all 32 hash bits.
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
                    Slot::Entry(m, k, v) => {
                        (L::may_match(*m, hash) && k.borrow() == key).then_some(v)
                    }
                    Slot::Child(child) => child.get(hash, next_shift(shift), key),
                }
            }
        }
    }

    /// Binds `key` to `value` below `this`, editing unique nodes in place
    /// and copying shared ones on write (see [`trie_common::slices`]).
    fn insert_in_place(
        this: &mut Arc<Self>,
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
            let slot = Slot::Entry(L::memo(hash), key, value);
            insert_slot(this, bitmap, index_in(bitmap, bit), slot);
            return EditInserted::Added;
        }
        let idx = index_in(b.bitmap, bit);
        // Dynamic slot-type dispatch — the HAMT's `instanceof`.
        let Slot::Entry(em, ek, ev) = &b.slots[idx] else {
            return edit_child(
                this,
                idx,
                |child| Node::insert_in_place(child, hash, next_shift(shift), key, value),
                |outcome| !matches!(outcome, EditInserted::Unchanged),
            );
        };
        if L::may_match(*em, hash) && *ek == key {
            if *ev == value {
                return EditInserted::Unchanged;
            }
            Arc::make_mut(this).slots_mut()[idx] = Slot::Entry(*em, key, value);
            return EditInserted::Replaced;
        }
        // The mixed layout keeps the slot's position: a `from == to`
        // migration turns Entry into Child in place, moving both entries
        // into the fresh sub-trie.
        let existing_hash = L::hash_of(*em, ek);
        migrate_map(Arc::make_mut(this).slots_mut(), idx, idx, |slot| {
            let Slot::Entry(_, ek, ev) = slot else {
                unreachable!("just matched an entry")
            };
            let child = Node::pair(existing_hash, ek, ev, hash, key, value, next_shift(shift));
            Slot::Child(Arc::new(child))
        });
        EditInserted::Added
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> Node<K, V, Clojure> {
    /// Removes `key` below `this` with the same copy-on-write discipline
    /// as [`Node::insert_in_place`], the Clojure way: nothing is inlined
    /// upward, and a 1-entry collision node may survive.
    fn remove_degenerate<Q>(this: &mut Arc<Self>, hash: u32, shift: u32, key: &Q) -> Degenerate
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let b = match &**this {
            Node::Collision(c) => {
                let Some(pos) = c.entries.iter().position(|(k, _)| k.borrow() == key) else {
                    return Degenerate::NotFound;
                };
                if c.entries.len() == 1 {
                    return Degenerate::Empty;
                }
                let Node::Collision(c) = Arc::make_mut(this) else {
                    unreachable!("matched a collision node")
                };
                c.entries.swap_remove(pos);
                return Degenerate::Removed;
            }
            Node::Bitmap(b) => b,
        };
        let bit = bit_pos(mask(hash, shift));
        if b.bitmap & bit == 0 {
            return Degenerate::NotFound;
        }
        let idx = index_in(b.bitmap, bit);
        match &b.slots[idx] {
            Slot::Entry((), k, _) if k.borrow() != key => return Degenerate::NotFound,
            Slot::Entry(..) => {}
            Slot::Child(_) => match edit_child(
                this,
                idx,
                |child| Node::remove_degenerate(child, hash, next_shift(shift), key),
                |outcome| matches!(outcome, Degenerate::Removed),
            ) {
                Degenerate::Empty => {}
                outcome => return outcome,
            },
        }
        // Drop the matched entry or the emptied branch. Non-canonical: a
        // single surviving slot is not inlined into the parent.
        let (bitmap, slots) = this.parts();
        if slots.len() == 1 {
            return Degenerate::Empty;
        }
        remove_slot(this, bitmap & !bit, idx);
        Degenerate::Removed
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> Node<K, V, Scala> {
    /// Removes `key` below `this` the Scala way, canonicalizing on the way
    /// up; the survivor's memoized hash travels with it, so no key is
    /// re-hashed.
    fn remove_canonical<Q>(this: &mut Arc<Self>, hash: u32, shift: u32, key: &Q) -> Canonical<K, V>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let b = match &**this {
            Node::Collision(c) => {
                let Some(pos) = c.entries.iter().position(|(k, _)| k.borrow() == key) else {
                    return Canonical::NotFound;
                };
                let Node::Collision(c) = Arc::make_mut(this) else {
                    unreachable!("matched a collision node")
                };
                if c.entries.len() == 2 {
                    let (k, v) = c.entries.swap_remove(1 - pos);
                    return Canonical::Single(c.hash, k, v);
                }
                c.entries.swap_remove(pos);
                return Canonical::Removed;
            }
            Node::Bitmap(b) => b,
        };
        let bit = bit_pos(mask(hash, shift));
        if b.bitmap & bit == 0 {
            return Canonical::NotFound;
        }
        let idx = index_in(b.bitmap, bit);
        match &b.slots[idx] {
            Slot::Entry(eh, ek, _) => {
                if *eh != hash || ek.borrow() != key {
                    return Canonical::NotFound;
                }
                // Canonicalize: a lone surviving entry moves up.
                if shift > 0 && b.slots.len() == 2 && matches!(b.slots[1 - idx], Slot::Entry(..)) {
                    let Slot::Entry(h, k, v) = survivor(this, idx) else {
                        unreachable!("just matched an entry")
                    };
                    return Canonical::Single(h, k, v);
                }
                let bitmap = b.bitmap & !bit;
                remove_slot(this, bitmap, idx);
                Canonical::Removed
            }
            Slot::Child(_) => {
                // A pure chain node dissolves when its child collapses.
                let chain = shift > 0 && b.slots.len() == 1;
                match edit_child(
                    this,
                    idx,
                    |child| Node::remove_canonical(child, hash, next_shift(shift), key),
                    |outcome| matches!(outcome, Canonical::Removed),
                ) {
                    Canonical::Single(h, k, v) if !chain => {
                        // Inline: the collapsed child's slot takes the
                        // surviving entry.
                        Arc::make_mut(this).slots_mut()[idx] = Slot::Entry(h, k, v);
                        Canonical::Removed
                    }
                    outcome => outcome,
                }
            }
        }
    }
}

impl<K: Clone, V: Clone, L: Leaf> SlotNode for Node<K, V, L> {
    type Bitmap = u32;
    type Slot = Slot<K, V, L>;

    fn parts(&self) -> (u32, &[Slot<K, V, L>]) {
        match self {
            Node::Bitmap(b) => (b.bitmap, &b.slots),
            Node::Collision(_) => unreachable!("only bitmap nodes have slots"),
        }
    }

    fn slots_mut(&mut self) -> &mut Box<[Slot<K, V, L>]> {
        match self {
            Node::Bitmap(b) => &mut b.slots,
            Node::Collision(_) => unreachable!("only bitmap nodes have slots"),
        }
    }

    fn of_parts(bitmap: u32, slots: Box<[Slot<K, V, L>]>) -> Self {
        Node::Bitmap(BitmapNode { bitmap, slots })
    }

    fn child(slot: &Slot<K, V, L>) -> &Arc<Self> {
        match slot {
            Slot::Child(child) => child,
            Slot::Entry(..) => unreachable!("slot holds a child"),
        }
    }

    fn child_mut(slot: &mut Slot<K, V, L>) -> &mut Arc<Self> {
        match slot {
            Slot::Child(child) => child,
            Slot::Entry(..) => unreachable!("slot holds a child"),
        }
    }
}

/// Counts the entries below `node` at `shift`, asserting the invariants
/// both flavours keep (bookkeeping, branch placement, memoized hashes) and
/// the canonical flavour's shape rule.
fn validate<K: Eq + Hash, V, L: Leaf>(node: &Node<K, V, L>, shift: u32) -> usize {
    // The fewest entries a sub-trie may hold: the canonical rule inlines one
    // left with a single entry, the degenerate rule only drops empty ones.
    let least = if L::CANONICAL { 2 } else { 1 };
    match node {
        Node::Collision(c) => {
            assert!(hash_exhausted(shift));
            assert!(c.entries.len() >= least, "collision node not inlined");
            for (k, _) in &c.entries {
                assert_eq!(hash32(k), c.hash);
            }
            c.entries.len()
        }
        Node::Bitmap(b) => {
            assert_eq!(b.slots.len(), b.bitmap.count_ones() as usize);
            let (mut total, mut payload) = (0, 0);
            let mut branches = masks(b.bitmap);
            for slot in b.slots.iter() {
                let m = branches.next().expect("slot without branch");
                match slot {
                    Slot::Entry(memo, k, _) => {
                        assert_eq!(L::hash_of(*memo, k), hash32(k), "stale memoized hash");
                        assert_eq!(mask(hash32(k), shift), m, "entry in wrong branch");
                        total += 1;
                        payload += 1;
                    }
                    Slot::Child(child) => {
                        let sub = validate(child, next_shift(shift));
                        assert!(sub >= least, "sub-trie with {sub} entries retained");
                        total += sub;
                    }
                }
            }
            assert!(
                !(L::CANONICAL && shift > 0 && payload == 1 && b.slots.len() == 1),
                "non-root singleton payload node must be inlined"
            );
            total
        }
    }
}

/// The [`trie_common::algebra`] view of a map trie: the node hooks the
/// structural `diff` walk runs on.
struct View<K, V, L>(PhantomData<(K, V, L)>);

impl<K, V, L: Leaf> Slot<K, V, L> {
    fn entry(&self) -> Option<(&K, &V)> {
        match self {
            Slot::Entry(_, k, v) => Some((k, v)),
            Slot::Child(_) => None,
        }
    }

    fn sub(&self) -> Option<&Arc<Node<K, V, L>>> {
        match self {
            Slot::Child(child) => Some(child),
            Slot::Entry(..) => None,
        }
    }
}

/// A node's bitmap; a collision node occupies no branch.
fn bitmap<K, V, L: Leaf>(node: &Node<K, V, L>) -> u32 {
    match node {
        Node::Bitmap(b) => b.bitmap,
        Node::Collision(_) => 0,
    }
}

/// A node's mixed slots and a collision node's entries.
type Runs<'a, K, V, L> = (&'a [Slot<K, V, L>], &'a [(K, V)]);

/// A node's mixed slots (the payload and the sub-tries are filtered out of
/// them), and a collision node's entries.
fn runs<K, V, L: Leaf>(node: &Node<K, V, L>) -> Runs<'_, K, V, L> {
    match node {
        Node::Bitmap(b) => (&b.slots, &[]),
        Node::Collision(c) => (&[], &c.entries),
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq, L: Leaf> Trie for View<K, V, L> {
    type Key = K;
    type Value = V;
    type Node = Arc<Node<K, V, L>>;

    fn ptr_eq(a: &Self::Node, b: &Self::Node) -> bool {
        Arc::ptr_eq(a, b)
    }

    fn occupied_with(a: &Self::Node, b: &Self::Node) -> impl Iterator<Item = u32> {
        masks(bitmap(a) | bitmap(b))
    }

    /// The slots are in mask order, so the bitmap says when to advance and
    /// no branch costs a popcount; each slot is checked for its kind (the
    /// HAMT's `instanceof`).
    fn cursor<'a>(node: &'a Self::Node) -> impl FnMut(u32) -> At<'a, Self>
    where
        Self: 'a,
    {
        let (bitmap, mut slots) = (bitmap(node), runs(node).0.iter());
        move |m| {
            if bitmap & bit_pos(m) == 0 {
                return At::Nothing;
            }
            match slots.next() {
                Some(Slot::Entry(_, k, v)) => At::Payload(k, v),
                Some(Slot::Child(child)) => At::Sub(child),
                None => At::Nothing,
            }
        }
    }

    fn payload<'a>(node: &'a Self::Node) -> impl Iterator<Item = (&'a K, &'a V)> + Clone
    where
        Self: 'a,
    {
        let (slots, entries) = runs(node);
        let entries = entries.iter().map(|(k, v)| (k, v));
        slots.iter().filter_map(Slot::entry).chain(entries)
    }

    fn children<'a>(node: &'a Self::Node) -> impl Iterator<Item = &'a Self::Node>
    where
        Self: 'a,
    {
        runs(node).0.iter().filter_map(Slot::sub)
    }

    fn get<'a>(node: &'a Self::Node, hash: u32, shift: u32, key: &K) -> Option<&'a V>
    where
        Self: 'a,
    {
        node.get(hash, shift, key)
    }

    /// Clojure deletes leave degenerate paths, and a walk must not pair a
    /// collision node with a bitmap node's branches.
    fn aligned(a: &Self::Node, b: &Self::Node) -> bool {
        matches!((&**a, &**b), (Node::Bitmap(_), Node::Bitmap(_)))
    }
}

/// A persistent hash map over the single-bitmap HAMT encoding, in the
/// flavour `L`: dynamic slot dispatch, and `L`'s leaf and deletion rule.
pub struct Map<K, V, L: Leaf> {
    pub(crate) root: Arc<Node<K, V, L>>,
    pub(crate) len: usize,
}

impl<K, V, L: Leaf> Clone for Map<K, V, L> {
    fn clone(&self) -> Self {
        Map {
            root: Arc::clone(&self.root),
            len: self.len,
        }
    }
}

impl<K, V, L: Leaf> Map<K, V, L> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates `(key, value)` entries in unspecified (trie) order.
    pub fn iter(&self) -> Iter<'_, K, V, L> {
        Iter {
            stack: vec![cursor_of(&self.root)],
            remaining: self.len,
        }
    }

    /// Iterates the keys in unspecified order.
    pub fn keys(&self) -> Keys<'_, K, V, L> {
        Keys { inner: self.iter() }
    }

    /// Iterates the values in unspecified order.
    pub fn values(&self) -> Values<'_, K, V, L> {
        Values { inner: self.iter() }
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq, L: Leaf> Map<K, V, L> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Map {
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
        let removed = L::remove_from(self, hash32(key), key);
        self.len -= usize::from(removed);
        removed
    }

    /// What changed between `self` (old) and `other` (new), via a lockstep
    /// structural walk ([`trie_common::algebra`]). Pointer-shared subtrees
    /// are skipped; because the Clojure flavour is non-canonical, its
    /// equal-but-not-pointer-equal subtrees fall back to content recursion
    /// (which emits nothing when entries match).
    pub fn diff(&self, other: &Self) -> MapDiff<K, V> {
        algebra::diff::<View<K, V, L>, _>(&self.root, &other.root, MapDiff::new())
    }

    /// Structural sanity checks: bookkeeping, branch placement and
    /// memoized hashes, and the canonical form where deletion keeps one.
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

impl<K: Clone + Eq + Hash, V: Clone + PartialEq, L: Leaf> Default for Map<K, V, L> {
    fn default() -> Self {
        Map::new()
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq, L: Leaf> PartialEq for Map<K, V, L> {
    fn eq(&self, other: &Self) -> bool {
        // Non-canonical tries may encode equal maps with different shapes, so
        // equality is content-based rather than structural.
        self.len == other.len
            && self
                .iter()
                .all(|(k, v)| other.get(k).is_some_and(|w| w == v))
    }
}

impl<K: Clone + Eq + Hash, V: Clone + Eq, L: Leaf> Eq for Map<K, V, L> {}

impl<K: std::fmt::Debug, V: std::fmt::Debug, L: Leaf> std::fmt::Debug for Map<K, V, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq, L: Leaf> FromIterator<(K, V)> for Map<K, V, L> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        trie_common::ops::from_iter_via(iter)
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq, L: Leaf> Extend<(K, V)> for Map<K, V, L> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        trie_common::ops::extend_via(self, iter);
    }
}

impl<'a, K, V, L: Leaf> IntoIterator for &'a Map<K, V, L> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V, L>;
    fn into_iter(self) -> Iter<'a, K, V, L> {
        self.iter()
    }
}

enum Cursor<'a, K, V, L: Leaf> {
    Bitmap {
        slots: &'a [Slot<K, V, L>],
        idx: usize,
    },
    Collision {
        entries: &'a [(K, V)],
        idx: usize,
    },
}

fn cursor_of<K, V, L: Leaf>(node: &Node<K, V, L>) -> Cursor<'_, K, V, L> {
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

/// Iterator over map entries. Created by `iter` on a HAMT map.
///
/// Note the contrast with CHAMP/AXIOM: slots mix entries and children, so
/// every step re-discriminates the slot type — the per-element checks the
/// paper's grouped layouts avoid.
pub struct Iter<'a, K, V, L: Leaf> {
    stack: Vec<Cursor<'a, K, V, L>>,
    remaining: usize,
}

impl<'a, K, V, L: Leaf> Iterator for Iter<'a, K, V, L> {
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
                        Slot::Entry(_, k, v) => {
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

impl<'a, K, V, L: Leaf> ExactSizeIterator for Iter<'a, K, V, L> {}

impl<'a, K, V, L: Leaf> std::fmt::Debug for Iter<'a, K, V, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Iter")
            .field("remaining", &self.remaining)
            .finish()
    }
}

/// Iterator over map keys, and a set's elements. Created by `keys` on a
/// HAMT map and `iter` on a HAMT set.
#[derive(Debug)]
pub struct Keys<'a, K, V, L: Leaf> {
    inner: Iter<'a, K, V, L>,
}

impl<'a, K, V, L: Leaf> Iterator for Keys<'a, K, V, L> {
    type Item = &'a K;
    fn next(&mut self) -> Option<&'a K> {
        self.inner.next().map(|(k, _)| k)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a, K, V, L: Leaf> ExactSizeIterator for Keys<'a, K, V, L> {}

/// Iterator over map values. Created by `values` on a HAMT map.
#[derive(Debug)]
pub struct Values<'a, K, V, L: Leaf> {
    inner: Iter<'a, K, V, L>,
}

impl<'a, K, V, L: Leaf> Iterator for Values<'a, K, V, L> {
    type Item = &'a V;
    fn next(&mut self) -> Option<&'a V> {
        self.inner.next().map(|(_, v)| v)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a, K, V, L: Leaf> ExactSizeIterator for Values<'a, K, V, L> {}

/// A persistent hash set over the HAMT flavour `L`: a map to `()`.
pub struct Set<T, L: Leaf> {
    pub(crate) map: Map<T, (), L>,
}

impl<T, L: Leaf> Clone for Set<T, L> {
    fn clone(&self) -> Self {
        Set {
            map: self.map.clone(),
        }
    }
}

impl<T, L: Leaf> Set<T, L> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the set holds no elements.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates the elements in unspecified (trie) order.
    pub fn iter(&self) -> Keys<'_, T, (), L> {
        self.map.keys()
    }
}

impl<T: Clone + Eq + Hash, L: Leaf> Set<T, L> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Set { map: Map::new() }
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
        Set {
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
        Set {
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
    pub fn diff(&self, other: &Self) -> SetDiff<T> {
        algebra::diff::<View<T, (), L>, _>(&self.map.root, &other.map.root, SetDiff::new())
    }

    /// Structural sanity checks (see the map's `assert_invariants`).
    ///
    /// # Panics
    ///
    /// Panics if any structural invariant is violated.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        self.map.assert_invariants();
    }
}

impl<T: Clone + Eq + Hash, L: Leaf> Default for Set<T, L> {
    fn default() -> Self {
        Set::new()
    }
}

impl<T: Clone + Eq + Hash, L: Leaf> PartialEq for Set<T, L> {
    /// Same root ⇒ equal, with no element probed (the identity short-cut
    /// of `java.util.AbstractSet.equals`); otherwise every element of one
    /// side is looked up in the other.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (Arc::ptr_eq(&self.map.root, &other.map.root)
                || self.iter().all(|v| other.contains(v)))
    }
}

impl<T: Clone + Eq + Hash, L: Leaf> Eq for Set<T, L> {}

impl<T: std::fmt::Debug, L: Leaf> std::fmt::Debug for Set<T, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: Clone + Eq + Hash, L: Leaf> FromIterator<T> for Set<T, L> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        trie_common::ops::from_iter_via(iter)
    }
}

impl<T: Clone + Eq + Hash, L: Leaf> Extend<T> for Set<T, L> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        trie_common::ops::extend_via(self, iter);
    }
}

impl<'a, T, L: Leaf> IntoIterator for &'a Set<T, L> {
    type Item = &'a T;
    type IntoIter = Keys<'a, T, (), L>;
    fn into_iter(self) -> Keys<'a, T, (), L> {
        self.iter()
    }
}
