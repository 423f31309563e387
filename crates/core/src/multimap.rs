//! The AXIOM persistent multi-map: `1:1`, `n:1` and `n:n` mappings in one
//! type-heterogeneous hash-trie.
//!
//! This is the paper's headline data structure. Every trie node discriminates
//! four branch states with 2-bit tags (see [`crate::bitmap`]):
//!
//! * `CAT1` — a key with an **inlined singleton value** (`1:1` tuple);
//! * `CAT2` — a key with a **nested collection** of ≥ 2 values (`1:n`);
//! * `NODE` — a sub-trie; `EMPTY` — unoccupied.
//!
//! Each node is one allocation ([`trie_common::packed`]): the bitmap, then
//! the `1:1` tuples, the `1:n` tuples and the sub-trie handles, each group
//! ascending by mask. The bitmap is the only tag; no slot carries one.
//!
//! Content migrates between representations as the relation evolves
//! (paper §3.2): inserting a second value *promotes* a `CAT1` slot to `CAT2`;
//! deleting down to one value *demotes* it back; prefix clashes push payload
//! into fresh sub-tries; deletions canonicalize by inlining collapsed
//! sub-tries into parents. Memory therefore degrades/improves gracefully as
//! arities grow or shrink — the skewed-distribution insight the paper
//! exploits.
//!
//! The value-storage strategy is pluggable via [`ValueBag`]: nested
//! [`AxiomSet`]s (baseline) or [`FusedBag`](crate::bag::FusedBag) (the
//! paper's fusion variant, see [`AxiomFusedMultiMap`](crate::AxiomFusedMultiMap)).
//!
//! # Examples
//!
//! ```
//! use axiom::AxiomMultiMap;
//!
//! let mm = AxiomMultiMap::<&str, u32>::new()
//!     .inserted("D", 4)
//!     .inserted("D", 5) // "D" promotes to a 1:n mapping
//!     .inserted("A", 1);
//! assert_eq!(mm.tuple_count(), 3);
//! assert_eq!(mm.key_count(), 2);
//! assert!(mm.contains_tuple(&"D", &5));
//! assert_eq!(mm.get(&"D").map(|v| v.len()), Some(2));
//!
//! let smaller = mm.tuple_removed(&"D", &4); // demotes back to 1:1
//! assert_eq!(smaller.get(&"D").map(|v| v.len()), Some(1));
//! assert_eq!(mm.tuple_count(), 3); // original unchanged
//! ```

use std::hash::Hash;
use std::marker::PhantomData;

use trie_common::bits::{hash_exhausted, mask, next_shift};
use trie_common::hash::hash32;
use trie_common::packed::{Children, Manys, Ones, Packed, Slot};
use trie_common::slices::{edit_child, insert_slot, remove_slot, survivor};

use crate::bag::{BagEdited, BagIter, BagRef, BagSlot, ValueBag};
use crate::bitmap::{Category, SlotBitmap};
use crate::set::AxiomSet;

/// The values bound to one key: an inlined singleton or a nested bag.
#[derive(Debug, Clone)]
pub(crate) enum Binding<V, B> {
    One(V),
    Many(B),
}

impl<V: Clone + Eq + Hash, B: ValueBag<V>> Binding<V, B> {
    fn len(&self) -> usize {
        match self {
            Binding::One(_) => 1,
            Binding::Many(bag) => bag.len(),
        }
    }

    /// The binding of `values`, built in place (duplicates collapse);
    /// `None` when there are none.
    fn of_values(values: impl IntoIterator<Item = V>) -> Option<Binding<V, B>> {
        let mut values = values.into_iter();
        let mut binding = Binding::One(values.next()?);
        for value in values {
            binding = match binding {
                Binding::One(v) if v == value => Binding::One(v),
                Binding::One(v) => Binding::Many(B::from_two(v, value)),
                Binding::Many(mut bag) => {
                    bag.insert_mut(value);
                    Binding::Many(bag)
                }
            };
        }
        Some(binding)
    }
}

impl<V, B> Binding<V, B> {
    fn category(&self) -> Category {
        match self {
            Binding::One(_) => Category::Cat1,
            Binding::Many(_) => Category::Cat2,
        }
    }
}

/// A `1:n` tuple: a key and its bag of ≥ 2 values, side by side as the
/// bag strategy lays them out ([`BagSlot::Entry`]).
pub(crate) struct Cat2<K, V, B: BagSlot<V>>(B::Entry<K>);

impl<K, V, B: ValueBag<V>> Cat2<K, V, B> {
    fn new(key: K, bag: B) -> Self {
        Cat2(B::entry(key, bag))
    }

    pub(crate) fn key(&self) -> &K {
        B::key(&self.0)
    }

    pub(crate) fn bag(&self) -> BagRef<'_, V> {
        B::bag(&self.0)
    }

    fn into_parts(self) -> (K, B) {
        B::split(self.0)
    }

    fn insert_mut(&mut self, value: V) -> bool {
        B::insert_in(&mut self.0, value)
    }

    fn remove_mut(&mut self, value: &V) -> BagEdited<V> {
        B::remove_in(&mut self.0, value)
    }

    fn put(&mut self, bag: B) {
        B::put_in(&mut self.0, bag);
    }
}

impl<K: Clone, V, B: ValueBag<V>> Clone for Cat2<K, V, B> {
    fn clone(&self) -> Self {
        Cat2(B::clone_entry(&self.0))
    }
}

impl<K: Eq, V: Clone + Eq + Hash, B: ValueBag<V>> PartialEq for Cat2<K, V, B> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key() && self.bag() == other.bag()
    }
}

/// A trie node: one allocation holding the bitmap, the `1:1` tuples, the
/// `1:n` tuples and the sub-trie handles. Past the last hash level a node
/// is a collision node: keys sharing one 32-bit hash, no children, an
/// unused bitmap.
pub(crate) type Node<K, V, B> = Packed<SlotBitmap, (K, V), Cat2<K, V, B>>;

/// One slot of a multi-map node, by value.
type NodeSlot<K, V, B> = Slot<(K, V), Cat2<K, V, B>, Node<K, V, B>>;

/// Insertion outcome: the walk edits or copies nodes where they stand, so
/// only the tuple/key bookkeeping flag travels.
enum EditInserted {
    Unchanged,
    NewTuple,
    NewKey,
}

/// What one removal took out of the relation.
#[derive(Clone, Copy)]
struct Removal {
    tuples: usize,
    key_gone: bool,
}

/// Removal outcome, shared by tuple and key removal.
enum EditRemoved<K, V, B> {
    NotFound,
    Removed(Removal),
    /// Sub-tree collapsed to one key's binding: the parent inlines it (a
    /// unique node is left empty for the parent to drop).
    Single {
        key: K,
        binding: Binding<V, B>,
        removal: Removal,
    },
}

fn slot_of<K, V, B: ValueBag<V>>(key: K, binding: Binding<V, B>) -> NodeSlot<K, V, B> {
    match binding {
        Binding::One(v) => Slot::One((key, v)),
        Binding::Many(bag) => Slot::Many(Cat2::new(key, bag)),
    }
}

/// The key and binding of a payload slot handed over by a collapsing
/// node (inverse of [`slot_of`]).
fn binding_of<K, V, B: ValueBag<V>>(slot: NodeSlot<K, V, B>) -> (K, Binding<V, B>) {
    match slot {
        Slot::One((k, v)) => (k, Binding::One(v)),
        Slot::Many(many) => {
            let (k, bag) = many.into_parts();
            (k, Binding::Many(bag))
        }
        Slot::Child(_) => unreachable!("a collapsing node holds two payload slots"),
    }
}

/// The branch of `hash` at `shift`; 0 past the last level, where a
/// collision node has no branches.
fn branch(hash: u32, shift: u32) -> u32 {
    match hash_exhausted(shift) {
        true => 0,
        false => mask(hash, shift),
    }
}

fn empty<K, V, B: BagSlot<V>>() -> Node<K, V, B> {
    Node::new(SlotBitmap::EMPTY, [], [], [])
}

/// A node of one binding (the root a collapsed trie leaves, or a bitmap
/// node's payload group of one).
fn node_of<K, V, B: ValueBag<V>>(
    bitmap: SlotBitmap,
    key: K,
    binding: Binding<V, B>,
) -> Node<K, V, B> {
    match binding {
        Binding::One(v) => Node::new(bitmap, [(key, v)], [], []),
        Binding::Many(bag) => Node::new(bitmap, [], [Cat2::new(key, bag)], []),
    }
}

/// Builds the minimal sub-trie holding two distinct keys' bindings whose
/// hash prefixes agree up to `shift`.
fn pair<K, V, B: ValueBag<V>>(
    h1: u32,
    k1: K,
    b1: Binding<V, B>,
    h2: u32,
    k2: K,
    b2: Binding<V, B>,
    shift: u32,
) -> Node<K, V, B> {
    let exhausted = hash_exhausted(shift);
    let (m1, m2) = (branch(h1, shift), branch(h2, shift));
    if !exhausted && m1 == m2 {
        let child = pair(h1, k1, b1, h2, k2, b2, next_shift(shift));
        return Node::new(SlotBitmap::EMPTY.with(m1, Category::Node), [], [], [child]);
    }
    // A collision node (exhausted hash) ignores its bitmap.
    let bitmap = match exhausted {
        true => SlotBitmap::EMPTY,
        false => SlotBitmap::EMPTY
            .with(m1, b1.category())
            .with(m2, b2.category()),
    };
    let ((ka, ba), (kb, bb)) = match m1 <= m2 {
        true => ((k1, b1), (k2, b2)),
        false => ((k2, b2), (k1, b1)),
    };
    match (ba, bb) {
        (Binding::One(va), Binding::One(vb)) => Node::new(bitmap, [(ka, va), (kb, vb)], [], []),
        (Binding::Many(xa), Binding::Many(xb)) => {
            Node::new(bitmap, [], [Cat2::new(ka, xa), Cat2::new(kb, xb)], [])
        }
        (Binding::One(va), Binding::Many(xb)) => {
            Node::new(bitmap, [(ka, va)], [Cat2::new(kb, xb)], [])
        }
        (Binding::Many(xa), Binding::One(vb)) => {
            Node::new(bitmap, [(kb, vb)], [Cat2::new(ka, xa)], [])
        }
    }
}

/// A key's slot, as a lookup finds it.
enum Found<'a, K, V, B: BagSlot<V>> {
    One(&'a V),
    Many(&'a Cat2<K, V, B>),
}

impl<'a, K, V, B: ValueBag<V>> Found<'a, K, V, B> {
    fn binding(self) -> BindingRef<'a, V> {
        match self {
            Found::One(v) => BindingRef::One(v),
            Found::Many(many) => BindingRef::Many(many.bag()),
        }
    }
}

/// The slot of `key` in a collision node, with its absolute index.
fn collision_find<'a, K: Eq, V, B: ValueBag<V>>(
    node: &'a Node<K, V, B>,
    key: &K,
) -> Option<(usize, Found<'a, K, V, B>)> {
    let ones = node.ones();
    if let Some(pos) = ones.iter().position(|(k, _)| k == key) {
        return Some((pos, Found::One(&ones[pos].1)));
    }
    let pos = node.manys().iter().position(|many| many.key() == key)?;
    Some((ones.len() + pos, Found::Many(&node.manys()[pos])))
}

/// One level of a lookup: the key's answer, or the sub-trie it goes on in.
enum Step<'a, K, V, B: BagSlot<V>> {
    Done(Option<Found<'a, K, V, B>>),
    Down(&'a Node<K, V, B>),
}

/// One level of the lookup of `key` (hashed to `hash`) in `node` at
/// `shift`: the step [`find`] loops on, and the one
/// [`AxiomMultiMap::get_many`] takes for every walking key per round.
#[inline(always)]
fn step<'a, K, V, B>(node: &'a Node<K, V, B>, hash: u32, shift: u32, key: &K) -> Step<'a, K, V, B>
where
    K: Eq,
    B: ValueBag<V>,
{
    if hash_exhausted(shift) {
        return Step::Done(collision_find(node, key).map(|(_, found)| found));
    }
    // Fused dispatch: category and slot index from one pass.
    match node.word().locate(mask(hash, shift)) {
        (Category::Empty, _) => Step::Done(None),
        (Category::Cat1, idx) => {
            let (k, v) = node.one(idx);
            Step::Done((k == key).then_some(Found::One(v)))
        }
        (Category::Cat2, idx) => {
            let many = node.many(idx);
            Step::Done((many.key() == key).then_some(Found::Many(many)))
        }
        (Category::Node, idx) => Step::Down(node.child(idx)),
    }
}

fn find<'a, K, V, B>(
    mut node: &'a Node<K, V, B>,
    hash: u32,
    mut shift: u32,
    key: &K,
) -> Option<Found<'a, K, V, B>>
where
    K: Eq,
    B: ValueBag<V>,
{
    loop {
        match step(node, hash, shift, key) {
            Step::Done(found) => return found,
            Step::Down(child) => (node, shift) = (child, next_shift(shift)),
        }
    }
}

/// Keys whose walks [`AxiomMultiMap::get_many`] runs side by side: enough
/// to overlap a batch's cache misses, few enough for the cursors to live
/// on the stack.
const LANES: usize = 16;

/// Prefix clash at mask `m`: the payload at `idx` (of category `cat`) and
/// the new binding of `key` (hashed to `hash`) descend into a fresh
/// sub-trie; the slot becomes NODE.
fn push_down<K, V, B>(
    this: &mut Node<K, V, B>,
    (m, shift): (u32, u32),
    (cat, idx): (Category, usize),
    (hash, key, binding): (u32, K, Binding<V, B>),
) where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    let existing_hash = match cat {
        Category::Cat1 => hash32(&this.one(idx).0),
        _ => hash32(this.many(idx).key()),
    };
    let bitmap = this.word().with(m, Category::Node);
    let to = bitmap.slot_index(Category::Node, m);
    let below = move |k, existing| {
        let child = pair(
            existing_hash,
            k,
            existing,
            hash,
            key,
            binding,
            next_shift(shift),
        );
        (Slot::Child(child), ())
    };
    match cat {
        Category::Cat1 => {
            this.migrate::<Ones, _>(bitmap, idx, to, |(k, v)| below(k, Binding::One(v)))
        }
        _ => this.migrate::<Manys, _>(bitmap, idx, to, |many| {
            let (k, bag) = many.into_parts();
            below(k, Binding::Many(bag))
        }),
    }
}

/// Inserts `(key, value)` below `this`, editing unique nodes in place
/// (`CAT2` bags through [`ValueBag::insert_mut`]) and copying shared ones
/// on write (see [`trie_common::slices`]). Takes the tuple by ownership so
/// the common paths are clone-free.
fn insert_in_place<K, V, B>(
    this: &mut Node<K, V, B>,
    hash: u32,
    shift: u32,
    key: K,
    value: V,
) -> EditInserted
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    let (bitmap, m) = (this.word(), branch(hash, shift));
    let (cat, idx) = match hash_exhausted(shift) {
        true => match collision_find(this, &key) {
            Some((idx, Found::One(_))) => (Category::Cat1, idx),
            Some((idx, Found::Many(_))) => (Category::Cat2, idx),
            None => {
                let end = this.ones().len();
                this.insert(bitmap, end, Slot::One((key, value)));
                return EditInserted::NewKey;
            }
        },
        false => bitmap.locate(m),
    };
    match cat {
        Category::Empty => {
            let bitmap = bitmap.with(m, Category::Cat1);
            let idx = bitmap.slot_index(Category::Cat1, m);
            insert_slot(this, bitmap, idx, Slot::One((key, value)));
            EditInserted::NewKey
        }
        Category::Node => edit_child(
            this,
            idx,
            |child| insert_in_place(child, hash, next_shift(shift), key, value),
            |outcome| !matches!(outcome, EditInserted::Unchanged),
        ),
        Category::Cat1 => {
            let (k, v) = this.one(idx);
            if *k != key {
                push_down(
                    this,
                    (m, shift),
                    (cat, idx),
                    (hash, key, Binding::One(value)),
                );
                return EditInserted::NewKey;
            }
            if *v == value {
                return EditInserted::Unchanged;
            }
            // Promote 1:1 → 1:n: CAT1 → CAT2, the existing value moving
            // into the fresh bag.
            let (hv, hvalue) = match B::HASHED {
                true => (hash32(v), hash32(&value)),
                false => (0, 0),
            };
            let (bitmap, to) = match hash_exhausted(shift) {
                true => (bitmap, this.arity() - this.children().len() - 1),
                false => {
                    let bitmap = bitmap.with(m, Category::Cat2);
                    (bitmap, bitmap.slot_index(Category::Cat2, m))
                }
            };
            this.migrate::<Ones, _>(bitmap, idx, to, |(k, v)| {
                let bag = B::from_two_hashed(v, hv, value, hvalue);
                (Slot::Many(Cat2::new(k, bag)), ())
            });
            EditInserted::NewTuple
        }
        Category::Cat2 => {
            let many = this.many(idx);
            if *many.key() != key {
                push_down(
                    this,
                    (m, shift),
                    (cat, idx),
                    (hash, key, Binding::One(value)),
                );
                return EditInserted::NewKey;
            }
            // A shared node is copied only for a value its bag lacks.
            if !this.is_unique() && many.bag().contains(&value) {
                return EditInserted::Unchanged;
            }
            let node = this.make_mut();
            match node.manys[idx - node.ones.len()].insert_mut(value) {
                true => EditInserted::NewTuple,
                false => EditInserted::Unchanged,
            }
        }
    }
}

/// In-place put: binds `key` to `binding`, replacing the key's previous
/// binding, in one walk. Returns the previous binding's size (`None` for a
/// new key). A shared node is copied first (`make_mut`), so other handles
/// keep their version and only the spine down to the key is copied; a
/// uniquely-owned node is edited where it stands. A put never removes a
/// key, so no sub-trie collapses.
fn put_in_place<K, V, B>(
    this: &mut Node<K, V, B>,
    hash: u32,
    shift: u32,
    key: K,
    binding: Binding<V, B>,
) -> Option<usize>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    let (bitmap, m) = (this.word(), branch(hash, shift));
    let to_cat = binding.category();
    let (cat, idx) = match hash_exhausted(shift) {
        true => match collision_find(this, &key) {
            Some((idx, Found::One(_))) => (Category::Cat1, idx),
            Some((idx, Found::Many(_))) => (Category::Cat2, idx),
            None => {
                let end = match to_cat {
                    Category::Cat1 => this.ones().len(),
                    _ => this.ones().len() + this.manys().len(),
                };
                this.insert(bitmap, end, slot_of(key, binding));
                return None;
            }
        },
        false => bitmap.locate(m),
    };
    let (ek, old_len) = match cat {
        Category::Empty => {
            let bitmap = bitmap.with(m, to_cat);
            let idx = bitmap.slot_index(to_cat, m);
            this.insert(bitmap, idx, slot_of(key, binding));
            return None;
        }
        Category::Node => {
            let node = this.make_mut();
            let child = &mut node.children[idx - node.ones.len() - node.manys.len()];
            return put_in_place(child, hash, next_shift(shift), key, binding);
        }
        Category::Cat1 => (&this.one(idx).0, 1),
        Category::Cat2 => {
            let many = this.many(idx);
            (many.key(), many.bag().len())
        }
    };
    if *ek != key {
        push_down(this, (m, shift), (cat, idx), (hash, key, binding));
        return None;
    }
    let (bitmap, to) = match hash_exhausted(shift) {
        true => {
            let ones = this.ones().len() - usize::from(cat == Category::Cat1);
            let to = match to_cat {
                Category::Cat1 => ones,
                _ => this.arity() - this.children().len() - 1,
            };
            (bitmap, to)
        }
        false => {
            let bitmap = bitmap.with(m, to_cat);
            (bitmap, bitmap.slot_index(to_cat, m))
        }
    };
    match (cat, binding) {
        (Category::Cat1, Binding::One(v)) => this.make_mut().ones[idx].1 = v,
        (Category::Cat1, Binding::Many(bag)) => {
            // CAT1 → CAT2 in place: the slot migrates groups.
            this.migrate::<Ones, _>(bitmap, idx, to, |(k, v)| (Slot::Many(Cat2::new(k, bag)), v));
        }
        (_, Binding::One(v)) => {
            this.migrate::<Manys, _>(bitmap, idx, to, |many| {
                let (k, bag) = many.into_parts();
                (Slot::One((k, v)), bag)
            });
        }
        (_, Binding::Many(bag)) => {
            let node = this.make_mut();
            node.manys[idx - node.ones.len()].put(bag);
        }
    }
    Some(old_len)
}

/// Removes from `key`'s binding below `this` either one `value` (a tuple
/// removal) or, for `None`, the whole binding (a key removal), with the
/// same copy-on-write discipline as [`insert_in_place`]. Canonicalizes on
/// the way up: a sub-trie left with one key hands its binding to the parent
/// for inlining.
fn remove_in_place<K, V, B>(
    this: &mut Node<K, V, B>,
    hash: u32,
    shift: u32,
    key: &K,
    value: Option<&V>,
) -> EditRemoved<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    let (bitmap, m) = (this.word(), branch(hash, shift));
    let (cat, idx) = match hash_exhausted(shift) {
        true => match collision_find(this, key) {
            Some((idx, Found::One(_))) => (Category::Cat1, idx),
            Some((idx, Found::Many(_))) => (Category::Cat2, idx),
            None => return EditRemoved::NotFound,
        },
        false => bitmap.locate(m),
    };
    let removal = match cat {
        Category::Empty => return EditRemoved::NotFound,
        Category::Node => {
            // A pure chain node dissolves when its child collapses.
            let chain = shift > 0 && bitmap.payload_arity() == 0 && bitmap.node_arity() == 1;
            return match edit_child(
                this,
                idx,
                |child| remove_in_place(child, hash, next_shift(shift), key, value),
                |outcome| matches!(outcome, EditRemoved::Removed(_)),
            ) {
                EditRemoved::Single {
                    key,
                    binding,
                    removal,
                } if !chain => {
                    // Inline the binding: NODE → CAT1/CAT2, dropping the
                    // collapsed child after the move.
                    let cat = binding.category();
                    let bitmap = bitmap.with(m, cat);
                    let to = bitmap.slot_index(cat, m);
                    this.migrate::<Children, _>(bitmap, idx, to, |child| {
                        (slot_of(key, binding), child)
                    });
                    EditRemoved::Removed(removal)
                }
                outcome => outcome,
            };
        }
        Category::Cat1 => {
            let (k, v) = this.one(idx);
            if k != key || value.is_some_and(|value| value != v) {
                return EditRemoved::NotFound;
            }
            Removal {
                tuples: 1,
                key_gone: true,
            }
        }
        Category::Cat2 => {
            let many = this.many(idx);
            if many.key() != key {
                return EditRemoved::NotFound;
            }
            let Some(value) = value else {
                let removal = Removal {
                    tuples: many.bag().len(),
                    key_gone: true,
                };
                return remove_payload(this, bitmap, m, shift, idx, removal);
            };
            // A shared node is copied only for a value its bag holds.
            if !this.is_unique() && !many.bag().contains(value) {
                return EditRemoved::NotFound;
            }
            let node = this.make_mut();
            let removal = Removal {
                tuples: 1,
                key_gone: false,
            };
            let survivor = match node.manys[idx - node.ones.len()].remove_mut(value) {
                BagEdited::NotFound => return EditRemoved::NotFound,
                BagEdited::Shrunk => return EditRemoved::Removed(removal),
                BagEdited::Single(survivor) => survivor,
            };
            // Demote 1:n → 1:1: CAT2 → CAT1, dropping the consumed bag.
            let (bitmap, to) = match hash_exhausted(shift) {
                true => (bitmap, this.ones().len()),
                false => {
                    let bitmap = bitmap.with(m, Category::Cat1);
                    (bitmap, bitmap.slot_index(Category::Cat1, m))
                }
            };
            this.migrate::<Manys, _>(bitmap, idx, to, |many| {
                let (k, bag) = many.into_parts();
                (Slot::One((k, survivor)), bag)
            });
            return EditRemoved::Removed(removal);
        }
    };
    remove_payload(this, bitmap, m, shift, idx, removal)
}

/// Takes the whole payload slot at `idx` (mask `m`) out of `this`. A node
/// left with one payload slot and no child offers it to the parent for
/// inlining.
fn remove_payload<K, V, B>(
    this: &mut Node<K, V, B>,
    bitmap: SlotBitmap,
    m: u32,
    shift: u32,
    idx: usize,
    removal: Removal,
) -> EditRemoved<K, V, B>
where
    K: Clone,
    V: Clone,
    B: ValueBag<V>,
{
    let (bitmap, last) = match hash_exhausted(shift) {
        true => (bitmap, this.arity() == 2),
        false => {
            let bitmap = bitmap.with(m, Category::Empty);
            (
                bitmap,
                shift > 0 && bitmap.payload_arity() == 1 && bitmap.node_arity() == 0,
            )
        }
    };
    if last {
        let (key, binding) = binding_of(survivor(this, idx));
        return EditRemoved::Single {
            key,
            binding,
            removal,
        };
    }
    remove_slot(this, bitmap, idx);
    EditRemoved::Removed(removal)
}

/// Borrowed view of one key's values. Returned by [`AxiomMultiMap::get`].
#[derive(Debug)]
pub enum BindingRef<'a, V> {
    /// The key maps to exactly one (inlined) value.
    One(&'a V),
    /// The key maps to a nested bag of ≥ 2 values.
    Many(BagRef<'a, V>),
}

impl<'a, V> Clone for BindingRef<'a, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'a, V> Copy for BindingRef<'a, V> {}

impl<'a, V: Clone + Eq + Hash> BindingRef<'a, V> {
    /// Number of values in the binding.
    pub fn len(&self) -> usize {
        match self {
            BindingRef::One(_) => 1,
            BindingRef::Many(bag) => bag.len(),
        }
    }

    /// Always false: bindings hold at least one value.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True if `value` is among the binding's values.
    pub fn contains(&self, value: &V) -> bool {
        match self {
            BindingRef::One(v) => *v == value,
            BindingRef::Many(bag) => bag.contains(value),
        }
    }

    /// Iterates the binding's values.
    pub fn iter(&self) -> BindingIter<'a, V> {
        match self {
            BindingRef::One(v) => BindingIter::One(std::iter::once(*v)),
            BindingRef::Many(bag) => BindingIter::Many(bag.iter()),
        }
    }
}

/// Iterator over one binding's values. Created by [`BindingRef::iter`].
#[derive(Debug)]
pub enum BindingIter<'a, V> {
    /// Singleton value.
    One(std::iter::Once<&'a V>),
    /// Nested bag.
    Many(BagIter<'a, V>),
}

impl<'a, V> Iterator for BindingIter<'a, V> {
    type Item = &'a V;
    fn next(&mut self) -> Option<&'a V> {
        match self {
            BindingIter::One(it) => it.next(),
            BindingIter::Many(it) => it.next(),
        }
    }
}

/// Iterator over the values bound to one key; empty when the key is absent.
/// Created by [`AxiomMultiMap::values_of`].
#[derive(Debug)]
pub struct ValuesOf<'a, V> {
    inner: Option<BindingIter<'a, V>>,
}

impl<'a, V> Iterator for ValuesOf<'a, V> {
    type Item = &'a V;
    fn next(&mut self) -> Option<&'a V> {
        self.inner.as_mut()?.next()
    }
}

// ---------------------------------------------------------------------------
// Structural relation diff: a lockstep node walk.
// ---------------------------------------------------------------------------
//
// `diff_nodes` walks two multi-map tries in lockstep, comparing the branch
// under each 5-bit mask. Pointer-identical sub-tries (`Packed::ptr_eq`) are
// skipped wholesale — the sharing the AXIOM canonical form guarantees after
// persistent edits — so the walk is O(changed) for operands that share
// structure. Bindings compare at tuple granularity: a `CAT1`×`CAT2` pair at
// the same mask (a promoted or demoted key) contributes only the values that
// actually differ, and `CAT2`×`CAT2` pairs diff their bags value by value.

/// What one multi-map node holds under a 5-bit mask.
enum AtM<'a, K, V, B: BagSlot<V>> {
    Nothing,
    /// `CAT1`: an inlined `1:1` tuple.
    One(&'a K, &'a V),
    /// `CAT2`: a key with a nested bag of ≥ 2 values.
    Many(&'a K, BagRef<'a, V>),
    /// `NODE`: a sub-trie.
    Sub(&'a Node<K, V, B>),
}

/// A node's branches in ascending mask order, one cursor per slot group
/// (each ascending by mask), so no branch costs a popcount.
struct Branches<'a, K, V, B: BagSlot<V>> {
    bitmap: SlotBitmap,
    ones: std::slice::Iter<'a, (K, V)>,
    manys: std::slice::Iter<'a, Cat2<K, V, B>>,
    children: std::slice::Iter<'a, Node<K, V, B>>,
}

impl<'a, K, V, B: ValueBag<V>> Branches<'a, K, V, B> {
    fn of(node: &'a Node<K, V, B>) -> Self {
        Branches {
            bitmap: node.word(),
            ones: node.ones().iter(),
            manys: node.manys().iter(),
            children: node.children().iter(),
        }
    }

    /// What the node holds at `m`. Called for ascending masks that cover
    /// every branch the node occupies.
    fn at(&mut self, m: u32) -> AtM<'a, K, V, B> {
        match self.bitmap.get(m) {
            Category::Empty => AtM::Nothing,
            Category::Cat1 => self
                .ones
                .next()
                .map_or(AtM::Nothing, |(k, v)| AtM::One(k, v)),
            Category::Cat2 => self
                .manys
                .next()
                .map_or(AtM::Nothing, |many| AtM::Many(many.key(), many.bag())),
            Category::Node => self.children.next().map_or(AtM::Nothing, AtM::Sub),
        }
    }
}

/// The `(key, binding)` entries of a node's payload groups.
fn entries<K, V, B: ValueBag<V>>(
    node: &Node<K, V, B>,
) -> impl Iterator<Item = (&K, BindingRef<'_, V>)> {
    let ones = node.ones().iter().map(|(k, v)| (k, BindingRef::One(v)));
    ones.chain(
        node.manys()
            .iter()
            .map(|many| (many.key(), BindingRef::Many(many.bag()))),
    )
}

/// Invokes `f` for every `(key, value)` tuple stored in the sub-trie.
fn for_each_tuple_node<K, V, B>(node: &Node<K, V, B>, f: &mut impl FnMut(&K, &V))
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    for (k, binding) in entries(node) {
        binding.iter().for_each(|v| f(k, v));
    }
    for child in node.children() {
        for_each_tuple_node(child, f);
    }
}

/// Emits the tuple-level delta between two same-key bindings into `out`.
/// Bindings under distinct keys never reach here.
fn diff_bindings<K, V>(
    key: &K,
    a: BindingRef<'_, V>,
    b: BindingRef<'_, V>,
    out: &mut trie_common::ops::MultiMapDiff<K, V>,
) where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    for v in a.iter() {
        if !b.contains(v) {
            out.removed.push((key.clone(), v.clone()));
        }
    }
    for v in b.iter() {
        if !a.contains(v) {
            out.added.push((key.clone(), v.clone()));
        }
    }
}

/// Emits every tuple of `binding` under `key` into `sink`.
fn emit_binding<K, V>(key: &K, binding: BindingRef<'_, V>, sink: &mut Vec<(K, V)>)
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    for v in binding.iter() {
        sink.push((key.clone(), v.clone()));
    }
}

/// Emits the delta between a payload binding on one side and a sub-trie on
/// the other. `payload_is_old` tells which orientation the pair has: true
/// when the binding comes from `self` (the old side) and the sub-trie from
/// `other`.
fn diff_binding_vs_sub<K, V, B>(
    key: &K,
    binding: BindingRef<'_, V>,
    sub: &Node<K, V, B>,
    shift: u32,
    payload_is_old: bool,
    out: &mut trie_common::ops::MultiMapDiff<K, V>,
) where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    let in_sub = find(sub, hash32(key), next_shift(shift), key).map(Found::binding);
    // Tuples of the payload binding missing from the sub-trie.
    for v in binding.iter() {
        let present = in_sub.is_some_and(|theirs| theirs.contains(v));
        if !present {
            let pair = (key.clone(), v.clone());
            if payload_is_old {
                out.removed.push(pair);
            } else {
                out.added.push(pair);
            }
        }
    }
    // Tuples of the sub-trie missing from the payload binding: every tuple
    // under a different key, plus same-key values the binding lacks.
    for_each_tuple_node(sub, &mut |k, v| {
        if k == key && binding.contains(v) {
            return;
        }
        let pair = (k.clone(), v.clone());
        if payload_is_old {
            out.added.push(pair);
        } else {
            out.removed.push(pair);
        }
    });
}

/// Lockstep diff of two multi-map sub-tries at the same depth, accumulating
/// tuple-granularity added/removed entries into `out` (`a` old, `b` new).
fn diff_nodes<K, V, B>(
    a: &Node<K, V, B>,
    b: &Node<K, V, B>,
    shift: u32,
    out: &mut trie_common::ops::MultiMapDiff<K, V>,
) where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    if hash_exhausted(shift) {
        for (k, binding_a) in entries(a) {
            match entries(b).find(|(kb, _)| *kb == k) {
                None => emit_binding(k, binding_a, &mut out.removed),
                Some((_, binding_b)) => diff_bindings(k, binding_a, binding_b, out),
            }
        }
        for (k, binding_b) in entries(b) {
            if !entries(a).any(|(ka, _)| ka == k) {
                emit_binding(k, binding_b, &mut out.added);
            }
        }
        return;
    }
    let (mut xa, mut xb) = (Branches::of(a), Branches::of(b));
    for m in a.word().occupied_with(b.word()) {
        match (xa.at(m), xb.at(m)) {
            (AtM::Nothing, AtM::Nothing) => {}
            (AtM::One(k, v), AtM::Nothing) => {
                out.removed.push((k.clone(), v.clone()));
            }
            (AtM::Many(k, bag), AtM::Nothing) => {
                emit_binding(k, BindingRef::Many(bag), &mut out.removed);
            }
            (AtM::Sub(ac), AtM::Nothing) => {
                for_each_tuple_node(ac, &mut |k, v| {
                    out.removed.push((k.clone(), v.clone()));
                });
            }
            (AtM::Nothing, AtM::One(k, v)) => {
                out.added.push((k.clone(), v.clone()));
            }
            (AtM::Nothing, AtM::Many(k, bag)) => {
                emit_binding(k, BindingRef::Many(bag), &mut out.added);
            }
            (AtM::Nothing, AtM::Sub(bc)) => {
                for_each_tuple_node(bc, &mut |k, v| {
                    out.added.push((k.clone(), v.clone()));
                });
            }
            (AtM::One(ka, va), AtM::One(kb, vb)) => {
                if ka == kb {
                    if va != vb {
                        out.removed.push((ka.clone(), va.clone()));
                        out.added.push((kb.clone(), vb.clone()));
                    }
                } else {
                    out.removed.push((ka.clone(), va.clone()));
                    out.added.push((kb.clone(), vb.clone()));
                }
            }
            (AtM::One(ka, va), AtM::Many(kb, bb)) => {
                if ka == kb {
                    // Promotion: the key gained values (and may have
                    // swapped its original one).
                    diff_bindings(ka, BindingRef::One(va), BindingRef::Many(bb), out);
                } else {
                    out.removed.push((ka.clone(), va.clone()));
                    emit_binding(kb, BindingRef::Many(bb), &mut out.added);
                }
            }
            (AtM::Many(ka, ba), AtM::One(kb, vb)) => {
                if ka == kb {
                    // Demotion: the key shed values down to one.
                    diff_bindings(ka, BindingRef::Many(ba), BindingRef::One(vb), out);
                } else {
                    emit_binding(ka, BindingRef::Many(ba), &mut out.removed);
                    out.added.push((kb.clone(), vb.clone()));
                }
            }
            (AtM::Many(ka, ba), AtM::Many(kb, bb)) => {
                if ka == kb {
                    if ba != bb {
                        diff_bindings(ka, BindingRef::Many(ba), BindingRef::Many(bb), out);
                    }
                } else {
                    emit_binding(ka, BindingRef::Many(ba), &mut out.removed);
                    emit_binding(kb, BindingRef::Many(bb), &mut out.added);
                }
            }
            (AtM::One(ka, va), AtM::Sub(bc)) => {
                diff_binding_vs_sub(ka, BindingRef::One(va), bc, shift, true, out);
            }
            (AtM::Many(ka, ba), AtM::Sub(bc)) => {
                diff_binding_vs_sub(ka, BindingRef::Many(ba), bc, shift, true, out);
            }
            (AtM::Sub(ac), AtM::One(kb, vb)) => {
                diff_binding_vs_sub(kb, BindingRef::One(vb), ac, shift, false, out);
            }
            (AtM::Sub(ac), AtM::Many(kb, bag)) => {
                diff_binding_vs_sub(kb, BindingRef::Many(bag), ac, shift, false, out);
            }
            (AtM::Sub(ac), AtM::Sub(bc)) => {
                if !Node::ptr_eq(ac, bc) {
                    diff_nodes(ac, bc, next_shift(shift), out);
                }
            }
        }
    }
}

/// A persistent (immutable, structurally shared) multi-map on the AXIOM
/// encoding. See the [module documentation](self).
///
/// The third type parameter selects the `1:n` value-storage strategy and
/// defaults to nested [`AxiomSet`]s; [`crate::AxiomFusedMultiMap`] selects
/// the fusion strategy.
pub struct AxiomMultiMap<K, V, B: BagSlot<V> = AxiomSet<V>> {
    pub(crate) root: Node<K, V, B>,
    pub(crate) tuples: usize,
    pub(crate) keys: usize,
    marker: PhantomData<fn() -> B>,
}

impl<K, V, B: BagSlot<V>> Clone for AxiomMultiMap<K, V, B> {
    fn clone(&self) -> Self {
        AxiomMultiMap {
            root: self.root.clone(),
            tuples: self.tuples,
            keys: self.keys,
            marker: PhantomData,
        }
    }
}

impl<K, V, B> AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    /// Creates an empty multi-map.
    pub fn new() -> Self {
        AxiomMultiMap {
            root: empty(),
            tuples: 0,
            keys: 0,
            marker: PhantomData,
        }
    }

    /// Total number of `(key, value)` tuples.
    pub fn tuple_count(&self) -> usize {
        self.tuples
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.keys
    }

    /// Alias for [`AxiomMultiMap::tuple_count`], matching conventional `len`.
    pub fn len(&self) -> usize {
        self.tuples
    }

    /// True if no tuple is stored.
    pub fn is_empty(&self) -> bool {
        self.tuples == 0
    }

    /// Borrowed view of the values bound to `key`.
    pub fn get(&self, key: &K) -> Option<BindingRef<'_, V>> {
        find(&self.root, hash32(key), 0, key).map(Found::binding)
    }

    /// Looks up every key of `keys`, appending one [`AxiomMultiMap::get`]
    /// answer per key to `out`, in order.
    ///
    /// Up to 16 keys walk the trie together, level by level: in each round
    /// every key still walking takes the one level step a `get` takes and
    /// prefetches the node it goes on in (or, on a `1:n` hit, its nested
    /// bag), so the cache misses of the batch overlap instead of queueing
    /// one behind another.
    ///
    /// # Examples
    ///
    /// ```
    /// use axiom::AxiomMultiMap;
    ///
    /// let mm: AxiomMultiMap<u32, u32> = [(1, 10), (1, 11), (2, 20)].into_iter().collect();
    /// let mut out = Vec::new();
    /// mm.get_many(&[&2, &3, &1], &mut out);
    /// let lens: Vec<_> = out.iter().map(|b| b.map(|b| b.len())).collect();
    /// assert_eq!(lens, [Some(1), None, Some(2)]);
    /// ```
    pub fn get_many<'a>(&'a self, keys: &[&K], out: &mut Vec<Option<BindingRef<'a, V>>>) {
        out.reserve(keys.len());
        for batch in keys.chunks(LANES) {
            let base = out.len();
            out.extend(std::iter::repeat_n(None, batch.len()));
            let found = &mut out[base..];
            // One cursor per walking key: its node, its hash and its lane.
            let mut walking = [(&self.root, 0, 0); LANES];
            for (lane, key) in batch.iter().enumerate() {
                walking[lane] = (&self.root, hash32(*key), lane);
            }
            let (mut live, mut shift) = (batch.len(), 0);
            while live > 0 {
                let mut kept = 0;
                for i in 0..live {
                    let (node, hash, lane) = walking[i];
                    match step(node, hash, shift, batch[lane]) {
                        Step::Down(child) => {
                            child.prefetch();
                            walking[kept] = (child, hash, lane);
                            kept += 1;
                        }
                        Step::Done(hit) => {
                            let binding = hit.map(Found::binding);
                            if let Some(BindingRef::Many(bag)) = binding {
                                bag.prefetch();
                            }
                            found[lane] = binding;
                        }
                    }
                }
                (live, shift) = (kept, next_shift(shift));
            }
        }
    }

    /// True if `key` maps to at least one value.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// True if the exact tuple `(key, value)` is present.
    pub fn contains_tuple(&self, key: &K, value: &V) -> bool {
        match self.get(key) {
            Some(binding) => binding.contains(value),
            None => false,
        }
    }

    /// Number of values bound to `key` (0 if absent).
    pub fn value_count(&self, key: &K) -> usize {
        self.get(key).map_or(0, |b| b.len())
    }

    /// Returns a multi-map additionally containing `(key, value)`; `self` is
    /// unchanged. Inserting a present tuple returns an identical multi-map.
    pub fn inserted(&self, key: K, value: V) -> Self {
        let mut next = self.clone();
        next.insert_mut(key, value);
        next
    }

    /// Inserts `(key, value)` in place: uniquely-owned trie nodes along the
    /// spine are edited directly, shared nodes are path-copied (other
    /// handles keep their version). Returns true if the relation grew.
    pub fn insert_mut(&mut self, key: K, value: V) -> bool {
        let hash = hash32(&key);
        match insert_in_place(&mut self.root, hash, 0, key, value) {
            EditInserted::Unchanged => false,
            EditInserted::NewTuple => {
                self.tuples += 1;
                true
            }
            EditInserted::NewKey => {
                self.tuples += 1;
                self.keys += 1;
                true
            }
        }
    }

    /// Binds `key` to exactly `values` in place, replacing whatever it was
    /// bound to, and returns the tuple-count delta. Duplicate values
    /// collapse; empty `values` removes the key.
    ///
    /// The new binding (an inlined singleton or a bag) is built first and
    /// the trie walked once, so the key is hashed once however many values
    /// it gets. Uniquely-owned nodes along the spine are edited directly,
    /// shared nodes are path-copied (other handles keep their version).
    ///
    /// # Examples
    ///
    /// ```
    /// use axiom::AxiomMultiMap;
    ///
    /// let mut mm = AxiomMultiMap::<&str, u32>::new().inserted("D", 4);
    /// assert_eq!(mm.replace_values_mut("D", [5, 6, 5]), 1); // 1:1 → 1:n
    /// assert_eq!(mm.value_count(&"D"), 2);
    /// assert_eq!(mm.replace_values_mut("D", []), -2); // the key goes
    /// assert!(mm.is_empty());
    /// ```
    pub fn replace_values_mut(&mut self, key: K, values: impl IntoIterator<Item = V>) -> isize {
        match Binding::of_values(values) {
            Some(binding) => self.put_binding_mut(key, binding),
            None => -(self.remove_key_mut(&key) as isize),
        }
    }

    /// The values bound to `key` as an owned [`AxiomSet`] (`None` if the
    /// key is absent). A binding stored as a nested set comes back as an
    /// `O(1)` clone sharing its trie; an inlined singleton (or a fused
    /// inline bag) is built into a set.
    ///
    /// # Examples
    ///
    /// ```
    /// use axiom::AxiomMultiMap;
    ///
    /// let mm = AxiomMultiMap::<&str, u32>::new().inserted("D", 4).inserted("D", 5);
    /// let both = mm.value_set(&"D").unwrap();
    /// assert_eq!(both.len(), 2);
    /// assert!(mm.value_set(&"E").is_none());
    /// ```
    pub fn value_set(&self, key: &K) -> Option<AxiomSet<V>> {
        self.get(key).map(|binding| match binding {
            BindingRef::One(v) => AxiomSet::singleton(v.clone()),
            BindingRef::Many(bag) => bag.to_set(),
        })
    }

    /// Binds `key` to exactly the values of `set` in place, replacing
    /// whatever it was bound to, and returns the tuple-count delta. An empty
    /// `set` removes the key; a one-element set is inlined as a `1:1`
    /// tuple.
    ///
    /// The trie is walked once, hashing the key once and no value: a nested
    /// set is stored as it is (a fused bag takes it as its overflow trie or
    /// copies its few values inline), so it keeps sharing nodes with the
    /// caller's copy and with whatever other key it came from.
    ///
    /// # Examples
    ///
    /// ```
    /// use axiom::AxiomMultiMap;
    ///
    /// let mut mm = AxiomMultiMap::<&str, u32>::new().inserted("A", 1).inserted("A", 2);
    /// let mut set = mm.value_set(&"A").unwrap();
    /// set.insert_mut(3);
    /// assert_eq!(mm.put_value_set_mut("B", set), 3); // "A" keeps {1, 2}
    /// assert_eq!(mm.tuple_count(), 5);
    /// ```
    pub fn put_value_set_mut(&mut self, key: K, set: AxiomSet<V>) -> isize {
        let binding = match set.len() {
            0 => return -(self.remove_key_mut(&key) as isize),
            1 => Binding::One(set.sole().clone()),
            _ => Binding::Many(B::of_set(set)),
        };
        self.put_binding_mut(key, binding)
    }

    /// Binds `key` to `binding` in one walk; returns the tuple-count delta.
    fn put_binding_mut(&mut self, key: K, binding: Binding<V, B>) -> isize {
        let new = binding.len();
        let hash = hash32(&key);
        let old = match put_in_place(&mut self.root, hash, 0, key, binding) {
            Some(old) => old,
            None => {
                self.keys += 1;
                0
            }
        };
        self.tuples = self.tuples + new - old;
        new as isize - old as isize
    }

    /// Returns a multi-map without the tuple `(key, value)`; `self` is
    /// unchanged.
    pub fn tuple_removed(&self, key: &K, value: &V) -> Self {
        let mut next = self.clone();
        next.remove_tuple_mut(key, value);
        next
    }

    /// Removes the tuple `(key, value)` in place (editing uniquely-owned
    /// nodes, path-copying shared ones). Returns true if present.
    pub fn remove_tuple_mut(&mut self, key: &K, value: &V) -> bool {
        let outcome = remove_in_place(&mut self.root, hash32(key), 0, key, Some(value));
        self.apply_removal(outcome).is_some()
    }

    /// Returns a multi-map without any tuple for `key`; `self` is unchanged.
    pub fn key_removed(&self, key: &K) -> Self {
        let mut next = self.clone();
        next.remove_key_mut(key);
        next
    }

    /// Removes every tuple for `key` in place (editing uniquely-owned nodes,
    /// path-copying shared ones). Returns the number of tuples removed.
    pub fn remove_key_mut(&mut self, key: &K) -> usize {
        let outcome = remove_in_place(&mut self.root, hash32(key), 0, key, None);
        self.apply_removal(outcome)
            .map_or(0, |removal| removal.tuples)
    }

    /// Books a removal walk's outcome into the counts, rebuilding the root
    /// when the trie collapsed to one binding. `None` if nothing went.
    fn apply_removal(&mut self, outcome: EditRemoved<K, V, B>) -> Option<Removal> {
        let removal = match outcome {
            EditRemoved::NotFound => return None,
            EditRemoved::Removed(removal) => removal,
            EditRemoved::Single {
                key,
                binding,
                removal,
            } => {
                let bitmap = SlotBitmap::EMPTY.with(mask(hash32(&key), 0), binding.category());
                self.root = node_of(bitmap, key, binding);
                removal
            }
        };
        self.tuples -= removal.tuples;
        if removal.key_gone {
            self.keys -= 1;
        }
        Some(removal)
    }

    /// Iterates all `(key, value)` tuples — the paper's flattened
    /// *Iteration (Entry)* sequence — in unspecified order.
    pub fn iter(&self) -> Tuples<'_, K, V, B> {
        Tuples::new(&self.root, self.tuples)
    }

    /// Iterates distinct keys — the paper's *Iteration (Key)* — in
    /// unspecified order.
    pub fn keys(&self) -> Keys<'_, K, V, B> {
        Keys {
            stack: vec![Cursor::of(&self.root)],
            remaining: self.keys,
        }
    }

    /// Iterates `(key, values-view)` groups in unspecified order.
    pub fn entries(&self) -> Entries<'_, K, V, B> {
        Entries {
            stack: vec![Cursor::of(&self.root)],
            remaining: self.keys,
        }
    }

    /// Iterates the values bound to `key` (nothing if the key is absent).
    pub fn values_of(&self, key: &K) -> ValuesOf<'_, V> {
        ValuesOf {
            inner: self.get(key).map(|binding| binding.iter()),
        }
    }

    /// The tuple-level delta from `self` (old) to `other` (new), computed by
    /// a lockstep structural walk that skips pointer-identical sub-tries.
    ///
    /// For operands derived from a common ancestor by k tuple edits the walk
    /// touches O(k · depth) nodes, independent of relation size. Bindings
    /// compare at tuple granularity: a key promoted from `1:1` to `1:n` (or
    /// demoted back) contributes only the values that actually differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use axiom::AxiomMultiMap;
    ///
    /// let old = AxiomMultiMap::<&str, u32>::new().inserted("D", 4);
    /// let new = old.inserted("D", 5); // promotes "D" to 1:n
    /// let d = old.diff(&new);
    /// assert_eq!(d.added, vec![("D", 5)]);
    /// assert!(d.removed.is_empty());
    /// ```
    pub fn diff(&self, other: &Self) -> trie_common::ops::MultiMapDiff<K, V> {
        let mut out = trie_common::ops::MultiMapDiff::new();
        if Node::ptr_eq(&self.root, &other.root) {
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

    /// Tuples in `self` or `other`.
    ///
    /// Two regimes: a much smaller `other` is folded in tuple by tuple
    /// (O(|other|) probes); similar-sized operands typically share structure
    /// from a common ancestor, so they route through the structural
    /// [`AxiomMultiMap::diff`] and cost O(changed).
    pub fn union(&self, other: &Self) -> Self {
        if Node::ptr_eq(&self.root, &other.root) || other.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        let mut out = self.clone();
        if other.tuples * 8 < self.tuples {
            for (k, v) in other.iter() {
                out.insert_mut(k.clone(), v.clone());
            }
        } else {
            for (k, v) in self.diff(other).added {
                out.insert_mut(k, v);
            }
        }
        out
    }

    pub(crate) fn root_node(&self) -> &Node<K, V, B> {
        &self.root
    }

    /// The root node's content histogram: branch counts per category
    /// (`[EMPTY, CAT1, CAT2, NODE]`, paper §3.3) — introspection for
    /// analyzing how a relation's skew maps onto the encoding.
    ///
    /// Always `Some`: the root sits above the last hash level, so it is a
    /// bitmap node even when every key shares one 32-bit hash.
    ///
    /// # Examples
    ///
    /// ```
    /// use axiom::AxiomMultiMap;
    ///
    /// let mm = AxiomMultiMap::<u32, u32>::new().inserted(1, 10).inserted(1, 11);
    /// let hist = mm.root_histogram().unwrap();
    /// assert_eq!(hist[2], 1); // one 1:n branch (CAT2)
    /// assert_eq!(hist[0], 31); // the rest empty
    /// ```
    pub fn root_histogram(&self) -> Option<[u32; 4]> {
        Some(self.root.word().histogram())
    }

    /// Recursively checks the canonical-form invariants (test support).
    ///
    /// # Panics
    ///
    /// Panics if any structural invariant is violated.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        let (keys, tuples) = validate(&self.root, 0);
        assert_eq!(keys, self.keys, "key bookkeeping");
        assert_eq!(tuples, self.tuples, "tuple bookkeeping");
    }
}

/// Validates canonical form; returns `(keys, tuples)` below `node`.
fn validate<K, V, B>(node: &Node<K, V, B>, shift: u32) -> (usize, usize)
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    for many in node.manys() {
        many.bag().assert_invariants();
        assert!(many.bag().len() >= 2, "CAT2 bag with < 2 values");
    }
    let mut keys = node.ones().len() + node.manys().len();
    let mut tuples = node.ones().len()
        + node
            .manys()
            .iter()
            .map(|many| many.bag().len())
            .sum::<usize>();
    if hash_exhausted(shift) {
        assert!(node.children().is_empty(), "collision node with children");
        assert!(keys >= 2, "collision node with < 2 keys");
        let hash = hash32(entries(node).next().expect("keys >= 2").0);
        let all: Vec<&K> = entries(node).map(|(k, _)| k).collect();
        for (i, k) in all.iter().enumerate() {
            assert_eq!(hash32(*k), hash, "collision member hash");
            assert!(!all[i + 1..].contains(k), "duplicate key in collision node");
        }
        return (keys, tuples);
    }
    let bitmap = node.word();
    assert_eq!(
        node.ones().len(),
        bitmap.count(Category::Cat1),
        "CAT1 count"
    );
    assert_eq!(
        node.manys().len(),
        bitmap.count(Category::Cat2),
        "CAT2 count"
    );
    assert_eq!(node.children().len(), bitmap.node_arity(), "child count");
    for ((k, _), m) in node.ones().iter().zip(bitmap.masks_of(Category::Cat1)) {
        assert_eq!(mask(hash32(k), shift), m, "CAT1 key in wrong branch");
    }
    for (many, m) in node.manys().iter().zip(bitmap.masks_of(Category::Cat2)) {
        assert_eq!(
            mask(hash32(many.key()), shift),
            m,
            "CAT2 key in wrong branch"
        );
    }
    for child in node.children() {
        let (k, t) = validate(child, next_shift(shift));
        assert!(k >= 2, "sub-trie with < 2 keys not inlined");
        keys += k;
        tuples += t;
    }
    if shift > 0 {
        assert!(
            !(bitmap.payload_arity() == 1 && bitmap.node_arity() == 0),
            "non-root singleton payload node must be inlined"
        );
    }
    (keys, tuples)
}

impl<K, V, B> Default for AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    fn default() -> Self {
        AxiomMultiMap::new()
    }
}

impl<K, V, B> PartialEq for AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    fn eq(&self, other: &Self) -> bool {
        self.tuples == other.tuples
            && self.keys == other.keys
            && node_eq(&self.root, &other.root, 0)
    }
}

impl<K, V, B> Eq for AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
}

fn node_eq<K, V, B>(a: &Node<K, V, B>, b: &Node<K, V, B>, shift: u32) -> bool
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    if hash_exhausted(shift) {
        let same = |(k, x): (&K, BindingRef<'_, V>), (k2, y): (&K, BindingRef<'_, V>)| {
            k == k2
                && match (x, y) {
                    (BindingRef::One(v), BindingRef::One(w)) => v == w,
                    (BindingRef::Many(p), BindingRef::Many(q)) => p == q,
                    _ => false,
                }
        };
        return a.arity() == b.arity() && entries(a).all(|x| entries(b).any(|y| same(x, y)));
    }
    a.word() == b.word()
        && a.ones() == b.ones()
        && a.manys() == b.manys()
        && a.children()
            .iter()
            .zip(b.children())
            .all(|(c, d)| Node::ptr_eq(c, d) || node_eq(c, d, next_shift(shift)))
}

impl<K, V, B> std::fmt::Debug for AxiomMultiMap<K, V, B>
where
    K: std::fmt::Debug + Clone + Eq + Hash,
    V: std::fmt::Debug + Clone + Eq + Hash,
    B: ValueBag<V>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<K, V, B> FromIterator<(K, V)> for AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        trie_common::ops::from_iter_via(iter)
    }
}

impl<K, V, B> Extend<(K, V)> for AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        trie_common::ops::extend_via(self, iter);
    }
}

impl<'a, K, V, B> IntoIterator for &'a AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    type Item = (&'a K, &'a V);
    type IntoIter = Tuples<'a, K, V, B>;
    fn into_iter(self) -> Tuples<'a, K, V, B> {
        self.iter()
    }
}

/// Depth-first cursor into one node's three slot groups.
struct Cursor<'a, K, V, B: BagSlot<V>> {
    ones: std::slice::Iter<'a, (K, V)>,
    manys: std::slice::Iter<'a, Cat2<K, V, B>>,
    children: std::slice::Iter<'a, Node<K, V, B>>,
}

/// One key's payload, as a depth-first walk meets it.
enum Payload<'a, K, V, B: BagSlot<V>> {
    One(&'a K, &'a V),
    Many(&'a Cat2<K, V, B>),
}

impl<'a, K, V, B: ValueBag<V>> Cursor<'a, K, V, B> {
    fn of(node: &'a Node<K, V, B>) -> Self {
        Cursor {
            ones: node.ones().iter(),
            manys: node.manys().iter(),
            children: node.children().iter(),
        }
    }

    /// The next payload below the top of `stack`, depth first.
    fn next(stack: &mut Vec<Self>) -> Option<Payload<'a, K, V, B>> {
        loop {
            let top = stack.last_mut()?;
            if let Some((k, v)) = top.ones.next() {
                return Some(Payload::One(k, v));
            }
            if let Some(many) = top.manys.next() {
                return Some(Payload::Many(many));
            }
            match top.children.next() {
                Some(child) => stack.push(Cursor::of(child)),
                None => {
                    stack.pop();
                }
            }
        }
    }
}

/// Iterator over all `(key, value)` tuples. Created by
/// [`AxiomMultiMap::iter`].
pub struct Tuples<'a, K, V: 'a, B: ValueBag<V> + 'a> {
    stack: Vec<Cursor<'a, K, V, B>>,
    current: Option<(&'a K, BagIter<'a, V>)>,
    remaining: usize,
}

impl<'a, K, V, B: ValueBag<V>> Tuples<'a, K, V, B> {
    fn new(root: &'a Node<K, V, B>, tuples: usize) -> Self {
        Tuples {
            stack: vec![Cursor::of(root)],
            current: None,
            remaining: tuples,
        }
    }
}

impl<'a, K, V, B> Iterator for Tuples<'a, K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        loop {
            if let Some((k, it)) = &mut self.current {
                if let Some(v) = it.next() {
                    self.remaining -= 1;
                    return Some((k, v));
                }
                self.current = None;
            }
            match Cursor::next(&mut self.stack)? {
                Payload::One(k, v) => {
                    self.remaining -= 1;
                    return Some((k, v));
                }
                Payload::Many(many) => self.current = Some((many.key(), many.bag().iter())),
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<'a, K, V, B> ExactSizeIterator for Tuples<'a, K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
}

impl<'a, K, V, B: ValueBag<V>> std::fmt::Debug for Tuples<'a, K, V, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tuples")
            .field("remaining", &self.remaining)
            .finish()
    }
}

/// Iterator over distinct keys. Created by [`AxiomMultiMap::keys`].
pub struct Keys<'a, K, V, B: BagSlot<V>> {
    stack: Vec<Cursor<'a, K, V, B>>,
    remaining: usize,
}

impl<'a, K, V, B: ValueBag<V>> Iterator for Keys<'a, K, V, B> {
    type Item = &'a K;

    fn next(&mut self) -> Option<&'a K> {
        let k = match Cursor::next(&mut self.stack)? {
            Payload::One(k, _) => k,
            Payload::Many(many) => many.key(),
        };
        self.remaining -= 1;
        Some(k)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<'a, K, V, B: ValueBag<V>> ExactSizeIterator for Keys<'a, K, V, B> {}

impl<'a, K, V, B: BagSlot<V>> std::fmt::Debug for Keys<'a, K, V, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Keys")
            .field("remaining", &self.remaining)
            .finish()
    }
}

/// Iterator over `(key, values-view)` groups. Created by
/// [`AxiomMultiMap::entries`].
pub struct Entries<'a, K, V, B: BagSlot<V>> {
    stack: Vec<Cursor<'a, K, V, B>>,
    remaining: usize,
}

impl<'a, K, V, B> Iterator for Entries<'a, K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    type Item = (&'a K, BindingRef<'a, V>);

    fn next(&mut self) -> Option<Self::Item> {
        let entry = match Cursor::next(&mut self.stack)? {
            Payload::One(k, v) => (k, BindingRef::One(v)),
            Payload::Many(many) => (many.key(), BindingRef::Many(many.bag())),
        };
        self.remaining -= 1;
        Some(entry)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<'a, K, V, B> ExactSizeIterator for Entries<'a, K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
}

impl<'a, K, V, B: BagSlot<V>> std::fmt::Debug for Entries<'a, K, V, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entries")
            .field("remaining", &self.remaining)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag::FusedBag;
    use std::collections::{BTreeSet, HashMap};
    use std::hash::Hasher;

    type Mm = AxiomMultiMap<u32, u32>;
    type FusedMm = AxiomMultiMap<u32, u32, FusedBag<u32>>;

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
    fn empty_multimap_basics() {
        let mm = Mm::new();
        assert!(mm.is_empty());
        assert_eq!(mm.tuple_count(), 0);
        assert_eq!(mm.key_count(), 0);
        assert!(!mm.contains_key(&1));
        assert!(!mm.contains_tuple(&1, &2));
        mm.assert_invariants();
    }

    #[test]
    fn paper_figure_3_construction_sequence() {
        // Figure 3: A↦1, B↦2, then C↦3, then D↦4, E↦5, then D↦-4, F↦6.
        // We use the tuple/key counts and promotion behaviour it illustrates.
        let mm = AxiomMultiMap::<&str, i32>::new()
            .inserted("A", 1)
            .inserted("B", 2)
            .inserted("C", 3)
            .inserted("D", 4)
            .inserted("E", 5)
            .inserted("D", -4) // promotes D to a 1:n mapping
            .inserted("F", 6);
        assert_eq!(mm.key_count(), 6);
        assert_eq!(mm.tuple_count(), 7);
        assert_eq!(mm.value_count(&"D"), 2);
        assert!(mm.contains_tuple(&"D", &4));
        assert!(mm.contains_tuple(&"D", &-4));
        assert_eq!(mm.value_count(&"A"), 1);
        mm.assert_invariants();
    }

    #[test]
    fn promotion_and_demotion_roundtrip() {
        let mm = Mm::new().inserted(1, 10).inserted(1, 20);
        assert!(matches!(mm.get(&1), Some(BindingRef::Many(_))));
        let mm2 = mm.tuple_removed(&1, &10);
        assert!(matches!(mm2.get(&1), Some(BindingRef::One(&20))));
        assert_eq!(mm2.tuple_count(), 1);
        assert_eq!(mm2.key_count(), 1);
        let mm3 = mm2.tuple_removed(&1, &20);
        assert!(mm3.is_empty());
        assert_eq!(mm3.key_count(), 0);
        // Original chain is untouched.
        assert_eq!(mm.tuple_count(), 2);
        mm.assert_invariants();
        mm2.assert_invariants();
        mm3.assert_invariants();
    }

    #[test]
    fn duplicate_tuple_insert_is_noop() {
        let mm = Mm::new().inserted(1, 10).inserted(1, 10);
        assert_eq!(mm.tuple_count(), 1);
        let mm2 = mm.inserted(1, 20).inserted(1, 20);
        assert_eq!(mm2.tuple_count(), 2);
    }

    #[test]
    fn skewed_distribution_bulk() {
        // 50% 1:1, 50% 1:2 — the paper's microbenchmark shape.
        let mut mm = Mm::new();
        for k in 0..1000u32 {
            mm.insert_mut(k, k * 10);
            if k % 2 == 0 {
                mm.insert_mut(k, k * 10 + 1);
            }
        }
        assert_eq!(mm.key_count(), 1000);
        assert_eq!(mm.tuple_count(), 1500);
        for k in 0..1000u32 {
            assert!(mm.contains_tuple(&k, &(k * 10)));
            assert_eq!(mm.value_count(&k), if k % 2 == 0 { 2 } else { 1 });
        }
        mm.assert_invariants();
    }

    #[test]
    fn remove_key_drops_all_values() {
        let mut mm = Mm::new();
        for v in 0..10 {
            mm.insert_mut(7, v);
        }
        mm.insert_mut(8, 0);
        assert_eq!(mm.tuple_count(), 11);
        let removed = mm.remove_key_mut(&7);
        assert_eq!(removed, 10);
        assert_eq!(mm.tuple_count(), 1);
        assert_eq!(mm.key_count(), 1);
        assert!(!mm.contains_key(&7));
        mm.assert_invariants();
    }

    #[test]
    fn model_based_random_ops() {
        let mut model: HashMap<u32, BTreeSet<u32>> = HashMap::new();
        let mut mm = Mm::new();
        let mut state = 0xdeadbeefu64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for step in 0..6000 {
            let op = next() % 5;
            let key = next() % 120;
            let value = next() % 8;
            match op {
                0..=2 => {
                    let grew = model.entry(key).or_default().insert(value);
                    assert_eq!(mm.insert_mut(key, value), grew, "step {step}");
                }
                3 => {
                    let had = model.get_mut(&key).is_some_and(|s| s.remove(&value));
                    if let Some(s) = model.get(&key) {
                        if s.is_empty() {
                            model.remove(&key);
                        }
                    }
                    assert_eq!(mm.remove_tuple_mut(&key, &value), had, "step {step}");
                }
                _ => {
                    let removed = model.remove(&key).map_or(0, |s| s.len());
                    assert_eq!(mm.remove_key_mut(&key), removed, "step {step}");
                }
            }
            let tuples: usize = model.values().map(|s| s.len()).sum();
            assert_eq!(mm.tuple_count(), tuples);
            assert_eq!(mm.key_count(), model.len());
        }
        mm.assert_invariants();
        for (k, vs) in &model {
            assert_eq!(mm.value_count(k), vs.len());
            for v in vs {
                assert!(mm.contains_tuple(k, v));
            }
        }
        // Iteration agrees with the model.
        let mut seen: HashMap<u32, BTreeSet<u32>> = HashMap::new();
        for (k, v) in mm.iter() {
            assert!(seen.entry(*k).or_default().insert(*v), "dup tuple in iter");
        }
        assert_eq!(seen, model);
    }

    #[test]
    fn fused_multimap_agrees_with_nested() {
        let mut nested = Mm::new();
        let mut fused = FusedMm::new();
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            (state >> 35) as u32
        };
        for _ in 0..3000 {
            let op = next() % 4;
            let key = next() % 60;
            let value = next() % 12;
            match op {
                0 | 1 => {
                    assert_eq!(nested.insert_mut(key, value), fused.insert_mut(key, value));
                }
                2 => {
                    assert_eq!(
                        nested.remove_tuple_mut(&key, &value),
                        fused.remove_tuple_mut(&key, &value)
                    );
                }
                _ => {
                    assert_eq!(nested.remove_key_mut(&key), fused.remove_key_mut(&key));
                }
            }
            assert_eq!(nested.tuple_count(), fused.tuple_count());
            assert_eq!(nested.key_count(), fused.key_count());
        }
        nested.assert_invariants();
        fused.assert_invariants();
        let a: BTreeSet<(u32, u32)> = nested.iter().map(|(k, v)| (*k, *v)).collect();
        let b: BTreeSet<(u32, u32)> = fused.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn collision_keys_with_multivalues() {
        let mut mm: AxiomMultiMap<Collide, u32> = AxiomMultiMap::new();
        for id in 0..6 {
            let k = Collide { bucket: 11, id };
            mm.insert_mut(k.clone(), 0);
            mm.insert_mut(k, 1);
        }
        assert_eq!(mm.key_count(), 6);
        assert_eq!(mm.tuple_count(), 12);
        mm.assert_invariants();
        for id in 0..6 {
            let k = Collide { bucket: 11, id };
            assert_eq!(mm.value_count(&k), 2);
            assert!(mm.remove_tuple_mut(&k, &0));
            mm.assert_invariants();
        }
        assert_eq!(mm.tuple_count(), 6);
        for id in 0..5 {
            assert_eq!(mm.remove_key_mut(&Collide { bucket: 11, id }), 1);
            mm.assert_invariants();
        }
        assert_eq!(mm.key_count(), 1);
    }

    #[test]
    fn iteration_counts() {
        let mut mm = Mm::new();
        for k in 0..200u32 {
            mm.insert_mut(k, 0);
            if k % 2 == 0 {
                mm.insert_mut(k, 1);
            }
        }
        assert_eq!(mm.iter().count(), 300);
        assert_eq!(mm.keys().count(), 200);
        assert_eq!(mm.entries().count(), 200);
        assert_eq!(mm.iter().len(), 300);
        let grouped_tuples: usize = mm.entries().map(|(_, b)| b.len()).sum();
        assert_eq!(grouped_tuples, 300);
    }

    #[test]
    fn equality_and_order_independence() {
        let a: Mm = (0..100u32).flat_map(|k| [(k, 0), (k, 1)]).collect();
        let b: Mm = (0..100u32).rev().flat_map(|k| [(k, 1), (k, 0)]).collect();
        assert_eq!(a, b);
        assert_ne!(a, b.inserted(5, 9));
        assert_ne!(a, b.tuple_removed(&5, &0));
    }

    #[test]
    fn persistence_of_versions() {
        let v0: Mm = (0..500u32).map(|k| (k % 100, k)).collect();
        let v1 = v0.inserted(1000, 1);
        let v2 = v0.key_removed(&50);
        assert_eq!(v0.key_count(), 100);
        assert_eq!(v1.key_count(), 101);
        assert_eq!(v2.key_count(), 99);
        assert!(v0.contains_key(&50));
        assert!(!v2.contains_key(&50));
        v0.assert_invariants();
        v1.assert_invariants();
        v2.assert_invariants();
    }

    #[test]
    fn get_views() {
        let mm = Mm::new().inserted(1, 10).inserted(2, 20).inserted(2, 21);
        match mm.get(&1) {
            Some(BindingRef::One(v)) => assert_eq!(*v, 10),
            _ => panic!("expected inlined singleton"),
        }
        match mm.get(&2) {
            Some(BindingRef::Many(bag)) => {
                let vs: BTreeSet<u32> = bag.iter().copied().collect();
                assert_eq!(vs, BTreeSet::from([20, 21]));
            }
            _ => panic!("expected nested bag"),
        }
        assert!(mm.get(&3).is_none());
        let view = mm.get(&2).unwrap();
        assert_eq!(view.len(), 2);
        assert!(view.contains(&21));
        assert_eq!(view.iter().count(), 2);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Mm>();
        assert_send_sync::<FusedMm>();
    }
}
