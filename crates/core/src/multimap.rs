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
use std::sync::Arc;

use trie_common::bits::{hash_exhausted, mask, next_shift};
use trie_common::hash::hash32;

use crate::bag::{BagEdited, ValueBag};
use crate::bitmap::{Category, SlotBitmap};
use crate::set::AxiomSet;
use crate::slots::{
    edit_child, insert_slot, inserted_at_owned, migrate_map, remove_slot, survivor, CowNode,
};

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

    fn category(&self) -> Category {
        match self {
            Binding::One(_) => Category::Cat1,
            Binding::Many(_) => Category::Cat2,
        }
    }

    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Binding::One(a), Binding::One(b)) => a == b,
            (Binding::Many(a), Binding::Many(b)) => a == b,
            _ => false,
        }
    }
}

/// One physical slot of a multi-map node.
#[derive(Debug, Clone)]
pub(crate) enum Slot<K, V, B> {
    /// `CAT1`: inlined `1:1` tuple.
    One(K, V),
    /// `CAT2`: key plus nested bag of ≥ 2 values.
    Many(K, B),
    /// `NODE`: shared sub-trie.
    Child(Arc<Node<K, V, B>>),
}

/// A compressed trie node: bitmap plus dense, permuted slots
/// (`[1:1 tuples… | 1:n tuples… | children…]`, each group ascending by mask).
#[derive(Debug, Clone)]
pub(crate) struct BitmapNode<K, V, B> {
    pub(crate) bitmap: SlotBitmap,
    pub(crate) slots: Box<[Slot<K, V, B>]>,
}

/// Hash-collision overflow node.
#[derive(Debug, Clone)]
pub(crate) struct CollisionNode<K, V, B> {
    pub(crate) hash: u32,
    pub(crate) entries: Vec<(K, Binding<V, B>)>,
}

/// A trie node.
#[derive(Debug, Clone)]
pub(crate) enum Node<K, V, B> {
    Bitmap(BitmapNode<K, V, B>),
    Collision(CollisionNode<K, V, B>),
}

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
    /// unique node is left consumed for the parent to drop).
    Single {
        key: K,
        binding: Binding<V, B>,
        removal: Removal,
    },
}

impl<K, V, B> Node<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    fn empty() -> Node<K, V, B> {
        Node::Bitmap(BitmapNode {
            bitmap: SlotBitmap::EMPTY,
            slots: Box::new([]),
        })
    }

    fn slot_of(key: K, binding: Binding<V, B>) -> Slot<K, V, B> {
        match binding {
            Binding::One(v) => Slot::One(key, v),
            Binding::Many(bag) => Slot::Many(key, bag),
        }
    }

    /// The key and binding of a payload slot (inverse of [`Node::slot_of`]).
    fn binding_of(slot: Slot<K, V, B>) -> (K, Binding<V, B>) {
        match slot {
            Slot::One(k, v) => (k, Binding::One(v)),
            Slot::Many(k, bag) => (k, Binding::Many(bag)),
            Slot::Child(_) => unreachable!("bitmap says payload"),
        }
    }

    /// Builds the minimal sub-trie holding two distinct keys' bindings whose
    /// hash prefixes agree up to `shift`.
    fn pair(
        h1: u32,
        k1: K,
        b1: Binding<V, B>,
        h2: u32,
        k2: K,
        b2: Binding<V, B>,
        shift: u32,
    ) -> Node<K, V, B> {
        if hash_exhausted(shift) {
            debug_assert_eq!(h1, h2);
            return Node::Collision(CollisionNode {
                hash: h1,
                entries: vec![(k1, b1), (k2, b2)],
            });
        }
        let m1 = mask(h1, shift);
        let m2 = mask(h2, shift);
        if m1 == m2 {
            let child = Node::pair(h1, k1, b1, h2, k2, b2, next_shift(shift));
            Node::Bitmap(BitmapNode {
                bitmap: SlotBitmap::EMPTY.with(m1, Category::Node),
                slots: Box::new([Slot::Child(Arc::new(child))]),
            })
        } else {
            let c1 = b1.category();
            let c2 = b2.category();
            let bitmap = SlotBitmap::EMPTY.with(m1, c1).with(m2, c2);
            let i1 = bitmap.slot_index(c1, m1);
            let s1 = Node::slot_of(k1, b1);
            let s2 = Node::slot_of(k2, b2);
            let slots: Box<[Slot<K, V, B>]> = if i1 == 0 {
                Box::new([s1, s2])
            } else {
                Box::new([s2, s1])
            };
            Node::Bitmap(BitmapNode { bitmap, slots })
        }
    }

    fn get(&self, hash: u32, shift: u32, key: &K) -> Option<BindingRef<'_, V, B>> {
        match self {
            Node::Collision(c) => c
                .entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, b)| BindingRef::of(b)),
            Node::Bitmap(b) => {
                // Fused dispatch: category and slot index from one pass.
                match b.bitmap.locate(mask(hash, shift)) {
                    (Category::Empty, _) => None,
                    (Category::Cat1, idx) => match &b.slots[idx] {
                        Slot::One(k, v) if k == key => Some(BindingRef::One(v)),
                        Slot::One(..) => None,
                        _ => unreachable!("bitmap says CAT1"),
                    },
                    (Category::Cat2, idx) => match &b.slots[idx] {
                        Slot::Many(k, bag) if k == key => Some(BindingRef::Many(bag)),
                        Slot::Many(..) => None,
                        _ => unreachable!("bitmap says CAT2"),
                    },
                    (Category::Node, idx) => match &b.slots[idx] {
                        Slot::Child(child) => child.get(hash, next_shift(shift), key),
                        _ => unreachable!("bitmap says NODE"),
                    },
                }
            }
        }
    }

    /// Inserts `(key, value)` below `this`, editing unique nodes in place
    /// (`CAT2` bags through [`ValueBag::insert_mut`]) and copying shared
    /// ones on write (see [`crate::slots`]). Takes the tuple by ownership so
    /// the common paths are clone-free.
    fn insert_in_place(
        this: &mut Arc<Node<K, V, B>>,
        hash: u32,
        shift: u32,
        key: K,
        value: V,
    ) -> EditInserted {
        let b = match &**this {
            Node::Collision(c) => {
                debug_assert_eq!(c.hash, hash);
                let pos = c.entries.iter().position(|(k, _)| *k == key);
                if pos.is_some_and(|pos| BindingRef::of(&c.entries[pos].1).contains(&value)) {
                    return EditInserted::Unchanged;
                }
                let Node::Collision(c) = Arc::make_mut(this) else {
                    unreachable!("matched a collision node")
                };
                let Some(pos) = pos else {
                    c.entries.push((key, Binding::One(value)));
                    return EditInserted::NewKey;
                };
                // Move the entry out (capacity is preserved, so the push
                // below cannot reallocate), grow it, put it back.
                let (k, binding) = c.entries.swap_remove(pos);
                let binding = match binding {
                    Binding::One(v) => Binding::Many(B::from_two(v, value)),
                    Binding::Many(mut bag) => {
                        bag.insert_mut(value);
                        Binding::Many(bag)
                    }
                };
                c.entries.push((k, binding));
                return EditInserted::NewTuple;
            }
            Node::Bitmap(b) => b,
        };
        let m = mask(hash, shift);
        let (cat, idx) = b.bitmap.locate(m);
        let (ek, existing) = match cat {
            Category::Empty => {
                let bitmap = b.bitmap.with(m, Category::Cat1);
                let idx = bitmap.slot_index(Category::Cat1, m);
                insert_slot(this, bitmap, idx, Slot::One(key, value));
                return EditInserted::NewKey;
            }
            Category::Node => {
                return edit_child(
                    this,
                    idx,
                    |child| Node::insert_in_place(child, hash, next_shift(shift), key, value),
                    |outcome| !matches!(outcome, EditInserted::Unchanged),
                );
            }
            Category::Cat1 | Category::Cat2 => match &b.slots[idx] {
                Slot::One(k, v) => (k, BindingRef::One(v)),
                Slot::Many(k, bag) => (k, BindingRef::Many(bag)),
                Slot::Child(_) => unreachable!("bitmap says payload"),
            },
        };
        if *ek != key {
            // Prefix clash with a different key: both bindings descend; the
            // slot becomes NODE.
            let existing_hash = hash32(ek);
            let BitmapNode { bitmap, slots } = Arc::make_mut(this).bitmap_node_mut();
            *bitmap = bitmap.with(m, Category::Node);
            let to = bitmap.slot_index(Category::Node, m);
            migrate_map(slots, idx, to, |slot| {
                let (k, existing) = Node::binding_of(slot);
                Slot::Child(Arc::new(Node::pair(
                    existing_hash,
                    k,
                    existing,
                    hash,
                    key,
                    Binding::One(value),
                    next_shift(shift),
                )))
            });
            return EditInserted::NewKey;
        }
        match existing {
            BindingRef::One(v) => {
                if *v == value {
                    return EditInserted::Unchanged;
                }
                // Promote 1:1 → 1:n: CAT1 → CAT2, the existing value moving
                // into the fresh bag.
                let BitmapNode { bitmap, slots } = Arc::make_mut(this).bitmap_node_mut();
                *bitmap = bitmap.with(m, Category::Cat2);
                let to = bitmap.slot_index(Category::Cat2, m);
                migrate_map(slots, idx, to, |slot| {
                    let Slot::One(k, v) = slot else {
                        unreachable!("bitmap says CAT1")
                    };
                    Slot::Many(k, B::from_two(v, value))
                });
                EditInserted::NewTuple
            }
            BindingRef::Many(bag) => {
                // A shared node is copied only for a value its bag lacks.
                if Arc::strong_count(this) > 1 && bag.contains(&value) {
                    return EditInserted::Unchanged;
                }
                let Slot::Many(_, bag) = &mut Arc::make_mut(this).bitmap_node_mut().slots[idx]
                else {
                    unreachable!("bitmap says CAT2")
                };
                if bag.insert_mut(value) {
                    EditInserted::NewTuple
                } else {
                    EditInserted::Unchanged
                }
            }
        }
    }

    /// In-place put: binds `key` to `binding`, replacing the key's previous
    /// binding, in one walk. Returns the previous binding's size (`None`
    /// for a new key). A shared node is copied first (`Arc::make_mut`), so
    /// other handles keep their version and only the spine down to the key
    /// is copied; a uniquely-owned node is edited where it stands. A put
    /// never removes a key, so no sub-trie collapses.
    fn put_in_place(
        this: &mut Arc<Node<K, V, B>>,
        hash: u32,
        shift: u32,
        key: K,
        binding: Binding<V, B>,
    ) -> Option<usize> {
        match Arc::make_mut(this) {
            Node::Collision(c) => {
                debug_assert_eq!(c.hash, hash);
                match c.entries.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, old)) => Some(std::mem::replace(old, binding).len()),
                    None => {
                        c.entries.push((key, binding));
                        None
                    }
                }
            }
            Node::Bitmap(b) => {
                let m = mask(hash, shift);
                let (cat, idx) = b.bitmap.locate(m);
                let to_cat = binding.category();
                let (ek, old_len) = match cat {
                    Category::Empty => {
                        b.bitmap = b.bitmap.with(m, to_cat);
                        let idx = b.bitmap.slot_index(to_cat, m);
                        b.slots = inserted_at_owned(
                            std::mem::take(&mut b.slots),
                            idx,
                            Node::slot_of(key, binding),
                        );
                        return None;
                    }
                    Category::Node => {
                        let Slot::Child(child) = &mut b.slots[idx] else {
                            unreachable!("bitmap says NODE")
                        };
                        return Node::put_in_place(child, hash, next_shift(shift), key, binding);
                    }
                    Category::Cat1 | Category::Cat2 => match &b.slots[idx] {
                        Slot::One(k, _) => (k, 1),
                        Slot::Many(k, bag) => (k, bag.len()),
                        Slot::Child(_) => unreachable!("bitmap says payload"),
                    },
                };
                if *ek == key {
                    if cat == to_cat {
                        b.slots[idx] = Node::slot_of(key, binding);
                    } else {
                        // CAT1 ↔ CAT2 in place: the slot migrates groups.
                        b.bitmap = b.bitmap.with(m, to_cat);
                        let to = b.bitmap.slot_index(to_cat, m);
                        migrate_map(&mut b.slots, idx, to, |_| Node::slot_of(key, binding));
                    }
                    return Some(old_len);
                }
                // Prefix clash: both bindings descend; the slot becomes NODE.
                let existing_hash = hash32(ek);
                b.bitmap = b.bitmap.with(m, Category::Node);
                let to = b.bitmap.slot_index(Category::Node, m);
                migrate_map(&mut b.slots, idx, to, |slot| {
                    let (k, existing) = match slot {
                        Slot::One(k, v) => (k, Binding::One(v)),
                        Slot::Many(k, bag) => (k, Binding::Many(bag)),
                        Slot::Child(_) => unreachable!("bitmap says payload"),
                    };
                    Slot::Child(Arc::new(Node::pair(
                        existing_hash,
                        k,
                        existing,
                        hash,
                        key,
                        binding,
                        next_shift(shift),
                    )))
                });
                None
            }
        }
    }

    /// Removes from `key`'s binding below `this` either one `value` (a
    /// tuple removal) or, for `None`, the whole binding (a key removal),
    /// with the same copy-on-write discipline as [`Node::insert_in_place`].
    /// Canonicalizes on the way up: a sub-trie left with one key hands its
    /// binding to the parent for inlining.
    fn remove_in_place(
        this: &mut Arc<Node<K, V, B>>,
        hash: u32,
        shift: u32,
        key: &K,
        value: Option<&V>,
    ) -> EditRemoved<K, V, B> {
        let b = match &**this {
            Node::Collision(c) => {
                let Some(pos) = c.entries.iter().position(|(k, _)| k == key) else {
                    return EditRemoved::NotFound;
                };
                let binding = &c.entries[pos].1;
                let removal = match value {
                    None => Removal {
                        tuples: binding.len(),
                        key_gone: true,
                    },
                    Some(v) if !BindingRef::of(binding).contains(v) => {
                        return EditRemoved::NotFound
                    }
                    Some(_) => Removal {
                        tuples: 1,
                        key_gone: binding.len() == 1,
                    },
                };
                let Node::Collision(c) = Arc::make_mut(this) else {
                    unreachable!("matched a collision node")
                };
                if let (Binding::Many(bag), Some(v)) = (&mut c.entries[pos].1, value) {
                    if let BagEdited::Single(survivor) = bag.remove_mut(v) {
                        c.entries[pos].1 = Binding::One(survivor);
                    }
                    return EditRemoved::Removed(removal);
                }
                c.entries.swap_remove(pos);
                if c.entries.len() == 1 {
                    let (key, binding) = c.entries.pop().expect("len == 1");
                    return EditRemoved::Single {
                        key,
                        binding,
                        removal,
                    };
                }
                return EditRemoved::Removed(removal);
            }
            Node::Bitmap(b) => b,
        };
        let m = mask(hash, shift);
        let (cat, idx) = b.bitmap.locate(m);
        let removal = match cat {
            Category::Empty => return EditRemoved::NotFound,
            Category::Node => {
                // A pure chain node dissolves when its child collapses.
                let chain =
                    shift > 0 && b.bitmap.payload_arity() == 0 && b.bitmap.node_arity() == 1;
                return match edit_child(
                    this,
                    idx,
                    |child| Node::remove_in_place(child, hash, next_shift(shift), key, value),
                    |outcome| matches!(outcome, EditRemoved::Removed(_)),
                ) {
                    EditRemoved::Single {
                        key,
                        binding,
                        removal,
                    } if !chain => {
                        // Inline the binding: NODE → CAT1/CAT2, dropping the
                        // collapsed child.
                        let cat = binding.category();
                        let BitmapNode { bitmap, slots } = Arc::make_mut(this).bitmap_node_mut();
                        *bitmap = bitmap.with(m, cat);
                        let to = bitmap.slot_index(cat, m);
                        migrate_map(slots, idx, to, |_child| Node::slot_of(key, binding));
                        EditRemoved::Removed(removal)
                    }
                    outcome => outcome,
                };
            }
            Category::Cat1 => match &b.slots[idx] {
                Slot::One(k, v) if k == key && value.is_none_or(|value| value == v) => Removal {
                    tuples: 1,
                    key_gone: true,
                },
                Slot::One(..) => return EditRemoved::NotFound,
                _ => unreachable!("bitmap says CAT1"),
            },
            Category::Cat2 => match (&b.slots[idx], value) {
                (Slot::Many(k, _), _) if k != key => return EditRemoved::NotFound,
                (Slot::Many(_, bag), None) => Removal {
                    tuples: bag.len(),
                    key_gone: true,
                },
                (Slot::Many(_, bag), Some(value)) => {
                    // A shared node is copied only for a value its bag holds.
                    if Arc::strong_count(this) > 1 && !bag.contains(value) {
                        return EditRemoved::NotFound;
                    }
                    let BitmapNode { bitmap, slots } = Arc::make_mut(this).bitmap_node_mut();
                    let Slot::Many(_, bag) = &mut slots[idx] else {
                        unreachable!("bitmap says CAT2")
                    };
                    let removal = Removal {
                        tuples: 1,
                        key_gone: false,
                    };
                    let survivor = match bag.remove_mut(value) {
                        BagEdited::NotFound => return EditRemoved::NotFound,
                        BagEdited::Shrunk => return EditRemoved::Removed(removal),
                        BagEdited::Single(survivor) => survivor,
                    };
                    // Demote 1:n → 1:1: CAT2 → CAT1, dropping the consumed bag.
                    *bitmap = bitmap.with(m, Category::Cat1);
                    let to = bitmap.slot_index(Category::Cat1, m);
                    migrate_map(slots, idx, to, |slot| {
                        let Slot::Many(k, _) = slot else {
                            unreachable!("bitmap says CAT2")
                        };
                        Slot::One(k, survivor)
                    });
                    return EditRemoved::Removed(removal);
                }
                _ => unreachable!("bitmap says CAT2"),
            },
        };
        // The whole payload slot goes.
        let bitmap = b.bitmap.with(m, Category::Empty);
        if shift > 0 && bitmap.payload_arity() == 1 && bitmap.node_arity() == 0 {
            // Exactly one payload slot survives: offer it for inlining.
            let (key, binding) = Node::binding_of(survivor(this, idx));
            return EditRemoved::Single {
                key,
                binding,
                removal,
            };
        }
        remove_slot(this, bitmap, idx);
        EditRemoved::Removed(removal)
    }
}

impl<K, V, B> Node<K, V, B> {
    /// The bitmap node, mutably.
    fn bitmap_node_mut(&mut self) -> &mut BitmapNode<K, V, B> {
        match self {
            Node::Bitmap(b) => b,
            Node::Collision(_) => unreachable!("only bitmap nodes have slots"),
        }
    }
}

impl<K: Clone, V: Clone, B: Clone> CowNode for Node<K, V, B> {
    type Bitmap = SlotBitmap;
    type Slot = Slot<K, V, B>;

    fn parts(&self) -> (SlotBitmap, &[Slot<K, V, B>]) {
        match self {
            Node::Bitmap(b) => (b.bitmap, &b.slots),
            Node::Collision(_) => unreachable!("only bitmap nodes have slots"),
        }
    }

    fn slots_mut(&mut self) -> &mut Box<[Slot<K, V, B>]> {
        &mut self.bitmap_node_mut().slots
    }

    fn of_parts(bitmap: SlotBitmap, slots: Box<[Slot<K, V, B>]>) -> Self {
        Node::Bitmap(BitmapNode { bitmap, slots })
    }

    fn child_mut(slot: &mut Slot<K, V, B>) -> &mut Arc<Self> {
        match slot {
            Slot::Child(child) => child,
            _ => unreachable!("bitmap says NODE"),
        }
    }
}

/// Borrowed view of one key's values. Returned by [`AxiomMultiMap::get`].
#[derive(Debug)]
pub enum BindingRef<'a, V, B> {
    /// The key maps to exactly one (inlined) value.
    One(&'a V),
    /// The key maps to a nested bag of ≥ 2 values.
    Many(&'a B),
}

impl<'a, V, B> Clone for BindingRef<'a, V, B> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'a, V, B> Copy for BindingRef<'a, V, B> {}

impl<'a, V: Clone + Eq + Hash, B: ValueBag<V>> BindingRef<'a, V, B> {
    fn of(binding: &'a Binding<V, B>) -> Self {
        match binding {
            Binding::One(v) => BindingRef::One(v),
            Binding::Many(bag) => BindingRef::Many(bag),
        }
    }

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
    pub fn iter(&self) -> BindingIter<'a, V, B> {
        match self {
            BindingRef::One(v) => BindingIter::One(std::iter::once(*v)),
            BindingRef::Many(bag) => BindingIter::Many(bag.iter()),
        }
    }
}

/// Iterator over one binding's values. Created by [`BindingRef::iter`].
pub enum BindingIter<'a, V: 'a, B: ValueBag<V> + 'a> {
    /// Singleton value.
    One(std::iter::Once<&'a V>),
    /// Nested bag.
    Many(B::Iter<'a>),
}

impl<'a, V, B: ValueBag<V>> Iterator for BindingIter<'a, V, B> {
    type Item = &'a V;
    fn next(&mut self) -> Option<&'a V> {
        match self {
            BindingIter::One(it) => it.next(),
            BindingIter::Many(it) => it.next(),
        }
    }
}

impl<'a, V, B: ValueBag<V>> std::fmt::Debug for BindingIter<'a, V, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BindingIter { .. }")
    }
}

/// Iterator over the values bound to one key; empty when the key is absent.
/// Created by [`AxiomMultiMap::values_of`].
pub struct ValuesOf<'a, V: 'a, B: ValueBag<V> + 'a> {
    inner: Option<BindingIter<'a, V, B>>,
}

impl<'a, V, B: ValueBag<V>> Iterator for ValuesOf<'a, V, B> {
    type Item = &'a V;
    fn next(&mut self) -> Option<&'a V> {
        self.inner.as_mut()?.next()
    }
}

impl<'a, V, B: ValueBag<V>> std::fmt::Debug for ValuesOf<'a, V, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ValuesOf { .. }")
    }
}

// ---------------------------------------------------------------------------
// Structural relation diff: a lockstep node walk.
// ---------------------------------------------------------------------------
//
// `diff_nodes` walks two multi-map tries in lockstep, comparing the branch
// under each 5-bit mask. Pointer-identical sub-tries (`Arc::ptr_eq`) are
// skipped wholesale — the sharing the AXIOM canonical form guarantees after
// persistent edits — so the walk is O(changed) for operands that share
// structure. Bindings compare at tuple granularity: a `CAT1`×`CAT2` pair at
// the same mask (a promoted or demoted key) contributes only the values that
// actually differ, and `CAT2`×`CAT2` pairs diff their bags value by value.

/// What one multi-map node holds under a 5-bit mask.
enum AtM<'a, K, V, B> {
    Nothing,
    /// `CAT1`: an inlined `1:1` tuple.
    One(&'a K, &'a V),
    /// `CAT2`: a key with a nested bag of ≥ 2 values.
    Many(&'a K, &'a B),
    /// `NODE`: a sub-trie.
    Sub(&'a Arc<Node<K, V, B>>),
}

fn at_m<'a, K, V, B>(b: &'a BitmapNode<K, V, B>, m: u32) -> AtM<'a, K, V, B> {
    let (cat, idx) = b.bitmap.locate(m);
    match cat {
        Category::Empty => AtM::Nothing,
        Category::Cat1 => match &b.slots[idx] {
            Slot::One(k, v) => AtM::One(k, v),
            _ => unreachable!("CAT1 tag over a non-1:1 slot"),
        },
        Category::Cat2 => match &b.slots[idx] {
            Slot::Many(k, bag) => AtM::Many(k, bag),
            _ => unreachable!("CAT2 tag over a non-1:n slot"),
        },
        Category::Node => match &b.slots[idx] {
            Slot::Child(c) => AtM::Sub(c),
            _ => unreachable!("NODE tag over a payload slot"),
        },
    }
}

/// Invokes `f` for every `(key, value)` tuple stored in the sub-trie.
fn for_each_tuple_node<K, V, B>(node: &Node<K, V, B>, f: &mut impl FnMut(&K, &V))
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    match node {
        Node::Bitmap(b) => {
            for slot in b.slots.iter() {
                match slot {
                    Slot::One(k, v) => f(k, v),
                    Slot::Many(k, bag) => {
                        for v in bag.iter() {
                            f(k, v);
                        }
                    }
                    Slot::Child(c) => for_each_tuple_node(c, f),
                }
            }
        }
        Node::Collision(c) => {
            for (k, binding) in &c.entries {
                for v in BindingRef::of(binding).iter() {
                    f(k, v);
                }
            }
        }
    }
}

/// Emits the tuple-level delta between two same-key bindings into `out`.
/// Bindings under distinct keys never reach here.
fn diff_bindings<K, V, B>(
    key: &K,
    a: BindingRef<'_, V, B>,
    b: BindingRef<'_, V, B>,
    out: &mut trie_common::ops::MultiMapDiff<K, V>,
) where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
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
fn emit_binding<K, V, B>(key: &K, binding: BindingRef<'_, V, B>, sink: &mut Vec<(K, V)>)
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
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
    binding: BindingRef<'_, V, B>,
    sub: &Node<K, V, B>,
    shift: u32,
    payload_is_old: bool,
    out: &mut trie_common::ops::MultiMapDiff<K, V>,
) where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    let in_sub = sub.get(hash32(key), next_shift(shift), key);
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
    match (a, b) {
        (Node::Bitmap(x), Node::Bitmap(y)) => {
            for m in 0..32u32 {
                match (at_m(x, m), at_m(y, m)) {
                    (AtM::Nothing, AtM::Nothing) => {}
                    (AtM::One(k, v), AtM::Nothing) => {
                        out.removed.push((k.clone(), v.clone()));
                    }
                    (AtM::Many(k, bag), AtM::Nothing) => {
                        emit_binding::<K, V, B>(k, BindingRef::Many(bag), &mut out.removed);
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
                        emit_binding::<K, V, B>(k, BindingRef::Many(bag), &mut out.added);
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
                            diff_bindings::<K, V, B>(
                                ka,
                                BindingRef::One(va),
                                BindingRef::Many(bb),
                                out,
                            );
                        } else {
                            out.removed.push((ka.clone(), va.clone()));
                            emit_binding::<K, V, B>(kb, BindingRef::Many(bb), &mut out.added);
                        }
                    }
                    (AtM::Many(ka, ba), AtM::One(kb, vb)) => {
                        if ka == kb {
                            // Demotion: the key shed values down to one.
                            diff_bindings::<K, V, B>(
                                ka,
                                BindingRef::Many(ba),
                                BindingRef::One(vb),
                                out,
                            );
                        } else {
                            emit_binding::<K, V, B>(ka, BindingRef::Many(ba), &mut out.removed);
                            out.added.push((kb.clone(), vb.clone()));
                        }
                    }
                    (AtM::Many(ka, ba), AtM::Many(kb, bb)) => {
                        if ka == kb {
                            if ba != bb {
                                diff_bindings::<K, V, B>(
                                    ka,
                                    BindingRef::Many(ba),
                                    BindingRef::Many(bb),
                                    out,
                                );
                            }
                        } else {
                            emit_binding::<K, V, B>(ka, BindingRef::Many(ba), &mut out.removed);
                            emit_binding::<K, V, B>(kb, BindingRef::Many(bb), &mut out.added);
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
                        if !Arc::ptr_eq(ac, bc) {
                            diff_nodes(ac, bc, next_shift(shift), out);
                        }
                    }
                }
            }
        }
        (Node::Collision(x), Node::Collision(y)) => {
            for (k, binding_a) in &x.entries {
                match y.entries.iter().find(|(ky, _)| ky == k) {
                    None => {
                        emit_binding::<K, V, B>(k, BindingRef::of(binding_a), &mut out.removed);
                    }
                    Some((_, binding_b)) => {
                        if !binding_a.eq(binding_b) {
                            diff_bindings::<K, V, B>(
                                k,
                                BindingRef::of(binding_a),
                                BindingRef::of(binding_b),
                                out,
                            );
                        }
                    }
                }
            }
            for (k, binding_b) in &y.entries {
                if !x.entries.iter().any(|(kx, _)| kx == k) {
                    emit_binding::<K, V, B>(k, BindingRef::of(binding_b), &mut out.added);
                }
            }
        }
        // At equal depth a collision node only appears once the hash is
        // exhausted, where the canonical form forces the other side to be a
        // collision node too.
        (Node::Bitmap(_), Node::Collision(_)) | (Node::Collision(_), Node::Bitmap(_)) => {
            unreachable!("bitmap/collision mix at equal depth")
        }
    }
}

/// A persistent (immutable, structurally shared) multi-map on the AXIOM
/// encoding. See the [module documentation](self).
///
/// The third type parameter selects the `1:n` value-storage strategy and
/// defaults to nested [`AxiomSet`]s; [`crate::AxiomFusedMultiMap`] selects
/// the fusion strategy.
pub struct AxiomMultiMap<K, V, B = AxiomSet<V>> {
    pub(crate) root: Arc<Node<K, V, B>>,
    pub(crate) tuples: usize,
    pub(crate) keys: usize,
    marker: PhantomData<fn() -> B>,
}

impl<K, V, B> Clone for AxiomMultiMap<K, V, B> {
    fn clone(&self) -> Self {
        AxiomMultiMap {
            root: Arc::clone(&self.root),
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
            root: Arc::new(Node::empty()),
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
    pub fn get(&self, key: &K) -> Option<BindingRef<'_, V, B>> {
        self.root.get(hash32(key), 0, key)
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
        match Node::insert_in_place(&mut self.root, hash, 0, key, value) {
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
        let old = match Node::put_in_place(&mut self.root, hash, 0, key, binding) {
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
        let outcome = Node::remove_in_place(&mut self.root, hash32(key), 0, key, Some(value));
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
        let outcome = Node::remove_in_place(&mut self.root, hash32(key), 0, key, None);
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
                self.root = Arc::new(root_with_single_binding(key, binding));
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
            stack: vec![cursor_of(&self.root)],
            remaining: self.keys,
        }
    }

    /// Iterates `(key, values-view)` groups in unspecified order.
    pub fn entries(&self) -> Entries<'_, K, V, B> {
        Entries {
            stack: vec![cursor_of(&self.root)],
            remaining: self.keys,
        }
    }

    /// Iterates the values bound to `key` (nothing if the key is absent).
    pub fn values_of(&self, key: &K) -> ValuesOf<'_, V, B> {
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

    /// Tuples in `self` or `other`.
    ///
    /// Two regimes: a much smaller `other` is folded in tuple by tuple
    /// (O(|other|) probes); similar-sized operands typically share structure
    /// from a common ancestor, so they route through the structural
    /// [`AxiomMultiMap::diff`] and cost O(changed).
    pub fn union(&self, other: &Self) -> Self {
        if Arc::ptr_eq(&self.root, &other.root) || other.is_empty() {
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
    /// Returns `None` if the root has degenerated to a hash-collision node
    /// (only possible when every key shares one 32-bit hash).
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
        match &*self.root {
            Node::Bitmap(b) => Some(b.bitmap.histogram()),
            Node::Collision(_) => None,
        }
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

/// Rebuilds a root node around a binding that collapsed out of the trie.
fn root_with_single_binding<K, V, B>(key: K, binding: Binding<V, B>) -> Node<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    let m = mask(hash32(&key), 0);
    let cat = binding.category();
    Node::Bitmap(BitmapNode {
        bitmap: SlotBitmap::EMPTY.with(m, cat),
        slots: Box::new([Node::slot_of(key, binding)]),
    })
}

/// Validates canonical form; returns `(keys, tuples)` below `node`.
fn validate<K, V, B>(node: &Node<K, V, B>, shift: u32) -> (usize, usize)
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    match node {
        Node::Collision(c) => {
            assert!(hash_exhausted(shift), "collision node above max depth");
            assert!(c.entries.len() >= 2, "collision node with < 2 keys");
            let mut tuples = 0;
            for (i, (k, b)) in c.entries.iter().enumerate() {
                assert_eq!(hash32(k), c.hash, "collision member hash");
                if let Binding::Many(bag) = b {
                    assert!(bag.len() >= 2, "CAT2 bag with < 2 values");
                }
                tuples += b.len();
                for (k2, _) in &c.entries[i + 1..] {
                    assert!(k2 != k, "duplicate key in collision node");
                }
            }
            (c.entries.len(), tuples)
        }
        Node::Bitmap(b) => {
            assert_eq!(b.slots.len(), b.bitmap.arity(), "slot count");
            let mut keys = 0usize;
            let mut tuples = 0usize;
            for (i, m) in b.bitmap.masks_of(Category::Cat1).enumerate() {
                match &b.slots[b.bitmap.offset(Category::Cat1) + i] {
                    Slot::One(k, _) => {
                        assert_eq!(mask(hash32(k), shift), m, "CAT1 key in wrong branch");
                        keys += 1;
                        tuples += 1;
                    }
                    _ => panic!("CAT1 slot holds wrong variant"),
                }
            }
            for (i, m) in b.bitmap.masks_of(Category::Cat2).enumerate() {
                match &b.slots[b.bitmap.offset(Category::Cat2) + i] {
                    Slot::Many(k, bag) => {
                        assert_eq!(mask(hash32(k), shift), m, "CAT2 key in wrong branch");
                        assert!(bag.len() >= 2, "CAT2 bag with < 2 values");
                        keys += 1;
                        tuples += bag.len();
                    }
                    _ => panic!("CAT2 slot holds wrong variant"),
                }
            }
            for (i, _) in b.bitmap.masks_of(Category::Node).enumerate() {
                match &b.slots[b.bitmap.offset(Category::Node) + i] {
                    Slot::Child(child) => {
                        let (k, t) = validate(child, next_shift(shift));
                        assert!(k >= 2, "sub-trie with < 2 keys not inlined");
                        keys += k;
                        tuples += t;
                    }
                    _ => panic!("NODE slot holds payload"),
                }
            }
            if shift > 0 {
                assert!(
                    !(b.bitmap.payload_arity() == 1 && b.bitmap.node_arity() == 0),
                    "non-root singleton payload node must be inlined"
                );
            }
            (keys, tuples)
        }
    }
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
        self.tuples == other.tuples && self.keys == other.keys && node_eq(&self.root, &other.root)
    }
}

impl<K, V, B> Eq for AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
}

fn node_eq<K, V, B>(a: &Node<K, V, B>, b: &Node<K, V, B>) -> bool
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    match (a, b) {
        (Node::Bitmap(x), Node::Bitmap(y)) => {
            x.bitmap == y.bitmap
                && x.slots
                    .iter()
                    .zip(y.slots.iter())
                    .all(|(s, t)| match (s, t) {
                        (Slot::One(k1, v1), Slot::One(k2, v2)) => k1 == k2 && v1 == v2,
                        (Slot::Many(k1, b1), Slot::Many(k2, b2)) => k1 == k2 && b1 == b2,
                        (Slot::Child(c), Slot::Child(d)) => Arc::ptr_eq(c, d) || node_eq(c, d),
                        _ => false,
                    })
        }
        (Node::Collision(x), Node::Collision(y)) => {
            x.hash == y.hash
                && x.entries.len() == y.entries.len()
                && x.entries.iter().all(|(k, bind)| {
                    y.entries
                        .iter()
                        .any(|(k2, bind2)| k == k2 && bind.eq(bind2))
                })
        }
        _ => false,
    }
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

enum Cursor<'a, K, V, B> {
    Bitmap {
        slots: &'a [Slot<K, V, B>],
        idx: usize,
    },
    Collision {
        entries: &'a [(K, Binding<V, B>)],
        idx: usize,
    },
}

fn cursor_of<K, V, B>(node: &Node<K, V, B>) -> Cursor<'_, K, V, B> {
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

/// Iterator over all `(key, value)` tuples. Created by
/// [`AxiomMultiMap::iter`].
pub struct Tuples<'a, K, V: 'a, B: ValueBag<V> + 'a> {
    stack: Vec<Cursor<'a, K, V, B>>,
    current: Option<(&'a K, B::Iter<'a>)>,
    remaining: usize,
}

impl<'a, K, V, B: ValueBag<V>> Tuples<'a, K, V, B> {
    fn new(root: &'a Node<K, V, B>, tuples: usize) -> Self {
        Tuples {
            stack: vec![cursor_of(root)],
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
            let top = self.stack.last_mut()?;
            match top {
                Cursor::Collision { entries, idx } => {
                    if *idx >= entries.len() {
                        self.stack.pop();
                        continue;
                    }
                    let (k, binding) = &entries[*idx];
                    *idx += 1;
                    match binding {
                        Binding::One(v) => {
                            self.remaining -= 1;
                            return Some((k, v));
                        }
                        Binding::Many(bag) => self.current = Some((k, bag.iter())),
                    }
                }
                Cursor::Bitmap { slots, idx } => {
                    if *idx >= slots.len() {
                        self.stack.pop();
                        continue;
                    }
                    let slot = &slots[*idx];
                    *idx += 1;
                    match slot {
                        Slot::One(k, v) => {
                            self.remaining -= 1;
                            return Some((k, v));
                        }
                        Slot::Many(k, bag) => self.current = Some((k, bag.iter())),
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
pub struct Keys<'a, K, V, B> {
    stack: Vec<Cursor<'a, K, V, B>>,
    remaining: usize,
}

impl<'a, K, V, B> Iterator for Keys<'a, K, V, B> {
    type Item = &'a K;

    fn next(&mut self) -> Option<&'a K> {
        loop {
            let top = self.stack.last_mut()?;
            match top {
                Cursor::Collision { entries, idx } => {
                    if *idx >= entries.len() {
                        self.stack.pop();
                        continue;
                    }
                    let (k, _) = &entries[*idx];
                    *idx += 1;
                    self.remaining -= 1;
                    return Some(k);
                }
                Cursor::Bitmap { slots, idx } => {
                    if *idx >= slots.len() {
                        self.stack.pop();
                        continue;
                    }
                    let slot = &slots[*idx];
                    *idx += 1;
                    match slot {
                        Slot::One(k, _) | Slot::Many(k, _) => {
                            self.remaining -= 1;
                            return Some(k);
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

impl<'a, K, V, B> ExactSizeIterator for Keys<'a, K, V, B> {}

impl<'a, K, V, B> std::fmt::Debug for Keys<'a, K, V, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Keys")
            .field("remaining", &self.remaining)
            .finish()
    }
}

/// Iterator over `(key, values-view)` groups. Created by
/// [`AxiomMultiMap::entries`].
pub struct Entries<'a, K, V, B> {
    stack: Vec<Cursor<'a, K, V, B>>,
    remaining: usize,
}

impl<'a, K, V, B> Iterator for Entries<'a, K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    type Item = (&'a K, BindingRef<'a, V, B>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let top = self.stack.last_mut()?;
            match top {
                Cursor::Collision { entries, idx } => {
                    if *idx >= entries.len() {
                        self.stack.pop();
                        continue;
                    }
                    let (k, binding) = &entries[*idx];
                    *idx += 1;
                    self.remaining -= 1;
                    return Some((k, BindingRef::of(binding)));
                }
                Cursor::Bitmap { slots, idx } => {
                    if *idx >= slots.len() {
                        self.stack.pop();
                        continue;
                    }
                    let slot = &slots[*idx];
                    *idx += 1;
                    match slot {
                        Slot::One(k, v) => {
                            self.remaining -= 1;
                            return Some((k, BindingRef::One(v)));
                        }
                        Slot::Many(k, bag) => {
                            self.remaining -= 1;
                            return Some((k, BindingRef::Many(bag)));
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

impl<'a, K, V, B> ExactSizeIterator for Entries<'a, K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
}

impl<'a, K, V, B> std::fmt::Debug for Entries<'a, K, V, B> {
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
                let vs: BTreeSet<u32> = crate::bag::ValueBag::iter(bag).copied().collect();
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
