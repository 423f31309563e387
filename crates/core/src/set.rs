//! A persistent hash set built on the AXIOM node encoding.
//!
//! [`AxiomSet`] serves two roles: it is the nested collection behind the
//! multi-map's `1:n` mappings (paper §3: "1:n mappings allocate and nest a
//! set data structure"), and a standalone persistent set used by the static
//! analysis case study's relational algebra.
//!
//! Sets are the homogeneous instance of AXIOM: only categories `EMPTY`,
//! `CAT1` (an element) and `NODE` are populated, which is exactly the CHAMP
//! special case of the encoding (paper §3.1).
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
use std::sync::Arc;

use trie_common::bits::{hash_exhausted, mask, next_shift};
use trie_common::hash::hash32;

use crate::bitmap::{Category, SlotBitmap};
use crate::slots::{edit_child, insert_slot, migrate_map, remove_slot, survivor, CowNode};

/// One physical slot of a set node: an inlined element or a sub-trie.
#[derive(Debug, Clone)]
pub(crate) enum Slot<T> {
    /// `CAT1`: an inlined element.
    Elem(T),
    /// `NODE`: a shared sub-trie.
    Child(Arc<Node<T>>),
}

/// A compressed trie node: the 2-bit bitmap plus the dense, permuted slot
/// array (`[elements… | children…]`, each group ascending by mask).
#[derive(Debug, Clone)]
pub(crate) struct BitmapNode<T> {
    pub(crate) bitmap: SlotBitmap,
    pub(crate) slots: Box<[Slot<T>]>,
}

/// A node that resolves full 32-bit hash collisions past the deepest trie
/// level by linear search.
#[derive(Debug, Clone)]
pub(crate) struct CollisionNode<T> {
    pub(crate) hash: u32,
    pub(crate) elems: Vec<T>,
}

/// A trie node.
#[derive(Debug, Clone)]
pub(crate) enum Node<T> {
    Bitmap(BitmapNode<T>),
    Collision(CollisionNode<T>),
}

/// Result of a node-level removal, driving CHAMP-style canonicalization:
/// a sub-tree reduced to a single element hands it to the parent for
/// inlining instead of being kept as a degenerate path.
pub(crate) enum EditRemoved<T> {
    NotFound,
    Removed,
    /// The sub-tree collapsed to one element (a unique node is left
    /// consumed; the parent drops it and inlines the survivor).
    Single(T),
}

impl<T: Clone + Eq + Hash> Node<T> {
    fn empty() -> Node<T> {
        Node::Bitmap(BitmapNode {
            bitmap: SlotBitmap::EMPTY,
            slots: Box::new([]),
        })
    }

    /// Builds the minimal sub-trie holding two *distinct* elements whose
    /// hash prefixes agree up to `shift`.
    fn pair(h1: u32, e1: T, h2: u32, e2: T, shift: u32) -> Node<T> {
        if hash_exhausted(shift) {
            debug_assert_eq!(h1, h2);
            return Node::Collision(CollisionNode {
                hash: h1,
                elems: vec![e1, e2],
            });
        }
        let m1 = mask(h1, shift);
        let m2 = mask(h2, shift);
        if m1 == m2 {
            let child = Node::pair(h1, e1, h2, e2, next_shift(shift));
            Node::Bitmap(BitmapNode {
                bitmap: SlotBitmap::EMPTY.with(m1, Category::Node),
                slots: Box::new([Slot::Child(Arc::new(child))]),
            })
        } else {
            let bitmap = SlotBitmap::EMPTY
                .with(m1, Category::Cat1)
                .with(m2, Category::Cat1);
            let slots: Box<[Slot<T>]> = if m1 < m2 {
                Box::new([Slot::Elem(e1), Slot::Elem(e2)])
            } else {
                Box::new([Slot::Elem(e2), Slot::Elem(e1)])
            };
            Node::Bitmap(BitmapNode { bitmap, slots })
        }
    }

    fn contains<Q>(&self, hash: u32, shift: u32, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        match self {
            Node::Collision(c) => c.elems.iter().any(|e| e.borrow() == value),
            Node::Bitmap(b) => {
                // Fused dispatch: category and slot index from one pass.
                match b.bitmap.locate(mask(hash, shift)) {
                    (Category::Empty, _) => false,
                    (Category::Cat1, idx) => match &b.slots[idx] {
                        Slot::Elem(e) => e.borrow() == value,
                        Slot::Child(_) => unreachable!("bitmap says CAT1"),
                    },
                    (Category::Node, idx) => match &b.slots[idx] {
                        Slot::Child(child) => child.contains(hash, next_shift(shift), value),
                        Slot::Elem(_) => unreachable!("bitmap says NODE"),
                    },
                    (Category::Cat2, _) => unreachable!("sets never use CAT2"),
                }
            }
        }
    }

    fn get<Q>(&self, hash: u32, shift: u32, value: &Q) -> Option<&T>
    where
        T: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        match self {
            Node::Collision(c) => c.elems.iter().find(|e| (*e).borrow() == value),
            Node::Bitmap(b) => match b.bitmap.locate(mask(hash, shift)) {
                (Category::Empty, _) => None,
                (Category::Cat1, idx) => match &b.slots[idx] {
                    Slot::Elem(e) if e.borrow() == value => Some(e),
                    _ => None,
                },
                (Category::Node, idx) => match &b.slots[idx] {
                    Slot::Child(child) => child.get(hash, next_shift(shift), value),
                    Slot::Elem(_) => unreachable!("bitmap says NODE"),
                },
                (Category::Cat2, _) => unreachable!("sets never use CAT2"),
            },
        }
    }

    /// The root of a one-element set (a collapsed trie's last element).
    fn single(value: T) -> Node<T> {
        Node::Bitmap(BitmapNode {
            bitmap: SlotBitmap::EMPTY.with(mask(hash32(&value), 0), Category::Cat1),
            slots: Box::new([Slot::Elem(value)]),
        })
    }

    /// Inserts `value` below `this`, editing unique nodes in place and
    /// copying shared ones on write (see [`crate::slots`]). Takes `value` by
    /// ownership so the common paths move it into its final slot. Returns
    /// true if the set grew.
    fn insert_in_place(this: &mut Arc<Node<T>>, hash: u32, shift: u32, value: T) -> bool {
        let b = match &**this {
            Node::Collision(c) => {
                debug_assert_eq!(c.hash, hash, "collision nodes sit below exhausted hashes");
                if c.elems.contains(&value) {
                    return false;
                }
                let Node::Collision(c) = Arc::make_mut(this) else {
                    unreachable!("matched a collision node")
                };
                c.elems.push(value);
                return true;
            }
            Node::Bitmap(b) => b,
        };
        let m = mask(hash, shift);
        let (cat, idx) = b.bitmap.locate(m);
        match cat {
            Category::Empty => {
                let bitmap = b.bitmap.with(m, Category::Cat1);
                let idx = bitmap.slot_index(Category::Cat1, m);
                insert_slot(this, bitmap, idx, Slot::Elem(value));
                true
            }
            Category::Cat1 => {
                let Slot::Elem(existing) = &b.slots[idx] else {
                    unreachable!("bitmap says CAT1")
                };
                if *existing == value {
                    return false;
                }
                // Prefix clash: both elements descend into a fresh sub-trie;
                // the slot migrates CAT1 → NODE.
                let existing_hash = hash32(existing);
                let BitmapNode { bitmap, slots } = Arc::make_mut(this).bitmap_node_mut();
                *bitmap = bitmap.with(m, Category::Node);
                let to = bitmap.slot_index(Category::Node, m);
                migrate_map(slots, idx, to, |slot| {
                    let Slot::Elem(existing) = slot else {
                        unreachable!("bitmap says CAT1")
                    };
                    Slot::Child(Arc::new(Node::pair(
                        existing_hash,
                        existing,
                        hash,
                        value,
                        next_shift(shift),
                    )))
                });
                true
            }
            Category::Node => edit_child(
                this,
                idx,
                |child| Node::insert_in_place(child, hash, next_shift(shift), value),
                |grew| *grew,
            ),
            Category::Cat2 => unreachable!("sets never use CAT2"),
        }
    }

    /// Removes `value` below `this` with the same copy-on-write discipline
    /// as [`Node::insert_in_place`], canonicalizing on the way up.
    fn remove_in_place<Q>(
        this: &mut Arc<Node<T>>,
        hash: u32,
        shift: u32,
        value: &Q,
    ) -> EditRemoved<T>
    where
        T: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let b = match &**this {
            Node::Collision(c) => {
                let Some(pos) = c.elems.iter().position(|e| e.borrow() == value) else {
                    return EditRemoved::NotFound;
                };
                let Node::Collision(c) = Arc::make_mut(this) else {
                    unreachable!("matched a collision node")
                };
                if c.elems.len() == 2 {
                    return EditRemoved::Single(c.elems.swap_remove(1 - pos));
                }
                c.elems.swap_remove(pos);
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
                    Slot::Elem(e) => e.borrow() == value,
                    Slot::Child(_) => unreachable!("bitmap says CAT1"),
                };
                if !matches {
                    return EditRemoved::NotFound;
                }
                let bitmap = b.bitmap.with(m, Category::Empty);
                if shift > 0 && bitmap.payload_arity() == 1 && bitmap.node_arity() == 0 {
                    // The node held exactly two elements; hand the survivor
                    // to the parent for inlining.
                    let Slot::Elem(e) = survivor(this, idx) else {
                        unreachable!("both slots are payload")
                    };
                    return EditRemoved::Single(e);
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
                    |child| Node::remove_in_place(child, hash, next_shift(shift), value),
                    |outcome| matches!(outcome, EditRemoved::Removed),
                ) {
                    EditRemoved::Single(e) if !chain => {
                        // Inline the survivor: NODE → CAT1, dropping the
                        // collapsed child.
                        let BitmapNode { bitmap, slots } = Arc::make_mut(this).bitmap_node_mut();
                        *bitmap = bitmap.with(m, Category::Cat1);
                        let to = bitmap.slot_index(Category::Cat1, m);
                        migrate_map(slots, idx, to, |_child| Slot::Elem(e));
                        EditRemoved::Removed
                    }
                    outcome => outcome,
                }
            }
            Category::Cat2 => unreachable!("sets never use CAT2"),
        }
    }
}

impl<T> Node<T> {
    /// The bitmap node, mutably.
    fn bitmap_node_mut(&mut self) -> &mut BitmapNode<T> {
        match self {
            Node::Bitmap(b) => b,
            Node::Collision(_) => unreachable!("only bitmap nodes have slots"),
        }
    }
}

impl<T: Clone> CowNode for Node<T> {
    type Bitmap = SlotBitmap;
    type Slot = Slot<T>;

    fn parts(&self) -> (SlotBitmap, &[Slot<T>]) {
        match self {
            Node::Bitmap(b) => (b.bitmap, &b.slots),
            Node::Collision(_) => unreachable!("only bitmap nodes have slots"),
        }
    }

    fn slots_mut(&mut self) -> &mut Box<[Slot<T>]> {
        &mut self.bitmap_node_mut().slots
    }

    fn of_parts(bitmap: SlotBitmap, slots: Box<[Slot<T>]>) -> Self {
        Node::Bitmap(BitmapNode { bitmap, slots })
    }

    fn child_mut(slot: &mut Slot<T>) -> &mut Arc<Self> {
        match slot {
            Slot::Child(child) => child,
            Slot::Elem(_) => unreachable!("bitmap says NODE"),
        }
    }
}

// ---------------------------------------------------------------------------
// Structural set algebra: lockstep node walks.
//
// Both operands are walked in lockstep over the union of their occupied
// masks; pointer-identical subtrees short-circuit (`Arc::ptr_eq` is a sound
// subtree-equivalence test because canonical tries represent equal sets with
// identical structure), and results canonicalize on the way up through
// `Cut`. Element counts travel as deltas so a short-circuited subtree costs
// nothing to account for.
// ---------------------------------------------------------------------------

/// What one lockstep walk found at a mask position.
enum At<'a, T> {
    Nothing,
    Elem(&'a T),
    Sub(&'a Arc<Node<T>>),
}

fn at<'a, T>(b: &'a BitmapNode<T>, m: u32) -> At<'a, T> {
    match b.bitmap.locate(m) {
        (Category::Empty, _) => At::Nothing,
        (Category::Cat1, idx) => match &b.slots[idx] {
            Slot::Elem(e) => At::Elem(e),
            Slot::Child(_) => unreachable!("bitmap says CAT1"),
        },
        (Category::Node, idx) => match &b.slots[idx] {
            Slot::Child(c) => At::Sub(c),
            Slot::Elem(_) => unreachable!("bitmap says NODE"),
        },
        (Category::Cat2, _) => unreachable!("sets never use CAT2"),
    }
}

/// A shrinking walk's result, driving canonicalization on the way up.
enum Cut<T> {
    /// The result equals the left operand's subtree: reuse its `Arc`.
    Unchanged,
    /// Nothing survives below this branch.
    Empty,
    /// Exactly one element survives: the parent inlines it.
    One(T),
    /// A rebuilt (canonical) node.
    Node(Node<T>),
}

/// Elements below `node` (walked, not stored; only non-shared subtrees are
/// ever counted, keeping bulk ops O(changed)).
fn node_len<T>(node: &Node<T>) -> usize {
    match node {
        Node::Collision(c) => c.elems.len(),
        Node::Bitmap(b) => b
            .slots
            .iter()
            .map(|s| match s {
                Slot::Elem(_) => 1,
                Slot::Child(c) => node_len(c),
            })
            .sum(),
    }
}

fn for_each_elem<T>(node: &Node<T>, f: &mut impl FnMut(&T)) {
    match node {
        Node::Collision(c) => c.elems.iter().for_each(&mut *f),
        Node::Bitmap(b) => {
            for s in &b.slots {
                match s {
                    Slot::Elem(e) => f(e),
                    Slot::Child(c) => for_each_elem(c, f),
                }
            }
        }
    }
}

/// Assembles a canonical bitmap node from the walked groups, collapsing
/// degenerate shapes (`Cut::Empty` / `Cut::One`) for the parent to inline.
fn assemble<T>(bitmap: SlotBitmap, mut payload: Vec<Slot<T>>, children: Vec<Slot<T>>) -> Cut<T> {
    match (payload.len(), children.len()) {
        (0, 0) => Cut::Empty,
        (1, 0) => match payload.pop() {
            Some(Slot::Elem(e)) => Cut::One(e),
            _ => unreachable!("payload group holds elements"),
        },
        _ => {
            payload.extend(children);
            Cut::Node(Node::Bitmap(BitmapNode {
                bitmap,
                slots: payload.into_boxed_slice(),
            }))
        }
    }
}

/// Lockstep union. Returns `(None, 0)` when the result equals `a` (the
/// caller reuses the `Arc`), else the new node plus how many elements it
/// gained relative to `a`.
fn union_nodes<T: Clone + Eq + Hash>(
    a: &Node<T>,
    b: &Node<T>,
    shift: u32,
) -> (Option<Node<T>>, usize) {
    match (a, b) {
        (Node::Collision(x), Node::Collision(y)) => {
            debug_assert_eq!(x.hash, y.hash, "lockstep paths fix the full hash");
            let fresh: Vec<&T> = y.elems.iter().filter(|e| !x.elems.contains(e)).collect();
            if fresh.is_empty() {
                return (None, 0);
            }
            let added = fresh.len();
            let mut elems = x.elems.clone();
            elems.extend(fresh.into_iter().cloned());
            (
                Some(Node::Collision(CollisionNode {
                    hash: x.hash,
                    elems,
                })),
                added,
            )
        }
        (Node::Bitmap(x), Node::Bitmap(y)) => {
            let mut bitmap = SlotBitmap::EMPTY;
            let mut payload: Vec<Slot<T>> = Vec::new();
            let mut children: Vec<Slot<T>> = Vec::new();
            let mut added = 0usize;
            let mut changed = false;
            for m in 0..32u32 {
                match (at(x, m), at(y, m)) {
                    (At::Nothing, At::Nothing) => {}
                    (At::Elem(ea), At::Nothing) => {
                        bitmap = bitmap.with(m, Category::Cat1);
                        payload.push(Slot::Elem(ea.clone()));
                    }
                    (At::Nothing, At::Elem(eb)) => {
                        bitmap = bitmap.with(m, Category::Cat1);
                        payload.push(Slot::Elem(eb.clone()));
                        added += 1;
                        changed = true;
                    }
                    (At::Sub(ac), At::Nothing) => {
                        bitmap = bitmap.with(m, Category::Node);
                        children.push(Slot::Child(Arc::clone(ac)));
                    }
                    (At::Nothing, At::Sub(bc)) => {
                        bitmap = bitmap.with(m, Category::Node);
                        added += node_len(bc);
                        children.push(Slot::Child(Arc::clone(bc)));
                        changed = true;
                    }
                    (At::Elem(ea), At::Elem(eb)) => {
                        if ea == eb {
                            bitmap = bitmap.with(m, Category::Cat1);
                            payload.push(Slot::Elem(ea.clone()));
                        } else {
                            bitmap = bitmap.with(m, Category::Node);
                            let child = Node::pair(
                                hash32(ea),
                                ea.clone(),
                                hash32(eb),
                                eb.clone(),
                                next_shift(shift),
                            );
                            children.push(Slot::Child(Arc::new(child)));
                            added += 1;
                            changed = true;
                        }
                    }
                    (At::Elem(ea), At::Sub(bc)) => {
                        // `a`'s lone element joins (or is absorbed by) `b`'s
                        // subtree; either way the slot becomes NODE.
                        bitmap = bitmap.with(m, Category::Node);
                        let mut child = Arc::clone(bc);
                        added += node_len(bc);
                        if !Node::insert_in_place(
                            &mut child,
                            hash32(ea),
                            next_shift(shift),
                            ea.clone(),
                        ) {
                            added -= 1;
                        }
                        children.push(Slot::Child(child));
                        changed = true;
                    }
                    (At::Sub(ac), At::Elem(eb)) => {
                        bitmap = bitmap.with(m, Category::Node);
                        let mut child = Arc::clone(ac);
                        if Node::insert_in_place(
                            &mut child,
                            hash32(eb),
                            next_shift(shift),
                            eb.clone(),
                        ) {
                            added += 1;
                            changed = true;
                        }
                        children.push(Slot::Child(child));
                    }
                    (At::Sub(ac), At::Sub(bc)) => {
                        bitmap = bitmap.with(m, Category::Node);
                        if Arc::ptr_eq(ac, bc) {
                            children.push(Slot::Child(Arc::clone(ac)));
                        } else {
                            match union_nodes(ac, bc, next_shift(shift)) {
                                (None, _) => children.push(Slot::Child(Arc::clone(ac))),
                                (Some(n), add) => {
                                    children.push(Slot::Child(Arc::new(n)));
                                    added += add;
                                    changed = true;
                                }
                            }
                        }
                    }
                }
            }
            if !changed {
                return (None, 0);
            }
            payload.extend(children);
            (
                Some(Node::Bitmap(BitmapNode {
                    bitmap,
                    slots: payload.into_boxed_slice(),
                })),
                added,
            )
        }
        _ => unreachable!("canonical tries align node kinds at equal depth"),
    }
}

/// Lockstep intersection. Returns the surviving shape plus how many of `a`'s
/// elements were dropped (`Cut::Unchanged` ⇒ 0).
fn intersect_nodes<T: Clone + Eq + Hash>(a: &Node<T>, b: &Node<T>, shift: u32) -> (Cut<T>, usize) {
    match (a, b) {
        (Node::Collision(x), Node::Collision(y)) => {
            debug_assert_eq!(x.hash, y.hash, "lockstep paths fix the full hash");
            let mut kept: Vec<T> = x
                .elems
                .iter()
                .filter(|e| y.elems.contains(e))
                .cloned()
                .collect();
            let removed = x.elems.len() - kept.len();
            match kept.len() {
                n if n == x.elems.len() => (Cut::Unchanged, 0),
                0 => (Cut::Empty, removed),
                1 => (Cut::One(kept.pop().expect("len == 1")), removed),
                _ => (
                    Cut::Node(Node::Collision(CollisionNode {
                        hash: x.hash,
                        elems: kept,
                    })),
                    removed,
                ),
            }
        }
        (Node::Bitmap(x), Node::Bitmap(y)) => {
            let mut bitmap = SlotBitmap::EMPTY;
            let mut payload: Vec<Slot<T>> = Vec::new();
            let mut children: Vec<Slot<T>> = Vec::new();
            let mut removed = 0usize;
            let mut changed = false;
            for m in 0..32u32 {
                let pos_a = at(x, m);
                if matches!(pos_a, At::Nothing) {
                    continue;
                }
                match (pos_a, at(y, m)) {
                    (At::Elem(_), At::Nothing) => {
                        removed += 1;
                        changed = true;
                    }
                    (At::Elem(ea), At::Elem(eb)) => {
                        if ea == eb {
                            bitmap = bitmap.with(m, Category::Cat1);
                            payload.push(Slot::Elem(ea.clone()));
                        } else {
                            removed += 1;
                            changed = true;
                        }
                    }
                    (At::Elem(ea), At::Sub(bc)) => {
                        if bc.contains(hash32(ea), next_shift(shift), ea) {
                            bitmap = bitmap.with(m, Category::Cat1);
                            payload.push(Slot::Elem(ea.clone()));
                        } else {
                            removed += 1;
                            changed = true;
                        }
                    }
                    (At::Sub(ac), At::Nothing) => {
                        removed += node_len(ac);
                        changed = true;
                    }
                    (At::Sub(ac), At::Elem(eb)) => {
                        let total = node_len(ac);
                        if ac.contains(hash32(eb), next_shift(shift), eb) {
                            // The intersection of this subtree with a lone
                            // element is that element, inlined.
                            bitmap = bitmap.with(m, Category::Cat1);
                            payload.push(Slot::Elem(eb.clone()));
                            removed += total - 1;
                        } else {
                            removed += total;
                        }
                        changed = true;
                    }
                    (At::Sub(ac), At::Sub(bc)) => {
                        if Arc::ptr_eq(ac, bc) {
                            bitmap = bitmap.with(m, Category::Node);
                            children.push(Slot::Child(Arc::clone(ac)));
                            continue;
                        }
                        match intersect_nodes(ac, bc, next_shift(shift)) {
                            (Cut::Unchanged, _) => {
                                bitmap = bitmap.with(m, Category::Node);
                                children.push(Slot::Child(Arc::clone(ac)));
                            }
                            (Cut::Empty, r) => {
                                removed += r;
                                changed = true;
                            }
                            (Cut::One(e), r) => {
                                bitmap = bitmap.with(m, Category::Cat1);
                                payload.push(Slot::Elem(e));
                                removed += r;
                                changed = true;
                            }
                            (Cut::Node(n), r) => {
                                bitmap = bitmap.with(m, Category::Node);
                                children.push(Slot::Child(Arc::new(n)));
                                removed += r;
                                changed = true;
                            }
                        }
                    }
                    (At::Nothing, _) => unreachable!("filtered above"),
                }
            }
            if !changed {
                return (Cut::Unchanged, 0);
            }
            (assemble(bitmap, payload, children), removed)
        }
        _ => unreachable!("canonical tries align node kinds at equal depth"),
    }
}

/// Lockstep difference (`a \ b`). Returns the surviving shape plus how many
/// elements survive (`Cut::Unchanged` ⇒ the whole subtree, counted).
fn difference_nodes<T: Clone + Eq + Hash>(a: &Node<T>, b: &Node<T>, shift: u32) -> (Cut<T>, usize) {
    match (a, b) {
        (Node::Collision(x), Node::Collision(y)) => {
            debug_assert_eq!(x.hash, y.hash, "lockstep paths fix the full hash");
            let mut kept: Vec<T> = x
                .elems
                .iter()
                .filter(|e| !y.elems.contains(e))
                .cloned()
                .collect();
            match kept.len() {
                n if n == x.elems.len() => (Cut::Unchanged, n),
                0 => (Cut::Empty, 0),
                1 => (Cut::One(kept.pop().expect("len == 1")), 1),
                n => (
                    Cut::Node(Node::Collision(CollisionNode {
                        hash: x.hash,
                        elems: kept,
                    })),
                    n,
                ),
            }
        }
        (Node::Bitmap(x), Node::Bitmap(y)) => {
            let mut bitmap = SlotBitmap::EMPTY;
            let mut payload: Vec<Slot<T>> = Vec::new();
            let mut children: Vec<Slot<T>> = Vec::new();
            let mut kept = 0usize;
            let mut changed = false;
            for m in 0..32u32 {
                let pos_a = at(x, m);
                if matches!(pos_a, At::Nothing) {
                    continue;
                }
                match (pos_a, at(y, m)) {
                    (At::Elem(ea), At::Nothing) => {
                        bitmap = bitmap.with(m, Category::Cat1);
                        payload.push(Slot::Elem(ea.clone()));
                        kept += 1;
                    }
                    (At::Elem(ea), At::Elem(eb)) => {
                        if ea == eb {
                            changed = true;
                        } else {
                            bitmap = bitmap.with(m, Category::Cat1);
                            payload.push(Slot::Elem(ea.clone()));
                            kept += 1;
                        }
                    }
                    (At::Elem(ea), At::Sub(bc)) => {
                        if bc.contains(hash32(ea), next_shift(shift), ea) {
                            changed = true;
                        } else {
                            bitmap = bitmap.with(m, Category::Cat1);
                            payload.push(Slot::Elem(ea.clone()));
                            kept += 1;
                        }
                    }
                    (At::Sub(ac), At::Nothing) => {
                        bitmap = bitmap.with(m, Category::Node);
                        children.push(Slot::Child(Arc::clone(ac)));
                        kept += node_len(ac);
                    }
                    (At::Sub(ac), At::Elem(eb)) => {
                        let mut child = Arc::clone(ac);
                        match Node::remove_in_place(&mut child, hash32(eb), next_shift(shift), eb) {
                            EditRemoved::NotFound => {
                                bitmap = bitmap.with(m, Category::Node);
                                children.push(Slot::Child(child));
                                kept += node_len(ac);
                            }
                            EditRemoved::Removed => {
                                kept += node_len(&child);
                                bitmap = bitmap.with(m, Category::Node);
                                children.push(Slot::Child(child));
                                changed = true;
                            }
                            EditRemoved::Single(e) => {
                                bitmap = bitmap.with(m, Category::Cat1);
                                payload.push(Slot::Elem(e));
                                kept += 1;
                                changed = true;
                            }
                        }
                    }
                    (At::Sub(ac), At::Sub(bc)) => {
                        if Arc::ptr_eq(ac, bc) {
                            // The entire shared subtree cancels out.
                            changed = true;
                            continue;
                        }
                        match difference_nodes(ac, bc, next_shift(shift)) {
                            (Cut::Unchanged, k) => {
                                bitmap = bitmap.with(m, Category::Node);
                                children.push(Slot::Child(Arc::clone(ac)));
                                kept += k;
                            }
                            (Cut::Empty, _) => changed = true,
                            (Cut::One(e), _) => {
                                bitmap = bitmap.with(m, Category::Cat1);
                                payload.push(Slot::Elem(e));
                                kept += 1;
                                changed = true;
                            }
                            (Cut::Node(n), k) => {
                                bitmap = bitmap.with(m, Category::Node);
                                children.push(Slot::Child(Arc::new(n)));
                                kept += k;
                                changed = true;
                            }
                        }
                    }
                    (At::Nothing, _) => unreachable!("filtered above"),
                }
            }
            if !changed {
                return (Cut::Unchanged, kept);
            }
            (assemble(bitmap, payload, children), kept)
        }
        _ => unreachable!("canonical tries align node kinds at equal depth"),
    }
}

/// Lockstep diff (`a` old, `b` new): pointer-identical subtrees emit
/// nothing, so the output and the walk are both O(changed).
fn diff_nodes<T: Clone + Eq + Hash>(
    a: &Node<T>,
    b: &Node<T>,
    shift: u32,
    out: &mut trie_common::ops::SetDiff<T>,
) {
    match (a, b) {
        (Node::Collision(x), Node::Collision(y)) => {
            debug_assert_eq!(x.hash, y.hash, "lockstep paths fix the full hash");
            for e in &x.elems {
                if !y.elems.contains(e) {
                    out.removed.push(e.clone());
                }
            }
            for e in &y.elems {
                if !x.elems.contains(e) {
                    out.added.push(e.clone());
                }
            }
        }
        (Node::Bitmap(x), Node::Bitmap(y)) => {
            for m in 0..32u32 {
                match (at(x, m), at(y, m)) {
                    (At::Nothing, At::Nothing) => {}
                    (At::Elem(ea), At::Nothing) => out.removed.push(ea.clone()),
                    (At::Nothing, At::Elem(eb)) => out.added.push(eb.clone()),
                    (At::Sub(ac), At::Nothing) => {
                        for_each_elem(ac, &mut |e| out.removed.push(e.clone()));
                    }
                    (At::Nothing, At::Sub(bc)) => {
                        for_each_elem(bc, &mut |e| out.added.push(e.clone()));
                    }
                    (At::Elem(ea), At::Elem(eb)) => {
                        if ea != eb {
                            out.removed.push(ea.clone());
                            out.added.push(eb.clone());
                        }
                    }
                    (At::Elem(ea), At::Sub(bc)) => {
                        if !bc.contains(hash32(ea), next_shift(shift), ea) {
                            out.removed.push(ea.clone());
                        }
                        for_each_elem(bc, &mut |e| {
                            if e != ea {
                                out.added.push(e.clone());
                            }
                        });
                    }
                    (At::Sub(ac), At::Elem(eb)) => {
                        if !ac.contains(hash32(eb), next_shift(shift), eb) {
                            out.added.push(eb.clone());
                        }
                        for_each_elem(ac, &mut |e| {
                            if e != eb {
                                out.removed.push(e.clone());
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

/// A persistent (immutable, structurally shared) hash set.
///
/// Cheap to clone (`O(1)`, bumps one reference count); every update returns a
/// new set sharing unchanged sub-tries with its ancestors. See the
/// [module documentation](self) for the encoding.
pub struct AxiomSet<T> {
    pub(crate) root: Arc<Node<T>>,
    pub(crate) len: usize,
}

impl<T> Clone for AxiomSet<T> {
    fn clone(&self) -> Self {
        AxiomSet {
            root: Arc::clone(&self.root),
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
            root: Arc::new(Node::empty()),
            len: 0,
        }
    }

    /// Creates the two-element set used when a `1:1` multi-map slot is
    /// promoted to `1:n`. `a` and `b` must be distinct.
    pub(crate) fn from_two(a: T, b: T) -> Self {
        debug_assert!(a != b);
        let root = Node::pair(hash32(&a), a, hash32(&b), b, 0);
        AxiomSet {
            root: Arc::new(root),
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
        self.root.contains(hash32(value), 0, value)
    }

    /// Returns a reference to the stored element equal to `value`, if any.
    pub fn get<Q>(&self, value: &Q) -> Option<&T>
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.root.get(hash32(value), 0, value)
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
        let hash = hash32(&value);
        if Node::insert_in_place(&mut self.root, hash, 0, value) {
            self.len += 1;
            true
        } else {
            false
        }
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
        match Node::remove_in_place(&mut self.root, hash32(value), 0, value) {
            EditRemoved::NotFound => false,
            EditRemoved::Removed => {
                self.len -= 1;
                true
            }
            EditRemoved::Single(survivor) => {
                // Only reachable when the root collapses to one element.
                self.root = Arc::new(Node::single(survivor));
                self.len -= 1;
                true
            }
        }
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
            root: Arc::new(Node::single(value)),
            len: 1,
        }
    }

    /// Union of two sets via a lockstep structural walk: subtrees the
    /// operands share by pointer are reused wholesale, so the cost is
    /// O(changed) — and a self-union returns `self` without allocating.
    pub fn union(&self, other: &Self) -> Self {
        if other.is_empty() || Arc::ptr_eq(&self.root, &other.root) {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        match union_nodes(&self.root, &other.root, 0) {
            (None, _) => self.clone(),
            (Some(node), added) => AxiomSet {
                root: Arc::new(node),
                len: self.len + added,
            },
        }
    }

    /// Intersection of two sets via a lockstep structural walk (shared
    /// subtrees survive by pointer, cost O(changed)).
    pub fn intersect(&self, other: &Self) -> Self {
        if self.is_empty() || Arc::ptr_eq(&self.root, &other.root) {
            return self.clone();
        }
        if other.is_empty() {
            return AxiomSet::new();
        }
        match intersect_nodes(&self.root, &other.root, 0) {
            (Cut::Unchanged, _) => self.clone(),
            (Cut::Empty, _) => AxiomSet::new(),
            (Cut::One(e), _) => Self::singleton(e),
            (Cut::Node(n), removed) => AxiomSet {
                root: Arc::new(n),
                len: self.len - removed,
            },
        }
    }

    /// Elements of `self` not in `other`, via a lockstep structural walk
    /// (a shared subtree cancels out in O(1)).
    pub fn difference(&self, other: &Self) -> Self {
        if self.is_empty() || other.is_empty() {
            return self.clone();
        }
        if Arc::ptr_eq(&self.root, &other.root) {
            return AxiomSet::new();
        }
        match difference_nodes(&self.root, &other.root, 0) {
            (Cut::Unchanged, _) => self.clone(),
            (Cut::Empty, _) => AxiomSet::new(),
            (Cut::One(e), _) => Self::singleton(e),
            (Cut::Node(n), kept) => AxiomSet {
                root: Arc::new(n),
                len: kept,
            },
        }
    }

    /// What changed between `self` (old) and `other` (new): pointer-shared
    /// subtrees emit nothing, so output and walk are both O(changed).
    pub fn diff(&self, other: &Self) -> trie_common::ops::SetDiff<T> {
        let mut out = trie_common::ops::SetDiff::new();
        if Arc::ptr_eq(&self.root, &other.root) {
            return out;
        }
        if self.is_empty() {
            out.added.extend(other.iter().cloned());
            return out;
        }
        if other.is_empty() {
            out.removed.extend(self.iter().cloned());
            return out;
        }
        diff_nodes(&self.root, &other.root, 0, &mut out);
        out
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
fn validate<T: Clone + Eq + Hash>(node: &Node<T>, shift: u32, prefix: Option<u32>) -> usize {
    match node {
        Node::Collision(c) => {
            assert!(hash_exhausted(shift), "collision node above max depth");
            assert!(c.elems.len() >= 2, "collision node with < 2 elements");
            for (i, e) in c.elems.iter().enumerate() {
                assert_eq!(hash32(e), c.hash, "collision member hash");
                for later in &c.elems[i + 1..] {
                    assert!(later != e, "duplicate in collision node");
                }
            }
            if let Some(p) = prefix {
                assert_eq!(c.hash, p, "collision hash disagrees with path");
            }
            c.elems.len()
        }
        Node::Bitmap(b) => {
            assert!(!hash_exhausted(shift), "bitmap node below max depth");
            assert_eq!(b.bitmap.count(Category::Cat2), 0, "sets never use CAT2");
            assert_eq!(b.slots.len(), b.bitmap.arity(), "slot count");
            let mut total = 0usize;
            for (i, m) in b.bitmap.masks_of(Category::Cat1).enumerate() {
                match &b.slots[b.bitmap.offset(Category::Cat1) + i] {
                    Slot::Elem(e) => {
                        assert_eq!(mask(hash32(e), shift), m, "element in wrong branch");
                        total += 1;
                    }
                    Slot::Child(_) => panic!("payload slot holds a child"),
                }
            }
            for (i, m) in b.bitmap.masks_of(Category::Node).enumerate() {
                match &b.slots[b.bitmap.offset(Category::Node) + i] {
                    Slot::Child(child) => {
                        let sub = validate(child, next_shift(shift), prefix);
                        assert!(sub >= 2, "sub-trie with < 2 elements not inlined");
                        let _ = m;
                        total += sub;
                    }
                    Slot::Elem(_) => panic!("node slot holds payload"),
                }
            }
            if shift > 0 {
                assert!(
                    !(b.bitmap.payload_arity() == 1 && b.bitmap.node_arity() == 0),
                    "non-root singleton payload node must be inlined"
                );
                assert!(b.bitmap.arity() >= 1, "empty non-root node");
            }
            total
        }
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
        self.len == other.len
            && (Arc::ptr_eq(&self.root, &other.root) || node_eq(&self.root, &other.root))
    }
}

impl<T: Clone + Eq + Hash> Eq for AxiomSet<T> {}

fn node_eq<T: Clone + Eq + Hash>(a: &Node<T>, b: &Node<T>) -> bool {
    match (a, b) {
        (Node::Bitmap(x), Node::Bitmap(y)) => {
            x.bitmap == y.bitmap
                && x.slots
                    .iter()
                    .zip(y.slots.iter())
                    .all(|(s, t)| match (s, t) {
                        (Slot::Elem(e), Slot::Elem(f)) => e == f,
                        (Slot::Child(c), Slot::Child(d)) => {
                            // CHAMP-style short-circuit on shared sub-tries.
                            Arc::ptr_eq(c, d) || node_eq(c, d)
                        }
                        _ => false,
                    })
        }
        (Node::Collision(x), Node::Collision(y)) => {
            x.hash == y.hash
                && x.elems.len() == y.elems.len()
                && x.elems.iter().all(|e| y.elems.contains(e))
        }
        _ => false,
    }
}

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

/// Depth-first cursor into one node's slots.
enum Cursor<'a, T> {
    Bitmap { slots: &'a [Slot<T>], idx: usize },
    Collision { elems: &'a [T], idx: usize },
}

/// Iterator over the elements of an [`AxiomSet`]. Created by
/// [`AxiomSet::iter`].
///
/// Because slots are permuted by category, all of a node's inlined elements
/// are yielded before any sub-trie is entered — the paper's histogram-driven
/// batch iteration (§3.3) falls out of the grouping for free.
pub struct Iter<'a, T> {
    stack: Vec<Cursor<'a, T>>,
    remaining: usize,
}

impl<'a, T> Iter<'a, T> {
    pub(crate) fn new(root: &'a Node<T>, len: usize) -> Self {
        let mut stack = Vec::with_capacity(8);
        stack.push(cursor_of(root));
        Iter {
            stack,
            remaining: len,
        }
    }
}

fn cursor_of<T>(node: &Node<T>) -> Cursor<'_, T> {
    match node {
        Node::Bitmap(b) => Cursor::Bitmap {
            slots: &b.slots,
            idx: 0,
        },
        Node::Collision(c) => Cursor::Collision {
            elems: &c.elems,
            idx: 0,
        },
    }
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            let top = self.stack.last_mut()?;
            match top {
                Cursor::Collision { elems, idx } => {
                    if *idx < elems.len() {
                        let out = &elems[*idx];
                        *idx += 1;
                        self.remaining -= 1;
                        return Some(out);
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
                        Slot::Elem(e) => {
                            self.remaining -= 1;
                            return Some(e);
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
        // Union with self (or an equal-rooted successor) reuses the root Arc.
        let self_union = a.union(&a.clone());
        assert!(Arc::ptr_eq(&self_union.root, &a.root));
        // Union where `other` adds nothing also reuses the root.
        let back = b.union(&a);
        assert!(Arc::ptr_eq(&back.root, &b.root));
        // Intersection with a superset keeps `self` unchanged by pointer.
        let inter = a.intersect(&b);
        assert!(Arc::ptr_eq(&inter.root, &a.root));
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
