//! The CHAMP persistent hash set (the map's sibling; see [`crate::map`]).
//!
//! Used by the evaluation as the nested collection of the map-of-sets
//! multi-map baseline (`idiomatic::NestedChampMultiMap`, the "CHAMP" column
//! of Table 1) and as a standalone set.
//!
//! # Examples
//!
//! ```
//! use champ::ChampSet;
//!
//! let s: ChampSet<u32> = (0..10).collect();
//! assert!(s.contains(&7));
//! assert_eq!(s.removed(&7).len(), 9);
//! assert_eq!(s.len(), 10); // persistent
//! ```

use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::Arc;

use trie_common::bits::{bit_pos, hash_exhausted, index_in, mask, next_shift};
use trie_common::hash::hash32;
use trie_common::slices::{edit_child, insert_slot, migrate_map, remove_slot, survivor, CowNode};

/// One physical slot: an element or a sub-trie.
#[derive(Debug, Clone)]
pub(crate) enum Slot<T> {
    Elem(T),
    Child(Arc<Node<T>>),
}

/// A CHAMP set node.
#[derive(Debug, Clone)]
pub(crate) struct BitmapNode<T> {
    pub(crate) datamap: u32,
    pub(crate) nodemap: u32,
    pub(crate) slots: Box<[Slot<T>]>,
}

impl<T> BitmapNode<T> {
    #[inline]
    pub(crate) fn payload_arity(&self) -> usize {
        self.datamap.count_ones() as usize
    }

    #[inline]
    pub(crate) fn node_arity(&self) -> usize {
        self.nodemap.count_ones() as usize
    }

    #[inline]
    fn data_index(&self, bit: u32) -> usize {
        index_in(self.datamap, bit)
    }

    #[inline]
    fn node_index(&self, bit: u32) -> usize {
        self.payload_arity() + index_in(self.nodemap, bit)
    }
}

/// Hash-collision overflow node.
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

/// Removal outcome: the walk edits or copies nodes where they stand, so
/// only the canonicalization payload travels upward.
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
            datamap: 0,
            nodemap: 0,
            slots: Box::new([]),
        })
    }

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
                datamap: 0,
                nodemap: bit_pos(m1),
                slots: Box::new([Slot::Child(Arc::new(child))]),
            })
        } else {
            let slots: Box<[Slot<T>]> = if m1 < m2 {
                Box::new([Slot::Elem(e1), Slot::Elem(e2)])
            } else {
                Box::new([Slot::Elem(e2), Slot::Elem(e1)])
            };
            Node::Bitmap(BitmapNode {
                datamap: bit_pos(m1) | bit_pos(m2),
                nodemap: 0,
                slots,
            })
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
                let bit = bit_pos(mask(hash, shift));
                if b.datamap & bit != 0 {
                    match &b.slots[b.data_index(bit)] {
                        Slot::Elem(e) => e.borrow() == value,
                        Slot::Child(_) => unreachable!("datamap says element"),
                    }
                } else if b.nodemap & bit != 0 {
                    match &b.slots[b.node_index(bit)] {
                        Slot::Child(child) => child.contains(hash, next_shift(shift), value),
                        Slot::Elem(_) => unreachable!("nodemap says child"),
                    }
                } else {
                    false
                }
            }
        }
    }

    /// Inserts `value` below `this`, editing unique nodes in place and
    /// copying shared ones on write (see [`trie_common::slices`]). Returns
    /// true if the set grew.
    fn insert_in_place(this: &mut Arc<Node<T>>, hash: u32, shift: u32, value: T) -> bool {
        let b = match &**this {
            Node::Collision(c) => {
                debug_assert_eq!(c.hash, hash);
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
        let bit = bit_pos(mask(hash, shift));
        if b.datamap & bit != 0 {
            let idx = b.data_index(bit);
            let Slot::Elem(existing) = &b.slots[idx] else {
                unreachable!("datamap says element")
            };
            if *existing == value {
                return false;
            }
            // Prefix clash: the element migrates data group → node group;
            // both elements move into the fresh sub-trie.
            let existing_hash = hash32(existing);
            let Node::Bitmap(b) = Arc::make_mut(this) else {
                unreachable!("matched a bitmap node")
            };
            b.datamap &= !bit;
            b.nodemap |= bit;
            let to = b.node_index(bit);
            migrate_map(&mut b.slots, idx, to, |slot| {
                let Slot::Elem(existing) = slot else {
                    unreachable!("datamap says element")
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
        } else if b.nodemap & bit != 0 {
            let idx = b.node_index(bit);
            edit_child(
                this,
                idx,
                |child| Node::insert_in_place(child, hash, next_shift(shift), value),
                |&grew| grew,
            )
        } else {
            let bitmap = (b.datamap | bit, b.nodemap);
            let idx = index_in(bitmap.0, bit);
            insert_slot(this, bitmap, idx, Slot::Elem(value));
            true
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
        let bit = bit_pos(mask(hash, shift));
        if b.datamap & bit != 0 {
            let idx = b.data_index(bit);
            let Slot::Elem(e) = &b.slots[idx] else {
                unreachable!("datamap says element")
            };
            if e.borrow() != value {
                return EditRemoved::NotFound;
            }
            let bitmap = (b.datamap & !bit, b.nodemap);
            if shift > 0 && bitmap.0.count_ones() == 1 && bitmap.1 == 0 {
                // The node held exactly two elements; hand the survivor to
                // the parent for inlining.
                let Slot::Elem(e) = survivor(this, idx) else {
                    unreachable!("both slots are payload")
                };
                return EditRemoved::Single(e);
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
                |child| Node::remove_in_place(child, hash, next_shift(shift), value),
                |outcome| matches!(outcome, EditRemoved::Removed),
            ) {
                EditRemoved::Single(e) if !chain => {
                    // Inline the survivor: the slot migrates node group →
                    // data group, dropping the collapsed child.
                    let Node::Bitmap(b) = Arc::make_mut(this) else {
                        unreachable!("matched a bitmap node")
                    };
                    b.datamap |= bit;
                    b.nodemap &= !bit;
                    let to = b.data_index(bit);
                    migrate_map(&mut b.slots, idx, to, |_child| Slot::Elem(e));
                    EditRemoved::Removed
                }
                outcome => outcome,
            }
        } else {
            EditRemoved::NotFound
        }
    }
}

impl<T: Clone> CowNode for Node<T> {
    type Bitmap = (u32, u32);
    type Slot = Slot<T>;

    fn parts(&self) -> ((u32, u32), &[Slot<T>]) {
        match self {
            Node::Bitmap(b) => ((b.datamap, b.nodemap), &b.slots),
            Node::Collision(_) => unreachable!("only bitmap nodes have slots"),
        }
    }

    fn slots_mut(&mut self) -> &mut Box<[Slot<T>]> {
        match self {
            Node::Bitmap(b) => &mut b.slots,
            Node::Collision(_) => unreachable!("only bitmap nodes have slots"),
        }
    }

    fn of_parts((datamap, nodemap): (u32, u32), slots: Box<[Slot<T>]>) -> Self {
        Node::Bitmap(BitmapNode {
            datamap,
            nodemap,
            slots,
        })
    }

    fn child_mut(slot: &mut Slot<T>) -> &mut Arc<Self> {
        match slot {
            Slot::Child(child) => child,
            Slot::Elem(_) => unreachable!("nodemap says child"),
        }
    }
}

// ---------------------------------------------------------------------------
// Structural set algebra: lockstep node walks (mirrors `axiom::set`, with
// the split datamap/nodemap bitmaps instead of the 2-bit `SlotBitmap`).
// CHAMP's canonical form makes `Arc::ptr_eq` a sound subtree-equivalence
// test, so shared subtrees short-circuit and bulk ops cost O(changed).
// ---------------------------------------------------------------------------

/// What one lockstep walk found at a mask position.
enum At<'a, T> {
    Nothing,
    Elem(&'a T),
    Sub(&'a Arc<Node<T>>),
}

fn at<'a, T>(b: &'a BitmapNode<T>, bit: u32) -> At<'a, T> {
    if b.datamap & bit != 0 {
        match &b.slots[b.data_index(bit)] {
            Slot::Elem(e) => At::Elem(e),
            Slot::Child(_) => unreachable!("datamap says element"),
        }
    } else if b.nodemap & bit != 0 {
        match &b.slots[b.node_index(bit)] {
            Slot::Child(c) => At::Sub(c),
            Slot::Elem(_) => unreachable!("nodemap says child"),
        }
    } else {
        At::Nothing
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
fn assemble<T>(
    datamap: u32,
    nodemap: u32,
    mut payload: Vec<Slot<T>>,
    children: Vec<Slot<T>>,
) -> Cut<T> {
    match (payload.len(), children.len()) {
        (0, 0) => Cut::Empty,
        (1, 0) => match payload.pop() {
            Some(Slot::Elem(e)) => Cut::One(e),
            _ => unreachable!("payload group holds elements"),
        },
        _ => {
            payload.extend(children);
            Cut::Node(Node::Bitmap(BitmapNode {
                datamap,
                nodemap,
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
            let mut datamap = 0u32;
            let mut nodemap = 0u32;
            let mut payload: Vec<Slot<T>> = Vec::new();
            let mut children: Vec<Slot<T>> = Vec::new();
            let mut added = 0usize;
            let mut changed = false;
            for m in 0..32u32 {
                let bit = bit_pos(m);
                match (at(x, bit), at(y, bit)) {
                    (At::Nothing, At::Nothing) => {}
                    (At::Elem(ea), At::Nothing) => {
                        datamap |= bit;
                        payload.push(Slot::Elem(ea.clone()));
                    }
                    (At::Nothing, At::Elem(eb)) => {
                        datamap |= bit;
                        payload.push(Slot::Elem(eb.clone()));
                        added += 1;
                        changed = true;
                    }
                    (At::Sub(ac), At::Nothing) => {
                        nodemap |= bit;
                        children.push(Slot::Child(Arc::clone(ac)));
                    }
                    (At::Nothing, At::Sub(bc)) => {
                        nodemap |= bit;
                        added += node_len(bc);
                        children.push(Slot::Child(Arc::clone(bc)));
                        changed = true;
                    }
                    (At::Elem(ea), At::Elem(eb)) => {
                        if ea == eb {
                            datamap |= bit;
                            payload.push(Slot::Elem(ea.clone()));
                        } else {
                            nodemap |= bit;
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
                        // subtree; either way the slot becomes a child.
                        nodemap |= bit;
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
                        nodemap |= bit;
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
                        nodemap |= bit;
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
                    datamap,
                    nodemap,
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
            let mut datamap = 0u32;
            let mut nodemap = 0u32;
            let mut payload: Vec<Slot<T>> = Vec::new();
            let mut children: Vec<Slot<T>> = Vec::new();
            let mut removed = 0usize;
            let mut changed = false;
            for m in 0..32u32 {
                let bit = bit_pos(m);
                let pos_a = at(x, bit);
                if matches!(pos_a, At::Nothing) {
                    continue;
                }
                match (pos_a, at(y, bit)) {
                    (At::Elem(_), At::Nothing) => {
                        removed += 1;
                        changed = true;
                    }
                    (At::Elem(ea), At::Elem(eb)) => {
                        if ea == eb {
                            datamap |= bit;
                            payload.push(Slot::Elem(ea.clone()));
                        } else {
                            removed += 1;
                            changed = true;
                        }
                    }
                    (At::Elem(ea), At::Sub(bc)) => {
                        if bc.contains(hash32(ea), next_shift(shift), ea) {
                            datamap |= bit;
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
                            datamap |= bit;
                            payload.push(Slot::Elem(eb.clone()));
                            removed += total - 1;
                        } else {
                            removed += total;
                        }
                        changed = true;
                    }
                    (At::Sub(ac), At::Sub(bc)) => {
                        if Arc::ptr_eq(ac, bc) {
                            nodemap |= bit;
                            children.push(Slot::Child(Arc::clone(ac)));
                            continue;
                        }
                        match intersect_nodes(ac, bc, next_shift(shift)) {
                            (Cut::Unchanged, _) => {
                                nodemap |= bit;
                                children.push(Slot::Child(Arc::clone(ac)));
                            }
                            (Cut::Empty, r) => {
                                removed += r;
                                changed = true;
                            }
                            (Cut::One(e), r) => {
                                datamap |= bit;
                                payload.push(Slot::Elem(e));
                                removed += r;
                                changed = true;
                            }
                            (Cut::Node(n), r) => {
                                nodemap |= bit;
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
            (assemble(datamap, nodemap, payload, children), removed)
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
            let mut datamap = 0u32;
            let mut nodemap = 0u32;
            let mut payload: Vec<Slot<T>> = Vec::new();
            let mut children: Vec<Slot<T>> = Vec::new();
            let mut kept = 0usize;
            let mut changed = false;
            for m in 0..32u32 {
                let bit = bit_pos(m);
                let pos_a = at(x, bit);
                if matches!(pos_a, At::Nothing) {
                    continue;
                }
                match (pos_a, at(y, bit)) {
                    (At::Elem(ea), At::Nothing) => {
                        datamap |= bit;
                        payload.push(Slot::Elem(ea.clone()));
                        kept += 1;
                    }
                    (At::Elem(ea), At::Elem(eb)) => {
                        if ea == eb {
                            changed = true;
                        } else {
                            datamap |= bit;
                            payload.push(Slot::Elem(ea.clone()));
                            kept += 1;
                        }
                    }
                    (At::Elem(ea), At::Sub(bc)) => {
                        if bc.contains(hash32(ea), next_shift(shift), ea) {
                            changed = true;
                        } else {
                            datamap |= bit;
                            payload.push(Slot::Elem(ea.clone()));
                            kept += 1;
                        }
                    }
                    (At::Sub(ac), At::Nothing) => {
                        nodemap |= bit;
                        children.push(Slot::Child(Arc::clone(ac)));
                        kept += node_len(ac);
                    }
                    (At::Sub(ac), At::Elem(eb)) => {
                        let mut child = Arc::clone(ac);
                        match Node::remove_in_place(&mut child, hash32(eb), next_shift(shift), eb) {
                            EditRemoved::NotFound => {
                                nodemap |= bit;
                                children.push(Slot::Child(child));
                                kept += node_len(ac);
                            }
                            EditRemoved::Removed => {
                                kept += node_len(&child);
                                nodemap |= bit;
                                children.push(Slot::Child(child));
                                changed = true;
                            }
                            EditRemoved::Single(e) => {
                                datamap |= bit;
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
                                nodemap |= bit;
                                children.push(Slot::Child(Arc::clone(ac)));
                                kept += k;
                            }
                            (Cut::Empty, _) => changed = true,
                            (Cut::One(e), _) => {
                                datamap |= bit;
                                payload.push(Slot::Elem(e));
                                kept += 1;
                                changed = true;
                            }
                            (Cut::Node(n), k) => {
                                nodemap |= bit;
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
            (assemble(datamap, nodemap, payload, children), kept)
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
                let bit = bit_pos(m);
                match (at(x, bit), at(y, bit)) {
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

/// A persistent hash set with the CHAMP encoding. See the
/// [module documentation](self).
pub struct ChampSet<T> {
    pub(crate) root: Arc<Node<T>>,
    pub(crate) len: usize,
}

impl<T> Clone for ChampSet<T> {
    fn clone(&self) -> Self {
        ChampSet {
            root: Arc::clone(&self.root),
            len: self.len,
        }
    }
}

impl<T: Clone + Eq + Hash> ChampSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        ChampSet {
            root: Arc::new(Node::empty()),
            len: 0,
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
    pub fn contains<Q>(&self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.root.contains(hash32(value), 0, value)
    }

    /// Returns a set including `value`; `self` is unchanged.
    pub fn inserted(&self, value: T) -> Self {
        let mut next = self.clone();
        next.insert_mut(value);
        next
    }

    /// Inserts `value` in place: uniquely-owned trie nodes along the spine
    /// are edited directly, shared nodes are path-copied. Returns true if
    /// the set grew.
    pub fn insert_mut(&mut self, value: T) -> bool {
        let hash = hash32(&value);
        if Node::insert_in_place(&mut self.root, hash, 0, value) {
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Returns a set excluding `value`; `self` is unchanged.
    pub fn removed<Q>(&self, value: &Q) -> Self
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let mut next = self.clone();
        next.remove_mut(value);
        next
    }

    /// Removes `value` in place: uniquely-owned trie nodes along the spine
    /// are edited directly, shared nodes are path-copied. Returns true if
    /// the set shrank.
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
                *self = Self::singleton(survivor);
                true
            }
        }
    }

    /// The sole element of a singleton set.
    ///
    /// # Panics
    ///
    /// Panics if the set does not hold exactly one element.
    pub fn sole(&self) -> &T {
        assert_eq!(self.len, 1, "sole() requires a singleton set");
        self.iter().next().expect("len == 1")
    }

    /// Iterates the elements in unspecified (trie) order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            stack: vec![cursor_of(&self.root)],
            remaining: self.len,
        }
    }

    /// Rebuilds the one-element set (canonicalization helper).
    fn singleton(value: T) -> Self {
        let mut set = ChampSet::new();
        set.insert_mut(value);
        set
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
            (Some(node), added) => ChampSet {
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
            return ChampSet::new();
        }
        match intersect_nodes(&self.root, &other.root, 0) {
            (Cut::Unchanged, _) => self.clone(),
            (Cut::Empty, _) => ChampSet::new(),
            (Cut::One(e), _) => Self::singleton(e),
            (Cut::Node(n), removed) => ChampSet {
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
            return ChampSet::new();
        }
        match difference_nodes(&self.root, &other.root, 0) {
            (Cut::Unchanged, _) => self.clone(),
            (Cut::Empty, _) => ChampSet::new(),
            (Cut::One(e), _) => Self::singleton(e),
            (Cut::Node(n), kept) => ChampSet {
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
        let mut out = ChampSet::new();
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
        let mut out = ChampSet::new();
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
        let counted = validate(&self.root, 0);
        assert_eq!(counted, self.len, "len bookkeeping");
    }
}

fn validate<T: Clone + Eq + Hash>(node: &Node<T>, shift: u32) -> usize {
    match node {
        Node::Collision(c) => {
            assert!(hash_exhausted(shift));
            assert!(c.elems.len() >= 2);
            for e in &c.elems {
                assert_eq!(hash32(e), c.hash);
            }
            c.elems.len()
        }
        Node::Bitmap(b) => {
            assert_eq!(b.datamap & b.nodemap, 0, "maps must be disjoint");
            assert_eq!(b.slots.len(), b.payload_arity() + b.node_arity());
            let mut total = 0;
            for (i, slot) in b.slots.iter().enumerate() {
                match slot {
                    Slot::Elem(e) => {
                        assert!(i < b.payload_arity());
                        let m = mask(hash32(e), shift);
                        assert!(b.datamap & bit_pos(m) != 0);
                        total += 1;
                    }
                    Slot::Child(child) => {
                        assert!(i >= b.payload_arity());
                        let sub = validate(child, next_shift(shift));
                        assert!(sub >= 2, "sub-trie with < 2 elements not inlined");
                        total += sub;
                    }
                }
            }
            if shift > 0 {
                assert!(!(b.payload_arity() == 1 && b.node_arity() == 0));
            }
            total
        }
    }
}

impl<T: Clone + Eq + Hash> Default for ChampSet<T> {
    fn default() -> Self {
        ChampSet::new()
    }
}

impl<T: Clone + Eq + Hash> std::ops::BitOr for &ChampSet<T> {
    type Output = ChampSet<T>;

    /// `a | b` is the structural [`union`](ChampSet::union).
    fn bitor(self, rhs: Self) -> ChampSet<T> {
        self.union(rhs)
    }
}

impl<T: Clone + Eq + Hash> std::ops::BitAnd for &ChampSet<T> {
    type Output = ChampSet<T>;

    /// `a & b` is the structural [`intersect`](ChampSet::intersect).
    fn bitand(self, rhs: Self) -> ChampSet<T> {
        self.intersect(rhs)
    }
}

impl<T: Clone + Eq + Hash> std::ops::Sub for &ChampSet<T> {
    type Output = ChampSet<T>;

    /// `a - b` is the structural [`difference`](ChampSet::difference).
    fn sub(self, rhs: Self) -> ChampSet<T> {
        self.difference(rhs)
    }
}

impl<T: Clone + Eq + Hash> PartialEq for ChampSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && (Arc::ptr_eq(&self.root, &other.root) || node_eq(&self.root, &other.root))
    }
}

impl<T: Clone + Eq + Hash> Eq for ChampSet<T> {}

fn node_eq<T: Clone + Eq + Hash>(a: &Node<T>, b: &Node<T>) -> bool {
    match (a, b) {
        (Node::Bitmap(x), Node::Bitmap(y)) => {
            x.datamap == y.datamap
                && x.nodemap == y.nodemap
                && x.slots
                    .iter()
                    .zip(y.slots.iter())
                    .all(|(s, t)| match (s, t) {
                        (Slot::Elem(e), Slot::Elem(f)) => e == f,
                        (Slot::Child(c), Slot::Child(d)) => Arc::ptr_eq(c, d) || node_eq(c, d),
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

impl<T: Clone + Eq + Hash> std::hash::Hash for ChampSet<T> {
    /// Order-independent hash (sum of element hashes).
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let mut acc = 0u64;
        for v in self.iter() {
            acc = acc.wrapping_add(hash32(v) as u64);
        }
        state.write_u64(acc);
        state.write_usize(self.len);
    }
}

impl<T: std::fmt::Debug + Clone + Eq + Hash> std::fmt::Debug for ChampSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: Clone + Eq + Hash> FromIterator<T> for ChampSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        trie_common::ops::from_iter_via(iter)
    }
}

impl<T: Clone + Eq + Hash> Extend<T> for ChampSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        trie_common::ops::extend_via(self, iter);
    }
}

impl<'a, T: Clone + Eq + Hash> IntoIterator for &'a ChampSet<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

enum Cursor<'a, T> {
    Bitmap { slots: &'a [Slot<T>], idx: usize },
    Collision { elems: &'a [T], idx: usize },
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

/// Iterator over set elements. Created by [`ChampSet::iter`].
pub struct Iter<'a, T> {
    stack: Vec<Cursor<'a, T>>,
    remaining: usize,
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
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
    fn basics_and_roundtrip() {
        let mut s = ChampSet::new();
        for i in 0..600u32 {
            assert!(s.insert_mut(i));
        }
        assert_eq!(s.len(), 600);
        s.assert_invariants();
        for i in 0..600u32 {
            assert!(s.contains(&i));
            assert!(s.remove_mut(&i));
        }
        assert!(s.is_empty());
        s.assert_invariants();
    }

    #[test]
    fn collisions() {
        let mut s = ChampSet::new();
        for id in 0..8 {
            s.insert_mut(Collide { bucket: 77, id });
        }
        assert_eq!(s.len(), 8);
        s.assert_invariants();
        for id in 0..7 {
            assert!(s.remove_mut(&Collide { bucket: 77, id }));
            s.assert_invariants();
        }
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn algebra() {
        let a: ChampSet<u32> = (0..20).collect();
        let b: ChampSet<u32> = (10..30).collect();
        assert_eq!(a.union(&b).len(), 30);
        assert_eq!(a.intersect(&b).len(), 10);
        assert_eq!(a.difference(&b).len(), 10);
        assert!(a.intersect(&b).is_subset(&a));
        // Structural and element-wise paths agree.
        assert_eq!(a.union(&b), a.union_elementwise(&b));
        assert_eq!(a.intersect(&b), a.intersect_elementwise(&b));
        assert_eq!(a.difference(&b), a.difference_elementwise(&b));
        // Operator sugar routes through the structural walks.
        assert_eq!(&a | &b, a.union(&b));
        assert_eq!(&a & &b, a.intersect(&b));
        assert_eq!(&a - &b, a.difference(&b));
    }

    #[test]
    fn algebra_shares_structure() {
        let a: ChampSet<u32> = (0..1000).collect();
        let b = a.inserted(5000);
        assert_eq!(a.union(&b), b);
        let self_union = a.union(&a.clone());
        assert!(Arc::ptr_eq(&self_union.root, &a.root));
        let back = b.union(&a);
        assert!(Arc::ptr_eq(&back.root, &b.root));
        let inter = a.intersect(&b);
        assert!(Arc::ptr_eq(&inter.root, &a.root));
        assert!(a.difference(&a.clone()).is_empty());
        assert_eq!(b.difference(&a).len(), 1);
        a.union(&b).assert_invariants();
    }

    #[test]
    fn diff_is_sparse() {
        let a: ChampSet<u32> = (0..1000).collect();
        let mut b = a.clone();
        b.insert_mut(7777);
        b.remove_mut(&13);
        let d = a.diff(&b);
        assert_eq!(d.added, vec![7777]);
        assert_eq!(d.removed, vec![13]);
        assert!(a.diff(&a.clone()).is_empty());
    }

    #[test]
    fn algebra_with_collisions() {
        let a: ChampSet<Collide> = (0..40).map(|id| Collide { bucket: id % 4, id }).collect();
        let b: ChampSet<Collide> = (20..60).map(|id| Collide { bucket: id % 4, id }).collect();
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
    fn persistence_and_equality() {
        let v0: ChampSet<u32> = (0..100).collect();
        let v1 = v0.inserted(200);
        assert_eq!(v0.len(), 100);
        assert_ne!(v0, v1);
        assert_eq!(v0, v1.removed(&200));
        let elems: BTreeSet<u32> = v0.iter().copied().collect();
        assert_eq!(elems, (0..100).collect());
    }

    #[test]
    fn sole() {
        let s: ChampSet<u32> = std::iter::once(9).collect();
        assert_eq!(*s.sole(), 9);
    }
}
