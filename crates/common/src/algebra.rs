//! The structural walks over two hash-tries, written once: `union`,
//! `intersect`, `difference`, `diff` and `==`.
//!
//! A set is the homogeneous case of the AXIOM encoding, "exactly the CHAMP
//! special case" (paper §3.1), so the set algebra is one algorithm over two
//! bitmap syntaxes, and a map `diff` is the same lockstep walk with values.
//! Each trie supplies a read-only view of its nodes ([`Trie`]):
//!
//! * its occupied branches in ascending mask order, as nothing, a payload
//!   or a sub-trie, through a cursor of its own (for AXIOM and CHAMP the
//!   one view of [`crate::node`], whose bitmap picks the payload or the
//!   sub-trie run; the HAMT's one bitmap steps its mixed run);
//! * its payload and its sub-tries, each ascending by mask (a collision
//!   node's payload is all of its entries);
//! * `Arc::ptr_eq` (or `Packed::ptr_eq`) on node handles;
//! * the point lookup the walks call below a child.
//!
//! A set adds the edit hooks ([`SetTrie`]): `pair`, insert and remove below
//! a child, and a builder that takes payload and children in mask order.
//! The walks run the two tries in lockstep and skip every pair of subtrees
//! the operands share by pointer, so they cost O(changed), and results
//! canonicalize on the way up: a branch left with nothing is dropped, and a
//! sub-trie left with one element hands it to its parent to inline.
//!
//! **Canonicity is a per-trie property.** Pointer equality is always a
//! one-way test (the same node holds the same content). It is two-way,
//! equal content implying equal shape, only on canonical tries (Appel and
//! Leroy, *Efficient Extensional Binary Tries*): AXIOM and CHAMP, which
//! inline collapsed sub-tries on delete. Those implement [`Canonical`] and
//! get the structural `==` ([`eq`]), which compares bitmaps and never looks
//! up an element. The Clojure-style HAMT keeps degenerate paths after
//! deletes, so it implements [`Trie`] only: its `diff` recurses into equal
//! subtrees that are not pointer-equal (emitting nothing for them), and
//! falls back to comparing entry lists where node kinds do not align.

use std::hash::Hash;

use crate::bits::{bit_pos, hash_exhausted, mask, next_shift};
use crate::hash::hash32;
use crate::ops::{MapDiff, SetDiff};

/// What a node holds at one branch.
#[derive(Debug)]
pub enum At<'a, S: Trie> {
    /// The branch is empty.
    Nothing,
    /// An inlined payload: a set's element (with the unit value), or a
    /// map's key and value.
    Payload(&'a S::Key, &'a S::Value),
    /// A sub-trie.
    Sub(&'a S::Node),
}

/// A read-only view of one trie encoding's nodes: what the structural
/// walks need to pair two tries branch by branch.
pub trait Trie: Sized {
    /// A set's element, or a map's key.
    type Key: Clone + Eq + Hash;
    /// A map's value; `()` for a set.
    type Value: Clone + PartialEq;
    /// A node handle: cloning it shares the node.
    type Node: Clone;

    /// True if the two handles point to the same node.
    fn ptr_eq(a: &Self::Node, b: &Self::Node) -> bool;

    /// The masks occupied in `a` or in `b`, ascending: the branches a
    /// lockstep walk of two bitmap nodes visits.
    fn occupied_with(a: &Self::Node, b: &Self::Node) -> impl Iterator<Item = u32>;

    /// A cursor over a bitmap node's branches: called for ascending masks
    /// that cover every branch the node occupies, it returns what the node
    /// holds at each.
    fn cursor<'a>(node: &'a Self::Node) -> impl FnMut(u32) -> At<'a, Self>
    where
        Self: 'a;

    /// A node's payload, ascending by mask; for a collision node, all of
    /// its entries.
    fn payload<'a>(
        node: &'a Self::Node,
    ) -> impl Iterator<Item = (&'a Self::Key, &'a Self::Value)> + Clone
    where
        Self: 'a;

    /// A node's sub-tries, ascending by mask.
    fn children<'a>(node: &'a Self::Node) -> impl Iterator<Item = &'a Self::Node>
    where
        Self: 'a;

    /// The value bound to `key` below `node`, whose branches are selected
    /// by the hash bits from `shift` on.
    fn get<'a>(
        node: &'a Self::Node,
        hash: u32,
        shift: u32,
        key: &Self::Key,
    ) -> Option<&'a Self::Value>
    where
        Self: 'a;

    /// False if `a` and `b`, at one depth, are not both bitmap nodes, so
    /// their branches cannot be paired. Only a non-canonical trie can get
    /// there; the diff then compares their entries outright.
    fn aligned(_a: &Self::Node, _b: &Self::Node) -> bool {
        true
    }
}

/// A canonical trie: equal contents have equal shapes, so two nodes with
/// the same content have the same bitmap and pointer equality is a two-way
/// test.
pub trait Canonical: Trie {
    /// True if the two bitmap nodes occupy the same branches with the same
    /// kinds and hold equal payloads: all of `==` but the sub-tries.
    fn same_payload(a: &Self::Node, b: &Self::Node) -> bool;
}

/// A canonical set trie: the edit hooks and the node builder the shrinking
/// and growing walks call.
pub trait SetTrie: Canonical<Value = ()> {
    /// The minimal sub-trie holding two distinct elements whose hash
    /// prefixes agree up to `shift`.
    fn pair(h1: u32, e1: Self::Key, h2: u32, e2: Self::Key, shift: u32) -> Self::Node;

    /// Inserts `e` below `node` (copying shared nodes on write). Returns
    /// true if the set grew.
    fn insert(node: &mut Self::Node, hash: u32, shift: u32, e: Self::Key) -> bool;

    /// Removes `e` from below `node` (copying shared nodes on write),
    /// canonicalizing on the way up.
    fn remove(node: &mut Self::Node, hash: u32, shift: u32, e: &Self::Key) -> Removal<Self::Key>;

    /// A collision node of two or more elements sharing one hash.
    fn collision(elems: Vec<Self::Key>) -> Self::Node;

    /// A bitmap node with the elements at the masks set in `elem_masks`
    /// and the sub-tries at those set in `child_masks`, each ascending by
    /// mask.
    fn assemble(
        elem_masks: u32,
        child_masks: u32,
        elems: impl ExactSizeIterator<Item = Self::Key>,
        children: impl ExactSizeIterator<Item = Self::Node>,
    ) -> Self::Node;
}

/// What removing one element from below a node did.
#[derive(Debug)]
pub enum Removal<T> {
    /// The element was not there.
    NotFound,
    /// The element is gone.
    Removed,
    /// The sub-tree collapsed to one element (a unique node is left empty;
    /// the parent drops it and inlines the survivor).
    Single(T),
}

/// Where a diff reports each change: [`SetDiff`] and [`MapDiff`].
pub trait Sink<K, V> {
    /// `key` (bound to `value`) is only in the old trie.
    fn removed(&mut self, key: &K, value: &V);
    /// `key` (bound to `value`) is only in the new trie.
    fn added(&mut self, key: &K, value: &V);
    /// `key` is in both, bound to `old` and to the unequal `new`.
    fn changed(&mut self, key: &K, old: &V, new: &V);
}

impl<T: Clone> Sink<T, ()> for SetDiff<T> {
    fn removed(&mut self, key: &T, _: &()) {
        self.removed.push(key.clone());
    }

    fn added(&mut self, key: &T, _: &()) {
        self.added.push(key.clone());
    }

    /// Never called: a set's values are all `()`, so never unequal.
    fn changed(&mut self, _: &T, _: &(), _: &()) {}
}

impl<K: Clone, V: Clone> Sink<K, V> for MapDiff<K, V> {
    fn removed(&mut self, key: &K, value: &V) {
        self.removed.push((key.clone(), value.clone()));
    }

    fn added(&mut self, key: &K, value: &V) {
        self.added.push((key.clone(), value.clone()));
    }

    fn changed(&mut self, key: &K, old: &V, new: &V) {
        self.changed.push((key.clone(), old.clone(), new.clone()));
    }
}

/// The ascending positions of the bits set in `bitmap`.
///
/// ```
/// use trie_common::algebra::masks;
///
/// assert_eq!(masks(0b1010_0001).collect::<Vec<_>>(), [0, 5, 7]);
/// ```
pub fn masks(mut bitmap: u32) -> impl Iterator<Item = u32> + Clone {
    std::iter::from_fn(move || {
        let m = bitmap.trailing_zeros();
        bitmap &= bitmap.wrapping_sub(1);
        (m < 32).then_some(m)
    })
}

/// A set given as its root node and its length.
pub type Root<'a, S> = (&'a <S as Trie>::Node, usize);

/// `a ∪ b`: `None` when the union is `a` itself (the caller reuses its
/// handle), else the new root and length. A self-union allocates nothing.
pub fn union<'a, S: SetTrie + 'a>(a: Root<'a, S>, b: Root<'a, S>) -> Option<(S::Node, usize)> {
    if b.1 == 0 || S::ptr_eq(a.0, b.0) {
        return None;
    }
    if a.1 == 0 {
        return Some((b.0.clone(), b.1));
    }
    union_nodes::<S>(a.0, b.0, 0).map(|(root, added)| (root, a.1 + added))
}

/// `a ∩ b`: `None` when the intersection is `a` itself, else the new root
/// and length. Subtrees the operands share survive by pointer.
pub fn intersect<'a, S: SetTrie + 'a>(a: Root<'a, S>, b: Root<'a, S>) -> Option<(S::Node, usize)> {
    if a.1 == 0 || S::ptr_eq(a.0, b.0) {
        return None;
    }
    if b.1 == 0 {
        return rooted::<S>(Cut::Empty, 0);
    }
    let (cut, removed) = intersect_nodes::<S>(a.0, b.0, 0);
    rooted::<S>(cut, a.1 - removed)
}

/// `a \ b`: `None` when the difference is `a` itself, else the new root
/// and length. A subtree the operands share cancels out in O(1).
pub fn difference<'a, S: SetTrie + 'a>(a: Root<'a, S>, b: Root<'a, S>) -> Option<(S::Node, usize)> {
    if a.1 == 0 || b.1 == 0 {
        return None;
    }
    if S::ptr_eq(a.0, b.0) {
        return rooted::<S>(Cut::Empty, 0);
    }
    let (cut, kept) = difference_nodes::<S>(a.0, b.0, 0);
    rooted::<S>(cut, kept)
}

/// What changed from the trie at root `a` (old) to the one at root `b`
/// (new), reported into the empty `out`. Pointer-shared subtrees emit
/// nothing, so output and walk are both O(changed).
pub fn diff<'a, S, D>(a: &'a S::Node, b: &'a S::Node, mut out: D) -> D
where
    S: Trie + 'a,
    D: Sink<S::Key, S::Value>,
{
    if S::ptr_eq(a, b) {
        return out;
    }
    if is_empty::<S>(a) {
        for_each::<S>(b, &mut |k, v| out.added(k, v));
    } else if is_empty::<S>(b) {
        for_each::<S>(a, &mut |k, v| out.removed(k, v));
    } else {
        diff_nodes::<S, D>(a, b, 0, &mut out);
    }
    out
}

/// True if the canonical tries at roots `a` and `b` hold the same content:
/// bitmaps and payloads compare slot by slot, and a shared subtree
/// compares in O(1).
pub fn eq<'a, S: Canonical + 'a>(a: &'a S::Node, b: &'a S::Node) -> bool {
    S::ptr_eq(a, b) || node_eq::<S>(a, b, 0)
}

/// A shrinking walk's result, driving canonicalization on the way up.
enum Cut<S: Trie> {
    /// The result is the left operand's subtree: reuse its handle.
    Unchanged,
    /// Nothing survives below this branch.
    Empty,
    /// Exactly one element survives: the parent inlines it.
    One(S::Key),
    /// A rebuilt (canonical) node.
    Node(S::Node),
}

/// The root of a walk's result (see [`union`]).
fn rooted<S: SetTrie>(cut: Cut<S>, len: usize) -> Option<(S::Node, usize)> {
    use std::iter::empty;
    match cut {
        Cut::Unchanged => None,
        Cut::Empty => Some((S::assemble(0, 0, empty(), empty()), 0)),
        Cut::One(e) => {
            let elem_masks = bit_pos(mask(hash32(&e), 0));
            Some((S::assemble(elem_masks, 0, std::iter::once(e), empty()), 1))
        }
        Cut::Node(root) => Some((root, len)),
    }
}

/// A bitmap node under construction: payload and children arrive in
/// ascending mask order.
struct Builder<S: Trie> {
    elem_masks: u32,
    child_masks: u32,
    elems: Vec<S::Key>,
    children: Vec<S::Node>,
}

impl<S: SetTrie> Builder<S> {
    fn new() -> Self {
        Builder {
            elem_masks: 0,
            child_masks: 0,
            elems: Vec::new(),
            children: Vec::new(),
        }
    }

    fn elem(&mut self, m: u32, e: S::Key) {
        self.elem_masks |= bit_pos(m);
        self.elems.push(e);
    }

    fn child(&mut self, m: u32, child: S::Node) {
        self.child_masks |= bit_pos(m);
        self.children.push(child);
    }

    /// Places a sub-walk's result at `m`; `left` is the left operand's
    /// subtree there.
    fn cut(&mut self, m: u32, cut: Cut<S>, left: &S::Node) {
        match cut {
            Cut::Unchanged => self.child(m, left.clone()),
            Cut::Empty => {}
            Cut::One(e) => self.elem(m, e),
            Cut::Node(node) => self.child(m, node),
        }
    }

    fn node(self) -> S::Node {
        let (elems, children) = (self.elems.into_iter(), self.children.into_iter());
        S::assemble(self.elem_masks, self.child_masks, elems, children)
    }

    /// The canonical result: a node left with nothing, or with one element
    /// and no child, goes to the parent to drop or inline.
    fn finish(mut self) -> Cut<S> {
        match (self.elems.len(), self.children.len()) {
            (0, 0) => Cut::Empty,
            (1, 0) => Cut::One(self.elems.pop().expect("len == 1")),
            _ => Cut::Node(self.node()),
        }
    }
}

/// Both nodes' branches at every mask either occupies, ascending.
fn lockstep<'a, S: Trie + 'a>(
    a: &'a S::Node,
    b: &'a S::Node,
) -> impl Iterator<Item = (u32, At<'a, S>, At<'a, S>)> {
    let (mut xa, mut xb) = (S::cursor(a), S::cursor(b));
    S::occupied_with(a, b).map(move |m| (m, xa(m), xb(m)))
}

fn is_empty<'a, S: Trie + 'a>(root: &'a S::Node) -> bool {
    S::payload(root).next().is_none() && S::children(root).next().is_none()
}

/// Calls `f` for every payload below `node`: a node's payload, then its
/// sub-tries', depth first (the order AXIOM and CHAMP iterate in).
fn for_each<'a, S: Trie + 'a>(node: &'a S::Node, f: &mut impl FnMut(&'a S::Key, &'a S::Value)) {
    S::payload(node).for_each(|(k, v)| f(k, v));
    for child in S::children(node) {
        for_each::<S>(child, f);
    }
}

/// Elements below `node` (walked, not stored; only subtrees the operands do
/// not share are ever counted, keeping the walks O(changed)).
fn len<'a, S: Trie + 'a>(node: &'a S::Node) -> usize {
    S::payload(node).count() + S::children(node).map(len::<S>).sum::<usize>()
}

fn contains<'a, S: Trie + 'a>(node: &'a S::Node, shift: u32, e: &S::Key) -> bool {
    S::get(node, hash32(e), shift, e).is_some()
}

/// Lockstep union. `None` when the result is `a`, else the new node plus
/// how many elements it gained relative to `a`.
fn union_nodes<'a, S: SetTrie + 'a>(
    a: &'a S::Node,
    b: &'a S::Node,
    shift: u32,
) -> Option<(S::Node, usize)> {
    if hash_exhausted(shift) {
        let fresh: Vec<&S::Key> = S::payload(b)
            .map(|(e, _)| e)
            .filter(|e| !S::payload(a).any(|(x, _)| x == *e))
            .collect();
        if fresh.is_empty() {
            return None;
        }
        let added = fresh.len();
        let elems = S::payload(a)
            .map(|(e, _)| e)
            .chain(fresh)
            .cloned()
            .collect();
        return Some((S::collision(elems), added));
    }
    let next = next_shift(shift);
    let mut out = Builder::<S>::new();
    let mut added = 0usize;
    let mut changed = false;
    for (m, at_a, at_b) in lockstep::<S>(a, b) {
        match (at_a, at_b) {
            (At::Nothing, At::Nothing) => {}
            (At::Payload(ea, _), At::Nothing) => out.elem(m, ea.clone()),
            (At::Sub(ac), At::Nothing) => out.child(m, ac.clone()),
            (At::Nothing, At::Payload(eb, _)) => {
                out.elem(m, eb.clone());
                added += 1;
                changed = true;
            }
            (At::Nothing, At::Sub(bc)) => {
                out.child(m, bc.clone());
                added += len::<S>(bc);
                changed = true;
            }
            (At::Payload(ea, _), At::Payload(eb, _)) if ea == eb => out.elem(m, ea.clone()),
            (At::Payload(ea, _), At::Payload(eb, _)) => {
                let (ha, hb) = (hash32(ea), hash32(eb));
                out.child(m, S::pair(ha, ea.clone(), hb, eb.clone(), next));
                added += 1;
                changed = true;
            }
            (At::Payload(ea, _), At::Sub(bc)) => {
                // `a`'s lone element joins (or is absorbed by) `b`'s
                // subtree; either way the branch becomes a sub-trie.
                let mut child = bc.clone();
                added += len::<S>(bc);
                if !S::insert(&mut child, hash32(ea), next, ea.clone()) {
                    added -= 1;
                }
                out.child(m, child);
                changed = true;
            }
            (At::Sub(ac), At::Payload(eb, _)) => {
                let mut child = ac.clone();
                if S::insert(&mut child, hash32(eb), next, eb.clone()) {
                    added += 1;
                    changed = true;
                }
                out.child(m, child);
            }
            (At::Sub(ac), At::Sub(bc)) if S::ptr_eq(ac, bc) => out.child(m, ac.clone()),
            (At::Sub(ac), At::Sub(bc)) => match union_nodes::<S>(ac, bc, next) {
                None => out.child(m, ac.clone()),
                Some((node, more)) => {
                    out.child(m, node);
                    added += more;
                    changed = true;
                }
            },
        }
    }
    changed.then(|| (out.node(), added))
}

/// A collision node's surviving elements (of `total`), as a cut.
fn collision_cut<S: SetTrie>(mut elems: Vec<S::Key>, total: usize) -> Cut<S> {
    match elems.len() {
        n if n == total => Cut::Unchanged,
        0 => Cut::Empty,
        1 => Cut::One(elems.pop().expect("len == 1")),
        _ => Cut::Node(S::collision(elems)),
    }
}

/// Lockstep intersection. Returns the surviving shape plus how many of
/// `a`'s elements were dropped (`Cut::Unchanged` ⇒ 0).
fn intersect_nodes<'a, S: SetTrie + 'a>(
    a: &'a S::Node,
    b: &'a S::Node,
    shift: u32,
) -> (Cut<S>, usize) {
    if hash_exhausted(shift) {
        let total = S::payload(a).count();
        let kept: Vec<S::Key> = S::payload(a)
            .map(|(e, _)| e)
            .filter(|e| S::payload(b).any(|(x, _)| x == *e))
            .cloned()
            .collect();
        let removed = total - kept.len();
        return (collision_cut(kept, total), removed);
    }
    let next = next_shift(shift);
    let mut out = Builder::<S>::new();
    let mut removed = 0usize;
    for (m, at_a, at_b) in lockstep::<S>(a, b) {
        match (at_a, at_b) {
            (At::Nothing, _) => {}
            (At::Payload(ea, _), At::Payload(eb, _)) if ea == eb => out.elem(m, ea.clone()),
            (At::Payload(ea, _), At::Sub(bc)) if contains::<S>(bc, next, ea) => {
                out.elem(m, ea.clone());
            }
            (At::Payload(..), _) => removed += 1,
            (At::Sub(ac), At::Nothing) => removed += len::<S>(ac),
            (At::Sub(ac), At::Payload(eb, _)) => {
                // The intersection of this subtree with a lone element is
                // that element, inlined.
                removed += len::<S>(ac);
                if contains::<S>(ac, next, eb) {
                    out.elem(m, eb.clone());
                    removed -= 1;
                }
            }
            (At::Sub(ac), At::Sub(bc)) if S::ptr_eq(ac, bc) => out.child(m, ac.clone()),
            (At::Sub(ac), At::Sub(bc)) => {
                let (cut, r) = intersect_nodes::<S>(ac, bc, next);
                removed += r;
                out.cut(m, cut, ac);
            }
        }
    }
    if removed == 0 {
        return (Cut::Unchanged, 0);
    }
    (out.finish(), removed)
}

/// Lockstep difference (`a \ b`). Returns the surviving shape plus how
/// many elements survive (`Cut::Unchanged` ⇒ the whole subtree, counted).
fn difference_nodes<'a, S: SetTrie + 'a>(
    a: &'a S::Node,
    b: &'a S::Node,
    shift: u32,
) -> (Cut<S>, usize) {
    if hash_exhausted(shift) {
        let total = S::payload(a).count();
        let kept: Vec<S::Key> = S::payload(a)
            .map(|(e, _)| e)
            .filter(|e| !S::payload(b).any(|(x, _)| x == *e))
            .cloned()
            .collect();
        let n = kept.len();
        return (collision_cut(kept, total), n);
    }
    let next = next_shift(shift);
    let mut out = Builder::<S>::new();
    let mut kept = 0usize;
    let mut changed = false;
    for (m, at_a, at_b) in lockstep::<S>(a, b) {
        match (at_a, at_b) {
            (At::Nothing, _) => {}
            (At::Payload(ea, _), At::Payload(eb, _)) if ea == eb => changed = true,
            (At::Payload(ea, _), At::Sub(bc)) if contains::<S>(bc, next, ea) => changed = true,
            (At::Payload(ea, _), _) => {
                out.elem(m, ea.clone());
                kept += 1;
            }
            (At::Sub(ac), At::Nothing) => {
                out.child(m, ac.clone());
                kept += len::<S>(ac);
            }
            (At::Sub(ac), At::Payload(eb, _)) => {
                let mut child = ac.clone();
                match S::remove(&mut child, hash32(eb), next, eb) {
                    Removal::NotFound => {}
                    Removal::Removed => changed = true,
                    Removal::Single(e) => {
                        out.elem(m, e);
                        kept += 1;
                        changed = true;
                        continue;
                    }
                }
                kept += len::<S>(&child);
                out.child(m, child);
            }
            // The entire shared subtree cancels out.
            (At::Sub(ac), At::Sub(bc)) if S::ptr_eq(ac, bc) => changed = true,
            (At::Sub(ac), At::Sub(bc)) => {
                let (cut, k) = difference_nodes::<S>(ac, bc, next);
                changed |= !matches!(cut, Cut::Unchanged);
                kept += k;
                out.cut(m, cut, ac);
            }
        }
    }
    if !changed {
        return (Cut::Unchanged, kept);
    }
    (out.finish(), kept)
}

/// The diff of two entry lists (`a` old, `b` new) whose keys may appear in
/// any order.
fn list_diff<'a, K, V, D>(
    a: impl Iterator<Item = (&'a K, &'a V)> + Clone,
    b: impl Iterator<Item = (&'a K, &'a V)> + Clone,
    out: &mut D,
) where
    K: Eq + 'a,
    V: PartialEq + 'a,
    D: Sink<K, V>,
{
    for (k, v) in a.clone() {
        match b.clone().find(|(kb, _)| *kb == k) {
            None => out.removed(k, v),
            Some((_, vb)) if vb != v => out.changed(k, v, vb),
            Some(_) => {}
        }
    }
    for (k, v) in b {
        if !a.clone().any(|(ka, _)| ka == k) {
            out.added(k, v);
        }
    }
}

/// Lockstep diff (`a` old, `b` new): pointer-identical subtrees emit
/// nothing; a key bound on both sides to unequal values is `changed`.
fn diff_nodes<'a, S: Trie + 'a, D: Sink<S::Key, S::Value>>(
    a: &'a S::Node,
    b: &'a S::Node,
    shift: u32,
    out: &mut D,
) {
    if hash_exhausted(shift) {
        return list_diff(S::payload(a), S::payload(b), out);
    }
    if !S::aligned(a, b) {
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for_each::<S>(a, &mut |k, v| xs.push((k, v)));
        for_each::<S>(b, &mut |k, v| ys.push((k, v)));
        return list_diff(xs.into_iter(), ys.into_iter(), out);
    }
    let next = next_shift(shift);
    for (_, at_a, at_b) in lockstep::<S>(a, b) {
        match (at_a, at_b) {
            (At::Nothing, At::Nothing) => {}
            (At::Payload(k, v), At::Nothing) => out.removed(k, v),
            (At::Nothing, At::Payload(k, v)) => out.added(k, v),
            (At::Sub(ac), At::Nothing) => for_each::<S>(ac, &mut |k, v| out.removed(k, v)),
            (At::Nothing, At::Sub(bc)) => for_each::<S>(bc, &mut |k, v| out.added(k, v)),
            (At::Payload(ka, va), At::Payload(kb, vb)) => {
                if ka != kb {
                    out.removed(ka, va);
                    out.added(kb, vb);
                } else if va != vb {
                    out.changed(ka, va, vb);
                }
            }
            (At::Payload(ka, va), At::Sub(bc)) => {
                match S::get(bc, hash32(ka), next, ka) {
                    None => out.removed(ka, va),
                    Some(vb) if vb != va => out.changed(ka, va, vb),
                    Some(_) => {}
                }
                for_each::<S>(bc, &mut |k, v| {
                    if k != ka {
                        out.added(k, v);
                    }
                });
            }
            (At::Sub(ac), At::Payload(kb, vb)) => {
                match S::get(ac, hash32(kb), next, kb) {
                    None => out.added(kb, vb),
                    Some(va) if va != vb => out.changed(kb, va, vb),
                    Some(_) => {}
                }
                for_each::<S>(ac, &mut |k, v| {
                    if k != kb {
                        out.removed(k, v);
                    }
                });
            }
            (At::Sub(ac), At::Sub(bc)) => {
                if !S::ptr_eq(ac, bc) {
                    diff_nodes::<S, D>(ac, bc, next, out);
                }
            }
        }
    }
}

/// Structural equality of two canonical nodes at one depth.
fn node_eq<'a, S: Canonical + 'a>(a: &'a S::Node, b: &'a S::Node, shift: u32) -> bool {
    if hash_exhausted(shift) {
        let (mut x, y) = (S::payload(a), S::payload(b));
        return x.clone().count() == y.clone().count()
            && x.all(|(k, v)| y.clone().any(|(kb, vb)| kb == k && vb == v));
    }
    S::same_payload(a, b)
        && S::children(a)
            .zip(S::children(b))
            // CHAMP-style short-circuit on shared sub-tries.
            .all(|(c, d)| S::ptr_eq(c, d) || node_eq::<S>(c, d, next_shift(shift)))
}
