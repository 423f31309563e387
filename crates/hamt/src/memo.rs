//! A hash-memoizing HAMT, Scala-flavoured (`immutable.HashMap` pre-2.13).
//!
//! Two behaviours distinguish Scala's trie from Clojure's and from
//! CHAMP/AXIOM, and both matter in the paper's evaluation:
//!
//! 1. **Memoized hash codes** — every entry stores its full 32-bit hash.
//!    Lookups compare the memoized hash before calling `Eq`, which makes
//!    *negative* lookups (and collision probing) cheap. This is the paper's
//!    Hypothesis 2: AXIOM loses to Scala on `Lookup (Fail)` by a median
//!    ×1.27 precisely because AXIOM does not memoize hashes.
//! 2. **Canonicalizing deletion** — like CHAMP, collapsed sub-tries are
//!    inlined upward.
//!
//! The node layout is a single bitmap with dynamically discriminated slots
//! (Scala leaves are separate `HashMap1` objects on the JVM; the heap model
//! accounts for that).

use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::Arc;

use trie_common::bits::{bit_pos, hash_exhausted, index_in, mask, next_shift};
use trie_common::hash::hash32;
use trie_common::slices::{edit_child, insert_slot, migrate_map, remove_slot, survivor, SlotNode};

/// One slot: a leaf entry (with memoized hash) or a sub-trie.
#[derive(Debug, Clone)]
pub(crate) enum Slot<K, V> {
    /// Memoized 32-bit hash, key, value — Scala's `HashMap1`.
    Entry(u32, K, V),
    Child(Arc<Node<K, V>>),
}

/// A trie node.
#[derive(Debug, Clone)]
pub(crate) struct BitmapNode<K, V> {
    pub(crate) bitmap: u32,
    pub(crate) slots: Box<[Slot<K, V>]>,
}

/// Hash-collision overflow node (Scala's `HashMapCollision1`).
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

/// Removal outcome: only the canonicalization payload (survivor + memoized
/// hash) travels upward.
pub(crate) enum EditRemoved<K, V> {
    NotFound,
    Removed,
    /// The sub-tree collapsed to one entry (a unique node is left consumed;
    /// the parent drops it and inlines the survivor with its memoized hash).
    Single(u32, K, V),
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
                Box::new([Slot::Entry(h1, k1, v1), Slot::Entry(h2, k2, v2)])
            } else {
                Box::new([Slot::Entry(h2, k2, v2), Slot::Entry(h1, k1, v1)])
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
            Node::Collision(c) => {
                if c.hash != hash {
                    return None;
                }
                c.entries
                    .iter()
                    .find(|(k, _)| k.borrow() == key)
                    .map(|(_, v)| v)
            }
            Node::Bitmap(b) => {
                let bit = bit_pos(mask(hash, shift));
                if b.bitmap & bit == 0 {
                    return None;
                }
                match &b.slots[index_in(b.bitmap, bit)] {
                    // Memoized-hash comparison first: failed probes usually
                    // bail before the (possibly expensive) key equality.
                    Slot::Entry(h, k, v) => (*h == hash && k.borrow() == key).then_some(v),
                    Slot::Child(child) => child.get(hash, next_shift(shift), key),
                }
            }
        }
    }

    /// Binds `key` to `value` below `this`, editing unique nodes in place
    /// and copying shared ones on write (see [`trie_common::slices`]). The
    /// memoized hash travels with the entry, so the existing key is never
    /// re-hashed.
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
            let slot = Slot::Entry(hash, key, value);
            insert_slot(this, bitmap, index_in(bitmap, bit), slot);
            return EditInserted::Added;
        }
        let idx = index_in(b.bitmap, bit);
        let Slot::Entry(eh, ek, ev) = &b.slots[idx] else {
            return edit_child(
                this,
                idx,
                |child| Node::insert_in_place(child, hash, next_shift(shift), key, value),
                |outcome| !matches!(outcome, EditInserted::Unchanged),
            );
        };
        if *eh == hash && *ek == key {
            if *ev == value {
                return EditInserted::Unchanged;
            }
            Arc::make_mut(this).slots_mut()[idx] = Slot::Entry(hash, key, value);
            return EditInserted::Replaced;
        }
        // `from == to` migration: Entry → Child in place, both entries (and
        // the memoized hash) moving into the fresh sub-trie.
        migrate_map(Arc::make_mut(this).slots_mut(), idx, idx, |slot| {
            let Slot::Entry(eh, ek, ev) = slot else {
                unreachable!("just matched an entry")
            };
            Slot::Child(Arc::new(Node::pair(
                eh,
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
    /// as [`Node::insert_in_place`], canonicalizing on the way up; the
    /// survivor's memoized hash travels with it, so no key is ever
    /// re-hashed.
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
                if c.hash != hash {
                    return EditRemoved::NotFound;
                }
                let Some(pos) = c.entries.iter().position(|(k, _)| k.borrow() == key) else {
                    return EditRemoved::NotFound;
                };
                let Node::Collision(c) = Arc::make_mut(this) else {
                    unreachable!("matched a collision node")
                };
                if c.entries.len() == 2 {
                    let (k, v) = c.entries.swap_remove(1 - pos);
                    return EditRemoved::Single(c.hash, k, v);
                }
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
            Slot::Entry(eh, ek, _) => {
                if *eh != hash || ek.borrow() != key {
                    return EditRemoved::NotFound;
                }
                // Canonicalize: a lone surviving entry moves up.
                if shift > 0 && b.slots.len() == 2 && matches!(b.slots[1 - idx], Slot::Entry(..)) {
                    let Slot::Entry(h, k, v) = survivor(this, idx) else {
                        unreachable!("just matched an entry")
                    };
                    return EditRemoved::Single(h, k, v);
                }
                let bitmap = b.bitmap & !bit;
                remove_slot(this, bitmap, idx);
                EditRemoved::Removed
            }
            Slot::Child(_) => {
                // A pure chain node dissolves when its child collapses.
                let chain = shift > 0 && b.slots.len() == 1;
                match edit_child(
                    this,
                    idx,
                    |child| Node::remove_in_place(child, hash, next_shift(shift), key),
                    |outcome| matches!(outcome, EditRemoved::Removed),
                ) {
                    EditRemoved::Single(h, k, v) if !chain => {
                        // Inline: the collapsed child's slot takes the
                        // surviving entry.
                        Arc::make_mut(this).slots_mut()[idx] = Slot::Entry(h, k, v);
                        EditRemoved::Removed
                    }
                    outcome => outcome,
                }
            }
        }
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

/// A persistent hash map that memoizes entry hashes (Scala-flavoured). See
/// the [module documentation](self).
pub struct MemoHamtMap<K, V> {
    pub(crate) root: Arc<Node<K, V>>,
    pub(crate) len: usize,
}

impl<K, V> Clone for MemoHamtMap<K, V> {
    fn clone(&self) -> Self {
        MemoHamtMap {
            root: Arc::clone(&self.root),
            len: self.len,
        }
    }
}

impl<K, V> MemoHamtMap<K, V> {
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

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> MemoHamtMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        MemoHamtMap {
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

    /// Binds `key` to `value` in place. Returns true if a new key was added.
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
            EditRemoved::Single(h, k, v) => {
                let m = mask(h, 0);
                self.root = Arc::new(Node::Bitmap(BitmapNode {
                    bitmap: bit_pos(m),
                    slots: Box::new([Slot::Entry(h, k, v)]),
                }));
                self.len -= 1;
                true
            }
        }
    }

    pub(crate) fn root_node(&self) -> &Node<K, V> {
        &self.root
    }

    /// Structural checks: memoized hashes must match, canonical form holds.
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
            assert_eq!(b.slots.len(), b.bitmap.count_ones() as usize);
            let mut total = 0;
            let mut payload = 0;
            let mut bit_iter = (0..32).filter(|m| b.bitmap & bit_pos(*m) != 0);
            for slot in b.slots.iter() {
                let m = bit_iter.next().expect("slot without branch");
                match slot {
                    Slot::Entry(h, k, _) => {
                        assert_eq!(*h, hash32(k), "stale memoized hash");
                        assert_eq!(mask(*h, shift), m, "entry in wrong branch");
                        total += 1;
                        payload += 1;
                    }
                    Slot::Child(child) => {
                        let sub = validate(child, next_shift(shift));
                        assert!(sub >= 2, "sub-trie with < 2 entries not inlined");
                        total += sub;
                    }
                }
            }
            if shift > 0 {
                assert!(
                    !(payload == 1 && b.slots.len() == 1),
                    "non-root singleton payload node must be inlined"
                );
            }
            total
        }
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> Default for MemoHamtMap<K, V> {
    fn default() -> Self {
        MemoHamtMap::new()
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> PartialEq for MemoHamtMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .iter()
                .all(|(k, v)| other.get(k).is_some_and(|w| w == v))
    }
}

impl<K: Clone + Eq + Hash, V: Clone + Eq> Eq for MemoHamtMap<K, V> {}

impl<K, V> std::fmt::Debug for MemoHamtMap<K, V>
where
    K: std::fmt::Debug,
    V: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> FromIterator<(K, V)> for MemoHamtMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        trie_common::ops::from_iter_via(iter)
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> Extend<(K, V)> for MemoHamtMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        trie_common::ops::extend_via(self, iter);
    }
}

impl<'a, K: Clone + Eq + Hash, V: Clone + PartialEq> IntoIterator for &'a MemoHamtMap<K, V> {
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

/// Iterator over map entries. Created by [`MemoHamtMap::iter`].
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

impl<'a, K, V> ExactSizeIterator for Iter<'a, K, V> {}

impl<'a, K, V> std::fmt::Debug for Iter<'a, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Iter")
            .field("remaining", &self.remaining)
            .finish()
    }
}

/// Iterator over map keys. Created by [`MemoHamtMap::keys`].
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

/// Iterator over map values. Created by [`MemoHamtMap::values`].
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
    use std::cell::Cell;
    use std::collections::HashMap;
    use std::hash::Hasher;

    #[test]
    fn basics_and_canonical_removal() {
        let mut m: MemoHamtMap<u32, u32> = (0..500).map(|i| (i, i)).collect();
        assert_eq!(m.len(), 500);
        m.assert_invariants();
        for i in 0..500 {
            assert_eq!(m.get(&i), Some(&i));
            assert!(m.remove_mut(&i));
            m.assert_invariants();
        }
        assert!(m.is_empty());
    }

    #[test]
    fn model_based_random_ops() {
        let mut model: HashMap<u32, u32> = HashMap::new();
        let mut m: MemoHamtMap<u32, u32> = MemoHamtMap::new();
        let mut state = 17u64;
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

    /// Key whose `Eq` counts its invocations: memoized hashes must shield
    /// negative lookups from equality calls when hashes differ.
    #[derive(Debug, Clone)]
    struct CountingKey {
        id: u32,
        eq_calls: std::rc::Rc<Cell<u32>>,
    }

    impl PartialEq for CountingKey {
        fn eq(&self, other: &Self) -> bool {
            self.eq_calls.set(self.eq_calls.get() + 1);
            other.eq_calls.set(other.eq_calls.get() + 1);
            self.id == other.id
        }
    }
    impl Eq for CountingKey {}
    impl Hash for CountingKey {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u32(self.id);
        }
    }

    #[test]
    fn negative_lookup_avoids_eq_when_hash_differs() {
        let counter = std::rc::Rc::new(Cell::new(0));
        let mk = |id| CountingKey {
            id,
            eq_calls: counter.clone(),
        };
        let m: MemoHamtMap<CountingKey, u32> = (0..64).map(|i| (mk(i), i)).collect();
        counter.set(0);
        // Probing absent keys: every probe that reaches an entry slot first
        // compares the memoized hash; distinct ids imply distinct hashes
        // here, so Eq must never fire.
        for id in 1000..1100 {
            assert_eq!(m.get(&mk(id)), None);
        }
        assert_eq!(counter.get(), 0, "memoized hash should shield Eq");
    }
}
