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
//! (`datamap` ≡ `CAT1`, `nodemap` ≡ `NODE` in 2-bit tags). Both maps run
//! the one node walk of [`trie_common::node`] on the same one-allocation
//! node, so they differ in their bitmap syntax (`Bitmaps` here) and
//! nothing else.
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

use trie_common::algebra::masks;
use trie_common::bits::{bit_pos, index_in};
use trie_common::node::{self, Bitmap, Branch};
use trie_common::ops::MapDiff;

/// A CHAMP node's bitmap syntax: `datamap` marks the branches holding an
/// inlined entry, `nodemap` those holding a sub-trie. Eight bytes, so a
/// node's header is 16 bytes, as an AXIOM node's is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Bitmaps {
    datamap: u32,
    nodemap: u32,
}

impl Bitmap for Bitmaps {
    const EMPTY: Bitmaps = Bitmaps {
        datamap: 0,
        nodemap: 0,
    };

    #[inline(always)]
    fn get(self, mask: u32) -> Branch {
        let bit = bit_pos(mask);
        if self.datamap & bit != 0 {
            Branch::Payload
        } else if self.nodemap & bit != 0 {
            Branch::Node
        } else {
            Branch::Empty
        }
    }

    #[inline(always)]
    fn locate(self, mask: u32) -> (Branch, usize) {
        let bit = bit_pos(mask);
        if self.datamap & bit != 0 {
            (Branch::Payload, index_in(self.datamap, bit))
        } else if self.nodemap & bit != 0 {
            (Branch::Node, self.slot_index(Branch::Node, mask))
        } else {
            (Branch::Empty, 0)
        }
    }

    #[inline(always)]
    fn with(self, mask: u32, branch: Branch) -> Bitmaps {
        let bit = bit_pos(mask);
        let (datamap, nodemap) = (self.datamap & !bit, self.nodemap & !bit);
        match branch {
            Branch::Empty => Bitmaps { datamap, nodemap },
            Branch::Payload => Bitmaps {
                datamap: datamap | bit,
                nodemap,
            },
            Branch::Node => Bitmaps {
                datamap,
                nodemap: nodemap | bit,
            },
            Branch::Many => unreachable!("a CHAMP node holds no second payload kind"),
        }
    }

    #[inline(always)]
    fn slot_index(self, branch: Branch, mask: u32) -> usize {
        let bit = bit_pos(mask);
        match branch {
            Branch::Node => self.payload_arity() + index_in(self.nodemap, bit),
            _ => index_in(self.datamap, bit),
        }
    }

    #[inline(always)]
    fn payload_arity(self) -> usize {
        self.datamap.count_ones() as usize
    }

    #[inline(always)]
    fn node_arity(self) -> usize {
        self.nodemap.count_ones() as usize
    }

    fn occupied_with(self, other: Bitmaps) -> impl Iterator<Item = u32> {
        masks(self.datamap | self.nodemap | other.datamap | other.nodemap)
    }
}

/// A map node: the two bitmaps, the inlined entries and the sub-trie
/// handles in one allocation.
pub(crate) type Node<K, V> = node::Node<Bitmaps, K, V>;

/// A persistent hash map with the CHAMP encoding. See the
/// [module documentation](self).
pub struct ChampMap<K, V> {
    pub(crate) map: node::Map<Bitmaps, K, V>,
}

impl<K, V> Clone for ChampMap<K, V> {
    fn clone(&self) -> Self {
        ChampMap {
            map: self.map.clone(),
        }
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> ChampMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        ChampMap {
            map: node::Map::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up the value bound to `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.get(key).map(|(_, v)| v)
    }

    /// True if `key` has a binding.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.get(key).is_some()
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
        self.map.insert_mut(key, value)
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
        self.map.remove_mut(key)
    }

    /// Iterates `(key, value)` entries in unspecified (trie) order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            inner: self.map.iter(),
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
        self.map.diff(&other.map, MapDiff::new())
    }

    pub(crate) fn root_node(&self) -> &Node<K, V> {
        self.map.root()
    }

    /// Recursively checks the canonical-form invariants (test support).
    ///
    /// # Panics
    ///
    /// Panics if any structural invariant is violated.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        self.map.assert_invariants();
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> Default for ChampMap<K, V> {
    fn default() -> Self {
        ChampMap::new()
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> PartialEq for ChampMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
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

/// Iterator over map entries. Created by [`ChampMap::iter`].
pub struct Iter<'a, K, V> {
    inner: node::Iter<'a, Bitmaps, K, V>,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        self.inner.next().map(|(k, v)| (k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a, K, V> ExactSizeIterator for Iter<'a, K, V> {}

impl<'a, K, V> std::fmt::Debug for Iter<'a, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
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
    use trie_common::packed::Packed;

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
        assert!(Packed::ptr_eq(m.root_node(), m2.root_node()));
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
