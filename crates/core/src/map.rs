//! A persistent hash map built on the AXIOM node encoding.
//!
//! [`AxiomMap`] is the paper's §5 subject: AXIOM instantiated with 100 % `1:1`
//! mappings (categories `EMPTY`, `CAT1` = key/value pair, `NODE`), measured
//! against the special-purpose CHAMP map to isolate the cost of generalizing
//! to type-heterogeneity (2-bit tag decoding and bitmap filtering) and the
//! benefit of grouped slots for iteration.
//!
//! The map runs the one node walk of [`trie_common::node`] with
//! [`SlotBitmap`] as its bitmap syntax, the CHAMP map the same walk with
//! `(datamap, nodemap)`: a node is one [`Packed`](trie_common::packed)
//! block (the bitmap, then the entries, then the sub-trie handles, each
//! group ascending by mask), and lookup, insert, remove, iteration, `diff`
//! and `==` are the same code for both, so the two differ in their bitmap
//! syntax and nothing else.
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

use trie_common::node;
use trie_common::ops::MapDiff;

use crate::bitmap::SlotBitmap;

/// A map node: the bitmap, the inlined entries and the sub-trie handles in
/// one allocation.
pub(crate) type Node<K, V> = node::Node<SlotBitmap, K, V>;

/// A persistent (immutable, structurally shared) hash map on the AXIOM
/// encoding.
///
/// See the [module documentation](self) for its role in the evaluation.
pub struct AxiomMap<K, V> {
    pub(crate) map: node::Map<SlotBitmap, K, V>,
}

impl<K, V> Clone for AxiomMap<K, V> {
    fn clone(&self) -> Self {
        AxiomMap {
            map: self.map.clone(),
        }
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> AxiomMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        AxiomMap {
            map: node::Map::new(),
        }
    }

    /// Number of key/value entries.
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
        self.map.insert_mut(key, value).is_none()
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
    pub fn assert_invariants(&self)
    where
        V: Eq,
    {
        self.map.assert_invariants();
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> Default for AxiomMap<K, V> {
    fn default() -> Self {
        AxiomMap::new()
    }
}

impl<K: Clone + Eq + Hash, V: Clone + PartialEq> PartialEq for AxiomMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl<K: Clone + Eq + Hash, V: Clone + Eq> Eq for AxiomMap<K, V> {}

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

/// Iterator over map entries. Created by [`AxiomMap::iter`].
pub struct Iter<'a, K, V> {
    inner: node::Iter<'a, SlotBitmap, K, V>,
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
            Packed::ptr_eq(m.root_node(), m2.root_node()),
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
