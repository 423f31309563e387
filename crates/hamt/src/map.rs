//! A classic HAMT persistent map (Bagwell 2001), Clojure-flavoured.
//!
//! One 32-bit bitmap marks occupied branches; a dense array stores an
//! **untyped mix** of inlined entries and sub-tries, so every access performs
//! a dynamic slot-type check (a Rust `match` stands in for the JVM's
//! `instanceof`, paper Figure 2a). Deletion does **not** canonicalize:
//! like Clojure's `PersistentHashMap`, removing entries can leave degenerate
//! single-entry paths in place — one of the differences CHAMP/AXIOM exploit.
//! The node walk is the one the memoizing [`crate::memo`] map runs, with
//! bare `(key, value)` entries and the degenerate deletion rule.
//!
//! `diff` is the lockstep walk of [`trie_common::algebra`], shared with the
//! AXIOM and CHAMP maps and the memoizing HAMT. The trie is not canonical,
//! so pointer equality is only a one-way short-cut: equal subtrees that are
//! not pointer-equal are walked (emitting nothing), nodes whose kinds do not
//! align compare their entry lists outright, and `==` compares contents.
//!
//! # Methods
//!
//! [`HamtMap`] and [`MemoHamtMap`](crate::MemoHamtMap) are one handle with
//! a different leaf, so they have the same methods:
//!
//! * `new()`, `len()`, `is_empty()`;
//! * `get(&key) -> Option<&V>` and `contains_key(&key)`, for any borrowed
//!   form of the key;
//! * `inserted(key, value)` and `removed(&key)` return a new map and leave
//!   `self` unchanged;
//! * `insert_mut(key, value) -> bool` (true if a key was added) and
//!   `remove_mut(&key) -> bool` (true if a binding was removed) edit
//!   uniquely-owned nodes in place and path-copy shared ones;
//! * `iter()`, `keys()` and `values()`, in trie order, as [`Iter`],
//!   [`Keys`] and [`Values`];
//! * `diff(&other) -> MapDiff<K, V>`, the structural walk above.
//!
//! Both implement `Clone`, `Default`, `Debug`, `PartialEq`/`Eq` (by
//! content), `FromIterator`, `Extend`, and the harness traits `MapOps`,
//! `MapMutOps`, `EditInPlace` and `MapMergeOps` of [`trie_common::ops`].
//!
//! # Examples
//!
//! ```
//! use hamt::HamtMap;
//!
//! let m = HamtMap::<u32, &str>::new().inserted(1, "a").inserted(2, "b");
//! assert_eq!(m.get(&2), Some(&"b"));
//! assert_eq!(m.removed(&1).len(), 1);
//! ```

use crate::trie::{self, Clojure};

/// A persistent hash map with the classic single-bitmap HAMT encoding
/// (Clojure-flavoured: dynamic slot dispatch, non-canonical deletion).
pub type HamtMap<K, V> = trie::Map<K, V, Clojure>;

/// Iterator over map entries. Created by `HamtMap::iter`.
pub type Iter<'a, K, V> = trie::Iter<'a, K, V, Clojure>;

/// Iterator over map keys. Created by `HamtMap::keys`.
pub type Keys<'a, K, V> = trie::Keys<'a, K, V, Clojure>;

/// Iterator over map values. Created by `HamtMap::values`.
pub type Values<'a, K, V> = trie::Values<'a, K, V, Clojure>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::{Hash, Hasher};

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
        let m: HamtMap<u32, u32> = (0..800).map(|i| (i, i + 1)).collect();
        assert_eq!(m.len(), 800);
        for i in 0..800 {
            assert_eq!(m.get(&i), Some(&(i + 1)));
        }
        assert_eq!(m.get(&9999), None);
        m.assert_invariants();
    }

    #[test]
    fn removal_may_leave_degenerate_paths_but_stays_correct() {
        let mut m: HamtMap<u32, u32> = (0..300).map(|i| (i, i)).collect();
        for i in 0..299 {
            assert!(m.remove_mut(&i));
            m.assert_invariants();
        }
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&299), Some(&299));
    }

    #[test]
    fn collisions() {
        let mut m = HamtMap::new();
        for id in 0..6 {
            m.insert_mut(Collide { bucket: 1, id }, id);
        }
        assert_eq!(m.len(), 6);
        for id in 0..6 {
            assert_eq!(m.get(&Collide { bucket: 1, id }), Some(&id));
        }
        for id in 0..6 {
            assert!(m.remove_mut(&Collide { bucket: 1, id }));
            m.assert_invariants();
        }
        assert!(m.is_empty());
    }

    #[test]
    fn model_based_random_ops() {
        let mut model: HashMap<u32, u32> = HashMap::new();
        let mut m: HamtMap<u32, u32> = HamtMap::new();
        let mut state = 5u64;
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

    #[test]
    fn content_equality_across_shapes() {
        // Build one map by pure insertion and an equal one via a deletion
        // detour: shapes may differ (non-canonical), equality must not.
        let a: HamtMap<u32, u32> = (0..64).map(|i| (i, i)).collect();
        let mut b: HamtMap<u32, u32> = (0..100).map(|i| (i, i)).collect();
        for i in 64..100 {
            b.remove_mut(&i);
        }
        assert_eq!(a, b);
    }
}
