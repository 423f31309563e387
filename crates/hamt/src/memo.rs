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
//!    inlined upward, and the survivor's memoized hash moves with it.
//!
//! Everything else is the Clojure-flavoured [`crate::map`] walk: a single
//! bitmap with dynamically discriminated slots (Scala leaves are separate
//! `HashMap1` objects on the JVM; the heap model accounts for that), the
//! same iterators, and the same structural `diff`. [`MemoHamtMap`] has the
//! methods and trait impls listed in [`crate::map`].

use crate::trie::{self, Scala};

/// A persistent hash map that memoizes entry hashes (Scala-flavoured). See
/// the [module documentation](self).
pub type MemoHamtMap<K, V> = trie::Map<K, V, Scala>;

/// Iterator over map entries. Created by `MemoHamtMap::iter`.
pub type Iter<'a, K, V> = trie::Iter<'a, K, V, Scala>;

/// Iterator over map keys. Created by `MemoHamtMap::keys`.
pub type Keys<'a, K, V> = trie::Keys<'a, K, V, Scala>;

/// Iterator over map values. Created by `MemoHamtMap::values`.
pub type Values<'a, K, V> = trie::Values<'a, K, V, Scala>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::HashMap;
    use std::hash::{Hash, Hasher};

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
