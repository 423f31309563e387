//! The idiomatic Clojure multi-map (Figure 4's baseline).
//!
//! VanderHart & Neufeld's protocol-based multi-map stores, for each key,
//! either a bare value or a nested set — *untyped* on the JVM, so every
//! operation performs a dynamic type check to discover which case it holds
//! (the [`ClojureVal`] enum's `match` below). Singletons are inlined (like
//! AXIOM), but the substrate is Clojure's plain HAMT with its simple one-bit
//! compression and non-canonical deletion.

use std::hash::Hash;

use hamt::{HamtMap, HamtSet};
use heapmodel::{Accounting, JvmArch, JvmFootprint, JvmSize, LayoutPolicy, RustFootprint};
use trie_common::iter::{MaybeIter, TuplesOf};
use trie_common::ops::{EditInPlace, MultiMapAlgebraOps, MultiMapMutOps, MultiMapOps, ValuesView};

/// A key's binding: the dynamic either-value-or-set the Clojure protocol
/// dispatches on.
#[derive(Debug)]
pub enum ClojureVal<V> {
    /// A bare singleton value.
    Single(V),
    /// A nested set of ≥ 2 values.
    SetOf(HamtSet<V>),
}

impl<V: Clone> Clone for ClojureVal<V> {
    fn clone(&self) -> Self {
        match self {
            ClojureVal::Single(v) => ClojureVal::Single(v.clone()),
            ClojureVal::SetOf(s) => ClojureVal::SetOf(s.clone()),
        }
    }
}

impl<V: Clone + Eq + Hash> PartialEq for ClojureVal<V> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ClojureVal::Single(a), ClojureVal::Single(b)) => a == b,
            (ClojureVal::SetOf(a), ClojureVal::SetOf(b)) => a == b,
            _ => false,
        }
    }
}

impl<V> ClojureVal<V> {
    /// Iterates the binding's values (one for a bare singleton).
    pub fn iter(&self) -> ClojureValIter<'_, V> {
        match self {
            ClojureVal::Single(v) => ClojureValIter::Single(std::iter::once(v)),
            ClojureVal::SetOf(s) => ClojureValIter::SetOf(s.iter()),
        }
    }
}

impl<'a, V: Clone + Eq + Hash> ValuesView<'a, V> for &'a ClojureVal<V> {
    type Iter = ClojureValIter<'a, V>;

    fn len(&self) -> usize {
        match self {
            ClojureVal::Single(_) => 1,
            ClojureVal::SetOf(s) => s.len(),
        }
    }

    fn contains(&self, value: &V) -> bool {
        match self {
            ClojureVal::Single(v) => v == value,
            ClojureVal::SetOf(s) => s.contains(value),
        }
    }

    fn iter(&self) -> ClojureValIter<'a, V> {
        ClojureVal::iter(self)
    }
}

impl<'a, V> IntoIterator for &'a ClojureVal<V> {
    type Item = &'a V;
    type IntoIter = ClojureValIter<'a, V>;
    fn into_iter(self) -> ClojureValIter<'a, V> {
        self.iter()
    }
}

/// Iterator over a [`ClojureVal`] binding's values. Created by
/// [`ClojureVal::iter`].
#[derive(Debug)]
pub enum ClojureValIter<'a, V> {
    /// The bare-singleton case.
    Single(std::iter::Once<&'a V>),
    /// The nested-set case.
    SetOf(hamt::set::Iter<'a, V>),
}

impl<'a, V> Iterator for ClojureValIter<'a, V> {
    type Item = &'a V;
    fn next(&mut self) -> Option<&'a V> {
        match self {
            ClojureValIter::Single(it) => it.next(),
            ClojureValIter::SetOf(it) => it.next(),
        }
    }
}

/// A persistent multi-map in the idiomatic Clojure style: a [`HamtMap`] whose
/// values are dynamically either a bare value or a [`HamtSet`].
///
/// # Examples
///
/// ```
/// use idiomatic::ClojureMultiMap;
/// use trie_common::ops::MultiMapOps;
///
/// let mm = ClojureMultiMap::<u32, u32>::empty()
///     .inserted(1, 10)
///     .inserted(1, 11);
/// assert_eq!(mm.tuple_count(), 2);
/// assert_eq!(mm.key_count(), 1);
/// ```
pub struct ClojureMultiMap<K, V> {
    map: HamtMap<K, ClojureVal<V>>,
    tuples: usize,
}

impl<K, V: Clone> Clone for ClojureMultiMap<K, V> {
    fn clone(&self) -> Self {
        ClojureMultiMap {
            map: self.map.clone(),
            tuples: self.tuples,
        }
    }
}

impl<K, V> std::fmt::Debug for ClojureMultiMap<K, V>
where
    K: std::fmt::Debug + Clone + Eq + Hash,
    V: std::fmt::Debug + Clone + Eq + Hash,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.map.iter()).finish()
    }
}

impl<K, V> ClojureMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    /// Creates an empty multi-map.
    pub fn new() -> Self {
        ClojureMultiMap {
            map: HamtMap::new(),
            tuples: 0,
        }
    }

    /// Borrowed view of the binding for `key`, if any.
    pub fn get(&self, key: &K) -> Option<&ClojureVal<V>> {
        self.map.get(key)
    }

    /// Inserts `(key, value)` in place. Returns true if the relation grew.
    ///
    /// The key is hashed twice, by the `get` and then by the put, as the
    /// idiomatic JVM update does it (`get`, then `assoc`/`updated`); the
    /// value once, by the nested set's insert.
    pub fn insert_mut(&mut self, key: K, value: V) -> bool {
        // Protocol dispatch: the stored value's dynamic type decides.
        match self.map.get(&key) {
            None => {
                self.map.insert_mut(key, ClojureVal::Single(value));
                self.tuples += 1;
                true
            }
            Some(ClojureVal::Single(v)) => {
                if *v == value {
                    return false;
                }
                let set: HamtSet<V> = [v.clone(), value].into_iter().collect();
                self.map.insert_mut(key, ClojureVal::SetOf(set));
                self.tuples += 1;
                true
            }
            Some(ClojureVal::SetOf(s)) => {
                // One value hash: a present value leaves the set as it was.
                let grown = s.inserted(value);
                if grown.len() == s.len() {
                    return false;
                }
                self.map.insert_mut(key, ClojureVal::SetOf(grown));
                self.tuples += 1;
                true
            }
        }
    }

    /// Removes `(key, value)` in place. Returns true if present.
    /// Hashes the key twice (`get`, then the put) and the value once.
    pub fn remove_tuple_mut(&mut self, key: &K, value: &V) -> bool {
        match self.map.get(key) {
            None => false,
            Some(ClojureVal::Single(v)) => {
                if v != value {
                    return false;
                }
                self.map.remove_mut(key);
                self.tuples -= 1;
                true
            }
            Some(ClojureVal::SetOf(s)) => {
                // One value hash: an absent value leaves the set as it was.
                let shrunk = s.removed(value);
                if shrunk.len() == s.len() {
                    return false;
                }
                let new_val = if shrunk.len() == 1 {
                    // Demote to an inlined singleton (the protocol's
                    // `to-one` case).
                    ClojureVal::Single(shrunk.sole().clone())
                } else {
                    ClojureVal::SetOf(shrunk)
                };
                self.map.insert_mut(key.clone(), new_val);
                self.tuples -= 1;
                true
            }
        }
    }

    /// Removes every tuple for `key` in place. Returns the number removed.
    pub fn remove_key_mut(&mut self, key: &K) -> usize {
        let removed = self.map.get(key).map_or(0, |b| b.len());
        if removed > 0 {
            self.map.remove_mut(key);
            self.tuples -= removed;
        }
        removed
    }

    /// Iterates all `(key, value)` tuples in unspecified order.
    pub fn iter(&self) -> ClojureTuples<'_, K, V> {
        TuplesOf::new(self.map.iter())
    }

    /// Iterates the distinct keys in unspecified order.
    pub fn keys(&self) -> hamt::map::Keys<'_, K, ClojureVal<V>> {
        self.map.keys()
    }

    /// Iterates the values bound to `key` (nothing if the key is absent).
    pub fn values_of(&self, key: &K) -> MaybeIter<ClojureValIter<'_, V>> {
        MaybeIter::of(self.map.get(key).map(ClojureVal::iter))
    }
}

/// Iterator over a [`ClojureMultiMap`]'s flattened tuples. Created by
/// [`ClojureMultiMap::iter`].
pub type ClojureTuples<'a, K, V> =
    TuplesOf<'a, K, ClojureVal<V>, hamt::map::Iter<'a, K, ClojureVal<V>>>;

impl<'a, K, V> IntoIterator for &'a ClojureMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    type Item = (&'a K, &'a V);
    type IntoIter = ClojureTuples<'a, K, V>;
    fn into_iter(self) -> ClojureTuples<'a, K, V> {
        self.iter()
    }
}

impl<K, V> Default for ClojureMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    fn default() -> Self {
        ClojureMultiMap::new()
    }
}

impl<K, V> FromIterator<(K, V)> for ClojureMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        trie_common::ops::from_iter_via(iter)
    }
}

impl<K, V> Extend<(K, V)> for ClojureMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        trie_common::ops::extend_via(self, iter);
    }
}

impl<K, V> EditInPlace<(K, V)> for ClojureMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    fn edit_insert(&mut self, (key, value): (K, V)) -> bool {
        self.insert_mut(key, value)
    }
}

impl<K, V> MultiMapMutOps<K, V> for ClojureMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    type ValueSet = HamtSet<V>;

    fn insert_mut(&mut self, key: K, value: V) -> bool {
        ClojureMultiMap::insert_mut(self, key, value)
    }

    fn remove_tuple_mut(&mut self, key: &K, value: &V) -> bool {
        ClojureMultiMap::remove_tuple_mut(self, key, value)
    }

    fn remove_key_mut(&mut self, key: &K) -> usize {
        ClojureMultiMap::remove_key_mut(self, key)
    }

    /// The nested set as an `O(1)` clone; a bare singleton is built into a
    /// set.
    fn value_set(&self, key: &K) -> Option<HamtSet<V>> {
        self.map.get(key).map(|binding| match binding {
            ClojureVal::Single(v) => std::iter::once(v.clone()).collect(),
            ClojureVal::SetOf(s) => s.clone(),
        })
    }

    /// A one-element set is stored as a bare value (the protocol's
    /// `to-one` case), a larger one as it is.
    fn put_value_set_mut(&mut self, key: K, set: HamtSet<V>) -> isize {
        let new = set.len();
        let binding = match new {
            0 => return -(self.remove_key_mut(&key) as isize),
            1 => ClojureVal::Single(set.sole().clone()),
            _ => ClojureVal::SetOf(set),
        };
        let old = self.map.get(&key).map_or(0, |b| b.len());
        self.map.insert_mut(key, binding);
        self.tuples = self.tuples + new - old;
        new as isize - old as isize
    }
}

// The idiomatic emulation layers on a map of sets, so the tuple algebra
// rides the element-wise fallback defaults.
impl<K, V> MultiMapAlgebraOps<K, V> for ClojureMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
}

impl<K, V> MultiMapOps<K, V> for ClojureMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    const NAME: &'static str = "clojure-multimap";

    type Tuples<'a>
        = ClojureTuples<'a, K, V>
    where
        Self: 'a,
        K: 'a,
        V: 'a;
    type Keys<'a>
        = hamt::map::Keys<'a, K, ClojureVal<V>>
    where
        Self: 'a,
        K: 'a,
        V: 'a;
    type ValuesOf<'a>
        = MaybeIter<ClojureValIter<'a, V>>
    where
        Self: 'a,
        K: 'a,
        V: 'a;
    type Values<'a>
        = &'a ClojureVal<V>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    fn empty() -> Self {
        ClojureMultiMap::new()
    }

    fn tuple_count(&self) -> usize {
        self.tuples
    }

    fn key_count(&self) -> usize {
        self.map.len()
    }

    fn get(&self, key: &K) -> Option<&ClojureVal<V>> {
        self.map.get(key)
    }

    fn inserted(&self, key: K, value: V) -> Self {
        let mut next = self.clone();
        next.insert_mut(key, value);
        next
    }

    fn tuple_removed(&self, key: &K, value: &V) -> Self {
        let mut next = self.clone();
        next.remove_tuple_mut(key, value);
        next
    }

    fn key_removed(&self, key: &K) -> Self {
        let mut next = self.clone();
        next.remove_key_mut(key);
        next
    }

    fn tuples(&self) -> Self::Tuples<'_> {
        self.iter()
    }

    fn keys(&self) -> Self::Keys<'_> {
        ClojureMultiMap::keys(self)
    }

    fn values_of<'a>(&'a self, key: &K) -> Self::ValuesOf<'a> {
        ClojureMultiMap::values_of(self, key)
    }
}

impl<K, V> JvmFootprint for ClojureMultiMap<K, V>
where
    K: Clone + Eq + Hash + JvmSize,
    V: Clone + Eq + Hash + JvmSize,
{
    fn jvm_footprint(&self, arch: &JvmArch, policy: &LayoutPolicy, acc: &mut Accounting) {
        hamt::hamt_map_jvm_with(&self.map, arch, policy, acc, &mut |k, binding, acc| {
            acc.payload(k.jvm_size(arch));
            match binding {
                ClojureVal::Single(v) => acc.payload(v.jvm_size(arch)),
                ClojureVal::SetOf(s) => {
                    // Clojure's nested set is a PersistentHashSet (meta ref,
                    // impl-map ref, two cached hash ints) wrapping a full
                    // PersistentHashMap object (count, root ref, null-key
                    // fields, meta, cached hashes) — heavy fixed costs per
                    // nested collection on the real JVM.
                    acc.structure(arch.object(2, 2, 0) + arch.object(3, 4, 0));
                    hamt::nested_hamt_set_jvm(s, arch, policy, acc);
                }
            }
        });
    }
}

impl<K, V> RustFootprint for ClojureMultiMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    fn rust_footprint(&self, acc: &mut Accounting) {
        hamt::hamt_map_rust_with(&self.map, acc, &mut |_, binding, acc| {
            if let ClojureVal::SetOf(s) = binding {
                hamt::nested_hamt_set_rust(s, acc);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Mm = ClojureMultiMap<u32, u32>;

    #[test]
    fn promote_demote() {
        let mm = Mm::empty().inserted(1, 10).inserted(1, 20);
        assert!(matches!(mm.get(&1), Some(ClojureVal::SetOf(_))));
        let mm = mm.tuple_removed(&1, &10);
        assert!(matches!(mm.get(&1), Some(ClojureVal::Single(20))));
        assert_eq!(mm.tuple_count(), 1);
        let mm = mm.tuple_removed(&1, &20);
        assert!(mm.is_empty());
    }

    #[test]
    fn counts_on_skewed_data() {
        let mut mm = Mm::empty();
        for k in 0..200u32 {
            mm.insert_mut(k, 0);
            if k % 2 == 0 {
                mm.insert_mut(k, 1);
            }
        }
        assert_eq!(mm.key_count(), 200);
        assert_eq!(mm.tuple_count(), 300);
        let mut n = 0;
        mm.for_each_tuple(&mut |_, _| n += 1);
        assert_eq!(n, 300);
    }

    #[test]
    fn remove_key() {
        let mut mm = Mm::empty();
        for v in 0..5 {
            mm.insert_mut(9, v);
        }
        assert_eq!(mm.remove_key_mut(&9), 5);
        assert!(mm.is_empty());
    }

    #[test]
    fn footprints() {
        let mm: Mm = (0..200u32).map(|k| (k / 2, k)).collect();
        let fp = mm.jvm_bytes(&JvmArch::COMPRESSED_OOPS, &LayoutPolicy::BASELINE);
        assert!(fp.total() > 0);
        assert!(mm.rust_bytes() > 0);
    }
}
