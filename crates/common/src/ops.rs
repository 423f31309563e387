//! Implementation-agnostic views of the persistent collections.
//!
//! The evaluation compares five multi-map and four map designs. To run one
//! benchmark (or the dominators case study) over all of them, the harness is
//! written against these traits. The surface is **iterator-first**: every
//! trait names its iterator types (`Entries`, `Keys`, `Tuples`, `ValuesOf`,
//! …) as generic associated types and exposes `iter()`-style methods; the
//! historical `for_each_*` callbacks survive as default methods layered on
//! top of the iterators, so callback-style call sites keep compiling while
//! new code composes with `Iterator` adapters.
//!
//! The second half of the module is the **transient builder protocol**
//! ([`TransientOps`] / [`Builder`]): persistent → transient → bulk
//! `insert_mut` batches → freeze back to persistent. Implementations whose
//! `_mut` methods edit `Arc`-unique nodes genuinely in place (copying only
//! nodes shared with other handles) opt in through the one-method
//! [`EditInPlace`] bridge and get the whole protocol (plus
//! `FromIterator`/`Extend` plumbing via [`from_iter_via`]/[`extend_via`])
//! for free.
//!
//! Naming convention: persistent operations use past-participle names
//! (`inserted`, `removed`) because they *return the updated collection* and
//! leave `self` untouched; transient operations use `_mut` names and edit in
//! place.

/// A persistent (immutable, structurally shared) map.
pub trait MapOps<K, V>: Clone {
    /// Short human-readable implementation name used in benchmark reports.
    const NAME: &'static str;

    /// Borrowing iterator over `(key, value)` entries, in unspecified order.
    type Entries<'a>: Iterator<Item = (&'a K, &'a V)>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    /// Borrowing iterator over keys, in unspecified order.
    type Keys<'a>: Iterator<Item = &'a K>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    /// Borrowing iterator over values, in unspecified order.
    type Values<'a>: Iterator<Item = &'a V>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    /// Creates an empty map.
    fn empty() -> Self;

    /// Number of key/value entries.
    fn len(&self) -> usize;

    /// True if the map holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up the value for `key`.
    fn get(&self, key: &K) -> Option<&V>;

    /// True if `key` has a mapping.
    fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Returns a map with `key` bound to `value` (replacing any previous
    /// binding); `self` is unchanged.
    fn inserted(&self, key: K, value: V) -> Self;

    /// Returns a map without any binding for `key`; `self` is unchanged.
    fn removed(&self, key: &K) -> Self;

    /// Iterates the `(key, value)` entries.
    fn entries(&self) -> Self::Entries<'_>;

    /// Iterates the keys.
    fn keys(&self) -> Self::Keys<'_>;

    /// Iterates the values.
    fn values(&self) -> Self::Values<'_>;

    /// Invokes `f` for every entry, in unspecified order.
    ///
    /// Default method on top of [`MapOps::entries`], kept for callback-style
    /// call sites.
    fn for_each_entry(&self, f: &mut dyn FnMut(&K, &V)) {
        for (k, v) in self.entries() {
            f(k, v);
        }
    }

    /// Invokes `f` for every key, in unspecified order.
    fn for_each_key(&self, f: &mut dyn FnMut(&K)) {
        for k in self.keys() {
            f(k);
        }
    }
}

/// A persistent set.
pub trait SetOps<T>: Clone {
    /// Short human-readable implementation name used in benchmark reports.
    const NAME: &'static str;

    /// Borrowing iterator over the elements, in unspecified order.
    type Elems<'a>: Iterator<Item = &'a T>
    where
        Self: 'a,
        T: 'a;

    /// Creates an empty set.
    fn empty() -> Self;

    /// Number of elements.
    fn len(&self) -> usize;

    /// True if the set holds no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `value` is a member.
    fn contains(&self, value: &T) -> bool;

    /// Returns a set including `value`; `self` is unchanged.
    fn inserted(&self, value: T) -> Self;

    /// Returns a set excluding `value`; `self` is unchanged.
    fn removed(&self, value: &T) -> Self;

    /// Iterates the elements.
    fn iter(&self) -> Self::Elems<'_>;

    /// Invokes `f` for every element, in unspecified order.
    fn for_each(&self, f: &mut dyn FnMut(&T)) {
        for v in self.iter() {
            f(v);
        }
    }
}

/// A persistent multi-map: a binary relation with fast by-key access.
///
/// Terminology follows the paper: a *tuple* is one `(key, value)` pair; a key
/// mapped to n values contributes n tuples but one *key*.
pub trait MultiMapOps<K, V>: Clone {
    /// Short human-readable implementation name used in benchmark reports.
    const NAME: &'static str;

    /// Borrowing iterator over flattened `(key, value)` tuples — the paper's
    /// *Iteration (Entry)* sequence — in unspecified order.
    type Tuples<'a>: Iterator<Item = (&'a K, &'a V)>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    /// Borrowing iterator over distinct keys — the paper's *Iteration (Key)*
    /// — in unspecified order.
    type Keys<'a>: Iterator<Item = &'a K>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    /// Borrowing iterator over the values of one key; empty when the key is
    /// absent.
    type ValuesOf<'a>: Iterator<Item = &'a V>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    /// Borrowed view of one present key's values, returned by
    /// [`MultiMapOps::get`].
    type Values<'a>: ValuesView<'a, V>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    /// Creates an empty multi-map.
    fn empty() -> Self;

    /// Total number of `(key, value)` tuples.
    fn tuple_count(&self) -> usize;

    /// Number of distinct keys.
    fn key_count(&self) -> usize;

    /// True if the multi-map holds no tuples.
    fn is_empty(&self) -> bool {
        self.tuple_count() == 0
    }

    /// Borrowed view of the values bound to `key`, or `None` if the key is
    /// absent. The key is hashed once here; the view's
    /// [`contains`](ValuesView::contains) hashes only the probed value, so a
    /// caller asking several questions of one key pays for its hash once.
    fn get(&self, key: &K) -> Option<Self::Values<'_>>;

    /// Looks up every key of `keys` at once, appending one
    /// [`MultiMapOps::get`] answer per key to `out`, in the order of `keys`
    /// (absent and repeated keys included).
    ///
    /// The default calls `get` per key. A trie whose nodes are far apart in
    /// memory can do better by walking all keys level by level and
    /// prefetching each next node, so that the cache misses of the batch
    /// overlap (the AXIOM multi-map does).
    fn get_many<'a>(&'a self, keys: &[&K], out: &mut Vec<Option<Self::Values<'a>>>) {
        out.extend(keys.iter().map(|key| self.get(key)));
    }

    /// True if `key` maps to at least one value.
    fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// True if the exact tuple `(key, value)` is present.
    fn contains_tuple(&self, key: &K, value: &V) -> bool {
        self.get(key).is_some_and(|vs| vs.contains(value))
    }

    /// Number of values associated with `key` (0 if absent).
    fn value_count(&self, key: &K) -> usize {
        self.get(key).map_or(0, |vs| vs.len())
    }

    /// Returns a multi-map additionally containing the tuple `(key, value)`;
    /// `self` is unchanged. Inserting a present tuple is a no-op.
    fn inserted(&self, key: K, value: V) -> Self;

    /// Returns a multi-map without the tuple `(key, value)`; `self` is
    /// unchanged. Removing an absent tuple is a no-op.
    fn tuple_removed(&self, key: &K, value: &V) -> Self;

    /// Returns a multi-map without any tuple for `key`; `self` is unchanged.
    fn key_removed(&self, key: &K) -> Self;

    /// Iterates all `(key, value)` tuples.
    fn tuples(&self) -> Self::Tuples<'_>;

    /// Iterates the distinct keys.
    fn keys(&self) -> Self::Keys<'_>;

    /// Iterates the values associated with `key` (nothing if absent), in
    /// the order `get(key)`'s [`ValuesView::iter`] yields them.
    fn values_of<'a>(&'a self, key: &K) -> Self::ValuesOf<'a>;

    /// Invokes `f` for every tuple, in unspecified order.
    ///
    /// Default method on top of [`MultiMapOps::tuples`], kept for
    /// callback-style call sites.
    fn for_each_tuple(&self, f: &mut dyn FnMut(&K, &V)) {
        for (k, v) in self.tuples() {
            f(k, v);
        }
    }

    /// Invokes `f` once per distinct key, in unspecified order.
    fn for_each_key(&self, f: &mut dyn FnMut(&K)) {
        for k in self.keys() {
            f(k);
        }
    }

    /// Invokes `f` for every value associated with `key`.
    fn for_each_value_of(&self, key: &K, f: &mut dyn FnMut(&V)) {
        for v in self.values_of(key) {
            f(v);
        }
    }
}

/// A borrowed view of the values one multi-map key is bound to, as returned
/// by [`MultiMapOps::get`]. A view exists only for a present key, so it is
/// never empty.
pub trait ValuesView<'a, V: 'a> {
    /// Borrowing iterator over the viewed values, in unspecified order.
    type Iter: Iterator<Item = &'a V>;

    /// Number of values (at least one).
    fn len(&self) -> usize;

    /// Always false: a present key has at least one value.
    fn is_empty(&self) -> bool {
        false
    }

    /// True if `value` is among the key's values.
    fn contains(&self, value: &V) -> bool;

    /// Iterates the values.
    fn iter(&self) -> Self::Iter;
}

// ---------------------------------------------------------------------------
// Structural set algebra.
// ---------------------------------------------------------------------------

/// The delta between two sets: `self.diff(other)` reports what `other` has
/// that `self` lacks (`added`) and what `self` has that `other` lacks
/// (`removed`). Orientation: `self` is the *old* version, `other` the *new*.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SetDiff<T> {
    /// Elements present in `other` but not in `self`.
    pub added: Vec<T>,
    /// Elements present in `self` but not in `other`.
    pub removed: Vec<T>,
}

impl<T> SetDiff<T> {
    /// An empty delta (the two sets are equal).
    pub fn new() -> Self {
        SetDiff {
            added: Vec::new(),
            removed: Vec::new(),
        }
    }

    /// True if the two sets were equal.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Total number of differing elements.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

/// The delta between two maps (`self` old, `other` new): keys only in
/// `other` (`added`), keys only in `self` (`removed`), and keys present in
/// both whose values differ (`changed`, as `(key, old, new)`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapDiff<K, V> {
    /// Entries whose key is present in `other` but not in `self`.
    pub added: Vec<(K, V)>,
    /// Entries whose key is present in `self` but not in `other`.
    pub removed: Vec<(K, V)>,
    /// Keys present in both with differing values, as `(key, old, new)`.
    pub changed: Vec<(K, V, V)>,
}

impl<K, V> MapDiff<K, V> {
    /// An empty delta (the two maps are equal).
    pub fn new() -> Self {
        MapDiff {
            added: Vec::new(),
            removed: Vec::new(),
            changed: Vec::new(),
        }
    }

    /// True if the two maps were equal.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.changed.is_empty()
    }

    /// Total number of differing entries.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len() + self.changed.len()
    }
}

/// The delta between two multi-maps (`self` old, `other` new), reported at
/// tuple granularity: a key whose value set changed contributes one entry
/// per differing value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiMapDiff<K, V> {
    /// Tuples present in `other` but not in `self`.
    pub added: Vec<(K, V)>,
    /// Tuples present in `self` but not in `other`.
    pub removed: Vec<(K, V)>,
}

impl<K, V> MultiMapDiff<K, V> {
    /// An empty delta (the two relations are equal).
    pub fn new() -> Self {
        MultiMapDiff {
            added: Vec::new(),
            removed: Vec::new(),
        }
    }

    /// True if the two relations were equal.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Total number of differing tuples.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

/// Set algebra over a persistent set: `union` / `intersect` / `difference` /
/// `diff`, one surface for every set in the workspace.
///
/// Every operation has a *documented element-wise fallback* as its default
/// body, expressed through [`SetAlgebraOps::diff`]: `union` inserts
/// `diff.added`, `intersect` removes `diff.removed` from `self`, and
/// `difference` rebuilds from `diff.removed`. A trie that overrides `diff`
/// with a structural lockstep node walk (short-circuiting shared subtrees
/// via pointer equality) therefore turns *all four* operations into
/// O(changed) at once — the hash tries additionally override the algebra
/// methods themselves with node-merging walks that also share result
/// structure with the operands.
///
/// Naming: the operation is `intersect`, matching the relational layer.
/// (The `intersection` alias from the rename release has been removed.)
pub trait SetAlgebraOps<T: Clone>: SetOps<T> {
    /// The element-level delta from `self` (old) to `other` (new).
    ///
    /// Default: element-wise O(|self| + |other|) membership probing — the
    /// documented fallback path. Structural implementations walk both tries
    /// in lockstep and emit nothing for pointer-identical subtrees, making
    /// this O(changed) for operands that share structure.
    fn diff(&self, other: &Self) -> SetDiff<T> {
        let mut out = SetDiff::new();
        for v in other.iter() {
            if !self.contains(v) {
                out.added.push(v.clone());
            }
        }
        for v in self.iter() {
            if !other.contains(v) {
                out.removed.push(v.clone());
            }
        }
        out
    }

    /// Elements in `self` or `other`.
    fn union(&self, other: &Self) -> Self {
        let d = self.diff(other);
        d.added
            .into_iter()
            .fold(self.clone(), |acc, v| acc.inserted(v))
    }

    /// Elements in both `self` and `other`.
    fn intersect(&self, other: &Self) -> Self {
        let d = self.diff(other);
        d.removed
            .into_iter()
            .fold(self.clone(), |acc, v| acc.removed(&v))
    }

    /// Elements in `self` but not in `other`.
    fn difference(&self, other: &Self) -> Self {
        let d = self.diff(other);
        d.removed
            .into_iter()
            .fold(Self::empty(), |acc, v| acc.inserted(v))
    }
}

/// Merge algebra over a persistent map, mirroring [`SetAlgebraOps`] with
/// map semantics: `merged` is right-biased (`other` wins on conflicting
/// values), `merged_with` resolves conflicts through a callback, `intersect`
/// keeps `self`'s values for keys present in both, and `difference` keeps
/// `self`'s entries whose keys `other` lacks.
///
/// All defaults route through [`MapMergeOps::diff`], so a structural `diff`
/// override upgrades every operation to O(changed) at once.
pub trait MapMergeOps<K: Clone, V: Clone + PartialEq>: MapOps<K, V> {
    /// The entry-level delta from `self` (old) to `other` (new).
    ///
    /// Default: element-wise probing (the documented fallback). Structural
    /// implementations skip pointer-identical subtrees.
    fn diff(&self, other: &Self) -> MapDiff<K, V> {
        let mut out = MapDiff::new();
        for (k, v) in other.entries() {
            match self.get(k) {
                None => out.added.push((k.clone(), v.clone())),
                Some(mine) if mine != v => {
                    out.changed.push((k.clone(), mine.clone(), v.clone()));
                }
                Some(_) => {}
            }
        }
        for (k, v) in self.entries() {
            if !other.contains_key(k) {
                out.removed.push((k.clone(), v.clone()));
            }
        }
        out
    }

    /// Right-biased union: every key of either map, with `other`'s value
    /// winning where both bind the same key.
    fn merged(&self, other: &Self) -> Self {
        self.merged_with(other, |_, _, theirs| theirs.clone())
    }

    /// Union with explicit conflict resolution: keys bound by both maps to
    /// differing values are resolved by `resolve(key, self's, other's)`.
    fn merged_with<F>(&self, other: &Self, mut resolve: F) -> Self
    where
        F: FnMut(&K, &V, &V) -> V,
    {
        let d = self.diff(other);
        let mut out = self.clone();
        for (k, v) in d.added {
            out = out.inserted(k, v);
        }
        for (k, mine, theirs) in d.changed {
            let v = resolve(&k, &mine, &theirs);
            out = out.inserted(k, v);
        }
        out
    }

    /// Keys present in both maps, keeping `self`'s values.
    fn intersect(&self, other: &Self) -> Self {
        let d = self.diff(other);
        d.removed
            .into_iter()
            .fold(self.clone(), |acc, (k, _)| acc.removed(&k))
    }

    /// Entries of `self` whose keys are not bound by `other`.
    fn difference(&self, other: &Self) -> Self {
        let d = self.diff(other);
        d.removed
            .into_iter()
            .fold(Self::empty(), |acc, (k, v)| acc.inserted(k, v))
    }
}

/// Set algebra over a persistent multi-map, at tuple granularity: the
/// relation is treated as a set of `(key, value)` tuples.
///
/// All defaults route through [`MultiMapAlgebraOps::diff`], so a structural
/// `diff` override (lockstep trie walk with `CAT1`/`CAT2` bag merging)
/// upgrades every operation to O(changed) at once.
pub trait MultiMapAlgebraOps<K: Clone, V: Clone>: MultiMapOps<K, V> {
    /// The tuple-level delta from `self` (old) to `other` (new).
    ///
    /// Default: element-wise probing (the documented fallback). Structural
    /// implementations skip pointer-identical subtrees and diff shared-key
    /// value bags structurally.
    fn diff(&self, other: &Self) -> MultiMapDiff<K, V> {
        let mut out = MultiMapDiff::new();
        for (k, v) in other.tuples() {
            if !self.contains_tuple(k, v) {
                out.added.push((k.clone(), v.clone()));
            }
        }
        for (k, v) in self.tuples() {
            if !other.contains_tuple(k, v) {
                out.removed.push((k.clone(), v.clone()));
            }
        }
        out
    }

    /// Tuples in `self` or `other`.
    fn union(&self, other: &Self) -> Self {
        let d = self.diff(other);
        d.added
            .into_iter()
            .fold(self.clone(), |acc, (k, v)| acc.inserted(k, v))
    }

    /// Tuples in both `self` and `other`.
    fn intersect(&self, other: &Self) -> Self {
        let d = self.diff(other);
        d.removed
            .into_iter()
            .fold(self.clone(), |acc, (k, v)| acc.tuple_removed(&k, &v))
    }

    /// Tuples in `self` but not in `other`.
    fn difference(&self, other: &Self) -> Self {
        let d = self.diff(other);
        d.removed
            .into_iter()
            .fold(Self::empty(), |acc, (k, v)| acc.inserted(k, v))
    }
}

// ---------------------------------------------------------------------------
// The in-place mutation surface (`_mut` families).
// ---------------------------------------------------------------------------

/// The in-place mutation surface of a persistent map: the inherent `_mut`
/// family, lifted to a trait so generic layers (the sharded store, the
/// workload drivers) can batch edits without naming a concrete trie.
///
/// Every method follows the `Rc`/`Arc`-uniqueness discipline documented on
/// [`EditInPlace`]: uniquely-owned nodes are edited in place, shared nodes
/// are path-copied, so no other handle ever observes a mutation.
pub trait MapMutOps<K, V>: MapOps<K, V> {
    /// Binds `key` to `value` in place. Returns true if a new key was added.
    fn insert_mut(&mut self, key: K, value: V) -> bool;

    /// Removes `key` in place. Returns true if a binding was removed.
    fn remove_mut(&mut self, key: &K) -> bool;

    /// Applies one scripted edit; returns the entry-count delta (±1 or 0).
    fn apply_mut(&mut self, edit: MapEdit<K, V>) -> isize {
        match edit {
            MapEdit::Insert(k, v) => self.insert_mut(k, v) as isize,
            MapEdit::Remove(k) => -(self.remove_mut(&k) as isize),
        }
    }
}

/// The in-place mutation surface of a persistent set (see [`MapMutOps`]).
///
/// The `_hashed` methods, here and on [`MultiMapMutOps`], take the
/// element's or key's [`hash32`](crate::hash::hash32) from a caller that
/// looks the same key up many times and whose `Hash` is expensive (the
/// dominators fixed point hashes each CFG node once). A trie that walks
/// by that hash overrides them and does not hash the key; the defaults
/// ignore the hash. A wrong hash is a logic error, like a `Hash` that
/// disagrees with `Eq`: the key is looked up or stored under the wrong
/// branches, so a lookup misses it and an insert may store it twice. It is
/// never undefined behaviour, and debug builds of the overrides panic on
/// it ([`debug_assert_hash`](crate::hash::debug_assert_hash)).
pub trait SetMutOps<T>: SetOps<T> {
    /// Inserts `value` in place. Returns true if the set grew.
    fn insert_mut(&mut self, value: T) -> bool;

    /// [`insert_mut`](SetMutOps::insert_mut) of a value whose hash the
    /// caller computed (see the [trait documentation](SetMutOps)).
    ///
    /// Default: ignores `hash` and calls `insert_mut`.
    fn insert_hashed_mut(&mut self, value: T, hash: u32) -> bool {
        let _ = hash;
        self.insert_mut(value)
    }

    /// Removes `value` in place. Returns true if the set shrank.
    fn remove_mut(&mut self, value: &T) -> bool;

    /// Applies one scripted edit; returns the element-count delta (±1 or 0).
    fn apply_mut(&mut self, edit: SetEdit<T>) -> isize {
        match edit {
            SetEdit::Insert(v) => self.insert_mut(v) as isize,
            SetEdit::Remove(v) => -(self.remove_mut(&v) as isize),
        }
    }
}

/// The in-place mutation surface of a persistent multi-map (see
/// [`MapMutOps`]).
///
/// Besides tuple edits it works on a key's values as a whole: a
/// [`ValueSet`](MultiMapMutOps::ValueSet) is an owned persistent set that
/// [`value_set`](MultiMapMutOps::value_set) reads out and
/// [`put_value_set_mut`](MultiMapMutOps::put_value_set_mut) binds back, so
/// callers can run the set's structural algebra on whole value sets.
pub trait MultiMapMutOps<K, V: Clone>: MultiMapOps<K, V> {
    /// A key's values as an owned persistent set.
    type ValueSet: SetAlgebraOps<V> + SetMutOps<V> + Clone + Eq;

    /// Inserts the tuple `(key, value)` in place. Returns true if the
    /// relation grew (inserting a present tuple is a no-op).
    fn insert_mut(&mut self, key: K, value: V) -> bool;

    /// Removes the tuple `(key, value)` in place. Returns true if present.
    fn remove_tuple_mut(&mut self, key: &K, value: &V) -> bool;

    /// Removes every tuple for `key` in place. Returns how many were
    /// removed.
    fn remove_key_mut(&mut self, key: &K) -> usize;

    /// The values bound to `key` as an owned set (`None` if the key is
    /// absent). A binding stored as a nested trie set comes back as an
    /// `O(1)` clone sharing its nodes; an inlined or small-array binding is
    /// built into a set.
    fn value_set(&self, key: &K) -> Option<Self::ValueSet>;

    /// [`value_set`](MultiMapMutOps::value_set) of a key whose hash the
    /// caller computed (see [`SetMutOps`] on the `_hashed` methods).
    ///
    /// Default: ignores `hash` and calls `value_set`.
    fn value_set_hashed(&self, key: &K, hash: u32) -> Option<Self::ValueSet> {
        let _ = hash;
        self.value_set(key)
    }

    /// Binds `key` to exactly the values of `set` in place, replacing
    /// whatever it was bound to, and returns the tuple-count delta. An
    /// empty `set` removes the key; a one-element set takes the inlined
    /// form where the multi-map has one. No value is hashed, and a set that
    /// is stored as it is keeps sharing its nodes with the caller's copy.
    fn put_value_set_mut(&mut self, key: K, set: Self::ValueSet) -> isize;

    /// [`put_value_set_mut`](MultiMapMutOps::put_value_set_mut) of a key
    /// whose hash the caller computed (see [`SetMutOps`] on the `_hashed`
    /// methods).
    ///
    /// Default: ignores `hash` and calls `put_value_set_mut`.
    fn put_value_set_hashed_mut(&mut self, key: K, hash: u32, set: Self::ValueSet) -> isize {
        let _ = hash;
        self.put_value_set_mut(key, set)
    }

    /// Binds `key` to exactly `values` in place, replacing whatever it was
    /// bound to. Duplicate values collapse; empty `values` removes the key.
    /// Returns the tuple-count delta.
    ///
    /// Default: the values are collected into a
    /// [`ValueSet`](MultiMapMutOps::ValueSet) and bound with one
    /// [`put_value_set_mut`](MultiMapMutOps::put_value_set_mut), so the key
    /// is looked up once however many values it gets.
    fn replace_values_mut(&mut self, key: K, values: impl IntoIterator<Item = V>) -> isize {
        let mut set = Self::ValueSet::empty();
        for value in values {
            set.insert_mut(value);
        }
        self.put_value_set_mut(key, set)
    }

    /// Applies one scripted edit; returns the tuple-count delta.
    fn apply_mut(&mut self, edit: MultiMapEdit<K, V>) -> isize {
        match edit {
            MultiMapEdit::Insert(k, v) => self.insert_mut(k, v) as isize,
            MultiMapEdit::RemoveTuple(k, v) => -(self.remove_tuple_mut(&k, &v) as isize),
            MultiMapEdit::RemoveKey(k) => -(self.remove_key_mut(&k) as isize),
        }
    }
}

/// One scripted map edit — the batch currency of generic write layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapEdit<K, V> {
    /// Bind `key` to `value` (replacing any previous binding).
    Insert(K, V),
    /// Drop any binding for the key.
    Remove(K),
}

/// One scripted set edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetEdit<T> {
    /// Add the element.
    Insert(T),
    /// Drop the element.
    Remove(T),
}

/// One scripted multi-map edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiMapEdit<K, V> {
    /// Add the tuple `(key, value)`.
    Insert(K, V),
    /// Drop exactly the tuple `(key, value)`.
    RemoveTuple(K, V),
    /// Drop every tuple for the key.
    RemoveKey(K),
}

impl<K, V> MapEdit<K, V> {
    /// The key this edit routes on (what a sharded layer partitions by).
    pub fn key(&self) -> &K {
        match self {
            MapEdit::Insert(k, _) | MapEdit::Remove(k) => k,
        }
    }
}

impl<T> SetEdit<T> {
    /// The element this edit routes on.
    pub fn key(&self) -> &T {
        match self {
            SetEdit::Insert(v) | SetEdit::Remove(v) => v,
        }
    }
}

impl<K, V> MultiMapEdit<K, V> {
    /// The key this edit routes on (what a sharded layer partitions by).
    pub fn key(&self) -> &K {
        match self {
            MultiMapEdit::Insert(k, _)
            | MultiMapEdit::RemoveTuple(k, _)
            | MultiMapEdit::RemoveKey(k) => k,
        }
    }
}

// ---------------------------------------------------------------------------
// Wire encoding of the edit scripts.
//
// Each edit serializes through the snapshot value codec as one sequence
// `[code, fields...]` with frozen per-enum op codes (new variants append,
// existing ones never renumber) — the same convention as the serving op
// enums, so a remote writer's batch decodes into exactly these scripts.
// The code tables live in `DESIGN.md` §10.
// ---------------------------------------------------------------------------

/// Builds the wire surface of an edit enum: `op_code()`, the code → name
/// table, and `Serialize`/`Deserialize` as `[code, fields...]` sequences.
macro_rules! edit_wire {
    ($name:ident < $($gen:ident),* > expecting $exp:literal, {
        $($code:literal => $variant:ident ( $($field:ident),* )),* $(,)?
    }) => {
        impl<$($gen),*> $name<$($gen),*> {
            /// The variant's stable wire op code (frozen; never renumbered).
            pub fn op_code(&self) -> u16 {
                match self {
                    $($name::$variant ( $(edit_wire!(@skip $field)),* ) => $code,)*
                }
            }

            /// The variant name a wire op code denotes, if defined.
            pub fn name_of_code(code: u16) -> Option<&'static str> {
                match code {
                    $($code => Some(stringify!($variant)),)*
                    _ => None,
                }
            }
        }

        impl<$($gen: serde::ser::Serialize),*> serde::ser::Serialize for $name<$($gen),*> {
            fn serialize<Ser: serde::ser::Serializer>(
                &self,
                serializer: Ser,
            ) -> Result<Ser::Ok, Ser::Error> {
                use serde::ser::SerializeSeq;
                match self {
                    $($name::$variant ( $($field),* ) => {
                        let arity = 1usize $( + { let _ = stringify!($field); 1 } )*;
                        let mut seq = serializer.serialize_seq(Some(arity))?;
                        seq.serialize_element(&($code as u64))?;
                        $( seq.serialize_element($field)?; )*
                        seq.end()
                    })*
                }
            }
        }

        impl<'de, $($gen: serde::de::Deserialize<'de>),*> serde::de::Deserialize<'de>
            for $name<$($gen),*>
        {
            fn deserialize<D: serde::de::Deserializer<'de>>(
                deserializer: D,
            ) -> Result<Self, D::Error> {
                use serde::de::{Error as _, SeqAccess, Visitor};
                struct WireVisitor<$($gen),*>(std::marker::PhantomData<($($gen,)*)>);
                impl<'de, $($gen: serde::de::Deserialize<'de>),*> Visitor<'de>
                    for WireVisitor<$($gen),*>
                {
                    type Value = $name<$($gen),*>;

                    fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                        f.write_str($exp)
                    }

                    fn visit_seq<A: SeqAccess<'de>>(
                        self,
                        mut seq: A,
                    ) -> Result<Self::Value, A::Error> {
                        let code: u64 = seq
                            .next_element()?
                            .ok_or_else(|| A::Error::custom("edit value ended before its code"))?;
                        match code {
                            $($code => Ok($name::$variant ( $(
                                {
                                    seq.next_element()?.ok_or_else(|| A::Error::custom(
                                        concat!(
                                            "edit value ended before ",
                                            stringify!($field)
                                        ),
                                    ))?
                                }
                            ),* )),)*
                            other => Err(A::Error::custom(format!(
                                concat!("unknown ", stringify!($name), " op code {}"),
                                other
                            ))),
                        }
                    }
                }
                deserializer.deserialize_seq(WireVisitor(std::marker::PhantomData))
            }
        }
    };
    (@skip $f:ident) => { _ };
}

edit_wire!(MapEdit<K, V> expecting "a MapEdit script", {
    1 => Insert(k, v),
    2 => Remove(k),
});

edit_wire!(SetEdit<T> expecting "a SetEdit script", {
    1 => Insert(v),
    2 => Remove(v),
});

edit_wire!(MultiMapEdit<K, V> expecting "a MultiMapEdit script", {
    1 => Insert(k, v),
    2 => RemoveTuple(k, v),
    3 => RemoveKey(k),
});

// ---------------------------------------------------------------------------
// The transient builder protocol.
// ---------------------------------------------------------------------------

/// A transient builder: the mutable phase of a persistent collection.
///
/// Obtained from [`TransientOps::transient`] (seeded with a collection's
/// contents) or [`TransientOps::transient_builder`] (empty). Batches of
/// [`Builder::insert_mut`] edit the transient in place; [`Builder::build`]
/// freezes it back into the persistent type. `Item` is the collection's
/// element shape: `(K, V)` for maps and multi-maps, `T` for sets.
pub trait Builder<Item>: Sized {
    /// The persistent collection this builder freezes into.
    type Persistent;

    /// Inserts one item in place. Returns true if the collection grew (the
    /// same contract as the inherent `insert_mut` methods).
    fn insert_mut(&mut self, item: Item) -> bool;

    /// Bulk-inserts a batch, returning how many insertions reported growth.
    fn insert_all_mut<I: IntoIterator<Item = Item>>(&mut self, items: I) -> usize {
        items
            .into_iter()
            .map(|item| self.insert_mut(item))
            .filter(|grew| *grew)
            .count()
    }

    /// Freezes the transient back into a persistent collection.
    fn build(self) -> Self::Persistent;
}

/// Persistent collections that support the transient builder protocol:
/// persistent → transient → bulk `insert_mut` batches → freeze.
///
/// Every collection in this workspace implements it through the blanket
/// impl over [`EditInPlace`].
pub trait TransientOps<Item>: Sized {
    /// The builder type of this collection.
    type Transient: Builder<Item, Persistent = Self>;

    /// Converts this persistent collection into a transient seeded with its
    /// contents. Consumes the handle — other handles to the same structure
    /// remain valid and unaffected (structural sharing).
    fn transient(self) -> Self::Transient;

    /// An empty transient builder.
    fn transient_builder() -> Self::Transient;

    /// Bulk-builds a collection from scratch through the transient path.
    fn built_from<I: IntoIterator<Item = Item>>(items: I) -> Self {
        let mut t = Self::transient_builder();
        t.insert_all_mut(items);
        t.build()
    }

    /// Returns this collection extended with a batch of items, built through
    /// the transient path; `self` is consumed (clone first to keep the old
    /// version).
    fn bulk_inserted<I: IntoIterator<Item = Item>>(self, items: I) -> Self {
        let mut t = self.transient();
        t.insert_all_mut(items);
        t.build()
    }
}

/// One-method bridge into the blanket [`TransientOps`] impl: collections
/// whose handles support in-place editing backed by `Rc`/`Arc` uniqueness
/// (the inherent `insert_mut` family) implement this and get the whole
/// builder protocol for free.
///
/// # Contract
///
/// `edit_insert` must be **aliasing-safe and amortized-in-place**: trie
/// nodes the handle owns uniquely are edited directly (no path copy, no
/// node reallocation along an existing spine), while nodes shared with any
/// other handle are copied on first write so no other handle ever observes
/// a mutation. Under that contract a bulk build from scratch — where every
/// node is uniquely owned — performs O(1) amortized allocations per item,
/// which is the performance premise of [`TransientOps::built_from`] and the
/// construction benchmarks; a structural no-op must not copy anything.
pub trait EditInPlace<Item>: Default {
    /// Inserts one item in place. Returns true if the collection grew.
    fn edit_insert(&mut self, item: Item) -> bool;
}

/// The transient handle of an [`EditInPlace`] collection.
///
/// A thin newtype: the wrapped collection *is* the transient state, edited
/// through its `Rc`-uniqueness `_mut` methods, and [`Builder::build`] is a
/// zero-cost unwrap. The wrapper exists so the mutable phase is a distinct
/// type — persistent handles can never alias a transient under edit.
#[derive(Debug, Clone, Default)]
pub struct Transient<C> {
    inner: C,
}

impl<Item, C: EditInPlace<Item>> Builder<Item> for Transient<C> {
    type Persistent = C;

    fn insert_mut(&mut self, item: Item) -> bool {
        self.inner.edit_insert(item)
    }

    fn build(self) -> C {
        self.inner
    }
}

impl<Item, C: EditInPlace<Item>> TransientOps<Item> for C {
    type Transient = Transient<C>;

    fn transient(self) -> Transient<C> {
        Transient { inner: self }
    }

    fn transient_builder() -> Transient<C> {
        Transient {
            inner: C::default(),
        }
    }
}

/// `FromIterator` plumbing for implementors: collect through the transient
/// builder. Concrete collections write
/// `fn from_iter(iter: I) -> Self { ops::from_iter_via(iter) }`.
pub fn from_iter_via<C, Item, I>(items: I) -> C
where
    C: TransientOps<Item>,
    I: IntoIterator<Item = Item>,
{
    C::built_from(items)
}

/// `Extend` plumbing for implementors: batch-extend in place through the
/// transient builder.
///
/// Meant for [`EditInPlace`]-backed collections, whose persistent handles
/// are O(1) to clone. The clone keeps the operation panic-safe: if the
/// item iterator (or an element's `Clone`/`Hash`) panics mid-batch,
/// `collection` still holds its previous contents.
pub fn extend_via<C, Item, I>(collection: &mut C, items: I)
where
    C: TransientOps<Item> + Clone,
    I: IntoIterator<Item = Item>,
{
    let mut t = collection.clone().transient();
    t.insert_all_mut(items);
    *collection = t.build();
}

#[cfg(test)]
mod tests {
    use super::*;

    // A deliberately naive reference implementation proving the traits are
    // implementable and that their default methods behave.
    #[derive(Clone, Default)]
    struct VecMap(Vec<(u32, u32)>);

    impl MapOps<u32, u32> for VecMap {
        const NAME: &'static str = "vec-map";

        type Entries<'a> = std::iter::Map<std::slice::Iter<'a, (u32, u32)>, EntryOf>;
        type Keys<'a> = std::iter::Map<std::slice::Iter<'a, (u32, u32)>, KeyOf>;
        type Values<'a> = std::iter::Map<std::slice::Iter<'a, (u32, u32)>, ValueOf>;

        fn empty() -> Self {
            VecMap(Vec::new())
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn get(&self, key: &u32) -> Option<&u32> {
            self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }
        fn inserted(&self, key: u32, value: u32) -> Self {
            let mut next = self.clone();
            next.edit_insert((key, value));
            next
        }
        fn removed(&self, key: &u32) -> Self {
            VecMap(self.0.iter().filter(|(k, _)| k != key).cloned().collect())
        }
        fn entries(&self) -> Self::Entries<'_> {
            self.0.iter().map(entry_of)
        }
        fn keys(&self) -> Self::Keys<'_> {
            self.0.iter().map(key_of)
        }
        fn values(&self) -> Self::Values<'_> {
            self.0.iter().map(value_of)
        }
    }

    // Named function-pointer types make the closure-free GATs nameable.
    type EntryOf = fn(&(u32, u32)) -> (&u32, &u32);
    type KeyOf = fn(&(u32, u32)) -> &u32;
    type ValueOf = fn(&(u32, u32)) -> &u32;
    fn entry_of(e: &(u32, u32)) -> (&u32, &u32) {
        (&e.0, &e.1)
    }
    fn key_of(e: &(u32, u32)) -> &u32 {
        &e.0
    }
    fn value_of(e: &(u32, u32)) -> &u32 {
        &e.1
    }

    // The transient path through the one-method in-place bridge.
    impl EditInPlace<(u32, u32)> for VecMap {
        fn edit_insert(&mut self, (key, value): (u32, u32)) -> bool {
            match self.0.iter_mut().find(|(k, _)| *k == key) {
                Some(slot) => {
                    slot.1 = value;
                    false
                }
                None => {
                    self.0.push((key, value));
                    true
                }
            }
        }
    }

    #[test]
    fn default_methods_track_primitives() {
        let m = VecMap::empty();
        assert!(m.is_empty());
        assert!(!m.contains_key(&3));
        let m = m.inserted(3, 4);
        assert!(!m.is_empty());
        assert!(m.contains_key(&3));
        assert_eq!(m.len(), 1);
        // Persistence: the original is untouched.
        let m2 = m.removed(&3);
        assert!(m2.is_empty());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn for_each_defaults_agree_with_iterators() {
        let m = VecMap::empty().inserted(1, 10).inserted(2, 20);
        let mut via_callback = Vec::new();
        m.for_each_entry(&mut |k, v| via_callback.push((*k, *v)));
        let via_iter: Vec<(u32, u32)> = m.entries().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(via_callback, via_iter);

        let keys: Vec<u32> = m.keys().copied().collect();
        let values: Vec<u32> = m.values().copied().collect();
        assert_eq!(keys, vec![1, 2]);
        assert_eq!(values, vec![10, 20]);
    }

    #[test]
    fn plumbing_helpers_route_through_the_builder() {
        let m: VecMap = from_iter_via([(1u32, 2u32), (3, 4)]);
        assert_eq!(m.len(), 2);
        let mut m = m;
        extend_via(&mut m, [(5, 6)]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&5), Some(&6));
    }
}
