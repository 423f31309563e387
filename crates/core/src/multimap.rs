//! The AXIOM persistent multi-map: `1:1`, `n:1` and `n:n` mappings in one
//! type-heterogeneous hash-trie.
//!
//! This is the paper's headline data structure. Every trie node discriminates
//! four branch states with 2-bit tags (see [`crate::bitmap`]):
//!
//! * `CAT1` — a key with an **inlined singleton value** (`1:1` tuple);
//! * `CAT2` — a key with a **nested collection** of ≥ 2 values (`1:n`);
//! * `NODE` — a sub-trie; `EMPTY` — unoccupied.
//!
//! Each node is one allocation ([`trie_common::packed`]): the bitmap, then
//! the `1:1` tuples, the `1:n` tuples and the sub-trie handles, each group
//! ascending by mask. The bitmap is the only tag; no slot carries one.
//!
//! The multi-map runs the node walk of the AXIOM and CHAMP sets and maps,
//! [`trie_common::node`], with `CAT2` as its second payload kind: lookup
//! and batched lookup, insertion, put, removal with canonical inlining,
//! collision nodes, iteration and the canonical-form check are written
//! once there. This module holds the public API, the values of one key
//! ([`BindingRef`]) and the `CAT2` hooks of that walk: content migrates
//! between representations as the relation evolves (paper §3.2), so
//! inserting a second value *promotes* a `CAT1` slot to `CAT2` and deleting
//! down to one value *demotes* it back, while the walk pushes payload into
//! fresh sub-tries on prefix clashes and inlines collapsed sub-tries into
//! parents on deletion. Memory therefore degrades/improves gracefully as
//! arities grow or shrink — the skewed-distribution insight the paper
//! exploits.
//!
//! The value-storage strategy is pluggable via [`ValueBag`]: nested
//! [`AxiomSet`]s (baseline) or [`FusedBag`](crate::bag::FusedBag) (the
//! paper's fusion variant, see [`AxiomFusedMultiMap`](crate::AxiomFusedMultiMap)).
//!
//! # Examples
//!
//! ```
//! use axiom::AxiomMultiMap;
//!
//! let mm = AxiomMultiMap::<&str, u32>::new()
//!     .inserted("D", 4)
//!     .inserted("D", 5) // "D" promotes to a 1:n mapping
//!     .inserted("A", 1);
//! assert_eq!(mm.tuple_count(), 3);
//! assert_eq!(mm.key_count(), 2);
//! assert!(mm.contains_tuple(&"D", &5));
//! assert_eq!(mm.get(&"D").map(|v| v.len()), Some(2));
//!
//! let smaller = mm.tuple_removed(&"D", &4); // demotes back to 1:1
//! assert_eq!(smaller.get(&"D").map(|v| v.len()), Some(1));
//! assert_eq!(mm.tuple_count(), 3); // original unchanged
//! ```

use std::hash::Hash;
use std::marker::PhantomData;

use trie_common::bits::{hash_exhausted, next_shift};
use trie_common::hash::{debug_assert_hash, hash32};
use trie_common::node::{self, Bind, Bitmap, Branch, Entry, Gone, Held, Inserted, Many, Place};
use trie_common::ops::MultiMapDiff;
use trie_common::packed::{Manys, Ones, Slot};

use crate::bag::{BagEdited, BagIter, BagRef, BagSlot, ValueBag};
use crate::bitmap::SlotBitmap;
use crate::set::AxiomSet;

/// The values bound to one key: an inlined singleton or a nested bag.
#[derive(Debug, Clone)]
pub(crate) enum Binding<V, B> {
    One(V),
    Many(B),
}

impl<V: Clone + Eq + Hash, B: ValueBag<V>> Binding<V, B> {
    fn len(&self) -> usize {
        match self {
            Binding::One(_) => 1,
            Binding::Many(bag) => bag.len(),
        }
    }

    /// The binding of `values`, built in place (duplicates collapse);
    /// `None` when there are none.
    fn of_values(values: impl IntoIterator<Item = V>) -> Option<Binding<V, B>> {
        let mut values = values.into_iter();
        let mut binding = Binding::One(values.next()?);
        for value in values {
            binding = match binding {
                Binding::One(v) if v == value => Binding::One(v),
                Binding::One(v) => Binding::Many(B::from_two(v, value)),
                Binding::Many(mut bag) => {
                    bag.insert_mut(value);
                    Binding::Many(bag)
                }
            };
        }
        Some(binding)
    }
}

/// A put: binds a key to exactly this binding, whatever it was bound to.
/// Reports the number of values the key had. A put never removes a key, so
/// no sub-trie collapses.
impl<W, K, V, B> Bind<W, K, V, Cat2<K, V, B>> for Binding<V, B>
where
    W: Bitmap,
    K: Clone,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    type Out = usize;

    fn payload(self, key: K) -> node::Payload<W, K, V, Cat2<K, V, B>> {
        match self {
            Binding::One(v) => Slot::One((key, v)),
            Binding::Many(bag) => Slot::Many(Cat2::new(key, bag)),
        }
    }

    fn changed(_: &usize) -> bool {
        true
    }

    fn hit(self, node: &mut Node<W, K, V, B>, place: Place<W>, kind: Branch, idx: usize) -> usize {
        let old = match kind {
            Branch::Payload => 1,
            _ => node.many(idx).bag().len(),
        };
        match (kind, self) {
            (Branch::Payload, Binding::One(v)) => node.make_mut().ones[idx].1 = v,
            (Branch::Payload, Binding::Many(bag)) => {
                // CAT1 → CAT2 in place: the slot migrates groups.
                let (word, to) = place.target(node, kind, Branch::Many);
                node.migrate::<Ones, _>(word, idx, to, |(k, v)| (Slot::Many(Cat2::new(k, bag)), v));
            }
            (_, Binding::One(v)) => {
                let (word, to) = place.target(node, kind, Branch::Payload);
                node.migrate::<Manys, _>(word, idx, to, |many| {
                    let (k, bag) = many.into_parts();
                    (Slot::One((k, v)), bag)
                });
            }
            (_, Binding::Many(bag)) => {
                let slots = node.make_mut();
                B::put_in(&mut slots.manys[idx - slots.ones.len()].0, bag);
            }
        }
        old
    }
}

/// A `1:n` tuple: a key and its bag of ≥ 2 values, side by side as the
/// bag strategy lays them out ([`BagSlot::Entry`]).
pub(crate) struct Cat2<K, V, B: BagSlot<V>>(B::Entry<K>);

impl<K, V, B: ValueBag<V>> Cat2<K, V, B> {
    fn new(key: K, bag: B) -> Self {
        Cat2(B::entry(key, bag))
    }

    pub(crate) fn key(&self) -> &K {
        B::key(&self.0)
    }

    pub(crate) fn bag(&self) -> BagRef<'_, V> {
        B::bag(&self.0)
    }

    fn into_parts(self) -> (K, B) {
        B::split(self.0)
    }
}

impl<K: Clone, V, B: ValueBag<V>> Clone for Cat2<K, V, B> {
    fn clone(&self) -> Self {
        Cat2(B::clone_entry(&self.0))
    }
}

impl<K: Eq, V: Clone + Eq + Hash, B: ValueBag<V>> PartialEq for Cat2<K, V, B> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key() && self.bag() == other.bag()
    }
}

/// The `CAT2` hooks of the node walk: promotion, a growing or shrinking
/// bag, demotion.
impl<K: Clone, V: Clone + Eq + Hash, B: ValueBag<V>> Many<K, V> for Cat2<K, V, B> {
    fn key(&self) -> &K {
        Cat2::key(self)
    }

    fn value_count(&self) -> usize {
        self.bag().len()
    }

    fn prefetch(&self) {
        self.bag().prefetch();
    }

    /// Promotes 1:1 → 1:n (CAT1 → CAT2), the existing value moving into
    /// the fresh bag, unless the value is the one bound already.
    fn insert_one<W: Bitmap>(
        node: &mut Node<W, K, V, B>,
        place: Place<W>,
        idx: usize,
        value: V,
    ) -> Inserted<V> {
        let v = &node.one(idx).1;
        if *v == value {
            return Inserted::Unchanged(Some(value));
        }
        let (hv, hvalue) = match B::HASHED {
            true => (hash32(v), hash32(&value)),
            false => (0, 0),
        };
        let (word, to) = place.target(node, Branch::Payload, Branch::Many);
        node.migrate::<Ones, _>(word, idx, to, |(k, v)| {
            let bag = B::from_two_hashed(v, hv, value, hvalue);
            (Slot::Many(Cat2::new(k, bag)), ())
        });
        Inserted::Changed(None)
    }

    /// Adds the value to the bag in place. A shared node is copied only for
    /// a value its bag lacks.
    fn insert_many<W: Bitmap>(node: &mut Node<W, K, V, B>, idx: usize, value: V) -> Inserted<V> {
        if !node.is_unique() && node.many(idx).bag().contains(&value) {
            return Inserted::Unchanged(Some(value));
        }
        let slots = node.make_mut();
        match B::insert_in(&mut slots.manys[idx - slots.ones.len()].0, value) {
            true => Inserted::Changed(None),
            false => Inserted::Unchanged(None),
        }
    }

    /// Takes the value out of the bag in place, and demotes 1:n → 1:1
    /// (CAT2 → CAT1) when one value survives, dropping the consumed bag. A
    /// shared node is copied only for a value its bag holds.
    fn remove_value<W: Bitmap>(
        node: &mut Node<W, K, V, B>,
        place: Place<W>,
        idx: usize,
        value: &V,
    ) -> bool {
        if !node.is_unique() && !node.many(idx).bag().contains(value) {
            return false;
        }
        let slots = node.make_mut();
        let survivor = match B::remove_in(&mut slots.manys[idx - slots.ones.len()].0, value) {
            BagEdited::NotFound => return false,
            BagEdited::Shrunk => return true,
            BagEdited::Single(survivor) => survivor,
        };
        let (word, to) = place.target(node, Branch::Many, Branch::Payload);
        node.migrate::<Manys, _>(word, idx, to, |many| {
            let (k, bag) = many.into_parts();
            (Slot::One((k, survivor)), bag)
        });
        true
    }

    fn validate(&self) {
        let bag = self.bag();
        bag.assert_invariants();
        assert!(bag.len() >= 2, "CAT2 bag with < 2 values");
    }
}

/// A trie node: one allocation holding the bitmap, the `1:1` tuples, the
/// `1:n` tuples and the sub-trie handles. Past the last hash level a node
/// is a collision node: keys sharing one 32-bit hash, no children, an
/// unused bitmap.
pub(crate) type Node<W, K, V, B> = node::Node<W, K, V, Cat2<K, V, B>>;

/// The root type of an [`AxiomMultiMap`].
type Root<K, V, B> = Node<SlotBitmap, K, V, B>;

/// The values of a payload the walk found.
fn binding_of<'a, K, V, B: ValueBag<V>>(
    entry: Entry<'a, K, V, Cat2<K, V, B>>,
) -> BindingRef<'a, V> {
    match entry {
        Entry::One((_, v)) => BindingRef::One(v),
        Entry::Many(many) => BindingRef::Many(many.bag()),
    }
}

/// The key and the values of a payload the walk found.
fn bound<'a, K, V, B>(entry: Entry<'a, K, V, Cat2<K, V, B>>) -> (&'a K, BindingRef<'a, V>)
where
    K: Clone,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    (entry.key(), binding_of(entry))
}

/// Borrowed view of one key's values. Returned by [`AxiomMultiMap::get`].
#[derive(Debug)]
pub enum BindingRef<'a, V> {
    /// The key maps to exactly one (inlined) value.
    One(&'a V),
    /// The key maps to a nested bag of ≥ 2 values.
    Many(BagRef<'a, V>),
}

impl<'a, V> Clone for BindingRef<'a, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'a, V> Copy for BindingRef<'a, V> {}

impl<'a, V: Clone + Eq + Hash> BindingRef<'a, V> {
    /// Number of values in the binding.
    pub fn len(&self) -> usize {
        match self {
            BindingRef::One(_) => 1,
            BindingRef::Many(bag) => bag.len(),
        }
    }

    /// Always false: bindings hold at least one value.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True if `value` is among the binding's values.
    pub fn contains(&self, value: &V) -> bool {
        match self {
            BindingRef::One(v) => *v == value,
            BindingRef::Many(bag) => bag.contains(value),
        }
    }

    /// Iterates the binding's values.
    pub fn iter(&self) -> BindingIter<'a, V> {
        match self {
            BindingRef::One(v) => BindingIter::One(std::iter::once(*v)),
            BindingRef::Many(bag) => BindingIter::Many(bag.iter()),
        }
    }
}

/// Iterator over one binding's values. Created by [`BindingRef::iter`].
#[derive(Debug)]
pub enum BindingIter<'a, V> {
    /// Singleton value.
    One(std::iter::Once<&'a V>),
    /// Nested bag.
    Many(BagIter<'a, V>),
}

impl<'a, V> Iterator for BindingIter<'a, V> {
    type Item = &'a V;
    fn next(&mut self) -> Option<&'a V> {
        match self {
            BindingIter::One(it) => it.next(),
            BindingIter::Many(it) => it.next(),
        }
    }
}

/// Iterator over the values bound to one key; empty when the key is absent.
/// Created by [`AxiomMultiMap::values_of`].
#[derive(Debug)]
pub struct ValuesOf<'a, V> {
    inner: Option<BindingIter<'a, V>>,
}

impl<'a, V> Iterator for ValuesOf<'a, V> {
    type Item = &'a V;
    fn next(&mut self) -> Option<&'a V> {
        self.inner.as_mut()?.next()
    }
}

// ---------------------------------------------------------------------------
// Structural relation diff and equality: lockstep node walks.
// ---------------------------------------------------------------------------
//
// `diff_nodes` walks two multi-map tries in lockstep, comparing the branch
// under each 5-bit mask. Pointer-identical sub-tries (`Packed::ptr_eq`) are
// skipped wholesale — the sharing the AXIOM canonical form guarantees after
// persistent edits — so the walk is O(changed) for operands that share
// structure. Bindings compare at tuple granularity: a `CAT1`×`CAT2` pair at
// the same mask (a promoted or demoted key) contributes only the values that
// actually differ, and `CAT2`×`CAT2` pairs diff their bags value by value.
// The walks of `trie_common::algebra` pair `(key, &value)` payloads and
// report a changed key's old and new value; a `CAT2` payload has no stored
// value to lend, and the multi-map's diff is by tuple, so these two stay
// here.

/// The `(key, binding)` payloads of a node.
fn entries<K: Clone, V: Clone + Eq + Hash, B: ValueBag<V>>(
    node: &Root<K, V, B>,
) -> impl Iterator<Item = (&K, BindingRef<'_, V>)> {
    let ones = node.ones().iter().map(Entry::One);
    ones.chain(node.manys().iter().map(Entry::Many)).map(bound)
}

/// Invokes `f` for every `(key, value)` tuple stored in the sub-trie.
fn for_each_tuple<K, V, B>(node: &Root<K, V, B>, f: &mut impl FnMut(&K, &V))
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    for (k, binding) in entries(node) {
        binding.iter().for_each(|v| f(k, v));
    }
    for child in node.children() {
        for_each_tuple(child, f);
    }
}

/// Emits every tuple of `binding` under `key` into `sink`.
fn emit<K: Clone, V: Clone + Eq + Hash>(
    key: &K,
    binding: BindingRef<'_, V>,
    sink: &mut Vec<(K, V)>,
) {
    sink.extend(binding.iter().map(|v| (key.clone(), v.clone())));
}

/// Emits every tuple one side holds at a branch into `sink`.
fn emit_all<K, V, B>(held: Held<'_, SlotBitmap, K, V, Cat2<K, V, B>>, sink: &mut Vec<(K, V)>)
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    match held {
        Held::Nothing => {}
        Held::Entry(entry) => {
            let (key, values) = bound(entry);
            emit(key, values, sink);
        }
        Held::Sub(sub) => for_each_tuple(sub, &mut |k, v| sink.push((k.clone(), v.clone()))),
    }
}

/// Emits the tuple-level delta between two same-key bindings into `out`.
fn diff_bindings<K, V>(
    key: &K,
    a: BindingRef<'_, V>,
    b: BindingRef<'_, V>,
    out: &mut MultiMapDiff<K, V>,
) where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
{
    if let (BindingRef::Many(x), BindingRef::Many(y)) = (a, b) {
        if x == y {
            return;
        }
    }
    for v in a.iter().filter(|v| !b.contains(v)) {
        out.removed.push((key.clone(), v.clone()));
    }
    for v in b.iter().filter(|v| !a.contains(v)) {
        out.added.push((key.clone(), v.clone()));
    }
}

/// Emits the delta between a payload binding on one side and a sub-trie on
/// the other. `payload_is_old` tells which orientation the pair has: true
/// when the binding comes from `self` (the old side) and the sub-trie from
/// `other`.
fn diff_binding_vs_sub<K, V, B>(
    (key, binding): (&K, BindingRef<'_, V>),
    sub: &Root<K, V, B>,
    shift: u32,
    payload_is_old: bool,
    out: &mut MultiMapDiff<K, V>,
) where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    let in_sub = node::get(sub, hash32(key), next_shift(shift), key).map(binding_of);
    let (gone, new) = match payload_is_old {
        true => (&mut out.removed, &mut out.added),
        false => (&mut out.added, &mut out.removed),
    };
    // Tuples of the payload binding missing from the sub-trie.
    for v in binding.iter() {
        if !in_sub.is_some_and(|theirs| theirs.contains(v)) {
            gone.push((key.clone(), v.clone()));
        }
    }
    // Tuples of the sub-trie missing from the payload binding: every tuple
    // under a different key, plus same-key values the binding lacks.
    for_each_tuple(sub, &mut |k, v| {
        if k != key || !binding.contains(v) {
            new.push((k.clone(), v.clone()));
        }
    });
}

/// Lockstep diff of two multi-map sub-tries at the same depth, accumulating
/// tuple-granularity added/removed entries into `out` (`a` old, `b` new).
fn diff_nodes<K, V, B>(
    a: &Root<K, V, B>,
    b: &Root<K, V, B>,
    shift: u32,
    out: &mut MultiMapDiff<K, V>,
) where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    if hash_exhausted(shift) {
        for (k, x) in entries(a) {
            match entries(b).find(|(kb, _)| *kb == k) {
                None => emit(k, x, &mut out.removed),
                Some((_, y)) => diff_bindings(k, x, y, out),
            }
        }
        for (k, y) in entries(b) {
            if !entries(a).any(|(ka, _)| ka == k) {
                emit(k, y, &mut out.added);
            }
        }
        return;
    }
    let (mut xa, mut xb) = (node::branches(a), node::branches(b));
    for m in a.word().occupied_with(b.word()) {
        match (xa(m), xb(m)) {
            (x, Held::Nothing) => emit_all(x, &mut out.removed),
            (Held::Nothing, y) => emit_all(y, &mut out.added),
            (Held::Entry(x), Held::Entry(y)) => {
                let ((ka, x), (kb, y)) = (bound(x), bound(y));
                if ka == kb {
                    // A promoted or demoted key contributes only the values
                    // that differ.
                    diff_bindings(ka, x, y, out);
                } else {
                    emit(ka, x, &mut out.removed);
                    emit(kb, y, &mut out.added);
                }
            }
            (Held::Entry(x), Held::Sub(bc)) => diff_binding_vs_sub(bound(x), bc, shift, true, out),
            (Held::Sub(ac), Held::Entry(y)) => diff_binding_vs_sub(bound(y), ac, shift, false, out),
            (Held::Sub(ac), Held::Sub(bc)) => {
                if !Root::ptr_eq(ac, bc) {
                    diff_nodes(ac, bc, next_shift(shift), out);
                }
            }
        }
    }
}

/// Structural equality of two canonical multi-map nodes at one depth.
fn node_eq<K, V, B>(a: &Root<K, V, B>, b: &Root<K, V, B>, shift: u32) -> bool
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    if hash_exhausted(shift) {
        return a.ones().len() == b.ones().len()
            && a.manys().len() == b.manys().len()
            && a.ones().iter().all(|x| b.ones().contains(x))
            && a.manys().iter().all(|x| b.manys().contains(x));
    }
    a.word() == b.word()
        && a.ones() == b.ones()
        && a.manys() == b.manys()
        && a.children()
            .iter()
            .zip(b.children())
            .all(|(c, d)| Root::ptr_eq(c, d) || node_eq(c, d, next_shift(shift)))
}

/// A persistent (immutable, structurally shared) multi-map on the AXIOM
/// encoding. See the [module documentation](self).
///
/// The third type parameter selects the `1:n` value-storage strategy and
/// defaults to nested [`AxiomSet`]s; [`crate::AxiomFusedMultiMap`] selects
/// the fusion strategy.
pub struct AxiomMultiMap<K, V, B: BagSlot<V> = AxiomSet<V>> {
    pub(crate) root: Root<K, V, B>,
    pub(crate) tuples: usize,
    pub(crate) keys: usize,
    marker: PhantomData<fn() -> B>,
}

impl<K, V, B: BagSlot<V>> Clone for AxiomMultiMap<K, V, B> {
    fn clone(&self) -> Self {
        AxiomMultiMap {
            root: self.root.clone(),
            tuples: self.tuples,
            keys: self.keys,
            marker: PhantomData,
        }
    }
}

impl<K, V, B> AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    /// Creates an empty multi-map.
    pub fn new() -> Self {
        AxiomMultiMap {
            root: Root::new(SlotBitmap::EMPTY, [], [], []),
            tuples: 0,
            keys: 0,
            marker: PhantomData,
        }
    }

    /// Total number of `(key, value)` tuples.
    pub fn tuple_count(&self) -> usize {
        self.tuples
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.keys
    }

    /// Alias for [`AxiomMultiMap::tuple_count`], matching conventional `len`.
    pub fn len(&self) -> usize {
        self.tuples
    }

    /// True if no tuple is stored.
    pub fn is_empty(&self) -> bool {
        self.tuples == 0
    }

    /// Borrowed view of the values bound to `key`.
    pub fn get(&self, key: &K) -> Option<BindingRef<'_, V>> {
        node::get(&self.root, hash32(key), 0, key).map(binding_of)
    }

    /// Looks up every key of `keys`, appending one [`AxiomMultiMap::get`]
    /// answer per key to `out`, in order.
    ///
    /// Up to 16 keys walk the trie together, level by level
    /// ([`trie_common::node::get_many`]): in each round every key still
    /// walking takes the one level step a `get` takes and prefetches the
    /// node it goes on in (or, on a `1:n` hit, its nested bag), so the
    /// cache misses of the batch overlap instead of queueing one behind
    /// another.
    ///
    /// # Examples
    ///
    /// ```
    /// use axiom::AxiomMultiMap;
    ///
    /// let mm: AxiomMultiMap<u32, u32> = [(1, 10), (1, 11), (2, 20)].into_iter().collect();
    /// let mut out = Vec::new();
    /// mm.get_many(&[&2, &3, &1], &mut out);
    /// let lens: Vec<_> = out.iter().map(|b| b.map(|b| b.len())).collect();
    /// assert_eq!(lens, [Some(1), None, Some(2)]);
    /// ```
    pub fn get_many<'a>(&'a self, keys: &[&K], out: &mut Vec<Option<BindingRef<'a, V>>>) {
        node::get_many(&self.root, keys, out, |hit| hit.map(binding_of));
    }

    /// True if `key` maps to at least one value.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// True if the exact tuple `(key, value)` is present.
    pub fn contains_tuple(&self, key: &K, value: &V) -> bool {
        match self.get(key) {
            Some(binding) => binding.contains(value),
            None => false,
        }
    }

    /// Number of values bound to `key` (0 if absent).
    pub fn value_count(&self, key: &K) -> usize {
        self.get(key).map_or(0, |b| b.len())
    }

    /// Returns a multi-map additionally containing `(key, value)`; `self` is
    /// unchanged. Inserting a present tuple returns an identical multi-map.
    pub fn inserted(&self, key: K, value: V) -> Self {
        let mut next = self.clone();
        next.insert_mut(key, value);
        next
    }

    /// Inserts `(key, value)` in place: uniquely-owned trie nodes along the
    /// spine are edited directly, shared nodes are path-copied (other
    /// handles keep their version). Returns true if the relation grew.
    pub fn insert_mut(&mut self, key: K, value: V) -> bool {
        match node::bind(&mut self.root, hash32(&key), key, node::Value(value)) {
            Some(Inserted::Unchanged(_)) => false,
            Some(Inserted::Changed(_)) => {
                self.tuples += 1;
                true
            }
            None => {
                self.tuples += 1;
                self.keys += 1;
                true
            }
        }
    }

    /// Binds `key` to exactly `values` in place, replacing whatever it was
    /// bound to, and returns the tuple-count delta. Duplicate values
    /// collapse; empty `values` removes the key.
    ///
    /// The new binding (an inlined singleton or a bag) is built first and
    /// the trie walked once, so the key is hashed once however many values
    /// it gets. Uniquely-owned nodes along the spine are edited directly,
    /// shared nodes are path-copied (other handles keep their version).
    ///
    /// # Examples
    ///
    /// ```
    /// use axiom::AxiomMultiMap;
    ///
    /// let mut mm = AxiomMultiMap::<&str, u32>::new().inserted("D", 4);
    /// assert_eq!(mm.replace_values_mut("D", [5, 6, 5]), 1); // 1:1 → 1:n
    /// assert_eq!(mm.value_count(&"D"), 2);
    /// assert_eq!(mm.replace_values_mut("D", []), -2); // the key goes
    /// assert!(mm.is_empty());
    /// ```
    pub fn replace_values_mut(&mut self, key: K, values: impl IntoIterator<Item = V>) -> isize {
        match Binding::of_values(values) {
            Some(binding) => self.put_binding_mut(hash32(&key), key, binding),
            None => -(self.remove_key_mut(&key) as isize),
        }
    }

    /// The values bound to `key` as an owned [`AxiomSet`] (`None` if the
    /// key is absent). A binding stored as a nested set comes back as an
    /// `O(1)` clone sharing its trie; an inlined singleton (or a fused
    /// inline bag) is built into a set.
    ///
    /// # Examples
    ///
    /// ```
    /// use axiom::AxiomMultiMap;
    ///
    /// let mm = AxiomMultiMap::<&str, u32>::new().inserted("D", 4).inserted("D", 5);
    /// let both = mm.value_set(&"D").unwrap();
    /// assert_eq!(both.len(), 2);
    /// assert!(mm.value_set(&"E").is_none());
    /// ```
    pub fn value_set(&self, key: &K) -> Option<AxiomSet<V>> {
        self.value_set_at(hash32(key), key)
    }

    /// [`AxiomMultiMap::value_set`] of a key whose [`hash32`] the caller
    /// computed: hashes no key (see [`debug_assert_hash`] for a wrong
    /// `hash`).
    pub fn value_set_hashed(&self, key: &K, hash: u32) -> Option<AxiomSet<V>> {
        debug_assert_hash(key, hash);
        self.value_set_at(hash, key)
    }

    fn value_set_at(&self, hash: u32, key: &K) -> Option<AxiomSet<V>> {
        let binding = node::get(&self.root, hash, 0, key).map(binding_of)?;
        Some(match binding {
            BindingRef::One(v) => AxiomSet::singleton(v.clone()),
            BindingRef::Many(bag) => bag.to_set(),
        })
    }

    /// Binds `key` to exactly the values of `set` in place, replacing
    /// whatever it was bound to, and returns the tuple-count delta. An empty
    /// `set` removes the key; a one-element set is inlined as a `1:1`
    /// tuple.
    ///
    /// The trie is walked once, hashing the key once and no value: a nested
    /// set is stored as it is (a fused bag takes it as its overflow trie or
    /// copies its few values inline), so it keeps sharing nodes with the
    /// caller's copy and with whatever other key it came from.
    ///
    /// # Examples
    ///
    /// ```
    /// use axiom::AxiomMultiMap;
    ///
    /// let mut mm = AxiomMultiMap::<&str, u32>::new().inserted("A", 1).inserted("A", 2);
    /// let mut set = mm.value_set(&"A").unwrap();
    /// set.insert_mut(3);
    /// assert_eq!(mm.put_value_set_mut("B", set), 3); // "A" keeps {1, 2}
    /// assert_eq!(mm.tuple_count(), 5);
    /// ```
    pub fn put_value_set_mut(&mut self, key: K, set: AxiomSet<V>) -> isize {
        self.put_value_set_at(hash32(&key), key, set)
    }

    /// [`AxiomMultiMap::put_value_set_mut`] of a key whose [`hash32`] the
    /// caller computed: hashes no key but the one of a payload it pushes
    /// down into a new sub-trie (see [`debug_assert_hash`] for a wrong
    /// `hash`).
    pub fn put_value_set_hashed_mut(&mut self, key: K, hash: u32, set: AxiomSet<V>) -> isize {
        debug_assert_hash(&key, hash);
        self.put_value_set_at(hash, key, set)
    }

    fn put_value_set_at(&mut self, hash: u32, key: K, set: AxiomSet<V>) -> isize {
        let binding = match set.len() {
            0 => return -(self.remove_key_at(hash, &key) as isize),
            1 => Binding::One(set.sole().clone()),
            _ => Binding::Many(B::of_set(set)),
        };
        self.put_binding_mut(hash, key, binding)
    }

    /// Binds `key`, hashed to `hash`, to `binding` in one walk; returns the
    /// tuple-count delta.
    fn put_binding_mut(&mut self, hash: u32, key: K, binding: Binding<V, B>) -> isize {
        let new = binding.len();
        let old = match node::bind(&mut self.root, hash, key, binding) {
            Some(old) => old,
            None => {
                self.keys += 1;
                0
            }
        };
        self.tuples = self.tuples + new - old;
        new as isize - old as isize
    }

    /// Returns a multi-map without the tuple `(key, value)`; `self` is
    /// unchanged.
    pub fn tuple_removed(&self, key: &K, value: &V) -> Self {
        let mut next = self.clone();
        next.remove_tuple_mut(key, value);
        next
    }

    /// Removes the tuple `(key, value)` in place (editing uniquely-owned
    /// nodes, path-copying shared ones). Returns true if present.
    pub fn remove_tuple_mut(&mut self, key: &K, value: &V) -> bool {
        let gone = node::remove_root(&mut self.root, hash32(key), key, Some(value));
        self.apply_removal(gone).is_some()
    }

    /// Returns a multi-map without any tuple for `key`; `self` is unchanged.
    pub fn key_removed(&self, key: &K) -> Self {
        let mut next = self.clone();
        next.remove_key_mut(key);
        next
    }

    /// Removes every tuple for `key` in place (editing uniquely-owned nodes,
    /// path-copying shared ones). Returns the number of tuples removed.
    pub fn remove_key_mut(&mut self, key: &K) -> usize {
        self.remove_key_at(hash32(key), key)
    }

    fn remove_key_at(&mut self, hash: u32, key: &K) -> usize {
        let gone = node::remove_root(&mut self.root, hash, key, None);
        self.apply_removal(gone).map_or(0, |gone| gone.values)
    }

    /// Books what a removal took out into the counts.
    fn apply_removal(&mut self, gone: Option<Gone>) -> Option<Gone> {
        let gone = gone?;
        self.tuples -= gone.values;
        self.keys -= usize::from(gone.key);
        Some(gone)
    }

    /// Iterates all `(key, value)` tuples — the paper's flattened
    /// *Iteration (Entry)* sequence — in unspecified order.
    pub fn iter(&self) -> Tuples<'_, K, V, B> {
        Tuples {
            inner: node::Iter::new(&self.root, self.keys),
            current: None,
            remaining: self.tuples,
        }
    }

    /// Iterates distinct keys — the paper's *Iteration (Key)* — in
    /// unspecified order.
    pub fn keys(&self) -> Keys<'_, K, V, B> {
        Keys {
            inner: node::Iter::new(&self.root, self.keys),
        }
    }

    /// Iterates `(key, values-view)` groups in unspecified order.
    pub fn entries(&self) -> Entries<'_, K, V, B> {
        Entries {
            inner: node::Iter::new(&self.root, self.keys),
        }
    }

    /// Iterates the values bound to `key` (nothing if the key is absent).
    pub fn values_of(&self, key: &K) -> ValuesOf<'_, V> {
        ValuesOf {
            inner: self.get(key).map(|binding| binding.iter()),
        }
    }

    /// The tuple-level delta from `self` (old) to `other` (new), computed by
    /// a lockstep structural walk that skips pointer-identical sub-tries.
    ///
    /// For operands derived from a common ancestor by k tuple edits the walk
    /// touches O(k · depth) nodes, independent of relation size. Bindings
    /// compare at tuple granularity: a key promoted from `1:1` to `1:n` (or
    /// demoted back) contributes only the values that actually differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use axiom::AxiomMultiMap;
    ///
    /// let old = AxiomMultiMap::<&str, u32>::new().inserted("D", 4);
    /// let new = old.inserted("D", 5); // promotes "D" to 1:n
    /// let d = old.diff(&new);
    /// assert_eq!(d.added, vec![("D", 5)]);
    /// assert!(d.removed.is_empty());
    /// ```
    pub fn diff(&self, other: &Self) -> MultiMapDiff<K, V> {
        let mut out = MultiMapDiff::new();
        if Root::ptr_eq(&self.root, &other.root) {
            return out;
        }
        if self.is_empty() {
            out.added
                .extend(other.iter().map(|(k, v)| (k.clone(), v.clone())));
            return out;
        }
        if other.is_empty() {
            out.removed
                .extend(self.iter().map(|(k, v)| (k.clone(), v.clone())));
            return out;
        }
        diff_nodes(&self.root, &other.root, 0, &mut out);
        out
    }

    /// Tuples in `self` or `other`.
    ///
    /// Two regimes: a much smaller `other` is folded in tuple by tuple
    /// (O(|other|) probes); similar-sized operands typically share structure
    /// from a common ancestor, so they route through the structural
    /// [`AxiomMultiMap::diff`] and cost O(changed).
    pub fn union(&self, other: &Self) -> Self {
        if Root::ptr_eq(&self.root, &other.root) || other.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        let mut out = self.clone();
        if other.tuples * 8 < self.tuples {
            for (k, v) in other.iter() {
                out.insert_mut(k.clone(), v.clone());
            }
        } else {
            for (k, v) in self.diff(other).added {
                out.insert_mut(k, v);
            }
        }
        out
    }

    pub(crate) fn root_node(&self) -> &Root<K, V, B> {
        &self.root
    }

    /// The root node's content histogram: branch counts per category
    /// (`[EMPTY, CAT1, CAT2, NODE]`, paper §3.3) — introspection for
    /// analyzing how a relation's skew maps onto the encoding.
    ///
    /// Always `Some`: the root sits above the last hash level, so it is a
    /// bitmap node even when every key shares one 32-bit hash.
    ///
    /// # Examples
    ///
    /// ```
    /// use axiom::AxiomMultiMap;
    ///
    /// let mm = AxiomMultiMap::<u32, u32>::new().inserted(1, 10).inserted(1, 11);
    /// let hist = mm.root_histogram().unwrap();
    /// assert_eq!(hist[2], 1); // one 1:n branch (CAT2)
    /// assert_eq!(hist[0], 31); // the rest empty
    /// ```
    pub fn root_histogram(&self) -> Option<[u32; 4]> {
        Some(self.root.word().histogram())
    }

    /// Recursively checks the canonical-form invariants (test support).
    ///
    /// # Panics
    ///
    /// Panics if any structural invariant is violated.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        let (keys, tuples) = node::validate(&self.root, 0);
        assert_eq!(keys, self.keys, "key bookkeeping");
        assert_eq!(tuples, self.tuples, "tuple bookkeeping");
    }
}

impl<K, V, B> Default for AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    fn default() -> Self {
        AxiomMultiMap::new()
    }
}

impl<K, V, B> PartialEq for AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    fn eq(&self, other: &Self) -> bool {
        self.tuples == other.tuples
            && self.keys == other.keys
            && node_eq(&self.root, &other.root, 0)
    }
}

impl<K, V, B> Eq for AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
}

impl<K, V, B> std::fmt::Debug for AxiomMultiMap<K, V, B>
where
    K: std::fmt::Debug + Clone + Eq + Hash,
    V: std::fmt::Debug + Clone + Eq + Hash,
    B: ValueBag<V>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<K, V, B> FromIterator<(K, V)> for AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        trie_common::ops::from_iter_via(iter)
    }
}

impl<K, V, B> Extend<(K, V)> for AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        trie_common::ops::extend_via(self, iter);
    }
}

impl<'a, K, V, B> IntoIterator for &'a AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    type Item = (&'a K, &'a V);
    type IntoIter = Tuples<'a, K, V, B>;
    fn into_iter(self) -> Tuples<'a, K, V, B> {
        self.iter()
    }
}

/// Iterator over all `(key, value)` tuples. Created by
/// [`AxiomMultiMap::iter`].
pub struct Tuples<'a, K, V: 'a, B: ValueBag<V> + 'a> {
    inner: node::Iter<'a, SlotBitmap, K, V, Cat2<K, V, B>>,
    current: Option<(&'a K, BagIter<'a, V>)>,
    remaining: usize,
}

impl<'a, K, V, B> Iterator for Tuples<'a, K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        loop {
            if let Some((k, it)) = &mut self.current {
                if let Some(v) = it.next() {
                    self.remaining -= 1;
                    return Some((k, v));
                }
                self.current = None;
            }
            match self.inner.next_payload()? {
                Entry::One((k, v)) => {
                    self.remaining -= 1;
                    return Some((k, v));
                }
                Entry::Many(many) => self.current = Some((many.key(), many.bag().iter())),
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<'a, K, V, B> ExactSizeIterator for Tuples<'a, K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
}

impl<'a, K, V, B: ValueBag<V>> std::fmt::Debug for Tuples<'a, K, V, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tuples")
            .field("remaining", &self.remaining)
            .finish()
    }
}

/// Iterator over distinct keys. Created by [`AxiomMultiMap::keys`].
pub struct Keys<'a, K, V, B: BagSlot<V>> {
    inner: node::Iter<'a, SlotBitmap, K, V, Cat2<K, V, B>>,
}

impl<'a, K, V, B: ValueBag<V>> Iterator for Keys<'a, K, V, B> {
    type Item = &'a K;

    fn next(&mut self) -> Option<&'a K> {
        match self.inner.next_payload()? {
            Entry::One((k, _)) => Some(k),
            Entry::Many(many) => Some(many.key()),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.inner.remaining(), Some(self.inner.remaining()))
    }
}

impl<'a, K, V, B: ValueBag<V>> ExactSizeIterator for Keys<'a, K, V, B> {}

impl<'a, K, V, B: BagSlot<V>> std::fmt::Debug for Keys<'a, K, V, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Keys")
            .field("remaining", &self.inner.remaining())
            .finish()
    }
}

/// Iterator over `(key, values-view)` groups. Created by
/// [`AxiomMultiMap::entries`].
pub struct Entries<'a, K, V, B: BagSlot<V>> {
    inner: node::Iter<'a, SlotBitmap, K, V, Cat2<K, V, B>>,
}

impl<'a, K, V, B> Iterator for Entries<'a, K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
    type Item = (&'a K, BindingRef<'a, V>);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next_payload().map(bound)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.inner.remaining(), Some(self.inner.remaining()))
    }
}

impl<'a, K, V, B> ExactSizeIterator for Entries<'a, K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: ValueBag<V>,
{
}

impl<'a, K, V, B: BagSlot<V>> std::fmt::Debug for Entries<'a, K, V, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entries")
            .field("remaining", &self.inner.remaining())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag::FusedBag;
    use std::collections::{BTreeSet, HashMap};
    use std::hash::Hasher;

    type Mm = AxiomMultiMap<u32, u32>;
    type FusedMm = AxiomMultiMap<u32, u32, FusedBag<u32>>;

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
    fn empty_multimap_basics() {
        let mm = Mm::new();
        assert!(mm.is_empty());
        assert_eq!(mm.tuple_count(), 0);
        assert_eq!(mm.key_count(), 0);
        assert!(!mm.contains_key(&1));
        assert!(!mm.contains_tuple(&1, &2));
        mm.assert_invariants();
    }

    #[test]
    fn paper_figure_3_construction_sequence() {
        // Figure 3: A↦1, B↦2, then C↦3, then D↦4, E↦5, then D↦-4, F↦6.
        // We use the tuple/key counts and promotion behaviour it illustrates.
        let mm = AxiomMultiMap::<&str, i32>::new()
            .inserted("A", 1)
            .inserted("B", 2)
            .inserted("C", 3)
            .inserted("D", 4)
            .inserted("E", 5)
            .inserted("D", -4) // promotes D to a 1:n mapping
            .inserted("F", 6);
        assert_eq!(mm.key_count(), 6);
        assert_eq!(mm.tuple_count(), 7);
        assert_eq!(mm.value_count(&"D"), 2);
        assert!(mm.contains_tuple(&"D", &4));
        assert!(mm.contains_tuple(&"D", &-4));
        assert_eq!(mm.value_count(&"A"), 1);
        mm.assert_invariants();
    }

    #[test]
    fn promotion_and_demotion_roundtrip() {
        let mm = Mm::new().inserted(1, 10).inserted(1, 20);
        assert!(matches!(mm.get(&1), Some(BindingRef::Many(_))));
        let mm2 = mm.tuple_removed(&1, &10);
        assert!(matches!(mm2.get(&1), Some(BindingRef::One(&20))));
        assert_eq!(mm2.tuple_count(), 1);
        assert_eq!(mm2.key_count(), 1);
        let mm3 = mm2.tuple_removed(&1, &20);
        assert!(mm3.is_empty());
        assert_eq!(mm3.key_count(), 0);
        // Original chain is untouched.
        assert_eq!(mm.tuple_count(), 2);
        mm.assert_invariants();
        mm2.assert_invariants();
        mm3.assert_invariants();
    }

    #[test]
    fn duplicate_tuple_insert_is_noop() {
        let mm = Mm::new().inserted(1, 10).inserted(1, 10);
        assert_eq!(mm.tuple_count(), 1);
        let mm2 = mm.inserted(1, 20).inserted(1, 20);
        assert_eq!(mm2.tuple_count(), 2);
    }

    #[test]
    fn skewed_distribution_bulk() {
        // 50% 1:1, 50% 1:2 — the paper's microbenchmark shape.
        let mut mm = Mm::new();
        for k in 0..1000u32 {
            mm.insert_mut(k, k * 10);
            if k % 2 == 0 {
                mm.insert_mut(k, k * 10 + 1);
            }
        }
        assert_eq!(mm.key_count(), 1000);
        assert_eq!(mm.tuple_count(), 1500);
        for k in 0..1000u32 {
            assert!(mm.contains_tuple(&k, &(k * 10)));
            assert_eq!(mm.value_count(&k), if k % 2 == 0 { 2 } else { 1 });
        }
        mm.assert_invariants();
    }

    #[test]
    fn remove_key_drops_all_values() {
        let mut mm = Mm::new();
        for v in 0..10 {
            mm.insert_mut(7, v);
        }
        mm.insert_mut(8, 0);
        assert_eq!(mm.tuple_count(), 11);
        let removed = mm.remove_key_mut(&7);
        assert_eq!(removed, 10);
        assert_eq!(mm.tuple_count(), 1);
        assert_eq!(mm.key_count(), 1);
        assert!(!mm.contains_key(&7));
        mm.assert_invariants();
    }

    #[test]
    fn model_based_random_ops() {
        let mut model: HashMap<u32, BTreeSet<u32>> = HashMap::new();
        let mut mm = Mm::new();
        let mut state = 0xdeadbeefu64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for step in 0..6000 {
            let op = next() % 5;
            let key = next() % 120;
            let value = next() % 8;
            match op {
                0..=2 => {
                    let grew = model.entry(key).or_default().insert(value);
                    assert_eq!(mm.insert_mut(key, value), grew, "step {step}");
                }
                3 => {
                    let had = model.get_mut(&key).is_some_and(|s| s.remove(&value));
                    if let Some(s) = model.get(&key) {
                        if s.is_empty() {
                            model.remove(&key);
                        }
                    }
                    assert_eq!(mm.remove_tuple_mut(&key, &value), had, "step {step}");
                }
                _ => {
                    let removed = model.remove(&key).map_or(0, |s| s.len());
                    assert_eq!(mm.remove_key_mut(&key), removed, "step {step}");
                }
            }
            let tuples: usize = model.values().map(|s| s.len()).sum();
            assert_eq!(mm.tuple_count(), tuples);
            assert_eq!(mm.key_count(), model.len());
        }
        mm.assert_invariants();
        for (k, vs) in &model {
            assert_eq!(mm.value_count(k), vs.len());
            for v in vs {
                assert!(mm.contains_tuple(k, v));
            }
        }
        // Iteration agrees with the model.
        let mut seen: HashMap<u32, BTreeSet<u32>> = HashMap::new();
        for (k, v) in mm.iter() {
            assert!(seen.entry(*k).or_default().insert(*v), "dup tuple in iter");
        }
        assert_eq!(seen, model);
    }

    #[test]
    fn fused_multimap_agrees_with_nested() {
        let mut nested = Mm::new();
        let mut fused = FusedMm::new();
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            (state >> 35) as u32
        };
        for _ in 0..3000 {
            let op = next() % 4;
            let key = next() % 60;
            let value = next() % 12;
            match op {
                0 | 1 => {
                    assert_eq!(nested.insert_mut(key, value), fused.insert_mut(key, value));
                }
                2 => {
                    assert_eq!(
                        nested.remove_tuple_mut(&key, &value),
                        fused.remove_tuple_mut(&key, &value)
                    );
                }
                _ => {
                    assert_eq!(nested.remove_key_mut(&key), fused.remove_key_mut(&key));
                }
            }
            assert_eq!(nested.tuple_count(), fused.tuple_count());
            assert_eq!(nested.key_count(), fused.key_count());
        }
        nested.assert_invariants();
        fused.assert_invariants();
        let a: BTreeSet<(u32, u32)> = nested.iter().map(|(k, v)| (*k, *v)).collect();
        let b: BTreeSet<(u32, u32)> = fused.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn collision_keys_with_multivalues() {
        let mut mm: AxiomMultiMap<Collide, u32> = AxiomMultiMap::new();
        for id in 0..6 {
            let k = Collide { bucket: 11, id };
            mm.insert_mut(k.clone(), 0);
            mm.insert_mut(k, 1);
        }
        assert_eq!(mm.key_count(), 6);
        assert_eq!(mm.tuple_count(), 12);
        mm.assert_invariants();
        for id in 0..6 {
            let k = Collide { bucket: 11, id };
            assert_eq!(mm.value_count(&k), 2);
            assert!(mm.remove_tuple_mut(&k, &0));
            mm.assert_invariants();
        }
        assert_eq!(mm.tuple_count(), 6);
        for id in 0..5 {
            assert_eq!(mm.remove_key_mut(&Collide { bucket: 11, id }), 1);
            mm.assert_invariants();
        }
        assert_eq!(mm.key_count(), 1);
    }

    #[test]
    fn iteration_counts() {
        let mut mm = Mm::new();
        for k in 0..200u32 {
            mm.insert_mut(k, 0);
            if k % 2 == 0 {
                mm.insert_mut(k, 1);
            }
        }
        assert_eq!(mm.iter().count(), 300);
        assert_eq!(mm.keys().count(), 200);
        assert_eq!(mm.entries().count(), 200);
        assert_eq!(mm.iter().len(), 300);
        let grouped_tuples: usize = mm.entries().map(|(_, b)| b.len()).sum();
        assert_eq!(grouped_tuples, 300);
    }

    #[test]
    fn equality_and_order_independence() {
        let a: Mm = (0..100u32).flat_map(|k| [(k, 0), (k, 1)]).collect();
        let b: Mm = (0..100u32).rev().flat_map(|k| [(k, 1), (k, 0)]).collect();
        assert_eq!(a, b);
        assert_ne!(a, b.inserted(5, 9));
        assert_ne!(a, b.tuple_removed(&5, &0));
    }

    #[test]
    fn persistence_of_versions() {
        let v0: Mm = (0..500u32).map(|k| (k % 100, k)).collect();
        let v1 = v0.inserted(1000, 1);
        let v2 = v0.key_removed(&50);
        assert_eq!(v0.key_count(), 100);
        assert_eq!(v1.key_count(), 101);
        assert_eq!(v2.key_count(), 99);
        assert!(v0.contains_key(&50));
        assert!(!v2.contains_key(&50));
        v0.assert_invariants();
        v1.assert_invariants();
        v2.assert_invariants();
    }

    #[test]
    fn get_views() {
        let mm = Mm::new().inserted(1, 10).inserted(2, 20).inserted(2, 21);
        match mm.get(&1) {
            Some(BindingRef::One(v)) => assert_eq!(*v, 10),
            _ => panic!("expected inlined singleton"),
        }
        match mm.get(&2) {
            Some(BindingRef::Many(bag)) => {
                let vs: BTreeSet<u32> = bag.iter().copied().collect();
                assert_eq!(vs, BTreeSet::from([20, 21]));
            }
            _ => panic!("expected nested bag"),
        }
        assert!(mm.get(&3).is_none());
        let view = mm.get(&2).unwrap();
        assert_eq!(view.len(), 2);
        assert!(view.contains(&21));
        assert_eq!(view.iter().count(), 2);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Mm>();
        assert_send_sync::<FusedMm>();
    }
}
