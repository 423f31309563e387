//! Differential tests for the structural set-algebra surface
//! (`SetAlgebraOps` / `MapMergeOps` / `MultiMapAlgebraOps`): every
//! implementation must agree with `BTreeSet`/`BTreeMap` models on
//! `union`/`intersect`/`difference`/`diff`, including under pathological
//! hash collisions, and a frozen snapshot edited in `k` places must diff in
//! exactly `k` entries. The key-level multi-map operations (`get`,
//! `replace_values_mut`, `value_set`, `put_value_set_mut`) are checked
//! against a map-of-sets model, and a put is shown to hash only its key. The
//! sharded layer's epoch/`changes_since` and the parallel combinators are
//! covered at the end.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use axiom_repro::axiom::{AxiomFusedMultiMap, AxiomMap, AxiomMultiMap, AxiomSet, ValueBag};
use axiom_repro::champ::{ChampMap, ChampSet};
use axiom_repro::hamt::{HamtMap, HamtSet, MemoHamtMap, MemoHamtSet};
use axiom_repro::idiomatic::{
    ClojureMultiMap, ClojureVal, NestedChampMultiMap, ScalaMultiMap, ScalaSet,
};
use axiom_repro::sharded::{ShardedMap, ShardedMultiMap, ShardedSet};
use axiom_repro::trie_common::ops::{
    MapMergeOps, MultiMapAlgebraOps, MultiMapMutOps, SetAlgebraOps, SetMutOps, SetOps, ValuesView,
};

/// Key wrapper hashing into five buckets: small scripts already exercise
/// deep sub-trie chains and full-hash collision nodes in every walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Collide(u16);

impl Hash for Collide {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u16(self.0 % 5);
    }
}

// ---------------------------------------------------------------------------
// Generic model checkers.
// ---------------------------------------------------------------------------

fn check_set_algebra<T, S>(xs: &[T], ys: &[T])
where
    T: Clone + Ord + Debug,
    S: SetAlgebraOps<T>,
{
    let a = xs.iter().cloned().fold(S::empty(), |s, v| s.inserted(v));
    let b = ys.iter().cloned().fold(S::empty(), |s, v| s.inserted(v));
    let ma: BTreeSet<T> = xs.iter().cloned().collect();
    let mb: BTreeSet<T> = ys.iter().cloned().collect();
    let to_model = |s: &S| -> BTreeSet<T> { s.iter().cloned().collect() };

    let union = a.union(&b);
    assert_eq!(to_model(&union), &ma | &mb, "{} union", S::NAME);
    assert_eq!(union.len(), (&ma | &mb).len(), "{} union len", S::NAME);
    assert_eq!(
        to_model(&a.intersect(&b)),
        &ma & &mb,
        "{} intersect",
        S::NAME
    );
    assert_eq!(
        to_model(&a.difference(&b)),
        &ma - &mb,
        "{} difference",
        S::NAME
    );

    let d = a.diff(&b);
    let mut added = d.added;
    added.sort();
    assert_eq!(
        added,
        (&mb - &ma).into_iter().collect::<Vec<_>>(),
        "{} diff.added",
        S::NAME
    );
    let mut removed = d.removed;
    removed.sort();
    assert_eq!(
        removed,
        (&ma - &mb).into_iter().collect::<Vec<_>>(),
        "{} diff.removed",
        S::NAME
    );

    // Reflexive fast paths: a set against itself is a fixed point.
    assert!(a.diff(&a).is_empty(), "{} self-diff", S::NAME);
    assert_eq!(to_model(&a.union(&a)), ma, "{} self-union", S::NAME);
    assert_eq!(to_model(&a.intersect(&a)), ma, "{} self-intersect", S::NAME);
    assert!(a.difference(&a).is_empty(), "{} self-difference", S::NAME);
}

fn check_map_algebra<K, V, M>(xs: &[(K, V)], ys: &[(K, V)])
where
    K: Clone + Ord + Debug,
    V: Clone + Ord + PartialEq + Debug,
    M: MapMergeOps<K, V>,
{
    let a = xs
        .iter()
        .cloned()
        .fold(M::empty(), |m, (k, v)| m.inserted(k, v));
    let b = ys
        .iter()
        .cloned()
        .fold(M::empty(), |m, (k, v)| m.inserted(k, v));
    let ma: BTreeMap<K, V> = xs.iter().cloned().collect();
    let mb: BTreeMap<K, V> = ys.iter().cloned().collect();
    let to_model =
        |m: &M| -> BTreeMap<K, V> { m.entries().map(|(k, v)| (k.clone(), v.clone())).collect() };

    // Right-biased merge: other's value wins on conflicts.
    let mut merged_model = ma.clone();
    merged_model.extend(mb.clone());
    assert_eq!(to_model(&a.merged(&b)), merged_model, "{} merged", M::NAME);

    // Left-biased resolution through the callback.
    let mut left_model = mb.clone();
    left_model.extend(ma.clone());
    assert_eq!(
        to_model(&a.merged_with(&b, |_, mine, _| mine.clone())),
        left_model,
        "{} merged_with(left)",
        M::NAME
    );

    let intersect_model: BTreeMap<K, V> = ma
        .iter()
        .filter(|(k, _)| mb.contains_key(k))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    assert_eq!(
        to_model(&a.intersect(&b)),
        intersect_model,
        "{} intersect",
        M::NAME
    );

    let difference_model: BTreeMap<K, V> = ma
        .iter()
        .filter(|(k, _)| !mb.contains_key(k))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    assert_eq!(
        to_model(&a.difference(&b)),
        difference_model,
        "{} difference",
        M::NAME
    );

    let d = a.diff(&b);
    let mut added = d.added;
    added.sort();
    let added_model: Vec<(K, V)> = mb
        .iter()
        .filter(|(k, _)| !ma.contains_key(k))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    assert_eq!(added, added_model, "{} diff.added", M::NAME);
    let mut removed = d.removed;
    removed.sort();
    let removed_model: Vec<(K, V)> = ma
        .iter()
        .filter(|(k, _)| !mb.contains_key(k))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    assert_eq!(removed, removed_model, "{} diff.removed", M::NAME);
    let mut changed = d.changed;
    changed.sort();
    let changed_model: Vec<(K, V, V)> = ma
        .iter()
        .filter_map(|(k, old)| {
            mb.get(k)
                .filter(|new| *new != old)
                .map(|new| (k.clone(), old.clone(), new.clone()))
        })
        .collect();
    assert_eq!(changed, changed_model, "{} diff.changed", M::NAME);

    assert!(a.diff(&a).is_empty(), "{} self-diff", M::NAME);
    assert_eq!(to_model(&a.merged(&a)), ma, "{} self-merge", M::NAME);
}

fn check_multimap_algebra<K, V, M>(xs: &[(K, V)], ys: &[(K, V)])
where
    K: Clone + Ord + Debug,
    V: Clone + Ord + Debug,
    M: MultiMapAlgebraOps<K, V>,
{
    let a = xs
        .iter()
        .cloned()
        .fold(M::empty(), |m, (k, v)| m.inserted(k, v));
    let b = ys
        .iter()
        .cloned()
        .fold(M::empty(), |m, (k, v)| m.inserted(k, v));
    let ma: BTreeSet<(K, V)> = xs.iter().cloned().collect();
    let mb: BTreeSet<(K, V)> = ys.iter().cloned().collect();
    let to_model =
        |m: &M| -> BTreeSet<(K, V)> { m.tuples().map(|(k, v)| (k.clone(), v.clone())).collect() };

    let union = a.union(&b);
    assert_eq!(to_model(&union), &ma | &mb, "{} union", M::NAME);
    assert_eq!(union.tuple_count(), (&ma | &mb).len(), "{} union", M::NAME);
    assert_eq!(
        to_model(&a.intersect(&b)),
        &ma & &mb,
        "{} intersect",
        M::NAME
    );
    assert_eq!(
        to_model(&a.difference(&b)),
        &ma - &mb,
        "{} difference",
        M::NAME
    );

    let d = a.diff(&b);
    let mut added = d.added;
    added.sort();
    assert_eq!(
        added,
        (&mb - &ma).into_iter().collect::<Vec<_>>(),
        "{} diff.added",
        M::NAME
    );
    let mut removed = d.removed;
    removed.sort();
    assert_eq!(
        removed,
        (&ma - &mb).into_iter().collect::<Vec<_>>(),
        "{} diff.removed",
        M::NAME
    );

    assert!(a.diff(&a).is_empty(), "{} self-diff", M::NAME);
    assert_eq!(to_model(&a.union(&a)), ma, "{} self-union", M::NAME);
}

/// A key's values in the model.
type KeyModel<K> = BTreeMap<K, BTreeSet<u8>>;

/// The key-level operations against a `BTreeMap<K, BTreeSet<V>>` model.
/// Two copies of the multi-map run `script`, which replaces one key's values
/// per step with 0, 1, 2 or many values (duplicates included), so keys
/// appear, go, and move between the singleton and the nested representation
/// in both directions. One copy takes each step as one `replace_values_mut`;
/// the other reads the key's `value_set`, edits that owned set to the new
/// values and binds it back with `put_value_set_mut`. After every step, for
/// both copies: the returned delta, the whole relation, every key's view
/// and value set, a clone taken before the step (unchanged), and the
/// implementation's own `shape` check (which catches a one-element set left
/// nested instead of inlined).
fn check_key_level_ops<K, M>(
    key: fn(u16) -> K,
    base: &[(u16, u8)],
    script: &[(u16, Vec<u8>)],
    shape: fn(&M, &KeyModel<K>),
) where
    K: Clone + Ord + Debug,
    M: MultiMapMutOps<K, u8>,
{
    let to_model = |m: &M| -> KeyModel<K> {
        let mut out = KeyModel::new();
        for (k, v) in m.tuples() {
            out.entry(k.clone()).or_default().insert(*v);
        }
        out
    };
    let elems = |set: &M::ValueSet| -> BTreeSet<u8> { set.iter().copied().collect() };
    let mut by_values = base
        .iter()
        .fold(M::empty(), |m, &(k, v)| m.inserted(key(k), v));
    let mut by_sets = by_values.clone();
    let mut model = to_model(&by_values);
    for (k, values) in script {
        let k = key(*k);
        let frozen = [by_values.clone(), by_sets.clone()];
        let frozen_model = model.clone();
        let new: BTreeSet<u8> = values.iter().copied().collect();
        let old = model.get(&k).cloned().unwrap_or_default();
        let expected = new.len() as isize - old.len() as isize;

        let delta = by_values.replace_values_mut(k.clone(), values.iter().copied());
        assert_eq!(delta, expected, "{} replace delta", M::NAME);

        let read = by_sets.value_set(&k);
        assert_eq!(read.is_some(), !old.is_empty(), "{} value_set", M::NAME);
        let mut set = read.unwrap_or_else(M::ValueSet::empty);
        assert_eq!(elems(&set), old, "{} value_set elements", M::NAME);
        for v in &old - &new {
            assert!(set.remove_mut(&v));
        }
        for &v in values {
            set.insert_mut(v);
        }
        assert_eq!(elems(&set), new);
        assert_eq!(
            by_sets.value_count(&k),
            old.len(),
            "{} editing the owned value set moved the multi-map",
            M::NAME
        );
        let delta = by_sets.put_value_set_mut(k.clone(), set);
        assert_eq!(delta, expected, "{} put delta", M::NAME);

        if new.is_empty() {
            model.remove(&k);
        } else {
            model.insert(k.clone(), new);
        }
        for (mm, frozen) in [(&by_values, &frozen[0]), (&by_sets, &frozen[1])] {
            assert_eq!(to_model(mm), model, "{} step on {k:?}", M::NAME);
            assert_eq!(
                mm.tuple_count(),
                model.values().map(BTreeSet::len).sum::<usize>()
            );
            assert_eq!(mm.key_count(), model.len(), "{} key_count", M::NAME);
            assert_eq!(to_model(frozen), frozen_model, "{} clone moved", M::NAME);
            for probe in (0..64).map(key) {
                let expected = model.get(&probe);
                let view = mm.get(&probe);
                assert_eq!(view.is_some(), expected.is_some(), "{} get", M::NAME);
                assert_eq!(mm.contains_key(&probe), expected.is_some());
                assert_eq!(mm.value_count(&probe), expected.map_or(0, BTreeSet::len));
                assert_eq!(
                    mm.value_set(&probe).map(|set| elems(&set)).as_ref(),
                    expected,
                    "{} value_set",
                    M::NAME
                );
                let (Some(view), Some(expected)) = (view, expected) else {
                    continue;
                };
                assert_eq!(view.len(), expected.len(), "{} view len", M::NAME);
                let seen: BTreeSet<u8> = view.iter().copied().collect();
                assert_eq!(&seen, expected, "{} view iter", M::NAME);
                for v in 0..8u8 {
                    assert_eq!(view.contains(&v), expected.contains(&v), "{} view", M::NAME);
                    assert_eq!(mm.contains_tuple(&probe, &v), expected.contains(&v));
                }
            }
            shape(mm, &model);
        }
    }
}

/// AXIOM's canonical form: the invariants hold, and the trie is the one a
/// tuple-at-a-time build of the same relation makes (`==` compares shape).
fn axiom_canonical<K, B>(mm: &AxiomMultiMap<K, u8, B>, model: &KeyModel<K>)
where
    K: Clone + Eq + Hash + Ord + Debug,
    B: ValueBag<u8>,
{
    mm.assert_invariants();
    let folded = model
        .iter()
        .flat_map(|(k, vs)| vs.iter().map(move |v| (k.clone(), *v)))
        .fold(AxiomMultiMap::new(), |m, (k, v)| m.inserted(k, v));
    assert!(*mm == folded, "not canonical: {mm:?} vs {folded:?}");
}

/// Clojure's `to-one` case: a key bound to one value holds it bare.
fn clojure_singletons_bare<K>(mm: &ClojureMultiMap<K, u8>, model: &KeyModel<K>)
where
    K: Clone + Eq + Hash + Debug,
{
    for (k, vs) in model {
        let bare = matches!(mm.get(k), Some(ClojureVal::Single(_)));
        assert_eq!(bare, vs.len() == 1, "clojure binding of {k:?}");
    }
}

/// Scala's field-specialized sets: up to four values live in `Set1..Set4`
/// (this harness never removes single tuples, after which Scala keeps a
/// shrunk trie).
fn scala_small_sets_inline<K>(mm: &ScalaMultiMap<K, u8>, model: &KeyModel<K>)
where
    K: Clone + Eq + Hash + Debug,
{
    for (k, vs) in model {
        let trie = matches!(mm.get(k), Some(ScalaSet::Trie(_)));
        assert_eq!(trie, vs.len() > 4, "scala set of {k:?}");
    }
}

fn no_shape_check<K, M>(_: &M, _: &KeyModel<K>) {}

// ---------------------------------------------------------------------------
// Proptest differential suite: every implementation against the model.
// ---------------------------------------------------------------------------

/// Operand pairs drawn from a small domain so the two sides overlap,
/// diverge and nest in all combinations.
fn elems() -> impl Strategy<Value = Vec<u16>> {
    prop::collection::vec(any::<u16>().prop_map(|v| v % 96), 0..120)
}

fn entries() -> impl Strategy<Value = Vec<(u16, u8)>> {
    prop::collection::vec(
        (any::<u16>(), any::<u8>()).prop_map(|(k, v)| (k % 64, v % 8)),
        0..120,
    )
}

/// Key-level replacements: a key of `entries()`'s domain and 0–11 values
/// of its 8, so replacements carry duplicates and every arity up to 8.
fn replacements() -> impl Strategy<Value = Vec<(u16, Vec<u8>)>> {
    prop::collection::vec(
        (
            any::<u16>().prop_map(|k| k % 64),
            prop::collection::vec(any::<u8>().prop_map(|v| v % 8), 0..12),
        ),
        0..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sets_match_btreeset_model(xs in elems(), ys in elems()) {
        check_set_algebra::<u16, AxiomSet<u16>>(&xs, &ys);
        check_set_algebra::<u16, ChampSet<u16>>(&xs, &ys);
        check_set_algebra::<u16, HamtSet<u16>>(&xs, &ys);
        check_set_algebra::<u16, MemoHamtSet<u16>>(&xs, &ys);
    }

    #[test]
    fn sets_match_model_under_collisions(xs in elems(), ys in elems()) {
        let xs: Vec<Collide> = xs.into_iter().map(Collide).collect();
        let ys: Vec<Collide> = ys.into_iter().map(Collide).collect();
        check_set_algebra::<Collide, AxiomSet<Collide>>(&xs, &ys);
        check_set_algebra::<Collide, ChampSet<Collide>>(&xs, &ys);
        check_set_algebra::<Collide, HamtSet<Collide>>(&xs, &ys);
    }

    #[test]
    fn maps_match_btreemap_model(xs in entries(), ys in entries()) {
        check_map_algebra::<u16, u8, AxiomMap<u16, u8>>(&xs, &ys);
        check_map_algebra::<u16, u8, ChampMap<u16, u8>>(&xs, &ys);
        check_map_algebra::<u16, u8, HamtMap<u16, u8>>(&xs, &ys);
        check_map_algebra::<u16, u8, MemoHamtMap<u16, u8>>(&xs, &ys);
    }

    #[test]
    fn maps_match_model_under_collisions(xs in entries(), ys in entries()) {
        let xs: Vec<(Collide, u8)> = xs.into_iter().map(|(k, v)| (Collide(k), v)).collect();
        let ys: Vec<(Collide, u8)> = ys.into_iter().map(|(k, v)| (Collide(k), v)).collect();
        check_map_algebra::<Collide, u8, AxiomMap<Collide, u8>>(&xs, &ys);
        check_map_algebra::<Collide, u8, ChampMap<Collide, u8>>(&xs, &ys);
        check_map_algebra::<Collide, u8, HamtMap<Collide, u8>>(&xs, &ys);
    }

    #[test]
    fn multimaps_match_tuple_set_model(xs in entries(), ys in entries()) {
        check_multimap_algebra::<u16, u8, AxiomMultiMap<u16, u8>>(&xs, &ys);
        check_multimap_algebra::<u16, u8, AxiomFusedMultiMap<u16, u8>>(&xs, &ys);
        check_multimap_algebra::<u16, u8, NestedChampMultiMap<u16, u8>>(&xs, &ys);
        check_multimap_algebra::<u16, u8, ClojureMultiMap<u16, u8>>(&xs, &ys);
        check_multimap_algebra::<u16, u8, ScalaMultiMap<u16, u8>>(&xs, &ys);
    }

    #[test]
    fn multimaps_match_model_under_collisions(xs in entries(), ys in entries()) {
        let xs: Vec<(Collide, u8)> = xs.into_iter().map(|(k, v)| (Collide(k), v)).collect();
        let ys: Vec<(Collide, u8)> = ys.into_iter().map(|(k, v)| (Collide(k), v)).collect();
        check_multimap_algebra::<Collide, u8, AxiomMultiMap<Collide, u8>>(&xs, &ys);
        check_multimap_algebra::<Collide, u8, AxiomFusedMultiMap<Collide, u8>>(&xs, &ys);
    }

    /// `u16` keys (64 of them over 32 root masks) force prefix clashes;
    /// `Collide` keys force full-hash collision nodes.
    #[test]
    fn key_level_ops_match_model(base in entries(), script in replacements()) {
        fn run<K: Clone + Eq + Hash + Ord + Debug>(
            key: fn(u16) -> K,
            base: &[(u16, u8)],
            script: &[(u16, Vec<u8>)],
        ) {
            check_key_level_ops::<K, AxiomMultiMap<K, u8>>(key, base, script, axiom_canonical);
            check_key_level_ops::<K, AxiomFusedMultiMap<K, u8>>(key, base, script, axiom_canonical);
            check_key_level_ops::<K, NestedChampMultiMap<K, u8>>(key, base, script, no_shape_check);
            check_key_level_ops::<K, ClojureMultiMap<K, u8>>(
                key,
                base,
                script,
                clojure_singletons_bare,
            );
            check_key_level_ops::<K, ScalaMultiMap<K, u8>>(
                key,
                base,
                script,
                scala_small_sets_inline,
            );
        }
        run(|k| k, &base, &script);
        run(Collide, &base, &script);
    }
}

// ---------------------------------------------------------------------------
// Binding a value set hashes the key once and no value.
// ---------------------------------------------------------------------------

thread_local! {
    /// `Counted::hash` calls on this thread (tests run on several threads).
    static HASHES: Cell<u64> = const { Cell::new(0) };
}

/// A key and value type whose `Hash` counts its calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counted(u16);

impl Hash for Counted {
    fn hash<H: Hasher>(&self, state: &mut H) {
        HASHES.with(|h| h.set(h.get() + 1));
        state.write_u16(self.0);
    }
}

/// `f`'s result and the `Counted` hashes it made.
fn hashes_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = HASHES.with(Cell::get);
    let out = f();
    (out, HASHES.with(Cell::get) - before)
}

/// Rebinding a present key to an `n`-element set hashes the key once and
/// none of the `n` values, whether the set is fresh or was read out of
/// another key (whose nodes it then shares).
#[test]
fn put_value_set_hashes_the_key_once_and_no_value() {
    fn run<M: MultiMapMutOps<Counted, Counted>>() {
        let mut mm = (0..64u16)
            .flat_map(|k| (0..=k % 9).map(move |v| (Counted(k), Counted(1_000 + v))))
            .fold(M::empty(), |m, (k, v)| m.inserted(k, v));
        for (i, n) in [1u16, 2, 3, 5, 9, 40].into_iter().enumerate() {
            let key = Counted(i as u16 * 7);
            let mut set = M::ValueSet::empty();
            for v in 0..n {
                set.insert_mut(Counted(2_000 + v));
            }
            let old = mm.value_count(&key) as isize;
            let (delta, hashes) = hashes_during(|| mm.put_value_set_mut(key, set));
            assert_eq!(delta, n as isize - old, "{} delta", M::NAME);
            assert_eq!(hashes, 1, "{} put of {n} values", M::NAME);
            assert_eq!(mm.value_count(&key), n as usize);
        }
        // A set read out of one key and bound to another.
        let shared = mm.value_set(&Counted(8)).expect("key 8 is bound");
        let (_, hashes) = hashes_during(|| mm.put_value_set_mut(Counted(17), shared.clone()));
        assert_eq!(hashes, 1, "{} put of a shared set", M::NAME);
        assert!(mm.value_set(&Counted(17)) == Some(shared));
        // Into an empty multi-map: the new key alone.
        let mut fresh = M::empty();
        let set = mm.value_set(&Counted(26)).expect("key 26 is bound");
        let (delta, hashes) = hashes_during(|| fresh.put_value_set_mut(Counted(3), set));
        assert_eq!((delta, hashes), (9, 1), "{} put into an empty map", M::NAME);
    }
    run::<AxiomMultiMap<Counted, Counted>>();
    run::<AxiomFusedMultiMap<Counted, Counted>>();
    run::<NestedChampMultiMap<Counted, Counted>>();
}

// ---------------------------------------------------------------------------
// Freeze-then-edit: a diff prices exactly the edits, nothing else.
// ---------------------------------------------------------------------------

#[test]
fn set_frozen_then_edited_k_times_diffs_exactly_k() {
    fn run<S: SetAlgebraOps<u32>>() {
        let base = (0..1000u32).fold(S::empty(), |s, v| s.inserted(v));
        let mut edited = base.clone();
        for i in 0..7u32 {
            edited = edited.removed(&(i * 101)); // distinct members of base
        }
        for i in 0..9u32 {
            edited = edited.inserted(10_000 + i); // fresh elements
        }
        let d = base.diff(&edited);
        assert_eq!(d.removed.len(), 7, "{}", S::NAME);
        assert_eq!(d.added.len(), 9, "{}", S::NAME);
        assert_eq!(d.len(), 16, "{}", S::NAME);
    }
    run::<AxiomSet<u32>>();
    run::<ChampSet<u32>>();
    run::<HamtSet<u32>>();
}

#[test]
fn map_frozen_then_overwritten_k_times_diffs_exactly_k() {
    fn run<M: MapMergeOps<u32, u32>>() {
        let base = (0..1000u32).fold(M::empty(), |m, k| m.inserted(k, k * 2));
        let mut edited = base.clone();
        for i in 0..11u32 {
            let k = i * 83; // distinct keys of base
            edited = edited.inserted(k, u32::MAX - i); // overwrite
        }
        let d = base.diff(&edited);
        assert!(d.added.is_empty(), "{}", M::NAME);
        assert!(d.removed.is_empty(), "{}", M::NAME);
        assert_eq!(d.changed.len(), 11, "{}", M::NAME);
        for (k, old, new) in &d.changed {
            assert_eq!(*old, k * 2, "{}", M::NAME);
            assert!(*new > u32::MAX - 11, "{}", M::NAME);
        }
    }
    run::<AxiomMap<u32, u32>>();
    run::<ChampMap<u32, u32>>();
    run::<HamtMap<u32, u32>>();
}

#[test]
fn multimap_frozen_then_extended_k_times_diffs_exactly_k() {
    fn run<M: MultiMapAlgebraOps<u32, u32>>() {
        let base = (0..1000u32).fold(M::empty(), |m, k| m.inserted(k % 250, k));
        let mut edited = base.clone();
        for i in 0..13u32 {
            edited = edited.inserted(i * 17, 5_000 + i); // fresh tuples
        }
        let d = base.diff(&edited);
        assert!(d.removed.is_empty(), "{}", M::NAME);
        assert_eq!(d.added.len(), 13, "{}", M::NAME);
    }
    run::<AxiomMultiMap<u32, u32>>();
    run::<AxiomFusedMultiMap<u32, u32>>();
}

// ---------------------------------------------------------------------------
// Sharded layer: epochs, changes_since, parallel combinators.
// ---------------------------------------------------------------------------

#[test]
fn sharded_set_changes_since_epoch() {
    let s: ShardedSet<u32> = ShardedSet::build_parallel(4, 0..1000);
    let epoch = s.snapshot();
    assert!(s.changes_since(&epoch).is_empty());

    s.insert(5000);
    s.insert(5001);
    s.remove(&3);
    let d = s.changes_since(&epoch);
    let mut added = d.added;
    added.sort();
    assert_eq!(added, vec![5000, 5001]);
    assert_eq!(d.removed, vec![3]);

    // A fresh epoch re-baselines.
    let epoch2 = s.snapshot();
    assert!(s.changes_since(&epoch2).is_empty());
}

#[test]
fn sharded_set_parallel_algebra_matches_model() {
    let a: ShardedSet<u32> = ShardedSet::build_parallel(4, 0..600);
    let b: ShardedSet<u32> = ShardedSet::build_parallel(4, 300..900);

    let union = a.union_with(&b);
    assert_eq!(union.len(), 900);
    let intersect = a.intersect_with(&b);
    assert_eq!(intersect.len(), 300);
    assert!(intersect.contains(&450) && !intersect.contains(&100));
    let difference = a.difference_with(&b);
    assert_eq!(difference.len(), 300);
    assert!(difference.contains(&100) && !difference.contains(&450));
    // Operands are untouched (persistence survives the sharded layer).
    assert_eq!(a.len(), 600);
    assert_eq!(b.len(), 600);
}

#[test]
fn sharded_map_changes_and_merge() {
    let a: ShardedMap<u32, u32> = ShardedMap::build_parallel(4, (0..500).map(|k| (k, k)));
    let epoch = a.snapshot();
    a.insert(77, 7700); // overwrite
    a.insert(9999, 1); // fresh key
    a.remove(&13);
    let d = a.changes_since(&epoch);
    assert_eq!(d.added, vec![(9999, 1)]);
    assert_eq!(d.removed, vec![(13, 13)]);
    assert_eq!(d.changed, vec![(77, 77, 7700)]);

    let b: ShardedMap<u32, u32> = ShardedMap::build_parallel(4, (400..600).map(|k| (k, 0)));
    let merged = a.merged_with(&b);
    assert_eq!(merged.get_cloned(&450), Some(0)); // right bias
    assert_eq!(merged.get_cloned(&77), Some(7700));
    assert_eq!(merged.len(), a.len() + 100);
}

#[test]
fn sharded_multimap_changes_and_union() {
    let a: ShardedMultiMap<u32, u32> =
        ShardedMultiMap::build_parallel(4, (0..800u32).map(|i| (i % 200, i)));
    let epoch = a.snapshot();
    assert!(a.changes_since(&epoch).is_empty());
    a.insert(3, 9999);
    a.remove_tuple(&5, &5);
    let d = a.changes_since(&epoch);
    assert_eq!(d.added, vec![(3, 9999)]);
    assert_eq!(d.removed, vec![(5, 5)]);

    let b: ShardedMultiMap<u32, u32> =
        ShardedMultiMap::build_parallel(4, (0..100u32).map(|i| (i, 100_000 + i)));
    let union = a.union_with(&b);
    assert_eq!(union.tuple_count(), a.tuple_count() + b.tuple_count());
    assert!(union.contains_tuple(&3, &9999));
    assert!(union.contains_tuple(&42, &100_042));
}

// ---------------------------------------------------------------------------
// Operator sugar and the deprecated alias.
// ---------------------------------------------------------------------------

#[test]
fn set_operators_are_the_algebra() {
    let a: AxiomSet<u32> = (0..10).collect();
    let b: AxiomSet<u32> = (5..15).collect();
    assert_eq!(&a | &b, a.union(&b));
    assert_eq!(&a & &b, a.intersect(&b));
    assert_eq!(&a - &b, a.difference(&b));

    let a: ChampSet<u32> = (0..10).collect();
    let b: ChampSet<u32> = (5..15).collect();
    assert_eq!(&a | &b, a.union(&b));
    assert_eq!(&a & &b, a.intersect(&b));
    assert_eq!(&a - &b, a.difference(&b));
}
