//! Aliasing safety of the in-place `_mut` families.
//!
//! The `Arc::get_mut` editing discipline promises: a `_mut` edit through one
//! handle NEVER changes what any other handle observes — uniquely-owned
//! nodes are edited in place precisely because no one else can see them,
//! and every shared node is path-copied. These properties drill that from
//! the outside: clone a handle (sharing the whole trie), run a random
//! `_mut` edit script on one copy, and assert the other copy is unchanged
//! while both still agree with a `BTreeMap`/`BTreeSet` model.
//!
//! A mid-script snapshot re-shares the partially-edited (and by then
//! partially uniquely-owned) trie, exercising the mixed unique/shared spine
//! states the discipline must handle.
//!
//! Keys are used both verbatim and wrapped in [`FewBuckets`] (a
//! deliberately colliding `Hash`), so the collision-node editing paths get
//! the same treatment.
//!
//! Iteration order must not depend on sharing either: one script run
//! through `_mut` on a unique handle and through the persistent methods
//! (every version kept alive, so every edit meets shared nodes) must
//! iterate the same sequence.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use axiom_repro::axiom::{AxiomFusedMultiMap, AxiomMap, AxiomMultiMap, AxiomSet};
use axiom_repro::champ::{ChampMap, ChampSet};
use axiom_repro::hamt::{HamtMap, HamtSet, MemoHamtMap, MemoHamtSet};
use axiom_repro::idiomatic::{ClojureMultiMap, NestedChampMultiMap, ScalaMultiMap};
use axiom_repro::trie_common::ops::{
    MapMutOps, MapOps, MultiMapMutOps, MultiMapOps, SetMutOps, SetOps,
};

/// Key wrapper hashing into very few buckets: forces sub-trie chains and
/// full-hash collision nodes even for small scripts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct FewBuckets(u16);

impl Hash for FewBuckets {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u16(self.0 % 7);
    }
}

/// One scripted edit, decoded from a raw `(selector, key, value)` triple.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u16, u16),
    RemoveTuple(u16, u16),
    RemoveKey(u16),
}

fn decode(script: &[(u8, u16, u16)]) -> Vec<Op> {
    script
        .iter()
        .map(|&(sel, k, v)| match sel % 4 {
            0 | 1 => Op::Insert(k % 48, v % 6),
            2 => Op::RemoveTuple(k % 48, v % 6),
            _ => Op::RemoveKey(k % 48),
        })
        .collect()
}

type MmModel<K> = BTreeMap<K, BTreeSet<u16>>;

fn mm_model<K: Ord + Clone, M: MultiMapOps<K, u16>>(m: &M) -> MmModel<K> {
    let mut out: MmModel<K> = BTreeMap::new();
    for (k, v) in m.tuples() {
        assert!(
            out.entry(k.clone()).or_default().insert(*v),
            "duplicate tuple while iterating"
        );
    }
    assert_eq!(
        m.tuple_count(),
        out.values().map(BTreeSet::len).sum::<usize>()
    );
    assert_eq!(m.key_count(), out.len());
    out
}

/// Runs the script on one clone of a shared trie; every snapshot taken
/// along the way must stay exactly what it was.
macro_rules! check_multimap {
    ($ty:ty, $mk_key:expr, $base:expr, $script:expr) => {{
        let mk = $mk_key;
        let mut edited: $ty = MultiMapOps::empty();
        for &(k, v) in $base {
            edited.insert_mut(mk(k % 48), v % 6);
        }
        let mut model = mm_model(&edited);
        let frozen = edited.clone();
        let frozen_model = model.clone();
        let mut mid: Option<($ty, MmModel<_>)> = None;
        let half = $script.len() / 2;
        for (i, op) in $script.iter().enumerate() {
            if i == half {
                mid = Some((edited.clone(), model.clone()));
            }
            match *op {
                Op::Insert(k, v) => {
                    let k = mk(k);
                    let grew = model.entry(k.clone()).or_default().insert(v);
                    assert_eq!(edited.insert_mut(k, v), grew, "{}", stringify!($ty));
                }
                Op::RemoveTuple(k, v) => {
                    let k = mk(k);
                    let had = model.get_mut(&k).is_some_and(|s| s.remove(&v));
                    if model.get(&k).is_some_and(BTreeSet::is_empty) {
                        model.remove(&k);
                    }
                    assert_eq!(edited.remove_tuple_mut(&k, &v), had, "{}", stringify!($ty));
                }
                Op::RemoveKey(k) => {
                    let k = mk(k);
                    let removed = model.remove(&k).map_or(0, |s| s.len());
                    assert_eq!(edited.remove_key_mut(&k), removed, "{}", stringify!($ty));
                }
            }
        }
        assert_eq!(
            mm_model(&frozen),
            frozen_model,
            "{}: shared handle mutated by the edit script",
            stringify!($ty)
        );
        if let Some((mid_handle, mid_model)) = mid {
            assert_eq!(
                mm_model(&mid_handle),
                mid_model,
                "{}: mid-script snapshot mutated",
                stringify!($ty)
            );
        }
        assert_eq!(
            mm_model(&edited),
            model,
            "{}: edited copy diverged from the model",
            stringify!($ty)
        );
    }};
}

macro_rules! check_map {
    ($ty:ty, $mk_key:expr, $base:expr, $script:expr) => {{
        let mk = $mk_key;
        let mut edited: $ty = MapOps::empty();
        for &(k, v) in $base {
            edited.insert_mut(mk(k % 48), v);
        }
        let model_of = |m: &$ty| -> BTreeMap<_, u16> {
            let out: BTreeMap<_, u16> = m.entries().map(|(k, v)| (k.clone(), *v)).collect();
            assert_eq!(out.len(), MapOps::len(m));
            out
        };
        let mut model = model_of(&edited);
        let frozen = edited.clone();
        let frozen_model = model.clone();
        let mut mid = None;
        let half = $script.len() / 2;
        for (i, op) in $script.iter().enumerate() {
            if i == half {
                mid = Some((edited.clone(), model.clone()));
            }
            match *op {
                Op::Insert(k, v) => {
                    let k = mk(k);
                    model.insert(k.clone(), v);
                    edited.insert_mut(k, v);
                }
                Op::RemoveTuple(k, _) | Op::RemoveKey(k) => {
                    let k = mk(k);
                    assert_eq!(
                        edited.remove_mut(&k),
                        model.remove(&k).is_some(),
                        "{}",
                        stringify!($ty)
                    );
                }
            }
        }
        assert_eq!(
            model_of(&frozen),
            frozen_model,
            "{}: shared handle mutated",
            stringify!($ty)
        );
        if let Some((mid_handle, mid_model)) = mid {
            assert_eq!(
                model_of(&mid_handle),
                mid_model,
                "{}: mid snapshot mutated",
                stringify!($ty)
            );
        }
        assert_eq!(
            model_of(&edited),
            model,
            "{}: edited copy diverged",
            stringify!($ty)
        );
    }};
}

macro_rules! check_set {
    ($ty:ty, $mk_key:expr, $base:expr, $script:expr) => {{
        let mk = $mk_key;
        let mut edited: $ty = SetOps::empty();
        for &(k, _) in $base {
            edited.insert_mut(mk(k % 48));
        }
        let model_of = |s: &$ty| -> BTreeSet<_> {
            let out: BTreeSet<_> = s.iter().cloned().collect();
            assert_eq!(out.len(), SetOps::len(s));
            out
        };
        let mut model = model_of(&edited);
        let frozen = edited.clone();
        let frozen_model = model.clone();
        for op in $script {
            match *op {
                Op::Insert(k, _) => {
                    let k = mk(k);
                    assert_eq!(
                        edited.insert_mut(k.clone()),
                        model.insert(k),
                        "{}",
                        stringify!($ty)
                    );
                }
                Op::RemoveTuple(k, _) | Op::RemoveKey(k) => {
                    let k = mk(k);
                    assert_eq!(
                        edited.remove_mut(&k),
                        model.remove(&k),
                        "{}",
                        stringify!($ty)
                    );
                }
            }
        }
        assert_eq!(
            model_of(&frozen),
            frozen_model,
            "{}: shared handle mutated",
            stringify!($ty)
        );
        assert_eq!(
            model_of(&edited),
            model,
            "{}: edited copy diverged",
            stringify!($ty)
        );
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn multimap_mut_scripts_never_touch_shared_handles(
        base in prop::collection::vec((any::<u16>(), any::<u16>()), 0..80),
        raw in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 0..120),
    ) {
        let script = decode(&raw);
        check_multimap!(AxiomMultiMap<u16, u16>, |k: u16| k, &base, &script);
        check_multimap!(AxiomFusedMultiMap<u16, u16>, |k: u16| k, &base, &script);
        check_multimap!(ClojureMultiMap<u16, u16>, |k: u16| k, &base, &script);
        check_multimap!(ScalaMultiMap<u16, u16>, |k: u16| k, &base, &script);
        check_multimap!(NestedChampMultiMap<u16, u16>, |k: u16| k, &base, &script);
        // Colliding keys: the same scripts through collision-node editing.
        check_multimap!(AxiomMultiMap<FewBuckets, u16>, FewBuckets, &base, &script);
        check_multimap!(AxiomFusedMultiMap<FewBuckets, u16>, FewBuckets, &base, &script);
        check_multimap!(ClojureMultiMap<FewBuckets, u16>, FewBuckets, &base, &script);
        check_multimap!(ScalaMultiMap<FewBuckets, u16>, FewBuckets, &base, &script);
        check_multimap!(NestedChampMultiMap<FewBuckets, u16>, FewBuckets, &base, &script);
    }

    #[test]
    fn map_and_set_mut_scripts_never_touch_shared_handles(
        base in prop::collection::vec((any::<u16>(), any::<u16>()), 0..80),
        raw in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 0..120),
    ) {
        let script = decode(&raw);
        check_map!(AxiomMap<u16, u16>, |k: u16| k, &base, &script);
        check_map!(ChampMap<u16, u16>, |k: u16| k, &base, &script);
        check_map!(HamtMap<u16, u16>, |k: u16| k, &base, &script);
        check_map!(MemoHamtMap<u16, u16>, |k: u16| k, &base, &script);
        check_map!(AxiomMap<FewBuckets, u16>, FewBuckets, &base, &script);
        check_map!(ChampMap<FewBuckets, u16>, FewBuckets, &base, &script);
        check_map!(HamtMap<FewBuckets, u16>, FewBuckets, &base, &script);
        check_map!(MemoHamtMap<FewBuckets, u16>, FewBuckets, &base, &script);

        check_set!(AxiomSet<u16>, |k: u16| k, &base, &script);
        check_set!(ChampSet<u16>, |k: u16| k, &base, &script);
        check_set!(HamtSet<u16>, |k: u16| k, &base, &script);
        check_set!(MemoHamtSet<u16>, |k: u16| k, &base, &script);
        check_set!(AxiomSet<FewBuckets>, FewBuckets, &base, &script);
        check_set!(ChampSet<FewBuckets>, FewBuckets, &base, &script);
        check_set!(HamtSet<FewBuckets>, FewBuckets, &base, &script);
        check_set!(MemoHamtSet<FewBuckets>, FewBuckets, &base, &script);
    }

    #[test]
    fn iteration_order_does_not_depend_on_sharing(
        base in prop::collection::vec((any::<u16>(), any::<u16>()), 0..80),
        raw in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 0..120),
    ) {
        let ops: Vec<Op> = base
            .iter()
            .map(|&(k, v)| Op::Insert(k % 48, v % 6))
            .chain(decode(&raw))
            .collect();
        map_order_agrees::<AxiomMap<FewBuckets, u16>>(&ops);
        map_order_agrees::<ChampMap<FewBuckets, u16>>(&ops);
        map_order_agrees::<HamtMap<FewBuckets, u16>>(&ops);
        map_order_agrees::<MemoHamtMap<FewBuckets, u16>>(&ops);
        set_order_agrees::<AxiomSet<FewBuckets>>(&ops);
        set_order_agrees::<ChampSet<FewBuckets>>(&ops);
        set_order_agrees::<HamtSet<FewBuckets>>(&ops);
        set_order_agrees::<MemoHamtSet<FewBuckets>>(&ops);
        multimap_order_agrees::<AxiomMultiMap<FewBuckets, u16>>(&ops);
        multimap_order_agrees::<AxiomFusedMultiMap<FewBuckets, u16>>(&ops);
        multimap_order_agrees::<ClojureMultiMap<FewBuckets, u16>>(&ops);
        multimap_order_agrees::<ScalaMultiMap<FewBuckets, u16>>(&ops);
        multimap_order_agrees::<NestedChampMultiMap<FewBuckets, u16>>(&ops);
    }
}

/// Runs `ops` from an empty map twice: through `_mut` on a unique handle,
/// and through the persistent methods with every version kept alive. Both
/// runs must iterate the same entries in the same order.
fn map_order_agrees<M: MapMutOps<FewBuckets, u16>>(ops: &[Op]) {
    let mut unique = M::empty();
    let mut versions = vec![M::empty()];
    for op in ops {
        let last = versions.last().expect("starts with the empty map");
        let next = match *op {
            Op::Insert(k, v) => {
                unique.insert_mut(FewBuckets(k), v);
                last.inserted(FewBuckets(k), v)
            }
            Op::RemoveTuple(k, _) | Op::RemoveKey(k) => {
                unique.remove_mut(&FewBuckets(k));
                last.removed(&FewBuckets(k))
            }
        };
        versions.push(next);
    }
    let shared = versions.last().expect("starts with the empty map");
    assert_eq!(
        unique.entries().collect::<Vec<_>>(),
        shared.entries().collect::<Vec<_>>(),
        "{}: unique and shared edits iterate differently",
        std::any::type_name::<M>()
    );
}

/// The set counterpart of [`map_order_agrees`].
fn set_order_agrees<S: SetMutOps<FewBuckets>>(ops: &[Op]) {
    let mut unique = S::empty();
    let mut versions = vec![S::empty()];
    for op in ops {
        let last = versions.last().expect("starts with the empty set");
        let next = match *op {
            Op::Insert(k, _) => {
                unique.insert_mut(FewBuckets(k));
                last.inserted(FewBuckets(k))
            }
            Op::RemoveTuple(k, _) | Op::RemoveKey(k) => {
                unique.remove_mut(&FewBuckets(k));
                last.removed(&FewBuckets(k))
            }
        };
        versions.push(next);
    }
    let shared = versions.last().expect("starts with the empty set");
    assert_eq!(
        unique.iter().collect::<Vec<_>>(),
        shared.iter().collect::<Vec<_>>(),
        "{}: unique and shared edits iterate differently",
        std::any::type_name::<S>()
    );
}

/// The multi-map counterpart of [`map_order_agrees`].
fn multimap_order_agrees<M: MultiMapMutOps<FewBuckets, u16>>(ops: &[Op]) {
    let mut unique = M::empty();
    let mut versions = vec![M::empty()];
    for op in ops {
        let last = versions.last().expect("starts with the empty multi-map");
        let next = match *op {
            Op::Insert(k, v) => {
                unique.insert_mut(FewBuckets(k), v);
                last.inserted(FewBuckets(k), v)
            }
            Op::RemoveTuple(k, v) => {
                unique.remove_tuple_mut(&FewBuckets(k), &v);
                last.tuple_removed(&FewBuckets(k), &v)
            }
            Op::RemoveKey(k) => {
                unique.remove_key_mut(&FewBuckets(k));
                last.key_removed(&FewBuckets(k))
            }
        };
        versions.push(next);
    }
    let shared = versions.last().expect("starts with the empty multi-map");
    assert_eq!(
        unique.tuples().collect::<Vec<_>>(),
        shared.tuples().collect::<Vec<_>>(),
        "{}: unique and shared edits iterate differently",
        std::any::type_name::<M>()
    );
}

/// Deterministic smoke check of the axiom structural invariants under a
/// shared-then-edited spine (proptest shrinking does not cover
/// `assert_invariants`, so drive it directly).
#[test]
fn axiom_invariants_hold_after_shared_edits() {
    let mut mm: AxiomMultiMap<u16, u16> = AxiomMultiMap::new();
    for k in 0..200u16 {
        mm.insert_mut(k, 0);
        if k % 2 == 0 {
            mm.insert_mut(k, 1);
        }
    }
    let frozen = mm.clone();
    for k in 0..200u16 {
        mm.insert_mut(k, 2);
        if k % 3 == 0 {
            mm.remove_tuple_mut(&k, &0);
        }
        if k % 5 == 0 {
            mm.remove_key_mut(&k);
        }
    }
    mm.assert_invariants();
    frozen.assert_invariants();
    assert_eq!(frozen.tuple_count(), 300);

    let mut set: AxiomSet<u16> = (0..300).collect();
    let shared = set.clone();
    for k in 0..300u16 {
        if k % 2 == 0 {
            set.remove_mut(&k);
        } else {
            set.insert_mut(k + 1000);
        }
    }
    set.assert_invariants();
    shared.assert_invariants();
    assert_eq!(shared.len(), 300);

    let mut map: AxiomMap<u16, u16> = (0..300).map(|k| (k, k)).collect();
    let shared = map.clone();
    for k in 0..300u16 {
        if k % 2 == 0 {
            map.remove_mut(&k);
        } else {
            map.insert_mut(k, k + 1);
        }
    }
    map.assert_invariants();
    shared.assert_invariants();
    assert_eq!(shared.len(), 300);
}

/// The same deterministic check for the CHAMP and HAMT baselines, with
/// colliding keys so shared collision nodes are edited too.
#[test]
fn baseline_invariants_hold_after_shared_edits() {
    macro_rules! check_map {
        ($ty:ty) => {{
            let mut map: $ty = (0..300).map(|k| (FewBuckets(k), k)).collect();
            let shared = map.clone();
            for k in 0..300u16 {
                if k % 2 == 0 {
                    map.remove_mut(&FewBuckets(k));
                } else {
                    map.insert_mut(FewBuckets(k), k + 1);
                    map.insert_mut(FewBuckets(k + 1000), k);
                }
            }
            map.assert_invariants();
            shared.assert_invariants();
            assert_eq!(shared.len(), 300, "{}", stringify!($ty));
            assert_eq!(map.len(), 300, "{}", stringify!($ty));
        }};
    }
    check_map!(ChampMap<FewBuckets, u16>);
    check_map!(HamtMap<FewBuckets, u16>);
    check_map!(MemoHamtMap<FewBuckets, u16>);

    let mut set: ChampSet<FewBuckets> = (0..300).map(FewBuckets).collect();
    let shared = set.clone();
    for k in 0..300u16 {
        if k % 2 == 0 {
            set.remove_mut(&FewBuckets(k));
        } else {
            set.insert_mut(FewBuckets(k + 1000));
        }
    }
    set.assert_invariants();
    shared.assert_invariants();
    assert_eq!(shared.len(), 300);
    assert_eq!(set.len(), 300);
}
