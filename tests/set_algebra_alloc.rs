//! Allocation-behaviour assertions for the structural set algebra: the
//! pointer-equality fast paths must be observable at the allocator, not
//! just by timing. Self-union (and friends) of a trie with itself touches
//! the `Arc::ptr_eq` short-circuit at the root and must perform **zero**
//! heap allocations — only refcount bumps; so must reading a key's nested
//! value set out of a multi-map. `replace_values_mut` likewise edits a
//! uniquely-owned multi-map's spine in place and path-copies a shared one.
//! The CHAMP and HAMT baselines' persistent edits on a shared trie copy
//! only the spine they change: a no-op allocates nothing, and a real edit
//! allocates no more than it did before their edits became one
//! copy-on-write walk.
//!
//! Lives in its own test binary because the counting allocator is
//! process-global; see `heapmodel::alloc_counter`.

use axiom_repro::axiom::{AxiomMap, AxiomMultiMap, AxiomSet, ValueBag};
use axiom_repro::champ::{ChampMap, ChampSet};
use axiom_repro::hamt::{HamtMap, HamtSet, MemoHamtMap};
use axiom_repro::heapmodel::alloc_counter::{measure, CountingAlloc};
use axiom_repro::trie_common::ops::{
    MapMergeOps, MapOps, MultiMapAlgebraOps, SetAlgebraOps, SetOps,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

/// One test function so no sibling test thread allocates concurrently.
#[test]
fn self_algebra_allocates_nothing() {
    let set: AxiomSet<u64> = (0..10_000).collect();
    let champ: ChampSet<u64> = (0..10_000).collect();
    let hamt: HamtSet<u64> = (0..10_000).collect();
    let map: AxiomMap<u64, u64> = (0..10_000).map(|k| (k, k)).collect();
    let mm: AxiomMultiMap<u64, u64> = (0..10_000).map(|i| (i % 2_500, i)).collect();

    // Self-union: the root pointers are equal, so the structural walk
    // returns a clone of `self` without visiting a single child.
    let (u, allocs) = measure(|| set.union(&set));
    assert_eq!(allocs, 0, "AxiomSet self-union allocated");
    assert_eq!(u.len(), set.len());

    let (u, allocs) = measure(|| champ.union(&champ));
    assert_eq!(allocs, 0, "ChampSet self-union allocated");
    assert_eq!(u.len(), champ.len());

    // Same fast path for intersect and difference-shaped walks...
    let (i, allocs) = measure(|| set.intersect(&set));
    assert_eq!(allocs, 0, "AxiomSet self-intersect allocated");
    assert_eq!(i.len(), set.len());

    // ...and for self-diff across all three kinds, including the HAMT
    // (whose non-canonical form only gets the one-way ptr_eq shortcut —
    // which is exactly the one self-diff exercises).
    let (d, allocs) = measure(|| SetAlgebraOps::diff(&set, &set));
    assert_eq!(allocs, 0, "AxiomSet self-diff allocated");
    assert!(d.is_empty());

    let (d, allocs) = measure(|| SetAlgebraOps::diff(&hamt, &hamt));
    assert_eq!(allocs, 0, "HamtSet self-diff allocated");
    assert!(d.is_empty());

    let (d, allocs) = measure(|| MapMergeOps::diff(&map, &map));
    assert_eq!(allocs, 0, "AxiomMap self-diff allocated");
    assert!(d.is_empty());

    let (d, allocs) = measure(|| MultiMapAlgebraOps::diff(&mm, &mm));
    assert_eq!(allocs, 0, "AxiomMultiMap self-diff allocated");
    assert!(d.is_empty());

    // A key's nested value set comes out as a clone of the bag's root.
    let (values, allocs) = measure(|| mm.value_set(&1_234));
    assert_eq!(allocs, 0, "value_set of a nested binding allocated");
    assert_eq!(values.map(|set| set.len()), Some(4));

    // A frozen copy (clone) shares the root: still zero allocations.
    let frozen = set.clone();
    let (d, allocs) = measure(|| frozen.diff(&set));
    assert_eq!(allocs, 0, "clone-vs-original diff allocated");
    assert!(d.is_empty());

    replace_values_copies_only_shared_nodes();
    baseline_shared_edits();
}

/// Replacing a `CAT2` binding with another `CAT2` binding: on a
/// uniquely-owned multi-map it allocates no more than building the new bag
/// alone (no node is copied); on a shared handle it path-copies, and the
/// old handle keeps its values.
fn replace_values_copies_only_shared_nodes() {
    // Every key maps to four values, so every binding is a CAT2 bag.
    let mut mm: AxiomMultiMap<u64, u64> = (0..10_000).map(|i| (i % 2_500, i)).collect();
    let key = 1_234;
    let sorted = |mm: &AxiomMultiMap<u64, u64>| {
        let mut vs: Vec<u64> = mm.values_of(&key).copied().collect();
        vs.sort_unstable();
        vs
    };
    let bag_of = |a, b, rest: &[u64]| {
        let mut bag = <AxiomSet<u64> as ValueBag<u64>>::from_two(a, b);
        for &v in rest {
            bag.insert_mut(v);
        }
        bag
    };

    let (_, bag_allocs) = measure(|| bag_of(7, 8, &[9]));
    let (delta, allocs) = measure(|| mm.replace_values_mut(key, [7, 8, 9, 8]));
    assert_eq!(delta, -1);
    assert!(
        allocs <= bag_allocs,
        "unique replace allocated {allocs}, the bag alone {bag_allocs}"
    );
    mm.assert_invariants();
    assert_eq!(sorted(&mm), [7, 8, 9]);

    let frozen = mm.clone();
    let (_, bag_allocs) = measure(|| bag_of(1, 2, &[]));
    let (delta, allocs) = measure(|| mm.replace_values_mut(key, [1, 2]));
    assert_eq!(delta, -1);
    assert!(
        allocs > bag_allocs,
        "shared replace allocated {allocs}: no node was copied"
    );
    assert_eq!(sorted(&mm), [1, 2]);
    assert_eq!(sorted(&frozen), [7, 8, 9], "the shared handle changed");
    mm.assert_invariants();
    frozen.assert_invariants();
}

/// Keys in each shared baseline trie, and persistent edits per measured
/// loop.
const KEYS: u64 = 16_384;
const OPS: u64 = 1_000;

/// Allocations of `OPS` persistent edits, each applied to `base` (whose
/// nodes a second handle shares) and dropped.
fn allocs<C>(base: &C, edit: impl Fn(&C, u64) -> C) -> u64 {
    measure(|| {
        for i in 0..OPS {
            drop(edit(base, i));
        }
    })
    .1
}

/// A named persistent edit of the collection `C` under loop index `i`.
type Edit<'a, C> = (&'a str, &'a dyn Fn(&C, u64) -> C);

/// Persistent edits of a shared baseline map: two no-ops that must not
/// allocate, then a new key, a replaced value and a removal, each bounded
/// by `bounds` in that order.
fn map_edits<M: MapOps<u64, u64> + FromIterator<(u64, u64)>>(bounds: [u64; 3]) {
    let map: M = (0..KEYS).map(|k| (k, k)).collect();
    let _second = map.clone();
    let no_ops: [Edit<M>; 2] = [
        ("duplicate insert", &|m, i| m.inserted(i, i)),
        ("absent remove", &|m, i| m.removed(&(KEYS + i))),
    ];
    for (edit, apply) in no_ops {
        assert_eq!(allocs(&map, apply), 0, "{} {edit} allocated", M::NAME);
    }
    let edits: [Edit<M>; 3] = [
        ("new key", &|m, i| m.inserted(KEYS + i, i)),
        ("replace", &|m, i| m.inserted(i, i + 1)),
        ("remove", &|m, i| m.removed(&i)),
    ];
    for ((edit, apply), bound) in edits.into_iter().zip(bounds) {
        let n = allocs(&map, apply);
        assert!(
            n <= bound,
            "{} {edit}: {n} allocations (bound {bound})",
            M::NAME
        );
    }
}

/// The set counterpart of [`map_edits`]: bounds for an insert and a
/// removal.
fn set_edits<S: SetOps<u64> + FromIterator<u64>>(bounds: [u64; 2]) {
    let set: S = (0..KEYS).collect();
    let _second = set.clone();
    let no_ops: [Edit<S>; 2] = [
        ("duplicate insert", &|s, i| s.inserted(i)),
        ("absent remove", &|s, i| s.removed(&(KEYS + i))),
    ];
    for (edit, apply) in no_ops {
        assert_eq!(allocs(&set, apply), 0, "{} {edit} allocated", S::NAME);
    }
    let edits: [Edit<S>; 2] = [
        ("insert", &|s, i| s.inserted(KEYS + i)),
        ("remove", &|s, i| s.removed(&i)),
    ];
    for ((edit, apply), bound) in edits.into_iter().zip(bounds) {
        let n = allocs(&set, apply);
        assert!(
            n <= bound,
            "{} {edit}: {n} allocations (bound {bound})",
            S::NAME
        );
    }
}

// The bounds are the totals the same loops allocated at commit e7f9f11,
// where a shared CHAMP or HAMT node was rebuilt by a separate persistent
// twin of each edit: the one copy-on-write walk must not copy more. It
// matches every total but the memoizing HAMT's removal, which drops from
// 8452 to 6108: that twin first collected the surviving slots into a
// scratch `Vec`.
fn baseline_shared_edits() {
    map_edits::<ChampMap<u64, u64>>([6658, 6706, 6108]);
    set_edits::<ChampSet<u64>>([6658, 6108]);
    map_edits::<HamtMap<u64, u64>>([6658, 6706, 6706]);
    map_edits::<MemoHamtMap<u64, u64>>([6658, 6706, 8452]);
}
