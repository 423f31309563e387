//! Allocation-behaviour assertions for the structural set algebra: the
//! pointer-equality fast paths must be observable at the allocator, not
//! just by timing. Self-union (and friends) of a trie with itself touches
//! the `Arc::ptr_eq` short-circuit at the root and must perform **zero**
//! heap allocations — only refcount bumps. `replace_values_mut` likewise
//! edits a uniquely-owned multi-map's spine in place and path-copies a
//! shared one.
//!
//! Lives in its own test binary because the counting allocator is
//! process-global; see `heapmodel::alloc_counter`.

use axiom_repro::axiom::{AxiomMap, AxiomMultiMap, AxiomSet, ValueBag};
use axiom_repro::champ::ChampSet;
use axiom_repro::hamt::HamtSet;
use axiom_repro::heapmodel::alloc_counter::{measure, CountingAlloc};
use axiom_repro::trie_common::ops::{MapMergeOps, MultiMapAlgebraOps, SetAlgebraOps};

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

    // A frozen copy (clone) shares the root: still zero allocations.
    let frozen = set.clone();
    let (d, allocs) = measure(|| frozen.diff(&set));
    assert_eq!(allocs, 0, "clone-vs-original diff allocated");
    assert!(d.is_empty());

    replace_values_copies_only_shared_nodes();
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
