//! Allocation-behaviour gate for the transient in-place editing paths.
//!
//! On a *uniquely-owned* trie, `insert_mut` along an existing spine must be
//! a pure in-place edit: zero `Arc` node copies and zero slot-array
//! rebuilds, hence **zero heap allocations**. This is asserted with the
//! counting global allocator from [`heapmodel::alloc_counter`] — a modeled
//! byte count could not observe it.
//!
//! On a trie *shared* with a second handle, the persistent edits copy only
//! the spine they change: a no-op allocates nothing, and a real edit
//! allocates no more than the path copy it replaces.
//!
//! The whole gate lives in ONE `#[test]` so this binary never runs
//! measurements on concurrent test threads (the counters are process-wide).

use axiom::{AxiomFusedMultiMap, AxiomMap, AxiomMultiMap, AxiomSet};
use heapmodel::alloc_counter::{measure, CountingAlloc};
use trie_common::ops::MultiMapOps;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

#[test]
fn unique_spine_edits_do_not_allocate() {
    // --- AxiomMap: value replacement along an existing spine. -------------
    let mut map: AxiomMap<u32, u32> = (0..1000).map(|i| (i, i)).collect();
    let (_, allocs) = measure(|| {
        for i in 0..1000 {
            map.insert_mut(i, i + 1);
        }
    });
    assert_eq!(
        allocs, 0,
        "in-place value replacement on a uniquely-owned map must not allocate"
    );
    assert_eq!(map.get(&500), Some(&501));

    // No-op inserts (key and value already present) are also free.
    let (_, allocs) = measure(|| {
        for i in 0..1000 {
            map.insert_mut(i, i + 1);
        }
    });
    assert_eq!(allocs, 0, "no-op inserts must not allocate");

    // --- AxiomSet: duplicate inserts on a uniquely-owned set. -------------
    let mut set: AxiomSet<u32> = (0..1000).collect();
    let (grew, allocs) = measure(|| {
        let mut grew = 0;
        for i in 0..1000 {
            if set.insert_mut(i) {
                grew += 1;
            }
        }
        grew
    });
    assert_eq!(grew, 0);
    assert_eq!(allocs, 0, "duplicate set inserts must not allocate");

    // --- AxiomMultiMap: duplicate tuples over 1:1 and 1:n bindings. -------
    let mut mm: AxiomMultiMap<u32, u32> = AxiomMultiMap::new();
    for k in 0..500u32 {
        mm.insert_mut(k, k);
        if k % 2 == 0 {
            mm.insert_mut(k, k + 1); // promoted 1:n binding
        }
    }
    let (_, allocs) = measure(|| {
        for k in 0..500u32 {
            assert!(!mm.insert_mut(k, k));
            if k % 2 == 0 {
                assert!(!mm.insert_mut(k, k + 1));
            }
        }
    });
    assert_eq!(allocs, 0, "duplicate multi-map inserts must not allocate");

    // Same for the fused value-storage strategy (inline boxes probed in
    // place).
    let mut fused: AxiomFusedMultiMap<u32, u32> = AxiomFusedMultiMap::new();
    for k in 0..500u32 {
        fused.insert_mut(k, k);
        fused.insert_mut(k, k + 1);
    }
    let (_, allocs) = measure(|| {
        for k in 0..500u32 {
            assert!(!fused.insert_mut(k, k));
            assert!(!fused.insert_mut(k, k + 1));
        }
    });
    assert_eq!(allocs, 0, "duplicate fused inserts must not allocate");

    // --- Contrast: the persistent path on a *shared* spine must allocate
    // (path copying), proving the counter actually observes this workload.
    let snapshot = map.clone(); // shares every node with `map`
    let (_, allocs) = measure(|| {
        let mut m = snapshot.clone();
        m.insert_mut(0, 99);
        m.len()
    });
    assert!(
        allocs > 0,
        "path-copying on a shared spine must allocate (counter sanity check)"
    );
    assert_eq!(map.get(&0), Some(&1), "original handle untouched");

    // --- Growth along an existing spine allocates only the leaf arrays,
    // never Arc node copies: strictly fewer allocations than trie depth
    // would imply under path copying.
    let mut grow: AxiomMap<u32, u32> = (0..1024).map(|i| (i, i)).collect();
    let (_, allocs) = measure(|| {
        for i in 1024..1056 {
            grow.insert_mut(i, i);
        }
    });
    // Path copying costs ≥ 2 allocations per level (node + slots) at ≥ 2
    // levels for this size; in-place growth pays at most one slot-array
    // rebuild per level actually restructured — bounded by 2 per insert
    // (leaf array + occasional fresh sub-node).
    assert!(
        allocs <= 32 * 3,
        "growth on a unique spine allocated {allocs} times for 32 inserts"
    );

    shared_handle_edits();
}

/// Keys in each shared trie, and persistent edits per measured loop.
const KEYS: u32 = 16_384;
const OPS: u32 = 1_000;

/// Allocations of `OPS` persistent edits, each applied to `base` (whose
/// nodes a second handle shares) and dropped.
fn allocs<C>(base: &C, edit: impl Fn(&C, u32) -> C) -> u64 {
    measure(|| {
        for i in 0..OPS {
            drop(edit(base, i));
        }
    })
    .1
}

/// Asserts that `OPS` persistent no-ops allocated nothing.
fn free(allocs: u64, what: &str) {
    assert_eq!(allocs, 0, "{what}: a persistent no-op allocated");
}

/// Asserts that `OPS` real persistent edits allocated at most `bound`.
fn within(allocs: u64, bound: u64, what: &str) {
    assert!(
        allocs <= bound,
        "{what}: {allocs} allocations for {OPS} edits (bound {bound})"
    );
}

// The bounds below are the totals the same loops allocated at commit
// cb08c35, where a shared node was rebuilt by a separate persistent twin
// of each edit: the one copy-on-write walk must not copy more.

fn shared_handle_edits() {
    let map: AxiomMap<u32, u32> = (0..KEYS).map(|k| (k, k)).collect();
    let _second = map.clone();
    free(
        allocs(&map, |m, i| m.inserted(i, i)),
        "map duplicate insert",
    );
    free(
        allocs(&map, |m, i| m.removed(&(KEYS + i))),
        "map absent remove",
    );
    within(
        allocs(&map, |m, i| m.inserted(KEYS + i, i)),
        6658,
        "map new key",
    );
    within(
        allocs(&map, |m, i| m.inserted(i, i + 1)),
        6706,
        "map replace",
    );
    within(allocs(&map, |m, i| m.removed(&i)), 6108, "map remove");

    let set: AxiomSet<u32> = (0..KEYS).collect();
    let _second = set.clone();
    free(allocs(&set, |s, i| s.inserted(i)), "set duplicate insert");
    free(
        allocs(&set, |s, i| s.removed(&(KEYS + i))),
        "set absent remove",
    );
    within(
        allocs(&set, |s, i| s.inserted(KEYS + i)),
        6658,
        "set insert",
    );
    within(allocs(&set, |s, i| s.removed(&i)), 6108, "set remove");

    multimap_edits::<AxiomMultiMap<u32, u32>>("multimap", [6658, 8736, 8800, 9672, 6094, 6082]);
    // Fused bags: growing or demoting an inline bag in a shared node pays
    // one allocation more per edit than cb08c35 did (10269 and 9269 there).
    // The copied node carries a clone of the inline slice, which the edit
    // then replaces; the deleted persistent twin built the new slice from
    // the borrowed one instead.
    multimap_edits::<AxiomFusedMultiMap<u32, u32>>(
        "fused",
        [
            9374,
            10383,
            10269 + OPS as u64,
            9269 + OPS as u64,
            8807,
            8679,
        ],
    );
}

/// A named persistent edit of the multi-map `M` under loop index `i`.
type Edit<'a, M> = (&'a str, &'a dyn Fn(&M, u32) -> M);

/// Shared-handle edits of a multi-map: every fourth key is bound to two
/// values (`CAT2`), the rest to one (`CAT1`). Edits under a 1:n key use
/// keys `4i`, those under a 1:1 key keys `4i + 1`. `bounds` are for the
/// six real edits in order: new key, 1:1 → 1:n, grow a bag, 1:n → 1:1,
/// remove a 1:1 tuple, remove a 1:n key.
fn multimap_edits<M>(what: &str, bounds: [u64; 6])
where
    M: MultiMapOps<u32, u32> + Clone + FromIterator<(u32, u32)>,
{
    let mm: M = (0..KEYS)
        .flat_map(|k| [(k, k), (k, if k % 4 == 0 { k + 1 } else { k })])
        .collect();
    let _second = mm.clone();
    let (many, one) = (|i: u32| 4 * i, |i: u32| 4 * i + 1);
    let no_ops: [Edit<M>; 6] = [
        ("duplicate 1:1 tuple", &|m, i| m.inserted(one(i), one(i))),
        ("duplicate 1:n tuple", &|m, i| {
            m.inserted(many(i), many(i) + 1)
        }),
        ("absent tuple", &|m, i| m.tuple_removed(&(KEYS + i), &0)),
        ("absent value, 1:n key", &|m, i| {
            m.tuple_removed(&many(i), &u32::MAX)
        }),
        ("absent value, 1:1 key", &|m, i| {
            m.tuple_removed(&one(i), &u32::MAX)
        }),
        ("absent key", &|m, i| m.key_removed(&(KEYS + i))),
    ];
    for (edit, no_op) in no_ops {
        free(allocs(&mm, no_op), &format!("{what} {edit}"));
    }
    let edits: [Edit<M>; 6] = [
        ("new key", &|m, i| m.inserted(KEYS + i, 0)),
        ("1:1 -> 1:n", &|m, i| m.inserted(one(i), KEYS)),
        ("grow a bag", &|m, i| m.inserted(many(i), KEYS)),
        ("1:n -> 1:1", &|m, i| m.tuple_removed(&many(i), &many(i))),
        ("remove a 1:1 tuple", &|m, i| {
            m.tuple_removed(&one(i), &one(i))
        }),
        ("remove a 1:n key", &|m, i| m.key_removed(&many(i))),
    ];
    for ((edit, apply), bound) in edits.into_iter().zip(bounds) {
        within(allocs(&mm, apply), bound, &format!("{what} {edit}"));
    }
}
