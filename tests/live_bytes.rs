//! The native footprint walkers count what the allocator holds.
//!
//! Each collection is built while the counting allocator tracks live
//! bytes; the bytes the build left allocated must equal the collection's
//! `RustFootprint` total exactly. A walker that skipped an allocation,
//! counted a shared node twice or used a size the allocator does not hold
//! (padding, a header) would show up here as a difference.
//!
//! One `#[test]`, because the counters are process-wide.

use axiom_repro::axiom::{AxiomFusedMultiMap, AxiomMap, AxiomMultiMap, AxiomSet};
use axiom_repro::champ::{ChampMap, ChampSet};
use axiom_repro::heapmodel::alloc_counter::{live_bytes, CountingAlloc};
use axiom_repro::heapmodel::RustFootprint;
use axiom_repro::idiomatic::{ClojureMultiMap, NestedChampMultiMap, ScalaMultiMap};
use axiom_repro::trie_common::ops::{MultiMapOps, TransientOps};
use axiom_repro::workloads::build::multimap_transient;
use axiom_repro::workloads::data::multimap_workload;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

/// Builds a value with `build` and returns it with the bytes it left
/// allocated.
fn built<C>(build: impl FnOnce() -> C) -> (C, u64) {
    let before = live_bytes();
    let c = build();
    (c, live_bytes() - before)
}

fn check<C: RustFootprint>(what: &str, keys: usize, (c, live): (C, u64)) {
    assert_eq!(
        c.rust_bytes(),
        live,
        "{what} at {keys} keys: walker total vs live bytes"
    );
}

fn multimap<M>(tuples: &[(u32, u32)]) -> (M, u64)
where
    M: MultiMapOps<u32, u32> + TransientOps<(u32, u32)>,
{
    built(|| multimap_transient::<M>(tuples))
}

#[test]
fn footprint_walkers_match_live_bytes() {
    for keys in [1 << 10, 1 << 14, 1 << 17] {
        // u32 keys, half bound to one value and half to two.
        let w = multimap_workload(keys, 7);
        check(
            "AxiomSet",
            keys,
            built(|| w.keys.iter().copied().collect::<AxiomSet<u32>>()),
        );
        check(
            "AxiomMap",
            keys,
            built(|| {
                w.keys
                    .iter()
                    .map(|&k| (k, k))
                    .collect::<AxiomMap<u32, u32>>()
            }),
        );
        check(
            "ChampMap",
            keys,
            built(|| {
                w.keys
                    .iter()
                    .map(|&k| (k, k))
                    .collect::<ChampMap<u32, u32>>()
            }),
        );
        check(
            "ChampSet",
            keys,
            built(|| w.keys.iter().copied().collect::<ChampSet<u32>>()),
        );
        check(
            "AxiomMultiMap",
            keys,
            multimap::<AxiomMultiMap<u32, u32>>(&w.tuples),
        );
        check(
            "AxiomFusedMultiMap",
            keys,
            multimap::<AxiomFusedMultiMap<u32, u32>>(&w.tuples),
        );
        check(
            "NestedChampMultiMap",
            keys,
            multimap::<NestedChampMultiMap<u32, u32>>(&w.tuples),
        );
        check(
            "ClojureMultiMap",
            keys,
            multimap::<ClojureMultiMap<u32, u32>>(&w.tuples),
        );
        check(
            "ScalaMultiMap",
            keys,
            multimap::<ScalaMultiMap<u32, u32>>(&w.tuples),
        );
    }
}
