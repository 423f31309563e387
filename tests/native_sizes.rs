//! Exact native sizes of the AXIOM collections and the CHAMP baselines,
//! pinned.
//!
//! These are what the allocator holds, by the `RustFootprint` walk, and are
//! exact for a given workload seed. A change to the node layout moves them;
//! it must then re-record the numbers here and say why the new ones are
//! right.

use std::mem::size_of;

use axiom_repro::axiom::bag::SetEntry;
use axiom_repro::axiom::{AxiomFusedMultiMap, AxiomMap, AxiomMultiMap, AxiomSet};
use axiom_repro::champ::{ChampMap, ChampSet};
use axiom_repro::heapmodel::RustFootprint;
use axiom_repro::workloads::build::multimap_transient;
use axiom_repro::workloads::data::multimap_workload;

#[test]
fn a_two_element_set_and_a_cat2_slot_are_pinned() {
    // One node: a 16-byte header and two 4-byte elements.
    let pair: AxiomSet<u32> = [1, 2].into_iter().collect();
    assert_eq!(pair.rust_bytes(), 24);
    // The `CAT2` element of a `u32 → u32` multi-map: key, value count and
    // the set's root pointer side by side.
    assert_eq!(size_of::<SetEntry<u32, u32>>(), 16);
    assert_eq!(size_of::<AxiomSet<u32>>(), 16);
}

#[test]
fn native_bytes_at_2_14_keys_seed_11_are_pinned() {
    // u32 keys, half bound to one value and half to two: the `footprints`
    // binary's native table.
    let w = multimap_workload(1 << 14, 11);
    let set: AxiomSet<u32> = w.keys.iter().copied().collect();
    let mm: AxiomMultiMap<u32, u32> = multimap_transient(&w.tuples);
    let fused: AxiomFusedMultiMap<u32, u32> = multimap_transient(&w.tuples);
    assert_eq!((w.keys.len(), w.tuples.len()), (16_384, 24_576));
    // 10.31 B per element.
    assert_eq!(set.rust_bytes(), 168_960);
    // 20.31 B per tuple.
    assert_eq!(mm.rust_bytes(), 499_240);
    // 20.06 B per tuple.
    assert_eq!(fused.rust_bytes(), 493_000);
}

#[test]
fn maps_and_the_champ_set_at_2_14_keys_seed_11_are_pinned() {
    // The same keys as above, each bound to itself. All four tries store a
    // node as one block with a 16-byte header, and AXIOM's `CAT1`/`NODE`
    // tags and CHAMP's two bitmaps give the same shape, so each map matches
    // the other and each set the AXIOM set.
    let w = multimap_workload(1 << 14, 11);
    let axiom: AxiomMap<u32, u32> = w.keys.iter().map(|&k| (k, k)).collect();
    let champ: ChampMap<u32, u32> = w.keys.iter().map(|&k| (k, k)).collect();
    let set: ChampSet<u32> = w.keys.iter().copied().collect();
    // 14.09 B per entry.
    assert_eq!(axiom.rust_bytes(), 230_856);
    assert_eq!(champ.rust_bytes(), 230_856);
    // 10.31 B per element.
    assert_eq!(set.rust_bytes(), 168_960);
}

#[test]
fn a_multimap_of_one_to_one_tuples_is_as_small_as_the_map() {
    // The paper's "to-one" half: every key bound to itself alone. No bag
    // is ever made, so both multi-maps hold exactly the map's nodes.
    let w = multimap_workload(1 << 14, 11);
    let pairs = || w.keys.iter().map(|&k| (k, k));
    let map: AxiomMap<u32, u32> = pairs().collect();
    let mm: AxiomMultiMap<u32, u32> = pairs().collect();
    let fused: AxiomFusedMultiMap<u32, u32> = pairs().collect();
    assert_eq!(map.rust_bytes(), 230_856);
    assert_eq!(mm.rust_bytes(), 230_856);
    assert_eq!(fused.rust_bytes(), 230_856);
}
