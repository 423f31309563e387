//! Exact native sizes of the AXIOM collections and the CHAMP and HAMT
//! baselines, pinned (the HAMT ones with their modeled JVM bytes).
//!
//! These are what the allocator holds, by the `RustFootprint` walk, and are
//! exact for a given workload seed. A change to the node layout moves them;
//! it must then re-record the numbers here and say why the new ones are
//! right.

use std::mem::size_of;

use axiom_repro::axiom::bag::SetEntry;
use axiom_repro::axiom::{AxiomFusedMultiMap, AxiomMap, AxiomMultiMap, AxiomSet};
use axiom_repro::champ::{ChampMap, ChampSet};
use axiom_repro::hamt::{HamtMap, HamtSet, MemoHamtMap, MemoHamtSet};
use axiom_repro::heapmodel::{Footprint, JvmArch, JvmFootprint, LayoutPolicy, RustFootprint};
use axiom_repro::idiomatic::{ClojureMultiMap, ScalaMultiMap};
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

#[test]
fn hamt_comparators_at_2_14_keys_seed_11_are_pinned() {
    // The same keys as above: the maps bind each key to itself, the
    // multi-maps hold the tuples. The HAMT slot enums carry their entries
    // unboxed, so a slot whose layout grows moves the native bytes.
    let w = multimap_workload(1 << 14, 11);
    let pairs = || w.keys.iter().map(|&k| (k, k));
    let clojure: HamtMap<u32, u32> = pairs().collect();
    let scala: MemoHamtMap<u32, u32> = pairs().collect();
    let clojure_set: HamtSet<u32> = w.keys.iter().copied().collect();
    let scala_set: MemoHamtSet<u32> = w.keys.iter().copied().collect();
    let clojure_mm: ClojureMultiMap<u32, u32> = multimap_transient(&w.tuples);
    let scala_mm: ScalaMultiMap<u32, u32> = multimap_transient(&w.tuples);
    let (arch, policy) = (JvmArch::COMPRESSED_OOPS, LayoutPolicy::BASELINE);
    let jvm = |fp: Footprint| (fp.structure, fp.payload);
    let got = [
        (clojure.rust_bytes(), jvm(clojure.jvm_bytes(&arch, &policy))),
        (scala.rust_bytes(), jvm(scala.jvm_bytes(&arch, &policy))),
        (
            clojure_set.rust_bytes(),
            jvm(clojure_set.jvm_bytes(&arch, &policy)),
        ),
        (
            scala_set.rust_bytes(),
            jvm(scala_set.jvm_bytes(&arch, &policy)),
        ),
        (
            clojure_mm.rust_bytes(),
            jvm(clojure_mm.jvm_bytes(&arch, &policy)),
        ),
        (
            scala_mm.rust_bytes(),
            jvm(scala_mm.jvm_bytes(&arch, &policy)),
        ),
    ];
    // (native bytes, (JVM structure, JVM payload)), in the order above. A
    // `u32` map entry and a child pointer both fit a 16-byte slot, so the
    // two maps and the two sets match natively; Scala's `HashMap1` leaves
    // are what its JVM structure adds.
    assert_eq!(
        got,
        [
            (528_224, (373_184, 524_288)),
            (528_224, (776_704, 524_288)),
            (528_216, (373_184, 262_144)),
            (528_216, (645_632, 262_144)),
            (1_364_568, (1_434_240, 655_360)),
            (856_896, (1_497_600, 655_360)),
        ]
    );
}
