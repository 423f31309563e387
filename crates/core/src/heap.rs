//! Footprint walkers: modeled JVM layouts and native Rust allocation counts
//! for the AXIOM collections (see the `heapmodel` crate and DESIGN.md §2).
//!
//! Modeled JVM layout per AXIOM node: one node object carrying the 64-bit
//! bitmap (`1 long`) and a reference to a dense `Object[]` whose length
//! follows the paper's weight vector `[0, 2, 2, 1]` — `CAT1` and `CAT2`
//! entries occupy two references (key + value / key + nested-set), `NODE`
//! entries one. Under a specializing [`LayoutPolicy`] small nodes become
//! fixed-field objects without the array; under a fusing policy nested-set
//! wrapper objects disappear.
//!
//! Native bytes are what the allocator holds: every node is one
//! [`Packed`](trie_common::packed::Packed) block (its `alloc_bytes`),
//! counted once however many handles share it. The set and map walks are
//! the shared ones of [`trie_common::node`]; the multi-map's walks here add
//! its `CAT2` bags. The walks tell a collision node from a bitmap node by
//! depth, as the tries do.

use std::convert::Infallible;
use std::hash::Hash;

use trie_common::bits::hash_exhausted;
use trie_common::node::visit;
use trie_common::packed::Packed;

use heapmodel::{
    boxed_slice_bytes, Accounting, JvmArch, JvmFootprint, JvmSize, LayoutPolicy, RustFootprint,
};

use crate::bag::{BagRef, FusedBag, Values};
use crate::bitmap::SlotBitmap;
use crate::map::AxiomMap;
use crate::multimap::{AxiomMultiMap, Cat2};
use crate::set::{self, AxiomSet};
use crate::ValueBag;

/// The modeled architecture and layout policy.
type Model<'a> = (&'a JvmArch, &'a LayoutPolicy);

/// Modeled JVM bytes of the nodes of an AXIOM trie. Its `CAT1` and `CAT2`
/// entries weigh `refs` array references each (two for a key and a value
/// or a nested set, the paper's weight vector `[0, 2, 2, 1]`; one for a
/// set's element, as a set node counts no value slot) and its sub-tries
/// one. `one` and `many` account each entry's payload.
fn nodes_jvm<A, B>(
    root: &Packed<SlotBitmap, A, B>,
    refs: u64,
    (arch, policy): Model<'_>,
    acc: &mut Accounting,
    mut one: impl FnMut(&A, &mut Accounting),
    mut many: impl FnMut(&B, &mut Accounting),
) {
    visit(root, 0, &mut |node, shift| {
        let payload = refs * (node.ones().len() + node.manys().len()) as u64;
        acc.structure(if hash_exhausted(shift) {
            // Collision node: object (array ref, hash int) and its array.
            arch.object(1, 1, 0) + arch.ref_array(payload)
        } else {
            // The bitmap is one long.
            let slots = payload + node.children().len() as u64;
            policy.node_size(arch, slots, 0, 1)
        });
        node.ones().iter().for_each(|a| one(a, acc));
        node.manys().iter().for_each(|b| many(b, acc));
        true
    });
}

/// Native bytes of the nodes of an AXIOM trie: one block each, counted
/// once however many handles share it. `many` adds what a `CAT2` entry
/// owns.
fn nodes_rust<A, B>(
    root: &Packed<SlotBitmap, A, B>,
    acc: &mut Accounting,
    mut many: impl FnMut(&B, &mut Accounting),
) {
    visit(root, 0, &mut |node, _| {
        if !acc.first_visit(node.as_ptr()) {
            return false;
        }
        acc.structure(node.alloc_bytes() as u64);
        node.manys().iter().for_each(|b| many(b, acc));
        true
    });
}

/// The `CAT2` accounting of a set or map, which have no `CAT2` entries.
fn no_many(never: &Infallible, _: &mut Accounting) {
    match *never {}
}

/// Modeled JVM bytes of a set trie's nodes and elements.
fn set_nodes_jvm<T: JvmSize>(root: &set::Node<T>, model: Model<'_>, acc: &mut Accounting) {
    let elem = |(e, ()): &(T, ()), acc: &mut Accounting| acc.payload(e.jvm_size(model.0));
    nodes_jvm(root, 1, model, acc, elem, no_many);
}

impl<T: Clone + Eq + Hash + JvmSize> JvmFootprint for AxiomSet<T> {
    fn jvm_footprint(&self, arch: &JvmArch, policy: &LayoutPolicy, acc: &mut Accounting) {
        // Outer collection wrapper: root ref + cached size/hash ints.
        acc.structure(arch.object(1, 2, 0));
        set_nodes_jvm(self.root_node(), (arch, policy), acc);
    }
}

impl<T: Clone + Eq + Hash> RustFootprint for AxiomSet<T> {
    fn rust_footprint(&self, acc: &mut Accounting) {
        nodes_rust(self.root_node(), acc, no_many);
    }
}

impl<K, V> JvmFootprint for AxiomMap<K, V>
where
    K: Clone + Eq + Hash + JvmSize,
    V: Clone + PartialEq + JvmSize,
{
    fn jvm_footprint(&self, arch: &JvmArch, policy: &LayoutPolicy, acc: &mut Accounting) {
        acc.structure(arch.object(1, 2, 0));
        let entry = |(k, v): &(K, V), acc: &mut Accounting| {
            acc.payload(k.jvm_size(arch));
            acc.payload(v.jvm_size(arch));
        };
        nodes_jvm(self.root_node(), 2, (arch, policy), acc, entry, no_many);
    }
}

impl<K, V> RustFootprint for AxiomMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    fn rust_footprint(&self, acc: &mut Accounting) {
        nodes_rust(self.root_node(), acc, no_many);
    }
}

// ---------------------------------------------------------------------------
// Multi-map: value-bag measurement strategies
// ---------------------------------------------------------------------------

/// How a `1:n` bag contributes to the modeled JVM footprint. Implemented
/// for the two sealed [`ValueBag`] strategies; keeps the node walk below
/// bag-agnostic.
pub(crate) trait MeasuredBag<V>: ValueBag<V> {
    fn bag_jvm(bag: BagRef<'_, V>, arch: &JvmArch, policy: &LayoutPolicy, acc: &mut Accounting);
}

impl<V: Clone + Eq + Hash + JvmSize> MeasuredBag<V> for AxiomSet<V> {
    fn bag_jvm(bag: BagRef<'_, V>, arch: &JvmArch, policy: &LayoutPolicy, acc: &mut Accounting) {
        // Nested set: wrapper object unless the layout policy fuses it away.
        acc.structure(policy.set_wrapper(arch));
        fused_bag_jvm(bag, arch, policy, acc);
    }
}

impl<V: Clone + Eq + Hash + JvmSize> MeasuredBag<V> for FusedBag<V> {
    fn bag_jvm(bag: BagRef<'_, V>, arch: &JvmArch, policy: &LayoutPolicy, acc: &mut Accounting) {
        fused_bag_jvm(bag, arch, policy, acc);
    }
}

/// A bag with no wrapper object: a trie's nodes, or an inline values array
/// referenced directly from the slot (fusion is intrinsic to that
/// representation).
fn fused_bag_jvm<V: JvmSize>(
    bag: BagRef<'_, V>,
    arch: &JvmArch,
    policy: &LayoutPolicy,
    acc: &mut Accounting,
) {
    match bag.0 {
        Values::Set(root, _) => set_nodes_jvm(root, (arch, policy), acc),
        Values::Inline(vs) => {
            acc.structure(arch.ref_array(vs.len() as u64));
            for v in vs {
                acc.payload(v.jvm_size(arch));
            }
        }
    }
}

/// Native bytes of a bag: a trie's nodes, or an inline boxed slice.
fn bag_rust<V>(bag: BagRef<'_, V>, acc: &mut Accounting) {
    match bag.0 {
        Values::Set(root, _) => nodes_rust(root, acc, no_many),
        Values::Inline(vs) => acc.structure(boxed_slice_bytes::<V>(vs.len())),
    }
}

impl<K, V, B> JvmFootprint for AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash + JvmSize,
    V: Clone + Eq + Hash + JvmSize,
    B: MeasuredBag<V>,
{
    fn jvm_footprint(&self, arch: &JvmArch, policy: &LayoutPolicy, acc: &mut Accounting) {
        // Outer wrapper: root ref + cached tuple/key counts.
        acc.structure(arch.object(1, 2, 0));
        let one = |(k, v): &(K, V), acc: &mut Accounting| {
            acc.payload(k.jvm_size(arch));
            acc.payload(v.jvm_size(arch));
        };
        let many = |many: &Cat2<K, V, B>, acc: &mut Accounting| {
            acc.payload(many.key().jvm_size(arch));
            B::bag_jvm(many.bag(), arch, policy, acc);
        };
        nodes_jvm(self.root_node(), 2, (arch, policy), acc, one, many);
    }
}

impl<K, V, B> RustFootprint for AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash + JvmSize,
    B: MeasuredBag<V>,
{
    fn rust_footprint(&self, acc: &mut Accounting) {
        nodes_rust(self.root_node(), acc, |many, acc| bag_rust(many.bag(), acc));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AxiomFusedMultiMap;
    use heapmodel::Footprint;

    fn skewed(n: u32) -> impl Iterator<Item = (u32, u32)> {
        (0..n).flat_map(|k| {
            let extra = if k % 2 == 0 {
                Some((k, k + 1_000_000))
            } else {
                None
            };
            std::iter::once((k, k)).chain(extra)
        })
    }

    fn jvm<S: JvmFootprint>(s: &S) -> Footprint {
        s.jvm_bytes(&JvmArch::COMPRESSED_OOPS, &LayoutPolicy::BASELINE)
    }

    #[test]
    fn empty_structures_cost_little() {
        let mm: AxiomMultiMap<u32, u32> = AxiomMultiMap::new();
        let fp = jvm(&mm);
        assert!(fp.total() < 100, "empty multimap modeled at {fp:?}");
        assert!(mm.rust_bytes() < 200);
    }

    #[test]
    fn footprint_grows_with_content() {
        let small: AxiomMultiMap<u32, u32> = skewed(16).collect();
        let large: AxiomMultiMap<u32, u32> = skewed(1024).collect();
        assert!(jvm(&large).total() > jvm(&small).total());
        assert!(large.rust_bytes() > small.rust_bytes());
    }

    #[test]
    fn fusion_policy_shrinks_nested_multimaps() {
        let mm: AxiomMultiMap<u32, u32> = skewed(512).collect();
        let arch = JvmArch::COMPRESSED_OOPS;
        let baseline = mm.jvm_bytes(&arch, &LayoutPolicy::BASELINE);
        let fused = mm.jvm_bytes(&arch, &LayoutPolicy::FUSED);
        let fused_spec = mm.jvm_bytes(&arch, &LayoutPolicy::FUSED_SPECIALIZED);
        assert!(fused.structure < baseline.structure);
        assert!(fused_spec.structure < fused.structure);
        // Payload is unaffected by layout policies.
        assert_eq!(baseline.payload, fused.payload);
        assert_eq!(baseline.payload, fused_spec.payload);
    }

    #[test]
    fn fused_representation_beats_nested_at_baseline_policy() {
        let nested: AxiomMultiMap<u32, u32> = skewed(512).collect();
        let fused: AxiomFusedMultiMap<u32, u32> = skewed(512).collect();
        let arch = JvmArch::COMPRESSED_OOPS;
        let n = nested.jvm_bytes(&arch, &LayoutPolicy::BASELINE);
        let f = fused.jvm_bytes(&arch, &LayoutPolicy::BASELINE);
        assert!(
            f.structure < n.structure,
            "fused {} vs nested {}",
            f.structure,
            n.structure
        );
        assert!(fused.rust_bytes() < nested.rust_bytes());
    }

    #[test]
    fn sixty_four_bit_arch_costs_more() {
        let mm: AxiomMultiMap<u32, u32> = skewed(256).collect();
        let c = mm.jvm_bytes(&JvmArch::COMPRESSED_OOPS, &LayoutPolicy::BASELINE);
        let u = mm.jvm_bytes(&JvmArch::UNCOMPRESSED, &LayoutPolicy::BASELINE);
        assert!(u.total() > c.total());
    }

    #[test]
    fn hand_computed_single_node_map() {
        // Two entries that land in distinct root branches: one node object
        // (1 ref + 1 long = 12+4+8 = 24), one Object[4] (16+16 = 32), four
        // boxed ints (4 × 16).
        let m: AxiomMap<u32, u32> = [(1, 2), (2, 3)].into_iter().collect();
        m.assert_invariants();
        let root = m.root_node();
        if root.children().is_empty() && root.ones().len() == 2 {
            let fp = jvm(&m);
            // wrapper 24 + node 24 + array 32 = 80 structure bytes.
            assert_eq!(fp.structure, 24 + 24 + 32);
            assert_eq!(fp.payload, 4 * 16);
        }
    }

    #[test]
    fn set_footprints() {
        let s: AxiomSet<u32> = (0..100).collect();
        let fp = jvm(&s);
        assert!(fp.payload >= 100 * 16);
        assert!(fp.structure > 0);
        assert!(s.rust_bytes() > 0);
    }
}
