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
//! Native bytes are what the allocator holds: a set or multi-map node is
//! one [`Packed`](trie_common::packed::Packed) block (its
//! `alloc_bytes`), counted once however many handles share it; the map's
//! nodes are an `Arc` plus a boxed slot array. The walk tells a collision
//! node from a bitmap node by depth, as the tries do.

use std::hash::Hash;
use std::sync::Arc;

use trie_common::bits::{hash_exhausted, next_shift};

use heapmodel::{
    arc_alloc_bytes, boxed_slice_bytes, Accounting, JvmArch, JvmFootprint, JvmSize, LayoutPolicy,
    RustFootprint,
};

use crate::bag::{BagRef, FusedBag, Values};
use crate::map::{self, AxiomMap};
use crate::multimap::AxiomMultiMap;
use crate::set::{self, AxiomSet};
use crate::{multimap, ValueBag};

// ---------------------------------------------------------------------------
// Set
// ---------------------------------------------------------------------------

fn set_nodes_jvm<T: JvmSize>(
    node: &set::Node<T>,
    shift: u32,
    arch: &JvmArch,
    policy: &LayoutPolicy,
    acc: &mut Accounting,
) {
    let elems = node.ones();
    if hash_exhausted(shift) {
        // Collision node: object(array ref, hash int) + element array.
        acc.structure(arch.object(1, 1, 0) + arch.ref_array(elems.len() as u64));
    } else {
        // Elements weigh 1 ref, children 1 ref; bitmap is one long.
        let slots = (elems.len() + node.children().len()) as u64;
        acc.structure(policy.node_size(arch, slots, 0, 1));
    }
    for e in elems {
        acc.payload(e.jvm_size(arch));
    }
    for child in node.children() {
        set_nodes_jvm(child, next_shift(shift), arch, policy, acc);
    }
}

impl<T: Clone + Eq + Hash + JvmSize> JvmFootprint for AxiomSet<T> {
    fn jvm_footprint(&self, arch: &JvmArch, policy: &LayoutPolicy, acc: &mut Accounting) {
        // Outer collection wrapper: root ref + cached size/hash ints.
        acc.structure(arch.object(1, 2, 0));
        set_nodes_jvm(self.root_node(), 0, arch, policy, acc);
    }
}

fn set_nodes_rust<T>(node: &set::Node<T>, acc: &mut Accounting) {
    if !acc.first_visit(node.as_ptr()) {
        return;
    }
    acc.structure(node.alloc_bytes() as u64);
    for child in node.children() {
        set_nodes_rust(child, acc);
    }
}

impl<T: Clone + Eq + Hash> RustFootprint for AxiomSet<T> {
    fn rust_footprint(&self, acc: &mut Accounting) {
        set_nodes_rust(&self.root, acc);
    }
}

// ---------------------------------------------------------------------------
// Map
// ---------------------------------------------------------------------------

fn map_nodes_jvm<K: JvmSize, V: JvmSize>(
    node: &map::Node<K, V>,
    arch: &JvmArch,
    policy: &LayoutPolicy,
    acc: &mut Accounting,
) {
    match node {
        map::Node::Bitmap(b) => {
            let payload = b.bitmap.payload_arity() as u64;
            let children = b.bitmap.node_arity() as u64;
            acc.structure(policy.node_size(arch, 2 * payload + children, 0, 1));
            for slot in b.slots.iter() {
                match slot {
                    map::Slot::Entry(k, v) => {
                        acc.payload(k.jvm_size(arch));
                        acc.payload(v.jvm_size(arch));
                    }
                    map::Slot::Child(child) => map_nodes_jvm(child, arch, policy, acc),
                }
            }
        }
        map::Node::Collision(c) => {
            acc.structure(arch.object(1, 1, 0) + arch.ref_array(2 * c.entries.len() as u64));
            for (k, v) in &c.entries {
                acc.payload(k.jvm_size(arch));
                acc.payload(v.jvm_size(arch));
            }
        }
    }
}

impl<K, V> JvmFootprint for AxiomMap<K, V>
where
    K: Clone + Eq + Hash + JvmSize,
    V: Clone + PartialEq + JvmSize,
{
    fn jvm_footprint(&self, arch: &JvmArch, policy: &LayoutPolicy, acc: &mut Accounting) {
        acc.structure(arch.object(1, 2, 0));
        map_nodes_jvm(self.root_node(), arch, policy, acc);
    }
}

fn map_nodes_rust<K, V>(node: &Arc<map::Node<K, V>>, acc: &mut Accounting) {
    if !acc.first_visit(Arc::as_ptr(node)) {
        return;
    }
    acc.structure(arc_alloc_bytes::<map::Node<K, V>>());
    match &**node {
        map::Node::Bitmap(b) => {
            acc.structure(boxed_slice_bytes::<map::Slot<K, V>>(b.slots.len()));
            for slot in b.slots.iter() {
                if let map::Slot::Child(child) = slot {
                    map_nodes_rust(child, acc);
                }
            }
        }
        map::Node::Collision(c) => {
            acc.structure(boxed_slice_bytes::<(K, V)>(c.entries.len()));
        }
    }
}

impl<K, V> RustFootprint for AxiomMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    fn rust_footprint(&self, acc: &mut Accounting) {
        map_nodes_rust(&self.root, acc);
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
        Values::Set(root, _) => set_nodes_jvm(root, 0, arch, policy, acc),
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
        Values::Set(root, _) => set_nodes_rust(root, acc),
        Values::Inline(vs) => acc.structure(boxed_slice_bytes::<V>(vs.len())),
    }
}

fn mm_nodes_jvm<K, V, B>(
    node: &multimap::Node<K, V, B>,
    shift: u32,
    arch: &JvmArch,
    policy: &LayoutPolicy,
    acc: &mut Accounting,
) where
    K: Clone + Eq + Hash + JvmSize,
    V: Clone + Eq + Hash + JvmSize,
    B: MeasuredBag<V>,
{
    let payload = (node.ones().len() + node.manys().len()) as u64;
    if hash_exhausted(shift) {
        acc.structure(arch.object(1, 1, 0) + arch.ref_array(2 * payload));
    } else {
        // Paper weight vector [0, 2, 2, 1]: payload categories use two
        // array slots, sub-nodes one; the bitmap is one long.
        let children = node.children().len() as u64;
        acc.structure(policy.node_size(arch, 2 * payload + children, 0, 1));
    }
    for (k, v) in node.ones() {
        acc.payload(k.jvm_size(arch));
        acc.payload(v.jvm_size(arch));
    }
    for many in node.manys() {
        acc.payload(many.key().jvm_size(arch));
        B::bag_jvm(many.bag(), arch, policy, acc);
    }
    for child in node.children() {
        mm_nodes_jvm(child, next_shift(shift), arch, policy, acc);
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
        mm_nodes_jvm(self.root_node(), 0, arch, policy, acc);
    }
}

fn mm_nodes_rust<K, V, B>(node: &multimap::Node<K, V, B>, acc: &mut Accounting)
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash,
    B: MeasuredBag<V>,
    V: JvmSize,
{
    if !acc.first_visit(node.as_ptr()) {
        return;
    }
    acc.structure(node.alloc_bytes() as u64);
    for many in node.manys() {
        bag_rust(many.bag(), acc);
    }
    for child in node.children() {
        mm_nodes_rust(child, acc);
    }
}

impl<K, V, B> RustFootprint for AxiomMultiMap<K, V, B>
where
    K: Clone + Eq + Hash,
    V: Clone + Eq + Hash + JvmSize,
    B: MeasuredBag<V>,
{
    fn rust_footprint(&self, acc: &mut Accounting) {
        mm_nodes_rust(&self.root, acc);
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
        if let map::Node::Bitmap(b) = m.root_node() {
            if b.bitmap.node_arity() == 0 && b.slots.len() == 2 {
                let fp = jvm(&m);
                // wrapper 24 + node 24 + array 32 = 80 structure bytes.
                assert_eq!(fp.structure, 24 + 24 + 32);
                assert_eq!(fp.payload, 4 * 16);
            }
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
