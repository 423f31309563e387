//! Footprint walkers for the HAMT collections (see `heapmodel`).
//!
//! Modeled JVM layouts follow the libraries each flavour stands in for:
//!
//! * **Clojure** `BitmapIndexedNode`: node object (1 int bitmap, 1 array ref)
//!   plus an `Object[2·arity]` — entries occupy `(key, value)` pairs and
//!   sub-nodes occupy `(null, node)` pairs, so *every* branch costs two
//!   slots. Sets store the element in both slots (one payload box).
//! * **Scala** `HashTrieMap`: node object (1 int bitmap, 1 int size, 1 array
//!   ref) plus `Object[arity]`, where each payload branch references a
//!   separate `HashMap1` leaf object (hash int + key/value refs + cached
//!   tuple ref) — the leaf objects are what make Scala's maps heavy.
//!
//! Both models share one traversal; [`JvmModel`] prices a flavour's nodes.
//! The native walk is one for both flavours.

use std::sync::Arc;

use heapmodel::{
    arc_alloc_bytes, boxed_slice_bytes, Accounting, JvmArch, JvmFootprint, JvmSize, LayoutPolicy,
    RustFootprint,
};

use crate::trie::{Clojure, Leaf, Map, Node, Scala, Set, Slot};

/// Per-entry payload accounting callback used by the `*_with` walkers so
/// composite structures (multi-maps with structured values) can recurse.
pub type EntryAccount<'a, K, V> = &'a mut dyn FnMut(&K, &V, &mut Accounting);

/// The modeled JVM cost of a flavour's nodes, in the library it stands in
/// for.
pub trait JvmModel: Leaf {
    /// The structure bytes of a bitmap node with `arity` branches, and what
    /// each entry inlined in it adds.
    fn bitmap_node(arch: &JvmArch, policy: &LayoutPolicy, arity: u64) -> (u64, u64);

    /// The structure bytes of a collision node holding `len` entries.
    fn collision_node(arch: &JvmArch, len: u64) -> u64;

    /// The structure bytes of a plain map's (or set's) per-entry leaf.
    fn leaf(arch: &JvmArch, is_set: bool) -> u64;
}

impl JvmModel for Clojure {
    fn bitmap_node(arch: &JvmArch, policy: &LayoutPolicy, arity: u64) -> (u64, u64) {
        if arity > 16 {
            // Clojure converts nodes past 16 branches into an ArrayNode:
            // a fixed Object[32] of child references *with empty cells*
            // (the paper's Hypothesis 3: "Clojure's simple compression
            // may contain empty array cells"). Inlined entries at this
            // level are pushed down into single-pair BitmapIndexedNodes.
            let pushed_down = arch.object(1, 1, 0) + arch.ref_array(2);
            (arch.object(1, 1, 0) + arch.ref_array(32), pushed_down)
        } else {
            // BitmapIndexedNode: two array slots per branch, whatever it
            // holds ((key, value) pairs or (null, node) pairs).
            (policy.node_size(arch, 2 * arity, 1, 0), 0)
        }
    }

    fn collision_node(arch: &JvmArch, len: u64) -> u64 {
        arch.object(1, 1, 0) + arch.ref_array(2 * len)
    }

    /// Entries live in the node's array: no leaf object.
    fn leaf(_: &JvmArch, _: bool) -> u64 {
        0
    }
}

impl JvmModel for Scala {
    /// HashTrieMap: node object (bitmap + size + array ref) and one array
    /// slot per branch; payload branches reference separate leaf objects,
    /// which the per-entry callback accounts.
    fn bitmap_node(arch: &JvmArch, policy: &LayoutPolicy, arity: u64) -> (u64, u64) {
        (policy.node_size(arch, arity, 2, 0), 0)
    }

    fn collision_node(arch: &JvmArch, len: u64) -> u64 {
        arch.object(2, 1, 0) + arch.ref_array(2 * len)
    }

    /// A HashMap1 leaf: hash int + key + value + cached tuple ref (HashSet1
    /// for sets: hash int + elem).
    fn leaf(arch: &JvmArch, is_set: bool) -> u64 {
        if is_set {
            arch.object(1, 1, 0)
        } else {
            arch.object(3, 1, 0)
        }
    }
}

fn nodes_jvm_with<K, V, L: JvmModel>(
    node: &Node<K, V, L>,
    arch: &JvmArch,
    policy: &LayoutPolicy,
    acc: &mut Accounting,
    entry: EntryAccount<'_, K, V>,
) {
    match node {
        Node::Bitmap(b) => {
            let (bytes, per_entry) = L::bitmap_node(arch, policy, b.slots.len() as u64);
            acc.structure(bytes);
            for slot in b.slots.iter() {
                match slot {
                    Slot::Entry(_, k, v) => {
                        acc.structure(per_entry);
                        entry(k, v, acc);
                    }
                    Slot::Child(child) => nodes_jvm_with(child, arch, policy, acc, entry),
                }
            }
        }
        Node::Collision(c) => {
            acc.structure(L::collision_node(arch, c.entries.len() as u64));
            for (k, v) in &c.entries {
                entry(k, v, acc);
            }
        }
    }
}

/// Walks a HAMT map's modeled JVM structure, delegating per-entry payload
/// accounting to `entry` (for composite values like nested collections).
/// For the Scala flavour, the callback must also account for the per-entry
/// leaf object (`HashMap1`): `arch.object(3, 1, 0)` for plain map entries.
pub fn map_jvm_with<K, V, L: JvmModel>(
    map: &Map<K, V, L>,
    arch: &JvmArch,
    policy: &LayoutPolicy,
    acc: &mut Accounting,
    entry: EntryAccount<'_, K, V>,
) {
    acc.structure(arch.object(1, 2, 0));
    nodes_jvm_with(&map.root, arch, policy, acc, entry);
}

fn nodes_jvm<K: JvmSize, V: JvmSize, L: JvmModel>(
    node: &Node<K, V, L>,
    arch: &JvmArch,
    policy: &LayoutPolicy,
    acc: &mut Accounting,
    is_set: bool,
) {
    nodes_jvm_with(node, arch, policy, acc, &mut |k, v, acc| {
        acc.structure(L::leaf(arch, is_set));
        acc.payload(k.jvm_size(arch));
        if !is_set {
            acc.payload(v.jvm_size(arch));
        }
    });
}

impl<K: JvmSize, V: JvmSize, L: JvmModel> JvmFootprint for Map<K, V, L> {
    fn jvm_footprint(&self, arch: &JvmArch, policy: &LayoutPolicy, acc: &mut Accounting) {
        acc.structure(arch.object(1, 2, 0));
        nodes_jvm(&self.root, arch, policy, acc, false);
    }
}

impl<T: JvmSize, L: JvmModel> JvmFootprint for Set<T, L> {
    fn jvm_footprint(&self, arch: &JvmArch, policy: &LayoutPolicy, acc: &mut Accounting) {
        acc.structure(arch.object(1, 2, 0));
        nested_set_jvm(self, arch, policy, acc);
    }
}

/// Nested-set measurement without the outer wrapper (for composite
/// multi-maps whose wrapper is governed by the enclosing [`LayoutPolicy`]).
pub fn nested_set_jvm<T: JvmSize, L: JvmModel>(
    set: &Set<T, L>,
    arch: &JvmArch,
    policy: &LayoutPolicy,
    acc: &mut Accounting,
) {
    nodes_jvm(&set.map.root, arch, policy, acc, true);
}

fn nodes_rust_with<K, V, L: Leaf>(
    node: &Arc<Node<K, V, L>>,
    acc: &mut Accounting,
    entry: EntryAccount<'_, K, V>,
) {
    if !acc.first_visit(Arc::as_ptr(node)) {
        return;
    }
    acc.structure(arc_alloc_bytes::<Node<K, V, L>>());
    match &**node {
        Node::Bitmap(b) => {
            acc.structure(boxed_slice_bytes::<Slot<K, V, L>>(b.slots.len()));
            for slot in b.slots.iter() {
                match slot {
                    Slot::Child(child) => nodes_rust_with(child, acc, entry),
                    Slot::Entry(_, k, v) => entry(k, v, acc),
                }
            }
        }
        Node::Collision(c) => {
            acc.structure(boxed_slice_bytes::<(K, V)>(c.entries.len()));
            for (k, v) in &c.entries {
                entry(k, v, acc);
            }
        }
    }
}

/// Native-allocation walk with per-entry recursion hook.
pub fn map_rust_with<K, V, L: Leaf>(
    map: &Map<K, V, L>,
    acc: &mut Accounting,
    entry: EntryAccount<'_, K, V>,
) {
    nodes_rust_with(&map.root, acc, entry);
}

impl<K, V, L: Leaf> RustFootprint for Map<K, V, L> {
    fn rust_footprint(&self, acc: &mut Accounting) {
        map_rust_with(self, acc, &mut |_, _, _| {});
    }
}

impl<T, L: Leaf> RustFootprint for Set<T, L> {
    fn rust_footprint(&self, acc: &mut Accounting) {
        nested_set_rust(self, acc);
    }
}

/// Native-allocation counterpart of [`nested_set_jvm`].
pub fn nested_set_rust<T, L: Leaf>(set: &Set<T, L>, acc: &mut Accounting) {
    map_rust_with(&set.map, acc, &mut |_, _, _| {});
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HamtMap, HamtSet, MemoHamtMap, MemoHamtSet};

    #[test]
    fn scala_style_leaves_cost_more_than_clojure_pairs() {
        // The per-entry leaf objects make the memoizing layout heavier for
        // maps of the same content (paper §4.4 Discussion).
        let clj: HamtMap<u32, u32> = (0..256).map(|i| (i, i)).collect();
        let scala: MemoHamtMap<u32, u32> = (0..256).map(|i| (i, i)).collect();
        let arch = JvmArch::COMPRESSED_OOPS;
        let c = clj.jvm_bytes(&arch, &LayoutPolicy::BASELINE);
        let s = scala.jvm_bytes(&arch, &LayoutPolicy::BASELINE);
        assert!(s.structure > c.structure, "scala {s:?} vs clojure {c:?}");
    }

    #[test]
    fn set_counts_single_payload_box() {
        let s: HamtSet<u32> = (0..100).collect();
        let fp = s.jvm_bytes(&JvmArch::COMPRESSED_OOPS, &LayoutPolicy::BASELINE);
        assert_eq!(fp.payload, 100 * 16);
    }

    #[test]
    fn rust_footprints_nonzero_and_scale() {
        let small: HamtMap<u32, u32> = (0..10).map(|i| (i, i)).collect();
        let large: HamtMap<u32, u32> = (0..1000).map(|i| (i, i)).collect();
        assert!(large.rust_bytes() > small.rust_bytes());
        let ms: MemoHamtSet<u32> = (0..50).collect();
        assert!(ms.rust_bytes() > 0);
    }
}
