//! Footprint walkers for the CHAMP collections (see `heapmodel`).
//!
//! Modeled JVM layout per CHAMP node: one node object carrying the two 32-bit
//! bitmaps (`2 ints`) and a reference to a dense `Object[]` with two slots per
//! payload entry (key + value; one per set element) and one per sub-node.
//! Native bytes: each node is one [`Packed`](trie_common::packed::Packed)
//! block. Both walks run on [`trie_common::node::visit`].

use std::hash::Hash;

use heapmodel::{Accounting, JvmArch, JvmFootprint, JvmSize, LayoutPolicy, RustFootprint};
use trie_common::bits::hash_exhausted;
use trie_common::node::{self, visit};

use crate::map::Bitmaps;
use crate::{ChampMap, ChampSet};

/// Per-entry payload accounting callback for composite values.
pub type EntryAccount<'a, K, V> = &'a mut dyn FnMut(&K, &V, &mut Accounting);

/// Modeled JVM bytes of the nodes of a CHAMP trie. An entry weighs `refs`
/// array references (two for a key and a value, one for a set's element,
/// as a set node counts no value slot) and a sub-trie one; `entry`
/// accounts each entry's payload.
fn nodes_jvm<K, V>(
    root: &node::Node<Bitmaps, K, V>,
    refs: u64,
    arch: &JvmArch,
    policy: &LayoutPolicy,
    acc: &mut Accounting,
    entry: EntryAccount<'_, K, V>,
) {
    visit(root, 0, &mut |node, shift| {
        let payload = refs * node.ones().len() as u64;
        acc.structure(if hash_exhausted(shift) {
            // Collision node: object (array ref, hash int) and its array.
            arch.object(1, 1, 0) + arch.ref_array(payload)
        } else {
            // The bitmaps are two ints.
            let slots = payload + node.children().len() as u64;
            policy.node_size(arch, slots, 2, 0)
        });
        node.ones().iter().for_each(|(k, v)| entry(k, v, acc));
        true
    });
}

/// Native bytes of the nodes of a CHAMP trie: one block each, counted once
/// however many handles share it. `entry` adds what an entry owns.
fn nodes_rust<K, V>(
    root: &node::Node<Bitmaps, K, V>,
    acc: &mut Accounting,
    entry: EntryAccount<'_, K, V>,
) {
    visit(root, 0, &mut |node, _| {
        if !acc.first_visit(node.as_ptr()) {
            return false;
        }
        acc.structure(node.alloc_bytes() as u64);
        node.ones().iter().for_each(|(k, v)| entry(k, v, acc));
        true
    });
}

/// Walks a [`ChampMap`]'s modeled JVM structure with a per-entry payload
/// callback (for composite values like nested sets).
pub fn champ_map_jvm_with<K, V>(
    map: &ChampMap<K, V>,
    arch: &JvmArch,
    policy: &LayoutPolicy,
    acc: &mut Accounting,
    entry: EntryAccount<'_, K, V>,
) where
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    acc.structure(arch.object(1, 2, 0));
    nodes_jvm(map.root_node(), 2, arch, policy, acc, entry);
}

impl<K, V> JvmFootprint for ChampMap<K, V>
where
    K: Clone + Eq + Hash + JvmSize,
    V: Clone + PartialEq + JvmSize,
{
    fn jvm_footprint(&self, arch: &JvmArch, policy: &LayoutPolicy, acc: &mut Accounting) {
        champ_map_jvm_with(self, arch, policy, acc, &mut |k, v, acc| {
            acc.payload(k.jvm_size(arch));
            acc.payload(v.jvm_size(arch));
        });
    }
}

/// Native-allocation walk with per-entry recursion hook.
pub fn champ_map_rust_with<K, V>(
    map: &ChampMap<K, V>,
    acc: &mut Accounting,
    entry: EntryAccount<'_, K, V>,
) where
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    nodes_rust(map.root_node(), acc, entry);
}

impl<K, V> RustFootprint for ChampMap<K, V>
where
    K: Clone + Eq + Hash,
    V: Clone + PartialEq,
{
    fn rust_footprint(&self, acc: &mut Accounting) {
        champ_map_rust_with(self, acc, &mut |_, _, _| {});
    }
}

impl<T> JvmFootprint for ChampSet<T>
where
    T: Clone + Eq + Hash + JvmSize,
{
    fn jvm_footprint(&self, arch: &JvmArch, policy: &LayoutPolicy, acc: &mut Accounting) {
        acc.structure(arch.object(1, 2, 0));
        nested_set_jvm(self, arch, policy, acc);
    }
}

impl<T> RustFootprint for ChampSet<T>
where
    T: Clone + Eq + Hash,
{
    fn rust_footprint(&self, acc: &mut Accounting) {
        nested_set_rust(self, acc);
    }
}

/// Measures a nested `ChampSet` *without* the outer wrapper, for composite
/// multi-map layouts (the wrapper is governed by the enclosing structure's
/// [`LayoutPolicy`]).
pub fn nested_set_jvm<T: Clone + Eq + Hash + JvmSize>(
    set: &ChampSet<T>,
    arch: &JvmArch,
    policy: &LayoutPolicy,
    acc: &mut Accounting,
) {
    nodes_jvm(set.root_node(), 1, arch, policy, acc, &mut |e, _, acc| {
        acc.payload(e.jvm_size(arch))
    });
}

/// Native-allocation counterpart of [`nested_set_jvm`].
pub fn nested_set_rust<T: Clone + Eq + Hash>(set: &ChampSet<T>, acc: &mut Accounting) {
    nodes_rust(set.root_node(), acc, &mut |_, _, _| {});
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapmodel::LayoutPolicy;

    #[test]
    fn champ_map_and_axiom_map_share_node_overhead_order() {
        // CHAMP node: 2 ints of bitmap; AXIOM node: 1 long — identical modeled
        // sizes (paper Hypothesis 6: footprints match exactly).
        let arch = JvmArch::COMPRESSED_OOPS;
        let champ_node = LayoutPolicy::BASELINE.node_size(&arch, 6, 2, 0);
        let axiom_node = LayoutPolicy::BASELINE.node_size(&arch, 6, 0, 1);
        assert_eq!(champ_node, axiom_node);
    }

    #[test]
    fn map_footprint_counts_payload() {
        let m: ChampMap<u32, u32> = (0..100).map(|i| (i, i)).collect();
        let fp = m.jvm_bytes(&JvmArch::COMPRESSED_OOPS, &LayoutPolicy::BASELINE);
        assert_eq!(fp.payload, 200 * 16);
        assert!(fp.structure > 0);
        assert!(m.rust_bytes() > 0);
    }

    #[test]
    fn set_footprint_scales() {
        let small: ChampSet<u32> = (0..10).collect();
        let large: ChampSet<u32> = (0..1000).collect();
        let arch = JvmArch::COMPRESSED_OOPS;
        assert!(
            large.jvm_bytes(&arch, &LayoutPolicy::BASELINE).total()
                > small.jvm_bytes(&arch, &LayoutPolicy::BASELINE).total()
        );
    }
}
