//! Snapshot persistence ([`SnapshotWrite`] / [`SnapshotRead`]) for the
//! HAMT collections, once for both flavours.
//!
//! The Clojure-flavoured [`HamtMap`](crate::HamtMap) does *not*
//! canonicalize under deletion, so two equal maps can have different trie
//! shapes — but snapshots store only the element sequence and restore
//! rebuilds from scratch, so the decoded trie is always in build-canonical
//! form and equality (which is content-based for these types) holds
//! regardless of the source's edit history. The memoizing variants rebuild
//! their cached hashes as a side effect of reinsertion.

use std::hash::Hash;

use serde::{Deserialize, Serialize};
use trie_common::ops::{MapOps, SetOps};
use trie_common::snapshot::{self, Kind, SnapshotError, SnapshotRead, SnapshotWrite};

use crate::trie::{Leaf, Map, Set};

impl<K, V, L: Leaf> SnapshotWrite for Map<K, V, L>
where
    K: Serialize + Clone + Eq + Hash,
    V: Serialize + Clone + PartialEq,
{
    const KIND: Kind = Kind::Map;

    fn write_snapshot(&self, out: &mut Vec<u8>) -> Result<(), SnapshotError> {
        snapshot::write_collection(Kind::Map, MapOps::entries(self), out)
    }
}

impl<K, V, L: Leaf> SnapshotRead for Map<K, V, L>
where
    K: for<'de> Deserialize<'de> + Clone + Eq + Hash,
    V: for<'de> Deserialize<'de> + Clone + PartialEq,
{
    fn read_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        snapshot::read_collection(Kind::Map, bytes)
    }
}

impl<T: Serialize + Clone + Eq + Hash, L: Leaf> SnapshotWrite for Set<T, L> {
    const KIND: Kind = Kind::Set;

    fn write_snapshot(&self, out: &mut Vec<u8>) -> Result<(), SnapshotError> {
        snapshot::write_collection(Kind::Set, SetOps::iter(self), out)
    }
}

impl<T: for<'de> Deserialize<'de> + Clone + Eq + Hash, L: Leaf> SnapshotRead for Set<T, L> {
    fn read_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        snapshot::read_collection(Kind::Set, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HamtMap, HamtSet, MemoHamtMap, MemoHamtSet};

    #[test]
    fn hamt_collections_roundtrip() {
        let map: HamtMap<u32, u32> = (0..300).map(|i| (i, i + 1)).collect();
        assert_eq!(
            HamtMap::read_snapshot(&map.snapshot_bytes().unwrap()).unwrap(),
            map
        );

        let memo: MemoHamtMap<String, u32> = (0..150).map(|i| (format!("k{i}"), i)).collect();
        assert_eq!(
            MemoHamtMap::read_snapshot(&memo.snapshot_bytes().unwrap()).unwrap(),
            memo
        );

        let set: HamtSet<u32> = (0..250).collect();
        assert_eq!(
            HamtSet::read_snapshot(&set.snapshot_bytes().unwrap()).unwrap(),
            set
        );

        let memo_set: MemoHamtSet<u32> = (0..250).collect();
        assert_eq!(
            MemoHamtSet::read_snapshot(&memo_set.snapshot_bytes().unwrap()).unwrap(),
            memo_set
        );
    }

    #[test]
    fn non_canonical_source_still_roundtrips() {
        // Deletions leave the Clojure-style trie non-canonical; the decoded
        // rebuild is canonical, and content equality still holds.
        let mut map: HamtMap<u32, u32> = (0..400).map(|i| (i, i)).collect();
        for i in 0..200 {
            map.remove_mut(&(i * 2));
        }
        let back = HamtMap::read_snapshot(&map.snapshot_bytes().unwrap()).unwrap();
        assert_eq!(back, map);
        assert_eq!(back.len(), 200);
    }
}
