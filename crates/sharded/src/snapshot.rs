//! Durable snapshots for the sharded store: `save_snapshot` /
//! `load_snapshot` over the [`trie_common::snapshot`] format.
//!
//! A sharded save serializes each shard's published `Arc` snapshot as its
//! own section of the frame — every shard encodes **in parallel** on a
//! scoped worker thread, and readers are completely unaffected (the save
//! works on frozen persistent tries; writers can keep publishing
//! mid-save, the saved cut is simply the snapshot acquired at the start).
//!
//! A load validates the framing first (shard table, payload bounds), then
//! decodes every stored section in parallel, **re-routing each element
//! through the partition function of the new shard count** and
//! bulk-building the target shards through the transient protocol. The
//! shard count is therefore a restore-time choice: a snapshot saved at 8
//! shards restores at 1, 2 or 256 — the first step toward resharding.
//! Because the wire format stores only elements (kind-tagged, not
//! topology-bound), plain collections can read sharded snapshots and vice
//! versa.

use std::thread;

use serde::Deserialize;
use trie_common::faults::{fire as fault_point, site};
use trie_common::ops::TransientOps;
use trie_common::snapshot::{
    encode_section, write_frame, Frame, FrameSection, Kind, Section, SnapshotError, SnapshotRead,
    SnapshotWrite,
};

use crate::kind::{SaveKind, ShardKind};
use crate::partition::{Partition, MAX_SHARDS};
use crate::{Sharded, Snapshot};

// ------------------------------------------------------ shared machinery

/// Decodes every stored section in parallel, routing each element into one
/// of `new_count` buckets; returns the merged per-new-shard parts.
fn decode_and_route<Item>(
    sections: &[FrameSection<'_>],
    new_count: usize,
    route: impl Fn(&Item) -> usize + Sync,
) -> Result<Vec<Vec<Item>>, SnapshotError>
where
    Item: Send + for<'de> Deserialize<'de>,
{
    let route = &route;
    let routed: Vec<Result<Vec<Vec<Item>>, SnapshotError>> = thread::scope(|scope| {
        let workers: Vec<_> = sections
            .iter()
            .map(|&section| {
                if section.count == 0 && section.byte_len() == 0 {
                    None
                } else {
                    Some(scope.spawn(move || {
                        fault_point(site::SNAPSHOT_DECODE);
                        let mut buckets: Vec<Vec<Item>> =
                            (0..new_count).map(|_| Vec::new()).collect();
                        section.decode_each(|item| buckets[route(&item)].push(item))?;
                        Ok(buckets)
                    }))
                }
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| match worker {
                // Same contract as the encode side: a panicked decoder
                // fails the restore with a typed error, never the process.
                Some(handle) => handle.join().unwrap_or(Err(SnapshotError::WorkerPanicked)),
                None => Ok((0..new_count).map(|_| Vec::new()).collect()),
            })
            .collect()
    });
    let mut parts: Vec<Vec<Item>> = (0..new_count).map(|_| Vec::new()).collect();
    for buckets in routed {
        for (part, bucket) in parts.iter_mut().zip(buckets?) {
            part.extend(bucket);
        }
    }
    Ok(parts)
}

/// Validates a *stored* shard count as a partition without panicking
/// (corrupt or foreign snapshots must error, not abort).
fn stored_partition(count: usize) -> Result<Partition, SnapshotError> {
    if count.is_power_of_two() && (1..=MAX_SHARDS).contains(&count) {
        Ok(Partition::new(count))
    } else {
        Err(SnapshotError::Codec(format!(
            "stored shard count {count} is not a power of two in 1..={MAX_SHARDS}"
        )))
    }
}

fn parse_expecting<'a>(bytes: &'a [u8], kind: Kind) -> Result<Frame<'a>, SnapshotError> {
    let frame = Frame::parse(bytes)?;
    frame.expect_kind(kind)?;
    Ok(frame)
}

// ------------------------------------------------------------- the store

impl<C: Sync, Kd: SaveKind<C>> Snapshot<C, Kd> {
    /// Serializes this frozen snapshot, one frame section per shard,
    /// encoding shards in parallel.
    pub fn save_snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut out = Vec::new();
        self.write_snapshot_into(&mut out)?;
        Ok(out)
    }

    /// Appends the snapshot to `out` (the allocation-free-at-the-seam
    /// variant backing [`SnapshotWrite`]): one section per shard, encoded
    /// in parallel (one scoped worker per non-empty shard; empty shards
    /// encode inline), framed straight into `out` (no intermediate
    /// whole-snapshot buffer).
    fn write_snapshot_into(&self, out: &mut Vec<u8>) -> Result<(), SnapshotError> {
        let sections: Vec<Result<Section, SnapshotError>> = thread::scope(|scope| {
            let workers: Vec<_> = self
                .shards()
                .map(|shard| {
                    (Kd::count(shard) != 0).then(|| {
                        scope.spawn(move || {
                            fault_point(site::SNAPSHOT_ENCODE);
                            Kd::encode(shard)
                        })
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|worker| match worker {
                    // A panicked encoder fails this save with a typed error
                    // instead of aborting the process; the remaining workers
                    // still join (scoped threads), nothing is left running.
                    Some(handle) => handle.join().unwrap_or(Err(SnapshotError::WorkerPanicked)),
                    None => encode_section(std::iter::empty::<()>()),
                })
                .collect()
        });
        let sections = sections.into_iter().collect::<Result<Vec<_>, _>>()?;
        write_frame(Kd::KIND, &sections, out)
    }
}

impl<C: Sync, Kd: SaveKind<C>> Sharded<C, Kd> {
    /// Takes a consistent snapshot and serializes it (see
    /// [`Snapshot::save_snapshot`]). Concurrent writers are never blocked:
    /// the save works on the frozen `Arc` snapshots acquired up front.
    pub fn save_snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        self.snapshot().save_snapshot()
    }

    /// Saves a snapshot to `path` atomically (write-temp + fsync +
    /// rename): a crash mid-checkpoint leaves the previous file intact,
    /// never a torn one.
    pub fn save_snapshot_to(&self, path: impl AsRef<std::path::Path>) -> Result<(), SnapshotError> {
        trie_common::snapshot::save_atomic(path.as_ref(), &self.save_snapshot()?)
    }
}

impl<C, Kd> Sharded<C, Kd>
where
    C: TransientOps<Kd::Elem> + Send,
    Kd: ShardKind<C>,
    Kd::Elem: Send + for<'de> Deserialize<'de>,
{
    /// Restores a snapshot at `shards` shards — any power of two in
    /// `1..=`[`crate::MAX_SHARDS`], independent of the count it was saved
    /// with. Stored sections decode in parallel, elements re-route through
    /// the new partition, and every target shard bulk-builds through the
    /// transient protocol on its own worker thread.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is not a valid partition size (same contract as
    /// [`Sharded::with_shards`]); corrupt `bytes` never panic.
    pub fn load_snapshot(bytes: &[u8], shards: usize) -> Result<Self, SnapshotError> {
        let frame = parse_expecting(bytes, Kd::KIND)?;
        Self::restore(&frame, Partition::new(shards))
    }

    /// Reads a snapshot file (as written by [`Sharded::save_snapshot_to`])
    /// and restores it at `shards` shards.
    pub fn load_snapshot_from(
        path: impl AsRef<std::path::Path>,
        shards: usize,
    ) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path.as_ref()).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Self::load_snapshot(&bytes, shards)
    }

    fn restore(frame: &Frame<'_>, partition: Partition) -> Result<Self, SnapshotError> {
        let parts = decode_and_route(frame.sections(), partition.count(), |elem: &Kd::Elem| {
            partition.shard_of(Kd::elem_key(elem))
        })?;
        Ok(Self::built_from_parts(partition, parts))
    }
}

impl<C: Sync, Kd: SaveKind<C>> SnapshotWrite for Sharded<C, Kd> {
    const KIND: Kind = Kd::KIND;

    fn write_snapshot(&self, out: &mut Vec<u8>) -> Result<(), SnapshotError> {
        self.snapshot().write_snapshot_into(out)
    }
}

impl<C, Kd> SnapshotRead for Sharded<C, Kd>
where
    C: TransientOps<Kd::Elem> + Send,
    Kd: ShardKind<C>,
    Kd::Elem: Send + for<'de> Deserialize<'de>,
{
    /// Restores at the snapshot's stored shard count (errors — never
    /// panics — if that count is not a valid partition; use
    /// [`Sharded::load_snapshot`] to reshard).
    fn read_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let frame = parse_expecting(bytes, Kd::KIND)?;
        Self::restore(&frame, stored_partition(frame.sections().len())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use crate::{ShardedMap, ShardedMultiMap, ShardedSet};

    #[test]
    fn multimap_save_restore_across_shard_counts() {
        let tuples: Vec<(u32, u32)> = (0..3000).map(|i| (i / 3, i)).collect();
        let mm: ShardedMultiMap<u32, u32> = ShardedMultiMap::build_parallel(8, tuples.clone());
        let bytes = mm.save_snapshot().unwrap();

        for shards in [1usize, 2, 8, 32] {
            let back: ShardedMultiMap<u32, u32> =
                ShardedMultiMap::load_snapshot(&bytes, shards).unwrap();
            assert_eq!(back.shard_count(), shards);
            assert_eq!(back.tuple_count(), mm.tuple_count());
            assert_eq!(back.key_count(), mm.key_count());
            let snap = back.snapshot();
            for (k, v) in &tuples {
                assert!(snap.contains_tuple(k, v), "{shards} shards lost ({k},{v})");
            }
        }

        // SnapshotRead restores at the stored count.
        let same: ShardedMultiMap<u32, u32> = ShardedMultiMap::read_snapshot(&bytes).unwrap();
        assert_eq!(same.shard_count(), 8);
        assert_eq!(same.tuple_count(), mm.tuple_count());
    }

    #[test]
    fn map_and_set_save_restore() {
        let m: ShardedMap<u32, String> =
            ShardedMap::build_parallel(4, (0..800u32).map(|i| (i, format!("v{i}"))));
        let bytes = m.save_snapshot().unwrap();
        let back: ShardedMap<u32, String> = ShardedMap::load_snapshot(&bytes, 2).unwrap();
        assert_eq!(back.len(), 800);
        assert_eq!(back.get_cloned(&17), Some("v17".into()));

        let s: ShardedSet<u32> = ShardedSet::build_parallel(4, 0..500u32);
        let bytes = s.save_snapshot().unwrap();
        let back: ShardedSet<u32> = ShardedSet::load_snapshot(&bytes, 8).unwrap();
        assert_eq!(back.len(), 500);
        let snap = back.snapshot();
        let elems: BTreeSet<u32> = snap.iter().copied().collect();
        assert_eq!(elems.len(), 500);
    }

    #[test]
    fn empty_and_skewed_instances_roundtrip() {
        let empty: ShardedMultiMap<u32, u32> = ShardedMultiMap::with_shards(8);
        let bytes = empty.save_snapshot().unwrap();
        let back: ShardedMultiMap<u32, u32> = ShardedMultiMap::load_snapshot(&bytes, 2).unwrap();
        assert!(back.is_empty());

        // One key: 7 of 8 sections are empty.
        let skewed: ShardedMultiMap<u32, u32> =
            ShardedMultiMap::build_parallel(8, [(42u32, 1u32), (42, 2)]);
        let back: ShardedMultiMap<u32, u32> =
            ShardedMultiMap::load_snapshot(&skewed.save_snapshot().unwrap(), 1).unwrap();
        assert_eq!(back.tuple_count(), 2);
        assert_eq!(back.value_count(&42), 2);
    }

    #[test]
    fn foreign_shard_counts_error_on_read_snapshot() {
        // A plain (1-section) snapshot restores fine; a hand-built 3-section
        // frame is not a valid partition and must error, not panic.
        use trie_common::snapshot::{encode_section, write_frame};
        let sections: Vec<_> = (0..3)
            .map(|i| encode_section([(i as u32, i as u32)]).unwrap())
            .collect();
        let mut bytes = Vec::new();
        write_frame(Kind::MultiMap, &sections, &mut bytes).unwrap();
        assert!(ShardedMultiMap::<u32, u32>::read_snapshot(&bytes).is_err());
        // But an explicit reshard target accepts any frame.
        let back: ShardedMultiMap<u32, u32> = ShardedMultiMap::load_snapshot(&bytes, 2).unwrap();
        assert_eq!(back.tuple_count(), 3);
    }
}
