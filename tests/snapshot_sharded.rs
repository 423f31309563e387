//! Sharded save/restore discipline, extending the aliasing guarantees of
//! `tests/sharded_aliasing.rs` to the persistence layer: saving is a pure
//! read over published `Arc` snapshots, so pre-save reader snapshots stay
//! byte-for-byte what they were, concurrent writers never block or corrupt
//! a save in flight, and a snapshot saved at 8 shards restores at 1, 2 and
//! 8 (and into a plain unsharded trie) with identical content.

use std::collections::BTreeSet;

use proptest::prelude::*;

use axiom_repro::axiom::AxiomMultiMap;
use axiom_repro::sharded::ShardedMultiMap;
use axiom_repro::trie_common::ops::{MultiMapEdit, MultiMapOps};
use axiom_repro::trie_common::snapshot::{inspect, SnapshotRead};

type Mm = ShardedMultiMap<u32, u32>;

/// The exact per-shard tuple sequences of a snapshot — stronger than a set
/// comparison: if a save so much as reordered a reader's view, this moves.
fn exact_sequences(
    snap: &axiom_repro::sharded::MultiMapSnapshot<u32, u32>,
) -> Vec<Vec<(u32, u32)>> {
    (0..snap.shard_count())
        .map(|i| snap.shard(i).tuples().map(|(k, v)| (*k, *v)).collect())
        .collect()
}

fn tuple_set(tuples: impl IntoIterator<Item = (u32, u32)>) -> BTreeSet<(u32, u32)> {
    tuples.into_iter().collect()
}

#[test]
fn eight_shard_save_restores_at_one_two_and_eight() {
    // The 50/50 1:1 / 1:2 shape of the paper workloads.
    let tuples: Vec<(u32, u32)> = (0..4000u32)
        .flat_map(|k| {
            let base = std::iter::once((k, k * 10));
            let second = (k % 2 == 0).then(|| (k, k * 10 + 1));
            base.chain(second)
        })
        .collect();
    let source = Mm::build_parallel(8, tuples.iter().copied());
    let expected = tuple_set(tuples.iter().copied());
    let bytes = source.save_snapshot().unwrap();

    let info = inspect(&bytes).unwrap();
    assert_eq!(info.shards.len(), 8);
    assert_eq!(info.items(), expected.len() as u64);

    for shards in [1usize, 2, 8] {
        let restored = Mm::load_snapshot(&bytes, shards).unwrap();
        assert_eq!(restored.shard_count(), shards);
        let snap = restored.snapshot();
        // Merged tuple sequence matches the source relation exactly.
        assert_eq!(
            tuple_set(snap.tuples().map(|(k, v)| (*k, *v))),
            expected,
            "merged tuples diverged at {shards} shards"
        );
        // Every lookup style agrees with the source.
        assert_eq!(restored.tuple_count(), source.tuple_count());
        assert_eq!(restored.key_count(), source.key_count());
        for k in (0..4000u32).step_by(97) {
            assert_eq!(
                snap.value_count(&k),
                source.snapshot().value_count(&k),
                "value_count({k}) diverged at {shards} shards"
            );
            assert!(snap.contains_tuple(&k, &(k * 10)));
            assert_eq!(snap.contains_tuple(&k, &(k * 10 + 1)), k % 2 == 0);
            assert!(!snap.contains_key(&(k + 100_000)));
        }
    }
}

#[test]
fn pre_save_reader_snapshots_stay_frozen_during_save() {
    let mm = Mm::build_parallel(8, (0..5000u32).map(|i| (i % 500, i)));
    let reader = mm.snapshot();
    let before = exact_sequences(&reader);

    let bytes = mm.save_snapshot().unwrap();

    // The reader's view is untouched by the save (same exact sequences),
    // and the save reflects precisely that cut.
    assert_eq!(exact_sequences(&reader), before);
    let restored = Mm::load_snapshot(&bytes, 8).unwrap();
    assert_eq!(
        tuple_set(restored.snapshot().tuples().map(|(k, v)| (*k, *v))),
        tuple_set(reader.tuples().map(|(k, v)| (*k, *v)))
    );
}

#[test]
fn concurrent_writers_never_corrupt_a_save_in_flight() {
    let mm = Mm::build_parallel(8, (0..2000u32).map(|i| (i % 200, i)));
    // The cut to persist: acquired before the writer storm starts.
    let cut = mm.snapshot();
    let expected = tuple_set(cut.tuples().map(|(k, v)| (*k, *v)));

    let bytes = std::thread::scope(|scope| {
        let writer = {
            let mm = &mm;
            scope.spawn(move || {
                for round in 0..20u32 {
                    mm.apply(
                        (0..100u32)
                            .map(|k| MultiMapEdit::Insert(k % 200, 1_000_000 + round * 100 + k)),
                    );
                    mm.apply((0..10u32).map(|k| MultiMapEdit::RemoveKey(k + round)));
                }
            })
        };
        let bytes = cut.save_snapshot().unwrap();
        writer.join().expect("writer panicked");
        bytes
    });

    // The save is exactly the pre-storm cut — none of the concurrent edits
    // leaked in, none of the cut leaked out.
    let restored = Mm::load_snapshot(&bytes, 2).unwrap();
    assert_eq!(
        tuple_set(restored.snapshot().tuples().map(|(k, v)| (*k, *v))),
        expected
    );
    // And the live instance did take the writes.
    assert!(mm.current_epoch() > 0);
}

#[test]
fn sharded_snapshots_restore_into_plain_tries_and_back() {
    let tuples: Vec<(u32, u32)> = (0..1500u32).map(|i| (i % 100, i)).collect();
    let sharded = Mm::build_parallel(8, tuples.iter().copied());
    let plain: AxiomMultiMap<u32, u32> = tuples.iter().copied().collect();

    // Sharded bytes → plain trie: equal to the directly-built trie
    // (canonical form makes this structural equality).
    let from_sharded: AxiomMultiMap<u32, u32> =
        AxiomMultiMap::read_snapshot(&sharded.save_snapshot().unwrap()).unwrap();
    assert_eq!(from_sharded, plain);

    // Plain bytes → sharded at 4: same relation.
    use axiom_repro::trie_common::snapshot::SnapshotWrite;
    let from_plain = Mm::load_snapshot(&plain.snapshot_bytes().unwrap(), 4).unwrap();
    assert_eq!(from_plain.tuple_count(), plain.tuple_count());
    let snap = from_plain.snapshot();
    for (k, v) in &tuples {
        assert!(snap.contains_tuple(k, v));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random relations, random (valid) shard counts: save at one count,
    /// restore at another, merged content and counts always match a
    /// BTreeSet model; the source instance and its pre-save snapshots
    /// never move.
    #[test]
    fn save_restore_roundtrips_across_random_shard_counts(
        tuples in prop::collection::vec((any::<u16>(), any::<u8>()), 0..300),
        save_exp in 0u32..4,
        load_exp in 0u32..4,
    ) {
        let tuples: Vec<(u32, u32)> =
            tuples.iter().map(|&(k, v)| (k as u32 % 64, v as u32 % 4)).collect();
        let save_shards = 1usize << save_exp;
        let load_shards = 1usize << load_exp;

        let source = Mm::build_parallel(save_shards, tuples.iter().copied());
        let model = tuple_set(tuples.iter().copied());
        let frozen = source.snapshot();
        let before = exact_sequences(&frozen);

        let bytes = source.save_snapshot().unwrap();
        prop_assert_eq!(exact_sequences(&frozen), before);

        let restored = Mm::load_snapshot(&bytes, load_shards).unwrap();
        prop_assert_eq!(restored.shard_count(), load_shards);
        prop_assert_eq!(
            tuple_set(restored.snapshot().tuples().map(|(k, v)| (*k, *v))),
            model.clone()
        );
        prop_assert_eq!(restored.tuple_count(), model.len());

        // Restoring into a plain trie merges identically.
        let plain: AxiomMultiMap<u32, u32> = AxiomMultiMap::read_snapshot(&bytes).unwrap();
        prop_assert_eq!(
            plain.iter().map(|(k, v)| (*k, *v)).collect::<BTreeSet<_>>(),
            model
        );
    }
}
