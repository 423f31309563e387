//! One behavioural contract for every kind of sharded store, written once
//! over the kind traits and run for the map, the set and the multi-map.

use std::collections::BTreeSet;

use axiom::{AxiomMap, AxiomMultiMap, AxiomSet};
use serde::Deserialize;
use sharded::{DiffKind, EditKind, Map, MultiMap, SaveKind, Set, Sharded, Snapshot};
use trie_common::ops::{MapEdit, MultiMapEdit, SetEdit, TransientOps};

/// What the contract needs to know about a kind beyond the store's own
/// traits: how to write element `key`, and how to read a snapshot back as
/// sorted `(key, value)` pairs (sets report value 0).
trait Contract<C>: EditKind<C, Key = u32> + DiffKind<C> + SaveKind<C> {
    fn write(key: u32, value: u32) -> Self::Edit;
    fn diff_is_empty(diff: &Self::Diff) -> bool;
    fn contents(snap: &Snapshot<C, Self>) -> Vec<(u32, u32)>;
}

impl Contract<AxiomMap<u32, u32>> for Map<u32, u32> {
    fn write(key: u32, value: u32) -> MapEdit<u32, u32> {
        MapEdit::Insert(key, value)
    }

    fn diff_is_empty(diff: &Self::Diff) -> bool {
        diff.is_empty()
    }

    fn contents(snap: &Snapshot<AxiomMap<u32, u32>, Self>) -> Vec<(u32, u32)> {
        sorted(snap.entries().map(|(k, v)| (*k, *v)))
    }
}

impl Contract<AxiomSet<u32>> for Set<u32> {
    fn write(key: u32, _: u32) -> SetEdit<u32> {
        SetEdit::Insert(key)
    }

    fn diff_is_empty(diff: &Self::Diff) -> bool {
        diff.is_empty()
    }

    fn contents(snap: &Snapshot<AxiomSet<u32>, Self>) -> Vec<(u32, u32)> {
        sorted(snap.iter().map(|v| (*v, 0)))
    }
}

impl Contract<AxiomMultiMap<u32, u32>> for MultiMap<u32, u32> {
    fn write(key: u32, value: u32) -> MultiMapEdit<u32, u32> {
        MultiMapEdit::Insert(key, value)
    }

    fn diff_is_empty(diff: &Self::Diff) -> bool {
        diff.is_empty()
    }

    fn contents(snap: &Snapshot<AxiomMultiMap<u32, u32>, Self>) -> Vec<(u32, u32)> {
        sorted(snap.tuples().map(|(k, v)| (*k, *v)))
    }
}

fn sorted(pairs: impl Iterator<Item = (u32, u32)>) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = pairs.collect();
    out.sort_unstable();
    out
}

fn contract<C, Kd>()
where
    Kd: Contract<C>,
    C: Clone + Send + Sync + TransientOps<Kd::Elem>,
    Kd::Elem: Send + for<'de> Deserialize<'de>,
    Kd::Diff: Send,
{
    let store: Sharded<C, Kd> = Sharded::with_shards(8);

    // A 64-key batch spanning all 8 shards publishes exactly one epoch.
    let e0 = store.current_epoch();
    assert_eq!(store.apply((0..64).map(|k| Kd::write(k, 0))), 64);
    assert_eq!(store.current_epoch(), e0 + 1);
    let snap = store.snapshot();
    assert_eq!(snap.epoch(), e0 + 1);
    let spanned: BTreeSet<usize> = (0..64).map(|k| snap.shard_of(&k)).collect();
    assert_eq!(spanned.len(), 8, "the batch touches every shard");

    // `changes_since` on an unchanged store is empty.
    assert!(Kd::diff_is_empty(&store.changes_since(&snap)));

    // A snapshot stays frozen under later writes.
    let frozen = Kd::contents(&snap);
    assert_eq!(frozen.len(), 64);
    store.apply((32..96).map(|k| Kd::write(k, 1)));
    assert_eq!(Kd::contents(&snap), frozen);
    assert_ne!(Kd::contents(&store.snapshot()), frozen);

    // `apply_validated` conflicts when a shard the caller only *read*
    // moved, and succeeds after re-pinning.
    let base = store.snapshot();
    let read = base.shard_of(&7);
    let moved = (1000..).find(|k| base.shard_of(k) == read).unwrap();
    let written = (1000..).find(|k| base.shard_of(k) != read).unwrap();
    store.apply([Kd::write(moved, 2)]);
    let err = store
        .apply_validated(&base, &[read], [Kd::write(written, 2)])
        .unwrap_err();
    assert_eq!(err.shard, read);
    let has_written = |s: &Snapshot<C, Kd>| Kd::contents(s).iter().any(|&(k, _)| k == written);
    assert!(!has_written(&store.snapshot()), "a conflict stages nothing");
    let fresh = store.snapshot();
    assert_eq!(
        store.apply_validated(&fresh, &[read], [Kd::write(written, 2)]),
        Ok(1)
    );
    assert!(has_written(&store.snapshot()));

    // Save, then restore at 1, 2 and 8 shards: every restore holds exactly
    // the saved elements.
    let saved = store.snapshot();
    let bytes = saved.save_snapshot().unwrap();
    for shards in [1, 2, 8] {
        let back = Sharded::<C, Kd>::load_snapshot(&bytes, shards).unwrap();
        assert_eq!(back.shard_count(), shards);
        assert_eq!(Kd::contents(&back.snapshot()), Kd::contents(&saved));
    }
}

#[test]
fn map_contract() {
    contract::<AxiomMap<u32, u32>, Map<u32, u32>>();
}

#[test]
fn set_contract() {
    contract::<AxiomSet<u32>, Set<u32>>();
}

#[test]
fn multimap_contract() {
    contract::<AxiomMultiMap<u32, u32>, MultiMap<u32, u32>>();
}
