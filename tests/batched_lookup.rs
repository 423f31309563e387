//! Differential tests of the batched read path.
//!
//! * `MultiMapOps::get_many` must answer every key exactly as `get` does,
//!   in order, for each multi-map design: the AXIOM multi-map (both bags)
//!   overrides it with a level-synchronous walk; the baselines take the
//!   per-key default. Keys are used verbatim (`u16`) and wrapped in
//!   [`FewBuckets`], whose seven hashes force sub-trie chains and
//!   hash-exhausted collision nodes; probes mix present, absent and
//!   repeated keys in batches of 0–64 (more than one walk's 16 lanes).
//! * `Serve::answer_batch` must reply to a read batch exactly as `answer`
//!   does op by op, on 1-, 2- and 8-shard stores, for random mixes of all
//!   six `MultiMapRead` ops; and on a `feed_read`-shaped script the
//!   encoded replies must be byte-identical.

use std::fmt::Debug;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use axiom_repro::axiom::{AxiomFusedMultiMap, AxiomMultiMap};
use axiom_repro::idiomatic::{ClojureMultiMap, NestedChampMultiMap, ScalaMultiMap};
use axiom_repro::serving::proto::encode_value;
use axiom_repro::serving::{MultiMapRead, MultiMapReply, Serve};
use axiom_repro::sharded::ShardedMultiMap;
use axiom_repro::trie_common::ops::{MultiMapEdit, MultiMapMutOps, ValuesView};
use axiom_repro::workloads::concurrent::{serving_workload, KeyMix, ReadProbe, ServingProfile};

/// Key wrapper hashing into seven buckets: every bucket's keys share one
/// full hash, so they end in collision nodes below a chain of sub-tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct FewBuckets(u16);

impl Hash for FewBuckets {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u16(self.0 % 7);
    }
}

/// Checks `get_many` against per-key `get` on a multi-map of `tuples`,
/// probing `probes`, with `key` mapping a `u16` to the key type.
fn check_get_many<K, M>(tuples: &[(u16, u16)], probes: &[u16], key: impl Fn(u16) -> K)
where
    K: Clone + Eq + Hash + Debug,
    M: MultiMapMutOps<K, u16>,
{
    let mut m = M::empty();
    for &(k, v) in tuples {
        m.insert_mut(key(k), v);
    }
    let keys: Vec<K> = probes.iter().map(|&k| key(k)).collect();
    let refs: Vec<&K> = keys.iter().collect();
    let expected: Vec<_> = refs.iter().map(|k| summary(m.get(k))).collect();

    // Answers are appended: a second call leaves the first one's intact.
    let mut out = Vec::new();
    m.get_many(&refs, &mut out);
    assert_eq!(out.len(), refs.len(), "{}: one answer per key", M::NAME);
    let reversed: Vec<&K> = refs.iter().rev().copied().collect();
    m.get_many(&reversed, &mut out);
    assert_eq!(out.len(), 2 * refs.len());
    let got: Vec<_> = out.into_iter().map(summary).collect();
    let (first, second) = got.split_at(refs.len());
    assert_eq!(first, expected, "{}: get_many disagrees with get", M::NAME);
    let mut back = second.to_vec();
    back.reverse();
    assert_eq!(back, expected, "{}: appended answers disagree", M::NAME);
}

/// What one lookup answered: the values in the view's iteration order,
/// its length, and membership of each value and of one absent value.
fn summary<'a, V: ValuesView<'a, u16>>(found: Option<V>) -> Option<(Vec<u16>, usize, bool)> {
    found.map(|vs| {
        let values: Vec<u16> = vs.iter().copied().collect();
        let members = values.iter().all(|v| vs.contains(v)) && !vs.contains(&u16::MAX);
        (values, vs.len(), members)
    })
}

/// [`check_get_many`] for every multi-map design, verbatim and colliding.
fn check_every_design(tuples: &[(u16, u16)], probes: &[u16]) {
    check_get_many::<u16, AxiomMultiMap<u16, u16>>(tuples, probes, |k| k);
    check_get_many::<u16, AxiomFusedMultiMap<u16, u16>>(tuples, probes, |k| k);
    check_get_many::<u16, NestedChampMultiMap<u16, u16>>(tuples, probes, |k| k);
    check_get_many::<u16, ClojureMultiMap<u16, u16>>(tuples, probes, |k| k);
    check_get_many::<u16, ScalaMultiMap<u16, u16>>(tuples, probes, |k| k);
    check_get_many::<FewBuckets, AxiomMultiMap<FewBuckets, u16>>(tuples, probes, FewBuckets);
    check_get_many::<FewBuckets, AxiomFusedMultiMap<FewBuckets, u16>>(tuples, probes, FewBuckets);
    check_get_many::<FewBuckets, NestedChampMultiMap<FewBuckets, u16>>(tuples, probes, FewBuckets);
    check_get_many::<FewBuckets, ClojureMultiMap<FewBuckets, u16>>(tuples, probes, FewBuckets);
    check_get_many::<FewBuckets, ScalaMultiMap<FewBuckets, u16>>(tuples, probes, FewBuckets);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Up to 300 keys with 1–8 values each (so fused bags overflow into
    /// tries); probes reach past the key range, so some are absent.
    #[test]
    fn get_many_agrees_with_get(
        tuples in proptest::collection::vec((0u16..300, 0u16..8), 0..1200),
        probes in proptest::collection::vec(0u16..360, 0..=64),
    ) {
        check_every_design(&tuples, &probes);
    }

    /// A deeper trie (up to 20k keys) whose walks end at different levels
    /// within one batch.
    #[test]
    fn get_many_agrees_with_get_on_deep_tries(
        tuples in proptest::collection::vec((any::<u16>(), 0u16..3), 0..20_000),
        probes in proptest::collection::vec(any::<u16>(), 0..=64),
    ) {
        check_get_many::<u16, AxiomMultiMap<u16, u16>>(&tuples, &probes, |k| k);
        check_get_many::<u16, AxiomFusedMultiMap<u16, u16>>(&tuples, &probes, |k| k);
    }
}

#[test]
fn get_many_handles_empty_batches_duplicates_and_empty_maps() {
    let tuples: Vec<(u16, u16)> = (0..100).flat_map(|k| [(k, k), (k, k + 1)]).collect();
    for probes in [
        vec![],
        vec![5; 40],
        vec![7, 7, 500, 7, 500],
        (0..64).collect(),
    ] {
        check_every_design(&tuples, &probes);
        check_every_design(&[], &probes);
    }
}

// ---------------------------------------------------------------------------
// The serving batch.
// ---------------------------------------------------------------------------

type Read = MultiMapRead<u32, u32>;
type Reply = MultiMapReply<u32, u32>;

/// A small deterministic generator (SplitMix64), so the op mixes do not
/// depend on a strategy type for every op shape.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A key of the store (`0..keys`) or, one time in eight, an absent one.
    fn key(&mut self, keys: u32) -> u32 {
        match self.below(8) {
            0 => keys + self.below(64) as u32,
            _ => self.below(u64::from(keys)) as u32,
        }
    }

    /// One random read: all six ops, fan-outs with repeated keys.
    fn read(&mut self, keys: u32) -> Read {
        match self.below(6) {
            0 => MultiMapRead::ValuesOf(self.key(keys)),
            1 => MultiMapRead::ContainsKey(self.key(keys)),
            2 => MultiMapRead::ContainsTuple(self.key(keys), self.below(4) as u32),
            3 => {
                let mut fan: Vec<u32> = (0..self.below(10)).map(|_| self.key(keys)).collect();
                if let Some(&first) = fan.first() {
                    fan.push(first);
                }
                MultiMapRead::FanOut(fan)
            }
            4 => MultiMapRead::Scan {
                limit: self.below(5) as usize,
            },
            _ => MultiMapRead::TupleCount,
        }
    }
}

/// Checks that `answer_batch` equals per-op `answer` on the store's
/// current snapshot, reply by reply and byte by byte once encoded.
fn check_batch<M>(store: &ShardedMultiMap<u32, u32, M>, ops: &[Read])
where
    M: MultiMapMutOps<u32, u32> + Send + Sync + 'static,
{
    type Store<M> = ShardedMultiMap<u32, u32, M>;
    let snap = store.snapshot();
    let batched = <Store<M> as Serve>::answer_batch(&snap, ops);
    let single: Vec<Reply> = ops
        .iter()
        .map(|op| <Store<M> as Serve>::answer(&snap, op))
        .collect();
    assert_eq!(
        batched,
        single,
        "{} on {} shards",
        M::NAME,
        snap.shard_count()
    );
    assert_eq!(
        encode_value(&batched).unwrap(),
        encode_value(&single).unwrap()
    );
}

/// Random read batches against `shards`-shard stores of each bag, with
/// edits between batches (promotions, demotions and removed keys).
fn check_random_batches<M>(shards: usize, seed: u64)
where
    M: MultiMapMutOps<u32, u32> + Send + Sync + 'static,
{
    const KEYS: u32 = 3_000;
    let mut mix = Mix(seed);
    let store = ShardedMultiMap::<u32, u32, M>::with_shards(shards);
    store.apply((0..KEYS).flat_map(|k| {
        let values = 1 + k % 3;
        (0..values).map(move |v| MultiMapEdit::Insert(k, v))
    }));
    for round in 0..200 {
        let ops: Vec<Read> = (0..mix.below(24)).map(|_| mix.read(KEYS)).collect();
        check_batch(&store, &ops);
        let k = mix.below(u64::from(KEYS)) as u32;
        let edit = match round % 3 {
            0 => MultiMapEdit::Insert(k, mix.below(6) as u32),
            1 => MultiMapEdit::RemoveTuple(k, mix.below(3) as u32),
            _ => MultiMapEdit::RemoveKey(k),
        };
        store.apply([edit]);
    }
}

#[test]
fn answer_batch_agrees_with_answer_on_1_2_and_8_shards() {
    for (seed, shards) in [(1, 1), (2, 2), (3, 8)] {
        check_random_batches::<AxiomMultiMap<u32, u32>>(shards, seed);
        check_random_batches::<AxiomFusedMultiMap<u32, u32>>(shards, seed);
        check_random_batches::<ScalaMultiMap<u32, u32>>(shards, seed);
    }
}

#[test]
fn answer_batch_handles_empty_and_key_free_batches() {
    let store = ShardedMultiMap::<u32, u32>::with_shards(2);
    check_batch(&store, &[]);
    check_batch(
        &store,
        &[MultiMapRead::TupleCount, MultiMapRead::FanOut(vec![])],
    );
    store.apply([MultiMapEdit::Insert(1, 1), MultiMapEdit::Insert(1, 2)]);
    check_batch(
        &store,
        &[MultiMapRead::Scan { limit: 9 }, MultiMapRead::ValuesOf(1)],
    );
}

/// The `feed_read` traffic shape (Zipf(1.0) 8-probe batches, every 16th
/// probe an 8-key fan-out, one 32-edit write batch per 16 reads) on a
/// smaller store: every read batch encodes to the same bytes batched and
/// op by op.
#[test]
fn feed_read_shaped_script_encodes_identically() {
    let profile = ServingProfile {
        keys: 20_000,
        read_batches: 2_048,
        reads_per_batch: 8,
        write_batches: 128,
        writes_per_batch: 32,
        mix: KeyMix::Zipf { exponent: 1.0 },
        fanout_every: 16,
        fanout_width: 8,
    };
    let w = serving_workload(&profile, 1);
    let store = ShardedMultiMap::<u32, u32>::build_parallel(2, w.base.iter().copied());
    let mut writes = w.write_batches.into_iter();
    for (i, batch) in w.read_batches.iter().enumerate() {
        let ops: Vec<Read> = batch
            .iter()
            .map(|probe| match probe {
                ReadProbe::ValuesOf(k) => MultiMapRead::ValuesOf(*k),
                ReadProbe::ContainsKey(k) => MultiMapRead::ContainsKey(*k),
                ReadProbe::FanOut(ks) => MultiMapRead::FanOut(ks.clone()),
            })
            .collect();
        check_batch(&store, &ops);
        if i % 16 == 15 {
            if let Some(edits) = writes.next() {
                store.apply(edits);
            }
        }
    }
}
