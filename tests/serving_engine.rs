//! Differential suite for the serving engine: randomized request scripts
//! executed through the real engine (worker pool, admission queue,
//! transactions) against a single-threaded `BTreeMap` oracle.
//!
//! The scripts run sequentially — every staged write is acked before the
//! next command — so the engine must agree with the oracle *exactly*: any
//! divergence (a lost edit in the admission queue, a stale pin, a reply
//! answered from the wrong epoch) is a hard failure, shrunk by proptest to
//! a minimal script.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use axiom_repro::serving::{Engine, EngineConfig, MapRead, MapReply, MultiMapRead, MultiMapReply};
use axiom_repro::sharded::{ShardedMap, ShardedMultiMap};
use axiom_repro::trie_common::ops::{MapEdit, MultiMapEdit};

/// One scripted engine interaction, decoded from proptest's raw tuples.
#[derive(Debug, Clone)]
enum Cmd {
    /// Stage a write batch through admission and wait for its ack.
    Write(Vec<MapEdit<u16, u16>>),
    /// Submit a read batch to the worker pool and check every reply.
    Read(Vec<MapRead<u16>>),
    /// Transactionally increment a key (read + validated commit).
    Bump(u16),
}

fn decode(raw: &[(u8, u16, u16)]) -> Vec<Cmd> {
    let mut cmds = Vec::new();
    let mut writes = Vec::new();
    let mut reads = Vec::new();
    for &(sel, k, v) in raw {
        let k = k % 64;
        match sel % 8 {
            0..=2 => writes.push(MapEdit::Insert(k, v)),
            3 => writes.push(MapEdit::Remove(k)),
            4 | 5 => reads.push(MapRead::Get(k)),
            6 => reads.push(MapRead::Contains(k)),
            _ => {
                // Flush pending batches in script order, then a txn.
                if !writes.is_empty() {
                    cmds.push(Cmd::Write(std::mem::take(&mut writes)));
                }
                if !reads.is_empty() {
                    reads.push(MapRead::Len);
                    reads.push(MapRead::Scan { limit: 8 });
                    cmds.push(Cmd::Read(std::mem::take(&mut reads)));
                }
                cmds.push(Cmd::Bump(k));
            }
        }
    }
    if !writes.is_empty() {
        cmds.push(Cmd::Write(writes));
    }
    if !reads.is_empty() {
        cmds.push(Cmd::Read(reads));
    }
    cmds
}

fn run_script(shards: usize, cmds: Vec<Cmd>) {
    let store: Arc<ShardedMap<u16, u16>> = Arc::new(ShardedMap::with_shards(shards));
    let engine = Engine::with_config(
        Arc::clone(&store),
        EngineConfig {
            read_workers: 2,
            txn_attempts: 4,
            ..EngineConfig::default()
        },
    );
    let mut oracle: BTreeMap<u16, u16> = BTreeMap::new();

    for cmd in cmds {
        match cmd {
            Cmd::Write(batch) => {
                for e in &batch {
                    match e {
                        MapEdit::Insert(k, v) => {
                            oracle.insert(*k, *v);
                        }
                        MapEdit::Remove(k) => {
                            oracle.remove(k);
                        }
                    }
                }
                engine.stage(batch).wait().expect("no applier faulted");
            }
            Cmd::Read(ops) => {
                let reply = engine
                    .submit(ops.clone())
                    .wait()
                    .expect("no read worker faulted");
                assert_eq!(reply.replies.len(), ops.len());
                for (op, reply) in ops.iter().zip(&reply.replies) {
                    match (op, reply) {
                        (MapRead::Get(k), MapReply::Value(v)) => {
                            assert_eq!(v.as_ref(), oracle.get(k), "Get({k})");
                        }
                        (MapRead::Contains(k), MapReply::Bool(b)) => {
                            assert_eq!(*b, oracle.contains_key(k), "Contains({k})");
                        }
                        (MapRead::Len, MapReply::Count(n)) => {
                            assert_eq!(*n, oracle.len(), "Len");
                        }
                        (MapRead::Scan { limit }, MapReply::Entries(entries)) => {
                            assert_eq!(entries.len(), oracle.len().min(*limit), "Scan length");
                            for (k, v) in entries {
                                assert_eq!(oracle.get(k), Some(v), "Scan entry {k}");
                            }
                        }
                        (op, reply) => panic!("reply shape mismatch: {op:?} -> {reply:?}"),
                    }
                }
            }
            Cmd::Bump(k) => {
                let out = engine
                    .transact(|txn| {
                        let MapReply::Value(v) = txn.read(&MapRead::Get(k)) else {
                            unreachable!()
                        };
                        txn.write(MapEdit::Insert(k, v.map_or(1, |v| v.wrapping_add(1))));
                    })
                    .expect("uncontended txn commits");
                assert_eq!(out.attempts, 1, "no interference, no retries");
                let next = oracle.get(&k).map_or(1, |v| v.wrapping_add(1));
                oracle.insert(k, next);
            }
        }
    }

    // Final exhaustive sweep: engine state == oracle, via the engine.
    let reply = engine.submit(vec![MapRead::Len, MapRead::Scan { limit: usize::MAX }]);
    let reply = reply.wait().expect("no read worker faulted");
    assert_eq!(reply.replies[0], MapReply::Count(oracle.len()));
    let MapReply::Entries(entries) = &reply.replies[1] else {
        panic!("scan reply shape");
    };
    let swept: BTreeMap<u16, u16> = entries.iter().copied().collect();
    assert_eq!(swept, oracle, "final state diverged from oracle");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engine_matches_btreemap_oracle(
        raw in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 0..250),
        shard_exp in 0u32..4,
    ) {
        run_script(1 << shard_exp, decode(&raw));
    }
}

/// Multimap flavour: fan-out and timeline reads against a
/// `BTreeMap<_, BTreeSet<_>>` oracle (deterministic script, all op kinds).
#[test]
fn multimap_engine_matches_oracle() {
    use std::collections::BTreeSet;
    let store: Arc<ShardedMultiMap<u16, u16>> = Arc::new(ShardedMultiMap::with_shards(8));
    let engine = Engine::new(Arc::clone(&store));
    let mut oracle: BTreeMap<u16, BTreeSet<u16>> = BTreeMap::new();

    for round in 0u16..40 {
        let batch: Vec<MultiMapEdit<u16, u16>> = (0..32u16)
            .map(|i| {
                let k = (round.wrapping_mul(7).wrapping_add(i * 3)) % 48;
                match (round + i) % 6 {
                    0..=3 => MultiMapEdit::Insert(k, i % 8),
                    4 => MultiMapEdit::RemoveTuple(k, i % 8),
                    _ => MultiMapEdit::RemoveKey(k),
                }
            })
            .collect();
        for e in &batch {
            match *e {
                MultiMapEdit::Insert(k, v) => {
                    oracle.entry(k).or_default().insert(v);
                }
                MultiMapEdit::RemoveTuple(k, v) => {
                    if let Some(s) = oracle.get_mut(&k) {
                        s.remove(&v);
                        if s.is_empty() {
                            oracle.remove(&k);
                        }
                    }
                }
                MultiMapEdit::RemoveKey(k) => {
                    oracle.remove(&k);
                }
            }
        }
        engine.stage(batch).wait().expect("no applier faulted");

        let keys: Vec<u16> = (0..48).collect();
        let reply = engine.execute(&[
            MultiMapRead::FanOut(keys.clone()),
            MultiMapRead::ValuesOf(round % 48),
            MultiMapRead::ContainsKey(round % 48),
            MultiMapRead::TupleCount,
        ]);
        let MultiMapReply::FanOut(per_key) = &reply.replies[0] else {
            panic!("fan-out reply shape");
        };
        for (k, vs) in per_key {
            let got: BTreeSet<u16> = vs.iter().copied().collect();
            let want = oracle.get(k).cloned().unwrap_or_default();
            assert_eq!(got, want, "fan-out values of {k} at round {round}");
        }
        let MultiMapReply::Values(vs) = &reply.replies[1] else {
            panic!("values reply shape");
        };
        let got: BTreeSet<u16> = vs.iter().copied().collect();
        assert_eq!(
            got,
            oracle.get(&(round % 48)).cloned().unwrap_or_default(),
            "ValuesOf at round {round}"
        );
        assert_eq!(
            reply.replies[2],
            MultiMapReply::Bool(oracle.contains_key(&(round % 48)))
        );
        assert_eq!(
            reply.replies[3],
            MultiMapReply::Count(oracle.values().map(BTreeSet::len).sum())
        );
    }
}
