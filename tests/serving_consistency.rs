//! Cross-shard consistency of epoch-pinned reads — the guarantee the
//! per-shard-swap design (through PR 6) could not give.
//!
//! The attack in every test: a writer commits *multi-shard* batches that
//! keep a global invariant (all keys carry the same round number; account
//! balances sum to a constant), while readers pin epochs mid-flight and
//! check the invariant across shards. Under per-shard publication a pin
//! could catch shard 3 before a batch and shard 5 after it and the
//! invariant would tear; under global epoch publication it can never.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use axiom_repro::serving::{Engine, EngineConfig, MapRead, MapReply};
use axiom_repro::sharded::ShardedMap;
use axiom_repro::trie_common::ops::MapEdit;

const KEYS: u32 = 64;
const SHARDS: usize = 8;

fn keyspace() -> impl Iterator<Item = u32> {
    0..KEYS
}

/// Storms `write(round)` for rounds 1, 2, … while two reader threads run
/// `check` in a loop (each with its own last-seen round), until at least
/// `MIN_ROUNDS` rounds were written *and* the readers checked
/// `MIN_CHECKS` views between them — so a fast storm cannot end before
/// the readers are scheduled.
fn storm(check: impl Fn(&mut u32) + Sync, mut write: impl FnMut(u32)) {
    const MIN_ROUNDS: u32 = 300;
    const MIN_CHECKS: usize = 200;
    let done = AtomicBool::new(false);
    let checked = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut last_round = 0;
                while !done.load(Ordering::Relaxed) {
                    check(&mut last_round);
                    checked.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let mut round = 0;
        while round < MIN_ROUNDS || checked.load(Ordering::Relaxed) < MIN_CHECKS {
            round += 1;
            write(round);
        }
        done.store(true, Ordering::Relaxed);
    });
}

/// Asserts a 64-key read holds one round, and that rounds never go
/// backwards for this reader.
fn assert_one_round(epoch: u64, rounds: &[u32], last_round: &mut u32) {
    assert!(
        rounds.windows(2).all(|w| w[0] == w[1]),
        "epoch {epoch} mixes rounds {rounds:?}"
    );
    assert!(rounds[0] >= *last_round, "rounds went backwards");
    *last_round = rounds[0];
}

/// A 64-key batch answered through the engine's read pool, as rounds.
fn submitted_rounds(engine: &Engine<ShardedMap<u32, u32>>) -> (u64, Vec<u32>) {
    let ops: Vec<MapRead<u32>> = keyspace().map(MapRead::Get).collect();
    let reply = engine.submit(ops).wait().expect("no read worker faulted");
    let rounds = reply
        .replies
        .iter()
        .map(|r| match r {
            MapReply::Value(Some(v)) => *v,
            other => panic!("key missing: {other:?}"),
        })
        .collect();
    (reply.epoch, rounds)
}

/// A pinned epoch never mixes shard versions: a writer storm rewrites all
/// 64 keys (spread over all 8 shards) to the round number, one atomic
/// batch per round; every snapshot a racing reader pins must observe one
/// single round across every shard, and rounds must be monotone per
/// reader.
#[test]
fn pinned_epoch_is_uniform_across_shards_under_writer_storm() {
    let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(SHARDS));
    store.apply(keyspace().map(|k| MapEdit::Insert(k, 0)));
    {
        // Keys must actually span every shard or the test proves nothing.
        let snap = store.snapshot();
        let mut hit = [false; SHARDS];
        for k in keyspace() {
            hit[snap.shard_of(&k)] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 keys cover all 8 shards");
    }

    storm(
        |last_round| {
            let snap = store.snapshot();
            let rounds: Vec<u32> = keyspace()
                .map(|k| *snap.get(&k).expect("every key always present"))
                .collect();
            assert_one_round(snap.epoch(), &rounds, last_round);
        },
        |round| {
            store.apply(keyspace().map(|k| MapEdit::Insert(k, round)));
        },
    );
}

/// Same property end-to-end through the engine: submitted read batches are
/// answered from one pin, so a 64-key fan-out must report one uniform
/// round even while the writer storms.
#[test]
fn engine_read_batches_are_answered_from_one_epoch() {
    let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(SHARDS));
    store.apply(keyspace().map(|k| MapEdit::Insert(k, 0)));
    let engine = Engine::with_config(
        Arc::clone(&store),
        EngineConfig {
            read_workers: 2,
            txn_attempts: 8,
            ..EngineConfig::default()
        },
    );
    storm(
        |last_round| {
            let (epoch, rounds) = submitted_rounds(&engine);
            assert_one_round(epoch, &rounds, last_round);
        },
        |round| {
            store.apply(keyspace().map(|k| MapEdit::Insert(k, round)));
        },
    );
}

/// Staged batches commit whole: the storm stages each 64-key round (over
/// all 8 shards) through admission, and every batch answered through
/// `Engine::submit` must see a single round — no epoch holds part of a
/// staged batch.
#[test]
fn staged_multi_shard_batches_are_atomic() {
    let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(SHARDS));
    store.apply(keyspace().map(|k| MapEdit::Insert(k, 0)));
    let engine = Engine::with_config(
        Arc::clone(&store),
        EngineConfig {
            read_workers: 2,
            ..EngineConfig::default()
        },
    );
    storm(
        |last_round| {
            let (epoch, rounds) = submitted_rounds(&engine);
            assert_one_round(epoch, &rounds, last_round);
        },
        |round| {
            engine
                .stage(keyspace().map(|k| MapEdit::Insert(k, round)))
                .wait()
                .expect("no applier faulted");
        },
    );
}

/// Transactions under a conflict storm: concurrent transfers between
/// accounts on different shards preserve the total balance in *every*
/// pinned epoch (serializability observable mid-flight, not just at the
/// end), every conflicted attempt retries, and no increment is lost.
#[test]
fn transactional_transfers_hold_the_invariant_in_every_epoch() {
    const ACCOUNTS: u32 = 16;
    const BALANCE: u32 = 1000;
    const TRANSFERS_PER_THREAD: usize = 150;
    let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(SHARDS));
    store.apply((0..ACCOUNTS).map(|k| MapEdit::Insert(k, BALANCE)));
    let engine = Arc::new(Engine::with_config(
        Arc::clone(&store),
        EngineConfig {
            read_workers: 1,
            txn_attempts: 1_000, // the storm is the point; never give up
            ..EngineConfig::default()
        },
    ));

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Invariant checker: every pin must sum to exactly 16 * 1000.
        {
            let store = &store;
            let done = &done;
            s.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    let snap = store.snapshot();
                    let total: u32 = (0..ACCOUNTS).map(|k| snap.get(&k).copied().unwrap()).sum();
                    assert_eq!(
                        total,
                        ACCOUNTS * BALANCE,
                        "balance leaked at epoch {}",
                        snap.epoch()
                    );
                }
            });
        }
        // Inner scope: joins every transfer thread before the checker is
        // told to stop.
        std::thread::scope(|transfers| {
            for t in 0..4u32 {
                let engine = Arc::clone(&engine);
                transfers.spawn(move || {
                    for i in 0..TRANSFERS_PER_THREAD {
                        let from = (t * 31 + i as u32 * 7) % ACCOUNTS;
                        let to = (from + 1 + (i as u32 % (ACCOUNTS - 1))) % ACCOUNTS;
                        engine
                            .transact(|txn| {
                                let MapReply::Value(Some(a)) = txn.read(&MapRead::Get(from)) else {
                                    unreachable!()
                                };
                                let MapReply::Value(Some(b)) = txn.read(&MapRead::Get(to)) else {
                                    unreachable!()
                                };
                                if a > 0 {
                                    txn.write(MapEdit::Insert(from, a - 1));
                                    txn.write(MapEdit::Insert(to, b + 1));
                                }
                            })
                            .expect("txn attempt budget");
                    }
                });
            }
        });
        done.store(true, Ordering::Relaxed);
    });

    let snap = store.snapshot();
    let total: u32 = (0..ACCOUNTS).map(|k| snap.get(&k).copied().unwrap()).sum();
    assert_eq!(total, ACCOUNTS * BALANCE);
    let stats = engine.stats();
    assert_eq!(stats.txn_commits, 4 * TRANSFERS_PER_THREAD as u64);

    // The storm may or may not race on a single CPU, so force a conflict
    // deterministically: invalidate the transaction's read set behind its
    // back on the first attempt and require a retry.
    let mut sabotaged = false;
    let out = engine
        .transact(|txn| {
            let MapReply::Value(Some(a)) = txn.read(&MapRead::Get(0)) else {
                unreachable!()
            };
            if !sabotaged {
                sabotaged = true;
                store.apply([MapEdit::Insert(0, a)]); // same value, new epoch
            }
            txn.write(MapEdit::Insert(0, a));
        })
        .expect("sabotaged txn still commits on retry");
    assert!(out.attempts >= 2, "stale read set must force a retry");
    assert!(
        engine.stats().txn_conflicts > stats.txn_conflicts,
        "conflict must be counted"
    );
}
