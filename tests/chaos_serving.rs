//! Deterministic chaos suite: seeded fault plans inject panics at named
//! sites across the serving stack, and the engine must degrade per
//! contract — faulted requests answer with typed errors, acked data
//! survives, no lock stays poisoned, and workers respawn.
//!
//! Runs only with `--features fault-injection` (the registry is compiled
//! out otherwise). The registry is process-global, so every test
//! serializes on one mutex.
#![cfg(feature = "fault-injection")]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use proptest::prelude::*;

use axiom_repro::serving::{Engine, EngineConfig, MapRead, MapReply, WriteError};
use axiom_repro::sharded::{ShardedMap, ShardedMultiMap};
use axiom_repro::trie_common::ops::{MapEdit, MultiMapEdit};
use axiom_repro::trie_common::snapshot::SnapshotError;
use axiom_repro::trie_common::{faults, faults::site};
use axiom_repro::workloads::faults::{chaos_plan, ChaosProfile};

/// The fault registry is one per process: chaos tests take turns.
fn serialize() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn engine_over(store: &Arc<ShardedMap<u32, u32>>) -> Engine<ShardedMap<u32, u32>> {
    Engine::with_config(
        Arc::clone(store),
        EngineConfig {
            read_workers: 1,
            lane_capacity: Some(64),
            ..EngineConfig::default()
        },
    )
}

/// The core chaos property, driven by proptest seeds: under a seeded storm
/// of applier and read-worker panics, every write ticket resolves with a
/// truthful outcome — `Ok` keys are present afterwards, `Faulted` keys are
/// absent — and once the plan drains the engine answers a full oracle
/// sweep correctly (nothing poisoned, nothing lost, nothing leaked).
fn chaos_round(seed: u64) {
    let _serial = serialize();
    let profile = ChaosProfile::panics(vec![site::APPLIER_APPLY, site::READ_WORKER], 4, 40);
    let guard = faults::install(chaos_plan(&profile, seed));

    let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(2));
    let engine = engine_over(&store);

    // Single-key batches: each is one per-shard slice, so its ticket's
    // outcome speaks for exactly one key and the oracle is exact.
    let tickets: Vec<_> = (0..120u32)
        .map(|k| (k, engine.stage([MapEdit::Insert(k, k * 2)])))
        .collect();
    let mut oracle: BTreeMap<u32, u32> = BTreeMap::new();
    let mut faulted = 0u64;
    for (k, t) in tickets {
        match t.wait() {
            Ok(_) => {
                oracle.insert(k, k * 2);
            }
            Err(WriteError::Faulted) => faulted += 1,
            Err(WriteError::Deadline) => unreachable!("no deadline was set"),
        }
    }

    // Reads during the storm may fault — but always with the typed error,
    // and the engine keeps serving afterwards.
    let mut read_faults = 0;
    for _ in 0..5 {
        if engine.submit(vec![MapRead::Len]).wait().is_err() {
            read_faults += 1;
        }
    }

    // Disarm, then verify the surviving state end-to-end via the engine.
    drop(guard);
    let reply = engine
        .submit(vec![MapRead::Scan { limit: usize::MAX }, MapRead::Len])
        .wait()
        .expect("disarmed engine must answer");
    let swept: BTreeMap<u32, u32> = reply.replies[0]
        .clone()
        .into_entries()
        .expect("scan reply")
        .into_iter()
        .collect();
    assert_eq!(
        swept, oracle,
        "seed {seed}: state diverged from ticket outcomes"
    );
    assert_eq!(reply.replies[1], MapReply::Count(oracle.len()));

    let stats = engine.stats();
    assert_eq!(stats.write_faults, faulted, "every fault was counted");
    assert!(stats.read_faults >= read_faults);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn seeded_panic_storms_never_lose_acked_writes(seed in any::<u64>()) {
        chaos_round(seed);
    }
}

/// A panic at the drain site (outside the job guard) kills the applier
/// thread with everything still queued: the supervisor respawns it and no
/// staged write is lost — the lossless-respawn half of the fault model.
#[test]
fn drain_site_panics_respawn_the_applier_without_losing_writes() {
    let _serial = serialize();
    // Hit 0 fires the moment the applier starts (first drain call), hit 2
    // after it has served one batch: both respawn paths are exercised.
    let guard = faults::install(
        faults::FaultPlan::new()
            .panic_at(site::APPLIER_DRAIN, 0)
            .panic_at(site::APPLIER_DRAIN, 2),
    );

    let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(1));
    let engine = engine_over(&store);
    for k in 0..20u32 {
        engine
            .stage([MapEdit::Insert(k, k)])
            .wait()
            .expect("drain-site panics must not fault tickets");
    }
    drop(guard);

    assert!(engine.stats().worker_respawns >= 2, "both panics respawned");
    assert_eq!(engine.stats().write_faults, 0);
    let snap = engine.pin();
    for k in 0..20u32 {
        assert_eq!(snap.get(&k), Some(&k), "write {k} lost across a respawn");
    }
}

/// A read worker panic faults exactly the batch it carried; the next batch
/// answers normally from the same (respawn-free) worker.
#[test]
fn read_worker_panic_faults_one_batch_then_recovers() {
    let _serial = serialize();
    let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(2));
    let engine = engine_over(&store);
    engine
        .stage([MapEdit::Insert(9, 90)])
        .wait()
        .expect("setup write");

    let guard = faults::install(faults::FaultPlan::new().panic_at(site::READ_WORKER, 0));
    let first = engine.submit(vec![MapRead::Get(9)]);
    let second = engine.submit(vec![MapRead::Get(9)]);
    assert!(first.wait().is_err(), "the hit batch must fault");
    let reply = second.wait().expect("the next batch answers normally");
    assert_eq!(reply.replies[0], MapReply::Value(Some(90)));
    drop(guard);
    assert_eq!(engine.stats().read_faults, 1);
    assert_eq!(
        engine.stats().worker_respawns,
        0,
        "job guards absorb the panic"
    );
}

/// A panic at the publish-commit site happens before the epoch lock is
/// taken: nothing is published, nothing is poisoned, and the next commit
/// proceeds on the same cell.
#[test]
fn publish_commit_panic_publishes_nothing_and_poisons_nothing() {
    let _serial = serialize();
    let store: ShardedMap<u32, u32> = ShardedMap::with_shards(2);
    store.apply([MapEdit::Insert(1, 1)]);
    let before = store.current_epoch();

    let guard = faults::install(faults::FaultPlan::new().panic_at(site::PUBLISH_COMMIT, 0));
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        store.apply([MapEdit::Insert(2, 2)]);
    }));
    assert!(attempt.is_err(), "the injected panic must surface");
    assert_eq!(store.current_epoch(), before, "a torn commit published");
    assert_eq!(store.get_cloned(&2), None);

    // Hit 1 is unplanned: the same cell commits normally afterwards.
    store.apply([MapEdit::Insert(3, 3)]);
    assert_eq!(store.current_epoch(), before + 1);
    assert_eq!(store.get_cloned(&3), Some(3));
    drop(guard);
}

/// Staged single-shard transfers hold their sum invariant in every pinned
/// epoch even while appliers panic: batches apply whole or not at all, so
/// no snapshot can ever observe half a transfer.
#[test]
fn transfer_invariant_holds_in_every_epoch_under_applier_panics() {
    const ACCOUNTS: u32 = 8;
    const BALANCE: u32 = 100;
    let _serial = serialize();
    let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(1));
    store.apply((0..ACCOUNTS).map(|k| MapEdit::Insert(k, BALANCE)));

    let profile = ChaosProfile::panics(vec![site::APPLIER_APPLY], 4, 30);
    let guard = faults::install(chaos_plan(&profile, 0xC4A05));
    let engine = engine_over(&store);

    let done = AtomicBool::new(false);
    let mut faulted = 0u32;
    std::thread::scope(|s| {
        let store = &store;
        let done = &done;
        s.spawn(move || {
            while !done.load(Ordering::Relaxed) {
                let snap = store.snapshot();
                let total: u32 = (0..ACCOUNTS).map(|k| *snap.get(&k).unwrap()).sum();
                assert_eq!(
                    total,
                    ACCOUNTS * BALANCE,
                    "epoch {} tore a transfer",
                    snap.epoch()
                );
            }
        });
        for i in 0..60u32 {
            let from = i % ACCOUNTS;
            let to = (i + 3) % ACCOUNTS;
            if from == to {
                continue;
            }
            let snap = store.snapshot();
            let (a, b) = (*snap.get(&from).unwrap(), *snap.get(&to).unwrap());
            if a == 0 {
                continue;
            }
            // Sequential staging (wait each ack) keeps the next transfer's
            // balances honest whether this one applied or faulted.
            let t = engine.stage([MapEdit::Insert(from, a - 1), MapEdit::Insert(to, b + 1)]);
            if t.wait().is_err() {
                faulted += 1;
            }
        }
        done.store(true, Ordering::Relaxed);
    });
    drop(guard);

    assert!(faulted >= 1, "the plan must actually bite");
    let snap = store.snapshot();
    let total: u32 = (0..ACCOUNTS).map(|k| *snap.get(&k).unwrap()).sum();
    assert_eq!(total, ACCOUNTS * BALANCE);
}

/// Snapshot worker panics surface as `WorkerPanicked` — on both the encode
/// and decode side — instead of propagating out of the join.
#[test]
fn snapshot_worker_panics_become_typed_errors() {
    let _serial = serialize();
    let mm: ShardedMultiMap<u32, u32> =
        ShardedMultiMap::build_parallel(4, (0..200u32).map(|i| (i % 20, i)));

    {
        let _guard = faults::install(faults::FaultPlan::new().panic_at(site::SNAPSHOT_ENCODE, 0));
        assert_eq!(mm.save_snapshot(), Err(SnapshotError::WorkerPanicked));
    }
    let bytes = mm.save_snapshot().expect("disarmed encode succeeds");

    {
        let _guard = faults::install(faults::FaultPlan::new().panic_at(site::SNAPSHOT_DECODE, 0));
        assert_eq!(
            ShardedMultiMap::<u32, u32>::load_snapshot(&bytes, 4).unwrap_err(),
            SnapshotError::WorkerPanicked
        );
    }
    let restored =
        ShardedMultiMap::<u32, u32>::load_snapshot(&bytes, 4).expect("disarmed decode succeeds");
    assert_eq!(restored.tuple_count(), 200);

    // The multimap edit type is otherwise unused here; keep the import
    // honest by touching the store once.
    mm.apply([MultiMapEdit::Insert(999, 1)]);
    assert_eq!(mm.tuple_count(), 201);
}
