//! Guards the README's quick-start snippet: this file mirrors it verbatim,
//! so if the public API drifts, this test fails before the docs rot.
use axiom_repro::axiom::AxiomMultiMap;
use axiom_repro::trie_common::ops::{Builder, MultiMapOps, TransientOps};

#[test]
fn readme_sharded_quick_start() {
    use axiom_repro::sharded::ShardedMultiMap;
    use axiom_repro::trie_common::ops::MultiMapEdit;

    let mm: ShardedMultiMap<u32, u32> =
        ShardedMultiMap::build_parallel(4, (0..1000u32).map(|i| (i % 100, i)));
    assert_eq!(mm.tuple_count(), 1000);

    let snap = mm.snapshot();
    mm.apply((0..50u32).map(MultiMapEdit::RemoveKey));
    assert_eq!(snap.tuple_count(), 1000);
    assert_eq!(mm.key_count(), 50);
    assert!(snap.contains_key(&7));
}

#[test]
fn readme_snapshot_quick_start() {
    use axiom_repro::axiom::AxiomMultiMap;
    use axiom_repro::sharded::ShardedMultiMap;
    use axiom_repro::trie_common::snapshot::{SnapshotRead, SnapshotWrite};

    let mm: ShardedMultiMap<u32, u32> =
        ShardedMultiMap::build_parallel(8, (0..1000u32).map(|i| (i % 100, i)));

    // Parallel per-shard encode; readers/writers are never blocked.
    let bytes = mm.save_snapshot().unwrap();

    // Restore at a different shard count: elements re-route automatically.
    let narrow: ShardedMultiMap<u32, u32> = ShardedMultiMap::load_snapshot(&bytes, 2).unwrap();
    assert_eq!(narrow.tuple_count(), 1000);

    // The same bytes restore into a plain (unsharded) trie, and back.
    let plain: AxiomMultiMap<u32, u32> = AxiomMultiMap::read_snapshot(&bytes).unwrap();
    assert_eq!(plain.tuple_count(), 1000);
    let rebytes = plain.snapshot_bytes().unwrap();
    assert_eq!(
        ShardedMultiMap::<u32, u32>::load_snapshot(&rebytes, 8)
            .unwrap()
            .key_count(),
        100
    );
}

#[test]
fn readme_set_algebra() {
    use axiom_repro::axiom::AxiomSet;
    use axiom_repro::trie_common::ops::SetAlgebraOps;

    // Two versions sharing structure: freeze, then edit.
    let v1: AxiomSet<u32> = (0..1_000).collect();
    let v2 = v1.removed(&3).inserted(1_000);

    // Node-merging walks that skip shared subtrees; `|`, `&`, `-` sugar.
    let union = v1.union(&v2);
    assert_eq!(union.len(), 1_001);
    assert_eq!(&v1 | &v2, union);
    assert_eq!((&v1 - &v2).len(), 1);

    // diff reports exactly the edits between the versions.
    let d = v1.diff(&v2);
    assert_eq!((d.added, d.removed), (vec![1_000], vec![3]));

    // The surface is generic: write the algorithm once, run it over any
    // set in the workspace (same for maps and multi-maps).
    fn sym_diff<S: SetAlgebraOps<u32>>(a: &S, b: &S) -> S {
        a.difference(b).union(&b.difference(a))
    }
    assert_eq!(sym_diff(&v1, &v2).len(), 2);
}

#[test]
fn readme_quick_start() {
    let deps = AxiomMultiMap::<&str, &str>::built_from([
        ("typeck", "parser"),
        ("codegen", "typeck"),
        ("codegen", "layout"),
    ]);
    assert_eq!(deps.value_count(&"codegen"), 2);
    let mut co: Vec<&str> = deps.values_of(&"codegen").copied().collect();
    co.sort();
    assert_eq!(co, ["layout", "typeck"]);
    assert_eq!(deps.tuples().count(), 3);
    let pruned = deps.key_removed(&"codegen");
    assert_eq!(pruned.key_count(), 1);
    assert_eq!(deps.key_count(), 2);
    let mut t = pruned.transient();
    t.insert_all_mut([("parser", "lexer"), ("lexer", "unicode")]);
    assert_eq!(t.build().key_count(), 3);
}

#[test]
fn readme_wire_protocol() {
    use std::sync::Arc;

    use axiom_repro::serving::{
        Engine, MapClient, MapRead, MapReply, ScriptOp, ScriptReply, Server,
    };
    use axiom_repro::sharded::ShardedMap;
    use axiom_repro::trie_common::ops::MapEdit;

    let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(8));
    let server = Server::spawn(Arc::new(Engine::new(store)), "127.0.0.1:0").unwrap();

    // A pipelined script: many requests in flight on one connection,
    // replies strictly in script order — and a read later in the script
    // observes writes earlier in it (the server fences it behind them),
    // even though neither response had come back when the read was sent.
    let mut client: MapClient<u32, u32> = MapClient::connect(server.local_addr()).unwrap();
    let replies = client
        .pipeline(vec![
            ScriptOp::Write(vec![MapEdit::Insert(1, 10), MapEdit::Insert(2, 20)]),
            ScriptOp::Read(vec![MapRead::Get(1), MapRead::Len]),
        ])
        .unwrap();
    let ScriptReply::Write(epoch) = replies[0] else {
        unreachable!()
    };
    let ScriptReply::Read(batch) = &replies[1] else {
        unreachable!()
    };
    assert!(batch.epoch >= epoch);
    assert_eq!(batch.replies[0], MapReply::Value(Some(10)));
    assert_eq!(batch.replies[1], MapReply::Count(2));

    // A *different* connection can resume at the session's epoch:
    // read-your-writes across connections, carried in the frame header.
    let mut reader: MapClient<u32, u32> = MapClient::connect(server.local_addr()).unwrap();
    reader.resume_at(client.last_epoch());
    let reply = reader.read(vec![MapRead::Get(2)]).unwrap();
    assert_eq!(reply.replies[0], MapReply::Value(Some(20)));

    // Engine counters cross the wire too (the Stats op).
    assert_eq!(reader.stats().unwrap().write_edits, 2);
    server.shutdown();
}

#[test]
fn readme_serving_engine() {
    use std::sync::Arc;

    use axiom_repro::serving::{Engine, EngineConfig, MapRead, MapReply};
    use axiom_repro::sharded::ShardedMap;
    use axiom_repro::trie_common::ops::MapEdit;

    let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(8));
    // Bound the admission queue at 64 staged batches: `stage` now applies
    // back-pressure and `try_stage` sheds (handing the batch back) when full.
    let engine = Engine::with_config(
        Arc::clone(&store),
        EngineConfig {
            lane_capacity: Some(64),
            ..EngineConfig::default()
        },
    );

    // Writes go through admission; the ack reports their visibility epoch.
    let visible = engine
        .stage(vec![MapEdit::Insert(1, 10), MapEdit::Insert(2, 20)])
        .wait()
        .expect("no applier faulted");

    // A read batch is answered from one epoch — never a torn view.
    let reply = engine
        .submit(vec![MapRead::Get(1), MapRead::Len])
        .wait()
        .expect("no read worker faulted");
    assert!(reply.epoch >= visible);
    assert_eq!(reply.replies[0], MapReply::Value(Some(10)));
    assert_eq!(reply.replies[1], MapReply::Count(2));

    // Optimistic transaction: reads are validated at commit, retried on
    // conflict, so concurrent increments never lose updates.
    let out = engine
        .transact(|txn| {
            let MapReply::Value(v) = txn.read(&MapRead::Get(1)) else {
                unreachable!()
            };
            txn.write(MapEdit::Insert(1, v.unwrap_or(0) + 1));
        })
        .unwrap();
    assert_eq!(out.attempts, 1);
    assert_eq!(store.get_cloned(&1), Some(11));
}
