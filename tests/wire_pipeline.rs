//! Pipelined wire serving, end to end: [`Client::pipeline`] scripts of
//! interleaved read/write batches against a loopback [`Server`], checked
//! against a `BTreeMap` oracle.
//!
//! The contract under test: replies come back strictly in script order;
//! a read later in a script observes writes earlier in it (the server
//! fences it behind the connection's writes), even when neither response
//! has reached the client yet; answering epochs are monotone per session;
//! per-op failures land in their slot as [`ScriptReply::Failed`] without
//! aborting the rest of the script; and all of it holds with several
//! clients pipelining concurrently and with a server pipeline depth far
//! smaller than the script (backpressure, not reordering).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use axiom_repro::serving::session::MapClient;
use axiom_repro::serving::{
    Engine, MapRead, MapReply, ScriptOp, ScriptReply, Server, ServerConfig, Status,
};
use axiom_repro::sharded::ShardedMap;
use axiom_repro::trie_common::ops::MapEdit;

type Op = ScriptOp<MapRead<u32>, MapEdit<u32, u32>>;
type Reply = ScriptReply<MapReply<u32, u32>>;
/// Per-slot expected replies: `None` for write slots, the oracle's
/// answers for read slots.
type Expected = Vec<Option<Vec<MapReply<u32, u32>>>>;

fn spawn_server(shards: usize, config: ServerConfig) -> (Server, SocketAddr) {
    let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(shards));
    let engine = Arc::new(Engine::new(store));
    let server = Server::spawn_with(engine, "127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    (server, addr)
}

/// Builds an interleaved script over `base..base + span` and the replies
/// a correct server must produce, mirrored through a local oracle. Every
/// read probes keys written *earlier in the same script* (plus misses),
/// so passing requires read-your-writes inside the pipeline.
fn build_script(base: u32, span: u32, oracle: &mut BTreeMap<u32, u32>) -> (Vec<Op>, Expected) {
    let mut script = Vec::new();
    let mut expected = Vec::new();
    for step in 0..span {
        let k = base + step;
        if step % 3 == 2 {
            // A read probing this script's own recent writes, a miss,
            // and an aggregate.
            let probes = vec![
                MapRead::Get(k - 1),
                MapRead::Get(k - 2),
                MapRead::Get(base + 999_983), // always a miss
                MapRead::Len,
            ];
            let want = vec![
                MapReply::Value(oracle.get(&(k - 1)).copied()),
                MapReply::Value(oracle.get(&(k - 2)).copied()),
                MapReply::Value(None),
                MapReply::Count(oracle.len()),
            ];
            script.push(ScriptOp::Read(probes));
            expected.push(Some(want));
        } else {
            let mut edits = vec![MapEdit::Insert(k, k * 7 + base)];
            if step % 5 == 4 {
                edits.push(MapEdit::Remove(k - 3));
            }
            for edit in &edits {
                match edit {
                    MapEdit::Insert(key, v) => {
                        oracle.insert(*key, *v);
                    }
                    MapEdit::Remove(key) => {
                        oracle.remove(key);
                    }
                }
            }
            script.push(ScriptOp::Write(edits));
            expected.push(None);
        }
    }
    (script, expected)
}

/// Runs `script` and checks every reply slot against `expected`,
/// asserting in-order delivery and monotone answering epochs.
fn check_script(
    client: &mut MapClient<u32, u32>,
    script: Vec<Op>,
    expected: &[Option<Vec<MapReply<u32, u32>>>],
) {
    let len = script.len();
    let replies: Vec<Reply> = client.pipeline(script).expect("pipeline completes");
    assert_eq!(replies.len(), len, "one reply per script op, in order");
    // The per-connection ordering contract: read epochs are monotone,
    // and every read covers every write acked earlier in the script (its
    // fence follows them in the admission queue).
    let mut last_read = 0u64;
    let mut max_write = 0u64;
    for (slot, (reply, want)) in replies.iter().zip(expected).enumerate() {
        match (reply, want) {
            (ScriptReply::Write(epoch), None) => {
                assert!(*epoch >= 1, "slot {slot}: write acked at epoch 0");
                max_write = max_write.max(*epoch);
            }
            (ScriptReply::Read(batch), Some(want)) => {
                assert!(
                    batch.epoch >= last_read,
                    "slot {slot}: read epoch {} regressed below {last_read}",
                    batch.epoch
                );
                assert!(
                    batch.epoch >= max_write,
                    "slot {slot}: read epoch {} misses an acked write at {max_write}",
                    batch.epoch
                );
                last_read = batch.epoch;
                assert_eq!(&batch.replies, want, "slot {slot}: oracle mismatch");
            }
            other => panic!("slot {slot}: reply/op shape mismatch: {other:?}"),
        }
    }
    assert!(
        client.last_epoch() >= last_read.max(max_write),
        "session ratchet kept up"
    );
}

#[test]
fn pipelined_script_matches_oracle_in_order() {
    let (server, addr) = spawn_server(4, ServerConfig::default());
    let mut client: MapClient<u32, u32> = MapClient::connect(addr).expect("connect");
    let mut oracle = BTreeMap::new();

    let (script, expected) = build_script(0, 120, &mut oracle);
    check_script(&mut client, script, &expected);

    // A second script on the same session continues from the ratchet.
    let (script, expected) = build_script(200, 60, &mut oracle);
    check_script(&mut client, script, &expected);

    // Full audit over the plain (non-pipelined) path.
    let keys: Vec<u32> = oracle.keys().copied().collect();
    let reply = client
        .read(keys.iter().map(|k| MapRead::Get(*k)).collect())
        .expect("audit read");
    for (k, r) in keys.iter().zip(&reply.replies) {
        assert_eq!(r, &MapReply::Value(oracle.get(k).copied()), "key {k}");
    }
    server.shutdown();
}

#[test]
fn shallow_server_pipeline_backpressures_without_reordering() {
    // A completion queue of depth 2 against a 32-frame client window:
    // the reader half must block on queue space, never drop or reorder.
    let (server, addr) = spawn_server(
        2,
        ServerConfig {
            pipeline_depth: 2,
            ..ServerConfig::default()
        },
    );
    let mut client: MapClient<u32, u32> = MapClient::connect(addr).expect("connect");
    let mut oracle = BTreeMap::new();
    let (script, expected) = build_script(0, 150, &mut oracle);
    check_script(&mut client, script, &expected);
    server.shutdown();
}

#[test]
fn concurrent_pipelined_clients_converge_on_the_oracle() {
    let (server, addr) = spawn_server(8, ServerConfig::default());
    const CLIENTS: u32 = 4;
    const SPAN: u32 = 90;

    // Each client pipelines over a disjoint key range, checking its own
    // oracle as it goes; sizes are chosen so write slots (2 of every 3
    // steps, one extra removal every 5) stay disjoint across clients.
    let totals: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut client: MapClient<u32, u32> =
                        MapClient::connect(addr).expect("connect worker");
                    let mut oracle = BTreeMap::new();
                    for round in 0..2u32 {
                        let base = c * 10_000 + round * 1_000;
                        let (mut script, mut expected) = build_script(base, SPAN, &mut oracle);
                        // Len probes see other clients' keys too; strip
                        // them down to this client's per-key probes.
                        for (op, want) in script.iter_mut().zip(&mut expected) {
                            if let (ScriptOp::Read(ops), Some(wants)) = (op, want) {
                                ops.pop();
                                wants.pop();
                            }
                        }
                        check_script(&mut client, script, &expected);
                    }
                    oracle.len()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    // A fresh session sees the union of everything acked.
    let mut auditor: MapClient<u32, u32> = MapClient::connect(addr).expect("connect auditor");
    let reply = auditor.read(vec![MapRead::Len]).expect("len answers");
    assert_eq!(
        reply.replies[0],
        MapReply::Count(totals.iter().sum::<usize>())
    );
    server.shutdown();
}

#[test]
fn per_op_failures_fill_their_slot_without_aborting_the_script() {
    let (server, addr) = spawn_server(2, ServerConfig::default());
    let mut client: MapClient<u32, u32> = MapClient::connect(addr).expect("connect");

    // Inflate the session floor past anything published: reads must be
    // rejected with FutureEpoch, writes (which carry no floor check)
    // must keep succeeding, and every reply stays in its slot.
    client.resume_at(1_000_000);
    let script: Vec<Op> = vec![
        ScriptOp::Read(vec![MapRead::Len]),
        ScriptOp::Write(vec![MapEdit::Insert(1, 10)]),
        ScriptOp::Read(vec![MapRead::Get(1)]),
        ScriptOp::Write(vec![MapEdit::Insert(2, 20)]),
    ];
    let replies = client.pipeline(script).expect("pipeline completes");
    assert_eq!(replies.len(), 4);
    assert_eq!(replies[0], ScriptReply::Failed(Status::FutureEpoch));
    assert!(matches!(replies[1], ScriptReply::Write(_)));
    assert_eq!(replies[2], ScriptReply::Failed(Status::FutureEpoch));
    assert!(matches!(replies[3], ScriptReply::Write(_)));
    // The inflated floor survives (error epochs never lower it)…
    assert_eq!(client.last_epoch(), 1_000_000);

    // …and the writes really landed: a fresh session reads them.
    let mut checker: MapClient<u32, u32> = MapClient::connect(addr).expect("connect checker");
    let reply = checker
        .read(vec![MapRead::Get(1), MapRead::Get(2)])
        .expect("reads answer");
    assert_eq!(reply.replies[0], MapReply::Value(Some(10)));
    assert_eq!(reply.replies[1], MapReply::Value(Some(20)));
    server.shutdown();
}

#[test]
fn pipelining_is_faster_than_ping_pong_on_loopback() {
    // Not the benchmark gate (that lives in serving_net_json) — just a
    // sanity check that request overlap is real: a 256-op pipelined
    // script must beat 256 one-at-a-time exchanges on the same
    // connection. The margin is left loose for noisy CI machines.
    let (server, addr) = spawn_server(2, ServerConfig::default());
    let mut client: MapClient<u32, u32> = MapClient::connect(addr).expect("connect");
    client
        .write((0..64u32).map(|k| MapEdit::Insert(k, k)).collect())
        .expect("seed");

    const OPS: usize = 256;
    let start = std::time::Instant::now();
    for i in 0..OPS {
        client
            .read(vec![MapRead::Get((i % 64) as u32)])
            .expect("ping-pong read");
    }
    let ping_pong = start.elapsed();

    let script: Vec<Op> = (0..OPS)
        .map(|i| ScriptOp::Read(vec![MapRead::Get((i % 64) as u32)]))
        .collect();
    let start = std::time::Instant::now();
    let replies = client.pipeline(script).expect("pipelined reads");
    let pipelined = start.elapsed();
    assert_eq!(replies.len(), OPS);

    assert!(
        pipelined < ping_pong.max(Duration::from_millis(2)),
        "pipelined {pipelined:?} should beat ping-pong {ping_pong:?}"
    );
    server.shutdown();
}

/// The workload generator's read/write timelines, spliced into one
/// pipelined script by `interleave_script`, match an in-order oracle
/// replay. This is the bridge between the traffic generator (which
/// models reads and writes as separate timelines for the concurrent
/// benches) and the pipelined client (which wants one script): read
/// fences make "replay the script in order" the correct oracle
/// semantics.
#[test]
fn workload_timelines_pipeline_against_the_oracle() {
    use std::collections::BTreeSet;

    use axiom_repro::serving::{MultiMapClient, MultiMapRead, MultiMapReply};
    use axiom_repro::sharded::ShardedMultiMap;
    use axiom_repro::trie_common::ops::MultiMapEdit;
    use axiom_repro::workloads::concurrent::{
        interleave_script, serving_workload, KeyMix, ReadProbe, ServingProfile,
    };

    fn to_op(probe: &ReadProbe) -> MultiMapRead<u32, u32> {
        match probe {
            ReadProbe::ValuesOf(k) => MultiMapRead::ValuesOf(*k),
            ReadProbe::ContainsKey(k) => MultiMapRead::ContainsKey(*k),
            ReadProbe::FanOut(ks) => MultiMapRead::FanOut(ks.clone()),
        }
    }

    fn values_of(oracle: &BTreeMap<u32, BTreeSet<u32>>, k: u32) -> Vec<u32> {
        oracle
            .get(&k)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    let profile = ServingProfile {
        keys: 64,
        read_batches: 40,
        reads_per_batch: 4,
        write_batches: 20,
        writes_per_batch: 3,
        mix: KeyMix::Zipf { exponent: 1.0 },
        fanout_every: 5,
        fanout_width: 3,
    };
    let w = serving_workload(&profile, 0xa11_0c8);

    let store: Arc<ShardedMultiMap<u32, u32>> =
        Arc::new(ShardedMultiMap::build_parallel(4, w.base.iter().copied()));
    let engine = Arc::new(Engine::new(store));
    let server = Server::spawn(engine, "127.0.0.1:0").expect("bind loopback");

    let mut oracle: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for &(k, v) in &w.base {
        oracle.entry(k).or_default().insert(v);
    }

    // Two read batches per write batch, straight off the timelines.
    let script: Vec<ScriptOp<MultiMapRead<u32, u32>, MultiMapEdit<u32, u32>>> = interleave_script(
        w.read_batches.clone(),
        w.write_batches.clone(),
        2,
        |probes| ScriptOp::Read(probes.iter().map(to_op).collect()),
        ScriptOp::Write,
    );

    // Replay the script against the oracle to derive the expected reply
    // for every read slot (None for write slots).
    let mut expected: Vec<Option<Vec<MultiMapReply<u32, u32>>>> = Vec::new();
    for op in &script {
        match op {
            ScriptOp::Write(edits) => {
                for edit in edits {
                    match edit {
                        MultiMapEdit::Insert(k, v) => {
                            oracle.entry(*k).or_default().insert(*v);
                        }
                        MultiMapEdit::RemoveTuple(k, v) => {
                            if let Some(set) = oracle.get_mut(k) {
                                set.remove(v);
                                if set.is_empty() {
                                    oracle.remove(k);
                                }
                            }
                        }
                        MultiMapEdit::RemoveKey(k) => {
                            oracle.remove(k);
                        }
                    }
                }
                expected.push(None);
            }
            ScriptOp::Read(probes) => {
                let want = probes
                    .iter()
                    .map(|p| match p {
                        MultiMapRead::ValuesOf(k) => MultiMapReply::Values(values_of(&oracle, *k)),
                        MultiMapRead::ContainsKey(k) => MultiMapReply::Bool(oracle.contains_key(k)),
                        MultiMapRead::FanOut(ks) => MultiMapReply::FanOut(
                            ks.iter().map(|k| (*k, values_of(&oracle, *k))).collect(),
                        ),
                        other => unreachable!("generator does not emit {other:?}"),
                    })
                    .collect();
                expected.push(Some(want));
            }
        }
    }

    let mut client: MultiMapClient<u32, u32> =
        MultiMapClient::connect(server.local_addr()).expect("connect");
    let replies = client.pipeline(script).expect("pipelined workload script");
    assert_eq!(replies.len(), expected.len());

    for (slot, (reply, want)) in replies.iter().zip(&expected).enumerate() {
        match (reply, want) {
            (ScriptReply::Write(epoch), None) => {
                assert!(*epoch >= 1, "slot {slot}: write acked at epoch 0");
            }
            (ScriptReply::Read(batch), Some(want)) => {
                assert_eq!(batch.replies.len(), want.len(), "slot {slot}");
                for (got, want) in batch.replies.iter().zip(want) {
                    // The trie iterates values in hash order; sort both
                    // sides before comparing with the BTreeSet oracle.
                    let normalized = match got.clone() {
                        MultiMapReply::Values(mut vs) => {
                            vs.sort_unstable();
                            MultiMapReply::Values(vs)
                        }
                        MultiMapReply::FanOut(mut per_key) => {
                            for (_, vs) in &mut per_key {
                                vs.sort_unstable();
                            }
                            MultiMapReply::FanOut(per_key)
                        }
                        other => other,
                    };
                    assert_eq!(&normalized, want, "slot {slot}");
                }
            }
            (got, _) => panic!("slot {slot}: reply kind mismatch: {got:?}"),
        }
    }
    server.shutdown();
}
