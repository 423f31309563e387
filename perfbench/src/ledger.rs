//! The traced run's per-layer ledger for a served store: a fixed sample
//! of the workload's own requests is replayed through each layer's public
//! functions, from the wire down to the trie, and each call is recorded
//! as a span carrying the request's script index.
//!
//! The crates have no spans of their own, so the replays at different
//! layers are separate calls, not nested ones. A layer's self time is its
//! inclusive time minus the inclusive time of the boundary beneath it,
//! for the same request. Each layer sweeps the sample twice and times the
//! second sweep, so every layer sees the same warm cache.

use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use axiom::AxiomMultiMap;
use serving::proto::{decode_value, encode_value};
use serving::{Engine, MultiMapClient, MultiMapRead, ScriptOp};
use sharded::ShardedMultiMap;

use crate::driver::{check_shape, Edit, Op, Read, Reply, Request};
use crate::report::Metric;
use crate::stats::median;
use crate::trace::{Recorder, NO_REQUEST};

/// The served store every wire workload uses.
pub type Store = ShardedMultiMap<u32, u32, AxiomMultiMap<u32, u32>>;

/// Read requests replayed per layer.
const READ_SAMPLES: usize = 512;
/// Write requests replayed per layer.
const WRITE_SAMPLES: usize = 128;
/// One-op ping-pongs for the round-trip floor.
const PINGS: usize = 1000;

/// Which script requests the traced run samples: every k-th read and
/// every k-th write, so the sample spans the whole script.
pub fn sample_mask(script: &[Request]) -> Vec<bool> {
    let reads = script
        .iter()
        .filter(|r| matches!(r.op, Op::Read(_)))
        .count();
    let writes = script.len() - reads;
    let (every_read, every_write) = (
        (reads / READ_SAMPLES).max(1),
        (writes / WRITE_SAMPLES).max(1),
    );
    let (mut r, mut w) = (0usize, 0usize);
    script
        .iter()
        .map(|req| match req.op {
            Op::Read(_) => {
                r += 1;
                (r - 1) % every_read == 0
            }
            Op::Write(_) => {
                w += 1;
                (w - 1) % every_write == 0
            }
        })
        .collect()
}

/// A served store under measurement.
pub struct Served<'a> {
    /// The store behind the engine.
    pub store: &'a Arc<Store>,
    /// The engine behind the server.
    pub engine: &'a Arc<Engine<Store>>,
    /// The server's address.
    pub addr: SocketAddr,
    /// The workload's script.
    pub script: &'a [Request],
    /// Which script requests to replay.
    pub sampled: &'a [bool],
}

/// How a probe is asked at the trie layer.
#[derive(Clone, Copy)]
enum Probe {
    Count(u32),
    Contains(u32),
}

fn probes(ops: &[Read]) -> Vec<Probe> {
    ops.iter()
        .flat_map(|op| match op {
            MultiMapRead::ValuesOf(k) => vec![Probe::Count(*k)],
            MultiMapRead::ContainsKey(k) => vec![Probe::Contains(*k)],
            MultiMapRead::FanOut(ks) => ks.iter().map(|k| Probe::Count(*k)).collect(),
            other => panic!("the scripts never send {other:?}"),
        })
        .collect()
}

/// Per-request inclusive times (ns) of one read at every layer.
#[derive(Default, Clone, Copy)]
struct ReadTimes {
    wire: f64,
    encode: f64,
    decode: f64,
    submit: f64,
    execute: f64,
    pin: f64,
    sharded: f64,
    axiom: f64,
    probes: f64,
    request_bytes: f64,
    reply_bytes: f64,
}

/// Times `f` twice and records only the second call as a span.
fn warm<T>(
    rec: &Recorder,
    layer: &'static str,
    name: &'static str,
    parent: u64,
    request: u64,
    mut f: impl FnMut() -> T,
) -> (T, u64, f64) {
    black_box(f());
    let (out, id, ns) = rec.time(layer, name, parent, request, f);
    (out, id, ns as f64)
}

/// Replays the sampled requests through every layer of the served store
/// and returns the per-layer metrics plus the layer table's rows.
pub fn served_layers(rec: &Recorder, s: &Served) -> Result<(Vec<Metric>, Vec<Row>), String> {
    let reads: Vec<(usize, &Vec<Read>)> = s
        .script
        .iter()
        .enumerate()
        .filter(|(i, _)| s.sampled[*i])
        .filter_map(|(i, r)| match &r.op {
            Op::Read(ops) => Some((i, ops)),
            Op::Write(_) => None,
        })
        .collect();
    let writes: Vec<(usize, &Vec<Edit>)> = s
        .script
        .iter()
        .enumerate()
        .filter(|(i, _)| s.sampled[*i])
        .filter_map(|(i, r)| match &r.op {
            Op::Write(edits) => Some((i, edits)),
            Op::Read(_) => None,
        })
        .collect();
    let mut client: MultiMapClient<u32, u32> =
        MultiMapClient::connect(s.addr).map_err(|e| format!("ledger connect: {e}"))?;

    let mut times = vec![ReadTimes::default(); reads.len()];
    for (t, &(idx, ops)) in times.iter_mut().zip(&reads) {
        let req = idx as u64;
        // serving.net: one framed round trip through the session client.
        let (reply, wire_id, wire) = warm(rec, "serving.net", "read", 0, req, || {
            client.read(ops.clone())
        });
        let reply = reply.map_err(|e| format!("ledger read: {e}"))?;
        check_shape(ops, &reply.replies)?;
        // serving.proto: both directions' encode and decode.
        let (req_bytes, _, enc_req) =
            warm(rec, "serving.proto", "encode_request", wire_id, req, || {
                encode_value(ops).expect("ops encode")
            });
        let (reply_bytes, _, enc_reply) =
            warm(rec, "serving.proto", "encode_reply", wire_id, req, || {
                encode_value(&reply.replies).expect("replies encode")
            });
        let (_, _, dec_req) = warm(rec, "serving.proto", "decode_request", wire_id, req, || {
            decode_value::<Vec<Read>>(&req_bytes).expect("ops decode")
        });
        let (_, _, dec_reply) = warm(rec, "serving.proto", "decode_reply", wire_id, req, || {
            decode_value::<Vec<Reply>>(&reply_bytes).expect("replies decode")
        });
        // serving.engine: the read pool, then the in-thread answer.
        let (_, submit_id, submit) = warm(rec, "serving.engine", "submit", wire_id, req, || {
            s.engine.submit(ops.clone()).wait()
        });
        let (answer, execute_id, execute) =
            warm(rec, "serving.engine", "execute", submit_id, req, || {
                s.engine.execute(ops)
            });
        check_shape(ops, &answer.replies)?;
        // sharded: the pin, then probes routed through the snapshot.
        let (snap, _, pin) = warm(rec, "sharded", "pin", execute_id, req, || {
            s.store.snapshot()
        });
        let keys = probes(ops);
        let (_, sharded_id, sharded) = warm(rec, "sharded", "probe", execute_id, req, || {
            keys.iter()
                .map(|p| match *p {
                    Probe::Count(k) => snap.value_count(&k),
                    Probe::Contains(k) => snap.contains_key(&k) as usize,
                })
                .sum::<usize>()
        });
        // axiom: the same probes straight on each key's shard trie.
        let routed: Vec<(&AxiomMultiMap<u32, u32>, Probe)> = keys
            .iter()
            .map(|p| {
                let (Probe::Count(k) | Probe::Contains(k)) = *p;
                (snap.shard(snap.shard_of(&k)), *p)
            })
            .collect();
        let (_, _, axiom) = warm(rec, "axiom", "probe", sharded_id, req, || {
            routed
                .iter()
                .map(|(trie, p)| match *p {
                    Probe::Count(k) => trie.value_count(&k),
                    Probe::Contains(k) => trie.contains_key(&k) as usize,
                })
                .sum::<usize>()
        });
        *t = ReadTimes {
            wire,
            encode: enc_req + enc_reply,
            decode: dec_req + dec_reply,
            submit,
            execute,
            pin,
            sharded,
            axiom,
            probes: keys.len() as f64,
            request_bytes: req_bytes.len() as f64,
            reply_bytes: reply_bytes.len() as f64,
        };
    }

    let mut apply = Vec::new();
    let mut stage = Vec::new();
    for &(idx, edits) in &writes {
        let req = idx as u64;
        let (_, _, ns) = warm(rec, "sharded", "apply", 0, req, || {
            s.store.apply(edits.iter().cloned())
        });
        apply.push(ns);
        let (acked, _, ns) = warm(rec, "serving.engine", "stage", 0, req, || {
            s.engine.stage(edits.iter().cloned()).wait()
        });
        acked.map_err(|e| format!("ledger stage: {e}"))?;
        stage.push(ns);
    }

    // The round-trip floor: one-op reads ping-ponged on the same server.
    let first_key = match reads.first().map(|(_, ops)| probes(ops)[0]) {
        Some(Probe::Count(k) | Probe::Contains(k)) => k,
        None => return Err("the script has no reads to sample".into()),
    };
    let mut rtt = Vec::with_capacity(PINGS);
    for i in 0..PINGS + PINGS / 10 {
        let t = Instant::now();
        client
            .read(vec![MultiMapRead::ContainsKey(first_key)])
            .map_err(|e| format!("ping: {e}"))?;
        if i >= PINGS / 10 {
            rtt.push(t.elapsed().as_nanos() as f64);
        }
    }

    // The sample again, pipelined at window 16 through `Client::pipeline`.
    client.set_pipeline_window(16);
    let script: Vec<ScriptOp<Read, Edit>> = s
        .script
        .iter()
        .enumerate()
        .filter(|(i, _)| s.sampled[*i])
        .map(|(_, r)| match &r.op {
            Op::Read(ops) => ScriptOp::Read(ops.clone()),
            Op::Write(edits) => ScriptOp::Write(edits.clone()),
        })
        .collect();
    let mut windowed = Vec::new();
    for _ in 0..3 {
        let ops = script.clone();
        let n = ops.len() as f64;
        let (replies, _, ns) = rec.time("serving.net", "pipeline", 0, NO_REQUEST, || {
            client.pipeline(ops)
        });
        let replies = replies.map_err(|e| format!("pipeline: {e}"))?;
        if replies.len() != script.len() {
            return Err("pipeline lost replies".into());
        }
        windowed.push(ns as f64 / n);
    }

    // Snapshot save and restore, per tuple of the current store.
    let tuples = s.store.tuple_count() as f64;
    let bytes = s.store.save_snapshot().map_err(|e| format!("save: {e}"))?;
    let (restored, _, restore) = rec.time("sharded", "load_snapshot", 0, NO_REQUEST, || {
        Store::load_snapshot(&bytes, s.store.shard_count())
    });
    let restored = restored.map_err(|e| format!("load: {e}"))?;
    if restored.tuple_count() != s.store.tuple_count() {
        return Err("snapshot restore lost tuples".into());
    }

    let med = |f: &dyn Fn(&ReadTimes) -> f64| {
        median(&times.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let residual = med(&|t| t.wire - t.encode - t.decode - t.submit);
    let n = format!("{} sampled reads", times.len());
    let nw = format!("{} sampled writes", writes.len());
    let metrics = vec![
        Metric::new("axiom.probe_ns", "ns", med(&|t| t.axiom / t.probes), &n),
        Metric::new("sharded.pin_ns", "ns", med(&|t| t.pin), &n),
        Metric::new("sharded.probe_ns", "ns", med(&|t| t.sharded / t.probes), &n),
        Metric::new(
            "sharded.apply_us",
            "us",
            median(&apply).unwrap_or(0.0) / 1e3,
            &nw,
        ),
        Metric::new(
            "sharded.restore_ns_per_tuple",
            "ns",
            restore as f64 / tuples,
            "one load_snapshot",
        ),
        Metric::new(
            "sharded.snapshot_bytes_per_tuple",
            "B",
            bytes.len() as f64 / tuples,
            "one save_snapshot",
        ),
        Metric::new(
            "serving.engine.execute_us",
            "us",
            med(&|t| t.execute) / 1e3,
            &n,
        ),
        Metric::new(
            "serving.engine.submit_us",
            "us",
            med(&|t| t.submit) / 1e3,
            &n,
        ),
        Metric::new(
            "serving.engine.stage_us",
            "us",
            median(&stage).unwrap_or(0.0) / 1e3,
            &nw,
        ),
        Metric::new("serving.proto.encode_ns", "ns", med(&|t| t.encode), &n),
        Metric::new("serving.proto.decode_ns", "ns", med(&|t| t.decode), &n),
        Metric::new(
            "serving.proto.request_bytes",
            "B",
            mean(&times, |t| t.request_bytes),
            &n,
        ),
        Metric::new(
            "serving.proto.reply_bytes",
            "B",
            mean(&times, |t| t.reply_bytes),
            &n,
        ),
        Metric::new(
            "serving.net.rtt_us",
            "us",
            median(&rtt).unwrap_or(0.0) / 1e3,
            format!("{PINGS} one-op pings"),
        ),
        Metric::new(
            "serving.net.windowed_us_per_req",
            "us",
            median(&windowed).unwrap_or(0.0) / 1e3,
            "Client::pipeline, window 16, 3 sweeps",
        ),
        Metric::new("serving.net.wire_us", "us", med(&|t| t.wire) / 1e3, &n),
        Metric::new(
            "serving.net.residual_us",
            "us",
            residual / 1e3,
            "wire - (encode + decode + submit)",
        ),
    ];
    let rows = vec![
        Row::new("serving.net", med(&|t| t.wire), residual),
        Row::new(
            "serving.proto",
            med(&|t| t.encode + t.decode),
            med(&|t| t.encode + t.decode),
        ),
        Row::new(
            "serving.engine.submit",
            med(&|t| t.submit),
            med(&|t| t.submit - t.execute),
        ),
        Row::new(
            "serving.engine.execute",
            med(&|t| t.execute),
            med(&|t| t.execute - t.pin - t.sharded),
        ),
        Row::new(
            "sharded",
            med(&|t| t.pin + t.sharded),
            med(&|t| t.pin + t.sharded - t.axiom),
        ),
        Row::new("axiom", med(&|t| t.axiom), med(&|t| t.axiom)),
    ];
    Ok((metrics, rows))
}

fn mean(times: &[ReadTimes], f: impl Fn(&ReadTimes) -> f64) -> f64 {
    times.iter().map(f).sum::<f64>() / times.len().max(1) as f64
}

/// One row of the layer table: median inclusive and self time per
/// sampled request, in ns.
pub struct Row {
    /// Layer name.
    pub layer: &'static str,
    /// Inclusive time.
    pub inclusive_ns: f64,
    /// Inclusive time minus the boundary beneath, for the same request.
    pub self_ns: f64,
}

impl Row {
    /// A row.
    pub fn new(layer: &'static str, inclusive_ns: f64, self_ns: f64) -> Row {
        Row {
            layer,
            inclusive_ns,
            self_ns,
        }
    }
}

/// Renders the layer table; shares are of `wire_ns`, the median framed
/// round trip of a sampled read. The `serving.net` row's self time is the
/// residual nothing beneath it accounts for.
pub fn render_table(workload: &str, rows: &[Row], wire_ns: f64) -> String {
    let mut out = format!(
        "# layer table: {workload} (median per sampled request; self = inclusive - boundary beneath)\n\
         {:<26} {:>14} {:>14} {:>10}\n",
        "layer", "inclusive_us", "self_us", "of_wire"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<26} {:>14.3} {:>14.3} {:>9.1}%\n",
            r.layer,
            r.inclusive_ns / 1e3,
            r.self_ns / 1e3,
            100.0 * r.self_ns / wire_ns
        ));
    }
    out
}
