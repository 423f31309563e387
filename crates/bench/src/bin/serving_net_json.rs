//! Machine-readable wire-protocol benchmark (`BENCH_net.json` at the
//! repository root): request latency and read throughput for the serving
//! stack measured *over loopback TCP* — framing, codec, session headers,
//! kernel round trip and all — rather than in-process like
//! `serving_json`.
//!
//! Each request is one framed read batch sent by a [`serving::Client`],
//! answered by [`serving::Server`] against one pinned epoch, and timed
//! end to end at the client (p50/p99 in µs). Client threads replay the
//! shared `serving_workload` request script (dealt across connections
//! with `workloads::round_robin`) while one writer connection streams
//! edit batches, acking each visibility epoch before the next — i.e.
//! read tail latency under write pressure, through the full wire path.
//! The `rtt` row is the floor underneath those numbers: a single
//! connection ping-ponging one-op batches, which is what the protocol
//! plus loopback costs before any real answering work. The `pipeline`
//! rows send the same one-op requests through
//! [`Client::pipeline`](serving::Client::pipeline) at window depths
//! 1/8/32 — the depth-1 row should track `rtt`, and the deeper rows show
//! how much of the per-request round trip pipelining recovers. Probe
//! counts come back over the wire too, via the Stats op.
//!
//! Knobs via environment (see [`paper_bench::report::Run`]):
//!
//! * `AXIOM_NET_PROFILE` — `quick` (CI smoke) or `thorough` (default;
//!   the numbers checked into the repository);
//! * `AXIOM_NET_OUT` — output path (default `BENCH_net.json`; `-` for
//!   stdout only);
//! * `AXIOM_NET_GATE` — when set, exit nonzero unless on the uniform
//!   mix: `p99_us ≤ MAX_P99_US` (50000) and `read_probes_per_sec ≥
//!   MIN_PROBES_PER_SEC` (5000), and pipelined depth-8 throughput is at
//!   least `MIN_PIPELINE_SPEEDUP` (3.0) times the same run's `rtt`
//!   ping-pong rate.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use axiom::AxiomMultiMap;
use paper_bench::read_requests;
use paper_bench::report::{cpus, percentile, Gate, Profile, Report, Row, Run};
use serving::{Engine, MultiMapClient, MultiMapRead, ScriptOp, Server};
use sharded::ShardedMultiMap;
use trie_common::ops::MultiMapEdit;
use workloads::concurrent::{round_robin, serving_workload, KeyMix, ServingProfile};

const SEED: u64 = 13;
const SHARDS: usize = 8;
const CLIENTS: usize = 2;
const PROBES_PER_REQUEST: usize = 8;

/// Gate: the uniform mix's request p99 (each request pays a kernel round
/// trip on a starved runner).
const MAX_P99_US: f64 = 50_000.0;

/// Gate: the uniform mix's read throughput.
const MIN_PROBES_PER_SEC: f64 = 5_000.0;

/// Gate: depth-8 pipelined throughput over the same run's ping-pong rate,
/// so a server that silently serializes its connections again fails.
const MIN_PIPELINE_SPEEDUP: f64 = 3.0;

type Store = ShardedMultiMap<u32, u32, AxiomMultiMap<u32, u32>>;

fn spawn_server(base: &[(u32, u32)]) -> (Server, SocketAddr) {
    let store: Arc<Store> = Arc::new(ShardedMultiMap::build_parallel(
        SHARDS,
        base.iter().copied(),
    ));
    let engine = Arc::new(Engine::new(store));
    let server = Server::spawn(engine, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    (server, addr)
}

/// Drives one traffic mix over loopback: `CLIENTS` connections replay
/// their share of the request script (timing each framed round trip)
/// while one writer connection streams edit batches, for at least
/// `min_secs`.
fn bench_mix(name: &str, mix: KeyMix, keys: usize, min_secs: f64) -> Row {
    let profile = ServingProfile {
        keys,
        read_batches: 512,
        reads_per_batch: PROBES_PER_REQUEST,
        write_batches: 64,
        writes_per_batch: 32,
        mix,
        fanout_every: 16,
        fanout_width: 8,
    };
    let w = serving_workload(&profile, SEED);
    let requests = read_requests(&w.read_batches);
    // Deal the script across connections so every client sees the whole
    // mix (a contiguous split would give one client all the storm heat).
    let lanes = round_robin(requests, CLIENTS);

    let (server, addr) = spawn_server(&w.base);

    let done = AtomicBool::new(false);
    let edits = AtomicUsize::new(0);
    let samples: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for lane in &lanes {
            let done = &done;
            let samples = &samples;
            scope.spawn(move || {
                let mut client: MultiMapClient<u32, u32> =
                    MultiMapClient::connect(addr).expect("connect reader");
                let mut local = Vec::new();
                let mut i = 0usize;
                while !done.load(Ordering::Relaxed) {
                    let ops = lane[i % lane.len()].clone();
                    let t = Instant::now();
                    let reply = client.read(ops).expect("read over the wire");
                    local.push(t.elapsed().as_nanos() as u64);
                    std::hint::black_box(reply.replies.len());
                    i += 1;
                }
                samples.lock().unwrap().extend(local);
            });
        }
        // The single writer streams edit batches, acking each visibility
        // epoch before the next so the queue depth stays bounded.
        let mut writer: MultiMapClient<u32, u32> =
            MultiMapClient::connect(addr).expect("connect writer");
        while start.elapsed().as_secs_f64() < min_secs {
            for batch in &w.write_batches {
                let edits_batch: Vec<MultiMapEdit<u32, u32>> = batch.to_vec();
                let n = edits_batch.len();
                writer.write(edits_batch).expect("write over the wire");
                edits.fetch_add(n, Ordering::Relaxed);
            }
        }
        done.store(true, Ordering::Relaxed);
    });
    let secs = start.elapsed().as_secs_f64();

    // Fetch the counters the way a remote operator would: over the wire.
    let mut auditor: MultiMapClient<u32, u32> =
        MultiMapClient::connect(addr).expect("connect auditor");
    let stats = auditor.stats().expect("stats over the wire");
    let final_epoch = auditor.last_epoch();
    server.shutdown();

    let mut lat = samples.into_inner().unwrap();
    lat.sort_unstable();
    let (p50, p99) = (percentile(&lat, 0.50) / 1e3, percentile(&lat, 0.99) / 1e3);
    let read_reqs_per_sec = lat.len() as f64 / secs;
    let read_probes_per_sec = stats.read_ops as f64 / secs;
    let write_edits_per_sec = edits.load(Ordering::Relaxed) as f64 / secs;
    eprintln!(
        "  {read_reqs_per_sec:.0} reqs/s, {read_probes_per_sec:.0} probes/s, \
         {write_edits_per_sec:.0} edits/s, p50 {p50:.0}µs p99 {p99:.0}µs (epoch {final_epoch})"
    );
    Row::new()
        .str("kind", "mix")
        .str("mix", name)
        .int("keys", keys)
        .int("shards", SHARDS)
        .int("clients", CLIENTS)
        .int("probes_per_request", PROBES_PER_REQUEST)
        .int("requests", lat.len())
        .num("read_reqs_per_sec", read_reqs_per_sec, 0)
        .num("read_probes_per_sec", read_probes_per_sec, 0)
        .num("write_edits_per_sec", write_edits_per_sec, 0)
        .int("final_epoch", final_epoch)
        .num("p50_us", p50, 1)
        .num("p99_us", p99, 1)
}

/// The same one-op requests as `bench_rtt`, but issued through the
/// pipelined client at several window depths over one connection. The
/// depth-1 row should track `rtt`; deeper rows show the round trips the
/// pipeline recovers (depth-d total time ≈ one round trip + d service
/// times, not d round trips). `speedup_vs_rtt` is over `rtt_rps`.
fn bench_pipeline(min_secs: f64, rtt_rps: f64) -> Vec<Row> {
    let base: Vec<(u32, u32)> = (0..1024u32).map(|i| (i % 128, i)).collect();
    let (server, addr) = spawn_server(&base);
    let mut client: MultiMapClient<u32, u32> = MultiMapClient::connect(addr).expect("connect");

    let mut rows = Vec::new();
    for depth in [1usize, 8, 32] {
        client.set_pipeline_window(depth);
        let mut served = 0usize;
        let mut i = 0u32;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < min_secs {
            let script: Vec<ScriptOp<MultiMapRead<u32, u32>, MultiMapEdit<u32, u32>>> = (0..depth)
                .map(|j| ScriptOp::Read(vec![MultiMapRead::ContainsKey((i + j as u32) % 128)]))
                .collect();
            let replies = client.pipeline(script).expect("pipelined reads");
            std::hint::black_box(replies.len());
            served += depth;
            i = i.wrapping_add(depth as u32);
        }
        let secs = start.elapsed().as_secs_f64();
        let rps = served as f64 / secs;
        eprintln!("pipeline depth {depth}: {rps:.0} reqs/s");
        rows.push(
            Row::new()
                .str("kind", "pipeline")
                .int("depth", depth)
                .int("requests", served)
                .num("reqs_per_sec", rps, 0)
                .num("speedup_vs_rtt", rps / rtt_rps.max(1.0), 2),
        );
    }
    server.shutdown();
    rows
}

/// The protocol-plus-loopback floor: a single connection ping-ponging
/// one-op batches against a small store. Everything in the mix rows sits
/// on top of this round trip. Returns the row and its request rate (the
/// baseline the pipeline gate compares against).
fn bench_rtt(min_secs: f64) -> (Row, f64) {
    let base: Vec<(u32, u32)> = (0..1024u32).map(|i| (i % 128, i)).collect();
    let (server, addr) = spawn_server(&base);
    let mut client: MultiMapClient<u32, u32> = MultiMapClient::connect(addr).expect("connect");

    let mut lat = Vec::new();
    let start = Instant::now();
    let mut i = 0u32;
    while start.elapsed().as_secs_f64() < min_secs {
        let t = Instant::now();
        let reply = client
            .read(vec![MultiMapRead::ContainsKey(i % 128)])
            .expect("ping");
        lat.push(t.elapsed().as_nanos() as u64);
        std::hint::black_box(reply.replies.len());
        i += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    server.shutdown();

    lat.sort_unstable();
    let (p50, p99) = (percentile(&lat, 0.50) / 1e3, percentile(&lat, 0.99) / 1e3);
    let rps = lat.len() as f64 / secs;
    eprintln!("rtt: {rps:.0} reqs/s, p50 {p50:.0}µs p99 {p99:.0}µs");
    let row = Row::new()
        .str("kind", "rtt")
        .int("requests", lat.len())
        .num("reqs_per_sec", rps, 0)
        .num("p50_us", p50, 1)
        .num("p99_us", p99, 1);
    (row, rps)
}

fn main() {
    let run = Run::from_env("NET");
    let (keys, min_secs) = match run.profile {
        Profile::Quick => (16_384, 0.3),
        Profile::Thorough => (66_700, 1.0),
    };

    let mixes: [(&'static str, KeyMix); 2] = [
        ("uniform", KeyMix::Uniform),
        ("zipf", KeyMix::Zipf { exponent: 1.0 }),
    ];
    let mut report = Report::new("axiom-net-v1", &run).seed(SEED).about(
        "note",
        "latency is a full loopback round trip per framed request (client encode, kernel, \
         server decode, epoch-pinned answering, reply frame) under write pressure from one \
         writer connection; the rtt row is the single-connection one-op floor underneath the \
         mixes; the pipeline rows send the same one-op requests with depth frames in flight \
         per window, so speedup_vs_rtt is the round-trip cost pipelining recovers on the same \
         run; probes/s comes from the server's own counters fetched over the wire via the \
         Stats op",
    );
    for (name, mix) in mixes {
        eprintln!("mix '{name}' at {keys} keys ({CLIENTS} client conns + 1 writer conn)");
        report.push(bench_mix(name, mix, keys, min_secs));
    }
    let (rtt_row, rtt_rps) = bench_rtt(min_secs.min(0.5));
    report.push(rtt_row);
    for row in bench_pipeline(min_secs.min(0.5), rtt_rps) {
        report.push(row);
    }
    report.emit(&run);

    if run.gate.is_some() {
        let uniform = report.find(|r| r.is("mix", "uniform"));
        let (p99, probes) = (
            uniform.num_of("p99_us"),
            uniform.num_of("read_probes_per_sec"),
        );
        let depth8 = report.find(|r| r.is("kind", "pipeline") && r.num_of("depth") == 8.0);
        let speedup = depth8.num_of("speedup_vs_rtt");
        let mut gate = Gate::new();
        gate.check(
            p99 <= MAX_P99_US,
            format!(
                "uniform-mix p99 {p99:.0}µs on {} cpu(s) (limit {MAX_P99_US:.0}µs)",
                cpus()
            ),
        );
        gate.check(
            probes >= MIN_PROBES_PER_SEC,
            format!("uniform-mix {probes:.0} probes/s (required {MIN_PROBES_PER_SEC:.0})"),
        );
        gate.check(
            speedup >= MIN_PIPELINE_SPEEDUP,
            format!(
                "depth-8 pipelining {:.0} reqs/s is {speedup:.2}x the rtt floor {rtt_rps:.0} \
                 reqs/s (required {MIN_PIPELINE_SPEEDUP:.1}x)",
                depth8.num_of("reqs_per_sec")
            ),
        );
        gate.finish();
    }
}
