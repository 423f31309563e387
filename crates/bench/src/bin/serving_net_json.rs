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
//! Knobs via environment:
//!
//! * `AXIOM_NET_PROFILE` — `quick` (CI smoke) or `thorough` (default;
//!   the numbers checked into the repository);
//! * `AXIOM_NET_OUT` — output path (default `BENCH_net.json`; `-` for
//!   stdout only);
//! * `AXIOM_NET_GATE` — when set, exit nonzero unless on the uniform
//!   mix: `p99_us ≤ AXIOM_NET_MAX_P99_US` (default 50000) and
//!   `read_probes_per_sec ≥ AXIOM_NET_MIN_PROBES` (default 5000), and
//!   pipelined depth-8 throughput is at least
//!   `AXIOM_NET_MIN_PIPELINE_SPEEDUP` (default 3.0) times the same
//!   run's `rtt` ping-pong rate.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use axiom::AxiomMultiMap;
use serving::{Engine, MultiMapClient, MultiMapRead, ScriptOp, Server};
use sharded::ShardedMultiMap;
use trie_common::ops::MultiMapEdit;
use workloads::concurrent::{round_robin, serving_workload, KeyMix, ReadProbe, ServingProfile};

const SEED: u64 = 13;
const SHARDS: usize = 8;
const CLIENTS: usize = 2;
const PROBES_PER_REQUEST: usize = 8;

type Store = ShardedMultiMap<u32, u32, AxiomMultiMap<u32, u32>>;

fn to_op(probe: &ReadProbe) -> MultiMapRead<u32, u32> {
    match probe {
        ReadProbe::ValuesOf(k) => MultiMapRead::ValuesOf(*k),
        ReadProbe::ContainsKey(k) => MultiMapRead::ContainsKey(*k),
        ReadProbe::FanOut(ks) => MultiMapRead::FanOut(ks.clone()),
    }
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64 / 1_000.0 // ns -> µs
}

struct MixRow {
    mix: &'static str,
    keys: usize,
    requests: usize,
    read_reqs_per_sec: f64,
    read_probes_per_sec: f64,
    write_edits_per_sec: f64,
    final_epoch: u64,
    p50_us: f64,
    p99_us: f64,
}

impl MixRow {
    fn json(&self) -> String {
        format!(
            "    {{\"kind\": \"mix\", \"mix\": \"{}\", \"keys\": {}, \"shards\": {SHARDS}, \
             \"clients\": {CLIENTS}, \"probes_per_request\": {PROBES_PER_REQUEST}, \
             \"requests\": {}, \"read_reqs_per_sec\": {:.0}, \"read_probes_per_sec\": {:.0}, \
             \"write_edits_per_sec\": {:.0}, \"final_epoch\": {}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}}}",
            self.mix,
            self.keys,
            self.requests,
            self.read_reqs_per_sec,
            self.read_probes_per_sec,
            self.write_edits_per_sec,
            self.final_epoch,
            self.p50_us,
            self.p99_us
        )
    }
}

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
fn bench_mix(name: &'static str, mix: KeyMix, keys: usize, min_secs: f64) -> MixRow {
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
    let requests: Vec<Vec<MultiMapRead<u32, u32>>> = w
        .read_batches
        .iter()
        .map(|b| b.iter().map(to_op).collect())
        .collect();
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
    let requests_served = lat.len();
    MixRow {
        mix: name,
        keys,
        requests: requests_served,
        read_reqs_per_sec: requests_served as f64 / secs,
        read_probes_per_sec: stats.read_ops as f64 / secs,
        write_edits_per_sec: edits.load(Ordering::Relaxed) as f64 / secs,
        final_epoch,
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
    }
}

/// One pipelined-throughput measurement: one connection, one-op read
/// requests, `depth` frames in flight per window.
struct PipelineRow {
    depth: usize,
    requests: usize,
    reqs_per_sec: f64,
}

impl PipelineRow {
    fn json(&self, rtt_rps: f64) -> String {
        format!(
            "    {{\"kind\": \"pipeline\", \"depth\": {}, \"requests\": {}, \
             \"reqs_per_sec\": {:.0}, \"speedup_vs_rtt\": {:.2}}}",
            self.depth,
            self.requests,
            self.reqs_per_sec,
            self.reqs_per_sec / rtt_rps.max(1.0)
        )
    }
}

/// The same one-op requests as `bench_rtt`, but issued through the
/// pipelined client at several window depths over one connection. The
/// depth-1 row should track `rtt`; deeper rows show the round trips the
/// pipeline recovers (depth-d total time ≈ one round trip + d service
/// times, not d round trips).
fn bench_pipeline(min_secs: f64) -> Vec<PipelineRow> {
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
        rows.push(PipelineRow {
            depth,
            requests: served,
            reqs_per_sec: rps,
        });
    }
    server.shutdown();
    rows
}

/// The protocol-plus-loopback floor: a single connection ping-ponging
/// one-op batches against a small store. Everything in the mix rows sits
/// on top of this round trip. Returns the row and its request rate (the
/// baseline the pipeline gate compares against).
fn bench_rtt(min_secs: f64) -> (String, f64) {
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
    let (p50, p99) = (percentile(&lat, 0.50), percentile(&lat, 0.99));
    let rps = lat.len() as f64 / secs;
    eprintln!("rtt: {rps:.0} reqs/s, p50 {p50:.0}µs p99 {p99:.0}µs");
    let row = format!(
        "    {{\"kind\": \"rtt\", \"requests\": {}, \"reqs_per_sec\": {rps:.0}, \
         \"p50_us\": {p50:.1}, \"p99_us\": {p99:.1}}}",
        lat.len()
    );
    (row, rps)
}

fn main() {
    let profile = std::env::var("AXIOM_NET_PROFILE").unwrap_or_else(|_| "thorough".into());
    let (keys, min_secs) = match profile.as_str() {
        "quick" => (16_384, 0.3),
        _ => (66_700, 1.0),
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mixes: [(&'static str, KeyMix); 2] = [
        ("uniform", KeyMix::Uniform),
        ("zipf", KeyMix::Zipf { exponent: 1.0 }),
    ];
    let mut mix_rows = Vec::new();
    for (name, mix) in mixes {
        eprintln!("mix '{name}' at {keys} keys ({CLIENTS} client conns + 1 writer conn)");
        let row = bench_mix(name, mix, keys, min_secs);
        eprintln!(
            "  {:.0} reqs/s, {:.0} probes/s, {:.0} edits/s, p50 {:.0}µs p99 {:.0}µs \
             (epoch {})",
            row.read_reqs_per_sec,
            row.read_probes_per_sec,
            row.write_edits_per_sec,
            row.p50_us,
            row.p99_us,
            row.final_epoch
        );
        mix_rows.push(row);
    }
    let (rtt_row, rtt_rps) = bench_rtt(min_secs.min(0.5));
    let pipeline_rows = bench_pipeline(min_secs.min(0.5));

    let body: Vec<String> = mix_rows
        .iter()
        .map(MixRow::json)
        .chain([rtt_row])
        .chain(pipeline_rows.iter().map(|r| r.json(rtt_rps)))
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"axiom-net-v1\",\n  \"profile\": \"{}\",\n  \"seed\": {},\n  \
         \"cpus\": {},\n  \"note\": \"latency is a full loopback round trip per framed request \
         (client encode, kernel, server decode, epoch-pinned answering, reply frame) under \
         write pressure from one writer connection; the rtt row is the single-connection \
         one-op floor underneath the mixes; the pipeline rows send the same one-op requests \
         with depth frames in flight per window, so speedup_vs_rtt is the round-trip cost \
         pipelining recovers on the same run; probes/s comes from the server's own counters \
         fetched over the wire via the Stats op\",\n  \"results\": [\n{}\n  ]\n}}\n",
        profile,
        SEED,
        cpus,
        body.join(",\n")
    );
    print!("{json}");

    let out = std::env::var("AXIOM_NET_OUT").unwrap_or_else(|_| "BENCH_net.json".into());
    if out != "-" {
        std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
        eprintln!("wrote {out}");
    }

    if std::env::var("AXIOM_NET_GATE").is_ok() {
        let max_p99: f64 = std::env::var("AXIOM_NET_MAX_P99_US")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(50_000.0);
        let min_probes: f64 = std::env::var("AXIOM_NET_MIN_PROBES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(5_000.0);
        let row = mix_rows
            .iter()
            .find(|r| r.mix == "uniform")
            .expect("uniform mix measured");
        let mut failed = false;
        if row.p99_us > max_p99 {
            eprintln!(
                "GATE FAILED: uniform-mix p99 {:.0}µs (limit {max_p99:.0}µs)",
                row.p99_us
            );
            failed = true;
        }
        if row.read_probes_per_sec < min_probes {
            eprintln!(
                "GATE FAILED: uniform-mix {:.0} probes/s (required {min_probes:.0})",
                row.read_probes_per_sec
            );
            failed = true;
        }
        // Pipelining must actually pipeline: depth-8 throughput is
        // gated against the same run's ping-pong rate, so a server
        // that silently serializes its connections again fails CI.
        let min_speedup: f64 = std::env::var("AXIOM_NET_MIN_PIPELINE_SPEEDUP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(3.0);
        let depth8 = pipeline_rows
            .iter()
            .find(|r| r.depth == 8)
            .expect("depth-8 pipeline row measured");
        let speedup = depth8.reqs_per_sec / rtt_rps.max(1.0);
        if speedup < min_speedup {
            eprintln!(
                "GATE FAILED: depth-8 pipelining {:.0} reqs/s is only {speedup:.2}x the \
                 rtt floor {rtt_rps:.0} reqs/s (required {min_speedup:.1}x)",
                depth8.reqs_per_sec
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "gate ok: uniform mix p99 {:.0}µs, {:.0} probes/s, depth-8 pipelining \
             {speedup:.2}x rtt on {cpus} cpu(s)",
            row.p99_us, row.read_probes_per_sec
        );
    }
}
