//! Machine-readable serving-engine benchmark (`BENCH_serving.json` at the
//! repository root): sustained throughput and request-latency percentiles
//! for the epoch-pinned engine under uniform, Zipf-skewed, and hot-key
//! storm traffic, plus an overload scenario against a capacity-bounded
//! admission queue (shed rate and read tail latency under an unpaced
//! `try_stage` storm), the engine's overhead over raw snapshot reads, and the
//! optimistic-transaction conflict rate.
//!
//! Latency is reported per *request* (one submitted batch of probes,
//! answered against one pinned epoch by the worker pool) as p50/p99/p999
//! in µs, measured while a writer thread continuously stages batches
//! through admission — i.e. tail latency under write pressure, the number
//! a serving system actually promises. As in `sharded_json`, `cpus`
//! records how much real parallelism backed the wall-clock numbers: the
//! percentile spread is a property of the machine's scheduler as much as
//! of the engine, and on a 1-CPU container queue handoff dominates p99.
//! The `overhead` row is the machine-independent complement (the
//! wall-vs-critical-path split): `direct_ns_per_probe` times the pure
//! answering cost on a pinned snapshot — the critical path a request
//! cannot go below — while the engine adds pinning, batching, and
//! worker-pool handoff on top.
//!
//! Knobs via environment:
//!
//! * `AXIOM_SERVING_PROFILE` — `quick` (CI smoke) or `thorough` (default;
//!   the numbers checked into the repository);
//! * `AXIOM_SERVING_OUT` — output path (default `BENCH_serving.json`; `-`
//!   for stdout only);
//! * `AXIOM_SERVING_GATE` — when set, exit nonzero unless on the uniform
//!   mix: `p99_us ≤ AXIOM_SERVING_MAX_P99_US` (default 20000) and
//!   `read_probes_per_sec ≥ AXIOM_SERVING_MIN_PROBES` (default 50000).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use axiom::AxiomMultiMap;
use serving::{Engine, EngineConfig, MultiMapRead, MultiMapReply};
use sharded::ShardedMultiMap;
use workloads::concurrent::{serving_workload, KeyMix, ReadProbe, ServingProfile};

const SEED: u64 = 13;
const SHARDS: usize = 8;
const SUBMITTERS: usize = 2;
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
    applier_commits: u64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
}

impl MixRow {
    fn json(&self) -> String {
        format!(
            "    {{\"kind\": \"mix\", \"mix\": \"{}\", \"keys\": {}, \"shards\": {SHARDS}, \
             \"submitters\": {SUBMITTERS}, \"probes_per_request\": {PROBES_PER_REQUEST}, \
             \"requests\": {}, \"read_reqs_per_sec\": {:.0}, \"read_probes_per_sec\": {:.0}, \
             \"write_edits_per_sec\": {:.0}, \"applier_commits\": {}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}}}",
            self.mix,
            self.keys,
            self.requests,
            self.read_reqs_per_sec,
            self.read_probes_per_sec,
            self.write_edits_per_sec,
            self.applier_commits,
            self.p50_us,
            self.p99_us,
            self.p999_us
        )
    }
}

/// Drives one traffic mix: `SUBMITTERS` threads submit request batches to
/// the engine's worker pool (timing each request end to end) while one
/// writer thread stages the workload's write batches through admission,
/// for at least `min_secs`.
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

    let store: Arc<Store> = Arc::new(ShardedMultiMap::build_parallel(
        SHARDS,
        w.base.iter().copied(),
    ));
    let engine = Engine::with_config(Arc::clone(&store), EngineConfig::default());

    let done = AtomicBool::new(false);
    let edits = AtomicUsize::new(0);
    let samples: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for sub in 0..SUBMITTERS {
            let engine = &engine;
            let requests = &requests;
            let done = &done;
            let samples = &samples;
            scope.spawn(move || {
                let mut local = Vec::new();
                let mut i = sub; // offset so submitters interleave the script
                while !done.load(Ordering::Relaxed) {
                    let ops = requests[i % requests.len()].clone();
                    let t = Instant::now();
                    let reply = engine.submit(ops).wait().expect("no read worker faulted");
                    local.push(t.elapsed().as_nanos() as u64);
                    std::hint::black_box(reply.replies.len());
                    i += SUBMITTERS;
                }
                samples.lock().unwrap().extend(local);
            });
        }
        // The single writer replays admission batches, acking each before
        // the next so the queue depth stays bounded.
        while start.elapsed().as_secs_f64() < min_secs {
            for batch in &w.write_batches {
                engine
                    .stage(batch.iter().cloned())
                    .wait()
                    .expect("no applier faulted");
                edits.fetch_add(batch.len(), Ordering::Relaxed);
            }
        }
        done.store(true, Ordering::Relaxed);
    });
    let secs = start.elapsed().as_secs_f64();
    let stats = engine.stats();

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
        applier_commits: stats.applier_commits,
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
        p999_us: percentile(&lat, 0.999),
    }
}

/// Admission under deliberate overload: `OVERLOAD_WRITERS` threads storm a
/// capacity-bounded engine with `try_stage` and no pacing — offering well
/// beyond what the applier drains — while the usual submitters keep
/// reading. Reports the shed rate (sheds over offered batches) and the
/// read tail latency the bounded queue preserves under that pressure: the
/// graceful-degradation numbers from the failure model (`DESIGN.md` §9).
fn bench_overload(keys: usize, min_secs: f64) -> String {
    const LANE_CAPACITY: usize = 2;
    const OVERLOAD_WRITERS: usize = 4;
    let profile = ServingProfile {
        keys,
        read_batches: 256,
        reads_per_batch: PROBES_PER_REQUEST,
        write_batches: 64,
        writes_per_batch: 32,
        mix: KeyMix::Zipf { exponent: 1.0 },
        fanout_every: 16,
        fanout_width: 8,
    };
    let w = serving_workload(&profile, SEED);
    let requests: Vec<Vec<MultiMapRead<u32, u32>>> = w
        .read_batches
        .iter()
        .map(|b| b.iter().map(to_op).collect())
        .collect();

    let store: Arc<Store> = Arc::new(ShardedMultiMap::build_parallel(
        SHARDS,
        w.base.iter().copied(),
    ));
    let engine = Engine::with_config(
        Arc::clone(&store),
        EngineConfig {
            lane_capacity: Some(LANE_CAPACITY),
            ..EngineConfig::default()
        },
    );

    let done = AtomicBool::new(false);
    let offered = AtomicUsize::new(0);
    let samples: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for sub in 0..SUBMITTERS {
            let engine = &engine;
            let requests = &requests;
            let done = &done;
            let samples = &samples;
            scope.spawn(move || {
                let mut local = Vec::new();
                let mut i = sub;
                while !done.load(Ordering::Relaxed) {
                    let ops = requests[i % requests.len()].clone();
                    let t = Instant::now();
                    let reply = engine.submit(ops).wait().expect("no read worker faulted");
                    local.push(t.elapsed().as_nanos() as u64);
                    std::hint::black_box(reply.replies.len());
                    i += SUBMITTERS;
                }
                samples.lock().unwrap().extend(local);
            });
        }
        for wtr in 0..OVERLOAD_WRITERS {
            let engine = &engine;
            let w = &w;
            let done = &done;
            let offered = &offered;
            scope.spawn(move || {
                let mut pending = Vec::new();
                let mut i = wtr;
                while !done.load(Ordering::Relaxed) {
                    let batch = w.write_batches[i % w.write_batches.len()].clone();
                    offered.fetch_add(1, Ordering::Relaxed);
                    if let Ok(t) = engine.try_stage(batch) {
                        pending.push(t);
                        // Ack in bulk so pending tickets stay bounded
                        // without pacing the offered load.
                        if pending.len() >= 64 {
                            for t in pending.drain(..) {
                                t.wait().expect("no applier faulted");
                            }
                        }
                    }
                    i += OVERLOAD_WRITERS;
                }
                for t in pending {
                    t.wait().expect("no applier faulted");
                }
            });
        }
        while start.elapsed().as_secs_f64() < min_secs {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        done.store(true, Ordering::Relaxed);
    });

    let stats = engine.stats();
    let offered = offered.load(Ordering::Relaxed) as u64;
    let shed = stats.shed_writes;
    let admitted = offered.saturating_sub(shed);
    let shed_rate = shed as f64 / offered.max(1) as f64;
    let mut lat = samples.into_inner().unwrap();
    lat.sort_unstable();
    let (p50, p99) = (percentile(&lat, 0.50), percentile(&lat, 0.99));
    eprintln!(
        "overload: {offered} batches offered, {admitted} admitted, shed rate {shed_rate:.3}, \
         read p50 {p50:.0}µs p99 {p99:.0}µs"
    );
    format!(
        "    {{\"kind\": \"overload\", \"keys\": {keys}, \"shards\": {SHARDS}, \
         \"lane_capacity\": {LANE_CAPACITY}, \"writers\": {OVERLOAD_WRITERS}, \
         \"offered_batches\": {offered}, \"admitted_batches\": {admitted}, \
         \"shed_batches\": {shed}, \"shed_rate\": {shed_rate:.4}, \
         \"read_p50_us\": {p50:.1}, \"read_p99_us\": {p99:.1}}}"
    )
}

/// The engine's constant factor over the critical path: answering the same
/// probes directly on a pinned snapshot (no batching, no pool) vs through
/// a synchronous engine call.
fn bench_overhead(keys: usize, reps: usize) -> String {
    let profile = ServingProfile {
        keys,
        read_batches: 64,
        reads_per_batch: PROBES_PER_REQUEST,
        write_batches: 0,
        writes_per_batch: 0,
        mix: KeyMix::Zipf { exponent: 1.0 },
        fanout_every: 16,
        fanout_width: 8,
    };
    let w = serving_workload(&profile, SEED);
    let requests: Vec<Vec<MultiMapRead<u32, u32>>> = w
        .read_batches
        .iter()
        .map(|b| b.iter().map(to_op).collect())
        .collect();
    let probes = requests.iter().map(Vec::len).sum::<usize>();

    let store: Arc<Store> = Arc::new(ShardedMultiMap::build_parallel(
        SHARDS,
        w.base.iter().copied(),
    ));
    let engine = Engine::with_config(
        Arc::clone(&store),
        EngineConfig {
            read_workers: 1,
            ..EngineConfig::default()
        },
    );

    let best = |f: &mut dyn FnMut() -> usize| {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            std::hint::black_box(f());
            best = best.min(t.elapsed().as_nanos() as f64);
        }
        best
    };

    // Critical path: answer every probe straight off one pin.
    let direct_ns = best(&mut || {
        let snap = store.snapshot();
        let mut n = 0;
        for req in &requests {
            for op in req {
                n += match op {
                    MultiMapRead::ValuesOf(k) => snap.value_count(k),
                    MultiMapRead::ContainsKey(k) => usize::from(snap.contains_key(k)),
                    MultiMapRead::FanOut(ks) => ks.iter().map(|k| snap.value_count(k)).sum(),
                    _ => 0,
                };
            }
        }
        n
    });
    // Engine path, synchronous (pin + typed dispatch + reply assembly).
    let engine_ns = best(&mut || {
        let mut n = 0;
        for req in &requests {
            let reply = engine.execute(req);
            n += reply.replies.len();
            for r in &reply.replies {
                if let MultiMapReply::Values(vs) = r {
                    n += vs.len();
                }
            }
        }
        n
    });

    let direct_per = direct_ns / probes as f64;
    let engine_per = engine_ns / probes as f64;
    eprintln!(
        "overhead: direct {direct_per:.0} ns/probe, engine {engine_per:.0} ns/probe \
         (x{:.2})",
        engine_per / direct_per
    );
    format!(
        "    {{\"kind\": \"overhead\", \"keys\": {keys}, \"shards\": {SHARDS}, \
         \"direct_ns_per_probe\": {direct_per:.1}, \"engine_ns_per_probe\": {engine_per:.1}, \
         \"engine_overhead\": {:.3}}}",
        engine_per / direct_per
    )
}

/// Optimistic-transaction behaviour under contention: hot-key increments
/// from several threads, reporting commit throughput and the conflict
/// (retry) rate.
fn bench_txn(keys: usize, min_secs: f64) -> String {
    let profile = ServingProfile {
        keys,
        read_batches: 1,
        reads_per_batch: 1,
        write_batches: 1,
        writes_per_batch: 1,
        mix: KeyMix::Zipf { exponent: 1.1 },
        fanout_every: 0,
        fanout_width: 0,
    };
    let w = serving_workload(&profile, SEED);
    let store: Arc<Store> = Arc::new(ShardedMultiMap::build_parallel(
        SHARDS,
        w.base.iter().copied(),
    ));
    let engine = Engine::new(Arc::clone(&store));
    let keys_by_rank: Vec<u32> = w.base.iter().map(|(k, _)| *k).collect();
    let zipf = workloads::concurrent::Zipf::new(keys_by_rank.len(), 1.1);

    let threads = 2;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let engine = &engine;
            let keys_by_rank = &keys_by_rank;
            let zipf = &zipf;
            scope.spawn(move || {
                use rand::{rngs::StdRng, SeedableRng};
                let mut rng = StdRng::seed_from_u64(SEED + t);
                while start.elapsed().as_secs_f64() < min_secs {
                    let k = keys_by_rank[zipf.sample(&mut rng)];
                    let _ = engine.transact(|txn| {
                        let reply = txn.read(&MultiMapRead::ValuesOf(k));
                        let n = match reply {
                            MultiMapReply::Values(vs) => vs.len() as u32,
                            _ => 0,
                        };
                        txn.write(trie_common::ops::MultiMapEdit::Insert(k, n));
                    });
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let stats = engine.stats();
    let conflicts_per_commit = stats.txn_conflicts as f64 / stats.txn_commits.max(1) as f64;
    eprintln!(
        "txn: {:.0} commits/s, {:.3} conflicts per commit",
        stats.txn_commits as f64 / secs,
        conflicts_per_commit
    );
    format!(
        "    {{\"kind\": \"txn\", \"keys\": {keys}, \"shards\": {SHARDS}, \"threads\": {threads}, \
         \"commits_per_sec\": {:.0}, \"conflicts_per_commit\": {:.4}}}",
        stats.txn_commits as f64 / secs,
        conflicts_per_commit
    )
}

fn main() {
    let profile = std::env::var("AXIOM_SERVING_PROFILE").unwrap_or_else(|_| "thorough".into());
    let (keys, min_secs, reps) = match profile.as_str() {
        "quick" => (16_384, 0.3, 2),
        _ => (66_700, 1.0, 3),
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mixes: [(&'static str, KeyMix); 3] = [
        ("uniform", KeyMix::Uniform),
        ("zipf", KeyMix::Zipf { exponent: 1.0 }),
        (
            "storm",
            KeyMix::Storm {
                exponent: 1.0,
                hot_keys: 8,
                storm_share: 0.8,
            },
        ),
    ];
    let mut mix_rows = Vec::new();
    for (name, mix) in mixes {
        eprintln!("mix '{name}' at {keys} keys ({SUBMITTERS} submitters + 1 writer)");
        let row = bench_mix(name, mix, keys, min_secs);
        eprintln!(
            "  {:.0} reqs/s, {:.0} probes/s, p50 {:.0}µs p99 {:.0}µs p999 {:.0}µs",
            row.read_reqs_per_sec, row.read_probes_per_sec, row.p50_us, row.p99_us, row.p999_us
        );
        mix_rows.push(row);
    }
    eprintln!("overload at {keys} keys ({SUBMITTERS} submitters + 4 storm writers)");
    let overload_row = bench_overload(keys, min_secs);
    let overhead_row = bench_overhead(keys, reps);
    let txn_row = bench_txn(keys, min_secs);

    let body: Vec<String> = mix_rows
        .iter()
        .map(MixRow::json)
        .chain([overload_row, overhead_row, txn_row])
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"axiom-serving-v1\",\n  \"profile\": \"{}\",\n  \"seed\": {},\n  \
         \"cpus\": {},\n  \"note\": \"request latency percentiles are wall-clock under write \
         pressure and depend on this machine's cpus; direct_ns_per_probe in the overhead row \
         is the machine-independent critical path (pure answering cost on a pinned epoch), \
         engine_overhead the batching/pool factor on top\",\n  \"results\": [\n{}\n  ]\n}}\n",
        profile,
        SEED,
        cpus,
        body.join(",\n")
    );
    print!("{json}");

    let out = std::env::var("AXIOM_SERVING_OUT").unwrap_or_else(|_| "BENCH_serving.json".into());
    if out != "-" {
        std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
        eprintln!("wrote {out}");
    }

    if std::env::var("AXIOM_SERVING_GATE").is_ok() {
        let max_p99: f64 = std::env::var("AXIOM_SERVING_MAX_P99_US")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(20_000.0);
        let min_probes: f64 = std::env::var("AXIOM_SERVING_MIN_PROBES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(50_000.0);
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
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "gate ok: uniform mix p99 {:.0}µs, {:.0} probes/s on {cpus} cpu(s)",
            row.p99_us, row.read_probes_per_sec
        );
    }
}
