//! Machine-readable scaling benchmark for the sharded concurrent layer
//! (`BENCH_sharded.json` at the repository root): parallel bulk-build
//! scaling at 1/2/4/8 shards against the single-threaded transient build,
//! plus mixed read/write throughput on the published-snapshot path.
//!
//! Two parallelism numbers are reported per data point, because wall-clock
//! speedup is a property of the machine as much as of the code:
//!
//! * `speedup_wall` — measured wall time of `build_parallel` (scoped
//!   threads) against the single-threaded transient build. On an `N`-core
//!   machine this approaches the critical-path number below; on a 1-CPU
//!   container it hovers around ×1 (the threads serialize).
//! * `speedup_critical_path` — the partition pass plus the *slowest single
//!   shard build*, each measured in isolation, against the same baseline.
//!   This is the span of the parallel computation (its wall time with
//!   enough cores), so it is the machine-independent scaling statement; the
//!   `cpus` field records how much real parallelism backed `speedup_wall`.
//!
//! Knobs via environment (see [`paper_bench::report::Run`]):
//!
//! * `AXIOM_SHARDED_PROFILE` — `quick` (CI smoke) or `thorough` (default;
//!   the numbers checked into the repository, topping out at ~1M tuples);
//! * `AXIOM_SHARDED_OUT` — output path (default `BENCH_sharded.json`; `-`
//!   for stdout only);
//! * `AXIOM_SHARDED_GATE` — when set, exit nonzero unless at the largest
//!   measured size with 8 shards: `speedup_critical_path ≥
//!   MIN_CRITICAL_SPEEDUP` (3.0) and `speedup_wall ≥ MIN_WALL_SPEEDUP`
//!   (0.7).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use axiom::AxiomMultiMap;
use paper_bench::report::{best_ns, cpus, Gate, Profile, Report, Row, Run};
use sharded::{partition_tuples, ShardedMultiMap};
use trie_common::ops::TransientOps;
use workloads::concurrent::concurrent_workload;
use workloads::data::multimap_workload;
use workloads::multimap_transient;

const SEED: u64 = 11;
const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const READERS: usize = 2;

/// Gate: the 8-shard critical-path speedup at the largest size.
const MIN_CRITICAL_SPEEDUP: f64 = 3.0;

/// Gate: the 8-shard wall speedup at the largest size, i.e. sharding never
/// costs more than ~1.4× wall even with no cores to exploit.
const MIN_WALL_SPEEDUP: f64 = 0.7;

type Mm = AxiomMultiMap<u32, u32>;

fn bench_build(keys: usize, reps: usize, report: &mut Report) {
    let w = multimap_workload(keys, SEED);
    let items = w.tuples.len();
    eprintln!("build scaling at {keys} keys / {items} tuples");

    // One warmup + measured baseline: the PR 3 single-threaded transient.
    let _ = multimap_transient::<Mm>(&w.tuples).tuple_count();
    let single_ns = best_ns(reps, || multimap_transient::<Mm>(&w.tuples).tuple_count());

    for &shards in &SHARD_SWEEP {
        let partition_ns = best_ns(reps, || {
            partition_tuples(shards, w.tuples.iter().copied()).len()
        });
        // Per-shard builds timed in isolation: their max is the span of the
        // parallel phase, their sum the total work.
        let parts = partition_tuples(shards, w.tuples.iter().copied());
        let shard_ns: Vec<f64> = parts
            .iter()
            .map(|part| best_ns(reps, || Mm::built_from(part.iter().copied()).tuple_count()))
            .collect();
        let wall_ns = best_ns(reps, || {
            ShardedMultiMap::<u32, u32>::build_parallel(shards, w.tuples.iter().copied())
                .tuple_count()
        });
        let max_shard_ns = shard_ns.iter().cloned().fold(0.0, f64::max);
        let speedup_wall = single_ns / wall_ns;
        let speedup_critical = single_ns / (partition_ns + max_shard_ns);
        eprintln!(
            "  {shards} shard(s): wall x{speedup_wall:.2}, critical path x{speedup_critical:.2}"
        );
        let per = |ns: f64| ns / items as f64;
        report.push(
            Row::new()
                .str("kind", "build")
                .int("keys", keys)
                .int("items", items)
                .int("shards", shards)
                .num("single_transient_ns_per_item", per(single_ns), 2)
                .num("partition_ns_per_item", per(partition_ns), 2)
                .num("max_shard_ns_per_item", per(max_shard_ns), 2)
                .num("sum_shards_ns_per_item", per(shard_ns.iter().sum()), 2)
                .num("parallel_wall_ns_per_item", per(wall_ns), 2)
                .num("speedup_wall", speedup_wall, 3)
                .num("speedup_critical_path", speedup_critical, 3),
        );
    }
}

fn bench_mixed(keys: usize, min_secs: f64, report: &mut Report) {
    // Writer batches + read probes from the shared scenario generator.
    let w = concurrent_workload(keys, 64, 64, SEED);
    eprintln!("mixed read/write at {keys} keys ({READERS} readers + 1 writer)");
    for &shards in &SHARD_SWEEP {
        let mm: ShardedMultiMap<u32, u32> =
            ShardedMultiMap::build_parallel(shards, w.base.iter().copied());
        let done = AtomicBool::new(false);
        let reads = AtomicUsize::new(0);
        let mut edits = 0usize;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                scope.spawn(|| {
                    // Re-snapshot between probe sweeps, like a server
                    // refreshing its view between request waves.
                    while !done.load(Ordering::Relaxed) {
                        let snap = mm.snapshot();
                        let mut n = 0;
                        for key in &w.read_keys {
                            n += snap.value_count(key);
                        }
                        std::hint::black_box(n);
                        reads.fetch_add(w.read_keys.len(), Ordering::Relaxed);
                    }
                });
            }
            // Replay the batch script until the run is long enough for the
            // readers to be fairly scheduled against the writer.
            while start.elapsed().as_secs_f64() < min_secs {
                for batch in &w.batches {
                    mm.apply(batch.iter().cloned());
                    edits += batch.len();
                }
            }
            done.store(true, Ordering::Relaxed);
        });
        let secs = start.elapsed().as_secs_f64();
        let reads_per_sec = reads.load(Ordering::Relaxed) as f64 / secs;
        let edits_per_sec = edits as f64 / secs;
        eprintln!("  {shards} shard(s): {reads_per_sec:.0} reads/s, {edits_per_sec:.0} edits/s");
        report.push(
            Row::new()
                .str("kind", "mixed")
                .int("keys", keys)
                .int("shards", shards)
                .int("readers", READERS)
                .num("read_probes_per_sec", reads_per_sec, 0)
                .num("write_edits_per_sec", edits_per_sec, 0),
        );
    }
}

fn main() {
    let run = Run::from_env("SHARDED");
    // 66.7k / 667k keys at the 50/50 1:1/1:2 shape ≈ 100k / 1M tuples.
    let (sizes, mixed_keys, reps, mixed_secs) = match run.profile {
        Profile::Quick => (vec![66_700], 16_384, 2, 0.25),
        Profile::Thorough => (vec![66_700, 667_000], 66_700, 3, 1.0),
    };

    let mut report = Report::new("axiom-sharded-v1", &run).seed(SEED).about(
        "note",
        "speedup_critical_path = single-threaded transient build over (partition + slowest \
         shard build), the span of the parallel computation; speedup_wall is the measured \
         scoped-thread wall time on this machine's cpus",
    );
    for &keys in &sizes {
        bench_build(keys, reps, &mut report);
    }
    bench_mixed(mixed_keys, mixed_secs, &mut report);
    report.emit(&run);

    if run.gate.is_some() {
        let largest = sizes.iter().copied().max().expect("sizes nonempty") as f64;
        let row = report.find(|r| {
            r.is("kind", "build") && r.num_of("keys") == largest && r.num_of("shards") == 8.0
        });
        let (critical, wall) = (
            row.num_of("speedup_critical_path"),
            row.num_of("speedup_wall"),
        );
        let items = row.num_of("items");
        let mut gate = Gate::new();
        gate.check(
            critical >= MIN_CRITICAL_SPEEDUP,
            format!(
                "8-shard critical-path speedup x{critical:.2} at {items} tuples \
                 (required x{MIN_CRITICAL_SPEEDUP:.2})"
            ),
        );
        gate.check(
            wall >= MIN_WALL_SPEEDUP,
            format!(
                "8-shard wall speedup x{wall:.2} at {items} tuples on {} cpu(s) \
                 (required x{MIN_WALL_SPEEDUP:.2})",
                cpus()
            ),
        );
        gate.finish();
    }
}
