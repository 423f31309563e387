//! Machine-readable query benchmark: lookup (hit and miss) and full
//! iteration medians for the AXIOM map against the CHAMP and HAMT
//! baselines, emitted as JSON so the *read path* is regression-gated across
//! PRs the same way `construction_json` gates the build path
//! (`BENCH_query.json` at the repository root).
//!
//! Knobs via environment (see [`paper_bench::report::Run`]):
//!
//! * `AXIOM_QUERY_PROFILE` — `quick` (CI smoke) or `thorough` (default; the
//!   numbers checked into the repository);
//! * `AXIOM_QUERY_OUT` — output path (default `BENCH_query.json`; `-` for
//!   stdout only);
//! * `AXIOM_QUERY_GATE` — path to a baseline JSON (CI passes the checked-in
//!   file): exit nonzero if any overlapping `(impl, op, keys)` data point is
//!   more than `GATE_FACTOR` (3.0) times slower than the baseline.
//!
//! The same-run gate always runs: the AXIOM map's `lookup_hit` median must
//! stay within `MAX_VS_CHAMP` (2.5) of CHAMP's at every size.

use std::time::Duration;

use axiom::AxiomMap;
use champ::ChampMap;
use hamt::{HamtMap, MemoHamtMap};
use paper_bench::report::{die, Gate, Profile, Report, Row, Run};
use trie_common::ops::{MapOps, TransientOps};
use workloads::data::map_workload;
use workloads::timing::{measure, BenchOptions, Stats};

const SEED: u64 = 11;

/// Cross-run gate: every point may be at most this many times slower than
/// the baseline. The generous factor absorbs machine-to-machine variance
/// while still catching order-of-magnitude read-path regressions.
const GATE_FACTOR: f64 = 3.0;

/// Same-run gate: AXIOM map `lookup_hit` over CHAMP's at every size.
/// Machine-independent, so it holds on any runner (the paper's fig. 6
/// deficit is ~×1.2).
const MAX_VS_CHAMP: f64 = 2.5;

fn bench_map<M>(name: &str, keys: usize, opts: &BenchOptions, report: &mut Report)
where
    M: MapOps<u32, u32> + TransientOps<(u32, u32)>,
{
    let w = map_workload(keys, SEED);
    let m: M = workloads::map_transient(&w.entries);
    assert_eq!(m.len(), keys, "build dropped entries");
    let mut push = |op: &str, stats: Stats, per: usize| {
        report.push(
            Row::new()
                .str("impl", name)
                .str("op", op)
                .int("keys", keys)
                .num("median_ns", stats.median_ns / per as f64, 3)
                .num("mad_ns", stats.mad_ns / per as f64, 3),
        );
    };

    // Lookup bursts (8 probes per measured repetition, per §4.1).
    let hit = measure(opts, || {
        w.hit_keys.iter().filter(|k| m.get(k).is_some()).count()
    });
    assert!(hit.median_ns > 0.0);
    push("lookup_hit", hit, w.hit_keys.len());

    let miss = measure(opts, || {
        w.miss_keys.iter().filter(|k| m.get(k).is_some()).count()
    });
    push("lookup_miss", miss, w.miss_keys.len());

    // Full iteration: one trie walk per measured repetition, amortized to
    // ns per element. Iteration is long relative to a lookup burst, so drop
    // the inner repetitions.
    let iter_opts = BenchOptions {
        inner_reps: 1,
        ..*opts
    };
    push("iterate", measure(&iter_opts, || m.entries().count()), keys);
}

fn main() {
    let run = Run::from_env("QUERY");
    let (sizes, opts) = match run.profile {
        Profile::Quick => (vec![1 << 10, 1 << 14], BenchOptions::QUICK),
        Profile::Thorough => (vec![1 << 10, 1 << 14, 1 << 17], BenchOptions::THOROUGH),
    };

    let started = std::time::Instant::now();
    let mut report = Report::new("axiom-query-v1", &run).seed(SEED).about(
        "ns_per_op",
        "median ns per operation (lookups: per probe of an 8-probe burst; iterate: per element)",
    );
    for &keys in &sizes {
        bench_map::<AxiomMap<u32, u32>>("axiom-map", keys, &opts, &mut report);
        bench_map::<ChampMap<u32, u32>>("champ-map", keys, &opts, &mut report);
        bench_map::<HamtMap<u32, u32>>("hamt-map", keys, &opts, &mut report);
        bench_map::<MemoHamtMap<u32, u32>>("memo-hamt-map", keys, &opts, &mut report);
    }
    let elapsed = started.elapsed();
    report.emit(&run);
    eprintln!("measured {} rows in {elapsed:.1?}", report.rows().len());

    let mut gate = Gate::new();
    for &keys in &sizes {
        let median_of = |name: &str| {
            report
                .find(|r| {
                    r.is("impl", name)
                        && r.is("op", "lookup_hit")
                        && r.num_of("keys") == keys as f64
                })
                .num_of("median_ns")
        };
        let ratio = median_of("axiom-map") / median_of("champ-map");
        gate.check(
            ratio <= MAX_VS_CHAMP,
            format!(
                "axiom-map lookup_hit is x{ratio:.2} of champ-map at {keys} keys \
                 (allowed x{MAX_VS_CHAMP:.2})"
            ),
        );
    }
    if let Some(path) = &run.gate {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(format!("reading gate baseline {path}: {e}")));
        gate.within_baseline(
            report.rows(),
            &baseline,
            &["impl", "op", "keys"],
            "median_ns",
            GATE_FACTOR,
        )
        .unwrap_or_else(|e| die(format!("{path}: {e}")));
    }

    // Keep the binary honest about wall-clock cost in CI logs.
    if elapsed > Duration::from_secs(600) {
        eprintln!("warning: query bench took {elapsed:.0?}; consider trimming sizes");
    }
    gate.finish();
}
