//! Machine-readable construction benchmark: persistent fold vs transient
//! bulk build, per implementation and size, emitted as JSON so the perf
//! trajectory of the transient editing paths is tracked across PRs
//! (`BENCH_construction.json` at the repository root).
//!
//! Knobs via environment (see [`paper_bench::report::Run`]):
//!
//! * `AXIOM_CONSTRUCTION_PROFILE` — `quick` (CI smoke) or `thorough`
//!   (default; the numbers checked into the repository);
//! * `AXIOM_CONSTRUCTION_OUT` — output path (default
//!   `BENCH_construction.json`; `-` for stdout only);
//! * `AXIOM_CONSTRUCTION_GATE` — when set (any value), exit nonzero unless
//!   the AXIOM transient build is at least `MIN_SPEEDUP` (1.0) times as
//!   fast as the persistent fold at the ≥100k-tuple data point (the
//!   regression gate CI runs).

use axiom::{AxiomFusedMultiMap, AxiomMultiMap};
use champ::ChampMap;
use idiomatic::{ClojureMultiMap, NestedChampMultiMap, ScalaMultiMap};
use paper_bench::report::{best_ns, Gate, Profile, Report, Row, Run};
use trie_common::ops::{MapOps, MultiMapOps, TransientOps};
use workloads::build::{map_persistent, map_transient, multimap_persistent, multimap_transient};
use workloads::data::{map_workload, multimap_workload};

const SEED: u64 = 11;

/// Gate: the AXIOM transient build over the persistent fold at ≥100k
/// tuples (the acceptance target of the in-place transients was 1.5).
const MIN_SPEEDUP: f64 = 1.0;

/// Times both build paths over `items` items, best of `reps` after one
/// discarded warmup each, in ns per item.
fn bench_paths(
    name: &str,
    kind: &str,
    keys: usize,
    items: usize,
    reps: usize,
    persistent: impl Fn() -> usize,
    transient: impl Fn() -> usize,
) -> Row {
    let per_item = |build: &dyn Fn() -> usize| {
        build();
        best_ns(reps, || assert_eq!(build(), items, "build dropped items")) / items as f64
    };
    let (persistent, transient) = (per_item(&persistent), per_item(&transient));
    Row::new()
        .str("impl", name)
        .str("kind", kind)
        .int("keys", keys)
        .int("items", items)
        .num("persistent_ns_per_op", persistent, 2)
        .num("transient_ns_per_op", transient, 2)
        .num("speedup", persistent / transient, 3)
}

fn bench_multimap<M>(name: &str, keys: usize, reps: usize) -> Row
where
    M: MultiMapOps<u32, u32> + TransientOps<(u32, u32)>,
{
    let w = multimap_workload(keys, SEED);
    bench_paths(
        name,
        "multimap",
        keys,
        w.tuples.len(),
        reps,
        || multimap_persistent::<M>(&w.tuples).tuple_count(),
        || multimap_transient::<M>(&w.tuples).tuple_count(),
    )
}

fn bench_map<M>(name: &str, keys: usize, reps: usize) -> Row
where
    M: MapOps<u32, u32> + TransientOps<(u32, u32)>,
{
    let w = map_workload(keys, SEED);
    bench_paths(
        name,
        "map",
        keys,
        w.entries.len(),
        reps,
        || map_persistent::<M>(&w.entries).len(),
        || map_transient::<M>(&w.entries).len(),
    )
}

fn main() {
    let run = Run::from_env("CONSTRUCTION");
    // 66.7k keys at the 50/50 1:1/1:2 shape ≈ 100k tuples (the acceptance
    // data point).
    let (sizes, reps) = match run.profile {
        Profile::Quick => (vec![1 << 10, 66_700], 3),
        Profile::Thorough => (vec![1 << 10, 1 << 14, 66_700], 5),
    };

    let mut report = Report::new("axiom-construction-v1", &run).seed(SEED).about(
        "ns_per_op",
        format!("full build wall time divided by item count, best of {reps} runs"),
    );
    for &keys in &sizes {
        report.push(bench_multimap::<AxiomMultiMap<u32, u32>>(
            "axiom", keys, reps,
        ));
        report.push(bench_multimap::<AxiomFusedMultiMap<u32, u32>>(
            "axiom-fused",
            keys,
            reps,
        ));
        report.push(bench_multimap::<ClojureMultiMap<u32, u32>>(
            "clojure", keys, reps,
        ));
        report.push(bench_multimap::<ScalaMultiMap<u32, u32>>(
            "scala", keys, reps,
        ));
        report.push(bench_multimap::<NestedChampMultiMap<u32, u32>>(
            "nested-champ",
            keys,
            reps,
        ));
        report.push(bench_map::<ChampMap<u32, u32>>("champ-map", keys, reps));
    }
    report.emit(&run);

    if run.gate.is_some() {
        let mut gate = Gate::new();
        let gated: Vec<&Row> = report
            .rows()
            .iter()
            .filter(|r| r.is("impl", "axiom") && r.num_of("items") >= 100_000.0)
            .collect();
        assert!(
            !gated.is_empty(),
            "gate requested but no >=100k-tuple axiom data point was measured"
        );
        for row in gated {
            let speedup = row.num_of("speedup");
            gate.check(
                speedup >= MIN_SPEEDUP,
                format!(
                    "axiom transient x{speedup:.2} vs persistent fold at {} tuples (required x{MIN_SPEEDUP:.2})",
                    row.num_of("items")
                ),
            );
        }
        gate.finish();
    }
}
