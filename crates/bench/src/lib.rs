//! **paper-bench** — the harness that regenerates every table and figure of
//! the PLDI'18 AXIOM evaluation. See DESIGN.md §4 for the experiment index.
//!
//! The library half holds the reusable measurement suites (operation bursts
//! per §4.1, footprint sweeps, dominator timings); the binaries in
//! `src/bin/` print one paper artefact each:
//!
//! | binary | artefact |
//! |---|---|
//! | `fig4` | AXIOM multi-map vs idiomatic Clojure multi-map |
//! | `fig5` | AXIOM multi-map vs idiomatic Scala multi-map |
//! | `fig6` | AXIOM map vs CHAMP map (+ iteration) |
//! | `table1` | CFG dominators case study |
//! | `overhead` | §1/§4 per-tuple overhead (65.37 B vs 12.82 B) |
//! | `footprints` | §4.4 fusion / specialization factors |
//! | `ablation` | design-choice ablations (dispatch, iteration, canonicalization, fusion) |
//!
//! The `*_json` binaries emit the machine-readable `BENCH_*.json` files
//! and run the CI perf gates through [`report`].
//!
//! Knobs via environment: `AXIOM_BENCH_MAX_EXP` (largest size exponent,
//! default 14), `AXIOM_BENCH_SEEDS` (seeds per size, default 3, max 5),
//! `AXIOM_BENCH_PROFILE` (`quick`/`thorough`).

#![warn(missing_docs)]

pub mod figure;
pub mod report;

use heapmodel::{JvmArch, JvmFootprint, LayoutPolicy};
use serving::MultiMapRead;
use trie_common::ops::{MapOps, MultiMapOps, TransientOps};
use workloads::build::{map_persistent, multimap_persistent, multimap_transient};
use workloads::concurrent::ReadProbe;
use workloads::data::{MapWorkload, MultiMapWorkload};
use workloads::timing::{measure, BenchOptions, Stats};

/// Times one figure data point's two sides, AXIOM's and its baseline's, in
/// an order that alternates with `point` (the size index plus the seed
/// index, so it alternates per seed, and per size when one seed runs).
/// Whichever side runs second meets the heap and caches the first left, so
/// a fixed order would put that effect into every ratio on one side.
pub fn time_pair<A, B>(
    point: usize,
    axiom: impl FnOnce() -> A,
    baseline: impl FnOnce() -> B,
) -> (A, B) {
    match point % 2 {
        0 => {
            let a = axiom();
            (a, baseline())
        }
        _ => {
            let b = baseline();
            (axiom(), b)
        }
    }
}

/// Per-operation timings of one multi-map implementation on one workload.
#[derive(Debug, Clone, Copy)]
pub struct MultiMapTimes {
    /// Lookup: full-match + partial-match bursts (`contains_tuple`).
    pub lookup: Stats,
    /// Lookup (Fail): absent-key burst.
    pub lookup_fail: Stats,
    /// Insert: full/partial/no-match bursts (no-ops, promotions, new keys).
    pub insert: Stats,
    /// Delete: full/partial-match bursts (removals incl. demotions, no-ops).
    pub delete: Stats,
    /// Iteration over distinct keys.
    pub iter_key: Stats,
    /// Iteration over flattened `(key, value)` tuples.
    pub iter_entry: Stats,
}

/// Runs the §4.1 operation bursts against `M` on workload `w`.
pub fn multimap_times<M: MultiMapOps<u32, u32>>(
    w: &MultiMapWorkload,
    opts: &BenchOptions,
) -> MultiMapTimes {
    let mm: M = multimap_persistent(&w.tuples);

    let lookup = measure(opts, || {
        let mut hits = 0usize;
        for (k, v) in w.hit_tuples.iter().chain(&w.partial_tuples) {
            if mm.contains_tuple(k, v) {
                hits += 1;
            }
        }
        hits
    });

    let lookup_fail = measure(opts, || {
        let mut hits = 0usize;
        for (k, v) in &w.miss_tuples {
            if mm.contains_tuple(k, v) {
                hits += 1;
            }
        }
        hits
    });

    let insert = measure(opts, || {
        let mut out = mm.clone();
        for (k, v) in w
            .hit_tuples
            .iter()
            .chain(&w.partial_tuples)
            .chain(&w.miss_tuples)
        {
            out = out.inserted(*k, *v);
        }
        out.tuple_count()
    });

    let delete = measure(opts, || {
        let mut out = mm.clone();
        for (k, v) in w.hit_tuples.iter().chain(&w.partial_tuples) {
            out = out.tuple_removed(k, v);
        }
        out.tuple_count()
    });

    let iter_key = measure(opts, || mm.keys().count());

    let iter_entry = measure(opts, || {
        mm.tuples()
            .fold(0u64, |acc, (k, v)| acc.wrapping_add(*k as u64 ^ *v as u64))
    });

    MultiMapTimes {
        lookup,
        lookup_fail,
        insert,
        delete,
        iter_key,
        iter_entry,
    }
}

/// Timings of the two bulk-construction paths of one multi-map.
#[derive(Debug, Clone, Copy)]
pub struct ConstructionTimes {
    /// Fold of persistent `inserted` calls (one new root per tuple).
    pub persistent: Stats,
    /// Transient builder: bulk `insert_mut` batch, one freeze.
    pub transient: Stats,
}

/// Measures persistent-fold vs transient-builder construction of `M` from
/// `tuples`.
pub fn construction_times<M>(tuples: &[(u32, u32)], opts: &BenchOptions) -> ConstructionTimes
where
    M: MultiMapOps<u32, u32> + TransientOps<(u32, u32)>,
{
    let persistent = measure(opts, || {
        let mm: M = multimap_persistent(tuples);
        mm.tuple_count()
    });
    let transient = measure(opts, || {
        let mm: M = multimap_transient(tuples);
        mm.tuple_count()
    });
    ConstructionTimes {
        persistent,
        transient,
    }
}

/// Modeled JVM footprints of one structure under both architectures.
#[derive(Debug, Clone, Copy)]
pub struct Footprints {
    /// Compressed-oops total bytes (the paper's "32-bit").
    pub bytes_32: u64,
    /// Uncompressed 64-bit total bytes.
    pub bytes_64: u64,
}

/// Measures a structure's modeled footprints under `policy`.
pub fn footprints_of<S: JvmFootprint>(s: &S, policy: &LayoutPolicy) -> Footprints {
    Footprints {
        bytes_32: s.jvm_bytes(&JvmArch::COMPRESSED_OOPS, policy).total(),
        bytes_64: s.jvm_bytes(&JvmArch::UNCOMPRESSED, policy).total(),
    }
}

/// Per-operation timings of one map implementation (Figure 6 suite).
#[derive(Debug, Clone, Copy)]
pub struct MapTimes {
    /// Lookup of present keys.
    pub lookup: Stats,
    /// Lookup of absent keys.
    pub lookup_fail: Stats,
    /// Insert burst: replacements and fresh keys.
    pub insert: Stats,
    /// Delete burst: present keys.
    pub delete: Stats,
    /// Iteration (Key).
    pub iter_key: Stats,
    /// Iteration (Entry).
    pub iter_entry: Stats,
}

/// Runs the §5.1 operation suite against map `M` on workload `w`.
pub fn map_times<M: MapOps<u32, u32>>(w: &MapWorkload, opts: &BenchOptions) -> MapTimes {
    let m: M = map_persistent(&w.entries);

    let lookup = measure(opts, || {
        let mut hits = 0usize;
        for k in &w.hit_keys {
            if m.contains_key(k) {
                hits += 1;
            }
        }
        hits
    });

    let lookup_fail = measure(opts, || {
        let mut hits = 0usize;
        for k in &w.miss_keys {
            if m.contains_key(k) {
                hits += 1;
            }
        }
        hits
    });

    let insert = measure(opts, || {
        let mut out = m.clone();
        for &k in &w.hit_keys {
            out = out.inserted(k, k); // replacement path
        }
        for &(k, v) in &w.insert_entries {
            out = out.inserted(k, v); // fresh-key path
        }
        out.len()
    });

    let delete = measure(opts, || {
        let mut out = m.clone();
        for k in w.hit_keys.iter().chain(&w.miss_keys) {
            out = out.removed(k);
        }
        out.len()
    });

    let iter_key = measure(opts, || m.keys().count());

    let iter_entry = measure(opts, || {
        m.entries()
            .fold(0u64, |acc, (k, v)| acc.wrapping_add(*k as u64 ^ *v as u64))
    });

    MapTimes {
        lookup,
        lookup_fail,
        insert,
        delete,
        iter_key,
        iter_entry,
    }
}

/// The serving engine's read requests for generated probe batches, one
/// request per batch.
pub fn read_requests(batches: &[Vec<ReadProbe>]) -> Vec<Vec<MultiMapRead<u32, u32>>> {
    let op = |probe: &ReadProbe| match probe {
        ReadProbe::ValuesOf(k) => MultiMapRead::ValuesOf(*k),
        ReadProbe::ContainsKey(k) => MultiMapRead::ContainsKey(*k),
        ReadProbe::FanOut(ks) => MultiMapRead::FanOut(ks.clone()),
    };
    batches.iter().map(|b| b.iter().map(op).collect()).collect()
}

/// Harness configuration from the environment (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Largest size exponent in the sweep.
    pub max_exp: u32,
    /// Number of seeds per size (1..=5).
    pub seeds: usize,
    /// Measurement profile.
    pub opts: BenchOptions,
}

impl HarnessConfig {
    /// Reads the configuration from the environment with paper-scaled
    /// defaults that complete in minutes.
    pub fn from_env() -> HarnessConfig {
        let max_exp = std::env::var("AXIOM_BENCH_MAX_EXP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(14)
            .clamp(2, 23);
        let seeds = std::env::var("AXIOM_BENCH_SEEDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(3)
            .clamp(1, workloads::SEEDS.len());
        let opts = match std::env::var("AXIOM_BENCH_PROFILE").as_deref() {
            Ok("thorough") => BenchOptions::THOROUGH,
            _ => BenchOptions::QUICK,
        };
        HarnessConfig {
            max_exp,
            seeds,
            opts,
        }
    }

    /// The size sweep for this configuration: even exponents starting at 4
    /// (keeps the printed tables readable while spanning the range).
    pub fn sizes(&self) -> Vec<usize> {
        (2..=self.max_exp)
            .filter(|e| e % 2 == 0)
            .map(|e| 1usize << e)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axiom::AxiomMultiMap;
    use idiomatic::ClojureMultiMap;
    use workloads::data::multimap_workload;

    #[test]
    fn suites_run_and_agree_on_semantics() {
        let w = multimap_workload(128, 11);
        let opts = BenchOptions {
            warmup_iters: 1,
            measure_iters: 3,
            inner_reps: 1,
        };
        let a = multimap_times::<AxiomMultiMap<u32, u32>>(&w, &opts);
        let c = multimap_times::<ClojureMultiMap<u32, u32>>(&w, &opts);
        assert!(a.lookup.median_ns > 0.0);
        assert!(c.insert.median_ns > 0.0);
        // Both built the same relation.
        let am: AxiomMultiMap<u32, u32> = multimap_persistent(&w.tuples);
        let cm: ClojureMultiMap<u32, u32> = multimap_persistent(&w.tuples);
        assert_eq!(am.tuple_count(), cm.tuple_count());
        assert_eq!(am.key_count(), cm.key_count());
    }

    #[test]
    fn construction_suite_runs_and_paths_agree() {
        let w = multimap_workload(256, 7);
        let opts = BenchOptions {
            warmup_iters: 1,
            measure_iters: 2,
            inner_reps: 1,
        };
        let times = construction_times::<AxiomMultiMap<u32, u32>>(&w.tuples, &opts);
        assert!(times.persistent.median_ns > 0.0);
        assert!(times.transient.median_ns > 0.0);
        let p: AxiomMultiMap<u32, u32> = multimap_persistent(&w.tuples);
        let t: AxiomMultiMap<u32, u32> = multimap_transient(&w.tuples);
        assert_eq!(p, t);
    }

    #[test]
    fn footprints_are_ordered_by_arch() {
        let w = multimap_workload(256, 3);
        let mm: AxiomMultiMap<u32, u32> = multimap_persistent(&w.tuples);
        let fp = footprints_of(&mm, &LayoutPolicy::BASELINE);
        assert!(fp.bytes_64 > fp.bytes_32);
    }

    #[test]
    fn harness_config_defaults() {
        let cfg = HarnessConfig::from_env();
        assert!(cfg.max_exp >= 2);
        assert!(!cfg.sizes().is_empty());
    }
}
