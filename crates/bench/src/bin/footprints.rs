//! §4.4 "Even Smaller Footprints": fusion and memory-layout specialization.
//!
//! The paper reports that, relative to the Clojure/Scala multi-maps, AXIOM
//! with fusion lowers footprints by ×2.43 on average, and fusion plus
//! specialization by ×5.1; fusion strictly helps runtimes (fewer
//! indirections) while specialization costs ≈ 20 % runtime.
//!
//! This binary reports (a) the footprint factors under the layout policies,
//! (b) the native heap bytes per tuple of the five multi-maps next to the
//! JVM model, and (c) the *measured runtime* effect of real fusion (the
//! `AxiomFusedMultiMap` representation) on the §4.1 operation suite.

use axiom::{AxiomFusedMultiMap, AxiomMultiMap};
use heapmodel::{JvmArch, JvmFootprint, LayoutPolicy, RustFootprint};
use idiomatic::{ClojureMultiMap, NestedChampMultiMap, ScalaMultiMap};
use paper_bench::{multimap_times, HarnessConfig};
use trie_common::ops::{MultiMapOps, TransientOps};
use workloads::build::multimap_transient;
use workloads::data::multimap_workload;
use workloads::timing::RatioSummary;
use workloads::{Table, SEEDS};

/// Structure bytes only — the paper's "key-value storage overhead" metric
/// (boxed payload is identical across all designs and would dilute ratios).
fn structure<M>(tuples: &[(u32, u32)], arch: &JvmArch, policy: &LayoutPolicy) -> u64
where
    M: MultiMapOps<u32, u32> + TransientOps<(u32, u32)> + JvmFootprint,
{
    let mm: M = multimap_transient(tuples);
    mm.jvm_bytes(arch, policy).structure
}

/// Native heap bytes per tuple (what the allocator holds, by the
/// `RustFootprint` walk) and modeled JVM overhead bytes per tuple
/// (structure only, compressed oops, baseline layout) of one design.
fn per_tuple<M>(tuples: &[(u32, u32)]) -> [String; 2]
where
    M: MultiMapOps<u32, u32> + TransientOps<(u32, u32)> + JvmFootprint + RustFootprint,
{
    let mm: M = multimap_transient(tuples);
    let n = tuples.len() as f64;
    let model = mm.jvm_bytes(&JvmArch::COMPRESSED_OOPS, &LayoutPolicy::BASELINE);
    [
        format!("{:.1}", mm.rust_bytes() as f64 / n),
        format!("{:.1}", model.structure as f64 / n),
    ]
}

fn main() {
    let cfg = HarnessConfig::from_env();
    let sizes: Vec<usize> = (8..=cfg.max_exp).step_by(2).map(|e| 1usize << e).collect();
    let arch = JvmArch::COMPRESSED_OOPS;

    println!("## §4.4 — Fusion and specialization footprints");
    println!();
    let mut table = Table::new(&[
        "size",
        "idiomatic avg",
        "axiom+fusion",
        "factor",
        "+specialization",
        "factor",
    ]);
    let mut fusion_factors = Vec::new();
    let mut spec_factors = Vec::new();
    for &size in &sizes {
        let w = multimap_workload(size, 11);
        let clj = structure::<ClojureMultiMap<u32, u32>>(&w.tuples, &arch, &LayoutPolicy::BASELINE);
        let scala = structure::<ScalaMultiMap<u32, u32>>(&w.tuples, &arch, &LayoutPolicy::BASELINE);
        let idiomatic_avg = (clj + scala) as f64 / 2.0;
        let fused =
            structure::<AxiomFusedMultiMap<u32, u32>>(&w.tuples, &arch, &LayoutPolicy::FUSED)
                as f64;
        let fused_spec = structure::<AxiomFusedMultiMap<u32, u32>>(
            &w.tuples,
            &arch,
            &LayoutPolicy::FUSED_SPECIALIZED,
        ) as f64;
        let f1 = idiomatic_avg / fused;
        let f2 = idiomatic_avg / fused_spec;
        fusion_factors.push(f1);
        spec_factors.push(f2);
        table.row(vec![
            size.to_string(),
            format!("{:.0} B", idiomatic_avg),
            format!("{fused:.0} B"),
            format!("x{f1:.2}"),
            format!("{fused_spec:.0} B"),
            format!("x{f2:.2}"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "  fusion only          paper: x2.43 average   measured: {}",
        RatioSummary::of(fusion_factors)
    );
    println!(
        "  fusion+specialized   paper: x5.1 average    measured: {}",
        RatioSummary::of(spec_factors)
    );
    println!();

    // --- native bytes next to the JVM model ---
    println!("## Native heap vs JVM model (2^14 keys, 50 % 1:1 / 50 % 1:2, u32)");
    println!();
    let w = multimap_workload(1 << 14, 11);
    let mut table = Table::new(&["design", "native B/tuple", "JVM-model overhead B/tuple"]);
    let rows = [
        ("AXIOM", per_tuple::<AxiomMultiMap<u32, u32>>(&w.tuples)),
        (
            "AXIOM fused",
            per_tuple::<AxiomFusedMultiMap<u32, u32>>(&w.tuples),
        ),
        (
            "nested CHAMP",
            per_tuple::<NestedChampMultiMap<u32, u32>>(&w.tuples),
        ),
        ("Clojure", per_tuple::<ClojureMultiMap<u32, u32>>(&w.tuples)),
        ("Scala", per_tuple::<ScalaMultiMap<u32, u32>>(&w.tuples)),
    ];
    for (design, [native, model]) in rows {
        table.row(vec![design.to_string(), native, model]);
    }
    println!("{}", table.render());
    println!();

    // --- runtime effect of real fusion ---
    println!("## Runtime effect of fusion (nested/fused time ratios, >1 = fusion faster)");
    println!();
    let mut ratios: [Vec<f64>; 4] = Default::default();
    for &size in &cfg.sizes() {
        for &seed in &SEEDS[..cfg.seeds] {
            let w = multimap_workload(size, seed);
            let nested = multimap_times::<AxiomMultiMap<u32, u32>>(&w, &cfg.opts);
            let fused = multimap_times::<AxiomFusedMultiMap<u32, u32>>(&w, &cfg.opts);
            ratios[0].push(nested.lookup.median_ns / fused.lookup.median_ns);
            ratios[1].push(nested.insert.median_ns / fused.insert.median_ns);
            ratios[2].push(nested.delete.median_ns / fused.delete.median_ns);
            ratios[3].push(nested.iter_entry.median_ns / fused.iter_entry.median_ns);
        }
    }
    for (name, values) in ["Lookup", "Insert", "Delete", "Iteration (Entry)"]
        .iter()
        .zip(ratios)
    {
        println!(
            "  {name:<18} paper: strictly positive   measured: {}",
            RatioSummary::of(values)
        );
    }
}
