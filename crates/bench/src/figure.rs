//! Shared driver for the multi-map comparison figures (Figures 4 and 5).
//!
//! Both figures compare the AXIOM multi-map against one idiomatic baseline
//! over the full size sweep, reporting per-operation speedup factors
//! (`baseline_time / axiom_time`, > 1 ⇒ AXIOM faster) and footprint factors
//! (`baseline_bytes / axiom_bytes`, > 1 ⇒ AXIOM smaller).

use axiom::AxiomMultiMap;
use heapmodel::{JvmFootprint, LayoutPolicy};
use trie_common::ops::{MultiMapOps, TransientOps};
use workloads::build::multimap_transient;
use workloads::data::multimap_workload;
use workloads::timing::RatioSummary;
use workloads::{Table, SEEDS};

use crate::{multimap_times, time_pair, HarnessConfig};

/// Collected speedup/footprint ratios for one figure.
#[derive(Debug)]
pub struct FigureData {
    /// One table row per size (medians across seeds).
    pub table: Table,
    /// All per-data-point ratios, keyed by metric, for box-plot summaries.
    pub lookup: Vec<f64>,
    /// Negative-lookup ratios.
    pub lookup_fail: Vec<f64>,
    /// Insert ratios.
    pub insert: Vec<f64>,
    /// Delete ratios.
    pub delete: Vec<f64>,
    /// Footprint ratios, compressed-oops model.
    pub footprint_32: Vec<f64>,
    /// Footprint ratios, 64-bit model.
    pub footprint_64: Vec<f64>,
}

fn median_of(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Runs the figure comparison against baseline `B`.
pub fn run_figure<B>(cfg: &HarnessConfig) -> FigureData
where
    B: MultiMapOps<u32, u32> + TransientOps<(u32, u32)> + JvmFootprint,
{
    let mut table = Table::new(&[
        "size", "lookup", "miss", "insert", "delete", "mem32", "mem64",
    ]);
    let mut data = FigureData {
        table: Table::new(&[]),
        lookup: vec![],
        lookup_fail: vec![],
        insert: vec![],
        delete: vec![],
        footprint_32: vec![],
        footprint_64: vec![],
    };

    for (size_index, &size) in cfg.sizes().iter().enumerate() {
        let mut per_size: [Vec<f64>; 6] = Default::default();
        for (seed_index, &seed) in SEEDS[..cfg.seeds].iter().enumerate() {
            let w = multimap_workload(size, seed);
            let (axiom, base) = time_pair(
                size_index + seed_index,
                || multimap_times::<AxiomMultiMap<u32, u32>>(&w, &cfg.opts),
                || multimap_times::<B>(&w, &cfg.opts),
            );

            let ratios = [
                base.lookup.median_ns / axiom.lookup.median_ns,
                base.lookup_fail.median_ns / axiom.lookup_fail.median_ns,
                base.insert.median_ns / axiom.insert.median_ns,
                base.delete.median_ns / axiom.delete.median_ns,
            ];

            // The paper's footprint metric is the overhead of the encoding
            // itself ("key-value storage overhead"), so compare structure
            // bytes — boxed payload is identical on both sides. Construction
            // here is not timed, so take the cheap transient path.
            let axiom_mm: AxiomMultiMap<u32, u32> = multimap_transient(&w.tuples);
            let base_mm: B = multimap_transient(&w.tuples);
            let arch32 = heapmodel::JvmArch::COMPRESSED_OOPS;
            let arch64 = heapmodel::JvmArch::UNCOMPRESSED;
            let policy = LayoutPolicy::BASELINE;
            let mem32 = base_mm.jvm_bytes(&arch32, &policy).structure as f64
                / axiom_mm.jvm_bytes(&arch32, &policy).structure as f64;
            let mem64 = base_mm.jvm_bytes(&arch64, &policy).structure as f64
                / axiom_mm.jvm_bytes(&arch64, &policy).structure as f64;

            for (bucket, r) in per_size
                .iter_mut()
                .zip(ratios.into_iter().chain([mem32, mem64]))
            {
                bucket.push(r);
            }
        }
        let med: Vec<f64> = per_size.iter().map(|v| median_of(v.clone())).collect();
        table.row(vec![
            size.to_string(),
            format!("x{:.2}", med[0]),
            format!("x{:.2}", med[1]),
            format!("x{:.2}", med[2]),
            format!("x{:.2}", med[3]),
            format!("x{:.2}", med[4]),
            format!("x{:.2}", med[5]),
        ]);
        data.lookup.extend(&per_size[0]);
        data.lookup_fail.extend(&per_size[1]);
        data.insert.extend(&per_size[2]);
        data.delete.extend(&per_size[3]);
        data.footprint_32.extend(&per_size[4]);
        data.footprint_64.extend(&per_size[5]);
    }

    data.table = table;
    data
}

/// Prints the figure: per-size table, box-plot summaries and the paper's
/// expected medians for eyeball comparison.
pub fn print_figure(title: &str, data: &FigureData, expectations: &[(&str, &str, &Vec<f64>)]) {
    println!("## {title}");
    println!();
    println!("(ratios are baseline/AXIOM: >1 means AXIOM is faster / smaller)");
    println!();
    println!("{}", data.table.render());
    println!("Summary across all size/seed data points (box-plot statistics):");
    for (metric, paper, values) in expectations {
        let summary = RatioSummary::of((*values).clone());
        println!("  {metric:<18} paper: {paper:<22} measured: {summary}");
    }
    println!();
}
