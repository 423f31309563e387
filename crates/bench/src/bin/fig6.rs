//! Figure 6: AXIOM used as a plain map vs the special-purpose CHAMP map
//! (baseline).
//!
//! Paper medians (AXIOM relative to CHAMP): lookup 27 % slower, negative
//! lookup 24 % slower, insert 4 % slower, delete 18 % slower — but iteration
//! over keys 48 % faster and over entries 25 % faster. Footprints are
//! identical (Hypothesis 6), which the binary also verifies.

use axiom::AxiomMap;
use champ::ChampMap;
use heapmodel::{JvmArch, JvmFootprint, LayoutPolicy};
use paper_bench::{map_times, time_pair, HarnessConfig};
use workloads::data::map_workload;
use workloads::timing::RatioSummary;
use workloads::{Table, SEEDS};

fn median_of(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn main() {
    let cfg = HarnessConfig::from_env();
    eprintln!(
        "fig6: sizes up to 2^{}, {} seed(s) per size",
        cfg.max_exp, cfg.seeds
    );

    let mut table = Table::new(&[
        "size",
        "lookup",
        "miss",
        "insert",
        "delete",
        "iter-key",
        "iter-entry",
    ]);
    let mut all: [Vec<f64>; 6] = Default::default();
    let mut footprints_equal = true;

    for (size_index, &size) in cfg.sizes().iter().enumerate() {
        let mut per_size: [Vec<f64>; 6] = Default::default();
        for (seed_index, &seed) in SEEDS[..cfg.seeds].iter().enumerate() {
            let w = map_workload(size, seed);
            let (axiom, champ) = time_pair(
                size_index + seed_index,
                || map_times::<AxiomMap<u32, u32>>(&w, &cfg.opts),
                || map_times::<ChampMap<u32, u32>>(&w, &cfg.opts),
            );
            let ratios = [
                champ.lookup.median_ns / axiom.lookup.median_ns,
                champ.lookup_fail.median_ns / axiom.lookup_fail.median_ns,
                champ.insert.median_ns / axiom.insert.median_ns,
                champ.delete.median_ns / axiom.delete.median_ns,
                champ.iter_key.median_ns / axiom.iter_key.median_ns,
                champ.iter_entry.median_ns / axiom.iter_entry.median_ns,
            ];
            for (bucket, r) in per_size.iter_mut().zip(ratios) {
                bucket.push(r);
            }

            // Hypothesis 6: modeled footprints match exactly.
            let am: AxiomMap<u32, u32> = w.entries.iter().copied().collect();
            let cm: ChampMap<u32, u32> = w.entries.iter().copied().collect();
            for arch in [JvmArch::COMPRESSED_OOPS, JvmArch::UNCOMPRESSED] {
                let a = am.jvm_bytes(&arch, &LayoutPolicy::BASELINE).total();
                let c = cm.jvm_bytes(&arch, &LayoutPolicy::BASELINE).total();
                if a != c {
                    footprints_equal = false;
                }
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
        for (a, p) in all.iter_mut().zip(per_size) {
            a.extend(p);
        }
    }

    println!("## Figure 6 — AXIOM map vs CHAMP map");
    println!();
    println!("(ratios are CHAMP/AXIOM: >1 means AXIOM is faster)");
    println!();
    println!("{}", table.render());
    println!("Summary across all size/seed data points:");
    let expectations = [
        ("Lookup", "x0.79 (27% slower)"),
        ("Lookup (Fail)", "x0.81 (24% slower)"),
        ("Insert", "x0.96 (4% slower)"),
        ("Delete", "x0.85 (18% slower)"),
        ("Iteration (Key)", "x1.48 (48% faster)"),
        ("Iteration (Entry)", "x1.25 (25% faster)"),
    ];
    for ((metric, paper), values) in expectations.iter().zip(&all) {
        let summary = RatioSummary::of(values.clone());
        println!("  {metric:<18} paper: {paper:<22} measured: {summary}");
    }
    println!();
    println!(
        "Footprint parity (Hypothesis 6): {}",
        if footprints_equal {
            "CONFIRMED — AXIOM and CHAMP model to identical bytes"
        } else {
            "VIOLATED"
        }
    );
}
