//! The `dominators` workload: the paper's §6 / Table 1 case study, in
//! process on one thread. The trie layer does all of the work.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use axiom::AxiomMultiMap;
use cfg_analysis::{
    assert_dominators_agree, dominators_relational, generate_corpus, Cfg, CfgNode, GenConfig,
};
use heapmodel::{Accounting, RustFootprint};
use serving::MultiMapRead;
use trie_common::ops::{MultiMapEdit, TransientOps};
use workloads::concurrent::interleave_script;

use crate::driver::{encode_script, Op, Pacing};
use crate::ledger::{sample_mask, Store};
use crate::report::{push_tail, Metric, Report};
use crate::stats::{column_medians, median};
use crate::trace::Recorder;
use crate::wire::{serve_ledger, time_once, Live, WINDOW};
use crate::Traced;

type Axiom = AxiomMultiMap<CfgNode, CfgNode>;

/// CFGs in the corpus (Table 1's largest size).
const CFGS: usize = 4096;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// CFGs of the side corpus the wire workloads' traced runs time.
const SIDE_CFGS: usize = 64;
/// CFGs sampled for the trie-probe replay.
const PROBE_SAMPLE_EVERY: usize = 8;

/// One sweep of the fixed point over the corpus: per-CFG fixpoint times
/// (ns) appended to `lat`, each solution's tuple count appended to
/// `counts`; with `check`, each solution is compared against
/// `dominators_bitset`.
fn sweep(
    corpus: &[Cfg],
    check: bool,
    lat: &mut Vec<f64>,
    counts: &mut Vec<usize>,
    rec: Option<&Recorder>,
) -> Result<(), String> {
    for (i, cfg) in corpus.iter().enumerate() {
        let start = Instant::now();
        let dom: Axiom = dominators_relational(cfg);
        let end = Instant::now();
        lat.push((end - start).as_nanos() as f64);
        counts.push(black_box(dom.tuple_count()));
        if let Some(rec) = rec {
            rec.record("cfg_analysis", "fixpoint", start, end, 0, i as u64);
        }
        if check {
            catch_unwind(AssertUnwindSafe(|| assert_dominators_agree(cfg, &dom)))
                .map_err(|_| format!("dominators of CFG {i} disagree with dominators_bitset"))?;
        }
    }
    Ok(())
}

/// Runs the `dominators` workload.
pub fn run(seed: u64, seconds: f64, traced: Option<&mut Traced>) -> Result<Report, String> {
    let corpus = generate_corpus(CFGS, seed, &GenConfig::default());
    let mut setups = Vec::new();
    let mut preds: Vec<Axiom> = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut preds));
        let t = Instant::now();
        preds = corpus.iter().map(|c| c.preds_relation()).collect();
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut acc = Accounting::new();
    let mut tuples = 0usize;
    for p in &preds {
        p.rust_footprint(&mut acc);
        tuples += p.tuple_count();
    }

    let mut report = Report {
        env: crate::environment(seed),
        ..Report::default()
    };
    report.env.push(("cfgs".into(), CFGS.to_string()));
    let keys: usize = preds.iter().map(|p| p.key_count()).sum();
    report.env.push(("preds_keys".into(), keys.to_string()));
    report.env.push(("preds_tuples".into(), tuples.to_string()));
    report.printed.push(Metric::new(
        "setup_s",
        "s",
        median(&setups).expect("set-ups ran"),
        format!("median of {SETUP_REPS}: every CFG's preds_relation"),
    ));
    report.printed.push(Metric::new(
        "heap_bytes_per_tuple",
        "B",
        acc.footprint.total() as f64 / tuples as f64,
        format!("RustFootprint of the preds relations, {tuples} tuples"),
    ));

    // A checked sweep first: it warms up and fixes each CFG's answer.
    let mut expected = Vec::new();
    sweep(&corpus, true, &mut Vec::new(), &mut expected, None)?;
    let timed = |rec: Option<&Recorder>, lat: &mut Vec<f64>| -> Result<(), String> {
        let mut counts = Vec::with_capacity(CFGS);
        sweep(&corpus, false, lat, &mut counts, rec)?;
        if counts != expected {
            return Err("a sweep's dominator sets differ from the checked sweep's".into());
        }
        Ok(())
    };
    let mut lat = Vec::new();
    match traced {
        None => {
            let start = Instant::now();
            while lat.len() < 2 * CFGS || start.elapsed().as_secs_f64() < seconds {
                timed(None, &mut lat)?;
            }
        }
        Some(tr) => {
            // Two untraced sweeps, then two traced ones.
            let mut plain = Vec::new();
            timed(None, &mut plain)?;
            timed(None, &mut plain)?;
            let rec = Recorder::new(tr.origin);
            timed(Some(&rec), &mut lat)?;
            timed(Some(&rec), &mut lat)?;
            tr.absorb(rec);
            let (a, b) = (
                rate(&column_medians(&plain, CFGS)),
                rate(&column_medians(&lat, CFGS)),
            );
            tr.metrics.push(Metric::new(
                "trace.overhead_frac",
                "ratio",
                (a - b) / a,
                format!("cfgs_per_s: untraced {a:.1}, traced {b:.1}"),
            ));
            tr.metrics.push(Metric::new(
                "cfg_analysis.fixpoint_us_per_cfg",
                "us",
                1e6 / b,
                format!("two traced sweeps over {CFGS} CFGs"),
            ));
            trie_layers(tr, &corpus, seed)?;
        }
    }
    report.attempted = lat.len() as u64;
    // Each CFG's median over the sweeps: a slow spell of the host hits
    // different CFGs in different sweeps, and the median drops it.
    let typical = column_medians(&lat, CFGS);
    let sweeps = lat.len() / CFGS;
    report.printed.push(Metric::new(
        "cfgs_per_s",
        "1/s",
        rate(&typical),
        format!("{CFGS} CFGs over the sum of each CFG's median of {sweeps} sweeps"),
    ));
    push_tail(
        &mut report.printed,
        "fixpoint",
        &[typical],
        &format!("per CFG, each CFG's median of {sweeps} sweeps"),
    );
    Ok(report)
}

/// The traced run's trie and serving layers for the dominators data: the
/// fixed point's own lookups replayed on the solved relations, the
/// transient build of `preds`, and the `preds` tuples served over the
/// wire as `u32` node ids.
fn trie_layers(tr: &mut Traced, corpus: &[Cfg], seed: u64) -> Result<(), String> {
    let rec = Recorder::new(tr.origin);
    let mut per_probe = Vec::new();
    for (i, cfg) in corpus.iter().enumerate().step_by(PROBE_SAMPLE_EVERY) {
        let dom: Axiom = dominators_relational(cfg);
        let entry = cfg.entry();
        let lookups = || {
            cfg.nodes
                .iter()
                .map(|n| {
                    dom.contains_key(n) as usize
                        + dom.value_count(n)
                        + dom.contains_tuple(n, entry) as usize
                })
                .sum::<usize>()
        };
        black_box(lookups());
        let (_, _, ns) = rec.time("axiom", "probe", 0, i as u64, lookups);
        per_probe.push(ns as f64 / (3 * cfg.nodes.len()) as f64);
    }
    let edges: Vec<Vec<(CfgNode, CfgNode)>> = corpus
        .iter()
        .map(|c| {
            c.edges
                .iter()
                .map(|&(a, b)| (c.nodes[b].clone(), c.nodes[a].clone()))
                .collect()
        })
        .collect();
    let tuples: usize = edges.iter().map(Vec::len).sum();
    let (built, ns) = time_once(|| {
        edges
            .iter()
            .map(|e| Axiom::built_from(e.iter().cloned()))
            .collect::<Vec<_>>()
    });
    drop(built);

    // The preds relation as served `u32` tuples: node j of CFG i is
    // `offset_i + j`. Reads ask each node's predecessors, 8 per batch;
    // writes re-insert preds tuples, 32 per batch (no change to the set).
    let mut offset = 0u32;
    let mut served = Vec::with_capacity(tuples);
    let mut nodes = Vec::new();
    for c in corpus {
        served.extend(
            c.edges
                .iter()
                .map(|&(a, b)| (offset + b as u32, offset + a as u32)),
        );
        nodes.extend((0..c.nodes.len() as u32).map(|j| offset + j));
        offset += c.nodes.len() as u32;
    }
    let reads: Vec<Vec<MultiMapRead<u32, u32>>> = nodes
        .chunks(8)
        .map(|ch| ch.iter().map(|n| MultiMapRead::ValuesOf(*n)).collect())
        .collect();
    let writes: Vec<Vec<MultiMapEdit<u32, u32>>> = served
        .chunks(32)
        .take(reads.len() / 16)
        .map(|ch| {
            ch.iter()
                .map(|&(k, v)| MultiMapEdit::Insert(k, v))
                .collect()
        })
        .collect();
    let script = encode_script(interleave_script(reads, writes, 16, Op::Read, Op::Write));
    let sampled = sample_mask(&script);
    let mut live = Live::spawn(Store::build_parallel(
        sharded::default_shard_count(),
        served.iter().copied(),
    ))?;
    live.phase(&script, Pacing::Window(WINDOW), 0.5, None)?;
    let run = live.phase(
        &script,
        Pacing::Window(WINDOW),
        1.0,
        Some((tr.origin, &sampled)),
    )?;
    if let Some(spans) = run.spans {
        tr.absorb(spans);
    }
    serve_ledger(tr, &mut live, &script, &sampled, None, "dominators")?;
    live.shut();
    tr.absorb(rec);

    // The trie figures come from the CfgNode relations, not the u32 copy.
    tr.metrics.retain(|m| m.name != "axiom.probe_ns");
    tr.metrics.push(Metric::new(
        "axiom.probe_ns",
        "ns",
        median(&per_probe).unwrap_or(0.0),
        format!(
            "contains_key + value_count + contains_tuple on {} solved CFGs",
            per_probe.len()
        ),
    ));
    tr.metrics.push(Metric::new(
        "axiom.build_ns_per_tuple",
        "ns",
        ns / tuples as f64,
        "transient bulk build of every preds relation",
    ));
    tr.table.push_str(&format!(
        "(cfg_analysis and axiom for this workload: see cfg_analysis.fixpoint_us_per_cfg and \
         axiom.probe_ns; the table above serves the preds tuples as u32 ids, seed {seed})\n"
    ));
    Ok(())
}

/// Fixed points per second, given each CFG's fixpoint time in ns.
fn rate(per_cfg_ns: &[f64]) -> f64 {
    per_cfg_ns.len() as f64 / (per_cfg_ns.iter().sum::<f64>() / 1e9)
}

/// `cfg_analysis.fixpoint_us_per_cfg` for the wire workloads, whose own
/// traffic never reaches the dominators code: timed on a small corpus
/// generated from the same seed, so every traced run reports every layer.
pub fn side_fixpoint(seed: u64) -> Metric {
    let corpus = generate_corpus(SIDE_CFGS, seed, &GenConfig::default());
    let mut lat = Vec::new();
    sweep(&corpus, false, &mut Vec::new(), &mut Vec::new(), None).expect("unchecked sweep");
    sweep(&corpus, false, &mut lat, &mut Vec::new(), None).expect("unchecked sweep");
    Metric::new(
        "cfg_analysis.fixpoint_us_per_cfg",
        "us",
        lat.iter().sum::<f64>() / lat.len() as f64 / 1e3,
        format!("{SIDE_CFGS}-CFG side corpus at the same seed"),
    )
}
