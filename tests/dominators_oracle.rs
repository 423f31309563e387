//! Workspace-level dominator validation: the relational fixed point over
//! every multi-map backend must agree with the independent bitset oracle on
//! a generated corpus, and the corpus must match Table 1's shape statistics.

use axiom_repro::axiom::{AxiomFusedMultiMap, AxiomMultiMap};
use axiom_repro::cfg_analysis::ast::CfgNode;
use axiom_repro::cfg_analysis::dominators::{
    assert_dominators_agree, dominators_bitset, dominators_relational,
};
use axiom_repro::cfg_analysis::generate::{generate_corpus, GenConfig};
use axiom_repro::cfg_analysis::graph::relation_shape;
use axiom_repro::idiomatic::{ClojureMultiMap, NestedChampMultiMap, ScalaMultiMap};
use axiom_repro::trie_common::ops::MultiMapOps;

#[test]
fn every_backend_matches_the_bitset_oracle() {
    let corpus = generate_corpus(20, 2024, &GenConfig::default());
    for cfg in &corpus {
        cfg.assert_well_formed();
        let a: AxiomMultiMap<CfgNode, CfgNode> = dominators_relational(cfg);
        assert_dominators_agree(cfg, &a);
        a.assert_invariants();
        let f: AxiomFusedMultiMap<CfgNode, CfgNode> = dominators_relational(cfg);
        assert_dominators_agree(cfg, &f);
        f.assert_invariants();
        let n: NestedChampMultiMap<CfgNode, CfgNode> = dominators_relational(cfg);
        assert_dominators_agree(cfg, &n);
        let c: ClojureMultiMap<CfgNode, CfgNode> = dominators_relational(cfg);
        assert_dominators_agree(cfg, &c);
        let s: ScalaMultiMap<CfgNode, CfgNode> = dominators_relational(cfg);
        assert_dominators_agree(cfg, &s);
    }
}

#[test]
fn dominator_sets_grow_along_chains() {
    // In any CFG, |Dom(n)| ≥ |Dom(idom(n))| is implied by the theory; check
    // the bitset solution satisfies basic sanity on a larger corpus.
    let corpus = generate_corpus(40, 9, &GenConfig::default());
    for cfg in &corpus {
        let dom = dominators_bitset(cfg);
        let count = |i: usize| -> u32 { dom[i].iter().map(|w| w.count_ones()).sum() };
        // Entry dominates itself only.
        assert_eq!(count(0), 1);
        for i in 0..cfg.nodes.len() {
            if count(i) > 0 {
                // Every reachable node is dominated by the entry and itself.
                assert!(dom[i][0] & 1 == 1, "entry must dominate node {i}");
                assert!(dom[i][i / 64] >> (i % 64) & 1 == 1, "self-domination");
            }
        }
    }
}

#[test]
fn corpus_shape_matches_table1_bands() {
    // Aggregate preds shape across a Table-1-sized slice of the corpus.
    let corpus = generate_corpus(128, 1, &GenConfig::default());
    let mut keys = 0usize;
    let mut tuples = 0usize;
    let mut singles = 0f64;
    for cfg in &corpus {
        let preds: AxiomMultiMap<CfgNode, CfgNode> = cfg.preds_relation();
        let shape = relation_shape(&preds);
        keys += shape.keys;
        tuples += shape.tuples;
        singles += shape.pct_one_to_one / 100.0 * shape.keys as f64;
    }
    let pct = 100.0 * singles / keys as f64;
    assert!(
        (88.0..=95.0).contains(&pct),
        "corpus one-to-one {pct:.1}% out of Table 1 band"
    );
    let ratio = tuples as f64 / keys as f64;
    assert!(
        (1.02..=1.12).contains(&ratio),
        "tuples/keys {ratio:.3} out of Table 1 band"
    );
}

#[test]
fn dominators_are_deterministic_across_backends_and_runs() {
    let corpus = generate_corpus(6, 55, &GenConfig::default());
    for cfg in &corpus {
        let a1: AxiomMultiMap<CfgNode, CfgNode> = dominators_relational(cfg);
        let a2: AxiomMultiMap<CfgNode, CfgNode> = dominators_relational(cfg);
        assert_eq!(a1, a2);
        let n: NestedChampMultiMap<CfgNode, CfgNode> = dominators_relational(cfg);
        assert_eq!(a1.tuple_count(), n.tuple_count());
        assert_eq!(a1.key_count(), n.key_count());
    }
}
