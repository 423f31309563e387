//! Control-flow dominators: the paper's §6 case study.
//!
//! Two independent implementations:
//!
//! * [`dominators_relational`] — the paper's approach: the dominance
//!   equations `Dom(n0) = {n0}`, `Dom(n) = (∩_{p∈preds(n)} Dom(p)) ∪ {n}`
//!   solved by fixed-point iteration *directly over persistent multi-maps*
//!   (the `Dom` relation is a multi-map, and the big intersection folds the
//!   predecessors' dominator sets with the sets' structural intersection,
//!   as §6 describes). Generic over [`MultiMapMutOps`], so Table 1 runs it
//!   unchanged over nested-CHAMP and AXIOM multi-maps.
//! * [`dominators_bitset`] — an index-based iterative bitset algorithm, used
//!   as an independent oracle in tests (and by the well-known dominator-tree
//!   derivation [`dominator_tree`]).

use trie_common::hash::hash32;
use trie_common::ops::{MultiMapMutOps, MultiMapOps, SetAlgebraOps, SetMutOps};

use crate::ast::CfgNode;
use crate::graph::Cfg;

/// Solves the dominance equations over a persistent multi-map `M`.
///
/// The result maps every reachable node to its full dominator set (including
/// itself), as a multi-map `node ↦ {dominators}`. The fixed point works on
/// whole value sets with the sets' structural algebra, as §6 describes:
/// each predecessor's dominators are read out as an owned set
/// ([`value_set`](MultiMapMutOps::value_set), an `O(1)` clone of a nested
/// trie set), the sets are folded with
/// [`intersect`](trie_common::ops::SetAlgebraOps::intersect), and the node
/// itself is inserted. The candidate is compared with the node's current
/// set by `==` and, when it differs, bound with one
/// [`put_value_set_mut`](MultiMapMutOps::put_value_set_mut). Both the
/// intersection and the comparison walk the tries in lockstep and skip
/// subtrees shared by pointer, and the put stores the set as it is, so
/// `Dom(n)` keeps sharing every subtree it did not change with the
/// `Dom(p)` it came from. A sweep that rebinds nothing is the fixed point.
///
/// A node's (deliberately expensive) hash is paid once per CFG: the nodes
/// are hashed up front, and every lookup, insert and put of the fixed
/// point goes through the `_hashed` entry points
/// ([`value_set_hashed`](MultiMapMutOps::value_set_hashed),
/// [`insert_hashed_mut`](SetMutOps::insert_hashed_mut),
/// [`put_value_set_hashed_mut`](MultiMapMutOps::put_value_set_hashed_mut)),
/// which the AXIOM and nested-CHAMP multi-maps and their sets walk by the
/// given hash. What is left is the walks' own hashing: an element pushed
/// down into a new sub-trie, an intersection probing a sub-trie for a
/// lone element of the other set, and the value of a one-element set read
/// out of a `1:1` binding. The Clojure and Scala emulations take the
/// traits' defaults, which ignore the hash.
pub fn dominators_relational<M>(cfg: &Cfg) -> M
where
    M: MultiMapMutOps<CfgNode, CfgNode>,
{
    let rpo = cfg.reverse_postorder();
    let preds_idx = cfg.pred_indices();
    let nodes = &cfg.nodes;
    let hashes: Vec<u32> = nodes.iter().map(hash32).collect();

    // Dom(entry) = {entry}; all other nodes start "unknown" (absent), which
    // behaves as the full set in the intersection.
    let mut dom = M::empty();
    dom.insert_mut(nodes[0].clone(), nodes[0].clone());

    loop {
        let mut changed = false;
        for &n in rpo.iter().skip(1) {
            // The intersection of the predecessors' sets, skipping
            // still-unknown ones.
            let mut candidate: Option<M::ValueSet> = None;
            for &p in &preds_idx[n] {
                let Some(dom_p) = dom.value_set_hashed(&nodes[p], hashes[p]) else {
                    continue;
                };
                candidate = Some(match candidate {
                    None => dom_p,
                    Some(acc) => acc.intersect(&dom_p),
                });
            }
            let Some(mut new_dom) = candidate else {
                continue; // no processed predecessor yet
            };
            new_dom.insert_hashed_mut(nodes[n].clone(), hashes[n]);
            // Compare against the current solution; rebind on change.
            if dom.value_set_hashed(&nodes[n], hashes[n]).as_ref() != Some(&new_dom) {
                dom.put_value_set_hashed_mut(nodes[n].clone(), hashes[n], new_dom);
                changed = true;
            }
        }
        if !changed {
            return dom;
        }
    }
}

/// Reference algorithm: iterative dominator sets over index bitsets.
///
/// Returns one bitset per node (`Vec<u64>` blocks); unreachable nodes have
/// empty sets.
pub fn dominators_bitset(cfg: &Cfg) -> Vec<Vec<u64>> {
    let n = cfg.nodes.len();
    let blocks = n.div_ceil(64);
    let full = {
        let mut v = vec![u64::MAX; blocks];
        if !n.is_multiple_of(64) {
            v[blocks - 1] = (1u64 << (n % 64)) - 1;
        }
        v
    };
    let mut dom = vec![full.clone(); n];
    // Entry dominates only itself.
    dom[0] = vec![0; blocks];
    dom[0][0] = 1;

    let rpo = cfg.reverse_postorder();
    let reachable: Vec<bool> = {
        let mut r = vec![false; n];
        for &i in &rpo {
            r[i] = true;
        }
        r
    };
    let preds = cfg.pred_indices();
    let mut changed = true;
    while changed {
        changed = false;
        for &i in rpo.iter().skip(1) {
            let mut new = full.clone();
            let mut any = false;
            for &p in &preds[i] {
                if !reachable[p] {
                    continue;
                }
                for (b, word) in new.iter_mut().enumerate() {
                    *word &= dom[p][b];
                }
                any = true;
            }
            if !any {
                continue;
            }
            new[i / 64] |= 1u64 << (i % 64);
            if new != dom[i] {
                dom[i] = new;
                changed = true;
            }
        }
    }
    for (i, d) in dom.iter_mut().enumerate() {
        if !reachable[i] {
            d.iter_mut().for_each(|w| *w = 0);
        }
    }
    dom
}

/// Immediate-dominator extraction from full dominator sets: `idom(n)` is the
/// strict dominator whose own dominator set is largest.
///
/// Returns `idom[i] = Some(j)` for every reachable node except the entry.
pub fn dominator_tree(cfg: &Cfg) -> Vec<Option<usize>> {
    let dom = dominators_bitset(cfg);
    let n = cfg.nodes.len();
    let count = |i: usize| -> u32 { dom[i].iter().map(|w| w.count_ones()).sum() };
    let mut idom = vec![None; n];
    for i in 1..n {
        if count(i) == 0 {
            continue; // unreachable
        }
        let mut best: Option<usize> = None;
        for j in 0..n {
            if j == i {
                continue;
            }
            let is_dom = dom[i][j / 64] >> (j % 64) & 1 == 1;
            if is_dom && best.is_none_or(|b| count(j) > count(b)) {
                best = Some(j);
            }
        }
        idom[i] = best;
    }
    idom
}

/// Cross-checks a relational dominator solution against the bitset oracle.
///
/// # Panics
///
/// Panics on any disagreement (used by tests and the Table 1 harness in
/// verification mode).
pub fn assert_dominators_agree<M: MultiMapOps<CfgNode, CfgNode>>(cfg: &Cfg, relational: &M) {
    let oracle = dominators_bitset(cfg);
    for (i, node) in cfg.nodes.iter().enumerate() {
        let expected: Vec<usize> = (0..cfg.nodes.len())
            .filter(|&j| oracle[i][j / 64] >> (j % 64) & 1 == 1)
            .collect();
        assert_eq!(
            relational.value_count(node),
            expected.len(),
            "dominator count mismatch at node {i}"
        );
        for &j in &expected {
            assert!(
                relational.contains_tuple(node, &cfg.nodes[j]),
                "missing dominator {j} of node {i}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Ast;
    use crate::generate::{generate_corpus, GenConfig};
    use axiom::{AxiomFusedMultiMap, AxiomMultiMap};
    use idiomatic::{ClojureMultiMap, NestedChampMultiMap, ScalaMultiMap};
    use std::sync::Arc;

    fn figure7() -> Cfg {
        let nodes: Vec<CfgNode> = (0..5)
            .map(|i| CfgNode::new(0, i, Arc::new(Ast::Var(i))))
            .collect();
        Cfg {
            func: 0,
            nodes,
            edges: vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
        }
    }

    #[test]
    fn figure7_dominator_tree_matches_paper() {
        // Figure 7b: A dominates B, C, D directly; E's idom is D.
        let cfg = figure7();
        let idom = dominator_tree(&cfg);
        assert_eq!(idom[1], Some(0)); // B ← A
        assert_eq!(idom[2], Some(0)); // C ← A
        assert_eq!(idom[3], Some(0)); // D ← A (two incomparable paths)
        assert_eq!(idom[4], Some(3)); // E ← D
        assert_eq!(idom[0], None);
    }

    #[test]
    fn relational_matches_bitset_on_figure7() {
        let cfg = figure7();
        let dom: AxiomMultiMap<CfgNode, CfgNode> = dominators_relational(&cfg);
        assert_dominators_agree(&cfg, &dom);
        // Spot check: Dom(E) = {A, D, E}.
        assert_eq!(dom.value_count(&cfg.nodes[4]), 3);
    }

    #[test]
    fn all_multimaps_agree_on_generated_cfgs() {
        let corpus = generate_corpus(12, 77, &GenConfig::default());
        for cfg in &corpus {
            let axiom: AxiomMultiMap<CfgNode, CfgNode> = dominators_relational(cfg);
            assert_dominators_agree(cfg, &axiom);
            let fused: AxiomFusedMultiMap<CfgNode, CfgNode> = dominators_relational(cfg);
            assert_dominators_agree(cfg, &fused);
            let champ: NestedChampMultiMap<CfgNode, CfgNode> = dominators_relational(cfg);
            assert_dominators_agree(cfg, &champ);
            let clj: ClojureMultiMap<CfgNode, CfgNode> = dominators_relational(cfg);
            assert_dominators_agree(cfg, &clj);
            let scala: ScalaMultiMap<CfgNode, CfgNode> = dominators_relational(cfg);
            assert_dominators_agree(cfg, &scala);
        }
    }

    #[test]
    fn loops_converge() {
        // while-heavy config exercises back edges in the fixed point.
        let config = GenConfig {
            p_while: 0.3,
            p_do_while: 0.2,
            ..GenConfig::default()
        };
        let corpus = generate_corpus(6, 5, &config);
        for cfg in &corpus {
            let dom: AxiomMultiMap<CfgNode, CfgNode> = dominators_relational(cfg);
            assert_dominators_agree(cfg, &dom);
        }
    }

    #[test]
    fn entry_dominates_everything() {
        let cfg = generate_corpus(1, 3, &GenConfig::default()).remove(0);
        let dom: AxiomMultiMap<CfgNode, CfgNode> = dominators_relational(&cfg);
        for node in &cfg.nodes {
            assert!(dom.contains_tuple(node, cfg.entry()));
            assert!(dom.contains_tuple(node, node));
        }
    }
}
