//! Control-flow graphs and their relations.
//!
//! A [`Cfg`] stores its nodes in a dense vector (index 0 is the entry) plus
//! an index-based edge list; [`Cfg::preds_relation`] / [`Cfg::succs_relation`]
//! materialize the relations as any [`MultiMapMutOps`] implementation — the
//! interface Table 1 uses to run the *same* dominator computation over CHAMP
//! map-of-sets and the AXIOM multi-map.

use std::collections::BTreeSet;

use trie_common::ops::{MultiMapMutOps, MultiMapOps};

use crate::ast::CfgNode;

/// A single function's control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Function id (matches every node's `func`).
    pub func: u32,
    /// Dense node storage; index 0 is the entry node.
    pub nodes: Vec<CfgNode>,
    /// Directed edges as `(from, to)` indices into `nodes`.
    pub edges: Vec<(usize, usize)>,
}

impl Cfg {
    /// The entry node.
    pub fn entry(&self) -> &CfgNode {
        &self.nodes[0]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes (never produced by the generator).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Index-based successor adjacency (for the bitset reference algorithm).
    pub fn succ_indices(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for &(a, b) in &self.edges {
            out[a].push(b);
        }
        out
    }

    /// Index-based predecessor adjacency.
    pub fn pred_indices(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for &(a, b) in &self.edges {
            out[b].push(a);
        }
        out
    }

    /// The `succs` relation over node payloads, as any multi-map, built in
    /// place (the one handle edits its own nodes instead of path-copying
    /// the spine for every tuple).
    pub fn succs_relation<M: MultiMapMutOps<CfgNode, CfgNode>>(&self) -> M {
        let mut mm = M::empty();
        for &(a, b) in &self.edges {
            mm.insert_mut(self.nodes[a].clone(), self.nodes[b].clone());
        }
        mm
    }

    /// The `preds` relation (the reverse index the paper's conclusion calls
    /// out as AXIOM's sweet spot), as any multi-map, built in place.
    pub fn preds_relation<M: MultiMapMutOps<CfgNode, CfgNode>>(&self) -> M {
        let mut mm = M::empty();
        for &(a, b) in &self.edges {
            mm.insert_mut(self.nodes[b].clone(), self.nodes[a].clone());
        }
        mm
    }

    /// Reverse postorder over the successor graph from the entry — the
    /// iteration order that makes the dominator fixed point converge fast.
    pub fn reverse_postorder(&self) -> Vec<usize> {
        let succs = self.succ_indices();
        let mut visited = vec![false; self.nodes.len()];
        let mut order = Vec::with_capacity(self.nodes.len());
        // Iterative DFS with an explicit "exit" marker for postorder.
        let mut stack: Vec<(usize, bool)> = vec![(0, false)];
        while let Some((n, processed)) = stack.pop() {
            if processed {
                order.push(n);
                continue;
            }
            if visited[n] {
                continue;
            }
            visited[n] = true;
            stack.push((n, true));
            for &s in &succs[n] {
                if !visited[s] {
                    stack.push((s, false));
                }
            }
        }
        order.reverse();
        order
    }

    /// Structural sanity checks used by the generator tests.
    ///
    /// # Panics
    ///
    /// Panics if edges are out of range, node ids clash, or some node is
    /// unreachable from the entry.
    pub fn assert_well_formed(&self) {
        let n = self.nodes.len();
        assert!(n >= 1, "empty CFG");
        for &(a, b) in &self.edges {
            assert!(a < n && b < n, "edge out of range");
        }
        let ids: BTreeSet<u32> = self.nodes.iter().map(|x| x.id).collect();
        assert_eq!(ids.len(), n, "duplicate node ids");
        for node in &self.nodes {
            assert_eq!(node.func, self.func, "foreign node");
        }
        assert_eq!(
            self.reverse_postorder().len(),
            n,
            "unreachable nodes in CFG"
        );
    }
}

/// Shape statistics of a `preds`-style relation (Table 1's right columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelationShape {
    /// Distinct keys.
    pub keys: usize,
    /// Total tuples.
    pub tuples: usize,
    /// Percentage of keys that map to exactly one value.
    pub pct_one_to_one: f64,
}

impl RelationShape {
    /// `tuples / keys` — the paper reports ≈1.05 for `preds`.
    pub fn tuples_per_key(&self) -> f64 {
        if self.keys == 0 {
            0.0
        } else {
            self.tuples as f64 / self.keys as f64
        }
    }
}

/// Computes the shape statistics of a multi-map.
pub fn relation_shape<K, V, M: MultiMapOps<K, V>>(mm: &M) -> RelationShape {
    let keys = mm.key_count();
    let tuples = mm.tuple_count();
    let singles = mm.keys().filter(|k| mm.value_count(k) == 1).count();
    RelationShape {
        keys,
        tuples,
        pct_one_to_one: if keys == 0 {
            0.0
        } else {
            100.0 * singles as f64 / keys as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Ast;
    use axiom::AxiomMultiMap;
    use std::sync::Arc;

    /// The diamond-with-tail of the paper's Figure 7a:
    /// `A→B, A→C, B→D, C→D, D→E`.
    pub(crate) fn figure7() -> Cfg {
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
    fn figure7_is_well_formed() {
        figure7().assert_well_formed();
    }

    #[test]
    fn preds_relation_of_figure7() {
        let cfg = figure7();
        let preds: AxiomMultiMap<CfgNode, CfgNode> = cfg.preds_relation();
        // B, C, E have one pred; D has two; A has none (absent).
        assert_eq!(preds.key_count(), 4);
        assert_eq!(preds.tuple_count(), 5);
        assert_eq!(preds.value_count(&cfg.nodes[3]), 2);
        assert!(!preds.contains_key(&cfg.nodes[0]));
        let shape = relation_shape(&preds);
        assert_eq!(shape.keys, 4);
        assert_eq!(shape.tuples, 5);
        assert!((shape.pct_one_to_one - 75.0).abs() < 1e-9);
        assert!((shape.tuples_per_key() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn reverse_postorder_starts_at_entry() {
        let cfg = figure7();
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], 0);
        assert_eq!(rpo.len(), 5);
        // D before E, after B and C.
        let pos = |i: usize| rpo.iter().position(|&x| x == i).unwrap();
        assert!(pos(3) > pos(1) && pos(3) > pos(2));
        assert!(pos(4) > pos(3));
    }
}
