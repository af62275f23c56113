//! Biconnected components via Tarjan–Vishkin (Theorem 1.4).
//!
//! The algorithm follows Section 4.4: compute a rooted spanning tree `T` of `G`
//! (Theorem 1.3), label every vertex with its preorder number `l(v)`, subtree size
//! `nd(v)` and the subtree aggregates `low(v)`/`high(v)`, build the helper graph `G''`
//! whose nodes are the tree edges of `T` and whose edges are given by the paper's three
//! rules (Figure 1), compute the connected components of `G''` with the machinery of
//! Theorem 1.2, and finally attach the non-tree edges (rule 3). Two edges of `G` end up
//! in the same component of `G''` if and only if they lie on a common simple cycle,
//! i.e. belong to the same biconnected component.
//!
//! The spanning tree, the helper-graph component computation and the final grouping run
//! through the hybrid pipelines of this crate; the label/aggregate computation
//! (`l`, `nd`, `low`, `high`) is performed by the harness and charged `O(log n)` rounds,
//! standing in for the Euler-tour/pointer-jumping primitives of \[19\] the paper invokes.

use crate::components::{ComponentsConfig, HybridComponents};
use crate::spanning_tree::{HybridSpanningTree, SpanningTreeResult};
use crate::{norm, EdgeKey};
use overlay_core::OverlayError;
use overlay_graph::{analysis, DiGraph, NodeId, UGraph};
use overlay_netsim::caps::log2_ceil;
use std::collections::{BTreeMap, BTreeSet};

/// The output of the distributed biconnectivity algorithm.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BiconnectivityResult {
    /// The biconnected components, each as a set of (deduplicated, undirected) edges.
    pub components: Vec<BTreeSet<EdgeKey>>,
    /// Cut vertices (articulation points).
    pub cut_vertices: BTreeSet<NodeId>,
    /// Bridge edges.
    pub bridges: BTreeSet<EdgeKey>,
    /// Whether the whole graph is biconnected.
    pub biconnected: bool,
    /// Rounds charged across all phases.
    pub rounds: usize,
}

/// Computes biconnected components, cut vertices and bridges of a weakly connected
/// graph in the hybrid model (Theorem 1.4).
#[derive(Clone, Copy, Debug)]
pub struct DistributedBiconnectivity {
    /// Seed for all randomness.
    pub seed: u64,
}

impl Default for DistributedBiconnectivity {
    fn default() -> Self {
        DistributedBiconnectivity { seed: 0xB1C0_0001 }
    }
}

/// Per-vertex labels of the rooted spanning tree.
#[derive(Clone, Debug)]
struct TreeLabels {
    parent: Vec<NodeId>,
    preorder: Vec<usize>,
    nd: Vec<usize>,
    low: Vec<usize>,
    high: Vec<usize>,
    children: Vec<Vec<NodeId>>,
}

impl DistributedBiconnectivity {
    /// Runs the algorithm on (the undirected version of) `g`.
    ///
    /// # Errors
    ///
    /// Propagates errors from the spanning-tree phase (empty or disconnected inputs).
    pub fn run(&self, g: &DiGraph) -> Result<BiconnectivityResult, OverlayError> {
        let und = g.to_undirected();
        let n = und.node_count();
        if n == 0 {
            return Err(OverlayError::EmptyGraph);
        }

        // Step 1: rooted spanning tree (Theorem 1.3).
        let tree_algo = HybridSpanningTree {
            seed: self.seed,
            walk_len: 12,
        };
        let SpanningTreeResult {
            parent,
            rounds: tree_rounds,
            ..
        } = tree_algo.run(g)?;

        // Step 2: preorder labels and subtree aggregates.
        let labels = compute_labels(&und, &parent);

        // Step 3: helper graph G'' over tree edges. The G''-node of a non-root vertex v
        // represents the tree edge {v, parent(v)}.
        let tree_node: Vec<Option<usize>> = (0..n)
            .map(|v| (labels.parent[v].index() != v).then_some(v))
            .collect();
        let gpp_index: BTreeMap<usize, usize> = tree_node
            .iter()
            .flatten()
            .enumerate()
            .map(|(i, &v)| (v, i))
            .collect();
        let mut gpp = DiGraph::new(gpp_index.len());
        let add_gpp_edge = |a: usize, b: usize, gpp: &mut DiGraph| {
            let (ia, ib) = (gpp_index[&a], gpp_index[&b]);
            gpp.add_edge(NodeId::from(ia), NodeId::from(ib));
        };

        let l = &labels.preorder;
        let nd = &labels.nd;
        for v in 0..n {
            // Rule 1: non-tree edges between different subtrees connect the two parent
            // edges.
            for &w in &und.distinct_neighbors(NodeId::from(v)) {
                let w = w.index();
                if labels.parent[w].index() == v || labels.parent[v].index() == w {
                    continue; // tree edge
                }
                if l[v] + nd[v] <= l[w] {
                    add_gpp_edge(v, w, &mut gpp);
                }
            }
            // Rule 2: a child w of v whose subtree reaches outside v's subtree connects
            // the parent edges of w and v.
            if labels.parent[v].index() != v {
                for &w in &labels.children[v] {
                    let w = w.index();
                    if labels.low[w] < l[v] || labels.high[w] >= l[v] + nd[v] {
                        add_gpp_edge(w, v, &mut gpp);
                    }
                }
            }
        }
        gpp.dedup_edges();

        // Step 4: connected components of G'' via Theorem 1.2.
        let comp_config = ComponentsConfig {
            seed: self.seed ^ 0x00B1_C077,
            walk_len: 12,
        };
        let gpp_components = if gpp.node_count() > 0 {
            Some(HybridComponents::new(comp_config).run(&gpp)?)
        } else {
            None
        };

        // Step 5: group the tree edges by component and attach the non-tree edges
        // (rule 3: a non-tree edge {v, w} with l(v) < l(w) joins the component of w's
        // parent edge).
        let mut component_of_tree_edge: BTreeMap<usize, NodeId> = BTreeMap::new();
        if let Some(result) = &gpp_components {
            for (&v, &i) in &gpp_index {
                component_of_tree_edge.insert(v, result.component_of[i]);
            }
        }
        let mut groups: BTreeMap<NodeId, BTreeSet<EdgeKey>> = BTreeMap::new();
        for (&v, &comp) in &component_of_tree_edge {
            let p = labels.parent[v];
            groups
                .entry(comp)
                .or_default()
                .insert(norm(NodeId::from(v), p));
        }
        for v in 0..n {
            for &w in &und.distinct_neighbors(NodeId::from(v)) {
                let w_idx = w.index();
                if labels.parent[w_idx].index() == v || labels.parent[v].index() == w_idx {
                    continue;
                }
                if l[v] < l[w_idx] {
                    // Attach to the component of w's parent edge.
                    if let Some(&comp) = component_of_tree_edge.get(&w_idx) {
                        groups
                            .entry(comp)
                            .or_default()
                            .insert(norm(NodeId::from(v), w));
                    }
                }
            }
        }

        let components: Vec<BTreeSet<EdgeKey>> = groups.into_values().collect();
        let mut membership_count = vec![0usize; n];
        for component in &components {
            let mut seen = BTreeSet::new();
            for &(a, b) in component {
                seen.insert(a);
                seen.insert(b);
            }
            for v in seen {
                membership_count[v.index()] += 1;
            }
        }
        let cut_vertices: BTreeSet<NodeId> = (0..n)
            .filter(|&v| membership_count[v] >= 2)
            .map(NodeId::from)
            .collect();
        let bridges: BTreeSet<EdgeKey> = components
            .iter()
            .filter(|c| c.len() == 1)
            .map(|c| *c.iter().next().expect("non-empty component"))
            .collect();
        let biconnected =
            analysis::is_connected(&und) && cut_vertices.is_empty() && components.len() <= 1;

        let log_n = log2_ceil(n).max(1);
        let gpp_rounds = gpp_components.as_ref().map(|c| c.rounds).unwrap_or(0);
        let rounds = tree_rounds + 4 * log_n + gpp_rounds + 2;
        Ok(BiconnectivityResult {
            components,
            cut_vertices,
            bridges,
            biconnected,
            rounds,
        })
    }
}

/// Computes preorder numbers, subtree sizes and the `low`/`high` subtree aggregates of
/// the rooted spanning tree given by `parent`, with respect to the graph `g`.
fn compute_labels(g: &UGraph, parent: &[NodeId]) -> TreeLabels {
    let n = parent.len();
    let root = (0..n)
        .find(|&v| parent[v].index() == v)
        .map(NodeId::from)
        .expect("spanning tree has a root");
    let mut children = vec![Vec::new(); n];
    for (v, &p) in parent.iter().enumerate() {
        if p.index() != v {
            children[p.index()].push(NodeId::from(v));
        }
    }
    for c in &mut children {
        c.sort_unstable();
    }

    // Iterative preorder DFS.
    let mut preorder = vec![0usize; n];
    let mut order = Vec::with_capacity(n);
    let mut stack = vec![root];
    let mut counter = 0usize;
    while let Some(v) = stack.pop() {
        preorder[v.index()] = counter;
        counter += 1;
        order.push(v);
        for &c in children[v.index()].iter().rev() {
            stack.push(c);
        }
    }

    // Subtree sizes and low/high aggregates in reverse DFS order.
    let mut nd = vec![1usize; n];
    let mut low = vec![0usize; n];
    let mut high = vec![0usize; n];
    for &v in &order {
        let mut lo = preorder[v.index()];
        let mut hi = preorder[v.index()];
        for &w in g.neighbors(v) {
            lo = lo.min(preorder[w.index()]);
            hi = hi.max(preorder[w.index()]);
        }
        low[v.index()] = lo;
        high[v.index()] = hi;
    }
    for &v in order.iter().rev() {
        let p = parent[v.index()];
        if p != v {
            nd[p.index()] += nd[v.index()];
            let (lv, hv) = (low[v.index()], high[v.index()]);
            low[p.index()] = low[p.index()].min(lv);
            high[p.index()] = high[p.index()].max(hv);
        }
    }

    let _ = root;
    TreeLabels {
        parent: parent.to_vec(),
        preorder,
        nd,
        low,
        high,
        children,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_graph::{generators, sequential};

    fn check_against_tarjan(g: &DiGraph, seed: u64) -> BiconnectivityResult {
        let result = DistributedBiconnectivity { seed }
            .run(g)
            .expect("biconnectivity must succeed");
        let truth = sequential::biconnected_components(&g.to_undirected());
        assert_eq!(
            result.cut_vertices, truth.cut_vertices,
            "cut vertices must match Tarjan's"
        );
        assert_eq!(result.bridges, truth.bridges, "bridges must match Tarjan's");
        let mut ours: Vec<BTreeSet<EdgeKey>> = result.components.clone();
        let mut theirs: Vec<BTreeSet<EdgeKey>> = truth.components.clone();
        ours.sort();
        theirs.sort();
        assert_eq!(ours, theirs, "biconnected components must match Tarjan's");
        result
    }

    #[test]
    fn cycle_is_biconnected() {
        let result = check_against_tarjan(&generators::cycle(24), 1);
        assert!(result.biconnected);
        assert_eq!(result.components.len(), 1);
    }

    #[test]
    fn line_is_all_bridges() {
        let result = check_against_tarjan(&generators::line(16), 2);
        assert!(!result.biconnected);
        assert_eq!(result.bridges.len(), 15);
        assert_eq!(result.cut_vertices.len(), 14);
    }

    #[test]
    fn chained_cycles_have_one_component_per_block() {
        let result = check_against_tarjan(&generators::chained_cycles(4, 6), 3);
        assert_eq!(result.components.len(), 4);
        assert_eq!(result.cut_vertices.len(), 3);
        assert!(result.bridges.is_empty());
    }

    #[test]
    fn figure_one_example_matches() {
        // Triangle {0,1,2} plus pendant edge {2,3}: Figure 1's structure.
        let mut g = DiGraph::new(4);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 2.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(2.into(), 3.into());
        let result = check_against_tarjan(&g, 4);
        assert_eq!(result.components.len(), 2);
        assert_eq!(
            result.cut_vertices.iter().copied().collect::<Vec<_>>(),
            vec![NodeId::from(2usize)]
        );
    }

    #[test]
    fn star_and_grid() {
        check_against_tarjan(&generators::star(24), 5);
        check_against_tarjan(&generators::grid(5, 4), 6);
    }

    #[test]
    fn random_graphs_match_tarjan() {
        for seed in 0..3u64 {
            let g = generators::connected_random(40, 0.08, seed);
            check_against_tarjan(&g, 10 + seed);
        }
    }

    #[test]
    fn labels_are_consistent() {
        let g = generators::binary_tree(15).to_undirected();
        let (parent, _) = sequential::bfs_tree(&g, NodeId::from(0usize));
        let labels = compute_labels(&g, &parent);
        assert_eq!(labels.nd[0], 15);
        // Preorder numbers are a permutation of 0..n.
        let mut sorted = labels.preorder.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..15).collect::<Vec<_>>());
    }
}
