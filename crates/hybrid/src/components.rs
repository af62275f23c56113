//! Connected components and per-component well-formed trees (Theorem 1.2).
//!
//! The pipeline follows Section 4.2: the initial graph (arbitrary degree, possibly
//! disconnected) is degree-reduced with [`crate::sparsify()`], and on every connected
//! component of the reduced graph the NCC0 construction of `overlay-core` is executed
//! with parameters sized for the component. The result is a well-formed tree per
//! component; the component identifier is the root of that tree.
//!
//! The adapted algorithm of Theorem 4.1 additionally stitches short walks into longer
//! ones (Lemma 4.2) to shave the round complexity from `O(log m · ℓ)` to
//! `O(log m + log log n)`; this reproduction runs the plain evolutions, so measured
//! rounds scale as `O(log m)` with the constant `ℓ + 1`.

use crate::sparsify::sparsify;
use overlay_core::{ExpanderParams, OverlayBuilder, OverlayError, WellFormedTree};
use overlay_graph::{analysis, DiGraph, NodeId};
use overlay_netsim::caps::log2_ceil;

/// Configuration of the hybrid components pipeline.
#[derive(Clone, Copy, Debug)]
pub struct ComponentsConfig {
    /// Seed for all randomness.
    pub seed: u64,
    /// Random-walk length used by the per-component expander construction.
    pub walk_len: usize,
}

impl Default for ComponentsConfig {
    fn default() -> Self {
        ComponentsConfig {
            seed: 0xC0C0_0001,
            walk_len: 16,
        }
    }
}

/// The output of the hybrid components pipeline.
#[derive(Clone, Debug)]
pub struct ComponentsResult {
    /// For every node, the identifier of its component (the root of its well-formed
    /// tree, in original node identifiers).
    pub(crate) component_of: Vec<NodeId>,
    /// The well-formed tree of every component, with node identifiers mapped back to
    /// the original graph. Singleton components get a single-node tree.
    pub trees: Vec<WellFormedTree>,
    /// For every component tree, the original identifiers of its members in local
    /// index order (`trees[i]` node `j` corresponds to `members[i][j]`).
    pub members: Vec<Vec<NodeId>>,
    /// Rounds charged: preprocessing plus the maximum over components of the
    /// construction rounds (components run in parallel).
    pub rounds: usize,
}

impl ComponentsResult {
    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        self.trees.len()
    }

    /// Returns `true` if `u` and `v` are in the same component.
    pub fn same_component(&self, u: NodeId, v: NodeId) -> bool {
        self.component_of[u.index()] == self.component_of[v.index()]
    }
}

/// Computes, for every connected component of an arbitrary directed graph, a
/// well-formed tree spanning that component (Theorem 1.2).
#[derive(Clone, Copy, Debug, Default)]
pub struct HybridComponents {
    config: ComponentsConfig,
}

impl HybridComponents {
    /// Creates the pipeline with the given configuration.
    pub fn new(config: ComponentsConfig) -> Self {
        HybridComponents { config }
    }

    /// Runs the pipeline on `g`.
    ///
    /// # Errors
    ///
    /// Propagates [`OverlayError`] from the per-component construction (which does not
    /// happen w.h.p. with the default parameters).
    pub fn run(&self, g: &DiGraph) -> Result<ComponentsResult, OverlayError> {
        let n = g.node_count();
        if n == 0 {
            return Err(OverlayError::EmptyGraph);
        }
        let sparsified = sparsify(g, self.config.seed);
        let reduced = &sparsified.reduced;
        let comps = analysis::connected_components(reduced);
        let groups = comps.members();

        let mut component_of = vec![NodeId::from(0usize); n];
        let mut trees = Vec::with_capacity(groups.len());
        let mut members_out = Vec::with_capacity(groups.len());
        let mut max_component_rounds = 0usize;

        for members in groups {
            let m = members.len();
            // Map original identifiers to local indices 0..m.
            let mut local_index = vec![usize::MAX; n];
            for (i, &v) in members.iter().enumerate() {
                local_index[v.index()] = i;
            }
            let tree = if m == 1 {
                WellFormedTree::from_parents(vec![NodeId::from(0usize)])
            } else {
                let mut local = DiGraph::new(m);
                for &v in &members {
                    for w in reduced.distinct_neighbors(v) {
                        local.add_edge(
                            NodeId::from(local_index[v.index()]),
                            NodeId::from(local_index[w.index()]),
                        );
                    }
                }
                local.dedup_edges();
                let degree = local.to_undirected().max_degree();
                let params = ExpanderParams {
                    bfs_rounds: 4 * log2_ceil(m).max(2) + 8,
                    seed: self.config.seed ^ (m as u64).rotate_left(17),
                    ..component_params(m, degree, self.config.walk_len)
                };
                let result = OverlayBuilder::new(params).build(&local)?;
                max_component_rounds = max_component_rounds.max(result.rounds.total());
                result.tree
            };
            // The component identifier is the original id of the tree root.
            let root_original = members[tree.root().index()];
            for &v in &members {
                component_of[v.index()] = root_original;
            }
            trees.push(tree);
            members_out.push(members);
        }

        Ok(ComponentsResult {
            component_of,
            trees,
            members: members_out,
            rounds: sparsified.rounds + max_component_rounds,
        })
    }
}

/// Chooses expander parameters (Δ, Λ, evolutions, NCC0 cap) for an `m`-node
/// component of the reduced graph with maximum degree `degree`: that degree is
/// `O(log n)`, so `Δ = Θ(d·log m)` is polylogarithmic, which the hybrid model's
/// global capacity allows. `seed` and `bfs_rounds` are the caller's to set.
pub(crate) fn component_params(m: usize, degree: usize, walk_len: usize) -> ExpanderParams {
    let log_m = log2_ceil(m).max(2);
    let lambda = 2 * log_m;
    // Round Δ up to a multiple of 8 satisfying the laziness constraint 2·d·Λ ≤ Δ.
    let delta = (2 * degree.max(1) * lambda).max(16 * log_m).div_ceil(8) * 8;
    ExpanderParams {
        delta,
        lambda,
        walk_len,
        evolutions: log_m + 4,
        ncc0_cap: 2 * delta,
        ..ExpanderParams::for_n(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_graph::generators;

    fn run(g: &DiGraph, seed: u64) -> ComponentsResult {
        let config = ComponentsConfig { seed, walk_len: 12 };
        HybridComponents::new(config)
            .run(g)
            .expect("pipeline must succeed")
    }

    #[test]
    fn single_component_produces_one_tree() {
        let g = generators::cycle(48);
        let result = run(&g, 1);
        assert_eq!(result.component_count(), 1);
        assert!(result.trees[0].is_valid());
        assert_eq!(result.trees[0].node_count(), 48);
        assert!(result.trees[0].max_degree() <= 4);
    }

    #[test]
    fn components_match_ground_truth() {
        let g = generators::disjoint_union(&[
            generators::cycle(32),
            generators::line(17),
            generators::star(40),
            generators::line(1),
        ]);
        let result = run(&g, 2);
        assert_eq!(result.component_count(), 4);
        let truth = analysis::connected_components(&g.to_undirected());
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    truth.same_component(u, v),
                    result.same_component(u, v),
                    "mismatch for {u}, {v}"
                );
            }
        }
        // All members of a component share its identifier, which is a member itself.
        for v in g.nodes() {
            let c = result.component_of[v.index()];
            assert!(truth.same_component(v, c));
        }
    }

    #[test]
    fn high_degree_components_are_handled() {
        // A star is the canonical arbitrary-degree input that the NCC0 pipeline rejects
        // but the hybrid pipeline handles.
        let g = generators::star(96);
        let result = run(&g, 3);
        assert_eq!(result.component_count(), 1);
        let tree = &result.trees[0];
        assert!(tree.is_valid());
        assert_eq!(tree.node_count(), 96);
        assert!(tree.max_degree() <= 4);
    }

    #[test]
    fn trees_cover_exactly_their_members() {
        let g = generators::disjoint_union(&[generators::grid(5, 5), generators::cycle(10)]);
        let result = run(&g, 4);
        let total: usize = result.members.iter().map(Vec::len).sum();
        assert_eq!(total, 35);
        for (tree, members) in result.trees.iter().zip(&result.members) {
            assert_eq!(tree.node_count(), members.len());
        }
    }

    #[test]
    fn rounds_scale_with_largest_component() {
        let small = run(
            &generators::disjoint_union(&vec![generators::line(16); 4]),
            5,
        )
        .rounds;
        let large = run(&generators::line(256), 5).rounds;
        assert!(
            large > small,
            "a single big component ({large}) must cost more rounds than many small ones ({small})"
        );
    }

    #[test]
    fn empty_graph_is_rejected() {
        let err = HybridComponents::new(ComponentsConfig::default())
            .run(&DiGraph::new(0))
            .unwrap_err();
        assert_eq!(err, OverlayError::EmptyGraph);
    }

    #[test]
    fn singleton_nodes_become_singleton_trees() {
        let g = DiGraph::new(3);
        let result = run(&g, 7);
        assert_eq!(result.component_count(), 3);
        for tree in &result.trees {
            assert_eq!(tree.node_count(), 1);
            assert!(tree.is_valid());
        }
    }
}
