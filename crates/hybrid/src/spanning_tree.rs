//! Spanning trees of the initial graph by unwinding random walks (Theorem 1.3).
//!
//! The overlay edges created by `CreateExpander` do not exist in the initial graph, but
//! every one of them was established along a random walk whose steps *are* initial
//! edges (of the degree-reduced graph `H`, whose edges in turn map back to initial
//! edges via the spanner and the delegation centers). The algorithm therefore:
//!
//! 1. degree-reduces the graph ([`crate::sparsify()`]),
//! 2. runs the evolutions while annotating every established edge with the walk that
//!    created it ([`TracedEvolution`]),
//! 3. takes a BFS tree of the final low-diameter graph `G_{L'}`,
//! 4. replaces its edges level by level by the walks that created them until only edges
//!    of `H` remain, maps those back to edges of the initial graph, and
//! 5. extracts a spanning tree from the resulting connected spanning subgraph
//!    (the paper's loop-erasure step).
//!
//! Steps 2–3 run the same random experiment as the distributed protocol; steps 4–5 are
//! executed by the harness with the paper's round accounting (one round per unwinding
//! level plus `O(log n)` for the loop erasure).

use crate::components::component_params;
use crate::sparsify::sparsify;
use crate::{norm, EdgeKey};
use overlay_core::{make_benign, EvolutionEngine, ExpanderNode, ExpanderParams, OverlayError};
use overlay_graph::{analysis, sequential, DiGraph, NodeId, UGraph};
use overlay_netsim::caps::log2_ceil;
use std::collections::HashMap;

/// One level of traced evolutions: for every established (non-loop) edge, the walk —
/// a list of lower-level edges — that created it.
#[derive(Clone, Debug, Default)]
pub(crate) struct TraceLevel {
    paths: HashMap<EdgeKey, Vec<EdgeKey>>,
}

/// The traced evolution engine: [`EvolutionEngine`]'s evolution step, observed so
/// that the walk behind every established edge is remembered.
#[derive(Debug)]
pub(crate) struct TracedEvolution {
    engine: EvolutionEngine,
    levels: Vec<TraceLevel>,
}

impl TracedEvolution {
    /// Creates the engine from a benign graph.
    pub(crate) fn from_benign(graph: UGraph, params: ExpanderParams) -> Self {
        TracedEvolution {
            engine: EvolutionEngine::from_benign(graph, params.with_seed(params.seed ^ 0x7AACE)),
            levels: Vec::new(),
        }
    }

    /// The current graph.
    pub(crate) fn graph(&self) -> &UGraph {
        self.engine.graph()
    }

    /// The recorded trace levels (one per evolution).
    pub(crate) fn levels(&self) -> &[TraceLevel] {
        &self.levels
    }

    /// Runs one traced evolution: a token carries the non-loop hops of its walk,
    /// and the first token accepted for an edge names the walk that created it.
    pub(crate) fn evolve(&mut self) {
        let mut level = TraceLevel::default();
        self.engine.evolve_with(
            |path: &mut Vec<EdgeKey>, from, to| {
                if to != from {
                    path.push(norm(from, to));
                }
            },
            |at, origin, path| {
                if origin != at {
                    level.paths.entry(norm(origin, at)).or_insert(path);
                }
            },
        );
        self.levels.push(level);
    }
}

/// The output of the spanning-tree algorithm.
#[derive(Clone, Debug)]
pub struct SpanningTreeResult {
    /// Parent pointer of every node (the root points to itself); the parent edges are
    /// edges of the initial graph.
    pub parent: Vec<NodeId>,
    /// Rounds charged across all phases.
    pub rounds: usize,
}

/// Computes a spanning tree of a weakly connected graph in the hybrid model
/// (Theorem 1.3).
#[derive(Clone, Copy, Debug)]
pub struct HybridSpanningTree {
    /// Seed for all randomness.
    pub seed: u64,
    /// Random-walk length of the evolutions.
    pub walk_len: usize,
}

impl Default for HybridSpanningTree {
    fn default() -> Self {
        HybridSpanningTree {
            seed: 0x5AAA_0001,
            walk_len: 12,
        }
    }
}

impl HybridSpanningTree {
    /// Runs the algorithm on (the undirected version of) `g`.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::Disconnected`] if `g` is not weakly connected and
    /// [`OverlayError::EmptyGraph`] for empty inputs.
    pub fn run(&self, g: &DiGraph) -> Result<SpanningTreeResult, OverlayError> {
        let n = g.node_count();
        if n == 0 {
            return Err(OverlayError::EmptyGraph);
        }
        let und = g.to_undirected();
        if !analysis::is_connected(&und) {
            return Err(OverlayError::Disconnected);
        }
        if n == 1 {
            return Ok(SpanningTreeResult {
                parent: vec![NodeId::from(0usize)],
                rounds: 0,
            });
        }

        // Step 1: degree reduction.
        let sparsified = sparsify(g, self.seed);
        let h = &sparsified.reduced;

        // Step 2: traced evolutions on the benign version of H.
        let h_digraph = DiGraph::from_edges(n, h.edges().into_iter().filter(|(a, b)| a != b));
        let params = ExpanderParams {
            seed: self.seed,
            ..component_params(n, h.max_degree(), self.walk_len)
        };
        let benign_graph = make_benign(&h_digraph, &params)?;
        let mut engine = TracedEvolution::from_benign(benign_graph, params);
        for _ in 0..params.evolutions {
            engine.evolve();
        }

        // Step 3: BFS tree of the final low-diameter graph.
        let final_simple = engine.graph().simplify();
        if !analysis::is_connected(&final_simple) {
            return Err(OverlayError::PhaseIncomplete {
                phase: "traced-evolutions",
                budget: params.evolutions,
            });
        }
        let (overlay_parent, _) = sequential::bfs_tree(&final_simple, NodeId::from(0usize));

        // Step 4: unwind the tree edges level by level down to H-edges, then map those
        // back to initial edges.
        let mut current: Vec<EdgeKey> = overlay_parent
            .iter()
            .enumerate()
            .filter(|(v, p)| p.index() != *v)
            .map(|(v, p)| norm(NodeId::from(v), *p))
            .collect();
        for level in engine.levels().iter().rev() {
            let mut lower = Vec::new();
            for edge in current {
                match level.paths.get(&edge) {
                    Some(path) => lower.extend(path.iter().copied()),
                    // Padding self-loops never enter `current`; an edge missing from the
                    // level map can only be a benign-graph edge surviving in the overlay
                    // (impossible, evolutions replace all edges), so treat it as already
                    // unwound.
                    None => lower.push(edge),
                }
            }
            lower.sort_unstable();
            lower.dedup();
            current = lower;
        }

        // The remaining edges are edges of the benign graph, i.e. (copies of) H-edges;
        // map delegated H-edges back to pairs of initial edges.
        let mut subgraph = UGraph::new(n);
        for (a, b) in current {
            if und.neighbors(a).contains(&b) {
                subgraph.add_edge(a, b);
            } else if let Some(c) = sparsified.center_of(a, b) {
                subgraph.add_edge(a, c);
                subgraph.add_edge(b, c);
            }
        }

        // Step 5: loop erasure — extract a spanning tree of the unwound subgraph.
        if !analysis::is_connected(&subgraph) {
            return Err(OverlayError::PhaseIncomplete {
                phase: "walk-unwinding",
                budget: params.evolutions,
            });
        }
        let (parent, unreachable) = sequential::bfs_tree(&subgraph, NodeId::from(0usize));
        debug_assert!(unreachable.is_empty());

        let log_n = log2_ceil(n).max(1);
        let rounds = sparsified.rounds
            + ExpanderNode::total_rounds(&params)
            + params.bfs_rounds
            + params.evolutions // one round per unwinding level
            + 2 * log_n; // loop erasure via pointer jumping / prefix sums
        Ok(SpanningTreeResult { parent, rounds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_graph::generators;

    fn check(g: &DiGraph, seed: u64) -> SpanningTreeResult {
        let algo = HybridSpanningTree { seed, walk_len: 12 };
        let result = algo.run(g).expect("spanning tree must succeed");
        assert!(
            analysis::is_spanning_tree(&g.to_undirected(), &result.parent),
            "output must be a spanning tree of the input graph"
        );
        result
    }

    #[test]
    fn spanning_tree_of_line_and_cycle() {
        check(&generators::line(64), 1);
        check(&generators::cycle(64), 2);
    }

    #[test]
    fn spanning_tree_of_high_degree_graphs() {
        check(&generators::star(128), 3);
        check(&generators::connected_random(96, 0.15, 4), 4);
    }

    #[test]
    fn spanning_tree_of_grid_and_caveman() {
        check(&generators::grid(8, 8), 5);
        check(&generators::caveman(6, 8), 6);
    }

    #[test]
    fn rounds_are_polylogarithmic() {
        let result = check(&generators::connected_random(128, 0.1, 7), 7);
        // Generous polylog bound for n = 128 (log n = 7).
        assert!(
            result.rounds <= 60 * 7,
            "rounds {} look super-polylogarithmic",
            result.rounds
        );
    }

    #[test]
    fn singleton_and_errors() {
        let result = HybridSpanningTree::default().run(&DiGraph::new(1)).unwrap();
        assert_eq!(result.parent, vec![NodeId::from(0usize)]);
        assert!(HybridSpanningTree::default().run(&DiGraph::new(0)).is_err());
        let disconnected = generators::disjoint_union(&[generators::line(4), generators::line(4)]);
        assert_eq!(
            HybridSpanningTree::default()
                .run(&disconnected)
                .unwrap_err(),
            OverlayError::Disconnected
        );
    }

    #[test]
    fn traced_walks_match_the_pre_shared_step() {
        // Pinned on the commit before `TracedEvolution` shared the engine's step:
        // the tree's parents (the same for all three seeds on this sparse input,
        // so on their own they pin little), and an FNV-1a digest of the final
        // graph's edges plus every level's (edge, walk) entries in key order.
        let g = generators::connected_random(64, 0.08, 5);
        let parents: [usize; 64] = [
            0, 12, 19, 19, 12, 14, 47, 0, 55, 7, 55, 51, 0, 54, 0, 52, 19, 58, 3, 0, 47, 1, 0, 3,
            1, 7, 7, 4, 52, 22, 3, 3, 12, 1, 7, 7, 15, 1, 32, 32, 52, 62, 47, 7, 62, 6, 16, 0, 47,
            47, 58, 14, 0, 47, 12, 19, 16, 7, 7, 32, 53, 16, 14, 16,
        ];
        for (seed, expected) in [
            (5u64, 0xd602_e292_3df6_2860u64),
            (6, 0xdb53_8eb7_d931_d742),
            (7, 0xbd21_425f_5161_c508),
        ] {
            let result = check(&g, seed);
            let parent: Vec<usize> = result.parent.iter().map(|p| p.index()).collect();
            assert_eq!(parent, parents, "seed {seed}");

            let h = &sparsify(&g, seed).reduced;
            let h_digraph = DiGraph::from_edges(64, h.edges().into_iter().filter(|(a, b)| a != b));
            let params = ExpanderParams {
                seed,
                ..component_params(64, h.max_degree(), 12)
            };
            let benign_graph = make_benign(&h_digraph, &params).unwrap();
            let mut engine = TracedEvolution::from_benign(benign_graph, params);
            for _ in 0..params.evolutions {
                engine.evolve();
            }
            let mut words: Vec<usize> = Vec::new();
            let push_edge = |words: &mut Vec<usize>, (a, b): EdgeKey| {
                words.extend([a.index(), b.index()]);
            };
            for edge in engine.graph().edges() {
                push_edge(&mut words, edge);
            }
            for level in engine.levels() {
                let mut entries: Vec<_> = level.paths.iter().collect();
                entries.sort();
                for (edge, path) in entries {
                    push_edge(&mut words, *edge);
                    words.push(path.len());
                    for hop in path {
                        push_edge(&mut words, *hop);
                    }
                }
            }
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            for byte in words.iter().flat_map(|w| (*w as u64).to_le_bytes()) {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            assert_eq!(digest, expected, "seed {seed}");
        }
    }
}
