//! The directed *knowledge graph* of the overlay-network model.

use crate::{NodeId, UGraph};
use std::collections::BTreeSet;

/// A directed graph over nodes `0..n` in which an edge `(u, v)` means that `u` knows the
/// identifier of `v`.
///
/// Parallel edges and self-loops are allowed (the overlay algorithms create both). The
/// graph is stored as per-node out-adjacency lists; in-degrees are computed on demand.
///
/// # Example
///
/// ```
/// use overlay_graph::DiGraph;
///
/// let mut g = DiGraph::new(3);
/// g.add_edge(0.into(), 1.into());
/// g.add_edge(1.into(), 2.into());
/// assert_eq!(g.out_neighbors(1.into()).len(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiGraph {
    out: Vec<Vec<NodeId>>,
}

impl DiGraph {
    /// Creates a directed graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            out: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Total number of directed edges (counting parallel edges).
    pub fn edge_count(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// Returns an iterator over all node identifiers `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.out.len()).map(NodeId::from)
    }

    /// Adds a directed edge `(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(v.index() < self.out.len(), "target node out of range");
        self.out[u.index()].push(v);
    }

    /// Out-neighbors of `u` (with multiplicity).
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.out[u.index()]
    }

    /// In-degrees of every node (number of nodes storing each identifier).
    pub(crate) fn in_degrees(&self) -> Vec<usize> {
        let mut indeg = vec![0usize; self.out.len()];
        for adj in &self.out {
            for &v in adj {
                indeg[v.index()] += 1;
            }
        }
        indeg
    }

    /// The graph's degree: the maximum over all nodes of in-degree plus out-degree.
    pub fn degree(&self) -> usize {
        let indeg = self.in_degrees();
        self.out
            .iter()
            .enumerate()
            .map(|(i, adj)| adj.len() + indeg[i])
            .max()
            .unwrap_or(0)
    }

    /// Maximum out-degree over all nodes.
    pub fn max_out_degree(&self) -> usize {
        self.out.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Returns all directed edges as `(u, v)` pairs.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::with_capacity(self.edge_count());
        for (u, adj) in self.out.iter().enumerate() {
            for &v in adj {
                edges.push((NodeId::from(u), v));
            }
        }
        edges
    }

    /// Removes duplicate parallel edges from every adjacency list (self-loops are kept,
    /// deduplicated as well).
    pub fn dedup_edges(&mut self) {
        for adj in &mut self.out {
            let set: BTreeSet<NodeId> = adj.iter().copied().collect();
            *adj = set.into_iter().collect();
        }
    }

    /// The undirected version of the graph: every directed edge becomes an undirected
    /// edge, parallel edges are merged, and self-loops are dropped.
    pub fn to_undirected(&self) -> UGraph {
        let mut seen = BTreeSet::new();
        for (u, adj) in self.out.iter().enumerate() {
            for &v in adj {
                if u != v.index() {
                    let (a, b) = if u < v.index() {
                        (u, v.index())
                    } else {
                        (v.index(), u)
                    };
                    seen.insert((a, b));
                }
            }
        }
        let mut g = UGraph::new(self.out.len());
        for (a, b) in seen {
            g.add_edge(NodeId::from(a), NodeId::from(b));
        }
        g
    }

    /// Builds a directed graph from a list of edges.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut g = DiGraph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> DiGraph {
        let mut g = DiGraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i.into(), (i + 1).into());
        }
        g
    }

    #[test]
    fn new_graph_is_empty() {
        let g = DiGraph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(), 0);
    }

    #[test]
    fn add_edge_updates_degrees() {
        let g = path(4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_neighbors(0.into()).len(), 1);
        assert_eq!(g.out_neighbors(3.into()).len(), 0);
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 1]);
        // middle nodes have degree 2 (1 in + 1 out)
        assert_eq!(g.degree(), 2);
    }

    #[test]
    fn parallel_edges_counted_and_dedupable() {
        let mut g = DiGraph::new(2);
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 1.into());
        assert_eq!(g.edge_count(), 2);
        g.dedup_edges();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn to_undirected_merges_and_drops_loops() {
        let mut g = DiGraph::new(3);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 0.into());
        g.add_edge(2.into(), 2.into());
        let u = g.to_undirected();
        assert_eq!(u.edge_count(), 1);
        assert_eq!(u.degree(2.into()), 0);
    }

    #[test]
    fn edges_roundtrip() {
        let g = path(5);
        let edges = g.edges();
        let g2 = DiGraph::from_edges(5, edges);
        assert_eq!(g, g2);
    }

    #[test]
    #[should_panic(expected = "target node out of range")]
    fn add_edge_out_of_range_panics() {
        let mut g = DiGraph::new(2);
        g.add_edge(0.into(), 5.into());
    }
}
