//! Undirected multigraphs with explicit self-loops.
//!
//! The *benign* communication graphs maintained by `CreateExpander` are Δ-regular
//! multigraphs in which self-loops are first-class edges (a lazy random-walk step may
//! stay put by traversing a loop). [`UGraph`] therefore stores, for every node, a list
//! of incident *edge slots*: a non-loop edge `{u, v}` contributes one slot `v` at `u`
//! and one slot `u` at `v`; a self-loop at `v` contributes a single slot `v` at `v`.
//! A uniformly random incident edge is then simply a uniformly random slot.

use crate::NodeId;
use std::collections::BTreeSet;

/// An undirected multigraph over nodes `0..n` with explicit self-loops.
///
/// # Example
///
/// ```
/// use overlay_graph::UGraph;
///
/// let mut g = UGraph::new(3);
/// g.add_edge(0.into(), 1.into());
/// g.add_self_loop(2.into());
/// assert_eq!(g.degree(0.into()), 1);
/// assert_eq!(g.degree(2.into()), 1);
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UGraph {
    adj: Vec<Vec<NodeId>>,
}

impl UGraph {
    /// Creates an undirected multigraph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        UGraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Creates an undirected multigraph with `n` nodes and no edges whose slot
    /// lists each have room for `degree` slots, so that building a graph of
    /// that degree never reallocates a list.
    pub fn with_slot_capacity(n: usize, degree: usize) -> Self {
        let mut g = UGraph::default();
        g.reset(n, degree);
        g
    }

    /// Empties the graph into `n` isolated nodes whose slot lists each have
    /// room for `capacity` slots, keeping the lists it already holds: a graph
    /// rebuilt in place this way allocates a list only for a node it did not
    /// have, or one whose list is too short.
    pub fn reset(&mut self, n: usize, capacity: usize) {
        self.adj.resize_with(n, || Vec::with_capacity(capacity));
        for slots in &mut self.adj {
            slots.clear();
            slots.reserve(capacity);
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges, counting multiplicities; a self-loop counts as one
    /// edge.
    pub fn edge_count(&self) -> usize {
        let slots: usize = self.adj.iter().map(Vec::len).sum();
        let loops: usize = self
            .adj
            .iter()
            .enumerate()
            .map(|(v, a)| a.iter().filter(|&&w| w.index() == v).count())
            .sum();
        (slots - loops) / 2 + loops
    }

    /// Iterator over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len()).map(NodeId::from)
    }

    /// Adds an undirected edge `{u, v}`.
    ///
    /// If `u == v` this adds a self-loop (a single slot).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(u.index() < self.adj.len(), "node out of range");
        assert!(v.index() < self.adj.len(), "node out of range");
        if u == v {
            self.adj[u.index()].push(v);
        } else {
            self.adj[u.index()].push(v);
            self.adj[v.index()].push(u);
        }
    }

    /// Adds a self-loop at `v`.
    pub fn add_self_loop(&mut self, v: NodeId) {
        self.add_edge(v, v);
    }

    /// Appends self-loops at every node of degree below `degree` until it has
    /// exactly that degree; nodes already at or above it are left alone.
    pub fn pad_self_loops(&mut self, degree: usize) {
        for (v, slots) in self.adj.iter_mut().enumerate() {
            if slots.len() < degree {
                slots.resize(degree, NodeId::from(v));
            }
        }
    }

    /// Degree of `v`: its number of incident edge slots (self-loops count once).
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// The incident edge slots of `v` (neighbors with multiplicity, self-loops as `v`).
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v.index()]
    }

    /// Number of self-loop slots at `v`.
    pub fn self_loops(&self, v: NodeId) -> usize {
        self.adj[v.index()].iter().filter(|&&w| w == v).count()
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Returns `true` if every node has exactly degree `delta`.
    pub fn is_regular(&self, delta: usize) -> bool {
        self.adj.iter().all(|a| a.len() == delta)
    }

    /// Returns all undirected edges `(u, v)` with `u <= v`, with multiplicity.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        for (u, a) in self.adj.iter().enumerate() {
            for &v in a {
                if v.index() >= u {
                    edges.push((NodeId::from(u), v));
                }
            }
        }
        edges
    }

    /// Returns the distinct (deduplicated) non-loop neighbor set of `v`, in
    /// ascending order.
    pub fn distinct_neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let mut distinct: Vec<NodeId> = self.adj[v.index()]
            .iter()
            .copied()
            .filter(|&w| w != v)
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        distinct
    }

    /// Builds an undirected graph from a list of edges.
    #[cfg(test)]
    pub(crate) fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut g = UGraph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// The subgraph induced by the nodes `new_id` keeps, relabelled: node `u`
    /// becomes `new_id[u]` in a graph of `n_new` nodes (slot lists pre-sized
    /// to `capacity`), and every non-loop edge whose two ends are kept is
    /// re-added once, in [`UGraph::edges`] order — by ascending lower endpoint
    /// `u`, in `u`'s own slot order. Slot order is part of the result. Nodes
    /// of the new graph that no old node maps to start isolated; self-loops
    /// are dropped and left to the caller.
    ///
    /// # Panics
    ///
    /// Panics if `new_id` has fewer entries than the graph has nodes, or maps
    /// a node to `n_new` or beyond.
    pub fn induced(&self, new_id: &[Option<usize>], n_new: usize, capacity: usize) -> UGraph {
        let mut sub = UGraph::default();
        self.induced_into(new_id, n_new, capacity, &mut sub);
        sub
    }

    /// [`UGraph::induced`], written into `sub` through [`UGraph::reset`]:
    /// whatever `sub` held is discarded, its slot lists are reused, and the
    /// result is equal to `induced`'s, slot order included.
    ///
    /// # Panics
    ///
    /// As [`UGraph::induced`].
    pub fn induced_into(
        &self,
        new_id: &[Option<usize>],
        n_new: usize,
        capacity: usize,
        sub: &mut UGraph,
    ) {
        sub.reset(n_new, capacity);
        for (u, slots) in self.adj.iter().enumerate() {
            let Some(nu) = new_id[u] else { continue };
            for &v in slots {
                if v.index() > u {
                    if let Some(nv) = new_id[v.index()] {
                        sub.add_edge(NodeId::from(nu), NodeId::from(nv));
                    }
                }
            }
        }
    }

    /// Returns the simple-graph version: parallel edges merged, self-loops
    /// removed. Every list of the result is [`UGraph::distinct_neighbors`] of
    /// its node, so it is ascending; the lists describe one graph because
    /// slots are symmetric (every mutator adds a non-loop edge at both ends).
    pub fn simplify(&self) -> UGraph {
        UGraph {
            adj: self.nodes().map(|v| self.distinct_neighbors(v)).collect(),
        }
    }

    /// Number of edge slots at nodes of `set` whose other endpoint lies outside `set`
    /// (the numerator of the conductance of `set`).
    pub(crate) fn boundary_size(&self, set: &BTreeSet<NodeId>) -> usize {
        set.iter()
            .map(|&v| {
                self.adj[v.index()]
                    .iter()
                    .filter(|w| !set.contains(w))
                    .count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = UGraph::new(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn edge_count_with_loops() {
        let mut g = UGraph::new(3);
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 1.into());
        g.add_self_loop(2.into());
        g.add_self_loop(2.into());
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0.into()), 2);
        assert_eq!(g.degree(2.into()), 2);
        assert_eq!(g.self_loops(2.into()), 2);
        assert_eq!(g.self_loops(0.into()), 0);
    }

    #[test]
    fn regularity_check() {
        let mut g = UGraph::new(2);
        g.add_edge(0.into(), 1.into());
        g.add_self_loop(0.into());
        g.add_self_loop(1.into());
        assert!(g.is_regular(2));
        assert!(!g.is_regular(3));
    }

    #[test]
    fn distinct_neighbors_excludes_loops_and_dups() {
        let mut g = UGraph::new(3);
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_self_loop(0.into());
        assert_eq!(
            g.distinct_neighbors(0.into()),
            vec![NodeId::from(1usize), NodeId::from(2usize)]
        );
    }

    #[test]
    fn distinct_neighbors_are_sorted_on_a_multigraph() {
        // Slots of node 3, in insertion order: 5, 3 (loop), 1, 5, 0, 3 (loop), 1, 4.
        let mut g = UGraph::new(6);
        for w in [5usize, 3, 1, 5, 0, 3, 1, 4] {
            g.add_edge(3.into(), w.into());
        }
        assert_eq!(g.degree(3.into()), 8);
        let ids = |v: usize| -> Vec<usize> {
            g.distinct_neighbors(v.into())
                .into_iter()
                .map(NodeId::index)
                .collect()
        };
        assert_eq!(ids(3), vec![0, 1, 4, 5]);
        assert_eq!(ids(5), vec![3]);
        assert_eq!(ids(2), Vec::<usize>::new());
    }

    #[test]
    fn boundary_of_singleton() {
        let mut g = UGraph::new(3);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 2.into());
        g.add_self_loop(1.into());
        let set: BTreeSet<NodeId> = [NodeId::from(1usize)].into_iter().collect();
        // node 1 has slots [0, 2, 1]; boundary counts 0 and 2 but not the loop
        assert_eq!(g.boundary_size(&set), 2);
    }

    #[test]
    fn simplify_removes_multiplicity() {
        let mut g = UGraph::new(3);
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 1.into());
        g.add_self_loop(2.into());
        let s = g.simplify();
        assert_eq!(s.edge_count(), 1);
        assert_eq!(s.degree(2.into()), 0);
    }

    /// `simplify` as it was before it was stated per node: every non-loop
    /// slot pair through one ordered set, the set back through `add_edge`.
    fn reference_simplify(g: &UGraph) -> UGraph {
        let mut seen = BTreeSet::new();
        for (u, a) in g.adj.iter().enumerate() {
            for &v in a {
                if v.index() != u {
                    let key = if u < v.index() {
                        (u, v.index())
                    } else {
                        (v.index(), u)
                    };
                    seen.insert(key);
                }
            }
        }
        let mut simple = UGraph::new(g.adj.len());
        for (a, b) in seen {
            simple.add_edge(NodeId::from(a), NodeId::from(b));
        }
        simple
    }

    #[test]
    fn simplify_equals_the_ordered_set_reference_on_random_multigraphs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..24usize);
            let mut g = UGraph::new(n);
            // Few nodes, many edges: loops and parallel edges are the common case.
            for _ in 0..rng.gen_range(0..6 * n) {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                g.add_edge(u.into(), v.into());
            }
            g.pad_self_loops(rng.gen_range(0..8usize));
            // Adjacency order included: `UGraph`'s `PartialEq` is derived.
            assert_eq!(g.simplify(), reference_simplify(&g), "seed {seed}");
        }
    }

    #[test]
    fn padding_fills_short_lists_with_loops_and_leaves_full_ones() {
        let mut g = UGraph::with_slot_capacity(3, 4);
        assert_eq!(g, UGraph::new(3), "capacity is not content");
        for _ in 0..5 {
            g.add_edge(0.into(), 1.into());
        }
        g.pad_self_loops(4);
        // What the hand-written `while degree < 4 { add_self_loop }` left:
        // the two over-full lists alone, four loops at node 2.
        let mut by_hand = UGraph::new(3);
        for _ in 0..5 {
            by_hand.add_edge(0.into(), 1.into());
        }
        for _ in 0..4 {
            by_hand.add_self_loop(2.into());
        }
        assert_eq!(g, by_hand);
    }

    #[test]
    fn induced_keeps_edges_order_drops_loops_and_relabels() {
        // An unsorted multigraph: node 0's slots are [4, 0, 2, 4, 1], so
        // `edges()` lists its edges as (0,4) (0,0) (0,2) (0,4) (0,1).
        let mut g = UGraph::new(5);
        for (u, v) in [(0usize, 4usize), (0, 0), (0, 2), (0, 4), (0, 1)] {
            g.add_edge(u.into(), v.into());
        }
        for (u, v) in [(3usize, 4usize), (2, 1), (3, 3), (4, 2), (1, 3)] {
            g.add_edge(u.into(), v.into());
        }
        // Node 1 is dropped; the survivors are relabelled out of order, into
        // a graph with one extra node (4) nothing maps to.
        let new_id = [Some(2), None, Some(0), Some(3), Some(1)];
        let sub = g.induced(&new_id, 5, 8);
        // The specification: the surviving non-loop edges of `edges()`, in
        // that order, one `add_edge` each.
        let kept = g.edges().into_iter().filter_map(|(u, v)| {
            let (nu, nv) = (new_id[u.index()]?, new_id[v.index()]?);
            (u != v).then_some((NodeId::from(nu), NodeId::from(nv)))
        });
        assert_eq!(sub, UGraph::from_edges(5, kept));
        let ids = |v: usize| -> Vec<usize> {
            let slots = sub.neighbors(v.into()).iter();
            slots.map(|w| w.index()).collect()
        };
        // Old node 0 (now 2) keeps its slot order 4, 2, 4 -> 1, 0, 1.
        assert_eq!(ids(2), vec![1, 0, 1]);
        // A per-node filter of old node 4's slots [0, 0, 3, 2] would give
        // [2, 2, 3, 0]; `edges()` order files (2,4) before (3,4).
        assert_eq!(ids(1), vec![2, 2, 0, 3]);
        assert_eq!(ids(0), vec![2, 1]);
        assert_eq!(ids(3), vec![1]);
        assert_eq!(ids(4), Vec::<usize>::new());
        assert_eq!(sub.edge_count(), 5);
    }

    #[test]
    fn induced_into_a_used_graph_equals_a_fresh_induced() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..24usize);
            let mut g = UGraph::new(n);
            for _ in 0..rng.gen_range(0..6 * n) {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                g.add_edge(u.into(), v.into());
            }
            // Keep a random subset, relabelled in reverse, into a graph with
            // one node nothing maps to.
            let mut kept = 0;
            let mut new_id: Vec<Option<usize>> = (0..n)
                .map(|_| {
                    rng.gen_bool(0.7).then(|| {
                        kept += 1;
                        kept - 1
                    })
                })
                .collect();
            for id in new_id.iter_mut().flatten() {
                *id = kept - 1 - *id;
            }
            let n_new = kept + 1;
            let fresh = g.induced(&new_id, n_new, 4);
            // Targets holding more nodes than the result, fewer, and none;
            // every list full of stale slots.
            for n_old in [n_new + 5, n_new / 2, 0] {
                let mut sub = UGraph::new(n_old);
                sub.pad_self_loops(7);
                for v in 1..n_old {
                    sub.add_edge(0.into(), v.into());
                }
                g.induced_into(&new_id, n_new, 4, &mut sub);
                // Slot order included: `UGraph`'s `PartialEq` is derived.
                assert_eq!(sub, fresh, "seed {seed}, {n_old} stale nodes");
            }
        }
    }

    #[test]
    fn edges_listing_has_multiplicity() {
        let mut g = UGraph::new(2);
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 1.into());
        g.add_self_loop(0.into());
        assert_eq!(g.edges().len(), 3);
    }
}
