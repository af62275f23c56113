//! Degree reduction for arbitrary-degree graphs (Section 4.2, Lemma 4.3).
//!
//! The NCC0 pipeline requires a constant initial degree. For arbitrary graphs the paper
//! first builds a sparse spanner (Elkin–Neiman / Miller et al.) whose *out*-degree is
//! `O(log n)` w.h.p., and then lets every node delegate its incoming spanner edges to
//! its incoming neighbors (arranged as a path), producing a graph `H` of degree
//! `O(log n)` in which two nodes are connected if and only if they are connected in the
//! initial graph.
//!
//! The spanner's broadcast phase (every node floods its exponential random value for
//! `2·log m + 1` rounds over local edges) and the one-round delegation are standard
//! CONGEST procedures; here they are computed by the harness with the same semantics
//! and charged `2·⌈log₂ m⌉ + 3` rounds.

use overlay_graph::{analysis, DiGraph, NodeId, UGraph};
use overlay_netsim::caps::log2_ceil;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The output of the degree-reduction preprocessing.
#[derive(Clone, Debug)]
pub struct SparsifyResult {
    /// The spanner `S(G)`: a subgraph of the initial graph (directed, per-node
    /// out-edges) with out-degree `O(log n)`.
    pub spanner: DiGraph,
    /// The degree-reduced graph `H` (undirected view). `H` is *not* a subgraph of `G`:
    /// delegated edges connect former co-neighbors.
    pub reduced: UGraph,
    /// For every delegated edge `{a, b}` of `H` that is not an edge of `G`, the node `v`
    /// whose incoming edges were delegated (i.e. `{a, v}` and `{b, v}` are edges of
    /// `G`). Used by the spanning-tree algorithm to map `H`-edges back to `G`-edges.
    pub(crate) delegation_center: Vec<((NodeId, NodeId), NodeId)>,
    /// CONGEST rounds charged for the preprocessing.
    pub rounds: usize,
}

impl SparsifyResult {
    /// Returns the delegation center of an `H`-edge, if it is a delegated edge.
    pub(crate) fn center_of(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.delegation_center
            .iter()
            .find(|(e, _)| *e == key)
            .map(|(_, c)| *c)
    }
}

/// The constant `c` of the paper's Step 1: nodes of degree below `c·⌈log₂ n⌉`
/// simply keep all their edges.
const DEGREE_THRESHOLD_FACTOR: usize = 4;

/// Runs the two-step degree reduction on (the undirected version of) `g`.
pub fn sparsify(g: &DiGraph, seed: u64) -> SparsifyResult {
    let und = g.to_undirected();
    let n = und.node_count();
    let log_n = log2_ceil(n).max(1);
    let threshold = DEGREE_THRESHOLD_FACTOR * log_n;
    let mut rng = StdRng::seed_from_u64(seed);

    // Component sizes determine the broadcast radius (the paper uses the known bound m).
    let comps = analysis::connected_components(&und);
    let comp_sizes: Vec<usize> = {
        let mut sizes = vec![0usize; comps.component_count()];
        for v in 0..n {
            sizes[comps.label(NodeId::from(v))] += 1;
        }
        sizes
    };

    // Step 1a: every node draws r_v ~ Exp(1/2); values above 2·log m are discarded.
    let r: Vec<Option<f64>> = (0..n)
        .map(|v| {
            let m = comp_sizes[comps.label(NodeId::from(v))] as f64;
            let sample: f64 = -2.0 * (1.0 - rng.gen::<f64>()).ln();
            (sample <= 2.0 * m.log2().max(1.0)).then_some(sample)
        })
        .collect();

    // Step 1b: bounded-radius broadcast of (r_u - dist). For every node v we compute
    // m_u(v) = r_u - d(u, v) for all u within distance 2·log m + 1 and remember the
    // predecessor on the path over which the best value arrived. This is the multi-source
    // Bellman-Ford-style flood of Elkin–Neiman, executed here for `radius` rounds.
    let mut best: Vec<f64> = (0..n).map(|v| r[v].unwrap_or(f64::NEG_INFINITY)).collect();
    let mut pred: Vec<NodeId> = (0..n).map(NodeId::from).collect();
    let mut source: Vec<NodeId> = (0..n).map(NodeId::from).collect();
    // Track, per node, all (source, value, predecessor) offers within 1 of the maximum.
    // To stay within CONGEST the real protocol forwards only the best offer per round;
    // keeping the top offers here is equivalent for the edge rule below.
    let mut offers: Vec<Vec<(NodeId, f64, NodeId)>> = (0..n)
        .map(|v| match r[v] {
            Some(val) => vec![(NodeId::from(v), val, NodeId::from(v))],
            None => Vec::new(),
        })
        .collect();
    let radius = 2 * log_n + 1;
    for _ in 0..radius {
        let mut new_offers: Vec<Vec<(NodeId, f64, NodeId)>> = vec![Vec::new(); n];
        for (v, offer_list) in offers.iter().enumerate() {
            for &(src, val, _) in offer_list {
                for &w in und.neighbors(NodeId::from(v)) {
                    new_offers[w.index()].push((src, val - 1.0, NodeId::from(v)));
                }
            }
        }
        for v in 0..n {
            offers[v].extend(new_offers[v].iter().copied());
            // Keep only the best offer per source, and only offers within 1.5 of the max
            // (anything further can never satisfy the m(v) - 1 rule).
            offers[v].sort_by(|a, b| (a.0, b.1).partial_cmp(&(b.0, a.1)).expect("finite"));
            offers[v].dedup_by_key(|o| o.0);
            let max = offers[v]
                .iter()
                .map(|o| o.1)
                .fold(f64::NEG_INFINITY, f64::max);
            offers[v].retain(|o| o.1 >= max - 1.5);
            if max > best[v] {
                best[v] = max;
            }
        }
    }
    for v in 0..n {
        if let Some(&(src, _, p)) = offers[v]
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        {
            source[v] = src;
            pred[v] = p;
        }
    }

    // Step 1c: spanner edges. Every node adds an edge to the predecessor of every offer
    // within 1 of its maximum; low-degree nodes add all their edges.
    let mut spanner = DiGraph::new(n);
    #[allow(clippy::needless_range_loop)] // `v` indexes `offers`, `und` and `spanner` alike
    for v in 0..n {
        let deg = und.degree(NodeId::from(v));
        if deg < threshold {
            for &w in &und.distinct_neighbors(NodeId::from(v)) {
                spanner.add_edge(NodeId::from(v), w);
            }
            continue;
        }
        let max = offers[v]
            .iter()
            .map(|o| o.1)
            .fold(f64::NEG_INFINITY, f64::max);
        for &(_, val, p) in &offers[v] {
            if val >= max - 1.0 && p != NodeId::from(v) {
                spanner.add_edge(NodeId::from(v), p);
            }
        }
    }
    spanner.dedup_edges();
    let _ = (best, source);

    // Step 2: delegation. Every node v sorts its incoming spanner neighbors and chains
    // them into a path, keeping only the edge to the first of them.
    let mut incoming: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (u, v) in spanner.edges() {
        if u != v {
            incoming[v.index()].push(u);
        }
    }
    let mut reduced = UGraph::new(n);
    let mut delegation_center = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut add_once = |reduced: &mut UGraph, a: NodeId, b: NodeId| {
        let key = if a <= b { (a, b) } else { (b, a) };
        if a != b && seen.insert(key) {
            reduced.add_edge(a, b);
            return true;
        }
        false
    };
    for (v, inc) in incoming.iter_mut().enumerate() {
        inc.sort_unstable();
        inc.dedup();
        if inc.is_empty() {
            continue;
        }
        add_once(&mut reduced, NodeId::from(v), inc[0]);
        for i in 1..inc.len() {
            if add_once(&mut reduced, inc[i - 1], inc[i])
                && !und.neighbors(inc[i - 1]).contains(&inc[i])
            {
                delegation_center.push((
                    if inc[i - 1] <= inc[i] {
                        (inc[i - 1], inc[i])
                    } else {
                        (inc[i], inc[i - 1])
                    },
                    NodeId::from(v),
                ));
            }
        }
    }

    SparsifyResult {
        spanner,
        reduced,
        delegation_center,
        rounds: radius + 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_graph::generators;

    fn check_components_preserved(g: &DiGraph, result: &SparsifyResult) {
        let before = analysis::connected_components(&g.to_undirected());
        let after = analysis::connected_components(&result.reduced);
        assert_eq!(before.component_count(), after.component_count());
        for u in 0..g.node_count() {
            for v in 0..g.node_count() {
                assert_eq!(
                    before.same_component(u.into(), v.into()),
                    after.same_component(u.into(), v.into()),
                    "component relation changed for {u}, {v}"
                );
            }
        }
    }

    #[test]
    fn star_degree_collapses() {
        let n = 256;
        let g = generators::star(n);
        let result = sparsify(&g, 1);
        check_components_preserved(&g, &result);
        let log_n = log2_ceil(n);
        assert!(
            result.reduced.max_degree() <= 6 * log_n,
            "reduced degree {} not O(log n)",
            result.reduced.max_degree()
        );
    }

    #[test]
    fn low_degree_graphs_are_preserved() {
        let g = generators::cycle(64);
        let result = sparsify(&g, 2);
        check_components_preserved(&g, &result);
        // Every node has degree 2 < threshold, so the spanner keeps all edges.
        assert_eq!(result.spanner.edge_count(), 2 * 64);
    }

    #[test]
    fn disconnected_graphs_stay_disconnected() {
        let g = generators::disjoint_union(&[
            generators::star(100),
            generators::cycle(32),
            generators::line(20),
        ]);
        let result = sparsify(&g, 3);
        check_components_preserved(&g, &result);
    }

    #[test]
    fn dense_random_graph_gets_logarithmic_degree() {
        let n = 128;
        let g = generators::connected_random(n, 0.3, 5);
        assert!(g.to_undirected().max_degree() > 20);
        let result = sparsify(&g, 7);
        check_components_preserved(&g, &result);
        let log_n = log2_ceil(n);
        assert!(
            result.reduced.max_degree() <= 8 * log_n,
            "reduced degree {} not O(log n) (log n = {log_n})",
            result.reduced.max_degree()
        );
    }

    #[test]
    fn spanner_is_subgraph_of_input() {
        let g = generators::connected_random(80, 0.2, 9);
        let und = g.to_undirected();
        let result = sparsify(&g, 11);
        for (u, v) in result.spanner.edges() {
            assert!(
                und.neighbors(u).contains(&v),
                "spanner edge {u}->{v} not in the input graph"
            );
        }
    }

    #[test]
    fn delegation_centers_map_back_to_input_edges() {
        let g = generators::connected_random(100, 0.25, 13);
        let und = g.to_undirected();
        let result = sparsify(&g, 17);
        for ((a, b), c) in &result.delegation_center {
            assert!(und.neighbors(*a).contains(c));
            assert!(und.neighbors(*b).contains(c));
            assert_eq!(result.center_of(*a, *b), Some(*c));
            assert_eq!(result.center_of(*b, *a), Some(*c));
        }
    }

    #[test]
    fn rounds_are_logarithmic() {
        let result = sparsify(&generators::star(1024), 19);
        assert!(result.rounds <= 2 * log2_ceil(1024) + 3);
    }
}
