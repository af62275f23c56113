//! Conductance and minimum cuts.
//!
//! The analysis of `CreateExpander` is driven by two quantities of the benign
//! communication graph: its (small-set) conductance and the size of its minimum cut.
//! This module provides
//!
//! * exact conductance by exhaustive enumeration for small graphs (used by unit tests),
//! * conductance of explicitly given sets ([`set_conductance`]),
//! * a practical conductance estimate combining spectral sweep cuts with a family of
//!   natural candidate cuts ([`conductance_estimate`]),
//! * the global minimum cut via the Stoer–Wagner algorithm on the collapsed weighted
//!   graph ([`min_cut`]).

use crate::spectral;
use crate::{NodeId, UGraph};
use std::collections::BTreeSet;

/// Conductance of a node set `S` in `g`, following Definition 1.7 of the paper:
/// the number of edge slots leaving `S` divided by `Δ·|S|` where `Δ` is the maximum
/// degree of the graph.
///
/// Returns `None` if the set is empty or contains every node.
pub fn set_conductance(g: &UGraph, set: &BTreeSet<NodeId>) -> Option<f64> {
    if set.is_empty() || set.len() >= g.node_count() {
        return None;
    }
    let delta = g.max_degree();
    if delta == 0 {
        return Some(0.0);
    }
    let boundary = g.boundary_size(set) as f64;
    Some(boundary / (delta as f64 * set.len() as f64))
}

/// Exact conductance `Φ(G)` by enumerating every subset of at most half the nodes.
///
/// Only feasible for very small graphs; intended for unit tests that validate the
/// estimators.
///
/// # Panics
///
/// Panics if the graph has more than 20 nodes.
pub fn exact_conductance(g: &UGraph) -> f64 {
    let n = g.node_count();
    assert!(
        n <= 20,
        "exact conductance is exponential; use conductance_estimate"
    );
    if n <= 1 {
        return 0.0;
    }
    let mut best = f64::INFINITY;
    for mask in 1u32..(1u32 << n) - 1 {
        let size = mask.count_ones() as usize;
        if size > n / 2 {
            continue;
        }
        let set: BTreeSet<NodeId> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(NodeId::from)
            .collect();
        if let Some(phi) = set_conductance(g, &set) {
            best = best.min(phi);
        }
    }
    if best.is_finite() {
        best
    } else {
        0.0
    }
}

/// A practical upper estimate of the conductance `Φ(G)`.
///
/// Combines:
/// * sweep cuts over an approximate second eigenvector of the lazy random walk
///   (the standard spectral partitioning heuristic, see [`spectral`]),
/// * sweep cuts over the identifier order (which captures the worst cuts of lines,
///   barbells and other "ordered" topologies),
/// * all singleton cuts.
///
/// The returned value is the conductance of an actual cut, so it is always an upper
/// bound on `Φ(G)`; for the graph families used in the experiments it is a tight one.
pub fn conductance_estimate(g: &UGraph, seed: u64) -> f64 {
    let n = g.node_count();
    if n <= 1 {
        return 0.0;
    }
    if n <= 16 {
        return exact_conductance(g);
    }
    let mut best = f64::INFINITY;

    // Singletons.
    for v in g.nodes() {
        let set: BTreeSet<NodeId> = [v].into_iter().collect();
        if let Some(phi) = set_conductance(g, &set) {
            best = best.min(phi);
        }
    }

    // Sweep over the identifier order.
    best = best.min(sweep_order(
        g,
        &(0..n).map(NodeId::from).collect::<Vec<_>>(),
    ));

    // Sweep over the spectral embedding order.
    let embedding = spectral::fiedler_embedding(g, 200, seed);
    let mut order: Vec<NodeId> = (0..n).map(NodeId::from).collect();
    order.sort_by(|a, b| {
        embedding[a.index()]
            .partial_cmp(&embedding[b.index()])
            .expect("embedding values are finite")
    });
    best = best.min(sweep_order(g, &order));

    best
}

/// Minimum conductance over all prefixes of the given order containing at most half the
/// nodes.
fn sweep_order(g: &UGraph, order: &[NodeId]) -> f64 {
    let n = g.node_count();
    let delta = g.max_degree().max(1);
    let mut in_set = vec![false; n];
    let mut boundary: i64 = 0;
    let mut best = f64::INFINITY;
    for (i, &v) in order.iter().enumerate() {
        // Adding v to the set: an edge from v to an outside node adds one boundary slot
        // (at v); an edge from v to an inside node removes the boundary slot previously
        // counted at that inside endpoint.
        for &w in g.neighbors(v) {
            if w == v {
                continue;
            }
            if in_set[w.index()] {
                boundary -= 1;
            } else {
                boundary += 1;
            }
        }
        // Self-loops never cross the cut.
        in_set[v.index()] = true;
        let size = i + 1;
        if size > n / 2 {
            break;
        }
        let phi = boundary.max(0) as f64 / (delta as f64 * size as f64);
        best = best.min(phi);
    }
    best
}

/// The global minimum cut of `g` (number of edges, counting multiplicities, whose
/// removal disconnects the graph), computed with the Stoer–Wagner algorithm on the
/// collapsed weighted graph. Self-loops are ignored (they never cross a cut).
///
/// Returns `0` for graphs that are already disconnected and `usize::MAX` for graphs
/// with fewer than two nodes.
pub fn min_cut(g: &UGraph) -> usize {
    let n = g.node_count();
    if n < 2 {
        return usize::MAX;
    }
    // Collapse the multigraph into a weight matrix.
    let mut w = vec![vec![0u64; n]; n];
    for (u, a) in (0..n).map(|u| (u, g.neighbors(NodeId::from(u)))) {
        for &v in a {
            if v.index() != u {
                w[u][v.index()] += 1;
            }
        }
    }
    // Note: neighbors() stores a non-loop edge once at each endpoint, so w[u][v] above
    // already equals the edge multiplicity (we added 1 at u for the slot pointing to v).
    stoer_wagner(w)
}

/// Stoer–Wagner minimum cut on a dense weight matrix. Returns the weight of the global
/// minimum cut; `0` if the graph is disconnected.
fn stoer_wagner(mut w: Vec<Vec<u64>>) -> usize {
    let n = w.len();
    let mut active: Vec<usize> = (0..n).collect();
    let mut best = u64::MAX;
    while active.len() > 1 {
        let m = active.len();
        let mut in_a = vec![false; m];
        let mut weights = vec![0u64; m];
        let mut prev = 0usize;
        let mut last = 0usize;
        for it in 0..m {
            // Select the most tightly connected remaining vertex.
            let mut sel = usize::MAX;
            for i in 0..m {
                if !in_a[i] && (sel == usize::MAX || weights[i] > weights[sel]) {
                    sel = i;
                }
            }
            in_a[sel] = true;
            if it == m - 1 {
                best = best.min(weights[sel]);
                last = sel;
                // Merge `last` into `prev`.
                for i in 0..m {
                    if i != last && i != prev {
                        w[active[prev]][active[i]] += w[active[last]][active[i]];
                        w[active[i]][active[prev]] = w[active[prev]][active[i]];
                    }
                }
                break;
            }
            prev = sel;
            for i in 0..m {
                if !in_a[i] {
                    weights[i] += w[active[sel]][active[i]];
                }
            }
        }
        active.remove(last);
    }
    if best == u64::MAX {
        0
    } else {
        best as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn to_ug(g: &crate::DiGraph) -> UGraph {
        let mut u = UGraph::new(g.node_count());
        for (a, b) in g.edges() {
            if a != b {
                u.add_edge(a, b);
            }
        }
        u
    }

    #[test]
    fn set_conductance_of_half_line() {
        let g = to_ug(&generators::line(8));
        let set: BTreeSet<NodeId> = (0..4).map(NodeId::from).collect();
        // One crossing edge, Δ = 2, |S| = 4.
        assert_eq!(set_conductance(&g, &set), Some(1.0 / 8.0));
    }

    #[test]
    fn set_conductance_rejects_trivial_sets() {
        let g = to_ug(&generators::line(4));
        assert_eq!(set_conductance(&g, &BTreeSet::new()), None);
        let all: BTreeSet<NodeId> = (0..4).map(NodeId::from).collect();
        assert_eq!(set_conductance(&g, &all), None);
    }

    #[test]
    fn exact_conductance_of_small_graphs() {
        // Complete graph K4: every set of size 1 has conductance 3/3 = 1, size 2 has
        // 4/(3*2) = 2/3, so Φ = 2/3.
        let g = to_ug(&generators::erdos_renyi(4, 1.0, 0));
        assert!((exact_conductance(&g) - 2.0 / 3.0).abs() < 1e-9);

        // Path of 8: worst cut splits it in half over a single edge.
        let p = to_ug(&generators::line(8));
        assert!((exact_conductance(&p) - 1.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_upper_bounds_exact_on_small_graphs() {
        for g in [
            to_ug(&generators::line(12)),
            to_ug(&generators::cycle(12)),
            to_ug(&generators::grid(3, 4)),
        ] {
            let exact = exact_conductance(&g);
            let est = conductance_estimate(&g, 1);
            assert!(est + 1e-9 >= exact, "estimate {est} below exact {exact}");
            // For these ordered topologies the sweep finds the exact cut.
            assert!(est <= exact * 1.5 + 1e-9);
        }
    }

    #[test]
    fn estimate_finds_line_bottleneck() {
        let g = to_ug(&generators::line(256));
        let est = conductance_estimate(&g, 3);
        // The optimal cut has conductance 1/(2*128); the identifier sweep finds it.
        assert!((est - 1.0 / 256.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_on_expander_is_large() {
        let g = to_ug(&generators::hypercube(6));
        let est = conductance_estimate(&g, 3);
        assert!(est > 0.1, "hypercube conductance estimate too small: {est}");
    }

    #[test]
    fn min_cut_of_line_and_cycle() {
        assert_eq!(min_cut(&to_ug(&generators::line(10))), 1);
        assert_eq!(min_cut(&to_ug(&generators::cycle(10))), 2);
        assert_eq!(min_cut(&to_ug(&generators::hypercube(4))), 4);
    }

    #[test]
    fn min_cut_counts_multiplicity() {
        let mut g = UGraph::new(4);
        // Two parallel edges between the halves.
        g.add_edge(0.into(), 1.into());
        g.add_edge(2.into(), 3.into());
        g.add_edge(1.into(), 2.into());
        g.add_edge(1.into(), 2.into());
        assert_eq!(min_cut(&g), 1); // cutting off node 0 costs 1
        g.add_edge(0.into(), 3.into());
        g.add_edge(0.into(), 2.into());
        assert_eq!(min_cut(&g), 2);
    }

    #[test]
    fn min_cut_of_disconnected_graph_is_zero() {
        let g = UGraph::new(5);
        assert_eq!(min_cut(&g), 0);
    }

    #[test]
    fn min_cut_ignores_self_loops() {
        let mut g = UGraph::new(2);
        g.add_edge(0.into(), 1.into());
        g.add_self_loop(0.into());
        g.add_self_loop(1.into());
        assert_eq!(min_cut(&g), 1);
    }
}
