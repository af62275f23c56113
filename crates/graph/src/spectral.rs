//! Spectral estimates for the lazy random walk.
//!
//! The paper's analysis works with the lazy random-walk matrix of a Δ-regular benign
//! graph. For the experiment harness we approximate its second eigenvector (the
//! Fiedler embedding) by power iteration, with deflation of the all-ones stationary
//! vector; [`crate::cuts::conductance_estimate`] uses it for sweep cuts.

use crate::{NodeId, UGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One multiplication `y = P x` with the lazy random-walk matrix of `g`.
///
/// The walk at node `v` stays put with probability `1/2` and otherwise moves to a
/// uniformly random incident edge slot (self-loop slots also stay put). For irregular
/// graphs the walk normalizes by the node's own degree, which corresponds to the usual
/// lazy walk on the multigraph.
pub fn lazy_walk_step(g: &UGraph, x: &[f64]) -> Vec<f64> {
    let n = g.node_count();
    let mut y = vec![0.0; n];
    for v in 0..n {
        let deg = g.degree(NodeId::from(v));
        let keep = 0.5 * x[v];
        y[v] += keep;
        if deg == 0 {
            y[v] += 0.5 * x[v];
            continue;
        }
        let share = 0.5 * x[v] / deg as f64;
        for &w in g.neighbors(NodeId::from(v)) {
            y[w.index()] += share;
        }
    }
    y
}

/// Approximate second eigenvector ("Fiedler embedding") of the lazy random-walk matrix,
/// obtained by `iterations` rounds of power iteration with deflation of the constant
/// vector. Deterministic for a fixed `seed`.
pub fn fiedler_embedding(g: &UGraph, iterations: usize, seed: u64) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    for _ in 0..iterations {
        deflate_and_normalize(&mut x);
        x = lazy_walk_step(g, &x);
    }
    deflate_and_normalize(&mut x);
    x
}

fn deflate_and_normalize(x: &mut [f64]) {
    let n = x.len();
    if n == 0 {
        return;
    }
    let mean = x.iter().sum::<f64>() / n as f64;
    for v in x.iter_mut() {
        *v -= mean;
    }
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 0.0 {
        for v in x.iter_mut() {
            *v /= norm;
        }
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
    fn lazy_walk_preserves_mass() {
        let g = to_ug(&generators::cycle(10));
        let x = vec![0.1; 10];
        let y = lazy_walk_step(&g, &x);
        assert!((y.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lazy_walk_on_isolated_node_keeps_mass() {
        let g = UGraph::new(1);
        let y = lazy_walk_step(&g, &[1.0]);
        assert!((y[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fiedler_embedding_separates_line_halves() {
        let g = to_ug(&generators::line(32));
        let emb = fiedler_embedding(&g, 400, 3);
        // The embedding should be monotone-ish along the line: the two endpoints must
        // have opposite signs.
        assert!(emb[0] * emb[31] < 0.0);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = UGraph::new(0);
        assert!(fiedler_embedding(&g, 10, 0).is_empty());
    }
}
