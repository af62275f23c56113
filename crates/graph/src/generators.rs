//! Workload generators: the initial topologies used by every experiment.
//!
//! All generators return a [`DiGraph`] knowledge graph whose undirected version is the
//! intended topology. Directions follow the natural construction order (e.g. a line has
//! edges pointing towards higher indices), matching the paper's setting where the
//! initial knowledge graph is merely *weakly* connected.
//!
//! Randomized generators take an explicit seed so that every experiment is reproducible.

use crate::{DiGraph, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A path (line) graph `0 - 1 - … - (n-1)`.
///
/// This is the paper's canonical worst case: its conductance is `Θ(1/n)` and the two
/// endpoints need `Ω(log n)` rounds to learn about each other.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn line(n: usize) -> DiGraph {
    assert!(n > 0, "graph must have at least one node");
    let mut g = DiGraph::new(n);
    for i in 0..n.saturating_sub(1) {
        g.add_edge(i.into(), (i + 1).into());
    }
    g
}

/// A cycle graph `0 - 1 - … - (n-1) - 0`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> DiGraph {
    assert!(n >= 3, "a cycle needs at least three nodes");
    let mut g = DiGraph::new(n);
    for i in 0..n {
        g.add_edge(i.into(), ((i + 1) % n).into());
    }
    g
}

/// A complete binary tree with `n` nodes (node `i` has children `2i+1` and `2i+2`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn binary_tree(n: usize) -> DiGraph {
    assert!(n > 0, "graph must have at least one node");
    let mut g = DiGraph::new(n);
    for i in 0..n {
        for c in [2 * i + 1, 2 * i + 2] {
            if c < n {
                g.add_edge(i.into(), c.into());
            }
        }
    }
    g
}

/// A star with node `0` as the center and `n - 1` leaves.
///
/// Stars are the canonical high-degree input for the hybrid-model algorithms (the center
/// has degree `n - 1`, so the NCC0 algorithm cannot be applied directly).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> DiGraph {
    assert!(n > 0, "graph must have at least one node");
    let mut g = DiGraph::new(n);
    for i in 1..n {
        g.add_edge(0.into(), i.into());
    }
    g
}

/// A `rows × cols` grid graph.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: usize, cols: usize) -> DiGraph {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let idx = |r: usize, c: usize| NodeId::from(r * cols + c);
    let mut g = DiGraph::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(idx(r, c), idx(r, c + 1));
            }
            if r + 1 < rows {
                g.add_edge(idx(r, c), idx(r + 1, c));
            }
        }
    }
    g
}

/// A `d`-dimensional hypercube with `2^d` nodes.
///
/// # Panics
///
/// Panics if `d > 20` (guard against accidental huge graphs).
#[cfg(test)]
pub(crate) fn hypercube(d: u32) -> DiGraph {
    assert!(d <= 20, "hypercube dimension too large");
    let n = 1usize << d;
    let mut g = DiGraph::new(n);
    for v in 0..n {
        for b in 0..d {
            let w = v ^ (1usize << b);
            if w > v {
                g.add_edge(v.into(), w.into());
            }
        }
    }
    g
}

/// A barbell graph: two cliques of size `clique` connected by a path of `bridge` nodes.
///
/// # Panics
///
/// Panics if `clique < 2`.
pub fn barbell(clique: usize, bridge: usize) -> DiGraph {
    assert!(clique >= 2, "clique part needs at least two nodes");
    let n = 2 * clique + bridge;
    let mut g = DiGraph::new(n);
    let add_clique = |g: &mut DiGraph, offset: usize| {
        for i in 0..clique {
            for j in i + 1..clique {
                g.add_edge((offset + i).into(), (offset + j).into());
            }
        }
    };
    add_clique(&mut g, 0);
    add_clique(&mut g, clique + bridge);
    // Path from node 0 of the first clique through the bridge to node 0 of the second.
    let mut prev = 0usize;
    for b in 0..bridge {
        g.add_edge(prev.into(), (clique + b).into());
        prev = clique + b;
    }
    g.add_edge(prev.into(), (clique + bridge).into());
    g
}

/// An Erdős–Rényi graph `G(n, p)` (undirected edges added with probability `p`, oriented
/// from the lower to the higher index).
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub(crate) fn erdos_renyi(n: usize, p: f64, seed: u64) -> DiGraph {
    assert!((0.0..=1.0).contains(&p), "probability must lie in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new(n);
    for i in 0..n {
        for j in i + 1..n {
            if rng.gen_bool(p) {
                g.add_edge(i.into(), j.into());
            }
        }
    }
    g
}

/// A connected Erdős–Rényi-style graph: `G(n, p)` plus a random Hamiltonian path to
/// guarantee (weak) connectivity.
pub fn connected_random(n: usize, p: f64, seed: u64) -> DiGraph {
    assert!(n > 0, "graph must have at least one node");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let mut g = erdos_renyi(n, p, seed.wrapping_add(1));
    for w in order.windows(2) {
        g.add_edge(w[0].into(), w[1].into());
    }
    g
}

/// A random `d`-regular-ish graph built from `d/2` superimposed random Hamiltonian
/// cycles (for even `d`), a standard construction that is `d`-regular and connected.
///
/// # Panics
///
/// Panics if `d` is odd, `d == 0`, or `n <= d`.
pub fn random_regular(n: usize, d: usize, seed: u64) -> DiGraph {
    assert!(
        d > 0 && d.is_multiple_of(2),
        "degree must be positive and even"
    );
    assert!(n > d, "need more nodes than the degree");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new(n);
    for _ in 0..d / 2 {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        for i in 0..n {
            let u = order[i];
            let v = order[(i + 1) % n];
            g.add_edge(u.into(), v.into());
        }
    }
    g
}

/// A "caveman"-style graph of `communities` cliques of size `size`, consecutive cliques
/// linked by a single edge (the last one also linked to the first when there are at
/// least three communities, forming a ring of cliques).
///
/// # Panics
///
/// Panics if `communities == 0` or `size < 2`.
pub fn caveman(communities: usize, size: usize) -> DiGraph {
    assert!(communities > 0, "need at least one community");
    assert!(size >= 2, "communities need at least two nodes");
    let n = communities * size;
    let mut g = DiGraph::new(n);
    for c in 0..communities {
        let base = c * size;
        for i in 0..size {
            for j in i + 1..size {
                g.add_edge((base + i).into(), (base + j).into());
            }
        }
    }
    for c in 0..communities.saturating_sub(1) {
        g.add_edge((c * size).into(), ((c + 1) * size).into());
    }
    if communities >= 3 {
        g.add_edge(((communities - 1) * size).into(), 0.into());
    }
    g
}

/// A forest of `k` disjoint components, each generated by `component(i)` with
/// `i ∈ 0..k`, re-labelled to disjoint identifier ranges.
///
/// Used by the connected-components experiments (Theorem 1.2).
pub fn disjoint_union(components: &[DiGraph]) -> DiGraph {
    let total: usize = components.iter().map(DiGraph::node_count).sum();
    let mut g = DiGraph::new(total);
    let mut offset = 0usize;
    for c in components {
        for (u, v) in c.edges() {
            g.add_edge((u.index() + offset).into(), (v.index() + offset).into());
        }
        offset += c.node_count();
    }
    g
}

/// A graph with planted articulation structure: `blocks` biconnected blocks (cycles of
/// length `block_len`) chained together so that consecutive blocks share exactly one cut
/// vertex.
///
/// Used by the biconnectivity experiments (Theorem 1.4): the expected biconnected
/// components are exactly the blocks, and the shared vertices are the cut nodes.
///
/// # Panics
///
/// Panics if `blocks == 0` or `block_len < 3`.
pub fn chained_cycles(blocks: usize, block_len: usize) -> DiGraph {
    assert!(blocks > 0, "need at least one block");
    assert!(block_len >= 3, "cycle blocks need at least three nodes");
    // Block i occupies nodes [i*(block_len-1), i*(block_len-1) + block_len - 1],
    // sharing its last node with the next block's first node.
    let n = blocks * (block_len - 1) + 1;
    let mut g = DiGraph::new(n);
    for b in 0..blocks {
        let base = b * (block_len - 1);
        for i in 0..block_len {
            let u = base + i;
            let v = base + (i + 1) % block_len;
            g.add_edge(u.into(), v.into());
        }
    }
    g
}

/// Two cycles of `n / 2` nodes (at least one each) joined by the single bridge edge
/// `0 → n/2`: conductance `Θ(1/n)` across one cut edge at degree ≤ 3, the nastiest
/// constant-degree input for partitions. An odd `n` rounds down to `2·(n / 2)` nodes.
pub fn two_cycles_bridged(n: usize) -> DiGraph {
    let half = (n / 2).max(1);
    let mut g = DiGraph::new(2 * half);
    for i in 0..half {
        g.add_edge(i.into(), ((i + 1) % half).into());
        g.add_edge((half + i).into(), (half + (i + 1) % half).into());
    }
    g.add_edge(0.into(), half.into());
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn line_shape() {
        let g = line(10);
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 9);
        let u = g.to_undirected();
        assert!(analysis::is_connected(&u));
        assert_eq!(analysis::diameter(&u), Some(9));
    }

    #[test]
    fn single_node_line() {
        let g = line(1);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(8);
        assert_eq!(g.edge_count(), 8);
        let u = g.to_undirected();
        assert!(u.nodes().all(|v| u.degree(v) == 2));
        assert_eq!(analysis::diameter(&u), Some(4));
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(15);
        assert_eq!(g.edge_count(), 14);
        let u = g.to_undirected();
        assert!(analysis::is_connected(&u));
        assert_eq!(analysis::diameter(&u), Some(6));
    }

    #[test]
    fn star_shape() {
        let g = star(17);
        assert_eq!(g.out_neighbors(0.into()).len(), 16);
        assert_eq!(g.degree(), 16);
        assert!(analysis::is_connected(&g.to_undirected()));
    }

    #[test]
    fn grid_shape() {
        let g = grid(4, 5);
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.edge_count(), 4 * 4 + 3 * 5);
        assert_eq!(analysis::diameter(&g.to_undirected()), Some(7));
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 32);
        let u = g.to_undirected();
        assert!(u.nodes().all(|v| u.degree(v) == 4));
        assert_eq!(analysis::diameter(&u), Some(4));
    }

    #[test]
    fn barbell_connected() {
        let g = barbell(5, 3);
        assert_eq!(g.node_count(), 13);
        assert!(analysis::is_connected(&g.to_undirected()));
    }

    #[test]
    fn erdos_renyi_bounds_and_determinism() {
        let g1 = erdos_renyi(50, 0.1, 7);
        let g2 = erdos_renyi(50, 0.1, 7);
        assert_eq!(g1, g2);
        assert!(g1.edge_count() < 50 * 49 / 2);
        let g3 = erdos_renyi(50, 0.1, 8);
        assert_ne!(g1, g3);
    }

    #[test]
    fn erdos_renyi_extremes() {
        assert_eq!(erdos_renyi(20, 0.0, 1).edge_count(), 0);
        assert_eq!(erdos_renyi(20, 1.0, 1).edge_count(), 190);
    }

    #[test]
    fn connected_random_is_connected() {
        let g = connected_random(64, 0.02, 3);
        assert!(analysis::is_connected(&g.to_undirected()));
    }

    #[test]
    fn random_regular_is_regular_and_connected() {
        let g = random_regular(40, 4, 11);
        let u = g.to_undirected();
        // Multi-edges may merge in the simple undirected view, so check the directed
        // slot counts instead: every node appears in exactly d cycle positions.
        let indeg = g.in_degrees();
        for v in g.nodes() {
            assert_eq!(g.out_neighbors(v).len() + indeg[v.index()], 4);
        }
        assert!(analysis::is_connected(&u));
    }

    #[test]
    fn caveman_structure() {
        let g = caveman(4, 5);
        assert_eq!(g.node_count(), 20);
        assert!(analysis::is_connected(&g.to_undirected()));
    }

    #[test]
    fn disjoint_union_components() {
        let parts = vec![cycle(5), line(7), binary_tree(3)];
        let g = disjoint_union(&parts);
        assert_eq!(g.node_count(), 15);
        let comps = analysis::connected_components(&g.to_undirected());
        assert_eq!(comps.component_count(), 3);
    }

    #[test]
    fn two_cycles_bridged_has_one_cut_edge() {
        let g = two_cycles_bridged(17);
        assert_eq!(g.node_count(), 16);
        let u = g.to_undirected();
        assert!(analysis::is_connected(&u));
        assert_eq!(u.edge_count(), 17);
        assert_eq!(u.max_degree(), 3);
        assert_eq!(u.degree(0.into()), 3);
        assert_eq!(u.degree(8.into()), 3);
    }

    #[test]
    fn chained_cycles_counts() {
        let g = chained_cycles(3, 4);
        assert_eq!(g.node_count(), 3 * 3 + 1);
        assert!(analysis::is_connected(&g.to_undirected()));
    }

    #[test]
    #[should_panic(expected = "at least three nodes")]
    fn tiny_cycle_panics() {
        cycle(2);
    }

    #[test]
    #[should_panic(expected = "degree must be positive and even")]
    fn odd_regular_panics() {
        random_regular(10, 3, 0);
    }
}
