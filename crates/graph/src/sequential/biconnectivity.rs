//! Tarjan's sequential biconnectivity algorithm (articulation points, bridges, and
//! biconnected components), used as the ground truth for the distributed
//! Tarjan–Vishkin implementation of Theorem 1.4.

use crate::{NodeId, UGraph};
use std::collections::BTreeSet;

/// The result of a biconnectivity analysis.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BiconnectivityInfo {
    /// Articulation points (cut vertices): removing one increases the number of
    /// connected components.
    pub cut_vertices: BTreeSet<NodeId>,
    /// Bridge edges (cut edges), each reported with the smaller endpoint first.
    pub bridges: BTreeSet<(NodeId, NodeId)>,
    /// Biconnected components, each given as the set of (undirected, deduplicated)
    /// edges it contains; edges are reported with the smaller endpoint first.
    pub components: Vec<BTreeSet<(NodeId, NodeId)>>,
}

fn normalize(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

/// Computes the biconnected components, cut vertices, and bridges of the (simple
/// undirected view of the) graph using Tarjan's DFS low-link algorithm, implemented
/// iteratively so that large graphs do not overflow the stack.
pub fn biconnected_components(g: &UGraph) -> BiconnectivityInfo {
    let simple = g.simplify();
    let n = simple.node_count();
    let mut info = BiconnectivityInfo::default();

    let mut disc = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut parent = vec![usize::MAX; n];
    let mut timer = 0usize;
    let mut edge_stack: Vec<(NodeId, NodeId)> = Vec::new();
    // Track child counts of DFS roots for the articulation-point rule.
    let mut root_children = vec![0usize; n];

    for start in 0..n {
        if disc[start] != usize::MAX {
            continue;
        }
        // Iterative DFS: each frame is (node, next neighbor index to process).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        disc[start] = timer;
        low[start] = timer;
        timer += 1;

        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            let neighbors = simple.neighbors(NodeId::from(v));
            if *next < neighbors.len() {
                let w = neighbors[*next].index();
                *next += 1;
                if disc[w] == usize::MAX {
                    parent[w] = v;
                    if v == start {
                        root_children[start] += 1;
                    }
                    edge_stack.push((NodeId::from(v), NodeId::from(w)));
                    disc[w] = timer;
                    low[w] = timer;
                    timer += 1;
                    stack.push((w, 0));
                } else if w != parent[v] && disc[w] < disc[v] {
                    // Back edge.
                    edge_stack.push((NodeId::from(v), NodeId::from(w)));
                    low[v] = low[v].min(disc[w]);
                }
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    low[p] = low[p].min(low[v]);
                    if low[v] >= disc[p] {
                        // p is an articulation point (unless it is a root, handled
                        // below); pop the component's edges.
                        if parent[p] != usize::MAX || root_children[p] >= 2 {
                            info.cut_vertices.insert(NodeId::from(p));
                        }
                        let mut component = BTreeSet::new();
                        while let Some(&(a, b)) = edge_stack.last() {
                            let between =
                                disc[a.index()] >= disc[v] || (a.index() == p && b.index() == v);
                            if !between {
                                break;
                            }
                            edge_stack.pop();
                            component.insert(normalize(a, b));
                        }
                        if !component.is_empty() {
                            info.components.push(component);
                        }
                    }
                    if low[v] > disc[p] {
                        info.bridges
                            .insert(normalize(NodeId::from(p), NodeId::from(v)));
                    }
                }
            }
        }
        // Any leftover edges on the stack form one final component of this DFS tree.
        if !edge_stack.is_empty() {
            let component: BTreeSet<(NodeId, NodeId)> =
                edge_stack.drain(..).map(|(a, b)| normalize(a, b)).collect();
            info.components.push(component);
        }
    }

    // Root articulation rule for roots whose components were all flushed in the loop.
    for v in 0..n {
        if parent[v] == usize::MAX && root_children[v] >= 2 {
            info.cut_vertices.insert(NodeId::from(v));
        }
    }

    info
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn cycle_is_biconnected() {
        let g = generators::cycle(8).to_undirected();
        let info = biconnected_components(&g);
        assert!(info.cut_vertices.is_empty());
        assert!(info.bridges.is_empty());
        assert_eq!(info.components.len(), 1);
        assert_eq!(info.components[0].len(), 8);
    }

    #[test]
    fn line_edges_are_all_bridges() {
        let g = generators::line(6).to_undirected();
        let info = biconnected_components(&g);
        assert_eq!(info.bridges.len(), 5);
        assert_eq!(info.components.len(), 5);
        // Interior nodes are cut vertices.
        assert_eq!(info.cut_vertices.len(), 4);
    }

    #[test]
    fn chained_cycles_have_expected_structure() {
        let g = generators::chained_cycles(3, 5).to_undirected();
        let info = biconnected_components(&g);
        assert_eq!(info.components.len(), 3);
        assert_eq!(info.cut_vertices.len(), 2);
        assert!(info.bridges.is_empty());
        for c in &info.components {
            assert_eq!(c.len(), 5);
        }
    }

    #[test]
    fn star_center_is_the_only_cut_vertex() {
        let g = generators::star(6).to_undirected();
        let info = biconnected_components(&g);
        assert_eq!(
            info.cut_vertices.iter().copied().collect::<Vec<_>>(),
            vec![NodeId::from(0usize)]
        );
        assert_eq!(info.bridges.len(), 5);
        assert_eq!(info.components.len(), 5);
    }

    #[test]
    fn figure_one_example() {
        // The paper's Figure 1 pattern: a triangle u-v-w plus a pendant edge. The
        // triangle is one biconnected component and the pendant edge another; the
        // shared vertex is a cut vertex.
        let mut g = UGraph::new(4);
        g.add_edge(0.into(), 1.into()); // u - v
        g.add_edge(1.into(), 2.into()); // v - w
        g.add_edge(0.into(), 2.into()); // u - w
        g.add_edge(2.into(), 3.into()); // w - x (pendant)
        let info = biconnected_components(&g);
        assert_eq!(info.components.len(), 2);
        assert_eq!(
            info.cut_vertices.iter().copied().collect::<Vec<_>>(),
            vec![NodeId::from(2usize)]
        );
        assert_eq!(info.bridges.len(), 1);
    }

    #[test]
    fn disconnected_graph_components_are_per_part() {
        let g = generators::disjoint_union(&[generators::cycle(4), generators::cycle(3)])
            .to_undirected();
        let info = biconnected_components(&g);
        assert_eq!(info.components.len(), 2);
        assert!(info.cut_vertices.is_empty());
    }

    #[test]
    fn two_triangles_sharing_a_vertex() {
        let mut g = UGraph::new(5);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 2.into());
        g.add_edge(2.into(), 0.into());
        g.add_edge(2.into(), 3.into());
        g.add_edge(3.into(), 4.into());
        g.add_edge(4.into(), 2.into());
        let info = biconnected_components(&g);
        assert_eq!(info.components.len(), 2);
        assert_eq!(
            info.cut_vertices.iter().copied().collect::<Vec<_>>(),
            vec![NodeId::from(2usize)]
        );
        assert!(info.bridges.is_empty());
    }

    #[test]
    fn parallel_edges_do_not_create_bridges() {
        let mut g = UGraph::new(2);
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 1.into());
        // The simple view has a single edge 0-1, which is a bridge of the simple graph.
        let info = biconnected_components(&g);
        assert_eq!(info.components.len(), 1);
        assert_eq!(info.bridges.len(), 1);
    }
}
