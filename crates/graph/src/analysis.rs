//! Centralized graph analysis: BFS, diameter, connected components and
//! spanning-tree checks.
//!
//! These routines run on the *global* view of a graph and are used by the experiment
//! harness to verify the outputs of the distributed algorithms (which themselves only
//! ever use local knowledge).

use crate::{NodeId, UGraph};
use std::collections::VecDeque;

/// Breadth-first search distances from `source`.
///
/// Returns a vector of `Option<usize>`: `None` for unreachable nodes.
pub fn bfs_distances(g: &UGraph, source: NodeId) -> Vec<Option<usize>> {
    let n = g.node_count();
    let mut dist = vec![None; n];
    if source.index() >= n {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued nodes have distances");
        for &v in g.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// The eccentricity of `source`: the largest finite BFS distance from it.
pub(crate) fn eccentricity(g: &UGraph, source: NodeId) -> usize {
    bfs_distances(g, source)
        .into_iter()
        .flatten()
        .max()
        .unwrap_or(0)
}

/// The diameter of the graph (maximum shortest-path distance over all pairs), ignoring
/// edge directions. Returns `None` for disconnected graphs.
///
/// Runs one BFS per node, which is fine for the graph sizes used in experiments.
pub fn diameter(g: &UGraph) -> Option<usize> {
    if g.node_count() == 0 {
        return Some(0);
    }
    if !is_connected(g) {
        return None;
    }
    let mut best = 0usize;
    for v in g.nodes() {
        best = best.max(eccentricity(g, v));
    }
    Some(best)
}

/// Returns `true` if the graph is connected (ignoring edge directions); the empty graph
/// and single nodes count as connected.
pub fn is_connected(g: &UGraph) -> bool {
    let n = g.node_count();
    if n <= 1 {
        return true;
    }
    bfs_distances(g, NodeId::from(0usize))
        .iter()
        .all(Option::is_some)
}

/// The partition of nodes into connected components.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    labels: Vec<usize>,
    count: usize,
}

impl Components {
    /// The component label (`0..component_count()`) of each node.
    #[cfg(test)]
    pub(crate) fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The component label of a single node.
    pub fn label(&self, v: NodeId) -> usize {
        self.labels[v.index()]
    }

    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        self.count
    }

    /// Returns `true` if `u` and `v` lie in the same component.
    pub fn same_component(&self, u: NodeId, v: NodeId) -> bool {
        self.labels[u.index()] == self.labels[v.index()]
    }

    /// The members of every component.
    pub fn members(&self) -> Vec<Vec<NodeId>> {
        let mut groups = vec![Vec::new(); self.count];
        for (i, &label) in self.labels.iter().enumerate() {
            groups[label].push(NodeId::from(i));
        }
        groups
    }
}

/// Computes connected components by repeated BFS.
pub fn connected_components(g: &UGraph) -> Components {
    let n = g.node_count();
    let mut labels = vec![usize::MAX; n];
    let mut count = 0usize;
    for s in 0..n {
        if labels[s] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        labels[s] = count;
        queue.push_back(NodeId::from(s));
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if labels[v.index()] == usize::MAX {
                    labels[v.index()] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    Components { labels, count }
}

/// Checks whether `parent` encodes a spanning tree of the (undirected) graph `g`:
/// exactly one root (its own parent), every non-root's parent edge exists in `g`, and
/// following parents from every node reaches the root (no cycles).
pub fn is_spanning_tree(g: &UGraph, parent: &[NodeId]) -> bool {
    let n = g.node_count();
    if parent.len() != n {
        return false;
    }
    let roots: Vec<usize> = (0..n).filter(|&v| parent[v].index() == v).collect();
    if n > 0 && roots.len() != 1 {
        return false;
    }
    // Every parent edge must exist in g.
    for (v, &p) in parent.iter().enumerate() {
        if p.index() == v {
            continue;
        }
        if !g.neighbors(NodeId::from(v)).contains(&p) {
            return false;
        }
    }
    // Following parent pointers must terminate at the root within n steps.
    for v in 0..n {
        let mut cur = v;
        let mut steps = 0usize;
        while parent[cur].index() != cur {
            cur = parent[cur].index();
            steps += 1;
            if steps > n {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_line() {
        let g = generators::line(5).to_undirected();
        let d = bfs_distances(&g, NodeId::from(0usize));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = UGraph::new(3);
        let d = bfs_distances(&g, NodeId::from(0usize));
        assert_eq!(d, vec![Some(0), None, None]);
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter(&generators::line(8).to_undirected()), Some(7));
        assert_eq!(diameter(&generators::cycle(9).to_undirected()), Some(4));
        assert_eq!(diameter(&generators::star(10).to_undirected()), Some(2));
        assert_eq!(diameter(&UGraph::new(0)), Some(0));
    }

    #[test]
    fn diameter_disconnected_is_none() {
        let g = UGraph::new(4);
        assert_eq!(diameter(&g), None);
        assert!(!is_connected(&g));
    }

    #[test]
    fn components_of_forest() {
        let g = generators::disjoint_union(&[generators::line(4), generators::cycle(3)]);
        let comps = connected_components(&g.to_undirected());
        assert_eq!(comps.component_count(), 2);
        assert!(comps.same_component(0.into(), 3.into()));
        assert!(!comps.same_component(0.into(), 4.into()));
        assert_eq!(comps.members()[0].len(), 4);
        assert_eq!(comps.members()[1].len(), 3);
    }

    #[test]
    fn components_ignore_loops_multiplicity_and_slot_order() {
        // Three components {0, 3, 5}, {1, 4}, {2}, with loops, parallel edges
        // and slots listed against id order: the labels depend on the
        // partition and the ascending scan over start nodes only.
        let mut g = UGraph::new(6);
        for (u, v) in [
            (5, 3),
            (5, 0),
            (3, 5),
            (4, 1),
            (4, 1),
            (2, 2),
            (0, 0),
            (4, 4),
        ] {
            g.add_edge(NodeId::new(u), NodeId::new(v));
        }
        let comps = connected_components(&g);
        assert_eq!(comps, connected_components(&g.simplify()));
        assert_eq!(comps.labels(), [0, 1, 2, 0, 1, 0]);
    }

    #[test]
    fn spanning_tree_checker_accepts_valid_tree() {
        let g = generators::cycle(6).to_undirected();
        // Parent pointers along the cycle rooted at 0.
        let parent: Vec<NodeId> = (0..6)
            .map(|v| if v == 0 { 0.into() } else { (v - 1).into() })
            .collect();
        assert!(is_spanning_tree(&g, &parent));
    }

    #[test]
    fn spanning_tree_checker_rejects_cycle_and_bad_edges() {
        let g = generators::line(4).to_undirected();
        // Cycle between 1 and 2.
        let bad: Vec<NodeId> = vec![0.into(), 2.into(), 1.into(), 2.into()];
        assert!(!is_spanning_tree(&g, &bad));
        // Parent edge not present in g (0-3 is not an edge of the line).
        let missing: Vec<NodeId> = vec![0.into(), 0.into(), 1.into(), 0.into()];
        assert!(!is_spanning_tree(&g, &missing));
        // Two roots.
        let two_roots: Vec<NodeId> = vec![0.into(), 1.into(), 1.into(), 2.into()];
        assert!(!is_spanning_tree(&g, &two_roots));
    }
}
