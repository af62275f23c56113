//! Sequential BFS spanning trees.

use crate::{NodeId, UGraph};
use std::collections::VecDeque;

/// Computes a BFS tree rooted at `root`, returned as a parent vector (the root points to
/// itself; unreachable nodes also point to themselves and are reported separately).
///
/// Returns `(parent, unreachable)`.
pub fn bfs_tree(g: &UGraph, root: NodeId) -> (Vec<NodeId>, Vec<NodeId>) {
    let n = g.node_count();
    let mut parent: Vec<NodeId> = (0..n).map(NodeId::from).collect();
    let mut visited = vec![false; n];
    if root.index() < n {
        visited[root.index()] = true;
        let mut queue = VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    parent[v.index()] = u;
                    queue.push_back(v);
                }
            }
        }
    }
    let unreachable = (0..n).filter(|&v| !visited[v]).map(NodeId::from).collect();
    (parent, unreachable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analysis, generators};

    #[test]
    fn bfs_tree_is_spanning_tree() {
        let g = generators::connected_random(50, 0.05, 9).to_undirected();
        let (parent, unreachable) = bfs_tree(&g, 0.into());
        assert!(unreachable.is_empty());
        assert!(analysis::is_spanning_tree(&g, &parent));
    }

    #[test]
    fn bfs_tree_reports_unreachable() {
        let g = UGraph::new(3);
        let (_, unreachable) = bfs_tree(&g, 0.into());
        assert_eq!(unreachable.len(), 2);
    }
}
