//! The validity checker for maximal independent sets.

use crate::{NodeId, UGraph};

/// Checks whether `set` is a maximal independent set of `g`:
/// 1. no two members are adjacent (independence), and
/// 2. every non-member has a member neighbor (maximality).
///
/// Self-loops are ignored (a node is never considered its own neighbor).
pub fn is_maximal_independent_set(g: &UGraph, set: &[NodeId]) -> bool {
    let n = g.node_count();
    let mut in_set = vec![false; n];
    for &v in set {
        if v.index() >= n {
            return false;
        }
        in_set[v.index()] = true;
    }
    // Independence.
    for &v in set {
        for &w in g.neighbors(v) {
            if w != v && in_set[w.index()] {
                return false;
            }
        }
    }
    // Maximality.
    for v in 0..n {
        if in_set[v] {
            continue;
        }
        let covered = g
            .neighbors(NodeId::from(v))
            .iter()
            .any(|&w| w.index() != v && in_set[w.index()]);
        if !covered {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn checker_rejects_non_independent_sets() {
        let u = generators::line(4).to_undirected();
        assert!(!is_maximal_independent_set(
            &u,
            &[NodeId::from(0usize), NodeId::from(1usize)]
        ));
    }

    #[test]
    fn checker_rejects_non_maximal_sets() {
        let u = generators::line(5).to_undirected();
        // {0} leaves nodes 2..4 uncovered.
        assert!(!is_maximal_independent_set(&u, &[NodeId::from(0usize)]));
    }

    #[test]
    fn checker_accepts_valid_set_on_empty_graph() {
        let u = UGraph::new(3);
        // Every node is isolated, so the MIS must contain all of them.
        assert!(is_maximal_independent_set(
            &u,
            &[0.into(), 1.into(), 2.into()]
        ));
        assert!(!is_maximal_independent_set(&u, &[0.into(), 1.into()]));
    }
}
