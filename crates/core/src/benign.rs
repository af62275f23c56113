//! Benign graphs: the invariant maintained by every evolution (Definition 2.1).
//!
//! A graph is *benign* for parameters `(Δ, Λ)` if it is Δ-regular (self-loops allowed),
//! *lazy* (every node has at least Δ/2 self-loops), and every cut has at least Λ edges.
//! [`make_benign`] performs the paper's preprocessing that turns an arbitrary
//! constant-degree weakly connected graph into a benign graph, and [`BenignReport`]
//! checks the invariant, which experiment E4 tracks across evolutions.

use crate::{ExpanderParams, OverlayError};
use overlay_graph::{DiGraph, UGraph};

/// The result of checking the benign invariant on a graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BenignReport {
    /// Whether every node has exactly degree Δ.
    pub regular: bool,
    /// Whether every node has at least Δ/2 self-loops.
    pub lazy: bool,
    /// The global minimum cut (ignoring self-loops), if it was computed.
    pub min_cut: Option<usize>,
    /// Whether the minimum cut is at least Λ (only meaningful if `min_cut` is `Some`).
    pub cut_ok: bool,
}

/// Checks the benign invariant of `g` for the given parameters.
///
/// Computing the exact minimum cut is cubic in the number of nodes, so it is only done
/// when `check_cut` is `true` (experiments enable it for moderate sizes; the other two
/// properties are always checked).
pub fn check_benign(g: &UGraph, params: &ExpanderParams, check_cut: bool) -> BenignReport {
    let delta = params.delta;
    let regular = g.is_regular(delta);
    let lazy = g.nodes().all(|v| g.self_loops(v) >= delta / 2);
    let (min_cut, cut_ok) = if check_cut {
        let c = overlay_graph::min_cut(g);
        (Some(c), c >= params.lambda)
    } else {
        (None, true)
    };
    BenignReport {
        regular,
        lazy,
        min_cut,
        cut_ok,
    }
}

/// The paper's `MakeBenign` preprocessing (Section 2.1): make the knowledge graph
/// bidirected, copy every undirected edge Λ times, then add self-loops until every node
/// has degree exactly Δ.
///
/// # Errors
///
/// * [`OverlayError::EmptyGraph`] if the graph has no nodes.
/// * [`OverlayError::DegreeTooLarge`] if some node's undirected degree `d` violates
///   `d·Λ ≤ Δ` (the NCC0 pipeline requires constant initial degree; use the hybrid
///   pipeline otherwise).
pub fn make_benign(g: &DiGraph, params: &ExpanderParams) -> Result<UGraph, OverlayError> {
    if g.node_count() == 0 {
        return Err(OverlayError::EmptyGraph);
    }
    let undirected = g.to_undirected();
    check_degree(&undirected, params)?;
    let mut benign = UGraph::with_slot_capacity(g.node_count(), params.delta);
    for (u, v) in undirected.edges() {
        for _ in 0..params.lambda {
            benign.add_edge(u, v);
        }
    }
    benign.pad_self_loops(params.delta);
    Ok(benign)
}

/// The degree precondition of [`make_benign`] on the bidirected knowledge
/// graph: the Λ copies of a node's `d` edges must leave room for Δ/2
/// self-loops (laziness), `2·d·Λ ≤ Δ`.
pub(crate) fn check_degree(
    undirected: &UGraph,
    params: &ExpanderParams,
) -> Result<(), OverlayError> {
    let max_degree = undirected.max_degree();
    if 2 * max_degree * params.lambda > params.delta {
        return Err(OverlayError::DegreeTooLarge {
            degree: max_degree,
            supported: params.max_initial_degree(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_graph::generators;

    fn small_params() -> ExpanderParams {
        let mut p = ExpanderParams::for_n(64);
        p.lambda = 4;
        p.delta = 32;
        p
    }

    #[test]
    fn make_benign_produces_benign_graph() {
        let params = small_params();
        let g = generators::line(64);
        let benign = make_benign(&g, &params).unwrap();
        let report = check_benign(&benign, &params, true);
        assert!(report.regular, "graph must be delta-regular");
        assert!(report.lazy, "graph must be lazy");
        assert!(report.cut_ok, "cut must be at least lambda");
        assert_eq!(report.min_cut, Some(4));
    }

    #[test]
    fn make_benign_on_cycle_has_larger_cut() {
        let params = small_params();
        let benign = make_benign(&generators::cycle(32), &params).unwrap();
        let report = check_benign(&benign, &params, true);
        assert!(report.regular && report.lazy && report.cut_ok);
        assert_eq!(report.min_cut, Some(8));
    }

    #[test]
    fn make_benign_rejects_high_degree() {
        let params = small_params();
        let g = generators::star(64); // center has degree 63
        match make_benign(&g, &params) {
            Err(OverlayError::DegreeTooLarge { degree, supported }) => {
                assert_eq!(degree, 63);
                assert_eq!(supported, 4);
            }
            other => panic!("expected DegreeTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn make_benign_rejects_empty_graph() {
        let params = small_params();
        assert_eq!(
            make_benign(&DiGraph::new(0), &params),
            Err(OverlayError::EmptyGraph)
        );
    }

    #[test]
    fn check_benign_detects_violations() {
        let params = small_params();
        // Regular and lazy but cut of size 1: two dense blobs joined by one edge.
        let mut g = UGraph::new(2);
        g.add_edge(0.into(), 1.into());
        g.pad_self_loops(params.delta);
        let report = check_benign(&g, &params, true);
        assert!(report.regular);
        assert!(report.lazy);
        assert!(!report.cut_ok);

        // Not regular.
        let mut h = UGraph::new(2);
        h.add_edge(0.into(), 1.into());
        let report = check_benign(&h, &params, false);
        assert!(!report.regular);
    }

    #[test]
    fn isolated_nodes_become_all_loops() {
        let params = small_params();
        let g = DiGraph::new(3);
        let benign = make_benign(&g, &params).unwrap();
        for v in benign.nodes() {
            assert_eq!(benign.self_loops(v), params.delta);
        }
    }
}
