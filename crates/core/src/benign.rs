//! Benign graphs: the invariant maintained by every evolution (Definition 2.1).
//!
//! A graph is *benign* for parameters `(Δ, Λ)` if it is Δ-regular (self-loops allowed),
//! *lazy* (every node has at least Δ/2 self-loops), and every cut has at least Λ edges.
//! [`make_benign`] performs the paper's preprocessing that turns an arbitrary
//! constant-degree weakly connected graph into a benign graph. Experiment E4
//! tracks the invariant across evolutions through
//! [`EvolutionStats`](crate::EvolutionStats): regularity and laziness after
//! every evolution, the exact minimum cut when it is asked for.

use crate::{ExpanderParams, OverlayError};
use overlay_graph::{DiGraph, UGraph};

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

    fn is_lazy(g: &UGraph, params: &ExpanderParams) -> bool {
        g.nodes().all(|v| g.self_loops(v) >= params.delta / 2)
    }

    #[test]
    fn make_benign_produces_benign_graph() {
        let params = small_params();
        let g = generators::line(64);
        let benign = make_benign(&g, &params).unwrap();
        assert!(
            benign.is_regular(params.delta),
            "graph must be delta-regular"
        );
        assert!(is_lazy(&benign, &params), "graph must be lazy");
        assert_eq!(overlay_graph::min_cut(&benign), params.lambda);
    }

    #[test]
    fn make_benign_on_cycle_has_larger_cut() {
        let params = small_params();
        let benign = make_benign(&generators::cycle(32), &params).unwrap();
        assert!(benign.is_regular(params.delta) && is_lazy(&benign, &params));
        assert_eq!(overlay_graph::min_cut(&benign), 2 * params.lambda);
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
    fn isolated_nodes_become_all_loops() {
        let params = small_params();
        let g = DiGraph::new(3);
        let benign = make_benign(&g, &params).unwrap();
        for v in benign.nodes() {
            assert_eq!(benign.self_loops(v), params.delta);
        }
    }
}
