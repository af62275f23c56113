//! Property-based tests (proptest) over randomly generated graphs: the key invariants
//! of every pipeline must hold for arbitrary inputs, not just the hand-picked
//! topologies of the unit tests.

use overlay_networks::core::{ExpanderParams, OverlayBuilder};
use overlay_networks::graph::{analysis, generators, sequential, DiGraph, NodeId};
use overlay_networks::hybrid::{ComponentsConfig, HybridComponents, HybridMis, HybridSpanningTree};
use proptest::prelude::*;

/// A random weakly connected constant-degree graph: a Hamiltonian path over a random
/// permutation plus a few random extra edges (kept sparse so the degree stays small).
fn connected_sparse_graph(n: usize, extra: &[(usize, usize)]) -> DiGraph {
    let mut g = generators::line(n);
    for &(a, b) in extra {
        let (a, b) = (a % n, b % n);
        if a != b {
            let u = g.to_undirected();
            // Keep the degree at most 4 so the NCC0 pipeline accepts the graph.
            if u.degree(NodeId::from(a)) < 4 && u.degree(NodeId::from(b)) < 4 {
                g.add_edge(NodeId::from(a), NodeId::from(b));
            }
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        .. ProptestConfig::default()
    })]

    #[test]
    fn overlay_builder_always_yields_valid_well_formed_trees(
        n in 24usize..96,
        extra in proptest::collection::vec((0usize..1000, 0usize..1000), 0..12),
        seed in 0u64..1000,
    ) {
        let g = connected_sparse_graph(n, &extra);
        let params = ExpanderParams::for_n(n).with_seed(seed);
        let result = OverlayBuilder::new(params).build(&g).expect("pipeline succeeds");
        let tree = result.tree;
        prop_assert!(tree.is_valid());
        prop_assert_eq!(tree.node_count(), n);
        prop_assert!(tree.max_degree() <= 4);
        // The expander stays connected and regular.
        let expander = result.expander;
        prop_assert!(expander.is_regular(params.delta));
        prop_assert!(analysis::is_connected(&expander.simplify()));
        // No message was ever dropped.
        prop_assert_eq!(result.messages.dropped_receive, 0);
        prop_assert_eq!(result.messages.dropped_send, 0);
    }

    #[test]
    fn components_match_union_find_on_random_forests(
        sizes in proptest::collection::vec(2usize..40, 1..5),
        seed in 0u64..1000,
    ) {
        let parts: Vec<DiGraph> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| generators::connected_random(s, 0.1, seed + i as u64))
            .collect();
        let g = generators::disjoint_union(&parts);
        let result = HybridComponents::new(ComponentsConfig { seed, walk_len: 12 })
            .run(&g)
            .expect("components succeed");
        let truth = analysis::connected_components(&g.to_undirected());
        prop_assert_eq!(result.component_count(), truth.component_count());
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(result.same_component(u, v), truth.same_component(u, v));
            }
        }
    }

    #[test]
    fn spanning_tree_is_always_a_spanning_tree(
        n in 16usize..80,
        p in 0.03f64..0.2,
        seed in 0u64..1000,
    ) {
        let g = generators::connected_random(n, p, seed);
        let result = HybridSpanningTree { seed, walk_len: 12 }.run(&g).expect("succeeds");
        prop_assert!(analysis::is_spanning_tree(&g.to_undirected(), &result.parent));
    }

    #[test]
    fn mis_is_always_maximal_and_independent(
        n in 16usize..120,
        p in 0.02f64..0.15,
        seed in 0u64..1000,
    ) {
        let g = generators::connected_random(n, p, seed);
        let result = HybridMis { seed }.run(&g);
        prop_assert!(sequential::is_maximal_independent_set(&g.to_undirected(), &result.mis));
    }

    #[test]
    fn simulator_never_exceeds_capacity(
        n in 16usize..64,
        seed in 0u64..1000,
    ) {
        // Whatever the topology, the NCC0 caps are hard limits on delivered traffic.
        let g = generators::cycle(n);
        let params = ExpanderParams::for_n(n).with_seed(seed);
        let result = OverlayBuilder::new(params).build(&g).expect("pipeline succeeds");
        prop_assert!(result.messages.max_per_node_per_round <= params.ncc0_cap);
    }
}
