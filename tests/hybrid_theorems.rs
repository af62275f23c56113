//! Cross-crate integration tests for the hybrid-model applications (Theorems 1.2–1.5),
//! each verified against the sequential reference algorithms.

use overlay_networks::graph::{analysis, generators, sequential, DiGraph};
use overlay_networks::hybrid::{
    ComponentsConfig, DistributedBiconnectivity, HybridComponents, HybridMis, HybridSpanningTree,
};

#[test]
fn theorem_1_2_components_on_a_mixed_forest() {
    let g = generators::disjoint_union(&[
        generators::star(150),
        generators::grid(10, 10),
        generators::cycle(30),
        generators::line(1),
        generators::caveman(3, 6),
    ]);
    let result = HybridComponents::new(ComponentsConfig {
        seed: 5,
        ..ComponentsConfig::default()
    })
    .run(&g)
    .expect("components succeed");
    let truth = analysis::connected_components(&g.to_undirected());
    assert_eq!(result.component_count(), truth.component_count());
    for u in g.nodes() {
        for v in g.nodes() {
            assert_eq!(result.same_component(u, v), truth.same_component(u, v));
        }
    }
    for tree in &result.trees {
        assert!(tree.is_valid());
        assert!(tree.max_degree() <= 4);
    }
}

#[test]
fn theorem_1_3_spanning_trees_match_the_graph() {
    for (seed, g) in [
        (1u64, generators::star(120)),
        (2, generators::grid(9, 9)),
        (3, generators::connected_random(100, 0.08, 17)),
        (4, generators::caveman(5, 8)),
    ] {
        let result = HybridSpanningTree { seed, walk_len: 12 }
            .run(&g)
            .expect("spanning tree succeeds");
        assert!(
            analysis::is_spanning_tree(&g.to_undirected(), &result.parent),
            "seed {seed}: spanning tree invalid"
        );
    }
}

#[test]
fn theorem_1_4_biconnectivity_matches_tarjan() {
    let graphs: Vec<DiGraph> = vec![
        generators::chained_cycles(5, 5),
        generators::barbell(6, 2),
        generators::connected_random(48, 0.07, 23),
        generators::grid(6, 5),
    ];
    for (i, g) in graphs.iter().enumerate() {
        let ours = DistributedBiconnectivity {
            seed: 40 + i as u64,
        }
        .run(g)
        .expect("biconnectivity succeeds");
        let truth = sequential::biconnected_components(&g.to_undirected());
        assert_eq!(
            ours.cut_vertices, truth.cut_vertices,
            "graph {i}: cut vertices"
        );
        assert_eq!(ours.bridges, truth.bridges, "graph {i}: bridges");
        let mut a = ours.components.clone();
        let mut b = truth.components.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "graph {i}: components");
        // Biconnected: connected, no cut vertex, at most one component.
        let u = g.to_undirected();
        let biconnected = analysis::is_connected(&u)
            && truth.cut_vertices.is_empty()
            && truth.components.len() <= 1;
        assert_eq!(ours.biconnected, biconnected, "graph {i}: biconnected");
    }
}

#[test]
fn theorem_1_5_mis_is_valid_and_fast() {
    for (seed, g) in [
        (1u64, generators::random_regular(200, 8, 31)),
        (2, generators::star(150)),
        (3, generators::grid(12, 12)),
        (4, generators::connected_random(180, 0.04, 37)),
    ] {
        let result = HybridMis { seed }.run(&g);
        assert!(
            sequential::is_maximal_independent_set(&g.to_undirected(), &result.mis),
            "seed {seed}: MIS invalid"
        );
        // The round bound is O(log d + log log n) — generous absolute cap for these sizes.
        assert!(
            result.total_rounds() <= 120,
            "seed {seed}: {} rounds look too large",
            result.total_rounds()
        );
    }
}

#[test]
fn full_stack_on_one_network() {
    // One network pushed through every theorem in sequence.
    let g = generators::caveman(4, 10);
    let components = HybridComponents::new(ComponentsConfig::default())
        .run(&g)
        .unwrap();
    assert_eq!(components.component_count(), 1);
    let tree = HybridSpanningTree::default().run(&g).unwrap();
    assert!(analysis::is_spanning_tree(&g.to_undirected(), &tree.parent));
    let bicc = DistributedBiconnectivity::default().run(&g).unwrap();
    let truth = sequential::biconnected_components(&g.to_undirected());
    assert_eq!(bicc.cut_vertices, truth.cut_vertices);
    let mis = HybridMis::default().run(&g);
    assert!(sequential::is_maximal_independent_set(
        &g.to_undirected(),
        &mis.mis
    ));
}
