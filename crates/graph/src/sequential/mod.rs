//! Centralized reference algorithms.
//!
//! The distributed algorithms in the workspace are validated against these: union-find
//! connected components, Tarjan's biconnectivity (articulation points, bridges,
//! biconnected components), BFS spanning trees, and a maximal-independent-set checker.

mod biconnectivity;
mod mis;
mod spanning_tree;
mod union_find;

pub use biconnectivity::{biconnected_components, BiconnectivityInfo};
pub use mis::is_maximal_independent_set;
pub use spanning_tree::bfs_tree;
pub use union_find::UnionFind;
