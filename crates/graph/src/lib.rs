//! Graph substrate for the *Time-Optimal Construction of Overlay Networks* reproduction.
//!
//! This crate provides everything the distributed algorithms and the experiment harness
//! need to talk about graphs:
//!
//! * [`NodeId`] — the opaque identifier type used throughout the workspace,
//! * [`DiGraph`] — the directed *knowledge graph* of the paper's model (an edge `(u, v)`
//!   means `u` knows `id(v)`),
//! * [`UGraph`] — an undirected multigraph with explicit self-loops, used for the
//!   *benign* communication graphs maintained by `CreateExpander`,
//! * [`generators`] — workload generators (lines, cycles, trees, random regular graphs,
//!   Erdős–Rényi graphs, grids, barbells, …) used as the initial topologies of every
//!   experiment,
//! * [`analysis`] — BFS, diameter, connected components, spanning-tree checks,
//! * [`conductance_estimate`] and [`min_cut`] — a sweep-cut conductance estimate over a
//!   power-iteration Fiedler embedding of the lazy random walk, and the global minimum
//!   cut (Stoer–Wagner),
//! * [`sequential`] — centralized reference algorithms (union-find components, Tarjan
//!   biconnectivity, BFS spanning trees and a maximal-independent-set checker) that the
//!   distributed implementations are verified against.
//!
//! # Example
//!
//! ```
//! use overlay_graph::{generators, analysis};
//!
//! let g = generators::cycle(64);
//! assert!(analysis::is_connected(&g.to_undirected()));
//! assert_eq!(analysis::diameter(&g.to_undirected()), Some(32));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]
#![warn(unreachable_pub)]

// Imported by this path in `benchmark/`, the root crate's tests and examples,
// and in baselines, bench, core, hybrid, scenarios and traffic.
pub mod analysis;
mod cuts;
// Imported by this path in `benchmark/`, the root crate, its tests and
// examples, and in baselines, bench, core, hybrid, net, scenarios and traffic.
pub mod generators;
mod graph;
mod ids;
// Already a facade (private submodules behind `pub use`), called by path workspace-wide.
pub mod sequential;
mod spectral;
mod ugraph;

pub use cuts::{conductance_estimate, min_cut};
pub use graph::DiGraph;
pub use ids::NodeId;
pub use ugraph::UGraph;
