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
//! * [`cuts`] — conductance (exact for small graphs, sweep/spectral estimates otherwise)
//!   and global minimum cuts (Stoer–Wagner),
//! * [`spectral`] — the lazy random walk and a power-iteration Fiedler embedding,
//! * [`sequential`] — centralized reference algorithms (union-find components, Tarjan
//!   biconnectivity, Kruskal spanning trees, greedy MIS and validity checkers) that the
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

pub mod analysis;
pub mod cuts;
pub mod generators;
pub mod graph;
mod ids;
pub mod sequential;
pub mod spectral;
pub mod ugraph;

pub use graph::DiGraph;
pub use ids::NodeId;
pub use ugraph::UGraph;
