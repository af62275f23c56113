//! Hybrid-model applications of time-optimal overlay construction (Section 4 of the
//! paper).
//!
//! The hybrid model combines CONGEST communication over the *local* edges of the
//! initial graph with a polylogarithmic per-node budget of *global* (overlay) messages.
//! On top of the NCC0 pipeline of `overlay-core`, this crate provides:
//!
//! * [`sparsify()`] — the degree-reduction preprocessing of Section 4.2: an
//!   Elkin–Neiman-style spanner followed by edge delegation turns a graph of arbitrary
//!   degree into a graph `H` of degree `O(log n)` with the same connected components.
//! * [`HybridComponents`] (Theorem 1.2) — a well-formed tree on every connected
//!   component.
//! * [`HybridSpanningTree`] (Theorem 1.3) — a spanning tree of the initial graph
//!   obtained by unwinding the random walks over which the overlay edges were
//!   established.
//! * [`DistributedBiconnectivity`] (Theorem 1.4) — Tarjan–Vishkin biconnected
//!   components, cut vertices and bridges.
//! * [`HybridMis`] (Theorem 1.5) — maximal independent set in `O(log d + log log n)`
//!   rounds via shattering plus parallel Métivier executions on the shattered
//!   components.
//!
//! The source module of each entry point (private; rendered by `cargo doc
//! --document-private-items`) documents which steps run as message-level protocols in
//! the simulator and which steps are executed by the harness with explicit round
//! accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]
#![warn(unreachable_pub)]

mod biconnectivity;
mod components;
mod mis;
mod spanning_tree;
mod sparsify;

pub use biconnectivity::{BiconnectivityResult, DistributedBiconnectivity};
pub use components::{ComponentsConfig, ComponentsResult, HybridComponents};
pub use mis::{HybridMis, HybridMisResult};
pub use spanning_tree::{HybridSpanningTree, SpanningTreeResult};
pub use sparsify::{sparsify, SparsifyResult};

use overlay_graph::NodeId;

/// An undirected edge as its `(smaller, larger)` endpoints.
type EdgeKey = (NodeId, NodeId);

/// The [`EdgeKey`] of the edge `{a, b}`.
fn norm(a: NodeId, b: NodeId) -> EdgeKey {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}
