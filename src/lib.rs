//! Umbrella crate of the *Time-Optimal Construction of Overlay Networks* reproduction
//! (Götte, Hinnenthal, Scheideler, Werthmann — PODC 2021).
//!
//! This crate re-exports the workspace's public API so that examples and downstream
//! users need a single dependency:
//!
//! * [`graph`] (`overlay-graph`) — graph types, generators, analysis and sequential
//!   reference algorithms,
//! * [`netsim`] (`overlay-netsim`) — the synchronous message-passing simulator with the
//!   NCC0 and hybrid capacity models,
//! * [`transport`] (`overlay-transport`) — the reliable-delivery layer (per-peer
//!   sequence numbers, acks, retransmission, duplicate suppression) that wraps any
//!   protocol so the construction survives message loss,
//! * [`core`] (`overlay-core`) — the `CreateExpander` pipeline of Theorem 1.1, with
//!   each paper phase a first-class [`Phase`](overlay_core::Phase) value and
//!   per-phase round-budget/transport overrides,
//! * [`traffic`] (`overlay-traffic`) — request workloads routed over the finished
//!   overlay: seeded workload generators, a greedy/tree router protocol, and
//!   latency/congestion reports measuring what the paper's guarantees bought,
//! * [`hybrid`] (`overlay-hybrid`) — connected components, spanning trees, biconnected
//!   components and MIS in the hybrid model (Theorems 1.2–1.5),
//! * [`net`] (`overlay-net`) — the same protocol code behind the
//!   `PhaseExecutor` seam: a one-process channel backend that owns every node
//!   and encodes nothing, and a multi-process TCP backend over real byte
//!   streams, with the simulator as the CI-checked model,
//! * [`baselines`] (`overlay-baselines`) — supernode merging, pointer jumping, flooding
//!   and Luby MIS baselines,
//! * [`scenarios`] (`overlay-scenarios`) — declarative churn/fault scenarios (message
//!   loss, delays, crash waves, join churn, partitions) and a parallel
//!   multi-seed sweep runner with JSON reports.
//!
//! # Quick start
//!
//! ```
//! use overlay_networks::core::{ExpanderParams, OverlayBuilder};
//! use overlay_networks::graph::generators;
//!
//! let g = generators::line(64);
//! let tree = OverlayBuilder::new(ExpanderParams::for_n(64))
//!     .build(&g)
//!     .unwrap()
//!     .tree;
//! assert!(tree.is_valid() && tree.max_degree() <= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use overlay_baselines as baselines;
pub use overlay_core as core;
pub use overlay_graph as graph;
pub use overlay_hybrid as hybrid;
pub use overlay_net as net;
pub use overlay_netsim as netsim;
pub use overlay_scenarios as scenarios;
pub use overlay_traffic as traffic;
pub use overlay_transport as transport;
