//! Time-optimal construction of overlay networks (Götte, Hinnenthal, Scheideler,
//! Werthmann — PODC 2021), NCC0 model.
//!
//! Starting from an arbitrary weakly connected knowledge graph of constant degree, the
//! pipeline in this crate constructs a **well-formed tree** — a rooted tree of constant
//! degree and `O(log n)` diameter containing every node — in `O(log n)` synchronous
//! rounds with every node sending and receiving only `O(log n)` messages per round.
//!
//! The construction follows the paper:
//!
//! 1. [`make_benign`] turns the initial graph into a *benign* graph
//!    (Δ-regular, lazy, Λ-sized minimum cut) by copying edges and adding self-loops.
//! 2. [`ExpanderNode`] runs `L = O(log n)` *evolutions*: each node starts Δ/8
//!    random-walk tokens of constant length ℓ and rewires to the endpoints, which
//!    multiplies the conductance by `Ω(√ℓ)` per evolution (Kwok–Lau) until the graph is
//!    a constant-conductance expander of diameter `O(log n)`.
//! 3. [`BfsNode`] floods the smallest identifier to build a BFS tree of the
//!    expander, and [`BinarizeNode`] reduces its degree to a constant.
//!
//! [`OverlayBuilder`] composes the three phases and reports the model-level costs
//! (rounds and message counts) that the paper's Theorem 1.1 bounds. The
//! [`EvolutionEngine`] exposes the raw evolution step for conductance experiments.
//!
//! # Quick start
//!
//! ```
//! use overlay_core::{ExpanderParams, OverlayBuilder};
//! use overlay_graph::generators;
//!
//! // A line is the worst case: diameter n - 1, conductance Θ(1/n).
//! let g = generators::line(64);
//! let result = OverlayBuilder::new(ExpanderParams::for_n(64)).build(&g).unwrap();
//! assert!(result.tree.is_valid());
//! assert!(result.tree.max_degree() <= 4);
//! println!("rounds: {}", result.rounds.total());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]
#![warn(unreachable_pub)]

mod benign;
mod bfs;
mod builder;
mod error;
mod evolution;
mod expander;
mod maintenance;
mod params;
mod pipeline;
mod seam;
mod wellformed;

pub use benign::make_benign;
pub use bfs::{BfsMsg, BfsNode};
pub use builder::{
    BuildReport, MessageStats, OverlayBuilder, OverlayResult, PhaseOutcome, RoundBreakdown,
};
pub use error::OverlayError;
pub use evolution::{EvolutionEngine, EvolutionStats};
pub use expander::{ExpanderMsg, ExpanderNode};
pub use maintenance::{EpochSample, MaintenanceConfig, MaintenanceRunner, ServeOutcome};
pub use params::{ExpanderParams, RoundBudget};
pub use pipeline::{Phase, PhaseId, PhaseMetrics, PhaseOverrides};
pub use seam::{
    BfsSummary, DetailedPhase, ExecutedPhase, PhaseExecSpec, PhaseExecutor, SimDetail, SimExecutor,
    Summarize,
};
pub use wellformed::{BinarizeNode, WellFormedTree};
