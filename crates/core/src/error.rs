//! Error type of the overlay-construction pipeline.

use std::error::Error;
use std::fmt;

/// Errors reported by the overlay-construction pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OverlayError {
    /// The supplied parameters are internally inconsistent.
    InvalidParams(String),
    /// The initial graph's degree is too large for the NCC0 pipeline; the hybrid
    /// pipeline (crate `overlay-hybrid`) handles arbitrary degrees.
    DegreeTooLarge {
        /// The observed maximum (undirected) degree of the initial graph.
        degree: usize,
        /// The largest degree the chosen parameters support.
        supported: usize,
    },
    /// The initial graph is empty.
    EmptyGraph,
    /// The initial graph is not weakly connected, which Theorem 1.1 requires
    /// (use the connected-components pipeline of `overlay-hybrid` otherwise).
    Disconnected,
    /// A simulation phase did not terminate within its round budget.
    PhaseIncomplete {
        /// Human-readable phase name.
        phase: &'static str,
        /// The budget that was exhausted.
        budget: usize,
    },
    /// The final evolution graph fragmented on the clean path, so the tree cannot
    /// contain every node. Without injected faults this means the w.h.p.
    /// connectivity of `G_L` failed for the chosen parameters/seed — possible, but
    /// vanishingly unlikely with the defaults.
    Fragmented {
        /// Number of connected components among the survivors.
        components: usize,
        /// Size of the largest component (the core the pipeline continued with).
        core_size: usize,
    },
    /// Every phase ran to completion but the binarized parents did not form a
    /// single valid rooted tree over the alive nodes.
    FinalizeFailed,
    /// A pluggable phase executor (a socket or channel backend from the
    /// `overlay-net` crate) failed below the protocol layer — a peer process
    /// died, a connection broke, or a frame failed to decode — or handed back
    /// digests the hand-offs cannot read: not one per node, or one naming a
    /// node outside the phase.
    Backend(String),
}

impl fmt::Display for OverlayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverlayError::InvalidParams(msg) => write!(f, "invalid parameters: {msg}"),
            OverlayError::DegreeTooLarge { degree, supported } => write!(
                f,
                "initial degree {degree} exceeds the supported degree {supported} for the NCC0 pipeline"
            ),
            OverlayError::EmptyGraph => write!(f, "the initial graph has no nodes"),
            OverlayError::Disconnected => {
                write!(f, "the initial graph is not weakly connected")
            }
            OverlayError::PhaseIncomplete { phase, budget } => {
                write!(f, "phase {phase} did not finish within {budget} rounds")
            }
            OverlayError::Fragmented {
                components,
                core_size,
            } => write!(
                f,
                "the final evolution graph fragmented into {components} components \
                 (largest: {core_size} nodes)"
            ),
            OverlayError::FinalizeFailed => {
                write!(f, "binarization did not produce a valid rooted tree")
            }
            OverlayError::Backend(msg) => write!(f, "transport backend failed: {msg}"),
        }
    }
}

impl Error for OverlayError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = OverlayError::DegreeTooLarge {
            degree: 100,
            supported: 8,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains('8'));
        assert!(OverlayError::EmptyGraph.to_string().contains("no nodes"));
        assert!(OverlayError::Disconnected.to_string().contains("connected"));
        assert!(OverlayError::InvalidParams("x".into())
            .to_string()
            .contains('x'));
        let p = OverlayError::PhaseIncomplete {
            phase: "bfs",
            budget: 7,
        };
        assert!(p.to_string().contains("bfs"));
        let fr = OverlayError::Fragmented {
            components: 3,
            core_size: 42,
        };
        assert!(fr.to_string().contains('3') && fr.to_string().contains("42"));
        assert!(OverlayError::FinalizeFailed.to_string().contains("tree"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: Error>() {}
        assert_error::<OverlayError>();
    }
}
