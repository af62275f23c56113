//! Run the overlay-construction protocols over real byte streams.
//!
//! The simulator in `overlay-netsim` is a *model*: synchronous rounds, typed
//! messages, perfect lockstep. This crate is the deployment side of the same
//! protocol code — the identical [`overlay_core`] node state machines, driven
//! unmodified over:
//!
//! * [`ChannelBackend`] — one process owning every node: the simulator's
//!   whole run behind the seam, fault plans included, with no message
//!   encoded;
//! * [`TcpBackend`] — multiple OS processes, each owning a block of nodes,
//!   meshed over TCP with length-prefixed binary frames (see [`Frame`]);
//!   fault plans of crashes, joins and partitions included, loss and delays
//!   refused.
//!
//! The seam is [`overlay_core::PhaseExecutor`]: [`NetRunner`] implements it
//! over any [`Backend`], and
//! [`overlay_core::OverlayBuilder::build_over`] drives the paper's pipeline
//! through it. Each rank runs the simulator's own round on the nodes it owns
//! and only the medium between ranks is this crate's (see [`NetRunner`]), so
//! **per seed, every backend constructs the same final overlay graph** — the
//! simulator is this crate's CI-checked model, and
//! `tests/backend_equivalence.rs` enforces the claim.
//!
//! No async runtime is involved, and no thread per node: each rank is one
//! loop stepping its nodes in index order, and the α-synchronizer (per-round
//! `DONE` markers, see [`TcpBackend`]) turns blocking sockets into the synchronous
//! round structure the protocols were written against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]
#![warn(unreachable_pub)]

mod backend;
mod frame;
mod runner;
mod tcp;

pub use backend::{Backend, ChannelBackend, SummaryEntries};
pub use frame::{Frame, FrameKind, Roster, SummaryBody, WIRE_VERSION};
pub use runner::NetRunner;
pub use tcp::{TcpBackend, TcpHost};

// Pins `NetRunner<TcpBackend>: Send` at compile time: callers put each rank
// of an in-process mesh on a thread of its own.
const _: fn(NetRunner<TcpBackend>) -> Box<dyn Send> = |rank| Box::new(rank);

use overlay_netsim::WireError;

/// How the networking layer fails below the protocol layer.
#[derive(Debug)]
pub enum NetError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// Bytes arrived that do not decode as what the protocol expects.
    Codec(WireError),
    /// A peer process missed a synchronizer deadline: the per-peer receive
    /// timeout fired, which is this layer's failure-detector verdict.
    PeerTimeout {
        /// The rank that went silent.
        rank: usize,
        /// What was being waited for when the timeout fired.
        waiting_for: &'static str,
        /// The phase tag of the barrier this rank was waiting at.
        phase: u8,
        /// The round of that barrier.
        round: u32,
    },
    /// The frame stream violated the synchronizer or handshake protocol.
    Protocol(String),
    /// The phase carried a fault plan with loss or delays, and the rank owns
    /// only part of the run. Those verdicts are drawn in the whole run's send
    /// order, which only a rank that owns every node sees; running the phase
    /// without them would report a clean run as the faulty one. Crashes, joins
    /// and partitions run on any rank.
    FaultsUnsupported {
        /// The refused phase's report name.
        phase: &'static str,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Codec(e) => write!(f, "undecodable frame: {e}"),
            NetError::PeerTimeout {
                rank,
                waiting_for,
                phase,
                round,
            } => write!(
                f,
                "peer rank {rank} timed out (waiting for {waiting_for} of phase {phase}, round {round})"
            ),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::FaultsUnsupported { phase } => write!(
                f,
                "phase {phase} carries loss or delays, which only a rank that owns every node can inject"
            ),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> NetError {
        NetError::Codec(e)
    }
}
