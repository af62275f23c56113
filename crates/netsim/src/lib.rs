//! Deterministic synchronous message-passing simulator for overlay-network models.
//!
//! The paper's algorithms are stated for a synchronous round model in which nodes send
//! messages to nodes whose identifier they know, new connections are established by
//! sending identifiers, and per-round communication is capped. This crate implements
//! that model faithfully so that round counts and message counts measured in experiments
//! are *model-level* quantities, exactly the quantities the paper's theorems bound.
//!
//! Two capacity models are supported (see [`CapacityModel`]):
//!
//! * **NCC0**: every node may send and receive at most `O(log n)` messages per round;
//!   excess received messages are dropped (an arbitrary — here: seeded — subset is
//!   kept).
//! * **Hybrid**: the initial graph's edges are *local* edges following CONGEST (one
//!   message per edge per direction per round), and nodes may additionally send a
//!   polylogarithmic number of *global* messages per round to arbitrary known
//!   identifiers.
//!
//! Protocols are deterministic state machines implementing [`Protocol`]; all randomness
//! comes from per-node seeded RNGs, so every simulation is reproducible from its seed.
//!
//! Beyond the clean synchronous model, the simulator can inject deterministic
//! environmental faults — random message loss, delivery delays, crash-stop failures,
//! delayed node joins, and temporary partitions — declared as a [`FaultPlan`] in
//! [`SimConfig::faults`] and executed by the simulator's fault router. Fault
//! decisions are drawn from the simulation seed, so faulty runs replay exactly, and
//! every interference is recorded in [`RoundMetrics`].
//!
//! # Example
//!
//! ```
//! use overlay_netsim::{Ctx, Envelope, Protocol, SimConfig, Simulator};
//! use overlay_graph::NodeId;
//!
//! /// Each node forwards a counter to its successor for a fixed number of rounds.
//! struct Relay { next: NodeId, hops: usize, done: bool }
//!
//! impl Protocol for Relay {
//!     type Message = usize;
//!     fn on_start(&mut self, ctx: &mut Ctx<usize>) {
//!         ctx.send_global(self.next, 0);
//!     }
//!     fn on_round(&mut self, ctx: &mut Ctx<usize>, inbox: &[Envelope<usize>]) {
//!         for env in inbox {
//!             if env.payload + 1 < self.hops {
//!                 ctx.send_global(self.next, env.payload + 1);
//!             } else {
//!                 self.done = true;
//!             }
//!         }
//!     }
//!     fn is_done(&self) -> bool { self.done }
//! }
//!
//! let n = 8;
//! let nodes: Vec<Relay> = (0..n)
//!     .map(|i| Relay { next: NodeId::from((i + 1) % n), hops: 4, done: false })
//!     .collect();
//! let mut sim = Simulator::new(nodes, SimConfig::default());
//! let outcome = sim.run(64);
//! assert!(outcome.all_done);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]
#![warn(unreachable_pub)]

// `caps::log2_ceil` is imported by this path in `benchmark/`, the root crate's
// tests, and in baselines, bench, core, hybrid and scenarios.
pub mod caps;
mod churn;
mod faults;
mod metrics;
mod protocol;
mod runtime;
mod trace;
mod transport;
// Imported by this path in `benchmark/` (`wire::Wire`), net and traffic. The
// `wire!` macro is the crate root's, not this module's.
pub mod wire;

pub use caps::CapacityModel;
pub use churn::{ChurnSchedule, CrashBurst, RoundChurn};
pub use faults::{CrashEvent, DelayModel, FaultPlan, JoinEvent, Partition};
pub use metrics::{MetricsMode, RoundMetrics, RunMetrics, TransportCounters};
pub use protocol::{Channel, Ctx, Envelope, Protocol};
pub use runtime::{
    node_rng, worker_count, Crossing, Medium, ParallelismConfig, RunOutcome, SimConfig, Simulator,
    WholeRun,
};
pub use trace::{DropCause, SharedTraceSink, TraceBuffer, TraceEvent};
pub use transport::TransportConfig;
pub use wire::{Wire, WireError};
