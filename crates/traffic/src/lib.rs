//! Request traffic over the constructed overlay.
//!
//! The paper builds a constant-degree, `O(log n)`-diameter overlay *so that it
//! can carry traffic*: low diameter bounds per-request hop counts, constant
//! degree bounds per-node load, and expansion bounds congestion. After the
//! construction crates finish their job, this crate actually routes requests
//! over the finished edges and measures what the guarantees bought.
//!
//! Three pieces:
//!
//! * [`Workload`] — seeded request generators (uniform pairs, Zipf-skewed
//!   destinations, an all-to-one hotspot, a flash-crowd burst). A workload is
//!   *pre-scheduled*: every `(source, round, destination)` triple is drawn
//!   harness-side before the first round, so the protocol rounds themselves
//!   draw zero randomness — which is what makes a traffic run bitwise
//!   reproducible on the lockstep simulator **and** on the real-thread
//!   backends of `overlay-net` (whose clean path mirrors the simulator only
//!   while no RNG is consumed mid-round).
//! * [`Router`] — one [`overlay_netsim::Protocol`] node per overlay member.
//!   Each node holds its row of the next-hop table ([`hop_rows`]: one
//!   bit-parallel multi-source BFS, 64 destinations per machine word, whose
//!   cost is proportional to the diameter the construction made small) over
//!   either the expander edges ([`RoutingPolicy::Greedy`]) or the binarized
//!   tree ([`RoutingPolicy::Tree`]) — a [`HopRow`]: its sorted neighbor list
//!   and one byte per destination, the neighbor's position in that list
//!   ([`next_hops`] is the same table with the neighbors spelled out) — one
//!   load counter per neighbor, a FIFO forward queue with an NCC0-style
//!   per-round forward budget, a queue capacity, and a TTL. Congestion is
//!   enforced *at the application layer* (queue growth, overflow drops,
//!   age-outs), never by the simulator's receive cap — so a congested cell
//!   stays deterministic and backend-identical.
//! * [`TrafficReport`] / [`TrafficTally`] — delivered/dropped/expired/lost
//!   accounting plus hop-count and rounds-to-delivery percentiles
//!   (p50/p99/max) and the per-edge / per-node load maxima the paper's
//!   constant-congestion claim is about.
//!
//! The `overlay-scenarios` crate threads all of this through its registry as
//! the `traffic` scenario axis; `crates/net/tests/backend_equivalence.rs`
//! pins the simulator-vs-channel-backend delivery-set identity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]
#![warn(unreachable_pub)]

mod report;
mod router;
mod workload;

pub use report::{TrafficReport, TrafficTally};
pub use router::{hop_rows, next_hops, HopRow, RoutingPolicy};
pub use router::{Delivery, Router, RouterConfig, RouterMsg, RouterSummary};
pub use workload::{Request, Workload};
