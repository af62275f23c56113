//! Reliable-delivery transport for `overlay-netsim` protocols.
//!
//! The paper's protocols (and the NCC0 model they live in) assume every sent
//! message is delivered in the next round. The fault layer of `overlay-netsim`
//! shows how brittle that assumption is: a fraction of a percent of message loss
//! is enough to strand the one-round binarization phase of the construction
//! pipeline. This crate provides the missing session layer as a *composable
//! adapter* rather than something each protocol reimplements: [`Reliable<P>`]
//! wraps any [`overlay_netsim::Protocol`] and gives it at-least-once delivery
//! with exactly-once *semantics* at the protocol boundary —
//!
//! * **per-peer sequence numbers** on every data message,
//! * **cumulative + selective acknowledgments** (one ack message per peer per
//!   round with news, carrying the highest contiguous sequence received plus a
//!   bitmap of out-of-order receptions),
//! * **deterministic retransmission timers in rounds** (no wall-clock, no
//!   randomness: a message unacknowledged for
//!   [`overlay_netsim::TransportConfig::retransmit_after`] rounds is re-sent,
//!   up to [`overlay_netsim::TransportConfig::max_retransmits`] times),
//! * **duplicate suppression** at the receiver, so the wrapped protocol never
//!   sees a payload twice, and
//! * a **per-peer window** ([`overlay_netsim::TransportConfig::window`])
//!   bounding in-flight traffic so the adapter's overhead stays within the
//!   NCC0 `O(log n)` per-round budget (the simulator's send/receive caps apply
//!   to transport traffic exactly as to protocol traffic — an ack lost to the
//!   cap is simply retransmitted into).
//!
//! The adapter is *transparent on a clean network*: data is delivered one round
//! after sending (the same latency as a bare send), the wrapped protocol's inbox
//! contents and order are identical to the unwrapped run, and the node RNG is
//! never touched by the transport — so a loss-free wrapped run reproduces the
//! unwrapped run's random stream and final state byte for byte, with only ack
//! messages added on the wire.
//!
//! Overhead is observable at every level: the simulator's
//! [`overlay_netsim::RoundMetrics`] gain `retransmits` / `acks` /
//! `dupes_dropped` counters (reported through [`overlay_netsim::Ctx`]'s
//! `note_*` hooks), and each node keeps local [`ReliableStats`] totals.
//!
//! # Cost model
//!
//! The paper budgets `O(log n)` messages per node per round, so the session
//! layer under it may cost `O(messages of this round)` per node-round and no
//! more. One [`Reliable`] callback costs
//! **`O(inbox + sends + open streams)`**, where an *open stream* is a peer with
//! a payload that is neither acknowledged nor abandoned — the streams
//! [`overlay_netsim::Protocol::is_done`] waits for. The number of peers the
//! node has *ever* spoken to does not appear: on `line(256)` a node knows 57
//! peers on average and has about 6 open streams.
//!
//! * Per-peer state lives in a slab, found through a hash map from peer id to
//!   slot with a one-multiply hash: `O(1)` per message. An inbox arrives
//!   grouped by sender unless the network delayed envelopes, so the unwrap
//!   loop looks a sender up once per run of its envelopes.
//! * Outgoing payloads of all peers share one pool per node; a peer's queue is
//!   a linked list through it. A peer with nothing outstanding owns no heap
//!   memory, and each round reuses the entries the previous one released.
//! * One send pass walks a worklist of the open streams only, and each of
//!   their queues once: retransmission timers along the sent prefix, fresh
//!   data behind it while the window has room. Acks walk a list filled as data
//!   arrives.
//! * An in-order data message on a stream with nothing buffered — every
//!   message of a loss-free run — is two comparisons and a store. Out-of-order
//!   arrivals go to a sorted `Vec`, boxed on first use, so a loss-free stream
//!   never allocates one.
//!
//! **Memory** is `O(peers ever contacted)` per node (32 bytes of state and an
//! 8-byte map entry each, plus the map's control bytes and spare capacity)
//! plus `O(peak open payloads)` for the pool.
//!
//! **Why the worklists are sorted.** Every send of one callback happens in a
//! fixed order: fresh data, then retransmissions, then acks, each in
//! ascending peer identifier. The simulator decides loss, caps and delivery
//! order per message in send order, so this order is part of the adapter's
//! observable behaviour: it is what makes a seeded run reproducible and what
//! keeps the simulator, channel and TCP backends equal. The open-stream list
//! stays sorted (a stream opened in a callback is inserted at its place, found
//! by binary search), the round's ack list is sorted once, and the send pass holds
//! each retransmission back until every fresh send is out — the order a walk
//! over an ordered map of all peers would give, at the cost of the open
//! streams alone.
//!
//! Sequence numbers are `u32` and never wrap: a stream that has assigned
//! `u32::MAX - 1` is exhausted, and further payloads to that peer are abandoned
//! with a give-up. A `floor` or `seq` decoded off the wire costs the same
//! whatever its value.
//!
//! # Example
//!
//! ```
//! use overlay_graph::NodeId;
//! use overlay_netsim::{
//!     Ctx, Envelope, FaultPlan, Protocol, SimConfig, Simulator, TransportConfig,
//! };
//! use overlay_transport::Reliable;
//!
//! /// Sends one message to the next node; done once it has heard from its
//! /// predecessor.
//! struct Ring { next: NodeId, heard: bool }
//! impl Protocol for Ring {
//!     type Message = u8;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) { ctx.send_global(self.next, 1); }
//!     fn on_round(&mut self, _ctx: &mut Ctx<'_, u8>, inbox: &[Envelope<u8>]) {
//!         self.heard |= !inbox.is_empty();
//!     }
//!     fn is_done(&self) -> bool { self.heard }
//! }
//!
//! let n = 8;
//! let nodes: Vec<_> = (0..n)
//!     .map(|i| Reliable::new(
//!         Ring { next: NodeId::from((i + 1) % n), heard: false },
//!         TransportConfig::default(),
//!     ))
//!     .collect();
//! // 30% message loss would kill some of the bare sends; the transport retries.
//! let config = SimConfig::default().with_faults(FaultPlan::default().with_drop_prob(0.3));
//! let mut sim = Simulator::new(nodes, config);
//! let outcome = sim.run(64);
//! assert!(outcome.all_done);
//! assert!(sim.nodes().iter().all(|r| r.inner().heard));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]
#![warn(unreachable_pub)]

mod reliable;

pub use reliable::{Reliable, ReliableStats, TransportMsg};
