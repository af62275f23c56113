//! Structured event tracing for simulation runs.
//!
//! A [`TraceBuffer`] installed on a [`crate::Simulator`] (via
//! [`crate::Simulator::set_trace_sink`]) receives one [`TraceEvent`] per
//! observable incident of a run: round boundaries, every dropped message with
//! its cause and src/dst edge, crash and join lifecycle events, and the
//! transport layer's retransmission / give-up activity. Pipeline harnesses
//! additionally emit [`TraceEvent::PhaseStart`] / [`TraceEvent::PhaseEnd`]
//! markers so a single trace covers a whole multi-phase run.
//!
//! # The zero-cost contract
//!
//! Tracing must never change what a run *does*. The simulator guarantees:
//!
//! * **No sink, no work**: every emission site is guarded by an
//!   `Option` check on the installed sink; with no sink installed the run
//!   performs no per-event allocation, iteration, or formatting.
//! * **RNG-stream identity**: emission never draws from any RNG and never
//!   reorders or re-buffers messages, so a traced run is byte-identical (same
//!   metrics, same node states, same report) to an untraced run of the same
//!   seed. Tests in `runtime.rs` and the scenario crate pin this down.
//!
//! Buffers are shared as [`SharedTraceSink`] (`Rc<RefCell<TraceBuffer>>`) so
//! one buffer can observe several consecutive simulations — e.g. the three
//! phases of the overlay pipeline — without ownership gymnastics.

use crate::protocol::Channel;
use overlay_graph::NodeId;
use std::cell::RefCell;
use std::rc::Rc;

/// Why a message never reached its recipient: the fault router's three
/// verdicts, then the capacity-model and addressing drops the simulator decides
/// itself. The glossary on [`crate::RoundMetrics`] is the one table of what each
/// cause means, which counter it feeds and how it is labelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// See the [`crate::RoundMetrics`] glossary, row `fault`.
    Fault,
    /// See the [`crate::RoundMetrics`] glossary, row `partition`.
    Partition,
    /// See the [`crate::RoundMetrics`] glossary, row `offline`.
    Offline,
    /// See the [`crate::RoundMetrics`] glossary, row `send-cap`.
    SendCap,
    /// See the [`crate::RoundMetrics`] glossary, row `receive-cap`.
    ReceiveCap,
    /// See the [`crate::RoundMetrics`] glossary, row `invalid-address`.
    InvalidAddress,
}

impl DropCause {
    /// Stable lowercase label used in serialized traces and post-mortems.
    pub fn label(self) -> &'static str {
        match self {
            DropCause::Fault => "fault",
            DropCause::Partition => "partition",
            DropCause::Offline => "offline",
            DropCause::SendCap => "send-cap",
            DropCause::ReceiveCap => "receive-cap",
            DropCause::InvalidAddress => "invalid-address",
        }
    }
}

/// One observable incident of a simulation run.
///
/// Events are emitted in deterministic order: a `RoundStart`, then the round's
/// lifecycle events (`Crash` / `Join` in node order), then `Drop` events in
/// delivery/dispatch order, per-node `Retransmits` / `GiveUps` in node order,
/// and finally the `RoundEnd` rollup. Round numbers are *per simulation*: a
/// multi-phase pipeline restarts at round 0 inside each `PhaseStart` /
/// `PhaseEnd` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A simulated round began (`round` 0 is the start-callback round).
    RoundStart {
        /// The round number.
        round: usize,
    },
    /// A simulated round finished, with its headline delivery counts.
    RoundEnd {
        /// The round number.
        round: usize,
        /// Messages delivered to inboxes this round.
        delivered: u64,
        /// Messages dropped this round, all causes combined.
        dropped: u64,
    },
    /// A pipeline phase began (emitted by phase harnesses, not the simulator).
    PhaseStart {
        /// The phase's report name (e.g. `create-expander`).
        phase: &'static str,
    },
    /// A pipeline phase ended (emitted by phase harnesses, not the simulator).
    PhaseEnd {
        /// The phase's report name.
        phase: &'static str,
        /// Rounds the phase executed.
        rounds: usize,
        /// Whether every node finished within the phase's budget.
        completed: bool,
    },
    /// A message was dropped instead of delivered.
    Drop {
        /// The round the drop happened in.
        round: usize,
        /// The sending node.
        from: NodeId,
        /// The addressed recipient.
        to: NodeId,
        /// The channel the message travelled on.
        channel: Channel,
        /// Why the message was dropped.
        cause: DropCause,
    },
    /// A node crashed at the start of this round (crash-stop; it stays silent
    /// for the rest of the simulation).
    Crash {
        /// The first round the node is dead in.
        round: usize,
        /// The crashed node.
        node: NodeId,
    },
    /// A late joiner activated at the start of this round.
    Join {
        /// The node's first active round.
        round: usize,
        /// The joining node.
        node: NodeId,
    },
    /// A node's reliable-transport layer re-sent unacknowledged data this
    /// round (aggregated per node per round).
    Retransmits {
        /// The round the retransmissions were sent in.
        round: usize,
        /// The retransmitting node.
        node: NodeId,
        /// Number of data messages re-sent.
        count: u64,
    },
    /// A node's reliable-transport layer gave up on unacknowledged payloads
    /// this round (the peer exhausted its retransmission budget and is
    /// presumed gone; aggregated per node per round).
    GiveUps {
        /// The round the payloads were abandoned in.
        round: usize,
        /// The abandoning node.
        node: NodeId,
        /// Number of payloads abandoned.
        count: u64,
    },
    /// A maintenance epoch boundary was processed (emitted by the maintenance
    /// runner, not the simulator). `round` is the service round the boundary
    /// fell on, cumulative across the whole serve horizon.
    Epoch {
        /// The epoch index (0-based).
        epoch: usize,
        /// The service round the boundary fell on.
        round: usize,
        /// Alive members of the overlay after this epoch's churn.
        alive: usize,
        /// Stragglers still awaiting admission after this boundary.
        stragglers: usize,
    },
    /// A re-invitation was issued to a straggler at an epoch boundary,
    /// pulling it into the current evolution.
    ReInvite {
        /// The epoch the invitation was issued in.
        epoch: usize,
        /// The invited straggler (its stable service-wide id).
        joiner: NodeId,
        /// The alive member that extended the invitation.
        contact: NodeId,
        /// Whether the invitation survived transport loss and was accepted.
        delivered: bool,
    },
    /// A repair evolution ran at an epoch boundary, re-absorbing admitted
    /// stragglers and healing crash holes.
    Repair {
        /// The epoch the repair ran in.
        epoch: usize,
        /// Members newly covered by the overlay through this repair.
        healed: usize,
        /// Whether the rebuilt tree passed well-formedness validation.
        tree_valid: bool,
    },
    /// A traffic request entered its source's forward queue (emitted by the
    /// traffic harness, not the simulator).
    RequestInjected {
        /// The traffic round the request was injected in.
        round: usize,
        /// The injecting source node.
        src: NodeId,
        /// The request's destination node.
        dst: NodeId,
    },
    /// A traffic request reached its destination.
    RequestDelivered {
        /// The traffic round the request arrived in.
        round: usize,
        /// The destination that absorbed the request.
        dst: NodeId,
        /// Overlay edges the request traversed.
        hops: usize,
        /// Rounds from injection to delivery.
        latency: usize,
    },
    /// A traffic request was shed: queue overflow, an unroutable destination,
    /// or TTL expiry (aggregated per node per traffic phase).
    RequestDropped {
        /// The shedding node.
        node: NodeId,
        /// Requests shed by queue overflow or missing routes.
        dropped: usize,
        /// Requests aged out past their TTL.
        expired: usize,
    },
}

/// A trace buffer handle shareable between a harness and the simulators it
/// drives.
pub type SharedTraceSink = Rc<RefCell<TraceBuffer>>;

/// The trace sink: an in-memory event log.
#[derive(Clone, Debug, Default)]
pub struct TraceBuffer {
    /// Every recorded event, in emission order.
    pub events: Vec<TraceEvent>,
}

impl TraceBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        TraceBuffer::default()
    }

    /// An empty buffer behind a shared handle: clone one side into
    /// [`crate::Simulator::set_trace_sink`] and keep the other to read the
    /// events back after the run.
    pub fn shared() -> SharedTraceSink {
        Rc::new(RefCell::new(TraceBuffer::new()))
    }

    /// Appends one event, in emission order.
    pub fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_records_in_order() {
        let buf = TraceBuffer::shared();
        let sink = buf.clone();
        sink.borrow_mut()
            .record(TraceEvent::RoundStart { round: 0 });
        sink.borrow_mut().record(TraceEvent::Crash {
            round: 0,
            node: NodeId::from(3usize),
        });
        let events = buf.borrow().events.clone();
        assert_eq!(
            events,
            vec![
                TraceEvent::RoundStart { round: 0 },
                TraceEvent::Crash {
                    round: 0,
                    node: NodeId::from(3usize)
                },
            ]
        );
    }

    #[test]
    fn drop_causes_have_stable_labels() {
        let labels: Vec<&str> = [
            DropCause::Fault,
            DropCause::Partition,
            DropCause::Offline,
            DropCause::SendCap,
            DropCause::ReceiveCap,
            DropCause::InvalidAddress,
        ]
        .iter()
        .map(|c| c.label())
        .collect();
        assert_eq!(
            labels,
            vec![
                "fault",
                "partition",
                "offline",
                "send-cap",
                "receive-cap",
                "invalid-address"
            ]
        );
    }
}
