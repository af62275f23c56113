//! The executor seam: the only way the pipeline's phases run.
//!
//! [`crate::OverlayBuilder`] has one pipeline driver, and that driver never
//! touches a simulator: it hands each of the paper's three phases to a
//! [`PhaseExecutor`]. An executor receives a fully constructed [`Phase`]
//! (every node's protocol state, for *all* `n` nodes, and the fault plan of
//! the phase's window) plus a [`PhaseExecSpec`] (seed, capacity cap, round
//! budget, transport choice) and returns an [`ExecutedPhase`]: one
//! [`Summarize::Summary`] per node plus the run facts the hand-offs need.
//!
//! Two families of executors exist:
//!
//! * The lockstep simulator (here). `build`, `build_under_faults` and
//!   `build_under_faults_traced` drive the crate-private `SimMedium` — the
//!   one place that configures a [`Simulator`], owns the trace sink and the
//!   phase markers, and wraps nodes in the reliable transport — and the
//!   public [`SimExecutor`] delegates to it, so
//!   `build_over(&g, &mut SimExecutor::default())` *is* `build(&g)`. Besides
//!   the summaries the simulator hands the driver a [`SimDetail`] (full
//!   metrics, done count, wall-clock) through
//!   [`PhaseExecutor::execute_detailed`]; no other medium can.
//! * The socket-backed runners in the `overlay-net` crate — one stepping
//!   loop per rank: a single rank owning every node, or multiple OS
//!   processes over TCP. They replicate the simulator's delivery order, RNG
//!   seeding and stop rule, so per seed the final overlay graph is
//!   *identical* to the simulator's; the cross-backend equivalence tests in
//!   `overlay-net` pin that claim.
//!
//! Summaries exist because a multi-process executor cannot hand back remote
//! nodes' full protocol states. Each phase's hand-off needs only a small
//! per-node digest — final slot lists after construction, `(root, parent,
//! children)` after BFS, the relinked parent after binarization — and every
//! successor phase is constructible from those digests alone. Summaries
//! implement [`Wire`] so executors can exchange them across process
//! boundaries.

use crate::bfs::BfsNode;
use crate::expander::ExpanderNode;
use crate::pipeline::Phase;
use crate::wellformed::BinarizeNode;
use overlay_graph::NodeId;
use overlay_netsim::trace::{SharedTraceSink, TraceEvent};
use overlay_netsim::wire::{Wire, WireError};
use overlay_netsim::{
    MetricsMode, ParallelismConfig, Protocol, RunMetrics, SimConfig, Simulator, TransportConfig,
};
use overlay_transport::Reliable;
use std::time::{Duration, Instant};

/// A protocol whose per-node end state can be digested into a small,
/// wire-encodable summary sufficient for the pipeline's phase hand-offs.
pub trait Summarize: Protocol
where
    Self::Message: Wire,
{
    /// The per-node digest exchanged at phase boundaries.
    type Summary: Wire + Clone + std::fmt::Debug + Send;

    /// Digests this node's final state.
    fn summarize(&self) -> Self::Summary;
}

/// What the `CreateExpander` hand-off needs from each node: its identifier and
/// its final evolution-graph slot list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpanderSummary {
    /// The node's identifier.
    pub id: NodeId,
    /// The node's slots in the final evolution graph `G_L` (one entry per
    /// incident half-edge, self-loops included).
    pub slots: Vec<NodeId>,
}

impl Wire for ExpanderSummary {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.slots.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ExpanderSummary {
            id: NodeId::decode(buf)?,
            slots: Vec::decode(buf)?,
        })
    }
}

impl Summarize for ExpanderNode {
    type Summary = ExpanderSummary;

    fn summarize(&self) -> ExpanderSummary {
        ExpanderSummary {
            id: self.id(),
            slots: self.padded_slots(),
        }
    }
}

/// What the BFS hand-off needs from each node: the root it converged to and
/// its place in the BFS tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsSummary {
    /// The node's identifier.
    pub id: NodeId,
    /// The smallest identifier the node knows (the root it elected).
    pub root: NodeId,
    /// The node's BFS parent (itself for the root).
    pub parent: NodeId,
    /// The node's BFS children.
    pub children: Vec<NodeId>,
}

impl Wire for BfsSummary {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.root.encode(out);
        self.parent.encode(out);
        self.children.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(BfsSummary {
            id: NodeId::decode(buf)?,
            root: NodeId::decode(buf)?,
            parent: NodeId::decode(buf)?,
            children: Vec::decode(buf)?,
        })
    }
}

impl Summarize for BfsNode {
    type Summary = BfsSummary;

    fn summarize(&self) -> BfsSummary {
        BfsSummary {
            id: self.id(),
            root: self.root(),
            parent: self.parent(),
            children: self.children().to_vec(),
        }
    }
}

/// What the finalize hand-off needs from each node: its parent in the
/// binarized tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinarizeSummary {
    /// The node's identifier.
    pub id: NodeId,
    /// The node's parent in the binarized (well-formed) tree.
    pub new_parent: NodeId,
}

impl Wire for BinarizeSummary {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.new_parent.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(BinarizeSummary {
            id: NodeId::decode(buf)?,
            new_parent: NodeId::decode(buf)?,
        })
    }
}

impl Summarize for BinarizeNode {
    type Summary = BinarizeSummary;

    fn summarize(&self) -> BinarizeSummary {
        BinarizeSummary {
            id: self.id(),
            new_parent: self.new_parent(),
        }
    }
}

/// The run parameters [`crate::OverlayBuilder`] resolves — once, for every
/// executor — for one phase: the phase-offset seed, the NCC0 cap, the scaled
/// round budget and the effective transport.
#[derive(Clone, Copy, Debug)]
pub struct PhaseExecSpec {
    /// Seed for this phase's randomness (already offset by the phase index).
    pub seed: u64,
    /// The NCC0 per-node, per-round global message cap.
    pub ncc0_cap: usize,
    /// Maximum message rounds to execute (the scaled [`crate::RoundBudget`]).
    pub budget: usize,
    /// Run the phase behind the reliable-delivery layer, or bare (`None`).
    pub transport: Option<TransportConfig>,
}

/// One executed phase: per-node summaries plus the facts the hand-offs need.
#[derive(Clone, Debug)]
pub struct ExecutedPhase<S> {
    /// One summary per node, in node order.
    pub summaries: Vec<S>,
    /// Liveness of each node when the phase ended (all `true` on clean runs;
    /// a socket backend marks peers its failure detector gave up on).
    pub alive: Vec<bool>,
    /// Message rounds executed (not counting the start round).
    pub rounds: usize,
    /// Whether every node reported done before the budget ran out.
    pub all_done: bool,
    /// Messages delivered to inboxes across the phase (best-effort bookkeeping
    /// for reporting; not part of the overlay-graph equivalence contract).
    pub delivered: u64,
}

/// What only the lockstep simulator can tell about a phase it executed: the
/// per-round, per-node books behind [`crate::MessageStats`] and
/// [`crate::PhaseMetrics`]. Socket executors observe none of it and answer
/// [`PhaseExecutor::execute_detailed`] with `None`.
#[derive(Clone, Debug)]
pub struct SimDetail {
    /// The simulator's full metrics for the phase.
    pub metrics: RunMetrics,
    /// Nodes that reported done when the phase ended (crashed nodes count).
    pub done_count: usize,
    /// Host wall-clock time spent simulating the phase.
    pub wall: Duration,
}

/// What [`PhaseExecutor::execute_detailed`] returns: the executed phase, and
/// the [`SimDetail`] only the simulator has.
pub type DetailedPhase<S> = (ExecutedPhase<S>, Option<SimDetail>);

/// An engine that can execute one pipeline phase end to end.
///
/// Implementations must reproduce the synchronous model faithfully — round
/// `r`'s sends are delivered at round `r + 1`, inboxes are ordered by sender
/// id then send order, the per-sender global send cap applies, and execution
/// stops when every node is done or the budget is exhausted — but are free to
/// realize it over any medium (the lockstep simulator, an in-process rank,
/// TCP sockets). The phase carries the [`overlay_netsim::FaultPlan`] of its
/// window: an executor either injects it (the simulator) or refuses a plan
/// that is not clean (the socket runners) — never silently drops it.
pub trait PhaseExecutor {
    /// How this executor fails below the protocol layer (connection loss,
    /// undecodable frames). The simulator cannot fail.
    type Error: std::fmt::Display;

    /// Executes `phase` under `spec`, returning every node's summary.
    ///
    /// `P: Send` (and `P::Message: Send`) so an executor may step nodes on
    /// worker threads (the simulator's chunks do) or be moved, nodes and all,
    /// onto a thread of its own (each rank of an in-process TCP mesh is).
    fn execute<P: Summarize + Send>(
        &mut self,
        phase: Phase<P>,
        spec: PhaseExecSpec,
    ) -> Result<ExecutedPhase<P::Summary>, Self::Error>
    where
        P::Message: Wire + Send;

    /// [`PhaseExecutor::execute`] plus the simulator-only [`SimDetail`] of the
    /// phase. This is what the pipeline driver calls; the provided
    /// implementation answers `None`, which is right for every medium but the
    /// simulator.
    fn execute_detailed<P: Summarize + Send>(
        &mut self,
        phase: Phase<P>,
        spec: PhaseExecSpec,
    ) -> Result<DetailedPhase<P::Summary>, Self::Error>
    where
        P::Message: Wire + Send,
    {
        Ok((self.execute(phase, spec)?, None))
    }
}

/// The lockstep simulator behind the [`PhaseExecutor`] seam.
///
/// [`crate::OverlayBuilder::build_over`] with this executor is
/// [`crate::OverlayBuilder::build`]; it exists so the simulator is *a* backend
/// on equal footing with the socket-backed ones, and serves as the model the
/// `overlay-net` equivalence tests compare against.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimExecutor {
    /// Within-round parallelism policy (bitwise identical at any worker count).
    pub parallelism: ParallelismConfig,
    /// Frozen for `benchmark/`, which writes this field: inert, every run
    /// keeps its per-round metrics.
    pub metrics_mode: MetricsMode,
}

impl PhaseExecutor for SimExecutor {
    type Error = std::convert::Infallible;

    fn execute<P: Summarize + Send>(
        &mut self,
        phase: Phase<P>,
        spec: PhaseExecSpec,
    ) -> Result<ExecutedPhase<P::Summary>, Self::Error>
    where
        P::Message: Wire + Send,
    {
        SimMedium::new(*self, None).execute(phase, spec)
    }

    fn execute_detailed<P: Summarize + Send>(
        &mut self,
        phase: Phase<P>,
        spec: PhaseExecSpec,
    ) -> Result<DetailedPhase<P::Summary>, Self::Error>
    where
        P::Message: Wire + Send,
    {
        SimMedium::new(*self, None).execute_detailed(phase, spec)
    }
}

/// [`SimExecutor`] plus an optional trace sink: the one place in this crate
/// that configures and runs a [`Simulator`]. [`crate::OverlayBuilder`]'s
/// simulator entry points drive it directly; the public [`SimExecutor`]
/// delegates to it untraced.
pub(crate) struct SimMedium {
    sim: SimExecutor,
    /// Receives every phase's simulator events, bracketed by
    /// [`TraceEvent::PhaseStart`] / [`TraceEvent::PhaseEnd`]; `None` keeps
    /// runs completely untraced. Tracing never changes the run itself.
    sink: Option<SharedTraceSink>,
}

impl SimMedium {
    pub(crate) fn new(sim: SimExecutor, sink: Option<SharedTraceSink>) -> Self {
        SimMedium { sim, sink }
    }

    /// Simulates one phase under its own fault plan — behind the reliable
    /// transport layer when `spec` configures one, bare otherwise. With a
    /// transport, `is_done` (and therefore the done count and the phase's
    /// wall-rounds) includes the transport's own drain condition: a node
    /// holding unacknowledged data keeps the phase alive so retransmissions
    /// can land.
    fn run<P: Summarize>(
        &self,
        phase: Phase<P>,
        spec: PhaseExecSpec,
    ) -> (ExecutedPhase<P::Summary>, SimDetail)
    where
        P::Message: Wire,
    {
        let (id, nodes, _, faults) = phase.into_parts();
        let config = SimConfig::ncc0_capped(spec.ncc0_cap, spec.seed, faults)
            .with_parallelism(self.sim.parallelism);
        self.mark(TraceEvent::PhaseStart { phase: id.name() });
        let started = Instant::now();
        let (run, metrics, done_count) = match spec.transport {
            Some(cfg) => self.simulate(
                nodes.into_iter().map(|p| Reliable::new(p, cfg)).collect(),
                config,
                spec.budget,
                |q: &Reliable<P>| q.inner().summarize(),
            ),
            None => self.simulate(nodes, config, spec.budget, P::summarize),
        };
        let wall = started.elapsed();
        self.mark(TraceEvent::PhaseEnd {
            phase: id.name(),
            rounds: run.rounds,
            completed: run.all_done,
        });
        let detail = SimDetail {
            metrics,
            done_count,
            wall,
        };
        (run, detail)
    }

    fn mark(&self, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(event);
        }
    }

    fn simulate<Q: Protocol, S>(
        &self,
        nodes: Vec<Q>,
        config: SimConfig,
        budget: usize,
        summarize: impl Fn(&Q) -> S,
    ) -> (ExecutedPhase<S>, RunMetrics, usize) {
        let mut sim = Simulator::new(nodes, config);
        if let Some(sink) = &self.sink {
            sim.set_trace_sink(sink.clone());
        }
        let outcome = sim.run(budget);
        let metrics = sim.metrics().clone();
        let run = ExecutedPhase {
            summaries: sim.nodes().iter().map(summarize).collect(),
            alive: (0..sim.node_count())
                .map(|i| sim.is_active(NodeId::from(i)))
                .collect(),
            rounds: outcome.rounds,
            all_done: outcome.all_done,
            delivered: metrics.totals().delivered,
        };
        (run, metrics, sim.done_count())
    }
}

impl PhaseExecutor for SimMedium {
    type Error = std::convert::Infallible;

    fn execute<P: Summarize + Send>(
        &mut self,
        phase: Phase<P>,
        spec: PhaseExecSpec,
    ) -> Result<ExecutedPhase<P::Summary>, Self::Error>
    where
        P::Message: Wire + Send,
    {
        Ok(self.run(phase, spec).0)
    }

    fn execute_detailed<P: Summarize + Send>(
        &mut self,
        phase: Phase<P>,
        spec: PhaseExecSpec,
    ) -> Result<DetailedPhase<P::Summary>, Self::Error>
    where
        P::Message: Wire + Send,
    {
        let (run, detail) = self.run(phase, spec);
        Ok((run, Some(detail)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let mut bytes = Vec::new();
        value.encode(&mut bytes);
        let mut slice = bytes.as_slice();
        assert_eq!(T::decode(&mut slice).unwrap(), value);
        assert!(slice.is_empty());
    }

    #[test]
    fn summaries_round_trip() {
        round_trip(ExpanderSummary {
            id: NodeId::new(3),
            slots: vec![NodeId::new(1), NodeId::new(3), NodeId::new(7)],
        });
        round_trip(BfsSummary {
            id: NodeId::new(5),
            root: NodeId::new(0),
            parent: NodeId::new(2),
            children: vec![NodeId::new(9)],
        });
        round_trip(BinarizeSummary {
            id: NodeId::new(4),
            new_parent: NodeId::new(1),
        });
    }

    #[test]
    fn node_summaries_digest_the_accessors() {
        let b = BinarizeNode::new(NodeId::new(2), NodeId::new(1), vec![NodeId::new(3)]);
        let s = b.summarize();
        assert_eq!(s.id, NodeId::new(2));
        assert_eq!(s.new_parent, b.new_parent());
    }
}
