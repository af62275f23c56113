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
//! * The lockstep simulator (here): [`SimExecutor`], the one place that
//!   configures a [`Simulator`] and wraps nodes in the reliable transport.
//!   `build`, `build_under_faults` and `build_under_faults_traced` run on it
//!   too, so `build_over(&g, &mut SimExecutor::default())` *is* `build(&g)`.
//!   Through [`PhaseExecutor::execute_detailed`] the driver hands it the
//!   trace sink, and it hands the driver a [`SimDetail`] (full metrics, done
//!   count, wall-clock) besides the summaries; no other medium can do either.
//!   The phase markers around each call are the driver's, whatever the
//!   executor.
//! * The socket-backed runners in the `overlay-net` crate — one stepping
//!   loop per rank: a single rank owning every node, or multiple OS
//!   processes over TCP. Each rank runs the simulator's round on the block
//!   of nodes it owns ([`SimExecutor::execute_block`] over a medium of
//!   frames), so per seed the final overlay graph is *identical* to the
//!   simulator's; the cross-backend equivalence tests in `overlay-net` pin
//!   the medium.
//!
//! Summaries exist because a multi-process executor cannot hand back remote
//! nodes' full protocol states. Each phase's hand-off needs only a small
//! per-node digest — the final slot list (`Vec<NodeId>`) after construction,
//! a [`BfsSummary`] (`root`, `parent`, `children`) after BFS, the relinked
//! parent (a [`NodeId`]) after binarization — and every successor phase is
//! constructible from those digests alone. No digest names its own node: an
//! [`ExecutedPhase`] lists them in node order, so a digest's position is its
//! node. Summaries implement [`Wire`] so executors can exchange them across
//! process boundaries; ids inside them come from other processes, and the
//! pipeline driver refuses a digest that names a node outside the phase.

use crate::bfs::BfsNode;
use crate::expander::ExpanderNode;
use crate::pipeline::Phase;
use crate::wellformed::BinarizeNode;
use overlay_graph::NodeId;
use overlay_netsim::{
    FaultPlan, Medium, MetricsMode, ParallelismConfig, Protocol, RunMetrics, SharedTraceSink,
    SimConfig, Simulator, TransportConfig, WholeRun, Wire,
};
use overlay_transport::{Reliable, TransportMsg};
use std::ops::Range;
use std::time::{Duration, Instant};

/// A protocol whose per-node end state can be digested into a small,
/// wire-encodable summary sufficient for the pipeline's phase hand-offs.
///
/// [`SimExecutor::execute_block`], done with the finished nodes, hands each one
/// over with [`Summarize::into_summary`]. That is the round every executor
/// runs, so a socket rank digests its nodes the same way before it encodes the
/// digests for the wire. [`Summarize::summarize`] digests by reference, and the
/// two must be equal. A node whose summary carries ledgers (a router's
/// deliveries, a construction node's slot list) overrides `into_summary` to
/// move its `Vec`s instead of copying them; the provided body copies.
pub trait Summarize: Protocol
where
    Self::Message: Wire,
{
    /// The per-node digest exchanged at phase boundaries.
    type Summary: Wire + Clone + std::fmt::Debug + Send;

    /// Digests this node's final state.
    fn summarize(&self) -> Self::Summary;

    /// Digests this node's final state, consuming the node: equal to
    /// [`Summarize::summarize`], which is what the provided body calls.
    fn into_summary(self) -> Self::Summary
    where
        Self: Sized,
    {
        self.summarize()
    }
}

/// What the `CreateExpander` hand-off needs from each node: its slots in the
/// final evolution graph `G_L` (one entry per incident half-edge, self-loops
/// included).
impl Summarize for ExpanderNode {
    type Summary = Vec<NodeId>;

    fn summarize(&self) -> Vec<NodeId> {
        self.padded_slots()
    }

    fn into_summary(self) -> Vec<NodeId> {
        self.into_padded_slots()
    }
}

/// What the BFS hand-off needs from each node: the root it converged to and
/// its place in the BFS tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsSummary {
    /// The smallest identifier the node knows (the root it elected).
    pub root: NodeId,
    /// The node's BFS parent (itself for the root).
    pub parent: NodeId,
    /// The node's BFS children.
    pub children: Vec<NodeId>,
}

overlay_netsim::wire! { BfsSummary { root, parent, children } }

impl Summarize for BfsNode {
    type Summary = BfsSummary;

    fn summarize(&self) -> BfsSummary {
        BfsSummary {
            root: self.root(),
            parent: self.parent(),
            children: self.children().to_vec(),
        }
    }

    fn into_summary(self) -> BfsSummary {
        BfsSummary {
            root: self.root(),
            parent: self.parent(),
            children: self.into_children(),
        }
    }
}

/// A node behind the reliable transport digests to what the node it wraps
/// digests to: the transport's own state never crosses a phase boundary.
impl<P: Summarize> Summarize for Reliable<P>
where
    P::Message: Wire,
{
    type Summary = P::Summary;

    fn summarize(&self) -> P::Summary {
        self.inner().summarize()
    }

    fn into_summary(self) -> P::Summary {
        self.into_inner().into_summary()
    }
}

/// What the finalize hand-off needs from each node: its parent in the
/// binarized (well-formed) tree.
impl Summarize for BinarizeNode {
    type Summary = NodeId;

    fn summarize(&self) -> NodeId {
        self.new_parent()
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
/// [`crate::PhaseMetrics`]. A socket rank gets one from
/// [`SimExecutor::execute_block`] too, covering only the nodes it owns; its
/// runner drops it and answers [`PhaseExecutor::execute_detailed`] with `None`.
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
/// TCP sockets). The executors here do it by running the simulator's round,
/// [`SimExecutor::execute_block`], over their medium. The phase carries the
/// [`overlay_netsim::FaultPlan`] of its window: an executor either injects it
/// (the simulator; a socket rank that owns every node; a rank that owns less,
/// for a [`FaultPlan::is_scheduled`] plan) or refuses it (a rank that owns
/// less, for a plan with loss or delays) — never silently drops it.
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
    /// phase. This is what the pipeline driver calls, handing over its trace
    /// sink (the driver itself brackets the call with the phase markers). The
    /// provided implementation ignores the sink and answers `None`, which is
    /// right for every medium but the simulator.
    fn execute_detailed<P: Summarize + Send>(
        &mut self,
        phase: Phase<P>,
        spec: PhaseExecSpec,
        _sink: Option<&SharedTraceSink>,
    ) -> Result<DetailedPhase<P::Summary>, Self::Error>
    where
        P::Message: Wire + Send,
    {
        Ok((self.execute(phase, spec)?, None))
    }
}

/// The lockstep simulator behind the [`PhaseExecutor`] seam: the one type in
/// this crate that configures and runs a [`Simulator`].
///
/// [`crate::OverlayBuilder::build_over`] with this executor is
/// [`crate::OverlayBuilder::build`]; the simulator entry points pass one too,
/// plus their trace sink (the phase markers around each run are the
/// driver's). It exists so the simulator is *a* backend on equal
/// footing with the socket-backed ones, and serves as the model the
/// `overlay-net` equivalence tests compare against.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimExecutor {
    /// Within-round parallelism policy (bitwise identical at any worker count).
    pub parallelism: ParallelismConfig,
    /// Frozen for `benchmark/`, which writes this field: inert, every run
    /// keeps its per-round metrics.
    pub metrics_mode: MetricsMode,
}

impl SimExecutor {
    /// Runs `block` of one phase — the phase's `nodes` and fault plan under
    /// `spec`, bare or behind the reliable transport — with every round ending
    /// at `medium`'s barrier: the one round loop of every executor.
    /// [`SimExecutor`] runs the block that owns every node over [`WholeRun`];
    /// a socket rank runs the block it owns over a medium of frames. The
    /// [`ExecutedPhase`]'s summaries and `delivered` cover the block; its
    /// `alive`, which the fault plan decides, covers the whole run.
    ///
    /// # Panics
    ///
    /// As [`Simulator::for_block`]: a block that leaves nodes out runs a
    /// [`FaultPlan::is_scheduled`] plan.
    pub fn execute_block<P: Summarize, Md, E>(
        &self,
        nodes: Vec<P>,
        faults: FaultPlan,
        spec: PhaseExecSpec,
        block: Range<usize>,
        medium: &mut Md,
        sink: Option<&SharedTraceSink>,
    ) -> Result<DetailedPhase<P::Summary>, E>
    where
        P::Message: Wire,
        Md: Medium<P::Message, Error = E> + Medium<TransportMsg<P::Message>, Error = E>,
    {
        let config = SimConfig::ncc0_capped(spec.ncc0_cap, spec.seed, faults)
            .with_parallelism(self.parallelism);
        match spec.transport {
            None => simulate(nodes, config, block, spec.budget, medium, sink),
            Some(cfg) => {
                let wrapped = nodes.into_iter().map(|p| Reliable::new(p, cfg)).collect();
                simulate(wrapped, config, block, spec.budget, medium, sink)
            }
        }
    }
}

/// Simulates `block` of one phase's `nodes` (bare, or already wrapped in the
/// reliable transport) for at most `budget` rounds over `medium`, with `sink`,
/// when given, receiving the simulator's events. Behind the transport,
/// `is_done` (and therefore the done count and the phase's wall-rounds)
/// includes the transport's own drain condition: a node holding
/// unacknowledged data keeps the phase alive so retransmissions can land.
fn simulate<Q: Summarize, Md: Medium<Q::Message>>(
    nodes: Vec<Q>,
    config: SimConfig,
    block: Range<usize>,
    budget: usize,
    medium: &mut Md,
    sink: Option<&SharedTraceSink>,
) -> Result<DetailedPhase<Q::Summary>, Md::Error>
where
    Q::Message: Wire,
{
    let started = Instant::now();
    let n = nodes.len();
    let mut sim = Simulator::for_block(nodes, block, config);
    if let Some(sink) = sink {
        sim.set_trace_sink(sink.clone());
    }
    let outcome = sim.run_over(budget, medium)?;
    let metrics = sim.metrics().clone();
    let alive = (0..n).map(|i| sim.is_active(NodeId::from(i))).collect();
    let done_count = sim.done_count();
    // The simulator is done with the nodes: their ledgers move into the
    // summaries instead of being copied.
    let run = ExecutedPhase {
        summaries: sim.into_nodes().into_iter().map(Q::into_summary).collect(),
        alive,
        rounds: outcome.rounds,
        all_done: outcome.all_done,
        delivered: metrics.totals().delivered,
    };
    let detail = SimDetail {
        metrics,
        done_count,
        wall: started.elapsed(),
    };
    Ok((run, Some(detail)))
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
        Ok(self.execute_detailed(phase, spec, None)?.0)
    }

    fn execute_detailed<P: Summarize + Send>(
        &mut self,
        phase: Phase<P>,
        spec: PhaseExecSpec,
        sink: Option<&SharedTraceSink>,
    ) -> Result<DetailedPhase<P::Summary>, Self::Error>
    where
        P::Message: Wire + Send,
    {
        let (_, nodes, _, faults) = phase.into_parts();
        let n = nodes.len();
        self.execute_block(nodes, faults, spec, 0..n, &mut WholeRun, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpanderParams;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let mut bytes = Vec::new();
        value.encode(&mut bytes);
        let mut slice = bytes.as_slice();
        assert_eq!(T::decode(&mut slice).unwrap(), value);
        assert!(slice.is_empty());
    }

    #[test]
    fn summaries_round_trip() {
        round_trip(vec![NodeId::new(1), NodeId::new(3), NodeId::new(7)]);
        round_trip(BfsSummary {
            root: NodeId::new(0),
            parent: NodeId::new(2),
            children: vec![NodeId::new(9)],
        });
        round_trip(NodeId::new(1));
    }

    /// Runs `nodes` for at most `rounds` rounds, then checks that every node
    /// hands over what it digests. Returns the summaries and whether the run
    /// finished.
    fn hand_over<P: Summarize>(
        nodes: Vec<P>,
        config: SimConfig,
        rounds: usize,
    ) -> (Vec<P::Summary>, bool)
    where
        P::Message: Wire,
        P::Summary: PartialEq,
    {
        let mut sim = Simulator::new(nodes, config);
        let finished = sim.run(rounds).all_done;
        let summaries = (sim.into_nodes().into_iter())
            .map(|node| {
                let digest = node.summarize();
                let handed = node.into_summary();
                assert_eq!(handed, digest);
                handed
            })
            .collect();
        (summaries, finished)
    }

    #[test]
    fn construction_nodes_hand_over_what_they_digest() {
        let n = 48;
        let params = ExpanderParams::for_n(n).with_seed(5);
        let g = overlay_graph::generators::line(n);
        let config = SimConfig::ncc0_capped(params.ncc0_cap, params.seed, FaultPlan::default());
        let expander_nodes = || -> Vec<ExpanderNode> {
            let out = |v| g.out_neighbors(v).to_vec();
            g.nodes()
                .map(|v| ExpanderNode::new(v, out(v), params))
                .collect()
        };
        // Finished: the padding is written out. Stopped mid-evolution: it is
        // implicit, and both digests must write it out.
        let total = ExpanderNode::total_rounds(&params);
        let (finished, done) = hand_over(expander_nodes(), config.clone(), total + 2);
        assert!(done);
        let (stopped, done) = hand_over(expander_nodes(), config, total / 2);
        assert!(!done);
        assert_ne!(stopped, finished);

        let u = g.to_undirected();
        let bfs_nodes = (u.nodes())
            .map(|v| BfsNode::new(v, u.distinct_neighbors(v), 60))
            .collect();
        let (summaries, done) = hand_over(bfs_nodes, SimConfig::default(), 64);
        assert!(done);
        assert!(summaries
            .iter()
            .any(|s: &BfsSummary| !s.children.is_empty()));

        let star = (0..9u32)
            .map(|v| match v {
                0 => BinarizeNode::new(NodeId::new(0), (1..9).map(NodeId::new).collect()),
                _ => BinarizeNode::new(NodeId::new(v), Vec::new()),
            })
            .collect();
        let (_, done) = hand_over(star, SimConfig::default(), BinarizeNode::total_rounds() + 1);
        assert!(done);
    }

    #[test]
    fn node_summaries_digest_the_accessors() {
        let b = BinarizeNode::new(NodeId::new(2), vec![NodeId::new(3)]);
        assert_eq!(b.summarize(), b.new_parent());
    }
}
