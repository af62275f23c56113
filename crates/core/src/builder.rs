//! The high-level construction pipeline (Theorem 1.1).
//!
//! [`OverlayBuilder`] composes the three distributed phases — `CreateExpander`, BFS,
//! and tree binarization — into a single call that takes an arbitrary weakly connected
//! constant-degree knowledge graph and returns a [`WellFormedTree`], together with the
//! model-level costs (rounds per phase and message statistics) the paper's theorems
//! bound.
//!
//! Two entry points exist:
//!
//! * [`OverlayBuilder::build`] — the paper's setting: a clean network; any phase
//!   failure is an [`OverlayError`].
//! * [`OverlayBuilder::build_under_faults`] — the same pipeline run against a
//!   [`FaultPlan`]; phase failures, crashed nodes and stragglers are *surfaced* in a
//!   [`BuildReport`] instead of erased into an error, so experiments can measure how
//!   much of the overlay still forms under churn. If the surviving overlay fragments
//!   after construction, the pipeline continues on the largest connected component
//!   (the "core") and reports the fragmentation honestly.
//!
//! Every entry point — those two, [`OverlayBuilder::build_under_faults_traced`] and
//! the pluggable-medium [`OverlayBuilder::build_over`] — is the *same* private
//! driver, `OverlayBuilder::drive`, over a [`PhaseExecutor`]: it validates the
//! input once, resolves each [`Phase`]'s seed/budget/transport once (see
//! [`PhaseOverrides`] and [`OverlayBuilder::with_phase_overrides`]), hands
//! the phase and its window of the fault plan to the executor, and computes the
//! three typed hand-offs (survivor-core extraction, BFS convergence, tree
//! validation) from the executor's per-node digests. With a trace sink it also
//! brackets each phase with the phase markers, on any executor. The simulator
//! entry points run on a [`SimExecutor`] (and the traced one passes its sink);
//! `build` and `build_over` differ from `build_under_faults` only in mapping the
//! report through one shared strict contract.

use crate::pipeline::{Phase, PhaseId, PhaseMetrics, PhaseOverrides};
use crate::seam::{ExecutedPhase, PhaseExecSpec, PhaseExecutor, SimDetail, SimExecutor, Summarize};
use crate::wellformed::WellFormedTree;
use crate::{benign, ExpanderParams, OverlayError, RoundBudget};
use overlay_graph::{analysis, DiGraph, NodeId, UGraph};
use overlay_netsim::{
    CrashEvent, FaultPlan, ParallelismConfig, Partition, RoundMetrics, RunMetrics, SharedTraceSink,
    TraceEvent, TransportConfig, Wire,
};

/// Round counts of the three phases of the pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundBreakdown {
    /// Rounds of the `CreateExpander` phase (intro round + `L·(ℓ+1)` + 1).
    pub construction: usize,
    /// Rounds of the BFS phase.
    pub bfs: usize,
    /// Rounds of the binarization phase.
    pub finalize: usize,
}

impl RoundBreakdown {
    /// Total number of rounds across all phases.
    pub fn total(&self) -> usize {
        self.construction + self.bfs + self.finalize
    }
}

/// Aggregated message statistics across all phases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// The largest number of messages any node sent or received in any single round.
    pub max_per_node_per_round: usize,
    /// The largest total number of messages any single node sent over the whole run.
    pub max_total_per_node: u64,
    /// Total messages delivered.
    pub total_delivered: u64,
    /// Messages dropped at receivers (should be zero when the parameters are adequate).
    pub dropped_receive: u64,
    /// Messages dropped at senders (should be zero).
    pub dropped_send: u64,
    /// Messages lost to injected faults (random loss + partitions), zero in clean runs.
    pub dropped_fault: u64,
    /// Messages addressed to crashed or not-yet-joined nodes, zero in clean runs.
    pub dropped_offline: u64,
    /// Messages that suffered an injected delivery delay, zero in clean runs.
    pub delayed: u64,
    /// Transport-layer retransmissions, zero unless the pipeline ran over
    /// [`OverlayBuilder::with_reliable_transport`].
    pub retransmits: u64,
    /// Transport-layer acknowledgment messages, zero without the reliable layer.
    pub acks: u64,
    /// Duplicate payloads the transport layer suppressed, zero without it.
    pub dupes_dropped: u64,
}

impl MessageStats {
    pub(crate) fn absorb(&mut self, t: &RoundMetrics) {
        self.max_per_node_per_round = self
            .max_per_node_per_round
            .max(t.max_sent)
            .max(t.max_received);
        // Per-node totals add up across phases; `Ledger` keeps those sums.
        self.total_delivered += t.delivered;
        self.dropped_receive += t.dropped_receive;
        self.dropped_send += t.dropped_send;
        self.dropped_fault += t.dropped_fault + t.dropped_partition;
        self.dropped_offline += t.dropped_offline;
        self.delayed += t.delayed;
        self.retransmits += t.transport.retransmits;
        self.acks += t.transport.acks;
        self.dupes_dropped += t.transport.dupes_dropped;
    }
}

/// The output of the construction pipeline.
#[derive(Clone, Debug)]
pub struct OverlayResult {
    /// The final evolution graph `G_L` (an expander of degree Δ, including self-loops).
    /// Under faults this covers the core nodes only (see
    /// [`BuildReport::survivor_ids`]) and dead nodes' edges are pruned.
    pub expander: UGraph,
    /// The BFS tree on `G_L` (parents before binarization).
    pub bfs_parents: Vec<NodeId>,
    /// The well-formed tree (constant degree, low diameter).
    pub tree: WellFormedTree,
    /// Round counts per phase.
    pub rounds: RoundBreakdown,
    /// Message statistics across all phases.
    pub messages: MessageStats,
}

/// How one simulated phase of the pipeline ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseOutcome {
    /// The phase terminated within its round budget.
    Completed {
        /// Rounds the phase executed.
        rounds: usize,
    },
    /// The phase exhausted its budget with nodes still running (or left the
    /// surviving nodes unconverged).
    Stalled {
        /// Rounds the phase executed.
        rounds: usize,
        /// The budget that was exhausted.
        budget: usize,
        /// Nodes that did finish (crashed nodes count as finished).
        nodes_done: usize,
        /// Nodes the phase simulated.
        nodes_total: usize,
    },
    /// The surviving overlay split into several components after construction; the
    /// pipeline continued on the largest one.
    Fragmented {
        /// Number of connected components among the survivors.
        components: usize,
        /// Size of the largest component (the core the pipeline continues with).
        core_size: usize,
    },
}

impl PhaseOutcome {
    /// `true` for [`PhaseOutcome::Stalled`].
    pub(crate) fn is_stall(&self) -> bool {
        matches!(self, PhaseOutcome::Stalled { .. })
    }
}

/// Everything a fault-injected pipeline run reveals: per-phase outcomes, the overlay
/// that did form (if any), and who survived.
///
/// Produced by [`OverlayBuilder::build_under_faults`]. Input-validation problems
/// (bad parameters, empty/disconnected/over-degree graphs, fault plans referencing
/// missing nodes) are still hard [`OverlayError`]s — a report is only produced once
/// the pipeline actually runs.
#[derive(Clone, Debug)]
pub struct BuildReport {
    /// The completed overlay over the core nodes, if every phase finished and the
    /// binarized parents formed a rooted tree.
    pub result: Option<OverlayResult>,
    /// One entry per phase event, in order: `create-expander`, then
    /// `survivor-connectivity` when fragmentation occurred, then `bfs` (completed
    /// its rounds), then `bfs-convergence` if the survivors did not agree on a
    /// root, then `binarize` on a binarization stall or `finalize` otherwise.
    pub phases: Vec<(&'static str, PhaseOutcome)>,
    /// Original identifiers of the core nodes; index `i` of the result's graphs is
    /// `survivor_ids[i]`. Equal to all nodes in a clean run.
    pub survivor_ids: Vec<NodeId>,
    /// Liveness of each core node at the very end of the pipeline (a node may crash
    /// after making it into the core). Empty if any phase before binarization
    /// stalled.
    pub alive_at_end: Vec<bool>,
    /// Whether the final tree is valid restricted to the nodes alive at the end
    /// (`false` whenever `result` is `None`).
    pub tree_valid_over_alive: bool,
    /// Rounds per phase (zero for phases that never ran).
    pub rounds: RoundBreakdown,
    /// Message statistics across the phases that ran.
    pub messages: MessageStats,
    /// Total crash events executed across all phases.
    pub crashed: usize,
    /// Total join events executed across all phases.
    pub joined: usize,
    /// Per-phase metric rollups (rounds, drops by cause, transport overhead,
    /// wall-clock), one entry per *simulated* phase in pipeline order — stalled
    /// phases included. See [`crate::PhaseMetrics`].
    pub phase_metrics: Vec<crate::pipeline::PhaseMetrics>,
}

impl BuildReport {
    /// `true` if the pipeline produced a valid tree over the nodes alive at the end.
    pub fn is_success(&self) -> bool {
        self.result.is_some() && self.tree_valid_over_alive
    }

    /// Fraction of the initial `n` nodes covered by the final tree: the nodes
    /// alive at the end that reach its root through alive nodes
    /// ([`WellFormedTree::covered`]).
    pub fn coverage(&self, n: usize) -> f64 {
        match &self.result {
            Some(result) if n > 0 => result.tree.covered(&self.alive_at_end) as f64 / n as f64,
            _ => 0.0,
        }
    }

    /// The name of the first stalled phase, if any.
    pub fn stalled_phase(&self) -> Option<&'static str> {
        self.phases
            .iter()
            .find(|(_, o)| o.is_stall())
            .map(|(name, _)| *name)
    }
}

/// Builds well-formed trees from arbitrary weakly connected constant-degree graphs by
/// running the paper's pipeline in the simulated NCC0 model.
///
/// # Example
///
/// ```
/// use overlay_core::{ExpanderParams, OverlayBuilder};
/// use overlay_graph::generators;
///
/// let g = generators::cycle(64);
/// let params = ExpanderParams::for_n(64).with_seed(7);
/// let result = OverlayBuilder::new(params).build(&g).unwrap();
/// assert!(result.tree.is_valid());
/// assert!(result.tree.max_degree() <= 4);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct OverlayBuilder {
    params: ExpanderParams,
    round_budget: RoundBudget,
    transport: Option<TransportConfig>,
    phases: PhaseOverrides,
    parallelism: ParallelismConfig,
}

impl OverlayBuilder {
    /// Creates a builder with the given parameters and the clean round budget.
    pub fn new(params: ExpanderParams) -> Self {
        OverlayBuilder {
            params,
            round_budget: RoundBudget::STANDARD,
            transport: None,
            phases: PhaseOverrides::none(),
            parallelism: ParallelismConfig::default(),
        }
    }

    /// Returns the builder with the given within-round parallelism policy for
    /// every phase's simulator. Parallelism never changes what is built — runs
    /// are bitwise identical at any worker count — only how many threads step
    /// nodes within a round (see [`ParallelismConfig`]).
    pub fn with_parallelism(mut self, parallelism: ParallelismConfig) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Returns the builder with every phase's protocol running behind the
    /// reliable-delivery transport layer (`overlay_transport::Reliable`):
    /// per-peer sequence numbers, cumulative/selective acks, deterministic
    /// retransmission timers and duplicate suppression, configured by `config`.
    ///
    /// Transport traffic is subject to the same NCC0 caps as protocol traffic and
    /// is reported in [`MessageStats::retransmits`] / [`MessageStats::acks`] /
    /// [`MessageStats::dupes_dropped`]. On a fault-free network the layer is
    /// transparent: the constructed overlay is identical to the bare pipeline's
    /// (only acks are added on the wire). Under message loss it converts the
    /// paper's non-fault-tolerant one-shot sends into retried deliveries — phases
    /// may then legitimately need a few extra rounds for the retry round-trips, so
    /// lossy runs usually pair this with [`OverlayBuilder::with_round_budget`].
    pub fn with_reliable_transport(mut self, config: TransportConfig) -> Self {
        self.transport = Some(config);
        self
    }

    /// Returns the builder with every phase's round budget scaled by `budget`.
    ///
    /// The clean schedule is exact for a fault-free network; faulty runs (jitter,
    /// late joins) can legitimately need more wall-rounds, and this declares that
    /// allowance instead of misreporting such runs as stalled.
    /// [`RoundBudget::STANDARD`] reproduces the historical budgets exactly.
    pub fn with_round_budget(mut self, budget: RoundBudget) -> Self {
        self.round_budget = budget;
        self
    }

    /// Returns the builder with the given per-phase overrides installed. Unset
    /// entries inherit the builder-wide budget/transport, so
    /// [`PhaseOverrides::none`] reproduces builder-global behavior exactly.
    pub fn with_phase_overrides(mut self, overrides: PhaseOverrides) -> Self {
        self.phases = overrides;
        self
    }

    /// Runs the full pipeline on the knowledge graph `g` in a clean network.
    ///
    /// # Errors
    ///
    /// * [`OverlayError::InvalidParams`] if the parameters are inconsistent,
    /// * [`OverlayError::EmptyGraph`] / [`OverlayError::Disconnected`] for unusable
    ///   inputs,
    /// * [`OverlayError::DegreeTooLarge`] if the initial degree is too large for the
    ///   NCC0 pipeline,
    /// * [`OverlayError::PhaseIncomplete`] if a phase exceeds its round budget (does not
    ///   happen w.h.p. with the default parameters),
    /// * [`OverlayError::Fragmented`] if the survivors split into several components,
    ///   so the strict every-node contract of the clean path cannot hold (w.h.p. this
    ///   requires injected faults, which [`OverlayBuilder::build_under_faults`]
    ///   reports instead of erroring),
    /// * [`OverlayError::FinalizeFailed`] if every phase ran but the binarized
    ///   parents did not form a single valid rooted tree.
    pub fn build(&self, g: &DiGraph) -> Result<OverlayResult, OverlayError> {
        strict_result(
            self.build_under_faults(g, &FaultPlan::default())?,
            g.node_count(),
        )
    }

    /// Runs the full pipeline against the given [`FaultPlan`], reporting partial
    /// outcomes instead of erasing them into errors.
    ///
    /// The plan's timeline starts at the construction phase's round 0 and spans the
    /// whole pipeline: events scheduled beyond a phase's end carry over (shifted) into
    /// the following phases. Joins must land within the construction schedule: the
    /// simulation waits for every scheduled joiner, so a join beyond the construction
    /// budget stalls that phase (reported as `create-expander` Stalled). Joins never
    /// carry over into BFS/binarization — a node that joined too late to make the
    /// core missed the overlay and stays offline there.
    ///
    /// # Errors
    ///
    /// Only input-validation failures ([`OverlayError::InvalidParams`],
    /// [`OverlayError::EmptyGraph`], [`OverlayError::Disconnected`],
    /// [`OverlayError::DegreeTooLarge`]); everything that happens *during* the run is
    /// reported in the returned [`BuildReport`].
    pub fn build_under_faults(
        &self,
        g: &DiGraph,
        faults: &FaultPlan,
    ) -> Result<BuildReport, OverlayError> {
        self.drive(g, faults, &mut self.simulator(), None)
    }

    /// [`OverlayBuilder::build_under_faults`] with a trace sink observing the run:
    /// every phase's simulator streams its structured events (round boundaries,
    /// drops with cause and edge, crashes/joins, transport activity) into `sink`,
    /// bracketed by phase markers. The run itself is byte-identical to an
    /// untraced run of the same inputs.
    ///
    /// # Errors
    ///
    /// Exactly as [`OverlayBuilder::build_under_faults`].
    pub fn build_under_faults_traced(
        &self,
        g: &DiGraph,
        faults: &FaultPlan,
        sink: SharedTraceSink,
    ) -> Result<BuildReport, OverlayError> {
        self.drive(g, faults, &mut self.simulator(), Some(&sink))
    }

    /// Runs the clean-path pipeline over a pluggable [`PhaseExecutor`]: the
    /// lockstep simulator ([`crate::SimExecutor`]), one in-process rank
    /// owning every node, or TCP sockets across OS processes (the
    /// `overlay-net` crate).
    ///
    /// This is [`OverlayBuilder::build`] with the medium swapped and nothing
    /// else: the same driver validates the input, resolves each phase's
    /// seed/budget/transport and computes the hand-offs from per-node
    /// [`crate::Summarize`] digests (which is what lets a multi-process
    /// executor participate: every process exchanges summaries at phase
    /// boundaries and re-derives the identical hand-off decisions locally),
    /// and the same strict contract maps its report to a result — the tree
    /// contains *every* node, or the call is an error.
    ///
    /// This entry point is clean-path only (every phase carries a clean
    /// [`FaultPlan`]): socket backends experience *real* asynchrony and
    /// failures rather than injected ones. Per seed, an executor that runs
    /// the simulator's round on its nodes
    /// ([`crate::SimExecutor::execute_block`], as the socket runners
    /// do) produces the same [`OverlayResult`] as [`OverlayBuilder::build`],
    /// except that off the simulator [`OverlayResult::messages`] carries only
    /// the executor-counted [`MessageStats::total_delivered`]. The other
    /// counters are the [`crate::SimDetail`] each rank's round also
    /// returns, for its own nodes only, and the socket runners drop it.
    ///
    /// # Errors
    ///
    /// Everything [`OverlayBuilder::build`] reports, plus
    /// [`OverlayError::Backend`] when the executor fails below the protocol
    /// layer (a peer process died, a connection broke, a frame failed to
    /// decode). An executor bound to a fixed node set (the socket runners)
    /// also refuses the smaller BFS phase of a fragmented core that way,
    /// before the strict contract would name the fragmentation.
    pub fn build_over<E: PhaseExecutor>(
        &self,
        g: &DiGraph,
        exec: &mut E,
    ) -> Result<OverlayResult, OverlayError> {
        strict_result(
            self.drive(g, &FaultPlan::default(), exec, None)?,
            g.node_count(),
        )
    }

    /// The simulator executor under this builder's parallelism policy.
    fn simulator(&self) -> SimExecutor {
        SimExecutor {
            parallelism: self.parallelism,
            ..SimExecutor::default()
        }
    }

    /// The run parameters of phase `id`: the phase-offset seed (each phase runs
    /// on `params.seed + index`), the override-or-default budget scaled by the
    /// phase's clean schedule, and the override-or-default transport.
    fn exec_spec(&self, id: PhaseId, clean_rounds: usize) -> PhaseExecSpec {
        PhaseExecSpec {
            seed: self.params.seed.wrapping_add(id.index() as u64),
            ncc0_cap: self.params.ncc0_cap,
            budget: self
                .phases
                .budget(id)
                .unwrap_or(self.round_budget)
                .apply(clean_rounds),
            transport: self.phases.transport(id).or(self.transport),
        }
    }

    /// Executes one phase on `exec` and books it into `ledger`. `Ok(None)` means
    /// the phase stalled (already recorded; the pipeline must exit with the
    /// ledger's report).
    ///
    /// With a `sink`, the call is bracketed by [`TraceEvent::PhaseStart`] and
    /// [`TraceEvent::PhaseEnd`] here, whatever the executor, and the executor
    /// is handed the sink for the events inside the phase. Tracing never
    /// changes the run itself.
    fn run_phase<E: PhaseExecutor, P: Summarize + Send>(
        &self,
        exec: &mut E,
        ledger: &mut Ledger,
        phase: Phase<P>,
        sink: Option<&SharedTraceSink>,
    ) -> Result<Option<ExecutedPhase<P::Summary>>, OverlayError>
    where
        P::Message: Wire + Send,
    {
        let mark = |event| {
            if let Some(sink) = sink {
                sink.borrow_mut().record(event);
            }
        };
        let id = phase.id();
        let spec = self.exec_spec(id, phase.clean_rounds());
        mark(TraceEvent::PhaseStart { phase: id.name() });
        let (run, detail) = exec
            .execute_detailed(phase, spec, sink)
            .map_err(|e| OverlayError::Backend(e.to_string()))?;
        mark(TraceEvent::PhaseEnd {
            phase: id.name(),
            rounds: run.rounds,
            completed: run.all_done,
        });
        Ok(ledger.book(id, spec.budget, &run, detail).then_some(run))
    }

    /// The one pipeline: validate, then CreateExpander → BFS → binarize on
    /// `exec`, with the three graph-level hand-offs computed from the per-node
    /// digests. `faults` spans the whole pipeline; each phase is handed its
    /// window of it (shifted past the rounds already run, restricted to the
    /// core). `sink`, when given, receives every phase's events.
    fn drive<E: PhaseExecutor>(
        &self,
        g: &DiGraph,
        faults: &FaultPlan,
        exec: &mut E,
        sink: Option<&SharedTraceSink>,
    ) -> Result<BuildReport, OverlayError> {
        let params = self.params;
        params.validate().map_err(OverlayError::InvalidParams)?;
        let n = g.node_count();
        if n == 0 {
            return Err(OverlayError::EmptyGraph);
        }
        let undirected = g.to_undirected();
        if !analysis::is_connected(&undirected) {
            return Err(OverlayError::Disconnected);
        }
        faults.validate(n).map_err(OverlayError::InvalidParams)?;
        benign::check_degree(&undirected, &params)?;

        let mut ledger = Ledger::new(n);

        // Phase 1: CreateExpander over all n nodes (joiners included; the fault
        // router keeps them dormant until their join round).
        let phase = Phase::create_expander(g, &params, faults.clone());
        let Some(construction) = self.run_phase(exec, &mut ledger, phase, sink)? else {
            return Ok(ledger.into_report());
        };
        let alive1 = construction.alive;
        let slots = construction.summaries;
        check_digests(PhaseId::CreateExpander, n, &slots, |s| s)?;

        // Hand-off 1: the survivor-induced final evolution graph; edges into dead
        // nodes dangle and are pruned. If the survivors fragment, continue on the
        // largest component — the "core" — and report the fragmentation.
        let survivors: Vec<usize> = (0..n).filter(|&i| alive1[i]).collect();
        let full = survivor_graph(&slots, &alive1);
        let comps = analysis::connected_components(&full);
        let mut sizes: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for &v in &survivors {
            *sizes.entry(comps.label(NodeId::from(v))).or_insert(0) += 1;
        }
        let component_count = sizes.len();
        let Some((&core_comp, &core_size)) =
            sizes.iter().max_by_key(|&(&comp, &size)| (size, comp))
        else {
            // Everyone crashed during construction.
            ledger.fragmented(0, 0);
            return Ok(ledger.into_report());
        };
        if component_count > 1 {
            ledger.fragmented(component_count, core_size);
        }
        let core_old_ids: Vec<usize> = survivors
            .into_iter()
            .filter(|&v| comps.label(NodeId::from(v)) == core_comp)
            .collect();
        let mut old_to_new = vec![None; n];
        for (new, &old) in core_old_ids.iter().enumerate() {
            old_to_new[old] = Some(new);
        }
        let m = core_old_ids.len();
        let expander = core_graph(full, &core_old_ids, &old_to_new, params.delta);
        ledger.adopt_core(core_old_ids);

        // Phase 2: BFS on the core expander, under the remainder of the fault plan.
        let offset1 = construction.rounds;
        let bfs_faults = remap_plan(&faults.shifted(offset1), &old_to_new);
        let phase = Phase::bfs(&expander, &params, bfs_faults);
        let Some(bfs_run) = self.run_phase(exec, &mut ledger, phase, sink)? else {
            return Ok(ledger.into_report());
        };
        let alive2 = bfs_run.alive;
        let bfs = bfs_run.summaries;
        check_digests(PhaseId::Bfs, m, &bfs, |b| {
            [&b.root, &b.parent].into_iter().chain(&b.children)
        })?;

        // Hand-off 2: convergence among the nodes still alive — one shared root,
        // no self-parents.
        let root = bfs
            .iter()
            .enumerate()
            .find(|(i, _)| alive2[*i])
            .map(|(_, b)| b.root);
        let converged = match root {
            None => false,
            Some(root) => bfs.iter().enumerate().all(|(i, node)| {
                let id = NodeId::from(i);
                !alive2[i] || (node.root == root && (id == root || node.parent != id))
            }),
        };
        if !converged {
            let agreeing = bfs
                .iter()
                .enumerate()
                .filter(|(i, b)| !alive2[*i] || Some(b.root) == root)
                .count();
            ledger.stall("bfs-convergence", bfs_run.rounds, agreeing, m);
            return Ok(ledger.into_report());
        }
        let bfs_parents: Vec<NodeId> = bfs.iter().map(|b| b.parent).collect();

        // Phase 3: binarization into a well-formed tree.
        let offset2 = offset1 + bfs_run.rounds;
        let bin_faults = remap_plan(&faults.shifted(offset2), &old_to_new);
        let phase = Phase::binarize(&bfs, bin_faults);
        let Some(bin_run) = self.run_phase(exec, &mut ledger, phase, sink)? else {
            return Ok(ledger.into_report());
        };
        let alive3 = bin_run.alive;
        let parents = bin_run.summaries;
        check_digests(PhaseId::Binarize, m, &parents, std::slice::from_ref)?;

        // Hand-off 3: the finalize validation judges binarization's success.
        let tree = WellFormedTree::from_parents_over(parents, &alive3);
        let rounds = bin_run.rounds;
        match tree {
            Some(_) => ledger.event("finalize", PhaseOutcome::Completed { rounds }),
            None => {
                let alive = alive3.iter().filter(|a| **a).count();
                ledger.stall("finalize", rounds, alive, m);
            }
        }
        let mut report = ledger.into_report();
        report.tree_valid_over_alive = tree.as_ref().is_some_and(|t| t.is_valid_over(&alive3));
        report.result = tree.map(|tree| OverlayResult {
            expander,
            bfs_parents,
            tree,
            rounds: report.rounds,
            messages: report.messages,
        });
        report.alive_at_end = alive3;
        Ok(report)
    }
}

/// The report of one pipeline run while it is being written: per-phase rounds,
/// events, message books and — when the executor is the simulator — the
/// per-node totals and [`PhaseMetrics`] rollups only a [`SimDetail`] carries.
struct Ledger {
    report: BuildReport,
    /// The round budget of the phase booked last; derived steps that stall
    /// *after* that phase ran (`bfs-convergence`, `finalize`) report against it.
    budget: usize,
    total_sent_per_node: Vec<u64>,
    /// Original ids of the core nodes once the pipeline has remapped onto the
    /// survivor core; phases booked after [`Ledger::adopt_core`] fold their
    /// per-node totals (and inherited-crash corrections) through this mapping.
    core: Option<Vec<usize>>,
}

impl Ledger {
    fn new(n: usize) -> Self {
        Ledger {
            report: BuildReport {
                result: None,
                phases: Vec::new(),
                survivor_ids: Vec::new(),
                alive_at_end: Vec::new(),
                tree_valid_over_alive: false,
                rounds: RoundBreakdown::default(),
                messages: MessageStats::default(),
                crashed: 0,
                joined: 0,
                phase_metrics: Vec::new(),
            },
            budget: 0,
            total_sent_per_node: vec![0; n],
            core: None,
        }
    }

    /// Books one executed construction phase: its rounds, its message books,
    /// and either its stall (returning `false`) or its completion event.
    /// Binarization pushes no completion event of its own — it completes only
    /// if the `finalize` validation accepts the tree.
    fn book<S>(
        &mut self,
        id: PhaseId,
        budget: usize,
        run: &ExecutedPhase<S>,
        detail: Option<SimDetail>,
    ) -> bool {
        let rounds = run.rounds;
        self.budget = budget;
        match id {
            PhaseId::CreateExpander => self.report.rounds.construction = rounds,
            PhaseId::Bfs => self.report.rounds.bfs = rounds,
            PhaseId::Binarize => self.report.rounds.finalize = rounds,
            PhaseId::Traffic => unreachable!("traffic is not a construction phase"),
        }
        let nodes_done = match detail {
            Some(detail) => {
                self.absorb(&detail.metrics);
                self.report.phase_metrics.push(PhaseMetrics {
                    phase: id.name(),
                    rounds: detail.metrics.rounds,
                    totals: *detail.metrics.totals(),
                    wall: detail.wall,
                });
                detail.done_count
            }
            None => {
                self.report.messages.total_delivered += run.delivered;
                // All a summary-only executor reveals: the dead count as done.
                run.alive.iter().filter(|a| !**a).count()
            }
        };
        if !run.all_done {
            self.stall(id.name(), rounds, nodes_done, run.alive.len());
            return false;
        }
        if id != PhaseId::Binarize {
            self.event(id.name(), PhaseOutcome::Completed { rounds });
        }
        true
    }

    /// Folds one simulated phase's metrics into the report. For phases running
    /// on the remapped core, crashes recorded at round 0 are *inherited* (a
    /// prior phase's crash pinned there by [`FaultPlan::shifted`]) and were
    /// already counted, so they are skipped, and per-node totals are mapped
    /// back to original ids.
    fn absorb(&mut self, metrics: &RunMetrics) {
        let totals = metrics.totals();
        self.report.messages.absorb(totals);
        let inherited = if self.core.is_some() {
            metrics.first_round_crashed()
        } else {
            0
        };
        self.report.crashed += totals.crashed - inherited;
        self.report.joined += totals.joined;
        for (i, s) in metrics.total_sent_per_node.iter().enumerate() {
            let orig = self.core.as_ref().map_or(i, |ids| ids[i]);
            self.total_sent_per_node[orig] += s;
        }
    }

    fn event(&mut self, name: &'static str, outcome: PhaseOutcome) {
        self.report.phases.push((name, outcome));
    }

    /// Records a stalled phase (or derived step, e.g. `bfs-convergence`). Every
    /// stall exits the pipeline.
    fn stall(&mut self, phase: &'static str, rounds: usize, nodes_done: usize, nodes_total: usize) {
        let outcome = PhaseOutcome::Stalled {
            rounds,
            budget: self.budget,
            nodes_done,
            nodes_total,
        };
        self.event(phase, outcome);
    }

    /// Records post-construction fragmentation of the survivors (the
    /// `survivor-connectivity` derived step).
    fn fragmented(&mut self, components: usize, core_size: usize) {
        let outcome = PhaseOutcome::Fragmented {
            components,
            core_size,
        };
        self.event("survivor-connectivity", outcome);
    }

    /// Declares the survivor core the pipeline continues with:
    /// `core_old_ids[i]` is the original id of remapped node `i`.
    fn adopt_core(&mut self, core_old_ids: Vec<usize>) {
        self.report.survivor_ids = core_old_ids.iter().map(|&v| NodeId::from(v)).collect();
        self.core = Some(core_old_ids);
    }

    /// Closes the per-node totals and hands the report back for the final
    /// hand-off (tree validation) or an early exit.
    fn into_report(self) -> BuildReport {
        let mut report = self.report;
        report.messages.max_total_per_node =
            self.total_sent_per_node.iter().copied().max().unwrap_or(0);
        report
    }
}

/// The strict contract [`OverlayBuilder::build`] and
/// [`OverlayBuilder::build_over`] share: a report is a result only if its tree
/// is valid and contains every one of the `n` input nodes. A fragmented
/// (partial-core) result — possible without faults only when the w.h.p.
/// connectivity of `G_L` fails — is an error here, not a silently smaller tree.
fn strict_result(report: BuildReport, n: usize) -> Result<OverlayResult, OverlayError> {
    let full_core = report.survivor_ids.len() == n;
    match report.result {
        None => Err(failure_error(&report)),
        Some(_) if !full_core => Err(fragmentation_error(&report)),
        Some(result) if report.tree_valid_over_alive => Ok(result),
        Some(_) => Err(OverlayError::FinalizeFailed),
    }
}

/// Maps a result-less clean-path report to the honest error for its final phase
/// event: a budget stall is [`OverlayError::PhaseIncomplete`], but the `finalize`
/// event is a validation verdict (the binarization rounds completed; the parents
/// formed no valid rooted tree), so blaming its budget would be dishonest —
/// that is [`OverlayError::FinalizeFailed`]. Total fragmentation (every node
/// crashed) is the only way a result-less report ends on a non-stall event.
fn failure_error(report: &BuildReport) -> OverlayError {
    let (phase, outcome) = report
        .phases
        .last()
        .copied()
        .expect("a failed report names the failing phase");
    match outcome {
        PhaseOutcome::Stalled { .. } if phase == "finalize" => OverlayError::FinalizeFailed,
        PhaseOutcome::Stalled { budget, .. } => OverlayError::PhaseIncomplete { phase, budget },
        PhaseOutcome::Fragmented {
            components,
            core_size,
        } => OverlayError::Fragmented {
            components,
            core_size,
        },
        PhaseOutcome::Completed { .. } => {
            unreachable!("a completed final phase always carries a result")
        }
    }
}

/// Maps a partial-core clean-path report to the honest [`OverlayError::Fragmented`]:
/// the recorded `survivor-connectivity` event carries the component counts.
fn fragmentation_error(report: &BuildReport) -> OverlayError {
    report
        .phases
        .iter()
        .find_map(|(name, outcome)| match outcome {
            PhaseOutcome::Fragmented {
                components,
                core_size,
            } if *name == "survivor-connectivity" => Some(OverlayError::Fragmented {
                components: *components,
                core_size: *core_size,
            }),
            _ => None,
        })
        .expect("a partial core is always preceded by a fragmentation event")
}

/// Refuses `phase`'s digests unless there is one per node of the phase's `n`
/// and every id they hold (`ids` of a digest) names one of those nodes. Digests
/// gathered from other ranks are outside input, and the hand-offs index by
/// every id in them.
fn check_digests<'a, S, I>(
    phase: PhaseId,
    n: usize,
    digests: &'a [S],
    ids: impl Fn(&'a S) -> I,
) -> Result<(), OverlayError>
where
    I: IntoIterator<Item = &'a NodeId>,
{
    let refuse = |what: String| Err(OverlayError::Backend(format!("{} {what}", phase.name())));
    if digests.len() != n {
        return refuse(format!("returned {} digests for {n} nodes", digests.len()));
    }
    for (v, digest) in digests.iter().enumerate() {
        if let Some(id) = ids(digest).into_iter().find(|id| id.index() >= n) {
            return refuse(format!(
                "digest of node {v} names {id}, outside its {n} nodes"
            ));
        }
    }
    Ok(())
}

/// The survivor-induced final evolution graph, read off the per-node slot
/// digests (in node order) and indexed by *original* ids: dead nodes stay as
/// isolated vertices, edges into them are pruned, and every list comes out
/// neighbours ascending, self-loops last.
///
/// Under message loss an Accept can be dropped, leaving an edge in only one
/// endpoint's slots; such half-acknowledged edges are *included* (one-sided
/// knowledge suffices to re-establish contact in the NCC0 model), with the
/// multiplicity the better-informed side holds — `max(k_vw, k_wv)` — so the
/// reconstruction depends on protocol state only, never on id order. Clean runs
/// hold every edge symmetrically, and `max(k, k) == k` reproduces the exact
/// fault-free graph.
fn survivor_graph(nodes: &[Vec<NodeId>], alive: &[bool]) -> UGraph {
    let n = alive.len();
    // Per alive node: its alive non-self slot targets, ascending.
    let mut targets: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut self_loops = vec![0usize; n];
    for (v, slots) in nodes.iter().enumerate() {
        if !alive[v] {
            continue;
        }
        for w in slots.iter().map(|w| w.index()) {
            if w == v {
                self_loops[v] += 1;
            } else if alive[w] {
                targets[v].push(w);
            }
        }
        targets[v].sort_unstable();
    }
    // Repair: wherever `v` lists `w` more often than `w` lists `v`, `w` is
    // owed the difference.
    let mut owed: Vec<(usize, usize)> = Vec::new();
    for (v, list) in targets.iter().enumerate() {
        for run in list.chunk_by(|a, b| a == b) {
            let w = run[0];
            let back = &targets[w];
            let held = back.partition_point(|&x| x <= v) - back.partition_point(|&x| x < v);
            owed.extend((held..run.len()).map(|_| (w, v)));
        }
    }
    for (w, v) in owed {
        let at = targets[w].partition_point(|&x| x < v);
        targets[w].insert(at, v);
    }
    // Every edge once, from its lower end, in ascending `(v, w)` order.
    let mut g = UGraph::new(n);
    for (v, list) in targets.iter().enumerate() {
        for &w in list.iter().filter(|&&w| w > v) {
            g.add_edge(NodeId::from(v), NodeId::from(w));
        }
    }
    for (v, &loops) in self_loops.iter().enumerate() {
        for _ in 0..loops {
            g.add_self_loop(NodeId::from(v));
        }
    }
    g
}

/// The core of the survivor graph `full`, reindexed to `0..core.len()` (slot
/// lists pre-sized to `capacity`). A core of all nodes is `full` itself. A
/// smaller one is its induced subgraph plus each core node's self-loops, which
/// is everything a core node's slots hold: its edges to other survivors stay
/// inside the core, a connected component of this very graph.
fn core_graph(
    full: UGraph,
    core: &[usize],
    old_to_new: &[Option<usize>],
    capacity: usize,
) -> UGraph {
    if core.len() == full.node_count() {
        return full;
    }
    let mut g = full.induced(old_to_new, core.len(), capacity);
    for (new, &old) in core.iter().enumerate() {
        for _ in 0..full.self_loops(NodeId::from(old)) {
            g.add_self_loop(NodeId::from(new));
        }
    }
    g
}

/// Restricts a (already time-shifted) fault plan to the remapped core: events for
/// dead nodes disappear, joins are dropped entirely (nodes that had not joined by the
/// end of construction missed the overlay), and partitions keep only their core
/// members.
fn remap_plan(plan: &FaultPlan, old_to_new: &[Option<usize>]) -> FaultPlan {
    FaultPlan {
        drop_prob: plan.drop_prob,
        loss_from: plan.loss_from,
        delay: plan.delay,
        crashes: plan
            .crashes
            .iter()
            .filter_map(|c| {
                old_to_new[c.node.index()].map(|i| CrashEvent {
                    round: c.round,
                    node: NodeId::from(i),
                })
            })
            .collect(),
        joins: Vec::new(),
        partitions: plan
            .partitions
            .iter()
            .map(|p| Partition {
                from_round: p.from_round,
                heal_round: p.heal_round,
                side_a: p
                    .side_a
                    .iter()
                    .filter_map(|v| old_to_new[v.index()].map(NodeId::from))
                    .collect(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsNode;
    use crate::expander::ExpanderNode;
    use overlay_graph::generators;
    use overlay_netsim::caps::log2_ceil;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// Hand-off 1 as it was before `survivor_graph` read the slot digests
    /// directly: the alive-to-alive slot edges collected into one ordered map,
    /// from which both the survivor graph (original ids) and the remapped core
    /// graph were built, edge by edge. Kept as the specification.
    struct SlotEdges {
        /// Undirected edge multiplicities between alive nodes: `(smaller id,
        /// larger id) -> (multiplicity at smaller, multiplicity at larger)`.
        pairs: BTreeMap<(usize, usize), (usize, usize)>,
        /// Per-node self-loop counts (alive nodes only; dead nodes stay at zero).
        self_loops: Vec<usize>,
    }

    impl SlotEdges {
        /// Collects the slot edges among `alive` nodes, plus per-node self-loop counts.
        ///
        /// Under message loss an Accept can be dropped, leaving an edge in only one
        /// endpoint's slots; such half-acknowledged edges are *included* (one-sided
        /// knowledge suffices to re-establish contact in the NCC0 model), with the
        /// multiplicity the better-informed side holds — so the reconstruction depends on
        /// protocol state only, never on id order. Clean runs hold every edge
        /// symmetrically, and `max(k, k) == k` reproduces the exact fault-free graph.
        fn collect(nodes: &[Vec<NodeId>], alive: &[bool]) -> SlotEdges {
            let mut pairs = BTreeMap::new();
            let mut self_loops = vec![0usize; alive.len()];
            for (v, slots) in nodes.iter().enumerate() {
                if !alive[v] {
                    continue;
                }
                for &w in slots {
                    let w = w.index();
                    if w == v {
                        self_loops[v] += 1;
                    } else if alive[w] {
                        let (key, side) = if v < w { ((v, w), 0) } else { ((w, v), 1) };
                        let entry = pairs.entry(key).or_insert((0, 0));
                        if side == 0 {
                            entry.0 += 1;
                        } else {
                            entry.1 += 1;
                        }
                    }
                }
            }
            SlotEdges { pairs, self_loops }
        }

        /// The survivor-induced final evolution graph indexed by *original* ids; dead
        /// nodes stay as isolated vertices and edges into them are pruned.
        fn survivor_graph(&self) -> UGraph {
            let mut g = UGraph::new(self.self_loops.len());
            for (&(a, b), &(from_a, from_b)) in &self.pairs {
                for _ in 0..from_a.max(from_b) {
                    g.add_edge(NodeId::from(a), NodeId::from(b));
                }
            }
            for (v, &loops) in self.self_loops.iter().enumerate() {
                for _ in 0..loops {
                    g.add_self_loop(NodeId::from(v));
                }
            }
            g
        }

        /// The core subgraph reindexed to `0..core.len()`, with the same half-edge
        /// semantics as [`SlotEdges::survivor_graph`].
        ///
        /// Restricting the one collected edge set to the core is exactly the edge set a
        /// second collection pass over the core would produce: a core node's slot entries
        /// to non-core survivors form cross-component pairs — impossible, since the core
        /// is a connected component of the graph these very pairs induce — so for
        /// core-to-core pairs both multiplicities are untouched by the restriction, and
        /// self-loops only depend on the node itself being alive.
        fn remapped(&self, core: &[usize], old_to_new: &[Option<usize>]) -> UGraph {
            let mut g = UGraph::new(core.len());
            for (&(a, b), &(from_a, from_b)) in &self.pairs {
                let (Some(na), Some(nb)) = (old_to_new[a], old_to_new[b]) else {
                    continue;
                };
                for _ in 0..from_a.max(from_b) {
                    g.add_edge(NodeId::from(na), NodeId::from(nb));
                }
            }
            for &old in core {
                let v = old_to_new[old].expect("core nodes are mapped");
                for _ in 0..self.self_loops[old] {
                    g.add_self_loop(NodeId::from(v));
                }
            }
            g
        }
    }

    /// Random slot digests the protocol could never leave behind but the
    /// hand-off must still read the same way: dead nodes, slots into dead
    /// nodes, edges listed at one end only or more often at one end than the
    /// other (in both id directions), and few enough edges that the survivors
    /// fragment.
    fn random_digests(rng: &mut StdRng) -> (Vec<Vec<NodeId>>, Vec<bool>) {
        let n = rng.gen_range(1..24usize);
        let alive: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.75)).collect();
        let mut slots: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for _ in 0..rng.gen_range(0..3 * n) {
            let (v, w) = (rng.gen_range(0..n), rng.gen_range(0..n));
            // Up to three copies at each end, independently: (k, 0) and (0, k)
            // are half-acknowledged edges, (2, 3) a multiplicity disagreement.
            for _ in 0..rng.gen_range(0..4usize) {
                slots[v].push(NodeId::from(w));
            }
            for _ in 0..rng.gen_range(0..4usize) {
                slots[w].push(NodeId::from(v));
            }
        }
        for list in &mut slots {
            list.shuffle(rng);
        }
        (slots, alive)
    }

    #[test]
    fn survivor_and_core_graphs_match_the_edge_map_reference() {
        let (mut fragmented, mut repaired, mut whole) = (0, 0, 0);
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (nodes, alive) = random_digests(&mut rng);
            let n = alive.len();
            let reference = SlotEdges::collect(&nodes, &alive);
            repaired += usize::from(reference.pairs.values().any(|&(a, b)| a != b));
            let full = survivor_graph(&nodes, &alive);
            // Slot order included: `UGraph`'s `PartialEq` is derived.
            assert_eq!(full, reference.survivor_graph(), "seed {seed}");

            // Every component of the survivors as the core, not only the
            // largest, and once the whole survivor set (all n when nobody died).
            let comps = analysis::connected_components(&full);
            let label = |v: usize| comps.label(NodeId::from(v));
            let survivors: Vec<usize> = (0..n).filter(|&v| alive[v]).collect();
            let mut cores: Vec<Vec<usize>> = survivors
                .iter()
                .map(|&v| label(v))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .map(|c| {
                    survivors
                        .iter()
                        .copied()
                        .filter(|&v| label(v) == c)
                        .collect()
                })
                .collect();
            fragmented += usize::from(cores.len() > 1);
            whole += usize::from(survivors.len() == n);
            cores.push(survivors);
            for core in cores {
                let mut old_to_new = vec![None; n];
                for (new, &old) in core.iter().enumerate() {
                    old_to_new[old] = Some(new);
                }
                assert_eq!(
                    core_graph(full.clone(), &core, &old_to_new, 8),
                    reference.remapped(&core, &old_to_new),
                    "seed {seed}, core {core:?}"
                );
            }
        }
        // The generator reaches all three cases the hand-off distinguishes.
        assert!(
            fragmented > 100 && repaired > 100 && whole > 10,
            "{fragmented} {repaired} {whole}"
        );
    }

    fn build(g: &DiGraph, seed: u64) -> OverlayResult {
        let params = ExpanderParams::for_n(g.node_count())
            .with_seed(seed)
            .with_walk_len(12);
        OverlayBuilder::new(params)
            .build(g)
            .expect("pipeline must succeed")
    }

    #[test]
    fn line_becomes_well_formed_tree() {
        let n = 128;
        let result = build(&generators::line(n), 21);
        assert!(result.tree.is_valid());
        assert_eq!(result.tree.node_count(), n);
        assert!(result.tree.max_degree() <= 4);
        let log_n = log2_ceil(n);
        assert!(
            result.tree.height() <= 4 * log_n * log2_ceil(log_n).max(1),
            "height {} too large",
            result.tree.height()
        );
        assert_eq!(result.messages.dropped_receive, 0);
        assert_eq!(result.messages.dropped_send, 0);
        assert_eq!(result.messages.dropped_fault, 0);
    }

    #[test]
    fn rounds_are_logarithmic_in_n() {
        let n = 64;
        let result = build(&generators::cycle(n), 3);
        let params = ExpanderParams::for_n(n);
        // The round count is determined by the parameter schedule, all Θ(log n).
        assert_eq!(
            result.rounds.construction,
            ExpanderNode::total_rounds(&ExpanderParams::for_n(n).with_walk_len(12))
        );
        assert_eq!(result.rounds.bfs, params.bfs_rounds + 1);
        assert_eq!(result.rounds.finalize, 1);
        assert_eq!(
            result.rounds.total(),
            result.rounds.construction + result.rounds.bfs + result.rounds.finalize
        );
    }

    #[test]
    fn message_bounds_hold() {
        let n = 128;
        let result = build(&generators::binary_tree(n), 5);
        let params = ExpanderParams::for_n(n);
        assert!(result.messages.max_per_node_per_round <= params.ncc0_cap);
        // O(log^2 n) total messages per node, with a generous constant.
        let log_n = log2_ceil(n) as u64;
        assert!(
            result.messages.max_total_per_node <= 40 * log_n * log_n,
            "total per-node messages {} exceed O(log^2 n)",
            result.messages.max_total_per_node
        );
    }

    #[test]
    fn build_over_sim_executor_matches_build() {
        use crate::seam::SimExecutor;
        for (g, seed) in [
            (generators::line(48), 3u64),
            (generators::binary_tree(96), 11),
        ] {
            let n = g.node_count();
            let params = ExpanderParams::for_n(n).with_seed(seed);
            let builder = OverlayBuilder::new(params);
            let direct = builder.build(&g).expect("build must succeed");
            let over = builder
                .build_over(&g, &mut SimExecutor::default())
                .expect("build_over must succeed");
            assert_eq!(over.expander.edge_count(), direct.expander.edge_count());
            for v in over.expander.nodes() {
                assert_eq!(over.expander.neighbors(v), direct.expander.neighbors(v));
            }
            assert_eq!(over.bfs_parents, direct.bfs_parents);
            assert_eq!(over.tree.node_count(), direct.tree.node_count());
            for v in (0..over.tree.node_count()).map(NodeId::from) {
                assert_eq!(over.tree.parent(v), direct.tree.parent(v));
            }
            assert_eq!(over.rounds.construction, direct.rounds.construction);
            assert_eq!(over.rounds.bfs, direct.rounds.bfs);
            assert_eq!(over.rounds.finalize, direct.rounds.finalize);
            assert_eq!(
                over.messages.total_delivered,
                direct.messages.total_delivered
            );
        }
    }

    #[test]
    fn public_and_internal_simulator_executors_are_one_path() {
        use crate::seam::SimExecutor;
        let n = 64;
        let g = generators::cycle(n);
        let params = ExpanderParams::for_n(n).with_seed(23);
        let builder = OverlayBuilder::new(params);
        let construction = ExpanderNode::total_rounds(&params);
        let crash_wave = (0..n / 8).fold(FaultPlan::default(), |plan, i| {
            plan.with_crash(NodeId::from(i * 8), construction / 3)
        });
        let side_a: Vec<NodeId> = (0..n / 2).map(NodeId::from).collect();
        for plan in [
            crash_wave,
            FaultPlan::default().with_drop_prob(0.02),
            FaultPlan::default().with_partition(side_a, construction / 2, construction + 4),
            FaultPlan::default().with_join(NodeId::from(3usize), construction / 2),
        ] {
            let internal = builder.build_under_faults(&g, &plan).expect("valid input");
            let public = builder
                .drive(&g, &plan, &mut SimExecutor::default(), None)
                .expect("valid input");
            assert_eq!(public.phases, internal.phases, "plan: {plan:?}");
            assert_eq!(public.survivor_ids, internal.survivor_ids);
            assert_eq!(public.alive_at_end, internal.alive_at_end);
            assert_eq!(public.rounds, internal.rounds);
            assert_eq!(public.messages, internal.messages);
            assert_eq!(public.phase_metrics, internal.phase_metrics);
            assert_eq!(
                (public.crashed, public.joined),
                (internal.crashed, internal.joined)
            );
            let overlay = |r: &BuildReport| {
                r.result
                    .as_ref()
                    .map(|o| (o.tree.clone(), o.expander.clone(), o.bfs_parents.clone()))
            };
            assert_eq!(overlay(&public), overlay(&internal));
        }

        // One strict contract: a fragmenting plan is the identical error on
        // either executor (`build` and `build_over` both end in `strict_result`).
        let total_loss = FaultPlan::default().with_drop_prob(1.0);
        let internal = builder
            .build_under_faults(&g, &total_loss)
            .expect("valid input");
        let public = builder
            .drive(&g, &total_loss, &mut SimExecutor::default(), None)
            .expect("valid input");
        let expected = OverlayError::Fragmented {
            components: n,
            core_size: 1,
        };
        assert_eq!(strict_result(internal, n).unwrap_err(), expected);
        assert_eq!(strict_result(public, n).unwrap_err(), expected);
    }

    #[test]
    fn exec_spec_resolves_overrides_against_defaults() {
        let params = ExpanderParams::for_n(32).with_seed(40);
        let reliable = TransportConfig::default().with_retransmit_after(7);
        let builder = OverlayBuilder::new(params)
            .with_round_budget(RoundBudget::percent(150))
            .with_phase_overrides(
                PhaseOverrides::none()
                    .with_budget(PhaseId::Bfs, RoundBudget::percent(300))
                    .with_transport(PhaseId::Binarize, reliable),
            );
        // Overridden phases use their own values...
        assert_eq!(builder.exec_spec(PhaseId::Bfs, 10).budget, 30);
        assert_eq!(
            builder.exec_spec(PhaseId::Binarize, 10).transport,
            Some(reliable)
        );
        // ...everything else inherits the builder-wide defaults.
        let construction = builder.exec_spec(PhaseId::CreateExpander, 10);
        assert_eq!(construction.budget, 15);
        assert_eq!(construction.transport, None);
        assert_eq!(builder.exec_spec(PhaseId::Bfs, 10).transport, None);
        // A builder-wide transport fills only the phases left unset.
        let everywhere = TransportConfig::default();
        let builder = builder.with_reliable_transport(everywhere);
        assert_eq!(
            builder.exec_spec(PhaseId::Binarize, 10).transport,
            Some(reliable)
        );
        assert_eq!(
            builder.exec_spec(PhaseId::Bfs, 10).transport,
            Some(everywhere)
        );
        // Each phase draws from its own offset of the builder's seed.
        assert_eq!(
            PhaseId::ALL.map(|id| builder.exec_spec(id, 10).seed),
            [40, 41, 42]
        );
        assert_eq!(construction.ncc0_cap, params.ncc0_cap);
    }

    #[test]
    fn rejects_disconnected_graphs() {
        let g = generators::disjoint_union(&[generators::line(8), generators::line(8)]);
        let params = ExpanderParams::for_n(16);
        assert_eq!(
            OverlayBuilder::new(params).build(&g).unwrap_err(),
            OverlayError::Disconnected
        );
    }

    #[test]
    fn rejects_empty_and_high_degree_graphs() {
        let params = ExpanderParams::for_n(8);
        assert_eq!(
            OverlayBuilder::new(params)
                .build(&DiGraph::new(0))
                .unwrap_err(),
            OverlayError::EmptyGraph
        );
        let star = generators::star(64);
        let params = ExpanderParams::for_n(64);
        assert!(matches!(
            OverlayBuilder::new(params).build(&star).unwrap_err(),
            OverlayError::DegreeTooLarge { .. }
        ));
    }

    /// The plan's fields are public; what `FaultPlan::with_join` refuses is
    /// refused when it arrives as a struct literal too.
    #[test]
    fn rejects_a_join_at_round_zero() {
        let plan = FaultPlan {
            joins: vec![overlay_netsim::JoinEvent {
                round: 0,
                node: NodeId::from(3usize),
            }],
            ..FaultPlan::default()
        };
        let report = OverlayBuilder::new(ExpanderParams::for_n(16))
            .build_under_faults(&generators::line(16), &plan);
        assert_eq!(
            report.unwrap_err(),
            OverlayError::InvalidParams("node 3 joins at round 0, which is a normal start".into())
        );
    }

    /// As [`rejects_a_join_at_round_zero`], for `FaultPlan::with_partition`'s
    /// empty window.
    #[test]
    fn rejects_an_empty_partition_window() {
        let plan = FaultPlan {
            partitions: vec![overlay_netsim::Partition {
                from_round: 7,
                heal_round: 4,
                side_a: vec![NodeId::from(0usize)],
            }],
            ..FaultPlan::default()
        };
        let report = OverlayBuilder::new(ExpanderParams::for_n(16))
            .build_under_faults(&generators::line(16), &plan);
        assert_eq!(
            report.unwrap_err(),
            OverlayError::InvalidParams("partition window 7..4 is empty".into())
        );
    }

    #[test]
    fn bfs_parents_form_spanning_tree_of_expander() {
        let n = 96;
        let result = build(&generators::cycle(n), 9);
        let simple = result.expander.simplify();
        assert!(analysis::is_spanning_tree(&simple, &result.bfs_parents));
    }

    #[test]
    fn clean_fault_report_matches_clean_build() {
        let n = 64;
        let g = generators::line(n);
        let params = ExpanderParams::for_n(n).with_seed(17);
        let builder = OverlayBuilder::new(params);
        let clean = builder.build(&g).expect("clean build succeeds");
        let report = builder
            .build_under_faults(&g, &FaultPlan::default())
            .expect("clean report succeeds");
        assert!(report.is_success());
        assert_eq!(report.survivor_ids.len(), n);
        assert!((report.coverage(n) - 1.0).abs() < 1e-12);
        assert_eq!(report.crashed, 0);
        assert_eq!(report.joined, 0);
        let faulty_result = report.result.expect("result present");
        assert_eq!(faulty_result.rounds, clean.rounds);
        assert_eq!(faulty_result.tree, clean.tree);
    }

    #[test]
    fn crash_wave_is_surfaced_not_erased() {
        let n = 96;
        let g = generators::cycle(n);
        let params = ExpanderParams::for_n(n).with_seed(23);
        // A wave of crashes one third into the construction schedule.
        let crash_round = ExpanderNode::total_rounds(&params) / 3;
        let mut plan = FaultPlan::default();
        for i in 0..n / 8 {
            plan = plan.with_crash(NodeId::from(i * 8), crash_round);
        }
        let report = OverlayBuilder::new(params)
            .build_under_faults(&g, &plan)
            .expect("input is valid");
        assert_eq!(report.crashed, n / 8);
        // Survivors never include the crashed nodes.
        assert!(report.survivor_ids.iter().all(|v| v.index() % 8 != 0));
        // Whatever the outcome, the report accounts for every phase that ran and the
        // books balance: nothing vanished without being recorded.
        assert!(!report.phases.is_empty());
        assert!(report.messages.dropped_offline > 0);
        if let Some(result) = &report.result {
            assert_eq!(result.tree.node_count(), report.survivor_ids.len());
        }
    }

    #[test]
    fn total_loss_collapses_the_core_to_a_singleton() {
        // With every message lost, the evolution schedule still runs to completion
        // (it is round-driven), but no node ever rewires: the final graph is all
        // self-loops, the survivors fragment into n singletons, and the pipeline
        // honestly reports a 1-node core instead of claiming a full overlay.
        let n = 32;
        let g = generators::cycle(n);
        let params = ExpanderParams::for_n(n).with_seed(3);
        let report = OverlayBuilder::new(params)
            .build_under_faults(&g, &FaultPlan::default().with_drop_prob(1.0))
            .expect("input is valid");
        let fragmented = report
            .phases
            .iter()
            .find(|(name, _)| *name == "survivor-connectivity")
            .expect("fragmentation must be reported");
        assert!(matches!(
            fragmented.1,
            PhaseOutcome::Fragmented {
                components: 32,
                core_size: 1
            }
        ));
        assert_eq!(report.survivor_ids.len(), 1);
        assert!(report.coverage(n) < 0.05);
        assert!(report.messages.dropped_fault > 0);
        // The clean path stays unaffected by fault plans elsewhere.
        assert!(OverlayBuilder::new(params).build(&g).is_ok());
    }

    #[test]
    fn crashes_after_construction_are_counted_once() {
        let n = 64;
        let g = generators::cycle(n);
        let params = ExpanderParams::for_n(n).with_seed(7);
        // One crash landing in the BFS phase: shifted() pins it to round 0 of the
        // binarize phase too, but it must appear exactly once in the report.
        let crash_round = ExpanderNode::total_rounds(&params) + 3;
        let plan = FaultPlan::default().with_crash(NodeId::from(5usize), crash_round);
        let report = OverlayBuilder::new(params)
            .build_under_faults(&g, &plan)
            .expect("valid input");
        assert_eq!(report.crashed, 1);
        // The node made it into the core (it was alive through construction) but is
        // dead at the end.
        assert!(report.survivor_ids.contains(&NodeId::from(5usize)));
        if !report.alive_at_end.is_empty() {
            let idx = report
                .survivor_ids
                .iter()
                .position(|v| *v == NodeId::from(5usize))
                .unwrap();
            assert!(!report.alive_at_end[idx]);
        }
    }

    #[test]
    fn binarize_window_crash_still_reports_the_survivor_tree() {
        let n = 64;
        let g = generators::cycle(n);
        let params = ExpanderParams::for_n(n).with_seed(11);
        // Pick a victim that ends up a non-root leaf of the (deterministic) clean
        // tree: its death in the binarize window orphans nobody.
        let clean = OverlayBuilder::new(params).build(&g).expect("clean build");
        let victim = g
            .nodes()
            .find(|&v| v != clean.tree.root() && clean.tree.children(v).is_empty())
            .expect("a constant-degree tree has leaves");
        // Crash lands in the binarize phase: the victim's stale self-parent must be
        // tolerated as a dangle, not miscounted as a second root.
        let crash_round =
            ExpanderNode::total_rounds(&params) + BfsNode::total_rounds(params.bfs_rounds) + 1;
        let plan = FaultPlan::default().with_crash(victim, crash_round);
        let report = OverlayBuilder::new(params)
            .build_under_faults(&g, &plan)
            .expect("valid input");
        assert!(report.result.is_some(), "phases: {:?}", report.phases);
        assert!(report.tree_valid_over_alive);
        assert!(report.is_success());
        assert_eq!(report.crashed, 1);
        let alive = report.alive_at_end.iter().filter(|a| **a).count();
        assert_eq!(alive, n - 1);
        assert!((report.coverage(n) - (n - 1) as f64 / n as f64).abs() < 1e-12);
        // The dead leaf is detached: tree metrics measure the alive tree only.
        let tree = &report.result.as_ref().unwrap().tree;
        assert!(tree.max_degree() <= 4);
        assert_eq!(tree.parent(victim), victim);
    }

    #[test]
    fn round_budget_rescues_a_join_past_the_clean_schedule() {
        let n = 32;
        let g = generators::cycle(n);
        let params = ExpanderParams::for_n(n).with_seed(13);
        // The joiner activates exactly when the clean budget runs out, so it needs
        // one more round than the clean schedule to flag itself done.
        let base = ExpanderNode::total_rounds(&params) + 2;
        let plan = FaultPlan::default().with_join(NodeId::from(3usize), base);
        let standard = OverlayBuilder::new(params)
            .build_under_faults(&g, &plan)
            .expect("valid input");
        assert_eq!(standard.stalled_phase(), Some("create-expander"));
        let generous = OverlayBuilder::new(params)
            .with_round_budget(RoundBudget::percent(150))
            .build_under_faults(&g, &plan)
            .expect("valid input");
        assert!(
            generous
                .phases
                .iter()
                .any(|(name, o)| *name == "create-expander" && !o.is_stall()),
            "phases: {:?}",
            generous.phases
        );
        // The declared multiplier never perturbs runs that fit the clean schedule.
        let clean = OverlayBuilder::new(params)
            .with_round_budget(RoundBudget::percent(300))
            .build(&g)
            .expect("clean build succeeds");
        assert_eq!(
            clean.rounds,
            OverlayBuilder::new(params).build(&g).unwrap().rounds
        );
    }

    #[test]
    fn reliable_transport_is_transparent_on_a_clean_network() {
        let n = 64;
        let g = generators::cycle(n);
        let params = ExpanderParams::for_n(n).with_seed(29).with_walk_len(12);
        let bare = OverlayBuilder::new(params).build(&g).expect("clean build");
        let reliable = OverlayBuilder::new(params)
            .with_reliable_transport(TransportConfig::default())
            .build_under_faults(&g, &FaultPlan::default())
            .expect("valid input");
        assert!(reliable.is_success());
        let result = reliable.result.expect("completed");
        // The transport never touches the node RNGs and adds no latency on a
        // clean network, so the constructed overlay is *identical*; only ack
        // traffic (and the final ack round-trips at each phase's end) is added.
        assert_eq!(result.tree, bare.tree);
        assert_eq!(result.expander, bare.expander);
        assert_eq!(result.bfs_parents, bare.bfs_parents);
        assert_eq!(reliable.messages.retransmits, 0);
        assert_eq!(reliable.messages.dupes_dropped, 0);
        assert!(reliable.messages.acks > 0);
        assert_eq!(bare.messages.acks, 0, "the bare pipeline has no transport");
        // The drain adds at most the ack round-trip per phase, within the
        // standard budget.
        assert!(result.rounds.total() <= bare.rounds.total() + 3);
    }

    #[test]
    fn reliable_transport_rescues_lossy_binarization() {
        // Seed 1 of the `lossy-ncc0` scenario (0.2% loss, cycle/128): the bare
        // pipeline loses a relink message in the one-round binarization and fails at
        // `finalize`. The transport retransmits it and completes the tree.
        let n = 128;
        let g = generators::cycle(n);
        let params = ExpanderParams::for_n(n).with_seed(1);
        let plan = FaultPlan::default().with_drop_prob(0.002);
        let bare = OverlayBuilder::new(params)
            .build_under_faults(&g, &plan)
            .expect("valid input");
        assert!(
            !bare.is_success(),
            "seed 1 must reproduce the baseline failure: {:?}",
            bare.phases
        );
        let reliable = OverlayBuilder::new(params)
            .with_reliable_transport(TransportConfig::default())
            .with_round_budget(RoundBudget::percent(200))
            .build_under_faults(&g, &plan)
            .expect("valid input");
        assert!(
            reliable.is_success(),
            "transport must rescue the run: {:?}",
            reliable.phases
        );
        assert!((reliable.coverage(n) - 1.0).abs() < 1e-12);
        // The reliability overhead is visible, not hidden.
        assert!(reliable.messages.retransmits > 0);
        assert!(reliable.messages.acks > 0);
    }

    #[test]
    fn fragmentation_error_carries_the_component_counts() {
        let report = BuildReport {
            result: None,
            phases: vec![
                ("create-expander", PhaseOutcome::Completed { rounds: 10 }),
                (
                    "survivor-connectivity",
                    PhaseOutcome::Fragmented {
                        components: 4,
                        core_size: 10,
                    },
                ),
            ],
            survivor_ids: Vec::new(),
            alive_at_end: Vec::new(),
            tree_valid_over_alive: false,
            rounds: RoundBreakdown::default(),
            messages: MessageStats::default(),
            crashed: 0,
            joined: 0,
            phase_metrics: Vec::new(),
        };
        assert_eq!(
            fragmentation_error(&report),
            OverlayError::Fragmented {
                components: 4,
                core_size: 10
            }
        );
    }

    #[test]
    fn failure_error_is_honest_per_event_kind() {
        let report_with = |phase: &'static str, outcome: PhaseOutcome| BuildReport {
            result: None,
            phases: vec![(phase, outcome)],
            survivor_ids: Vec::new(),
            alive_at_end: Vec::new(),
            tree_valid_over_alive: false,
            rounds: RoundBreakdown::default(),
            messages: MessageStats::default(),
            crashed: 0,
            joined: 0,
            phase_metrics: Vec::new(),
        };
        let stalled = PhaseOutcome::Stalled {
            rounds: 1,
            budget: 14,
            nodes_done: 128,
            nodes_total: 128,
        };
        // A finalize "stall" is a validation verdict (the rounds completed, the
        // parents were invalid), never a budget failure.
        assert_eq!(
            failure_error(&report_with("finalize", stalled)),
            OverlayError::FinalizeFailed
        );
        // A genuine budget stall keeps its real budget.
        assert_eq!(
            failure_error(&report_with("binarize", stalled)),
            OverlayError::PhaseIncomplete {
                phase: "binarize",
                budget: 14
            }
        );
        assert_eq!(
            failure_error(&report_with(
                "survivor-connectivity",
                PhaseOutcome::Fragmented {
                    components: 0,
                    core_size: 0
                }
            )),
            OverlayError::Fragmented {
                components: 0,
                core_size: 0
            }
        );
    }

    #[test]
    fn binarize_only_transport_rescues_a_binarize_window_partition() {
        // A partition covering exactly the one-round binarization drops every
        // cross-cut relink message: the bare pipeline finishes its schedule but the
        // orphaned nodes keep their self-parent and `finalize` fails. Scoping the
        // reliable transport to just the binarize phase retransmits the relinks
        // after the heal — the construction and BFS phases stay on the paper's
        // bare sends (their wall-rounds are untouched), yet the pipeline
        // completes.
        let n = 128;
        let g = generators::cycle(n);
        let params = ExpanderParams::for_n(n).with_seed(1);
        let clean = OverlayBuilder::new(params).build(&g).expect("clean build");
        let offset2 = clean.rounds.construction + clean.rounds.bfs;
        let side_a: Vec<NodeId> = (0..n / 2).map(NodeId::from).collect();
        let plan = FaultPlan::default().with_partition(side_a, offset2, offset2 + 1);
        let bare = OverlayBuilder::new(params)
            .build_under_faults(&g, &plan)
            .expect("valid input");
        assert!(
            !bare.is_success(),
            "the binarize-window partition must fail bare: {:?}",
            bare.phases
        );
        let scoped = OverlayBuilder::new(params)
            .with_phase_overrides(
                PhaseOverrides::none()
                    .with_transport(PhaseId::Binarize, TransportConfig::default())
                    .with_budget(PhaseId::Binarize, RoundBudget::STANDARD.with_slack(12)),
            )
            .build_under_faults(&g, &plan)
            .expect("valid input");
        assert!(
            scoped.is_success(),
            "binarize-scoped transport must rescue the run: {:?}",
            scoped.phases
        );
        // The bare phases are untouched by the override: identical wall-rounds.
        assert_eq!(scoped.rounds.construction, clean.rounds.construction);
        assert_eq!(scoped.rounds.bfs, clean.rounds.bfs);
        // Reliability (acks, and the retransmissions that saved the run) is
        // confined to the binarize phase: one ack per relink plus retries, not the
        // tens of thousands a full-pipeline transport would deliver.
        assert!(scoped.messages.retransmits > 0);
        assert!(scoped.messages.acks > 0);
        assert!(
            scoped.messages.acks < 4 * n as u64,
            "acks ({}) must stay confined to the binarize phase",
            scoped.messages.acks
        );
    }

    #[test]
    fn phase_budget_override_targets_only_its_phase() {
        // The late joiner needs extra construction budget; granting it to the
        // wrong phase must not help, granting it to create-expander must.
        let n = 32;
        let g = generators::cycle(n);
        let params = ExpanderParams::for_n(n).with_seed(13);
        let base = ExpanderNode::total_rounds(&params) + 2;
        let plan = FaultPlan::default().with_join(NodeId::from(3usize), base);
        let wrong_phase = OverlayBuilder::new(params)
            .with_phase_overrides(
                PhaseOverrides::none().with_budget(PhaseId::Binarize, RoundBudget::percent(300)),
            )
            .build_under_faults(&g, &plan)
            .expect("valid input");
        assert_eq!(wrong_phase.stalled_phase(), Some("create-expander"));
        let right_phase = OverlayBuilder::new(params)
            .with_phase_overrides(
                PhaseOverrides::none()
                    .with_budget(PhaseId::CreateExpander, RoundBudget::percent(150)),
            )
            .build_under_faults(&g, &plan)
            .expect("valid input");
        assert!(
            right_phase
                .phases
                .iter()
                .any(|(name, o)| *name == "create-expander" && !o.is_stall()),
            "phases: {:?}",
            right_phase.phases
        );
    }

    #[test]
    fn empty_phase_overrides_change_nothing() {
        let n = 64;
        let g = generators::line(n);
        let params = ExpanderParams::for_n(n).with_seed(5);
        let plan = FaultPlan::default().with_drop_prob(0.02);
        let default_run = OverlayBuilder::new(params)
            .build_under_faults(&g, &plan)
            .expect("valid input");
        let explicit = OverlayBuilder::new(params)
            .with_phase_overrides(PhaseOverrides::none())
            .build_under_faults(&g, &plan)
            .expect("valid input");
        assert_eq!(default_run.rounds, explicit.rounds);
        assert_eq!(default_run.messages, explicit.messages);
        assert_eq!(default_run.phases, explicit.phases);
        assert_eq!(default_run.survivor_ids, explicit.survivor_ids);
    }

    #[test]
    fn fault_reports_are_deterministic() {
        let n = 64;
        let g = generators::line(n);
        let params = ExpanderParams::for_n(n).with_seed(5);
        let plan = FaultPlan::default()
            .with_drop_prob(0.02)
            .with_delays(0.1, 2);
        let run = || {
            let r = OverlayBuilder::new(params)
                .build_under_faults(&g, &plan)
                .expect("valid input");
            (
                r.is_success(),
                r.rounds,
                r.messages,
                r.survivor_ids.clone(),
                r.phases.clone(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn every_simulated_phase_reports_its_metrics() {
        let n = 64;
        let g = generators::cycle(n);
        let params = ExpanderParams::for_n(n).with_seed(5);
        let report = OverlayBuilder::new(params)
            .build_under_faults(&g, &FaultPlan::default().with_drop_prob(0.02))
            .expect("valid input");
        let names: Vec<&str> = report.phase_metrics.iter().map(|m| m.phase).collect();
        assert_eq!(names, vec!["create-expander", "bfs", "binarize"]);
        // The rollups reconcile with the run-global books.
        assert_eq!(
            report.phase_metrics[0].rounds,
            report.rounds.construction + 1,
            "phase rounds include the start round"
        );
        let totals: Vec<_> = report.phase_metrics.iter().map(|m| m.totals).collect();
        let delivered: u64 = totals.iter().map(|t| t.delivered).sum();
        assert_eq!(delivered, report.messages.total_delivered);
        let faults: u64 = totals.iter().map(|t| t.dropped_fault).sum();
        assert_eq!(faults, report.messages.dropped_fault);
        assert!(faults > 0, "the loss plan must actually bite");
        assert_eq!(
            totals[0].dominant_drop().map(|(c, _)| c),
            Some(overlay_netsim::DropCause::Fault)
        );
    }

    #[test]
    fn tracing_leaves_the_report_unchanged() {
        let n = 64;
        let g = generators::cycle(n);
        let params = ExpanderParams::for_n(n).with_seed(9);
        let plan = FaultPlan::default()
            .with_drop_prob(0.05)
            .with_crash(NodeId::from(3usize), 4);
        let plain = OverlayBuilder::new(params)
            .build_under_faults(&g, &plan)
            .expect("valid input");
        let buf = overlay_netsim::TraceBuffer::shared();
        let traced = OverlayBuilder::new(params)
            .build_under_faults_traced(&g, &plan, buf.clone())
            .expect("valid input");
        assert_eq!(plain.is_success(), traced.is_success());
        assert_eq!(plain.rounds, traced.rounds);
        assert_eq!(plain.messages, traced.messages);
        assert_eq!(plain.phases, traced.phases);
        assert_eq!(plain.survivor_ids, traced.survivor_ids);
        assert_eq!(plain.phase_metrics, traced.phase_metrics);

        // The trace brackets each simulated phase and saw the injected crash.
        let events = buf.borrow().events.clone();
        use overlay_netsim::TraceEvent;
        let phase_starts: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::PhaseStart { phase } => Some(*phase),
                _ => None,
            })
            .collect();
        assert_eq!(phase_starts, vec!["create-expander", "bfs", "binarize"]);
        assert!(events.contains(&TraceEvent::Crash {
            round: 4,
            node: NodeId::from(3usize)
        }));
        assert!(events.iter().any(|e| matches!(e, TraceEvent::Drop { .. })));
    }

    #[test]
    fn coverage_counts_the_alive_nodes_the_tree_reaches() {
        // An inner node of the clean tree crashes in the binarize window after
        // relinking its children: they stay alive, hang off a dead parent, and
        // the tree does not cover them.
        let n = 64;
        let g = generators::cycle(n);
        let params = ExpanderParams::for_n(n).with_seed(2);
        let clean = OverlayBuilder::new(params).build(&g).expect("clean build");
        let victim = g
            .nodes()
            .find(|&v| v != clean.tree.root() && !clean.tree.children(v).is_empty())
            .expect("a tree of 64 nodes has an inner node");
        let crash_round =
            ExpanderNode::total_rounds(&params) + BfsNode::total_rounds(params.bfs_rounds) + 1;
        let plan = FaultPlan::default().with_crash(victim, crash_round);
        let report = OverlayBuilder::new(params)
            .build_under_faults(&g, &plan)
            .expect("valid input");
        let tree = &report.result.as_ref().expect("one alive root").tree;
        assert!(!report.tree_valid_over_alive);
        let alive = report.alive_at_end.iter().filter(|a| **a).count();
        let covered = tree.covered(&report.alive_at_end);
        assert!(covered < alive, "{covered} of {alive}");
        assert_eq!(report.coverage(n), covered as f64 / n as f64);
    }

    /// How [`Tampering`] corrupts one phase's digests.
    #[derive(Clone, Copy, Debug)]
    enum Tamper {
        /// Node 0's digest, re-encoded with its last four bytes — an id in
        /// every digest this pipeline makes — set to one past the last node.
        ForeignId,
        /// The last node's digest, dropped.
        MissingDigest,
    }

    /// The simulator, with the digests of phase `target` corrupted by `tamper`.
    struct Tampering {
        target: PhaseId,
        tamper: Tamper,
    }

    impl PhaseExecutor for Tampering {
        type Error = std::convert::Infallible;

        fn execute<P: Summarize + Send>(
            &mut self,
            phase: Phase<P>,
            spec: PhaseExecSpec,
        ) -> Result<ExecutedPhase<P::Summary>, Self::Error>
        where
            P::Message: Wire + Send,
        {
            let id = phase.id();
            let mut run = SimExecutor::default().execute(phase, spec)?;
            let digests = &mut run.summaries;
            match self.tamper {
                _ if id != self.target => {}
                Tamper::ForeignId => {
                    let mut bytes = Vec::new();
                    digests[0].encode(&mut bytes);
                    let at = bytes.len() - 4;
                    bytes[at..].copy_from_slice(&(digests.len() as u32).to_le_bytes());
                    digests[0] = Wire::decode(&mut bytes.as_slice()).expect("still a digest");
                }
                Tamper::MissingDigest => drop(digests.pop()),
            }
            Ok(run)
        }
    }

    #[test]
    fn gathered_digests_the_hand_offs_cannot_read_are_a_backend_error() {
        let n = 32;
        let g = generators::line(n);
        let builder = OverlayBuilder::new(ExpanderParams::for_n(n).with_seed(3));
        for target in PhaseId::ALL {
            let phase = target.name();
            for (tamper, why) in [
                (
                    Tamper::ForeignId,
                    format!("{phase} digest of node 0 names n{n}, outside its {n} nodes"),
                ),
                (
                    Tamper::MissingDigest,
                    format!("{phase} returned {} digests for {n} nodes", n - 1),
                ),
            ] {
                let mut exec = Tampering { target, tamper };
                let err = builder.build_over(&g, &mut exec).expect_err("refused");
                assert_eq!(err, OverlayError::Backend(why), "{tamper:?}");
            }
        }
    }
}
