//! The first-class phase pipeline behind [`crate::OverlayBuilder`].
//!
//! The paper's construction is explicitly staged: `CreateExpander` turns the
//! knowledge graph into an expander, BFS spans the survivor core, and a one-round
//! binarization makes the tree well-formed. This module makes each stage a *value* —
//! a [`Phase`] bundling its protocol nodes, its schedule-derived clean round count
//! and the fault plan it runs against — plus the vocabulary the builder's single
//! pipeline driver resolves per phase: [`PhaseId`], [`PhaseOverrides`] and the
//! [`PhaseMetrics`] rollup.
//!
//! Phases are executed by a [`crate::PhaseExecutor`] — never directly. Because
//! budgets and transports resolve *per phase* — via [`PhaseOverrides`] — a caller can,
//! e.g., run the reliable transport only for the one-round binarization where a
//! single lost message is fatal, while the long construction phase stays on bare
//! sends.

use crate::bfs::BfsNode;
use crate::expander::ExpanderNode;
use crate::seam::BfsSummary;
use crate::wellformed::BinarizeNode;
use crate::{ExpanderParams, RoundBudget};
use overlay_graph::{DiGraph, NodeId, UGraph};
use overlay_netsim::{FaultPlan, RoundMetrics, TransportConfig};
use std::time::Duration;

/// Identifies one of the three simulated phases of the paper's pipeline.
///
/// The pipeline-level events that are *derived* from a phase rather than simulated
/// (`survivor-connectivity` fragmentation after construction, `bfs-convergence`
/// agreement, the `finalize` tree validation) are reported under their own names in
/// [`crate::BuildReport::phases`] and have no `PhaseId`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PhaseId {
    /// The `CreateExpander` evolutions over the full initial graph.
    CreateExpander,
    /// The BFS flood over the survivor-core expander.
    Bfs,
    /// The one-round tree binarization.
    Binarize,
    /// A post-construction traffic phase: request routing over the finished
    /// overlay (`overlay-traffic` routers). Not part of [`PhaseId::ALL`] — the
    /// construction pipeline never runs it; the scenario layer appends it after
    /// a successful build.
    Traffic,
}

impl PhaseId {
    /// All *construction* phases, in pipeline order. [`PhaseId::Traffic`] is an
    /// application phase layered on top and is deliberately absent.
    pub const ALL: [PhaseId; 3] = [PhaseId::CreateExpander, PhaseId::Bfs, PhaseId::Binarize];

    /// The phase's report name (`create-expander`, `bfs`, `binarize`, `traffic`).
    pub fn name(self) -> &'static str {
        match self {
            PhaseId::CreateExpander => "create-expander",
            PhaseId::Bfs => "bfs",
            PhaseId::Binarize => "binarize",
            PhaseId::Traffic => "traffic",
        }
    }

    /// Position in pipeline order (also the per-phase seed offset: each phase's
    /// simulator runs on `params.seed + index`, which is what keeps pipeline runs
    /// byte-identical to the historical three-block implementation).
    pub fn index(self) -> usize {
        match self {
            PhaseId::CreateExpander => 0,
            PhaseId::Bfs => 1,
            PhaseId::Binarize => 2,
            PhaseId::Traffic => 3,
        }
    }
}

/// One stage of the pipeline as a value: the protocol nodes to simulate, the
/// schedule-derived clean round count, and the fault plan for the stage's window.
///
/// Budgets and transports are *not* part of a phase: [`crate::OverlayBuilder`]
/// resolves them from its builder-wide defaults and the per-phase
/// [`PhaseOverrides`] into a [`crate::PhaseExecSpec`], so the same phase
/// value runs identically under any policy.
#[derive(Clone, Debug)]
pub struct Phase<P> {
    id: PhaseId,
    nodes: Vec<P>,
    clean_rounds: usize,
    faults: FaultPlan,
}

impl<P> Phase<P> {
    /// A phase from raw parts. The typed constructors
    /// ([`Phase::create_expander`], [`Phase::bfs`], [`Phase::binarize`]) build the
    /// paper's stages; this escape hatch lets experiments hand a custom protocol
    /// (e.g. the traffic routers) to any [`crate::PhaseExecutor`].
    pub fn from_parts(id: PhaseId, nodes: Vec<P>, clean_rounds: usize, faults: FaultPlan) -> Self {
        Phase {
            id,
            nodes,
            clean_rounds,
            faults,
        }
    }

    /// Which paper phase this is.
    pub(crate) fn id(&self) -> PhaseId {
        self.id
    }

    /// The clean-network round count of the stage's schedule (before any
    /// [`RoundBudget`] scaling).
    pub fn clean_rounds(&self) -> usize {
        self.clean_rounds
    }

    /// Decomposes the phase into its raw parts (the inverse of
    /// [`Phase::from_parts`]): id, nodes, clean round count, fault plan.
    /// External executors (the `overlay-net` crate) consume phases this way.
    pub fn into_parts(self) -> (PhaseId, Vec<P>, usize, FaultPlan) {
        (self.id, self.nodes, self.clean_rounds, self.faults)
    }
}

impl Phase<ExpanderNode> {
    /// The `CreateExpander` phase over every node of the initial knowledge graph
    /// `g` (late joiners included; the fault router keeps them dormant until their
    /// join round). The clean schedule is `L·(ℓ+1) + 1` evolution rounds plus the
    /// intro round and the final done round.
    pub fn create_expander(g: &DiGraph, params: &ExpanderParams, faults: FaultPlan) -> Self {
        let nodes: Vec<ExpanderNode> = g
            .nodes()
            .map(|v| {
                let mut out: Vec<NodeId> = g.out_neighbors(v).to_vec();
                out.sort_unstable();
                out.dedup();
                ExpanderNode::new(v, out, *params)
            })
            .collect();
        Phase::from_parts(
            PhaseId::CreateExpander,
            nodes,
            ExpanderNode::total_rounds(params) + 2,
            faults,
        )
    }
}

impl Phase<BfsNode> {
    /// The BFS phase over the (remapped) survivor-core expander.
    pub fn bfs(expander: &UGraph, params: &ExpanderParams, faults: FaultPlan) -> Self {
        let nodes: Vec<BfsNode> = expander
            .nodes()
            .map(|v| BfsNode::new(v, expander.distinct_neighbors(v), params.bfs_rounds))
            .collect();
        Phase::from_parts(
            PhaseId::Bfs,
            nodes,
            BfsNode::total_rounds(params.bfs_rounds) + 1,
            faults,
        )
    }
}

impl Phase<BinarizeNode> {
    /// The one-round binarization phase, handed off from the BFS phase's per-node
    /// digests (all any executor, local or multi-process, can hand back), in
    /// node order.
    pub fn binarize(bfs: &[BfsSummary], faults: FaultPlan) -> Self {
        let nodes: Vec<BinarizeNode> = (bfs.iter().enumerate())
            .map(|(v, b)| BinarizeNode::new(NodeId::from(v), b.children.clone()))
            .collect();
        Phase::from_parts(
            PhaseId::Binarize,
            nodes,
            BinarizeNode::total_rounds() + 1,
            faults,
        )
    }
}

/// Per-phase overrides of the builder-wide round budget and transport.
///
/// Unset entries inherit the builder's globals, so an empty override set (the
/// default) reproduces builder-global behavior bit-for-bit. Overrides let a
/// scenario spend reliability (or budget headroom) only where the protocol needs
/// it — e.g. reliable transport for the one-round binarize phase, whose single
/// lost message is unrecoverable, while the `O(log n)`-round construction phase
/// keeps the cheap bare sends.
///
/// Only the construction phases ([`PhaseId::ALL`]) take overrides: every
/// method that names a phase panics on [`PhaseId::Traffic`], which the
/// construction pipeline never runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct PhaseOverrides {
    budgets: [Option<RoundBudget>; PhaseId::ALL.len()],
    transports: [Option<TransportConfig>; PhaseId::ALL.len()],
}

impl PhaseOverrides {
    /// No overrides: every phase inherits the builder-wide budget and transport.
    pub fn none() -> Self {
        PhaseOverrides::default()
    }

    /// Returns the overrides with `id`'s round budget pinned to `budget`.
    pub fn with_budget(mut self, id: PhaseId, budget: RoundBudget) -> Self {
        self.budgets[slot(id)] = Some(budget);
        self
    }

    /// Returns the overrides with `id` running behind the reliable-delivery
    /// layer configured by `config`.
    pub fn with_transport(mut self, id: PhaseId, config: TransportConfig) -> Self {
        self.transports[slot(id)] = Some(config);
        self
    }

    /// The budget override for `id`, if one is set.
    pub fn budget(&self, id: PhaseId) -> Option<RoundBudget> {
        self.budgets[slot(id)]
    }

    /// The transport override for `id`, if one is set.
    pub fn transport(&self, id: PhaseId) -> Option<TransportConfig> {
        self.transports[slot(id)]
    }

    /// `true` when no phase overrides anything (pure builder-global behavior).
    pub fn is_empty(&self) -> bool {
        self.budgets.iter().all(Option::is_none) && self.transports.iter().all(Option::is_none)
    }
}

/// The override slot of construction phase `id`.
fn slot(id: PhaseId) -> usize {
    assert!(
        id != PhaseId::Traffic,
        "the construction pipeline never runs the traffic phase, so it takes no override"
    );
    id.index()
}

/// Metric rollup for one *simulated* phase, answering "which stage ate the
/// budget": rounds executed, the phase's counter totals (delivery, drops by
/// cause, transport overhead — the glossary on [`overlay_netsim::RoundMetrics`]),
/// and host wall-clock time.
///
/// One entry per phase the lockstep simulator executed is appended to
/// [`crate::BuildReport::phase_metrics`], in pipeline order, including phases that
/// stalled (their partial totals are exactly what a post-mortem needs). Derived
/// steps (`survivor-connectivity`, `bfs-convergence`, `finalize`) simulate
/// nothing and have no entry.
///
/// `==` ignores [`PhaseMetrics::wall`], which is host noise and not part of the
/// deterministic run identity, so traced and untraced runs of one seed compare
/// equal.
#[derive(Clone, Copy, Debug)]
pub struct PhaseMetrics {
    /// The phase's report name (a [`PhaseId::name`]).
    pub phase: &'static str,
    /// Rounds the phase executed (including its start round).
    pub rounds: usize,
    /// The phase's [`overlay_netsim::RunMetrics::totals`].
    pub totals: RoundMetrics,
    /// Host wall-clock time spent simulating the phase. Ignored by `==`.
    pub wall: Duration,
}

impl PartialEq for PhaseMetrics {
    fn eq(&self, other: &Self) -> bool {
        self.phase == other.phase && self.rounds == other.rounds && self.totals == other.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_ids_name_the_report_events() {
        assert_eq!(PhaseId::CreateExpander.name(), "create-expander");
        assert_eq!(PhaseId::Bfs.name(), "bfs");
        assert_eq!(PhaseId::Binarize.name(), "binarize");
        assert_eq!(PhaseId::ALL.map(PhaseId::index), [0, 1, 2]);
    }

    #[test]
    fn overrides_default_to_inheriting_everything() {
        let o = PhaseOverrides::none();
        assert!(o.is_empty());
        for id in PhaseId::ALL {
            assert_eq!(o.budget(id), None);
            assert_eq!(o.transport(id), None);
        }
        assert_eq!(o, PhaseOverrides::default());
    }

    #[test]
    fn overrides_are_per_phase() {
        let o = PhaseOverrides::none()
            .with_budget(PhaseId::Binarize, RoundBudget::percent(200))
            .with_transport(PhaseId::Binarize, TransportConfig::default());
        assert!(!o.is_empty());
        assert_eq!(o.budget(PhaseId::Binarize), Some(RoundBudget::percent(200)));
        assert_eq!(o.budget(PhaseId::CreateExpander), None);
        assert_eq!(
            o.transport(PhaseId::Binarize),
            Some(TransportConfig::default())
        );
        assert_eq!(o.transport(PhaseId::Bfs), None);
        assert_eq!(o.transport(PhaseId::CreateExpander), None);
    }

    #[test]
    #[should_panic(expected = "never runs the traffic phase")]
    fn a_traffic_override_is_refused() {
        let _ = PhaseOverrides::none().with_budget(PhaseId::Traffic, RoundBudget::percent(200));
    }

    #[test]
    fn phases_carry_their_clean_schedule() {
        let params = ExpanderParams::for_n(32);
        let g = overlay_graph::generators::cycle(32);
        let p = Phase::create_expander(&g, &params, FaultPlan::default());
        assert_eq!(p.id(), PhaseId::CreateExpander);
        assert_eq!(p.clean_rounds(), ExpanderNode::total_rounds(&params) + 2);
        assert_eq!(p.nodes.len(), 32);
    }
}
