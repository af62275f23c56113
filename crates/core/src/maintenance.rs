//! Continuous overlay maintenance: epochs, re-invitation, repair evolutions.
//!
//! The paper constructs the overlay once and stops; this module keeps it
//! *alive*. A [`MaintenanceRunner`] takes over after (or instead of) one-shot
//! construction and runs an unbounded **epoch loop** against a continuous
//! [`ChurnSchedule`]: nodes join, leave, and crash forever, and at every epoch
//! boundary the runner
//!
//! 1. detects **stragglers** (arrived nodes the overlay has not admitted) and
//!    **crash holes** (members whose path to the root died) from the live
//!    topology,
//! 2. issues **protocol-level re-invitations** that pull stragglers into the
//!    current evolution — the primitive the join-churn fault reports proved
//!    missing: transport redelivery cannot rescue a late joiner (coverage
//!    15.7%→16.2% across the join-churn twins), because the construction that
//!    would have invited it is already over; it needs a *fresh* invitation
//!    into the overlay as it exists now, and
//! 3. triggers a **periodic repair evolution** reusing the paper's own
//!    evolution machinery ([`EvolutionEngine`]) to re-mix the communication
//!    graph, then rebuilds and re-binarizes the BFS tree, re-attaching any
//!    member the mix left behind.
//!
//! The service-level metric is not terminal success but **sustained coverage
//! and tree well-formedness over time**: every epoch boundary yields an
//! [`EpochSample`], and a finished run distills them into a [`ServeOutcome`]
//! (coverage floor/mean, steady-state "sustained" coverage, well-formedness
//! violations, and rounds-to-repair after correlated crash bursts).
//!
//! # Execution model
//!
//! [`MaintenanceRunner`] is the **graph-level model** of the maintenance loop,
//! not a message-level protocol: it is to the epoch protocol what
//! [`EvolutionEngine`] is to [`crate::ExpanderNode`] — the same
//! random experiment executed directly on the graph, with the message passing
//! skipped. An invitation is a seeded coin flip against
//! [`MaintenanceConfig::invite_loss`] (one coin per attempt, `1 + invite_retries`
//! attempts), not a message; churn is applied to the member table, repair is one
//! [`EvolutionEngine`] evolution on the core graph. Nothing in this module goes
//! through [`crate::PhaseExecutor`], so a serve cell runs on the simulator host
//! only and has no socket counterpart; what the seam does carry on a serving
//! cell is the traffic wave routed over [`MaintenanceRunner::core_graph`]
//! between epochs. Running re-invitation and repair as `Protocol` phases is
//! open ROADMAP item 12, not an unfinished half of this type.
//!
//! # Determinism
//!
//! The runner is a pure function of `(initial graph, params, config,
//! schedule)`: churn counts come from the schedule's rate accumulator, victim
//! and contact choices from seeded RNGs, invitation loss from the maintenance
//! RNG, and each repair evolution from a per-epoch re-seeded
//! [`EvolutionEngine`]. Two runs of the same inputs produce identical samples.

use crate::wellformed::binarized;
use crate::{EvolutionEngine, ExpanderParams, WellFormedTree};
use overlay_graph::{NodeId, UGraph};
use overlay_netsim::{ChurnSchedule, SharedTraceSink, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the maintenance epoch loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaintenanceConfig {
    /// Rounds per epoch (churn accumulates for this long between boundaries).
    pub epoch_rounds: usize,
    /// Number of epochs to serve (`epochs * epoch_rounds` total rounds).
    pub epochs: usize,
    /// Whether epoch boundaries re-invite stragglers into the overlay.
    pub reinvite: bool,
    /// Probability that one invitation attempt is lost in transit.
    pub invite_loss: f64,
    /// Extra invitation attempts per straggler per epoch (the reliable-transport
    /// analogue: a `-reliable` serve twin retries, a bare cell does not).
    pub invite_retries: usize,
    /// Seed of the maintenance RNG (contact choice, invitation loss, repair
    /// evolutions).
    pub seed: u64,
}

impl MaintenanceConfig {
    /// A sensible default loop: 25-round epochs, re-invitation on, lossless
    /// invitations.
    pub fn new(epochs: usize) -> Self {
        MaintenanceConfig {
            epoch_rounds: 25,
            epochs,
            reinvite: true,
            invite_loss: 0.0,
            invite_retries: 0,
            seed: 0x0A11_CE55,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_rounds` is zero or `invite_loss` is outside `0.0..=1.0`.
    pub(crate) fn validate(&self) {
        assert!(self.epoch_rounds > 0, "epoch_rounds must be positive");
        assert!(
            (0.0..=1.0).contains(&self.invite_loss) && self.invite_loss.is_finite(),
            "invite_loss must lie in 0.0..=1.0, got {}",
            self.invite_loss
        );
    }
}

/// The service-level facts of one epoch boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochSample {
    /// The epoch index (0-based).
    pub epoch: usize,
    /// The service round the boundary fell on (cumulative).
    pub round: usize,
    /// Members alive at the boundary (admitted + stragglers).
    pub alive: usize,
    /// Stragglers still awaiting admission after the boundary.
    pub pending: usize,
    /// Alive members covered by the current well-formed tree.
    pub covered: usize,
    /// `covered / alive` (1.0 for an empty service).
    pub coverage: f64,
    /// Whether the tree passed well-formedness validation at the boundary.
    pub tree_valid: bool,
    /// Re-invitations issued at this boundary.
    pub reinvites: usize,
    /// Stragglers admitted at this boundary.
    pub admitted: usize,
    /// Members re-attached by the repair step (left behind by the mix or by
    /// crash holes).
    pub healed: usize,
    /// Fresh arrivals during the epoch.
    pub joins: usize,
    /// Graceful departures during the epoch.
    pub leaves: usize,
    /// Crash-stop failures during the epoch.
    pub crashes: usize,
}

/// The distilled outcome of a whole maintenance run. The default is the
/// outcome of a service that never ran: no samples, zero coverage.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeOutcome {
    /// One sample per epoch boundary, in order.
    pub samples: Vec<EpochSample>,
    /// Mean coverage across all boundaries.
    pub coverage_mean: f64,
    /// Minimum coverage across all boundaries.
    pub coverage_floor: f64,
    /// Steady-state coverage: the mean over the final half of the boundaries,
    /// after the service has absorbed its start-up transient.
    pub sustained_coverage: f64,
    /// Boundaries whose tree failed well-formedness validation.
    pub wf_violations: usize,
    /// Total re-invitations issued.
    pub reinvites_sent: usize,
    /// Re-invitations that survived loss and admitted their straggler.
    pub reinvites_delivered: usize,
    /// Repair evolutions executed.
    pub repairs: usize,
    /// Members re-attached by repair across the run.
    pub healed: usize,
    /// Worst rounds-to-repair after a crash burst (0 when no burst fired);
    /// `horizon - burst_round` when a burst was never repaired.
    pub rounds_to_repair_max: usize,
    /// Total arrivals over the run.
    pub joined: usize,
    /// Total graceful departures over the run.
    pub left: usize,
    /// Total crash-stop failures over the run.
    pub crashed: usize,
    /// Members alive when the horizon ended.
    pub final_alive: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MemberStatus {
    /// In the overlay graph.
    Admitted,
    /// Arrived, alive, awaiting an invitation (a straggler).
    Pending,
    /// Departed gracefully.
    Left,
    /// Crash-stopped.
    Crashed,
}

impl MemberStatus {
    /// Admitted or still awaiting admission.
    fn is_alive(self) -> bool {
        matches!(self, MemberStatus::Admitted | MemberStatus::Pending)
    }
}

#[derive(Clone, Debug)]
struct Member {
    status: MemberStatus,
    /// The alive member this straggler knows (its admission contact).
    contact: Option<usize>,
}

/// The continuous-maintenance engine (see the module docs).
#[derive(Debug)]
pub struct MaintenanceRunner {
    params: ExpanderParams,
    config: MaintenanceConfig,
    schedule: ChurnSchedule,
    members: Vec<Member>,
    /// Member ids currently in the overlay graph, ascending; `graph` and
    /// `tree` index into this list ("core space").
    core: Vec<usize>,
    graph: UGraph,
    /// The core graph before the last rebuild, kept only for its slot lists:
    /// the next rebuild writes into it and swaps it in.
    spare: UGraph,
    tree: Option<WellFormedTree>,
    rng: StdRng,
    trace: Option<SharedTraceSink>,
    samples: Vec<EpochSample>,
    // Rolling totals.
    reinvites_sent: usize,
    reinvites_delivered: usize,
    repairs: usize,
    healed_total: usize,
    joined: usize,
    left: usize,
    crashed: usize,
    /// Earliest crash burst not yet repaired, as `(service round, worst gap)`.
    open_burst: Option<usize>,
    rounds_to_repair_max: usize,
    epoch: usize,
}

impl MaintenanceRunner {
    /// Creates a runner serving an overlay whose initial communication graph is
    /// `graph` (e.g. the expander a construction run produced, or a benign
    /// graph built directly). Every initial node is an admitted member.
    ///
    /// # Panics
    ///
    /// Panics if `config` or `schedule` fail validation.
    pub fn new(
        graph: UGraph,
        params: ExpanderParams,
        config: MaintenanceConfig,
        schedule: ChurnSchedule,
    ) -> Self {
        config.validate();
        schedule.validate();
        let n = graph.node_count();
        let members = (0..n)
            .map(|_| Member {
                status: MemberStatus::Admitted,
                contact: None,
            })
            .collect();
        let mut runner = MaintenanceRunner {
            params,
            config,
            schedule,
            members,
            core: (0..n).collect(),
            graph,
            spare: UGraph::default(),
            tree: None,
            rng: StdRng::seed_from_u64(config.seed),
            trace: None,
            samples: Vec::new(),
            reinvites_sent: 0,
            reinvites_delivered: 0,
            repairs: 0,
            healed_total: 0,
            joined: 0,
            left: 0,
            crashed: 0,
            open_burst: None,
            rounds_to_repair_max: 0,
            epoch: 0,
        };
        // Establish the initial tree so coverage starts from the constructed
        // overlay, not from nothing.
        let healed = runner.rebuild_tree();
        debug_assert_eq!(healed, 0, "a connected initial graph needs no healing");
        runner
    }

    /// Installs a trace sink receiving [`TraceEvent::Epoch`],
    /// [`TraceEvent::ReInvite`] and [`TraceEvent::Repair`] events.
    pub fn set_trace_sink(&mut self, sink: SharedTraceSink) {
        self.trace = Some(sink);
    }

    /// The current well-formed tree in core space, if one exists.
    pub fn tree(&self) -> Option<&WellFormedTree> {
        self.tree.as_ref()
    }

    /// The current communication graph over the admitted core, in core space.
    /// Traffic layered on a serving overlay routes over exactly these edges.
    pub fn core_graph(&self) -> &UGraph {
        &self.graph
    }

    fn emit(&self, event: TraceEvent) {
        if let Some(sink) = &self.trace {
            sink.borrow_mut().record(event);
        }
    }

    /// Number of members whose status satisfies `pred`.
    fn count(&self, pred: impl Fn(MemberStatus) -> bool) -> usize {
        self.members.iter().filter(|m| pred(m.status)).count()
    }

    fn alive_ids(&self) -> Vec<usize> {
        (0..self.members.len())
            .filter(|&m| self.members[m].status.is_alive())
            .collect()
    }

    fn pending_ids(&self) -> Vec<usize> {
        (0..self.members.len())
            .filter(|&m| self.members[m].status == MemberStatus::Pending)
            .collect()
    }

    fn admitted_alive(&self) -> Vec<usize> {
        (0..self.members.len())
            .filter(|&m| self.members[m].status == MemberStatus::Admitted)
            .collect()
    }

    /// Advances the churn process through one epoch's worth of rounds.
    fn advance_churn(&mut self) -> (usize, usize, usize) {
        let (mut joins, mut leaves, mut crashes) = (0, 0, 0);
        let start = self.epoch * self.config.epoch_rounds;
        for round in start..start + self.config.epoch_rounds {
            let alive = self.alive_ids();
            let churn = self.schedule.sample(round, alive.len());
            if self.schedule.burst_at(round) && self.open_burst.is_none() {
                self.open_burst = Some(round);
            }
            // Victim ranks are sequential (see `ChurnSchedule`): apply each
            // against the alive list with earlier victims removed.
            let mut remaining = alive;
            for &rank in &churn.leaves {
                let member = remaining.remove(rank);
                self.members[member].status = MemberStatus::Left;
                leaves += 1;
            }
            for &rank in &churn.crashes {
                let member = remaining.remove(rank);
                self.members[member].status = MemberStatus::Crashed;
                crashes += 1;
            }
            // Fresh arrivals become stragglers knowing one current member.
            for _ in 0..churn.joins {
                let contact = self.pick_contact();
                self.members.push(Member {
                    status: MemberStatus::Pending,
                    contact,
                });
                joins += 1;
            }
        }
        self.joined += joins;
        self.left += leaves;
        self.crashed += crashes;
        (joins, leaves, crashes)
    }

    fn pick_contact(&mut self) -> Option<usize> {
        let admitted = self.admitted_alive();
        if admitted.is_empty() {
            None
        } else {
            Some(admitted[self.rng.gen_range(0..admitted.len())])
        }
    }

    /// Re-invites every straggler: the contact sends an invitation that admits
    /// the straggler into the current overlay unless transport loss eats every
    /// attempt. Returns `(invitations sent, stragglers admitted)`.
    fn reinvite_stragglers(&mut self) -> (usize, usize) {
        let stragglers = self.pending_ids();
        let (mut sent, mut admitted) = (0, 0);
        for member in stragglers {
            // A dead contact can never answer; the straggler re-discovers a
            // live one first (one boundary of delay, like a DNS re-lookup).
            let contact = match self.members[member].contact {
                Some(c) if self.members[c].status == MemberStatus::Admitted => Some(c),
                _ => {
                    let fresh = self.pick_contact();
                    self.members[member].contact = fresh;
                    fresh
                }
            };
            let Some(contact) = contact else { continue };
            sent += 1;
            let attempts = 1 + self.config.invite_retries;
            let delivered = (0..attempts).any(|_| {
                // One draw per attempt keeps the stream aligned with the
                // transport model: each retry is its own coin.
                self.rng.gen::<f64>() >= self.config.invite_loss
            });
            if delivered {
                self.members[member].status = MemberStatus::Admitted;
                admitted += 1;
            }
            self.emit(TraceEvent::ReInvite {
                epoch: self.epoch,
                joiner: NodeId::from(member),
                contact: NodeId::from(contact),
                delivered,
            });
        }
        self.reinvites_sent += sent;
        self.reinvites_delivered += admitted;
        (sent, admitted)
    }

    /// Rebuilds the core graph over the currently admitted members: surviving
    /// edges are kept, freshly admitted members attach to their contact, dead
    /// slots disappear, and every node is padded with self-loops to degree Δ
    /// so evolution walks stay defined.
    ///
    /// Slot order is part of the result — the next evolution draws
    /// `slots[rng]` — and is the one [`UGraph::induced`] fixes for the
    /// surviving edges (self-loops are dropped there and return as padding),
    /// then the contact edges by ascending joiner, then loops. The new graph
    /// is written into `spare`, which then trades places with the old one.
    fn rebuild_core_graph(&mut self) {
        let next_core = self.admitted_alive();
        let mut slot = vec![None; self.members.len()];
        for (i, &m) in next_core.iter().enumerate() {
            slot[m] = Some(i);
        }
        // Surviving edges of the old core graph, translated to the new slots.
        let survives: Vec<Option<usize>> = self.core.iter().map(|&m| slot[m]).collect();
        let next = &mut self.spare;
        self.graph
            .induced_into(&survives, next_core.len(), self.params.delta, next);
        // Freshly admitted members: one real edge to the contact.
        for (i, &m) in next_core.iter().enumerate() {
            if let Some(c) = self.members[m].contact.take().and_then(|c| slot[c]) {
                next.add_edge(NodeId::from(i), NodeId::from(c));
            }
        }
        next.pad_self_loops(self.params.delta);
        self.core = next_core;
        std::mem::swap(&mut self.graph, &mut self.spare);
    }

    /// One repair evolution: the paper's evolution step re-mixes the core
    /// graph (re-absorbing admitted stragglers and closing crash holes).
    fn repair_evolution(&mut self) {
        if self.core.is_empty() {
            return;
        }
        let mix = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(self.epoch as u64 + 1);
        let params = self.params.with_seed(self.config.seed ^ mix);
        let mut engine = EvolutionEngine::from_benign(std::mem::take(&mut self.graph), params);
        engine.evolve_quiet();
        self.graph = engine.into_graph();
        self.repairs += 1;
    }

    /// Rebuilds the well-formed tree from the current core graph: BFS from the
    /// smallest member id, re-attach anything the mix stranded, binarize.
    /// Returns the number of re-attached (healed) members.
    ///
    /// The BFS order is part of the result twice over: a node's parent is the
    /// first node in it that lists the node, and the anchors of stranded nodes
    /// are drawn as `order[rng]` ([`bfs_over_slots`] states the order).
    fn rebuild_tree(&mut self) -> usize {
        let n = self.core.len();
        if n == 0 {
            self.tree = None;
            return 0;
        }
        let (mut parent, mut order) = bfs_over_slots(&self.graph);
        // Crash holes / stranded mixes: attach each unreached node to a random
        // reached one (a repair introduction), deterministically seeded.
        let mut healed = 0;
        for (v, p) in parent.iter_mut().enumerate() {
            if p.is_none() {
                let anchor = order[self.rng.gen_range(0..order.len())];
                *p = Some(anchor);
                order.push(v);
                healed += 1;
            }
        }
        let bfs: Vec<usize> = parent
            .into_iter()
            .map(|p| p.expect("all attached"))
            .collect();
        let binarized = binarize_parents(&bfs);
        let parents: Vec<NodeId> = binarized.into_iter().map(NodeId::from).collect();
        self.tree = WellFormedTree::try_from_parents(parents);
        self.healed_total += healed;
        healed
    }

    /// Runs one epoch: churn, re-invitation, repair, validation, sample.
    pub fn step_epoch(&mut self) -> EpochSample {
        let (joins, leaves, crashes) = self.advance_churn();
        let (reinvites, admitted) = if self.config.reinvite {
            self.reinvite_stragglers()
        } else {
            (0, 0)
        };
        self.rebuild_core_graph();
        self.repair_evolution();
        let healed = self.rebuild_tree();
        // The core is exactly the admitted members (`rebuild_core_graph`), so
        // every node of the tree is alive: the tree is well-formed iff it
        // covers the whole core within the degree bound.
        let everyone = vec![true; self.core.len()];
        let tree = self.tree.as_ref();
        let covered = tree.map_or(0, |tree| tree.covered(&everyone));
        let tree_valid =
            tree.is_some_and(|tree| covered == everyone.len() && tree.max_degree() <= 4);
        self.emit(TraceEvent::Repair {
            epoch: self.epoch,
            healed,
            tree_valid,
        });

        let alive = self.count(MemberStatus::is_alive);
        let pending = self.count(|status| status == MemberStatus::Pending);
        let coverage = if alive == 0 {
            1.0
        } else {
            covered as f64 / alive as f64
        };
        let round = (self.epoch + 1) * self.config.epoch_rounds;
        // A burst counts as repaired once every admitted member is covered by
        // a valid tree again.
        if let Some(burst_round) = self.open_burst {
            if tree_valid {
                self.rounds_to_repair_max = self.rounds_to_repair_max.max(round - burst_round);
                self.open_burst = None;
            }
        }
        self.emit(TraceEvent::Epoch {
            epoch: self.epoch,
            round,
            alive,
            stragglers: pending,
        });

        let sample = EpochSample {
            epoch: self.epoch,
            round,
            alive,
            pending,
            covered,
            coverage,
            tree_valid,
            reinvites,
            admitted,
            healed,
            joins,
            leaves,
            crashes,
        };
        self.samples.push(sample);
        self.epoch += 1;
        sample
    }

    /// Serves the configured horizon and distills the outcome.
    pub fn run(mut self) -> ServeOutcome {
        for _ in 0..self.config.epochs {
            self.step_epoch();
        }
        self.into_outcome()
    }

    /// Distills the samples recorded so far into a [`ServeOutcome`].
    pub fn into_outcome(mut self) -> ServeOutcome {
        // An unhealed burst is charged through the end of the horizon.
        if let Some(burst_round) = self.open_burst.take() {
            let horizon = self.config.epochs * self.config.epoch_rounds;
            self.rounds_to_repair_max = self
                .rounds_to_repair_max
                .max(horizon.saturating_sub(burst_round));
        }
        let coverages: Vec<f64> = self.samples.iter().map(|s| s.coverage).collect();
        let mean = |xs: &[f64]| {
            if xs.is_empty() {
                1.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        let floor = coverages.iter().copied().fold(f64::INFINITY, f64::min);
        ServeOutcome {
            coverage_mean: mean(&coverages),
            coverage_floor: if floor.is_finite() { floor } else { 1.0 },
            sustained_coverage: mean(&coverages[coverages.len() / 2..]),
            wf_violations: self.samples.iter().filter(|s| !s.tree_valid).count(),
            reinvites_sent: self.reinvites_sent,
            reinvites_delivered: self.reinvites_delivered,
            repairs: self.repairs,
            healed: self.healed_total,
            rounds_to_repair_max: self.rounds_to_repair_max,
            joined: self.joined,
            left: self.left,
            crashed: self.crashed,
            final_alive: self.count(MemberStatus::is_alive),
            samples: self.samples,
        }
    }
}

/// BFS from node 0 straight over the slot lists of the multigraph `g`
/// (`g` non-empty): the parent of every reached node (the root is its own)
/// and the discovery order, which doubles as the queue.
///
/// The nodes a node discovers are appended in ascending id order — its
/// unvisited slot targets, sorted; self-loops and repeated slots fall out at
/// the visited test — which is the order a BFS over the sorted, deduplicated
/// lists of [`UGraph::simplify`] discovers them in, without building them.
fn bfs_over_slots(g: &UGraph) -> (Vec<Option<usize>>, Vec<usize>) {
    let mut parent: Vec<Option<usize>> = vec![None; g.node_count()];
    parent[0] = Some(0);
    let mut order = vec![0usize];
    let mut head = 0;
    while head < order.len() {
        let v = order[head];
        head += 1;
        let discovered = order.len();
        for &w in g.neighbors(NodeId::from(v)) {
            if parent[w.index()].is_none() {
                parent[w.index()] = Some(v);
                order.push(w.index());
            }
        }
        order[discovered..].sort_unstable();
    }
    (parent, order)
}

/// The one-round binarization of [`crate::BinarizeNode`] as a pure
/// function on parent pointers: [`binarized`] over every node's children,
/// smallest id first.
fn binarize_parents(bfs: &[usize]) -> Vec<usize> {
    let n = bfs.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for v in 0..n {
        if bfs[v] != v {
            children[bfs[v]].push(v); // ascending v => sorted, as the protocol sorts
        }
    }
    let mut out: Vec<usize> = (0..n).collect();
    for (v, cs) in children.iter().enumerate() {
        for (c, parent) in binarized(v, cs) {
            out[c] = parent;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benign;
    use overlay_graph::generators;
    use overlay_netsim::{CrashBurst, TraceBuffer};

    fn initial_overlay(n: usize) -> (UGraph, ExpanderParams) {
        let params = ExpanderParams::for_n(n).with_seed(77);
        let g = benign::make_benign(&generators::cycle(n), &params).unwrap();
        (g, params)
    }

    fn churn(seed: u64, join: f64, crash: f64) -> ChurnSchedule {
        ChurnSchedule {
            seed,
            join_rate: join,
            leave_rate: 0.0,
            crash_rate: crash,
            burst: None,
        }
    }

    #[test]
    fn reinvitation_sustains_coverage_under_continuous_joins() {
        let (g, params) = initial_overlay(64);
        let mut config = MaintenanceConfig::new(40);
        config.seed = 5;
        let outcome = MaintenanceRunner::new(g, params, config, churn(9, 0.12, 0.0)).run();
        assert!(outcome.joined > 100, "continuous joins kept arriving");
        assert_eq!(outcome.wf_violations, 0);
        assert!(
            outcome.sustained_coverage >= 0.95,
            "re-invitation must keep coverage high, got {}",
            outcome.sustained_coverage
        );
        assert_eq!(outcome.reinvites_delivered, outcome.joined);
    }

    #[test]
    fn without_reinvitation_stragglers_pile_up() {
        let (g, params) = initial_overlay(64);
        let mut config = MaintenanceConfig::new(40);
        config.reinvite = false;
        config.seed = 5;
        let outcome = MaintenanceRunner::new(g, params, config, churn(9, 0.12, 0.0)).run();
        assert_eq!(outcome.reinvites_sent, 0);
        assert!(
            outcome.sustained_coverage <= 0.45,
            "stragglers must sink coverage, got {}",
            outcome.sustained_coverage
        );
        let last = outcome.samples.last().unwrap();
        assert_eq!(last.pending, outcome.joined, "every joiner still waiting");
    }

    #[test]
    fn crash_bursts_are_repaired_within_an_epoch() {
        let (g, params) = initial_overlay(64);
        let mut config = MaintenanceConfig::new(20);
        config.seed = 3;
        let schedule = ChurnSchedule {
            seed: 11,
            join_rate: 0.0,
            leave_rate: 0.0,
            crash_rate: 0.0,
            burst: Some(CrashBurst {
                every_rounds: 100,
                fraction: 0.2,
            }),
        };
        let outcome = MaintenanceRunner::new(g, params, config, schedule).run();
        assert!(outcome.crashed > 20, "bursts crashed members");
        assert_eq!(outcome.wf_violations, 0, "repair keeps the tree valid");
        assert!(
            outcome.rounds_to_repair_max <= config.epoch_rounds,
            "a burst is healed by the next boundary, got {}",
            outcome.rounds_to_repair_max
        );
        // Every surviving member is covered at the end.
        let last = outcome.samples.last().unwrap();
        assert_eq!(last.covered, last.alive);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let (g, params) = initial_overlay(48);
            let mut config = MaintenanceConfig::new(12);
            config.invite_loss = 0.3;
            config.invite_retries = 2;
            let schedule = ChurnSchedule {
                seed: 4,
                join_rate: 0.2,
                leave_rate: 0.05,
                crash_rate: 0.05,
                burst: None,
            };
            MaintenanceRunner::new(g, params, config, schedule).run()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_sink_sees_epoch_reinvite_and_repair_events() {
        let (g, params) = initial_overlay(48);
        let mut runner =
            MaintenanceRunner::new(g, params, MaintenanceConfig::new(6), churn(2, 0.3, 0.0));
        let buf = TraceBuffer::shared();
        runner.set_trace_sink(buf.clone());
        runner.run();
        let events = buf.borrow().events.clone();
        let has = |pred: fn(&TraceEvent) -> bool| events.iter().any(pred);
        assert!(has(|e| matches!(e, TraceEvent::Epoch { .. })));
        assert!(has(|e| matches!(e, TraceEvent::Repair { .. })));
        assert!(has(|e| matches!(
            e,
            TraceEvent::ReInvite {
                delivered: true,
                ..
            }
        )));
    }

    #[test]
    fn lossy_invitations_fail_and_retries_recover_them() {
        let outcome_with = |retries: usize| {
            let (g, params) = initial_overlay(48);
            let mut config = MaintenanceConfig::new(30);
            config.invite_loss = 0.5;
            config.invite_retries = retries;
            config.seed = 21;
            MaintenanceRunner::new(g, params, config, churn(6, 0.2, 0.0)).run()
        };
        let bare = outcome_with(0);
        let reliable = outcome_with(4);
        assert!(
            bare.reinvites_delivered < bare.reinvites_sent,
            "half the bare invitations are lost"
        );
        assert!(
            reliable.sustained_coverage > bare.sustained_coverage - 0.05,
            "retries must not hurt"
        );
        assert!(
            reliable.reinvites_delivered as f64 / reliable.reinvites_sent as f64 > 0.9,
            "retries push delivery above 90%"
        );
    }

    /// FNV-1a over little-endian `u64` words.
    fn fnv(digest: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[test]
    fn epoch_digests_match_the_edge_list_and_ordered_set_runner() {
        // One FNV-1a digest per epoch over the sample, the core, the core
        // graph's edge list and the tree's parent vector, computed on the
        // commit before `rebuild_tree` / `rebuild_core_graph` read the slot
        // lists directly and the evolution moved to flat buffers. Joins,
        // leaves, crashes, a burst every 240 rounds, lossy invitations with
        // two retries; 17 to 91 members healed at every boundary, so the
        // anchor draws over the BFS order are pinned too.
        const EXPECTED: [u64; 40] = [
            0x8f56_5c1c_780c_7afc,
            0xe1f5_9ce5_5655_a5f2,
            0x8a1e_95a0_9bee_a643,
            0xe0aa_87f3_9b60_f1d6,
            0x6eec_7d0a_af91_e405,
            0x6d47_18b3_2bb3_b7d0,
            0x848a_0744_0a52_20dc,
            0xe51c_d409_46d7_7657,
            0x1ae1_33f1_5e2b_1439,
            0xfe77_7982_2827_5809,
            0xf20e_f0e8_fb9b_0e68,
            0x7d52_b766_7323_93b3,
            0xc7dd_74cb_a95b_0971,
            0x14a3_1a6b_0658_3a7a,
            0x6e67_6f87_edc9_6c8d,
            0xc960_4cff_d061_a9f2,
            0xae96_f1e6_f2f2_3477,
            0x764c_0d9f_6afa_2f4e,
            0x93d1_1be2_9409_fa23,
            0xe000_a4f1_dd0b_3c3a,
            0x587c_2a83_ce7d_f821,
            0x2023_37ff_8c8d_f97a,
            0xb7a3_a3ea_bdbd_d2d6,
            0x8329_8a8c_e5d2_1af1,
            0x1539_3937_8dec_7ba5,
            0xf2e2_116b_af2e_3852,
            0xce6a_e7de_178b_2398,
            0x8880_b0bb_1ed7_a7d6,
            0xe168_6223_b871_ba23,
            0x58b2_7e16_4dcf_ac29,
            0x7c86_a59b_3d21_e5fd,
            0x013b_89d9_d8b3_f7b7,
            0x54fc_6511_acc0_f01e,
            0x973c_64b9_ebc4_3983,
            0x5a54_1358_86c9_08a1,
            0x0b9f_dd89_0aeb_92d7,
            0x499e_3462_7d26_8280,
            0xaea4_bf42_f2cb_c39e,
            0xd528_cde0_a924_b573,
            0xd8fa_ef5c_189d_7132,
        ];
        let (g, params) = initial_overlay(64);
        let mut config = MaintenanceConfig::new(40);
        config.invite_loss = 0.3;
        config.invite_retries = 2;
        config.seed = 19;
        let schedule = ChurnSchedule {
            seed: 23,
            join_rate: 0.3,
            leave_rate: 0.06,
            crash_rate: 0.1,
            burst: Some(CrashBurst {
                every_rounds: 240,
                fraction: 0.25,
            }),
        };
        let mut runner = MaintenanceRunner::new(g, params, config, schedule);
        for (epoch, expected) in EXPECTED.into_iter().enumerate() {
            let s = runner.step_epoch();
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            let counts = [
                s.epoch,
                s.round,
                s.alive,
                s.pending,
                s.covered,
                usize::from(s.tree_valid),
                s.reinvites,
                s.admitted,
                s.healed,
                s.joins,
                s.leaves,
                s.crashes,
            ];
            for word in counts {
                fnv(&mut digest, word as u64);
            }
            fnv(&mut digest, s.coverage.to_bits());
            for &m in &runner.core {
                fnv(&mut digest, m as u64);
            }
            for (a, b) in runner.core_graph().edges() {
                fnv(&mut digest, a.index() as u64);
                fnv(&mut digest, b.index() as u64);
            }
            let tree = runner.tree().expect("a non-empty core has a tree");
            for v in 0..tree.node_count() {
                fnv(&mut digest, tree.parent(NodeId::from(v)).index() as u64);
            }
            assert_eq!(digest, expected, "epoch {epoch}");
        }
    }

    #[test]
    fn bfs_over_slots_discovers_in_ascending_neighbour_order() {
        // Every list is built descending, with a loop and a doubled slot at
        // the root: 0: [5, 5, 3, 0, 1], 1: [0, 6, 4, 3], 3: [0, 1, 2],
        // 5: [0, 0, 2]. In slot order the root would discover 5, 3, 1 and
        // node 2 would hang under 5.
        let mut g = UGraph::new(7);
        for (u, v) in [
            (0usize, 5usize),
            (0, 5),
            (0, 3),
            (0, 0),
            (0, 1),
            (1, 6),
            (1, 4),
            (1, 3),
            (3, 2),
            (5, 2),
        ] {
            g.add_edge(u.into(), v.into());
        }
        let (parent, order) = bfs_over_slots(&g);
        assert_eq!(order, [0, 1, 3, 5, 4, 6, 2]);
        let parent: Vec<usize> = parent.into_iter().map(Option::unwrap).collect();
        assert_eq!(parent, [0, 0, 3, 0, 1, 0, 1]);

        // An unreached node stays unparented and out of the order.
        let mut split = UGraph::new(3);
        split.add_edge(0.into(), 2.into());
        split.add_self_loop(1.into());
        let (parent, order) = bfs_over_slots(&split);
        assert_eq!(order, [0, 2]);
        assert_eq!(parent, [Some(0), None, Some(0)]);
    }

    #[test]
    fn empty_service_reports_vacuous_coverage() {
        let (g, params) = initial_overlay(16);
        let mut config = MaintenanceConfig::new(4);
        config.seed = 1;
        // Crash everything quickly.
        let schedule = ChurnSchedule {
            seed: 1,
            join_rate: 0.0,
            leave_rate: 0.0,
            crash_rate: 8.0,
            burst: None,
        };
        let outcome = MaintenanceRunner::new(g, params, config, schedule).run();
        assert_eq!(outcome.final_alive, 0);
        let last = outcome.samples.last().unwrap();
        assert_eq!(last.alive, 0);
        assert_eq!(last.coverage, 1.0, "empty service is vacuously covered");
    }
}
