//! Maximal independent set in `O(log d + log log n)` rounds (Theorem 1.5).
//!
//! The algorithm combines the shattering technique with the overlay construction:
//!
//! 1. **Shattering:** Ghaffari's desire-level algorithm runs for `Θ(log d)` CONGEST
//!    rounds on the local edges ([`GhaffariNode`]), after which w.h.p. only small,
//!    isolated components of undecided nodes remain.
//! 2. **Finishing:** on every undecided component, `Θ(log n)` independent executions of
//!    Métivier et al.'s single-bit MIS run in parallel; the component's well-formed tree
//!    (Theorem 1.2) lets the root detect the first execution that finished and broadcast
//!    its index, which takes `O(log m + log log n)` rounds for components of size `m`.
//!
//! The Ghaffari stage runs as a message-level protocol in the simulator. It builds its
//! own [`Simulator`] rather than going through `overlay_core`'s `PhaseExecutor` seam:
//! the hybrid model's CONGEST discipline needs [`SimConfig::local_edges`] (local
//! messages may only travel over initial-graph edges, one per edge per round), and a
//! `PhaseExecSpec` carries an NCC0 cap, a seed, a budget and a transport — no local
//! graph. The stage runs under [`CapacityModel::Hybrid`]
//! ([`CapacityModel::hybrid_for`]: one message per local edge per direction per
//! round), and [`HybridMis::run`] asserts that the cap dropped nothing: a node either
//! announces or retires in a round, never both. The parallel
//! Métivier executions and the winner selection are simulated by the harness per
//! component (each execution is the exact random process, with its round count
//! recorded); the charged rounds follow the paper's accounting.

use overlay_graph::{analysis, DiGraph, NodeId, UGraph};
use overlay_netsim::caps::log2_ceil;
use overlay_netsim::{CapacityModel, Ctx, Envelope, Protocol, SimConfig, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Decision state of a node during the MIS computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MisDecision {
    /// Not decided yet.
    Undecided,
    /// In the independent set.
    InMis,
    /// Dominated by a neighbor in the set.
    Covered,
}

/// Messages of the Ghaffari shattering protocol.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum GhaffariMsg {
    /// Per-round exchange: whether the sender marked itself, and its desire level.
    Round {
        /// Marked this round.
        marked: bool,
        /// Current desire level.
        desire: f64,
    },
    /// The sender joined the MIS.
    Joined,
    /// The sender decided (covered) and stops participating.
    Retired,
}

/// Per-node state of Ghaffari's desire-level MIS algorithm (the shattering stage).
#[derive(Debug)]
pub(crate) struct GhaffariNode {
    active_neighbors: BTreeSet<NodeId>,
    desire: f64,
    marked: bool,
    decision: MisDecision,
    rounds_budget: usize,
}

impl GhaffariNode {
    /// Creates the state machine for node `id` with its (undirected) neighbors, running
    /// for `rounds_budget` rounds.
    pub(crate) fn new(id: NodeId, neighbors: Vec<NodeId>, rounds_budget: usize) -> Self {
        GhaffariNode {
            active_neighbors: neighbors.into_iter().filter(|&v| v != id).collect(),
            desire: 0.5,
            marked: false,
            decision: MisDecision::Undecided,
            rounds_budget,
        }
    }

    /// The node's decision after the shattering stage (possibly still undecided).
    pub(crate) fn decision(&self) -> MisDecision {
        self.decision
    }

    fn announce(&mut self, ctx: &mut Ctx<'_, GhaffariMsg>) {
        self.marked = ctx.rng().gen_bool(self.desire);
        for &v in &self.active_neighbors {
            ctx.send_local(
                v,
                GhaffariMsg::Round {
                    marked: self.marked,
                    desire: self.desire,
                },
            );
        }
    }

    fn retire(&mut self, ctx: &mut Ctx<'_, GhaffariMsg>, decision: MisDecision) {
        self.decision = decision;
        let msg = if decision == MisDecision::InMis {
            GhaffariMsg::Joined
        } else {
            GhaffariMsg::Retired
        };
        for &v in &self.active_neighbors {
            ctx.send_local(v, msg);
        }
        self.active_neighbors.clear();
    }
}

impl Protocol for GhaffariNode {
    type Message = GhaffariMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, GhaffariMsg>) {
        if self.active_neighbors.is_empty() {
            self.decision = MisDecision::InMis;
            return;
        }
        self.announce(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, GhaffariMsg>, inbox: &[Envelope<GhaffariMsg>]) {
        if self.decision != MisDecision::Undecided {
            return;
        }
        let mut neighbor_marked = false;
        let mut effective_degree = 0.0;
        let mut covered = false;
        for env in inbox {
            match env.payload {
                GhaffariMsg::Round { marked, desire } => {
                    if self.active_neighbors.contains(&env.from) {
                        neighbor_marked |= marked;
                        effective_degree += desire;
                    }
                }
                GhaffariMsg::Joined => {
                    covered = true;
                    self.active_neighbors.remove(&env.from);
                }
                GhaffariMsg::Retired => {
                    self.active_neighbors.remove(&env.from);
                }
            }
        }
        if covered {
            self.retire(ctx, MisDecision::Covered);
            return;
        }
        if self.marked && !neighbor_marked {
            self.retire(ctx, MisDecision::InMis);
            return;
        }
        if self.active_neighbors.is_empty() {
            self.retire(ctx, MisDecision::InMis);
            return;
        }
        // Desire-level update (Ghaffari 2016): halve under contention, double otherwise.
        if effective_degree >= 2.0 {
            self.desire /= 2.0;
        } else {
            self.desire = (self.desire * 2.0).min(0.5);
        }
        if ctx.round() < self.rounds_budget {
            self.announce(ctx);
        } else {
            // Past the budget no marks are exchanged any more; clearing the stale mark
            // prevents two neighbors from both joining based on old information.
            self.marked = false;
        }
    }

    fn is_done(&self) -> bool {
        self.decision != MisDecision::Undecided
    }
}

/// The output of the hybrid MIS algorithm.
#[derive(Clone, Debug)]
pub struct HybridMisResult {
    /// The maximal independent set.
    pub mis: Vec<NodeId>,
    /// Rounds of the shattering stage.
    pub shattering_rounds: usize,
    /// Rounds charged for the finishing stage (the maximum over components of the
    /// winning execution's rounds plus the overlay aggregation overhead).
    pub finishing_rounds: usize,
    /// Size of the largest undecided component after shattering (the quantity the
    /// shattering lemma bounds by `O(d⁴ log_d n)`).
    pub largest_undecided_component: usize,
    /// Number of nodes still undecided after shattering.
    pub undecided_after_shattering: usize,
}

impl HybridMisResult {
    /// Total rounds charged.
    pub fn total_rounds(&self) -> usize {
        self.shattering_rounds + self.finishing_rounds
    }
}

/// Computes a maximal independent set of (the undirected version of) an arbitrary
/// graph in the hybrid model.
#[derive(Clone, Copy, Debug)]
pub struct HybridMis {
    /// Seed for all randomness.
    pub seed: u64,
}

impl Default for HybridMis {
    fn default() -> Self {
        HybridMis { seed: 0x0415_0001 }
    }
}

impl HybridMis {
    /// Runs the algorithm on `g`.
    pub fn run(&self, g: &DiGraph) -> HybridMisResult {
        let und = g.to_undirected();
        let n = und.node_count();
        if n == 0 {
            return HybridMisResult {
                mis: Vec::new(),
                shattering_rounds: 0,
                finishing_rounds: 0,
                largest_undecided_component: 0,
                undecided_after_shattering: 0,
            };
        }
        let d = und.max_degree().max(1);
        let log_d = log2_ceil(d).max(1);
        let log_n = log2_ceil(n).max(1);
        // The shattering budget `c·(⌈log₂ d⌉ + 1)`.
        const SHATTERING_FACTOR: usize = 8;
        let budget = SHATTERING_FACTOR * (log_d + 1);

        // Stage 1: Ghaffari shattering over local edges.
        let local_edges: Vec<Vec<NodeId>> =
            und.nodes().map(|v| und.distinct_neighbors(v)).collect();
        let nodes: Vec<GhaffariNode> = und
            .nodes()
            .map(|v| GhaffariNode::new(v, und.distinct_neighbors(v), budget))
            .collect();
        let config = SimConfig {
            caps: CapacityModel::hybrid_for(n, 1),
            seed: self.seed,
            local_edges: Some(local_edges),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(nodes, config);
        sim.run(budget + 2);
        assert_eq!(
            sim.metrics().totals().dropped(),
            0,
            "the shattering stage sends one local message per edge per round"
        );
        let shattering_rounds = sim.round().min(budget + 2);
        let decisions: Vec<MisDecision> = sim.nodes().iter().map(GhaffariNode::decision).collect();
        let mut mis: Vec<NodeId> = (0..n)
            .filter(|&v| decisions[v] == MisDecision::InMis)
            .map(NodeId::from)
            .collect();

        // Stage 2: finish on the undecided components. A node with a neighbor already in
        // the set counts as covered even if its notification was still in flight when
        // the shattering stage ended.
        let undecided: Vec<usize> = (0..n)
            .filter(|&v| {
                decisions[v] == MisDecision::Undecided
                    && !und
                        .distinct_neighbors(NodeId::from(v))
                        .iter()
                        .any(|w| decisions[w.index()] == MisDecision::InMis)
            })
            .collect();
        let undecided_set: BTreeSet<usize> = undecided.iter().copied().collect();
        let mut sub = UGraph::new(n);
        for &v in &undecided {
            for &w in &und.distinct_neighbors(NodeId::from(v)) {
                if w.index() > v && undecided_set.contains(&w.index()) {
                    sub.add_edge(NodeId::from(v), w);
                }
            }
        }
        let comps = analysis::connected_components(&sub);
        let mut finishing_rounds = 0usize;
        let mut largest = 0usize;
        // Parallel Métivier executions per component: `Θ(log n)`.
        let executions = log_n + 1;
        for (label, members) in comps.members().into_iter().enumerate() {
            let members: Vec<usize> = members
                .into_iter()
                .map(NodeId::index)
                .filter(|v| undecided_set.contains(v))
                .collect();
            if members.is_empty() {
                continue;
            }
            largest = largest.max(members.len());
            let (winner_set, winner_rounds) = best_metivier_execution(
                &und,
                &members,
                executions,
                self.seed ^ ((label as u64 + 1) << 20),
            );
            mis.extend(winner_set);
            let m = members.len();
            let overhead = 2 * (log2_ceil(m).max(1) + log2_ceil(log_n).max(1) + 2);
            finishing_rounds = finishing_rounds.max(winner_rounds + overhead);
        }

        mis.sort_unstable();
        mis.dedup();
        HybridMisResult {
            mis,
            shattering_rounds,
            finishing_rounds,
            largest_undecided_component: largest,
            undecided_after_shattering: undecided.len(),
        }
    }
}

/// Runs `executions` independent Métivier executions of the MIS process restricted to
/// `members` (all undecided, with no decided neighbors relevant since decided neighbors
/// are either covered — irrelevant — or in the MIS — impossible, as their neighbors
/// would be covered) and returns the result of the execution that finished first,
/// together with its round count.
fn best_metivier_execution(
    g: &UGraph,
    members: &[usize],
    executions: usize,
    seed: u64,
) -> (Vec<NodeId>, usize) {
    let member_set: BTreeSet<usize> = members.iter().copied().collect();
    let mut best: Option<(Vec<NodeId>, usize)> = None;
    for exec in 0..executions.max(1) {
        let mut rng = StdRng::seed_from_u64(seed ^ (exec as u64).wrapping_mul(0x9E37_79B9));
        let mut undecided: BTreeSet<usize> = member_set.clone();
        let mut in_mis = Vec::new();
        let mut rounds = 0usize;
        while !undecided.is_empty() {
            rounds += 1;
            // Every undecided node draws a random value; local minima join.
            let values: std::collections::BTreeMap<usize, u64> =
                undecided.iter().map(|&v| (v, rng.gen::<u64>())).collect();
            let mut joined = Vec::new();
            for &v in &undecided {
                let mine = (values[&v], v);
                let is_min = g
                    .distinct_neighbors(NodeId::from(v))
                    .iter()
                    .filter(|w| undecided.contains(&w.index()))
                    .all(|w| (values[&w.index()], w.index()) > mine);
                if is_min {
                    joined.push(v);
                }
            }
            for &v in &joined {
                in_mis.push(NodeId::from(v));
                undecided.remove(&v);
                for w in g.distinct_neighbors(NodeId::from(v)) {
                    undecided.remove(&w.index());
                }
            }
            if rounds > 4 * members.len() + 16 {
                break;
            }
        }
        let candidate = (in_mis, rounds);
        best = match best {
            None => Some(candidate),
            Some(prev) if candidate.1 < prev.1 => Some(candidate),
            Some(prev) => Some(prev),
        };
    }
    best.expect("at least one execution runs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_graph::{generators, sequential};

    fn check(g: &DiGraph, seed: u64) -> HybridMisResult {
        let result = HybridMis { seed }.run(g);
        assert!(
            sequential::is_maximal_independent_set(&g.to_undirected(), &result.mis),
            "output must be a maximal independent set"
        );
        result
    }

    #[test]
    fn mis_is_valid_on_standard_graphs() {
        check(&generators::line(64), 1);
        check(&generators::cycle(65), 2);
        check(&generators::star(64), 3);
        check(&generators::grid(8, 8), 4);
    }

    #[test]
    fn shattering_drops_nothing_at_a_high_degree_node() {
        // `run` asserts that the CONGEST cap (one message per local edge per
        // direction per round) evicted nothing; a hub and dense cliques are
        // where a second message on an edge would show.
        for seed in 0..8u64 {
            check(&generators::star(96), seed);
            check(&generators::caveman(6, 12), seed);
        }
    }

    #[test]
    fn mis_is_valid_on_random_graphs() {
        for seed in 0..3u64 {
            check(&generators::connected_random(128, 0.05, seed), 10 + seed);
            check(&generators::random_regular(100, 6, seed), 20 + seed);
        }
    }

    #[test]
    fn shattering_leaves_few_undecided_nodes() {
        let result = check(&generators::random_regular(256, 8, 5), 31);
        assert!(
            result.undecided_after_shattering <= 256 / 4,
            "shattering should decide most nodes, {} remain",
            result.undecided_after_shattering
        );
        assert!(result.largest_undecided_component <= 64);
    }

    #[test]
    fn rounds_scale_with_degree_not_n() {
        // Same degree, very different sizes: the shattering budget is identical and the
        // finishing stage only depends on the (small) undecided components.
        let small = check(&generators::random_regular(64, 4, 7), 41);
        let large = check(&generators::random_regular(512, 4, 7), 42);
        // The shattering budget depends on the degree only (here 8·(⌈log₂ 4⌉ + 1) + 2);
        // runs may end earlier once every node has decided.
        let budget = 8 * (log2_ceil(4) + 1) + 2;
        assert!(small.shattering_rounds <= budget);
        assert!(large.shattering_rounds <= budget);
        let log_log = log2_ceil(log2_ceil(512)).max(1);
        assert!(
            large.finishing_rounds <= 30 * log_log.max(4),
            "finishing rounds {} should depend on log d + log log n only",
            large.finishing_rounds
        );
    }

    #[test]
    fn empty_graph_yields_empty_mis() {
        let result = HybridMis::default().run(&DiGraph::new(0));
        assert!(result.mis.is_empty());
        assert_eq!(result.total_rounds(), 0);
    }

    #[test]
    fn isolated_nodes_all_join() {
        let result = check(&DiGraph::new(10), 9);
        assert_eq!(result.mis.len(), 10);
    }
}
