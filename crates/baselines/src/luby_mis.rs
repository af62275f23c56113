//! Luby/Métivier MIS in the CONGEST model — the `O(log n)`-round baseline for
//! Theorem 1.5.
//!
//! Every undecided node draws a random value each round and sends it to its undecided
//! neighbors; local minima join the MIS, their neighbors leave the graph, and the
//! process repeats. In expectation half the edges disappear per round (Métivier et
//! al.), so the algorithm finishes in `O(log n)` rounds w.h.p.

use overlay_graph::{DiGraph, NodeId};
use overlay_netsim::{CapacityModel, Ctx, Envelope, Protocol, SimConfig, Simulator};
use rand::Rng;
use std::collections::BTreeSet;

/// Messages of the MIS protocol.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum LubyMsg {
    /// The sender's random value for this round.
    Value(u64),
    /// The sender joined the MIS; the receiver must leave the competition.
    Joined,
    /// The sender has decided (either way) and will no longer participate.
    Decided,
}

/// Decision state of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MisState {
    /// Still competing.
    Undecided,
    /// Joined the independent set.
    InMis,
    /// A neighbor joined the set.
    Covered,
}

/// Per-node state of the Luby/Métivier MIS protocol.
#[derive(Debug)]
pub(crate) struct LubyMisNode {
    id: NodeId,
    active_neighbors: BTreeSet<NodeId>,
    state: MisState,
    my_value: u64,
    rounds: usize,
}

impl LubyMisNode {
    /// Creates the state machine for node `id` with its (undirected) neighbors.
    pub(crate) fn new(id: NodeId, neighbors: Vec<NodeId>) -> Self {
        LubyMisNode {
            id,
            active_neighbors: neighbors.into_iter().filter(|&v| v != id).collect(),
            state: MisState::Undecided,
            my_value: 0,
            rounds: 0,
        }
    }

    /// The node's decision.
    pub(crate) fn state(&self) -> MisState {
        self.state
    }

    /// Number of rounds until this node decided.
    pub(crate) fn rounds_to_decision(&self) -> usize {
        self.rounds
    }

    fn draw_and_send(&mut self, ctx: &mut Ctx<'_, LubyMsg>) {
        self.my_value = ctx.rng().gen::<u64>() ^ (u64::from(self.id.raw()) << 1);
        for &v in &self.active_neighbors {
            ctx.send_local(v, LubyMsg::Value(self.my_value));
        }
    }

    fn decide(&mut self, ctx: &mut Ctx<'_, LubyMsg>, state: MisState) {
        self.state = state;
        self.rounds = ctx.round();
        let msg = if state == MisState::InMis {
            LubyMsg::Joined
        } else {
            LubyMsg::Decided
        };
        for &v in &self.active_neighbors {
            ctx.send_local(v, msg);
        }
        self.active_neighbors.clear();
    }
}

impl Protocol for LubyMisNode {
    type Message = LubyMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, LubyMsg>) {
        if self.active_neighbors.is_empty() {
            // Isolated nodes join immediately.
            self.state = MisState::InMis;
            return;
        }
        self.draw_and_send(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, LubyMsg>, inbox: &[Envelope<LubyMsg>]) {
        if self.state != MisState::Undecided {
            return;
        }
        let mut lowest = true;
        let mut covered = false;
        for env in inbox {
            match env.payload {
                LubyMsg::Value(v) => {
                    // Ties are broken by identifier so the comparison is a total order.
                    if (v, env.from) < (self.my_value, self.id) {
                        lowest = false;
                    }
                }
                LubyMsg::Joined => covered = true,
                LubyMsg::Decided => {
                    self.active_neighbors.remove(&env.from);
                }
            }
        }
        for env in inbox {
            if matches!(env.payload, LubyMsg::Joined) {
                self.active_neighbors.remove(&env.from);
            }
        }
        if covered {
            self.decide(ctx, MisState::Covered);
            return;
        }
        if lowest && !inbox.is_empty() || self.active_neighbors.is_empty() {
            self.decide(ctx, MisState::InMis);
            return;
        }
        self.draw_and_send(ctx);
    }

    fn is_done(&self) -> bool {
        self.state != MisState::Undecided
    }
}

/// Result of a Luby MIS run.
#[derive(Clone, Debug)]
pub struct LubyMisReport {
    /// The independent set.
    pub mis: Vec<NodeId>,
    /// Rounds until the last node decided.
    pub rounds: usize,
    /// Whether every node decided within the round budget.
    pub complete: bool,
}

/// Runs Luby/Métivier MIS in the CONGEST model on (the undirected version of) `g`.
pub fn run_luby_mis(g: &DiGraph, seed: u64, max_rounds: usize) -> LubyMisReport {
    let und = g.to_undirected();
    let local_edges: Vec<Vec<NodeId>> = und.nodes().map(|v| und.distinct_neighbors(v)).collect();
    let nodes: Vec<LubyMisNode> = und
        .nodes()
        .map(|v| LubyMisNode::new(v, und.distinct_neighbors(v)))
        .collect();
    let config = SimConfig {
        caps: CapacityModel::hybrid_for(und.node_count(), 1),
        seed,
        local_edges: Some(local_edges),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(nodes, config);
    let outcome = sim.run(max_rounds);
    assert_eq!(
        sim.metrics().totals().dropped(),
        0,
        "Luby MIS sends one local message per edge per round"
    );
    let mis = sim
        .nodes()
        .iter()
        .filter(|n| n.state() == MisState::InMis)
        .map(|n| n.id)
        .collect();
    LubyMisReport {
        mis,
        rounds: sim
            .nodes()
            .iter()
            .map(LubyMisNode::rounds_to_decision)
            .max()
            .unwrap_or(0),
        complete: outcome.all_done,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_graph::{generators, sequential};

    fn check(g: &DiGraph, seed: u64) -> LubyMisReport {
        let report = run_luby_mis(g, seed, 200);
        assert!(report.complete, "MIS must terminate");
        let und = g.to_undirected();
        assert!(
            sequential::is_maximal_independent_set(&und, &report.mis),
            "output must be a maximal independent set"
        );
        report
    }

    #[test]
    fn mis_is_valid_on_various_graphs() {
        check(&generators::line(64), 1);
        check(&generators::cycle(65), 2);
        check(&generators::star(40), 3);
        check(&generators::grid(8, 8), 4);
        check(&generators::connected_random(100, 0.05, 5), 5);
    }

    #[test]
    fn congest_cap_drops_nothing_at_a_high_degree_node() {
        // `run_luby_mis` asserts that the CONGEST cap (one message per local
        // edge per direction per round) evicted nothing; a hub and dense
        // cliques are where a second message on an edge would show.
        for seed in 0..8u64 {
            check(&generators::star(96), seed);
            check(&generators::caveman(6, 12), seed);
        }
    }

    #[test]
    fn rounds_are_logarithmic() {
        let report = check(&generators::connected_random(256, 0.03, 9), 7);
        assert!(
            report.rounds <= 40,
            "expected O(log n) rounds, took {}",
            report.rounds
        );
    }

    #[test]
    fn isolated_nodes_join_immediately() {
        let g = DiGraph::new(5);
        let report = run_luby_mis(&g, 1, 10);
        assert_eq!(report.mis.len(), 5);
        assert_eq!(report.rounds, 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = run_luby_mis(&generators::grid(6, 6), 42, 100).mis;
        let b = run_luby_mis(&generators::grid(6, 6), 42, 100).mis;
        assert_eq!(a, b);
    }
}
