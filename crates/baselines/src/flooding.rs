//! Flooding over the initial edges only.
//!
//! Without establishing new connections, learning even a single global piece of
//! information (say, the smallest identifier) takes `Θ(D)` rounds on a graph of
//! diameter `D` — `Θ(n)` on the line. This baseline quantifies how much the overlay
//! construction buys compared to staying on the initial topology.

use overlay_graph::{DiGraph, NodeId};
use overlay_netsim::{CapacityModel, Ctx, Envelope, Protocol, SimConfig, Simulator};

/// Per-node state of the leader-election-by-flooding baseline.
#[derive(Debug)]
pub(crate) struct FloodingNode {
    neighbors: Vec<NodeId>,
    best: NodeId,
    rounds_without_change: usize,
    done: bool,
}

impl FloodingNode {
    /// Creates the state machine for node `id` with its (undirected) neighbors.
    pub(crate) fn new(id: NodeId, neighbors: Vec<NodeId>) -> Self {
        FloodingNode {
            neighbors,
            best: id,
            rounds_without_change: 0,
            done: false,
        }
    }

    /// The smallest identifier this node has seen.
    pub(crate) fn best(&self) -> NodeId {
        self.best
    }
}

impl Protocol for FloodingNode {
    type Message = NodeId;

    fn on_start(&mut self, ctx: &mut Ctx<'_, NodeId>) {
        for &v in &self.neighbors {
            ctx.send_local(v, self.best);
        }
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, NodeId>, inbox: &[Envelope<NodeId>]) {
        let mut improved = false;
        for env in inbox {
            if env.payload < self.best {
                self.best = env.payload;
                improved = true;
            }
        }
        if improved {
            self.rounds_without_change = 0;
            for &v in &self.neighbors.clone() {
                ctx.send_local(v, self.best);
            }
        } else {
            self.rounds_without_change += 1;
            // Nodes cannot detect global termination locally; the harness stops the
            // simulation. We mark a node quiescent after it has been silent for a while
            // so `all_done` eventually becomes true on small graphs.
            if self.rounds_without_change > 2 * ctx.log_n() {
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Runs the flooding baseline and returns the number of rounds until every node knew
/// the smallest identifier (measured by the harness, which can see the global state).
pub fn rounds_until_all_know_minimum(g: &DiGraph, seed: u64, max_rounds: usize) -> Option<usize> {
    let und = g.to_undirected();
    let local_edges: Vec<Vec<NodeId>> = und.nodes().map(|v| und.distinct_neighbors(v)).collect();
    let nodes: Vec<FloodingNode> = und
        .nodes()
        .map(|v| FloodingNode::new(v, und.distinct_neighbors(v)))
        .collect();
    let config = SimConfig {
        caps: CapacityModel::hybrid_for(und.node_count(), 1),
        seed,
        local_edges: Some(local_edges),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(nodes, config);
    let minimum = NodeId::from(0usize);
    let all_know = |sim: &Simulator<FloodingNode>| sim.nodes().iter().all(|n| n.best() == minimum);
    let mut rounds = 0;
    while rounds < max_rounds && !all_know(&sim) {
        sim.step();
        rounds += 1;
    }
    assert_eq!(
        sim.metrics().totals().dropped(),
        0,
        "flooding sends one local message per edge per round"
    );
    all_know(&sim).then_some(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_graph::generators;

    #[test]
    fn flooding_on_line_takes_linear_rounds() {
        let n = 64;
        let rounds = rounds_until_all_know_minimum(&generators::line(n), 1, 2 * n).unwrap();
        assert!(
            rounds >= n - 2,
            "line flooding must take ~n rounds, took {rounds}"
        );
        assert!(rounds <= n + 2);
    }

    #[test]
    fn flooding_on_star_takes_constant_rounds() {
        let rounds = rounds_until_all_know_minimum(&generators::star(50), 1, 20).unwrap();
        assert!(rounds <= 3);
    }

    #[test]
    fn congest_cap_drops_nothing_at_a_high_degree_node() {
        // `rounds_until_all_know_minimum` asserts that the CONGEST cap (one
        // message per local edge per direction per round) evicted nothing.
        for seed in 0..8u64 {
            let caveman = generators::caveman(6, 12);
            let rounds = rounds_until_all_know_minimum(&caveman, seed, 40).unwrap();
            assert!((3..=8).contains(&rounds), "took {rounds}");
            // Budget exhausted mid-flood: the assertion sits after the loop
            // and still runs.
            assert_eq!(rounds_until_all_know_minimum(&caveman, seed, 2), None);
            assert!(rounds_until_all_know_minimum(&generators::star(96), seed, 20).is_some());
        }
    }

    #[test]
    fn flooding_respects_round_limit() {
        assert_eq!(
            rounds_until_all_know_minimum(&generators::line(128), 1, 10),
            None
        );
    }
}
