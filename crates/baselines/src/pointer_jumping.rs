//! Pointer jumping with unbounded communication: the strawman from the introduction.
//!
//! If nodes could send arbitrarily many messages per round, the diameter of any weakly
//! connected graph could be reduced to one by `O(log n)` rounds of pointer jumping:
//! every node repeatedly introduces all nodes it knows to one another. The price is
//! communication — in the worst case a node has to send `Θ(n)` messages in a single
//! round, which is exactly what the NCC0 model forbids and what experiment E12
//! measures.

use overlay_graph::{DiGraph, NodeId};
use overlay_netsim::{Ctx, Envelope, Protocol, RunMetrics, SimConfig, Simulator};
use std::collections::BTreeSet;

/// Messages of the pointer-jumping protocol: a single identifier being introduced.
pub(crate) type IntroduceMsg = NodeId;

/// Per-node state of the unbounded pointer-jumping protocol.
#[derive(Debug)]
pub(crate) struct PointerJumpingNode {
    id: NodeId,
    known: BTreeSet<NodeId>,
    rounds: usize,
    done: bool,
}

impl PointerJumpingNode {
    /// Creates the state machine for node `id` with its initial out-neighbors, running
    /// for `rounds` rounds.
    pub(crate) fn new(id: NodeId, out_neighbors: Vec<NodeId>, rounds: usize) -> Self {
        PointerJumpingNode {
            id,
            known: out_neighbors.into_iter().filter(|&v| v != id).collect(),
            rounds,
            done: false,
        }
    }

    /// The identifiers this node knows (excluding itself).
    pub(crate) fn known(&self) -> &BTreeSet<NodeId> {
        &self.known
    }

    fn introduce_all(&self, ctx: &mut Ctx<'_, IntroduceMsg>) {
        // Introduce every known node to every other known node (including introducing
        // ourselves), i.e. full pointer jumping. This is Θ(k²) messages for k known
        // nodes — the point of the experiment.
        for &target in &self.known {
            ctx.send_global(target, self.id);
            for &other in &self.known {
                if other != target {
                    ctx.send_global(target, other);
                }
            }
        }
    }
}

impl Protocol for PointerJumpingNode {
    type Message = IntroduceMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, IntroduceMsg>) {
        self.introduce_all(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, IntroduceMsg>, inbox: &[Envelope<IntroduceMsg>]) {
        for env in inbox {
            self.known.insert(env.from);
            if env.payload != self.id {
                self.known.insert(env.payload);
            }
        }
        if ctx.round() < self.rounds {
            self.introduce_all(ctx);
        } else {
            self.done = true;
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Result of a pointer-jumping run.
#[derive(Clone, Debug)]
pub struct PointerJumpingReport {
    /// Rounds executed.
    pub rounds: usize,
    /// Whether every node ended up knowing every other node (diameter one).
    pub complete: bool,
    /// Communication metrics of the run; `totals().max_sent` is the interesting
    /// quantity (it reaches `Θ(n²)` messages for the hub of a star and `Θ(n)` even on a
    /// line).
    pub metrics: RunMetrics,
}

/// Runs pointer jumping with unbounded communication for `rounds` rounds on `g`.
pub fn run_pointer_jumping(g: &DiGraph, rounds: usize, seed: u64) -> PointerJumpingReport {
    let und = g.to_undirected();
    let nodes: Vec<PointerJumpingNode> = und
        .nodes()
        .map(|v| PointerJumpingNode::new(v, und.distinct_neighbors(v), rounds))
        .collect();
    let config = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(nodes, config);
    sim.run(rounds + 2);
    let n = sim.node_count();
    let complete = sim.nodes().iter().all(|node| node.known().len() == n - 1);
    PointerJumpingReport {
        rounds: sim.round(),
        complete,
        metrics: sim.metrics().clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_graph::generators;
    use overlay_netsim::caps::log2_ceil;

    #[test]
    fn line_becomes_complete_in_logarithmic_rounds() {
        let n = 64;
        let report = run_pointer_jumping(&generators::line(n), 2 * log2_ceil(n), 1);
        assert!(report.complete);
    }

    #[test]
    fn communication_explodes_beyond_ncc0_budget() {
        let n = 128;
        let report = run_pointer_jumping(&generators::line(n), 2 * log2_ceil(n), 2);
        assert!(report.complete);
        // Some node sends Ω(n) messages in one round — far beyond the O(log n) budget.
        assert!(
            report.metrics.totals().max_sent >= n,
            "expected at least {n} messages in a round, saw {}",
            report.metrics.totals().max_sent
        );
    }

    #[test]
    fn too_few_rounds_leave_graph_incomplete() {
        let report = run_pointer_jumping(&generators::line(256), 2, 3);
        assert!(!report.complete);
    }
}
