//! Distributed BFS over the constructed expander graph.
//!
//! After the evolutions, the paper performs a BFS from the node with the smallest
//! identifier by flooding: every node repeatedly forwards the smallest root identifier
//! it has seen, remembering the neighbor it first heard it from as its parent. Because
//! the expander has diameter `O(log n)`, a round budget of `Θ(log n)` suffices, after
//! which one extra round lets every node report to its parent so parents learn their
//! children.

use overlay_graph::NodeId;
use overlay_netsim::wire::{Wire, WireError};
use overlay_netsim::{Ctx, Envelope, Protocol};

/// Messages of the BFS protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BfsMsg {
    /// "The smallest identifier I know of is `root`, and I am at distance `dist` from
    /// it."
    Offer {
        /// Smallest identifier seen so far.
        root: NodeId,
        /// The sender's distance from that root.
        dist: u32,
    },
    /// "You are my parent in the BFS tree."
    Child,
}

impl Wire for BfsMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BfsMsg::Offer { root, dist } => {
                out.push(0);
                root.encode(out);
                dist.encode(out);
            }
            BfsMsg::Child => out.push(1),
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(BfsMsg::Offer {
                root: NodeId::decode(buf)?,
                dist: u32::decode(buf)?,
            }),
            1 => Ok(BfsMsg::Child),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Per-node state of the distributed BFS.
#[derive(Debug)]
pub struct BfsNode {
    id: NodeId,
    neighbors: Vec<NodeId>,
    flood_rounds: usize,
    root: NodeId,
    parent: NodeId,
    dist: u32,
    children: Vec<NodeId>,
    improved: bool,
    done: bool,
}

impl BfsNode {
    /// Creates the BFS state machine for node `id` with the given distinct neighbors in
    /// the expander graph and a flooding budget of `flood_rounds` rounds.
    pub fn new(id: NodeId, neighbors: Vec<NodeId>, flood_rounds: usize) -> Self {
        BfsNode {
            id,
            neighbors,
            flood_rounds,
            root: id,
            parent: id,
            dist: 0,
            children: Vec::new(),
            improved: true,
            done: false,
        }
    }

    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The smallest identifier this node has seen (after termination: the BFS root).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The node's BFS parent (itself for the root).
    pub fn parent(&self) -> NodeId {
        self.parent
    }

    /// The node's BFS children.
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// [`Self::children`], moving the list out of the node.
    pub(crate) fn into_children(self) -> Vec<NodeId> {
        self.children
    }

    /// The node's BFS depth.
    pub fn depth(&self) -> u32 {
        self.dist
    }

    /// Number of message rounds the protocol needs after the start round: the flooding
    /// budget plus the round in which children report to their parents.
    pub fn total_rounds(flood_rounds: usize) -> usize {
        flood_rounds + 1
    }

    fn broadcast(&self, ctx: &mut Ctx<'_, BfsMsg>) {
        for &v in &self.neighbors {
            ctx.send_global(
                v,
                BfsMsg::Offer {
                    root: self.root,
                    dist: self.dist,
                },
            );
        }
    }
}

impl Protocol for BfsNode {
    type Message = BfsMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, BfsMsg>) {
        self.broadcast(ctx);
        self.improved = false;
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, BfsMsg>, inbox: &[Envelope<BfsMsg>]) {
        if self.done {
            // A done node still ingests late child reports: a Child message
            // delayed by jitter — or retransmitted by a reliability layer such as
            // `overlay-transport` — carries permanently valid information (the
            // sender committed to this parent and will not revise it), and
            // dropping it silently orphans the child in the binarized tree.
            // Offers stay frozen: re-flooding after the schedule would never
            // terminate.
            let mut late_children = false;
            for env in inbox {
                if env.payload == BfsMsg::Child {
                    self.children.push(env.from);
                    late_children = true;
                }
            }
            if late_children {
                self.children.sort_unstable();
                self.children.dedup();
            }
            return;
        }
        for env in inbox {
            match env.payload {
                BfsMsg::Offer { root, dist } => {
                    let better = root < self.root || (root == self.root && dist + 1 < self.dist);
                    if better {
                        self.root = root;
                        self.dist = dist + 1;
                        self.parent = env.from;
                        self.improved = true;
                    }
                }
                BfsMsg::Child => self.children.push(env.from),
            }
        }
        let round = ctx.round();
        if round < self.flood_rounds {
            if self.improved {
                self.broadcast(ctx);
                self.improved = false;
            }
        } else if round == self.flood_rounds {
            if self.parent != self.id {
                ctx.send_global(self.parent, BfsMsg::Child);
            }
        } else {
            self.children.sort_unstable();
            self.children.dedup();
            self.done = true;
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_graph::{generators, DiGraph};
    use overlay_netsim::{SimConfig, Simulator};

    fn run_bfs(g: &DiGraph, flood_rounds: usize) -> Vec<BfsNode> {
        let u = g.to_undirected();
        let nodes: Vec<BfsNode> = u
            .nodes()
            .map(|v| BfsNode::new(v, u.distinct_neighbors(v), flood_rounds))
            .collect();
        let mut sim = Simulator::new(nodes, SimConfig::default());
        let outcome = sim.run(BfsNode::total_rounds(flood_rounds) + 1);
        assert!(outcome.all_done);
        sim.into_nodes()
    }

    #[test]
    fn bfs_on_cycle_finds_root_zero() {
        let nodes = run_bfs(&generators::cycle(16), 12);
        for node in &nodes {
            assert_eq!(node.root(), NodeId::from(0usize));
        }
        // Depths match the cycle distance to node 0.
        assert_eq!(nodes[8].depth(), 8);
        assert_eq!(nodes[15].depth(), 1);
    }

    #[test]
    fn bfs_tree_structure_is_consistent() {
        let g = generators::connected_random(64, 0.08, 17);
        let nodes = run_bfs(&g, 20);
        let root = NodeId::from(0usize);
        let mut child_count = 0usize;
        for node in &nodes {
            if node.id() == root {
                assert_eq!(node.parent(), root);
            } else {
                assert_ne!(node.parent(), node.id(), "non-root must have a parent");
            }
            child_count += node.children().len();
        }
        // Every non-root node is some node's child exactly once.
        assert_eq!(child_count, 63);
        // Parent/child relations are mutual.
        for node in &nodes {
            for &c in node.children() {
                assert_eq!(nodes[c.index()].parent(), node.id());
            }
        }
    }

    #[test]
    fn insufficient_budget_leaves_far_nodes_unrooted() {
        // A line of 32 with only 4 flooding rounds cannot inform the far end.
        let nodes = run_bfs(&generators::line(32), 4);
        assert_ne!(nodes[31].root(), NodeId::from(0usize));
    }

    #[test]
    fn bfs_depth_bounded_by_eccentricity() {
        let g = generators::grid(6, 6);
        let nodes = run_bfs(&g, 30);
        let max_depth = nodes.iter().map(|n| n.depth()).max().unwrap();
        assert_eq!(max_depth, 10); // grid corner-to-corner distance from node 0
    }
}
