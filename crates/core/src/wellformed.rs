//! Well-formed trees and the distributed finalization step.
//!
//! A *well-formed tree* is a rooted tree of constant degree and `O(log n)` diameter
//! containing every node. The BFS tree produced on the expander already has `O(log n)`
//! depth but its degree can be `Θ(log n)`; the paper cites the merging step of
//! [Gmyr et al., ICALP'17] (child–sibling tree plus Euler-tour rebalancing) to reduce
//! the degree to a constant.
//!
//! This module implements the degree reduction as a one-round distributed *binarization*
//! ([`BinarizeNode`]): every node arranges its BFS children as a balanced binary tree
//! among themselves and keeps an edge only to the first of them. The resulting tree has
//! degree at most 4 and depth at most `depth(BFS) · (1 + ⌈log₂(Δ+1)⌉) = O(log n · log
//! log n)`. That bound is all the construction guarantees: the `O(log n)` Euler-tour
//! rebalancing is not implemented. Measured, the depth stays at the tight bound anyway:
//! experiment E1 (`reports/paper/e1.json`, n = 64 … 1024 over four families) reads a
//! `tree_height` of `log₂ n` or `log₂ n + 1` in every case.

use overlay_graph::{NodeId, UGraph};
use overlay_netsim::{Ctx, Envelope, Protocol};

/// A rooted tree over all nodes, produced by the construction pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WellFormedTree {
    root: NodeId,
    parent: Vec<NodeId>,
    children: Vec<Vec<NodeId>>,
}

impl WellFormedTree {
    /// Assembles a tree from per-node parent pointers (the root points to itself).
    ///
    /// # Panics
    ///
    /// Panics if there is not exactly one root.
    pub fn from_parents(parent: Vec<NodeId>) -> Self {
        Self::try_from_parents(parent).expect("a well-formed tree has exactly one root")
    }

    /// [`WellFormedTree::from_parents`], fallible: `None` unless exactly one
    /// node is its own parent.
    pub(crate) fn try_from_parents(parent: Vec<NodeId>) -> Option<Self> {
        Self::rooted(parent, |_| true)
    }

    /// Like [`WellFormedTree::from_parents`], but fallible, and only `alive` nodes may claim
    /// the root slot: a crashed node frozen with its initial self-parent is tolerated
    /// as a detached dangle instead of being miscounted as a second root. Returns
    /// `None` unless exactly one alive root exists.
    ///
    /// # Panics
    ///
    /// Panics if `alive.len()` differs from `parent.len()`.
    pub(crate) fn from_parents_over(mut parent: Vec<NodeId>, alive: &[bool]) -> Option<Self> {
        assert_eq!(alive.len(), parent.len(), "one liveness flag per node");
        // Detach dead nodes entirely (self-parent, no edges) so height() and
        // max_degree() measure the alive tree, not dangling dead subtrees.
        for (v, p) in parent.iter_mut().enumerate() {
            if !alive[v] {
                *p = NodeId::from(v);
            }
        }
        Self::rooted(parent, |v| alive[v])
    }

    /// The tree over `parent` whose root is the one self-parent that `may_root`
    /// admits; `None` unless there is exactly one.
    fn rooted(parent: Vec<NodeId>, may_root: impl Fn(usize) -> bool) -> Option<Self> {
        let n = parent.len();
        let mut roots = (0..n).filter(|&v| parent[v].index() == v && may_root(v));
        let root = NodeId::from(roots.next()?);
        if roots.next().is_some() {
            return None;
        }
        let mut children = vec![Vec::new(); n];
        for (v, &p) in parent.iter().enumerate() {
            if p.index() != v {
                children[p.index()].push(NodeId::from(v));
            }
        }
        Some(WellFormedTree {
            root,
            parent,
            children,
        })
    }

    /// The tree's root.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// The parent of `v` (the root's parent is itself).
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parent[v.index()]
    }

    /// The children of `v`.
    #[cfg(test)]
    pub(crate) fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v.index()]
    }

    /// The depth of every node (root = 0); `None` entries indicate nodes not connected
    /// to the root, which [`WellFormedTree::is_valid`] rejects.
    pub fn depths(&self) -> Vec<Option<usize>> {
        let n = self.parent.len();
        let mut depth = vec![None; n];
        depth[self.root.index()] = Some(0);
        let mut stack = vec![self.root];
        while let Some(v) = stack.pop() {
            let d = depth[v.index()].expect("stacked nodes have depths");
            for &c in &self.children[v.index()] {
                if depth[c.index()].is_none() {
                    depth[c.index()] = Some(d + 1);
                    stack.push(c);
                }
            }
        }
        depth
    }

    /// The height of the tree (maximum depth).
    pub fn height(&self) -> usize {
        self.depths().into_iter().flatten().max().unwrap_or(0)
    }

    /// The maximum degree (children plus parent edge).
    pub fn max_degree(&self) -> usize {
        (0..self.parent.len())
            .map(|v| {
                let parent_edge = usize::from(self.parent[v].index() != v);
                self.children[v].len() + parent_edge
            })
            .max()
            .unwrap_or(0)
    }

    /// Checks that the structure is a tree covering all nodes: every node reaches the
    /// root and the edge count is `n - 1`.
    pub fn is_valid(&self) -> bool {
        let n = self.parent.len();
        if n == 0 {
            return false;
        }
        let reachable = self.depths().iter().filter(|d| d.is_some()).count();
        let edges: usize = self.children.iter().map(Vec::len).sum();
        reachable == n && edges == n - 1
    }

    /// The number of `alive` nodes the tree covers: those that reach the root
    /// through a parent chain of alive nodes only (the root included), counted
    /// top-down from the root in one pass — a node on or below a parent cycle
    /// is never reached, as in [`WellFormedTree::depths`]. Zero when the root
    /// is dead.
    ///
    /// # Panics
    ///
    /// Panics if `alive.len()` differs from the node count.
    pub fn covered(&self, alive: &[bool]) -> usize {
        assert_eq!(alive.len(), self.parent.len(), "one liveness flag per node");
        if !alive[self.root.index()] {
            return 0;
        }
        let mut covered = 0;
        let mut stack = vec![self.root];
        while let Some(v) = stack.pop() {
            covered += 1;
            let children = self.children[v.index()].iter();
            stack.extend(children.filter(|c| alive[c.index()]));
        }
        covered
    }

    /// Checks validity restricted to the `alive` nodes: the root is alive, and every
    /// alive node reaches the root through a parent chain of alive nodes only. Used by
    /// fault-injected pipelines, where crashed nodes are allowed to dangle but the
    /// survivors must still form one rooted tree.
    ///
    /// # Panics
    ///
    /// Panics if `alive.len()` differs from the node count.
    pub(crate) fn is_valid_over(&self, alive: &[bool]) -> bool {
        alive[self.root.index()] && self.covered(alive) == alive.iter().filter(|a| **a).count()
    }

    /// The tree as an undirected graph (useful for diameter measurements).
    pub fn to_ugraph(&self) -> UGraph {
        let mut g = UGraph::new(self.parent.len());
        for (v, &p) in self.parent.iter().enumerate() {
            if p.index() != v {
                g.add_edge(NodeId::from(v), p);
            }
        }
        g
    }
}

/// The binarization rule for one node's sorted children, as `(child, new
/// parent)` pairs: the node keeps only its first child, and the remaining
/// children are arranged as a balanced binary heap among themselves — child
/// j's new parent is child (j−1)/2 — which bounds every degree by 4.
pub(crate) fn binarized<T: Copy>(node: T, children: &[T]) -> impl Iterator<Item = (T, T)> + '_ {
    let parent = move |j: usize| if j == 0 { node } else { children[(j - 1) / 2] };
    children
        .iter()
        .enumerate()
        .map(move |(j, &c)| (c, parent(j)))
}

/// Per-node state of the one-round binarization step. Its one message is the
/// receiver's new parent, a bare [`NodeId`]: the finalize hand-off rebuilds the
/// tree from every node's parent alone.
#[derive(Debug)]
pub struct BinarizeNode {
    id: NodeId,
    bfs_children: Vec<NodeId>,
    new_parent: NodeId,
    done: bool,
}

impl BinarizeNode {
    /// Creates the state machine for node `id` given its BFS children.
    pub fn new(id: NodeId, mut bfs_children: Vec<NodeId>) -> Self {
        bfs_children.sort_unstable();
        BinarizeNode {
            id,
            bfs_children,
            new_parent: id,
            done: false,
        }
    }

    /// The node's parent in the binarized tree (itself for the root).
    pub(crate) fn new_parent(&self) -> NodeId {
        self.new_parent
    }

    /// Number of message rounds the protocol needs after the start round.
    pub fn total_rounds() -> usize {
        1
    }
}

impl Protocol for BinarizeNode {
    type Message = NodeId;

    fn on_start(&mut self, ctx: &mut Ctx<'_, NodeId>) {
        for (c, parent) in binarized(self.id, &self.bfs_children) {
            ctx.send_global(c, parent);
        }
    }

    fn on_round(&mut self, _ctx: &mut Ctx<'_, NodeId>, inbox: &[Envelope<NodeId>]) {
        for env in inbox {
            self.new_parent = env.payload;
        }
        self.done = true;
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_graph::analysis;
    use overlay_netsim::{SimConfig, Simulator};

    /// Builds a star BFS tree (root 0 with n-1 children) and binarizes it.
    fn binarize_star(n: usize) -> WellFormedTree {
        let nodes: Vec<BinarizeNode> = (0..n)
            .map(|v| {
                if v == 0 {
                    BinarizeNode::new(NodeId::from(0usize), (1..n).map(NodeId::from).collect())
                } else {
                    BinarizeNode::new(NodeId::from(v), Vec::new())
                }
            })
            .collect();
        let mut sim = Simulator::new(nodes, SimConfig::default());
        let outcome = sim.run(BinarizeNode::total_rounds() + 1);
        assert!(outcome.all_done);
        let parents: Vec<NodeId> = sim.nodes().iter().map(|b| b.new_parent()).collect();
        WellFormedTree::from_parents(parents)
    }

    #[test]
    fn from_parents_builds_children_lists() {
        let parents: Vec<NodeId> = vec![0.into(), 0.into(), 0.into(), 1.into()];
        let t = WellFormedTree::from_parents(parents);
        assert_eq!(t.root(), NodeId::from(0usize));
        assert_eq!(
            t.children(0.into()),
            &[NodeId::from(1usize), NodeId::from(2usize)]
        );
        assert_eq!(t.children(1.into()), &[NodeId::from(3usize)]);
        assert_eq!(t.height(), 2);
        // Node 0 has two children and no parent edge; node 1 has one child plus its
        // parent edge.
        assert_eq!(t.max_degree(), 2);
        assert!(t.is_valid());
    }

    #[test]
    #[should_panic(expected = "exactly one root")]
    fn from_parents_rejects_forests() {
        let parents: Vec<NodeId> = vec![0.into(), 1.into(), 0.into()];
        let _ = WellFormedTree::from_parents(parents);
    }

    #[test]
    fn binarized_star_has_constant_degree_and_log_depth() {
        let n = 129;
        let t = binarize_star(n);
        assert!(t.is_valid());
        assert_eq!(t.node_count(), n);
        assert!(
            t.max_degree() <= 4,
            "degree {} exceeds the constant bound",
            t.max_degree()
        );
        // 1 (root to first child) + ceil(log2 of 128 children) = 8.
        assert!(t.height() <= 8, "height {} too large", t.height());
        // The tree is connected and has n-1 edges.
        let g = t.to_ugraph();
        assert!(analysis::is_connected(&g));
        assert_eq!(g.edge_count(), n - 1);
    }

    #[test]
    fn binarizing_a_path_keeps_it_intact() {
        // A path BFS tree (each node has one child) must be unchanged.
        let n = 16;
        let nodes: Vec<BinarizeNode> = (0..n)
            .map(|v| {
                let children = if v + 1 < n {
                    vec![NodeId::from(v + 1)]
                } else {
                    Vec::new()
                };
                BinarizeNode::new(NodeId::from(v), children)
            })
            .collect();
        let mut sim = Simulator::new(nodes, SimConfig::default());
        sim.run(4);
        let parents: Vec<NodeId> = sim.nodes().iter().map(|b| b.new_parent()).collect();
        let t = WellFormedTree::from_parents(parents);
        assert!(t.is_valid());
        assert_eq!(t.height(), n - 1);
        assert_eq!(t.max_degree(), 2);
    }

    /// `covered` as the maintenance runner and `is_valid_over` used to count
    /// it: every alive node walks its own parent chain to the root, through
    /// alive nodes only, `n` steps at most so a cycle terminates.
    fn chain_walk_covered(t: &WellFormedTree, alive: &[bool]) -> usize {
        let n = t.node_count();
        let reaches_root = |v: usize| {
            let mut cur = NodeId::from(v);
            let mut steps = 0;
            while cur != t.root() {
                if !alive[cur.index()] || steps > n {
                    return false;
                }
                cur = t.parent(cur);
                steps += 1;
            }
            true
        };
        if !alive[t.root().index()] {
            return 0;
        }
        (0..n).filter(|&v| alive[v] && reaches_root(v)).count()
    }

    #[test]
    fn covered_counts_what_the_parent_chain_walk_counted() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (mut cyclic, mut dead_root, mut cut_off) = (0, 0, 0);
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..40usize);
            let root = rng.gen_range(0..n);
            // Any parent but oneself: mostly trees with a few cycles hanging
            // off nothing, since a random parent need not lead to the root.
            let parents: Vec<NodeId> = (0..n)
                .map(|v| {
                    if v == root {
                        v
                    } else {
                        (v + rng.gen_range(1..n)) % n
                    }
                })
                .map(NodeId::from)
                .collect();
            let t = WellFormedTree::try_from_parents(parents).expect("one self-parent");
            let all = vec![true; n];
            let alive: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.85)).collect();
            for mask in [&all, &alive] {
                let covered = t.covered(mask);
                assert_eq!(covered, chain_walk_covered(&t, mask), "seed {seed}");
                let live = mask.iter().filter(|a| **a).count();
                assert_eq!(
                    t.is_valid_over(mask),
                    mask[root] && covered == live,
                    "seed {seed}"
                );
            }
            cyclic += usize::from(t.covered(&all) < n);
            dead_root += usize::from(!alive[root]);
            // A dead interior node strands alive nodes below it.
            let live = alive.iter().filter(|a| **a).count();
            cut_off += usize::from(alive[root] && t.covered(&all) == n && t.covered(&alive) < live);
        }
        assert!(
            cyclic > 30 && dead_root > 10 && cut_off > 10,
            "{cyclic} {dead_root} {cut_off}"
        );
    }

    #[test]
    fn depths_mark_unreachable_nodes() {
        // Manually corrupt a tree: node 2's parent is 1 but 1's child list is empty.
        let t = WellFormedTree {
            root: NodeId::from(0usize),
            parent: vec![0.into(), 0.into(), 1.into()],
            children: vec![vec![1.into()], vec![], vec![]],
        };
        assert!(!t.is_valid());
        assert_eq!(t.depths()[2], None);
    }
}
