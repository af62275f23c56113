//! Supernode grouping/merging overlay construction (the Angluin et al. lineage).
//!
//! All previous `O(log² n)`–`O(log^{3/2} n)` algorithms follow the same high-level
//! scheme: nodes are grouped into *supernodes*; in every phase each supernode finds an
//! edge to an adjacent supernode, the resulting merge requests are resolved, and the
//! merged supernodes are consolidated so that every member learns the new supernode
//! identity. Grouping at least halves the number of supernodes per phase, so `Θ(log n)`
//! phases suffice — but every phase costs `Θ(log n)` rounds of intra-supernode
//! communication (convergecast and broadcast along the supernode's spanning tree, plus
//! merge-chain resolution), giving `Θ(log² n)` rounds overall.
//!
//! This module executes the merging scheme on the graph and *charges* the per-phase
//! round cost explicitly (tree depth for convergecast/broadcast, `⌈log₂ n⌉` for the
//! merge-chain resolution). The accounting is deliberately optimistic — a message-level
//! implementation pays at least these rounds — so the comparison in experiment E12
//! favours the baseline.

use overlay_graph::{analysis, DiGraph, NodeId};
use overlay_netsim::caps::log2_ceil;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Per-phase and aggregate costs of a supernode-merging run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SupernodeMergeReport {
    /// Number of merge phases executed.
    pub phases: usize,
    /// Rounds charged per phase.
    pub(crate) rounds_per_phase: Vec<usize>,
    /// Number of supernodes after every phase.
    pub(crate) supernodes_after_phase: Vec<usize>,
}

impl SupernodeMergeReport {
    /// Total rounds charged across all phases.
    pub fn total_rounds(&self) -> usize {
        self.rounds_per_phase.iter().sum()
    }
}

/// The supernode-merging baseline.
#[derive(Clone, Debug)]
pub struct SupernodeMerge {
    seed: u64,
}

impl SupernodeMerge {
    /// Creates the baseline with the given seed (merge-partner selection is random, as
    /// in the randomized variants of the scheme).
    pub fn new(seed: u64) -> Self {
        SupernodeMerge { seed }
    }

    /// Runs the merging scheme on (the undirected version of) `g` until a single
    /// supernode remains, returning the charged costs.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or not connected.
    pub fn run(&self, g: &DiGraph) -> SupernodeMergeReport {
        let und = g.to_undirected();
        let n = und.node_count();
        assert!(n > 0, "graph must be non-empty");
        assert!(analysis::is_connected(&und), "graph must be connected");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let log_n = log2_ceil(n).max(1);

        // supernode[v] = representative of v's supernode; members listed per supernode.
        let mut supernode: Vec<usize> = (0..n).collect();
        let mut members: Vec<Vec<usize>> = (0..n).map(|v| vec![v]).collect();
        let mut report = SupernodeMergeReport::default();

        let mut active: Vec<usize> = (0..n).collect();
        while active.len() > 1 {
            // Each supernode proposes a merge along a random outgoing edge.
            let mut proposal: Vec<Option<usize>> = vec![None; n];
            let mut max_depth = 1usize;
            for &s in &active {
                // Convergecast: the root learns one outgoing edge. We charge the
                // supernode's (BFS-tree) depth, approximated by ⌈log₂ |members|⌉ + 1,
                // which is the best any consolidation scheme can achieve.
                max_depth = max_depth.max(log2_ceil(members[s].len()) + 1);
                let mut outgoing: Vec<usize> = Vec::new();
                for &v in &members[s] {
                    for &w in und.neighbors(NodeId::from(v)) {
                        if supernode[w.index()] != s {
                            outgoing.push(supernode[w.index()]);
                        }
                    }
                }
                if !outgoing.is_empty() {
                    proposal[s] = outgoing.choose(&mut rng).copied();
                }
            }

            // Resolve merge chains: union the proposal graph with a union-find; this
            // costs Θ(log n) rounds of pointer jumping in the distributed setting.
            let mut uf = overlay_graph::sequential::UnionFind::new(n);
            for &s in &active {
                if let Some(t) = proposal[s] {
                    uf.union(s, t);
                }
            }

            // Consolidate: every member learns its new representative (broadcast along
            // the merged supernode, charged like the convergecast).
            let mut new_members: Vec<Vec<usize>> = vec![Vec::new(); n];
            for &s in &active {
                let root = uf.find(s);
                let moved = std::mem::take(&mut members[s]);
                new_members[root].extend(moved);
            }
            for &s in &active {
                if !new_members[s].is_empty() {
                    for &v in &new_members[s] {
                        supernode[v] = s;
                    }
                }
            }
            members = new_members;
            active = (0..n).filter(|&s| !members[s].is_empty()).collect();

            report.phases += 1;
            report.rounds_per_phase.push(2 * max_depth + log_n);
            report.supernodes_after_phase.push(active.len());

            assert!(
                report.phases <= 4 * log_n + 8,
                "merging did not converge within the expected number of phases"
            );
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_graph::generators;

    #[test]
    fn merging_converges_to_one_supernode() {
        let g = generators::line(64);
        let report = SupernodeMerge::new(1).run(&g);
        assert_eq!(*report.supernodes_after_phase.last().unwrap(), 1);
        assert!(report.phases >= 3, "must need several phases");
    }

    #[test]
    fn phase_count_is_logarithmic() {
        for n in [32usize, 128, 512] {
            let report = SupernodeMerge::new(7).run(&generators::cycle(n));
            let log_n = log2_ceil(n);
            assert!(
                report.phases <= 3 * log_n,
                "n={n}: {} phases exceed 3 log n",
                report.phases
            );
        }
    }

    #[test]
    fn total_rounds_grow_superlinearly_in_log_n() {
        let small = SupernodeMerge::new(3)
            .run(&generators::line(64))
            .total_rounds();
        let large = SupernodeMerge::new(3)
            .run(&generators::line(1024))
            .total_rounds();
        // log² growth: quadrupling log n (6 -> 10) should more than double the rounds.
        assert!(
            large as f64 >= 1.8 * small as f64,
            "expected super-linear growth in log n: {small} vs {large}"
        );
    }

    #[test]
    fn supernode_count_roughly_halves_per_phase() {
        let report = SupernodeMerge::new(11).run(&generators::grid(16, 16));
        let mut prev = 256usize;
        for &count in &report.supernodes_after_phase {
            assert!(count <= prev, "supernode count must be monotone");
            prev = count;
        }
        assert_eq!(prev, 1);
    }

    #[test]
    #[should_panic(expected = "must be connected")]
    fn disconnected_input_is_rejected() {
        let g = generators::disjoint_union(&[generators::line(4), generators::line(4)]);
        SupernodeMerge::new(0).run(&g);
    }
}
