//! The graph-evolution engine: the same random experiment as the distributed protocol,
//! executed directly on a graph.
//!
//! The distributed [`crate::expander::ExpanderNode`] protocol and this engine perform
//! exactly the same evolution step (Δ/8 tokens per node, ℓ uniformly random slot hops,
//! up to 3Δ/8 acceptances, self-loop padding); the engine just skips the
//! message-passing so that conductance and minimum-cut trajectories (experiments E2 and
//! E4) can be measured on larger graphs and after every single evolution.

use crate::{benign, ExpanderParams, OverlayError};
use overlay_graph::{cuts, DiGraph, NodeId, UGraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Summary of one evolution step, as recorded by [`EvolutionEngine::evolve`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvolutionStats {
    /// Index of the evolution (0-based).
    pub evolution: usize,
    /// Conductance estimate of the resulting graph (upper bound via sweep cuts).
    pub conductance: f64,
    /// Minimum cut of the resulting graph, if it was computed.
    pub min_cut: Option<usize>,
    /// Whether the resulting graph satisfies the benign invariant (regularity and
    /// laziness; the cut is covered by `min_cut`).
    pub regular_and_lazy: bool,
}

/// Executes evolutions of the benign communication graph directly.
#[derive(Debug)]
pub struct EvolutionEngine {
    params: ExpanderParams,
    graph: UGraph,
    rng: StdRng,
    evolutions_done: usize,
}

impl EvolutionEngine {
    /// Creates an engine from an arbitrary weakly connected constant-degree knowledge
    /// graph by first applying the `MakeBenign` preprocessing.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`benign::make_benign`].
    pub fn from_initial(g: &DiGraph, params: ExpanderParams) -> Result<Self, OverlayError> {
        params.validate().map_err(OverlayError::InvalidParams)?;
        let graph = benign::make_benign(g, &params)?;
        Ok(Self::from_benign(graph, params))
    }

    /// Creates an engine from a graph that is already benign.
    pub fn from_benign(graph: UGraph, params: ExpanderParams) -> Self {
        let rng = StdRng::seed_from_u64(params.seed);
        EvolutionEngine {
            params,
            graph,
            rng,
            evolutions_done: 0,
        }
    }

    /// The current communication graph.
    pub fn graph(&self) -> &UGraph {
        &self.graph
    }

    /// Number of evolutions executed so far.
    pub fn evolutions_done(&self) -> usize {
        self.evolutions_done
    }

    /// Executes one evolution without computing any statistics — no
    /// conductance estimate, no benign re-check. The maintenance loop's fast
    /// path: the rewiring (and its RNG stream) is exactly that of
    /// [`EvolutionEngine::evolve`].
    pub fn evolve_quiet(&mut self) {
        self.evolve_with(|(), _, _| {}, |_, _, ()| {});
    }

    /// Executes one evolution and returns statistics of the resulting graph.
    ///
    /// Setting `track_min_cut` enables the (cubic-time) exact minimum-cut computation.
    pub fn evolve(&mut self, track_min_cut: bool) -> EvolutionStats {
        self.evolve_quiet();

        let conductance = cuts::conductance_estimate(&self.graph, self.params.seed ^ 0xC0DE);
        let min_cut = track_min_cut.then(|| cuts::min_cut(&self.graph));
        let report = benign::check_benign(&self.graph, &self.params, false);
        EvolutionStats {
            evolution: self.evolutions_done - 1,
            conductance,
            min_cut,
            regular_and_lazy: report.regular && report.lazy,
        }
    }

    /// The evolution step — token walks, acceptance, self-loop padding — with
    /// every token carrying a payload `T` besides its origin.
    ///
    /// `hop(payload, from, to)` observes each hop of each walk, in walk order;
    /// `accept(at, origin, payload)` each accepted token, in the order the
    /// edges `{at, origin}` are established. The observers see the experiment;
    /// they cannot steer it: the rewiring and the RNG stream are the same for
    /// every `T` (a unit payload is [`EvolutionEngine::evolve_quiet`]).
    pub fn evolve_with<T: Default>(
        &mut self,
        mut hop: impl FnMut(&mut T, NodeId, NodeId),
        mut accept: impl FnMut(NodeId, NodeId, T),
    ) {
        let n = self.graph.node_count();
        let delta = self.params.delta;
        let tokens_per_node = self.params.tokens_per_node();
        let walk_len = self.params.walk_len;

        // Run every token's walk; group the tokens by the node they finish at.
        let mut arrived: Vec<Vec<(NodeId, T)>> = (0..n).map(|_| Vec::new()).collect();
        for v in 0..n {
            for _ in 0..tokens_per_node {
                let mut pos = NodeId::from(v);
                let mut payload = T::default();
                for _ in 0..walk_len {
                    let slots = self.graph.neighbors(pos);
                    let next = slots[self.rng.gen_range(0..slots.len())];
                    hop(&mut payload, pos, next);
                    pos = next;
                }
                arrived[pos.index()].push((NodeId::from(v), payload));
            }
        }

        // Every node accepts up to 3Δ/8 arrived tokens and establishes bidirected edges.
        let mut next = UGraph::new(n);
        for (w, accepted) in arrived.iter_mut().enumerate() {
            let w = NodeId::from(w);
            accepted.shuffle(&mut self.rng);
            accepted.truncate(self.params.max_accepts());
            for (origin, payload) in accepted.drain(..) {
                next.add_edge(w, origin);
                accept(w, origin, payload);
            }
        }
        for v in next.nodes().collect::<Vec<_>>() {
            while next.degree(v) < delta {
                next.add_self_loop(v);
            }
        }
        self.graph = next;
        self.evolutions_done += 1;
    }

    /// Executes `count` evolutions, returning the per-evolution statistics.
    pub fn run(&mut self, count: usize, track_min_cut: bool) -> Vec<EvolutionStats> {
        (0..count).map(|_| self.evolve(track_min_cut)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_graph::{analysis, generators};

    fn params(n: usize, seed: u64) -> ExpanderParams {
        ExpanderParams::for_n(n).with_seed(seed).with_walk_len(12)
    }

    #[test]
    fn evolution_keeps_graph_benign() {
        let p = params(128, 1);
        let mut engine = EvolutionEngine::from_initial(&generators::line(128), p).unwrap();
        for _ in 0..4 {
            let stats = engine.evolve(false);
            assert!(
                stats.regular_and_lazy,
                "evolution must stay regular and lazy"
            );
        }
        assert_eq!(engine.evolutions_done(), 4);
    }

    #[test]
    fn conductance_grows_on_the_line() {
        let p = params(256, 2);
        let g = generators::line(256);
        let start = cuts::conductance_estimate(&benign::make_benign(&g, &p).unwrap(), 7);
        let mut engine = EvolutionEngine::from_initial(&g, p).unwrap();
        let stats = engine.run(6, false);
        let end = stats.last().unwrap().conductance;
        assert!(
            end > 8.0 * start,
            "conductance should grow substantially: start {start}, end {end}"
        );
    }

    #[test]
    fn enough_evolutions_yield_low_diameter() {
        let p = params(256, 3);
        let mut engine = EvolutionEngine::from_initial(&generators::line(256), p).unwrap();
        engine.run(p.evolutions, false);
        let simple = engine.graph().simplify();
        assert!(analysis::is_connected(&simple));
        let diam = analysis::diameter(&simple).unwrap();
        assert!(diam <= 4 * 8, "diameter {diam} not logarithmic");
    }

    #[test]
    fn min_cut_stays_large() {
        let p = params(96, 4);
        let mut engine = EvolutionEngine::from_initial(&generators::cycle(96), p).unwrap();
        let stats = engine.run(3, true);
        // With the theory's (huge) constants the cut never drops below Λ w.h.p.; at this
        // small scale we accept a dip to Λ/2 early on and require full recovery once the
        // graph has mixed.
        for s in &stats {
            let cut = s.min_cut.unwrap();
            assert!(
                2 * cut >= p.lambda,
                "evolution {} has cut {cut} far below lambda {}",
                s.evolution,
                p.lambda
            );
        }
        assert!(stats.last().unwrap().min_cut.unwrap() >= p.lambda);
    }

    #[test]
    fn invalid_params_are_rejected() {
        let mut p = params(64, 5);
        p.delta = 10;
        assert!(matches!(
            EvolutionEngine::from_initial(&generators::line(64), p),
            Err(OverlayError::InvalidParams(_))
        ));
    }

    #[test]
    fn quiet_evolution_matches_the_instrumented_step() {
        let p = params(64, 13);
        let g = generators::cycle(64);
        let mut a = EvolutionEngine::from_initial(&g, p).unwrap();
        let mut b = EvolutionEngine::from_initial(&g, p).unwrap();
        for _ in 0..3 {
            a.evolve(false);
            b.evolve_quiet();
        }
        assert_eq!(a.graph().edges(), b.graph().edges());
        assert_eq!(a.evolutions_done(), b.evolutions_done());
    }

    #[test]
    fn edge_digests_match_the_pre_generic_step() {
        // FNV-1a over the edge list after 4 evolutions on line(128), computed on
        // the commit before the step became generic over a token payload.
        for (seed, expected) in [
            (1u64, 0x74b3_47ac_0d5b_6551u64),
            (2, 0x0416_186e_74f4_c510),
            (3, 0xe2e6_c92a_129b_7146),
        ] {
            let mut engine =
                EvolutionEngine::from_initial(&generators::line(128), params(128, seed)).unwrap();
            for _ in 0..4 {
                engine.evolve_quiet();
            }
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            for (a, b) in engine.graph().edges() {
                for byte in [a.index() as u64, b.index() as u64]
                    .into_iter()
                    .flat_map(u64::to_le_bytes)
                {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(digest, expected, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = params(64, 11);
        let run = || {
            let mut e = EvolutionEngine::from_initial(&generators::cycle(64), p).unwrap();
            e.run(3, false).last().unwrap().conductance
        };
        assert_eq!(run(), run());
    }
}
