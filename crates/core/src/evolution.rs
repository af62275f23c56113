//! The graph-evolution engine: the same random experiment as the distributed protocol,
//! executed directly on a graph.
//!
//! The distributed [`crate::ExpanderNode`] protocol and this engine run the same
//! random experiment per evolution (Δ/8 tokens per node, ℓ uniformly random slot hops,
//! up to 3Δ/8 acceptances, self-loop padding), but on different random streams: every
//! protocol node draws from its own generator, the engine from one generator for the
//! whole graph. Their graphs are equal in distribution, not byte for byte, and no test
//! compares them. The engine skips the message-passing so that conductance and
//! minimum-cut trajectories (experiments E2 and E4) can be measured on larger graphs
//! and after every single evolution.

use crate::{benign, ExpanderParams, OverlayError};
use overlay_graph::{conductance_estimate, DiGraph, NodeId, UGraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

/// Tokens walked abreast. One walk is a chain of dependent loads — the next
/// draw's list is the slot just loaded — so the block advances all of its
/// tokens one hop per step and their loads overlap.
const BLOCK: usize = 32;

/// The slot a raw word picks from a list of `len`: the multiply-shift of the
/// vendored `gen_range(0..len)`, so one word per hop is the stream one
/// `gen_range` per hop draws.
fn slot_index(word: u64, len: usize) -> usize {
    ((u128::from(word) * len as u128) >> 64) as usize
}

/// Summary of one evolution step, as recorded by [`EvolutionEngine::run`].
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

    /// Consumes the engine, returning its current communication graph.
    pub(crate) fn into_graph(self) -> UGraph {
        self.graph
    }

    /// Executes one evolution without computing any statistics — no
    /// conductance estimate, no benign re-check. The maintenance loop's fast
    /// path: the rewiring (and its RNG stream) is exactly that of
    /// each evolution of [`EvolutionEngine::run`].
    pub fn evolve_quiet(&mut self) {
        self.evolve_with(|(), _, _| {}, |_, _, ()| {});
    }

    /// Executes one evolution and returns statistics of the resulting graph.
    ///
    /// Setting `track_min_cut` enables the (cubic-time) exact minimum-cut computation.
    pub(crate) fn evolve(&mut self, track_min_cut: bool) -> EvolutionStats {
        self.evolve_quiet();

        let conductance = conductance_estimate(&self.graph, self.params.seed ^ 0xC0DE);
        let min_cut = track_min_cut.then(|| overlay_graph::min_cut(&self.graph));
        let (g, delta) = (&self.graph, self.params.delta);
        EvolutionStats {
            evolution: self.evolutions_done - 1,
            conductance,
            min_cut,
            regular_and_lazy: g.is_regular(delta)
                && g.nodes().all(|v| g.self_loops(v) >= delta / 2),
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
    ///
    /// # Panics
    ///
    /// Panics if a node of the current graph has no edge slot at all: a walk
    /// cannot leave it (every node of a benign graph has Δ).
    pub fn evolve_with<T: Default>(
        &mut self,
        mut hop: impl FnMut(&mut T, NodeId, NodeId),
        mut accept: impl FnMut(NodeId, NodeId, T),
    ) {
        let n = self.graph.node_count();
        let delta = self.params.delta;
        let tokens_per_node = self.params.tokens_per_node();
        let walk_len = self.params.walk_len;
        let max_accepts = self.params.max_accepts();
        for v in self.graph.nodes() {
            assert!(
                self.graph.degree(v) > 0,
                "node {v} has no edge slots: a token cannot take a step from it"
            );
        }

        // Run every token's walk, `BLOCK` tokens at a time. Token `t` was
        // launched by node `t / tokens_per_node`, finished at `ends[t]` and
        // carries `payloads[t]`. Within a block, `words[i * walk_len + s]` is
        // token `i`'s draw for hop `s` — token-major, the order of one walk
        // after another — and `path[i * walk_len + s]` where that hop landed.
        let tokens = n * tokens_per_node;
        let mut ends: Vec<usize> = Vec::with_capacity(tokens);
        let mut payloads: Vec<T> = Vec::with_capacity(tokens);
        let mut words = vec![0u64; BLOCK * walk_len];
        let mut path = vec![NodeId::default(); BLOCK * walk_len];
        let mut pos = [NodeId::default(); BLOCK];
        for first in (0..tokens).step_by(BLOCK) {
            let block = BLOCK.min(tokens - first);
            let origin = |i: usize| NodeId::from((first + i) / tokens_per_node);
            for word in &mut words[..block * walk_len] {
                *word = self.rng.next_u64();
            }
            for (i, p) in pos[..block].iter_mut().enumerate() {
                *p = origin(i);
            }
            for s in 0..walk_len {
                for (i, p) in pos[..block].iter_mut().enumerate() {
                    let slots = self.graph.neighbors(*p);
                    *p = slots[slot_index(words[i * walk_len + s], slots.len())];
                    path[i * walk_len + s] = *p;
                }
            }
            // Replay each walk to the observer, in walk order.
            for (i, &end) in pos[..block].iter().enumerate() {
                let mut from = origin(i);
                let mut payload = T::default();
                for &to in &path[i * walk_len..(i + 1) * walk_len] {
                    hop(&mut payload, from, to);
                    from = to;
                }
                ends.push(end.index());
                payloads.push(payload);
            }
        }

        // Group the tokens by the node they finished at with a stable counting
        // sort, so every node's run of `arrived` is in launch order:
        // `bucket_end[w]` walks from the start of `w`'s run to its end.
        let mut bucket_end = vec![0usize; n];
        for &w in &ends {
            bucket_end[w] += 1;
        }
        let mut total = 0;
        for slot in &mut bucket_end {
            let count = *slot;
            *slot = total;
            total += count;
        }
        let mut arrived = vec![0usize; ends.len()];
        for (t, &w) in ends.iter().enumerate() {
            arrived[bucket_end[w]] = t;
            bucket_end[w] += 1;
        }

        // Every node accepts up to 3Δ/8 arrived tokens and establishes
        // bidirected edges. The walks are over, so the next graph is built
        // into the current one's emptied lists.
        let next = &mut self.graph;
        next.reset(n, delta);
        let mut run_start = 0;
        for (w, &run_end) in bucket_end.iter().enumerate() {
            let w = NodeId::from(w);
            let here = &mut arrived[run_start..run_end];
            run_start = run_end;
            here.shuffle(&mut self.rng);
            for &t in here.iter().take(max_accepts) {
                let origin = NodeId::from(t / tokens_per_node);
                next.add_edge(w, origin);
                accept(w, origin, std::mem::take(&mut payloads[t]));
            }
        }
        next.pad_self_loops(delta);
        self.evolutions_done += 1;
        #[cfg(debug_assertions)]
        self.check_contracts();
    }

    /// The graph-level half of the benign invariant after an evolution,
    /// whatever graph went in: a node holds at most Δ/8 edges from its own
    /// accepted tokens and 3Δ/8 from those it accepted, so padding leaves it
    /// at degree Δ with at least Δ/2 self-loops; and every edge was added at
    /// both ends.
    #[cfg(debug_assertions)]
    fn check_contracts(&self) {
        let (g, delta) = (&self.graph, self.params.delta);
        let (mut up, mut down) = (Vec::new(), Vec::new());
        for v in g.nodes() {
            assert_eq!(g.degree(v), delta, "node {v} is not of degree Δ");
            assert!(
                g.self_loops(v) >= delta / 2,
                "node {v} holds {} self-loops, fewer than Δ/2 = {}",
                g.self_loops(v),
                delta / 2
            );
            for &u in g.neighbors(v) {
                match v.cmp(&u) {
                    std::cmp::Ordering::Less => up.push((v, u)),
                    std::cmp::Ordering::Greater => down.push((u, v)),
                    std::cmp::Ordering::Equal => {}
                }
            }
        }
        up.sort_unstable();
        down.sort_unstable();
        assert!(
            up == down,
            "some node is in a neighbour's slots more often than that neighbour is in its own"
        );
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
    use rand::Rng;

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
        assert_eq!(engine.evolutions_done, 4);
    }

    #[test]
    fn conductance_grows_on_the_line() {
        let p = params(256, 2);
        let g = generators::line(256);
        let start = conductance_estimate(&benign::make_benign(&g, &p).unwrap(), 7);
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
        assert_eq!(a.evolutions_done, b.evolutions_done);
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

    impl EvolutionEngine {
        /// The step as it was before the flat token buffers: one `Vec` of
        /// arrived tokens per node, `add_edge` into unsized lists, a padding
        /// loop per node. The specification `evolve_with` is checked against.
        fn reference_evolve_with<T: Default>(
            &mut self,
            mut hop: impl FnMut(&mut T, NodeId, NodeId),
            mut accept: impl FnMut(NodeId, NodeId, T),
        ) {
            let n = self.graph.node_count();
            let delta = self.params.delta;
            let tokens_per_node = self.params.tokens_per_node();
            let walk_len = self.params.walk_len;

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
    }

    type Walk = Vec<(NodeId, NodeId)>;

    /// One step of `engine` — the reference if `reference`, else the step
    /// under test — with every token carrying its walk: the `hop` calls and
    /// the `accept` calls (payload included), in call order.
    fn observed_step(
        engine: &mut EvolutionEngine,
        reference: bool,
    ) -> (Walk, Vec<(NodeId, NodeId, Walk)>) {
        let (mut hops, mut accepts) = (Vec::new(), Vec::new());
        let hop = |walk: &mut Walk, from, to| {
            walk.push((from, to));
            hops.push((from, to));
        };
        let accept = |at, origin, walk: Walk| accepts.push((at, origin, walk));
        if reference {
            engine.reference_evolve_with(hop, accept);
        } else {
            engine.evolve_with(hop, accept);
        }
        (hops, accepts)
    }

    /// Runs `evolutions` steps on `graph` with the step under test and with
    /// the reference and compares everything an observer or a later caller
    /// can see.
    fn assert_step_matches_reference(graph: &UGraph, p: ExpanderParams, evolutions: usize) {
        let mut new = EvolutionEngine::from_benign(graph.clone(), p);
        let mut old = EvolutionEngine::from_benign(graph.clone(), p);
        for evolution in 0..evolutions {
            assert!(
                observed_step(&mut new, false) == observed_step(&mut old, true),
                "hop or accept sequence, evolution {evolution}"
            );
            assert!(new.graph == old.graph, "graph, evolution {evolution}");
        }
        assert_eq!(new.rng.gen::<u64>(), old.rng.gen::<u64>(), "RNG stream");
        assert_eq!(new.evolutions_done, old.evolutions_done);
    }

    #[test]
    fn flat_buffer_step_equals_the_per_node_vec_reference() {
        for seed in [1u64, 2, 3] {
            let p = params(64, seed);
            for g in [
                generators::line(64),
                generators::cycle(64),
                generators::random_regular(64, 4, seed),
            ] {
                let benign = benign::make_benign(&g, &p).unwrap();
                assert_step_matches_reference(&benign, p, 3);
            }
        }
    }

    #[test]
    fn step_equals_the_reference_on_irregular_and_single_node_inputs() {
        let p = params(8, 5);
        // Node 0 holds 3Δ slots, node 3 a single self-loop: what the
        // maintenance loop's over-full contact lists look like, exaggerated.
        // The postcondition (debug profile) must hold on the way out anyway.
        let mut g = UGraph::new(4);
        for i in 0..3 * p.delta {
            g.add_edge(0.into(), (1 + i % 2).into());
        }
        g.add_self_loop(3.into());
        assert_step_matches_reference(&g, p, 3);

        let mut single = UGraph::new(1);
        single.pad_self_loops(p.delta);
        assert_step_matches_reference(&single, p, 2);
    }

    #[test]
    fn step_equals_the_reference_across_block_edges_and_short_walks() {
        // 37 · 12 = 444 tokens: thirteen full blocks and a tail of 28. The
        // reference draws through `gen_range`, so this also pins one word
        // per hop, token-major, mapped by the same multiply-shift.
        let p = params(37, 6);
        assert_eq!((37 * p.tokens_per_node()) % BLOCK, 28);
        for g in [generators::line(37), generators::random_regular(37, 4, 6)] {
            let benign = benign::make_benign(&g, &p).unwrap();
            for walk_len in [12, 1, 2] {
                assert_step_matches_reference(&benign, p.with_walk_len(walk_len), 3);
            }
        }
    }

    #[test]
    #[should_panic(expected = "node n2 has no edge slots")]
    fn a_node_without_slots_is_refused_by_name() {
        let mut g = UGraph::new(3);
        g.add_edge(0.into(), 1.into());
        EvolutionEngine::from_benign(g, params(8, 1)).evolve_quiet();
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
