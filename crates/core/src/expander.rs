//! The distributed `CreateExpander` protocol (Section 2.1 of the paper) in the NCC0
//! model.
//!
//! Every node runs an [`ExpanderNode`] state machine. The run is organised as follows
//! (all nodes share the schedule because they know the parameters):
//!
//! * **Round 0 (start):** every node introduces itself to its initial out-neighbors so
//!   that the knowledge graph becomes bidirected.
//! * **Round 1:** every node assembles its *benign* slot list locally (every distinct
//!   undirected neighbor repeated Λ times, padded with self-loops to degree Δ) and
//!   launches evolution 0.
//! * **Evolution `e`** occupies `ℓ + 1` rounds: in the first round each node sends Δ/8
//!   random-walk tokens along uniformly random incident slots; in the following `ℓ - 1`
//!   rounds tokens are forwarded one random hop per round; in the final round each node
//!   accepts up to 3Δ/8 of the tokens that finished at it and replies to their origins,
//!   establishing bidirected edges. The next evolution's graph consists of exactly
//!   those edges plus self-loops padding every node back to degree Δ.
//! * After `L` evolutions one extra round incorporates the last acceptances; the node's
//!   final slot list is the expander graph `G_L`.
//!
//! Token forwarding over a self-loop slot stays at the node and consumes no message,
//! exactly as a lazy random-walk step.
//!
//! The self-loop padding is implicit while the node runs: it stores the edges and
//! the slot count `max(edges, Δ)`, and a draw past the edges is a self-loop. The
//! padding is written out once, when the list leaves the node — in the final round,
//! and in the summary of a node that stopped before it.

use crate::ExpanderParams;
use overlay_graph::NodeId;
use overlay_netsim::{Ctx, Envelope, Protocol};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Messages exchanged by [`ExpanderNode`]. Every variant carries at most one identifier
/// plus a small counter, i.e. `O(log n)` bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExpanderMsg {
    /// "I have an edge to you": sent once to every initial out-neighbor so the knowledge
    /// graph becomes bidirected.
    Intro,
    /// A random-walk token: the identifier of its origin and the number of hops it still
    /// has to take.
    Token {
        /// The node that started this token and will receive the new edge.
        origin: NodeId,
        /// Remaining hops after this delivery.
        steps_left: u32,
    },
    /// "I accepted your token": establishes the bidirected edge between the token's
    /// origin (the recipient of this message) and the accepting node (the sender).
    Accept,
}

overlay_netsim::wire! { ExpanderMsg { 0 => Intro, 1 => Token { origin, steps_left }, 2 => Accept } }

/// A buffered token: its origin and the hops it still has to take.
type BufferedToken = (NodeId, u32);

/// Per-node state of the distributed `CreateExpander` protocol.
#[derive(Debug)]
pub struct ExpanderNode {
    id: NodeId,
    params: ExpanderParams,
    /// Distinct initial out-neighbors (knowledge-graph edges we store).
    out_neighbors: Vec<NodeId>,
    /// Distinct nodes that introduced themselves in round 0.
    intro_neighbors: Vec<NodeId>,
    /// Current benign slot list's edges (neighbors with multiplicity; a walk that
    /// returned home as own id). The self-loop padding is not stored until the final
    /// round writes it out.
    slots: Vec<NodeId>,
    /// The slot count: `max(slots.len(), Δ)` once a slot list exists, 0 before. Slots
    /// past `slots.len()` are self-loops.
    degree: usize,
    /// Edge endpoints collected for the *next* evolution graph.
    next_slots: Vec<NodeId>,
    /// Tokens with hops left that arrived in a round that forwards nothing (a launch
    /// or accept round: delays, retransmissions), held for the next forwarding
    /// round. Never allocated on a clean run.
    forward_buffer: Vec<BufferedToken>,
    /// Tokens that completed their walk here and await the accept round.
    arrived: Vec<NodeId>,
    /// Tokens "sent to ourselves" over self-loop slots, delivered next round locally.
    self_delivery: Vec<BufferedToken>,
    /// Pooled scratch the per-round drain of `self_delivery` swaps through, so the
    /// hot path stops reallocating that vector every round (the same discipline as
    /// the simulator's envelope arena). Empty between rounds; only its capacity
    /// persists.
    scratch: Vec<BufferedToken>,
    /// Set once the final graph has been assembled.
    done: bool,
}

impl ExpanderNode {
    /// Creates the state machine for node `id` with the given distinct initial
    /// out-neighbors.
    pub fn new(id: NodeId, out_neighbors: Vec<NodeId>, params: ExpanderParams) -> Self {
        ExpanderNode {
            id,
            params,
            out_neighbors,
            intro_neighbors: Vec::new(),
            slots: Vec::new(),
            degree: 0,
            next_slots: Vec::new(),
            forward_buffer: Vec::new(),
            arrived: Vec::new(),
            self_delivery: Vec::new(),
            scratch: Vec::new(),
            done: false,
        }
    }

    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's slot list. After termination it is the node's adjacency in `G_L`,
    /// self-loops included; before, the self-loop padding is implicit and only the
    /// edges are listed (the summary writes it out).
    pub fn slots(&self) -> &[NodeId] {
        &self.slots
    }

    /// The slot list with its self-loop padding written out: [`Self::slots`] of a
    /// finished node, and the list a node that stopped early was walking on.
    pub(crate) fn padded_slots(&self) -> Vec<NodeId> {
        let mut slots = self.slots.clone();
        slots.resize(self.degree, self.id);
        slots
    }

    /// [`Self::padded_slots`], moving the list out of the node.
    pub(crate) fn into_padded_slots(mut self) -> Vec<NodeId> {
        self.slots.resize(self.degree, self.id);
        self.slots
    }

    /// Number of message rounds the protocol needs after the start (intro) round:
    /// `L` evolutions of `ℓ + 1` rounds each plus one final round that incorporates the
    /// last acceptances.
    pub fn total_rounds(params: &ExpanderParams) -> usize {
        params.evolutions * (params.walk_len + 1) + 1
    }

    /// Builds the benign slot list from local knowledge (Section 2.1 preprocessing).
    fn build_benign_slots(&mut self) {
        let mut neighbors: Vec<NodeId> = self
            .out_neighbors
            .iter()
            .chain(self.intro_neighbors.iter())
            .copied()
            .filter(|&v| v != self.id)
            .collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        self.slots.clear();
        for v in neighbors {
            for _ in 0..self.params.lambda {
                self.slots.push(v);
            }
        }
        self.pad_with_self_loops();
    }

    /// Pads the slot list to degree Δ with (implicit) self-loops; an over-full list
    /// stays over-full.
    fn pad_with_self_loops(&mut self) {
        self.degree = self.slots.len().max(self.params.delta);
    }

    /// Replaces the current slot list with the edges collected during the last
    /// evolution, padded with self-loops. The outgoing slot list's buffer is kept
    /// as the next evolution's (cleared) collection buffer instead of being freed.
    fn adopt_next_graph(&mut self) {
        std::mem::swap(&mut self.slots, &mut self.next_slots);
        self.next_slots.clear();
        self.pad_with_self_loops();
    }

    /// Sends a token one hop along a uniformly random incident slot; self-loop hops stay
    /// local and cost no message. `rng` is the callback's local copy of the node's
    /// generator (see [`Self::ingest`]); every draw of a hop comes from it.
    #[inline(always)]
    fn hop_token(
        &mut self,
        ctx: &mut Ctx<'_, ExpanderMsg>,
        rng: &mut StdRng,
        origin: NodeId,
        steps_left: u32,
    ) {
        // A node that joined mid-evolution has no slots until its first step-0 round;
        // it draws nothing and holds the token like an all-self-loop slot list would
        // (a lazy step). Unreachable in clean runs: every node has a list there.
        // A slot past the edges is a self-loop of the padding: nothing to load.
        let slot = if self.degree == 0 {
            None
        } else {
            self.slots.get(rng.gen_range(0..self.degree))
        };
        match slot {
            Some(&target) if target != self.id => {
                ctx.send_global(target, ExpanderMsg::Token { origin, steps_left })
            }
            // Lazy step: the token stays here for one round and is taken in at the
            // next, mirroring the delivery delay of a real message.
            _ => self.self_delivery.push((origin, steps_left)),
        }
    }

    fn launch_own_tokens(&mut self, ctx: &mut Ctx<'_, ExpanderMsg>) {
        let tokens = self.params.tokens_per_node();
        let steps_left = self.params.walk_len as u32 - 1;
        let mut rng = ctx.rng().clone();
        for _ in 0..tokens {
            self.hop_token(ctx, &mut rng, self.id, steps_left);
        }
        *ctx.rng() = rng;
    }

    fn accept_round(&mut self, ctx: &mut Ctx<'_, ExpanderMsg>) {
        // In place (no `take`, which reallocated every evolution): the shuffle and
        // truncation draw the exact same RNG stream as before, and the buffer's
        // capacity survives for the next evolution.
        self.arrived.shuffle(ctx.rng());
        self.arrived.truncate(self.params.max_accepts());
        for i in 0..self.arrived.len() {
            let origin = self.arrived[i];
            self.next_slots.push(origin);
            if origin != self.id {
                ctx.send_global(origin, ExpanderMsg::Accept);
            }
            // A walk that returned home creates a self-loop, which needs no message.
        }
        self.arrived.clear();
    }

    /// Takes in one token that reached this node: a finished walk awaits the accept
    /// round; one with hops left takes its next hop at once in a forwarding round
    /// and waits for the next one otherwise.
    #[inline(always)]
    fn take_token(
        &mut self,
        ctx: &mut Ctx<'_, ExpanderMsg>,
        rng: &mut StdRng,
        forwarding: bool,
        (origin, steps_left): BufferedToken,
    ) {
        if steps_left == 0 {
            self.arrived.push(origin);
        } else if forwarding {
            self.hop_token(ctx, rng, origin, steps_left - 1);
        } else {
            self.forward_buffer.push((origin, steps_left));
        }
    }

    /// Takes in everything that reached this node since its last callback. The order
    /// tokens are taken in is the order they hop in a forwarding round, and so the
    /// order of the node's RNG draws: tokens held over from rounds that forwarded
    /// nothing, then the inbox in inbox order, then last round's lazy steps.
    ///
    /// The hops draw from a local copy of the node's generator, written back before
    /// returning, so a draw updates a local value instead of going through `ctx`'s
    /// reference to the generator. Nothing else may draw from `ctx.rng()` while the
    /// copy is live.
    fn ingest(
        &mut self,
        ctx: &mut Ctx<'_, ExpanderMsg>,
        inbox: &[Envelope<ExpanderMsg>],
        forwarding: bool,
    ) {
        // Detached before anything hops: a lazy step appends to `self_delivery` and
        // belongs to the next round. Swapped out through the pooled scratch (rather
        // than `take`, which would drop the vector's capacity every round).
        debug_assert!(self.scratch.is_empty(), "scratch is empty between uses");
        let mut held =
            std::mem::replace(&mut self.self_delivery, std::mem::take(&mut self.scratch));
        let mut rng = ctx.rng().clone();
        if forwarding && !self.forward_buffer.is_empty() {
            // `take_token` does not file into `forward_buffer` while forwarding, so
            // draining a detached buffer is equivalent.
            let mut waiting = std::mem::take(&mut self.forward_buffer);
            for token in waiting.drain(..) {
                self.take_token(ctx, &mut rng, true, token);
            }
            self.forward_buffer = waiting;
        }
        for env in inbox {
            match env.payload {
                ExpanderMsg::Intro => self.intro_neighbors.push(env.from),
                ExpanderMsg::Token { origin, steps_left } => {
                    self.take_token(ctx, &mut rng, forwarding, (origin, steps_left))
                }
                ExpanderMsg::Accept => self.next_slots.push(env.from),
            }
        }
        for token in held.drain(..) {
            self.take_token(ctx, &mut rng, forwarding, token);
        }
        *ctx.rng() = rng;
        self.scratch = held;
    }
}

impl Protocol for ExpanderNode {
    type Message = ExpanderMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ExpanderMsg>) {
        let mut targets: Vec<NodeId> = self
            .out_neighbors
            .iter()
            .copied()
            .filter(|&v| v != self.id)
            .collect();
        targets.sort_unstable();
        targets.dedup();
        for v in targets {
            ctx.send_global(v, ExpanderMsg::Intro);
        }
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, ExpanderMsg>, inbox: &[Envelope<ExpanderMsg>]) {
        if self.done {
            return;
        }
        let walk_len = self.params.walk_len;
        let phase_len = walk_len + 1;
        let k = ctx.round() - 1;
        let evolution = k / phase_len;
        let step = k % phase_len;
        // Rounds 1..walk_len of an evolution move every token one hop; they hop as
        // they are taken in, straight from the inbox.
        let forwarding = evolution < self.params.evolutions && (1..walk_len).contains(&step);
        self.ingest(ctx, inbox, forwarding);

        if evolution >= self.params.evolutions {
            // Final round: incorporate the last acceptances, write the padding out
            // (the list leaves the node through `slots()`) and stop.
            self.adopt_next_graph();
            self.slots.resize(self.degree, self.id);
            self.done = true;
        } else if step == 0 {
            if evolution == 0 {
                self.build_benign_slots();
            } else {
                self.adopt_next_graph();
            }
            self.arrived.clear();
            self.launch_own_tokens(ctx);
        } else if step == walk_len {
            self.accept_round(ctx);
        }
        debug_assert!(
            self.degree == 0 || self.degree == self.slots.len().max(self.params.delta),
            "round {}: the slot count is the edges padded to Δ",
            ctx.round()
        );
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Summarize;
    use overlay_graph::{analysis, generators, DiGraph, UGraph};
    use overlay_netsim::{CapacityModel, Channel, SimConfig, Simulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_expander(g: &DiGraph, params: ExpanderParams) -> Vec<ExpanderNode> {
        let nodes: Vec<ExpanderNode> = g
            .nodes()
            .map(|v| {
                let mut out: Vec<NodeId> = g.out_neighbors(v).to_vec();
                out.sort_unstable();
                out.dedup();
                ExpanderNode::new(v, out, params)
            })
            .collect();
        let config = SimConfig {
            caps: CapacityModel::Ncc0 {
                per_round: params.ncc0_cap,
            },
            seed: params.seed,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(nodes, config);
        let outcome = sim.run(ExpanderNode::total_rounds(&params) + 2);
        assert!(outcome.all_done, "expander protocol must terminate");
        assert_eq!(
            sim.metrics().totals().dropped_receive,
            0,
            "no node should exceed its receive capacity"
        );
        let nodes = sim.into_nodes();
        assert!(
            nodes.iter().all(|v| v.forward_buffer.capacity() == 0),
            "on a clean run every token hops straight from the inbox"
        );
        nodes
    }

    fn slots_to_graph(nodes: &[ExpanderNode]) -> UGraph {
        let mut g = UGraph::new(nodes.len());
        for node in nodes {
            let v = node.id();
            for &w in node.slots() {
                if w == v {
                    g.add_self_loop(v);
                } else if w > v {
                    g.add_edge(v, w);
                }
            }
        }
        g
    }

    fn test_params(n: usize) -> ExpanderParams {
        let mut p = ExpanderParams::for_n(n);
        p.walk_len = 12;
        p.seed = 99;
        p
    }

    impl ExpanderNode {
        /// `build_benign_slots` as it was while the padding was stored: the
        /// neighbours × Λ, then own id pushed until the list holds Δ slots.
        fn reference_build_benign_slots(&mut self) {
            let mut neighbors: Vec<NodeId> = self
                .out_neighbors
                .iter()
                .chain(self.intro_neighbors.iter())
                .copied()
                .filter(|&v| v != self.id)
                .collect();
            neighbors.sort_unstable();
            neighbors.dedup();
            self.slots.clear();
            for v in neighbors {
                for _ in 0..self.params.lambda {
                    self.slots.push(v);
                }
            }
            self.reference_pad_with_self_loops();
        }

        fn reference_pad_with_self_loops(&mut self) {
            while self.slots.len() < self.params.delta {
                self.slots.push(self.id);
            }
        }

        fn reference_adopt_next_graph(&mut self) {
            std::mem::swap(&mut self.slots, &mut self.next_slots);
            self.next_slots.clear();
            self.reference_pad_with_self_loops();
        }

        /// `hop_token` over the stored, padded list: draw a slot, load it, and step
        /// lazily if it holds own id.
        fn reference_hop_token(
            &mut self,
            ctx: &mut Ctx<'_, ExpanderMsg>,
            origin: NodeId,
            steps_left: u32,
        ) {
            let target = if self.slots.is_empty() {
                self.id
            } else {
                self.slots[ctx.rng().gen_range(0..self.slots.len())]
            };
            if target == self.id {
                self.self_delivery.push((origin, steps_left));
            } else {
                ctx.send_global(target, ExpanderMsg::Token { origin, steps_left });
            }
        }

        /// `on_round` as it was before tokens hopped straight from the inbox, over the
        /// slot list as it was before its padding became implicit: file everything
        /// that arrived (`ingest`), then, in a forwarding round, drain the whole
        /// `forward_buffer` through `reference_hop_token` (`forward_round`). The
        /// executable specification of the hop order, of the node's RNG stream and of
        /// the padded slot list (`slots` here always holds the padding; `degree` is
        /// never set).
        fn reference_on_round(
            &mut self,
            ctx: &mut Ctx<'_, ExpanderMsg>,
            inbox: &[Envelope<ExpanderMsg>],
        ) {
            if self.done {
                return;
            }
            // ingest
            for env in inbox {
                match env.payload {
                    ExpanderMsg::Intro => self.intro_neighbors.push(env.from),
                    ExpanderMsg::Token { origin, steps_left } => {
                        if steps_left == 0 {
                            self.arrived.push(origin);
                        } else {
                            self.forward_buffer.push((origin, steps_left));
                        }
                    }
                    ExpanderMsg::Accept => self.next_slots.push(env.from),
                }
            }
            for (origin, steps_left) in std::mem::take(&mut self.self_delivery) {
                if steps_left == 0 {
                    self.arrived.push(origin);
                } else {
                    self.forward_buffer.push((origin, steps_left));
                }
            }

            let walk_len = self.params.walk_len;
            let phase_len = walk_len + 1;
            let k = ctx.round() - 1;
            let evolution = k / phase_len;
            let step = k % phase_len;

            if evolution >= self.params.evolutions {
                self.reference_adopt_next_graph();
                self.done = true;
                return;
            }

            if step == 0 {
                if evolution == 0 {
                    self.reference_build_benign_slots();
                } else {
                    self.reference_adopt_next_graph();
                }
                self.arrived.clear();
                // launch_own_tokens
                let steps_left = self.params.walk_len as u32 - 1;
                for _ in 0..self.params.tokens_per_node() {
                    self.reference_hop_token(ctx, self.id, steps_left);
                }
            } else if step < walk_len {
                // forward_round
                for (origin, steps_left) in std::mem::take(&mut self.forward_buffer) {
                    debug_assert!(
                        steps_left > 0,
                        "tokens with no hops left never enter the buffer"
                    );
                    self.reference_hop_token(ctx, origin, steps_left - 1);
                }
            } else {
                self.accept_round(ctx);
            }
        }
    }

    type Sends = Vec<(NodeId, Channel, ExpanderMsg)>;

    /// A node and its reference (`reference_on_round`), driven through the same
    /// inboxes from equal RNGs.
    struct Lockstep {
        new: ExpanderNode,
        old: ExpanderNode,
        new_rng: StdRng,
        old_rng: StdRng,
    }

    impl Lockstep {
        fn new(id: usize, out_neighbors: &[usize], params: ExpanderParams) -> Self {
            let out: Vec<NodeId> = out_neighbors.iter().map(|&v| NodeId::from(v)).collect();
            let node = || ExpanderNode::new(NodeId::from(id), out.clone(), params);
            Lockstep {
                new: node(),
                old: node(),
                new_rng: StdRng::seed_from_u64(77),
                old_rng: StdRng::seed_from_u64(77),
            }
        }

        /// Runs the start callback on both (a node joining at `round`).
        fn start(&mut self, round: usize) -> Sends {
            let me = self.new.id;
            let (mut new_out, mut old_out) = (Vec::new(), Vec::new());
            self.new.on_start(&mut Ctx::external(
                me,
                round,
                200,
                &mut self.new_rng,
                &mut new_out,
            ));
            self.old.on_start(&mut Ctx::external(
                me,
                round,
                200,
                &mut self.old_rng,
                &mut old_out,
            ));
            assert_eq!(new_out, old_out, "round {round}: start outbox");
            new_out
        }

        /// Runs one round on both, asserts that they agree on everything a round can
        /// change — the summary against the reference's stored, padded list — and
        /// returns the sends.
        fn round(&mut self, round: usize, mail: &[(usize, ExpanderMsg)]) -> Sends {
            let me = self.new.id;
            let inbox: Vec<Envelope<ExpanderMsg>> = mail
                .iter()
                .map(|&(from, payload)| Envelope {
                    from: NodeId::from(from),
                    channel: Channel::Global,
                    payload,
                })
                .collect();
            let (mut new_out, mut old_out) = (Vec::new(), Vec::new());
            let (new, old) = (&mut self.new, &mut self.old);
            new.on_round(
                &mut Ctx::external(me, round, 200, &mut self.new_rng, &mut new_out),
                &inbox,
            );
            old.reference_on_round(
                &mut Ctx::external(me, round, 200, &mut self.old_rng, &mut old_out),
                &inbox,
            );
            assert_eq!(new_out, old_out, "round {round}: outbox");
            assert_eq!(new.arrived, old.arrived, "round {round}: arrived");
            assert_eq!(
                new.self_delivery, old.self_delivery,
                "round {round}: self_delivery"
            );
            assert_eq!(
                new.forward_buffer, old.forward_buffer,
                "round {round}: forward_buffer"
            );
            assert_eq!(new.next_slots, old.next_slots, "round {round}: next_slots");
            assert_eq!(new.summarize(), old.slots, "round {round}: summary");
            assert_eq!(new.done, old.done, "round {round}: done");
            if new.done {
                assert_eq!(new.slots(), old.slots(), "round {round}: finished slots");
            }
            assert_eq!(
                self.new_rng.clone().gen::<u64>(),
                self.old_rng.clone().gen::<u64>(),
                "round {round}: the node's RNG stream moved"
            );
            new_out
        }
    }

    #[test]
    fn hopping_from_the_inbox_matches_file_then_drain_round_by_round() {
        let id = NodeId::from;
        let token = |from: usize, origin: usize, steps_left: u32| {
            let origin = id(origin);
            (from, ExpanderMsg::Token { origin, steps_left })
        };
        // ℓ = 4: round 1 launches, 2–4 forward, 5 accepts; 6 launches again, 7–9
        // forward, 10 accepts; 11 is the final round, 12 finds the node done.
        let params = ExpanderParams {
            delta: 16,
            lambda: 2,
            walk_len: 4,
            evolutions: 2,
            ncc0_cap: 32,
            bfs_rounds: 0,
            seed: 0,
        };
        // Origins 100.. name the tokens that arrive with hops left in a round that
        // forwards nothing; everything else a clean run could also deliver.
        let script: Vec<Vec<(usize, ExpanderMsg)>> = vec![
            // 1, launch: hops left on a launch round; a finished walk the launch discards.
            vec![
                (4, ExpanderMsg::Intro),
                token(6, 100, 2),
                token(6, 101, 3),
                token(4, 102, 1),
                token(4, 20, 0),
                token(6, 103, 2),
                token(6, 104, 2),
                token(4, 105, 3),
            ],
            // 2, forward: the six held tokens hop first (12 of 16 slots are self-loops,
            // so some of them step lazily in the round they are drained); a finished
            // walk, an `Accept` and a late `Intro` sit between tokens with hops left.
            vec![
                token(6, 21, 3),
                token(4, 22, 0),
                (9, ExpanderMsg::Accept),
                token(6, 23, 1),
                (7, ExpanderMsg::Intro),
                token(4, 24, 2),
            ],
            // 3, forward: nothing but last round's lazy steps.
            vec![],
            // 4, forward.
            vec![token(4, 25, 1), token(6, 26, 0), token(6, 27, 1)],
            // 5, accept: hops left on an accept round.
            vec![
                token(4, 28, 0),
                token(6, 106, 2),
                token(4, 29, 0),
                token(4, 107, 1),
                token(6, 5, 0),
            ],
            // 6, launch: one more held token behind the two of round 5.
            vec![
                (8, ExpanderMsg::Accept),
                token(6, 108, 3),
                (9, ExpanderMsg::Accept),
            ],
            // 7, forward: held tokens of two rounds, then the inbox.
            vec![token(8, 30, 2), token(9, 31, 0)],
            // 8 and 9, forward.
            vec![token(8, 32, 1)],
            vec![token(9, 33, 0), token(8, 34, 1)],
            // 10, accept.
            vec![token(8, 35, 0)],
            // 11, final: a token with hops left is held for good.
            vec![(8, ExpanderMsg::Accept), token(9, 109, 2)],
            // 12: done, nothing is read.
            vec![token(9, 110, 2)],
        ];

        let mut pair = Lockstep::new(5, &[6], params);
        let mut held_token_stepped_lazily = false;
        for (r, mail) in script.iter().enumerate() {
            let round = r + 1;
            let held_before: Vec<NodeId> = pair.new.forward_buffer.iter().map(|t| t.0).collect();
            pair.round(round, mail);
            let forwarding = matches!(round, 2..=4 | 7..=9);
            if forwarding {
                assert!(
                    pair.new.forward_buffer.is_empty(),
                    "round {round} forwards all"
                );
                held_token_stepped_lazily |= pair
                    .new
                    .self_delivery
                    .iter()
                    .any(|t| held_before.contains(&t.0));
            }
        }
        assert!(pair.old.done && pair.old.forward_buffer == vec![(id(109), 2)]);
        assert!(
            held_token_stepped_lazily,
            "the script must make a held token take a lazy hop in the round it is drained"
        );
    }

    #[test]
    fn implicit_padding_matches_the_stored_padding_round_by_round() {
        let token = |from: usize, origin: usize, steps_left: u32| {
            let origin = NodeId::from(origin);
            (from, ExpanderMsg::Token { origin, steps_left })
        };
        let accepts = |from: std::ops::Range<usize>| -> Vec<(usize, ExpanderMsg)> {
            from.map(|v| (v, ExpanderMsg::Accept)).collect()
        };
        let hops = |sends: &Sends| {
            sends
                .iter()
                .any(|(_, _, m)| matches!(m, ExpanderMsg::Token { .. }))
        };
        // ℓ = 4, L = 3: evolution e launches in round 1 + 5e, forwards in the next
        // three, accepts in the fifth; round 16 is the final round. Δ = 16, 2 tokens
        // per node, at most 6 accepts.
        let params = ExpanderParams {
            delta: 16,
            lambda: 2,
            walk_len: 4,
            evolutions: 3,
            ncc0_cap: 64,
            bfs_rounds: 0,
            seed: 0,
        };

        // Node 5: six benign edges; then 20 accepts and four walks that returned home
        // make evolution 1's list over-full with own id inside it; evolution 2 is
        // ordinary; 20 more accepts make the finished list over-full.
        let mut a = Lockstep::new(5, &[6], params);
        let mut script: Vec<Vec<(usize, ExpanderMsg)>> = vec![Vec::new(); 17];
        script[1] = vec![(4, ExpanderMsg::Intro), (7, ExpanderMsg::Intro)];
        script[2] = vec![token(6, 40, 2), token(4, 41, 1)];
        script[3] = accepts(20..40);
        script[4] = vec![
            token(6, 5, 0),
            token(6, 5, 0),
            token(4, 5, 0),
            token(4, 5, 0),
        ];
        script[4].push(token(4, 42, 1));
        script[5] = vec![token(7, 43, 0)];
        script[7] = (50..54).map(|o| token(4, o, 2)).collect();
        script[8] = (55..59).map(|o| token(6, o, 1)).collect();
        script[10] = vec![
            (8, ExpanderMsg::Accept),
            token(6, 60, 0),
            (4, ExpanderMsg::Accept),
        ];
        script[12] = accepts(60..80);
        script[13] = vec![token(4, 61, 1), token(6, 62, 1)];
        script[16] = accepts(80..82);
        let mut lazy_without_padding = false;
        for (round, mail) in script.iter().enumerate().skip(1) {
            let edges = a.new.next_slots.len() + mail.len();
            a.round(round, mail);
            if (6..=10).contains(&round) {
                assert!(a.new.slots.len() > 16 && a.new.degree == a.new.slots.len());
                assert!(a.new.slots.contains(&a.new.id), "own id inside the edges");
                lazy_without_padding |= !a.new.self_delivery.is_empty();
            }
            if round == 16 {
                assert!(edges > 16 && a.new.done);
                assert_eq!(
                    a.new.slots().len(),
                    edges.max(16),
                    "an over-full list stays"
                );
            }
        }
        assert!(
            lazy_without_padding,
            "a draw of own id inside an unpadded list must step lazily"
        );

        // Node 9 joins in round 3: in round 4 it holds two tokens without a draw, in
        // evolution 1 it walks on zero edges (every hop lazy), and it finishes padded.
        let mut b = Lockstep::new(9, &[5], params);
        let mut script: Vec<Vec<(usize, ExpanderMsg)>> = vec![Vec::new(); 17];
        script[4] = vec![token(5, 70, 3), token(5, 71, 2)];
        script[7] = vec![token(5, 72, 2)];
        script[10] = vec![(5, ExpanderMsg::Accept)];
        script[12] = vec![token(5, 73, 1)];
        b.start(3);
        for (round, mail) in script.iter().enumerate().skip(4) {
            let word = b.new_rng.clone().gen::<u64>();
            let edges = b.new.next_slots.len() + mail.len();
            let sends = b.round(round, mail);
            if round == 4 {
                assert_eq!(b.new.degree, 0, "no slot list before the first launch");
                assert_eq!(b.new_rng.clone().gen::<u64>(), word, "nothing drawn");
                assert_eq!(b.new.self_delivery.len(), 2, "both tokens held");
            }
            if (6..=9).contains(&round) {
                assert!(b.new.slots.is_empty() && b.new.degree == 16);
                assert!(!hops(&sends), "round {round}: zero edges, every hop lazy");
            }
            if round == 16 {
                assert!(edges < 16 && b.new.done);
                assert_eq!(b.new.slots().len(), 16, "the finished list is padded");
            }
        }
    }

    #[test]
    fn expander_total_rounds_formula() {
        let p = test_params(64);
        assert_eq!(
            ExpanderNode::total_rounds(&p),
            p.evolutions * (p.walk_len + 1) + 1
        );
    }

    #[test]
    fn expander_on_line_produces_regular_low_diameter_graph() {
        let n = 128;
        let params = test_params(n);
        let nodes = run_expander(&generators::line(n), params);
        for node in &nodes {
            assert_eq!(
                node.slots().len(),
                params.delta,
                "final graph must be regular"
            );
        }
        let g = slots_to_graph(&nodes);
        let simple = g.simplify();
        assert!(
            analysis::is_connected(&simple),
            "expander must be connected"
        );
        let diam = analysis::diameter(&simple).expect("connected");
        // O(log n) with a generous constant.
        assert!(
            diam <= 4 * 7,
            "diameter {diam} too large for n={n} (expected O(log n))"
        );
    }

    #[test]
    fn expander_edges_are_symmetric() {
        let n = 64;
        let params = test_params(n);
        let nodes = run_expander(&generators::cycle(n), params);
        // Count directed slot multiplicities and check symmetry.
        let mut counts = std::collections::HashMap::new();
        for node in &nodes {
            for &w in node.slots() {
                if w != node.id() {
                    *counts.entry((node.id(), w)).or_insert(0usize) += 1;
                }
            }
        }
        for (&(u, v), &c) in &counts {
            assert_eq!(
                counts.get(&(v, u)).copied().unwrap_or(0),
                c,
                "edge {u}->{v} must be mirrored"
            );
        }
    }

    #[test]
    fn expander_respects_message_bounds() {
        let n = 128;
        let params = test_params(n);
        let g = generators::binary_tree(n);
        let nodes: Vec<ExpanderNode> = g
            .nodes()
            .map(|v| ExpanderNode::new(v, g.out_neighbors(v).to_vec(), params))
            .collect();
        let config = SimConfig {
            caps: CapacityModel::Ncc0 {
                per_round: params.ncc0_cap,
            },
            seed: 5,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(nodes, config);
        sim.run(ExpanderNode::total_rounds(&params) + 2);
        let m = sim.metrics().totals();
        assert!(m.max_sent <= params.ncc0_cap);
        assert!(m.max_received <= params.ncc0_cap);
        assert_eq!(m.dropped_receive, 0);
        assert_eq!(m.dropped_send, 0);
    }

    #[test]
    fn expander_is_deterministic_for_fixed_seed() {
        let n = 48;
        let params = test_params(n);
        let a = run_expander(&generators::line(n), params);
        let b = run_expander(&generators::line(n), params);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.slots(), y.slots());
        }
    }

    #[test]
    fn single_evolution_keeps_graph_connected() {
        let n = 96;
        let mut params = test_params(n);
        params.evolutions = 1;
        let nodes = run_expander(&generators::cycle(n), params);
        let g = slots_to_graph(&nodes).simplify();
        assert!(analysis::is_connected(&g));
    }
}
