//! The synchronous round simulator.

use crate::caps::CapacityModel;
use crate::faults::{FaultPlan, FaultRouter, Route};
use crate::metrics::{RoundMetrics, RunMetrics, TransportCounters};
use crate::protocol::{Channel, Ctx, Envelope, Protocol};
use crate::trace::{DropCause, SharedTraceSink, TraceEvent};
use overlay_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// The worker-thread count of every parallel split: the simulator's chunks
/// ([`ParallelismConfig`] with `workers: None`) and a sweep's seeds.
/// `RAYON_NUM_THREADS`, when a positive integer, sets it (the name is kept
/// for CI and the scaling report, which set and record it); otherwise it is
/// [`std::thread::available_parallelism`].
pub fn worker_count() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&threads: &usize| threads >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Within-round parallelism policy for the simulator.
///
/// A round's protocol callbacks run over `k = effective_workers(n)` contiguous
/// chunks of nodes, every chunk through the same function: chunk 0 on the
/// calling thread straight into the round's outbox, chunks `1..k` on scoped
/// threads into one reusable buffer each, appended in chunk order
/// before the (serial) dispatch and fault phases run. Each node owns its RNG,
/// the fault router's RNG is only drawn in the serial dispatch, and each
/// receive-cap eviction draws from an RNG of its own inbox (see
/// [`Simulator`]) — so a run is **bitwise identical at every `k`**.
/// Parallelism is a wall-clock knob, never a semantics knob.
///
/// Cost per round: `k − 1` thread spawns and `k − 1` appends. With `k = 1`
/// nothing is spawned or copied, which is what `min_nodes` selects for
/// simulations too small to repay the spawns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelismConfig {
    /// Worker threads to step nodes with; `None` asks [`worker_count`].
    pub workers: Option<usize>,
    /// Minimum node count before within-round parallelism engages; below it a
    /// round is one chunk regardless of `workers`.
    pub min_nodes: usize,
}

impl ParallelismConfig {
    /// The threshold below which parallelizing a round costs more than it saves
    /// (thread spawns are microseconds; small rounds are too).
    pub(crate) const DEFAULT_MIN_NODES: usize = 4096;

    /// Always step nodes as one chunk on the calling thread.
    pub fn serial() -> Self {
        ParallelismConfig {
            workers: Some(1),
            min_nodes: 0,
        }
    }

    /// Step nodes on exactly `workers` threads whenever `n >= min_nodes`.
    pub fn fixed(workers: usize, min_nodes: usize) -> Self {
        ParallelismConfig {
            workers: Some(workers),
            min_nodes,
        }
    }

    /// The chunk count to use for a round over `n` nodes (`1` = no worker threads).
    pub(crate) fn effective_workers(&self, n: usize) -> usize {
        if n < self.min_nodes {
            return 1;
        }
        self.workers.unwrap_or_else(worker_count).max(1)
    }
}

impl Default for ParallelismConfig {
    /// [`worker_count`] threads, engaged from `DEFAULT_MIN_NODES` (4096) nodes
    /// up.
    fn default() -> Self {
        ParallelismConfig {
            workers: None,
            min_nodes: Self::DEFAULT_MIN_NODES,
        }
    }
}

/// Configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The capacity model to enforce.
    pub caps: CapacityModel,
    /// Seed for all randomness (per-node RNGs, receive-cap evictions, and fault
    /// decisions).
    pub seed: u64,
    /// The local edges of the initial graph (distinct neighbors per node), required by
    /// the hybrid model's CONGEST discipline: local messages may only travel over these
    /// edges. Ignored by the NCC0 and unbounded models.
    pub local_edges: Option<Vec<Vec<NodeId>>>,
    /// The environmental faults to inject (clean by default).
    pub faults: FaultPlan,
    /// Within-round parallelism policy (bitwise identical at any worker count).
    pub parallelism: ParallelismConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            caps: CapacityModel::Unbounded,
            seed: 0xBADC0FFE,
            local_edges: None,
            faults: FaultPlan::default(),
            parallelism: ParallelismConfig::default(),
        }
    }
}

impl SimConfig {
    /// The NCC0 model with an explicit per-node, per-round message cap — the
    /// configuration recipe of one overlay-construction pipeline phase: the cap and
    /// seed come from the phase's parameter schedule and the fault plan is the
    /// (shifted, remapped) remainder of the run's plan. Nothing is derived from `n`;
    /// the caller owns the exact cap.
    pub fn ncc0_capped(per_round: usize, seed: u64, faults: FaultPlan) -> Self {
        SimConfig {
            caps: CapacityModel::Ncc0 { per_round },
            seed,
            faults,
            ..SimConfig::default()
        }
    }

    /// Returns the config with the given fault plan installed.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Returns the config with the given within-round parallelism policy.
    pub fn with_parallelism(mut self, parallelism: ParallelismConfig) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// The result of [`Simulator::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Number of message rounds executed (not counting the start callback).
    pub rounds: usize,
    /// Whether every node reported [`Protocol::is_done`] before the round limit.
    pub all_done: bool,
}

/// A message crossing a block boundary: its recipient, the sender's ordinal among
/// the sends it had admitted that round (local and remote alike), and the envelope.
pub type Crossing<M> = (NodeId, u32, Envelope<M>);

/// What carries messages of type `M` between the blocks of one run: the barrier
/// that ends every round of a [`Simulator::for_block`] simulator (see
/// [`Simulator::run_over`]).
pub trait Medium<M> {
    /// How the medium fails.
    type Error;

    /// Ends `round` for the block. On entry `crossing` holds what the block's nodes
    /// sent to nodes outside it, in send order; the medium carries those away and
    /// appends what the other blocks sent this one in the round — each for a node of
    /// the block, from a node outside it. `block_done` says whether every node of the
    /// block is done; the result says whether every node of the run is.
    fn barrier(
        &mut self,
        round: usize,
        block_done: bool,
        crossing: &mut Vec<Crossing<M>>,
    ) -> Result<bool, Self::Error>;
}

/// The medium of a block that owns every node: nothing crosses, and the block being
/// done is the run being done. [`Simulator::run`] runs over it.
#[derive(Clone, Copy, Debug, Default)]
pub struct WholeRun;

impl<M> Medium<M> for WholeRun {
    type Error = std::convert::Infallible;

    fn barrier(
        &mut self,
        _: usize,
        done: bool,
        _: &mut Vec<Crossing<M>>,
    ) -> Result<bool, Self::Error> {
        Ok(done)
    }
}

/// The recipient half of an outbox entry's route pair when the entry is not delivered
/// next round (dropped, or delayed and handed to the fault router). No node has this
/// id: `Simulator::new` admits at most `u32::MAX` nodes, so ids stop below it.
const NOT_ROUTED: NodeId = NodeId::new(u32::MAX);

/// One round's deliveries: a routing verdict per outbox entry, a staging buffer for
/// the delayed envelopes the fault router releases, and the *inbox* buffer the
/// callbacks read.
///
/// Dispatch reads the round's outbox in place and records one `(recipient, sender)`
/// pair per entry — `NOT_ROUTED` for anything not delivered next round — counting
/// what it routes per recipient, all of it and the global part. When the router
/// releases delayed envelopes at the start of the next round they are staged and
/// counted the same way. `EnvelopeArena::group` then turns the counts into offsets
/// with one prefix sum over the nodes and moves every envelope to its place in the
/// inbox buffer with one stable out-of-place scatter — draining the outbox by the
/// recorded pairs, then the staged envelopes — so each node's inbox is one contiguous
/// slice. A routed envelope is written once, by the scatter; nothing else of a round
/// reads it before its recipient's callback, because the receive caps and the
/// delivery tally read the counts.
///
/// The scatter is *stable*: two messages to the same recipient keep their routing
/// order (routed ones in sender-then-send order, then the delayed ones in release
/// order), which is the delivery order every committed report was produced with.
///
/// Envelopes another block sent (see [`Medium`]) are filed between rounds in
/// `(sender, seq)` order around the routed ones: those from senders below the block
/// ahead of them, those from senders above it staged behind them (a block that leaves
/// nodes out delays nothing) — so the recipient's inbox is in the order the whole
/// run's would be. A block that owns every node files none.
///
/// The arena is indexed by *slot*, a node's position within the block (its id for a
/// block that owns every node).
///
/// Every buffer keeps its allocation from round to round. The inbox buffer stays at
/// its high-water length and is assigned into, never truncated: the envelopes past the
/// valid prefix — and the evicted tail of a capped inbox — are stale values awaiting
/// overwrite, outside every range `EnvelopeArena::inbox` hands out and never observed.
#[derive(Debug)]
pub(crate) struct EnvelopeArena<M> {
    /// Per entry of the outbox being dispatched: `(recipient, sender)`, or
    /// [`NOT_ROUTED`] in the recipient half; emptied by [`Self::group`].
    routes: Vec<(NodeId, NodeId)>,
    /// Delayed envelopes due at the next delivery, in release order; emptied by
    /// [`Self::group`].
    staged: Vec<Envelope<M>>,
    /// Recipient of `staged[i]`.
    to: Vec<NodeId>,
    /// Envelopes from senders below the block, with their recipients, in
    /// `(sender, seq)` order, counted like the routed ones; emptied by
    /// [`Self::group`], which scatters them first.
    inbound: Vec<(NodeId, Envelope<M>)>,
    /// The current round's inboxes back to back, filled by [`Self::group`].
    inboxes: Vec<Envelope<M>>,
    /// Per node: where its inbox starts in `inboxes`, valid after [`Self::group`].
    starts: Vec<usize>,
    /// Per node: the envelopes routed or staged for it since the last [`Self::clear`],
    /// kept at [`Self::route`] and [`Self::push`] — after [`Self::group`], the length
    /// of its inbox.
    lens: Vec<usize>,
    /// Per node: how many of those travel on [`Channel::Global`].
    globals: Vec<usize>,
    /// Scratch: per-node write cursors of the scatter.
    cursors: Vec<usize>,
}

impl<M: Clone> EnvelopeArena<M> {
    /// An empty arena for `n` nodes.
    fn new(n: usize) -> Self {
        EnvelopeArena {
            routes: Vec::new(),
            staged: Vec::new(),
            to: Vec::new(),
            inbound: Vec::new(),
            inboxes: Vec::new(),
            starts: vec![0; n],
            lens: vec![0; n],
            globals: vec![0; n],
            cursors: vec![0; n],
        }
    }

    /// Counts one envelope for node `t`.
    #[inline]
    fn count(&mut self, t: usize, channel: Channel) {
        self.lens[t] += 1;
        self.globals[t] += usize::from(channel == Channel::Global);
    }

    /// Routes the next outbox entry, sent by node `from` to node `to`, for delivery
    /// after [`Self::group`], and counts it.
    #[inline]
    fn route(&mut self, from: NodeId, to: NodeId, channel: Channel) {
        self.count(to.index(), channel);
        self.routes.push((to, from));
    }

    /// Records that the next outbox entry is not delivered next round.
    #[inline]
    fn skip(&mut self) {
        self.routes.push((NOT_ROUTED, NOT_ROUTED));
    }

    /// Stages a delayed envelope for recipient `to` (delivery happens after
    /// [`Self::group`]) and counts it.
    #[inline]
    fn push(&mut self, to: NodeId, env: Envelope<M>) {
        self.count(to.index(), env.channel);
        self.to.push(to);
        self.staged.push(env);
    }

    /// Forgets the delivered round: empties every inbox and zeroes the counts, so the
    /// arena can route the next one. Every buffer keeps its capacity.
    fn clear(&mut self) {
        self.routes.clear();
        self.staged.clear();
        self.to.clear();
        self.lens.fill(0);
        self.globals.fill(0);
    }

    /// Turns the routed outbox entries and the staged envelopes into per-node inboxes:
    /// a prefix sum over the counts kept at [`Self::route`] and [`Self::push`], then
    /// one stable scatter into the inbox buffer that drains the envelopes filed from
    /// below the block, `outbox` (the entries the recorded routes belong to), then
    /// the staging buffer.
    fn group(&mut self, outbox: &mut Vec<(NodeId, Channel, M)>) {
        let mut total = 0usize;
        for ((start, cursor), &len) in self
            .starts
            .iter_mut()
            .zip(self.cursors.iter_mut())
            .zip(&self.lens)
        {
            *start = total;
            *cursor = total;
            total += len;
        }
        assert_eq!(
            outbox.len(),
            self.routes.len(),
            "one route per outbox entry"
        );
        if self.inboxes.len() < total {
            // Safe code can only grow the buffer with initialised values; any envelope
            // of the round will do, every slot below `total` is assigned right after.
            let filler = outbox
                .iter()
                .zip(&self.routes)
                .find(|(_, &(t, _))| t != NOT_ROUTED)
                .map(|((_, channel, payload), &(_, from))| Envelope {
                    from,
                    channel: *channel,
                    payload: payload.clone(),
                })
                .or_else(|| self.staged.first().cloned())
                .or_else(|| self.inbound.first().map(|(_, env)| env.clone()))
                .expect("a positive total counted an envelope");
            self.inboxes.resize(total, filler);
        }
        let mut scattered = 0usize;
        let (cursors, inboxes) = (&mut self.cursors, &mut self.inboxes);
        let mut place = |t: NodeId, env: Envelope<M>| {
            let cursor = &mut cursors[t.index()];
            inboxes[*cursor] = env;
            *cursor += 1;
            scattered += 1;
        };
        for (t, env) in self.inbound.drain(..) {
            place(t, env);
        }
        for ((_, channel, payload), &(t, from)) in outbox.drain(..).zip(&self.routes) {
            if t != NOT_ROUTED {
                place(
                    t,
                    Envelope {
                        from,
                        channel,
                        payload,
                    },
                );
            }
        }
        for (env, &t) in self.staged.drain(..).zip(&self.to) {
            place(t, env);
        }
        self.routes.clear();
        self.to.clear();
        assert_eq!(scattered, total, "what was scattered is what was counted");
    }

    /// Node `i`'s inbox for the current round (valid after [`Self::group`]).
    fn inbox(&self, i: usize) -> &[Envelope<M>] {
        let start = self.starts[i];
        &self.inboxes[start..start + self.lens[i]]
    }

    /// Shrinks node `i`'s inbox to the envelopes whose inbox-relative index is *not*
    /// marked in `drop` (one mark per envelope of the inbox), preserving their
    /// relative order and keeping the counts true.
    /// Dropped envelopes linger behind the shortened inbox until the next
    /// [`Self::group`] overwrites them; they are never observed.
    fn retain_range(&mut self, i: usize, drop: &[bool]) {
        let start = self.starts[i];
        let mut w = start;
        for (k, &dropped) in drop.iter().enumerate() {
            if dropped {
                self.globals[i] -= usize::from(self.inboxes[start + k].channel == Channel::Global);
            } else {
                self.inboxes.swap(w, start + k);
                w += 1;
            }
        }
        self.lens[i] = w - start;
    }
}

/// The hybrid model's local adjacency in CSR (structure-of-arrays) form: one
/// flat sorted neighbor array plus per-node offsets. Membership tests are a
/// binary search over a contiguous range — no per-node `HashSet`, no pointer
/// chasing, and the flat layout is shared read-only by all worker threads.
#[derive(Debug)]
struct LocalAdjacency {
    /// `offsets[i]..offsets[i + 1]` is node `i`'s slice of `neighbors`.
    offsets: Vec<usize>,
    /// All neighbor lists back to back, each sorted and deduplicated.
    neighbors: Vec<NodeId>,
}

impl LocalAdjacency {
    fn new(edges: Vec<Vec<NodeId>>) -> Self {
        let mut offsets = Vec::with_capacity(edges.len() + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for mut adj in edges {
            adj.sort_unstable();
            adj.dedup();
            neighbors.extend_from_slice(&adj);
            offsets.push(neighbors.len());
        }
        LocalAdjacency { offsets, neighbors }
    }

    /// `true` if `(node, to)` is a declared local edge.
    fn contains(&self, node: usize, to: NodeId) -> bool {
        self.neighbors[self.offsets[node]..self.offsets[node + 1]]
            .binary_search(&to)
            .is_ok()
    }
}

/// The per-node state of one contiguous chunk of nodes (`first..first + len`, at
/// arena slots `slot..slot + len`), borrowed from the simulator for the callbacks of
/// one round.
struct Chunk<'a, P> {
    first: usize,
    slot: usize,
    nodes: &'a mut [P],
    rngs: &'a mut [StdRng],
    done_flags: &'a mut [bool],
    out_lens: &'a mut [usize],
}

/// What one chunk's callbacks produced besides per-node state; reused across
/// rounds like every other buffer of the hot path.
#[derive(Debug)]
struct ChunkOut<M> {
    /// The chunk's sends, node after node.
    outbox: Vec<(NodeId, Channel, M)>,
    /// Sum of the transport counters the chunk's callbacks reported.
    transport: TransportCounters,
    /// The nodes the trace names (retransmissions, give-ups), in node order.
    noted: Vec<(usize, TransportCounters)>,
}

/// The callback body of a round, for one chunk: every active node of `chunk`
/// runs `on_start` (in round 0, or in the round it joins) or `on_round`,
/// appending its sends to `out`. Per node it records the send count and the
/// done flag; the transport counters the callbacks reported are summed per
/// chunk. Nothing in here draws from a shared RNG or reaches the trace sink.
fn step_chunk<P: Protocol>(
    chunk: Chunk<'_, P>,
    round: usize,
    n: usize,
    arena: &EnvelopeArena<P::Message>,
    router: &FaultRouter<P::Message>,
    out: &mut ChunkOut<P::Message>,
) {
    debug_assert!(out.outbox.is_empty(), "last round's sends were grouped");
    out.transport = TransportCounters::default();
    out.noted.clear();
    for (k, node) in chunk.nodes.iter_mut().enumerate() {
        let (i, slot) = (chunk.first + k, chunk.slot + k);
        let base = out.outbox.len();
        if router.is_active(i, round) {
            let mut ctx = Ctx {
                me: NodeId::from(i),
                round,
                n,
                rng: &mut chunk.rngs[k],
                outbox: &mut out.outbox,
                transport: TransportCounters::default(),
            };
            if round == 0 || router.joins_at(i, round) {
                // The node's first round: it runs its start callback with the
                // initial knowledge its protocol state was built with. Its inbox
                // is empty: the router drops (and counts) messages that would
                // land on the join round itself.
                debug_assert!(arena.inbox(slot).is_empty(), "start inboxes are empty");
                node.on_start(&mut ctx);
            } else {
                node.on_round(&mut ctx, arena.inbox(slot));
            }
            let transport = ctx.transport;
            out.transport.absorb(&transport);
            if transport.retransmits > 0 || transport.give_ups > 0 {
                out.noted.push((i, transport));
            }
            chunk.done_flags[k] = node.is_done();
        }
        chunk.out_lens[k] = out.outbox.len() - base;
    }
}

/// The per-node RNG for node `i` of a run seeded with `seed`.
///
/// This is the seeding rule [`Simulator::new`] uses (seed XOR a
/// golden-ratio-multiplied node index, so neighboring nodes get well-separated
/// streams). It is public so a test that drives one node by hand through
/// [`Ctx::external`] can give it the stream the simulator would.
pub fn node_rng(seed: u64, i: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)))
}

/// The RNG that picks which global messages `recipient`'s inbox evicts when it is
/// over the receive cap in `round` of a run seeded with `seed`: a function of the
/// three alone, so whichever block owns the recipient evicts the same messages.
/// Each part is folded into the key as the first word of a generator seeded with
/// the key so far, XOR the part, so no two keys share a stream (runs whose seeds
/// differ by a few bits — a pipeline's phases — included).
fn eviction_rng(seed: u64, round: usize, recipient: usize) -> StdRng {
    let key = [round as u64, recipient as u64]
        .into_iter()
        .fold(seed, |key, part| {
            StdRng::seed_from_u64(key).gen::<u64>() ^ part
        });
    StdRng::seed_from_u64(key)
}

/// A deterministic synchronous simulator executing one [`Protocol`] state machine per
/// node.
///
/// Environmental faults (message loss, delays, crashes, joins, partitions) are
/// injected by the fault router the simulator builds from
/// [`SimConfig::faults`]; a clean plan reproduces the fault-free behavior exactly.
///
/// # Blocks
///
/// A simulator steps one *block* of a run: the contiguous node range it was built
/// for by [`Simulator::for_block`] ([`Simulator::new`] builds the block that owns
/// every node). Every round ends at a [`Medium`] barrier: dispatch hands the
/// messages it admitted for nodes outside the block to the medium, with their
/// senders' send ordinals, and files what the medium brought from the other blocks
/// into the next round's inboxes (the envelope arena says where). Node ids, the
/// seeding rule, the caps, the stop rule and the fault plan's liveness are the whole
/// run's, and every decision about a node is a function of the run's seed, the round
/// and the node, taken by the block that owns it: a node's callbacks draw from its
/// own RNG, a message's fate under a [`FaultPlan::is_scheduled`] plan is its sender's
/// block's lookup, and an inbox over the receive cap evicts by an RNG keyed on the
/// seed, the round and its recipient. So every block of a run over a lossless medium
/// steps its nodes exactly as the whole-run simulator would. Loss and delay verdicts
/// are drawn from one stream in the whole run's send order, which no block that
/// leaves nodes out sees; such a block runs scheduled plans only.
///
/// # Hot-path layout
///
/// A message is written twice between the `send_*` that queues it and the
/// `on_round` that consumes it, each time into a flat buffer that is reused — not
/// reallocated — round after round: into the shared outbox every node appends to
/// behind its own base offset, and into the envelope arena's inbox buffer by one
/// stable scatter at the start of the next round that drains the outbox. In between,
/// dispatch reads it in place (send caps, then the fault router) and records its
/// recipient and sender; only a delayed message is copied besides, into the fault
/// router's buffer, and staged in the arena when it is due. No stage reads more of a
/// message than it needs: dispatch adds a sender's totals once per sender, a clean
/// fault plan routes without touching the liveness tables, and the receive caps and
/// the delivery tally are O(n) reads of the per-recipient counts the arena keeps
/// while routing — an inbox is scanned only when it is over the cap. The remaining
/// per-node lookups are flat arrays too: local adjacency is CSR (offsets plus a
/// sorted, deduplicated neighbor array with binary-search membership), per-edge
/// CONGEST counters are an epoch-stamped array instead of a `HashMap`, and
/// done-flags are cached per node so `all_done` never virtual-dispatches.
///
/// # Within-round parallelism
///
/// There is one round body. Only the protocol callbacks are ever split across
/// threads, as contiguous chunks of nodes (see [`ParallelismConfig`] for the
/// layout and its cost); everything that draws shared randomness (fault
/// routing) or observes cross-node order (dispatch, receive caps, tracing,
/// metrics) is serial, so results do not depend on the chunk count.
#[derive(Debug)]
pub struct Simulator<P: Protocol> {
    /// The block's nodes: node `base + k` at position (and arena slot) `k`.
    nodes: Vec<P>,
    /// The block's first node.
    base: usize,
    /// Nodes in the whole run.
    n: usize,
    /// What dispatch admitted for nodes outside the block until the barrier, then
    /// what the medium brought until it is filed.
    crossing: Vec<Crossing<P::Message>>,
    rngs: Vec<StdRng>,
    /// Next round's inboxes: routed during dispatch, scattered at the start of the round.
    arena: EnvelopeArena<P::Message>,
    /// The whole round's outgoing messages, all nodes back to back; they stay here
    /// until the next round's scatter moves the routed ones into the arena.
    outbox: Vec<(NodeId, Channel, P::Message)>,
    /// Per-node message count within `outbox` for the current round.
    out_lens: Vec<usize>,
    caps: CapacityModel,
    local_neighbors: Option<LocalAdjacency>,
    /// The run's seed, which keys every receive-cap eviction (see
    /// [`eviction_rng`]).
    seed: u64,
    /// Scratch for `apply_receive_caps`: inbox-relative indices of global messages.
    cap_scratch: Vec<usize>,
    /// Scratch for `apply_receive_caps`: per-envelope drop marks for one inbox.
    drop_mark: Vec<bool>,
    /// Scratch for `dispatch`: per-recipient CONGEST counters of the current
    /// sender, epoch-stamped so switching senders is O(1) instead of a clear.
    per_edge_count: Vec<usize>,
    /// The epoch (`edge_epoch` value) `per_edge_count[i]` was last written in.
    per_edge_stamp: Vec<u64>,
    /// Current sender's epoch for the stamped per-edge counters.
    edge_epoch: u64,
    /// Cached `Protocol::is_done` per node, refreshed after each callback, so
    /// `done_count` scans a flat bool array instead of virtual-dispatching.
    done_flags: Vec<bool>,
    /// Nodes per chunk of a round's callbacks: `n` over the worker count of
    /// [`SimConfig::parallelism`], rounded up.
    chunk_len: usize,
    /// One output slot per chunk. Chunk 0's buffer is `outbox` itself, lent for
    /// the callbacks; the others are appended to it in chunk order.
    chunk_outs: Vec<ChunkOut<P::Message>>,
    router: FaultRouter<P::Message>,
    metrics: RunMetrics,
    round: usize,
    /// Structured-event sink; `None` (the default) skips all trace work. The
    /// simulator never draws randomness or moves messages on behalf of the
    /// sink, so traced and untraced runs of one seed are byte-identical.
    sink: Option<SharedTraceSink>,
}

impl<P: Protocol> Simulator<P> {
    /// Creates a simulator over the given per-node protocol instances: the block
    /// that owns every node.
    ///
    /// # Panics
    ///
    /// Panics if `config.local_edges` is present but its length differs from the number
    /// of nodes, if `config.faults` references nodes that do not exist, or if there
    /// are more than `u32::MAX` nodes (ids are 32 bits; `u32::MAX` marks "not routed").
    pub fn new(nodes: Vec<P>, config: SimConfig) -> Self {
        let n = nodes.len();
        Self::for_block(nodes, 0..n, config)
    }

    /// Creates the simulator of `block` of the run whose nodes are `nodes`: it steps
    /// the nodes in `block` and drops the others, which another block steps. Such a
    /// simulator runs with [`Simulator::run_over`] and a [`Medium`] that connects it
    /// to the other blocks.
    ///
    /// # Panics
    ///
    /// As [`Simulator::new`]; also if `block` is not within `0..nodes.len()`, or if it
    /// leaves nodes out and `config.faults` is not [`FaultPlan::is_scheduled`] (loss
    /// and delay verdicts are drawn from one stream in the whole run's send order,
    /// which no such block sees).
    pub fn for_block(mut nodes: Vec<P>, block: Range<usize>, config: SimConfig) -> Self {
        let n = nodes.len();
        assert!(
            u32::try_from(n).is_ok(),
            "more than u32::MAX nodes: node ids are 32 bits and u32::MAX is reserved"
        );
        assert!(block.end <= n, "block {block:?} outside the {n}-node run");
        assert!(
            block.len() == n || config.faults.is_scheduled(),
            "a block that does not own every node runs no loss or delay"
        );
        nodes.truncate(block.end);
        nodes.drain(..block.start);
        let len = nodes.len();
        if let Some(edges) = &config.local_edges {
            assert_eq!(
                edges.len(),
                n,
                "local edge table must have one entry per node"
            );
        }
        let rngs = block.clone().map(|i| node_rng(config.seed, i)).collect();
        let local_neighbors = config.local_edges.map(LocalAdjacency::new);
        let done_flags = nodes.iter().map(Protocol::is_done).collect();
        let workers = config.parallelism.effective_workers(len);
        let chunk_len = len.div_ceil(workers).max(1);
        let chunk_outs = (0..len.div_ceil(chunk_len)).map(|_| ChunkOut {
            outbox: Vec::new(),
            transport: TransportCounters::default(),
            noted: Vec::new(),
        });
        Simulator {
            nodes,
            base: block.start,
            n,
            crossing: Vec::new(),
            rngs,
            arena: EnvelopeArena::new(len),
            outbox: Vec::new(),
            out_lens: vec![0; len],
            caps: config.caps,
            local_neighbors,
            seed: config.seed,
            cap_scratch: Vec::new(),
            drop_mark: Vec::new(),
            per_edge_count: vec![0; n],
            per_edge_stamp: vec![0; n],
            edge_epoch: 0,
            done_flags,
            chunk_len,
            chunk_outs: chunk_outs.collect(),
            router: FaultRouter::new(&config.faults, n, block, config.seed),
            metrics: RunMetrics::new(len),
            round: 0,
            sink: None,
        }
    }

    /// Installs a structured-event trace sink (see [`crate::TraceEvent`]). The sink
    /// observes every subsequent round; installing one never perturbs the
    /// simulation itself (no RNG draws, no message reordering).
    pub fn set_trace_sink(&mut self, sink: SharedTraceSink) {
        self.sink = Some(sink);
    }

    /// Emits the round's lifecycle identity events (who crashed, who joined)
    /// in node order. Only called when a sink is installed — the identity scan
    /// is O(n) and the untraced path keeps the cheap count-only bookkeeping of
    /// [`FaultRouter::record_lifecycle`].
    fn emit_lifecycle(&self, round: usize) {
        let Some(sink) = &self.sink else { return };
        let mut sink = sink.borrow_mut();
        for i in self.block() {
            if self.router.is_crashed(i, round)
                && (round == 0 || !self.router.is_crashed(i, round - 1))
            {
                sink.record(TraceEvent::Crash {
                    round,
                    node: NodeId::from(i),
                });
            }
            if self.router.joins_at(i, round) {
                sink.record(TraceEvent::Join {
                    round,
                    node: NodeId::from(i),
                });
            }
        }
    }

    /// Emits the round-end rollup for `round_metrics`.
    fn emit_round_end(&self, round: usize, round_metrics: &RoundMetrics) {
        let Some(sink) = &self.sink else { return };
        sink.borrow_mut().record(TraceEvent::RoundEnd {
            round,
            delivered: round_metrics.delivered,
            dropped: round_metrics.dropped(),
        });
    }

    /// Books one dropped message: counts it under `cause` and, with a sink
    /// installed, traces it. Every drop of the simulator goes through here.
    fn drop_message(
        &self,
        round_metrics: &mut RoundMetrics,
        from: NodeId,
        to: NodeId,
        channel: Channel,
        cause: DropCause,
    ) {
        round_metrics.count_drop(cause);
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(TraceEvent::Drop {
                round: self.round,
                from,
                to,
                channel,
                cause,
            });
        }
    }

    /// Number of nodes this simulator steps (its block's).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes this simulator steps.
    fn block(&self) -> Range<usize> {
        self.base..self.base + self.nodes.len()
    }

    /// Immutable access to a node's protocol state (a node of the block).
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id.index() - self.base]
    }

    /// Immutable access to the block's node states, in node order.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Consumes the simulator and returns the block's node states.
    pub fn into_nodes(self) -> Vec<P> {
        self.nodes
    }

    /// The metrics recorded so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The current round number.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Returns `true` if every node of the block is accounted for: crashed nodes count
    /// as done, nodes whose join round has not arrived yet count as *not* done (the
    /// simulation must run at least until they activate).
    pub fn all_done(&self) -> bool {
        self.done_count() == self.nodes.len()
    }

    /// Returns `true` if node `id` executes callbacks in the current round: the
    /// fault plan's liveness, which every block knows for every node of the run.
    pub fn is_active(&self, id: NodeId) -> bool {
        self.router.is_active(id.index(), self.round)
    }

    /// Number of nodes currently accounted as done under [`Simulator::all_done`]'s
    /// rule: crashed, or joined and finished. Dormant joiners count as *not* done.
    /// Reads the cached done-flags (refreshed after every callback), so the scan
    /// is over flat arrays only.
    pub fn done_count(&self) -> usize {
        self.done_flags
            .iter()
            .zip(self.block())
            .filter(|&(&done, i)| {
                self.router.is_crashed(i, self.round)
                    || (self.router.join_round(i) <= self.round && done)
            })
            .count()
    }

    /// Runs the start callback (if not yet run) and then message rounds until either
    /// every node is done or `max_rounds` rounds have been executed.
    ///
    /// Delay-faulted messages still in flight when the run stops are never
    /// delivered; they are visible in the metrics only as `delayed` counts (use
    /// [`Simulator::step`] past `all_done` to flush them).
    pub fn run(&mut self, max_rounds: usize) -> RunOutcome {
        let Ok(outcome) = self.run_over(max_rounds, &mut WholeRun);
        outcome
    }

    /// [`Simulator::run`] for a block: every round, round 0 included, ends at
    /// `medium`'s barrier, whose answer is the stop rule's "every node is done".
    /// Messages sent in the final round are discarded, as [`Simulator::run`]
    /// discards them.
    pub fn run_over<Md: Medium<P::Message>>(
        &mut self,
        max_rounds: usize,
        medium: &mut Md,
    ) -> Result<RunOutcome, Md::Error> {
        // Round 0 runs unless it already has (every round that ran is on record
        // in the metrics); it does not count against `max_rounds`.
        let started = self.metrics.rounds > 0;
        let last = self.round.saturating_add(max_rounds);
        let mut all_done = started && self.all_done();
        let mut round = self.round + usize::from(started);
        while !all_done && round <= last {
            self.run_round(round);
            all_done = medium.barrier(round, self.all_done(), &mut self.crossing)?;
            // What the medium brought joins the next round's inboxes, in
            // `(sender, seq)` order around the routed envelopes.
            self.crossing
                .sort_unstable_by_key(|&(_, seq, ref env)| (env.from, seq));
            for (to, _, env) in self.crossing.drain(..) {
                let t = NodeId::from(to.index() - self.base);
                if env.from.index() < self.base {
                    self.arena.count(t.index(), env.channel);
                    self.arena.inbound.push((t, env));
                } else {
                    self.arena.push(t, env);
                }
            }
            round += 1;
        }
        Ok(RunOutcome {
            rounds: self.round,
            all_done,
        })
    }

    /// Runs exactly one message round (running the start callback first if needed)
    /// of the block that owns every node; a block that owns less runs with
    /// [`Simulator::run_over`].
    pub fn step(&mut self) {
        self.start();
        self.run_round(self.round + 1);
    }

    /// Runs round 0 — the start callbacks — unless it has already run.
    fn start(&mut self) {
        if self.metrics.rounds == 0 {
            self.run_round(0);
        }
    }

    /// One synchronous round: lifecycle, delivery of the messages due now,
    /// callbacks, dispatch of what they sent. Round 0 is the same skeleton with
    /// nothing to deliver (the arena is empty until the first dispatch) and
    /// every active node running `on_start`; late joiners and nodes crashed
    /// from round 0 do not start then — a joiner's start callback runs at its
    /// join round instead.
    fn run_round(&mut self, round: usize) {
        self.round = round;
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(TraceEvent::RoundStart { round });
        }
        self.emit_lifecycle(round);

        // Delayed messages surface in their scheduled round; liveness of the
        // recipient at this round was already checked when they were routed.
        let (router, arena) = (&mut self.router, &mut self.arena);
        router.drain_due(round, |to, env| arena.push(to, env));
        #[cfg(debug_assertions)]
        let due: usize = self.arena.lens.iter().sum();
        self.arena.group(&mut self.outbox);

        let mut round_metrics = RoundMetrics::default();
        self.router.record_lifecycle(round, &mut round_metrics);
        self.apply_receive_caps(&mut round_metrics);
        for (&len, &globals) in self.arena.lens.iter().zip(&self.arena.globals) {
            round_metrics.max_received = round_metrics.max_received.max(len);
            round_metrics.max_global_received = round_metrics.max_global_received.max(globals);
            round_metrics.delivered += len as u64;
        }
        #[cfg(debug_assertions)]
        self.check_inbox_contracts();

        self.run_callbacks(round, &mut round_metrics);
        self.dispatch(&mut round_metrics);
        #[cfg(debug_assertions)]
        self.check_contracts(due, &round_metrics);
        self.emit_round_end(round, &round_metrics);
        self.metrics.record_round(round_metrics);
    }

    /// The arena's books for the round being delivered, checked where they are
    /// read (after the receive caps, before the callbacks): every node's global
    /// count is a recount of its inbox, and no inbox is over the cap. That the
    /// counts add up to the envelopes scattered is `group`'s own assertion.
    #[cfg(debug_assertions)]
    fn check_inbox_contracts(&self) {
        let cap = self.caps.global_cap();
        for (i, node) in self.block().enumerate() {
            let inbox = self.arena.inbox(i);
            let globals = inbox
                .iter()
                .filter(|e| e.channel == Channel::Global)
                .count();
            assert_eq!(
                self.arena.globals[i], globals,
                "round {}: node {node}'s global count is not a recount of its inbox",
                self.round
            );
            assert!(
                cap.is_none_or(|cap| globals <= cap),
                "round {}: node {node}'s inbox holds {globals} global messages over the cap",
                self.round
            );
        }
    }

    /// Message conservation for one round, stated on its [`RoundMetrics`]:
    /// `due` messages were routed, released or filed for delivery this round, and
    /// the callbacks queued the outbox. The arena is routing again by now: every
    /// route it holds names its queued message's sender and recipient, and its
    /// counts must be a recount of the routed pairs plus the staged delayed
    /// envelopes. What is handed to the medium waits in `crossing`. That there is
    /// one route per queued message is `group`'s own assertion. The round's
    /// `crashed` and `joined` are a recount over the block's own nodes: another
    /// block counts its nodes' events.
    #[cfg(debug_assertions)]
    fn check_contracts(&self, due: usize, m: &RoundMetrics) {
        let round = self.round;
        let crashed = (self.block())
            .filter(|&i| self.router.is_crashed(i, round))
            .filter(|&i| round == 0 || !self.router.is_crashed(i, round - 1))
            .count();
        let joined = (self.block())
            .filter(|&i| self.router.joins_at(i, round))
            .count();
        assert_eq!(
            (m.crashed, m.joined),
            (crashed, joined),
            "round {round}: the lifecycle counts are not a recount of the block's crashes and joins"
        );
        let queued = self.outbox.len();
        let senders = (self.out_lens.iter().zip(self.block()))
            .flat_map(|(&len, i)| std::iter::repeat_n(NodeId::from(i), len));
        let mut routed = 0u64;
        let mut recount = vec![(0usize, 0usize); self.nodes.len()];
        let entries = self.outbox.iter().zip(&self.arena.routes).zip(senders);
        for (((to, channel, _), &(t, from)), sender) in entries {
            if t == NOT_ROUTED {
                continue;
            }
            assert!(
                (NodeId::from(self.base + t.index()), from) == (*to, sender),
                "round {}: a route names the wrong recipient or sender",
                self.round
            );
            routed += 1;
            recount[t.index()].0 += 1;
            recount[t.index()].1 += usize::from(*channel == Channel::Global);
        }
        for (env, &t) in self.arena.staged.iter().zip(&self.arena.to) {
            recount[t.index()].0 += 1;
            recount[t.index()].1 += usize::from(env.channel == Channel::Global);
        }
        let counts = self.arena.lens.iter().zip(&self.arena.globals);
        assert!(
            counts.map(|(&len, &globals)| (len, globals)).eq(recount),
            "round {}: the counts kept at routing are not a recount of the routed and staged envelopes",
            self.round
        );
        assert_eq!(
            m.delivered + m.dropped_receive,
            due as u64,
            "round {}: a message due now was neither delivered nor evicted by the receive cap",
            self.round
        );
        assert_eq!(
            routed + self.crossing.len() as u64 + m.delayed + m.dropped() - m.dropped_receive,
            queued as u64,
            "round {}: a queued message was not routed, handed to the medium, delayed or dropped under one send-side cause",
            self.round
        );
    }

    /// Emits one node's per-round transport trace events (`Retransmits`, then
    /// `GiveUps`; only non-zero counts emit anything).
    fn emit_transport_events(&self, round: usize, node: usize, t: &TransportCounters) {
        let Some(sink) = &self.sink else { return };
        if t.retransmits > 0 {
            sink.borrow_mut().record(TraceEvent::Retransmits {
                round,
                node: NodeId::from(node),
                count: t.retransmits,
            });
        }
        if t.give_ups > 0 {
            sink.borrow_mut().record(TraceEvent::GiveUps {
                round,
                node: NodeId::from(node),
                count: t.give_ups,
            });
        }
    }

    /// Runs every active node's callback for `round`, filling `self.outbox` /
    /// `self.out_lens` and folding transport counters into `round_metrics`.
    ///
    /// Every chunk (see [`ParallelismConfig`]) runs [`step_chunk`] into its own
    /// [`ChunkOut`]; chunk 0 filling the outbox itself and the others being
    /// appended in chunk order puts node `i`'s sends at the same offset of
    /// `self.outbox` at every chunk count. One chunk is the whole round in
    /// place: no scope, no spawn, no copy.
    fn run_callbacks(&mut self, round: usize, round_metrics: &mut RoundMetrics) {
        let (n, base, chunk_len) = (self.n, self.base, self.chunk_len);
        let (arena, router) = (&self.arena, &self.router);
        let step = |chunk, out: &mut _| step_chunk(chunk, round, n, arena, router, out);
        let nodes = self.nodes.chunks_mut(chunk_len);
        let mut chunks = nodes
            .zip(self.rngs.chunks_mut(chunk_len))
            .zip(self.done_flags.chunks_mut(chunk_len))
            .zip(self.out_lens.chunks_mut(chunk_len))
            .enumerate()
            .map(|(c, (((nodes, rngs), done_flags), out_lens))| Chunk {
                first: base + c * chunk_len,
                slot: c * chunk_len,
                nodes,
                rngs,
                done_flags,
                out_lens,
            });
        let (Some(first), Some((first_out, outs))) =
            (chunks.next(), self.chunk_outs.split_first_mut())
        else {
            return; // no nodes
        };
        // Chunk 0 writes straight into the round's outbox (lent to its slot for
        // the callbacks; the scatter left it drained, capacity retained).
        first_out.outbox = std::mem::take(&mut self.outbox);
        if outs.is_empty() {
            step(first, first_out);
        } else {
            std::thread::scope(|s| {
                for (chunk, out) in chunks.zip(outs.iter_mut()) {
                    s.spawn(move || step(chunk, out));
                }
                step(first, first_out);
            });
        }
        self.outbox = std::mem::take(&mut first_out.outbox);
        // `append` leaves each buffer empty with its capacity retained.
        for out in outs {
            self.outbox.append(&mut out.outbox);
        }
        // Callbacks cannot reach the sink, so emitting after all of them have
        // run is the order a node-by-node loop would produce.
        for out in &self.chunk_outs {
            round_metrics.transport.absorb(&out.transport);
            for (i, transport) in &out.noted {
                self.emit_transport_events(round, *i, transport);
            }
        }
    }

    /// Applies the per-node receive cap for global messages at delivery time (local
    /// messages are bounded by the CONGEST edge discipline already): a seeded random
    /// subset of size `cap` is kept, the rest is dropped ("arbitrary subset" in the
    /// paper). Applying the cap at delivery rather than at send time means injected
    /// delays cannot be used to smuggle extra messages past the cap.
    ///
    /// The evicted tail is chosen by the first `global_count − cap` steps of a
    /// Fisher–Yates shuffle of the inbox's global messages, drawn from
    /// [`eviction_rng`] of the round and the recipient: those steps alone decide the
    /// positions past the cap, so the steps that would only permute the kept prefix
    /// are neither run nor drawn. No per-inbox `Vec` or `HashSet` is allocated; the
    /// two scratch buffers are reused across rounds.
    ///
    /// Which inboxes are over the cap is read off the arena's per-recipient global
    /// counts; only those are scanned.
    fn apply_receive_caps(&mut self, round_metrics: &mut RoundMetrics) {
        let Some(cap) = self.caps.global_cap() else {
            return;
        };
        for i in 0..self.nodes.len() {
            let global_count = self.arena.globals[i];
            if global_count <= cap {
                continue;
            }
            self.cap_scratch.clear();
            let (start, len) = (self.arena.starts[i], self.arena.lens[i]);
            for (k, env) in self.arena.inboxes[start..start + len].iter().enumerate() {
                if env.channel == Channel::Global {
                    self.cap_scratch.push(k);
                }
            }
            let mut rng = eviction_rng(self.seed, self.round, self.base + i);
            for k in (cap..global_count).rev() {
                let j = rng.gen_range(0..k + 1);
                self.cap_scratch.swap(k, j);
            }
            self.drop_mark.clear();
            self.drop_mark.resize(len, false);
            // The dropped senders are still readable here; `retain_range` below
            // compacts them out of the inbox.
            for &k in &self.cap_scratch[cap..] {
                self.drop_mark[k] = true;
                let from = self.arena.inboxes[start + k].from;
                let to = NodeId::from(self.base + i);
                self.drop_message(
                    round_metrics,
                    from,
                    to,
                    Channel::Global,
                    DropCause::ReceiveCap,
                );
            }
            self.arena.retain_range(i, &self.drop_mark);
        }
    }

    /// Applies send-side caps to the outbox in place and routes every surviving
    /// message through the fault router, which enqueues it for the next round (a
    /// route in the arena; the message stays in the outbox until the scatter), delays
    /// it (a copy in the router's buffer), or drops it. A message for a node outside
    /// the block is handed to the medium instead of routed (a copy in `crossing`).
    fn dispatch(&mut self, round_metrics: &mut RoundMetrics) {
        let (n, len) = (self.n, self.nodes.len());
        let base = NodeId::from(self.base).raw();
        let global_send_cap = self.caps.global_cap();
        let local_edge_cap = self.caps.local_edge_cap();

        // The arena's current contents were consumed by the protocol callbacks;
        // recycle it to route the next round's deliveries.
        self.arena.clear();
        let mut messages = self.outbox.iter();
        for (k, i) in self.block().enumerate() {
            // A node that sent nothing has nothing to count or route.
            if self.out_lens[k] == 0 {
                continue;
            }
            let sender = NodeId::from(i);
            let mut global_sent = 0usize;
            let mut total_sent = 0usize;
            // A fresh epoch invalidates every per-edge counter at once: a stamp
            // that doesn't match `edge_epoch` reads as zero (the SoA replacement
            // for clearing a per-sender HashMap each iteration).
            self.edge_epoch += 1;
            for &(to, channel, ref payload) in messages.by_ref().take(self.out_lens[k]) {
                if to.index() >= n {
                    self.arena.skip();
                    self.drop_message(
                        round_metrics,
                        sender,
                        to,
                        channel,
                        DropCause::InvalidAddress,
                    );
                    continue;
                }
                let allowed = match channel {
                    Channel::Global => !matches!(global_send_cap, Some(cap) if global_sent >= cap),
                    Channel::Local => {
                        let is_edge = match &self.local_neighbors {
                            Some(adj) => adj.contains(i, to),
                            // Without a declared local graph, local messages behave
                            // like global ones under the active model's cap.
                            None => true,
                        };
                        let under_edge_cap = match local_edge_cap {
                            Some(cap) => {
                                let count = if self.per_edge_stamp[to.index()] == self.edge_epoch {
                                    self.per_edge_count[to.index()]
                                } else {
                                    0
                                };
                                count < cap
                            }
                            None => true,
                        };
                        is_edge && under_edge_cap
                    }
                };
                if !allowed {
                    self.arena.skip();
                    self.drop_message(round_metrics, sender, to, channel, DropCause::SendCap);
                    continue;
                }
                if channel == Channel::Local {
                    if self.per_edge_stamp[to.index()] == self.edge_epoch {
                        self.per_edge_count[to.index()] += 1;
                    } else {
                        self.per_edge_stamp[to.index()] = self.edge_epoch;
                        self.per_edge_count[to.index()] = 1;
                    }
                }
                if channel == Channel::Global {
                    global_sent += 1;
                }
                total_sent += 1;
                // The message was sent (and paid for); the fault router now decides
                // whether the network actually carries it.
                let slot = NodeId::new(to.raw().wrapping_sub(base));
                match self.router.route(sender, to, self.round) {
                    Route::Deliver if slot.index() < len => self.arena.route(sender, slot, channel),
                    Route::Deliver => {
                        self.arena.skip();
                        let seq = u32::try_from(total_sent - 1).expect("send ordinals fit in u32");
                        let payload = payload.clone();
                        let env = Envelope {
                            from: sender,
                            channel,
                            payload,
                        };
                        self.crossing.push((to, seq, env));
                    }
                    Route::Delay(deliver_round) => {
                        self.arena.skip();
                        round_metrics.delayed += 1;
                        let payload = payload.clone();
                        let env = Envelope {
                            from: sender,
                            channel,
                            payload,
                        };
                        self.router.buffer(deliver_round, to, env);
                    }
                    Route::Drop(cause) => {
                        self.arena.skip();
                        self.drop_message(round_metrics, sender, to, channel, cause)
                    }
                }
            }
            self.metrics.total_sent_per_node[k] += total_sent as u64;
            self.metrics.total_global_sent_per_node[k] += global_sent as u64;
            round_metrics.max_sent = round_metrics.max_sent.max(total_sent);
            round_metrics.max_global_sent = round_metrics.max_global_sent.max(global_sent);
        }
        // Receive caps are applied at delivery time (see `apply_receive_caps`).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;

    /// Every node sends `fan_out` messages to node 0 each round, for `rounds` rounds.
    #[derive(Debug)]
    struct Flooder {
        fan_out: usize,
        rounds: usize,
        received: usize,
        done: bool,
    }

    impl Protocol for Flooder {
        type Message = u32;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            for k in 0..self.fan_out {
                ctx.send_global(NodeId::from(0usize), k as u32);
            }
        }

        fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[Envelope<u32>]) {
            self.received += inbox.len();
            if ctx.round() < self.rounds {
                for k in 0..self.fan_out {
                    ctx.send_global(NodeId::from(0usize), k as u32);
                }
            } else {
                self.done = true;
            }
        }

        fn is_done(&self) -> bool {
            self.done
        }
    }

    fn flooders(n: usize, fan_out: usize, rounds: usize) -> Vec<Flooder> {
        (0..n)
            .map(|_| Flooder {
                fan_out,
                rounds,
                received: 0,
                done: false,
            })
            .collect()
    }

    #[test]
    fn unbounded_delivers_everything() {
        let mut sim = Simulator::new(flooders(8, 2, 3), SimConfig::default());
        let outcome = sim.run(10);
        assert!(outcome.all_done);
        // 8 nodes * 2 messages * 3 send opportunities (start + rounds 1 and 2); the
        // sends of the final round are never made because the nodes finish first.
        assert_eq!(sim.node(NodeId::from(0usize)).received, 8 * 2 * 3);
        assert_eq!(sim.metrics().totals().dropped_receive, 0);
        assert_eq!(sim.metrics().totals().dropped_send, 0);
    }

    #[test]
    fn ncc0_receive_cap_drops_excess() {
        let config = SimConfig {
            caps: CapacityModel::Ncc0 { per_round: 4 },
            seed: 7,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(flooders(16, 1, 2), config);
        sim.run(10);
        // Node 0 can receive at most 4 messages per round.
        assert!(sim.metrics().totals().max_received <= 4);
        assert!(sim.metrics().totals().dropped_receive > 0);
        assert!(sim.node(NodeId::from(0usize)).received <= 4 * 3);
    }

    #[test]
    fn ncc0_send_cap_drops_excess() {
        let config = SimConfig {
            caps: CapacityModel::Ncc0 { per_round: 3 },
            seed: 7,
            ..SimConfig::default()
        };
        // A single node trying to send 10 messages per round to itself.
        let mut sim = Simulator::new(flooders(1, 10, 1), config);
        sim.run(5);
        assert!(sim.metrics().totals().max_sent <= 3);
        assert!(sim.metrics().totals().dropped_send > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let config = SimConfig {
                caps: CapacityModel::Ncc0 { per_round: 2 },
                seed,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(flooders(12, 1, 3), config);
            sim.run(10);
            sim.node(NodeId::from(0usize)).received
        };
        assert_eq!(run(42), run(42));
    }

    /// Local-channel protocol for testing the CONGEST discipline.
    #[derive(Debug)]
    struct LocalSpammer {
        target: NodeId,
        copies: usize,
        received: usize,
    }

    impl Protocol for LocalSpammer {
        type Message = u8;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
            for _ in 0..self.copies {
                ctx.send_local(self.target, 1);
            }
        }
        fn on_round(&mut self, _ctx: &mut Ctx<'_, u8>, inbox: &[Envelope<u8>]) {
            self.received += inbox.len();
        }
    }

    #[test]
    fn hybrid_local_edges_enforce_congest() {
        // Node 0 and 1 are local neighbors; node 2 is isolated locally.
        let local = vec![
            vec![NodeId::from(1usize)],
            vec![NodeId::from(0usize)],
            vec![],
        ];
        let config = SimConfig {
            caps: CapacityModel::Hybrid {
                local_per_edge: 1,
                global_per_round: 8,
            },
            seed: 3,
            local_edges: Some(local),
            ..SimConfig::default()
        };
        let nodes = vec![
            LocalSpammer {
                target: NodeId::from(1usize),
                copies: 5,
                received: 0,
            },
            LocalSpammer {
                target: NodeId::from(2usize),
                copies: 2,
                received: 0,
            },
            LocalSpammer {
                target: NodeId::from(0usize),
                copies: 1,
                received: 0,
            },
        ];
        let mut sim = Simulator::new(nodes, config);
        sim.run(2);
        // Only one of node 0's five copies travels the (0,1) edge per round.
        assert_eq!(sim.node(NodeId::from(1usize)).received, 1);
        // Node 1 -> 2 is not a local edge: nothing arrives.
        assert_eq!(sim.node(NodeId::from(2usize)).received, 0);
        // Node 2 -> 0 is not a local edge either.
        assert_eq!(sim.node(NodeId::from(0usize)).received, 0);
        // Copies over capacity: 4 from node 0, 2 from node 1, 1 from node 2.
        assert!(sim.metrics().totals().dropped_send >= 7);
    }

    #[test]
    fn arena_groups_stably_by_recipient() {
        let env = |from: usize, payload: u32| Envelope {
            from: NodeId::from(from),
            channel: Channel::Global,
            payload,
        };
        let mut arena: EnvelopeArena<u32> = EnvelopeArena::new(3);
        // Interleaved routing order, as dispatch produces it, with one entry not
        // routed; then a delayed envelope released for node 0.
        let mut outbox = Vec::new();
        for (from, to, payload, routed) in [
            (0, 2, 10, true),
            (1, 0, 11, true),
            (1, 1, 15, false),
            (1, 2, 12, true),
            (2, 0, 13, true),
            (2, 2, 14, true),
        ] {
            outbox.push((NodeId::from(to), Channel::Global, payload));
            if routed {
                arena.route(NodeId::from(from), NodeId::from(to), Channel::Global);
            } else {
                arena.skip();
            }
        }
        arena.push(NodeId::from(0usize), env(1, 9));
        arena.group(&mut outbox);
        assert!(outbox.is_empty(), "the scatter drains the outbox");
        fn payloads(arena: &EnvelopeArena<u32>, i: usize) -> Vec<u32> {
            arena.inbox(i).iter().map(|e| e.payload).collect()
        }
        assert_eq!(payloads(&arena, 0), vec![11, 13, 9]);
        assert_eq!(arena.inbox(0)[1].from, NodeId::from(2usize));
        assert_eq!(payloads(&arena, 1), Vec::<u32>::new());
        assert_eq!(payloads(&arena, 2), vec![10, 12, 14]);
        // Dropping the middle of an inbox preserves the order of the rest.
        arena.retain_range(2, &[false, true, false]);
        assert_eq!(payloads(&arena, 2), vec![10, 14]);
        // Clearing retains nothing but keeps the arena usable.
        arena.clear();
        arena.group(&mut outbox);
        assert!((0..3).all(|i| arena.inbox(i).is_empty()));
    }

    impl<M: Clone> EnvelopeArena<M> {
        /// `group` as it was while every delivery was staged: a prefix sum over the
        /// counts kept at `push`, then one stable scatter of the staging buffer.
        fn reference_group(&mut self) {
            let mut total = 0usize;
            for ((start, cursor), &len) in self
                .starts
                .iter_mut()
                .zip(self.cursors.iter_mut())
                .zip(&self.lens)
            {
                *start = total;
                *cursor = total;
                total += len;
            }
            assert_eq!(
                total,
                self.staged.len(),
                "every staged envelope was counted"
            );
            if self.inboxes.len() < total {
                let filler = self.staged[0].clone();
                self.inboxes.resize(total, filler);
            }
            for (env, &t) in self.staged.drain(..).zip(&self.to) {
                let cursor = &mut self.cursors[t.index()];
                self.inboxes[*cursor] = env;
                *cursor += 1;
            }
            self.to.clear();
        }
    }

    impl<P: Protocol> Simulator<P> {
        /// `dispatch` as it was while routed messages were staged: it drains the
        /// outbox, and every message the router delivers next round is moved into an
        /// envelope and staged with `push`. The executable specification of every
        /// verdict, its order, and what the router, the trace and the metrics see.
        fn reference_dispatch(&mut self, round_metrics: &mut RoundMetrics) {
            let n = self.nodes.len();
            let global_send_cap = self.caps.global_cap();
            let local_edge_cap = self.caps.local_edge_cap();
            self.arena.clear();
            let mut outbox = std::mem::take(&mut self.outbox);
            let mut messages = outbox.drain(..);
            for i in 0..n {
                let sender = NodeId::from(i);
                let mut global_sent = 0usize;
                let mut total_sent = 0usize;
                self.edge_epoch += 1;
                for (to, channel, payload) in messages.by_ref().take(self.out_lens[i]) {
                    if to.index() >= n {
                        self.drop_message(
                            round_metrics,
                            sender,
                            to,
                            channel,
                            DropCause::InvalidAddress,
                        );
                        continue;
                    }
                    let allowed = match channel {
                        Channel::Global => {
                            !matches!(global_send_cap, Some(cap) if global_sent >= cap)
                        }
                        Channel::Local => {
                            let is_edge = match &self.local_neighbors {
                                Some(adj) => adj.contains(i, to),
                                None => true,
                            };
                            let under_edge_cap = match local_edge_cap {
                                Some(cap) => {
                                    let count =
                                        if self.per_edge_stamp[to.index()] == self.edge_epoch {
                                            self.per_edge_count[to.index()]
                                        } else {
                                            0
                                        };
                                    count < cap
                                }
                                None => true,
                            };
                            is_edge && under_edge_cap
                        }
                    };
                    if !allowed {
                        self.drop_message(round_metrics, sender, to, channel, DropCause::SendCap);
                        continue;
                    }
                    if channel == Channel::Local {
                        if self.per_edge_stamp[to.index()] == self.edge_epoch {
                            self.per_edge_count[to.index()] += 1;
                        } else {
                            self.per_edge_stamp[to.index()] = self.edge_epoch;
                            self.per_edge_count[to.index()] = 1;
                        }
                    }
                    if channel == Channel::Global {
                        global_sent += 1;
                    }
                    total_sent += 1;
                    let env = Envelope {
                        from: sender,
                        channel,
                        payload,
                    };
                    match self.router.route(sender, to, self.round) {
                        Route::Deliver => self.arena.push(to, env),
                        Route::Delay(deliver_round) => {
                            round_metrics.delayed += 1;
                            self.router.buffer(deliver_round, to, env);
                        }
                        Route::Drop(cause) => {
                            self.drop_message(round_metrics, sender, to, channel, cause)
                        }
                    }
                }
                self.metrics.total_sent_per_node[i] += total_sent as u64;
                self.metrics.total_global_sent_per_node[i] += global_sent as u64;
                round_metrics.max_sent = round_metrics.max_sent.max(total_sent);
                round_metrics.max_global_sent = round_metrics.max_global_sent.max(global_sent);
            }
            drop(messages);
            self.outbox = outbox;
        }

        /// The receive caps as the model states them: scan every inbox for its
        /// global messages; where there are more than the cap, shuffle them all
        /// with the inbox's `eviction_rng` and evict every one past the first
        /// `cap`, in that order. The kept envelopes stay in inbox order, and the
        /// counts are set from the scan, under every capacity model.
        fn reference_receive_caps(&mut self, round_metrics: &mut RoundMetrics) {
            let cap = self.caps.global_cap().unwrap_or(usize::MAX);
            for i in 0..self.nodes.len() {
                let start = self.arena.starts[i];
                let inbox = self.arena.inboxes[start..start + self.arena.lens[i]].to_vec();
                let mut globals: Vec<usize> = (0..inbox.len())
                    .filter(|&k| inbox[k].channel == Channel::Global)
                    .collect();
                self.arena.globals[i] = globals.len().min(cap);
                if globals.len() <= cap {
                    continue;
                }
                globals.shuffle(&mut eviction_rng(self.seed, self.round, i));
                let evicted = &globals[cap..];
                for &k in evicted {
                    self.drop_message(
                        round_metrics,
                        inbox[k].from,
                        NodeId::from(i),
                        Channel::Global,
                        DropCause::ReceiveCap,
                    );
                }
                let kept: Vec<_> = (inbox.iter().enumerate())
                    .filter(|(k, _)| !evicted.contains(k))
                    .map(|(_, env)| env.clone())
                    .collect();
                self.arena.lens[i] = kept.len();
                self.arena.inboxes[start..start + kept.len()].clone_from_slice(&kept);
            }
        }

        /// `run_round` over the reference bodies. Its debug contracts state the
        /// current books, so they are left out.
        fn reference_run_round(&mut self, round: usize) {
            self.round = round;
            if let Some(sink) = &self.sink {
                sink.borrow_mut().record(TraceEvent::RoundStart { round });
            }
            self.emit_lifecycle(round);
            let (router, arena) = (&mut self.router, &mut self.arena);
            router.drain_due(round, |to, env| arena.push(to, env));
            self.arena.reference_group();
            let mut round_metrics = RoundMetrics::default();
            self.router.record_lifecycle(round, &mut round_metrics);
            self.reference_receive_caps(&mut round_metrics);
            for (&len, &globals) in self.arena.lens.iter().zip(&self.arena.globals) {
                round_metrics.max_received = round_metrics.max_received.max(len);
                round_metrics.max_global_received = round_metrics.max_global_received.max(globals);
                round_metrics.delivered += len as u64;
            }
            self.run_callbacks(round, &mut round_metrics);
            self.reference_dispatch(&mut round_metrics);
            self.emit_round_end(round, &round_metrics);
            self.metrics.record_round(round_metrics);
        }
    }

    /// Sends a scripted list of messages per round — from `on_start` too, so a
    /// joiner sends in its join round — and logs every inbox it reads.
    #[derive(Debug)]
    struct Scripted {
        sends: Vec<Vec<(NodeId, Channel, u32)>>,
        seen: Vec<(usize, Vec<Envelope<u32>>)>,
    }

    impl Scripted {
        fn send_scripted(&self, ctx: &mut Ctx<'_, u32>) {
            for &(to, channel, payload) in self.sends.get(ctx.round()).into_iter().flatten() {
                ctx.send(to, channel, payload);
            }
        }
    }

    impl Protocol for Scripted {
        type Message = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            self.send_scripted(ctx);
        }
        fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[Envelope<u32>]) {
            self.seen.push((ctx.round(), inbox.to_vec()));
            self.send_scripted(ctx);
        }
    }

    #[test]
    fn routing_in_place_matches_staging_round_by_round() {
        // What the cases reached, summed over all of them: drops by cause (a local
        // send-cap drop split into non-edge and per-edge cap), delays, inboxes
        // where a delayed envelope lands behind a routed one, capped inboxes over
        // and (non-empty) under the cap, and rounds that deliver fewer envelopes
        // than an earlier round, so callbacks read in front of stale envelopes.
        let (mut invalid, mut global_cap, mut non_edge, mut edge_cap) = (0, 0, 0, 0);
        let (mut fault, mut partition, mut offline, mut receive_cap) = (0, 0, 0, 0);
        let (mut delayed, mut delayed_behind_routed) = (0, 0);
        let (mut over_cap, mut under_cap, mut shrunk) = (0, 0, 0);
        for case in 0..160u64 {
            let mut gen = StdRng::seed_from_u64(case);
            let n = gen.gen_range(3..10usize);
            let local: Vec<Vec<NodeId>> = (0..n)
                .map(|_| {
                    (0..n)
                        .filter(|_| gen.gen_bool(0.4))
                        .map(NodeId::from)
                        .collect()
                })
                .collect();
            let (caps, local_edges) = match case % 4 {
                0 => (CapacityModel::Unbounded, None),
                1 => (
                    CapacityModel::Ncc0 {
                        per_round: gen.gen_range(2..6),
                    },
                    None,
                ),
                _ => (
                    CapacityModel::Hybrid {
                        local_per_edge: gen.gen_range(1..3),
                        global_per_round: gen.gen_range(2..6),
                    },
                    Some(local.clone()),
                ),
            };
            let mut faults = FaultPlan::default();
            if gen.gen_bool(0.6) {
                faults = faults.with_drop_prob(gen.gen_range(0.05..0.3));
            }
            if gen.gen_bool(0.7) {
                faults = faults.with_delays(gen.gen_range(0.1..0.5), gen.gen_range(1..4));
            }
            if gen.gen_bool(0.5) {
                faults = faults.with_crash(NodeId::from(0usize), gen.gen_range(1..6));
            }
            if gen.gen_bool(0.5) {
                faults = faults.with_join(NodeId::from(1usize), gen.gen_range(1..5));
            }
            if gen.gen_bool(0.4) {
                let side: Vec<NodeId> = (0..n)
                    .filter(|_| gen.gen_bool(0.5))
                    .map(NodeId::from)
                    .collect();
                let from = gen.gen_range(0..4usize);
                faults = faults.with_partition(side, from, from + gen.gen_range(1..4usize));
            }
            // Six rounds of sends, then quiet rounds that flush every delay. A send
            // names its round, sender and position in its payload.
            let (send_rounds, rounds) = (6, 11);
            let hot = gen.gen_range(0..n);
            let mut new_nodes = Vec::new();
            for i in 0..n {
                let sends = (0..send_rounds)
                    .map(|r| {
                        (0..gen.gen_range(0..9usize))
                            .map(|k| {
                                let to = match gen.gen_range(0..10usize) {
                                    0 => n + gen.gen_range(0..3usize),
                                    1..=3 => hot,
                                    _ => gen.gen_range(0..n),
                                };
                                let channel = if gen.gen_bool(0.3) {
                                    Channel::Local
                                } else {
                                    Channel::Global
                                };
                                let payload = ((r << 16) | (i << 8) | k) as u32;
                                (NodeId::from(to), channel, payload)
                            })
                            .collect()
                    })
                    .collect();
                new_nodes.push(Scripted {
                    sends,
                    seen: Vec::new(),
                });
            }
            let old_nodes = new_nodes
                .iter()
                .map(|s| Scripted {
                    sends: s.sends.clone(),
                    seen: Vec::new(),
                })
                .collect();
            let config = SimConfig {
                caps,
                seed: case,
                local_edges,
                faults,
                ..SimConfig::default()
            };
            let (mut new, mut old) = (
                Simulator::new(new_nodes, config.clone()),
                Simulator::new(old_nodes, config),
            );
            let (new_trace, old_trace) = (
                crate::trace::TraceBuffer::shared(),
                crate::trace::TraceBuffer::shared(),
            );
            new.set_trace_sink(new_trace.clone());
            old.set_trace_sink(old_trace.clone());
            for round in 0..rounds {
                new.run_round(round);
                old.reference_run_round(round);
                for (i, (a, b)) in new.nodes().iter().zip(old.nodes()).enumerate() {
                    assert_eq!(
                        a.seen, b.seen,
                        "case {case} round {round}: node {i}'s inboxes"
                    );
                }
                assert_eq!(
                    new.metrics(),
                    old.metrics(),
                    "case {case} round {round}: metrics"
                );
                assert_eq!(
                    new_trace.borrow().events,
                    old_trace.borrow().events,
                    "case {case} round {round}: trace"
                );
                assert_eq!(
                    new.router.peek_rng(),
                    old.router.peek_rng(),
                    "case {case} round {round}: the fault stream moved"
                );
            }
            let mut evicted_from = std::collections::BTreeSet::new();
            for event in &new_trace.borrow().events {
                let TraceEvent::Drop {
                    round,
                    from,
                    to,
                    channel,
                    cause,
                } = event
                else {
                    continue;
                };
                match cause {
                    DropCause::InvalidAddress => invalid += 1,
                    DropCause::SendCap if *channel == Channel::Global => global_cap += 1,
                    DropCause::SendCap if local[from.index()].contains(to) => edge_cap += 1,
                    DropCause::SendCap => non_edge += 1,
                    DropCause::Fault => fault += 1,
                    DropCause::Partition => partition += 1,
                    DropCause::Offline => offline += 1,
                    DropCause::ReceiveCap => {
                        receive_cap += 1;
                        evicted_from.insert((*round, to.index()));
                    }
                }
            }
            over_cap += evicted_from.len();
            delayed += new.metrics().totals().delayed;
            for (i, node) in new.nodes().iter().enumerate() {
                for (round, inbox) in &node.seen {
                    let sent_in = |e: &Envelope<u32>| (e.payload >> 16) as usize;
                    let routed = inbox.iter().any(|e| sent_in(e) + 1 == *round);
                    let late = inbox.iter().any(|e| sent_in(e) + 1 < *round);
                    delayed_behind_routed += usize::from(routed && late);
                    under_cap += usize::from(
                        caps.global_cap().is_some()
                            && !inbox.is_empty()
                            && !evicted_from.contains(&(*round, i)),
                    );
                }
            }
            let mut high_water = 0;
            for m in &new.metrics().per_round {
                let total = m.delivered + m.dropped_receive;
                shrunk += usize::from(total < high_water);
                high_water = high_water.max(total);
            }
        }
        let covered = [
            ("invalid address", invalid),
            ("global send cap", global_cap),
            ("local non-edge", non_edge),
            ("per-edge cap", edge_cap),
            ("fault loss", fault),
            ("partition", partition),
            ("offline", offline),
            ("receive cap", receive_cap),
            ("delayed", delayed as usize),
            ("delayed behind routed", delayed_behind_routed),
            ("a round shorter than an earlier one", shrunk),
        ];
        for (what, count) in covered {
            assert!(count >= 20, "the cases must reach {what}: {count} times");
        }
        assert!(
            over_cap >= 100 && under_cap >= 100,
            "the cases must mix inboxes over and (non-empty) under the cap: {over_cap} over, {under_cap} under"
        );
    }

    /// What one block sends another at a barrier: the crossing messages for
    /// the other block's nodes, and whether the sender's block is done.
    type Leg = (Vec<Crossing<u32>>, bool);

    /// One block's end of an in-process mesh of blocks: a channel to and from
    /// every other block, one message per round each way.
    struct Link {
        blocks: Vec<Range<usize>>,
        tx: Vec<Option<std::sync::mpsc::Sender<Leg>>>,
        rx: Vec<Option<std::sync::mpsc::Receiver<Leg>>>,
    }

    impl Medium<u32> for Link {
        type Error = std::convert::Infallible;

        fn barrier(
            &mut self,
            _: usize,
            block_done: bool,
            crossing: &mut Vec<Crossing<u32>>,
        ) -> Result<bool, Self::Error> {
            let mut out: Vec<Vec<_>> = self.blocks.iter().map(|_| Vec::new()).collect();
            for c in crossing.drain(..) {
                let owner = self.blocks.iter().position(|b| b.contains(&c.0.index()));
                out[owner.expect("a recipient inside the run")].push(c);
            }
            for (tx, out) in self.tx.iter().zip(out) {
                if let Some(tx) = tx {
                    tx.send((out, block_done))
                        .expect("the other block is running");
                }
            }
            let mut all_done = block_done;
            for rx in self.rx.iter().flatten() {
                let (mut theirs, done) = rx.recv().expect("the other block is running");
                crossing.append(&mut theirs);
                all_done &= done;
            }
            Ok(all_done)
        }
    }

    /// A block decides its own nodes: under crashes, a late join, a partition
    /// window and an NCC0 cap that evicts, blocks of a run (an empty one among
    /// them) connected by a lossless medium read the whole run's inboxes, and
    /// their per-round books — each counting its own nodes' deliveries,
    /// evictions, drops, crashes and joins — add up to the whole run's.
    #[test]
    fn blocks_over_a_lossless_medium_step_their_nodes_as_the_whole_run_does() {
        let n = 9;
        let blocks = [0..3, 3..3, 3..6, 6..9];
        let nodes = || -> Vec<Scripted> {
            let mut gen = StdRng::seed_from_u64(7);
            (0..n)
                .map(|_| Scripted {
                    sends: (0..6)
                        .map(|_| {
                            (0..gen.gen_range(2..8usize))
                                .map(|k| {
                                    let to = if gen.gen_bool(0.4) {
                                        4
                                    } else {
                                        gen.gen_range(0..n)
                                    };
                                    (NodeId::from(to), Channel::Global, k as u32)
                                })
                                .collect()
                        })
                        .collect(),
                    seen: Vec::new(),
                })
                .collect()
        };
        let faults = FaultPlan::default()
            .with_crash(NodeId::from(5usize), 3)
            .with_crash(NodeId::from(8usize), 2)
            .with_join(NodeId::from(1usize), 2)
            .with_partition(vec![NodeId::from(0usize), NodeId::from(6usize)], 1, 3);
        let config = SimConfig::ncc0_capped(3, 11, faults);
        let rounds = 8;
        let mut whole = Simulator::new(nodes(), config.clone());
        let outcome = whole.run(rounds);

        let mut rx: Vec<Vec<_>> = blocks.iter().map(|_| Vec::new()).collect();
        let tx: Vec<Vec<_>> = (0..blocks.len())
            .map(|a| {
                (rx.iter_mut().enumerate())
                    .map(|(b, rx)| {
                        let (t, r) = std::sync::mpsc::channel::<Leg>();
                        rx.push((a != b).then_some(r));
                        (a != b).then_some(t)
                    })
                    .collect()
            })
            .collect();
        let runs: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (blocks.iter().cloned().zip(tx.into_iter().zip(rx)))
                .map(|(block, (tx, rx))| {
                    let (nodes, config) = (nodes(), config.clone());
                    let blocks = blocks.to_vec();
                    scope.spawn(move || {
                        let mut sim = Simulator::for_block(nodes, block, config);
                        let Ok(outcome) = sim.run_over(rounds, &mut Link { blocks, tx, rx });
                        (outcome, sim.metrics().clone(), sim.into_nodes())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("block thread"))
                .collect()
        });

        let book = |m: &RoundMetrics| {
            let lifecycle = [m.crashed, m.joined].map(|count| count as u64);
            let drops = [m.dropped_partition, m.dropped_offline, m.dropped_receive];
            [[m.delivered].as_slice(), &drops, &lifecycle].concat()
        };
        for (block, (block_outcome, _, nodes)) in blocks.iter().zip(&runs) {
            assert_eq!(*block_outcome, outcome, "block {block:?}");
            for (node, i) in nodes.iter().zip(block.clone()) {
                assert_eq!(node.seen, whole.nodes()[i].seen, "node {i}'s inboxes");
            }
        }
        for (r, m) in whole.metrics().per_round.iter().enumerate() {
            let summed = runs.iter().fold(vec![0; 6], |sum, (_, metrics, _)| {
                let block = book(&metrics.per_round[r]);
                sum.iter().zip(block).map(|(a, b)| a + b).collect()
            });
            assert_eq!(summed, book(m), "round {r}");
        }
        let totals = whole.metrics().totals();
        assert!(
            totals.dropped_receive > 0
                && totals.dropped_partition > 0
                && totals.dropped_offline > 0,
            "the run must evict, cut and lose mail to the offline: {totals:?}"
        );
        assert_eq!((totals.crashed, totals.joined), (2, 1));
    }

    #[test]
    fn metrics_rounds_is_consistent_across_start_and_step() {
        // A zero-budget run executes only the start callback: exactly one round of
        // metrics is recorded and `rounds` agrees with it instead of staying stale.
        let mut sim = Simulator::new(flooders(4, 1, 2), SimConfig::default());
        let outcome = sim.run(0);
        assert_eq!(outcome.rounds, 0);
        assert_eq!(sim.metrics().per_round.len(), 1);
        assert_eq!(sim.metrics().rounds, 1);
        // Each message round adds one recorded round and keeps the two in lockstep.
        sim.step();
        assert_eq!(sim.metrics().per_round.len(), 2);
        assert_eq!(sim.metrics().rounds, 2);
    }

    #[test]
    fn run_respects_round_limit() {
        let mut sim = Simulator::new(flooders(4, 1, 100), SimConfig::default());
        let outcome = sim.run(5);
        assert_eq!(outcome.rounds, 5);
        assert!(!outcome.all_done);
    }

    #[test]
    fn crashed_node_goes_silent_and_its_mail_is_lost() {
        // 8 flooders target node 0; node 0 crashes at round 2.
        let config = SimConfig::default()
            .with_faults(FaultPlan::default().with_crash(NodeId::from(0usize), 2));
        let mut sim = Simulator::new(flooders(8, 1, 4), config);
        let outcome = sim.run(10);
        // Crashed nodes count as done, so the run still completes.
        assert!(outcome.all_done);
        // Node 0 received mail in rounds 1 (it was alive); everything addressed to it
        // from round 2 on was dropped as offline.
        assert!(sim.metrics().totals().dropped_offline > 0);
        assert_eq!(sim.metrics().totals().crashed, 1);
        // Its own state stopped advancing: it never flagged done itself.
        assert!(!sim.node(NodeId::from(0usize)).done);
    }

    #[test]
    fn joiner_is_dormant_until_its_round() {
        // Node 1 joins at round 3. Flooders send every round to node 0, so node 1's
        // own sends (to node 0) only begin at its join round.
        let config = SimConfig::default()
            .with_faults(FaultPlan::default().with_join(NodeId::from(1usize), 3));
        let mut sim = Simulator::new(flooders(4, 1, 6), config);
        let outcome = sim.run(12);
        assert!(outcome.all_done);
        assert_eq!(sim.metrics().totals().joined, 1);
        // The dormant node sent nothing in rounds 0..3.
        let sent_by_joiner = sim.metrics().total_sent_per_node[1];
        let sent_by_resident = sim.metrics().total_sent_per_node[2];
        assert!(sent_by_joiner < sent_by_resident);
        assert!(
            sent_by_joiner > 0,
            "the joiner does participate after joining"
        );
    }

    #[test]
    fn join_forces_the_run_to_wait() {
        // All residents are done immediately, but node 2 joins at round 5: the
        // simulation cannot report all_done before then.
        let config = SimConfig::default()
            .with_faults(FaultPlan::default().with_join(NodeId::from(2usize), 5));
        let mut sim = Simulator::new(flooders(3, 1, 1), config);
        let outcome = sim.run(20);
        assert!(outcome.all_done);
        assert!(outcome.rounds >= 5, "ended at round {}", outcome.rounds);
    }

    #[test]
    fn random_loss_is_recorded_and_deterministic() {
        let run = |seed: u64| {
            let config = SimConfig {
                caps: CapacityModel::Unbounded,
                seed,
                faults: FaultPlan::default().with_drop_prob(0.4),
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(flooders(8, 2, 4), config);
            sim.run(10);
            sim.metrics().clone()
        };
        let a = run(11);
        assert!(a.totals().dropped_fault > 0);
        assert!(a.totals().delivered > 0);
        assert_eq!(a, run(11), "same seed must give byte-identical metrics");
        assert_ne!(a.totals().dropped_fault, run(12).totals().dropped_fault);
    }

    #[test]
    fn delays_postpone_but_do_not_lose_messages() {
        let clean = {
            let mut sim = Simulator::new(flooders(6, 1, 3), SimConfig::default());
            sim.run(20);
            sim.metrics().totals().delivered
        };
        let config = SimConfig::default().with_faults(FaultPlan::default().with_delays(1.0, 3));
        let mut sim = Simulator::new(flooders(6, 1, 3), config);
        // Step past the point where every node is done so in-flight delayed messages
        // (run() would stop at all_done) still get delivered.
        for _ in 0..20 {
            sim.step();
        }
        assert!(sim.all_done());
        assert!(sim.metrics().totals().delayed > 0);
        // Everything still arrives, just later.
        assert_eq!(sim.metrics().totals().delivered, clean);
    }

    #[test]
    fn partition_blocks_cross_traffic_then_heals() {
        // Nodes 1..4 flood node 0 every round; nodes {2, 3} are cut off during
        // rounds 1..3.
        let side_a = vec![NodeId::from(2usize), NodeId::from(3usize)];
        let config =
            SimConfig::default().with_faults(FaultPlan::default().with_partition(side_a, 1, 3));
        let mut sim = Simulator::new(flooders(4, 1, 6), config);
        sim.run(10);
        assert!(sim.metrics().totals().dropped_partition > 0);
        // After healing, cross traffic flows again: node 0 hears from everyone in the
        // final rounds, so total deliveries exceed the partition-long minimum.
        let lost = sim.metrics().totals().dropped_partition;
        // Two cut senders, two send rounds inside the window.
        assert_eq!(lost, 4);
    }

    #[test]
    fn receive_caps_bound_delayed_arrivals_too() {
        // Every node sends straight to node 0 with a forced 1-2 round delay; the
        // NCC0 receive cap must still hold on the rounds the messages land in.
        let config = SimConfig {
            caps: CapacityModel::Ncc0 { per_round: 3 },
            seed: 9,
            faults: FaultPlan::default().with_delays(1.0, 2),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(flooders(12, 1, 3), config);
        sim.run(12);
        assert!(sim.metrics().totals().max_received <= 3);
        assert!(sim.metrics().totals().dropped_receive > 0);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn fault_plan_referencing_missing_nodes_panics() {
        let config = SimConfig::default()
            .with_faults(FaultPlan::default().with_crash(NodeId::from(99usize), 1));
        let _ = Simulator::new(flooders(3, 1, 1), config);
    }

    #[test]
    #[should_panic(expected = "one entry per node")]
    fn mismatched_local_edges_panic() {
        let config = SimConfig {
            caps: CapacityModel::Unbounded,
            seed: 0,
            local_edges: Some(vec![vec![]]),
            ..SimConfig::default()
        };
        let _ = Simulator::new(flooders(3, 1, 1), config);
    }

    /// A config exercising every drop path: tight caps, random loss, a crash,
    /// and a late joiner.
    fn stormy_config() -> SimConfig {
        SimConfig {
            caps: CapacityModel::Ncc0 { per_round: 3 },
            seed: 11,
            faults: FaultPlan::default()
                .with_drop_prob(0.3)
                .with_crash(NodeId::from(1usize), 2)
                .with_join(NodeId::from(2usize), 3),
            ..SimConfig::default()
        }
    }

    #[test]
    fn tracing_does_not_change_the_run() {
        let run = |traced: bool| {
            let mut sim = Simulator::new(flooders(8, 2, 5), stormy_config());
            let buf = crate::trace::TraceBuffer::shared();
            if traced {
                sim.set_trace_sink(buf.clone());
            }
            let outcome = sim.run(12);
            let events = buf.borrow().events.len();
            (outcome, sim.metrics().clone(), events)
        };
        let (plain_outcome, plain_metrics, plain_events) = run(false);
        let (traced_outcome, traced_metrics, traced_events) = run(true);
        assert_eq!(plain_events, 0, "no sink, no events");
        assert!(traced_events > 0);
        assert_eq!(plain_outcome.rounds, traced_outcome.rounds);
        assert_eq!(plain_outcome.all_done, traced_outcome.all_done);
        assert_eq!(plain_metrics, traced_metrics, "RNG-stream identity");
    }

    #[test]
    fn trace_is_deterministic() {
        let run = || {
            let mut sim = Simulator::new(flooders(8, 2, 5), stormy_config());
            let buf = crate::trace::TraceBuffer::shared();
            sim.set_trace_sink(buf.clone());
            sim.run(12);
            let events = buf.borrow().events.clone();
            events
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn step_and_run_start_with_the_same_round_zero() {
        // Round 0 is the r = 0 case of the one round skeleton, whichever entry
        // point reaches it first — and it runs once.
        let round_zero = |first: fn(&mut Simulator<Flooder>)| {
            let mut sim = Simulator::new(flooders(8, 2, 5), stormy_config());
            let buf = crate::trace::TraceBuffer::shared();
            sim.set_trace_sink(buf.clone());
            first(&mut sim);
            let events = buf.borrow().events.clone();
            let end = events
                .iter()
                .position(|e| matches!(e, TraceEvent::RoundEnd { round: 0, .. }))
                .expect("round 0 ends");
            assert!(!events[end + 1..]
                .iter()
                .any(|e| matches!(e, TraceEvent::RoundStart { round: 0 })));
            (events[..=end].to_vec(), sim.metrics().per_round[0])
        };
        let stepped = round_zero(|sim| sim.step());
        let ran = round_zero(|sim| {
            sim.run(0);
            sim.step();
        });
        assert_eq!(
            stepped.0.first(),
            Some(&TraceEvent::RoundStart { round: 0 })
        );
        assert_eq!(stepped, ran);
    }

    #[test]
    fn parallel_path_is_bitwise_identical_to_serial() {
        let run = |config: SimConfig, parallelism: ParallelismConfig| {
            let mut sim = Simulator::new(flooders(8, 2, 5), config.with_parallelism(parallelism));
            let buf = crate::trace::TraceBuffer::shared();
            sim.set_trace_sink(buf.clone());
            let outcome = sim.run(12);
            let events = buf.borrow().events.clone();
            let received: Vec<usize> = (0..8).map(|i| sim.node(NodeId::from(i)).received).collect();
            let chunks = sim.chunk_outs.len();
            (
                (outcome.rounds, sim.metrics().clone(), events, received),
                chunks,
            )
        };
        // With 3 workers the chunks are 0..3, 3..6, 6..8: this plan crashes the
        // last node of one chunk and joins the first node of the next.
        let mut boundary = stormy_config();
        boundary.faults = FaultPlan::default()
            .with_drop_prob(0.3)
            .with_crash(NodeId::from(2usize), 2)
            .with_join(NodeId::from(3usize), 3);
        for config in [stormy_config(), boundary] {
            let (serial, chunks) = run(config.clone(), ParallelismConfig::serial());
            assert_eq!(chunks, 1, "one chunk runs in place");
            // One worker (the in-place path again), worker counts below, at and
            // above the node count, and one that leaves a ragged final chunk.
            for workers in [1, 2, 3, 8, 13] {
                let (parallel, chunks) = run(config.clone(), ParallelismConfig::fixed(workers, 0));
                assert_eq!(serial, parallel, "workers={workers} must be bitwise serial");
                assert_eq!(chunks, workers.min(8), "one output slot per chunk");
            }
        }
    }

    #[test]
    fn parallel_path_respects_congest_edges() {
        let run = |parallelism: ParallelismConfig| {
            let local = vec![
                vec![NodeId::from(1usize)],
                vec![NodeId::from(0usize), NodeId::from(2usize)],
                vec![NodeId::from(1usize)],
            ];
            let config = SimConfig {
                caps: CapacityModel::Hybrid {
                    local_per_edge: 1,
                    global_per_round: 8,
                },
                seed: 3,
                local_edges: Some(local),
                parallelism,
                ..SimConfig::default()
            };
            let nodes = vec![
                LocalSpammer {
                    target: NodeId::from(1usize),
                    copies: 5,
                    received: 0,
                },
                LocalSpammer {
                    target: NodeId::from(2usize),
                    copies: 1,
                    received: 0,
                },
                LocalSpammer {
                    target: NodeId::from(0usize),
                    copies: 1,
                    received: 0,
                },
            ];
            let mut sim = Simulator::new(nodes, config);
            sim.run(4);
            let received: Vec<usize> = (0..3).map(|i| sim.node(NodeId::from(i)).received).collect();
            (sim.metrics().clone(), received)
        };
        assert_eq!(
            run(ParallelismConfig::serial()),
            run(ParallelismConfig::fixed(2, 0))
        );
    }

    #[test]
    fn a_message_to_no_node_is_a_send_drop_traced_as_invalid_address() {
        let lost = LocalSpammer {
            target: NodeId::from(5usize),
            copies: 2,
            received: 0,
        };
        let mut sim = Simulator::new(vec![lost], SimConfig::default());
        let buf = crate::trace::TraceBuffer::shared();
        sim.set_trace_sink(buf.clone());
        sim.run(1);
        let expected = RoundMetrics {
            dropped_send: 2,
            ..RoundMetrics::default()
        };
        assert_eq!(*sim.metrics().totals(), expected);
        let causes: Vec<DropCause> = buf
            .borrow()
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Drop { cause, .. } => Some(*cause),
                _ => None,
            })
            .collect();
        assert_eq!(causes, vec![DropCause::InvalidAddress; 2]);
    }

    #[test]
    fn parallelism_threshold_keeps_small_runs_serial() {
        let auto = ParallelismConfig::default();
        assert_eq!(
            auto.effective_workers(16),
            1,
            "below min_nodes stays serial"
        );
        let fixed = ParallelismConfig::fixed(4, 1024);
        assert_eq!(fixed.effective_workers(1023), 1);
        assert_eq!(fixed.effective_workers(1024), 4);
        assert_eq!(ParallelismConfig::serial().effective_workers(1 << 20), 1);
    }

    #[test]
    fn trace_records_lifecycle_and_drops() {
        let mut sim = Simulator::new(flooders(8, 2, 5), stormy_config());
        let buf = crate::trace::TraceBuffer::shared();
        sim.set_trace_sink(buf.clone());
        sim.run(12);
        let events = buf.borrow().events.clone();

        assert_eq!(events.first(), Some(&TraceEvent::RoundStart { round: 0 }));
        assert!(events.contains(&TraceEvent::Crash {
            round: 2,
            node: NodeId::from(1usize)
        }));
        assert!(events.contains(&TraceEvent::Join {
            round: 3,
            node: NodeId::from(2usize)
        }));

        // Each drop cause seen in the trace matches the metrics counter it is
        // documented against.
        let drops_by = |cause: DropCause| {
            events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Drop { cause: c, .. } if *c == cause))
                .count() as u64
        };
        let m = sim.metrics().totals();
        assert_eq!(drops_by(DropCause::Fault), m.dropped_fault);
        assert_eq!(drops_by(DropCause::Offline), m.dropped_offline);
        assert_eq!(drops_by(DropCause::ReceiveCap), m.dropped_receive);
        assert_eq!(
            drops_by(DropCause::SendCap) + drops_by(DropCause::InvalidAddress),
            m.dropped_send
        );
        assert!(m.dropped_fault > 0, "the storm must actually drop");
        assert!(m.dropped_receive > 0);

        // Every round is bracketed by a RoundStart / RoundEnd pair, and the
        // RoundEnd rollups re-add to the run totals.
        let starts = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RoundStart { .. }))
            .count();
        let ends: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RoundEnd {
                    delivered, dropped, ..
                } => Some((*delivered, *dropped)),
                _ => None,
            })
            .collect();
        assert_eq!(starts, ends.len());
        assert_eq!(starts, sim.metrics().rounds);
        let traced: (u64, u64) = ends
            .iter()
            .fold((0, 0), |sum, end| (sum.0 + end.0, sum.1 + end.1));
        assert_eq!(traced, (m.delivered, m.dropped()));
    }
}
