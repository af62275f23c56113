//! The protocol trait and the per-round node context.

use crate::metrics::TransportCounters;
use overlay_graph::NodeId;
use rand::rngs::StdRng;

/// Which kind of edge a message travels over.
///
/// The NCC0 model only uses [`Channel::Global`]; the hybrid model distinguishes local
/// (CONGEST, initial-graph) edges from global (overlay) messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Channel {
    /// A local edge of the initial graph (CONGEST discipline in the hybrid model).
    Local,
    /// A global / overlay message addressed by identifier.
    Global,
}

crate::wire! { Channel { 0 => Local, 1 => Global } }

/// A delivered message together with its sender and channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// The sending node.
    pub from: NodeId,
    /// The channel the message travelled over.
    pub channel: Channel,
    /// The message itself.
    pub payload: M,
}

/// The interface of a distributed protocol: one state machine per node, advanced one
/// synchronous round at a time.
///
/// Implementations must only communicate through the [`Ctx`] passed to the callbacks;
/// they must not share state between nodes (the simulator owns each node's state
/// exclusively, so the compiler enforces this).
///
/// `Send` is a supertrait (and `Send + Sync` is required of the message type) so
/// the simulator may step disjoint groups of nodes on different worker threads
/// within a round (see [`crate::ParallelismConfig`]). Protocol state is
/// plain owned data — per-node RNGs, identifiers, buffers — so this costs
/// implementations nothing; it only rules out sharing thread-bound handles
/// (`Rc`, `RefCell`) inside node state, which the model forbids anyway.
pub trait Protocol: Send {
    /// The message type exchanged by this protocol. Each message must fit in
    /// `O(log n)` bits, i.e. carry at most a constant number of identifiers.
    type Message: Clone + std::fmt::Debug + Send + Sync;

    /// Called once before the first round; typically used to send initial messages.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Message>);

    /// Called once per round with all messages delivered at the beginning of the round.
    ///
    /// The inbox is a slice into the simulator's per-round envelope arena (see
    /// [`crate::Simulator`], *Hot-path layout*); it is only valid for the duration of the
    /// callback, so implementations copy out what they keep. Messages are
    /// `O(log n)`-bit values, so copying a payload costs the same as moving it.
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Message>, inbox: &[Envelope<Self::Message>]);

    /// Returns `true` once this node has terminated. The simulation stops when every
    /// node is done (or the round limit is reached).
    fn is_done(&self) -> bool {
        false
    }
}

/// The per-round context handed to a node: who it is, which round it is, the bound
/// `⌈log₂ n⌉` it knows, its private RNG, and its outbox.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    pub(crate) me: NodeId,
    pub(crate) round: usize,
    pub(crate) n: usize,
    pub(crate) rng: &'a mut StdRng,
    /// The outbox buffer shared by this node's chunk of the round (the whole
    /// round, when it is one chunk); this node's messages are appended to it.
    pub(crate) outbox: &'a mut Vec<(NodeId, Channel, M)>,
    /// Transport-overhead counters reported by reliable-delivery adapters this
    /// callback; the simulator folds them into the round's metrics afterwards.
    pub(crate) transport: TransportCounters,
}

impl<'a, M> Ctx<'a, M> {
    /// Builds a context for driving one node by hand, outside
    /// [`crate::Simulator`] — a test that scripts a node's inboxes — with the
    /// caller owning the outbox.
    ///
    /// The constructed context behaves exactly like the one the simulator
    /// hands to callbacks, with this node's messages starting at the current
    /// end of `outbox`; with [`crate::node_rng`]'s stream the node
    /// makes the random choices it would make in the simulator.
    pub fn external(
        me: NodeId,
        round: usize,
        n: usize,
        rng: &'a mut StdRng,
        outbox: &'a mut Vec<(NodeId, Channel, M)>,
    ) -> Self {
        Ctx {
            me,
            round,
            n,
            rng,
            outbox,
            transport: TransportCounters::default(),
        }
    }

    /// The identifier of the executing node.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The current round number (the start callback runs in round 0).
    pub fn round(&self) -> usize {
        self.round
    }

    /// The upper bound `L = ⌈log₂ n⌉ ≥ log n` that all nodes know. The paper only
    /// requires nodes to know such a bound with `L = O(log n)`, not `n` itself.
    pub fn log_n(&self) -> usize {
        crate::caps::log2_ceil(self.n).max(1)
    }

    /// The node's private, deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Queues a message to `to` over a global (overlay) edge. The recipient must be a
    /// node whose identifier this node knows; the simulator does not check this (it
    /// cannot), but protocols in this workspace only ever address identifiers they
    /// received in messages or knew initially, as the model requires.
    pub fn send_global(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, Channel::Global, msg));
    }

    /// Queues a message to `to` over a local edge of the initial graph (hybrid model
    /// only; in the NCC0 model use [`Ctx::send_global`]).
    pub fn send_local(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, Channel::Local, msg));
    }

    /// Queues a message over an explicitly chosen channel.
    pub fn send(&mut self, to: NodeId, channel: Channel, msg: M) {
        self.outbox.push((to, channel, msg));
    }

    /// Re-borrows this context for a *wrapped* protocol exchanging a different
    /// message type, writing into the adapter-owned `outbox` instead of the
    /// simulator's shared one.
    ///
    /// This is the seam protocol adapters (e.g. the `overlay-transport` crate's
    /// `Reliable<P>`) are built on: the adapter runs the inner protocol against the
    /// derived context, then translates the collected inner messages into its own
    /// wire format on the outer context. The derived context shares the node's RNG
    /// (so the inner protocol's random stream is exactly what it would be without
    /// the adapter), identity, round number and `n`; its transport counters are
    /// separate and discarded — adapters report overhead on the *outer* context.
    pub fn derived<'b, N>(&'b mut self, outbox: &'b mut Vec<(NodeId, Channel, N)>) -> Ctx<'b, N> {
        Ctx {
            me: self.me,
            round: self.round,
            n: self.n,
            rng: self.rng,
            outbox,
            transport: TransportCounters::default(),
        }
    }

    /// Records one transport-layer retransmission (for reliable-delivery adapters;
    /// folded into [`TransportCounters::retransmits`]).
    pub fn note_retransmit(&mut self) {
        self.transport.retransmits += 1;
    }

    /// Records one transport-layer acknowledgment message sent (folded into
    /// [`TransportCounters::acks`]).
    pub fn note_ack(&mut self) {
        self.transport.acks += 1;
    }

    /// Records one duplicate payload suppressed before it reached the wrapped
    /// protocol (folded into [`TransportCounters::dupes_dropped`]).
    pub fn note_dupe_dropped(&mut self) {
        self.transport.dupes_dropped += 1;
    }

    /// Records one payload abandoned after its retransmission budget ran out
    /// (folded into [`TransportCounters::give_ups`]).
    pub fn note_give_up(&mut self) {
        self.transport.give_ups += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ctx_accessors_and_send() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut outbox = Vec::new();
        let mut ctx: Ctx<'_, u32> = Ctx {
            me: NodeId::from(3usize),
            round: 5,
            n: 1000,
            rng: &mut rng,
            outbox: &mut outbox,
            transport: TransportCounters::default(),
        };
        assert_eq!(ctx.me(), NodeId::from(3usize));
        assert_eq!(ctx.round(), 5);
        assert_eq!(ctx.log_n(), 10);
        ctx.send_global(NodeId::from(1usize), 42);
        ctx.send_local(NodeId::from(2usize), 43);
        ctx.send(NodeId::from(4usize), Channel::Global, 44);
        assert_eq!(outbox.len(), 3);
        assert_eq!(outbox[0], (NodeId::from(1usize), Channel::Global, 42));
        assert_eq!(outbox[1], (NodeId::from(2usize), Channel::Local, 43));
    }

    #[test]
    fn log_n_is_at_least_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut outbox: Vec<(NodeId, Channel, u8)> = Vec::new();
        let ctx: Ctx<'_, u8> = Ctx {
            me: NodeId::from(0usize),
            round: 0,
            n: 1,
            rng: &mut rng,
            outbox: &mut outbox,
            transport: TransportCounters::default(),
        };
        assert_eq!(ctx.log_n(), 1);
    }
}
