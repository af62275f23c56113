//! The [`Reliable`] protocol adapter: sequence numbers, acks, retransmission and
//! duplicate suppression around an arbitrary inner [`Protocol`].

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use overlay_graph::NodeId;
use overlay_netsim::{Channel, Ctx, Envelope, Protocol, TransportConfig};

/// The wire format of the reliable layer: the inner protocol's payloads wrapped
/// with a per-peer sequence number, plus acknowledgment messages.
///
/// Both variants are `O(log n)` bits on top of the payload (a sequence number and
/// a constant-size bitmap), so a wrapped protocol still satisfies the NCC0
/// message-size discipline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportMsg<M> {
    /// An inner-protocol payload, tagged with the sender's per-peer sequence
    /// number (sequence numbers start at 1 and never repeat within a run).
    Data {
        /// Position of this payload in the sender→receiver stream.
        seq: u32,
        /// The lowest sequence number the sender still holds open: everything
        /// below it is acknowledged or *abandoned* and will never be re-sent.
        /// Lets the receiver advance its cumulative horizon past abandoned
        /// gaps — without it, one abandoned payload would wedge the cumulative
        /// ack below the gap forever, and once the stream moved more than the
        /// selective bitmap's 64 sequences past it, every later (delivered!)
        /// message would be retransmitted to exhaustion.
        floor: u32,
        /// The wrapped protocol message.
        payload: M,
    },
    /// A (cumulative + selective) acknowledgment for the reverse direction.
    Ack {
        /// Every sequence number `<= cum` has been received (`0` = none yet).
        cum: u32,
        /// Bit `i` set means sequence `cum + 1 + i` was received out of order.
        sel: u64,
    },
}

overlay_netsim::wire! { TransportMsg<M> { 0 => Data { seq, floor, payload }, 1 => Ack { cum, sel } } }

/// "No entry": ends a peer's outgoing queue and the pool's free list.
const NIL: u32 = u32::MAX;

/// Hashes a [`NodeId`] with one multiply. Ids are dense integers below `n`
/// (the simulator's by construction, the socket runner's because it refuses
/// a frame from outside the network), so Fibonacci hashing spreads them over
/// the table at a fraction of SipHash's cost, and no peer can pick keys from
/// beyond that range.
#[derive(Clone, Copy, Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a NodeId hashes as one u32");
    }

    fn write_u32(&mut self, id: u32) {
        // The product's well-mixed bits are its high ones; the table indexes
        // by the low ones, so the bytes are swapped.
        self.0 = u64::from(id)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .swap_bytes();
    }
}

/// One queued-or-in-flight outgoing payload.
#[derive(Clone, Debug)]
struct OutEntry<M> {
    seq: u32,
    /// Tick of the most recent send; meaningless while `sends == 0`.
    sent_at: u32,
    /// Times this entry went on the wire: `0` while the window keeps it
    /// queued, `1` after the original send.
    sends: u32,
    /// The entry behind this one in its peer's queue (or, once released, in
    /// the free list); [`NIL`] at the end.
    next: u32,
    channel: Channel,
    /// Acknowledged (or abandoned): the payload will never be sent again.
    closed: bool,
    payload: M,
}

/// The outgoing entries of all of a node's peers in one allocation: each
/// peer's queue is a linked list through it, so a peer that is not sending
/// owns no heap memory and a round reuses the entries the last one released.
#[derive(Clone, Debug)]
struct OutPool<M> {
    entries: Vec<OutEntry<M>>,
    /// Head of the list of released entries.
    free: u32,
}

impl<M> OutPool<M> {
    fn new() -> Self {
        OutPool {
            entries: Vec::new(),
            free: NIL,
        }
    }

    /// Stores `entry` and returns its position.
    fn insert(&mut self, entry: OutEntry<M>) -> u32 {
        if self.free == NIL {
            let at = u32::try_from(self.entries.len()).expect("more than 2^32 open payloads");
            self.entries.push(entry);
            at
        } else {
            let at = self.free;
            self.free = std::mem::replace(&mut self.entries[at as usize], entry).next;
            at
        }
    }

    /// Steps a cursor along a queue: the entry at `*at`, with `*at` moved on
    /// to its successor; `None` at the end.
    fn step(&mut self, at: &mut u32) -> Option<&mut OutEntry<M>> {
        if *at == NIL {
            return None;
        }
        let entry = &mut self.entries[*at as usize];
        *at = entry.next;
        Some(entry)
    }

    /// Returns the entry at `at` to the free list. Its payload lives on until
    /// the slot is reused.
    fn release(&mut self, at: u32) {
        self.entries[at as usize].next = self.free;
        self.free = at;
    }
}

/// Per-peer transport state: the outgoing stream (sender role) and the incoming
/// dedup horizon (receiver role). 32 bytes, whatever the peer's traffic.
#[derive(Clone, Debug)]
struct PeerState {
    /// Sequence number the next enqueued payload will get. It stops at
    /// `u32::MAX`, which is never assigned: the stream is then exhausted and
    /// every further payload to this peer is abandoned at the door.
    next_seq: u32,
    /// The outgoing queue, as a list through the node's [`OutPool`]: entries
    /// in ascending sequence order below `next_seq`, sent entries forming a
    /// prefix, the head open. Both are [`NIL`] when the queue is empty.
    head: u32,
    tail: u32,
    /// Number of sent, unacknowledged, unabandoned entries (window occupancy).
    in_flight: u32,
    /// Every incoming sequence `<= cum_recv` has been delivered.
    cum_recv: u32,
    /// Incoming sequences received out of order: ascending, all `> cum_recv + 1`.
    /// Boxed on first use, so a loss-free stream never allocates it and every
    /// peer pays 8 bytes for it, not a 24-byte `Vec` header.
    #[allow(clippy::box_collection)]
    above: Option<Box<Vec<u32>>>,
    /// An ack to this peer is owed at the end of the current round (the peer is
    /// on [`Reliable::ack_due`]).
    ack_pending: bool,
    /// The peer is on [`Reliable::sending`].
    listed: bool,
    /// The failure detector's verdict: the peer exhausted a retransmission
    /// budget and is presumed crashed; our sender role to it is closed for the
    /// rest of the run. Only ever set when
    /// [`TransportConfig::failure_detector`] is on.
    dead: bool,
}

impl Default for PeerState {
    fn default() -> Self {
        PeerState {
            next_seq: 1,
            head: NIL,
            tail: NIL,
            in_flight: 0,
            cum_recv: 0,
            above: None,
            ack_pending: false,
            listed: false,
            dead: false,
        }
    }
}

impl PeerState {
    /// The incoming sequences buffered out of order.
    fn above(&self) -> &[u32] {
        self.above.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Records an incoming data sequence; returns `true` if it is fresh (first
    /// delivery) and `false` for a duplicate.
    fn receive_data(&mut self, seq: u32) -> bool {
        if seq <= self.cum_recv {
            return false;
        }
        if seq - self.cum_recv == 1 {
            // In order: the whole of a loss-free stream takes this branch.
            self.cum_recv = seq;
            self.absorb_run();
            return true;
        }
        let above = self.above.get_or_insert_with(Box::default);
        match above.binary_search(&seq) {
            Ok(_) => false,
            Err(at) => {
                above.insert(at, seq);
                true
            }
        }
    }

    /// Advances the cumulative horizon past sequences the sender declared
    /// closed (acknowledged or abandoned — they will never be re-sent, so
    /// waiting for them would wedge the ack stream forever). `floor` comes off
    /// the wire, so this jumps: its cost must not depend on the value.
    fn advance_floor(&mut self, floor: u32) {
        if floor <= self.cum_recv || floor - self.cum_recv == 1 {
            return;
        }
        self.cum_recv = floor - 1;
        if let Some(above) = self.above.as_mut() {
            let closed = above.partition_point(|&seq| seq <= self.cum_recv);
            above.drain(..closed);
            // The gap may have been the only thing holding back a received run.
            self.absorb_run();
        }
    }

    /// Moves the horizon over the buffered run that directly continues it.
    fn absorb_run(&mut self) {
        let Some(above) = self.above.as_mut() else {
            return;
        };
        let mut run = 0;
        while above.get(run).is_some_and(|&seq| seq - self.cum_recv == 1) {
            self.cum_recv += 1;
            run += 1;
        }
        above.drain(..run);
    }

    /// Appends `entry` to the outgoing queue.
    fn push_back<M>(&mut self, pool: &mut OutPool<M>, entry: OutEntry<M>) {
        let at = pool.insert(entry);
        match self.tail {
            NIL => self.head = at,
            tail => pool.entries[tail as usize].next = at,
        }
        self.tail = at;
    }

    /// Applies an acknowledgment from this peer to the outgoing stream.
    fn handle_ack<M>(&mut self, pool: &mut OutPool<M>, cum: u32, sel: u64) {
        let mut at = self.head;
        while let Some(entry) = pool.step(&mut at) {
            if entry.sends == 0 {
                // Sent entries form a prefix: nothing further is on the wire.
                break;
            }
            if entry.closed {
                continue;
            }
            let acked = match entry.seq.checked_sub(cum) {
                None | Some(0) => true,
                Some(ahead) => ahead <= 64 && sel & (1u64 << (ahead - 1)) != 0,
            };
            if acked {
                entry.closed = true;
                self.in_flight -= 1;
            }
        }
        self.pop_closed(pool);
    }

    /// The failure detector's verdict: every open entry of the stream is
    /// abandoned, and every later payload to this peer is dropped at the door.
    fn fail<M>(&mut self, pool: &mut OutPool<M>, stats: &mut ReliableStats) {
        self.dead = true;
        stats.peers_failed += 1;
        let mut at = self.head;
        while let Some(entry) = pool.step(&mut at) {
            if !entry.closed {
                entry.closed = true;
                if entry.sends > 0 {
                    self.in_flight -= 1;
                }
                stats.abandoned += 1;
            }
        }
    }

    /// Releases the closed prefix of the outgoing queue.
    fn pop_closed<M>(&mut self, pool: &mut OutPool<M>) {
        while self.head != NIL && pool.entries[self.head as usize].closed {
            let next = pool.entries[self.head as usize].next;
            pool.release(self.head);
            self.head = next;
        }
        if self.head == NIL {
            self.tail = NIL;
        }
    }

    /// The sender-side stream floor: the lowest sequence still open (nothing
    /// below it will ever be re-sent). The outgoing queue's head is never
    /// closed when this is read (`pop_closed` runs after every closing), so its
    /// sequence — or `next_seq` when the queue is drained — is exactly that
    /// bound.
    fn floor<M>(&self, pool: &OutPool<M>) -> u32 {
        match self.head {
            NIL => self.next_seq,
            head => pool.entries[head as usize].seq,
        }
    }

    /// The `(cum, sel)` of the ack summarizing everything received so far.
    fn ack(&self) -> (u32, u64) {
        let mut sel = 0u64;
        for &seq in self.above() {
            let off = seq - self.cum_recv - 1;
            if off >= 64 {
                break;
            }
            sel |= 1u64 << off;
        }
        (self.cum_recv, sel)
    }
}

/// Per-node lifetime totals of the transport layer (the per-round equivalents go
/// to [`overlay_netsim::RoundMetrics`] via the [`Ctx`] hooks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Fresh payloads handed to the inner protocol.
    pub(crate) delivered_payloads: u64,
    /// Duplicate payloads suppressed before the inner protocol saw them.
    pub dupes_dropped: u64,
    /// Data messages re-sent after the retransmission timer fired.
    pub retransmits: u64,
    /// Acknowledgment messages sent.
    pub(crate) acks_sent: u64,
    /// Payloads abandoned after [`TransportConfig::max_retransmits`] resends
    /// (the peer is presumed crashed or unreachable forever). With the
    /// per-peer failure detector on, this also counts payloads abandoned in
    /// bulk when their peer was declared dead, and payloads dropped at the
    /// door because the peer already was.
    pub abandoned: u64,
    /// Peers declared dead by the per-peer failure detector (always `0` when
    /// [`TransportConfig::failure_detector`] is off).
    pub(crate) peers_failed: u64,
}

/// Wraps an inner [`Protocol`] with at-least-once delivery and duplicate
/// suppression; see the crate docs for the full contract.
///
/// The adapter is itself a [`Protocol`] whose message type is
/// [`TransportMsg<P::Message>`], so it runs in the unmodified simulator; capacity
/// caps and fault injection apply to transport traffic exactly as to protocol
/// traffic. The adapter never touches the node's RNG, keeping the inner
/// protocol's random stream identical to an unwrapped run.
///
/// [`Protocol::is_done`] for the wrapped node requires *both* the inner protocol
/// to be done *and* every outgoing payload to be acknowledged or abandoned — this
/// is what keeps the simulation alive long enough for retransmissions to rescue
/// protocols (like the pipeline's one-round binarization) that otherwise
/// terminate before their lost messages could be recovered.
#[derive(Clone, Debug)]
pub struct Reliable<P: Protocol> {
    inner: P,
    config: TransportConfig,
    /// Slab of per-peer state, one slot per peer ever contacted, in order of
    /// first contact. Slots are never freed, so a slot number stays valid.
    peers: Vec<PeerState>,
    /// Every peer's outgoing entries.
    pool: OutPool<P::Message>,
    /// The slab slot of every peer ever contacted.
    index: HashMap<NodeId, u32, BuildHasherDefault<IdHasher>>,
    /// The peers with a non-empty outgoing queue, ascending by peer: the only
    /// ones the send pass visits. Exact between callbacks; within one, a queue
    /// drained by an ack stays listed until the send pass.
    sending: Vec<(NodeId, u32)>,
    /// The peers that delivered data this round, in arrival order; sorted and
    /// drained by `send_acks`.
    ack_due: Vec<(NodeId, u32)>,
    /// The send pass's retransmissions, held back until every fresh send of
    /// the callback is out.
    resends: Vec<(NodeId, Channel, TransportMsg<P::Message>)>,
    /// Reusable buffer the inner protocol's sends are collected in each round.
    inner_outbox: Vec<(NodeId, Channel, P::Message)>,
    /// Reusable buffer of fresh payloads handed to the inner protocol.
    inner_inbox: Vec<Envelope<P::Message>>,
    /// The adapter's own round clock: `0` at `on_start`, advanced once per
    /// `on_round`. Retransmission timers compare ticks, never the scheduler's
    /// round number, so the adapter behaves identically whether it is driven
    /// by the lockstep simulator or by a socket backend whose synchronizer
    /// has no global round counter to offer. Under the simulator the tick
    /// equals `ctx.round()` exactly, so this is a pure refactor there.
    tick: u32,
    stats: ReliableStats,
}

impl<P: Protocol> Reliable<P> {
    /// Wraps `inner` with the given transport configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`TransportConfig::assert_valid`] (its fields
    /// are public, so a struct literal can skip the builders' checks).
    pub fn new(inner: P, config: TransportConfig) -> Self {
        config.assert_valid();
        Reliable {
            inner,
            config,
            peers: Vec::new(),
            pool: OutPool::new(),
            index: HashMap::default(),
            sending: Vec::new(),
            ack_due: Vec::new(),
            resends: Vec::new(),
            inner_outbox: Vec::new(),
            inner_inbox: Vec::new(),
            tick: 0,
            stats: ReliableStats::default(),
        }
    }

    /// The wrapped protocol state.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwraps the node, dropping the transport's own state.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Lifetime transport totals of this node.
    pub fn stats(&self) -> ReliableStats {
        self.stats
    }

    /// `true` while some outgoing payload is neither acknowledged nor abandoned.
    pub(crate) fn has_outstanding(&self) -> bool {
        !self.sending.is_empty()
    }

    /// Starts the outgoing stream to `to` at `next_seq` instead of 1, so a test
    /// can reach the end of the sequence space without 2^32 sends.
    #[cfg(test)]
    fn with_stream_at(mut self, to: NodeId, next_seq: u32) -> Self {
        let slot = self.slot_of(to);
        self.peers[slot as usize].next_seq = next_seq;
        self
    }

    /// The slab slot of `peer`, allocated on first contact.
    fn slot_of(&mut self, peer: NodeId) -> u32 {
        let peers = &mut self.peers;
        *self.index.entry(peer).or_insert_with(|| {
            let slot = u32::try_from(peers.len()).expect("more than 2^32 peers");
            peers.push(PeerState::default());
            slot
        })
    }

    /// Moves the inner protocol's sends of this callback into the per-peer
    /// outgoing queues (assigning sequence numbers in send order).
    fn collect_inner_sends(&mut self, ctx: &mut Ctx<'_, TransportMsg<P::Message>>) {
        let mut out = std::mem::take(&mut self.inner_outbox);
        for (to, channel, payload) in out.drain(..) {
            let slot = self.slot_of(to);
            let peer = &mut self.peers[slot as usize];
            if peer.dead {
                // The failure detector already wrote this peer off: the
                // payload can never be delivered, so it is abandoned at the
                // door instead of burning a fresh retransmission budget.
                self.stats.abandoned += 1;
                continue;
            }
            let seq = peer.next_seq;
            let Some(next_seq) = seq.checked_add(1) else {
                // 2^32 payloads to one peer: the sequence space is spent. A
                // wrapped number would read as a duplicate at the receiver
                // and be retransmitted to exhaustion, so the payload is
                // given up on here, visibly.
                self.stats.abandoned += 1;
                ctx.note_give_up();
                continue;
            };
            peer.next_seq = next_seq;
            peer.push_back(
                &mut self.pool,
                OutEntry {
                    seq,
                    sent_at: 0,
                    sends: 0,
                    next: NIL,
                    channel,
                    closed: false,
                    payload,
                },
            );
            if !peer.listed {
                // A stream opened this callback takes its place at once, so
                // the list stays strictly ascending.
                peer.listed = true;
                let at = self.sending.partition_point(|&(id, _)| id < to);
                self.sending.insert(at, (to, slot));
            }
        }
        self.inner_outbox = out;
    }

    /// The round's data sends: one pass over the open streams by ascending
    /// peer, one walk along each queue. Along the sent prefix, an entry whose
    /// retransmission timer expired is re-sent, or abandoned once it exhausted
    /// its budget; behind it, queued entries go out while the window has the
    /// room it had before the pass (in sequence order, so per-peer FIFO is
    /// preserved — on a clean network this is exactly the inner protocol's
    /// send order). A failure-detector verdict closes the stream after those
    /// fresh sends, and a drained queue leaves the list. Fresh sends go
    /// straight to `ctx`; retransmissions are held back until all of them are
    /// out, so the wire order is fresh data by ascending peer, then
    /// retransmissions by ascending peer.
    fn send_data(&mut self, ctx: &mut Ctx<'_, TransportMsg<P::Message>>) {
        let tick = self.tick;
        let config = self.config;
        let window = u32::try_from(config.window).expect("`assert_valid` caps the window at 64");
        let peers = &mut self.peers;
        let pool = &mut self.pool;
        let stats = &mut self.stats;
        let resends = &mut self.resends;
        self.sending.retain(|&(to, slot)| {
            let peer = &mut peers[slot as usize];
            // Read before anything closes: the floor only ever rises, so a
            // conservatively low value is always safe to advertise.
            let floor = peer.floor(pool);
            // The window's room before this pass: an entry abandoned below
            // frees its place for the next callback, not this one.
            let mut room = window.saturating_sub(peer.in_flight);
            let mut failed = false;
            let mut at = peer.head;
            while let Some(entry) = pool.step(&mut at) {
                if entry.closed {
                    continue;
                }
                if entry.sends == 0 {
                    // Past the sent prefix: fresh data while the window has room.
                    if room == 0 {
                        break;
                    }
                    room -= 1;
                    entry.sent_at = tick;
                    entry.sends = 1;
                    peer.in_flight += 1;
                    let data = TransportMsg::Data {
                        seq: entry.seq,
                        floor,
                        payload: entry.payload.clone(),
                    };
                    ctx.send(to, entry.channel, data);
                    continue;
                }
                // An open entry is re-sent or closed as soon as its age reaches
                // `retransmit_after`, so the wrapping difference is its true age.
                let age = tick.wrapping_sub(entry.sent_at) as usize;
                if failed || age < config.retransmit_after {
                    continue;
                }
                if entry.sends as usize > config.max_retransmits {
                    // The peer has ignored every attempt: presumed gone for good.
                    entry.closed = true;
                    peer.in_flight -= 1;
                    stats.abandoned += 1;
                    ctx.note_give_up();
                    // With the detector on, the verdict covers the whole
                    // stream once this peer's fresh sends are out, and this
                    // one give-up covers every payload it abandons.
                    failed = config.failure_detector;
                    continue;
                }
                entry.sent_at = tick;
                entry.sends = entry.sends.saturating_add(1);
                stats.retransmits += 1;
                ctx.note_retransmit();
                let data = TransportMsg::Data {
                    seq: entry.seq,
                    floor,
                    payload: entry.payload.clone(),
                };
                resends.push((to, entry.channel, data));
            }
            if failed {
                peer.fail(pool, stats);
            }
            peer.pop_closed(pool);
            peer.listed = peer.head != NIL;
            peer.listed
        });
        for (to, channel, data) in self.resends.drain(..) {
            ctx.send(to, channel, data);
        }
    }

    /// Sends one cumulative/selective ack to every peer that delivered data this
    /// round (fresh or duplicate: a duplicate usually means our previous ack was
    /// lost, so it must be re-sent).
    ///
    /// Acks always travel the global channel: sequence numbers are per-peer, so
    /// one ack summarizes both channels' data, and every protocol currently run
    /// behind the adapter is NCC0 (global-only). Wrapping a hybrid protocol
    /// whose traffic is mostly `Channel::Local` would charge ack volume that
    /// scales with local traffic against the scarce global cap — a known
    /// limitation; local-channel ack discipline (CONGEST-compatible
    /// piggybacking) is future work.
    fn send_acks(&mut self, ctx: &mut Ctx<'_, TransportMsg<P::Message>>) {
        self.ack_due.sort_unstable();
        for (to, slot) in self.ack_due.drain(..) {
            let peer = &mut self.peers[slot as usize];
            peer.ack_pending = false;
            self.stats.acks_sent += 1;
            ctx.note_ack();
            let (cum, sel) = peer.ack();
            ctx.send_global(to, TransportMsg::Ack { cum, sel });
        }
    }

    /// The layout's invariants, as they must hold between callbacks.
    #[cfg(debug_assertions)]
    fn check_contracts(&self) {
        assert_eq!(self.index.len(), self.peers.len());
        let mut queued = 0;
        for (&id, &slot) in &self.index {
            let peer = &self.peers[slot as usize];
            let (mut open, mut unsent, mut seq, mut at) = (0, false, 0, peer.head);
            while at != NIL {
                let entry = &self.pool.entries[at as usize];
                assert!(
                    at != peer.head || !entry.closed,
                    "the head of {id}'s queue is closed: `floor` would advertise it"
                );
                assert!(
                    seq < entry.seq && entry.seq < peer.next_seq,
                    "sequence {} after {seq} in {id}'s queue (next {})",
                    entry.seq,
                    peer.next_seq
                );
                assert!(
                    !(unsent && entry.sends > 0),
                    "sent entries of {id}'s queue do not form a prefix"
                );
                unsent |= entry.sends == 0;
                seq = entry.seq;
                open += u32::from(entry.sends > 0 && !entry.closed);
                queued += 1;
                at = entry.next;
            }
            assert_eq!(peer.in_flight, open, "window occupancy of {id}");
            assert_eq!(
                peer.listed,
                peer.head != NIL,
                "{id} is on `sending` iff it has an open stream"
            );
            assert_eq!(
                peer.listed,
                self.sending.binary_search(&(id, slot)).is_ok(),
                "`sending` and the listed flag of {id} disagree"
            );
            assert!(!peer.ack_pending, "an ack to {id} was left unsent");
        }
        let mut released = 0;
        let mut at = self.pool.free;
        while at != NIL {
            released += 1;
            at = self.pool.entries[at as usize].next;
        }
        assert_eq!(
            queued + released,
            self.pool.entries.len(),
            "every pool entry is on one queue or on the free list"
        );
        assert!(
            self.sending.windows(2).all(|w| w[0].0 < w[1].0),
            "`sending` must be strictly ascending"
        );
        assert!(self.ack_due.is_empty());
    }
}

impl<P: Protocol> Protocol for Reliable<P> {
    type Message = TransportMsg<P::Message>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Message>) {
        self.tick = 0;
        self.inner_outbox.clear();
        {
            let mut inner_ctx = ctx.derived(&mut self.inner_outbox);
            self.inner.on_start(&mut inner_ctx);
        }
        self.collect_inner_sends(ctx);
        self.send_data(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Message>, inbox: &[Envelope<Self::Message>]) {
        self.tick = self.tick.wrapping_add(1);
        // 1. Unwrap the round's arrivals: acks update the outgoing streams, fresh
        //    data is queued for the inner protocol, duplicates are suppressed.
        //    An inbox arrives grouped by sender unless envelopes were delayed,
        //    so the last sender's slot is looked up once per run of its
        //    envelopes.
        self.inner_inbox.clear();
        let mut last: Option<(NodeId, u32)> = None;
        for env in inbox {
            let slot = match last {
                Some((from, slot)) if from == env.from => slot,
                _ => {
                    let slot = self.slot_of(env.from);
                    last = Some((env.from, slot));
                    slot
                }
            };
            let peer = &mut self.peers[slot as usize];
            match &env.payload {
                TransportMsg::Data {
                    seq,
                    floor,
                    payload,
                } => {
                    if !peer.ack_pending {
                        peer.ack_pending = true;
                        self.ack_due.push((env.from, slot));
                    }
                    peer.advance_floor(*floor);
                    let horizon = peer.cum_recv;
                    if peer.receive_data(*seq) {
                        debug_assert!(*seq > horizon, "seq {seq} was already delivered");
                        self.stats.delivered_payloads += 1;
                        self.inner_inbox.push(Envelope {
                            from: env.from,
                            channel: env.channel,
                            payload: payload.clone(),
                        });
                    } else {
                        self.stats.dupes_dropped += 1;
                        ctx.note_dupe_dropped();
                    }
                }
                TransportMsg::Ack { cum, sel } => peer.handle_ack(&mut self.pool, *cum, *sel),
            }
        }

        // 2. Run the inner protocol on the deduplicated inbox; its sends are
        //    collected, sequenced and sent window-permitting (data first, then
        //    retransmissions, then acks, so the simulator's send cap sheds
        //    transport overhead before fresh payload).
        self.inner_outbox.clear();
        {
            let mut inner_ctx = ctx.derived(&mut self.inner_outbox);
            self.inner.on_round(&mut inner_ctx, &self.inner_inbox);
        }
        self.collect_inner_sends(ctx);
        self.send_data(ctx);
        self.send_acks(ctx);
        #[cfg(debug_assertions)]
        self.check_contracts();
    }

    fn is_done(&self) -> bool {
        self.inner.is_done() && !self.has_outstanding()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_netsim::{
        CapacityModel, DropCause, FaultPlan, ParallelismConfig, SimConfig, Simulator, TraceBuffer,
        TraceEvent,
    };
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Each node sends `burst` uniquely-numbered messages to each of its peers
    /// per round for `rounds` rounds and records every payload it receives, in
    /// order.
    #[derive(Clone, Debug)]
    struct Beacon {
        me: usize,
        /// The nodes this one streams to: node 0 from every other node of a
        /// `fleet`, `me + offset (mod n)` for each offset of a `mesh`.
        peers: Vec<NodeId>,
        burst: usize,
        rounds: usize,
        received: Vec<(usize, u32)>,
        done: bool,
    }

    impl Beacon {
        fn fleet(n: usize, burst: usize, rounds: usize) -> Vec<Beacon> {
            let hub = NodeId::from(0usize);
            Beacon::streams(
                n,
                burst,
                rounds,
                |me| if me == 0 { vec![] } else { vec![hub] },
            )
        }

        fn mesh(n: usize, burst: usize, rounds: usize, offsets: &[usize]) -> Vec<Beacon> {
            Beacon::streams(n, burst, rounds, |me| {
                offsets.iter().map(|o| NodeId::from((me + o) % n)).collect()
            })
        }

        fn streams(
            n: usize,
            burst: usize,
            rounds: usize,
            peers: impl Fn(usize) -> Vec<NodeId>,
        ) -> Vec<Beacon> {
            (0..n)
                .map(|me| Beacon {
                    me,
                    peers: peers(me),
                    burst,
                    rounds,
                    received: Vec::new(),
                    done: false,
                })
                .collect()
        }

        fn fire(&self, ctx: &mut Ctx<'_, u32>, round: usize) {
            for k in 0..self.burst {
                let tag = (self.me * 1_000_000 + round * 1_000 + k) as u32;
                for &peer in &self.peers {
                    ctx.send_global(peer, tag);
                }
            }
        }
    }

    impl Protocol for Beacon {
        type Message = u32;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            self.fire(ctx, 0);
        }

        fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[Envelope<u32>]) {
            for env in inbox {
                self.received.push((env.from.index(), env.payload));
            }
            if ctx.round() < self.rounds {
                self.fire(ctx, ctx.round());
            } else {
                self.done = true;
            }
        }

        fn is_done(&self) -> bool {
            self.done
        }
    }

    fn wrap(nodes: Vec<Beacon>, config: TransportConfig) -> Vec<Reliable<Beacon>> {
        nodes
            .into_iter()
            .map(|b| Reliable::new(b, config))
            .collect()
    }

    fn lossy(seed: u64, drop: f64) -> SimConfig {
        SimConfig {
            caps: CapacityModel::Unbounded,
            seed,
            local_edges: None,
            faults: FaultPlan::default().with_drop_prob(drop),
            ..SimConfig::default()
        }
    }

    /// All payloads every sender fired, as node 0 would record them.
    fn all_payloads(nodes: &[Beacon]) -> Vec<(usize, u32)> {
        let mut want = Vec::new();
        for b in nodes {
            if b.me == 0 {
                continue;
            }
            for round in 0..b.rounds {
                for k in 0..b.burst {
                    want.push((b.me, (b.me * 1_000_000 + round * 1_000 + k) as u32));
                }
            }
        }
        want.sort_unstable();
        want
    }

    #[test]
    fn clean_network_is_a_transparent_pass_through() {
        let bare = {
            let mut sim = Simulator::new(Beacon::fleet(6, 2, 3), lossy(9, 0.0));
            sim.run(20);
            sim.into_nodes()
        };
        let wrapped = {
            let mut sim = Simulator::new(
                wrap(Beacon::fleet(6, 2, 3), TransportConfig::default()),
                lossy(9, 0.0),
            );
            let outcome = sim.run(20);
            assert!(outcome.all_done);
            // Only acks ride on top; nothing is ever re-sent or duplicated.
            assert_eq!(sim.metrics().total_retransmits(), 0);
            assert_eq!(sim.metrics().total_dupes_dropped(), 0);
            assert!(sim.metrics().total_acks() > 0);
            sim.into_nodes()
        };
        for (bare, wrapped) in bare.iter().zip(&wrapped) {
            // Identical inbox contents in identical order: the adapter added
            // latency nowhere and reordered nothing.
            assert_eq!(bare.received, wrapped.inner().received);
            assert_eq!(wrapped.stats().retransmits, 0);
            assert_eq!(wrapped.stats().dupes_dropped, 0);
            assert_eq!(wrapped.stats().abandoned, 0);
        }
    }

    #[test]
    fn heavy_loss_every_payload_arrives_exactly_once() {
        let n = 8;
        let mut sim = Simulator::new(
            wrap(Beacon::fleet(n, 3, 4), TransportConfig::default()),
            lossy(3, 0.35),
        );
        let outcome = sim.run(200);
        assert!(outcome.all_done, "retransmission must finish the run");
        assert!(sim.metrics().total_retransmits() > 0);
        let hub = sim.node(NodeId::from(0usize));
        let mut got = hub.inner().received.clone();
        got.sort_unstable();
        // Exactly once: no payload missing, none delivered twice.
        assert_eq!(got, all_payloads(&Beacon::fleet(n, 3, 4)));
    }

    #[test]
    fn duplicates_from_lost_acks_are_suppressed() {
        // Drop enough that acks get lost and data is re-sent after already being
        // received: the dupes must be counted and never reach the inner protocol.
        let n = 6;
        let mut sim = Simulator::new(
            wrap(Beacon::fleet(n, 3, 4), TransportConfig::default()),
            lossy(17, 0.45),
        );
        let outcome = sim.run(300);
        assert!(outcome.all_done);
        assert!(
            sim.metrics().total_dupes_dropped() > 0,
            "45% loss re-sends already-received data"
        );
        let hub = sim.node(NodeId::from(0usize));
        let mut got = hub.inner().received.clone();
        got.sort_unstable();
        let mut deduped = got.clone();
        deduped.dedup();
        assert_eq!(
            got, deduped,
            "inner protocol must never see a payload twice"
        );
        assert_eq!(got, all_payloads(&Beacon::fleet(n, 3, 4)));
    }

    #[test]
    fn window_queues_bursts_without_losing_them() {
        // Window 2 against a 5-message burst: everything still arrives, later.
        let n = 3;
        let cfg = TransportConfig::default().with_window(2);
        let mut sim = Simulator::new(wrap(Beacon::fleet(n, 5, 2), cfg), lossy(5, 0.0));
        let outcome = sim.run(60);
        assert!(outcome.all_done);
        let hub = sim.node(NodeId::from(0usize));
        let mut got = hub.inner().received.clone();
        got.sort_unstable();
        assert_eq!(got, all_payloads(&Beacon::fleet(n, 5, 2)));
    }

    #[test]
    fn unreachable_peer_is_abandoned_after_the_budget() {
        // Total loss: no data or ack ever arrives. The sender must give up after
        // max_retransmits instead of keeping the run alive forever.
        let cfg = TransportConfig::default().with_max_retransmits(3);
        let mut sim = Simulator::new(wrap(Beacon::fleet(2, 1, 1), cfg), lossy(1, 1.0));
        let outcome = sim.run(100);
        assert!(outcome.all_done, "abandonment must unblock is_done");
        assert!(
            outcome.rounds < 100,
            "gave up after the budget, not the limit"
        );
        let sender = sim.node(NodeId::from(1usize));
        assert_eq!(sender.stats().abandoned, 1);
        assert_eq!(sender.stats().retransmits, 3);
        assert!(!sender.has_outstanding());
        // The abandonment is also visible in the simulator's round metrics.
        assert_eq!(sim.metrics().total_give_ups(), 1);
    }

    #[test]
    fn failure_detector_costs_one_give_up_per_dead_peer() {
        // Node 1 streams to node 0 through total loss. Per-message give-up
        // burns the full retransmission budget for every payload; the per-peer
        // detector pays it once, then abandons the rest of the stream (and
        // every later send) on the spot.
        let run = |detector: bool| {
            let cfg = TransportConfig::default()
                .with_max_retransmits(2)
                .with_failure_detector(detector);
            let mut sim = Simulator::new(wrap(Beacon::fleet(2, 2, 10), cfg), lossy(4, 1.0));
            let outcome = sim.run(200);
            assert!(outcome.all_done, "abandonment must unblock is_done");
            let stats = sim.node(NodeId::from(1usize)).stats();
            (
                sim.metrics().total_give_ups(),
                sim.metrics().total_retransmits(),
                stats,
            )
        };
        let (gu_off, rt_off, s_off) = run(false);
        let (gu_on, rt_on, s_on) = run(true);
        // Baseline: one give-up (and a full budget of resends) per payload.
        assert_eq!(s_off.peers_failed, 0);
        assert_eq!(gu_off, 20, "2 payloads x 10 rounds, each given up on");
        // Detector: the dead peer costs exactly one give-up.
        assert_eq!(gu_on, 1);
        assert_eq!(s_on.peers_failed, 1);
        assert_eq!(s_on.abandoned, 20, "every payload is still accounted for");
        assert!(
            rt_on < rt_off / 2,
            "shared detection must slash the dead-peer burn ({rt_on} vs {rt_off})"
        );
    }

    #[test]
    fn abandoned_gap_does_not_wedge_the_stream() {
        // Node 1 streams to node 0, but a partition swallows the first rounds:
        // with a tiny retransmission budget the early sequences are *abandoned*,
        // leaving a permanent gap in the stream. The advertised floor must let
        // the receiver's cumulative ack advance past the gap — otherwise every
        // post-heal message more than 64 sequences beyond it becomes unackable
        // and is retransmitted to exhaustion (the run would blow its budget and
        // drown in duplicates).
        let n = 2;
        let burst = 2;
        let rounds = 90; // > 64 sequences past the abandoned gap
        let cfg = TransportConfig::default().with_max_retransmits(2);
        let config = SimConfig {
            caps: CapacityModel::Unbounded,
            seed: 21,
            local_edges: None,
            faults: FaultPlan::default().with_partition(vec![NodeId::from(0usize)], 0, 12),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(wrap(Beacon::fleet(n, burst, rounds), cfg), config);
        let outcome = sim.run(rounds + 40);
        assert!(outcome.all_done, "the stream must drain past the gap");
        let sender = sim.node(NodeId::from(1usize));
        assert!(sender.stats().abandoned > 0, "the gap must actually exist");
        // Every payload fired after the heal (margin for in-flight retries)
        // arrived, exactly once.
        let hub = sim.node(NodeId::from(0usize));
        let mut got = hub.inner().received.clone();
        got.sort_unstable();
        let mut deduped = got.clone();
        deduped.dedup();
        assert_eq!(got, deduped, "no payload may be delivered twice");
        let fired = all_payloads(&Beacon::fleet(n, burst, rounds));
        let post_heal: Vec<_> = fired
            .iter()
            .filter(|&&(_, tag)| (tag / 1_000) % 1_000 >= 20)
            .copied()
            .collect();
        assert!(post_heal.iter().all(|p| got.contains(p)));
        // Bounded recovery, not a retransmit storm: nothing is re-sent more
        // than its per-message budget, so the total is a small multiple of the
        // abandoned window, never proportional to the post-gap stream.
        assert!(
            sender.stats().retransmits
                <= (cfg.max_retransmits as u64 + 1) * (sender.stats().abandoned + 64),
            "retransmits {} indicate a wedged cumulative ack",
            sender.stats().retransmits
        );
    }

    #[test]
    fn floor_advances_the_receiver_past_closed_sequences() {
        let mut p = PeerState::default();
        assert!(p.receive_data(2));
        assert!(p.receive_data(5));
        assert_eq!(p.cum_recv, 0);
        // The sender declares everything below 4 closed: 1 and 3 will never
        // arrive; 2 was already received. The horizon jumps to 3, then absorbs
        // the waiting 5? No — 4 is still open, so it stops at 3.
        p.advance_floor(4);
        assert_eq!(p.cum_recv, 3);
        assert!(p.receive_data(4), "the open seq itself still delivers");
        assert_eq!(p.cum_recv, 5, "and the buffered run is absorbed");
        assert!(!p.receive_data(2), "pre-floor repeats stay duplicates");
    }

    #[test]
    fn seeded_runs_are_byte_identical() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(
                wrap(Beacon::fleet(7, 2, 3), TransportConfig::default()),
                lossy(seed, 0.25),
            );
            sim.run(150);
            let stats: Vec<ReliableStats> = sim.nodes().iter().map(|r| r.stats()).collect();
            let received: Vec<_> = sim
                .nodes()
                .iter()
                .map(|r| r.inner().received.clone())
                .collect();
            (sim.metrics().clone(), stats, received)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    /// FNV-1a over a stream of `u64`s.
    struct Fnv(u64);

    impl Fnv {
        fn feed(&mut self, v: u64) {
            for b in v.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// Digest of everything a finished run exposes: the simulator's per-round
    /// and per-node metrics, every node's transport totals, and every payload
    /// the inner protocols saw, in order.
    fn wire_digest(sim: &Simulator<Reliable<Beacon>>) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let m = sim.metrics();
        h.feed(m.rounds as u64);
        for r in &m.per_round {
            let t = r.transport;
            for v in [
                r.max_sent as u64,
                r.max_received as u64,
                r.max_global_sent as u64,
                r.max_global_received as u64,
                r.delivered,
                r.dropped_receive,
                r.dropped_send,
                r.dropped_fault,
                r.dropped_partition,
                r.dropped_offline,
                r.delayed,
                r.crashed as u64,
                r.joined as u64,
                t.retransmits,
                t.acks,
                t.dupes_dropped,
                t.give_ups,
            ] {
                h.feed(v);
            }
        }
        for &v in m
            .total_sent_per_node
            .iter()
            .chain(&m.total_global_sent_per_node)
        {
            h.feed(v);
        }
        for node in sim.nodes() {
            let s = node.stats();
            for v in [
                s.delivered_payloads,
                s.dupes_dropped,
                s.retransmits,
                s.acks_sent,
                s.abandoned,
                s.peers_failed,
            ] {
                h.feed(v);
            }
            h.feed(node.inner().received.len() as u64);
            for &(from, tag) in &node.inner().received {
                h.feed(from as u64);
                h.feed(u64::from(tag));
            }
        }
        h.0
    }

    /// The digests below were computed on the `BTreeMap`/`BTreeSet` layout the
    /// slab replaced (commit b85b8c3), the mesh's on the sorted peer index and
    /// two send passes the hashed index and one pass replaced (commit 5a43b37),
    /// then re-pinned when receive-cap evictions became keyed per inbox (the
    /// mesh is the only case that evicts: 1 352, 1 405 and 1 509 messages).
    /// `seeded_runs_are_byte_identical` proves a run equals itself; this
    /// proves it still equals *that*: same sends in the same order, hence the
    /// same fault decisions, metrics and deliveries. The fleets stream to node 0
    /// only, so each sender has one data peer; in the mesh each has three,
    /// under loss, delays and an NCC0 cap, so the order *across* peers (all
    /// fresh data before any retransmission) shows too. Every case runs twice
    /// — as one chunk and cut into three — and the second run must reproduce
    /// the digest and the trace (`Retransmits` / `GiveUps` events in node
    /// order) of the first.
    #[test]
    fn golden_wire_digests() {
        const SEEDS: [u64; 3] = [3, 11, 21];
        const MESH: [u64; 3] = [
            0x78bd_c91a_e4d1_15de,
            0xd16a_c204_7a88_4f96,
            0x38e0_5c5f_e48b_50b6,
        ];
        let cfg = TransportConfig::default();
        type Run = (u64, Vec<TraceEvent>);
        let run = |nodes: Vec<Reliable<Beacon>>, config: SimConfig, limit: usize| -> Run {
            let mut sim = Simulator::new(nodes, config);
            let trace = TraceBuffer::shared();
            sim.set_trace_sink(trace.clone());
            assert!(sim.run(limit).all_done);
            let events = std::mem::take(&mut trace.borrow_mut().events);
            (wire_digest(&sim), events)
        };
        let lossy = |seed, loss, par| lossy(seed, loss).with_parallelism(par);
        type Case<'a> = (&'a str, &'a dyn Fn(u64, ParallelismConfig) -> Run, [u64; 3]);
        let cases: [Case<'_>; 7] = [
            (
                "loss 0",
                &|seed, par| run(wrap(Beacon::fleet(6, 2, 3), cfg), lossy(seed, 0.0, par), 20),
                [0x508c_75e4_023a_8584; 3],
            ),
            (
                "loss 0.25",
                &|seed, par| {
                    run(
                        wrap(Beacon::fleet(7, 2, 3), cfg),
                        lossy(seed, 0.25, par),
                        150,
                    )
                },
                [
                    0x25b8_5f28_3534_315c,
                    0x8a7e_4bff_5b9d_a403,
                    0xf136_f3ff_082b_a20f,
                ],
            ),
            (
                "loss 0.45",
                &|seed, par| {
                    run(
                        wrap(Beacon::fleet(6, 3, 4), cfg),
                        lossy(seed, 0.45, par),
                        300,
                    )
                },
                [
                    0x2af8_33f1_94f8_13e4,
                    0x8981_54f4_e2f9_7559,
                    0x86d6_260d_6aa8_76b9,
                ],
            ),
            (
                "window 2",
                &|seed, par| {
                    let nodes = wrap(Beacon::fleet(4, 5, 3), cfg.with_window(2));
                    run(nodes, lossy(seed, 0.15, par), 200)
                },
                [
                    0xdcea_9599_20ca_7d6f,
                    0x8277_82da_a77f_9617,
                    0x8507_47a6_3e42_c343,
                ],
            ),
            (
                "partition + max_retransmits 2",
                &|seed, par| {
                    let nodes = wrap(Beacon::fleet(3, 2, 90), cfg.with_max_retransmits(2));
                    let config = SimConfig {
                        faults: FaultPlan::default().with_drop_prob(0.05).with_partition(
                            vec![NodeId::from(0usize)],
                            0,
                            12,
                        ),
                        ..lossy(seed, 0.0, par)
                    };
                    run(nodes, config, 200)
                },
                [
                    0x3f60_7b71_fd69_1d8d,
                    0x2926_5b0b_fa2c_7bf5,
                    0xefa7_85c7_24a0_3fc1,
                ],
            ),
            (
                "failure detector + total loss",
                &|seed, par| {
                    let cfg = cfg.with_max_retransmits(2).with_failure_detector(true);
                    run(
                        wrap(Beacon::fleet(3, 2, 10), cfg),
                        lossy(seed, 1.0, par),
                        200,
                    )
                },
                [0x989b_3146_66ce_8c48; 3],
            ),
            (
                "mesh + loss + delays + NCC0 cap",
                &|seed, par| {
                    let config = SimConfig {
                        caps: CapacityModel::Ncc0 { per_round: 8 },
                        faults: FaultPlan::default().with_drop_prob(0.1).with_delays(0.2, 2),
                        ..lossy(seed, 0.0, par)
                    };
                    run(wrap(Beacon::mesh(10, 2, 6, &[1, 3, 7]), cfg), config, 300)
                },
                MESH,
            ),
        ];
        let mut seen = [false; 2];
        for (name, run, golden) in cases {
            let whole = SEEDS.map(|seed| run(seed, ParallelismConfig::serial()));
            let chunked = SEEDS.map(|seed| run(seed, ParallelismConfig::fixed(3, 0)));
            let evicts = (whole.iter().flat_map(|(_, events)| events)).any(|e| {
                matches!(
                    e,
                    TraceEvent::Drop {
                        cause: DropCause::ReceiveCap,
                        ..
                    }
                )
            });
            assert_eq!(evicts, golden == MESH, "{name}: only the mesh evicts");
            assert_eq!(
                whole.each_ref().map(|(digest, _)| *digest),
                golden,
                "{name}"
            );
            assert_eq!(whole, chunked, "{name}: three chunks");
            for event in whole.iter().flat_map(|(_, events)| events) {
                seen[0] |= matches!(event, TraceEvent::Retransmits { .. });
                seen[1] |= matches!(event, TraceEvent::GiveUps { .. });
            }
        }
        assert_eq!(seen, [true; 2], "the fleets retransmit and give up");
    }

    /// A node wrapped with `config`, which a struct literal built.
    fn wrap_one(config: TransportConfig) -> Reliable<Beacon> {
        Reliable::new(Beacon::fleet(1, 1, 1).remove(0), config)
    }

    #[test]
    #[should_panic(expected = "zero window")]
    fn new_rejects_a_zero_window() {
        wrap_one(TransportConfig {
            window: 0,
            ..TransportConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "selective-ack bitmap")]
    fn new_rejects_a_window_beyond_the_ack_bitmap() {
        wrap_one(TransportConfig {
            window: 65,
            ..TransportConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "ack round-trip")]
    fn new_rejects_a_sub_roundtrip_timeout() {
        wrap_one(TransportConfig {
            retransmit_after: 1,
            ..TransportConfig::default()
        });
    }

    #[test]
    fn hostile_floor_jumps_instead_of_walking() {
        // `floor` is decoded off the wire on the socket backends: the largest
        // value must cost what any other costs, and must not overflow.
        let mut p = PeerState::default();
        assert!(p.receive_data(7));
        assert!(p.receive_data(u32::MAX - 1));
        p.advance_floor(u32::MAX);
        assert_eq!(p.cum_recv, u32::MAX - 1);
        assert!(
            p.above().is_empty(),
            "everything buffered lay below the floor"
        );
        assert!(p.receive_data(u32::MAX), "the floor itself is still open");
        assert!(!p.receive_data(u32::MAX), "and fresh exactly once");
        assert_eq!(p.cum_recv, u32::MAX);
        assert!(!p.receive_data(7));
        p.advance_floor(u32::MAX);
        p.advance_floor(0);
        assert_eq!(p.cum_recv, u32::MAX, "the horizon never moves back");
        assert_eq!(p.ack(), (u32::MAX, 0));
    }

    #[test]
    fn exhausted_sequence_space_gives_up_instead_of_wrapping() {
        // Node 1's stream to node 0 starts three payloads short of the end of
        // the sequence space. `u32::MAX` is never assigned, so two payloads
        // fit; the other four must be given up on at the door, not wrapped
        // into numbers the receiver would read as duplicates forever.
        let hub = NodeId::from(0usize);
        let nodes: Vec<_> = wrap(Beacon::fleet(2, 2, 3), TransportConfig::default())
            .into_iter()
            .map(|node| node.with_stream_at(hub, u32::MAX - 2))
            .collect();
        let mut sim = Simulator::new(nodes, lossy(2, 0.0));
        let outcome = sim.run(40);
        assert!(
            outcome.all_done,
            "an exhausted stream must not block is_done"
        );
        assert_eq!(
            sim.node(hub).inner().received,
            vec![(1, 1_000_000), (1, 1_000_001)]
        );
        let sender = sim.node(NodeId::from(1usize));
        assert_eq!(sender.stats().abandoned, 4);
        assert_eq!(sender.stats().retransmits, 0);
        assert_eq!(sim.metrics().total_give_ups(), 4);
        assert_eq!(sim.metrics().total_dupes_dropped(), 0);
    }

    /// The receiver horizon as a set of everything delivered so far.
    #[derive(Default)]
    struct NaiveHorizon {
        cum: u32,
        seen: BTreeSet<u32>,
    }

    impl NaiveHorizon {
        fn absorb(&mut self) {
            while self.cum < u32::MAX && self.seen.contains(&(self.cum + 1)) {
                self.cum += 1;
            }
        }

        fn receive_data(&mut self, seq: u32) -> bool {
            let fresh = seq > self.cum && self.seen.insert(seq);
            self.absorb();
            fresh
        }

        fn advance_floor(&mut self, floor: u32) {
            self.cum = self.cum.max(floor.saturating_sub(1));
            self.absorb();
        }

        fn ack(&self) -> (u32, u64) {
            let sel = (0..64u32)
                .filter(|off| {
                    (self.cum.checked_add(1 + off)).is_some_and(|seq| self.seen.contains(&seq))
                })
                .fold(0u64, |sel, off| sel | 1 << off);
            (self.cum, sel)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn receiver_horizon_matches_the_naive_model(
            base in 0u32..3,
            ops in proptest::collection::vec((0u8..5, 0u32..90), 1..120),
        ) {
            // Three neighbourhoods: the start of the sequence space, the middle,
            // and the last 90 numbers before `u32::MAX`.
            let base = [0, 1 << 20, u32::MAX - 89][base as usize];
            let mut real = PeerState::default();
            let mut model = NaiveHorizon::default();
            for (kind, offset) in ops {
                let value = base + offset;
                if kind == 0 {
                    real.advance_floor(value);
                    model.advance_floor(value);
                } else {
                    prop_assert_eq!(
                        real.receive_data(value),
                        model.receive_data(value),
                        "freshness of {}", value
                    );
                }
                prop_assert_eq!(real.cum_recv, model.cum);
                prop_assert_eq!(real.ack(), model.ack());
                prop_assert!(real.above().windows(2).all(|w| w[0] < w[1]));
                prop_assert!(real.above().iter().all(|&seq| seq - real.cum_recv > 1));
            }
        }
    }

    #[test]
    fn peer_state_dedup_and_ack_bookkeeping() {
        let mut p = PeerState::default();
        assert!(p.receive_data(1));
        assert!(!p.receive_data(1), "repeat of the cum prefix is a dupe");
        assert!(p.receive_data(3), "out-of-order reception is fresh");
        assert!(!p.receive_data(3), "repeat above cum is a dupe");
        assert_eq!(p.cum_recv, 1);
        assert_eq!(p.ack(), (1, 0b10), "seq 3 is cum+2, bit 1");
        assert!(p.receive_data(2), "gap fill advances cum");
        assert_eq!(p.cum_recv, 3);
        assert!(p.above().is_empty());
        // The crate docs' memory bound: a known peer costs this, open or idle.
        assert_eq!(std::mem::size_of::<PeerState>(), 32);
    }
}
