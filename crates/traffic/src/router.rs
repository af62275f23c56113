//! The router protocol: one node per overlay member, forwarding scheduled
//! requests along precomputed next-hop tables.
//!
//! Routing is table-driven and the tables are built harness-side from the
//! *finished* overlay ([`hop_rows`]): greedy shortest-path next hops over the
//! expander edges, or the same construction over the binarized tree's edges
//! for the tree policy. Per round, a node absorbs arrivals, injects its
//! scheduled requests, ages out packets past their TTL, forwards up to its
//! per-round budget (FIFO), and sheds queue overflow — all without drawing
//! from its RNG, so the run is bitwise identical across the simulator and the
//! thread-backed runners.
//!
//! What a router holds is sized for the forward, the one hot body of a
//! traffic wave: its [`HopRow`] (its sorted neighbor list and, per
//! destination, a one-byte *position* in that list), one load counter per
//! neighbor in the same order, and a lower bound on the oldest queued
//! injection round. A forward is `k = hop[dst]; to = neighbors[k];
//! edge_load[k] += 1` — a read into a 1-byte-per-entry row, a read into a
//! list of a few dozen entries, and a counter at the same position — and the
//! TTL sweep over the queue runs only in a round in which the bound says
//! something can have expired.

use overlay_graph::{NodeId, UGraph};
use overlay_netsim::{Ctx, Envelope, Protocol};
use std::collections::VecDeque;

use crate::workload::Request;
use overlay_core::Summarize;

/// Sentinel next-hop entry: no route from this node to that destination.
pub(crate) const UNROUTABLE: NodeId = NodeId::new(u32::MAX);

/// Which edge set requests ride over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Greedy shortest-path forwarding over the expander's edges — the
    /// low-diameter, low-congestion payoff the construction promises.
    Greedy,
    /// Forwarding over the binarized tree's edges only: the fallback/compare
    /// policy (unique paths, so the root area concentrates load).
    Tree,
}

impl RoutingPolicy {
    /// Short kebab-case label, used in scenario names and report headers.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::Greedy => "greedy",
            RoutingPolicy::Tree => "tree",
        }
    }
}

/// Sentinel [`HopRow::hop`] entry: no route from this node to that
/// destination.
pub(crate) const NO_HOP: u8 = u8::MAX;

/// One node's row of the next-hop table, in the form a [`Router`] holds it.
///
/// The next hop toward `dst` is `neighbors[hop[dst]]`: one byte per
/// destination instead of four, and the position doubles as the index of the
/// per-neighbor load counter. One byte is enough for the overlays this crate
/// routes over: the paper's nodes keep at most `Δ/2 = 8⌈log₂ n⌉` edges, which
/// stays below `NO_HOP` (`u8::MAX`) for every `n ≤ 2³¹`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HopRow {
    /// The node's distinct neighbors, ascending, without itself
    /// ([`UGraph::distinct_neighbors`]). Fewer than `NO_HOP` of them.
    pub neighbors: Vec<NodeId>,
    /// Per destination, the position in `neighbors` of the neighbor to
    /// forward to; `NO_HOP` when the destination is the node itself or
    /// unreachable.
    pub hop: Vec<u8>,
}

impl HopRow {
    /// The position in `neighbors` and the node to forward to for `dst`;
    /// `None` when there is no route — [`NO_HOP`], a `dst` beyond the row, or
    /// (only in a hand-built row) a position beyond `neighbors`.
    fn route(&self, dst: NodeId) -> Option<(usize, NodeId)> {
        let k = *self.hop.get(dst.index())? as usize;
        Some((k, *self.neighbors.get(k)?))
    }

    /// The row as [`next_hops`] spells it: the neighbor itself per
    /// destination, [`UNROUTABLE`] for no route.
    fn expand(&self) -> Vec<NodeId> {
        let to = |&k: &u8| self.neighbors.get(k as usize).map_or(UNROUTABLE, |&nb| nb);
        self.hop.iter().map(to).collect()
    }
}

/// A position must fit a byte with [`NO_HOP`] to spare, or a real neighbor
/// would read as "no route". The overlay's `Δ/2 = 8⌈log₂ n⌉` bound on a
/// node's edges keeps every built graph under it for `n ≤ 2³¹`.
fn assert_positions_fit(neighbors: usize) {
    assert!(
        neighbors < NO_HOP as usize,
        "a next-hop row indexes at most {} distinct neighbors (the overlay's Δ/2 bound), not {neighbors}",
        NO_HOP - 1
    );
}

/// Builds the next-hop table of `graph`, one [`HopRow`] per node:
/// `rows[src].hop[dst]` is the position in `rows[src].neighbors` of the
/// neighbor `src` forwards to for `dst` (`NO_HOP` = `u8::MAX` when `dst` is
/// `src` itself or unreachable).
///
/// The entry is the neighbor strictly closer to the destination, ties broken
/// by smallest node id — so the table (and every path routed over it) is a
/// pure function of the graph.
///
/// # Algorithm
///
/// A bit-parallel, level-synchronous multi-source BFS (MS-BFS, Then et al.,
/// VLDB 2015) in the pull direction. The adjacency is flattened once into a
/// CSR array (per node: sorted, deduplicated, loop-free). Destinations are
/// taken 64 at a time; bit `b` of a node's word stands for destination
/// `base + b`. `frontier[v]` holds the destinations whose search reached `v`
/// in the previous level, `seen[v]` those that have reached it at all. In one
/// level every node `u` that some destination has not reached yet ORs its
/// neighbors' frontier words: the bits of that word not in `seen[u]` are the
/// destinations that reach `u` in this level (`found`), and a node with none
/// skips the level. Otherwise it scans its neighbors in ascending order: the bits
/// of `frontier[nb]` still left in `found` are the destinations `nb` is
/// exactly one hop closer to than `u`, and `k`, the scan's position at `nb`,
/// is written for them into a 65-slot row for the level, first two bits
/// without a branch. The found bits are then copied from that row into
/// `hop[u][base..]` — no distance array and no second pass over the sources.
///
/// A neighbor of `u` is never more than one hop closer than `u`, so "strictly
/// closer" *is* "reached in the previous level", and since a bit leaves the
/// set the moment it is hit, the neighbor that writes an entry is the first
/// one in ascending order that qualifies: the smallest-id tie-break.
///
/// The 64-destination blocks share nothing but the adjacency, so the table
/// is split into contiguous, 64-aligned column ranges over
/// [`overlay_netsim::worker_count`] threads, the way the simulator splits a
/// round's nodes: part 0 on the calling thread, the others on scoped threads,
/// each with its own search words and writing only its own columns of every
/// row. The calling thread allocates and frees every part's buffers (freeing
/// them on the workers read +0.2 MB of peak RSS on the benchmark's traffic
/// wave). The kernel is the same, so the rows are the same at every part
/// count. The split engages when the table has at least two blocks per
/// worker (`n ≥ 256` on two workers); below that, every committed traffic
/// cell included (`n ≤ 64`), the table is built on the calling thread, so a
/// sweep's seed threads never start threads of their own. [`overlay_netsim::ParallelismConfig::min_nodes`] does not
/// govern this split: it weighs a spawn against one round's callbacks, paid
/// every round, while the table is built once per wave and one block of an
/// `n = 1024` table is about 0.3 ms of work.
///
/// # Cost
///
/// `⌈n/64⌉ · D · (n + m)` word operations for diameter `D` and `m` distinct
/// edges, plus the `n²` entry writes, against `n · (n + m)` for one queue BFS
/// per destination. The gain is therefore `64 / D`: an order of magnitude on
/// the `O(log n)`-diameter overlays this crate routes over, and a *loss* once
/// `D` passes 64 (a 1024-node path is 2–4× slower than per-destination BFS).
/// On those overlays the entry writes are what is left: 256 destinations per
/// pass instead of 64 bought nothing (8.6–9.0 against 8.9–9.1 ms at
/// `n = 1024`). Writing each hit word's first two bits unconditionally took
/// the per-bit branch out of the middle levels, where a neighbor's hit word
/// holds zero, one or two bits at random (an `n = 1024` overlay on a 2-vCPU
/// Xeon: 13.2 → 11.9 ms, medians of 40 calls alternating with the branchy
/// kernel).
/// The OR pass in front of the scan is what keeps a long path, where almost
/// every hit word is empty, from paying for those writes: without it
/// `line(1024)` was 9–28 % slower than the branchy kernel, with it not
/// slower. The table is `n²` one-byte entries — 1 MB at `n = 1024`, half
/// the per-core L2 of that Xeon, which it shares with the ledgers, schedules
/// and arena of the wave. At two bytes per entry the table filled the L2 by
/// itself, and a forward waited on the `hop[dst]` load. The split (from two
/// blocks per worker) halves what the writes leave: the `n = 1024` overlay of
/// the benchmark's traffic wave takes 4.9 ms on one worker (as before the
/// split) and 2.9 ms on two, on that Xeon (medians of 40 calls, alternating).
///
/// # Panics
///
/// Panics if a node has `NO_HOP` (255) or more distinct neighbors.
pub fn hop_rows(graph: &UGraph) -> Vec<HopRow> {
    let blocks = graph.node_count().div_ceil(64);
    let workers = overlay_netsim::worker_count();
    hop_rows_in_parts(graph, if blocks >= 2 * workers { workers } else { 1 })
}

/// [`hop_rows`] with its destination blocks split over `parts` contiguous
/// column ranges (at most one per block), part 0 on the calling thread.
pub(crate) fn hop_rows_in_parts(graph: &UGraph, parts: usize) -> Vec<HopRow> {
    let n = graph.node_count();
    // CSR adjacency: node `u`'s neighbors are `targets[offsets[u]..offsets[u + 1]]`.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets: Vec<NodeId> = Vec::new();
    offsets.push(0);
    for v in graph.nodes() {
        let distinct = graph.distinct_neighbors(v);
        assert_positions_fit(distinct.len());
        targets.extend(distinct);
        offsets.push(targets.len());
    }

    let mut table = vec![vec![NO_HOP; n]; n];
    // Per part, made and freed on this thread, so a worker allocates nothing:
    // its first column, its slice of every row and its search words.
    let part_cols = n.div_ceil(64).div_ceil(parts.max(1)).max(1) * 64;
    let mut parts: Vec<_> = (0..n)
        .step_by(part_cols)
        .map(|first| (first, Vec::with_capacity(n), vec![0; 3 * n]))
        .collect();
    for row in &mut table {
        let mut rest = row.as_mut_slice();
        for (_, slices, _) in &mut parts {
            let (part, tail) = rest.split_at_mut(rest.len().min(part_cols));
            slices.push(part);
            rest = tail;
        }
    }
    let (offsets, targets) = (&offsets[..], &targets[..]);
    let fill = |(first, rows, words): &mut (usize, Vec<_>, Vec<_>)| {
        fill_columns(offsets, targets, *first, rows, words)
    };
    if let Some((part, others)) = parts.split_first_mut() {
        std::thread::scope(|s| {
            for other in others {
                s.spawn(move || fill(other));
            }
            fill(part);
        });
    }
    table
        .into_iter()
        .zip(offsets.windows(2))
        .map(|(hop, span)| HopRow {
            neighbors: targets[span[0]..span[1]].to_vec(),
            hop,
        })
        .collect()
}

/// Fills the destination columns `first..first + rows[u].len()` (`first` a
/// multiple of 64) of every row `u` of [`hop_rows`]' table over the CSR
/// adjacency `offsets`/`targets`, one 64-destination block at a time. `words`
/// holds the search's three words per node.
fn fill_columns(
    offsets: &[usize],
    targets: &[NodeId],
    first: usize,
    rows: &mut [&mut [u8]],
    words: &mut [u64],
) {
    let n = rows.len();
    let Some(cols) = rows.first().map(|row| row.len()) else {
        return;
    };
    let (seen, rest) = words.split_at_mut(n);
    let (mut frontier, mut next) = rest.split_at_mut(n);
    // One node's positions found in one level, by destination bit; slot 64
    // takes the writes for the bits an empty word does not have. Only the
    // bits the level found are read back, so stale slots are never seen.
    let mut level_hops = [NO_HOP; 65];
    for col in (0..cols).step_by(64) {
        let base = first + col;
        let width = (cols - col).min(64);
        let all = u64::MAX >> (64 - width);
        seen.fill(0);
        frontier.fill(0);
        for bit in 0..width {
            seen[base + bit] = 1 << bit;
            frontier[base + bit] = 1 << bit;
        }
        loop {
            let mut advanced = false;
            for u in 0..n {
                let wanted = all & !seen[u];
                let neighbors = || &targets[offsets[u]..offsets[u + 1]];
                // What `u` reaches this level, from one OR over its
                // neighbors' frontier words: a node that reaches nothing (on a
                // long path, nearly every node at nearly every level) skips
                // the scan on one predictable branch.
                let mut found = 0;
                if wanted != 0 {
                    let reached = neighbors()
                        .iter()
                        .fold(0, |acc, nb| acc | frontier[nb.index()]);
                    found = wanted & reached;
                }
                if found != 0 {
                    let mut left = found;
                    for (k, &nb) in neighbors().iter().enumerate() {
                        let hit = frontier[nb.index()] & left;
                        left &= !hit;
                        // The hit word's first two bits are written whether or
                        // not they exist (an absent one lands in slot 64); only
                        // a third bit takes the loop.
                        let k = k as u8;
                        level_hops[hit.trailing_zeros() as usize] = k;
                        let rest = hit & hit.wrapping_sub(1);
                        level_hops[rest.trailing_zeros() as usize] = k;
                        let mut rest = rest & rest.wrapping_sub(1);
                        while rest != 0 {
                            level_hops[rest.trailing_zeros() as usize] = k;
                            rest &= rest - 1;
                        }
                        if left == 0 {
                            break;
                        }
                    }
                    let hops = &mut rows[u][col..col + width];
                    let mut bits = found;
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        hops[b] = level_hops[b];
                        bits &= bits - 1;
                    }
                }
                // `seen[u]` is only ever read for `u` itself, so it can move
                // mid-level; `frontier` is read across nodes and cannot.
                seen[u] |= found;
                next[u] = found;
                advanced |= found != 0;
            }
            if !advanced {
                break;
            }
            std::mem::swap(&mut frontier, &mut next);
        }
    }
}

/// The full next-hop table of `graph` with the neighbor spelled out:
/// `table[src][dst]` is the node `src` forwards to for `dst` (`UNROUTABLE`,
/// id `u32::MAX`, when `dst` is `src` itself or unreachable) — [`hop_rows`]
/// expanded, four bytes per entry. Routers hold the compact rows; this is the
/// form to read or compare a table in.
pub fn next_hops(graph: &UGraph) -> Vec<Vec<NodeId>> {
    hop_rows(graph).iter().map(HopRow::expand).collect()
}

/// One routed message: the request id, where it is going, when it was
/// injected, and how many edges it has crossed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouterMsg {
    /// Globally unique request id: `(source << 32) | per-source sequence`.
    pub id: u64,
    /// Destination node.
    pub dst: NodeId,
    /// Round the source injected the request in.
    pub injected: u32,
    /// Edges crossed so far (1 on first arrival at a neighbor).
    pub hops: u32,
}

overlay_netsim::wire! { RouterMsg { id, dst, injected, hops } }

/// One completed delivery, recorded by the destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// The request id.
    pub id: u64,
    /// Edges the request crossed.
    pub hops: u32,
    /// Round the source injected it in.
    pub injected: u32,
    /// Round it reached the destination in.
    pub delivered: u32,
}

overlay_netsim::wire! { Delivery { id, hops, injected, delivered } }

/// The router's tunables. All limits are per node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouterConfig {
    /// Rounds a packet may age (round − injection round) before the holding
    /// node expires it.
    pub ttl: u32,
    /// Queue slots; packets shed from the back beyond this count as dropped.
    pub queue_cap: u32,
    /// Forwards per round — the router's own NCC0-style send discipline
    /// (keep it at or below the phase's capacity cap so the medium never
    /// truncates sends behind the router's back).
    pub per_round_budget: u32,
}

/// Per-node router state: next-hop row, injection schedule, FIFO queue, and
/// the delivery/drop ledgers the [`RouterSummary`] digests.
#[derive(Debug)]
pub struct Router {
    me: NodeId,
    row: HopRow,
    schedule: Vec<Request>,
    next_inject: usize,
    config: RouterConfig,
    queue: VecDeque<RouterMsg>,
    seq: u32,
    injected: u32,
    deliveries: Vec<Delivery>,
    dropped: Vec<u64>,
    expired: Vec<u64>,
    forwards: u64,
    /// Messages sent to `row.neighbors[k]`, per `k`.
    edge_load: Vec<u32>,
    /// A lower bound on `injected` over the queue (`u32::MAX` when nothing
    /// was queued since the last sweep): every push lowers it, pops leave it
    /// stale-low, the sweep makes it exact.
    oldest: u32,
    quiet: bool,
}

impl Router {
    /// A router for node `me` with its next-hop row (as [`hop_rows`] builds
    /// it) and its injection schedule (round-sorted, as
    /// [`crate::Workload::schedule`] produces).
    ///
    /// # Panics
    ///
    /// Panics if the row lists `NO_HOP` (255) or more neighbors.
    pub fn new(me: NodeId, row: HopRow, schedule: Vec<Request>, config: RouterConfig) -> Self {
        assert_positions_fit(row.neighbors.len());
        Router {
            me,
            edge_load: vec![0; row.neighbors.len()],
            row,
            schedule,
            next_inject: 0,
            config,
            queue: VecDeque::new(),
            seq: 0,
            injected: 0,
            deliveries: Vec::new(),
            dropped: Vec::new(),
            expired: Vec::new(),
            forwards: 0,
            oldest: u32::MAX,
            quiet: false,
        }
    }

    /// Sizes the delivery ledger for `count` arrivals up front: the requests
    /// addressed to this node, which the harness knows from the schedules
    /// before the run. A ledger grown one push at a time reallocates and
    /// copies itself about `log₂ count` times, which costs a wave more than
    /// handing the ledger over saves. Only the capacity changes.
    pub fn with_expected_deliveries(mut self, count: usize) -> Self {
        self.deliveries.reserve_exact(count);
        self
    }

    fn enqueue_or_shed(&mut self, msg: RouterMsg) {
        if (self.queue.len() as u32) < self.config.queue_cap {
            self.oldest = self.oldest.min(msg.injected);
            self.queue.push_back(msg);
        } else {
            self.dropped.push(msg.id);
        }
    }

    /// What the flat counters, the queue cap and the skipped sweep rest on,
    /// checked at the end of every round in the debug profile: every forward
    /// is counted on exactly one edge; the queue is within its cap; nothing
    /// queued is at or past its TTL (the sweep was not skipped in a round it
    /// had work in); `oldest` is a lower bound on every queued `injected`.
    #[cfg(debug_assertions)]
    fn check_contracts(&self, round: u32) {
        let counted: u64 = self.edge_load.iter().map(|&c| u64::from(c)).sum();
        assert_eq!(counted, self.forwards, "a forward not on any edge's books");
        assert!(
            self.queue.len() <= self.config.queue_cap as usize,
            "{} queued over a cap of {}",
            self.queue.len(),
            self.config.queue_cap
        );
        for m in &self.queue {
            assert!(
                round.saturating_sub(m.injected) < self.config.ttl,
                "request {} outlived its TTL in round {round}",
                m.id
            );
            assert!(
                self.oldest <= m.injected,
                "`oldest` {} is above a queued injection round {}",
                self.oldest,
                m.injected
            );
        }
    }
}

impl Protocol for Router {
    type Message = RouterMsg;

    fn on_start(&mut self, _ctx: &mut Ctx<'_, RouterMsg>) {
        // Injections start at round 1; the start round only exists so the
        // executors' round-0 convention lines up with the other phases.
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, RouterMsg>, inbox: &[Envelope<RouterMsg>]) {
        let round = ctx.round() as u32;
        let mut active = !inbox.is_empty();
        // Absorb arrivals (inbox order is the deterministic per-backend
        // delivery order: sender id, then send order).
        for env in inbox {
            let msg = env.payload;
            if msg.dst == self.me {
                self.deliveries.push(Delivery {
                    id: msg.id,
                    hops: msg.hops,
                    injected: msg.injected,
                    delivered: round,
                });
            } else {
                self.enqueue_or_shed(msg);
            }
        }
        // Inject this round's scheduled requests.
        while self
            .schedule
            .get(self.next_inject)
            .is_some_and(|r| r.round <= round)
        {
            let req = self.schedule[self.next_inject];
            self.next_inject += 1;
            let id = (u64::from(self.me.raw()) << 32) | u64::from(self.seq);
            self.seq += 1;
            self.injected += 1;
            active = true;
            self.enqueue_or_shed(RouterMsg {
                id,
                dst: req.dst,
                injected: round,
                hops: 0,
            });
        }
        // Age out packets past their TTL. If any queued packet is, so is the
        // bound, so the walk is skipped only in rounds it would remove
        // nothing in. Saturating: an `injected` from the future (only a
        // hostile peer sends one) ages from zero instead of underflowing.
        let ttl = self.config.ttl;
        if round.saturating_sub(self.oldest) >= ttl {
            let expired = &mut self.expired;
            let mut oldest = u32::MAX;
            self.queue.retain(|m| {
                if round.saturating_sub(m.injected) >= ttl {
                    expired.push(m.id);
                    false
                } else {
                    oldest = oldest.min(m.injected);
                    true
                }
            });
            self.oldest = oldest;
        }
        // Forward FIFO up to the per-round budget.
        let mut sent = 0;
        while sent < self.config.per_round_budget {
            let Some(msg) = self.queue.pop_front() else {
                break;
            };
            // A `dst` beyond the table came off a socket, not out of a
            // schedule; it has no route like any other unroutable packet.
            let Some((k, to)) = self.row.route(msg.dst) else {
                self.dropped.push(msg.id);
                continue;
            };
            ctx.send_global(
                to,
                RouterMsg {
                    hops: msg.hops.saturating_add(1),
                    ..msg
                },
            );
            self.edge_load[k] += 1;
            self.forwards += 1;
            sent += 1;
        }
        active |= sent > 0;
        self.quiet = !active;
        #[cfg(debug_assertions)]
        self.check_contracts(round);
    }

    fn is_done(&self) -> bool {
        // Done only after a fully quiet round: schedule drained, queue empty,
        // nothing received and nothing sent. If *every* node is in this state
        // simultaneously, no message is in flight anywhere, so stopping the
        // run discards nothing.
        self.next_inject == self.schedule.len() && self.queue.is_empty() && self.quiet
    }
}

/// What the traffic phase hand-off gathers from each node: its delivery and
/// drop ledgers plus its load counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouterSummary {
    /// Requests this node injected.
    pub injected: u32,
    /// Requests delivered *to* this node, in arrival order.
    pub deliveries: Vec<Delivery>,
    /// Request ids this node shed (queue overflow or no route).
    pub dropped: Vec<u64>,
    /// Request ids this node aged out past their TTL.
    pub expired: Vec<u64>,
    /// Messages this node forwarded in total (its per-node load).
    pub forwards: u64,
    /// The most-loaded incident out-edge's message count.
    pub max_edge_load: u32,
}

overlay_netsim::wire! {
    RouterSummary { injected, deliveries, dropped, expired, forwards, max_edge_load }
}

impl Summarize for Router {
    type Summary = RouterSummary;

    fn summarize(&self) -> RouterSummary {
        RouterSummary {
            injected: self.injected,
            deliveries: self.deliveries.clone(),
            dropped: self.dropped.clone(),
            expired: self.expired.clone(),
            forwards: self.forwards,
            max_edge_load: self.edge_load.iter().copied().max().unwrap_or(0),
        }
    }

    fn into_summary(self) -> RouterSummary {
        RouterSummary {
            injected: self.injected,
            deliveries: self.deliveries,
            dropped: self.dropped,
            expired: self.expired,
            forwards: self.forwards,
            max_edge_load: self.edge_load.iter().copied().max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_core::{ExpanderParams, MaintenanceConfig, MaintenanceRunner, OverlayBuilder};
    use overlay_graph::{analysis, generators};
    use overlay_netsim::{ChurnSchedule, CrashBurst, Wire};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn line_graph(n: usize) -> UGraph {
        let mut g = UGraph::new(n);
        for v in 0..n - 1 {
            g.add_edge(NodeId::from(v), NodeId::from(v + 1));
        }
        g
    }

    /// The executable specification [`next_hops`] is checked against: one
    /// queue BFS per destination, then every source takes its first
    /// (smallest-id) strictly closer neighbor.
    fn reference_next_hops(graph: &UGraph) -> Vec<Vec<NodeId>> {
        let n = graph.node_count();
        let adj: Vec<Vec<NodeId>> = graph.nodes().map(|v| graph.distinct_neighbors(v)).collect();
        let mut table = vec![vec![UNROUTABLE; n]; n];
        let mut dist = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        for dst in 0..n {
            dist.fill(u32::MAX);
            dist[dst] = 0;
            queue.push_back(NodeId::from(dst));
            while let Some(v) = queue.pop_front() {
                for &u in &adj[v.index()] {
                    if dist[u.index()] == u32::MAX {
                        dist[u.index()] = dist[v.index()] + 1;
                        queue.push_back(u);
                    }
                }
            }
            for src in 0..n {
                if src == dst || dist[src] == u32::MAX {
                    continue;
                }
                if let Some(&nb) = adj[src].iter().find(|nb| dist[nb.index()] < dist[src]) {
                    table[src][dst] = nb;
                }
            }
        }
        table
    }

    /// Checks `table` against the definition alone, with distances from
    /// `overlay_graph::analysis` rather than from either implementation:
    /// every routable entry is a neighbor exactly one hop closer, no
    /// smaller-id neighbor is closer too, and exactly the pairs with no path
    /// (or `src == dst`) are unroutable.
    fn assert_greedy_smallest_id(graph: &UGraph, table: &[Vec<NodeId>]) {
        let n = graph.node_count();
        assert_eq!(table.len(), n);
        let neighbors: Vec<Vec<usize>> = graph
            .nodes()
            .map(|v| {
                let distinct = graph.distinct_neighbors(v);
                distinct.into_iter().map(NodeId::index).collect()
            })
            .collect();
        for dst in 0..n {
            let dist = analysis::bfs_distances(graph, NodeId::from(dst));
            for (src, (row, near)) in table.iter().zip(&neighbors).enumerate() {
                let Some(d) = dist[src].filter(|&d| d > 0) else {
                    assert_eq!(row[dst], UNROUTABLE, "{src} -> {dst} has no route");
                    continue;
                };
                let hop = row[dst].index();
                assert!(
                    near.contains(&hop),
                    "{src} -> {dst}: {hop} is not a neighbor"
                );
                assert_eq!(dist[hop], Some(d - 1), "{src} -> {dst} via {hop}");
                for &w in near {
                    assert!(
                        w >= hop || dist[w] >= Some(d),
                        "{src} -> {dst}: {w} is as close as {hop} and smaller"
                    );
                }
            }
        }
    }

    /// The part counts every table test builds its graph's table at: one,
    /// two, three, and one more than the graph has 64-destination blocks.
    fn part_counts(graph: &UGraph) -> [usize; 4] {
        [1, 2, 3, graph.node_count().div_ceil(64) + 1]
    }

    /// The table of `graph` at every count of [`part_counts`]: each equal to
    /// the one-part table and to what [`hop_rows`] returns.
    fn assert_every_split_builds_one_table(graph: &UGraph) -> Vec<HopRow> {
        let rows = hop_rows_in_parts(graph, 1);
        for parts in part_counts(graph) {
            assert!(
                hop_rows_in_parts(graph, parts) == rows,
                "{parts} parts build another table"
            );
        }
        assert!(hop_rows(graph) == rows, "hop_rows builds another table");
        rows
    }

    /// The compact rows against the specification: expanded they are
    /// [`reference_next_hops`] (and what [`next_hops`] returns), `neighbors`
    /// is the node's `distinct_neighbors`, and exactly the self and
    /// unreachable entries are [`NO_HOP`] — at every part count of the
    /// split. Returns the expanded table.
    fn assert_rows_expand_to_the_reference(graph: &UGraph) -> Vec<Vec<NodeId>> {
        let rows = assert_every_split_builds_one_table(graph);
        let reference = reference_next_hops(graph);
        assert_eq!(rows.len(), reference.len());
        for ((v, row), want) in graph.nodes().zip(&rows).zip(&reference) {
            let distinct = graph.distinct_neighbors(v);
            assert_eq!(row.neighbors, distinct, "{v:?}'s neighbor list");
            assert_eq!(&row.expand(), want, "{v:?}'s row");
            for (&k, &to) in row.hop.iter().zip(want) {
                assert_eq!(
                    k == NO_HOP,
                    to == UNROUTABLE,
                    "{v:?}: position {k}, hop {to}"
                );
            }
        }
        assert_eq!(next_hops(graph), reference);
        reference
    }

    #[test]
    fn next_hops_route_along_shortest_paths() {
        let table = next_hops(&line_graph(5));
        // From 0 toward 4, every hop steps right.
        assert_eq!(table[0][4], NodeId::new(1));
        assert_eq!(table[1][4], NodeId::new(2));
        assert_eq!(table[3][4], NodeId::new(4));
        // Self-routes are unroutable by construction.
        assert_eq!(table[2][2], UNROUTABLE);
    }

    #[test]
    fn next_hops_mark_disconnected_pairs() {
        let mut g = UGraph::new(4);
        g.add_edge(NodeId::from(0usize), NodeId::from(1usize));
        g.add_edge(NodeId::from(2usize), NodeId::from(3usize));
        let table = next_hops(&g);
        assert_eq!(table[0][1], NodeId::new(1));
        assert_eq!(table[0][2], UNROUTABLE);
        assert_eq!(table[3][1], UNROUTABLE);
    }

    /// A multigraph on `n` nodes from raw endpoint draws: self-loops and
    /// parallel edges as they fall, and at most 320 edges, so the larger
    /// sizes are usually in several components.
    fn multigraph(n: usize, draws: &[(usize, usize)]) -> UGraph {
        let mut g = UGraph::new(n);
        if n > 0 {
            for &(a, b) in draws {
                g.add_edge(NodeId::from(a % n), NodeId::from(b % n));
            }
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 96,
            .. ProptestConfig::default()
        })]

        #[test]
        fn next_hops_equal_the_per_destination_bfs_on_random_multigraphs(
            size in 0usize..8,
            draws in proptest::collection::vec((0usize..1000, 0usize..1000), 0..320),
        ) {
            // Around the 64-destination word boundary and past two words.
            let n = [0, 1, 2, 63, 64, 65, 129, 200][size];
            assert_rows_expand_to_the_reference(&multigraph(n, &draws));
        }
    }

    #[test]
    fn next_hops_on_a_path_with_more_levels_than_bits() {
        let table = assert_rows_expand_to_the_reference(&line_graph(300));
        assert_eq!(table[0][299], NodeId::new(1));
        assert_eq!(table[299][0], NodeId::new(298));
    }

    /// The level row at its edges, against the per-destination BFS and the
    /// definition: a 200-node path (more levels than bits, and a last batch
    /// 8 wide); K₇₀ (every destination found in the first level, one bit per
    /// neighbor); and a hub joined to nodes 0–63 whose frontier word in the
    /// second level holds all 64 destinations of the first batch, read by
    /// nodes 65–69 at position 1 behind a neighbor that hit bit 0 (so the
    /// first two written bits and bit 63 come from one word), beside a
    /// 10-node path the hub's side cannot reach.
    #[test]
    fn hop_rows_match_the_reference_at_the_level_rows_edges() {
        let mut complete = UGraph::new(70);
        for a in 0..70usize {
            for b in a + 1..70 {
                complete.add_edge(NodeId::from(a), NodeId::from(b));
            }
        }
        let mut hub = UGraph::new(80);
        for v in 0..64usize {
            hub.add_edge(NodeId::from(v), NodeId::new(64));
        }
        for v in 65..70usize {
            hub.add_edge(NodeId::from(v), NodeId::new(64));
            hub.add_edge(NodeId::from(v), NodeId::from(v - 65));
        }
        for v in 70..79usize {
            hub.add_edge(NodeId::from(v), NodeId::from(v + 1));
        }
        for graph in [line_graph(200), complete, hub] {
            let table = assert_rows_expand_to_the_reference(&graph);
            assert_greedy_smallest_id(&graph, &table);
        }
    }

    #[test]
    fn next_hops_on_a_built_overlay_match_the_reference_and_the_definition() {
        let n = 256;
        let overlay = OverlayBuilder::new(ExpanderParams::for_n(n).with_seed(7))
            .build(&generators::line(n))
            .expect("clean build");
        for graph in [overlay.expander, overlay.tree.to_ugraph()] {
            let table = assert_rows_expand_to_the_reference(&graph);
            assert_greedy_smallest_id(&graph, &table);
        }
    }

    #[test]
    fn next_hops_satisfy_the_definition_on_a_disconnected_multigraph() {
        // Two components (a 70-cycle with chords and a loop at every node, a
        // 30-path of doubled edges), 100 nodes: two destination words, the
        // second partial.
        let mut g = UGraph::new(100);
        for v in 0..70usize {
            g.add_edge(NodeId::from(v), NodeId::from((v + 1) % 70));
            g.add_edge(NodeId::from(v), NodeId::from((v * 7 + 3) % 70));
            g.add_self_loop(NodeId::from(v));
        }
        for v in 70..99usize {
            g.add_edge(NodeId::from(v), NodeId::from(v + 1));
            g.add_edge(NodeId::from(v), NodeId::from(v + 1));
        }
        let rows = assert_every_split_builds_one_table(&g);
        assert_greedy_smallest_id(&g, &rows.iter().map(HopRow::expand).collect::<Vec<_>>());
    }

    /// A table whose last block is partial (333 nodes: five full blocks and
    /// 13 columns), split into one to seven parts, so parts end inside and at
    /// the partial block and the last ones get no block at all.
    #[test]
    fn every_split_of_a_table_with_a_partial_block_builds_one_table() {
        let graph = generators::random_regular(333, 4, 5).to_undirected();
        let rows = assert_every_split_builds_one_table(&graph);
        for parts in 4..=7 {
            assert!(hop_rows_in_parts(&graph, parts) == rows, "{parts} parts");
        }
        assert_greedy_smallest_id(&graph, &rows.iter().map(HopRow::expand).collect::<Vec<_>>());
    }

    /// A star: node 0 joined to nodes `1..=leaves`.
    fn star_graph(leaves: usize) -> UGraph {
        let mut g = UGraph::new(leaves + 1);
        for v in 1..=leaves {
            g.add_edge(NodeId::new(0), NodeId::from(v));
        }
        g
    }

    /// The most distinct neighbors any node of `graph` has: what a one-byte
    /// position must index.
    fn max_distinct_neighbors(graph: &UGraph) -> usize {
        let distinct = graph.nodes().map(|v| graph.distinct_neighbors(v).len());
        distinct.max().unwrap_or(0)
    }

    #[test]
    fn a_hub_with_254_distinct_neighbors_fits_its_byte() {
        let rows = hop_rows(&star_graph(254));
        assert_eq!(rows[0].neighbors.len(), 254);
        assert_eq!(rows[0].hop[254], 253);
        assert_eq!(rows[254].hop[1], 0);
    }

    #[test]
    #[should_panic(expected = "at most 254 distinct neighbors (the overlay's Δ/2 bound), not 255")]
    fn a_hub_with_255_distinct_neighbors_is_refused() {
        let _ = hop_rows(&star_graph(255));
    }

    /// The overlay keeps at most `Δ/2 = 8⌈log₂ n⌉` edges a node (3Δ/8
    /// accepted tokens and Δ/8 of its own), so its positions fit a byte.
    #[test]
    fn built_overlays_keep_at_most_half_delta_distinct_neighbors() {
        for n in [64, 256, 1024] {
            let params = ExpanderParams::for_n(n).with_seed(n as u64);
            for (family, input) in [
                ("line", generators::line(n)),
                ("cycle", generators::cycle(n)),
                ("random_regular", generators::random_regular(n, 4, 3)),
            ] {
                let overlay = OverlayBuilder::new(params)
                    .build(&input)
                    .expect("clean build");
                let most = max_distinct_neighbors(&overlay.expander);
                assert!(
                    most <= params.delta / 2,
                    "{family}({n}): {most} distinct neighbors against Δ/2 = {}",
                    params.delta / 2
                );
            }
        }
    }

    /// The graph a serving overlay's traffic routes over, after churn and
    /// repair: joins, leaves, crashes and a crash burst for 8 epochs, with
    /// re-invitation on and lossy invitations.
    #[test]
    fn a_churned_core_graph_keeps_at_most_half_delta_distinct_neighbors() {
        let n = 128;
        let params = ExpanderParams::for_n(n).with_seed(5);
        let overlay = OverlayBuilder::new(params)
            .build(&generators::cycle(n))
            .expect("clean build");
        let config = MaintenanceConfig {
            invite_loss: 0.2,
            invite_retries: 1,
            seed: 11,
            ..MaintenanceConfig::new(8)
        };
        let churn = ChurnSchedule {
            seed: 13,
            join_rate: 0.4,
            leave_rate: 0.05,
            crash_rate: 0.05,
            burst: Some(CrashBurst {
                every_rounds: 75,
                fraction: 0.2,
            }),
        };
        let mut runner = MaintenanceRunner::new(overlay.expander, params, config, churn);
        for epoch in 1..=8 {
            runner.step_epoch();
            let most = max_distinct_neighbors(runner.core_graph());
            assert!(
                most <= params.delta / 2,
                "epoch {epoch}: {most} distinct neighbors against Δ/2 = {}",
                params.delta / 2
            );
        }
    }

    fn envelope(payload: RouterMsg) -> Envelope<RouterMsg> {
        Envelope {
            from: NodeId::from(0usize),
            channel: overlay_netsim::Channel::Global,
            payload,
        }
    }

    #[test]
    fn hostile_envelopes_are_dropped_not_panicked_on() {
        let config = RouterConfig {
            ttl: 4,
            queue_cap: 8,
            per_round_budget: 8,
        };
        let row = hop_rows(&line_graph(3)).swap_remove(1);
        let mut router = Router::new(NodeId::new(1), row, Vec::new(), config);
        let mut outbox = Vec::new();
        let mut rng = overlay_netsim::node_rng(0, 1);
        let inbox = [
            // A destination no table row has.
            envelope(RouterMsg {
                id: 1,
                dst: NodeId::new(3),
                injected: 1,
                hops: 1,
            }),
            envelope(RouterMsg {
                id: 2,
                dst: NodeId::new(u32::MAX - 1),
                injected: 1,
                hops: 1,
            }),
            // Injected in the future, hop counter at its ceiling, real route.
            envelope(RouterMsg {
                id: 3,
                dst: NodeId::new(2),
                injected: u32::MAX,
                hops: u32::MAX,
            }),
        ];
        let mut ctx = Ctx::external(NodeId::from(1usize), 2, 3, &mut rng, &mut outbox);
        router.on_round(&mut ctx, &inbox);
        let summary = router.summarize();
        assert_eq!(summary.dropped, vec![1, 2]);
        assert!(summary.expired.is_empty());
        assert_eq!(summary.forwards, 1);
        assert_eq!(outbox.len(), 1);
    }

    /// The router as it stood before the compact row: a four-byte next-hop
    /// row, an ordered map of edge loads, and a TTL walk over the whole queue
    /// every round. The executable specification [`Router`] is checked
    /// against.
    struct ReferenceRouter {
        me: NodeId,
        next_hop: Vec<NodeId>,
        schedule: Vec<Request>,
        next_inject: usize,
        config: RouterConfig,
        queue: VecDeque<RouterMsg>,
        seq: u32,
        injected: u32,
        deliveries: Vec<Delivery>,
        dropped: Vec<u64>,
        expired: Vec<u64>,
        forwards: u64,
        edge_load: BTreeMap<NodeId, u32>,
        quiet: bool,
    }

    impl ReferenceRouter {
        fn new(
            me: NodeId,
            next_hop: Vec<NodeId>,
            schedule: Vec<Request>,
            config: RouterConfig,
        ) -> Self {
            ReferenceRouter {
                me,
                next_hop,
                schedule,
                next_inject: 0,
                config,
                queue: VecDeque::new(),
                seq: 0,
                injected: 0,
                deliveries: Vec::new(),
                dropped: Vec::new(),
                expired: Vec::new(),
                forwards: 0,
                edge_load: BTreeMap::new(),
                quiet: false,
            }
        }

        fn enqueue_or_shed(&mut self, msg: RouterMsg) {
            if (self.queue.len() as u32) < self.config.queue_cap {
                self.queue.push_back(msg);
            } else {
                self.dropped.push(msg.id);
            }
        }

        fn on_round(&mut self, ctx: &mut Ctx<'_, RouterMsg>, inbox: &[Envelope<RouterMsg>]) {
            let round = ctx.round() as u32;
            let mut active = !inbox.is_empty();
            for env in inbox {
                let msg = env.payload;
                if msg.dst == self.me {
                    self.deliveries.push(Delivery {
                        id: msg.id,
                        hops: msg.hops,
                        injected: msg.injected,
                        delivered: round,
                    });
                } else {
                    self.enqueue_or_shed(msg);
                }
            }
            while self
                .schedule
                .get(self.next_inject)
                .is_some_and(|r| r.round <= round)
            {
                let req = self.schedule[self.next_inject];
                self.next_inject += 1;
                let id = (u64::from(self.me.raw()) << 32) | u64::from(self.seq);
                self.seq += 1;
                self.injected += 1;
                active = true;
                self.enqueue_or_shed(RouterMsg {
                    id,
                    dst: req.dst,
                    injected: round,
                    hops: 0,
                });
            }
            let ttl = self.config.ttl;
            let expired = &mut self.expired;
            self.queue.retain(|m| {
                if round.saturating_sub(m.injected) >= ttl {
                    expired.push(m.id);
                    false
                } else {
                    true
                }
            });
            let mut sent = 0;
            while sent < self.config.per_round_budget {
                let Some(msg) = self.queue.pop_front() else {
                    break;
                };
                let hop = self
                    .next_hop
                    .get(msg.dst.index())
                    .copied()
                    .unwrap_or(UNROUTABLE);
                if hop == UNROUTABLE {
                    self.dropped.push(msg.id);
                    continue;
                }
                ctx.send_global(
                    hop,
                    RouterMsg {
                        hops: msg.hops.saturating_add(1),
                        ..msg
                    },
                );
                *self.edge_load.entry(hop).or_insert(0) += 1;
                self.forwards += 1;
                sent += 1;
            }
            active |= sent > 0;
            self.quiet = !active;
        }

        fn is_done(&self) -> bool {
            self.next_inject == self.schedule.len() && self.queue.is_empty() && self.quiet
        }

        fn summarize(&self) -> RouterSummary {
            RouterSummary {
                injected: self.injected,
                deliveries: self.deliveries.clone(),
                dropped: self.dropped.clone(),
                expired: self.expired.clone(),
                forwards: self.forwards,
                max_edge_load: self.edge_load.values().copied().max().unwrap_or(0),
            }
        }
    }

    /// Both routers through the same scripted rounds, for every combination
    /// of a TTL, a queue cap and a forward budget that reaches each branch
    /// (sweep every round / most rounds / rarely; always shedding / never;
    /// no forwards / backlog / drained): equal sends, ledgers and doneness
    /// after every round.
    #[test]
    fn the_router_matches_the_four_byte_row_ordered_map_router_round_by_round() {
        let mut script = StdRng::seed_from_u64(0x23);
        let mut case = 0u64;
        for ttl in [0, 1, 2, 5] {
            for queue_cap in [1, 3, 64] {
                for per_round_budget in [0, 1, 4] {
                    let config = RouterConfig {
                        ttl,
                        queue_cap,
                        per_round_budget,
                    };
                    for _ in 0..3 {
                        case += 1;
                        assert_same_trajectory(config, &mut script, case);
                    }
                }
            }
        }
    }

    fn assert_same_trajectory(config: RouterConfig, script: &mut StdRng, case: u64) {
        // Sparse enough that some destinations are out of reach.
        let n = script.gen_range(2..24usize);
        let draws: Vec<(usize, usize)> = (0..script.gen_range(0..2 * n))
            .map(|_| (script.gen_range(0..n), script.gen_range(0..n)))
            .collect();
        let graph = multigraph(n, &draws);
        let me = script.gen_range(0..n);
        let mut schedule: Vec<Request> = (0..script.gen_range(0..12u32))
            .map(|_| Request {
                round: script.gen_range(1..30u32),
                dst: NodeId::new(script.gen_range(0..n as u32)),
            })
            .collect();
        schedule.sort_by_key(|r| (r.round, r.dst));
        let row = hop_rows(&graph).swap_remove(me);
        let me_id = NodeId::from(me);
        let mut router = Router::new(me_id, row.clone(), schedule.clone(), config);
        let mut reference = ReferenceRouter::new(me_id, row.expand(), schedule, config);

        let (mut sent, mut reference_sent) = (Vec::new(), Vec::new());
        let mut rng = overlay_netsim::node_rng(case, me);
        let mut next_id = 1u64 << 40;
        for round in 1..48usize {
            // Rounds 12..24 are quiet: longer than every TTL, so whatever is
            // still queued ages out with no arrival to reset the bound.
            let arrivals = match round {
                12..=23 => 0,
                _ => script.gen_range(0..6u32),
            };
            let inbox: Vec<Envelope<RouterMsg>> = (0..arrivals)
                .map(|_| {
                    next_id += 1;
                    let honest = RouterMsg {
                        id: next_id,
                        dst: NodeId::new(script.gen_range(0..n as u32)),
                        injected: (round as u32).saturating_sub(script.gen_range(0..7u32)),
                        hops: script.gen_range(0..9u32),
                    };
                    envelope(match script.gen_range(0..10u32) {
                        0 => RouterMsg {
                            dst: NodeId::new(n as u32 + script.gen_range(0..3u32) * (u32::MAX / 4)),
                            ..honest
                        },
                        1 => RouterMsg {
                            injected: u32::MAX - script.gen_range(0..2u32),
                            ..honest
                        },
                        2 => RouterMsg {
                            hops: u32::MAX,
                            ..honest
                        },
                        _ => honest,
                    })
                })
                .collect();
            let mut ctx = Ctx::external(me_id, round, n, &mut rng, &mut sent);
            router.on_round(&mut ctx, &inbox);
            let mut ctx = Ctx::external(me_id, round, n, &mut rng, &mut reference_sent);
            reference.on_round(&mut ctx, &inbox);
            let at = format!("case {case} ({config:?}, n = {n}), round {round}");
            assert_eq!(sent, reference_sent, "{at}: sends");
            assert_eq!(router.summarize(), reference.summarize(), "{at}: ledgers");
            assert_eq!(router.is_done(), reference.is_done(), "{at}: doneness");
        }
        assert_eq!(
            rng,
            overlay_netsim::node_rng(case, me),
            "a router drew randomness"
        );
    }

    #[test]
    fn a_hand_built_row_pointing_past_its_neighbors_has_no_route() {
        let config = RouterConfig {
            ttl: 4,
            queue_cap: 8,
            per_round_budget: 8,
        };
        let row = HopRow {
            neighbors: vec![NodeId::new(2)],
            hop: vec![0, 7, NO_HOP],
        };
        assert_eq!(row.expand(), vec![NodeId::new(2), UNROUTABLE, UNROUTABLE]);
        let mut router = Router::new(NodeId::new(3), row, Vec::new(), config);
        let mut outbox = Vec::new();
        let mut rng = overlay_netsim::node_rng(0, 3);
        let inbox: Vec<Envelope<RouterMsg>> = (0..3)
            .map(|dst| {
                envelope(RouterMsg {
                    id: u64::from(dst),
                    dst: NodeId::new(dst),
                    injected: 1,
                    hops: 1,
                })
            })
            .collect();
        let mut ctx = Ctx::external(NodeId::from(3usize), 1, 4, &mut rng, &mut outbox);
        router.on_round(&mut ctx, &inbox);
        let summary = router.summarize();
        assert_eq!(summary.dropped, vec![1, 2]);
        assert_eq!((summary.forwards, summary.max_edge_load), (1, 1));
    }

    #[test]
    fn wire_round_trips() {
        let msg = RouterMsg {
            id: (7u64 << 32) | 3,
            dst: NodeId::new(9),
            injected: 4,
            hops: 2,
        };
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(RouterMsg::decode(&mut slice).unwrap(), msg);
        assert!(slice.is_empty());

        let summary = RouterSummary {
            injected: 2,
            deliveries: vec![Delivery {
                id: 1,
                hops: 3,
                injected: 1,
                delivered: 4,
            }],
            dropped: vec![5, 6],
            expired: vec![],
            forwards: 11,
            max_edge_load: 4,
        };
        let mut buf = Vec::new();
        summary.encode(&mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(RouterSummary::decode(&mut slice).unwrap(), summary);
        assert!(slice.is_empty());
        // Truncated buffers are an error, not a panic.
        let mut short = &buf[..3];
        assert!(RouterSummary::decode(&mut short).is_err());
    }

    /// The bytes a node id costs per message in the round loop: widening
    /// `NodeId` again fails here instead of silently costing 8–12 bytes per
    /// outbox entry, inbox slot and routed request.
    #[test]
    fn message_layouts_carry_a_four_byte_id() {
        use overlay_core::ExpanderMsg;
        use overlay_netsim::Channel;
        use std::mem::size_of;
        assert_eq!(size_of::<NodeId>(), 4);
        assert_eq!(size_of::<Envelope<ExpanderMsg>>(), 20);
        assert_eq!(size_of::<(NodeId, Channel, ExpanderMsg)>(), 20);
        assert_eq!(size_of::<Envelope<RouterMsg>>(), 32);
    }

    /// Routers whose run fills every ledger somewhere: on a 12-node path with
    /// a queue of 3, one forward a round and a TTL of 6, both ends inject 8
    /// requests for the other end in round 1 (5 shed at once; the rest cannot
    /// cross 11 hops within the TTL) and every node sends 2 to its right
    /// neighbor in round 2 (delivered).
    fn routers_that_shed_expire_and_deliver() -> Vec<Router> {
        let n = 12;
        let config = RouterConfig {
            ttl: 6,
            queue_cap: 3,
            per_round_budget: 1,
        };
        let request = |round, dst: usize| Request {
            round,
            dst: NodeId::from(dst),
        };
        hop_rows(&line_graph(n))
            .into_iter()
            .enumerate()
            .map(|(v, row)| {
                let mut schedule = match v {
                    0 => vec![request(1, n - 1); 8],
                    v if v == n - 1 => vec![request(1, 0); 8],
                    _ => Vec::new(),
                };
                if v + 1 < n {
                    schedule.extend([request(2, v + 1), request(2, v + 1)]);
                }
                Router::new(NodeId::from(v), row, schedule, config)
            })
            .collect()
    }

    /// Runs `nodes` to the end, then checks that each hands over what it
    /// digests and that the run left deliveries, drops and expiries.
    fn assert_finished_nodes_hand_over_what_they_digest<P>(nodes: Vec<P>)
    where
        P: Summarize<Summary = RouterSummary>,
        P::Message: Wire,
    {
        let mut sim = overlay_netsim::Simulator::new(nodes, overlay_netsim::SimConfig::default());
        assert!(sim.run(64).all_done);
        let summaries: Vec<RouterSummary> = (sim.into_nodes().into_iter())
            .map(|node| {
                let digest = node.summarize();
                let handed = node.into_summary();
                assert_eq!(handed, digest);
                handed
            })
            .collect();
        assert!(summaries.iter().any(|s| !s.deliveries.is_empty()));
        assert!(summaries.iter().any(|s| !s.dropped.is_empty()));
        assert!(summaries.iter().any(|s| !s.expired.is_empty()));
    }

    #[test]
    fn a_finished_router_hands_over_what_it_digests() {
        assert_finished_nodes_hand_over_what_they_digest(routers_that_shed_expire_and_deliver());
    }

    #[test]
    fn a_finished_reliable_router_hands_over_what_it_digests() {
        let config = overlay_netsim::TransportConfig::default();
        assert_finished_nodes_hand_over_what_they_digest(
            (routers_that_shed_expire_and_deliver().into_iter())
                .map(|router| overlay_transport::Reliable::new(router, config))
                .collect(),
        );
    }

    #[test]
    fn queue_overflow_sheds_and_ttl_expires() {
        let config = RouterConfig {
            ttl: 2,
            queue_cap: 1,
            per_round_budget: 0,
        };
        // Node 1 on a 3-line, zero forward budget: everything it receives
        // queues, overflows, then expires.
        let row = hop_rows(&line_graph(3)).swap_remove(1);
        let mut router = Router::new(NodeId::new(1), row, Vec::new(), config);
        let mut outbox = Vec::new();
        let mut rng = overlay_netsim::node_rng(0, 1);
        let inbox: Vec<Envelope<RouterMsg>> = (0..3)
            .map(|k| {
                envelope(RouterMsg {
                    id: k,
                    dst: NodeId::new(2),
                    injected: 1,
                    hops: 1,
                })
            })
            .collect();
        let mut ctx = Ctx::external(NodeId::from(1usize), 1, 3, &mut rng, &mut outbox);
        router.on_round(&mut ctx, &inbox);
        // One queued, two shed.
        assert_eq!(router.summarize().dropped, vec![1, 2]);
        assert!(!router.is_done());
        // Two quiet rounds later the survivor ages out.
        for round in 2..4 {
            let mut ctx = Ctx::external(NodeId::from(1usize), round, 3, &mut rng, &mut outbox);
            router.on_round(&mut ctx, &[]);
        }
        assert_eq!(router.summarize().expired, vec![0]);
        assert!(router.is_done());
        assert!(outbox.is_empty());
    }
}
