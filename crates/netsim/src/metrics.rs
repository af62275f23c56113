//! Per-round and per-run communication metrics.
//!
//! The experiments of this reproduction are about *model-level* costs: how many rounds
//! an algorithm takes and how many messages each node sends and receives per round.
//! The simulator records those quantities here, in one counter set —
//! [`RoundMetrics`] — that a round fills, a run sums ([`RunMetrics::totals`]) and
//! every report above reads.
//!
//! The drop-cause and counter glossary is on [`RoundMetrics`].

use crate::trace::DropCause;

/// The communication counters of one round — and, summed over its rounds
/// ([`RunMetrics::totals`]), of a whole run or phase. Message counts are `u64`,
/// per-node maxima and node counts `usize`.
///
/// # Drop-cause and counter glossary
///
/// A message that is sent but never reaches its recipient's protocol callback is
/// counted in exactly one of these buckets. This table is the one statement of
/// which [`DropCause`] feeds which counter and under which label a trace or a
/// post-mortem prints it ([`DropCause::label`]); "glossary order" elsewhere
/// means the order of these rows:
///
/// | Counter | [`DropCause`] | Label | Meaning |
/// |---|---|---|---|
/// | [`RoundMetrics::dropped_fault`] | `Fault` | `fault` | injected random loss ([`crate::FaultPlan::drop_prob`]) |
/// | [`RoundMetrics::dropped_partition`] | `Partition` | `partition` | an active partition separates sender and receiver |
/// | [`RoundMetrics::dropped_offline`] | `Offline` | `offline` | recipient is crashed or has not joined yet |
/// | [`RoundMetrics::dropped_receive`] | `ReceiveCap` | `receive-cap` | receiver's per-round global receive cap evicted a random subset of its inbox |
/// | [`RoundMetrics::dropped_send`] | `SendCap` | `send-cap` | sender exceeded its per-round global send cap, or a local message violated the CONGEST edge discipline |
/// | [`RoundMetrics::dropped_send`] | `InvalidAddress` | `invalid-address` | the recipient id names no node |
///
/// `delayed` is *not* a drop: a delayed message is re-counted as `delivered` in
/// its actual delivery round (unless the run ends first).
///
/// The [`TransportCounters`] (`retransmits`, `acks`, `dupes_dropped`,
/// `give_ups`) are reported by reliable-delivery adapters via the
/// [`crate::Ctx::note_retransmit`]-family hooks and are all zero for bare
/// protocols. `dupes_dropped` payloads *do* appear in `delivered` — the network
/// carried them, the transport suppressed them. `give_ups` counts payloads
/// abandoned after the adapter's retransmission budget was exhausted (the peer
/// is presumed dead).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundMetrics {
    /// Maximum number of messages any single node sent this round (local + global).
    pub max_sent: usize,
    /// Maximum number of messages any single node received this round (after drops).
    pub max_received: usize,
    /// Maximum number of *global* messages any single node sent this round.
    pub max_global_sent: usize,
    /// Maximum number of *global* messages any single node received this round.
    pub max_global_received: usize,
    /// Total messages delivered this round.
    pub delivered: u64,
    /// Messages dropped because a receiver exceeded its receive cap.
    pub dropped_receive: u64,
    /// Messages dropped because a sender exceeded its send cap (or the per-edge CONGEST
    /// cap for local messages), or addressed a node that does not exist.
    pub dropped_send: u64,
    /// Messages lost to injected random loss (see [`crate::FaultPlan::drop_prob`]).
    pub dropped_fault: u64,
    /// Messages blocked by an active partition.
    pub dropped_partition: u64,
    /// Messages addressed to a crashed or not-yet-joined node.
    pub dropped_offline: u64,
    /// Messages held back by an injected delivery delay this round (counted at send
    /// time; they appear in `delivered` in their actual delivery round — unless the
    /// run stops first, in which case this is the only counter that saw them).
    pub delayed: u64,
    /// Nodes that crashed at the start of this round.
    pub crashed: usize,
    /// Nodes that joined at the start of this round.
    pub joined: usize,
    /// Transport-layer overhead reported by reliable protocol adapters this
    /// round (all zero for bare protocols).
    pub transport: TransportCounters,
}

impl RoundMetrics {
    /// Adds another round's (or run's) counters to these: counts add, the four
    /// per-node maxima take the larger value.
    pub(crate) fn absorb(&mut self, r: &RoundMetrics) {
        self.max_sent = self.max_sent.max(r.max_sent);
        self.max_received = self.max_received.max(r.max_received);
        self.max_global_sent = self.max_global_sent.max(r.max_global_sent);
        self.max_global_received = self.max_global_received.max(r.max_global_received);
        self.delivered += r.delivered;
        self.dropped_receive += r.dropped_receive;
        self.dropped_send += r.dropped_send;
        self.dropped_fault += r.dropped_fault;
        self.dropped_partition += r.dropped_partition;
        self.dropped_offline += r.dropped_offline;
        self.delayed += r.delayed;
        self.crashed += r.crashed;
        self.joined += r.joined;
        self.transport.absorb(&r.transport);
    }

    /// Counts one dropped message under `cause` (the glossary's cause → counter
    /// column).
    pub(crate) fn count_drop(&mut self, cause: DropCause) {
        *match cause {
            DropCause::Fault => &mut self.dropped_fault,
            DropCause::Partition => &mut self.dropped_partition,
            DropCause::Offline => &mut self.dropped_offline,
            DropCause::ReceiveCap => &mut self.dropped_receive,
            DropCause::SendCap | DropCause::InvalidAddress => &mut self.dropped_send,
        } += 1;
    }

    /// The five drop counters in glossary order, each under the cause that
    /// labels it.
    fn drops(&self) -> [(DropCause, u64); 5] {
        [
            (DropCause::Fault, self.dropped_fault),
            (DropCause::Partition, self.dropped_partition),
            (DropCause::Offline, self.dropped_offline),
            (DropCause::ReceiveCap, self.dropped_receive),
            (DropCause::SendCap, self.dropped_send),
        ]
    }

    /// Messages dropped, all causes combined.
    pub fn dropped(&self) -> u64 {
        self.drops().iter().map(|&(_, count)| count).sum()
    }

    /// The drop cause that lost the most messages, with its count — `None`
    /// when nothing was dropped. Ties resolve to the first cause in glossary
    /// order; `dropped_send` answers as [`DropCause::SendCap`].
    pub fn dominant_drop(&self) -> Option<(DropCause, u64)> {
        let mut dominant = None;
        for (cause, count) in self.drops() {
            if count > dominant.map_or(0, |(_, most)| most) {
                dominant = Some((cause, count));
            }
        }
        dominant
    }
}

/// Transport-overhead counters, accumulated per callback on [`crate::Ctx`] by
/// reliable-delivery adapters (see the `overlay-transport` crate) and summed
/// into [`RoundMetrics::transport`] by the simulator after each callback.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportCounters {
    /// Data messages re-sent because no acknowledgment arrived in time.
    pub retransmits: u64,
    /// Acknowledgment messages sent.
    pub acks: u64,
    /// Duplicate payloads suppressed before reaching the wrapped protocol. These
    /// messages appear in `delivered` (the network did carry them).
    pub dupes_dropped: u64,
    /// Payloads abandoned after their retransmission budget ran out.
    pub give_ups: u64,
}

impl TransportCounters {
    /// Adds another callback's (or round's) counters to these.
    pub(crate) fn absorb(&mut self, t: &TransportCounters) {
        self.retransmits += t.retransmits;
        self.acks += t.acks;
        self.dupes_dropped += t.dupes_dropped;
        self.give_ups += t.give_ups;
    }
}

/// Frozen for `benchmark/`, which names `MetricsMode::Full`: a [`RunMetrics`]
/// always keeps every round next to its totals, so the one variant selects
/// nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsMode {
    /// Keep every round's [`RoundMetrics`] in [`RunMetrics::per_round`].
    #[default]
    Full,
}

/// Aggregated communication counters for a whole run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Number of rounds recorded, including the start round (round 0). Kept in
    /// lockstep by `RunMetrics::record_round` on *every* path — the start
    /// callback as well as each message round — so a run that ends before its
    /// first message round (round budget 0) still reports its recorded round.
    pub rounds: usize,
    /// Per-round metrics, in order.
    pub per_round: Vec<RoundMetrics>,
    /// Total messages sent per node over the whole run.
    pub total_sent_per_node: Vec<u64>,
    /// Total *global* messages sent per node over the whole run.
    pub total_global_sent_per_node: Vec<u64>,
    totals: RoundMetrics,
    first_round_crashed: usize,
}

impl RunMetrics {
    /// Creates empty metrics for `n` nodes.
    pub fn new(n: usize) -> Self {
        RunMetrics {
            total_sent_per_node: vec![0; n],
            total_global_sent_per_node: vec![0; n],
            ..RunMetrics::default()
        }
    }

    /// Records one finished round: folds it into the totals and keeps it in
    /// [`RunMetrics::per_round`].
    pub(crate) fn record_round(&mut self, round: RoundMetrics) {
        if self.rounds == 0 {
            self.first_round_crashed = round.crashed;
        }
        self.totals.absorb(&round);
        self.rounds += 1;
        self.per_round.push(round);
    }

    /// The whole run's counters: every count summed over the recorded rounds,
    /// every per-node maximum the largest any round saw.
    pub fn totals(&self) -> &RoundMetrics {
        &self.totals
    }

    /// Number of crash events executed in the *first recorded round* (round 0).
    /// Pipeline harnesses use this to tell crashes inherited from a previous
    /// phase (pinned at round 0 by [`crate::FaultPlan::shifted`]) apart from
    /// fresh ones.
    pub fn first_round_crashed(&self) -> usize {
        self.first_round_crashed
    }

    // The six forwards below are the ones the frozen `benchmark/` package
    // calls; everything else reads `totals()`.

    /// Total messages delivered over the whole run.
    pub fn total_delivered(&self) -> u64 {
        self.totals.delivered
    }

    /// Total messages lost to injected random loss over the whole run.
    pub fn total_dropped_fault(&self) -> u64 {
        self.totals.dropped_fault
    }

    /// Total transport-layer retransmissions over the whole run (zero unless the
    /// protocols run behind a reliable-delivery adapter).
    pub fn total_retransmits(&self) -> u64 {
        self.totals.transport.retransmits
    }

    /// Total transport-layer acknowledgment messages over the whole run.
    pub fn total_acks(&self) -> u64 {
        self.totals.transport.acks
    }

    /// Total duplicate payloads suppressed by a transport layer over the whole run.
    pub fn total_dupes_dropped(&self) -> u64 {
        self.totals.transport.dupes_dropped
    }

    /// Total payloads abandoned by a transport layer over the whole run.
    pub fn total_give_ups(&self) -> u64 {
        self.totals.transport.give_ups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics() {
        let m = RunMetrics::new(3);
        assert_eq!(m.rounds, 0);
        assert_eq!(*m.totals(), RoundMetrics::default());
        assert_eq!(m.total_sent_per_node, vec![0; 3]);
        assert_eq!(m.first_round_crashed(), 0);
    }

    fn two_rounds() -> [RoundMetrics; 2] {
        [
            RoundMetrics {
                max_sent: 3,
                max_received: 2,
                max_global_sent: 3,
                max_global_received: 1,
                delivered: 5,
                dropped_receive: 1,
                dropped_send: 0,
                dropped_fault: 2,
                dropped_partition: 1,
                dropped_offline: 0,
                delayed: 3,
                crashed: 1,
                joined: 0,
                transport: TransportCounters {
                    retransmits: 2,
                    acks: 4,
                    dupes_dropped: 1,
                    give_ups: 1,
                },
            },
            RoundMetrics {
                max_sent: 1,
                max_received: 4,
                max_global_sent: 0,
                max_global_received: 4,
                delivered: 4,
                dropped_receive: 0,
                dropped_send: 2,
                dropped_fault: 0,
                dropped_partition: 2,
                dropped_offline: 4,
                delayed: 0,
                crashed: 0,
                joined: 2,
                transport: TransportCounters {
                    retransmits: 1,
                    acks: 3,
                    dupes_dropped: 0,
                    give_ups: 2,
                },
            },
        ]
    }

    #[test]
    fn aggregation_over_rounds() {
        let mut m = RunMetrics::new(2);
        for r in two_rounds() {
            m.record_round(r);
        }
        assert_eq!(m.rounds, 2);
        assert_eq!(m.per_round.len(), 2);
        assert_eq!(m.first_round_crashed(), 1);
        let expected = RoundMetrics {
            max_sent: 3,
            max_received: 4,
            max_global_sent: 3,
            max_global_received: 4,
            delivered: 9,
            dropped_receive: 1,
            dropped_send: 2,
            dropped_fault: 2,
            dropped_partition: 3,
            dropped_offline: 4,
            delayed: 3,
            crashed: 1,
            joined: 2,
            transport: TransportCounters {
                retransmits: 3,
                acks: 7,
                dupes_dropped: 1,
                give_ups: 3,
            },
        };
        assert_eq!(*m.totals(), expected);
        assert_eq!(m.totals().dropped(), 12);
        // The forwards `benchmark/` compiles against read the same books.
        assert_eq!(m.total_delivered(), 9);
        assert_eq!(m.total_dropped_fault(), 2);
        assert_eq!(m.total_retransmits(), 3);
        assert_eq!(m.total_acks(), 7);
        assert_eq!(m.total_dupes_dropped(), 1);
        assert_eq!(m.total_give_ups(), 3);
    }

    #[test]
    fn transport_counters_fold_into_round_metrics() {
        let reported = TransportCounters {
            retransmits: 2,
            acks: 1,
            dupes_dropped: 3,
            give_ups: 4,
        };
        let mut r = RoundMetrics::default();
        r.transport.absorb(&reported);
        r.transport.absorb(&TransportCounters::default());
        assert_eq!(r.transport, reported);
    }

    #[test]
    fn every_cause_lands_in_its_glossary_counter() {
        let mut r = RoundMetrics::default();
        for cause in [
            DropCause::Fault,
            DropCause::Partition,
            DropCause::Partition,
            DropCause::Offline,
            DropCause::ReceiveCap,
            DropCause::SendCap,
            DropCause::InvalidAddress,
        ] {
            r.count_drop(cause);
        }
        let expected = RoundMetrics {
            dropped_fault: 1,
            dropped_partition: 2,
            dropped_offline: 1,
            dropped_receive: 1,
            dropped_send: 2,
            ..RoundMetrics::default()
        };
        assert_eq!(r, expected);
        assert_eq!(r.dropped(), 7);
    }

    #[test]
    fn dominant_drop_is_the_first_largest_cause_in_glossary_order() {
        let mut r = RoundMetrics::default();
        assert_eq!(r.dominant_drop(), None);
        r.dropped_receive = 2;
        r.dropped_partition = 5;
        assert_eq!(r.dominant_drop(), Some((DropCause::Partition, 5)));
        // A three-way tie names the earliest row of the glossary, not the last.
        let tied = RoundMetrics {
            dropped_fault: 3,
            dropped_offline: 3,
            dropped_send: 3,
            dropped_receive: 1,
            ..RoundMetrics::default()
        };
        assert_eq!(tied.dominant_drop(), Some((DropCause::Fault, 3)));
        let tied_late = RoundMetrics {
            dropped_offline: 3,
            dropped_send: 3,
            ..RoundMetrics::default()
        };
        assert_eq!(tied_late.dominant_drop(), Some((DropCause::Offline, 3)));
    }

    #[test]
    fn first_round_crashed_is_pinned_to_round_zero() {
        let mut m = RunMetrics::new(1);
        m.record_round(RoundMetrics {
            crashed: 2,
            ..RoundMetrics::default()
        });
        m.record_round(RoundMetrics {
            crashed: 5,
            ..RoundMetrics::default()
        });
        assert_eq!(m.first_round_crashed(), 2);
        assert_eq!(m.totals().crashed, 7);
    }
}
