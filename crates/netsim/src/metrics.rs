//! Per-round and per-run communication metrics.
//!
//! The experiments of this reproduction are about *model-level* costs: how many rounds
//! an algorithm takes and how many messages each node sends and receives per round.
//! The simulator records those quantities here.
//!
//! # Drop-cause and counter glossary
//!
//! A message that is sent but never reaches its recipient's protocol callback is
//! counted in exactly one of these buckets (the trace layer's
//! [`crate::trace::DropCause`] uses the same taxonomy, with the send-side bucket
//! split by cause):
//!
//! | Counter | Cause | Trace label |
//! |---|---|---|
//! | [`RoundMetrics::dropped_send`] | sender exceeded its per-round global send cap, a local message violated the CONGEST edge discipline, or the recipient id names no node | `send-cap`, `invalid-address` |
//! | [`RoundMetrics::dropped_receive`] | receiver's per-round global receive cap evicted a random subset of its inbox | `receive-cap` |
//! | [`RoundMetrics::dropped_fault`] | injected random loss ([`crate::FaultPlan::drop_prob`]) | `fault` |
//! | [`RoundMetrics::dropped_partition`] | an active partition separates sender and receiver | `partition` |
//! | [`RoundMetrics::dropped_offline`] | recipient is crashed or has not joined yet | `offline` |
//!
//! `delayed` is *not* a drop: a delayed message is re-counted as `delivered` in
//! its actual delivery round (unless the run ends first).
//!
//! Transport-overhead counters (`retransmits`, `acks`, `dupes_dropped`,
//! `give_ups`) are reported by reliable-delivery adapters via the
//! [`crate::Ctx::note_retransmit`]-family hooks and are all zero for bare
//! protocols. `dupes_dropped` payloads *do* appear in `delivered` — the network
//! carried them, the transport suppressed them. `give_ups` counts payloads
//! abandoned after the adapter's retransmission budget was exhausted (the peer
//! is presumed dead).
//!
//! # Memory modes
//!
//! [`RunMetrics`] records one [`RoundMetrics`] per round via
//! [`RunMetrics::record_round`]. How much of that history is *retained* is
//! governed by [`MetricsMode`]:
//!
//! * [`MetricsMode::Full`] (the default) keeps every round in
//!   [`RunMetrics::per_round`] — O(rounds) memory, full post-hoc analysis.
//! * [`MetricsMode::Rollup`] keeps only streaming aggregates plus a ring of the
//!   last `window` rounds — O(window) memory, for long-horizon runs at large
//!   `n` (e.g. the scaling harness) where buffering every round is wasteful.
//!
//! Every total/peak accessor (`total_*`, `max_*_in_any_round`,
//! [`RunMetrics::first_round_crashed`]) reads *streaming* aggregates that are
//! maintained identically in both modes, so the reported numbers are
//! mode-independent by construction (unit-tested in this module). Only the
//! retained history ([`RunMetrics::per_round`] /
//! [`RunMetrics::recent_rounds`]) differs.

use std::collections::VecDeque;

/// Communication counters for a single round.
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
    pub delivered: usize,
    /// Messages dropped because a receiver exceeded its receive cap.
    pub dropped_receive: usize,
    /// Messages dropped because a sender exceeded its send cap (or the per-edge CONGEST
    /// cap for local messages).
    pub dropped_send: usize,
    /// Messages lost to injected random loss (see [`crate::FaultPlan::drop_prob`]).
    pub dropped_fault: usize,
    /// Messages blocked by an active partition.
    pub dropped_partition: usize,
    /// Messages addressed to a crashed or not-yet-joined node.
    pub dropped_offline: usize,
    /// Messages held back by an injected delivery delay this round (counted at send
    /// time; they appear in `delivered` in their actual delivery round — unless the
    /// run stops first, in which case this is the only counter that saw them).
    pub delayed: usize,
    /// Nodes that crashed at the start of this round.
    pub crashed: usize,
    /// Nodes that joined at the start of this round.
    pub joined: usize,
    /// Transport-layer retransmissions performed this round (reported by reliable
    /// protocol adapters via [`crate::Ctx::note_retransmit`]; zero for bare
    /// protocols).
    pub retransmits: usize,
    /// Transport-layer acknowledgment messages sent this round (via
    /// [`crate::Ctx::note_ack`]).
    pub acks: usize,
    /// Duplicate payloads suppressed by a transport layer this round (via
    /// [`crate::Ctx::note_dupe_dropped`]). These messages appear in `delivered`
    /// (the network did carry them) but never reached the wrapped protocol.
    pub dupes_dropped: usize,
    /// Payloads abandoned by a transport layer this round after exhausting their
    /// retransmission budget (via [`crate::Ctx::note_give_up`]).
    pub give_ups: usize,
}

impl RoundMetrics {
    /// Folds one node's per-round transport counters into this round's totals.
    pub(crate) fn absorb_transport(&mut self, t: &TransportCounters) {
        self.retransmits += t.retransmits;
        self.acks += t.acks;
        self.dupes_dropped += t.dupes_dropped;
        self.give_ups += t.give_ups;
    }
}

/// Per-callback transport-overhead counters, accumulated on [`crate::Ctx`] by
/// reliable-delivery adapters (see the `overlay-transport` crate) and folded into
/// [`RoundMetrics`] by the simulator after each callback.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportCounters {
    /// Data messages re-sent because no acknowledgment arrived in time.
    pub retransmits: usize,
    /// Acknowledgment messages sent.
    pub acks: usize,
    /// Duplicate payloads suppressed before reaching the wrapped protocol.
    pub dupes_dropped: usize,
    /// Payloads abandoned after their retransmission budget ran out.
    pub give_ups: usize,
}

impl TransportCounters {
    /// Adds another callback's counters to these.
    pub(crate) fn absorb(&mut self, t: &TransportCounters) {
        self.retransmits += t.retransmits;
        self.acks += t.acks;
        self.dupes_dropped += t.dupes_dropped;
        self.give_ups += t.give_ups;
    }
}

/// How a [`RunMetrics`] retains per-round history. Aggregate accessors are
/// mode-independent (see the module docs); only the retained history differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsMode {
    /// Keep every round's [`RoundMetrics`] in [`RunMetrics::per_round`].
    #[default]
    Full,
    /// Keep streaming aggregate totals plus a ring of the most recent rounds.
    Rollup {
        /// Number of most-recent rounds retained (`0` keeps aggregates only).
        window: usize,
    },
}

/// Streaming aggregates maintained by [`RunMetrics::record_round`] in both
/// metrics modes; the source of truth for every total/peak accessor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RunningTotals {
    max_sent: usize,
    max_received: usize,
    max_global: usize,
    delivered: u64,
    dropped_receive: u64,
    dropped_send: u64,
    dropped_fault: u64,
    dropped_partition: u64,
    dropped_offline: u64,
    delayed: u64,
    crashed: usize,
    joined: usize,
    retransmits: u64,
    acks: u64,
    dupes_dropped: u64,
    give_ups: u64,
    first_round_crashed: usize,
}

impl RunningTotals {
    fn absorb(&mut self, r: &RoundMetrics, is_first_round: bool) {
        if is_first_round {
            self.first_round_crashed = r.crashed;
        }
        self.max_sent = self.max_sent.max(r.max_sent);
        self.max_received = self.max_received.max(r.max_received);
        self.max_global = self
            .max_global
            .max(r.max_global_sent.max(r.max_global_received));
        self.delivered += r.delivered as u64;
        self.dropped_receive += r.dropped_receive as u64;
        self.dropped_send += r.dropped_send as u64;
        self.dropped_fault += r.dropped_fault as u64;
        self.dropped_partition += r.dropped_partition as u64;
        self.dropped_offline += r.dropped_offline as u64;
        self.delayed += r.delayed as u64;
        self.crashed += r.crashed;
        self.joined += r.joined;
        self.retransmits += r.retransmits as u64;
        self.acks += r.acks as u64;
        self.dupes_dropped += r.dupes_dropped as u64;
        self.give_ups += r.give_ups as u64;
    }
}

/// Aggregated communication counters for a whole run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Number of rounds recorded, including the start round (round 0). Kept in
    /// lockstep by [`RunMetrics::record_round`] on *every* path — the start
    /// callback as well as each message round — so a run that ends before its
    /// first message round (round budget 0) still reports its recorded round.
    pub rounds: usize,
    /// Per-round metrics, in order — every round in [`MetricsMode::Full`],
    /// empty in [`MetricsMode::Rollup`] (use [`RunMetrics::recent_rounds`]).
    pub per_round: Vec<RoundMetrics>,
    /// Total messages sent per node over the whole run.
    pub total_sent_per_node: Vec<u64>,
    /// Total *global* messages sent per node over the whole run.
    pub total_global_sent_per_node: Vec<u64>,
    mode: MetricsMode,
    totals: RunningTotals,
    recent: VecDeque<RoundMetrics>,
}

impl RunMetrics {
    /// Creates empty metrics for `n` nodes in [`MetricsMode::Full`].
    pub fn new(n: usize) -> Self {
        RunMetrics::with_mode(n, MetricsMode::Full)
    }

    /// Creates empty metrics for `n` nodes with the given retention mode.
    pub fn with_mode(n: usize, mode: MetricsMode) -> Self {
        RunMetrics {
            rounds: 0,
            per_round: Vec::new(),
            total_sent_per_node: vec![0; n],
            total_global_sent_per_node: vec![0; n],
            mode,
            totals: RunningTotals::default(),
            recent: VecDeque::new(),
        }
    }

    /// The retention mode these metrics were created with.
    pub fn mode(&self) -> MetricsMode {
        self.mode
    }

    /// Records one finished round: folds it into the streaming aggregates (both
    /// modes) and retains it according to the [`MetricsMode`].
    pub fn record_round(&mut self, round: RoundMetrics) {
        self.totals.absorb(&round, self.rounds == 0);
        self.rounds += 1;
        match self.mode {
            MetricsMode::Full => self.per_round.push(round),
            MetricsMode::Rollup { window } => {
                if window == 0 {
                    return;
                }
                if self.recent.len() == window {
                    self.recent.pop_front();
                }
                self.recent.push_back(round);
            }
        }
    }

    /// The retained per-round history, oldest first: every round in
    /// [`MetricsMode::Full`], the last `window` rounds in
    /// [`MetricsMode::Rollup`].
    pub fn recent_rounds(&self) -> impl Iterator<Item = &RoundMetrics> {
        self.per_round.iter().chain(self.recent.iter())
    }

    /// The largest per-node, per-round send count observed in any round.
    pub fn max_sent_in_any_round(&self) -> usize {
        self.totals.max_sent
    }

    /// The largest per-node, per-round receive count observed in any round.
    pub fn max_received_in_any_round(&self) -> usize {
        self.totals.max_received
    }

    /// The largest per-node, per-round *global* message count (max of send and receive)
    /// observed in any round. This is the "global capacity" the hybrid theorems bound.
    pub fn max_global_in_any_round(&self) -> usize {
        self.totals.max_global
    }

    /// Total messages delivered over the whole run.
    pub fn total_delivered(&self) -> u64 {
        self.totals.delivered
    }

    /// Total messages dropped at receivers over the whole run (should be zero for
    /// protocols that respect the w.h.p. bounds of the paper).
    pub fn total_dropped_receive(&self) -> u64 {
        self.totals.dropped_receive
    }

    /// Total messages dropped at senders over the whole run.
    pub fn total_dropped_send(&self) -> u64 {
        self.totals.dropped_send
    }

    /// Total messages lost to injected random loss over the whole run.
    pub fn total_dropped_fault(&self) -> u64 {
        self.totals.dropped_fault
    }

    /// Total messages blocked by partitions over the whole run.
    pub fn total_dropped_partition(&self) -> u64 {
        self.totals.dropped_partition
    }

    /// Total messages addressed to offline (crashed / not yet joined) nodes.
    pub fn total_dropped_offline(&self) -> u64 {
        self.totals.dropped_offline
    }

    /// Total messages that suffered an injected delivery delay.
    pub fn total_delayed(&self) -> u64 {
        self.totals.delayed
    }

    /// Total number of crash events executed over the whole run.
    pub fn total_crashed(&self) -> usize {
        self.totals.crashed
    }

    /// Number of crash events executed in the *first recorded round* (round 0).
    /// Pipeline harnesses use this to tell crashes inherited from a previous
    /// phase (pinned at round 0 by [`crate::FaultPlan::shifted`]) apart from
    /// fresh ones; tracked streamingly so it is available in both metrics modes.
    pub fn first_round_crashed(&self) -> usize {
        self.totals.first_round_crashed
    }

    /// Total number of join events executed over the whole run.
    pub fn total_joined(&self) -> usize {
        self.totals.joined
    }

    /// Total transport-layer retransmissions over the whole run (zero unless the
    /// protocols run behind a reliable-delivery adapter).
    pub fn total_retransmits(&self) -> u64 {
        self.totals.retransmits
    }

    /// Total transport-layer acknowledgment messages over the whole run.
    pub fn total_acks(&self) -> u64 {
        self.totals.acks
    }

    /// Total duplicate payloads suppressed by a transport layer over the whole run.
    pub fn total_dupes_dropped(&self) -> u64 {
        self.totals.dupes_dropped
    }

    /// Total payloads abandoned by a transport layer over the whole run.
    pub fn total_give_ups(&self) -> u64 {
        self.totals.give_ups
    }

    /// The maximum total number of messages any single node sent over the whole run
    /// (the paper bounds this by `O(log² n)` for the main algorithm).
    pub fn max_total_sent_per_node(&self) -> u64 {
        self.total_sent_per_node.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics() {
        let m = RunMetrics::new(3);
        assert_eq!(m.rounds, 0);
        assert_eq!(m.max_sent_in_any_round(), 0);
        assert_eq!(m.total_delivered(), 0);
        assert_eq!(m.max_total_sent_per_node(), 0);
        assert_eq!(m.first_round_crashed(), 0);
        assert_eq!(m.mode(), MetricsMode::Full);
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
                retransmits: 2,
                acks: 4,
                dupes_dropped: 1,
                give_ups: 1,
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
                retransmits: 1,
                acks: 3,
                dupes_dropped: 0,
                give_ups: 2,
            },
        ]
    }

    #[test]
    fn aggregation_over_rounds() {
        let mut m = RunMetrics::new(2);
        for r in two_rounds() {
            m.record_round(r);
        }
        m.total_sent_per_node = vec![7, 2];
        assert_eq!(m.rounds, 2);
        assert_eq!(m.per_round.len(), 2);
        assert_eq!(m.max_sent_in_any_round(), 3);
        assert_eq!(m.max_received_in_any_round(), 4);
        assert_eq!(m.max_global_in_any_round(), 4);
        assert_eq!(m.total_delivered(), 9);
        assert_eq!(m.total_dropped_receive(), 1);
        assert_eq!(m.total_dropped_send(), 2);
        assert_eq!(m.total_dropped_fault(), 2);
        assert_eq!(m.total_dropped_partition(), 3);
        assert_eq!(m.total_dropped_offline(), 4);
        assert_eq!(m.total_delayed(), 3);
        assert_eq!(m.total_crashed(), 1);
        assert_eq!(m.first_round_crashed(), 1);
        assert_eq!(m.total_joined(), 2);
        assert_eq!(m.max_total_sent_per_node(), 7);
        assert_eq!(m.total_retransmits(), 3);
        assert_eq!(m.total_acks(), 7);
        assert_eq!(m.total_dupes_dropped(), 1);
        assert_eq!(m.total_give_ups(), 3);
    }

    #[test]
    fn transport_counters_fold_into_round_metrics() {
        let mut r = RoundMetrics::default();
        r.absorb_transport(&TransportCounters {
            retransmits: 2,
            acks: 1,
            dupes_dropped: 3,
            give_ups: 4,
        });
        r.absorb_transport(&TransportCounters::default());
        assert_eq!(
            (r.retransmits, r.acks, r.dupes_dropped, r.give_ups),
            (2, 1, 3, 4)
        );
    }

    /// A pseudo-random but deterministic stream of round metrics (no RNG crate
    /// needed): every counter cycles at a different small modulus.
    fn synthetic_round(i: usize) -> RoundMetrics {
        RoundMetrics {
            max_sent: i % 7,
            max_received: (i * 3) % 11,
            max_global_sent: (i * 5) % 13,
            max_global_received: (i * 2) % 9,
            delivered: i % 17,
            dropped_receive: i % 3,
            dropped_send: i % 4,
            dropped_fault: i % 5,
            dropped_partition: i % 2,
            dropped_offline: (i * 7) % 6,
            delayed: i % 8,
            crashed: usize::from(i % 19 == 4),
            joined: usize::from(i % 23 == 6),
            retransmits: i % 6,
            acks: i % 10,
            dupes_dropped: i % 12,
            give_ups: usize::from(i % 29 == 1),
        }
    }

    #[test]
    fn rollup_accessors_match_full_mode_exactly() {
        for window in [0usize, 1, 4, 64, 1000] {
            let mut full = RunMetrics::new(2);
            let mut rollup = RunMetrics::with_mode(2, MetricsMode::Rollup { window });
            for i in 0..500 {
                full.record_round(synthetic_round(i));
                rollup.record_round(synthetic_round(i));
            }
            // Every total/peak accessor is mode-independent.
            assert_eq!(full.rounds, rollup.rounds);
            assert_eq!(full.max_sent_in_any_round(), rollup.max_sent_in_any_round());
            assert_eq!(
                full.max_received_in_any_round(),
                rollup.max_received_in_any_round()
            );
            assert_eq!(
                full.max_global_in_any_round(),
                rollup.max_global_in_any_round()
            );
            assert_eq!(full.total_delivered(), rollup.total_delivered());
            assert_eq!(full.total_dropped_receive(), rollup.total_dropped_receive());
            assert_eq!(full.total_dropped_send(), rollup.total_dropped_send());
            assert_eq!(full.total_dropped_fault(), rollup.total_dropped_fault());
            assert_eq!(
                full.total_dropped_partition(),
                rollup.total_dropped_partition()
            );
            assert_eq!(full.total_dropped_offline(), rollup.total_dropped_offline());
            assert_eq!(full.total_delayed(), rollup.total_delayed());
            assert_eq!(full.total_crashed(), rollup.total_crashed());
            assert_eq!(full.first_round_crashed(), rollup.first_round_crashed());
            assert_eq!(full.total_joined(), rollup.total_joined());
            assert_eq!(full.total_retransmits(), rollup.total_retransmits());
            assert_eq!(full.total_acks(), rollup.total_acks());
            assert_eq!(full.total_dupes_dropped(), rollup.total_dupes_dropped());
            assert_eq!(full.total_give_ups(), rollup.total_give_ups());
            // Retention differs exactly as documented.
            assert_eq!(full.per_round.len(), 500);
            assert!(rollup.per_round.is_empty());
            assert_eq!(rollup.recent_rounds().count(), window.min(500));
        }
    }

    #[test]
    fn rollup_ring_keeps_the_most_recent_rounds_in_order() {
        let mut m = RunMetrics::with_mode(1, MetricsMode::Rollup { window: 3 });
        for i in 0..10 {
            m.record_round(synthetic_round(i));
        }
        let kept: Vec<RoundMetrics> = m.recent_rounds().copied().collect();
        let expected: Vec<RoundMetrics> = (7..10).map(synthetic_round).collect();
        assert_eq!(kept, expected);
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
        assert_eq!(m.total_crashed(), 7);
    }
}
