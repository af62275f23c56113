//! Deterministic fault injection: message loss, delivery delays, crashes, delayed
//! joins, and network partitions.
//!
//! A [`FaultPlan`] declares *what* goes wrong and *when*; the `FaultRouter` sits
//! between the send side of [`crate::Ctx`] and inbox delivery inside the
//! [`crate::Simulator`] and executes the plan. Every decision — which message is
//! lost, how long a delay lasts — is drawn from an RNG seeded from the simulation
//! seed, so a run with a fault plan is exactly as reproducible as a clean run, and
//! every interference is recorded in [`crate::RoundMetrics`] so that model-level
//! message counts stay honest.
//!
//! Faults compose: a message must survive the partition check, the random-loss
//! check, the recipient-liveness check, and (possibly) a delay before it is
//! delivered. Node lifecycle faults are crash-stop: a crashed node stops executing
//! and never recovers; a joining node is dormant (sends nothing, receives nothing)
//! until its join round, at which point its `on_start` callback runs with whatever
//! initial knowledge its protocol state was constructed with.

use crate::metrics::RoundMetrics;
use crate::protocol::Envelope;
use crate::trace::DropCause;
use overlay_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::ops::Range;

/// A random delivery-delay model: with probability `prob` a delivered message is
/// held back by 1 to `max_rounds` extra rounds (uniformly chosen).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelayModel {
    /// Probability that a message is delayed at all.
    pub prob: f64,
    /// Maximum number of extra rounds a delayed message is held back (≥ 1).
    pub max_rounds: usize,
}

/// A scheduled crash-stop failure: `node` executes rounds `< round` and is silent
/// from `round` on. Messages addressed to it at or after `round` are lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// The round at the start of which the node stops.
    pub round: usize,
    /// The crashing node.
    pub node: NodeId,
}

/// A scheduled join: `node` is dormant (no callbacks, all messages to it lost)
/// before `round`; its `on_start` runs at the beginning of `round`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinEvent {
    /// The round at the start of which the node becomes active.
    pub round: usize,
    /// The joining node.
    pub node: NodeId,
}

/// A temporary split of the node set: while `from_round <= round < heal_round`,
/// messages between `side_a` and its complement are dropped in both directions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// First round (send time) in which the partition is in effect.
    pub from_round: usize,
    /// First round in which traffic flows again.
    pub heal_round: usize,
    /// The nodes on one side of the cut; everyone else is on the other side.
    pub side_a: Vec<NodeId>,
}

/// A declarative, deterministic schedule of environmental faults.
///
/// The default plan is clean (no faults); [`Simulator`](crate::Simulator) runs with
/// a clean plan behave exactly like fault-free simulations. Plans are composed with
/// the builder-style `with_*` methods:
///
/// ```
/// use overlay_netsim::FaultPlan;
/// use overlay_graph::NodeId;
///
/// let plan = FaultPlan::default()
///     .with_drop_prob(0.05)
///     .with_delays(0.2, 3)
///     .with_crash(NodeId::from(3usize), 10)
///     .with_join(NodeId::from(7usize), 4)
///     .with_partition(vec![NodeId::from(0usize), NodeId::from(1usize)], 5, 9);
/// assert!(!plan.is_clean());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Independent per-message loss probability (applied to messages that survive
    /// partitions and liveness checks).
    pub drop_prob: f64,
    /// First send round the loss probability applies to. The default `0` makes
    /// loss unconditional, which is byte-identical to the pre-windowed behavior;
    /// a later round models a network that degrades partway through a run (see
    /// [`FaultPlan::with_drop_prob_from`]).
    pub loss_from: usize,
    /// Optional random delivery delays.
    pub delay: Option<DelayModel>,
    /// Scheduled crash-stop failures.
    pub crashes: Vec<CrashEvent>,
    /// Scheduled joins (nodes dormant until their join round).
    pub joins: Vec<JoinEvent>,
    /// Temporary partitions of the node set.
    pub partitions: Vec<Partition>,
}

impl FaultPlan {
    /// `true` if the plan injects nothing. The router is exact either way; for a
    /// clean plan it answers `Route::Deliver` without looking anything up.
    pub fn is_clean(&self) -> bool {
        self.is_scheduled()
            && self.crashes.is_empty()
            && self.joins.is_empty()
            && self.partitions.is_empty()
    }

    /// `true` if the plan draws nothing: no loss and no delay, so every verdict
    /// is a function of its schedule of crashes, joins and partitions — the
    /// sender, the recipient and the round — which any block of a run can take
    /// for its own senders (see [`crate::Simulator::for_block`]). Loss and delay
    /// verdicts are drawn from one stream in the whole run's send order.
    pub fn is_scheduled(&self) -> bool {
        self.drop_prob == 0.0 && self.delay.is_none()
    }

    /// Sets the independent per-message loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability out of range: {p}"
        );
        self.drop_prob = p;
        self
    }

    /// Sets the independent per-message loss probability, applied only to messages
    /// sent at or after `from_round` — the network works, then degrades. Composes
    /// with crash waves into "crash, then loss" stressors where the survivors must
    /// also cope with a lossier network.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_drop_prob_from(mut self, p: f64, from_round: usize) -> Self {
        self = self.with_drop_prob(p);
        self.loss_from = from_round;
        self
    }

    /// Delays each message with probability `prob` by 1..=`max_rounds` extra rounds.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not in `[0, 1]` or `max_rounds == 0`.
    pub fn with_delays(mut self, prob: f64, max_rounds: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&prob),
            "delay probability out of range: {prob}"
        );
        assert!(max_rounds >= 1, "a delay must last at least one round");
        self.delay = Some(DelayModel { prob, max_rounds });
        self
    }

    /// Crashes `node` at the start of `round`.
    pub fn with_crash(mut self, node: NodeId, round: usize) -> Self {
        self.crashes.push(CrashEvent { round, node });
        self
    }

    /// Keeps `node` dormant until the start of `round`.
    ///
    /// # Panics
    ///
    /// Panics if `round == 0` (a node joining at round 0 is simply present).
    pub fn with_join(mut self, node: NodeId, round: usize) -> Self {
        assert!(
            round >= 1,
            "a join at round 0 is a normal start; schedule round >= 1"
        );
        self.joins.push(JoinEvent { round, node });
        self
    }

    /// Partitions `side_a` from the rest during rounds `from_round..heal_round`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn with_partition(
        mut self,
        side_a: Vec<NodeId>,
        from_round: usize,
        heal_round: usize,
    ) -> Self {
        assert!(
            from_round < heal_round,
            "partition window must be non-empty"
        );
        self.partitions.push(Partition {
            from_round,
            heal_round,
            side_a,
        });
        self
    }

    /// Rebases the plan onto a timeline starting `offset` rounds later, for running
    /// a multi-phase pipeline where each phase is its own simulation.
    ///
    /// Crashes that already happened stay in effect (they become crashes at round
    /// 0); joins that already happened disappear (the node is simply active);
    /// partitions are clipped to the remaining window and dropped once healed.
    /// Loss and delay models persist unchanged, except that a windowed loss start
    /// ([`FaultPlan::with_drop_prob_from`]) is rebased onto the new timeline.
    pub fn shifted(&self, offset: usize) -> FaultPlan {
        FaultPlan {
            drop_prob: self.drop_prob,
            loss_from: self.loss_from.saturating_sub(offset),
            delay: self.delay,
            crashes: self
                .crashes
                .iter()
                .map(|c| CrashEvent {
                    round: c.round.saturating_sub(offset),
                    node: c.node,
                })
                .collect(),
            joins: self
                .joins
                .iter()
                .filter(|j| j.round > offset)
                .map(|j| JoinEvent {
                    round: j.round - offset,
                    node: j.node,
                })
                .collect(),
            partitions: self
                .partitions
                .iter()
                .filter(|p| p.heal_round > offset)
                .map(|p| Partition {
                    from_round: p.from_round.saturating_sub(offset),
                    heal_round: p.heal_round - offset,
                    side_a: p.side_a.clone(),
                })
                .collect(),
        }
    }

    /// Checks that the probabilities and delay bounds are in range (fields are
    /// public, so plans need not come from the `with_*` builders), that every
    /// referenced node exists among `n` nodes, that no node both joins late and
    /// crashes before its join round, and — as [`FaultPlan::with_join`] and
    /// [`FaultPlan::with_partition`] demand — that no join is at round 0 and no
    /// partition window is empty.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.drop_prob) {
            return Err(format!("drop probability out of range: {}", self.drop_prob));
        }
        if let Some(delay) = &self.delay {
            if !(0.0..=1.0).contains(&delay.prob) {
                return Err(format!("delay probability out of range: {}", delay.prob));
            }
            if delay.max_rounds == 0 {
                return Err("a delay must last at least one round".into());
            }
        }
        for c in &self.crashes {
            if c.node.index() >= n {
                return Err(format!(
                    "crash event references node {} >= n = {n}",
                    c.node.index()
                ));
            }
        }
        for j in &self.joins {
            if j.node.index() >= n {
                return Err(format!(
                    "join event references node {} >= n = {n}",
                    j.node.index()
                ));
            }
            if j.round == 0 {
                return Err(format!(
                    "node {} joins at round 0, which is a normal start",
                    j.node.index()
                ));
            }
            // Compare against the *effective* crash round (the minimum across
            // duplicate events), which is what the router enforces.
            let crash = self
                .crashes
                .iter()
                .filter(|c| c.node == j.node)
                .map(|c| c.round)
                .min();
            if let Some(round) = crash {
                if round <= j.round {
                    return Err(format!(
                        "node {} crashes at round {round} before joining at round {}",
                        j.node.index(),
                        j.round
                    ));
                }
            }
        }
        for p in &self.partitions {
            if p.from_round >= p.heal_round {
                return Err(format!(
                    "partition window {}..{} is empty",
                    p.from_round, p.heal_round
                ));
            }
            for &v in &p.side_a {
                if v.index() >= n {
                    return Err(format!(
                        "partition references node {} >= n = {n}",
                        v.index()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The router's verdict for one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// Deliver next round, as normal.
    Deliver,
    /// Deliver at the returned (absolute) round instead.
    Delay(usize),
    /// Do not deliver: [`DropCause::Partition`], [`DropCause::Fault`] or
    /// [`DropCause::Offline`].
    Drop(DropCause),
}

/// Executes a [`FaultPlan`] inside the simulator: decides the fate of every sent
/// message and tracks node liveness.
///
/// The router's RNG is seeded from the simulation seed, so fault decisions are part
/// of the deterministic replay. Liveness is the whole run's, so a block's router
/// judges a message to a node another block owns as the whole run's would; the
/// lifecycle counts it records are the block's own (see
/// [`FaultRouter::record_lifecycle`]).
#[derive(Clone, Debug)]
pub(crate) struct FaultRouter<M> {
    /// Per node: the round it crashes at, if any.
    crash_round: Vec<Option<usize>>,
    /// Per node: the round it becomes active (0 = present from the start).
    join_round: Vec<usize>,
    /// Per round: how many of the block's nodes crash at it (`crash_round`
    /// counted once).
    crashes_per_round: BTreeMap<usize, usize>,
    /// Per round after 0: how many of the block's nodes join at it (`join_round`
    /// counted once).
    joins_per_round: BTreeMap<usize, usize>,
    partitions: Vec<(usize, usize, HashSet<NodeId>)>,
    drop_prob: f64,
    loss_from: usize,
    delay: Option<DelayModel>,
    /// [`FaultPlan::is_clean`], evaluated once: every message is delivered next
    /// round and [`FaultRouter::route`] says so before any per-node lookup.
    clean: bool,
    rng: StdRng,
    /// Messages in flight beyond the next round, keyed by (absolute) delivery round.
    in_flight: BTreeMap<usize, Vec<(NodeId, Envelope<M>)>>,
    /// Emptied per-round buffers recycled by [`FaultRouter::buffer`], so steady-state
    /// delay traffic allocates no new `Vec`s (the same discipline as the simulator's
    /// envelope arena).
    spare: Vec<Vec<(NodeId, Envelope<M>)>>,
}

impl<M> FaultRouter<M> {
    /// Builds the router of the nodes `block` of an `n`-node run.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub(crate) fn new(plan: &FaultPlan, n: usize, block: Range<usize>, seed: u64) -> Self {
        plan.validate(n).expect("invalid fault plan");
        let mut crash_round = vec![None; n];
        for c in &plan.crashes {
            let slot = &mut crash_round[c.node.index()];
            *slot = Some(slot.map_or(c.round, |r: usize| r.min(c.round)));
        }
        let mut join_round = vec![0usize; n];
        for j in &plan.joins {
            join_round[j.node.index()] = join_round[j.node.index()].max(j.round);
        }
        let mut crashes_per_round = BTreeMap::new();
        for &r in crash_round[block.clone()].iter().flatten() {
            *crashes_per_round.entry(r).or_insert(0) += 1;
        }
        let mut joins_per_round = BTreeMap::new();
        for &r in join_round[block].iter().filter(|&&r| r > 0) {
            *joins_per_round.entry(r).or_insert(0) += 1;
        }
        FaultRouter {
            crash_round,
            join_round,
            crashes_per_round,
            joins_per_round,
            partitions: plan
                .partitions
                .iter()
                .map(|p| {
                    (
                        p.from_round,
                        p.heal_round,
                        p.side_a.iter().copied().collect(),
                    )
                })
                .collect(),
            drop_prob: plan.drop_prob,
            loss_from: plan.loss_from,
            delay: plan.delay,
            clean: plan.is_clean(),
            rng: StdRng::seed_from_u64(seed.wrapping_add(0xFA17)),
            in_flight: BTreeMap::new(),
            spare: Vec::new(),
        }
    }

    /// `true` if `node` executes callbacks in `round` (joined and not yet crashed).
    pub(crate) fn is_active(&self, node: usize, round: usize) -> bool {
        self.join_round[node] <= round && self.crash_round[node].is_none_or(|c| round < c)
    }

    /// `true` if `node` joins exactly at `round` (its `on_start` must run now).
    pub(crate) fn joins_at(&self, node: usize, round: usize) -> bool {
        self.join_round[node] == round && round > 0
    }

    /// `true` if `node` is crashed at `round`.
    pub(crate) fn is_crashed(&self, node: usize, round: usize) -> bool {
        self.crash_round[node].is_some_and(|c| round >= c)
    }

    /// The round `node` becomes active.
    pub(crate) fn join_round(&self, node: usize) -> usize {
        self.join_round[node]
    }

    /// Number of the block's nodes that crash at exactly `round` (for metrics).
    pub(crate) fn crashes_at(&self, round: usize) -> usize {
        self.crashes_per_round.get(&round).copied().unwrap_or(0)
    }

    /// Number of the block's nodes that join at exactly `round` (for metrics; 0
    /// for round 0, where nobody joins: the nodes present from the start just
    /// start).
    pub(crate) fn join_count_at(&self, round: usize) -> usize {
        self.joins_per_round.get(&round).copied().unwrap_or(0)
    }

    fn cut_by_partition(&self, from: NodeId, to: NodeId, send_round: usize) -> bool {
        self.partitions.iter().any(|(start, heal, side_a)| {
            (*start..*heal).contains(&send_round) && side_a.contains(&from) != side_a.contains(&to)
        })
    }

    /// Decides the fate of a message sent by `from` to `to` in `send_round` (normal
    /// delivery would be at `send_round + 1`).
    #[inline]
    pub(crate) fn route(&mut self, from: NodeId, to: NodeId, send_round: usize) -> Route {
        if self.clean {
            return Route::Deliver;
        }
        if self.cut_by_partition(from, to, send_round) {
            return Route::Drop(DropCause::Partition);
        }
        // The loss window is checked before the RNG roll, so rounds before
        // `loss_from` draw nothing: an unwindowed plan (`loss_from == 0`) keeps
        // the exact pre-windowed RNG stream, and windowed plans stay
        // deterministic per seed regardless of how much clean traffic precedes
        // the window.
        if self.drop_prob > 0.0 && send_round >= self.loss_from && self.rng.gen_bool(self.drop_prob)
        {
            return Route::Drop(DropCause::Fault);
        }
        let mut deliver_round = send_round + 1;
        if let Some(delay) = self.delay {
            if delay.prob > 0.0 && self.rng.gen_bool(delay.prob) {
                deliver_round += self.rng.gen_range(1..delay.max_rounds + 1);
            }
        }
        // A joiner's first round runs `on_start`, not `on_round`, so a message
        // landing exactly on the join round would never reach the protocol;
        // treat it as offline too, so it is dropped *and counted*.
        if !self.is_active(to.index(), deliver_round) || self.joins_at(to.index(), deliver_round) {
            return Route::Drop(DropCause::Offline);
        }
        if deliver_round == send_round + 1 {
            Route::Deliver
        } else {
            Route::Delay(deliver_round)
        }
    }

    /// Buffers a delayed message for its delivery round.
    pub(crate) fn buffer(&mut self, deliver_round: usize, to: NodeId, env: Envelope<M>) {
        self.in_flight
            .entry(deliver_round)
            .or_insert_with(|| self.spare.pop().unwrap_or_default())
            .push((to, env));
    }

    /// Hands every message scheduled for delivery at `round` to `deliver` and
    /// recycles the emptied buffer, so rounds with active delay faults perform no
    /// per-round allocation once the pool is warm.
    pub(crate) fn drain_due(&mut self, round: usize, mut deliver: impl FnMut(NodeId, Envelope<M>)) {
        if let Some(mut due) = self.in_flight.remove(&round) {
            for (to, env) in due.drain(..) {
                deliver(to, env);
            }
            self.spare.push(due);
        }
    }

    /// `true` if some delayed message is still in flight.
    #[cfg(test)]
    pub(crate) fn has_in_flight(&self) -> bool {
        !self.in_flight.is_empty()
    }

    /// Records this round's lifecycle events among the block's nodes into
    /// `metrics`: two lookups in the per-round counts, however many nodes there
    /// are.
    pub(crate) fn record_lifecycle(&self, round: usize, metrics: &mut RoundMetrics) {
        metrics.crashed = self.crashes_at(round);
        metrics.joined = self.join_count_at(round);
    }

    /// The next word of the router's RNG, without drawing it.
    #[cfg(test)]
    pub(crate) fn peek_rng(&self) -> u64 {
        self.rng.clone().gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> NodeId {
        NodeId::from(i)
    }

    #[test]
    fn clean_plan_is_clean() {
        assert!(FaultPlan::default().is_clean());
        assert!(!FaultPlan::default().with_drop_prob(0.1).is_clean());
        assert!(!FaultPlan::default().with_crash(id(0), 3).is_clean());
    }

    #[test]
    fn validate_rejects_out_of_range_nodes() {
        assert!(FaultPlan::default()
            .with_crash(id(9), 1)
            .validate(4)
            .is_err());
        assert!(FaultPlan::default()
            .with_join(id(9), 1)
            .validate(4)
            .is_err());
        assert!(FaultPlan::default()
            .with_partition(vec![id(9)], 0, 5)
            .validate(4)
            .is_err());
        assert!(FaultPlan::default()
            .with_crash(id(3), 1)
            .validate(4)
            .is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_probabilities() {
        let plan = FaultPlan {
            drop_prob: 1.5,
            ..FaultPlan::default()
        };
        assert!(plan.validate(4).is_err());
        let plan = FaultPlan {
            delay: Some(DelayModel {
                prob: 1.0,
                max_rounds: 0,
            }),
            ..FaultPlan::default()
        };
        assert!(plan.validate(4).is_err());
        let plan = FaultPlan {
            delay: Some(DelayModel {
                prob: -0.1,
                max_rounds: 2,
            }),
            ..FaultPlan::default()
        };
        assert!(plan.validate(4).is_err());
    }

    #[test]
    fn validate_rejects_crash_before_join() {
        let plan = FaultPlan::default()
            .with_join(id(1), 5)
            .with_crash(id(1), 3);
        assert!(plan.validate(4).is_err());
        let plan = FaultPlan::default()
            .with_join(id(1), 3)
            .with_crash(id(1), 7);
        assert!(plan.validate(4).is_ok());
    }

    #[test]
    fn liveness_windows() {
        let plan = FaultPlan::default()
            .with_join(id(1), 3)
            .with_crash(id(1), 7);
        let router: FaultRouter<u8> = FaultRouter::new(&plan, 4, 0..4, 1);
        assert!(!router.is_active(1, 0));
        assert!(!router.is_active(1, 2));
        assert!(router.is_active(1, 3));
        assert!(router.joins_at(1, 3));
        assert!(router.is_active(1, 6));
        assert!(!router.is_active(1, 7));
        assert!(router.is_crashed(1, 7));
        // Node 0 is always active.
        assert!(router.is_active(0, 0) && router.is_active(0, 100));
    }

    #[test]
    fn partition_cuts_cross_traffic_only_during_window() {
        let plan = FaultPlan::default().with_partition(vec![id(0), id(1)], 2, 5);
        let mut router: FaultRouter<u8> = FaultRouter::new(&plan, 4, 0..4, 1);
        // Cross-cut during the window: dropped.
        assert_eq!(
            router.route(id(0), id(2), 3),
            Route::Drop(DropCause::Partition)
        );
        assert_eq!(
            router.route(id(2), id(1), 2),
            Route::Drop(DropCause::Partition)
        );
        // Same side during the window: delivered.
        assert_eq!(router.route(id(0), id(1), 3), Route::Deliver);
        assert_eq!(router.route(id(2), id(3), 3), Route::Deliver);
        // Cross-cut outside the window: delivered.
        assert_eq!(router.route(id(0), id(2), 1), Route::Deliver);
        assert_eq!(router.route(id(0), id(2), 5), Route::Deliver);
    }

    #[test]
    fn messages_to_offline_nodes_are_dropped() {
        let plan = FaultPlan::default()
            .with_join(id(1), 4)
            .with_crash(id(2), 2);
        let mut router: FaultRouter<u8> = FaultRouter::new(&plan, 4, 0..4, 1);
        // Delivery at round 1 < join round 4.
        assert_eq!(
            router.route(id(0), id(1), 0),
            Route::Drop(DropCause::Offline)
        );
        // Delivery at round 4 == join round: the joiner runs `on_start` that
        // round and would never see the inbox, so the message is dropped too.
        assert_eq!(
            router.route(id(0), id(1), 3),
            Route::Drop(DropCause::Offline)
        );
        // Delivery at round 5, its first `on_round`: fine.
        assert_eq!(router.route(id(0), id(1), 4), Route::Deliver);
        // Delivery at round 2 == crash round: lost.
        assert_eq!(
            router.route(id(0), id(2), 1),
            Route::Drop(DropCause::Offline)
        );
        assert_eq!(router.route(id(0), id(2), 0), Route::Deliver);
    }

    #[test]
    fn drop_prob_one_loses_everything_and_zero_nothing() {
        let mut lossy: FaultRouter<u8> =
            FaultRouter::new(&FaultPlan::default().with_drop_prob(1.0), 2, 0..2, 1);
        let mut clean: FaultRouter<u8> = FaultRouter::new(&FaultPlan::default(), 2, 0..2, 1);
        for r in 0..50 {
            assert_eq!(lossy.route(id(0), id(1), r), Route::Drop(DropCause::Fault));
            assert_eq!(clean.route(id(0), id(1), r), Route::Deliver);
        }
    }

    #[test]
    fn delays_buffer_and_release() {
        let plan = FaultPlan::default().with_delays(1.0, 3);
        let mut router: FaultRouter<u8> = FaultRouter::new(&plan, 2, 0..2, 1);
        let mut seen = 0;
        for _ in 0..20 {
            match router.route(id(0), id(1), 10) {
                Route::Delay(r) => {
                    assert!((12..=14).contains(&r), "delay out of range: {r}");
                    router.buffer(
                        r,
                        id(1),
                        Envelope {
                            from: id(0),
                            channel: crate::Channel::Global,
                            payload: 0u8,
                        },
                    );
                    seen += 1;
                }
                other => panic!("expected delay, got {other:?}"),
            }
        }
        assert_eq!(seen, 20);
        assert!(router.has_in_flight());
        let mut total = 0;
        for r in 12..=14 {
            router.drain_due(r, |_, _| total += 1);
        }
        assert_eq!(total, 20);
        assert!(!router.has_in_flight());
        router.drain_due(15, |_, _| panic!("nothing is due at round 15"));
    }

    #[test]
    fn drain_due_delivers_everything_and_recycles_the_buffer() {
        let plan = FaultPlan::default().with_delays(1.0, 1);
        let mut router: FaultRouter<u8> = FaultRouter::new(&plan, 2, 0..2, 1);
        let env = |payload: u8| Envelope {
            from: id(0),
            channel: crate::Channel::Global,
            payload,
        };
        for p in 0..5u8 {
            router.buffer(3, id(1), env(p));
        }
        let mut seen = Vec::new();
        router.drain_due(3, |to, e| seen.push((to, e.payload)));
        assert_eq!(seen.len(), 5);
        assert!(seen.iter().all(|(to, _)| *to == id(1)));
        assert!(!router.has_in_flight());
        // The emptied buffer is recycled: buffering for a fresh round reuses it
        // instead of allocating (observable via its retained capacity).
        assert_eq!(router.spare.len(), 1);
        let recycled_cap = router.spare[0].capacity();
        assert!(recycled_cap >= 5);
        router.buffer(7, id(1), env(9));
        assert!(router.spare.is_empty());
        assert!(router.in_flight[&7].capacity() >= recycled_cap);
        // Draining a round with nothing due is a no-op.
        router.drain_due(4, |_, _| panic!("nothing is due at round 4"));
    }

    #[test]
    fn windowed_loss_spares_rounds_before_the_window() {
        let plan = FaultPlan::default().with_drop_prob_from(1.0, 5);
        let mut router: FaultRouter<u8> = FaultRouter::new(&plan, 2, 0..2, 1);
        for r in 0..5 {
            assert_eq!(router.route(id(0), id(1), r), Route::Deliver);
        }
        for r in 5..20 {
            assert_eq!(router.route(id(0), id(1), r), Route::Drop(DropCause::Fault));
        }
    }

    #[test]
    fn unwindowed_loss_keeps_the_pre_window_rng_stream() {
        // `with_drop_prob` and `with_drop_prob_from(p, 0)` must be routing-identical:
        // the window check happens before the RNG roll, so a zero window consumes
        // exactly the same random sequence as the historical unconditional check.
        let route_all = |plan: FaultPlan| -> Vec<Route> {
            let mut router: FaultRouter<u8> = FaultRouter::new(&plan, 4, 0..4, 9);
            (0..200)
                .map(|i| router.route(id(i % 4), id((i + 1) % 4), i))
                .collect()
        };
        assert_eq!(
            route_all(FaultPlan::default().with_drop_prob(0.3)),
            route_all(FaultPlan::default().with_drop_prob_from(0.3, 0)),
        );
    }

    #[test]
    fn shifted_rebases_the_loss_window() {
        let plan = FaultPlan::default().with_drop_prob_from(0.2, 15);
        assert_eq!(plan.shifted(10).loss_from, 5);
        assert_eq!(plan.shifted(20).loss_from, 0);
        assert_eq!(plan.shifted(20).drop_prob, 0.2);
    }

    #[test]
    fn routing_is_deterministic_per_seed() {
        let plan = FaultPlan::default().with_drop_prob(0.3).with_delays(0.5, 4);
        let route_all = |seed: u64| -> Vec<Route> {
            let mut router: FaultRouter<u8> = FaultRouter::new(&plan, 8, 0..8, seed);
            (0..200)
                .map(|i| router.route(id(i % 8), id((i + 1) % 8), i))
                .collect()
        };
        assert_eq!(route_all(7), route_all(7));
        assert_ne!(route_all(7), route_all(8));
    }

    #[test]
    fn shifted_rebases_the_timeline() {
        let plan = FaultPlan::default()
            .with_drop_prob(0.1)
            .with_crash(id(0), 5)
            .with_join(id(1), 3)
            .with_join(id(2), 12)
            .with_partition(vec![id(0)], 2, 6)
            .with_partition(vec![id(1)], 8, 14);
        let s = plan.shifted(10);
        assert_eq!(s.drop_prob, 0.1);
        // Crash already happened: pinned at round 0.
        assert_eq!(
            s.crashes,
            vec![CrashEvent {
                round: 0,
                node: id(0)
            }]
        );
        // Join at 3 already happened and disappears; join at 12 becomes 2.
        assert_eq!(
            s.joins,
            vec![JoinEvent {
                round: 2,
                node: id(2)
            }]
        );
        // First partition healed; second clipped to [0, 4).
        assert_eq!(s.partitions.len(), 1);
        assert_eq!(
            (s.partitions[0].from_round, s.partitions[0].heal_round),
            (0, 4)
        );
    }

    #[test]
    fn crash_round_zero_means_never_active() {
        let plan = FaultPlan::default().with_crash(id(1), 0);
        let router: FaultRouter<u8> = FaultRouter::new(&plan, 2, 0..2, 1);
        assert!(!router.is_active(1, 0));
        assert!(!router.is_active(1, 50));
        assert!(router.is_active(0, 0));
    }

    proptest::proptest! {
        /// The per-round counts made at construction against a recount of the
        /// plan over the block's nodes: a node counts once, at its earliest
        /// crash and at its latest join. Plans repeat crashes and joins of one
        /// node and place them inside and outside the block; a crash at or
        /// before one of the node's joins is dropped, as `validate` demands.
        #[test]
        fn lifecycle_counts_are_a_recount_of_the_plan(
            n in 1usize..7,
            ends in (0usize..7, 0usize..7),
            crashes in proptest::collection::vec((0usize..7, 0usize..12), 0..10),
            joins in proptest::collection::vec((0usize..7, 1usize..12), 0..10),
        ) {
            let (a, b) = (ends.0 % (n + 1), ends.1 % (n + 1));
            let block = a.min(b)..a.max(b);
            let joins: Vec<JoinEvent> = (joins.iter())
                .map(|&(v, round)| JoinEvent { round, node: id(v % n) })
                .collect();
            let last_join = |v: usize| {
                joins.iter().filter(|j| j.node == id(v)).map(|j| j.round).max()
            };
            let crashes: Vec<CrashEvent> = (crashes.iter())
                .filter(|&&(v, round)| last_join(v % n).is_none_or(|j| j < round))
                .map(|&(v, round)| CrashEvent { round, node: id(v % n) })
                .collect();
            let crash_of = |v: usize| {
                crashes.iter().filter(|c| c.node == id(v)).map(|c| c.round).min()
            };
            let last = (crashes.iter().map(|c| c.round))
                .chain(joins.iter().map(|j| j.round))
                .max()
                .unwrap_or(0);
            let plan = FaultPlan {
                crashes: crashes.clone(),
                joins: joins.clone(),
                ..FaultPlan::default()
            };
            let router: FaultRouter<u8> = FaultRouter::new(&plan, n, block.clone(), 0);
            for r in 0..=last + 1 {
                let crashed = block.clone().filter(|&v| crash_of(v) == Some(r)).count();
                let joined = block.clone().filter(|&v| last_join(v) == Some(r)).count();
                proptest::prop_assert_eq!(router.crashes_at(r), crashed, "crashes at {}", r);
                proptest::prop_assert_eq!(router.join_count_at(r), joined, "joins at {}", r);
            }
        }
    }
}
