//! Property tests for netsim determinism under fault injection: identical seed +
//! config (including a `FaultPlan`) must produce byte-identical `RunMetrics`, and
//! the NCC0 receive cap must keep a deterministic seeded subset.

use overlay_networks::graph::NodeId;
use overlay_networks::netsim::{
    CapacityModel, Ctx, Envelope, FaultPlan, Protocol, RunMetrics, SimConfig, Simulator,
};
use proptest::prelude::*;

/// A deliberately chatty protocol: every node sends `fan_out` messages to a rotating
/// set of targets each round for `rounds` rounds, recording everything it receives.
#[derive(Debug)]
struct Chatter {
    me: usize,
    n: usize,
    fan_out: usize,
    rounds: usize,
    /// When set, every message targets node 0 (concentrated receive pressure, for
    /// exercising the NCC0 receive cap); otherwise targets rotate evenly.
    hot_spot: bool,
    received_from: Vec<usize>,
    done: bool,
}

impl Chatter {
    fn target(&self, k: usize, round: usize) -> NodeId {
        if self.hot_spot {
            NodeId::from(0usize)
        } else {
            NodeId::from((self.me + k + round + 1) % self.n)
        }
    }
}

impl Protocol for Chatter {
    type Message = u32;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        for k in 0..self.fan_out {
            let to = self.target(k, 0);
            ctx.send_global(to, k as u32);
        }
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[Envelope<u32>]) {
        for env in inbox {
            self.received_from.push(env.from.index());
        }
        if ctx.round() < self.rounds {
            let round = ctx.round();
            for k in 0..self.fan_out {
                let to = self.target(k, round);
                ctx.send_global(to, k as u32);
            }
        } else {
            self.done = true;
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

fn chatters(n: usize, fan_out: usize, rounds: usize, hot_spot: bool) -> Vec<Chatter> {
    (0..n)
        .map(|me| Chatter {
            me,
            n,
            fan_out,
            rounds,
            hot_spot,
            received_from: Vec::new(),
            done: false,
        })
        .collect()
}

/// Builds a fault plan from small generated knobs, exercising every fault kind.
fn plan_from(
    n: usize,
    drop_milli: u64,
    delay_milli: u64,
    crashes: &[usize],
    joins: &[usize],
    partition: bool,
) -> FaultPlan {
    let mut plan = FaultPlan::default().with_drop_prob(drop_milli as f64 / 1000.0);
    if delay_milli > 0 {
        plan = plan.with_delays(delay_milli as f64 / 1000.0, 3);
    }
    for (i, &c) in crashes.iter().enumerate() {
        // Skew crash rounds so several rounds are exercised; avoid node 0 so joins
        // and crashes never collide on the same node with an invalid schedule.
        plan = plan.with_crash(NodeId::from(1 + (c % (n - 1))), 2 + i % 5);
    }
    for &j in joins {
        let node = 1 + (j % (n - 1));
        if plan.crashes.iter().all(|c| c.node.index() != node) {
            plan = plan.with_join(NodeId::from(node), 1 + j % 4);
        }
    }
    if partition {
        plan = plan.with_partition((0..n / 2).map(NodeId::from).collect(), 2, 6);
    }
    plan
}

fn run_once(
    n: usize,
    seed: u64,
    plan: &FaultPlan,
    cap: usize,
    hot_spot: bool,
) -> (RunMetrics, Vec<Vec<usize>>) {
    let config = SimConfig {
        caps: CapacityModel::Ncc0 { per_round: cap },
        seed,
        local_edges: None,
        faults: plan.clone(),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(chatters(n, 3, 8, hot_spot), config);
    sim.run(40);
    let metrics = sim.metrics().clone();
    let inbox_log = sim
        .nodes()
        .iter()
        .map(|c| c.received_from.clone())
        .collect();
    (metrics, inbox_log)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn identical_seed_and_fault_plan_give_byte_identical_metrics(
        n in 8usize..24,
        seed in 0u64..10_000,
        drop_milli in 0u64..400,
        delay_milli in 0u64..400,
        crashes in proptest::collection::vec(0usize..1000, 0..4),
        joins in proptest::collection::vec(0usize..1000, 0..4),
    ) {
        let plan = plan_from(n, drop_milli, delay_milli, &crashes, &joins, n >= 12);
        let (metrics_a, log_a) = run_once(n, seed, &plan, 6, false);
        let (metrics_b, log_b) = run_once(n, seed, &plan, 6, false);
        // Byte-identical: every per-round counter, every per-node total, and even the
        // order in which each node saw its messages.
        prop_assert_eq!(&metrics_a, &metrics_b);
        prop_assert_eq!(&log_a, &log_b);
        // And the fault accounting balances: nothing is both delivered and dropped.
        let sent: u64 = metrics_a.total_sent_per_node.iter().sum();
        // `sent` counts what passed the send-side caps, so those drops stay out.
        let totals = metrics_a.totals();
        let accounted = totals.delivered + totals.dropped() - totals.dropped_send;
        // Delayed messages still in flight when the run stops are the only gap.
        prop_assert!(accounted <= sent);
        prop_assert!(sent - accounted <= totals.delayed);
    }

    #[test]
    fn different_seeds_change_fault_outcomes(
        n in 8usize..20,
        seed in 0u64..10_000,
    ) {
        let plan = FaultPlan::default().with_drop_prob(0.3);
        let (a, _) = run_once(n, seed, &plan, 6, false);
        let (b, _) = run_once(n, seed.wrapping_add(1), &plan, 6, false);
        // With 30% loss over hundreds of messages, two seeds virtually never agree
        // on the exact drop count; allow the rare tie on totals but require the
        // detailed metrics to differ.
        prop_assert!(a != b);
    }

    #[test]
    fn dropped_receive_equals_the_per_round_overflow(
        n in 8usize..24,
        fan_out in 1usize..4,
        cap in 2usize..40,
        seed in 0u64..10_000,
    ) {
        // Every node beams `fan_out` global messages at node 0 each round, so node
        // 0's pre-cap inbox holds exactly `n * fan_out` globals in every message
        // round and nobody else receives anything. The arena-based cap logic must
        // drop exactly the overflow: sum over inboxes of max(0, globals - cap).
        let rounds = 6usize;
        let config = SimConfig {
            caps: CapacityModel::Ncc0 { per_round: cap },
            seed,
            local_edges: None,
            faults: FaultPlan::default(),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(chatters(n, fan_out, rounds, true), config);
        sim.run(40);
        let metrics = sim.metrics();
        let arrivals = (n * fan_out) as u64;
        let overflow = arrivals.saturating_sub(cap as u64);
        prop_assert_eq!(metrics.per_round.len(), rounds + 1, "start + message rounds");
        // The start round delivers nothing and therefore drops nothing.
        prop_assert_eq!(metrics.per_round[0].dropped_receive, 0);
        prop_assert_eq!(metrics.per_round[0].delivered, 0);
        for r in 1..=rounds {
            prop_assert_eq!(
                metrics.per_round[r].dropped_receive, overflow,
                "round {} dropped != overflow", r
            );
            prop_assert_eq!(
                metrics.per_round[r].delivered, arrivals - overflow,
                "round {} delivered != min(arrivals, cap)", r
            );
        }
        prop_assert_eq!(metrics.totals().dropped_receive, rounds as u64 * overflow);
    }

    #[test]
    fn ncc0_receive_cap_keeps_a_deterministic_seeded_subset(
        n in 10usize..24,
        seed in 0u64..10_000,
        cap in 2usize..5,
    ) {
        // No faults: this isolates the receive-cap drop path.
        let (metrics_a, log_a) = run_once(n, seed, &FaultPlan::default(), cap, true);
        let (_, log_b) = run_once(n, seed, &FaultPlan::default(), cap, true);
        // The kept subset is deterministic given the seed...
        prop_assert_eq!(&log_a, &log_b);
        // ...the cap is a hard bound...
        prop_assert!(metrics_a.totals().max_received <= cap);
        // ...and with every node beaming at node 0, something must have dropped.
        prop_assert!(metrics_a.totals().dropped_receive > 0);
        // A different seed keeps a different subset (w.h.p. across the run).
        let (_, log_c) = run_once(n, seed.wrapping_add(7), &FaultPlan::default(), cap, true);
        prop_assert!(log_a != log_c);
    }
}
