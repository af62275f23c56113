//! Property tests for the reliable-transport layer: seeded determinism,
//! exactly-once delivery to the wrapped protocol, and loss-free transparency
//! (the wrapped protocol's RNG stream — and the scenario-level outcome — must be
//! unchanged from the unwrapped baseline when nothing is ever lost).

use overlay_networks::core::{ExpanderNode, ExpanderParams};
use overlay_networks::graph::{generators, NodeId};
use overlay_networks::netsim::{
    CapacityModel, Ctx, Envelope, FaultPlan, Protocol, SimConfig, Simulator,
};
use overlay_networks::scenarios::{FaultSpec, GraphFamily, Scenario, TransportConfig};
use overlay_networks::transport::Reliable;
use proptest::prelude::*;

/// Every node fires `burst` uniquely-tagged messages at a rotating target each
/// round for `rounds` rounds and records everything it receives.
#[derive(Debug)]
struct Tagger {
    me: NodeId,
    n: usize,
    burst: usize,
    rounds: usize,
    received: Vec<(usize, u64)>,
    done: bool,
}

impl Tagger {
    fn fleet(n: usize, burst: usize, rounds: usize) -> Vec<Tagger> {
        (0..n)
            .map(|me| Tagger {
                me: NodeId::from(me),
                n,
                burst,
                rounds,
                received: Vec::new(),
                done: false,
            })
            .collect()
    }

    fn fire(&self, ctx: &mut Ctx<'_, u64>, round: usize) {
        for k in 0..self.burst {
            let to = NodeId::from((self.me.index() + k + 1) % self.n);
            let tag = u64::from(self.me.raw()) << 40 | (round as u64) << 20 | k as u64;
            ctx.send_global(to, tag);
        }
    }
}

impl Protocol for Tagger {
    type Message = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.fire(ctx, 0);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Envelope<u64>]) {
        for env in inbox {
            self.received.push((env.from.index(), env.payload));
        }
        if ctx.round() < self.rounds {
            let round = ctx.round();
            self.fire(ctx, round);
        } else {
            self.done = true;
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Every tag the fleet ever fires, sorted (the exactly-once reference multiset).
fn every_tag(n: usize, burst: usize, rounds: usize) -> Vec<u64> {
    let mut tags = Vec::new();
    for me in 0..n as u64 {
        for round in 0..rounds {
            for k in 0..burst {
                tags.push(me << 40 | (round as u64) << 20 | k as u64);
            }
        }
    }
    tags.sort_unstable();
    tags
}

fn run_reliable(
    n: usize,
    seed: u64,
    drop_milli: u64,
    delay_milli: u64,
) -> (Vec<Vec<(usize, u64)>>, overlay_networks::netsim::RunMetrics) {
    let mut faults = FaultPlan::default().with_drop_prob(drop_milli as f64 / 1000.0);
    if delay_milli > 0 {
        faults = faults.with_delays(delay_milli as f64 / 1000.0, 3);
    }
    let config = SimConfig {
        caps: CapacityModel::Unbounded,
        seed,
        local_edges: None,
        faults,
        ..SimConfig::default()
    };
    let nodes: Vec<_> = Tagger::fleet(n, 2, 4)
        .into_iter()
        .map(|t| Reliable::new(t, TransportConfig::default()))
        .collect();
    let mut sim = Simulator::new(nodes, config);
    sim.run(400);
    let received = sim
        .nodes()
        .iter()
        .map(|r| r.inner().received.clone())
        .collect();
    (received, sim.metrics().clone())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        .. ProptestConfig::default()
    })]

    #[test]
    fn seeded_reliable_runs_are_byte_identical_across_repeats(
        n in 4usize..12,
        seed in 0u64..10_000,
        drop_milli in 0u64..400,
        delay_milli in 0u64..300,
    ) {
        let a = run_reliable(n, seed, drop_milli, delay_milli);
        let b = run_reliable(n, seed, drop_milli, delay_milli);
        // Byte-identical: every inbox sequence of every node, and every per-round
        // counter including the new transport metrics.
        prop_assert_eq!(&a.0, &b.0);
        prop_assert_eq!(&a.1, &b.1);
    }

    #[test]
    fn duplicate_suppression_never_delivers_a_payload_twice(
        n in 4usize..12,
        seed in 0u64..10_000,
        drop_milli in 100u64..450,
    ) {
        // Loss forces retransmission; lost acks force *duplicate* data. The inner
        // protocol must still see every payload exactly once.
        let (received, metrics) = run_reliable(n, seed, drop_milli, 0);
        let mut seen: Vec<u64> = received.iter().flatten().map(|&(_, tag)| tag).collect();
        seen.sort_unstable();
        let mut deduped = seen.clone();
        deduped.dedup();
        prop_assert_eq!(&seen, &deduped, "a payload reached a protocol twice");
        prop_assert_eq!(seen, every_tag(n, 2, 4), "at-least-once + dedup = exactly once");
        // The network did carry duplicates whenever it dropped acks; they are
        // accounted, not hidden.
        prop_assert!(metrics.total_retransmits() > 0 || metrics.total_dropped_fault() == 0);
    }

    #[test]
    fn loss_free_wrapped_runs_preserve_the_inner_rng_stream(
        seed in 0u64..10_000,
    ) {
        // The construction protocol is RNG-heavy (token walks, accept shuffles):
        // if the adapter consumed or reordered any randomness, or perturbed any
        // inbox, the final slot lists would diverge. They must be byte-identical.
        let n = 32;
        let params = ExpanderParams {
            seed,
            evolutions: 4,
            ..ExpanderParams::for_n(n).with_walk_len(8)
        };
        let g = generators::cycle(n);
        let make_nodes = || -> Vec<ExpanderNode> {
            g.nodes()
                .map(|v| ExpanderNode::new(v, g.out_neighbors(v).to_vec(), params))
                .collect()
        };
        let config = SimConfig {
            caps: CapacityModel::Ncc0 { per_round: params.ncc0_cap },
            seed,
            local_edges: None,
            faults: FaultPlan::default(),
            ..SimConfig::default()
        };
        let budget = ExpanderNode::total_rounds(&params) + 4;

        let mut bare = Simulator::new(make_nodes(), config.clone());
        prop_assert!(bare.run(budget).all_done);

        let wrapped_nodes: Vec<_> = make_nodes()
            .into_iter()
            .map(|p| Reliable::new(p, TransportConfig::default()))
            .collect();
        let mut wrapped = Simulator::new(wrapped_nodes, config);
        prop_assert!(wrapped.run(budget).all_done);
        prop_assert_eq!(wrapped.metrics().total_retransmits(), 0);
        prop_assert_eq!(wrapped.metrics().total_dupes_dropped(), 0);

        for (b, w) in bare.nodes().iter().zip(wrapped.nodes()) {
            prop_assert_eq!(b.slots(), w.inner().slots(), "node {:?} diverged", b.id());
        }
    }
}

/// Scenario-level transparency: a reliable twin of a *loss-free* scenario
/// reproduces the bare scenario's protocol-level outcome on every seed — same
/// tree, same coverage, same construction rounds modulo the final ack drain —
/// and its sweep JSON differs from the baseline's only in the declared transport
/// fields and the ack accounting.
#[test]
fn loss_rate_zero_twin_matches_the_unwrapped_sweep() {
    let bare = Scenario::new(
        "bare-clean",
        "clean cycle, bare sends",
        GraphFamily::Cycle,
        48,
    )
    .with_faults(FaultSpec::Lossy { drop_prob: 0.0 });
    let twin = bare
        .reliable(TransportConfig::default(), 12)
        .renamed("reliable-clean")
        .describe("clean cycle, reliable transport");
    for seed in 0..6u64 {
        let b = bare.run(seed);
        let t = twin.run(seed);
        // Identical protocol-level outcome (the inner RNG streams never diverged).
        assert!(b.success && t.success, "seed {seed}");
        assert_eq!(b.coverage, t.coverage, "seed {seed}");
        assert_eq!(b.core_size, t.core_size, "seed {seed}");
        assert_eq!(b.tree_height, t.tree_height, "seed {seed}");
        assert_eq!(b.tree_degree, t.tree_degree, "seed {seed}");
        // The transport's only trace is ack traffic and the per-phase ack drain.
        assert_eq!(t.messages.retransmits, 0, "seed {seed}");
        assert_eq!(t.messages.dupes_dropped, 0, "seed {seed}");
        assert!(t.messages.acks > 0, "seed {seed}");
        assert_eq!(b.messages.retransmits, 0);
        assert_eq!(b.messages.acks, 0);
        assert!(
            t.rounds <= b.rounds + 3,
            "seed {seed}: drain cost {} -> {}",
            b.rounds,
            t.rounds
        );
    }
}
