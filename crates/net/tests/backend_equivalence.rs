//! The crate's central claim, enforced: per seed, every backend constructs
//! the same final overlay graph.
//!
//! Every backend runs the simulator's own round on the block of nodes it
//! owns, so what these tests pin is the medium: the channel backend (one rank
//! owning every node, where no message becomes a frame) and the TCP backend
//! (processes meshed over loopback sockets — realized as threads sharing
//! nothing but their sockets here, every cross-rank message a frame) must
//! reproduce the simulator's expander edges, BFS parents, binarized tree,
//! round counts and delivered-message totals exactly. Under the debug
//! profile the simulator's and `Reliable<P>`'s contracts run inside every
//! rank.

use overlay_core::{
    ExecutedPhase, ExpanderParams, OverlayBuilder, OverlayResult, Phase, PhaseExecSpec,
    PhaseExecutor, PhaseId, SimExecutor,
};
use overlay_graph::{generators, DiGraph, NodeId};
use overlay_net::{ChannelBackend, NetRunner, TcpBackend, TcpHost};
use overlay_netsim::{FaultPlan, TransportConfig};
use overlay_traffic::{hop_rows, Router, RouterConfig, RouterSummary, Workload};
use std::time::Duration;

/// Runs `on_rank` on every rank of a loopback TCP mesh of `procs` processes
/// over `n` nodes (threads sharing nothing but their sockets), in rank order.
fn on_every_rank<T: Send>(
    n: usize,
    procs: usize,
    seed: u64,
    on_rank: impl Fn(TcpBackend) -> T + Sync,
) -> Vec<T> {
    let host = TcpHost::bind("127.0.0.1:0").expect("bind");
    let addr = host.local_addr().expect("local addr").to_string();
    let timeout = Duration::from_secs(30);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        handles
            .push(scope.spawn(|| on_rank(host.accept(procs, n, seed, timeout).expect("accept"))));
        for _ in 1..procs {
            handles.push(scope.spawn(|| on_rank(TcpBackend::join(&addr, timeout).expect("join"))));
        }
        (handles.into_iter())
            .map(|h| h.join().expect("rank thread"))
            .collect()
    })
}

fn builder(n: usize, seed: u64) -> OverlayBuilder {
    OverlayBuilder::new(ExpanderParams::for_n(n).with_seed(seed))
}

/// A low-degree connected graph family, varied by seed.
fn knowledge_graph(n: usize, seed: u64) -> DiGraph {
    match seed % 3 {
        0 => generators::line(n),
        1 => generators::cycle(n),
        _ => generators::binary_tree(n),
    }
}

fn assert_same_overlay(context: &str, model: &OverlayResult, subject: &OverlayResult) {
    assert_eq!(
        subject.expander.edge_count(),
        model.expander.edge_count(),
        "{context}: expander edge counts diverged"
    );
    for v in model.expander.nodes() {
        assert_eq!(
            subject.expander.neighbors(v),
            model.expander.neighbors(v),
            "{context}: expander neighborhoods of {v:?} diverged"
        );
    }
    assert_eq!(
        subject.bfs_parents, model.bfs_parents,
        "{context}: BFS parents diverged"
    );
    assert_eq!(subject.tree.node_count(), model.tree.node_count());
    for v in (0..model.tree.node_count()).map(NodeId::from) {
        assert_eq!(
            subject.tree.parent(v),
            model.tree.parent(v),
            "{context}: tree parents of {v:?} diverged"
        );
    }
    assert_eq!(
        (
            subject.rounds.construction,
            subject.rounds.bfs,
            subject.rounds.finalize
        ),
        (
            model.rounds.construction,
            model.rounds.bfs,
            model.rounds.finalize
        ),
        "{context}: round counts diverged"
    );
    assert_eq!(
        subject.messages.total_delivered, model.messages.total_delivered,
        "{context}: delivered totals diverged"
    );
}

#[test]
fn channel_backend_matches_the_simulator_across_seeds() {
    for seed in 0u64..16 {
        let n = 32 + (seed as usize % 4) * 16; // 32, 48, 64, 80
        let g = knowledge_graph(n, seed);
        let b = builder(n, seed);
        let model = b
            .build_over(&g, &mut SimExecutor::default())
            .unwrap_or_else(|e| panic!("seed {seed}: simulator build failed: {e}"));
        let mut runner = NetRunner::new(ChannelBackend::new(n));
        let subject = b
            .build_over(&g, &mut runner)
            .unwrap_or_else(|e| panic!("seed {seed}: channel build failed: {e}"));
        assert_same_overlay(&format!("n={n} seed={seed}"), &model, &subject);
    }
}

#[test]
fn channel_backend_matches_the_classic_build_entry_point() {
    let n = 64;
    let g = generators::line(n);
    let b = builder(n, 5);
    let direct = b.build(&g).expect("build");
    let mut runner = NetRunner::new(ChannelBackend::new(n));
    let subject = b.build_over(&g, &mut runner).expect("channel build");
    assert_same_overlay("build() vs channel", &direct, &subject);
}

/// A fault plan runs on the rank that owns every node, and it is the
/// simulator's run: crashes, loss and delays, bare and behind the reliable
/// transport.
#[test]
fn channel_backend_runs_fault_plans_as_the_simulator_does() {
    let n = 48;
    let g = generators::line(n);
    let params = ExpanderParams::for_n(n).with_seed(9);
    let crash = FaultPlan::default()
        .with_crash(NodeId::from(7usize), 3)
        .with_crash(NodeId::from(30usize), 11);
    // (label, plan, nodes the plan leaves dead)
    let plans = [
        ("crash", crash.clone(), 2),
        ("loss", FaultPlan::default().with_drop_prob(0.05), 0),
        ("delays", FaultPlan::default().with_delays(0.1, 3), 0),
        (
            "all three",
            crash.with_drop_prob(0.05).with_delays(0.1, 3),
            2,
        ),
    ];
    for (label, plan, dead) in plans {
        for transport in [None, Some(TransportConfig::default())] {
            let phase = || Phase::create_expander(&g, &params, plan.clone());
            let spec = PhaseExecSpec {
                seed: params.seed,
                ncc0_cap: params.ncc0_cap,
                budget: 2 * phase().clean_rounds(),
                transport,
            };
            let model = SimExecutor::default()
                .execute(phase(), spec)
                .expect("the simulator cannot fail");
            let subject = NetRunner::new(ChannelBackend::new(n))
                .execute(phase(), spec)
                .unwrap_or_else(|e| panic!("{label}: channel run failed: {e}"));
            let context = format!("{label}, reliable: {}", transport.is_some());
            assert_eq!(
                model.alive.iter().filter(|&&a| !a).count(),
                dead,
                "{context}"
            );
            assert_eq!(subject.summaries, model.summaries, "{context}");
            assert_eq!(subject.alive, model.alive, "{context}");
            assert_eq!(subject.rounds, model.rounds, "{context}");
            assert_eq!(subject.all_done, model.all_done, "{context}");
            assert_eq!(subject.delivered, model.delivered, "{context}");
        }
    }
}

/// The `Router` traffic phase over `overlay`'s expander, pre-scheduled with a
/// seeded workload: a constructor (every executor consumes its own copy of
/// the nodes) and the run parameters.
fn traffic_phase(
    overlay: &OverlayResult,
    n: usize,
    seed: u64,
) -> (impl Fn() -> Phase<Router>, PhaseExecSpec) {
    // Alternate the workload shape with the seed so both the uniform and
    // the congested hotspot traffic patterns cross the real channels.
    let workload = match seed % 2 {
        0 => Workload::Uniform,
        _ => Workload::Hotspot,
    };
    let config = RouterConfig {
        ttl: 16,
        queue_cap: 32,
        per_round_budget: 4,
    };
    let rows = hop_rows(&overlay.expander);
    let schedule = workload.schedule(n, 4, 8, seed ^ 0x7AF1);
    let routers = move || -> Vec<Router> {
        rows.iter()
            .zip(&schedule)
            .enumerate()
            .map(|(v, (row, reqs))| Router::new(NodeId::from(v), row.clone(), reqs.clone(), config))
            .collect()
    };
    let budget = (8 + 16) * 2 + 16;
    let spec = PhaseExecSpec {
        seed: seed.wrapping_add(PhaseId::Traffic.index() as u64),
        ncc0_cap: 4096, // over-provisioned: congestion stays in the router queues
        budget,
        transport: None,
    };
    let phase =
        move || Phase::from_parts(PhaseId::Traffic, routers(), budget, FaultPlan::default());
    (phase, spec)
}

/// The traffic half of the contract: the same `Router` nodes, pre-scheduled
/// with the same workload over the simulator-built overlay, must produce
/// identical delivery *sets* — the per-node summaries carry the exact delivery
/// ledgers (request ids, hops, injection and arrival rounds), so equality here
/// is stronger than matching counts.
#[test]
fn router_traffic_over_channel_backend_matches_the_simulator_across_seeds() {
    for seed in 0u64..16 {
        let n = 32 + (seed as usize % 4) * 16; // 32, 48, 64, 80
        let g = knowledge_graph(n, seed);
        let overlay = builder(n, seed)
            .build_over(&g, &mut SimExecutor::default())
            .unwrap_or_else(|e| panic!("seed {seed}: simulator build failed: {e}"));
        let (phase, spec) = traffic_phase(&overlay, n, seed);
        let model: ExecutedPhase<RouterSummary> = SimExecutor::default()
            .execute(phase(), spec)
            .expect("simulator traffic is infallible");
        let mut runner = NetRunner::new(ChannelBackend::new(n));
        let subject = runner
            .execute(phase(), spec)
            .unwrap_or_else(|e| panic!("seed {seed}: channel traffic failed: {e}"));
        assert_eq!(
            model.summaries, subject.summaries,
            "n={n} seed={seed}: delivery ledgers diverged"
        );
        assert_eq!(model.alive, subject.alive, "n={n} seed={seed}");
        assert_eq!(model.rounds, subject.rounds, "n={n} seed={seed}");
        assert_eq!(model.all_done, subject.all_done, "n={n} seed={seed}");
        let delivered: usize = model.summaries.iter().map(|s| s.deliveries.len()).sum();
        assert!(delivered > 0, "n={n} seed={seed}: nothing was delivered");
    }
}

/// What one rank of the loopback mesh brings back: two consecutive builds,
/// one traffic phase and a build behind the reliable transport, all over the
/// same sockets.
type RankRun = (
    OverlayResult,
    OverlayResult,
    ExecutedPhase<RouterSummary>,
    OverlayResult,
);

#[test]
fn tcp_loopback_matches_the_simulator() {
    // An even partition, then an uneven one (17 nodes over 3 ranks: 5, 6, 6).
    for (n, procs) in [(16, 4), (17, 3)] {
        let seed = 2;
        let g = knowledge_graph(n, seed);
        let b = builder(n, seed);
        let model = b
            .build_over(&g, &mut SimExecutor::default())
            .expect("simulator build");
        let reliable = b.with_reliable_transport(TransportConfig::default());
        let reliable_model = reliable
            .build_over(&g, &mut SimExecutor::default())
            .expect("simulator build behind the transport");
        let (phase, spec) = traffic_phase(&model, n, seed);
        let traffic_model: ExecutedPhase<RouterSummary> = SimExecutor::default()
            .execute(phase(), spec)
            .expect("simulator traffic is infallible");

        // Phase tags repeat across the two builds: the second must not see
        // what the first one's final rounds left on the wire.
        let results = on_every_rank(n, procs, seed, |backend| -> RankRun {
            let mut runner = NetRunner::new(backend);
            let first = b.build_over(&g, &mut runner).expect("first build");
            let second = b.build_over(&g, &mut runner).expect("second build");
            let traffic = runner.execute(phase(), spec).expect("traffic phase");
            let wrapped = reliable
                .build_over(&g, &mut runner)
                .expect("build behind the transport");
            runner.shutdown().expect("shutdown");
            (first, second, traffic, wrapped)
        });

        // Every process derives the identical overlay from the all-gathered
        // summaries, and it matches the simulator's.
        for (rank, (subject, second, traffic, wrapped)) in results.into_iter().enumerate() {
            assert_same_overlay(&format!("tcp rank {rank}"), &model, &subject);
            let context = format!("n={n} procs={procs} rank {rank}");
            assert_same_overlay(&format!("{context}, second build"), &model, &second);
            assert_eq!(
                traffic_model.summaries, traffic.summaries,
                "{context}: delivery ledgers diverged"
            );
            assert_eq!(traffic_model.rounds, traffic.rounds, "{context}");
            assert_eq!(traffic_model.all_done, traffic.all_done, "{context}");
            assert_eq!(traffic_model.delivered, traffic.delivered, "{context}");
            assert_same_overlay(&format!("{context}, reliable"), &reliable_model, &wrapped);
        }
    }
}

/// A rank that owns no node still steps every round's barrier and gathers
/// every summary: 3 nodes over 4 ranks, where rank 0's block is empty.
#[test]
fn tcp_rank_that_owns_no_node_matches_the_simulator() {
    let (n, procs, seed) = (3, 4, 1);
    let g = knowledge_graph(n, seed);
    let b = builder(n, seed);
    let model = b
        .build_over(&g, &mut SimExecutor::default())
        .expect("simulator build");
    let results = on_every_rank(n, procs, seed, |backend| {
        let mut runner = NetRunner::new(backend);
        let built = b.build_over(&g, &mut runner).expect("build");
        runner.shutdown().expect("shutdown");
        built
    });
    for (rank, subject) in results.iter().enumerate() {
        assert_same_overlay(&format!("n={n} procs={procs} rank {rank}"), &model, subject);
    }
}

/// Every decision about a node is taken by the rank that owns it, so a
/// scheduled fault plan — crashes, late joins, a partition window, and all
/// three — runs on ranks that each own part of the run, bare and behind the
/// reliable transport, and so does a cap low enough that inboxes evict. Every
/// rank reports the simulator's summaries, liveness, rounds, stop and
/// delivered total.
#[test]
fn tcp_ranks_run_scheduled_fault_plans_as_the_simulator_does() {
    let id = NodeId::from;
    let crashes = FaultPlan::default()
        .with_crash(id(5usize), 3)
        .with_crash(id(12usize), 9);
    let joins = FaultPlan::default()
        .with_join(id(2usize), 4)
        .with_join(id(14usize), 6);
    let side: Vec<NodeId> = (0..6usize).map(id).collect();
    let partition = FaultPlan::default().with_partition(side.clone(), 2, 7);
    let all_three = FaultPlan {
        joins: joins.joins.clone(),
        ..crashes.clone()
    }
    .with_partition(side, 2, 7);
    let mut runs: Vec<(&str, FaultPlan, Option<TransportConfig>, Option<usize>)> = Vec::new();
    for (label, plan) in [
        ("crashes", crashes),
        ("joins", joins),
        ("partition", partition),
        ("all three", all_three.clone()),
    ] {
        for transport in [None, Some(TransportConfig::default())] {
            runs.push((label, plan.clone(), transport, None));
        }
    }
    runs.push(("all three, evicting", all_three, None, Some(2)));

    for (n, procs) in [(16, 4), (17, 3)] {
        let seed = 4;
        let g = knowledge_graph(n, seed);
        let params = ExpanderParams::for_n(n).with_seed(seed);
        let phase = |plan: &FaultPlan| Phase::create_expander(&g, &params, plan.clone());
        let spec = |transport, cap: Option<usize>| PhaseExecSpec {
            seed: params.seed,
            ncc0_cap: cap.unwrap_or(params.ncc0_cap),
            budget: 2 * phase(&FaultPlan::default()).clean_rounds(),
            transport,
        };
        let models: Vec<ExecutedPhase<Vec<NodeId>>> = (runs.iter())
            .map(|(label, plan, transport, cap)| {
                let (model, detail) = SimExecutor::default()
                    .execute_detailed(phase(plan), spec(*transport, *cap), None)
                    .expect("the simulator cannot fail");
                let metrics = detail.expect("the simulator's books").metrics;
                assert_eq!(
                    metrics.totals().dropped_receive > 0,
                    cap.is_some(),
                    "n={n} {label}: only the low cap evicts"
                );
                model
            })
            .collect();
        let results = on_every_rank(n, procs, seed, |backend| {
            let mut runner = NetRunner::new(backend);
            let executed: Vec<_> = (runs.iter())
                .map(|(label, plan, transport, cap)| {
                    (runner.execute(phase(plan), spec(*transport, *cap)))
                        .unwrap_or_else(|e| panic!("{label}: rank run failed: {e}"))
                })
                .collect();
            runner.shutdown().expect("shutdown");
            executed
        });
        for (rank, executed) in results.iter().enumerate() {
            for ((label, _, transport, _), (model, subject)) in
                runs.iter().zip(models.iter().zip(executed))
            {
                let context = format!(
                    "n={n} procs={procs} rank {rank}: {label}, reliable: {}",
                    transport.is_some()
                );
                assert_eq!(subject.summaries, model.summaries, "{context}");
                assert_eq!(subject.alive, model.alive, "{context}");
                assert_eq!(subject.rounds, model.rounds, "{context}");
                assert_eq!(subject.all_done, model.all_done, "{context}");
                assert_eq!(subject.delivered, model.delivered, "{context}");
            }
        }
        let dead = |k: usize| models[k].alive.iter().filter(|&&a| !a).count();
        assert_eq!(
            (dead(0), dead(6)),
            (2, 2),
            "n={n}: both crashes take effect"
        );
    }
}
