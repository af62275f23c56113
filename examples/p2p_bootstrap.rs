//! A peer-to-peer bootstrap scenario — over the simulator or a real transport.
//!
//! The introduction motivates the algorithm with logical networks (cryptocurrencies,
//! IoT fleets, VPNs) that must organise themselves starting from whatever sparse
//! knowledge graph the join procedure left behind. This example runs such a
//! bootstrap: peers start on a sparse, high-diameter "who referred whom" graph, build
//! the overlay, and then use the resulting well-formed tree for the two everyday tasks
//! the paper lists — aggregation and broadcast — comparing against doing the same over
//! the raw referral graph.
//!
//! The same protocol code runs over three media (see `overlay-net`):
//!
//! ```text
//! cargo run --example p2p_bootstrap -- [n] [--seed S]         # lockstep simulator
//! cargo run --example p2p_bootstrap -- [n] --backend channel  # one rank owning every peer, nothing framed
//! cargo run --example p2p_bootstrap -- [n] --backend tcp --spawn --procs 4
//!     # real multi-process bootstrap: spawns procs-1 child processes and meshes
//!     # them over localhost TCP; every process runs n/procs peers
//! ```
//!
//! Manual multi-process form (run each in its own terminal):
//!
//! ```text
//! cargo run --example p2p_bootstrap -- 128 --backend tcp --listen 127.0.0.1:7700 --procs 4
//! cargo run --example p2p_bootstrap -- --backend tcp --join 127.0.0.1:7700   # ×3
//! ```
//!
//! Joiners need no `n`/`--seed`: the listener packs the graph seed into the
//! roster's config word, so every process rebuilds the identical referral
//! graph and the builds stay bit-equal. `--load J` repeats the bootstrap J
//! times (fresh listener + freshly spawned joiners each wave) to exercise the
//! concurrent-join path under load; per-wave wall-clocks are printed.

use overlay_networks::baselines::rounds_until_all_know_minimum;
use overlay_networks::core::{ExpanderParams, OverlayBuilder, OverlayResult};
use overlay_networks::graph::{analysis, DiGraph, NodeId};
use overlay_networks::net::{Backend, ChannelBackend, NetRunner, TcpBackend, TcpHost};
use std::time::{Duration, Instant};

/// Builds a referral graph: every joining peer knows only the peer that invited it,
/// plus an occasional extra contact — a random tree with a few shortcuts.
///
/// Degrees are kept within `max_degree`, the cap the NCC0 pipeline supports for
/// the initial knowledge graph ([`ExpanderParams::max_initial_degree`]).
fn referral_graph(n: usize, seed: u64, max_degree: usize) -> DiGraph {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new(n);
    let mut deg = vec![0usize; n];
    for v in 1..n {
        // Preferentially refer from a recent peer so the tree is path-like
        // (deep); fall back to any peer with spare degree when the recent
        // window is saturated (one always exists: each join adds at most two
        // degree units per endpoint).
        let lo = v.saturating_sub(4);
        let recent: Vec<usize> = (lo..v).filter(|&r| deg[r] < max_degree).collect();
        let referrer = if recent.is_empty() {
            (0..v)
                .rev()
                .find(|&r| deg[r] < max_degree)
                .expect("some peer has spare degree")
        } else {
            recent[rng.gen_range(0..recent.len())]
        };
        g.add_edge(NodeId::from(referrer), NodeId::from(v));
        deg[referrer] += 1;
        deg[v] += 1;
        if rng.gen_bool(0.05) {
            let shortcut = rng.gen_range(0..v);
            if shortcut != referrer && deg[shortcut] < max_degree && deg[v] < max_degree {
                g.add_edge(NodeId::from(shortcut), NodeId::from(v));
                deg[shortcut] += 1;
                deg[v] += 1;
            }
        }
    }
    g
}

#[derive(Clone)]
struct Options {
    n: usize,
    seed: u64,
    backend: String,
    listen: String,
    join: Option<String>,
    procs: usize,
    spawn: bool,
    load: usize,
}

fn parse_args() -> Options {
    let mut opts = Options {
        n: 1024,
        seed: 7,
        backend: "sim".into(),
        listen: String::new(),
        join: None,
        procs: 4,
        spawn: false,
        load: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = value("--seed").parse().expect("--seed"),
            "--backend" => opts.backend = value("--backend"),
            "--listen" => opts.listen = value("--listen"),
            "--join" => opts.join = Some(value("--join")),
            "--procs" => opts.procs = value("--procs").parse().expect("--procs"),
            "--spawn" => opts.spawn = true,
            "--load" => opts.load = value("--load").parse().expect("--load"),
            other => {
                opts.n = other
                    .parse()
                    .unwrap_or_else(|_| panic!("unknown argument {other}"))
            }
        }
    }
    opts
}

const TIMEOUT: Duration = Duration::from_secs(60);

/// A joiner process: everything it needs to know arrives in the roster.
fn run_joiner(addr: &str) {
    let backend = TcpBackend::join(addr, TIMEOUT).expect("join listener");
    let (rank, n, seed) = (backend.rank(), backend.n(), backend.config());
    let params = ExpanderParams::for_n(n).with_seed(11);
    let g = referral_graph(n, seed, params.max_initial_degree());
    let builder = OverlayBuilder::new(params);
    let started = Instant::now();
    let mut runner = NetRunner::new(backend);
    let result = builder
        .build_over(&g, &mut runner)
        .expect("construction succeeds w.h.p.");
    runner.shutdown().expect("quiescence handshake");
    println!(
        "[rank {rank}] built the overlay in {:.2?}: {} rounds, tree height {}, valid = {}",
        started.elapsed(),
        result.rounds.total(),
        result.tree.height(),
        result.tree.is_valid()
    );
    assert!(result.tree.is_valid(), "finalize validation failed");
}

/// One TCP bootstrap wave from the listener's side; returns the result and the
/// accept+build wall-clock.
fn run_tcp_listener(
    opts: &Options,
    g: &DiGraph,
    builder: &OverlayBuilder,
) -> (OverlayResult, Duration) {
    let bind_to = if opts.listen.is_empty() {
        "127.0.0.1:0"
    } else {
        opts.listen.as_str()
    };
    let host = TcpHost::bind(bind_to).expect("bind listener");
    let addr = host.local_addr().expect("listener address").to_string();
    println!(
        "[rank 0] listening on {addr}, waiting for {} joiners",
        opts.procs - 1
    );
    let mut children = Vec::new();
    if opts.spawn {
        let exe = std::env::current_exe().expect("own executable path");
        for _ in 1..opts.procs {
            children.push(
                std::process::Command::new(&exe)
                    .args(["--backend", "tcp", "--join", &addr])
                    .spawn()
                    .expect("spawn joiner process"),
            );
        }
    }
    let started = Instant::now();
    let backend = host
        .accept(opts.procs, opts.n, opts.seed, TIMEOUT)
        .expect("mesh formation");
    let mut runner = NetRunner::new(backend);
    let result = builder
        .build_over(g, &mut runner)
        .expect("construction succeeds w.h.p.");
    runner.shutdown().expect("quiescence handshake");
    let elapsed = started.elapsed();
    for mut child in children {
        let status = child.wait().expect("joiner exit status");
        assert!(status.success(), "a joiner process failed: {status}");
    }
    (result, elapsed)
}

fn main() {
    let opts = parse_args();

    // Joiners learn n and the graph seed from the roster; nothing to set up.
    if let Some(addr) = &opts.join {
        run_joiner(addr);
        return;
    }

    let Options { n, seed, .. } = opts;
    let params = ExpanderParams::for_n(n).with_seed(11);
    let g = referral_graph(n, seed, params.max_initial_degree());
    let und = g.to_undirected();
    println!("== P2P bootstrap ({} backend) ==", opts.backend);
    println!(
        "referral graph: n = {n}, diameter = {:?}, max degree = {}",
        analysis::diameter(&und),
        und.max_degree()
    );

    // How long would a broadcast take on the raw referral graph?
    let raw_broadcast = rounds_until_all_know_minimum(&g, 1, 4 * n).expect("graph is connected");
    println!("broadcast over the raw referral graph: {raw_broadcast} rounds (Θ(diameter))");

    // Build the overlay over the selected medium.
    let builder = OverlayBuilder::new(params);
    let mut result = None;
    for wave in 0..opts.load.max(1) {
        let started = Instant::now();
        let (r, build_time) = match opts.backend.as_str() {
            "sim" => {
                let r = builder.build(&g).expect("construction succeeds w.h.p.");
                (r, started.elapsed())
            }
            "channel" => {
                let mut runner = NetRunner::new(ChannelBackend::new(n));
                let r = builder
                    .build_over(&g, &mut runner)
                    .expect("construction succeeds w.h.p.");
                (r, started.elapsed())
            }
            "tcp" => run_tcp_listener(&opts, &g, &builder),
            other => panic!("unknown backend {other} (expected sim, channel or tcp)"),
        };
        if opts.load > 1 {
            println!("wave {wave}: bootstrap wall-clock {build_time:.2?}");
        } else {
            println!("bootstrap wall-clock: {build_time:.2?}");
        }
        result = Some(r);
    }
    let result = result.expect("at least one wave ran");
    let tree = &result.tree;
    assert!(tree.is_valid(), "finalize validation failed");
    println!(
        "\noverlay construction: {} rounds, {} messages delivered",
        result.rounds.total(),
        result.messages.total_delivered
    );
    println!(
        "well-formed tree: degree ≤ {}, height {} (log₂ n = {:.1})",
        tree.max_degree(),
        tree.height(),
        (n as f64).log2()
    );

    // Everyday P2P tasks over the tree: aggregation (count peers, find max load) is a
    // convergecast, broadcast is the reverse — both cost one tree traversal.
    let per_peer_load: Vec<u64> = (0..n as u64).map(|v| (v * 37) % 101).collect();
    let mut subtree_load = per_peer_load.clone();
    let mut subtree_size = vec![1u64; n];
    // Convergecast bottom-up in height(T) rounds.
    let depths = tree.depths();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(depths[v].unwrap_or(0)));
    for &v in &order {
        let p = tree.parent(NodeId::from(v));
        if p.index() != v {
            subtree_load[p.index()] += subtree_load[v];
            subtree_size[p.index()] += subtree_size[v];
        }
    }
    let root = tree.root();
    println!(
        "\n-- aggregation over the tree ({} rounds = tree height) --",
        tree.height()
    );
    println!(
        "root {root} learns: {} peers online, total load {}",
        subtree_size[root.index()],
        subtree_load[root.index()]
    );
    println!(
        "broadcast back down: {} rounds over the tree vs {} rounds over the referral graph ({}x faster)",
        tree.height(),
        raw_broadcast,
        raw_broadcast / tree.height().max(1)
    );
}
