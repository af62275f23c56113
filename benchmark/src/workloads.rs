//! The eight pinned workloads.
//!
//! Inputs are built here through public builders, not looked up in the
//! scenario registry, so registry edits cannot move the benchmark. The seed
//! feeds graph generation, `ExpanderParams::with_seed`, fault decisions and
//! workload schedules; the program under test receives only generated
//! inputs. Every simulator workload pins `ParallelismConfig::serial()`: the
//! numbers measure the program, not the scheduler of a shared two-core box.
//!
//! Every iteration of one seed is the same work, so its simulated counts and
//! its output digest must repeat exactly — within a run, and between the
//! untraced and the traced run. A mismatch is a failure.

use crate::trace::{Layer, PhaseCounts, TimedExecutor, TracedSim, Tracer};
use overlay_networks::core::{
    EvolutionEngine, ExpanderParams, MaintenanceConfig, MaintenanceRunner, OverlayBuilder,
    OverlayResult, PhaseExecutor, RoundBudget, ServeOutcome, SimExecutor, Summarize,
};
use overlay_networks::graph::{analysis, generators, DiGraph, NodeId, UGraph};
use overlay_networks::net::{ChannelBackend, Frame, NetRunner, TcpBackend, TcpHost};
use overlay_networks::netsim::caps::log2_ceil;
use overlay_networks::netsim::{
    ChurnSchedule, Ctx, Envelope, FaultPlan, MetricsMode, ParallelismConfig, Protocol, SimConfig,
    Simulator, TransportConfig,
};
use overlay_networks::scenarios::{GraphFamily, Scenario, TrafficSpec};
use overlay_networks::traffic::{next_hops, RouterSummary, TrafficReport, Workload as Requests};
use overlay_networks::transport::Reliable;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// What one iteration did, in simulated terms. Equal for every iteration of
/// one (workload, seed), traced or not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Nodes of the input.
    pub n: u64,
    /// Simulated rounds of one iteration.
    pub rounds: u64,
    /// Simulated node-rounds (`n × rounds`; alive members × service rounds
    /// for `serve-churn`).
    pub node_rounds: u64,
    /// Messages delivered, acks and retransmissions included (invitations
    /// issued for `serve-churn`, which exchanges nothing else).
    pub msgs: u64,
    /// The workload's own unit of work: nodes joined into the overlay
    /// (construct-*), requests injected (traffic-*), epochs served
    /// (serve-churn), node-rounds executed (empty-rounds).
    pub work: u64,
    /// Operations attempted and failed: nodes outside the final valid tree
    /// (construct-*), requests not delivered (traffic-*), alive members not
    /// covered over the final half of the epochs (serve-churn), nodes not
    /// done at the budget (empty-rounds).
    pub attempted: u64,
    pub failed: u64,
    /// Hash of the output (overlay edges, delivery ledgers, epoch samples).
    pub digest: u64,
}

/// Per-layer metrics of one traced run, by name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// One workload, as the harness drives it. Its constructor (`new`) builds the
/// inputs and whatever the program needs before its first iteration, and is
/// timed as `setup_s`.
pub trait Workload: Sized {
    type Output;

    /// Untimed reset before each iteration, for state an iteration consumes.
    fn prepare(&mut self) {}

    /// One timed iteration: only calls into the program.
    fn iterate(&mut self) -> Self::Output;

    /// Checks an iteration's output, outside the timed region.
    fn verify(&mut self, out: &Self::Output) -> Result<Counts, String>;

    /// One traced iteration under a root span called `iteration`, verified;
    /// workload-specific per-layer metrics go to `m`.
    fn iterate_traced(&mut self, t: &mut Tracer, m: &mut LayerMetrics) -> Result<Counts, String>;

    /// Extra single-layer measurements that are not part of an iteration.
    /// `untraced_s` is this run's fastest untraced iteration, as measured.
    fn extras(&mut self, _untraced_s: f64, _t: &mut Tracer, _m: &mut LayerMetrics) {}
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn serial_executor() -> SimExecutor {
    SimExecutor {
        parallelism: ParallelismConfig::serial(),
        metrics_mode: MetricsMode::Full,
    }
}

/// `rounds / ⌈log₂ n⌉`, the paper's headline figure.
pub fn rounds_per_log2n(c: &Counts) -> f64 {
    c.rounds as f64 / log2_ceil(c.n as usize).max(1) as f64
}

// ---------------------------------------------------------------------------
// Output checks shared by the four construct workloads.

fn hash_overlay(result: &OverlayResult, h: &mut DefaultHasher) {
    for v in result.expander.nodes() {
        result.expander.neighbors(v).hash(h);
    }
    result.bfs_parents.hash(h);
    for v in 0..result.tree.node_count() {
        result.tree.parent(NodeId::from(v)).hash(h);
    }
    (
        result.rounds.construction,
        result.rounds.bfs,
        result.rounds.finalize,
        result.messages.total_delivered,
    )
        .hash(h);
}

/// Checks a finished overlay over all `n` input nodes: spanning valid tree of
/// degree at most 4, connected expander whose degree stays within the NCC0
/// cap (`2Δ`; under loss a node can end an evolution a slot or two above Δ).
fn check_overlay(
    n: usize,
    params: &ExpanderParams,
    result: &OverlayResult,
) -> Result<Counts, String> {
    let tree = &result.tree;
    if tree.node_count() != n {
        return Err(format!("tree spans {} of {n} nodes", tree.node_count()));
    }
    if !tree.is_valid() {
        return Err("final tree is not a valid rooted tree".into());
    }
    if tree.max_degree() > 4 {
        return Err(format!("tree degree {} exceeds 4", tree.max_degree()));
    }
    if result.expander.node_count() != n || result.expander.max_degree() > params.ncc0_cap {
        return Err(format!(
            "expander has {} nodes, degree {} (n = {n}, cap = {})",
            result.expander.node_count(),
            result.expander.max_degree(),
            params.ncc0_cap
        ));
    }
    if !analysis::is_connected(&result.expander.simplify()) {
        return Err("expander is disconnected".into());
    }
    let unreached = tree.depths().iter().filter(|d| d.is_none()).count();
    let mut h = DefaultHasher::new();
    hash_overlay(result, &mut h);
    let rounds = result.rounds.total() as u64;
    Ok(Counts {
        n: n as u64,
        rounds,
        node_rounds: n as u64 * rounds,
        msgs: result.messages.total_delivered,
        work: n as u64,
        attempted: n as u64,
        failed: unreached as u64,
        digest: h.finish(),
    })
}

/// The per-layer metric names of one pipeline phase.
struct PhaseNames {
    phase: &'static str,
    rounds: &'static str,
    sim_s: &'static str,
    net_s: &'static str,
}

const PHASES: [PhaseNames; 3] = [
    PhaseNames {
        phase: "create-expander",
        rounds: "core.rounds.create_expander",
        sim_s: "core.create_expander_s",
        net_s: "net.phase_s.create_expander",
    },
    PhaseNames {
        phase: "bfs",
        rounds: "core.rounds.bfs",
        sim_s: "core.bfs_s",
        net_s: "net.phase_s.bfs",
    },
    PhaseNames {
        phase: "binarize",
        rounds: "core.rounds.binarize",
        sim_s: "core.binarize_s",
        net_s: "net.phase_s.binarize",
    },
];

/// Per-phase wall-clock from the `execute:<phase>` spans, and the builder's
/// own time between them (survivor core, BFS convergence, finalize).
fn build_spans(t: &Tracer, name_of: fn(&PhaseNames) -> &'static str, m: &mut LayerMetrics) {
    for p in &PHASES {
        m.insert(
            name_of(p),
            ns_to_s(t.total_ns(&format!("execute:{}", p.phase))),
        );
    }
    let handoff: u64 = t
        .spans()
        .iter()
        .zip(t.self_ns())
        .filter(|(s, _)| s.name == "OverlayBuilder::build_over")
        .map(|(_, ns)| ns)
        .sum();
    m.insert("core.handoff_s", ns_to_s(handoff));
}

/// Counts and per-unit costs of the simulator phases one traced iteration ran.
fn sim_phase_metrics(t: &Tracer, phases: &[PhaseCounts], m: &mut LayerMetrics) {
    let sum = |f: fn(&PhaseCounts) -> u64| phases.iter().map(f).sum::<u64>() as f64;
    let node_rounds: f64 = phases.iter().map(|p| (p.n * p.rounds) as f64).sum();
    let delivered = sum(|p| p.delivered);
    let acks = sum(|p| p.acks);
    m.insert("netsim.rounds", sum(|p| p.rounds as u64));
    m.insert("netsim.delivered_msgs", delivered);
    m.insert("netsim.dropped_fault_msgs", sum(|p| p.dropped_fault));
    m.insert("transport.acks", acks);
    m.insert("transport.retransmits", sum(|p| p.retransmits));
    m.insert("transport.dupes_dropped", sum(|p| p.dupes_dropped));
    m.insert("transport.give_ups", sum(|p| p.give_ups));
    if acks > 0.0 {
        m.insert("transport.acks_per_data_msg", acks / (delivered - acks));
    }
    for p in phases {
        if let Some(names) = PHASES.iter().find(|names| names.phase == p.phase) {
            m.insert(names.rounds, p.rounds as f64);
        }
    }
    let by = t.self_by_layer("iteration");
    let self_ns = |layer| by.get(&layer).copied().unwrap_or(0) as f64;
    let run_ns = t.total_ns("Simulator::run") as f64;
    m.insert("netsim.new_s", ns_to_s(t.total_ns("Simulator::new")));
    m.insert("netsim.step_ns_per_node_round", run_ns / node_rounds);
    m.insert(
        "netsim.self_ns_per_node_round",
        self_ns(Layer::Netsim) / node_rounds,
    );
    m.insert("netsim.self_ns_per_msg", self_ns(Layer::Netsim) / delivered);
    m.insert(
        "transport.self_ns_per_node_round",
        self_ns(Layer::Transport) / node_rounds,
    );
    m.insert(
        "transport.self_ns_per_msg",
        self_ns(Layer::Transport) / delivered,
    );
}

// ---------------------------------------------------------------------------
// 1, 2: construction on the simulator, through `build_under_faults`.

/// `construct-bare` and `construct-reliable-lossy`: the worst-case line on
/// the lockstep simulator, bare and clean or reliable under loss.
pub struct SimConstruct {
    seed: u64,
    n: usize,
    reliable: bool,
    g: DiGraph,
    params: ExpanderParams,
    builder: OverlayBuilder,
    plan: FaultPlan,
    generate_s: f64,
}

impl SimConstruct {
    pub fn new(seed: u64, n: usize, reliable: bool) -> Self {
        let started = Instant::now();
        let g = generators::line(n);
        let generate_s = secs(started.elapsed());
        let params = ExpanderParams::for_n(n).with_seed(seed);
        let mut builder = OverlayBuilder::new(params).with_parallelism(ParallelismConfig::serial());
        let mut plan = FaultPlan::default();
        if reliable {
            builder = builder
                .with_reliable_transport(TransportConfig::default())
                .with_round_budget(RoundBudget::STANDARD.with_slack(12));
            plan = plan.with_drop_prob(0.002);
        }
        SimConstruct {
            seed,
            n,
            reliable,
            g,
            params,
            builder,
            plan,
            generate_s,
        }
    }

    fn check(&self, result: Option<&OverlayResult>) -> Result<Counts, String> {
        let result = result.ok_or("the pipeline produced no overlay")?;
        check_overlay(self.n, &self.params, result)
    }
}

impl Workload for SimConstruct {
    type Output = Option<OverlayResult>;

    fn iterate(&mut self) -> Self::Output {
        self.builder
            .build_under_faults(&self.g, &self.plan)
            .expect("pinned inputs are valid")
            .result
    }

    fn verify(&mut self, out: &Self::Output) -> Result<Counts, String> {
        self.check(out.as_ref())
    }

    fn iterate_traced(&mut self, t: &mut Tracer, m: &mut LayerMetrics) -> Result<Counts, String> {
        let iteration = t.enter("iteration", Layer::Bench);
        let build = t.enter("OverlayBuilder::build_over", Layer::Core);
        let mut exec = TracedSim::new(t, self.plan.clone(), Layer::Core);
        let result = self.builder.build_over(&self.g, &mut exec);
        let phases = std::mem::take(&mut exec.phases);
        t.exit(build);
        t.exit(iteration);
        let counts = self.check(result.as_ref().ok())?;
        sim_phase_metrics(t, &phases, m);
        build_spans(t, |p| p.sim_s, m);
        let callbacks = t.total_ns("callbacks:protocol") as f64;
        m.insert(
            "core.callback_ns_per_node_round",
            callbacks / counts.node_rounds as f64,
        );
        m.insert(
            "core.callback_share",
            callbacks / t.total_ns("iteration") as f64,
        );
        Ok(counts)
    }

    fn extras(&mut self, untraced_s: f64, t: &mut Tracer, m: &mut LayerMetrics) {
        m.insert("graph.generate_s", self.generate_s);
        if self.reliable {
            // The reliability tax on a clean path: the same line, reliable
            // against bare, nothing dropped.
            let clean = FaultPlan::default();
            let bare_builder =
                OverlayBuilder::new(self.params).with_parallelism(ParallelismConfig::serial());
            let (_, reliable_s) = t.span("extra:reliable-clean-build", Layer::Bench, || {
                self.builder.build_under_faults(&self.g, &clean)
            });
            let (bare, bare_s) = t.span("extra:bare-clean-build", Layer::Bench, || {
                bare_builder.build_under_faults(&self.g, &clean)
            });
            let bare_msgs = bare.expect("valid inputs").messages.total_delivered;
            m.insert("transport.reliable_over_bare", reliable_s / bare_s);
            if let Some(delivered) = m.get("netsim.delivered_msgs").copied() {
                m.insert("transport.msgs_over_bare", delivered / bare_msgs as f64);
            }
        } else {
            // What a sweep user pays on top of the builder call: the same
            // input through `Scenario::run`.
            let scenario = Scenario::new("bench", "", GraphFamily::Line, self.n)
                .with_parallelism(ParallelismConfig::serial());
            let (record, run_s) = t.span("extra:Scenario::run", Layer::Scenarios, || {
                scenario.run(self.seed)
            });
            assert!(record.success, "the scenario twin of construct-bare failed");
            m.insert("scenarios.run_overhead_s", run_s - untraced_s);
        }
    }
}

// ---------------------------------------------------------------------------
// 3, 4: construction over real media, through `build_over`.

/// What both socket-side workloads share: the input, and the simulator's
/// overlay for the seed, which every iteration must reproduce. Building that
/// reference is part of set-up: no iteration can be checked without it.
struct NetInput {
    n: usize,
    g: DiGraph,
    params: ExpanderParams,
    builder: OverlayBuilder,
    /// `SimExecutor`'s counts for this input.
    model: Result<Counts, String>,
    /// How long the model build took: the base of `net.over_sim`.
    model_s: f64,
    generate_s: f64,
}

impl NetInput {
    fn new(seed: u64, n: usize) -> Self {
        let params = ExpanderParams::for_n(n).with_seed(seed);
        let builder = OverlayBuilder::new(params);
        let started = Instant::now();
        let g = generators::line(n);
        let generate_s = secs(started.elapsed());
        let started = Instant::now();
        let model = builder.build_over(&g, &mut serial_executor());
        let model_s = secs(started.elapsed());
        let model = model
            .map_err(|e| format!("simulator build failed: {e}"))
            .and_then(|model| check_overlay(n, &params, &model));
        NetInput {
            n,
            g,
            params,
            builder,
            model,
            model_s,
            generate_s,
        }
    }

    fn check(&self, what: &str, result: &Result<OverlayResult, String>) -> Result<Counts, String> {
        let result = result
            .as_ref()
            .map_err(|e| format!("{what} build failed: {e}"))?;
        let counts = check_overlay(self.n, &self.params, result)?;
        if counts != self.model.clone()? {
            return Err(format!(
                "{what} overlay differs from the simulator's for this seed"
            ));
        }
        Ok(counts)
    }

    /// The two figures both media report against this input.
    fn extras(&self, untraced_s: f64, m: &mut LayerMetrics) {
        m.insert("graph.generate_s", self.generate_s);
        m.insert("net.over_sim", untraced_s / self.model_s);
    }
}

/// Node-rounds per second of `Ping` pushed through `exec`: the medium's
/// fixed cost per node-round (barrier plus thread hand-off), protocol
/// subtracted out.
fn ping_over<E: PhaseExecutor>(exec: &mut E, n: usize, rounds: u32) -> Result<f64, String> {
    use overlay_networks::core::{Phase, PhaseExecSpec, PhaseId};
    let phase = Phase::from_parts(
        PhaseId::Traffic,
        Ping::nodes(n, rounds),
        rounds as usize,
        FaultPlan::default(),
    );
    let spec = PhaseExecSpec {
        seed: 1,
        ncc0_cap: 64,
        budget: rounds as usize,
        transport: None,
    };
    let started = Instant::now();
    let run = exec.execute(phase, spec).map_err(|e| e.to_string())?;
    let wall = started.elapsed();
    let expected = n as u64 * Ping::FANOUT as u64 * u64::from(rounds);
    if !run.all_done || run.summaries.iter().sum::<u64>() != expected {
        return Err("Ping through the executor lost messages".into());
    }
    Ok(wall.as_nanos() as f64 / (n as f64 * f64::from(rounds)))
}

/// Encode and decode cost of one data frame with a typical body.
fn frame_codec(m: &mut LayerMetrics, frames: u32) {
    let frame = Frame::data(0, 17, 3, 250, 2, vec![0xAB; 12]);
    let mut buf = Vec::with_capacity(64);
    let started = Instant::now();
    for _ in 0..frames {
        buf.clear();
        std::hint::black_box(&frame).encode(&mut buf);
        std::hint::black_box(&buf);
    }
    m.insert(
        "net.frame_encode_ns",
        started.elapsed().as_nanos() as f64 / f64::from(frames),
    );
    let started = Instant::now();
    for _ in 0..frames {
        let mut slice = std::hint::black_box(buf.as_slice());
        std::hint::black_box(Frame::decode(&mut slice).expect("round trip"));
    }
    m.insert(
        "net.frame_decode_ns",
        started.elapsed().as_nanos() as f64 / f64::from(frames),
    );
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `construct-channel`.
pub struct ConstructChannel {
    input: NetInput,
    runner: NetRunner<ChannelBackend>,
    quick: bool,
}

impl ConstructChannel {
    pub fn new(seed: u64, quick: bool) -> Self {
        let input = NetInput::new(seed, if quick { 32 } else { 256 });
        let runner = NetRunner::new(ChannelBackend::new(input.n));
        ConstructChannel {
            input,
            runner,
            quick,
        }
    }
}

impl Workload for ConstructChannel {
    type Output = Result<OverlayResult, String>;

    fn iterate(&mut self) -> Self::Output {
        self.input
            .builder
            .build_over(&self.input.g, &mut self.runner)
            .map_err(|e| e.to_string())
    }

    fn verify(&mut self, out: &Self::Output) -> Result<Counts, String> {
        self.input.check("channel", out)
    }

    fn iterate_traced(&mut self, t: &mut Tracer, m: &mut LayerMetrics) -> Result<Counts, String> {
        let iteration = t.enter("iteration", Layer::Bench);
        let build = t.enter("OverlayBuilder::build_over", Layer::Core);
        let mut exec = TimedExecutor::new(&mut self.runner, t, Layer::Net, cores());
        let result = self.input.builder.build_over(&self.input.g, &mut exec);
        t.exit(build);
        t.exit(iteration);
        let counts = self
            .input
            .check("traced channel", &result.map_err(|e| e.to_string()))?;
        net_metrics(t, m);
        Ok(counts)
    }

    fn extras(&mut self, untraced_s: f64, _t: &mut Tracer, m: &mut LayerMetrics) {
        self.input.extras(untraced_s, m);
        frame_codec(m, if self.quick { 10_000 } else { 1_000_000 });
        let (n, rounds) = if self.quick { (32, 10) } else { (256, 100) };
        let mut runner = NetRunner::new(ChannelBackend::new(n));
        let per = ping_over(&mut runner, n, rounds).expect("Ping over channels");
        m.insert("net.ns_per_node_round", per);
    }
}

/// Per-phase spans and the callback share of a `TimedExecutor` iteration.
fn net_metrics(t: &Tracer, m: &mut LayerMetrics) {
    build_spans(t, |p| p.net_s, m);
    let callbacks = t.total_ns("callbacks:protocol") as f64;
    m.insert(
        "net.callback_share",
        callbacks / t.total_ns("iteration") as f64,
    );
}

/// A two-rank loopback mesh, both ranks threads of this process.
struct Mesh {
    ranks: Vec<NetRunner<TcpBackend>>,
}

impl Mesh {
    const TIMEOUT: Duration = Duration::from_secs(30);

    fn connect(n: usize, seed: u64) -> Result<Mesh, String> {
        let host = TcpHost::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = host.local_addr().map_err(|e| e.to_string())?.to_string();
        let (zero, one) = std::thread::scope(|scope| {
            let joiner = scope.spawn(|| TcpBackend::join(&addr, Self::TIMEOUT));
            let zero = host.accept(2, n, seed, Self::TIMEOUT);
            (zero, joiner.join().expect("joiner thread"))
        });
        Ok(Mesh {
            ranks: vec![
                NetRunner::new(zero.map_err(|e| e.to_string())?),
                NetRunner::new(one.map_err(|e| e.to_string())?),
            ],
        })
    }

    /// Runs `work` on every rank at once and returns the results by rank.
    fn on_ranks<T: Send>(
        &mut self,
        work: impl Fn(&mut NetRunner<TcpBackend>) -> T + Sync,
    ) -> Vec<T> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .ranks
                .iter_mut()
                .map(|runner| {
                    let work = &work;
                    scope.spawn(move || work(runner))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread"))
                .collect()
        })
    }

    /// The quiescence handshake on both ranks; returns how long it took.
    fn shutdown(self) -> Result<f64, String> {
        let started = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .ranks
                .into_iter()
                .map(|runner| scope.spawn(move || runner.shutdown()))
                .collect();
            for h in handles {
                h.join().expect("rank thread").map_err(|e| e.to_string())?;
            }
            Ok(secs(started.elapsed()))
        })
    }
}

/// `construct-tcp2`. Traffic crosses the host's loopback interface, not a link.
pub struct ConstructTcp2 {
    seed: u64,
    input: NetInput,
    mesh: Option<Mesh>,
    quick: bool,
}

impl ConstructTcp2 {
    pub fn new(seed: u64, quick: bool) -> Self {
        let input = NetInput::new(seed, if quick { 32 } else { 256 });
        let mesh = Some(Mesh::connect(input.n, seed).expect("loopback mesh"));
        ConstructTcp2 {
            seed,
            input,
            mesh,
            quick,
        }
    }

    fn mesh(&mut self) -> Mesh {
        self.mesh
            .take()
            .expect("prepare() builds the mesh an iteration consumes")
    }
}

impl Drop for ConstructTcp2 {
    /// A mesh nobody consumed still owes its peers the quiescence handshake,
    /// which is also what ends its reader threads.
    fn drop(&mut self) {
        if let Some(mesh) = self.mesh.take() {
            let _ = mesh.shutdown();
        }
    }
}

/// Both ranks' overlays (they must agree) or the first error.
fn agree(mut results: Vec<Result<OverlayResult, String>>) -> Result<OverlayResult, String> {
    let one = results.pop().expect("two ranks")?;
    let zero = results.pop().expect("two ranks")?;
    let digest = |r: &OverlayResult| {
        let mut h = DefaultHasher::new();
        hash_overlay(r, &mut h);
        h.finish()
    };
    if digest(&zero) != digest(&one) {
        return Err("the two ranks derived different overlays".into());
    }
    Ok(zero)
}

impl Workload for ConstructTcp2 {
    type Output = Result<OverlayResult, String>;

    fn prepare(&mut self) {
        if self.mesh.is_none() {
            self.mesh = Some(Mesh::connect(self.input.n, self.seed).expect("loopback mesh"));
        }
    }

    /// Build on both ranks, then the quiescence handshake.
    fn iterate(&mut self) -> Self::Output {
        let mut mesh = self.mesh();
        let (builder, g) = (self.input.builder, &self.input.g);
        let results =
            mesh.on_ranks(|runner| builder.build_over(g, runner).map_err(|e| e.to_string()));
        mesh.shutdown()?;
        agree(results)
    }

    fn verify(&mut self, out: &Self::Output) -> Result<Counts, String> {
        self.input.check("tcp", out)
    }

    fn iterate_traced(&mut self, t: &mut Tracer, m: &mut LayerMetrics) -> Result<Counts, String> {
        let mut mesh = self.mesh();
        let (builder, g) = (self.input.builder, &self.input.g);
        let iteration = t.enter("iteration", Layer::Bench);
        let build = t.enter("OverlayBuilder::build_over", Layer::Core);
        // Rank 0 carries the spans; rank 1 runs the same build untimed. Each
        // rank's callbacks have one core to themselves.
        let (zero, one) = mesh.ranks.split_at_mut(1);
        let mut exec = TimedExecutor::new(&mut zero[0], t, Layer::Net, 1);
        let (r0, r1) = std::thread::scope(|scope| {
            let peer = scope.spawn(|| {
                builder
                    .build_over(g, &mut one[0])
                    .map_err(|e| e.to_string())
            });
            let r0 = builder.build_over(g, &mut exec).map_err(|e| e.to_string());
            (r0, peer.join().expect("rank thread"))
        });
        t.exit(build);
        let down = t.enter("NetRunner::shutdown", Layer::Net);
        let shutdown_s = mesh.shutdown();
        t.exit(down);
        t.exit(iteration);
        m.insert("net.shutdown_s", shutdown_s?);
        let counts = self.input.check("traced tcp", &agree(vec![r0, r1]))?;
        net_metrics(t, m);
        Ok(counts)
    }

    fn extras(&mut self, untraced_s: f64, t: &mut Tracer, m: &mut LayerMetrics) {
        self.input.extras(untraced_s, m);
        let n = self.input.n;
        let (mut mesh, mesh_s) = t.span("TcpHost::accept+TcpBackend::join", Layer::Net, || {
            Mesh::connect(n, self.seed).expect("loopback mesh")
        });
        m.insert("net.tcp_mesh_s", mesh_s);
        let rounds = if self.quick { 10 } else { 100 };
        let per = mesh.on_ranks(|runner| ping_over(runner, n, rounds));
        mesh.shutdown().expect("mesh shutdown");
        m.insert(
            "net.ns_per_node_round",
            per[0].clone().expect("Ping over TCP"),
        );
        // The same build over in-process channels: what the sockets add.
        let mut channel = NetRunner::new(ChannelBackend::new(n));
        let started = Instant::now();
        let built = self.input.builder.build_over(&self.input.g, &mut channel);
        let channel_s = secs(started.elapsed());
        built.expect("channel build");
        m.insert("net.tcp_over_channel", untraced_s / channel_s);
    }
}

// ---------------------------------------------------------------------------
// 5, 6: request waves over a prebuilt overlay.

/// `traffic-uniform` and `traffic-lossy-reliable`: one wave of uniform
/// requests per iteration over an overlay built once in set-up. Requests are
/// open-loop in simulated time: injection rounds are pre-scheduled and
/// latency counts from the due round.
pub struct TrafficWave {
    seed: u64,
    scenario: Scenario,
    spec: TrafficSpec,
    graph: UGraph,
    generate_s: f64,
}

impl TrafficWave {
    pub fn new(seed: u64, quick: bool, lossy_reliable: bool) -> Self {
        let n = if quick { 64 } else { 1024 };
        let started = Instant::now();
        let g = generators::random_regular(n, 4, seed);
        let generate_s = secs(started.elapsed());
        let overlay = OverlayBuilder::new(ExpanderParams::for_n(n).with_seed(seed))
            .with_parallelism(ParallelismConfig::serial())
            .build(&g)
            .expect("a clean build over a random regular graph succeeds");
        // Deep queues and a long TTL: at this rate a hot router's backlog
        // peaks above the default 64, and a benchmark workload sheds nothing.
        let mut spec = TrafficSpec {
            queue_cap: 1024,
            ttl: 128,
            ..TrafficSpec::new(Requests::Uniform)
        };
        if !quick {
            spec.requests_per_node = 128;
            spec.horizon = 512;
        }
        let mut scenario = Scenario::new(
            "bench-traffic",
            "",
            GraphFamily::RandomRegular { degree: 4 },
            n,
        );
        if lossy_reliable {
            spec.loss = 0.02;
            scenario = scenario.reliable(TransportConfig::default(), 12);
        }
        TrafficWave {
            seed,
            scenario,
            spec,
            graph: overlay.expander,
            generate_s,
        }
    }

    fn check(
        &self,
        all_done: bool,
        rounds: usize,
        report: &TrafficReport,
        delivered_msgs: u64,
    ) -> Result<Counts, String> {
        let n = self.graph.node_count();
        let expected = self
            .spec
            .workload
            .total_requests(n, self.spec.requests_per_node);
        if report.injected != expected {
            return Err(format!(
                "{} requests injected, {expected} scheduled",
                report.injected
            ));
        }
        if report.delivered + report.dropped + report.expired + report.lost != report.injected {
            return Err("the traffic ledger does not conserve requests".into());
        }
        if !all_done {
            return Err("the wave hit its round budget with routers still busy".into());
        }
        let mut h = DefaultHasher::new();
        (
            report.delivered,
            report.dropped,
            report.expired,
            report.lost,
            report.hops_p50,
            report.hops_p99,
            report.hops_max,
            report.latency_p50,
            report.latency_p99,
            report.latency_max,
        )
            .hash(&mut h);
        (
            report.max_edge_load,
            report.max_node_forwards,
            rounds,
            delivered_msgs,
        )
            .hash(&mut h);
        Ok(Counts {
            n: n as u64,
            rounds: rounds as u64,
            node_rounds: (n * rounds) as u64,
            msgs: delivered_msgs,
            work: report.injected,
            attempted: report.injected,
            failed: report.injected - report.delivered,
            digest: h.finish(),
        })
    }

    fn wave<E: PhaseExecutor>(
        &self,
        exec: &mut E,
    ) -> overlay_networks::core::ExecutedPhase<RouterSummary>
    where
        E::Error: std::fmt::Debug,
    {
        self.scenario
            .run_traffic_over(&self.spec, &self.graph, self.seed, 0, exec)
            .expect("the simulator cannot fail")
    }
}

/// One wave's outcome: the executor's facts and the distilled report.
pub struct WaveOutput {
    all_done: bool,
    rounds: usize,
    delivered_msgs: u64,
    report: TrafficReport,
}

impl Workload for TrafficWave {
    type Output = WaveOutput;

    fn iterate(&mut self) -> WaveOutput {
        let run = self.wave(&mut serial_executor());
        WaveOutput {
            all_done: run.all_done,
            rounds: run.rounds,
            delivered_msgs: run.delivered,
            report: TrafficReport::from_summaries(&run.summaries, run.rounds),
        }
    }

    fn verify(&mut self, out: &WaveOutput) -> Result<Counts, String> {
        self.check(out.all_done, out.rounds, &out.report, out.delivered_msgs)
    }

    fn iterate_traced(&mut self, t: &mut Tracer, m: &mut LayerMetrics) -> Result<Counts, String> {
        let iteration = t.enter("iteration", Layer::Bench);
        // next_hops, the schedule and the routers are built inside this call;
        // its self time is theirs.
        let wave = t.enter("Scenario::run_traffic_over", Layer::Traffic);
        let mut exec = TracedSim::new(t, FaultPlan::default(), Layer::Traffic);
        let run = self.wave(&mut exec);
        let phases = std::mem::take(&mut exec.phases);
        t.exit(wave);
        let (report, report_s) = t.span("TrafficReport::from_summaries", Layer::Traffic, || {
            TrafficReport::from_summaries(&run.summaries, run.rounds)
        });
        t.exit(iteration);
        let counts = self.check(run.all_done, run.rounds, &report, run.delivered)?;
        sim_phase_metrics(t, &phases, m);
        let forwards: u64 = run.summaries.iter().map(|s| s.forwards).sum();
        m.insert("traffic.route_s", ns_to_s(t.total_ns("execute:traffic")));
        m.insert(
            "traffic.router_ns_per_forward",
            t.total_ns("callbacks:protocol") as f64 / forwards as f64,
        );
        m.insert("traffic.report_s", report_s);
        for (name, value) in [
            ("traffic.injected", report.injected),
            ("traffic.delivered", report.delivered),
            ("traffic.dropped", report.dropped),
            ("traffic.expired", report.expired),
            ("traffic.lost", report.lost),
            ("traffic.max_edge_load", u64::from(report.max_edge_load)),
            ("traffic.hops_p99", u64::from(report.hops_p99)),
            ("traffic.latency_p50_rounds", u64::from(report.latency_p50)),
            ("traffic.latency_p99_rounds", u64::from(report.latency_p99)),
        ] {
            m.insert(name, value as f64);
        }
        Ok(counts)
    }

    fn extras(&mut self, untraced_s: f64, t: &mut Tracer, m: &mut LayerMetrics) {
        m.insert("graph.generate_s", self.generate_s);
        let n = self.graph.node_count();
        let (_, table_s) = t.span("next_hops", Layer::Traffic, || next_hops(&self.graph));
        let (_, schedule_s) = t.span("Workload::schedule", Layer::Traffic, || {
            let spec = &self.spec;
            spec.workload
                .schedule(n, spec.requests_per_node, spec.horizon, self.seed)
        });
        m.insert("traffic.next_hops_s", table_s);
        m.insert("traffic.schedule_s", schedule_s);
        m.insert("traffic.next_hops_share", table_s / untraced_s);
        if self.scenario.uses_reliable_transport() {
            // The same wave bare and lossless: what acks and retransmissions
            // add on the wire.
            let mut bare = TrafficWave {
                seed: self.seed,
                scenario: Scenario::new("bench-traffic", "", self.scenario.family, n),
                spec: TrafficSpec {
                    loss: 0.0,
                    ..self.spec
                },
                graph: self.graph.clone(),
                generate_s: self.generate_s,
            };
            let started = Instant::now();
            let out = bare.iterate();
            let bare_s = secs(started.elapsed());
            if let Some(delivered) = m.get("netsim.delivered_msgs").copied() {
                m.insert(
                    "transport.msgs_over_bare",
                    delivered / out.delivered_msgs as f64,
                );
            }
            m.insert("transport.reliable_over_bare", untraced_s / bare_s);
        }
    }
}

// ---------------------------------------------------------------------------
// 7: continuous maintenance.

/// `serve-churn`: the epoch loop of `MaintenanceRunner` under steady joins
/// and crashes, on an expander built once in set-up.
pub struct ServeChurn {
    expander: UGraph,
    params: ExpanderParams,
    config: MaintenanceConfig,
    schedule: ChurnSchedule,
    runner: Option<MaintenanceRunner>,
    generate_s: f64,
    new_s: f64,
}

impl ServeChurn {
    pub fn new(seed: u64, quick: bool) -> Self {
        let n = if quick { 64 } else { 512 };
        let started = Instant::now();
        let g = generators::random_regular(n, 4, seed);
        let generate_s = secs(started.elapsed());
        let params = ExpanderParams::for_n(n).with_seed(seed);
        let overlay = OverlayBuilder::new(params)
            .with_parallelism(ParallelismConfig::serial())
            .build(&g)
            .expect("a clean build over a random regular graph succeeds");
        let mut serve = ServeChurn {
            expander: overlay.expander,
            params,
            config: MaintenanceConfig {
                seed: seed ^ 0x5E12_EC0D,
                ..MaintenanceConfig::new(if quick { 4 } else { 40 })
            },
            schedule: ChurnSchedule {
                join_rate: 0.08,
                crash_rate: 0.04,
                ..ChurnSchedule::quiet(seed ^ 0xC0A1_E5CE)
            },
            runner: None,
            generate_s,
            new_s: 0.0,
        };
        serve.fresh_runner();
        serve
    }

    fn fresh_runner(&mut self) {
        let started = Instant::now();
        self.runner = Some(MaintenanceRunner::new(
            self.expander.clone(),
            self.params,
            self.config,
            self.schedule,
        ));
        self.new_s = secs(started.elapsed());
    }
}

impl Workload for ServeChurn {
    type Output = ServeOutcome;

    fn prepare(&mut self) {
        if self.runner.is_none() {
            self.fresh_runner();
        }
    }

    fn iterate(&mut self) -> ServeOutcome {
        let mut runner = self
            .runner
            .take()
            .expect("prepare() builds the runner an iteration consumes");
        for _ in 0..self.config.epochs {
            runner.step_epoch();
        }
        runner.into_outcome()
    }

    fn verify(&mut self, out: &ServeOutcome) -> Result<Counts, String> {
        if out.wf_violations > 0 {
            return Err(format!(
                "{} epoch boundaries had a malformed tree",
                out.wf_violations
            ));
        }
        if out.samples.len() != self.config.epochs {
            return Err("an epoch went unsampled".into());
        }
        let settled = &out.samples[out.samples.len() / 2..];
        let mut h = DefaultHasher::new();
        for s in &out.samples {
            (
                s.alive,
                s.pending,
                s.covered,
                s.reinvites,
                s.admitted,
                s.healed,
                s.joins,
                s.crashes,
            )
                .hash(&mut h);
        }
        let alive_rounds: usize = out
            .samples
            .iter()
            .map(|s| s.alive * self.config.epoch_rounds)
            .sum();
        Ok(Counts {
            n: self.expander.node_count() as u64,
            rounds: (self.config.epochs * self.config.epoch_rounds) as u64,
            node_rounds: alive_rounds as u64,
            msgs: out.reinvites_sent as u64,
            work: self.config.epochs as u64,
            attempted: settled.iter().map(|s| s.alive as u64).sum(),
            failed: settled.iter().map(|s| (s.alive - s.covered) as u64).sum(),
            digest: h.finish(),
        })
    }

    fn iterate_traced(&mut self, t: &mut Tracer, m: &mut LayerMetrics) -> Result<Counts, String> {
        let mut runner = self
            .runner
            .take()
            .expect("prepare() builds the runner an iteration consumes");
        let iteration = t.enter("iteration", Layer::Bench);
        let epochs: Vec<f64> = (0..self.config.epochs)
            .map(|_| {
                t.span("MaintenanceRunner::step_epoch", Layer::Core, || {
                    runner.step_epoch()
                })
                .1
            })
            .collect();
        let (outcome, _) = t.span("MaintenanceRunner::into_outcome", Layer::Core, || {
            runner.into_outcome()
        });
        t.exit(iteration);
        let counts = self.verify(&outcome)?;
        m.insert("core.epoch_s_p50", crate::stats::median(&epochs));
        m.insert(
            "core.epoch_s_max",
            epochs.iter().copied().fold(0.0, f64::max),
        );
        m.insert("core.reinvites", outcome.reinvites_sent as f64);
        m.insert("core.repairs", outcome.repairs as f64);
        m.insert("core.healed", outcome.healed as f64);
        Ok(counts)
    }

    fn extras(&mut self, _untraced_s: f64, t: &mut Tracer, m: &mut LayerMetrics) {
        m.insert("graph.generate_s", self.generate_s);
        m.insert("core.maintenance_new_s", self.new_s);
        let mut engine = EvolutionEngine::from_benign(self.expander.clone(), self.params);
        let ((), evolve_s) = t.span("EvolutionEngine::evolve_quiet", Layer::Core, || {
            engine.evolve_quiet()
        });
        m.insert("core.evolve_s", evolve_s);
    }
}

// ---------------------------------------------------------------------------
// 8: the empty protocol.

/// The manul `empty_rounds` idiom: a protocol that does no work, so what is
/// left is the layer underneath. Each node sends four fixed `u32`s per round
/// to `(i + 17d) mod n`, `d = 1..=4`, and counts what it receives.
#[derive(Clone, Debug)]
pub struct Ping {
    targets: [NodeId; Ping::FANOUT],
    rounds_left: u32,
    received: u64,
}

impl Ping {
    pub const FANOUT: usize = 4;

    pub fn nodes(n: usize, rounds: u32) -> Vec<Ping> {
        (0..n)
            .map(|i| Ping {
                targets: std::array::from_fn(|d| NodeId::from((i + 17 * (d + 1)) % n)),
                rounds_left: rounds,
                received: 0,
            })
            .collect()
    }

    fn send(&self, ctx: &mut Ctx<'_, u32>) {
        for (d, &to) in self.targets.iter().enumerate() {
            ctx.send_global(to, d as u32);
        }
    }
}

impl Protocol for Ping {
    type Message = u32;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        self.send(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[Envelope<u32>]) {
        self.received += inbox.len() as u64;
        self.rounds_left = self.rounds_left.saturating_sub(1);
        if self.rounds_left > 0 {
            self.send(ctx);
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

impl Summarize for Ping {
    type Summary = u64;

    fn summarize(&self) -> u64 {
        self.received
    }
}

/// `empty-rounds`.
pub struct EmptyRounds {
    seed: u64,
    rounds: u32,
    nodes: Vec<Ping>,
}

/// What one `Ping` run left behind.
pub struct PingOutput {
    rounds: usize,
    done: usize,
    delivered: u64,
    received: u64,
}

impl EmptyRounds {
    pub fn new(seed: u64, quick: bool) -> Self {
        let (n, rounds) = if quick { (256, 10) } else { (65_536, 25) };
        EmptyRounds {
            seed,
            rounds,
            nodes: Ping::nodes(n, rounds),
        }
    }

    fn config(&self, faults: FaultPlan, parallelism: ParallelismConfig) -> SimConfig {
        SimConfig::ncc0_capped(64, self.seed, faults).with_parallelism(parallelism)
    }

    /// Host seconds of one `Ping` variant over a quarter of the rounds (the
    /// variants are compared with each other, per node-round).
    fn variant<P: Protocol>(&self, nodes: Vec<P>, config: SimConfig) -> (f64, u64) {
        let rounds = (self.rounds / 4).max(1);
        let started = Instant::now();
        let mut sim = Simulator::new(nodes, config);
        sim.run(rounds as usize);
        (secs(started.elapsed()), sim.metrics().total_delivered())
    }
}

impl Workload for EmptyRounds {
    type Output = PingOutput;

    fn iterate(&mut self) -> PingOutput {
        let config = self.config(FaultPlan::default(), ParallelismConfig::serial());
        let mut sim = Simulator::new(self.nodes.clone(), config);
        let outcome = sim.run(self.rounds as usize);
        PingOutput {
            rounds: outcome.rounds,
            done: sim.done_count(),
            delivered: sim.metrics().total_delivered(),
            received: sim.nodes().iter().map(|p| p.received).sum(),
        }
    }

    fn verify(&mut self, out: &PingOutput) -> Result<Counts, String> {
        let n = self.nodes.len() as u64;
        let expected = n * Ping::FANOUT as u64 * u64::from(self.rounds);
        if out.delivered != expected || out.received != expected {
            return Err(format!(
                "{} messages delivered, {} received, {expected} sent",
                out.delivered, out.received
            ));
        }
        let mut h = DefaultHasher::new();
        (out.rounds, out.done, out.delivered, out.received).hash(&mut h);
        Ok(Counts {
            n,
            rounds: out.rounds as u64,
            node_rounds: n * out.rounds as u64,
            msgs: out.delivered,
            work: n * out.rounds as u64,
            attempted: n,
            failed: n - out.done as u64,
            digest: h.finish(),
        })
    }

    fn iterate_traced(&mut self, t: &mut Tracer, m: &mut LayerMetrics) -> Result<Counts, String> {
        use overlay_networks::core::{Phase, PhaseExecSpec, PhaseId};
        let iteration = t.enter("iteration", Layer::Bench);
        let nodes = self.nodes.clone();
        let mut exec = TracedSim::new(t, FaultPlan::default(), Layer::Bench);
        let phase = Phase::from_parts(
            PhaseId::Traffic,
            nodes,
            self.rounds as usize,
            FaultPlan::default(),
        );
        let spec = PhaseExecSpec {
            seed: self.seed,
            ncc0_cap: 64,
            budget: self.rounds as usize,
            transport: None,
        };
        let run = exec
            .execute(phase, spec)
            .expect("the simulator cannot fail");
        let phases = std::mem::take(&mut exec.phases);
        t.exit(iteration);
        let out = PingOutput {
            rounds: run.rounds,
            done: if run.all_done { self.nodes.len() } else { 0 },
            delivered: run.delivered,
            received: run.summaries.iter().sum(),
        };
        let counts = self.verify(&out)?;
        sim_phase_metrics(t, &phases, m);
        Ok(counts)
    }

    fn extras(&mut self, _untraced_s: f64, _t: &mut Tracer, m: &mut LayerMetrics) {
        let n = self.nodes.len();
        let quarter = (self.rounds / 4).max(1);
        let nodes = || Ping::nodes(n, quarter);
        let node_rounds = (n as u32 * quarter) as f64;
        let serial = ParallelismConfig::serial();
        let (clean_s, clean_msgs) =
            self.variant(nodes(), self.config(FaultPlan::default(), serial));
        let lossy = FaultPlan::default().with_drop_prob(0.002);
        let (lossy_s, _) = self.variant(nodes(), self.config(lossy, serial));
        m.insert(
            "netsim.fault_ns_per_msg",
            (lossy_s - clean_s) * 1e9 / clean_msgs as f64,
        );
        let sharded = ParallelismConfig::fixed(cores(), 0);
        let (sharded_s, _) = self.variant(nodes(), self.config(FaultPlan::default(), sharded));
        m.insert(
            "netsim.sharded_ns_per_node_round",
            sharded_s * 1e9 / node_rounds,
        );
        m.insert("netsim.sharded_over_serial", sharded_s / clean_s);
        let reliable: Vec<Reliable<Ping>> = nodes()
            .into_iter()
            .map(|p| Reliable::new(p, TransportConfig::default()))
            .collect();
        let (reliable_s, _) = self.variant(reliable, self.config(FaultPlan::default(), serial));
        m.insert("transport.reliable_over_bare", reliable_s / clean_s);
    }
}
