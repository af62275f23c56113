//! The declarative scenario type and its lowering into concrete runs.

use overlay_core::{
    BuildReport, ExecutedPhase, ExpanderNode, ExpanderParams, MaintenanceConfig, MaintenanceRunner,
    MessageStats, OverlayBuilder, OverlayResult, Phase, PhaseExecSpec, PhaseExecutor, PhaseId,
    PhaseOverrides, RoundBudget, ServeOutcome, SimExecutor,
};
use overlay_graph::{generators, DiGraph, NodeId, UGraph};
use overlay_netsim::{
    ChurnSchedule, CrashBurst, FaultPlan, ParallelismConfig, SharedTraceSink, TraceBuffer,
    TraceEvent, TransportConfig,
};
use overlay_traffic::{
    hop_rows, Router, RouterConfig, RouterSummary, RoutingPolicy, TrafficReport, TrafficTally,
    Workload,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The initial knowledge graph a scenario starts from. All families have constant
/// degree, as Theorem 1.1 requires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphFamily {
    /// A path — the paper's worst case (diameter `n - 1`).
    Line,
    /// A cycle.
    Cycle,
    /// A complete binary tree.
    BinaryTree,
    /// A random d-regular graph (already an expander w.h.p.; the easy case).
    RandomRegular {
        /// The degree (constant, small).
        degree: usize,
    },
    /// Two cycles of `n/2` nodes joined by one bridge edge — conductance `Θ(1/n)`
    /// with a single cut edge, the nastiest constant-degree input for partitions.
    TwoCyclesBridged,
}

impl GraphFamily {
    /// Builds the graph on `n` nodes; `seed` only matters for random families.
    pub fn build(&self, n: usize, seed: u64) -> DiGraph {
        match self {
            GraphFamily::Line => generators::line(n),
            GraphFamily::Cycle => generators::cycle(n),
            GraphFamily::BinaryTree => generators::binary_tree(n),
            GraphFamily::RandomRegular { degree } => generators::random_regular(n, *degree, seed),
            GraphFamily::TwoCyclesBridged => generators::two_cycles_bridged(n),
        }
    }

    /// A short label for reports.
    pub fn label(&self) -> String {
        match self {
            GraphFamily::Line => "line".into(),
            GraphFamily::Cycle => "cycle".into(),
            GraphFamily::BinaryTree => "binary-tree".into(),
            GraphFamily::RandomRegular { degree } => format!("random-{degree}-regular"),
            GraphFamily::TwoCyclesBridged => "two-cycles-bridged".into(),
        }
    }

    /// The node count actually used for `n` (TwoCyclesBridged rounds down to even).
    pub fn actual_n(&self, n: usize) -> usize {
        match self {
            GraphFamily::TwoCyclesBridged => 2 * (n / 2).max(1),
            _ => n,
        }
    }
}

/// The declarative fault load of a scenario, lowered per run (given `n`, the round
/// schedule and the seed) into a concrete [`FaultPlan`].
///
/// Fractions are of the node count; round positions are fractions of the
/// construction schedule so scenarios stay meaningful across sizes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultSpec {
    /// No faults — the paper's setting.
    Clean,
    /// Independent per-message loss.
    Lossy {
        /// Per-message drop probability.
        drop_prob: f64,
    },
    /// Random delivery delays.
    Jitter {
        /// Probability that a message is delayed.
        delay_prob: f64,
        /// Maximum extra rounds a delayed message is held.
        max_delay: usize,
    },
    /// A wave of crash-stop failures partway through construction.
    CrashWave {
        /// Fraction of nodes that crash.
        fraction: f64,
        /// When the wave hits, as a fraction of the construction schedule.
        at: f64,
    },
    /// Nodes joining late with bounded initial knowledge (their constant-degree
    /// graph edges), staggered over the start of construction.
    JoinChurn {
        /// Fraction of nodes that join late.
        fraction: f64,
        /// The join rounds spread over this fraction of the construction schedule.
        spread: f64,
    },
    /// A partition that splits the first half of the ids from the second, then heals.
    PartitionHeal {
        /// Window start, as a fraction of the construction schedule.
        from: f64,
        /// Window end (heal), as a fraction of the construction schedule.
        heal: f64,
    },
    /// A compound stressor: a crash wave hits, and from the same round on the
    /// surviving network also drops messages — the overlay must absorb the
    /// membership loss *while* the network degrades underneath it.
    CrashThenLoss {
        /// Fraction of nodes that crash.
        fraction: f64,
        /// When the wave hits (and loss starts), as a fraction of the schedule.
        at: f64,
        /// Per-message drop probability from the crash round on.
        drop_prob: f64,
    },
}

impl FaultSpec {
    /// Lowers the spec into a concrete plan for `n` nodes under `params`'s round
    /// schedule, with all random choices drawn from `seed`.
    pub fn lower(&self, n: usize, params: &ExpanderParams, seed: u64) -> FaultPlan {
        let schedule = construction_rounds(params);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5CE2_A210_F00D_CAFE);
        match *self {
            FaultSpec::Clean => FaultPlan::default(),
            FaultSpec::Lossy { drop_prob } => FaultPlan::default().with_drop_prob(drop_prob),
            FaultSpec::Jitter {
                delay_prob,
                max_delay,
            } => FaultPlan::default().with_delays(delay_prob, max_delay),
            FaultSpec::CrashWave { fraction, at } => {
                let round = fraction_round(schedule, at);
                let mut plan = FaultPlan::default();
                for v in seeded_subset(n, fraction, &mut rng) {
                    plan = plan.with_crash(NodeId::from(v), round);
                }
                plan
            }
            FaultSpec::JoinChurn { fraction, spread } => {
                let last = fraction_round(schedule, spread).max(2);
                let mut plan = FaultPlan::default();
                for v in seeded_subset(n, fraction, &mut rng) {
                    let round = rng.gen_range(1..last);
                    plan = plan.with_join(NodeId::from(v), round);
                }
                plan
            }
            FaultSpec::PartitionHeal { from, heal } => {
                let from_round = fraction_round(schedule, from);
                let heal_round = fraction_round(schedule, heal).max(from_round + 1);
                let side_a: Vec<NodeId> = (0..n / 2).map(NodeId::from).collect();
                FaultPlan::default().with_partition(side_a, from_round, heal_round)
            }
            FaultSpec::CrashThenLoss {
                fraction,
                at,
                drop_prob,
            } => {
                let round = fraction_round(schedule, at);
                let mut plan = FaultPlan::default().with_drop_prob_from(drop_prob, round);
                for v in seeded_subset(n, fraction, &mut rng) {
                    plan = plan.with_crash(NodeId::from(v), round);
                }
                plan
            }
        }
    }

    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultSpec::Clean => "clean",
            FaultSpec::Lossy { .. } => "lossy",
            FaultSpec::Jitter { .. } => "jitter",
            FaultSpec::CrashWave { .. } => "crash-wave",
            FaultSpec::JoinChurn { .. } => "join-churn",
            FaultSpec::PartitionHeal { .. } => "partition-heal",
            FaultSpec::CrashThenLoss { .. } => "crash-then-loss",
        }
    }
}

/// The continuous-maintenance phase of a `serve-*` scenario: after construction
/// finishes, the overlay is kept alive for `epochs * epoch_rounds` further
/// rounds under a continuous churn process (see
/// [`overlay_core::MaintenanceRunner`]). The service-level outcome — sustained
/// coverage, well-formedness violations, rounds-to-repair — lands in the run's
/// [`ServeRecord`], and the headline [`RunRecord::coverage`] of a serving
/// scenario *is* its sustained coverage, so the existing aggregate and compare
/// machinery reads serve cells without special cases.
///
/// Churn rates are absolute expected events per round (the schedule's rate
/// accumulator makes counts seed-independent); victim and contact choices are
/// drawn from per-run seeded RNGs, so a serve run stays a pure function of
/// `(scenario, seed)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeSpec {
    /// Number of maintenance epochs to serve.
    pub epochs: usize,
    /// Rounds per epoch (churn accumulates between boundaries).
    pub epoch_rounds: usize,
    /// Whether epoch boundaries re-invite stragglers into the overlay. The
    /// `false` setting is the baseline that documents the failure mode the
    /// join-churn reports exposed: without protocol-level re-invitation,
    /// arrivals pile up outside the overlay forever.
    pub reinvite: bool,
    /// Expected arrivals per round.
    pub join_rate: f64,
    /// Expected graceful departures per round.
    pub leave_rate: f64,
    /// Expected crash-stop failures per round.
    pub crash_rate: f64,
    /// Optional periodic correlated crash bursts.
    pub burst: Option<CrashBurst>,
}

impl ServeSpec {
    /// A serve phase with the given horizon and join pressure, no departures,
    /// no crashes, re-invitation off (the documenting baseline).
    pub fn joins(epochs: usize, epoch_rounds: usize, join_rate: f64) -> Self {
        ServeSpec {
            epochs,
            epoch_rounds,
            reinvite: false,
            join_rate,
            leave_rate: 0.0,
            crash_rate: 0.0,
            burst: None,
        }
    }

    /// Total service rounds after construction.
    pub fn horizon(&self) -> usize {
        self.epochs * self.epoch_rounds
    }
}

/// XOR salt separating the traffic workload's RNG stream from every other
/// per-run stream (graph build, fault lowering, maintenance, churn).
const TRAFFIC_WORKLOAD_SALT: u64 = 0x7AF1_C5EE_D5EE_D700;

/// The traffic phase of a `traffic-*` scenario: after construction succeeds
/// (and, on serving cells, after every maintenance epoch), a seeded request
/// [`Workload`] is routed over the finished overlay's edges by
/// [`overlay_traffic::Router`] nodes, and the latency/congestion outcome lands
/// in the run's [`TrafficRecord`].
///
/// The workload is fully pre-scheduled harness-side and the router draws no
/// mid-round randomness, so a traffic run stays a pure function of
/// `(scenario, seed)` — and bitwise identical across the simulator and the
/// `overlay-net` backends (one rank, or several over TCP).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrafficSpec {
    /// Who talks to whom, and when.
    pub workload: Workload,
    /// Which edge set requests ride over: the expander (greedy shortest-path)
    /// or the binarized tree (the compare policy).
    pub policy: RoutingPolicy,
    /// Requests each source schedules over the injection horizon.
    pub requests_per_node: u32,
    /// Injection horizon in rounds (requests land in `1..=horizon`).
    pub horizon: u32,
    /// Rounds a packet may age before the holding router expires it.
    pub ttl: u32,
    /// Per-node forward-queue capacity; overflow is shed as dropped.
    pub queue_cap: u32,
    /// Forwards per node per round — the router's own send discipline. The
    /// phase's NCC0 cap is provisioned *above* the worst-case receive load
    /// this budget implies, so congestion always manifests in the router's
    /// deterministic queue, never in the capacity model's seeded eviction.
    pub per_round_budget: u32,
    /// Per-message drop probability applied to the traffic phase only (the
    /// construction keeps the scenario's own fault load). A `-reliable`
    /// transport twin recovers these losses with retransmissions.
    pub loss: f64,
}

impl TrafficSpec {
    /// A traffic phase with the given workload and the default pressure knobs:
    /// greedy routing, 4 requests per node over a 16-round horizon, TTL 32,
    /// queue capacity 64, 4 forwards per round, no loss.
    pub fn new(workload: Workload) -> Self {
        TrafficSpec {
            workload,
            policy: RoutingPolicy::Greedy,
            requests_per_node: 4,
            horizon: 16,
            ttl: 32,
            queue_cap: 64,
            per_round_budget: 4,
            loss: 0.0,
        }
    }

    /// The router tunables this spec lowers to.
    fn router_config(&self) -> RouterConfig {
        RouterConfig {
            ttl: self.ttl,
            queue_cap: self.queue_cap,
            per_round_budget: self.per_round_budget,
        }
    }

    /// Round budget for one traffic wave: every packet dies (delivered or
    /// expired) by `horizon + ttl`, doubled plus slack for transport-layer
    /// retransmission chains under loss.
    fn round_budget(&self) -> usize {
        (self.horizon as usize + self.ttl as usize) * 2 + 16
    }
}

/// Rounds of the construction phase (the schedule faults are positioned against).
fn construction_rounds(params: &ExpanderParams) -> usize {
    ExpanderNode::total_rounds(params)
}

fn fraction_round(schedule: usize, fraction: f64) -> usize {
    ((schedule as f64 * fraction).round() as usize).min(schedule)
}

/// The deterministic name suffix of a phase-override twin: per overridden phase
/// (in pipeline order), the phase name plus what moved — `reliable` when a
/// transport override is present, `budget` when only the budget is pinned.
fn phase_suffix(overrides: &PhaseOverrides) -> String {
    let mut suffix = String::new();
    for id in PhaseId::ALL {
        let budget = overrides.budget(id).is_some();
        let reliable = overrides.transport(id).is_some();
        if !budget && !reliable {
            continue;
        }
        suffix.push('-');
        suffix.push_str(id.name());
        suffix.push_str(if reliable { "-reliable" } else { "-budget" });
    }
    suffix
}

/// The seed one traffic wave's workload schedule is drawn from: the run seed
/// behind its own salt, stepped per wave so every maintenance epoch of a
/// serving traffic cell sees fresh (but reproducible) request pairs.
fn traffic_workload_seed(seed: u64, salt: u64) -> u64 {
    (seed ^ TRAFFIC_WORKLOAD_SALT).wrapping_add(salt)
}

/// Emits one traffic wave's structured events: the injections from the
/// (recomputed, deterministic) schedule, then each node's deliveries and a
/// per-node drop/expiry rollup. Emission happens after the wave executes, so
/// tracing cannot perturb the run.
fn emit_traffic_trace(
    sink: &SharedTraceSink,
    spec: &TrafficSpec,
    n: usize,
    workload_seed: u64,
    run: &ExecutedPhase<RouterSummary>,
) {
    let mut sink = sink.borrow_mut();
    sink.record(TraceEvent::PhaseStart {
        phase: PhaseId::Traffic.name(),
    });
    if n >= 2 {
        let schedule =
            spec.workload
                .schedule(n, spec.requests_per_node, spec.horizon, workload_seed);
        for (src, reqs) in schedule.iter().enumerate() {
            for r in reqs {
                sink.record(TraceEvent::RequestInjected {
                    round: r.round as usize,
                    src: NodeId::from(src),
                    dst: r.dst,
                });
            }
        }
    }
    for (node, s) in run.summaries.iter().enumerate() {
        for d in &s.deliveries {
            sink.record(TraceEvent::RequestDelivered {
                round: d.delivered as usize,
                dst: NodeId::from(node),
                hops: d.hops as usize,
                // Saturating, as in `TrafficTally::absorb`: summaries cross
                // sockets, and a delivery dated before its injection must not
                // underflow the trace.
                latency: d.delivered.saturating_sub(d.injected) as usize,
            });
        }
        if !s.dropped.is_empty() || !s.expired.is_empty() {
            sink.record(TraceEvent::RequestDropped {
                node: NodeId::from(node),
                dropped: s.dropped.len(),
                expired: s.expired.len(),
            });
        }
    }
    sink.record(TraceEvent::PhaseEnd {
        phase: PhaseId::Traffic.name(),
        rounds: run.rounds,
        completed: run.all_done,
    });
}

/// A seeded random subset of `⌊fraction · n⌋` nodes, excluding node 0 (keeping at
/// least one stable resident keeps the scenarios comparable across seeds).
fn seeded_subset(n: usize, fraction: f64, rng: &mut StdRng) -> Vec<usize> {
    let k = ((n as f64 * fraction) as usize).min(n.saturating_sub(1));
    let mut ids: Vec<usize> = (1..n).collect();
    ids.shuffle(rng);
    ids.truncate(k);
    ids.sort_unstable();
    ids
}

/// The axis along which a derived scenario differs from its baseline.
///
/// Every scenario produced by one of the variant constructors
/// ([`Scenario::reliable`] and, inside this crate, `Scenario::with_phases`,
/// `with_reinvitation` and `with_traffic_axis`) records
/// its axis next to its [`baseline`](Scenario::baseline) name, so
/// twin↔baseline pairing is scenario *data* that a [`crate::Registry`] can
/// validate — a twin must differ from its baseline along its declared axis and
/// nothing else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VariantAxis {
    /// The twin adds the reliable-delivery transport layer (plus retry slack).
    Transport,
    /// The twin scopes budget/transport overrides to individual phases.
    Phases,
    /// The twin switches epoch-boundary re-invitation on in the maintenance
    /// phase of a serving baseline (everything else, including the churn
    /// process, identical).
    Maintenance,
    /// The twin changes only the traffic spec of a traffic-carrying baseline
    /// (workload shape, routing policy, or pressure knobs — everything else,
    /// including the constructed overlay, identical).
    Traffic,
}

impl VariantAxis {
    /// A short kebab-case label, used as a derived tag (`axis:<label>`).
    pub fn label(&self) -> &'static str {
        match self {
            VariantAxis::Transport => "transport",
            VariantAxis::Phases => "phases",
            VariantAxis::Maintenance => "maintenance",
            VariantAxis::Traffic => "traffic",
        }
    }
}

/// One named experiment: everything needed to run the pipeline under a fault load.
///
/// Hand-authored baselines are built in `registry.rs` with [`Scenario::new`]
/// plus the `with_*` setters; derived matrix cells come from the
/// variant axis constructors ([`Scenario::reliable`] and, inside this crate,
/// `Scenario::with_phases`, `with_reinvitation` and `with_traffic_axis`), which
/// append a deterministic name suffix, rewrite the description, and record the
/// baseline they were derived from.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Unique kebab-case name (registry key).
    pub name: String,
    /// One-line description for reports.
    pub description: String,
    /// The initial knowledge graph family.
    pub family: GraphFamily,
    /// Node count (a family may round it; see [`GraphFamily::actual_n`]).
    pub n: usize,
    /// The fault load.
    pub faults: FaultSpec,
    /// When set, the scenario is a `serve-*` cell: after construction the
    /// overlay enters the continuous-maintenance loop for
    /// [`ServeSpec::horizon`] further rounds, and the run's headline coverage
    /// becomes the *sustained* service coverage. `None` is the classic
    /// build-once setting; committed pre-serve reports are untouched because
    /// every serve field is serialized conditionally.
    pub serve: Option<ServeSpec>,
    /// When set, the scenario is a `traffic-*` cell: after construction (and,
    /// when combined with [`serve`](Scenario::serve), after every maintenance
    /// epoch) the finished overlay carries the spec's request workload, and
    /// the run's [`RunRecord`] gains a [`TrafficRecord`]. `None` is the
    /// build-only setting; committed pre-traffic reports are untouched because
    /// every traffic field is serialized conditionally.
    pub traffic: Option<TrafficSpec>,
    /// The per-phase round-budget multiplier the pipeline runs under. Faulty
    /// scenarios whose fault model legitimately stretches wall-rounds (delivery
    /// jitter, late joins) declare extra allowance here instead of being judged
    /// against the clean schedule; [`RoundBudget::STANDARD`] is the paper's budget.
    pub round_budget: RoundBudget,
    /// When set, the pipeline's protocols run behind the reliable-delivery
    /// transport layer (acks, retransmission, duplicate suppression — see
    /// `overlay-transport`) with this configuration; `None` is the paper's
    /// bare-sends setting. Reliable twins of a fault scenario keep every other
    /// field identical so their reports read as a direct paper-vs-fault-tolerant
    /// comparison.
    pub transport: Option<TransportConfig>,
    /// Per-phase overrides of `round_budget` and `transport`
    /// ([`PhaseOverrides::none`] inherits the scenario-wide settings for every
    /// phase). This is how a scenario spends reliability or budget headroom on
    /// just the phase that needs it — e.g. reliable transport only for the
    /// one-round binarize phase. Recorded in the report header when non-empty.
    pub phases: PhaseOverrides,
    /// Explicit annotation tags. Serialized into the report JSON header when
    /// non-empty; pre-matrix scenarios carry none, which keeps their committed
    /// report headers byte-identical. Structural facets (family, fault,
    /// transport, axis) need no explicit tag — [`Scenario::effective_tags`]
    /// derives them for filtering and listing.
    pub tags: Vec<String>,
    /// The name of the scenario this one was derived from, when it came out of a
    /// variant axis constructor. Twin↔baseline pairing is data, not a test
    /// table: a [`crate::Registry`] resolves and validates it, and
    /// [`crate::Registry::pairs`] iterates the couples for delta reporting.
    pub baseline: Option<String>,
    /// Which axis the derivation moved along (set iff `baseline` is set).
    pub axis: Option<VariantAxis>,
    /// Within-round parallelism policy for every phase's simulator. **Never part
    /// of the experiment**: runs are bitwise identical at any worker count, so
    /// this is not an axis, carries no tag, and is not serialized into reports —
    /// it only decides how many threads step nodes (see [`ParallelismConfig`]).
    pub parallelism: ParallelismConfig,
}

/// The outcome of one `(scenario, seed)` run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// The seed this run used.
    pub seed: u64,
    /// The round-budget multiplier (percent of the clean schedule) this run was
    /// granted; `100` is the clean budget.
    pub round_budget_percent: u32,
    /// Flat extra rounds granted to every phase on top of the percent scaling
    /// (declared by reliable-transport scenarios for retry round-trips).
    pub round_budget_slack: u32,
    /// Pipeline completed *and* the tree is valid over the nodes alive at the end.
    pub success: bool,
    /// Pipeline produced a tree at all (may be invalid over the survivors).
    pub completed: bool,
    /// Fraction of the initial nodes covered by the final alive tree.
    pub coverage: f64,
    /// Total rounds across all phases that ran.
    pub rounds: usize,
    /// Size of the surviving core the pipeline continued with.
    pub core_size: usize,
    /// Tree height (0 when no tree formed).
    pub tree_height: usize,
    /// Tree degree (0 when no tree formed).
    pub tree_degree: usize,
    /// The pipeline's message statistics across all phases that ran
    /// (delivered, drops by cause, delays, transport-layer traffic), as
    /// [`BuildReport::messages`] reported them.
    pub messages: MessageStats,
    /// Crash events executed.
    pub crashed: usize,
    /// Join events executed.
    pub joined: usize,
    /// Name of the first stalled phase, empty when none stalled.
    pub stalled_phase: &'static str,
    /// The maintenance-phase outcome of a serving scenario (`None` for classic
    /// build-once cells). Present on every seed of a serve cell — a run whose
    /// construction failed carries the zeroed record (nothing was served).
    pub serve: Option<ServeRecord>,
    /// The traffic-phase outcome of a traffic-carrying scenario (`None` for
    /// build-only cells). Present on every seed of a traffic cell — a run
    /// whose construction failed carries the zeroed record (nothing was
    /// routed).
    pub traffic: Option<TrafficRecord>,
}

/// The per-seed outcome of a serve scenario's maintenance phase: the
/// [`ServeOutcome`] of its epoch loop, and whether there was an overlay to
/// serve at all. The default is the record of a serve cell whose construction
/// failed: nothing was served, so service coverage is 0 — the honest reading
/// of "the overlay was never available".
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeRecord {
    /// Whether the maintenance loop ran at all (construction must produce an
    /// overlay to serve; a failed build leaves `outcome` zeroed).
    pub served: bool,
    /// The service-level outcome across all epoch boundaries.
    pub outcome: ServeOutcome,
}

/// The per-seed outcome of a traffic scenario's routing phase: the
/// [`TrafficReport`] of its wave(s), and whether there was an overlay to route
/// over at all.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrafficRecord {
    /// Whether any traffic was routed at all (construction must produce an
    /// overlay to route over; a failed build leaves `report` zeroed).
    pub routed: bool,
    /// The accounting across all sources and, on serving cells, across all
    /// per-epoch waves.
    pub report: TrafficReport,
}

impl TrafficRecord {
    /// The zeroed record of a traffic cell whose construction failed: nothing
    /// was routed, so nothing was delivered.
    pub(crate) fn unrouted() -> Self {
        TrafficRecord {
            routed: false,
            report: TrafficTally::new().report(),
        }
    }
}

/// Everything a traced run reveals, produced by [`Scenario::run_traced`]: the
/// sweep row, the full pipeline report (per-phase metrics included), and the
/// structured event stream — the inputs the forensics analyzer works from.
#[derive(Clone, Debug)]
pub struct ForensicRun {
    /// The same record [`Scenario::run`] would have produced for this seed.
    pub record: RunRecord,
    /// The full pipeline report, including [`BuildReport::phase_metrics`].
    pub report: BuildReport,
    /// The run's structured events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl Scenario {
    /// A hand-authored baseline: clean faults, the paper's round budget, bare
    /// sends, no per-phase overrides, no tags, no baseline.
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        family: GraphFamily,
        n: usize,
    ) -> Self {
        Scenario {
            name: name.into(),
            description: description.into(),
            family,
            n,
            faults: FaultSpec::Clean,
            serve: None,
            traffic: None,
            round_budget: RoundBudget::STANDARD,
            transport: None,
            phases: PhaseOverrides::none(),
            tags: Vec::new(),
            baseline: None,
            axis: None,
            parallelism: ParallelismConfig::default(),
        }
    }

    /// Sets the fault load (builder-style).
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Declares the scenario a `serve-*` cell: after construction the overlay
    /// enters the continuous-maintenance loop described by `spec`
    /// (builder-style). The re-invitation *axis* is
    /// [`Scenario::with_reinvitation`].
    pub(crate) fn with_serve(mut self, spec: ServeSpec) -> Self {
        self.serve = Some(spec);
        self
    }

    /// Declares the scenario a `traffic-*` cell: after construction the
    /// finished overlay carries `spec`'s request workload (builder-style).
    /// The traffic *axis* is [`Scenario::with_traffic_axis`].
    pub(crate) fn with_traffic(mut self, spec: TrafficSpec) -> Self {
        self.traffic = Some(spec);
        self
    }

    /// Sets the within-round parallelism policy (builder-style). Purely a
    /// wall-clock knob — see [`Scenario::parallelism`].
    pub fn with_parallelism(mut self, parallelism: ParallelismConfig) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the scenario-wide round budget (builder-style).
    pub(crate) fn with_budget(mut self, budget: RoundBudget) -> Self {
        self.round_budget = budget;
        self
    }

    /// Appends an explicit annotation tag (recorded in the report header).
    /// Idempotent: a tag the scenario already carries — e.g. inherited from the
    /// baseline of a derivation — is not duplicated.
    pub(crate) fn with_tag(mut self, tag: impl Into<String>) -> Self {
        let tag = tag.into();
        if !self.tags.contains(&tag) {
            self.tags.push(tag);
        }
        self
    }

    /// Replaces the auto-generated description of a derived variant (or the
    /// description of a baseline) with bespoke prose. Pairing metadata, name and
    /// axis are untouched — the committed reliable twins use this to keep their
    /// historical report headers byte-identical while being *derived* rather
    /// than hand-copied.
    pub fn describe(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// Replaces the mechanically derived name. The only sanctioned uses are
    /// preserving a historical name that predates the derivation scheme (e.g.
    /// `crash-ncc0-reliable`, whose mechanical name would be
    /// `mid-build-crash-wave-reliable`) and aligning a new twin with such a
    /// historical sibling (`crash-ncc0-detector` sits next to
    /// `crash-ncc0-reliable`); other matrix cells should keep their derived
    /// names so the naming scheme stays predictable.
    pub fn renamed(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    // ---- Variant axis constructors ------------------------------------

    /// What every axis constructor below does: the twin is this scenario under
    /// a new name and description, paired back to it along `axis`, with
    /// `change` applied — the one field (or two) the axis is allowed to move.
    fn derive(
        &self,
        axis: VariantAxis,
        name: String,
        description: String,
        change: impl FnOnce(&mut Scenario),
    ) -> Scenario {
        let mut twin = Scenario {
            name,
            description,
            baseline: Some(self.name.clone()),
            axis: Some(axis),
            ..self.clone()
        };
        change(&mut twin);
        twin
    }

    /// Derives the reliable-transport twin: same experiment, plus the
    /// `overlay-transport` reliability layer and `slack` flat extra rounds per
    /// phase for its retry round-trips (a retry chain costs a *constant* number
    /// of rounds, which a percent budget cannot express for one-round phases).
    ///
    /// Name: `<base>-reliable`. Axis: [`VariantAxis::Transport`].
    pub fn reliable(&self, transport: TransportConfig, slack: u32) -> Scenario {
        self.derive(
            VariantAxis::Transport,
            format!("{}-reliable", self.name),
            format!("Twin of {} over the reliable transport", self.name),
            |twin| {
                twin.round_budget = twin.round_budget.with_slack(slack);
                twin.transport = Some(transport);
            },
        )
    }

    /// Derives the phase-scoped twin: same experiment, with budget and/or
    /// transport overridden for individual pipeline phases only (how a scenario
    /// spends reliability on just the phase that needs it).
    ///
    /// Name: `<base>` plus, per overridden phase, `-<phase>` and a marker for
    /// what changed (`-reliable`/`-bare` for a transport override, `-budget`
    /// when only the budget moved) — e.g. `lossy-ncc0-binarize-reliable`.
    /// Axis: [`VariantAxis::Phases`].
    ///
    /// # Panics
    ///
    /// Panics when `overrides` is empty: an empty override set is bit-for-bit
    /// the baseline, so deriving a "twin" from it could only produce a
    /// duplicate experiment under a new name.
    pub(crate) fn with_phases(&self, overrides: PhaseOverrides) -> Scenario {
        assert!(
            !overrides.is_empty(),
            "a phase-override twin needs at least one override"
        );
        self.derive(
            VariantAxis::Phases,
            format!("{}{}", self.name, phase_suffix(&overrides)),
            format!(
                "Twin of {} with overrides scoped to single phases",
                self.name
            ),
            |twin| twin.phases = overrides,
        )
    }

    /// Derives the re-invitation twin of a serving baseline: the identical
    /// service (same horizon, same churn process) with epoch-boundary
    /// re-invitation switched on — the protocol-level primitive that pulls
    /// stragglers into the current evolution. The pair is the maintenance
    /// subsystem's headline comparison: sustained coverage with vs without
    /// re-invitation under the same continuous join pressure.
    ///
    /// Name: `<base>-reinvite`. Axis: [`VariantAxis::Maintenance`].
    ///
    /// # Panics
    ///
    /// Panics when the baseline is not a serve scenario, or already
    /// re-invites (the twin would be bit-for-bit the baseline).
    pub(crate) fn with_reinvitation(&self) -> Scenario {
        let spec = self
            .serve
            .expect("a re-invitation twin needs a serving baseline");
        assert!(
            !spec.reinvite,
            "baseline already re-invites; the twin would duplicate it"
        );
        let reinviting = ServeSpec {
            reinvite: true,
            ..spec
        };
        self.derive(
            VariantAxis::Maintenance,
            format!("{}-reinvite", self.name),
            format!(
                "Twin of {} with epoch-boundary re-invitation switched on",
                self.name
            ),
            |twin| twin.serve = Some(reinviting),
        )
    }

    /// Derives a traffic-axis twin of a traffic-carrying baseline: the
    /// identical experiment (same construction, same faults) with a different
    /// traffic spec — another workload shape, the tree routing policy, or
    /// different pressure knobs. The suffix names what moved (e.g. `tree`,
    /// `hotspot`); workload twins that should sit in the flat `traffic-*`
    /// namespace follow with [`Scenario::renamed`].
    ///
    /// Name: `<base>-<suffix>`. Axis: [`VariantAxis::Traffic`].
    ///
    /// # Panics
    ///
    /// Panics when the baseline carries no traffic, or when `spec` equals the
    /// baseline's (the twin would be bit-for-bit the baseline).
    pub(crate) fn with_traffic_axis(&self, suffix: &str, spec: TrafficSpec) -> Scenario {
        let base = self
            .traffic
            .expect("a traffic-axis twin needs a traffic-carrying baseline");
        assert!(
            base != spec,
            "baseline already runs this traffic spec; the twin would duplicate it"
        );
        self.derive(
            VariantAxis::Traffic,
            format!("{}-{suffix}", self.name),
            format!("Twin of {} with the {suffix} traffic spec", self.name),
            |twin| twin.traffic = Some(spec),
        )
    }

    /// `true` when any part of the run uses the reliable transport — the
    /// scenario-wide layer or a phase-scoped transport override.
    pub fn uses_reliable_transport(&self) -> bool {
        self.transport.is_some()
            || PhaseId::ALL
                .iter()
                .any(|&id| self.phases.transport(id).is_some())
    }

    /// The scenario's discoverable tag set: the explicit [`tags`](Scenario::tags)
    /// plus derived structural facets — family and fault labels,
    /// `reliable`/`bare` for the transport (a phase-scoped reliable override
    /// counts as `reliable`, with `phase-reliable` marking the scoping),
    /// `axis:<label>` and `derived` for variants. [`crate::Registry`] filtering
    /// and the sweep runner's `--list` match against these.
    pub fn effective_tags(&self) -> Vec<String> {
        let mut tags = self.tags.clone();
        let mut add = |tag: String| {
            if !tags.contains(&tag) {
                tags.push(tag);
            }
        };
        add(self.family.label());
        add(self.faults.label().to_string());
        add(if self.uses_reliable_transport() {
            "reliable"
        } else {
            "bare"
        }
        .to_string());
        if self.transport.is_none() && self.uses_reliable_transport() {
            add("phase-reliable".to_string());
        }
        if self.serve.is_some() {
            add("serve".to_string());
        }
        if let Some(traffic) = self.traffic {
            add("traffic".to_string());
            add(traffic.workload.label().to_string());
            add(format!("route:{}", traffic.policy.label()));
        }
        if let Some(axis) = self.axis {
            add(format!("axis:{}", axis.label()));
            add("derived".to_string());
        }
        tags
    }

    /// Whether [`Scenario::effective_tags`] contains `tag` — explicit annotations
    /// and derived facets (family/fault labels, `reliable`/`bare`,
    /// `axis:<label>`, `derived`) all match. `sweep_runner --tag` selects by it.
    pub fn has_tag(&self, tag: &str) -> bool {
        self.effective_tags().iter().any(|t| t == tag)
    }

    /// The effective node count after family rounding.
    pub fn actual_n(&self) -> usize {
        self.family.actual_n(self.n)
    }

    /// Lowers the scenario into one seed's concrete inputs: the graph, the fault
    /// plan, and the configured builder.
    fn prepare(&self, seed: u64) -> (usize, DiGraph, FaultPlan, OverlayBuilder) {
        let n = self.actual_n();
        let params = ExpanderParams::for_n(n).with_seed(seed);
        let g = self.family.build(n, seed ^ 0x6EED_5EED);
        let plan = self.faults.lower(n, &params, seed);
        let mut builder = OverlayBuilder::new(params)
            .with_round_budget(self.round_budget)
            .with_phase_overrides(self.phases)
            .with_parallelism(self.parallelism);
        if let Some(transport) = self.transport {
            builder = builder.with_reliable_transport(transport);
        }
        (n, g, plan, builder)
    }

    /// The per-attempt invitation loss probability of the maintenance phase:
    /// invitations cross the same network the construction did, so a lossy
    /// fault load loses invitations at its message-drop rate.
    fn invite_loss(&self) -> f64 {
        match self.faults {
            FaultSpec::Lossy { drop_prob } => drop_prob,
            FaultSpec::CrashThenLoss { drop_prob, .. } => drop_prob,
            _ => 0.0,
        }
    }

    /// Builds the configured maintenance runner of a serving scenario over the
    /// expander a finished construction produced.
    fn maintenance_runner(&self, seed: u64, result: &OverlayResult) -> MaintenanceRunner {
        let spec = self.serve.expect("a maintenance runner needs a serve spec");
        let params = ExpanderParams::for_n(self.actual_n()).with_seed(seed);
        let config = MaintenanceConfig {
            epoch_rounds: spec.epoch_rounds,
            epochs: spec.epochs,
            reinvite: spec.reinvite,
            invite_loss: self.invite_loss(),
            // The reliable transport retries invitations the way it retries
            // data; a bare cell gets one attempt per boundary.
            invite_retries: self.transport.map(|t| t.max_retransmits).unwrap_or(0),
            seed: seed ^ 0x5E12_EC0D_E5E2_7E5E,
        };
        let schedule = ChurnSchedule {
            seed: seed ^ 0xC0A1_E5CE_D01E_5EED,
            join_rate: spec.join_rate,
            leave_rate: spec.leave_rate,
            crash_rate: spec.crash_rate,
            burst: spec.burst,
        };
        MaintenanceRunner::new(result.expander.clone(), params, config, schedule)
    }

    /// Executes one traffic wave over `graph` on `exec`: builds the next-hop
    /// table, pre-schedules the workload, and runs one [`Router`] per node.
    /// `salt` differentiates repeated waves (0 for the single wave of a
    /// build-then-route cell; the per-epoch reruns of a serving cell salt by
    /// epoch) — same salt, same wave, on any executor.
    pub fn run_traffic_over<E: PhaseExecutor>(
        &self,
        spec: &TrafficSpec,
        graph: &UGraph,
        seed: u64,
        salt: u64,
        exec: &mut E,
    ) -> Result<ExecutedPhase<RouterSummary>, E::Error> {
        let n = graph.node_count();
        if n < 2 {
            // A one-node overlay has nobody to talk to; an honest empty wave.
            return Ok(ExecutedPhase {
                summaries: Vec::new(),
                alive: Vec::new(),
                rounds: 0,
                all_done: true,
                delivered: 0,
            });
        }
        let rows = hop_rows(graph);
        let max_degree = rows.iter().map(|r| r.neighbors.len()).max().unwrap_or(0);
        let schedule = spec.workload.schedule(
            n,
            spec.requests_per_node,
            spec.horizon,
            traffic_workload_seed(seed, salt),
        );
        let config = spec.router_config();
        let mut addressed = vec![0usize; n];
        for r in schedule.iter().flatten() {
            addressed[r.dst.index()] += 1;
        }
        let nodes: Vec<Router> = rows
            .into_iter()
            .zip(schedule)
            .zip(addressed)
            .enumerate()
            .map(|(v, ((row, reqs), count))| {
                Router::new(NodeId::from(v), row, reqs, config).with_expected_deliveries(count)
            })
            .collect();
        let faults = if spec.loss > 0.0 {
            FaultPlan::default().with_drop_prob(spec.loss)
        } else {
            FaultPlan::default()
        };
        let exec_spec = PhaseExecSpec {
            seed: seed
                .wrapping_add(PhaseId::Traffic.index() as u64)
                .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            // Provisioned above the worst-case receive load (every neighbor
            // spending its whole forward budget on one target), with headroom
            // for transport-layer acks and retransmissions, so the capacity
            // model's seeded eviction never fires and congestion manifests
            // only in the router's deterministic queue — identically on every
            // backend.
            ncc0_cap: (max_degree * spec.per_round_budget as usize * 4).max(64),
            budget: spec.round_budget(),
            transport: self.transport,
        };
        exec.execute(
            Phase::from_parts(PhaseId::Traffic, nodes, spec.round_budget(), faults),
            exec_spec,
        )
    }

    /// Runs everything that follows construction, as one loop over traffic
    /// waves: wave 0 over the finished overlay for a build-then-route cell;
    /// for a serving cell one wave after each maintenance epoch (waves
    /// `1..=epochs`), riding the *current* core overlay — churn degrades it,
    /// repair heals it, and the delivered fraction measures what the service
    /// sustained in between. A cell without a traffic spec steps its epochs
    /// and routes nothing; a cell whose construction failed (there is no
    /// overlay to serve or route over) gets the zeroed records. The optional
    /// trace sink receives the epoch/re-invite/repair and request events.
    fn post_build(
        &self,
        seed: u64,
        report: &BuildReport,
        trace: Option<SharedTraceSink>,
    ) -> (Option<ServeRecord>, Option<TrafficRecord>) {
        let Some(result) = report.result.as_ref() else {
            return (
                self.serve.map(|_| ServeRecord::default()),
                self.traffic.map(|_| TrafficRecord::unrouted()),
            );
        };
        let mut runner = self.serve.map(|_| self.maintenance_runner(seed, result));
        if let (Some(runner), Some(sink)) = (runner.as_mut(), trace.clone()) {
            runner.set_trace_sink(sink);
        }
        let mut exec = SimExecutor {
            parallelism: self.parallelism,
            ..SimExecutor::default()
        };
        let mut tally = TrafficTally::new();
        let waves = match self.serve {
            Some(spec) => 1..=spec.epochs,
            None => 0..=0,
        };
        for wave in waves {
            if let Some(runner) = runner.as_mut() {
                runner.step_epoch();
            }
            let Some(spec) = self.traffic else { continue };
            // Greedy routes over the expander, the compare policy over the
            // binarized tree — the constructed ones, or the runner's current.
            let graph = match (spec.policy, runner.as_ref()) {
                (RoutingPolicy::Greedy, None) => result.expander.clone(),
                (RoutingPolicy::Greedy, Some(runner)) => runner.core_graph().clone(),
                (RoutingPolicy::Tree, None) => result.tree.to_ugraph(),
                (RoutingPolicy::Tree, Some(runner)) => match runner.tree() {
                    Some(tree) => tree.to_ugraph(),
                    None => continue,
                },
            };
            let salt = wave as u64;
            let run = self
                .run_traffic_over(&spec, &graph, seed, salt, &mut exec)
                .expect("the simulator cannot fail");
            if let Some(sink) = trace.as_ref() {
                emit_traffic_trace(
                    sink,
                    &spec,
                    graph.node_count(),
                    traffic_workload_seed(seed, salt),
                    &run,
                );
            }
            tally.absorb(&run.summaries, run.rounds);
        }
        (
            runner.map(|runner| ServeRecord {
                served: true,
                outcome: runner.into_outcome(),
            }),
            self.traffic.map(|_| TrafficRecord {
                routed: true,
                report: tally.report(),
            }),
        )
    }

    /// Assembles the sweep's record row from a finished pipeline report and
    /// the post-build records. For serve cells the headline coverage is the
    /// *sustained* service coverage and success additionally requires a
    /// violation-free tree at every epoch boundary; the service horizon and
    /// the routing rounds count toward the round total.
    fn record_from(
        &self,
        seed: u64,
        n: usize,
        report: &BuildReport,
        serve: Option<ServeRecord>,
        traffic: Option<TrafficRecord>,
    ) -> RunRecord {
        let (tree_height, tree_degree) = report
            .result
            .as_ref()
            .map(|r| (r.tree.height(), r.tree.max_degree()))
            .unwrap_or((0, 0));
        let service_rounds = match (&serve, self.serve) {
            (Some(record), Some(spec)) if record.served => spec.horizon(),
            _ => 0,
        };
        let routing_rounds = traffic.map_or(0, |t| t.report.rounds);
        let outcome = serve.as_ref().map(|s| &s.outcome);
        RunRecord {
            seed,
            round_budget_percent: self.round_budget.as_percent(),
            round_budget_slack: self.round_budget.slack(),
            success: report.is_success() && outcome.is_none_or(|o| o.wf_violations == 0),
            completed: report.result.is_some(),
            coverage: outcome.map_or_else(|| report.coverage(n), |o| o.sustained_coverage),
            rounds: report.rounds.total() + service_rounds + routing_rounds,
            core_size: report.survivor_ids.len(),
            tree_height,
            tree_degree,
            messages: report.messages,
            crashed: report.crashed,
            joined: report.joined,
            stalled_phase: report.stalled_phase().unwrap_or(""),
            serve,
            traffic,
        }
    }

    /// Runs the scenario once under `seed`, deterministically.
    pub fn run(&self, seed: u64) -> RunRecord {
        let (n, g, plan, builder) = self.prepare(seed);
        let report = builder
            .build_under_faults(&g, &plan)
            .expect("registry scenarios produce valid inputs");
        let (serve, traffic) = self.post_build(seed, &report, None);
        self.record_from(seed, n, &report, serve, traffic)
    }

    /// Runs the scenario once under `seed` with full observability: the same
    /// deterministic run as [`Scenario::run`] (the record is identical), plus the
    /// complete [`BuildReport`] and the structured event trace for forensics.
    /// For serve scenarios the trace continues through the maintenance phase
    /// (epoch, re-invitation and repair events follow the construction events).
    pub fn run_traced(&self, seed: u64) -> ForensicRun {
        let (n, g, plan, builder) = self.prepare(seed);
        let buf = TraceBuffer::shared();
        let report = builder
            .build_under_faults_traced(&g, &plan, buf.clone())
            .expect("registry scenarios produce valid inputs");
        let (serve, traffic) = self.post_build(seed, &report, Some(buf.clone()));
        let events = std::mem::take(&mut buf.borrow_mut().events);
        ForensicRun {
            record: self.record_from(seed, n, &report, serve, traffic),
            report,
            events,
        }
    }

    /// A full label like `join-churn(cycle/128)`.
    pub(crate) fn label(&self) -> String {
        format!("{}({}/{})", self.name, self.family.label(), self.actual_n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_delivery_dated_before_its_injection_traces_zero_latency() {
        // What a hostile rank's summary can claim; an unchecked subtraction
        // panics on it in the debug profile.
        let summary = RouterSummary {
            injected: 0,
            deliveries: vec![overlay_traffic::Delivery {
                id: 7,
                hops: 2,
                injected: 9,
                delivered: 3,
            }],
            dropped: Vec::new(),
            expired: Vec::new(),
            forwards: 0,
            max_edge_load: 0,
        };
        let run = ExecutedPhase {
            summaries: vec![summary],
            alive: vec![true],
            rounds: 10,
            all_done: true,
            delivered: 1,
        };
        let buffer = TraceBuffer::shared();
        let sink: SharedTraceSink = buffer.clone();
        emit_traffic_trace(&sink, &TrafficSpec::new(Workload::Uniform), 1, 0, &run);
        let latencies: Vec<usize> = (buffer.borrow().events.iter())
            .filter_map(|e| match e {
                TraceEvent::RequestDelivered { latency, .. } => Some(*latency),
                _ => None,
            })
            .collect();
        assert_eq!(latencies, vec![0]);
    }

    #[test]
    fn graph_families_build_connected_graphs() {
        for family in [
            GraphFamily::Line,
            GraphFamily::Cycle,
            GraphFamily::BinaryTree,
            GraphFamily::RandomRegular { degree: 4 },
            GraphFamily::TwoCyclesBridged,
        ] {
            let n = family.actual_n(48);
            let g = family.build(48, 7);
            assert_eq!(g.node_count(), n, "{}", family.label());
            assert!(
                overlay_graph::analysis::is_connected(&g.to_undirected()),
                "{} must be connected",
                family.label()
            );
        }
    }

    #[test]
    fn fault_specs_lower_deterministically() {
        let params = ExpanderParams::for_n(64);
        for spec in [
            FaultSpec::Clean,
            FaultSpec::Lossy { drop_prob: 0.1 },
            FaultSpec::Jitter {
                delay_prob: 0.3,
                max_delay: 3,
            },
            FaultSpec::CrashWave {
                fraction: 0.1,
                at: 0.3,
            },
            FaultSpec::JoinChurn {
                fraction: 0.2,
                spread: 0.4,
            },
            FaultSpec::PartitionHeal {
                from: 0.2,
                heal: 0.5,
            },
            FaultSpec::CrashThenLoss {
                fraction: 0.1,
                at: 0.4,
                drop_prob: 0.01,
            },
        ] {
            assert_eq!(
                spec.lower(64, &params, 9),
                spec.lower(64, &params, 9),
                "{}",
                spec.label()
            );
            assert!(
                spec.lower(64, &params, 9).validate(64).is_ok(),
                "{}",
                spec.label()
            );
        }
        // Different seeds give different crash sets.
        let a = FaultSpec::CrashWave {
            fraction: 0.2,
            at: 0.3,
        }
        .lower(64, &params, 1);
        let b = FaultSpec::CrashWave {
            fraction: 0.2,
            at: 0.3,
        }
        .lower(64, &params, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn crash_wave_never_touches_node_zero() {
        let params = ExpanderParams::for_n(64);
        for seed in 0..20 {
            let plan = FaultSpec::CrashWave {
                fraction: 0.5,
                at: 0.5,
            }
            .lower(64, &params, seed);
            assert!(plan.crashes.iter().all(|c| c.node.index() != 0));
        }
    }

    #[test]
    fn builder_defaults_are_the_clean_paper_setting() {
        let s = Scenario::new("test-clean", "clean line", GraphFamily::Line, 48);
        assert_eq!(s.faults, FaultSpec::Clean);
        assert_eq!(s.round_budget, RoundBudget::STANDARD);
        assert!(s.transport.is_none());
        assert!(s.phases.is_empty());
        assert!(s.tags.is_empty());
        assert!(s.baseline.is_none() && s.axis.is_none());
    }

    #[test]
    fn clean_scenario_run_succeeds_fully() {
        let s = Scenario::new("test-clean", "clean line", GraphFamily::Line, 48);
        let r = s.run(3);
        assert!(r.success && r.completed);
        assert!((r.coverage - 1.0).abs() < 1e-12);
        assert_eq!(r.core_size, 48);
        assert_eq!(r.messages.dropped_fault, 0);
        assert_eq!(r.stalled_phase, "");
    }

    #[test]
    fn runs_are_reproducible() {
        let s = Scenario::new("test-lossy", "lossy cycle", GraphFamily::Cycle, 48)
            .with_faults(FaultSpec::Lossy { drop_prob: 0.05 })
            .with_budget(RoundBudget::percent(125));
        assert_eq!(s.run(11), s.run(11));
    }

    #[test]
    fn reliable_twin_runs_and_reports_overhead() {
        let bare = Scenario::new("test-lossy", "lossy cycle", GraphFamily::Cycle, 48)
            .with_faults(FaultSpec::Lossy { drop_prob: 0.02 });
        let reliable = bare.reliable(TransportConfig::default(), 12);
        let r_bare = bare.run(2);
        let r_rel = reliable.run(2);
        assert_eq!(r_bare.messages.retransmits, 0);
        assert_eq!(r_bare.messages.acks, 0);
        assert!(
            r_rel.messages.retransmits > 0,
            "2% loss must trigger retransmissions"
        );
        assert!(r_rel.messages.acks > 0);
        assert!(
            r_rel.coverage >= r_bare.coverage,
            "reliability must not reduce coverage ({} < {})",
            r_rel.coverage,
            r_bare.coverage
        );
    }

    #[test]
    fn reliable_variant_derives_name_pairing_and_slack() {
        let base = Scenario::new("lossy-x", "x under loss", GraphFamily::Cycle, 48)
            .with_faults(FaultSpec::Lossy { drop_prob: 0.01 })
            .with_budget(RoundBudget::percent(150));
        let twin = base.reliable(TransportConfig::default(), 12);
        assert_eq!(twin.name, "lossy-x-reliable");
        assert_eq!(twin.baseline.as_deref(), Some("lossy-x"));
        assert_eq!(twin.axis, Some(VariantAxis::Transport));
        assert!(twin.transport.is_some());
        assert_eq!(twin.round_budget.as_percent(), 150);
        assert_eq!(twin.round_budget.slack(), 12);
        assert_eq!(twin.family, base.family);
        assert_eq!(twin.faults, base.faults);
        assert!(twin.description.contains("Twin of lossy-x"));
    }

    #[test]
    fn phase_variant_names_the_overridden_phase_and_kind() {
        let base = Scenario::new("lossy-x", "x", GraphFamily::Cycle, 48)
            .with_faults(FaultSpec::Lossy { drop_prob: 0.01 });
        let twin = base.with_phases(
            PhaseOverrides::none()
                .with_budget(PhaseId::Binarize, RoundBudget::STANDARD.with_slack(12))
                .with_transport(PhaseId::Binarize, TransportConfig::default()),
        );
        assert_eq!(twin.name, "lossy-x-binarize-reliable");
        assert_eq!(twin.axis, Some(VariantAxis::Phases));
        assert!(!twin.phases.is_empty());
        let budget_only = base.with_phases(
            PhaseOverrides::none().with_budget(PhaseId::Bfs, RoundBudget::percent(200)),
        );
        assert_eq!(budget_only.name, "lossy-x-bfs-budget");
    }

    #[test]
    #[should_panic(expected = "at least one override")]
    fn empty_phase_override_twin_is_rejected() {
        let base = Scenario::new("x", "x", GraphFamily::Cycle, 48);
        let _ = base.with_phases(PhaseOverrides::none());
    }

    #[test]
    fn effective_tags_expose_facets_and_axis() {
        let base = Scenario::new("lossy-x", "x", GraphFamily::Cycle, 48)
            .with_faults(FaultSpec::Lossy { drop_prob: 0.01 })
            .with_tag("matrix");
        let tags = base.effective_tags();
        for expected in ["matrix", "cycle", "lossy", "bare"] {
            assert!(
                tags.iter().any(|t| t == expected),
                "missing {expected}: {tags:?}"
            );
        }
        let twin = base.reliable(TransportConfig::default(), 12);
        let tags = twin.effective_tags();
        for expected in ["reliable", "axis:transport", "derived"] {
            assert!(
                tags.iter().any(|t| t == expected),
                "missing {expected}: {tags:?}"
            );
        }
    }

    #[test]
    fn crash_then_loss_lowers_to_windowed_loss_and_crashes() {
        let params = ExpanderParams::for_n(64);
        let plan = FaultSpec::CrashThenLoss {
            fraction: 0.1,
            at: 0.5,
            drop_prob: 0.02,
        }
        .lower(64, &params, 3);
        assert!(!plan.crashes.is_empty());
        let crash_round = plan.crashes[0].round;
        assert!(crash_round > 0);
        assert_eq!(plan.loss_from, crash_round, "loss starts with the wave");
        assert_eq!(plan.drop_prob, 0.02);
        assert!(plan.crashes.iter().all(|c| c.round == crash_round));
    }

    #[test]
    fn traced_runs_match_untraced_runs_exactly() {
        // Tracing must not perturb the run: the forensic record is the record.
        let scenario = Scenario::new("trace-x", "x", GraphFamily::Cycle, 48)
            .with_faults(FaultSpec::CrashWave {
                fraction: 0.15,
                at: 0.4,
            })
            .with_budget(RoundBudget::percent(150));
        for seed in [0u64, 1, 2] {
            let plain = scenario.run(seed);
            let forensic = scenario.run_traced(seed);
            assert_eq!(plain, forensic.record, "seed {seed}");
            assert!(!forensic.events.is_empty());
            assert!(!forensic.report.phase_metrics.is_empty());
        }
    }
}
