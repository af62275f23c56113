//! Outside-in tracing: spans around public calls, and the three timing
//! wrappers that split a run by layer without touching the program.
//!
//! * [`Tracer`] keeps a span tree in memory. A span's *self time* is its
//!   duration minus the duration of its direct children, so the self times of
//!   a tree always sum to the root's duration: nothing is unattributed.
//! * [`Timed`] wraps a protocol node and adds each callback's duration to a
//!   shared accumulator. It forwards the context untouched, so it draws no
//!   randomness and moves no message.
//! * [`TracedSim`] is `SimExecutor` rebuilt from public calls, with the nodes
//!   wrapped as `Timed<P>` (bare) or `Timed<Reliable<Timed<P>>>` (reliable) so
//!   simulator, transport and protocol time separate.
//! * [`TimedExecutor`] wraps any other executor (the channel and TCP runners)
//!   with a span per `execute` and a `Timed<P>` around every node.

use overlay_networks::core::{
    ExecutedPhase, Phase, PhaseExecSpec, PhaseExecutor, PhaseId, Summarize,
};
use overlay_networks::graph::NodeId;
use overlay_networks::netsim::wire::Wire;
use overlay_networks::netsim::{
    Ctx, Envelope, FaultPlan, ParallelismConfig, Protocol, SimConfig, Simulator,
};
use overlay_networks::scenarios::Json;
use overlay_networks::transport::Reliable;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The layer (crate) a span's self time is charged to. `Bench` is the
/// harness's own glue inside a traced region (wrapping nodes, the `Ping` stub).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Graph,
    Netsim,
    Transport,
    Core,
    Traffic,
    Net,
    Scenarios,
    Bench,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Graph => "graph",
            Layer::Netsim => "netsim",
            Layer::Transport => "transport",
            Layer::Core => "core",
            Layer::Traffic => "traffic",
            Layer::Net => "net",
            Layer::Scenarios => "scenarios",
            Layer::Bench => "bench",
        }
    }
}

/// One recorded span. `count` is 1 for a timed call and the number of folded
/// calls for an aggregate (all callbacks of one phase).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub layer: Layer,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub count: u64,
}

/// An in-memory span tree; written out only when the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: impl Into<String>, layer: Layer) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            layer,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            dur_ns: 0,
            count: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].dur_ns = self.now_ns() - self.spans[id].start_ns;
    }

    /// Times `f` as one span; returns its result and the span's seconds.
    pub fn span<T>(&mut self, name: &str, layer: Layer, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name, layer);
        let out = f();
        self.exit(id);
        (out, self.spans[id].dur_ns as f64 / 1e9)
    }

    /// Records `count` folded calls totalling `dur_ns` as one child of the
    /// innermost open span and returns its id.
    pub fn aggregate(&mut self, name: &str, layer: Layer, dur_ns: u64, count: u64) -> usize {
        let parent = *self
            .open
            .last()
            .expect("an aggregate hangs under an open span");
        self.aggregate_under(parent, name, layer, dur_ns, count)
    }

    /// Like [`Tracer::aggregate`], under span `parent` (possibly itself an
    /// aggregate: the protocol's callbacks inside the transport's).
    pub fn aggregate_under(
        &mut self,
        parent: usize,
        name: &str,
        layer: Layer,
        dur_ns: u64,
        count: u64,
    ) -> usize {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name: name.into(),
            layer,
            parent: Some(parent),
            start_ns,
            dur_ns,
            count,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's,
    /// floored at zero (children that ran on other threads can add up to more
    /// than the wall-clock interval that holds them).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns.saturating_sub(c))
            .collect()
    }

    /// Self time per layer over the trees whose root span is called `root`.
    pub fn self_by_layer(&self, root: &str) -> BTreeMap<Layer, u64> {
        // Parents precede their children, so one pass resolves every root.
        let mut in_tree = vec![false; self.spans.len()];
        let mut by = BTreeMap::new();
        for (i, (s, ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            in_tree[i] = match s.parent {
                None => s.name == root,
                Some(p) => in_tree[p],
            };
            if in_tree[i] {
                *by.entry(s.layer).or_insert(0) += ns;
            }
        }
        by
    }

    /// Total duration of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// The span list as JSON, for the trace file.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .zip(self.self_ns())
                .enumerate()
                .map(|(id, (s, self_ns))| {
                    Json::obj(vec![
                        ("id", Json::UInt(id as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                        ("name", Json::Str(s.name.clone())),
                        ("layer", Json::Str(s.layer.name().into())),
                        ("start_ns", Json::UInt(s.start_ns)),
                        ("dur_ns", Json::UInt(s.dur_ns)),
                        ("self_ns", Json::UInt(self_ns)),
                        ("count", Json::UInt(s.count)),
                    ])
                })
                .collect(),
        )
    }
}

/// Callback time and call count shared by every [`Timed`] node of one phase.
/// A statistic only, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct CallbackClock {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl CallbackClock {
    pub fn shared() -> Arc<CallbackClock> {
        Arc::new(CallbackClock::default())
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// A protocol node whose callbacks are timed into a [`CallbackClock`]. The
/// message type, the context and the RNG pass through unchanged.
#[derive(Debug)]
pub struct Timed<P> {
    inner: P,
    clock: Arc<CallbackClock>,
}

impl<P> Timed<P> {
    pub fn new(inner: P, clock: &Arc<CallbackClock>) -> Self {
        Timed {
            inner,
            clock: Arc::clone(clock),
        }
    }

    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn charge(&self, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        self.clock.ns.fetch_add(ns, Ordering::Relaxed);
        self.clock.calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Message = P::Message;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Message>) {
        let started = Instant::now();
        self.inner.on_start(ctx);
        self.charge(started);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Message>, inbox: &[Envelope<Self::Message>]) {
        let started = Instant::now();
        self.inner.on_round(ctx, inbox);
        self.charge(started);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

impl<P: Summarize> Summarize for Timed<P>
where
    P::Message: Wire,
{
    type Summary = P::Summary;

    fn summarize(&self) -> P::Summary {
        self.inner.summarize()
    }
}

/// What one traced simulator phase counted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseCounts {
    pub phase: &'static str,
    pub n: usize,
    pub rounds: usize,
    pub delivered: u64,
    pub dropped_fault: u64,
    pub acks: u64,
    pub retransmits: u64,
    pub dupes_dropped: u64,
    pub give_ups: u64,
}

/// The lockstep simulator behind the executor seam, rebuilt from public calls
/// (`Phase::into_parts`, `SimConfig::ncc0_capped`, `Simulator::{new,run}`)
/// exactly as `PhaseRunner::run` configures it, with timing wrappers around
/// the nodes and spans around the calls.
///
/// `build_over` is clean-path only, so the run's fault plan lives here and is
/// shifted by the rounds already executed, which is what `build_under_faults`
/// does for a plan that crashes nobody. A phase that brings its own plan (a
/// lossy traffic wave) keeps it.
#[derive(Debug)]
pub struct TracedSim<'t> {
    tracer: &'t mut Tracer,
    faults: FaultPlan,
    /// The layer charged with the wrapped protocol's callbacks.
    protocol_layer: Layer,
    pub phases: Vec<PhaseCounts>,
    rounds_so_far: usize,
}

impl<'t> TracedSim<'t> {
    pub fn new(tracer: &'t mut Tracer, faults: FaultPlan, protocol_layer: Layer) -> Self {
        TracedSim {
            tracer,
            faults,
            protocol_layer,
            phases: Vec::new(),
            rounds_so_far: 0,
        }
    }

    /// Runs `nodes` to completion under spans; `unwrap` reaches the protocol
    /// node through the timing (and transport) wrappers. Also returns the id
    /// of the `Simulator::run` span, which the callback aggregates hang under.
    fn run<Q: Protocol, P: Summarize>(
        &mut self,
        id: PhaseId,
        nodes: Vec<Q>,
        config: SimConfig,
        budget: usize,
        unwrap: impl Fn(&Q) -> &P,
    ) -> (ExecutedPhase<P::Summary>, PhaseCounts, usize)
    where
        P::Message: Wire,
    {
        let n = nodes.len();
        let new_span = self.tracer.enter("Simulator::new", Layer::Netsim);
        let mut sim = Simulator::new(nodes, config);
        self.tracer.exit(new_span);
        let run_span = self.tracer.enter("Simulator::run", Layer::Netsim);
        let outcome = sim.run(budget);
        self.tracer.exit(run_span);
        let collect = self.tracer.enter("summarize", self.protocol_layer);
        let alive = (0..n).map(|i| sim.is_active(NodeId::from(i))).collect();
        let metrics = sim.metrics();
        let counts = PhaseCounts {
            phase: id.name(),
            n,
            rounds: outcome.rounds,
            delivered: metrics.total_delivered(),
            dropped_fault: metrics.total_dropped_fault(),
            acks: metrics.total_acks(),
            retransmits: metrics.total_retransmits(),
            dupes_dropped: metrics.total_dupes_dropped(),
            give_ups: metrics.total_give_ups(),
        };
        let summaries = sim.nodes().iter().map(|q| unwrap(q).summarize()).collect();
        drop(sim);
        self.tracer.exit(collect);
        let executed = ExecutedPhase {
            summaries,
            alive,
            rounds: outcome.rounds,
            all_done: outcome.all_done,
            delivered: counts.delivered,
        };
        (executed, counts, run_span)
    }
}

impl PhaseExecutor for TracedSim<'_> {
    type Error = std::convert::Infallible;

    fn execute<P: Summarize + Send>(
        &mut self,
        phase: Phase<P>,
        spec: PhaseExecSpec,
    ) -> Result<ExecutedPhase<P::Summary>, Self::Error>
    where
        P::Message: Wire + Send,
    {
        let (id, nodes, _, own_faults) = phase.into_parts();
        let faults = if own_faults.is_clean() {
            self.faults.shifted(self.rounds_so_far)
        } else {
            own_faults
        };
        let config = SimConfig::ncc0_capped(spec.ncc0_cap, spec.seed, faults)
            .with_parallelism(ParallelismConfig::serial());
        let exec_span = self
            .tracer
            .enter(format!("execute:{}", id.name()), Layer::Bench);
        let protocol = CallbackClock::shared();
        let transport = CallbackClock::shared();
        let (executed, counts, run_span) = match spec.transport {
            None => {
                let wrapped: Vec<Timed<P>> = nodes
                    .into_iter()
                    .map(|p| Timed::new(p, &protocol))
                    .collect();
                self.run(id, wrapped, config, spec.budget, |q| q.inner())
            }
            Some(cfg) => {
                let wrapped: Vec<Timed<Reliable<Timed<P>>>> = nodes
                    .into_iter()
                    .map(|p| Timed::new(Reliable::new(Timed::new(p, &protocol), cfg), &transport))
                    .collect();
                self.run(id, wrapped, config, spec.budget, |q| {
                    q.inner().inner().inner()
                })
            }
        };
        // The callbacks ran inside `Simulator::run`; the transport's (when
        // there is one) hold the protocol's.
        let parent = match spec.transport {
            None => run_span,
            Some(_) => self.tracer.aggregate_under(
                run_span,
                "callbacks:transport",
                Layer::Transport,
                transport.ns(),
                transport.calls(),
            ),
        };
        self.tracer.aggregate_under(
            parent,
            "callbacks:protocol",
            self.protocol_layer,
            protocol.ns(),
            protocol.calls(),
        );
        self.tracer.exit(exec_span);
        self.rounds_so_far += counts.rounds;
        self.phases.push(counts);
        Ok(executed)
    }
}

/// Wraps any executor with one span per `execute` and a [`Timed`] around
/// every node. The wrapped executor runs nodes on its own threads, so the
/// callback aggregate is CPU time summed over threads; it is divided by
/// `threads` (the cores the callbacks could overlap on) before it is
/// subtracted from the span.
pub struct TimedExecutor<'t, E> {
    inner: &'t mut E,
    tracer: &'t mut Tracer,
    layer: Layer,
    threads: u64,
}

impl<'t, E> TimedExecutor<'t, E> {
    pub fn new(inner: &'t mut E, tracer: &'t mut Tracer, layer: Layer, threads: usize) -> Self {
        TimedExecutor {
            inner,
            tracer,
            layer,
            threads: threads.max(1) as u64,
        }
    }
}

impl<E: PhaseExecutor> PhaseExecutor for TimedExecutor<'_, E> {
    type Error = E::Error;

    fn execute<P: Summarize + Send>(
        &mut self,
        phase: Phase<P>,
        spec: PhaseExecSpec,
    ) -> Result<ExecutedPhase<P::Summary>, Self::Error>
    where
        P::Message: Wire + Send,
    {
        let (id, nodes, clean_rounds, faults) = phase.into_parts();
        let clock = CallbackClock::shared();
        let span = self
            .tracer
            .enter(format!("execute:{}", id.name()), self.layer);
        let wrapped: Vec<Timed<P>> = nodes.into_iter().map(|p| Timed::new(p, &clock)).collect();
        let out = self
            .inner
            .execute(Phase::from_parts(id, wrapped, clean_rounds, faults), spec);
        self.tracer.aggregate(
            "callbacks:protocol",
            Layer::Core,
            clock.ns() / self.threads,
            clock.calls(),
        );
        self.tracer.exit(span);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(name: &str, layer: Layer, parent: Option<usize>, dur_ns: u64) -> Span {
        Span {
            name: name.into(),
            layer,
            parent,
            start_ns: 0,
            dur_ns,
            count: 1,
        }
    }

    fn tree(spans: Vec<Span>) -> Tracer {
        Tracer {
            spans,
            ..Tracer::default()
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = tree(vec![
            fixed("build", Layer::Core, None, 100),
            fixed("execute", Layer::Bench, Some(0), 80),
            fixed("Simulator::run", Layer::Netsim, Some(1), 70),
            fixed("callbacks:transport", Layer::Transport, Some(2), 50),
            fixed("callbacks:protocol", Layer::Core, Some(3), 20),
        ]);
        assert_eq!(t.self_ns(), vec![20, 10, 20, 30, 20]);
        let by = t.self_by_layer("build");
        assert!(t.self_by_layer("other").is_empty());
        assert_eq!(by[&Layer::Core], 40);
        assert_eq!(by[&Layer::Netsim], 20);
        assert_eq!(by[&Layer::Transport], 30);
        assert_eq!(by[&Layer::Bench], 10);
        // Nothing unattributed: the self times sum to the root's duration.
        assert_eq!(by.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_floor_at_zero() {
        let t = tree(vec![
            fixed("execute", Layer::Net, None, 10),
            fixed("callbacks:protocol", Layer::Core, Some(0), 25),
        ]);
        assert_eq!(t.self_ns(), vec![0, 25]);
    }

    #[test]
    fn enter_and_exit_nest() {
        let mut t = Tracer::default();
        let outer = t.enter("outer", Layer::Core);
        let (sum, seconds) = t.span("inner", Layer::Netsim, || 1 + 1);
        assert_eq!(seconds, t.spans()[1].dur_ns as f64 / 1e9);
        t.aggregate("folded", Layer::Transport, 5, 3);
        t.exit(outer);
        assert_eq!(sum, 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.spans()[2].count, 3);
        assert!(t.spans()[0].dur_ns >= t.spans()[1].dur_ns);
    }
}
