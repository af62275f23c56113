//! Drives one workload for one run and prints its result.
//!
//! Closed loop on the host side: the next iteration starts when the previous
//! one has finished and been checked. Only `Workload::iterate` is inside the
//! timed region; resets and output checks are outside it. A set-up is the
//! workload's constructor plus its first, cold iteration, so work a later
//! change defers to first use still lands in `setup_s`.
//!
//! Every host-time metric is the best of its samples, not their median (see
//! `stats::best`), divided by how much slower than the nominal host this one
//! ran the reference kernel meanwhile (see `reference`): `setup_s` by the
//! passes that follow each set-up, the rest by all passes of the run, one
//! after every fourth iteration.

use crate::reference::Reference;
use crate::spec::{self, Better, END_TO_END, PER_LAYER};
use crate::stats::{best, quartiles};
use crate::trace::{Layer, Tracer};
use crate::workloads::{rounds_per_log2n, Counts, LayerMetrics, Workload};
use overlay_networks::scenarios::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The arguments of one run.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs and a single iteration: the test suite's smoke run.
    pub quick: bool,
    /// Where to write the traced run's spans, if anywhere.
    pub spans: Option<PathBuf>,
}

/// One metric as the ledger keeps it: the best of its samples, their
/// quartiles and how many there were.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Measured {
    /// A host time or rate, brought to the nominal host's speed.
    fn from_samples(m: &spec::EndToEnd, samples: &[f64], slowdown: f64) -> Self {
        let lower = m.better == Better::Lower;
        let scale = if lower { 1.0 / slowdown } else { slowdown };
        let (q1, q3) = quartiles(samples);
        Measured {
            name: m.name,
            unit: m.unit,
            value: best(samples, lower) * scale,
            q1: q1 * scale,
            q3: q3 * scale,
            samples: samples.len(),
        }
    }

    fn exact(name: &'static str, unit: &'static str, value: f64) -> Self {
        Measured {
            name,
            unit,
            value,
            q1: value,
            q3: value,
            samples: 1,
        }
    }
}

/// What a run produced: the contract's result plus the ledger's detail.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Wall-clock of every timed (untraced) iteration, in order, as measured.
    pub walls: Vec<f64>,
    /// Every set-up, in order, as measured.
    pub setups: Vec<f64>,
    /// Every pass of the reference kernel, in order, as measured.
    pub references: Vec<f64>,
    pub metrics: Vec<Measured>,
    pub errors: Vec<String>,
}

impl Outcome {
    /// The metrics by name: `value` and `unit`, plus — when `detailed` and
    /// the value stands for several samples — their quartiles and count.
    fn metrics_json(&self, detailed: bool) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let mut fields = vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ];
                    if detailed && m.samples > 1 {
                        fields.push(("q1", Json::Num(m.q1)));
                        fields.push(("q3", Json::Num(m.q3)));
                        fields.push(("samples", Json::UInt(m.samples as u64)));
                    }
                    (m.name.to_string(), Json::obj(fields))
                })
                .collect(),
        )
    }

    /// The one JSON object the contract asks for on the last line.
    pub fn result_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", self.metrics_json(false)),
        ])
    }

    /// The same result with quartiles, sample counts and every iteration's
    /// wall-clock, for the ledger.
    pub fn detail_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            (
                "wall_samples_s",
                Json::Arr(self.walls.iter().map(|w| Json::Num(*w)).collect()),
            ),
            (
                "setup_samples_s",
                Json::Arr(self.setups.iter().map(|w| Json::Num(*w)).collect()),
            ),
            (
                "reference_samples_s",
                Json::Arr(self.references.iter().map(|r| Json::Num(*r)).collect()),
            ),
            (
                "errors",
                Json::Arr(self.errors.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics", self.metrics_json(true)),
        ])
    }
}

/// `VmHWM` of this process in MB: the peak resident set.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Failure bookkeeping of one run.
#[derive(Default)]
struct Tally {
    reference: Option<Counts>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Folds one checked iteration in. Its counts must equal the first
    /// iteration's: one seed, one answer.
    fn absorb(&mut self, what: &str, checked: Result<Counts, String>) {
        let checked = checked.and_then(|c| match self.reference {
            Some(reference) if reference != c => Err(format!(
                "{what}: simulated counts differ from the first iteration's: {c:?} vs {reference:?}"
            )),
            _ => Ok(c),
        });
        match checked {
            Ok(c) => {
                self.reference.get_or_insert(c);
                self.attempted += c.attempted;
                self.failed += c.failed;
            }
            Err(e) => {
                // An iteration whose output is wrong failed in full.
                let all = self.reference.map_or(1, |c| c.attempted);
                self.attempted += all;
                self.failed += all;
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }
}

/// Sets the workload up — constructor, then the first iteration, which fills
/// caches and lazy state and fixes the reference counts — at least five
/// times, and for cheap set-ups until a fifth of the run's seconds has gone
/// into it.
fn set_up<W: Workload>(
    args: &Args,
    make: &impl Fn() -> W,
    tally: &mut Tally,
    reference: &mut Reference,
) -> (W, Vec<f64>) {
    let (min, max, budget) = if args.quick || args.trace {
        (1, 1, Duration::ZERO)
    } else {
        (5, 50, Duration::from_secs_f64(args.seconds / 5.0))
    };
    let began = Instant::now();
    let mut samples = Vec::new();
    let mut workload = None;
    while samples.len() < min || (samples.len() < max && began.elapsed() < budget) {
        drop(workload.take());
        let started = Instant::now();
        let mut w = make();
        w.prepare();
        let out = w.iterate();
        samples.push(started.elapsed().as_secs_f64());
        reference.pass();
        let checked = w.verify(&out);
        tally.absorb(&format!("set-up {}", samples.len()), checked);
        workload = Some(w);
    }
    // A set-up is not an attempt of the measured run.
    (tally.attempted, tally.failed) = (0, 0);
    (workload.expect("at least one set-up"), samples)
}

/// Times iterations until `budget` has passed and `min` of them are in.
fn timed_iterations<W: Workload>(
    w: &mut W,
    tally: &mut Tally,
    reference: &mut Reference,
    budget: Duration,
    min: usize,
) -> (Vec<f64>, f64) {
    let began = Instant::now();
    let mut walls = Vec::new();
    let mut verify_s = 0.0;
    while walls.len() < min || began.elapsed() < budget {
        w.prepare();
        let started = Instant::now();
        let out = w.iterate();
        walls.push(started.elapsed().as_secs_f64());
        reference.after_iteration();
        let started = Instant::now();
        let checked = w.verify(&out);
        verify_s += started.elapsed().as_secs_f64();
        tally.absorb(&format!("iteration {}", walls.len()), checked);
    }
    let verify_s = verify_s / walls.len() as f64;
    (walls, verify_s)
}

/// One run of one workload: the set-ups, then the timed (or traced) part.
pub fn run<W: Workload>(args: &Args, make: impl Fn() -> W) -> Outcome {
    let mut tally = Tally::default();
    let mut reference = Reference::new();
    let (mut w, setups) = set_up(args, &make, &mut tally, &mut reference);
    let setup_passes = 0..reference.samples.len();

    let budget = if args.quick {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(args.seconds)
    };
    let (walls, metrics) = if args.trace {
        traced(args, &mut w, &mut tally, &mut reference, budget)
    } else {
        let min = if args.quick { 1 } else { 3 };
        let (walls, _) = timed_iterations(&mut w, &mut tally, &mut reference, budget, min);
        let slowdown = reference.slowdown(0..reference.samples.len());
        let setup_slowdown = reference.slowdown(setup_passes);
        let metrics = end_to_end(&walls, &setups, slowdown, setup_slowdown, tally.reference);
        (walls, metrics)
    };
    Outcome {
        correct: tally.errors.is_empty(),
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        walls,
        setups,
        references: reference.samples,
        metrics,
        errors: tally.errors,
    }
}

/// Every end-to-end metric, from the iteration wall-clocks, the host's
/// slow-down during the run and the counts all iterations share.
fn end_to_end(
    walls: &[f64],
    setups: &[f64],
    slowdown: f64,
    setup_slowdown: f64,
    counts: Option<Counts>,
) -> Vec<Measured> {
    let per_s = |work: u64| -> Vec<f64> { walls.iter().map(|w| work as f64 / w).collect() };
    // No iteration passed its checks: nothing was counted.
    let c = counts.unwrap_or(Counts {
        n: 1,
        ..Counts::default()
    });
    END_TO_END
        .iter()
        .map(|m| match m.name {
            "wall_s" => Measured::from_samples(m, walls, slowdown),
            "work_per_s" => Measured::from_samples(m, &per_s(c.work), slowdown),
            "node_rounds_per_s" => Measured::from_samples(m, &per_s(c.node_rounds), slowdown),
            "msgs_per_s" => Measured::from_samples(m, &per_s(c.msgs), slowdown),
            "rounds_per_log2n" => Measured::exact(m.name, m.unit, rounds_per_log2n(&c)),
            "msgs_per_node" => Measured::exact(m.name, m.unit, c.msgs as f64 / c.n as f64),
            "setup_s" => Measured::from_samples(m, setups, setup_slowdown),
            "peak_rss_mb" => Measured::exact(m.name, m.unit, peak_rss_mb()),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        })
        .collect()
}

/// The traced part of a run: a few untraced iterations for the base, the
/// traced iteration, the workload's single-layer extras, then every per-layer
/// metric by name.
fn traced<W: Workload>(
    args: &Args,
    w: &mut W,
    tally: &mut Tally,
    reference: &mut Reference,
    budget: Duration,
) -> (Vec<f64>, Vec<Measured>) {
    let min = if args.quick { 1 } else { 2 };
    let (walls, verify_s) = timed_iterations(w, tally, reference, budget / 3, min);
    // Per-layer times are as measured, not brought to the nominal host.
    let untraced_s = best(&walls, true);

    // A traced iteration is one sample on a noisy host: take three and keep
    // the least disturbed, so the shares describe the program, not a neighbour.
    let mut matches = true;
    let mut kept: Option<(Tracer, LayerMetrics)> = None;
    for attempt in 1..=if args.quick { 1 } else { 3 } {
        let mut t = Tracer::default();
        let mut m = LayerMetrics::new();
        w.prepare();
        let checked = w.iterate_traced(&mut t, &mut m);
        matches &= matches!((&checked, tally.reference), (Ok(c), Some(r)) if *c == r);
        tally.absorb(&format!("traced iteration {attempt}"), checked);
        if kept
            .as_ref()
            .is_none_or(|(best, _)| t.total_ns("iteration") < best.total_ns("iteration"))
        {
            kept = Some((t, m));
        }
    }
    let (mut t, mut m) = kept.expect("at least one traced iteration");
    let traced_ns = t.total_ns("iteration");
    let traced_s = traced_ns as f64 / 1e9;
    let by_layer = t.self_by_layer("iteration");
    w.extras(untraced_s, &mut t, &mut m);

    m.insert(
        "host.slowdown",
        reference.slowdown(0..reference.samples.len()),
    );
    m.insert("traced_matches_untraced", f64::from(u8::from(matches)));
    m.insert("traced_wall_s", traced_s);
    m.insert("untraced_wall_s", untraced_s);
    m.insert("trace_overhead_share", (traced_s - untraced_s) / untraced_s);
    m.insert("graph.verify_s", verify_s);
    for (layer, self_s, share) in [
        (Layer::Graph, "graph.self_s", "graph.self_share"),
        (Layer::Netsim, "netsim.self_s", "netsim.self_share"),
        (Layer::Transport, "transport.self_s", "transport.self_share"),
        (Layer::Core, "core.self_s", "core.self_share"),
        (Layer::Traffic, "traffic.self_s", "traffic.self_share"),
        (Layer::Net, "net.self_s", "net.self_share"),
        (Layer::Scenarios, "scenarios.self_s", "scenarios.self_share"),
        (Layer::Bench, "bench.self_s", "bench.self_share"),
    ] {
        let ns = by_layer.get(&layer).copied().unwrap_or(0) as f64;
        m.insert(self_s, ns / 1e9);
        m.insert(share, ns / traced_ns as f64);
    }

    if let Some(path) = &args.spans {
        let doc = Json::obj(vec![
            ("workload", Json::Str(args.workload.clone())),
            ("seed", Json::UInt(args.seed)),
            ("spans", t.to_json()),
        ]);
        if let Err(e) = std::fs::write(path, doc.render()) {
            tally
                .errors
                .push(format!("writing {}: {e}", path.display()));
        }
    }

    for name in m.keys() {
        assert!(
            PER_LAYER.iter().any(|p| p.name == *name),
            "per-layer metric {name} is not in spec::PER_LAYER"
        );
    }
    let metrics = PER_LAYER
        .iter()
        .map(|p| {
            let value = m.get(p.name).copied().unwrap_or(0.0);
            Measured::exact(p.name, p.unit, if value.is_finite() { value } else { 0.0 })
        })
        .collect();
    (walls, metrics)
}

/// Prints the run for a reader, then the ledger's detail line, then — last —
/// the contract's result line.
pub fn print(args: &Args, outcome: &Outcome) {
    let why = spec::workload(&args.workload).map_or("", |w| w.why);
    println!(
        "# {} seed={} seconds={} trace={} iterations={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        outcome.walls.len()
    );
    println!("# {why}");
    for m in &outcome.metrics {
        if let Some(layer) = PER_LAYER.iter().find(|p| p.name == m.name) {
            println!(
                "# {:<34} {:>16.6} {:<6} {} is better; moves {}",
                m.name,
                m.value,
                m.unit,
                layer.better.name(),
                layer.moves
            );
        } else if m.samples > 1 {
            println!(
                "# {:<34} {:>16.6} {:<6} q1 {:.6} q3 {:.6} n={}",
                m.name, m.value, m.unit, m.q1, m.q3, m.samples
            );
        } else {
            println!("# {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    for e in outcome.errors.iter().take(3) {
        eprintln!("FAILED {}: {e}", args.workload);
    }
    if outcome.errors.len() > 3 {
        eprintln!(
            "FAILED {}: and {} more",
            args.workload,
            outcome.errors.len() - 3
        );
    }
    println!("detail {}", outcome.detail_json().render());
    println!("{}", outcome.result_json().render());
}
