//! Multi-seed sweeps: run one scenario across many seeds, in parallel, and
//! aggregate the results.

use crate::json::Json;
use crate::scenario::{RunRecord, Scenario, ServeRecord, ServeSpec, TrafficRecord, TrafficSpec};
use overlay_core::{MessageStats, PhaseId, PhaseOverrides, ServeOutcome};
use overlay_netsim::worker_count;
use overlay_traffic::TrafficReport;
use std::time::Duration;

/// A scenario × seed-set execution plan.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// The scenario to run.
    pub scenario: Scenario,
    /// The seeds to run it under (one [`RunRecord`] each).
    pub seeds: Vec<u64>,
}

impl Sweep {
    /// A sweep over `count` consecutive seeds starting at `first_seed`.
    ///
    /// Seeds wrap around `u64::MAX` deliberately (`wrapping_add`), so the seed set
    /// is always exactly `count` *distinct* seeds for any `first_seed`: the old
    /// unchecked `first_seed + i` panicked in debug builds and silently depended on
    /// release-mode wrapping near the top of the range.
    pub fn over_seeds(scenario: Scenario, first_seed: u64, count: usize) -> Self {
        Sweep {
            scenario,
            seeds: (0..count as u64)
                .map(|i| first_seed.wrapping_add(i))
                .collect(),
        }
    }

    /// Runs the seeds in parallel, one contiguous block of seeds per thread, and
    /// aggregates. Results are ordered by seed position, so the report is
    /// identical to running the seeds one after another on the calling thread.
    ///
    /// The report's [`SweepReport::observed_workers`] is the number of threads
    /// the seeds ran on, so a sweep shorter than the worker count reports the
    /// parallelism it really got.
    pub fn run(&self) -> SweepReport {
        let start = std::time::Instant::now();
        let workers = worker_count();
        let (records, threads) = ordered_map(&self.seeds, workers, |&seed| self.scenario.run(seed));
        SweepReport {
            scenario: self.scenario.clone(),
            records,
            wall: start.elapsed(),
            workers,
            observed_workers: threads,
        }
    }
}

/// Maps `f` over `items` in at most `workers` contiguous chunks, each on its
/// own scoped thread (a lone chunk runs on the calling thread), and returns
/// the results in input order together with the number of chunks.
fn ordered_map<T: Sync, U: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> U + Sync,
) -> (Vec<U>, usize) {
    if workers <= 1 || items.len() <= 1 {
        return (items.iter().map(f).collect(), items.len().min(1));
    }
    let chunks = items.chunks(items.len().div_ceil(workers.min(items.len())));
    let threads = chunks.len();
    let f = &f;
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .map(|chunk| s.spawn(move || chunk.iter().map(f).collect::<Vec<U>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    (results, threads)
}

/// The aggregated outcome of a [`Sweep`].
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Per-seed outcomes, in seed order.
    pub records: Vec<RunRecord>,
    /// Wall-clock time of the sweep (the only non-deterministic field; excluded from
    /// [`SweepReport::to_json`]'s deterministic section).
    pub wall: Duration,
    /// Worker threads the sweep was configured with ([`worker_count`]).
    pub workers: usize,
    /// Threads that executed seeds, one per contiguous block of seeds — fewer
    /// than `workers` when the seeds do not fill that many blocks.
    pub observed_workers: usize,
}

impl SweepReport {
    /// Fraction of runs that completed with a tree valid over the final survivors.
    pub fn success_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.success).count() as f64 / self.records.len() as f64
    }

    /// Mean coverage (alive tree nodes / initial nodes) across runs.
    pub(crate) fn mean_coverage(&self) -> f64 {
        mean(self.records.iter().map(|r| r.coverage))
    }

    /// Mean total round count across runs.
    pub fn mean_rounds(&self) -> f64 {
        mean(self.records.iter().map(|r| r.rounds as f64))
    }

    /// Smallest and largest round counts observed.
    pub(crate) fn round_range(&self) -> (usize, usize) {
        let min = self.records.iter().map(|r| r.rounds).min().unwrap_or(0);
        let max = self.records.iter().map(|r| r.rounds).max().unwrap_or(0);
        (min, max)
    }

    /// Mean messages delivered per run.
    pub fn mean_delivered(&self) -> f64 {
        mean(
            self.records
                .iter()
                .map(|r| r.messages.total_delivered as f64),
        )
    }

    /// One message counter summed across all runs — e.g.
    /// `message_total(|m| m.retransmits)` (zero for bare scenarios).
    pub fn message_total(&self, counter: impl Fn(&MessageStats) -> u64) -> u64 {
        self.records.iter().map(|r| counter(&r.messages)).sum()
    }

    /// The deterministic aggregate + per-seed report as a JSON value.
    ///
    /// Wall-clock time and worker count are environment facts, not results, and are
    /// reported next to — not inside — the deterministic body, so diffing two sweep
    /// reports answers "did behavior change?".
    pub fn to_json(&self) -> Json {
        let scenario = &self.scenario;
        let (rounds_min, rounds_max) = self.round_range();
        let transport = if scenario.transport.is_some() {
            "reliable"
        } else {
            "none"
        };
        let mut fields = vec![
            ("scenario", Json::Str(scenario.name.clone())),
            ("description", Json::Str(scenario.description.clone())),
            ("family", Json::Str(scenario.family.label())),
            ("n", int(scenario.actual_n())),
            ("faults", Json::Str(scenario.faults.label().to_string())),
            (
                "round_budget_percent",
                int(scenario.round_budget.as_percent()),
            ),
            ("round_budget_slack", int(scenario.round_budget.slack())),
            ("transport", Json::Str(transport.to_string())),
        ];
        // Tags, per-phase overrides and the serve/traffic sections are recorded
        // only when the scenario declares them: every report of a scenario
        // that carries none keeps its exact historical header, so the
        // committed baselines stay byte-identical.
        if !scenario.tags.is_empty() {
            let tags = scenario.tags.iter().map(|t| Json::Str(t.clone()));
            fields.push(("tags", Json::Arr(tags.collect())));
        }
        if !scenario.phases.is_empty() {
            fields.push(("phase_overrides", phase_overrides_json(&scenario.phases)));
        }
        fields.extend(
            scenario
                .serve
                .map(|spec| ("serve", serve_header(&spec, &self.records))),
        );
        fields.extend(
            scenario
                .traffic
                .map(|spec| ("traffic", traffic_header(&spec, &self.records))),
        );
        let sum = |counter: fn(&MessageStats) -> u64| int(self.message_total(counter));
        fields.extend(vec![
            ("seeds", int(self.records.len())),
            ("success_rate", Json::Num(self.success_rate())),
            ("mean_coverage", Json::Num(self.mean_coverage())),
            ("mean_rounds", Json::Num(self.mean_rounds())),
            ("rounds_min", int(rounds_min)),
            ("rounds_max", int(rounds_max)),
            ("mean_delivered", Json::Num(self.mean_delivered())),
            ("total_dropped_fault", sum(|m| m.dropped_fault)),
            ("total_retransmits", sum(|m| m.retransmits)),
            ("total_acks", sum(|m| m.acks)),
            ("total_dupes_dropped", sum(|m| m.dupes_dropped)),
            (
                "runs",
                Json::Arr(self.records.iter().map(record_json).collect()),
            ),
        ]);
        Json::obj(fields)
    }

    /// Renders the deterministic JSON report as a pretty string.
    pub fn to_json_string(&self) -> String {
        self.to_json().render_pretty()
    }

    /// A one-line human summary. Workers are shown as `observed/configured`.
    pub fn summary(&self) -> String {
        format!(
            "{:<44} seeds={:<3} success={:>5.1}% coverage={:>5.1}% rounds={:.0} ({}..{}) wall={:?} workers={}/{}",
            self.scenario.label(),
            self.records.len(),
            100.0 * self.success_rate(),
            100.0 * self.mean_coverage(),
            self.mean_rounds(),
            self.round_range().0,
            self.round_range().1,
            self.wall,
            self.observed_workers,
            self.workers,
        )
    }
}

/// The header entry for a scenario's per-phase overrides: one object per phase
/// that overrides anything, with only the overridden knobs present.
fn phase_overrides_json(overrides: &PhaseOverrides) -> Json {
    let mut phases = Vec::new();
    for id in PhaseId::ALL {
        let mut fields = Vec::new();
        if let Some(budget) = overrides.budget(id) {
            fields.push(("round_budget_percent", int(budget.as_percent())));
            fields.push(("round_budget_slack", int(budget.slack())));
        }
        if overrides.transport(id).is_some() {
            fields.push(("transport", Json::Str("reliable".into())));
        }
        if !fields.is_empty() {
            phases.push((id.name(), Json::obj(fields)));
        }
    }
    Json::obj(phases)
}

/// A count as a JSON integer (seeds, which span all of `u64`, do not go
/// through here).
fn int(v: impl TryInto<i64>) -> Json {
    Json::Int(v.try_into().ok().expect("report counters fit i64"))
}

/// The `serve` header of a serve cell's report: the spec echo, then the
/// service-level aggregates over every seed's [`ServeOutcome`] (a seed whose
/// construction failed counts with its zeroed outcome, so its coverage floor
/// is 0).
fn serve_header(spec: &ServeSpec, records: &[RunRecord]) -> Json {
    let outcomes = || {
        records
            .iter()
            .filter_map(|r| Some(&r.serve.as_ref()?.outcome))
    };
    let sum = |counter: fn(&ServeOutcome) -> usize| int(outcomes().map(counter).sum::<usize>());
    let floor = outcomes().map(|o| o.coverage_floor).fold(1.0, f64::min);
    let worst_repair = outcomes().map(|o| o.rounds_to_repair_max).max();
    Json::obj(vec![
        ("epochs", int(spec.epochs)),
        ("epoch_rounds", int(spec.epoch_rounds)),
        ("reinvite", Json::Bool(spec.reinvite)),
        ("join_rate", Json::Num(spec.join_rate)),
        ("leave_rate", Json::Num(spec.leave_rate)),
        ("crash_rate", Json::Num(spec.crash_rate)),
        (
            "burst_every_rounds",
            int(spec.burst.map_or(0, |b| b.every_rounds)),
        ),
        (
            "burst_fraction",
            Json::Num(spec.burst.map_or(0.0, |b| b.fraction)),
        ),
        ("min_coverage_floor", Json::Num(floor)),
        ("total_wf_violations", sum(|o| o.wf_violations)),
        ("total_reinvites", sum(|o| o.reinvites_sent)),
        ("total_reinvites_delivered", sum(|o| o.reinvites_delivered)),
        ("max_rounds_to_repair", int(worst_repair.unwrap_or(0))),
    ])
}

/// The `serve` object of one row: a serve cell's maintenance-phase outcome.
fn serve_row(record: &ServeRecord) -> Json {
    let o = &record.outcome;
    Json::obj(vec![
        ("served", Json::Bool(record.served)),
        ("sustained_coverage", Json::Num(o.sustained_coverage)),
        ("coverage_mean", Json::Num(o.coverage_mean)),
        ("coverage_floor", Json::Num(o.coverage_floor)),
        ("wf_violations", int(o.wf_violations)),
        ("reinvites_sent", int(o.reinvites_sent)),
        ("reinvites_delivered", int(o.reinvites_delivered)),
        ("repairs", int(o.repairs)),
        ("healed", int(o.healed)),
        ("rounds_to_repair_max", int(o.rounds_to_repair_max)),
        ("joined", int(o.joined)),
        ("left", int(o.left)),
        ("crashed", int(o.crashed)),
        ("final_alive", int(o.final_alive)),
    ])
}

/// The `traffic` header of a traffic cell's report: the spec echo, then the
/// workload-level aggregates over every seed's [`TrafficReport`].
fn traffic_header(spec: &TrafficSpec, records: &[RunRecord]) -> Json {
    let reports = || records.iter().filter_map(|r| Some(r.traffic?.report));
    let sum = |counter: fn(TrafficReport) -> u64| int(reports().map(counter).sum::<u64>());
    Json::obj(vec![
        ("workload", Json::Str(spec.workload.label().to_string())),
        ("policy", Json::Str(spec.policy.label().to_string())),
        ("requests_per_node", int(spec.requests_per_node)),
        ("horizon", int(spec.horizon)),
        ("ttl", int(spec.ttl)),
        ("queue_cap", int(spec.queue_cap)),
        ("per_round_budget", int(spec.per_round_budget)),
        ("loss", Json::Num(spec.loss)),
        (
            "mean_delivered_fraction",
            Json::Num(mean(reports().map(|t| t.delivered_fraction()))),
        ),
        (
            "mean_latency_p50",
            Json::Num(mean(reports().map(|t| t.latency_p50 as f64))),
        ),
        (
            "mean_latency_p99",
            Json::Num(mean(reports().map(|t| t.latency_p99 as f64))),
        ),
        // The figure the overlay's `O(log n)` diameter bounds.
        (
            "hops_p99_max",
            int(reports().map(|t| t.hops_p99).max().unwrap_or(0)),
        ),
        (
            "max_edge_load",
            int(reports().map(|t| t.max_edge_load).max().unwrap_or(0)),
        ),
        ("total_injected", sum(|t| t.injected)),
        ("total_delivered", sum(|t| t.delivered)),
        ("total_shed", sum(|t| t.dropped + t.expired + t.lost)),
    ])
}

/// The `traffic` object of one row: a traffic cell's workload outcome.
fn traffic_row(record: &TrafficRecord) -> Json {
    let t = &record.report;
    Json::obj(vec![
        ("routed", Json::Bool(record.routed)),
        ("injected", int(t.injected)),
        ("delivered", int(t.delivered)),
        ("dropped", int(t.dropped)),
        ("expired", int(t.expired)),
        ("lost", int(t.lost)),
        ("hops_p50", int(t.hops_p50)),
        ("hops_p99", int(t.hops_p99)),
        ("hops_max", int(t.hops_max)),
        ("latency_p50", int(t.latency_p50)),
        ("latency_p99", int(t.latency_p99)),
        ("latency_max", int(t.latency_max)),
        ("max_edge_load", int(t.max_edge_load)),
        ("max_node_forwards", int(t.max_node_forwards)),
        ("rounds", int(t.rounds)),
    ])
}

fn record_json(r: &RunRecord) -> Json {
    let m = &r.messages;
    let mut fields = vec![
        // Seeds span the full u64 range (`Sweep::over_seeds` wraps deliberately),
        // so they must not be squeezed through i64.
        ("seed", Json::UInt(r.seed)),
        ("round_budget_percent", int(r.round_budget_percent)),
        ("round_budget_slack", int(r.round_budget_slack)),
        ("success", Json::Bool(r.success)),
        ("completed", Json::Bool(r.completed)),
        ("coverage", Json::Num(r.coverage)),
        ("rounds", int(r.rounds)),
        ("core_size", int(r.core_size)),
        ("tree_height", int(r.tree_height)),
        ("tree_degree", int(r.tree_degree)),
        ("delivered", int(m.total_delivered)),
        ("dropped_fault", int(m.dropped_fault)),
        ("dropped_offline", int(m.dropped_offline)),
        ("dropped_receive", int(m.dropped_receive)),
        ("delayed", int(m.delayed)),
        ("retransmits", int(m.retransmits)),
        ("acks", int(m.acks)),
        ("dupes_dropped", int(m.dupes_dropped)),
        ("crashed", int(r.crashed)),
        ("joined", int(r.joined)),
        ("stalled_phase", Json::Str(r.stalled_phase.to_string())),
    ];
    // Serve and traffic cells carry their section; classic rows keep the exact
    // historical shape.
    fields.extend(r.serve.as_ref().map(|s| ("serve", serve_row(s))));
    fields.extend(r.traffic.as_ref().map(|t| ("traffic", traffic_row(t))));
    Json::obj(fields)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut count) = (0.0, 0usize);
    for v in values {
        sum += v;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::find;
    use overlay_core::RoundBudget;

    #[test]
    fn parallel_and_sequential_sweeps_agree() {
        let sweep = Sweep::over_seeds(find("lossy-ncc0").unwrap(), 0, 6);
        let sequential: Vec<RunRecord> =
            sweep.seeds.iter().map(|&s| sweep.scenario.run(s)).collect();
        assert_eq!(sweep.run().records, sequential);
    }

    /// Runs [`ordered_map`] over `0..n` on `workers`, checking the input order
    /// is kept and that the returned count is both the number of chunks and
    /// the number of distinct threads that ran them.
    fn check_ordered_map(n: usize, workers: usize, chunks: usize) {
        let items: Vec<usize> = (0..n).collect();
        let seen = std::sync::Mutex::new(std::collections::HashSet::new());
        let (out, threads) = ordered_map(&items, workers, |&x| {
            seen.lock().unwrap().insert(std::thread::current().id());
            x * 3
        });
        assert_eq!(out, (0..n).map(|x| x * 3).collect::<Vec<_>>(), "n={n}");
        assert_eq!(threads, chunks, "n={n} workers={workers}");
        assert_eq!(seen.into_inner().unwrap().len(), chunks, "n={n}");
    }

    #[test]
    fn ordered_map_keeps_input_order_with_one_thread_per_chunk() {
        check_ordered_map(0, 4, 0);
        check_ordered_map(1, 4, 1);
        // More workers than items: one item per thread.
        check_ordered_map(3, 8, 3);
        // More items than workers: ceil(10 / 4) = 3 per chunk, so 3 + 3 + 3 + 1,
        // and ceil(10 / 3) = 4 per chunk, so 4 + 4 + 2.
        check_ordered_map(10, 4, 4);
        check_ordered_map(10, 3, 3);
        check_ordered_map(7, 1, 1);
        check_ordered_map(5, 0, 1);
    }

    #[test]
    fn rerunning_a_sweep_is_byte_identical() {
        let sweep = Sweep::over_seeds(find("mid-build-crash-wave").unwrap(), 40, 4);
        assert_eq!(sweep.run().to_json_string(), sweep.run().to_json_string());
    }

    #[test]
    fn clean_baseline_always_succeeds() {
        let report = Sweep::over_seeds(find("clean-line").unwrap(), 0, 4).run();
        assert!((report.success_rate() - 1.0).abs() < 1e-12);
        assert!((report.mean_coverage() - 1.0).abs() < 1e-12);
        assert_eq!(report.message_total(|m| m.dropped_fault), 0);
    }

    #[test]
    fn json_report_carries_every_seed() {
        let sweep = Sweep::over_seeds(find("join-churn").unwrap(), 7, 3);
        let rendered = sweep.run().to_json_string();
        for seed in 7..10 {
            assert!(
                rendered.contains(&format!("\"seed\": {seed}")),
                "{rendered}"
            );
        }
        assert!(rendered.contains("\"success_rate\""));
        assert!(rendered.contains("\"round_budget_percent\": 150"));
    }

    #[test]
    fn over_seeds_wraps_instead_of_overflowing() {
        // Regression: `first_seed + i` panicked in debug builds near u64::MAX and
        // relied on silent release-mode wrapping. The wrap is now deliberate and
        // the seeds stay distinct.
        let sweep = Sweep::over_seeds(find("clean-line").unwrap(), u64::MAX - 1, 4);
        assert_eq!(sweep.seeds, vec![u64::MAX - 1, u64::MAX, 0, 1]);
        let mut unique = sweep.seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4, "wrapped seed ranges must stay distinct");
    }

    #[test]
    fn phase_overrides_appear_in_the_header_only_when_declared() {
        let bare = find("lossy-ncc0").unwrap();
        let rendered = Sweep::over_seeds(bare.clone(), 0, 2).run().to_json_string();
        assert!(
            !rendered.contains("phase_overrides"),
            "override-free scenarios must keep the historical header: {rendered}"
        );
        let mut scoped = bare;
        scoped.phases = PhaseOverrides::none()
            .with_budget(PhaseId::Binarize, RoundBudget::STANDARD.with_slack(12))
            .with_transport(PhaseId::Binarize, crate::TransportConfig::default());
        let rendered = Sweep::over_seeds(scoped, 0, 2).run().to_json_string();
        assert!(rendered.contains("\"phase_overrides\""), "{rendered}");
        assert!(rendered.contains("\"binarize\""), "{rendered}");
        assert!(
            rendered.contains("\"round_budget_slack\": 12"),
            "{rendered}"
        );
        assert!(
            !rendered.contains("\"create-expander\""),
            "phases without overrides must not be listed: {rendered}"
        );
        let parsed = Json::parse(&rendered).expect("report with overrides parses");
        assert!(parsed.render().contains("phase_overrides"));
    }

    #[test]
    fn traffic_fields_appear_in_the_report_only_for_traffic_cells() {
        let rendered = Sweep::over_seeds(find("clean-line").unwrap(), 0, 2)
            .run()
            .to_json_string();
        assert!(
            !rendered.contains("\"traffic\""),
            "traffic-free scenarios must keep the historical shape: {rendered}"
        );
        let report = Sweep::over_seeds(find("traffic-uniform").unwrap(), 0, 2).run();
        let rendered = report.to_json_string();
        assert!(rendered.contains("\"traffic\""), "{rendered}");
        assert!(rendered.contains("\"workload\": \"uniform\""), "{rendered}");
        assert!(rendered.contains("\"hops_p99\""), "{rendered}");
        assert!(rendered.contains("\"latency_p50\""), "{rendered}");
        // The clean expander delivers everything it injects.
        assert!(
            rendered.contains("\"mean_delivered_fraction\": 1,"),
            "{rendered}"
        );
        for record in &report.records {
            let traffic = record.traffic.expect("traffic cell").report;
            assert!(traffic.injected > 0);
            assert_eq!(traffic.delivered, traffic.injected);
        }
        let parsed = Json::parse(&rendered).expect("traffic report parses");
        assert_eq!(parsed.render(), report.to_json().render());
    }

    #[test]
    fn json_report_round_trips_through_the_parser() {
        let report = Sweep::over_seeds(find("lossy-ncc0").unwrap(), 3, 3).run();
        for rendered in [report.to_json().render(), report.to_json_string()] {
            let parsed = Json::parse(&rendered).expect("report JSON parses");
            // Integral floats reparse as ints; rendered form is the identity.
            assert_eq!(parsed.render(), report.to_json().render());
        }
    }
}
