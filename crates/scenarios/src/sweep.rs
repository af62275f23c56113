//! Multi-seed sweeps: run one scenario across many seeds, in parallel, and
//! aggregate the results.

use crate::json::Json;
use crate::scenario::{RunRecord, Scenario};
use overlay_core::{PhaseId, PhaseOverrides, TransportChoice};
use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::Mutex;
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

    /// Runs every seed in parallel (rayon) and aggregates. Results are ordered by
    /// seed position, so the report is identical to [`Sweep::run_sequential`]'s.
    ///
    /// The report's [`SweepReport::observed_workers`] counts the *distinct
    /// threads that actually executed seeds* — measured, not configured — so a
    /// sweep pinned to one core (or shorter than the worker count) reports the
    /// parallelism it really got.
    pub fn run(&self) -> SweepReport {
        let start = std::time::Instant::now();
        let seen = Mutex::new(HashSet::new());
        let records: Vec<RunRecord> = self
            .seeds
            .par_iter()
            .map(|&seed| {
                seen.lock().unwrap().insert(std::thread::current().id());
                self.scenario.run(seed)
            })
            .collect();
        let observed = seen.into_inner().unwrap().len();
        self.assemble(
            records,
            start.elapsed(),
            rayon::current_num_threads(),
            observed,
        )
    }

    /// Runs every seed on the calling thread (the comparison baseline for the
    /// parallel path).
    pub fn run_sequential(&self) -> SweepReport {
        let start = std::time::Instant::now();
        let records: Vec<RunRecord> = self.seeds.iter().map(|&s| self.scenario.run(s)).collect();
        self.assemble(records, start.elapsed(), 1, 1)
    }

    /// Runs the parallel sweep *and* the sequential baseline, records both
    /// wall-clocks in one report, and asserts the two paths produced identical
    /// records (the determinism contract, enforced on every compared run).
    ///
    /// This doubles the work, so it is opt-in — the sweep runner uses it for
    /// `--full` runs, where the measured serial-vs-parallel speedup lands in the
    /// `.meta.json` sidecar.
    ///
    /// # Panics
    ///
    /// Panics if the parallel and sequential paths disagree on any record —
    /// that would mean seed-level determinism is broken.
    pub fn run_compared(&self) -> SweepReport {
        let mut report = self.run();
        let start = std::time::Instant::now();
        let serial: Vec<RunRecord> = self.seeds.iter().map(|&s| self.scenario.run(s)).collect();
        assert_eq!(
            report.records, serial,
            "parallel and sequential sweeps must produce identical records"
        );
        report.serial_wall = Some(start.elapsed());
        report
    }

    fn assemble(
        &self,
        records: Vec<RunRecord>,
        wall: Duration,
        workers: usize,
        observed_workers: usize,
    ) -> SweepReport {
        SweepReport {
            scenario: self.scenario.clone(),
            records,
            wall,
            workers,
            observed_workers,
            serial_wall: None,
        }
    }
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
    /// Worker threads the sweep was configured with ([`rayon::current_num_threads`]).
    pub workers: usize,
    /// Distinct threads that actually executed seeds — the parallelism the sweep
    /// *measured*, which can be less than `workers` on a loaded or small machine
    /// (and is 1 for [`Sweep::run_sequential`]).
    pub observed_workers: usize,
    /// Wall-clock of the sequential baseline, when this report came from
    /// [`Sweep::run_compared`]; `None` for ordinary runs.
    pub serial_wall: Option<Duration>,
}

impl SweepReport {
    /// Parallel speedup (`serial_wall / wall`) when the sweep ran compared
    /// ([`Sweep::run_compared`]); `None` otherwise or when the wall-clock was
    /// too short to measure.
    pub fn speedup(&self) -> Option<f64> {
        let serial = self.serial_wall?;
        if self.wall.is_zero() {
            return None;
        }
        Some(serial.as_secs_f64() / self.wall.as_secs_f64())
    }

    /// Fraction of runs that completed with a tree valid over the final survivors.
    pub fn success_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.success).count() as f64 / self.records.len() as f64
    }

    /// Mean coverage (alive tree nodes / initial nodes) across runs.
    pub fn mean_coverage(&self) -> f64 {
        mean(self.records.iter().map(|r| r.coverage))
    }

    /// Mean total round count across runs.
    pub fn mean_rounds(&self) -> f64 {
        mean(self.records.iter().map(|r| r.rounds as f64))
    }

    /// Smallest and largest round counts observed.
    pub fn round_range(&self) -> (usize, usize) {
        let min = self.records.iter().map(|r| r.rounds).min().unwrap_or(0);
        let max = self.records.iter().map(|r| r.rounds).max().unwrap_or(0);
        (min, max)
    }

    /// Mean messages delivered per run.
    pub fn mean_delivered(&self) -> f64 {
        mean(self.records.iter().map(|r| r.delivered as f64))
    }

    /// Total messages lost to injected faults across all runs.
    pub fn total_dropped_fault(&self) -> u64 {
        self.records.iter().map(|r| r.dropped_fault).sum()
    }

    /// Total transport-layer retransmissions across all runs (zero for bare
    /// scenarios).
    pub fn total_retransmits(&self) -> u64 {
        self.records.iter().map(|r| r.retransmits).sum()
    }

    /// Total transport-layer acknowledgment messages across all runs.
    pub fn total_acks(&self) -> u64 {
        self.records.iter().map(|r| r.acks).sum()
    }

    /// Total duplicate payloads suppressed by the transport across all runs.
    pub fn total_dupes_dropped(&self) -> u64 {
        self.records.iter().map(|r| r.dupes_dropped).sum()
    }

    /// Lowest per-boundary coverage floor any seed observed (1.0 when the
    /// scenario has no maintenance phase; 0.0 when any seed failed to serve).
    pub fn min_coverage_floor(&self) -> f64 {
        self.records
            .iter()
            .filter_map(|r| r.serve.map(|s| s.coverage_floor))
            .fold(1.0, f64::min)
    }

    /// Total well-formedness violations across every seed's epoch boundaries.
    pub fn total_wf_violations(&self) -> u64 {
        self.serve_sum(|s| s.wf_violations)
    }

    /// Total re-invitations issued across all runs.
    pub fn total_reinvites(&self) -> u64 {
        self.serve_sum(|s| s.reinvites_sent)
    }

    /// Total re-invitations that admitted their straggler across all runs.
    pub fn total_reinvites_delivered(&self) -> u64 {
        self.serve_sum(|s| s.reinvites_delivered)
    }

    /// Worst rounds-to-repair after a crash burst across all runs.
    pub fn max_rounds_to_repair(&self) -> u64 {
        self.records
            .iter()
            .filter_map(|r| r.serve.map(|s| s.rounds_to_repair_max as u64))
            .max()
            .unwrap_or(0)
    }

    fn serve_sum(&self, f: impl Fn(&crate::scenario::ServeRecord) -> usize) -> u64 {
        self.records
            .iter()
            .filter_map(|r| r.serve.as_ref().map(&f))
            .map(|v| v as u64)
            .sum()
    }

    /// Mean delivered fraction of the traffic phase across seeds (1.0 when
    /// the scenario carries no traffic).
    pub fn mean_delivered_fraction(&self) -> f64 {
        let fractions: Vec<f64> = self
            .traffic_reports()
            .map(|t| t.delivered_fraction())
            .collect();
        if fractions.is_empty() {
            1.0
        } else {
            mean(fractions.into_iter())
        }
    }

    /// Mean per-seed median rounds-to-delivery (0 without traffic).
    pub fn mean_latency_p50(&self) -> f64 {
        mean(self.traffic_reports().map(|t| t.latency_p50 as f64))
    }

    /// Mean per-seed 99th-percentile rounds-to-delivery (0 without traffic).
    pub fn mean_latency_p99(&self) -> f64 {
        mean(self.traffic_reports().map(|t| t.latency_p99 as f64))
    }

    /// Worst per-seed 99th-percentile hop count — the figure the overlay's
    /// `O(log n)` diameter bounds (0 without traffic).
    pub fn hops_p99_max(&self) -> u32 {
        self.traffic_reports()
            .map(|t| t.hops_p99)
            .max()
            .unwrap_or(0)
    }

    /// Most messages any single directed edge carried in any seed.
    pub fn max_edge_load(&self) -> u32 {
        self.traffic_reports()
            .map(|t| t.max_edge_load)
            .max()
            .unwrap_or(0)
    }

    /// Total requests injected across all runs.
    pub fn total_injected(&self) -> u64 {
        self.traffic_reports().map(|t| t.injected).sum()
    }

    /// Total requests delivered across all runs.
    pub fn total_traffic_delivered(&self) -> u64 {
        self.traffic_reports().map(|t| t.delivered).sum()
    }

    /// Total requests shed (overflow/unroutable), expired, or lost in flight
    /// across all runs.
    pub fn total_traffic_shed(&self) -> u64 {
        self.traffic_reports()
            .map(|t| t.dropped + t.expired + t.lost)
            .sum()
    }

    fn traffic_reports(&self) -> impl Iterator<Item = overlay_traffic::TrafficReport> + '_ {
        self.records.iter().filter_map(|r| Some(r.traffic?.report))
    }

    /// The deterministic aggregate + per-seed report as a JSON value.
    ///
    /// Wall-clock time and worker count are environment facts, not results, and are
    /// reported next to — not inside — the deterministic body, so diffing two sweep
    /// reports answers "did behavior change?".
    pub fn to_json(&self) -> Json {
        let (rounds_min, rounds_max) = self.round_range();
        let mut fields = vec![
            ("scenario", Json::Str(self.scenario.name.clone())),
            ("description", Json::Str(self.scenario.description.clone())),
            ("family", Json::Str(self.scenario.family.label())),
            ("n", Json::Int(self.scenario.actual_n() as i64)),
            (
                "capacity",
                Json::Str(self.scenario.capacity.label().to_string()),
            ),
            (
                "faults",
                Json::Str(self.scenario.faults.label().to_string()),
            ),
            (
                "round_budget_percent",
                Json::Int(self.scenario.round_budget.as_percent() as i64),
            ),
            (
                "round_budget_slack",
                Json::Int(self.scenario.round_budget.slack() as i64),
            ),
            (
                "transport",
                Json::Str(
                    if self.scenario.transport.is_some() {
                        "reliable"
                    } else {
                        "none"
                    }
                    .to_string(),
                ),
            ),
        ];
        // Explicit annotation tags and per-phase overrides are recorded only when
        // the scenario declares any: pre-matrix reports (and every scenario that
        // carries no tags and inherits the scenario-wide settings everywhere)
        // keep their exact historical header, so the committed baselines stay
        // byte-identical.
        if !self.scenario.tags.is_empty() {
            fields.push((
                "tags",
                Json::Arr(
                    self.scenario
                        .tags
                        .iter()
                        .map(|t| Json::Str(t.clone()))
                        .collect(),
                ),
            ));
        }
        if !self.scenario.phases.is_empty() {
            fields.push((
                "phase_overrides",
                phase_overrides_json(&self.scenario.phases),
            ));
        }
        // The maintenance phase of a serve cell: spec echo plus service-level
        // aggregates. Conditional like tags/phase_overrides, so every classic
        // build-once report keeps its exact historical header.
        if let Some(spec) = self.scenario.serve {
            fields.push((
                "serve",
                Json::obj(vec![
                    ("epochs", Json::Int(spec.epochs as i64)),
                    ("epoch_rounds", Json::Int(spec.epoch_rounds as i64)),
                    ("reinvite", Json::Bool(spec.reinvite)),
                    ("join_rate", Json::Num(spec.join_rate)),
                    ("leave_rate", Json::Num(spec.leave_rate)),
                    ("crash_rate", Json::Num(spec.crash_rate)),
                    (
                        "burst_every_rounds",
                        Json::Int(spec.burst.map_or(0, |b| b.every_rounds) as i64),
                    ),
                    (
                        "burst_fraction",
                        Json::Num(spec.burst.map_or(0.0, |b| b.fraction)),
                    ),
                    ("min_coverage_floor", Json::Num(self.min_coverage_floor())),
                    (
                        "total_wf_violations",
                        Json::Int(self.total_wf_violations() as i64),
                    ),
                    ("total_reinvites", Json::Int(self.total_reinvites() as i64)),
                    (
                        "total_reinvites_delivered",
                        Json::Int(self.total_reinvites_delivered() as i64),
                    ),
                    (
                        "max_rounds_to_repair",
                        Json::Int(self.max_rounds_to_repair() as i64),
                    ),
                ]),
            ));
        }
        // The traffic phase of a traffic cell: spec echo plus workload-level
        // aggregates. Conditional like serve, so every pre-traffic report
        // keeps its exact historical header.
        if let Some(spec) = self.scenario.traffic {
            fields.push((
                "traffic",
                Json::obj(vec![
                    ("workload", Json::Str(spec.workload.label().to_string())),
                    ("policy", Json::Str(spec.policy.label().to_string())),
                    (
                        "requests_per_node",
                        Json::Int(spec.requests_per_node as i64),
                    ),
                    ("horizon", Json::Int(spec.horizon as i64)),
                    ("ttl", Json::Int(spec.ttl as i64)),
                    ("queue_cap", Json::Int(spec.queue_cap as i64)),
                    ("per_round_budget", Json::Int(spec.per_round_budget as i64)),
                    ("loss", Json::Num(spec.loss)),
                    (
                        "mean_delivered_fraction",
                        Json::Num(self.mean_delivered_fraction()),
                    ),
                    ("mean_latency_p50", Json::Num(self.mean_latency_p50())),
                    ("mean_latency_p99", Json::Num(self.mean_latency_p99())),
                    ("hops_p99_max", Json::Int(self.hops_p99_max() as i64)),
                    ("max_edge_load", Json::Int(self.max_edge_load() as i64)),
                    ("total_injected", Json::Int(self.total_injected() as i64)),
                    (
                        "total_delivered",
                        Json::Int(self.total_traffic_delivered() as i64),
                    ),
                    ("total_shed", Json::Int(self.total_traffic_shed() as i64)),
                ]),
            ));
        }
        fields.extend(vec![
            ("seeds", Json::Int(self.records.len() as i64)),
            ("success_rate", Json::Num(self.success_rate())),
            ("mean_coverage", Json::Num(self.mean_coverage())),
            ("mean_rounds", Json::Num(self.mean_rounds())),
            ("rounds_min", Json::Int(rounds_min as i64)),
            ("rounds_max", Json::Int(rounds_max as i64)),
            ("mean_delivered", Json::Num(self.mean_delivered())),
            (
                "total_dropped_fault",
                Json::Int(self.total_dropped_fault() as i64),
            ),
            (
                "total_retransmits",
                Json::Int(self.total_retransmits() as i64),
            ),
            ("total_acks", Json::Int(self.total_acks() as i64)),
            (
                "total_dupes_dropped",
                Json::Int(self.total_dupes_dropped() as i64),
            ),
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

    /// A one-line human summary. Workers are shown as `observed/configured`;
    /// compared runs ([`Sweep::run_compared`]) append the serial wall-clock and
    /// the measured speedup.
    pub fn summary(&self) -> String {
        let mut line = format!(
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
        );
        if let Some(serial) = self.serial_wall {
            line.push_str(&format!(" serial={serial:?}"));
            if let Some(speedup) = self.speedup() {
                line.push_str(&format!(" speedup={speedup:.2}x"));
            }
        }
        line
    }
}

/// The header entry for a scenario's per-phase overrides: one object per phase
/// that overrides anything, with only the overridden knobs present.
fn phase_overrides_json(overrides: &PhaseOverrides) -> Json {
    let mut phases = Vec::new();
    for id in PhaseId::ALL {
        let mut fields = Vec::new();
        if let Some(budget) = overrides.budget(id) {
            fields.push((
                "round_budget_percent",
                Json::Int(budget.as_percent() as i64),
            ));
            fields.push(("round_budget_slack", Json::Int(budget.slack() as i64)));
        }
        match overrides.transport(id) {
            None => {}
            Some(TransportChoice::Bare) => fields.push(("transport", Json::Str("none".into()))),
            Some(TransportChoice::Reliable(_)) => {
                fields.push(("transport", Json::Str("reliable".into())))
            }
        }
        if !fields.is_empty() {
            phases.push((id.name(), Json::obj(fields)));
        }
    }
    Json::obj(phases)
}

fn record_json(r: &RunRecord) -> Json {
    let mut fields = vec![
        // Seeds span the full u64 range (`Sweep::over_seeds` wraps deliberately),
        // so they must not be squeezed through i64.
        ("seed", Json::UInt(r.seed)),
        (
            "round_budget_percent",
            Json::Int(r.round_budget_percent as i64),
        ),
        ("round_budget_slack", Json::Int(r.round_budget_slack as i64)),
        ("success", Json::Bool(r.success)),
        ("completed", Json::Bool(r.completed)),
        ("coverage", Json::Num(r.coverage)),
        ("rounds", Json::Int(r.rounds as i64)),
        ("core_size", Json::Int(r.core_size as i64)),
        ("tree_height", Json::Int(r.tree_height as i64)),
        ("tree_degree", Json::Int(r.tree_degree as i64)),
        ("delivered", Json::Int(r.delivered as i64)),
        ("dropped_fault", Json::Int(r.dropped_fault as i64)),
        ("dropped_offline", Json::Int(r.dropped_offline as i64)),
        ("dropped_receive", Json::Int(r.dropped_receive as i64)),
        ("delayed", Json::Int(r.delayed as i64)),
        ("retransmits", Json::Int(r.retransmits as i64)),
        ("acks", Json::Int(r.acks as i64)),
        ("dupes_dropped", Json::Int(r.dupes_dropped as i64)),
        ("crashed", Json::Int(r.crashed as i64)),
        ("joined", Json::Int(r.joined as i64)),
        ("stalled_phase", Json::Str(r.stalled_phase.to_string())),
    ];
    // Serve cells carry their maintenance-phase outcome; classic rows keep the
    // exact historical shape.
    if let Some(s) = &r.serve {
        fields.push((
            "serve",
            Json::obj(vec![
                ("served", Json::Bool(s.served)),
                ("sustained_coverage", Json::Num(s.sustained_coverage)),
                ("coverage_mean", Json::Num(s.coverage_mean)),
                ("coverage_floor", Json::Num(s.coverage_floor)),
                ("wf_violations", Json::Int(s.wf_violations as i64)),
                ("reinvites_sent", Json::Int(s.reinvites_sent as i64)),
                (
                    "reinvites_delivered",
                    Json::Int(s.reinvites_delivered as i64),
                ),
                ("repairs", Json::Int(s.repairs as i64)),
                ("healed", Json::Int(s.healed as i64)),
                (
                    "rounds_to_repair_max",
                    Json::Int(s.rounds_to_repair_max as i64),
                ),
                ("joined", Json::Int(s.joined as i64)),
                ("left", Json::Int(s.left as i64)),
                ("crashed", Json::Int(s.crashed as i64)),
                ("final_alive", Json::Int(s.final_alive as i64)),
            ]),
        ));
    }
    // Traffic cells carry their workload outcome; classic rows keep the exact
    // historical shape.
    if let Some(traffic) = &r.traffic {
        let t = &traffic.report;
        fields.push((
            "traffic",
            Json::obj(vec![
                ("routed", Json::Bool(traffic.routed)),
                ("injected", Json::Int(t.injected as i64)),
                ("delivered", Json::Int(t.delivered as i64)),
                ("dropped", Json::Int(t.dropped as i64)),
                ("expired", Json::Int(t.expired as i64)),
                ("lost", Json::Int(t.lost as i64)),
                ("hops_p50", Json::Int(t.hops_p50 as i64)),
                ("hops_p99", Json::Int(t.hops_p99 as i64)),
                ("hops_max", Json::Int(t.hops_max as i64)),
                ("latency_p50", Json::Int(t.latency_p50 as i64)),
                ("latency_p99", Json::Int(t.latency_p99 as i64)),
                ("latency_max", Json::Int(t.latency_max as i64)),
                ("max_edge_load", Json::Int(t.max_edge_load as i64)),
                ("max_node_forwards", Json::Int(t.max_node_forwards as i64)),
                ("rounds", Json::Int(t.rounds as i64)),
            ]),
        ));
    }
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
        let par = sweep.run();
        let seq = sweep.run_sequential();
        assert_eq!(par.records, seq.records);
        assert_eq!(par.to_json().render(), seq.to_json().render());
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
        assert_eq!(report.total_dropped_fault(), 0);
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
            .with_transport(
                PhaseId::Binarize,
                TransportChoice::Reliable(crate::TransportConfig::default()),
            );
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
        assert!((report.mean_delivered_fraction() - 1.0).abs() < 1e-12);
        assert!(report.total_injected() > 0);
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
