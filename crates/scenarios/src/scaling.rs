//! The scaling harness: sweeps `n × family × fault load` through the large-`n`
//! matrix cells and reports wall-clock against the paper's `O(log n)` round
//! bound.
//!
//! The harness runs every size-axis cell of [`crate::full_registry`] (derived
//! via `Scenario::at_n`, so clean and lossy-reliable columns at each size) once
//! per size, twice each: once with within-round parallelism forced off and once
//! with it engaged. The two runs must produce identical records — the
//! simulator's parallel path is bitwise equal to the serial one — so the pair
//! yields a *measured* serial-vs-parallel wall-clock per `n` for free, next to
//! the round counts the paper's analysis predicts.
//!
//! Output is a markdown report ([`render_markdown`]) committed next to the
//! sweep baselines: machine facts first (they are what the wall-clocks mean
//! anything relative to), then a per-cell table, then the round-bound
//! interpretation. The sweep runner's `--scaling` flag drives this end to end.

use crate::scenario::Scenario;
use crate::VariantAxis;
use overlay_netsim::caps::log2_ceil;
use overlay_netsim::{worker_count, ParallelismConfig};
use std::time::{Duration, Instant};

/// The environment a scaling run measured on. Wall-clocks are meaningless
/// without these facts, so they head the committed report.
#[derive(Clone, Debug)]
pub struct MachineInfo {
    /// Cores the OS reports ([`std::thread::available_parallelism`]).
    pub available_parallelism: usize,
    /// The `RAYON_NUM_THREADS` override, when set.
    pub rayon_env: Option<String>,
    /// Worker threads a run will use ([`worker_count`]).
    pub workers: usize,
    /// Operating system (`std::env::consts::OS`).
    pub os: &'static str,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: &'static str,
}

impl MachineInfo {
    /// Captures the current machine's facts.
    pub fn capture() -> Self {
        MachineInfo {
            available_parallelism: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            rayon_env: std::env::var("RAYON_NUM_THREADS").ok(),
            workers: worker_count(),
            os: std::env::consts::OS,
            arch: std::env::consts::ARCH,
        }
    }

    /// Whether the machine has cores beyond the first. A serial-vs-parallel
    /// wall-clock ratio is only a *speedup* when there is a spare core to run
    /// the parallel path on; on a single core it measures sharding overhead,
    /// so the scaling report gates its speedup column behind this.
    pub fn has_spare_cores(&self) -> bool {
        self.available_parallelism > 1
    }
}

/// One measured cell of the scaling sweep: a `(scenario, n)` point with its
/// serial and parallel wall-clocks and the run's headline results.
#[derive(Clone, Debug)]
pub struct ScalingCell {
    /// The cell's registry name (e.g. `full-clean-line-65536`).
    pub name: String,
    /// Graph family label.
    pub family: String,
    /// Fault-load label.
    pub faults: String,
    /// Effective node count.
    pub n: usize,
    /// Total rounds across all pipeline phases.
    pub rounds: usize,
    /// Whether the run succeeded (tree valid over the final survivors).
    pub success: bool,
    /// Messages delivered.
    pub delivered: u64,
    /// Wall-clock with within-round parallelism forced off.
    pub serial_wall: Duration,
    /// Wall-clock with within-round parallelism engaged (same results, bitwise).
    pub parallel_wall: Duration,
    /// Worker threads the parallel run stepped nodes with.
    pub workers: usize,
}

impl ScalingCell {
    /// `serial_wall / parallel_wall`; `None` when too fast to measure.
    pub fn speedup(&self) -> Option<f64> {
        if self.parallel_wall.is_zero() {
            return None;
        }
        Some(self.serial_wall.as_secs_f64() / self.parallel_wall.as_secs_f64())
    }
}

/// The size-axis cells of [`crate::full_registry`] with `n <= max_n`, ordered
/// by `(n, name)` so the report reads smallest to largest.
pub fn scaling_cells(max_n: usize) -> Vec<Scenario> {
    let mut cells: Vec<Scenario> = crate::full_registry()
        .iter()
        .filter(|s| s.axis == Some(VariantAxis::Size) && s.actual_n() <= max_n)
        .cloned()
        .collect();
    cells.sort_by(|a, b| (a.actual_n(), &a.name).cmp(&(b.actual_n(), &b.name)));
    cells
}

/// Measures one cell: runs `seed` once serially and once with parallelism
/// engaged from `min_nodes` up, checks the two records are identical, and
/// returns the timed cell.
///
/// # Panics
///
/// Panics if the serial and parallel runs disagree — that would mean the
/// simulator's parallel path broke its bitwise-identity contract.
pub fn run_cell(scenario: &Scenario, seed: u64, min_nodes: usize) -> ScalingCell {
    let serial = scenario
        .clone()
        .with_parallelism(ParallelismConfig::serial());
    let parallel = scenario.clone().with_parallelism(ParallelismConfig {
        workers: None,
        min_nodes,
    });
    let start = Instant::now();
    let serial_record = serial.run(seed);
    let serial_wall = start.elapsed();
    let start = Instant::now();
    let parallel_record = parallel.run(seed);
    let parallel_wall = start.elapsed();
    assert_eq!(
        serial_record, parallel_record,
        "{}: parallel run must be bitwise identical to serial",
        scenario.name
    );
    ScalingCell {
        name: scenario.name.clone(),
        family: scenario.family.label(),
        faults: scenario.faults.label().to_string(),
        n: scenario.actual_n(),
        rounds: serial_record.rounds,
        success: serial_record.success,
        delivered: serial_record.messages.total_delivered,
        serial_wall,
        parallel_wall,
        workers: worker_count(),
    }
}

/// Renders the committed markdown scaling report: machine facts, the per-cell
/// table, and the `O(log n)` interpretation (including, on machines without
/// spare cores, why no wall-clock speedup can appear).
pub fn render_markdown(machine: &MachineInfo, cells: &[ScalingCell]) -> String {
    let mut out = String::new();
    out.push_str("# Scaling report\n\n");
    out.push_str(
        "Generated by `sweep_runner --scaling`: every size-axis cell of the\n\
         `--full` registry runs once per size, serially and with within-round\n\
         parallelism engaged. The two runs are asserted bitwise identical, so\n\
         the wall-clock pair is a measured serial-vs-parallel comparison of the\n\
         same computation.\n\n",
    );
    out.push_str("## Machine\n\n");
    out.push_str(&format!("- os/arch: {}/{}\n", machine.os, machine.arch));
    out.push_str(&format!(
        "- available cores: {}\n",
        machine.available_parallelism
    ));
    out.push_str(&format!(
        "- RAYON_NUM_THREADS: {}\n",
        machine.rayon_env.as_deref().unwrap_or("(unset)")
    ));
    out.push_str(&format!("- rayon workers: {}\n\n", machine.workers));
    out.push_str("## Cells\n\n");
    // The speedup column only appears when a spare core exists to give the
    // ratio its meaning; on a single core the serial/parallel pair still
    // documents the sharded path's overhead, but labeling it "speedup" would
    // misread as a parallelism claim.
    let speedups = machine.has_spare_cores();
    if speedups {
        out.push_str(
            "| scenario | n | rounds | rounds/⌈log₂ n⌉ | success | delivered | serial wall | parallel wall | speedup |\n",
        );
        out.push_str("|---|---:|---:|---:|---|---:|---:|---:|---:|\n");
    } else {
        out.push_str(
            "| scenario | n | rounds | rounds/⌈log₂ n⌉ | success | delivered | serial wall | parallel wall |\n",
        );
        out.push_str("|---|---:|---:|---:|---|---:|---:|---:|\n");
    }
    for cell in cells {
        let log_n = log2_ceil(cell.n).max(1);
        out.push_str(&format!(
            "| {} | {} | {} | {:.1} | {} | {} | {:.2?} | {:.2?} |",
            cell.name,
            cell.n,
            cell.rounds,
            cell.rounds as f64 / log_n as f64,
            if cell.success { "yes" } else { "no" },
            cell.delivered,
            cell.serial_wall,
            cell.parallel_wall,
        ));
        if speedups {
            out.push_str(&format!(
                " {} |",
                cell.speedup()
                    .map_or("-".to_string(), |s| format!("{s:.2}x")),
            ));
        }
        out.push('\n');
    }
    out.push('\n');
    out.push_str("## Interpretation\n\n");
    out.push_str(
        "The paper's pipeline finishes in `O(log n)` rounds; the `rounds/⌈log₂ n⌉`\n\
         column is the measured constant. It should stay flat as `n` grows — the\n\
         wall-clock per cell then scales as `rounds × (work per round)`, and the\n\
         work per round is what within-round parallelism divides across cores.\n\n",
    );
    if !machine.has_spare_cores() {
        out.push_str(
            "**This machine exposes a single core**, so the parallel path cannot\n\
             produce a wall-clock speedup here: rayon sizes its pool to the one\n\
             available core (unless `RAYON_NUM_THREADS` forces more, which only\n\
             adds scheduling overhead on one core). The speedup column is\n\
             therefore omitted — the serial/parallel wall-clock pair measures\n\
             the sharded path's overhead, not its benefit; the bitwise identity\n\
             assertion still exercises that code path end to end. Re-run\n\
             `sweep_runner --scaling` on a multi-core machine for a real\n\
             speedup measurement.\n",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cells_are_size_sorted_and_capped() {
        let cells = scaling_cells(4096);
        assert!(!cells.is_empty());
        assert!(cells.iter().all(|s| s.actual_n() <= 4096));
        let sizes: Vec<usize> = cells.iter().map(|s| s.actual_n()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted);
        // Both the clean and the lossy-reliable column are present at each size.
        assert!(cells.iter().any(|s| s.name.starts_with("full-clean-line-")));
        assert!(cells
            .iter()
            .any(|s| s.name.starts_with("full-lossy-ncc0-reliable-")));
    }

    #[test]
    fn run_cell_times_both_paths_and_asserts_identity() {
        // A small hand-rolled cell keeps this test fast; min_nodes = 0 forces
        // the parallel path to actually engage.
        let scenario = crate::find("clean-line").expect("registered");
        let cell = run_cell(&scenario, 0, 0);
        assert_eq!(cell.n, 128);
        assert!(cell.success);
        assert!(cell.rounds > 0);
        assert!(cell.delivered > 0);
    }

    #[test]
    fn markdown_report_names_every_cell_and_the_machine() {
        let machine = MachineInfo::capture();
        let scenario = crate::find("clean-line").expect("registered");
        let cell = run_cell(&scenario, 0, 0);
        let text = render_markdown(&machine, &[cell]);
        assert!(text.contains("# Scaling report"));
        assert!(text.contains("## Machine"));
        assert!(text.contains("clean-line"));
        assert!(text.contains("rounds/⌈log₂ n⌉"));
        assert!(text.contains("## Interpretation"));
    }

    #[test]
    fn speedup_column_is_gated_behind_spare_cores() {
        let scenario = crate::find("clean-line").expect("registered");
        let cell = run_cell(&scenario, 0, 0);
        let single = MachineInfo {
            available_parallelism: 1,
            rayon_env: None,
            workers: 1,
            os: "linux",
            arch: "x86_64",
        };
        let multi = MachineInfo {
            available_parallelism: 8,
            workers: 8,
            ..single.clone()
        };
        assert!(!single.has_spare_cores());
        assert!(multi.has_spare_cores());
        let single_text = render_markdown(&single, std::slice::from_ref(&cell));
        assert!(!single_text.contains("speedup |"), "{single_text}");
        assert!(single_text.contains("single core"), "{single_text}");
        let multi_text = render_markdown(&multi, &[cell]);
        assert!(multi_text.contains("| speedup |"), "{multi_text}");
        assert!(!multi_text.contains("single core"), "{multi_text}");
    }
}
