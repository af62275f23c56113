//! Declarative churn & fault scenarios with a parallel multi-seed sweep runner.
//!
//! The paper's Theorem 1.1 is a clean-network statement; this crate measures what the
//! pipeline does when the network is *not* clean. A [`Scenario`] names one experiment:
//! a graph family × size × [`FaultSpec`] (lowered per run into a concrete seeded
//! [`overlay_netsim::FaultPlan`]). A [`Sweep`] executes a scenario
//! across many seeds — in parallel on scoped threads — and aggregates the per-seed
//! [`RunRecord`]s into a [`SweepReport`] with success rates, coverage, round counts
//! and message-loss accounting, serializable to JSON. A row carries the lower
//! layers' results as they are — [`overlay_core::MessageStats`],
//! [`overlay_core::ServeOutcome`], [`overlay_traffic::TrafficReport`] — rather than a
//! copy of their fields, so a new counter is one struct field plus one JSON key in
//! `sweep.rs`.
//!
//! # The registry
//!
//! [`registry()`] returns the built-in scenario matrix as a first-class
//! [`Registry`]: validated at construction (unique kebab-case names, every
//! [`Scenario::baseline`] pairing resolves, every derived twin differs from its
//! baseline only along its declared [`VariantAxis`]), with indexed
//! [`Registry::find`], tags ([`Scenario::has_tag`] — family and fault labels are
//! tags too), and a [`Registry::pairs`] iterator over
//! `(baseline, twin)` couples. Sweep them all — or the ones named on the
//! command line — with the `sweep_runner` binary, and discover the cells
//! with `sweep_runner --list [--tag T]`.
//!
//! # Adding a matrix cell
//!
//! 1. If the failure mode is new, add a variant to [`FaultSpec`] and lower it to a
//!    [`overlay_netsim::FaultPlan`] in [`FaultSpec::lower`] — keep every random choice
//!    derived from the `seed` argument so reruns are reproducible. Then register a
//!    hand-authored baseline with [`Scenario::new`] plus the `with_*` setters.
//!    Declare a [`overlay_core::RoundBudget`] above
//!    [`overlay_core::RoundBudget::STANDARD`] only when the fault model legitimately
//!    stretches wall-rounds (delivery jitter, late joins, reliable-transport retry
//!    round-trips).
//! 2. If the cell is a *variant* of an existing experiment, derive it instead of
//!    copying it: [`Scenario::reliable`] adds the `overlay-transport` reliability
//!    layer (plus flat retry slack), [`Scenario::with_phases`] scopes
//!    budget/transport overrides to single pipeline phases,
//!    [`Scenario::with_reinvitation`] and [`Scenario::with_traffic_axis`] vary a
//!    serving or traffic cell. Each derivation appends a deterministic name
//!    suffix, rewrites the description, and records its
//!    baseline and axis, so [`Registry::pairs`] (and `sweep_runner --compare`'s
//!    delta table) pick the couple up automatically.
//! 3. There is no step 3: sweeps, aggregation, JSON reports, persisted
//!    `reports/<name>.json` files and `sweep_runner --list` pick the new entry up
//!    automatically — run `sweep_runner` once without `--check` to commit the
//!    cell's 16-seed baseline. The experiments binary does not: its
//!    `overlay_bench::EXPERIMENTS` table names its own sizes and never reads the
//!    registry.
//!
//! # Persisted reports
//!
//! [`write_report`] saves a sweep's deterministic JSON body under
//! `reports/<scenario>.json`; [`diff_reports`] compares two such documents
//! structurally for cross-commit regression checks (see the `sweep_runner` binary,
//! which runs the whole registry, persists every report, and optionally `--check`s
//! against the previous ones). The baseline-vs-twin delta table
//! (`sweep_runner --compare`) has one comparator, [`PairDelta::from_committed`],
//! which reads those documents: after a sweep and with `--no-run` it is the same
//! function over the same files. Large-`n` runs and serial-vs-chunked
//! wall-clocks are `--scaling`'s job ([`scaling`]), which reruns registry cells
//! at a bigger `n` under their own names.
//!
//! # Determinism
//!
//! A scenario run is a pure function of `(scenario, seed)`: graph generation, the
//! fault plan, and every simulator decision derive from the seed. The sweep runner
//! preserves input order regardless of worker scheduling, so a whole [`SweepReport`]
//! is reproducible byte-for-byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]

mod compare;
mod forensics;
mod json;
mod registry;
mod report;
// `benchmark/` imports `scaling::MachineInfo` by this path.
pub mod scaling;
mod scenario;
mod sweep;
mod trace;

pub use compare::{
    check_thresholds, load_thresholds, render_compare_table, write_compare_table, write_thresholds,
    PairDelta, PairThreshold, TrafficDeltas,
};
pub use forensics::{post_mortem, MissingCause, MissingNode, PostMortem};
pub use json::Json;
pub use overlay_netsim::{ParallelismConfig, TraceEvent, TransportConfig};
pub use registry::{find, registry, Registry, RegistryError};
pub use report::{diff_reports, load_report, write_report};
pub use scenario::{
    FaultSpec, ForensicRun, GraphFamily, RunRecord, Scenario, ServeRecord, ServeSpec,
    TrafficRecord, TrafficSpec, VariantAxis,
};
pub use sweep::{Sweep, SweepReport};
pub use trace::to_jsonl;
