//! The pipeline-refactor contract: `OverlayBuilder::build_under_faults` — now a
//! facade over the first-class phase pipeline (`overlay_core::pipeline`) — must
//! produce **byte-identical** `RunRecord`s to the committed `reports/` baselines
//! for every registered scenario. The committed files were generated before the
//! pipeline existed, so any drift in per-phase seeding, budget application,
//! metrics absorption or stall accounting shows up here as a named per-field
//! mismatch long before the CI-level `sweep_runner --check`.

use overlay_networks::scenarios::{registry, report, Json, Sweep};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Number of seeds in every committed baseline sweep.
const BASELINE_SEEDS: usize = 16;

fn field<'a>(value: &'a Json, key: &str) -> &'a Json {
    match value {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {key:?}")),
        other => panic!("expected an object with field {key:?}, got {other:?}"),
    }
}

fn committed_path(scenario_name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("reports")
        .join(format!("{scenario_name}.json"))
}

fn committed_run(scenario_name: &str, seed: usize) -> Json {
    let path = committed_path(scenario_name);
    let report = report::load_report(&path).unwrap_or_else(|e| panic!("cannot load baseline: {e}"));
    assert_eq!(
        field(&report, "seeds").render(),
        BASELINE_SEEDS.to_string(),
        "committed baselines hold {BASELINE_SEEDS} seeds"
    );
    match field(&report, "runs") {
        Json::Arr(runs) => runs[seed].clone(),
        other => panic!("runs must be an array, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// For a random (scenario, seed) cell of the committed baseline matrix, a fresh
    /// pipeline run renders to exactly the committed per-seed record.
    #[test]
    fn pipeline_run_records_match_committed_baselines(
        scenario_idx in 0usize..registry().len(),
        seed in 0usize..BASELINE_SEEDS,
    ) {
        let scenario = registry().scenarios()[scenario_idx].clone();
        let name = scenario.name.clone();
        let fresh = Sweep::over_seeds(scenario, seed as u64, 1).run().to_json();
        let fresh_run = match field(&fresh, "runs") {
            Json::Arr(runs) => runs[0].clone(),
            other => panic!("runs must be an array, got {other:?}"),
        };
        let committed = committed_run(&name, seed);
        prop_assert_eq!(
            fresh_run.render(),
            committed.render(),
            "scenario {} seed {} drifted from its committed baseline",
            name,
            seed
        );
    }
}

/// The fixed corner everyone cares about — the clean baseline, seed 0 — checked
/// exhaustively (not sampled) so a total failure of the contract cannot hide
/// behind proptest's sampling.
#[test]
fn clean_line_seed_zero_matches_baseline_exactly() {
    let scenario = registry()
        .find("clean-line")
        .cloned()
        .expect("clean-line is registered");
    let fresh = Sweep::over_seeds(scenario, 0, 1).run().to_json();
    let fresh_run = match field(&fresh, "runs") {
        Json::Arr(runs) => runs[0].clone(),
        other => panic!("runs must be an array, got {other:?}"),
    };
    assert_eq!(fresh_run.render(), committed_run("clean-line", 0).render());
}

/// The bytes, not just the structure: `sweep_runner --check` and the tests
/// above compare parsed values, so a header key that moved or a float that
/// renders differently is invisible to them. Three cells cover every header
/// shape — the plain one, `tags` plus `phase_overrides`, and both optional
/// sections (`serve` and `traffic`) — and their regenerated reports must equal
/// the committed files exactly.
#[test]
fn regenerated_reports_equal_the_committed_files_byte_for_byte() {
    for name in [
        "clean-line",
        "lossy-ncc0-binarize-reliable",
        "traffic-serve-churn",
    ] {
        let scenario = registry().find(name).cloned().expect("registered");
        let fresh = Sweep::over_seeds(scenario, 0, BASELINE_SEEDS)
            .run()
            .to_json_string()
            + "\n";
        let path = committed_path(name);
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        assert!(
            fresh == committed,
            "{name}: regenerated report differs from {} in bytes (key order or \
             number formatting, if `sweep_runner --check {name}` still passes)",
            path.display()
        );
    }
}
