//! The pipeline-refactor contract: `OverlayBuilder::build_under_faults` — now a
//! facade over the first-class phase pipeline (`overlay_core::Phase`) — must
//! produce **byte-identical** `RunRecord`s to the committed `reports/` baselines
//! for every registered scenario. The committed files were generated before the
//! pipeline existed, so any drift in per-phase seeding, budget application,
//! metrics absorption or stall accounting shows up here as a named per-field
//! mismatch long before the CI-level `sweep_runner --check`.

use overlay_networks::scenarios::{load_report, registry, Json, Sweep};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
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

fn reports_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("reports")
}

fn committed_path(scenario_name: &str) -> PathBuf {
    reports_dir().join(format!("{scenario_name}.json"))
}

/// Every committed sweep report, by scenario name: the `reports/*.json`
/// files other than the pair floors in `thresholds.json`.
fn committed_reports() -> Vec<(String, Json)> {
    let mut reports: Vec<(String, Json)> = std::fs::read_dir(reports_dir())
        .expect("reports/ exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .filter_map(|path| {
            let name = path.file_stem()?.to_str()?.to_string();
            (name != "thresholds").then(|| {
                let report = load_report(&path)
                    .unwrap_or_else(|e| panic!("cannot load {}: {e}", path.display()));
                (name, report)
            })
        })
        .collect();
    reports.sort_by(|a, b| a.0.cmp(&b.0));
    reports
}

fn committed_run(scenario_name: &str, seed: usize) -> Json {
    let path = committed_path(scenario_name);
    let report = load_report(&path).unwrap_or_else(|e| panic!("cannot load baseline: {e}"));
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

/// The sweep-report twin of the paper experiments' one-to-one check: a report
/// whose cell left the registry would otherwise stay committed unnoticed,
/// since `--check` only visits registered cells.
#[test]
fn committed_sweep_reports_and_registry_cells_are_one_to_one() {
    let committed: BTreeSet<String> = committed_reports()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let registered: BTreeSet<String> = registry().names().map(str::to_string).collect();
    let orphans: Vec<&String> = committed.difference(&registered).collect();
    let missing: Vec<&String> = registered.difference(&committed).collect();
    assert!(
        orphans.is_empty() && missing.is_empty(),
        "reports without a cell: {orphans:?}; cells without a report: {missing:?}"
    );
}

/// No registry cell is a copy of another: a cell whose per-seed runs equal
/// another cell's byte for byte checks nothing its twin does not.
#[test]
fn no_two_committed_sweep_reports_share_their_runs() {
    let mut seen: HashMap<String, String> = HashMap::new();
    let mut copies = Vec::new();
    for (name, report) in committed_reports() {
        let first = seen
            .entry(field(&report, "runs").render())
            .or_insert_with(|| name.clone());
        if *first != name {
            copies.push(format!("{first} = {name}"));
        }
    }
    assert!(copies.is_empty(), "reports with identical runs: {copies:?}");
}
