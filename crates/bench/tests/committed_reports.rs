//! The committed paper reports are the experiments' output, byte for byte.
//!
//! `reports/paper/<name>.json` is what `cargo run --release -p overlay-bench
//! --bin experiments` writes for each entry of [`EXPERIMENTS`]. CI regenerates
//! all of them and fails on a `git diff`; this test regenerates the three cheap
//! ones (E4, E8, E10) so a drift in an experiment, its sizes or the renderer
//! fails `cargo test` too, the way `tests/pipeline_baselines.rs` pins three
//! sweep reports.

use overlay_bench::EXPERIMENTS;
use std::path::{Path, PathBuf};

fn paper_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports/paper")
}

#[test]
fn cheap_experiments_regenerate_their_committed_reports_byte_for_byte() {
    for name in ["e4", "e8", "e10"] {
        let experiment = EXPERIMENTS
            .iter()
            .find(|e| e.name == name)
            .expect("listed in EXPERIMENTS");
        let path = paper_dir().join(format!("{name}.json"));
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        assert!(
            experiment.report() == committed,
            "{name}: regenerated report differs from {}; rerun the experiments bin \
             and commit the result if the change is intended",
            path.display()
        );
    }
}

#[test]
fn every_committed_report_has_exactly_one_experiment() {
    let mut committed: Vec<String> = std::fs::read_dir(paper_dir())
        .expect("reports/paper exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    committed.sort();
    let mut listed: Vec<String> = EXPERIMENTS
        .iter()
        .map(|e| format!("{}.json", e.name))
        .collect();
    listed.sort();
    assert_eq!(committed, listed);
}
