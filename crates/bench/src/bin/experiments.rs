//! Writes the experiment reports of [`overlay_bench::EXPERIMENTS`] to
//! `reports/paper/<name>.json`, every one or only those named. Run it from the
//! repository root:
//!
//! ```text
//! cargo run --release -p overlay-bench --bin experiments            # all
//! cargo run --release -p overlay-bench --bin experiments -- e2 e5   # selected ones
//! ```
//!
//! An unknown name exits 1, listing the known ones, before anything runs.

use overlay_bench::EXPERIMENTS;
use std::path::Path;
use std::process::ExitCode;

fn main() -> std::io::Result<ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args
        .iter()
        .find(|a| EXPERIMENTS.iter().all(|e| e.name != *a))
    {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!("unknown experiment {unknown:?}; known: {}", known.join(" "));
        return Ok(ExitCode::FAILURE);
    }
    let dir = Path::new("reports/paper");
    std::fs::create_dir_all(dir)?;
    let selected = EXPERIMENTS
        .iter()
        .filter(|e| args.is_empty() || args.iter().any(|a| a == e.name));
    for experiment in selected {
        let path = dir.join(format!("{}.json", experiment.name));
        std::fs::write(&path, experiment.report())?;
        eprintln!("{}: {}", path.display(), experiment.title);
    }
    Ok(ExitCode::SUCCESS)
}
