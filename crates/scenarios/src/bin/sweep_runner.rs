//! Runs fault-scenario sweeps and persists their JSON reports under `reports/`.
//!
//! ```text
//! cargo run --release -p overlay-scenarios --bin sweep_runner -- [FLAGS] [SCENARIO...]
//!
//! Each mode reads the flags listed under it and refuses, with exit 1 before
//! anything runs, every other flag; only a sweep takes scenario names, and not
//! together with --tag.
//!
//! sweep (no mode flag): run each scenario over a seed range, write
//! `<dir>/<name>.json`
//!   --seeds N       seeds per scenario, at least 1 (default 16)
//!   --seed S        first seed of the range (default 0)
//!   --dir PATH      output directory (default reports)
//!   --check         diff each new report against the existing file before
//!                   overwriting; exit 1 if any deterministic value changed
//!   --explain       after each sweep, print a forensic post-mortem (failing
//!                   phase, missing nodes, dominant drop cause, dead-peer
//!                   burn) for every failed seed
//!   --tag T         sweep only the scenarios whose effective tags contain T
//!   --par-threshold N
//!                   engage within-round parallelism from N nodes up for every
//!                   selected scenario (default: the scenario's own policy,
//!                   4096). `--par-threshold 0` forces the parallel path even
//!                   on the small committed cells — with `--check`, that makes
//!                   the run a serial-vs-parallel equivalence gate, since the
//!                   parallel path must reproduce the committed baselines
//!                   byte-for-byte
//!   SCENARIO...     registry names to run (default: the whole registry)
//!
//! sweep --compare: the sweep's flags, then the baseline-vs-twin delta table
//! (success, coverage, rounds, delivered, retransmits per registered pair)
//! from the reports under `<dir>` — the ones this run just wrote or verified —
//! printed and persisted to `<dir>/compare.md`; when `<dir>/thresholds.json`
//! exists, every committed pair floor is checked (a twin's success or coverage
//! delta shrinking below its committed value exits 1)
//!   --write-thresholds
//!                   instead of checking `<dir>/thresholds.json`, (re)write it
//!                   from the deltas just computed — the workflow for
//!                   establishing or deliberately revising the pair floors
//!
//! --compare --no-run: the same table and gate from the reports already under
//! `<dir>`, with no sweep
//!   --dir PATH, --write-thresholds
//!
//! --list: print the registry (name, family, n, faults, tags, baseline)
//!   --tag T         only the scenarios whose effective tags contain T
//!
//! --trace NAME: run scenario NAME once with tracing on, write the JSONL event
//! trace to `<dir>/traces/<NAME>-seed<S>.jsonl` and print its post-mortem
//!   --seed S, --par-threshold N, --dir PATH
//!
//! --scaling: the scaling harness; the cells clean-line and
//! lossy-ncc0-reliable run once per size (n = 1024 / 4096 / 16384 / 65536),
//! serially and in parallel, asserted bitwise identical; machine info and
//! per-n wall-clocks land in `<dir>/scaling.md`
//!   --seed S, --par-threshold N, --dir PATH
//!   --max-n N       cap the harness at cells with n <= N (default 65536)
//!
//! --scaling SCENARIO...: the harness over the named bases only (clean-line,
//! lossy-ncc0-reliable; any other name exits 1 before anything runs); prints
//! its rows and writes no report, so a partial table never replaces
//! `scaling.md`
//!   --seed S, --max-n N, --par-threshold N
//! ```
//!
//! Reports are deterministic per `(scenario, seed set)`, so committing `reports/`
//! and running with `--check` turns any behavior change into a named, per-seed,
//! per-counter diff. Large-n runs are `--scaling`'s: it writes wall-clocks, which
//! no report body holds.
//!
//! Environment facts (wall-clock, worker count) never enter a report body; the
//! summary line printed per sweep is where they go. Traces are derived output
//! under the untracked `<dir>/traces/`.

use overlay_scenarios::{
    check_thresholds, diff_reports, load_report, load_thresholds, post_mortem, registry,
    render_compare_table, scaling, to_jsonl, write_compare_table, write_report, write_thresholds,
    Json, PairDelta, ParallelismConfig, Scenario, Sweep,
};
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy)]
enum Mode {
    List,
    Trace,
    Scaling,
    CompareFiles,
    Sweep { compare: bool },
}

/// Each mode with its usage line, which is also the check of its command line:
/// `parse_args` picks the first row whose bare flags (the ones that select it)
/// are all given, and whose bare `SCENARIO...`, if it has one, is given too;
/// it refuses any flag the line does not name, so no mode ignores a flag while
/// exiting 0. Only a line with `SCENARIO...` takes scenario names. The plain
/// sweep selects on nothing, so it comes last.
const MODES: [(Mode, &str); 7] = [
    (Mode::List, "--list [--tag T]"),
    (
        Mode::Trace,
        "--trace NAME [--seed S] [--par-threshold N] [--dir PATH]",
    ),
    (
        Mode::Scaling,
        "--scaling [--seed S] [--max-n N] [--par-threshold N] SCENARIO...",
    ),
    (
        Mode::Scaling,
        "--scaling [--seed S] [--max-n N] [--par-threshold N] [--dir PATH]",
    ),
    (
        Mode::CompareFiles,
        "--compare --no-run [--write-thresholds] [--dir PATH]",
    ),
    (
        Mode::Sweep { compare: true },
        "--compare [--write-thresholds] [--seeds N] [--seed S] [--dir PATH] [--check] \
         [--explain] [--par-threshold N] [--tag T | SCENARIO...]",
    ),
    (
        Mode::Sweep { compare: false },
        "[--seeds N] [--seed S] [--dir PATH] [--check] [--explain] [--par-threshold N] \
         [--tag T | SCENARIO...]",
    ),
];

/// The words that select a usage line's mode: its flags outside brackets, and
/// a `SCENARIO...` outside them.
fn selecting(line: &str) -> impl Iterator<Item = &str> {
    line.split(' ')
        .filter(|&word| word.starts_with("--") || word == "SCENARIO...")
}

fn usage() -> String {
    let lines: Vec<String> = MODES
        .iter()
        .map(|(_, line)| format!("sweep_runner {line}"))
        .collect();
    format!("usage: {}", lines.join("\n       "))
}

struct Options {
    mode: Mode,
    seeds: usize,
    seed: u64,
    dir: PathBuf,
    check: bool,
    explain: bool,
    write_thresholds: bool,
    tag: Option<String>,
    par_threshold: Option<usize>,
    max_n: usize,
    /// The scenarios a sweep names, or the one `--trace` names.
    names: Vec<String>,
}

fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parses the command line; `Ok(None)` means `--help` was asked for.
fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        mode: Mode::Sweep { compare: false },
        seeds: 16,
        seed: 0,
        dir: PathBuf::from("reports"),
        check: false,
        explain: false,
        write_thresholds: false,
        tag: None,
        par_threshold: None,
        max_n: 65536,
        names: Vec::new(),
    };
    let mut flags = Vec::new();
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--seeds" => {
                opts.seeds = number(&arg, value()?)?;
                // A sweep of no seeds would overwrite every selected report
                // with an empty one.
                if opts.seeds == 0 {
                    return Err("--seeds must be at least 1".into());
                }
            }
            "--seed" => opts.seed = number(&arg, value()?)?,
            "--dir" => opts.dir = PathBuf::from(value()?),
            "--check" => opts.check = true,
            "--explain" => opts.explain = true,
            "--write-thresholds" => opts.write_thresholds = true,
            "--trace" => trace = Some(value()?),
            "--tag" => opts.tag = Some(value()?),
            "--par-threshold" => opts.par_threshold = Some(number(&arg, value()?)?),
            "--max-n" => opts.max_n = number(&arg, value()?)?,
            "--list" | "--compare" | "--no-run" | "--scaling" => {}
            "--help" | "-h" => return Ok(None),
            name if !name.starts_with('-') => {
                opts.names.push(name.to_string());
                continue;
            }
            other => return Err(format!("unknown option {other}")),
        }
        flags.push(arg);
    }
    let given = |word: &str| match word {
        "SCENARIO..." => !opts.names.is_empty(),
        flag => flags.iter().any(|f| f == flag),
    };
    let (mode, line) = MODES
        .iter()
        .find(|(_, line)| selecting(line).all(given))
        .expect("the plain sweep selects on nothing");
    let selects: Vec<&str> = selecting(line).collect();
    let label = if selects.is_empty() {
        "a sweep".to_string()
    } else {
        selects.join(" ")
    };
    let named = |flag: &str| line.split(' ').any(|w| w.trim_matches(['[', ']']) == flag);
    if let Some(flag) = flags.iter().find(|f| !named(f)) {
        return Err(format!("{label} does not take {flag}"));
    }
    if let Some(name) = opts.names.first() {
        if !line.contains("SCENARIO") {
            return Err(format!("{label} does not take a scenario name ({name:?})"));
        }
        if opts.tag.is_some() {
            return Err(format!("--tag does not narrow a named scenario ({name:?})"));
        }
    }
    opts.mode = *mode;
    opts.names.extend(trace);
    Ok(Some(opts))
}

fn lookup(name: &str) -> Result<Scenario, String> {
    registry().find(name).cloned().ok_or_else(|| {
        let known: Vec<&str> = registry().names().collect();
        format!("unknown scenario {name:?}; known: {}", known.join(", "))
    })
}

/// The scenarios a run covers: the named ones, or else the registry narrowed
/// by `--tag`, each under `--par-threshold` when one is given. Parallelism is
/// bitwise-invisible in results, so overriding it never perturbs a `--check`
/// comparison — it only decides which code path produces the (identical) bytes.
fn selected(opts: &Options) -> Result<Vec<Scenario>, String> {
    let mut scenarios: Vec<Scenario> = if opts.names.is_empty() {
        registry().iter().cloned().collect()
    } else {
        opts.names
            .iter()
            .map(|name| lookup(name))
            .collect::<Result<_, _>>()?
    };
    if let Some(tag) = &opts.tag {
        scenarios.retain(|s| s.has_tag(tag));
        if scenarios.is_empty() {
            return Err(format!("no registered scenario carries tag {tag:?}"));
        }
    }
    if let Some(min_nodes) = opts.par_threshold {
        let parallelism = ParallelismConfig {
            workers: None,
            min_nodes,
        };
        scenarios = scenarios
            .into_iter()
            .map(|s| s.with_parallelism(parallelism))
            .collect();
    }
    Ok(scenarios)
}

/// Prints one line per scenario so users can discover matrix cells without
/// reading source: name, family/n, fault label, effective tags, and the
/// baseline the cell was derived from (`-` for hand-authored baselines).
fn print_listing(scenarios: &[Scenario]) {
    println!(
        "{:<30} {:<24} {:<16} {:<44} baseline",
        "name", "family/n", "faults", "tags"
    );
    for s in scenarios {
        println!(
            "{:<30} {:<24} {:<16} {:<44} {}",
            s.name,
            format!("{}/{}", s.family.label(), s.actual_n()),
            s.faults.label(),
            s.effective_tags().join(","),
            s.baseline.as_deref().unwrap_or("-"),
        );
    }
}

/// `--trace NAME`: one traced run of `NAME` under `--seed`, its JSONL event
/// stream written to `<dir>/traces/`, its post-mortem printed. The traced run is
/// behaviorally identical to the untraced one (the sink never draws RNG), so the
/// trace explains exactly the run a sweep would have executed.
fn trace_one(opts: &Options) -> Result<(), String> {
    let scenario = selected(opts)?.pop().expect("--trace names one scenario");
    let run = scenario.run_traced(opts.seed);
    let dir = opts.dir.join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.jsonl", scenario.name, opts.seed));
    std::fs::write(&path, to_jsonl(&run.events))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{} events written to {}", run.events.len(), path.display());
    print!("{}", post_mortem(&scenario, &run).render());
    Ok(())
}

/// The per-pair regression gate of `--compare`. With
/// `--write-thresholds`, (re)writes `<dir>/thresholds.json` from the deltas
/// just computed; otherwise, when that file exists, checks every committed
/// floor and fails on any violation. No file, no gate — the table alone stays
/// informational.
fn threshold_gate(deltas: &[PairDelta], opts: &Options) -> Result<(), String> {
    if opts.write_thresholds {
        let path = write_thresholds(deltas, &opts.dir)
            .map_err(|e| format!("cannot write thresholds: {e}"))?;
        eprintln!(
            "{} pair floor(s) written to {}",
            deltas.len(),
            path.display()
        );
        return Ok(());
    }
    let path = opts.dir.join("thresholds.json");
    if !path.exists() {
        return Ok(());
    }
    let thresholds = load_thresholds(&path).map_err(|e| format!("cannot read thresholds: {e}"))?;
    let violations = check_thresholds(deltas, &thresholds);
    if !violations.is_empty() {
        return Err(format!(
            "{} pair floor violation(s):\n  {}",
            violations.len(),
            violations.join("\n  ")
        ));
    }
    eprintln!(
        "{} pair floor(s) hold ({})",
        thresholds.len(),
        path.display()
    );
    Ok(())
}

/// The report of `scenario` under `<dir>`, `None` when there is no such file.
/// Any other failure — unreadable, not JSON — is an error naming the file.
fn load_if_present(opts: &Options, scenario: &Scenario) -> io::Result<Option<Json>> {
    match load_report(opts.dir.join(format!("{}.json", scenario.name))) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        loaded => loaded.map(Some),
    }
}

/// `--compare`: build the delta table from the reports under `<dir>` — after
/// a sweep the ones it just wrote or verified, with `--no-run` whatever is
/// there — persist it, and run the threshold gate. A pair missing either
/// report is skipped (e.g. a twin added but not yet baselined, or a sweep of a
/// few named cells into a fresh directory); a report that is present but does
/// not load (the error names the file) or lacks a headline field (it names the
/// scenario) fails the run.
fn compare_committed(opts: &Options) -> Result<(), String> {
    let loaded = |s: &Scenario| load_if_present(opts, s).map_err(|e| format!("--compare: {e}"));
    let mut deltas = Vec::new();
    for (base, twin) in registry().pairs() {
        let (Some(base_doc), Some(twin_doc)) = (loaded(base)?, loaded(twin)?) else {
            continue;
        };
        let axis = twin.axis.map_or("", |a| a.label());
        deltas.push(
            PairDelta::from_committed(&base_doc, &twin_doc, axis)
                .map_err(|e| format!("--compare: {e}"))?,
        );
    }
    if deltas.is_empty() {
        return Err(format!(
            "--compare: no (baseline, twin) pair has both reports under {}",
            opts.dir.display()
        ));
    }
    print!("{}", render_compare_table(&deltas));
    let path = write_compare_table(&deltas, &opts.dir)
        .map_err(|e| format!("cannot write delta table: {e}"))?;
    eprintln!("delta table persisted to {}", path.display());
    threshold_gate(&deltas, opts)
}

/// `--scaling`: the scaling harness. Every cell of [`scaling::scaling_cells`]
/// up to `--max-n` runs once under `--seed`, serially and with within-round
/// parallelism engaged (from `--par-threshold` nodes up, default 0 so the
/// parallel path always runs). The per-cell results and wall-clocks, plus the
/// machine's facts, are rendered to `<dir>/scaling.md` — committed next to the
/// sweep baselines so scaling claims are pinned to a recorded measurement.
/// A run that names bases keeps their cells and writes nothing: its rows are
/// printed only, so a partial table never replaces the report.
fn run_scaling(opts: &Options) -> Result<(), String> {
    let machine = scaling::MachineInfo::capture();
    let mut cells = scaling::scaling_cells(opts.max_n);
    let named = !opts.names.is_empty();
    if named {
        let bases = scaling::scaling_cells(usize::MAX);
        if let Some(name) = (opts.names.iter()).find(|&name| bases.iter().all(|b| &b.name != name))
        {
            let mut known: Vec<&str> = bases.iter().map(|b| b.name.as_str()).collect();
            known.sort_unstable();
            known.dedup();
            return Err(format!(
                "--scaling: {name:?} is not a scaling base; known: {}",
                known.join(", ")
            ));
        }
        cells.retain(|cell| opts.names.contains(&cell.name));
    }
    if cells.is_empty() {
        return Err(format!(
            "--scaling: no scaling cell has n <= {}",
            opts.max_n
        ));
    }
    let min_nodes = opts.par_threshold.unwrap_or(0);
    let mut measured = Vec::with_capacity(cells.len());
    for scenario in &cells {
        let cell = scaling::run_cell(scenario, opts.seed, min_nodes);
        // The speedup figure is only printed when a spare core gives the
        // serial/parallel ratio its meaning; single-core machines get the
        // caveat instead of a number that would misread as a parallelism claim.
        let speedup = if machine.has_spare_cores() {
            cell.speedup()
                .map_or(String::new(), |s| format!(" speedup={s:.2}x"))
        } else {
            " (single core: overhead, not speedup)".to_string()
        };
        println!(
            "{:<36} n={:<6} rounds={:<4} success={} delivered={} serial={:.2?} parallel={:.2?}{speedup}",
            cell.name,
            cell.n,
            cell.rounds,
            cell.success,
            cell.delivered,
            cell.serial_wall,
            cell.parallel_wall,
        );
        measured.push(cell);
    }
    if named {
        eprintln!("a named scaling run writes no report");
        return Ok(());
    }
    let text = scaling::render_markdown(&machine, &measured);
    let path = opts.dir.join("scaling.md");
    std::fs::create_dir_all(&opts.dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.dir.display()))?;
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("scaling report written to {}", path.display());
    Ok(())
}

/// A sweep: every selected scenario over `--seeds` seeds from `--seed`, each
/// report written to `<dir>` — or, under `--check`, first diffed against the
/// file there, which a changed report leaves in place.
fn sweep(opts: &Options) -> Result<(), String> {
    let mut regressions = 0usize;
    for scenario in selected(opts)? {
        let result = Sweep::over_seeds(scenario, opts.seed, opts.seeds).run();
        println!("{}", result.summary());
        if opts.explain {
            // Failed seeds are cheap to replay one at a time: re-run each under a
            // trace sink (bitwise-identical behavior) and print its post-mortem.
            for record in result.records.iter().filter(|r| !r.success) {
                let run = result.scenario.run_traced(record.seed);
                print!("{}", post_mortem(&result.scenario, &run).render());
            }
        }

        let path = opts.dir.join(format!("{}.json", result.scenario.name));
        let regressed = opts.check
            && match load_if_present(opts, &result.scenario) {
                // A missing baseline must fail the check: treating it as
                // success would make the regression gate silently inert (e.g.
                // a baseline directory that was never committed, or a renamed
                // scenario).
                Ok(None) => {
                    eprintln!(
                        "  no baseline at {}; run without --check to create it",
                        path.display()
                    );
                    true
                }
                Err(e) => {
                    eprintln!("  cannot read previous report: {e}");
                    true
                }
                Ok(Some(previous)) => {
                    let diffs = diff_reports(&previous, &result.to_json());
                    if !diffs.is_empty() {
                        eprintln!(
                            "  {} changed vs {} ({} difference(s)):",
                            result.scenario.name,
                            path.display(),
                            diffs.len()
                        );
                        for line in diffs.iter().take(20) {
                            eprintln!("    {line}");
                        }
                        if diffs.len() > 20 {
                            eprintln!("    ... and {} more", diffs.len() - 20);
                        }
                    }
                    !diffs.is_empty()
                }
            };
        if regressed {
            // Keep the baseline (or its absence) intact so the failure stays
            // reproducible; the intended-change workflow (rerun without --check,
            // commit) still works.
            regressions += 1;
        } else {
            write_report(&result, &opts.dir)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }
    if regressions > 0 {
        return Err(format!("{regressions} scenario(s) changed behavior"));
    }
    Ok(())
}

fn run(opts: &Options) -> Result<(), String> {
    match opts.mode {
        Mode::List => selected(opts).map(|s| print_listing(&s)),
        Mode::Trace => trace_one(opts),
        Mode::Scaling => run_scaling(opts),
        Mode::CompareFiles => compare_committed(opts),
        Mode::Sweep { compare } => {
            sweep(opts)?;
            if compare {
                compare_committed(opts)?;
            }
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let ran = match parse_args() {
        Ok(Some(opts)) => run(&opts),
        Ok(None) => {
            println!("{}", usage());
            Ok(())
        }
        Err(msg) => Err(msg),
    };
    match ran {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
