//! Runs fault-scenario sweeps and persists their JSON reports under `reports/`.
//!
//! ```text
//! cargo run --release -p overlay-scenarios --bin sweep_runner [OPTIONS] [SCENARIO...]
//!
//!   --seeds N       seeds per scenario, at least 1 (default 16)
//!   --first-seed S  first seed of the range (default 0)
//!   --dir PATH      output directory (default reports)
//!   --check         diff each new report against the existing file before
//!                   overwriting; exit 1 if any deterministic value changed
//!   --compare       after the sweeps, print the baseline-vs-twin delta table
//!                   (success, coverage, rounds, delivered, retransmits per
//!                   registered pair) from the reports under `<dir>` — the
//!                   ones this run just wrote or verified — and persist it to
//!                   `<dir>/compare.md`; when `<dir>/thresholds.json` exists,
//!                   additionally check every committed pair floor (a twin's
//!                   success or coverage delta shrinking below its committed
//!                   value exits 1)
//!   --no-run        with --compare: skip the sweeps and build the same table
//!                   from the reports already under `<dir>`
//!   --write-thresholds
//!                   with --compare: instead of checking `<dir>/thresholds.json`,
//!                   (re)write it from the deltas just computed — the workflow
//!                   for establishing or deliberately revising the pair floors
//!   --trace NAME    run scenario NAME once (under --seed) with tracing on,
//!                   write the JSONL event trace to
//!                   `<dir>/traces/<NAME>-seed<S>.jsonl`, print its
//!                   post-mortem, and exit; takes only --seed,
//!                   --par-threshold and --dir
//!   --seed S        the seed for --trace and --scaling (default 0); a sweep
//!                   takes --first-seed instead
//!   --explain       after each sweep, print a forensic post-mortem (failing
//!                   phase, missing nodes, dominant drop cause, dead-peer
//!                   burn) for every failed seed
//!   --list          print the registry (name, family, n, faults, tags,
//!                   baseline) and exit without running anything
//!   --tag T         restrict --list and the default sweep selection to
//!                   scenarios whose effective tags contain T
//!   --par-threshold N
//!                   engage within-round parallelism from N nodes up for every
//!                   selected scenario (default: the scenario's own policy,
//!                   4096). `--par-threshold 0` forces the parallel path even
//!                   on the small committed cells — with `--check`, that makes
//!                   the run a serial-vs-parallel equivalence gate, since the
//!                   parallel path must reproduce the committed baselines
//!                   byte-for-byte
//!   --scaling       run the scaling harness instead of sweeps: the cells
//!                   clean-line and lossy-ncc0-reliable run once per size
//!                   (n = 1024 / 4096 / 16384 / 65536), serially and in
//!                   parallel, asserted bitwise identical; machine info and
//!                   per-n wall-clocks land in `<dir>/scaling.md`; takes only
//!                   --seed, --max-n, --par-threshold and --dir
//!   --max-n N       with --scaling: cap the harness at cells with n <= N
//!                   (default 65536)
//!   SCENARIO...     registry names to run (default: the whole registry)
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

struct Options {
    seeds: usize,
    first_seed: u64,
    dir: PathBuf,
    check: bool,
    compare: bool,
    no_run: bool,
    write_thresholds: bool,
    trace: Option<String>,
    seed: Option<u64>,
    explain: bool,
    list: bool,
    tag: Option<String>,
    par_threshold: Option<usize>,
    scaling: bool,
    max_n: Option<usize>,
    names: Vec<String>,
}

const USAGE: &str = "usage: sweep_runner [--seeds N] [--first-seed S] [--dir PATH] \
    [--check] [--compare [--no-run] [--write-thresholds]] \
    [--trace NAME [--seed S]] [--explain] [--list] [--tag T] \
    [--par-threshold N] [--scaling [--max-n N]] [SCENARIO...]";

/// The flags `--trace` and `--scaling` read. Each runs one thing, so any other
/// flag or a scenario name given with them would be ignored while the run
/// exits 0: `parse_args` refuses it instead.
const TRACE_READS: &[&str] = &["--trace", "--seed", "--par-threshold", "--dir"];
const SCALING_READS: &[&str] = &["--scaling", "--seed", "--max-n", "--par-threshold", "--dir"];

/// Parses the command line; `Ok(None)` means `--help` was asked for.
fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        seeds: 16,
        first_seed: 0,
        dir: PathBuf::from("reports"),
        check: false,
        compare: false,
        no_run: false,
        write_thresholds: false,
        trace: None,
        seed: None,
        explain: false,
        list: false,
        tag: None,
        par_threshold: None,
        scaling: false,
        max_n: None,
        names: Vec::new(),
    };
    let mut flags = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg.starts_with('-') {
            flags.push(arg.clone());
        }
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--seeds" => {
                opts.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
                // A sweep of no seeds would overwrite every selected report
                // with an empty one.
                if opts.seeds == 0 {
                    return Err("--seeds must be at least 1".into());
                }
            }
            "--first-seed" => {
                opts.first_seed = value("--first-seed")?
                    .parse()
                    .map_err(|e| format!("--first-seed: {e}"))?
            }
            "--dir" => opts.dir = PathBuf::from(value("--dir")?),
            "--check" => opts.check = true,
            "--compare" => opts.compare = true,
            "--no-run" => opts.no_run = true,
            "--write-thresholds" => opts.write_thresholds = true,
            "--trace" => opts.trace = Some(value("--trace")?),
            "--seed" => {
                opts.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--explain" => opts.explain = true,
            "--list" => opts.list = true,
            "--tag" => opts.tag = Some(value("--tag")?),
            "--par-threshold" => {
                opts.par_threshold = Some(
                    value("--par-threshold")?
                        .parse()
                        .map_err(|e| format!("--par-threshold: {e}"))?,
                )
            }
            "--scaling" => opts.scaling = true,
            "--max-n" => {
                opts.max_n = Some(
                    value("--max-n")?
                        .parse()
                        .map_err(|e| format!("--max-n: {e}"))?,
                )
            }
            "--help" | "-h" => return Ok(None),
            name if !name.starts_with('-') => opts.names.push(name.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if opts.no_run && !opts.compare {
        return Err("--no-run only makes sense with --compare".into());
    }
    if opts.write_thresholds && !opts.compare {
        return Err("--write-thresholds only makes sense with --compare".into());
    }
    // A sweep runs `--first-seed`'s range uncapped: taking these silently
    // would rewrite the selected reports from seeds other than the ones asked.
    if opts.seed.is_some() && opts.trace.is_none() && !opts.scaling {
        return Err("--seed only makes sense with --trace or --scaling; \
                    a sweep takes --first-seed"
            .into());
    }
    if opts.max_n.is_some() && !opts.scaling {
        return Err("--max-n only makes sense with --scaling".into());
    }
    let mode = if opts.trace.is_some() {
        Some(("--trace", TRACE_READS))
    } else if opts.scaling {
        Some(("--scaling", SCALING_READS))
    } else {
        None
    };
    if let Some((mode, reads)) = mode {
        if let Some(flag) = flags.iter().find(|f| !reads.contains(&f.as_str())) {
            return Err(format!("{mode} does not take {flag}"));
        }
        if let Some(name) = opts.names.first() {
            return Err(format!("{mode} does not take a scenario name ({name:?})"));
        }
    }
    Ok(Some(opts))
}

fn selected(opts: &Options) -> Result<Vec<Scenario>, String> {
    let mut scenarios: Vec<Scenario> = if opts.names.is_empty() {
        registry().iter().cloned().collect()
    } else {
        opts.names
            .iter()
            .map(|name| {
                registry()
                    .find(name)
                    .cloned()
                    .ok_or_else(|| format!("unknown scenario {name:?}; known: {}", known_names()))
            })
            .collect::<Result<Vec<_>, _>>()?
    };
    // `--tag` narrows the *default* selection; scenarios the user named
    // explicitly always run (naming a cell is already the narrowest filter).
    if let (Some(tag), true) = (&opts.tag, opts.names.is_empty()) {
        scenarios.retain(|s| s.has_tag(tag));
        if scenarios.is_empty() {
            return Err(format!("no registered scenario carries tag {tag:?}"));
        }
    }
    Ok(scenarios)
}

fn known_names() -> String {
    registry().names().collect::<Vec<_>>().join(", ")
}

/// Prints one line per scenario so users can discover matrix cells without
/// reading source: name, family/n, fault label, effective tags, and the
/// baseline the cell was derived from (`-` for hand-authored baselines).
fn print_listing(opts: &Options) {
    let mut scenarios: Vec<&Scenario> = registry().iter().collect();
    if let Some(tag) = &opts.tag {
        scenarios.retain(|s| s.has_tag(tag));
    }
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
fn trace_one(name: &str, opts: &Options) -> ExitCode {
    let mut scenario = match registry().find(name) {
        Some(s) => s.clone(),
        None => {
            eprintln!("unknown scenario {name:?}; known: {}", known_names());
            return ExitCode::FAILURE;
        }
    };
    if let Some(threshold) = opts.par_threshold {
        scenario = scenario.with_parallelism(ParallelismConfig {
            workers: None,
            min_nodes: threshold,
        });
    }
    let seed = opts.seed.unwrap_or(0);
    let run = scenario.run_traced(seed);
    let dir = opts.dir.join("traces");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let path = dir.join(format!("{}-seed{seed}.jsonl", scenario.name));
    if let Err(e) = std::fs::write(&path, to_jsonl(&run.events)) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{} events written to {}", run.events.len(), path.display());
    print!("{}", post_mortem(&scenario, &run).render());
    ExitCode::SUCCESS
}

/// The per-pair regression gate of `--compare`. With
/// `--write-thresholds`, (re)writes `<dir>/thresholds.json` from the deltas
/// just computed; otherwise, when that file exists, checks every committed
/// floor and returns `false` (exit 1) on any violation. No file, no gate —
/// the table alone stays informational.
fn threshold_gate(deltas: &[PairDelta], opts: &Options) -> bool {
    if opts.write_thresholds {
        return match write_thresholds(deltas, &opts.dir) {
            Ok(path) => {
                eprintln!(
                    "{} pair floor(s) written to {}",
                    deltas.len(),
                    path.display()
                );
                true
            }
            Err(e) => {
                eprintln!("cannot write thresholds: {e}");
                false
            }
        };
    }
    let path = opts.dir.join("thresholds.json");
    if !path.exists() {
        return true;
    }
    let thresholds = match load_thresholds(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read thresholds: {e}");
            return false;
        }
    };
    let violations = check_thresholds(deltas, &thresholds);
    if violations.is_empty() {
        eprintln!(
            "{} pair floor(s) hold ({})",
            thresholds.len(),
            path.display()
        );
        return true;
    }
    eprintln!("{} pair floor violation(s):", violations.len());
    for v in &violations {
        eprintln!("  {v}");
    }
    false
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
fn compare_committed(opts: &Options) -> ExitCode {
    let mut deltas = Vec::new();
    for (base, twin) in registry().pairs() {
        let (base_doc, twin_doc) = match (load_if_present(opts, base), load_if_present(opts, twin))
        {
            (Ok(Some(b)), Ok(Some(t))) => (b, t),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("--compare: {e}");
                return ExitCode::FAILURE;
            }
            _ => continue,
        };
        let axis = twin.axis.map_or("", |a| a.label());
        match PairDelta::from_committed(&base_doc, &twin_doc, axis) {
            Ok(d) => deltas.push(d),
            Err(e) => {
                eprintln!("--compare: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if deltas.is_empty() {
        eprintln!(
            "--compare: no (baseline, twin) pair has both reports under {}",
            opts.dir.display()
        );
        return ExitCode::FAILURE;
    }
    print!("{}", render_compare_table(&deltas));
    match write_compare_table(&deltas, &opts.dir) {
        Ok(path) => eprintln!("delta table persisted to {}", path.display()),
        Err(e) => {
            eprintln!("cannot write delta table: {e}");
            return ExitCode::FAILURE;
        }
    }
    if !threshold_gate(&deltas, opts) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `--scaling`: the scaling harness. Every cell of [`scaling::scaling_cells`]
/// up to `--max-n` runs once under `--seed`, serially and with within-round
/// parallelism engaged (from `--par-threshold` nodes up, default 0 so the
/// parallel path always runs). The per-cell results and wall-clocks, plus the
/// machine's facts, are rendered to `<dir>/scaling.md` — committed next to the
/// sweep baselines so scaling claims are pinned to a recorded measurement.
fn run_scaling(opts: &Options) -> ExitCode {
    let machine = scaling::MachineInfo::capture();
    let max_n = opts.max_n.unwrap_or(65536);
    let cells = scaling::scaling_cells(max_n);
    if cells.is_empty() {
        eprintln!("--scaling: no scaling cell has n <= {max_n}");
        return ExitCode::FAILURE;
    }
    let min_nodes = opts.par_threshold.unwrap_or(0);
    let mut measured = Vec::with_capacity(cells.len());
    for scenario in &cells {
        let cell = scaling::run_cell(scenario, opts.seed.unwrap_or(0), min_nodes);
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
            "{:<36} n={:<6} rounds={:<4} success={} serial={:.2?} parallel={:.2?}{speedup}",
            cell.name, cell.n, cell.rounds, cell.success, cell.serial_wall, cell.parallel_wall,
        );
        measured.push(cell);
    }
    let text = scaling::render_markdown(&machine, &measured);
    let path = opts.dir.join("scaling.md");
    if let Err(e) = std::fs::create_dir_all(&opts.dir) {
        eprintln!("cannot create {}: {e}", opts.dir.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("scaling report written to {}", path.display());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if opts.list {
        print_listing(&opts);
        return ExitCode::SUCCESS;
    }
    if let Some(name) = &opts.trace {
        return trace_one(name, &opts);
    }
    if opts.scaling {
        return run_scaling(&opts);
    }
    if opts.no_run {
        return compare_committed(&opts);
    }
    let scenarios = match selected(&opts) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut regressions = 0usize;
    for mut scenario in scenarios {
        if let Some(threshold) = opts.par_threshold {
            // Parallelism is bitwise-invisible in results, so overriding it
            // never perturbs a `--check` comparison — it only decides which
            // code path produces the (identical) bytes.
            scenario = scenario.with_parallelism(ParallelismConfig {
                workers: None,
                min_nodes: threshold,
            });
        }
        let result = Sweep::over_seeds(scenario, opts.first_seed, opts.seeds).run();
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
        let mut regressed = false;
        if opts.check {
            if !path.exists() {
                // A missing baseline must fail the check: treating it as success
                // would make the regression gate silently inert (e.g. a baseline
                // directory that was never committed, or a renamed scenario).
                regressed = true;
                eprintln!(
                    "  no baseline at {}; run without --check to create it",
                    path.display()
                );
            } else {
                match load_report(&path) {
                    Ok(previous) => {
                        let diffs = diff_reports(&previous, &result.to_json());
                        if !diffs.is_empty() {
                            regressed = true;
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
                    }
                    Err(e) => {
                        eprintln!("  cannot read previous report: {e}");
                        regressed = true;
                    }
                }
            }
        }
        if regressed {
            // Keep the baseline (or its absence) intact so the failure stays
            // reproducible; the intended-change workflow (rerun without --check,
            // commit) still works.
            regressions += 1;
        } else if let Err(e) = write_report(&result, &opts.dir) {
            eprintln!("  cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    if regressions > 0 {
        eprintln!("{regressions} scenario(s) changed behavior");
        return ExitCode::FAILURE;
    }
    if opts.compare {
        return compare_committed(&opts);
    }
    ExitCode::SUCCESS
}
