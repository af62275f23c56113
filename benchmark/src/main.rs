//! The perf ledger's one entry point.
//!
//! ```text
//! overlay-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! overlay-benchmark run   [--seed <n>] [--seconds <s>] [--out <file>]
//! overlay-benchmark trace [--seed <n>] [--seconds <s>] [--out <file>]
//! overlay-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is one run of one workload and prints one JSON result on
//! its last line. `run` and `trace` do that for every workload, each in a
//! fresh child process so `peak_rss_mb` is per workload, and write a ledger.

mod compare;
mod harness;
mod ledger;
mod reference;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::Args;
use std::process::ExitCode;
use workloads::{
    ConstructChannel, ConstructTcp2, EmptyRounds, ServeChurn, SimConstruct, TrafficWave,
};

/// Options shared by the single-run form and the `run` / `trace` subcommands.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    spans: Option<std::path::PathBuf>,
    out: Option<std::path::PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        spans: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            o.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(o.seconds.is_finite() && (0.0..=60.0).contains(&o.seconds)) {
                    return Err(bad("between 0 and 60"));
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--spans" => o.spans = Some(value.into()),
            "--out" => o.out = Some(value.into()),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

/// One run of one workload, by name.
fn run_one(args: &Args) -> Result<harness::Outcome, String> {
    let (seed, quick) = (args.seed, args.quick);
    Ok(match args.workload.as_str() {
        "construct-bare" => harness::run(args, || {
            SimConstruct::new(seed, if quick { 64 } else { 1024 }, false)
        }),
        "construct-reliable-lossy" => harness::run(args, || {
            SimConstruct::new(seed, if quick { 64 } else { 256 }, true)
        }),
        "construct-channel" => harness::run(args, || ConstructChannel::new(seed, quick)),
        "construct-tcp2" => harness::run(args, || ConstructTcp2::new(seed, quick)),
        "traffic-uniform" => harness::run(args, || TrafficWave::new(seed, quick, false)),
        "traffic-lossy-reliable" => harness::run(args, || TrafficWave::new(seed, quick, true)),
        "serve-churn" => harness::run(args, || ServeChurn::new(seed, quick)),
        "empty-rounds" => harness::run(args, || EmptyRounds::new(seed, quick)),
        other => {
            let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {other:?}; known: {}",
                known.join(", ")
            ));
        }
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err("usage: compare <a.json> <b.json>".into()),
        },
        Some(mode @ ("run" | "trace")) => parse_options(&argv[1..]).and_then(|o| {
            ledger::run_all(
                mode == "trace",
                o.seed,
                o.seconds,
                o.quick,
                o.out.as_deref(),
            )
        }),
        _ => parse_options(&argv).and_then(|o| {
            let args = Args {
                workload: o.workload.ok_or("missing --workload <name>")?,
                seed: o.seed,
                seconds: o.seconds,
                trace: o.trace,
                quick: o.quick,
                spans: o.spans,
            };
            let outcome = run_one(&args)?;
            harness::print(&args, &outcome);
            Ok(outcome.correct)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("overlay-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
