//! The benchmark against its contract: `BENCHMARK.json` stays inside the
//! driver's limits, and what it names is exactly what a run prints.

use overlay_networks::scenarios::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_overlay-benchmark");

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn fields(json: &Json) -> &[(String, Json)] {
    match json {
        Json::Obj(fields) => fields,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn get<'a>(json: &'a Json, key: &str) -> &'a Json {
    fields(json)
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn items(json: &Json) -> &[Json] {
    match json {
        Json::Arr(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn text(json: &Json) -> &str {
    match json {
        Json::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(json: &Json) -> f64 {
    match json {
        Json::Num(x) => *x,
        Json::Int(x) => *x as f64,
        Json::UInt(x) => *x as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn keys(json: &Json) -> BTreeSet<&str> {
    fields(json).iter().map(|(k, _)| k.as_str()).collect()
}

fn is_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn benchmark_json_is_inside_the_contract_limits() {
    let b = benchmark_json();
    assert_eq!(
        keys(&b),
        BTreeSet::from([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );
    let command = items(get(&b, "command"));
    assert!((1..=32).contains(&command.len()));
    for part in command {
        let part = text(part);
        assert!(
            part.len() <= 200 && !part.starts_with('/') && !part.contains(".."),
            "{part}"
        );
    }
    assert_eq!(
        items(get(&b, "paths")).iter().map(text).collect::<Vec<_>>(),
        ["benchmark"]
    );
    let seconds = number(get(&b, "run_seconds"));
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads = items(get(&b, "workloads"));
    let end_to_end = items(get(&b, "end_to_end"));
    let per_layer = items(get(&b, "per_layer"));
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    // 4 + 22 runs per workload, each its set-ups (five, or a fifth of
    // `run_seconds`) and `run_seconds` of iterations, must fit the driver's
    // 3420 s with two builds, on a host half as fast as this one was.
    let runs = 4.0 + 22.0 * workloads.len() as f64;
    assert!(runs * (seconds * 1.2 + 6.0) + 2.0 * 180.0 <= 3420.0);

    let mut names = BTreeSet::new();
    for w in workloads {
        assert_eq!(keys(w), BTreeSet::from(["name", "why"]));
        let why = text(get(w, "why"));
        assert!(why.len() <= 200 && !why.contains('\n'));
        assert!(names.insert(text(get(w, "name"))));
    }
    let mut setup_bound = None;
    let mut largest_bound: f64 = 0.0;
    for m in end_to_end {
        assert_eq!(keys(m), BTreeSet::from(["name", "unit", "better", "bound"]));
        let bound = number(get(m, "bound"));
        assert!(bound > 0.0 && bound <= 0.25);
        largest_bound = largest_bound.max(bound);
        if text(get(m, "name")) == "setup_s" {
            assert_eq!(
                (text(get(m, "unit")), text(get(m, "better"))),
                ("s", "lower")
            );
            setup_bound = Some(bound);
        }
    }
    assert_eq!(
        setup_bound,
        Some(largest_bound),
        "setup_s carries the largest bound"
    );
    for m in per_layer {
        assert_eq!(keys(m), BTreeSet::from(["name", "unit", "better"]));
    }
    for m in end_to_end.iter().chain(per_layer) {
        assert!(is_unit(text(get(m, "unit"))));
        assert!(matches!(text(get(m, "better")), "lower" | "higher"));
        assert!(names.insert(text(get(m, "name"))), "a name is used once");
    }
    for name in names {
        assert!(is_name(name), "{name}");
    }
}

fn quick_run(workload: &str, trace: &str) -> Output {
    Command::new(EXE)
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("the benchmark binary runs")
}

/// The last stdout line of a successful run, parsed.
fn result_of(workload: &str, trace: &str) -> Json {
    let output = quick_run(workload, trace);
    assert!(
        output.status.success(),
        "{workload} --trace {trace}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line is one JSON object")
}

/// The workloads `run` and `trace` measure besides those `BENCHMARK.json`
/// lists.
const LEDGER_ONLY: [&str; 4] = [
    "construct-channel",
    "construct-tcp2",
    "traffic-lossy-reliable",
    "empty-rounds",
];

/// Every metric name in `BENCHMARK.json` is printed by a `--quick` run of
/// every workload and the other way round, with the declared unit; every
/// end-to-end value is positive and every check passes.
#[test]
fn quick_runs_print_exactly_what_benchmark_json_names() {
    let b = benchmark_json();
    let listed = items(get(&b, "workloads"))
        .iter()
        .map(|w| text(get(w, "name")));
    for workload in listed.chain(LEDGER_ONLY) {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = result_of(workload, trace);
            assert_eq!(
                keys(&result),
                BTreeSet::from(["correct", "attempted", "failed", "metrics"])
            );
            assert_eq!(get(&result, "correct"), &Json::Bool(true), "{workload}");
            assert!(number(get(&result, "attempted")) >= 1.0);
            assert_eq!(number(get(&result, "failed")), 0.0, "{workload}");
            let printed = get(&result, "metrics");
            let declared = items(get(&b, list));
            assert_eq!(
                keys(printed),
                declared.iter().map(|m| text(get(m, "name"))).collect(),
                "{workload} --trace {trace}"
            );
            for m in declared {
                let name = text(get(m, "name"));
                let got = get(printed, name);
                assert_eq!(keys(got), BTreeSet::from(["value", "unit"]));
                assert_eq!(text(get(got, "unit")), text(get(m, "unit")), "{name}");
                let value = number(get(got, "value"));
                assert!(value.is_finite(), "{workload} {name}");
                if list == "end_to_end" {
                    assert!(value > 0.0, "{workload} {name} is never 0");
                }
            }
            if trace == "1" {
                let value = |name| number(get(get(printed, name), "value"));
                assert_eq!(value("traced_matches_untraced"), 1.0, "{workload}");
                let shares: f64 = fields(printed)
                    .iter()
                    .filter(|(k, _)| k.ends_with(".self_share"))
                    .map(|(_, m)| number(get(m, "value")))
                    .sum();
                assert!(
                    (shares - 1.0).abs() < 1e-6,
                    "{workload}: shares sum to {shares}"
                );
            }
        }
    }
}

#[test]
fn a_bad_request_exits_non_zero_without_a_result() {
    for args in [
        vec![
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--seed", "1"],
        vec!["--workload", "empty-rounds", "--trace", "2"],
    ] {
        let output = Command::new(EXE).args(&args).output().expect("runs");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}

fn ledger(dir: &Path, name: &str, wall_s: f64, rounds: f64) -> PathBuf {
    let metric = |value: f64| {
        Json::obj(vec![
            ("value", Json::Num(value)),
            ("q1", Json::Num(value * 0.99)),
            ("q3", Json::Num(value * 1.01)),
        ])
    };
    let doc = Json::obj(vec![
        ("seed", Json::UInt(1)),
        (
            "workloads",
            Json::obj(vec![(
                "construct-bare",
                Json::obj(vec![
                    ("attempted", Json::UInt(4096)),
                    ("failed", Json::UInt(0)),
                    (
                        "metrics",
                        Json::obj(vec![
                            ("wall_s", metric(wall_s)),
                            (
                                "rounds_per_log2n",
                                Json::obj(vec![("value", Json::Num(rounds))]),
                            ),
                        ]),
                    ),
                ]),
            )]),
        ),
    ]);
    let path = dir.join(name);
    std::fs::write(&path, doc.render()).expect("write a ledger");
    path
}

#[test]
fn compare_exits_non_zero_only_on_a_regression() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let base = ledger(dir, "base.json", 1.0, 27.5);
    let same = ledger(dir, "same.json", 1.04, 27.5);
    let slower = ledger(dir, "slower.json", 1.4, 27.5);
    let more_rounds = ledger(dir, "more-rounds.json", 1.0, 27.6);
    let compare = |b: &Path| {
        let output = Command::new(EXE)
            .arg("compare")
            .args([&base, b])
            .output()
            .expect("runs");
        (
            output.status.success(),
            String::from_utf8_lossy(&output.stdout).into_owned(),
        )
    };
    let (ok, report) = compare(&same);
    assert!(ok && report.contains("within"), "{report}");
    let (ok, report) = compare(&slower);
    assert!(!ok && report.contains("REGRESSED"), "{report}");
    // One seed, so a simulated count that moved at all is a regression.
    let (ok, report) = compare(&more_rounds);
    assert!(!ok && report.contains("rounds_per_log2n"), "{report}");
}
