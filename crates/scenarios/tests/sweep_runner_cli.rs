//! The `sweep_runner` binary from the outside: exit codes and which stream
//! carries what, for the paths a unit test cannot reach.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sweep_runner(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep_runner"))
        .args(args)
        .output()
        .expect("sweep_runner starts")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("overlay-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn help_prints_usage_to_stdout_and_succeeds() {
    let out = sweep_runner(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: sweep_runner"));
    assert!(out.stderr.is_empty());
}

/// `--seeds 0` is refused before anything runs: the sweep would otherwise
/// overwrite the selected report with an empty one and exit 0.
#[test]
fn zero_seeds_is_refused_before_any_report_is_written() {
    let dir = temp_dir("zero-seeds");
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let out = sweep_runner(&["--dir", dir_arg, "--seeds", "0", "clean-line"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--seeds"), "{stderr}");
    assert!(!dir.exists(), "nothing may be written");
}

/// Every flag is read by the mode it is given with, or refused before anything
/// runs: `--max-n` on a sweep (it caps `--scaling`), which the sweep would
/// ignore while rewriting the report from seeds 0..16; with `--list`,
/// `--trace`, `--scaling` or `--compare --no-run` any flag beyond the ones the
/// mode reads, and (but for `--scaling`'s bases) any scenario name, which the
/// run would ignore while exiting 0; `--no-run` and `--write-thresholds`
/// without `--compare`; `--tag` beside a scenario name; the retired
/// `--first-seed`; a `--dir` beside a named `--scaling` run, which writes no
/// report; and a `--list --tag` no cell carries. A retired large-`n` cell name is an unknown scenario. Every
/// `--scaling` input caps at `--max-n 1024`, so a runner that took it would
/// finish in seconds, not run the 65 536-node cells. `--list` reads no `--dir`
/// and writes nothing, so its cases run without one.
#[test]
fn flags_their_mode_never_reads_are_refused() {
    let dir = temp_dir("unread-flags");
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let cases: [(&[&str], &str); 19] = [
        (&["--seeds", "1", "--max-n", "256", "clean-line"], "--max-n"),
        (
            &["--seeds", "1", "full-clean-line-1024"],
            "full-clean-line-1024",
        ),
        (
            &["--trace", "clean-line", "--check", "--compare", "--explain"],
            "--check",
        ),
        (&["--trace", "clean-line", "--compare"], "--compare"),
        (&["--trace", "clean-line", "--explain"], "--explain"),
        (&["--trace", "clean-line", "--seeds", "3"], "--seeds"),
        (
            &["--trace", "clean-line", "clean-expander"],
            "clean-expander",
        ),
        (&["--scaling", "--max-n", "1024", "--check"], "--check"),
        (&["--scaling", "--max-n", "1024", "--seeds", "3"], "--seeds"),
        (&["--scaling", "--max-n", "1024", "clean-line"], "--dir"),
        (
            &[
                "--compare",
                "--no-run",
                "--check",
                "--explain",
                "--first-seed",
                "5",
                "--par-threshold",
                "0",
                "--seeds",
                "3",
                "--tag",
                "serve",
                "clean-line",
            ],
            "--first-seed",
        ),
        (
            &[
                "--list",
                "--check",
                "--explain",
                "--seeds",
                "3",
                "--compare",
                "clean-line",
            ],
            "--check",
        ),
        (&["--compare", "--no-run", "--seeds", "16"], "--seeds"),
        (&["--no-run"], "--no-run"),
        (&["--write-thresholds", "clean-line"], "--write-thresholds"),
        (&["--tag", "serve", "clean-line"], "--tag"),
        (&["--list", "--trace", "clean-line"], "--trace"),
        (&["--first-seed", "5", "clean-line"], "--first-seed"),
        (&["--list", "--tag", "no-such-tag"], "no-such-tag"),
    ];
    for (mode_args, named) in cases {
        let args = if mode_args[0] == "--list" {
            mode_args.to_vec()
        } else {
            [&["--dir", dir_arg][..], mode_args].concat()
        };
        let out = sweep_runner(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
        assert!(!dir.exists(), "{args:?}: nothing may be written");
    }
}

/// `--scaling` given base names runs those bases' cells only and writes no
/// report: run from an empty directory, it leaves the directory empty, so no
/// partial table can replace `reports/scaling.md`. A name that is not a
/// scaling base, even beside one that is, exits 1 before anything runs.
#[test]
fn a_named_scaling_run_prints_its_rows_and_writes_no_report() {
    let dir = temp_dir("named-scaling");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_sweep_runner"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("sweep_runner starts")
    };
    let written = || std::fs::read_dir(&dir).expect("temp dir").count();
    let out = run(&["--scaling", "--max-n", "1024", "clean-line"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = stdout.lines().collect();
    assert_eq!(rows.len(), 1, "{stdout}");
    // The committed `scaling.md` row of the same cell: the same computation.
    assert!(
        rows[0].starts_with("clean-line ")
            && rows[0].contains("n=1024")
            && rows[0].contains("rounds=289")
            && rows[0].contains("delivered=1494038"),
        "{stdout}"
    );
    assert_eq!(written(), 0, "a named run writes nothing");
    let out = run(&["--scaling", "--max-n", "1024", "clean-line", "join-churn"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("\"join-churn\""),
        "{out:?}"
    );
    assert!(out.stdout.is_empty(), "nothing may run: {out:?}");
    assert_eq!(written(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--seed` is the first seed of a sweep's range, as it is the seed of
/// `--trace` and `--scaling`.
#[test]
fn seed_starts_the_sweep_range() {
    let dir = temp_dir("first-seed");
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let out = sweep_runner(&[
        "--dir",
        dir_arg,
        "--seeds",
        "1",
        "--seed",
        "3",
        "clean-line",
    ]);
    assert!(out.status.success(), "{out:?}");
    let report = std::fs::read_to_string(dir.join("clean-line.json")).expect("report written");
    assert_eq!(report.matches("\"seed\":").count(), 1, "{report}");
    assert!(report.contains("\"seed\": 3,"), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One pair swept into a fresh directory: the table `--compare` renders after
/// the sweep and the one `--compare --no-run` renders from the files are the
/// same bytes — the seed count comes from the reports, so the second call
/// refuses a `--seeds` and leaves the table as it was — every other pair (no
/// report on either side) is skipped, and a report that is *present but
/// truncated* is an error naming the file, not one more skipped pair.
#[test]
fn compare_reads_the_written_reports_and_refuses_a_malformed_one() {
    let dir = temp_dir("compare");
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let common = ["--dir", dir_arg, "--seeds", "2", "--compare"];

    let swept = sweep_runner(&[&common[..], &["lossy-ncc0", "lossy-ncc0-reliable"]].concat());
    assert!(swept.status.success(), "{swept:?}");
    let table = String::from_utf8_lossy(&swept.stdout).into_owned();
    assert!(table.contains("| lossy-ncc0 | lossy-ncc0-reliable | transport |"));
    let after_sweep = std::fs::read(dir.join("compare.md")).expect("table persisted");

    let no_run = ["--dir", dir_arg, "--compare", "--no-run"];
    let offline = sweep_runner(&no_run);
    assert!(offline.status.success(), "{offline:?}");
    assert!(table.ends_with(&*String::from_utf8_lossy(&offline.stdout)));
    assert_eq!(std::fs::read(dir.join("compare.md")).unwrap(), after_sweep);
    assert!(String::from_utf8_lossy(&after_sweep).contains("pair, 2 seeds each; see"));

    let restated = sweep_runner(&[&no_run[..], &["--seeds", "16"]].concat());
    assert_eq!(restated.status.code(), Some(1), "{restated:?}");
    assert!(String::from_utf8_lossy(&restated.stderr).contains("--seeds"));
    assert_eq!(std::fs::read(dir.join("compare.md")).unwrap(), after_sweep);

    let twin = dir.join("lossy-ncc0-reliable.json");
    let text = std::fs::read_to_string(&twin).unwrap();
    std::fs::write(&twin, &text[..text.len() / 2]).unwrap();
    let refused = sweep_runner(&no_run);
    assert_eq!(refused.status.code(), Some(1), "{refused:?}");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("lossy-ncc0-reliable.json"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}
