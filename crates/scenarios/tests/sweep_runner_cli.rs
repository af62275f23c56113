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

/// `--seed` only picks the run of `--trace` and `--scaling`, and `--max-n`
/// only caps `--scaling`: on a sweep both are refused before anything runs,
/// instead of the sweep ignoring them and rewriting the report from seeds 0..16.
#[test]
fn seed_and_max_n_are_refused_on_a_sweep() {
    let dir = temp_dir("sweep-only-flags");
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    for (flag, value) in [("--seed", "3"), ("--max-n", "256")] {
        let out = sweep_runner(&["--dir", dir_arg, "--seeds", "1", flag, value, "clean-line"]);
        assert_eq!(out.status.code(), Some(1), "{flag}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{stderr}");
        assert!(!dir.exists(), "{flag}: nothing may be written");
    }
}

/// One pair swept into a fresh directory: the table `--compare` renders after
/// the sweep and the one `--compare --no-run` renders from the files are the
/// same bytes — whatever `--seeds` the second call states, since the seed
/// count comes from the reports — every other pair (no report on either side)
/// is skipped, and a report that is *present but truncated* is an error
/// naming the file, not one more skipped pair.
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

    let offline = sweep_runner(&[&common[..], &["--no-run"]].concat());
    assert!(offline.status.success(), "{offline:?}");
    assert!(table.ends_with(&*String::from_utf8_lossy(&offline.stdout)));
    assert_eq!(std::fs::read(dir.join("compare.md")).unwrap(), after_sweep);
    assert!(String::from_utf8_lossy(&after_sweep).contains("pair, 2 seeds each; see"));

    let restated = sweep_runner(&["--dir", dir_arg, "--seeds", "16", "--compare", "--no-run"]);
    assert!(restated.status.success(), "{restated:?}");
    assert_eq!(std::fs::read(dir.join("compare.md")).unwrap(), after_sweep);

    let twin = dir.join("lossy-ncc0-reliable.json");
    let text = std::fs::read_to_string(&twin).unwrap();
    std::fs::write(&twin, &text[..text.len() / 2]).unwrap();
    let refused = sweep_runner(&[&common[..], &["--no-run"]].concat());
    assert_eq!(refused.status.code(), Some(1), "{refused:?}");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("lossy-ncc0-reliable.json"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}
