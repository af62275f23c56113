//! Persisting sweep reports under `reports/` and diffing them across runs.
//!
//! A [`crate::SweepReport`]'s JSON body is fully deterministic (wall-clock time and
//! worker counts are deliberately excluded from [`crate::SweepReport::to_json`]), so
//! a report written by one commit and re-generated by another answers the question
//! *"did behavior change?"* with a plain file comparison. This module provides the
//! two halves of that workflow:
//!
//! * [`write_report`] renders a report to `<dir>/<scenario-name>.json` (pretty,
//!   trailing newline), creating the directory if needed — the conventional
//!   location is a `reports/` directory at the repository root;
//! * [`diff_reports`] compares two report documents *structurally* and returns
//!   one human-readable line per differing value, with
//!   its JSON path (e.g. ``runs[3].delivered: 128 -> 131``), so a regression diff
//!   names exactly which seed and which counter moved rather than dumping raw text.
//!
//! Formatting-only changes (indentation, key order) are invisible to the diff
//! because both sides are parsed into [`Json`] values first.

use crate::json::Json;
use crate::sweep::SweepReport;
use std::io;
use std::path::{Path, PathBuf};

/// Writes the report's deterministic JSON body to `<dir>/<scenario-name>.json`,
/// creating `dir` if it does not exist, and returns the written path.
///
/// # Errors
///
/// Propagates any filesystem error (directory creation or file write).
pub fn write_report(report: &SweepReport, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", report.scenario.name));
    let mut body = report.to_json_string();
    body.push('\n');
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Reads and parses a report file previously written by [`write_report`].
///
/// # Errors
///
/// Returns the filesystem error (same [`io::ErrorKind`]), or
/// [`io::ErrorKind::InvalidData`] if the file is not valid JSON; either way
/// the message names the file.
pub fn load_report(path: impl AsRef<Path>) -> io::Result<Json> {
    let path = path.as_ref();
    let named = |kind, e: String| io::Error::new(kind, format!("{}: {e}", path.display()));
    let text = std::fs::read_to_string(path).map_err(|e| named(e.kind(), e.to_string()))?;
    Json::parse(&text).map_err(|e| named(io::ErrorKind::InvalidData, e.to_string()))
}

/// Structurally compares two report documents and returns one line per difference,
/// in document order: changed values, missing/extra object fields, and length
/// mismatches of arrays. An empty result means the deterministic behavior the
/// reports capture is identical.
pub fn diff_reports(old: &Json, new: &Json) -> Vec<String> {
    let mut out = Vec::new();
    diff_value("", old, new, &mut out);
    out
}

fn diff_value(path: &str, old: &Json, new: &Json, out: &mut Vec<String>) {
    match (old, new) {
        (Json::Obj(a), Json::Obj(b)) => {
            for (key, old_v) in a {
                let child = join_path(path, key);
                match b.iter().find(|(k, _)| k == key) {
                    Some((_, new_v)) => diff_value(&child, old_v, new_v, out),
                    None => out.push(format!("{child}: removed (was {})", old_v.render())),
                }
            }
            for (key, new_v) in b {
                if !a.iter().any(|(k, _)| k == key) {
                    out.push(format!(
                        "{}: added ({})",
                        join_path(path, key),
                        new_v.render()
                    ));
                }
            }
        }
        (Json::Arr(a), Json::Arr(b)) => {
            if a.len() != b.len() {
                out.push(format!("{path}: length {} -> {}", a.len(), b.len()));
            }
            for (i, (old_v, new_v)) in a.iter().zip(b.iter()).enumerate() {
                diff_value(&format!("{path}[{i}]"), old_v, new_v, out);
            }
        }
        // Leaves (and container/leaf type changes) are compared by their rendered
        // form: a parsed report holds `Int(226)` where a freshly generated one holds
        // `Num(226.0)`, and both render as `226` — numerically identical values must
        // never count as a regression.
        _ => {
            let (old_text, new_text) = (old.render(), new.render());
            if old_text != new_text {
                out.push(format!("{path}: {old_text} -> {new_text}"));
            }
        }
    }
}

fn join_path(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::find;
    use crate::sweep::Sweep;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("overlay-report-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_load_round_trip_is_lossless() {
        let dir = temp_dir("roundtrip");
        let report = Sweep::over_seeds(find("lossy-ncc0").unwrap(), 0, 3).run();
        let path = write_report(&report, &dir).expect("write succeeds");
        assert_eq!(path.file_name().unwrap(), "lossy-ncc0.json");
        let loaded = load_report(&path).expect("load succeeds");
        // Reparsing classifies integral floats as ints, so compare rendered form.
        assert_eq!(loaded.render(), report.to_json().render());
        assert!(diff_reports(&loaded, &report.to_json()).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diff_pinpoints_changed_values_by_path() {
        let old = Json::obj(vec![
            ("scenario", Json::Str("x".into())),
            (
                "runs",
                Json::Arr(vec![
                    Json::obj(vec![("delivered", Json::Int(10))]),
                    Json::obj(vec![("delivered", Json::Int(20))]),
                ]),
            ),
        ]);
        let new = Json::obj(vec![
            ("scenario", Json::Str("x".into())),
            (
                "runs",
                Json::Arr(vec![
                    Json::obj(vec![("delivered", Json::Int(10))]),
                    Json::obj(vec![("delivered", Json::Int(25))]),
                ]),
            ),
            ("extra", Json::Bool(true)),
        ]);
        let diffs = diff_reports(&old, &new);
        assert_eq!(
            diffs,
            vec![
                "runs[1].delivered: 20 -> 25".to_string(),
                "extra: added (true)".to_string(),
            ]
        );
    }

    #[test]
    fn diff_of_reruns_is_empty() {
        let dir = temp_dir("rerun");
        let sweep = Sweep::over_seeds(find("mid-build-crash-wave").unwrap(), 40, 3);
        let path_a = write_report(&sweep.run(), dir.join("a")).unwrap();
        let path_b = write_report(&sweep.run(), dir.join("b")).unwrap();
        assert_eq!(
            diff_reports(
                &load_report(&path_a).expect("parses"),
                &load_report(&path_b).expect("parses")
            ),
            Vec::<String>::new()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
