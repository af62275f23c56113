//! Baseline-vs-twin delta tables.
//!
//! A twin scenario exists to answer *"what did the variant buy, and what did it
//! cost?"* — but two 16-seed JSON reports side by side make the reader do the
//! subtraction. This module does it mechanically: [`PairDelta`] condenses a
//! `(baseline, twin)` couple of report documents (see
//! [`crate::Registry::pairs`]) into the headline quantities — success rate,
//! coverage, mean rounds, mean delivered messages, total retransmissions — and
//! [`render_compare_table`] lays any number of couples out as one markdown table, which
//! `sweep_runner --compare` prints and persists next to the reports (and CI
//! uploads as an artifact).
//!
//! There is one comparator, [`PairDelta::from_committed`], and it reads report
//! *documents*: the table after a sweep and the table of `--compare --no-run`
//! are the same function over the same files. It is a pure function of the
//! deterministic report bodies (wall-clock and worker counts never enter), so
//! regenerating it on an unchanged tree is byte-identical.

use crate::json::Json;
use crate::report::load_report;
use std::io;
use std::path::{Path, PathBuf};

/// The headline deltas of one `(baseline, twin)` couple.
#[derive(Clone, Debug, PartialEq)]
pub struct PairDelta {
    /// Baseline scenario name.
    pub baseline: String,
    /// Twin scenario name.
    pub twin: String,
    /// The twin's declared variant axis label (empty when undeclared).
    pub axis: String,
    /// Seeds per report, as both reports' `seeds` headers state it.
    pub seeds: usize,
    /// Success rate, baseline then twin (fractions in `[0, 1]`).
    pub success: (f64, f64),
    /// Mean coverage, baseline then twin (for serve cells this is the
    /// *sustained* service coverage — the maintenance subsystem's headline).
    pub coverage: (f64, f64),
    /// Mean total rounds, baseline then twin.
    pub rounds: (f64, f64),
    /// Mean delivered messages per run, baseline then twin.
    pub delivered: (f64, f64),
    /// Total transport retransmissions across the sweep, baseline then twin.
    pub retransmits: (u64, u64),
    /// Traffic-phase deltas, present only when *both* sides of the pair carry
    /// a workload — the latency columns of `sweep_runner --compare` come from
    /// here and are omitted entirely for classic construction pairs.
    pub traffic: Option<TrafficDeltas>,
}

/// The traffic-phase columns of a `(baseline, twin)` couple that both route a
/// workload: what the variant bought in delivered requests, and what it cost
/// in rounds-to-delivery.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrafficDeltas {
    /// Mean delivered fraction, baseline then twin (fractions in `[0, 1]`).
    pub delivered_fraction: (f64, f64),
    /// Mean per-seed median rounds-to-delivery, baseline then twin.
    pub latency_p50: (f64, f64),
    /// Mean per-seed 99th-percentile rounds-to-delivery, baseline then twin.
    pub latency_p99: (f64, f64),
}

impl PairDelta {
    /// Condenses a couple of report documents — as parsed by
    /// [`crate::load_report`], or straight from
    /// [`crate::SweepReport::to_json`] — into their headline deltas. No
    /// re-sweep is needed, which is what makes `sweep_runner --compare
    /// --no-run` free in CI. `axis` comes from the registry (the variant axis
    /// is not part of the report body).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped header field (a
    /// document written by [`crate::write_report`] always has them
    /// all), or names both reports when their seed counts differ.
    pub fn from_committed(base: &Json, twin: &Json, axis: &str) -> Result<PairDelta, String> {
        let scenario = |doc: &Json, side: &str| -> Result<String, String> {
            str_field(doc, "scenario").ok_or_else(|| format!("{side}: missing \"scenario\""))
        };
        let headline = |doc: &Json| -> Result<(f64, f64, f64, f64, u64), String> {
            let name = scenario(doc, "report")?;
            let get = |key: &str| {
                num_field(doc, key)
                    .ok_or_else(|| format!("{name}: missing or non-numeric \"{key}\""))
            };
            Ok((
                get("success_rate")?,
                get("mean_coverage")?,
                get("mean_rounds")?,
                get("mean_delivered")?,
                uint_field(doc, "total_retransmits").ok_or_else(|| {
                    format!("{name}: missing or non-numeric \"total_retransmits\"")
                })?,
            ))
        };
        let b = headline(base)?;
        let t = headline(twin)?;
        let seeds = |doc: &Json| -> Result<(String, u64), String> {
            let name = scenario(doc, "report")?;
            let seeds = uint_field(doc, "seeds")
                .ok_or_else(|| format!("{name}: missing or non-numeric \"seeds\""))?;
            Ok((name, seeds))
        };
        let (base_name, base_seeds) = seeds(base)?;
        let (twin_name, twin_seeds) = seeds(twin)?;
        if base_seeds != twin_seeds {
            return Err(format!(
                "{base_name} has {base_seeds} seeds but {twin_name} has {twin_seeds}; \
                 a pair compares equal seed sets"
            ));
        }
        // The traffic columns exist only when both committed headers carry the
        // (conditional) traffic object; a written traffic header always has
        // all three aggregates, so a missing one is a malformed document.
        let traffic_side = |doc: &Json| -> Result<Option<(f64, f64, f64)>, String> {
            let Some(header) = field(doc, "traffic") else {
                return Ok(None);
            };
            let name = scenario(doc, "report")?;
            let get = |key: &str| {
                num_field(header, key)
                    .ok_or_else(|| format!("{name}: traffic header missing \"{key}\""))
            };
            Ok(Some((
                get("mean_delivered_fraction")?,
                get("mean_latency_p50")?,
                get("mean_latency_p99")?,
            )))
        };
        let traffic = match (traffic_side(base)?, traffic_side(twin)?) {
            (Some(tb), Some(tt)) => Some(TrafficDeltas {
                delivered_fraction: (tb.0, tt.0),
                latency_p50: (tb.1, tt.1),
                latency_p99: (tb.2, tt.2),
            }),
            _ => None,
        };
        Ok(PairDelta {
            baseline: base_name,
            twin: twin_name,
            axis: axis.to_string(),
            seeds: base_seeds as usize,
            success: (b.0, t.0),
            coverage: (b.1, t.1),
            rounds: (b.2, t.2),
            delivered: (b.3, t.3),
            retransmits: (b.4, t.4),
            traffic,
        })
    }
}

/// Looks up a top-level object field.
fn field<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    match doc {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A top-level string field.
fn str_field(doc: &Json, key: &str) -> Option<String> {
    match field(doc, key)? {
        Json::Str(s) => Some(s.clone()),
        _ => None,
    }
}

/// A top-level numeric field as `f64` (integral values reparse as ints, so all
/// three numeric variants are accepted).
fn num_field(doc: &Json, key: &str) -> Option<f64> {
    match field(doc, key)? {
        Json::Num(x) => Some(*x),
        Json::Int(i) => Some(*i as f64),
        Json::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

/// A top-level non-negative integer field.
fn uint_field(doc: &Json, key: &str) -> Option<u64> {
    match field(doc, key)? {
        Json::Int(i) if *i >= 0 => Some(*i as u64),
        Json::UInt(u) => Some(*u),
        _ => None,
    }
}

/// Renders the couples as one markdown table, in input order: each cell shows
/// `baseline → twin`, with the signed round delta spelled out (the round cost of
/// a variant is the number readers reach for first).
pub fn render_compare_table(deltas: &[PairDelta]) -> String {
    let mut out = String::from(
        "| baseline | twin | axis | success | coverage | mean rounds | mean delivered | retransmits |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for d in deltas {
        out.push_str(&format!(
            "| {} | {} | {} | {:.1}% → {:.1}% | {:.1}% → {:.1}% | {:.1} → {:.1} ({:+.1}) | {:.0} → {:.0} | {} → {} |\n",
            d.baseline,
            d.twin,
            d.axis,
            100.0 * d.success.0,
            100.0 * d.success.1,
            100.0 * d.coverage.0,
            100.0 * d.coverage.1,
            d.rounds.0,
            d.rounds.1,
            d.rounds.1 - d.rounds.0,
            d.delivered.0,
            d.delivered.1,
            d.retransmits.0,
            d.retransmits.1,
        ));
    }
    // Traffic pairs get a second table with the latency columns; pairs
    // without a workload never appear in it, and a pair set without any
    // traffic couple renders exactly the historical single table.
    let traffic: Vec<(&PairDelta, &TrafficDeltas)> = deltas
        .iter()
        .filter_map(|d| d.traffic.as_ref().map(|t| (d, t)))
        .collect();
    if !traffic.is_empty() {
        out.push_str(
            "\n### Traffic\n\n\
             | baseline | twin | delivered | latency p50 | latency p99 |\n\
             |---|---|---|---|---|\n",
        );
        for (d, t) in traffic {
            out.push_str(&format!(
                "| {} | {} | {:.1}% → {:.1}% | {:.1} → {:.1} | {:.1} → {:.1} ({:+.1}) |\n",
                d.baseline,
                d.twin,
                100.0 * t.delivered_fraction.0,
                100.0 * t.delivered_fraction.1,
                t.latency_p50.0,
                t.latency_p50.1,
                t.latency_p99.0,
                t.latency_p99.1,
                t.latency_p99.1 - t.latency_p99.0,
            ));
        }
    }
    out
}

/// Writes the rendered table (with a short provenance header stating the
/// reports' own seed counts) to `<dir>/compare.md` and returns the written
/// path. The file sits next to the committed reports but stays untracked — it
/// is derived output, regenerated by every `--compare` run.
///
/// # Errors
///
/// Propagates any filesystem error (directory creation or file write).
pub fn write_compare_table(deltas: &[PairDelta], dir: impl AsRef<Path>) -> io::Result<PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let path = dir.join("compare.md");
    let fewest = deltas.iter().map(|d| d.seeds).min().unwrap_or(0);
    let most = deltas.iter().map(|d| d.seeds).max().unwrap_or(0);
    let seeds = if fewest == most {
        format!("{most} seeds each")
    } else {
        format!("{fewest} to {most} seeds each")
    };
    let body = format!(
        "# Baseline vs twin deltas\n\n\
         One row per registered (baseline, twin) pair, {seeds}; see\n\
         `Registry::pairs` and `sweep_runner --compare`.\n\n{}",
        render_compare_table(deltas)
    );
    std::fs::write(&path, body)?;
    Ok(path)
}

/// The committed regression floor of one `(baseline, twin)` pair: the twin's
/// success and coverage *deltas* (twin minus baseline) must not shrink below
/// these values. Committed as `reports/thresholds.json` next to the sweep
/// baselines, so the floors are data under review, not constants in code.
///
/// `--check` already pins every report byte-for-byte; the thresholds bite when
/// baselines are *intentionally* regenerated — a regen that quietly erodes a
/// headline delta (say, re-invitation's coverage lift) fails the compare gate
/// until the floors are deliberately revised.
#[derive(Clone, Debug, PartialEq)]
pub struct PairThreshold {
    /// The twin whose pair is gated (the baseline comes from the registry).
    pub twin: String,
    /// Floor for `success.twin - success.baseline`.
    pub(crate) min_success_delta: f64,
    /// Floor for `coverage.twin - coverage.baseline`.
    pub(crate) min_coverage_delta: f64,
}

/// Slack absorbing float formatting, not behavior: deltas are pure functions of
/// the deterministic report bodies, so any real shrink exceeds this by orders
/// of magnitude.
const THRESHOLD_TOLERANCE: f64 = 1e-9;

impl PairThreshold {
    /// The floor that pins a pair exactly where a measured delta stands.
    pub(crate) fn from_delta(delta: &PairDelta) -> PairThreshold {
        PairThreshold {
            twin: delta.twin.clone(),
            min_success_delta: delta.success.1 - delta.success.0,
            min_coverage_delta: delta.coverage.1 - delta.coverage.0,
        }
    }
}

/// Loads committed pair thresholds from `path` (written by
/// [`write_thresholds`]).
///
/// # Errors
///
/// Returns the filesystem error, or [`io::ErrorKind::InvalidData`] when the
/// document is not valid JSON or lacks the expected fields.
pub fn load_thresholds(path: impl AsRef<Path>) -> io::Result<Vec<PairThreshold>> {
    let doc = load_report(&path)?;
    let invalid = |what: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {what}", path.as_ref().display()),
        )
    };
    let Some(Json::Arr(pairs)) = field(&doc, "pairs") else {
        return Err(invalid("missing \"pairs\" array"));
    };
    pairs
        .iter()
        .map(|entry| {
            Ok(PairThreshold {
                twin: str_field(entry, "twin").ok_or_else(|| invalid("pair without \"twin\""))?,
                min_success_delta: num_field(entry, "min_success_delta")
                    .ok_or_else(|| invalid("pair without \"min_success_delta\""))?,
                min_coverage_delta: num_field(entry, "min_coverage_delta")
                    .ok_or_else(|| invalid("pair without \"min_coverage_delta\""))?,
            })
        })
        .collect()
}

/// Writes the current deltas as the committed floors to
/// `<dir>/thresholds.json` (one entry per pair, in table order) and returns the
/// written path — the `sweep_runner --compare --write-thresholds` workflow for
/// establishing or deliberately revising the gate.
///
/// # Errors
///
/// Propagates any filesystem error.
pub fn write_thresholds(deltas: &[PairDelta], dir: impl AsRef<Path>) -> io::Result<PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let path = dir.join("thresholds.json");
    let pairs: Vec<Json> = deltas
        .iter()
        .map(PairThreshold::from_delta)
        .map(|t| {
            Json::obj(vec![
                ("twin", Json::Str(t.twin)),
                ("min_success_delta", Json::Num(t.min_success_delta)),
                ("min_coverage_delta", Json::Num(t.min_coverage_delta)),
            ])
        })
        .collect();
    let mut body = Json::obj(vec![("pairs", Json::Arr(pairs))]).render_pretty();
    body.push('\n');
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Checks the deltas against the committed floors and returns one line per
/// violation (empty when the gate passes). A thresholded twin missing from
/// `deltas` is itself a violation — a silently vanished pair must not read as
/// a passing gate.
pub fn check_thresholds(deltas: &[PairDelta], thresholds: &[PairThreshold]) -> Vec<String> {
    let mut violations = Vec::new();
    for t in thresholds {
        let Some(d) = deltas.iter().find(|d| d.twin == t.twin) else {
            violations.push(format!(
                "{}: thresholded pair missing from the compared set",
                t.twin
            ));
            continue;
        };
        let success_delta = d.success.1 - d.success.0;
        if success_delta < t.min_success_delta - THRESHOLD_TOLERANCE {
            violations.push(format!(
                "{}: success delta {:.4} shrank below committed floor {:.4}",
                t.twin, success_delta, t.min_success_delta
            ));
        }
        let coverage_delta = d.coverage.1 - d.coverage.0;
        if coverage_delta < t.min_coverage_delta - THRESHOLD_TOLERANCE {
            violations.push(format!(
                "{}: coverage delta {:.4} shrank below committed floor {:.4}",
                t.twin, coverage_delta, t.min_coverage_delta
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry;
    use crate::sweep::Sweep;

    fn pair_delta(twin: &str, seeds: usize) -> PairDelta {
        let (base, twin) = registry()
            .pairs()
            .find(|(_, t)| t.name == twin)
            .expect("pair registered");
        let doc = |s: &crate::Scenario| Sweep::over_seeds(s.clone(), 0, seeds).run().to_json();
        let axis = twin.axis.expect("twins declare an axis").label();
        PairDelta::from_committed(&doc(base), &doc(twin), axis)
            .expect("a report carries every headline field")
    }

    #[test]
    fn delta_condenses_the_pair_and_names_the_axis() {
        let d = pair_delta("lossy-ncc0-reliable", 3);
        assert_eq!(d.baseline, "lossy-ncc0");
        assert_eq!(d.twin, "lossy-ncc0-reliable");
        assert_eq!(d.axis, "transport");
        assert!(d.success.1 >= d.success.0, "reliability lost seeds: {d:?}");
        assert_eq!(d.retransmits.0, 0, "bare baseline cannot retransmit");
        assert!(
            d.retransmits.1 > 0,
            "0.2% loss must trigger retransmissions"
        );
    }

    #[test]
    fn table_renders_one_row_per_pair_and_is_deterministic() {
        let d = pair_delta("lossy-ncc0-reliable", 2);
        let table = render_compare_table(std::slice::from_ref(&d));
        assert_eq!(table.lines().count(), 3, "header + divider + row:\n{table}");
        assert!(table.contains("| lossy-ncc0 | lossy-ncc0-reliable | transport |"));
        assert_eq!(
            table,
            render_compare_table(std::slice::from_ref(&pair_delta("lossy-ncc0-reliable", 2)))
        );
    }

    #[test]
    fn traffic_columns_exist_only_for_traffic_pairs() {
        // A classic construction pair has no traffic section.
        let classic = pair_delta("lossy-ncc0-reliable", 2);
        assert!(classic.traffic.is_none());
        assert!(!render_compare_table(std::slice::from_ref(&classic)).contains("### Traffic"));

        let routed = pair_delta("traffic-uniform-tree", 2);
        let t = routed.traffic.expect("both sides route a workload");
        assert!(t.delivered_fraction.0 > 0.0);
        let table = render_compare_table(std::slice::from_ref(&routed));
        assert!(table.contains("### Traffic"), "{table}");
        assert!(table.contains("| traffic-uniform | traffic-uniform-tree |"));
    }

    #[test]
    fn from_committed_names_the_missing_field() {
        let doc = Json::obj(vec![("scenario", Json::Str("x".into()))]);
        let err = PairDelta::from_committed(&doc, &doc, "").unwrap_err();
        assert!(err.contains("success_rate"), "{err}");
    }

    #[test]
    fn from_committed_refuses_a_pair_of_unequal_seed_counts() {
        let doc = |name: &str, seeds: u64| {
            Json::obj(vec![
                ("scenario", Json::Str(name.into())),
                ("seeds", Json::UInt(seeds)),
                ("success_rate", Json::Num(1.0)),
                ("mean_coverage", Json::Num(1.0)),
                ("mean_rounds", Json::Num(40.0)),
                ("mean_delivered", Json::Num(900.0)),
                ("total_retransmits", Json::UInt(0)),
            ])
        };
        let (base, twin) = (doc("x", 16), doc("x-reliable", 4));
        let err = PairDelta::from_committed(&base, &twin, "").unwrap_err();
        assert!(err.contains("x has 16 seeds but x-reliable has 4"), "{err}");
        let d = PairDelta::from_committed(&base, &doc("x-reliable", 16), "").unwrap();
        assert_eq!(d.seeds, 16);
    }

    #[test]
    fn compare_table_persists_under_the_given_dir() {
        let dir = std::env::temp_dir().join(format!("overlay-compare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = pair_delta("lossy-ncc0-reliable", 2);
        let path = write_compare_table(std::slice::from_ref(&d), &dir).expect("write");
        assert_eq!(path.file_name().unwrap(), "compare.md");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("# Baseline vs twin deltas"));
        assert!(body.contains("pair, 2 seeds each; see"));
        assert!(body.contains("lossy-ncc0-reliable"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
