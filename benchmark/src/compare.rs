//! `compare <a.json> <b.json>`: applies the end-to-end bounds to two ledgers,
//! one row per workload and metric. `a` is the base of every ratio. Run on two
//! ledgers of one commit it is the A/A check.

use crate::spec::{Better, EndToEnd, END_TO_END};
use overlay_networks::scenarios::Json;
use std::path::Path;

/// How one (workload, metric) pair moved from `a` to `b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Within,
    /// The spread between a ledger's own iterations (the quartile range of
    /// the samples behind a value) is wider than the bound: the run was
    /// disturbed, and a difference of the bound's size cannot be told from
    /// noise.
    Unresolved,
    Regressed,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// A metric as read back from a ledger.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Reading {
    fn spread(&self) -> f64 {
        ((self.q3 - self.q1) / self.value).abs()
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
fn worse_by(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Classifies one pair. `exact` asks simulated metrics to be equal: both
/// ledgers ran the same seed, so any difference is a change of behaviour.
pub fn judge(m: &EndToEnd, exact: bool, a: Reading, b: Reading) -> Verdict {
    let bound = m.bound;
    let worse = worse_by(m, a.value, b.value);
    if m.simulated && exact {
        return match worse {
            w if w > 0.0 => Verdict::Regressed,
            w if w < 0.0 => Verdict::Improved,
            _ => Verdict::Within,
        };
    }
    if a.spread().max(b.spread()) > bound {
        // Too noisy for the bound, unless the quartile ranges do not even
        // touch: then every typical reading of one side beats the other's.
        let (b_best, b_worst, a_best, a_worst) = match m.better {
            Better::Lower => (b.q1, b.q3, a.q1, a.q3),
            Better::Higher => (b.q3, b.q1, a.q3, a.q1),
        };
        return if worse_by(m, a_best, b_worst) < 0.0 {
            Verdict::Improved
        } else if worse > bound && worse_by(m, a_worst, b_best) > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

fn field<'a>(json: &'a Json, key: &str) -> Option<&'a Json> {
    match json {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(json: &Json) -> Option<f64> {
    match json {
        Json::Num(x) => Some(*x),
        Json::Int(x) => Some(*x as f64),
        Json::UInt(x) => Some(*x as f64),
        _ => None,
    }
}

fn reading(workload: &Json, metric: &str) -> Option<Reading> {
    let m = field(field(workload, "metrics")?, metric)?;
    let value = number(field(m, "value")?)?;
    let or_value = |key| field(m, key).and_then(number).unwrap_or(value);
    Some(Reading {
        value,
        q1: or_value("q1"),
        q3: or_value("q3"),
    })
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints one row per workload and metric; `Ok(false)` if any row regressed.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let seed = |l: &Json| field(l, "seed").and_then(number);
    let exact = seed(&a).is_some() && seed(&a) == seed(&b);
    let commit = |l: &Json| match field(l, "machine").and_then(|m| field(m, "git_commit")) {
        Some(Json::Str(c)) => c.clone(),
        _ => "unknown".into(),
    };
    println!("a = {} (commit {})", a_path.display(), commit(&a));
    println!("b = {} (commit {})", b_path.display(), commit(&b));
    println!(
        "every ratio is b / a; simulated metrics must be {}",
        if exact {
            "equal (same seed)"
        } else {
            "within their bound (seeds differ)"
        }
    );
    let Some(Json::Obj(a_rows)) = field(&a, "workloads") else {
        return Err(format!("{}: no workloads", a_path.display()));
    };
    let b_rows =
        field(&b, "workloads").ok_or_else(|| format!("{}: no workloads", b_path.display()))?;
    let mut tally = [0usize; 4];
    for (workload, a_row) in a_rows {
        let Some(b_row) = field(b_rows, workload) else {
            println!("{workload}: missing from b");
            continue;
        };
        println!("{workload}");
        for m in &END_TO_END {
            let (Some(ra), Some(rb)) = (reading(a_row, m.name), reading(b_row, m.name)) else {
                continue;
            };
            let verdict = judge(m, exact, ra, rb);
            tally[verdict as usize] += 1;
            println!(
                "  {:<18} {:<10} a {:>14.6} [{:.6} .. {:.6}]  b {:>14.6} [{:.6} .. {:.6}]  b/a {:.4}  bound {:.0}% {} is better",
                m.name,
                verdict.name(),
                ra.value,
                ra.q1,
                ra.q3,
                rb.value,
                rb.q1,
                rb.q3,
                rb.value / ra.value,
                m.bound * 100.0,
                m.better.name(),
            );
        }
        let failed = |row: &Json| field(row, "failed").and_then(number).unwrap_or(0.0);
        let attempted = |row: &Json| field(row, "attempted").and_then(number).unwrap_or(1.0);
        let (fa, fb) = (
            failed(a_row) / attempted(a_row),
            failed(b_row) / attempted(b_row),
        );
        let verdict = if fb > fa {
            Verdict::Regressed
        } else {
            Verdict::Within
        };
        tally[verdict as usize] += 1;
        println!(
            "  {:<18} {:<10} a {fa:.6} b {fb:.6} (failed / attempted; no increase allowed)",
            "failed_share",
            verdict.name()
        );
    }
    println!(
        "{} improved, {} within, {} unresolved, {} regressed",
        tally[Verdict::Improved as usize],
        tally[Verdict::Within as usize],
        tally[Verdict::Unresolved as usize],
        tally[Verdict::Regressed as usize]
    );
    Ok(tally[Verdict::Regressed as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::end_to_end;

    fn tight(value: f64) -> Reading {
        Reading {
            value,
            q1: value * 0.99,
            q3: value * 1.01,
        }
    }

    #[test]
    fn host_metrics_move_by_their_bound() {
        let wall = end_to_end("wall_s").unwrap();
        assert_eq!(judge(wall, true, tight(1.0), tight(1.05)), Verdict::Within);
        assert_eq!(
            judge(wall, true, tight(1.0), tight(1.4)),
            Verdict::Regressed
        );
        assert_eq!(judge(wall, true, tight(1.0), tight(0.6)), Verdict::Improved);
        let rate = end_to_end("msgs_per_s").unwrap();
        assert_eq!(
            judge(rate, true, tight(100.0), tight(60.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(rate, true, tight(100.0), tight(140.0)),
            Verdict::Improved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_ranges_part() {
        let wall = end_to_end("wall_s").unwrap();
        let noisy = |value: f64| Reading {
            value,
            q1: value * 0.8,
            q3: value * 1.2,
        };
        assert_eq!(
            judge(wall, true, noisy(1.0), noisy(1.05)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(wall, true, noisy(1.0), noisy(1.3)),
            Verdict::Unresolved
        );
        assert_eq!(judge(wall, true, noisy(1.0), noisy(0.5)), Verdict::Improved);
        assert_eq!(
            judge(wall, true, noisy(1.0), noisy(2.0)),
            Verdict::Regressed
        );
    }

    #[test]
    fn simulated_metrics_are_exact_for_one_seed() {
        let rounds = end_to_end("rounds_per_log2n").unwrap();
        let exactly = |value| Reading {
            value,
            q1: value,
            q3: value,
        };
        assert_eq!(
            judge(rounds, true, exactly(27.0), exactly(27.0)),
            Verdict::Within
        );
        assert_eq!(
            judge(rounds, true, exactly(27.0), exactly(27.1)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(rounds, true, exactly(27.0), exactly(26.0)),
            Verdict::Improved
        );
        // Across seeds the count may wander inside its bound.
        assert_eq!(
            judge(rounds, false, exactly(27.0), exactly(27.1)),
            Verdict::Within
        );
    }
}
