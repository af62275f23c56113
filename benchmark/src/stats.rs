//! Order statistics for small samples: best, median and quartiles. With fewer
//! than twenty samples no higher percentile is claimed.

/// The best of `values`: for times the smallest, for rates the largest.
///
/// A host time on a shared machine is the program's own cost plus whatever a
/// neighbour added, and a neighbour only ever adds: the fastest iteration of a
/// run is the one least disturbed. With a build hogging both cores for a third
/// of the time, twelve 20 s runs per workload spread (interquartile range over
/// median) by 29 to 56 % in their medians, 5 to 20 % in their lower deciles
/// and 3 to 7 % in their minima.
pub fn best(values: &[f64], lower_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "best of an empty sample");
    let pick = if lower_is_better { f64::min } else { f64::max };
    values.iter().copied().reduce(pick).expect("not empty")
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so the
/// spreads printed here are the ones the acceptance check computes. A single
/// sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_is_the_fastest_time_or_the_highest_rate() {
        assert_eq!(best(&[3.0, 1.0, 2.0], true), 1.0);
        assert_eq!(best(&[3.0, 1.0, 2.0], false), 3.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }
}
