//! Order statistics used by every report.

/// Nearest-rank quantile of a **sorted** sample set: the smallest value
/// with at least `q` of the samples at or below it.  0 for an empty set.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts `samples` and returns its nearest-rank `q` quantile in
/// microseconds (samples are nanoseconds).
pub fn quantile_us(samples: &mut [u64], q: f64) -> f64 {
    samples.sort_unstable();
    quantile(samples, q) as f64 / 1e3
}

/// Median of a small set of timings (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the definition the benchmark contract judges run-to-run spread by.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let cut = |k: usize| {
        // Position k*(n+1)/4 on a 1-based axis, linearly interpolated
        // and clamped to the sample range.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Quartile distance as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantile_matches_the_definition() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.50), 50);
        assert_eq!(quantile(&s, 0.99), 99);
        assert_eq!(quantile(&s, 0.999), 100);
        assert_eq!(quantile(&s, 1.0), 100);
        assert_eq!(quantile(&s, 0.0), 1, "rank clamps to the first sample");
        assert_eq!(quantile(&[7], 0.5), 7);
        assert_eq!(quantile(&[], 0.5), 0);
        // Ten samples: p50 is the 5th, p99 the 10th.
        let t = [1, 2, 3, 4, 5, 6, 7, 8, 9, 100];
        assert_eq!(quantile(&t, 0.5), 5);
        assert_eq!(quantile(&t, 0.99), 100);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
