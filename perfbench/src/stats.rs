//! Order statistics for every reported timing.

/// The highest percentile any run reports: p95.
pub const TOP_PERCENTILE: f64 = 95.0;

/// Samples that must lie beyond a reported percentile for it to mean
/// anything; a run is sized so that its top percentile has at least this
/// many samples above it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(
        n > 0 && p > 0.0 && p <= 100.0,
        "percentile {p} of {n} samples"
    );
    // The epsilon keeps exact products such as 0.95 * 200 from rounding up.
    (((p / 100.0) * n as f64) - 1e-9).ceil().max(1.0) as usize
}

/// Nearest-rank `p`-th percentile of `sorted`, which must be ascending and
/// non-empty. A failed operation is recorded as `f64::INFINITY`, so it
/// counts as missing every limit.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted"
    );
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The fewest samples for which the `p`-th percentile has at least
/// `beyond` samples above it.
pub fn min_samples(p: f64, beyond: usize) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= beyond)
        .expect("some sample count suffices")
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so the benchmark and an outside spread check agree.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn failures_miss_every_limit() {
        let mut v: Vec<f64> = (1..=19).map(f64::from).collect();
        v.push(f64::INFINITY);
        assert_eq!(percentile(&v, 95.0), 19.0);
        v.push(f64::INFINITY);
        v.sort_by(f64::total_cmp);
        assert!(percentile(&v, 95.0).is_infinite());
    }

    #[test]
    fn ten_samples_beyond_p95_needs_200() {
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(min_samples(95.0, MIN_BEYOND), 200);
        assert_eq!(min_samples(50.0, MIN_BEYOND), 20);
        assert_eq!(min_samples(TOP_PERCENTILE, 0), 1);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates beyond the data.
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
