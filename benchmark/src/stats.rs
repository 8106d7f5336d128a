//! Order statistics used by the harness: medians, the "ten samples beyond"
//! percentile rule, and the quartile spread the acceptance procedure uses.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `pct` percent
/// of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice or `pct` outside `1..=100`.
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&pct), "percentile out of range");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), pct) - 1]
}

/// 1-based nearest rank of the `pct`th percentile among `n` samples.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).max(1)
}

/// The highest whole percentile (at least the median) that still has ten
/// samples beyond it among `n`: a tail percentile resting on fewer than ten
/// samples is one slow round, not a distribution. 100 samples support p90,
/// 250 support p96, fewer than 20 only the median.
pub fn tail_percentile(n: usize) -> u32 {
    (50..=99u32)
        .rev()
        .find(|&p| n >= rank(n, p) + 10)
        .unwrap_or(50)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)` (the
/// exclusive method) so the figure matches what the acceptance driver
/// computes. `None` with fewer than two samples or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        // Exclusive method: position k(n+1)/4, 1-based, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = median(&v);
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // The frozen round counts: 100 rounds carry p90, 250 carry p96.
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(250), 96);
        assert_eq!(tail_percentile(360), 97);
        // 99 samples leave only nine beyond p90.
        assert_eq!(tail_percentile(99), 89);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(5), 50);
        for n in 20..400 {
            let p = tail_percentile(n);
            assert!(n - rank(n, p) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(n - rank(n, p + 1) < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = quartile_spread(&[1.0, 2.0]).unwrap();
        assert!((s - 1.5 / 1.5).abs() < 1e-12);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        let s = quartile_spread(&[5.0, 1.0, 3.0]).unwrap();
        assert!((s - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }
}
