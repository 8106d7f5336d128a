//! Byzantine-robust aggregation rules: coordinate-wise trimmed mean,
//! coordinate-wise median, and median-norm clipping.
//!
//! Photon (§3.3–§4) assumes honest-but-unreliable clients; in the
//! open-internet setting of "The Future of LLM Pre-training is Federated"
//! a minority of cohort updates may be adversarial (NaN-poisoned,
//! sign-flipped, wildly rescaled). These rules bound the influence any
//! single update has on the aggregate:
//!
//! * **Trimmed mean** drops the `trim_ratio` fraction of extreme values on
//!   each side of every coordinate, so up to `floor(trim_ratio * n)`
//!   adversaries per side cannot move the output outside the inlier range.
//! * **Median** is the `trim_ratio → 0.5` limit: robust to any minority
//!   (`floor((n - 1) / 2)`) of adversaries.
//! * **Norm clipping** rescales every update whose L2 norm exceeds a
//!   multiple of the cohort's median norm before the weighted mean —
//!   cheap, and preserves the mean's variance reduction for honest
//!   cohorts.
//!
//! All three are permutation-invariant (order statistics ignore input
//! order) and bit-deterministic (`f32::total_cmp` sorts, fixed-order f64
//! accumulation). NaN coordinates sort to the extremes under `total_cmp`,
//! so trimming also sheds a minority of non-finite entries.

use crate::ClientUpdate;

fn check_shapes(updates: &[ClientUpdate]) -> usize {
    assert!(!updates.is_empty(), "cannot aggregate zero updates");
    let n = updates[0].delta.len();
    for u in updates {
        assert_eq!(u.delta.len(), n, "delta length mismatch");
    }
    n
}

/// Coordinate-wise trimmed mean of the cohort's pseudo-gradients.
///
/// Drops `floor(trim_ratio * n)` values from each end of every
/// coordinate's sorted value list and averages the rest. Weights are
/// ignored: order statistics are computed per update, uniformly.
///
/// # Panics
/// Panics if `updates` is empty, deltas have differing lengths, or
/// `trim_ratio` is outside `[0, 0.5)`.
pub fn trimmed_mean_aggregate(updates: &[ClientUpdate], trim_ratio: f64) -> Vec<f32> {
    assert!(
        (0.0..0.5).contains(&trim_ratio),
        "trim ratio must be in [0, 0.5)"
    );
    let dim = check_shapes(updates);
    let n = updates.len();
    let t = ((trim_ratio * n as f64).floor() as usize).min((n - 1) / 2);
    let mut column = vec![0.0f32; n];
    let mut out = vec![0.0f32; dim];
    for (j, o) in out.iter_mut().enumerate() {
        for (c, u) in column.iter_mut().zip(updates) {
            *c = u.delta[j];
        }
        column.sort_unstable_by(f32::total_cmp);
        let kept = &column[t..n - t];
        let sum: f64 = kept.iter().map(|&v| v as f64).sum();
        *o = (sum / kept.len() as f64) as f32;
    }
    out
}

/// Coordinate-wise median of the cohort's pseudo-gradients (even cohorts
/// average the two middle values). Weights are ignored.
///
/// # Panics
/// Panics if `updates` is empty or deltas have differing lengths.
pub fn median_aggregate(updates: &[ClientUpdate]) -> Vec<f32> {
    let dim = check_shapes(updates);
    let n = updates.len();
    let mut column = vec![0.0f32; n];
    let mut out = vec![0.0f32; dim];
    for (j, o) in out.iter_mut().enumerate() {
        for (c, u) in column.iter_mut().zip(updates) {
            *c = u.delta[j];
        }
        column.sort_unstable_by(f32::total_cmp);
        *o = if n % 2 == 1 {
            column[n / 2]
        } else {
            ((column[n / 2 - 1] as f64 + column[n / 2] as f64) / 2.0) as f32
        };
    }
    out
}

/// Median of a slice of f64 values, `total_cmp`-sorted; the slice is
/// reordered in place.
fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// L2 norm accumulated in f64 (bit-deterministic, overflow-resistant for
/// the magnitudes a scaling attack produces).
pub(crate) fn l2_norm_f64(delta: &[f32]) -> f64 {
    delta
        .iter()
        .map(|&v| (v as f64) * (v as f64))
        .sum::<f64>()
        .sqrt()
}

/// Weighted mean after clipping each update's L2 norm to
/// `max_norm_mult ×` the cohort's median norm. Non-finite norms are
/// excluded from the median; a zero or non-finite threshold disables
/// clipping (a degenerate cohort has nothing meaningful to clip against).
///
/// # Panics
/// Panics if `updates` is empty, deltas have differing lengths, or
/// `max_norm_mult` is not positive and finite.
pub(crate) fn norm_clipped_aggregate(updates: &[ClientUpdate], max_norm_mult: f64) -> Vec<f32> {
    assert!(
        max_norm_mult.is_finite() && max_norm_mult > 0.0,
        "norm-clip multiple must be positive"
    );
    check_shapes(updates);
    let norms: Vec<f64> = updates.iter().map(|u| l2_norm_f64(&u.delta)).collect();
    let mut finite: Vec<f64> = norms.iter().copied().filter(|n| n.is_finite()).collect();
    let threshold = if finite.is_empty() {
        0.0
    } else {
        max_norm_mult * median_f64(&mut finite)
    };
    if !(threshold.is_finite() && threshold > 0.0) {
        return crate::aggregate_deltas(updates);
    }
    let mut clipped: Vec<ClientUpdate> = updates
        .iter()
        .zip(&norms)
        .map(|(u, &norm)| {
            if norm > threshold {
                let scale = threshold / norm;
                ClientUpdate {
                    delta: u.delta.iter().map(|&v| (v as f64 * scale) as f32).collect(),
                    weight: u.weight,
                }
            } else {
                u.clone()
            }
        })
        .collect();
    // Canonical summation order: the weighted mean accumulates in f64, so
    // without a fixed order a permuted cohort could differ in the last
    // bit. Ties between identical updates are harmless.
    clipped.sort_unstable_by(|a, b| {
        a.weight
            .total_cmp(&b.weight)
            .then_with(|| cmp_deltas(&a.delta, &b.delta))
    });
    crate::aggregate_deltas(&clipped)
}

/// Lexicographic `total_cmp` over two equally sized deltas.
fn cmp_deltas(a: &[f32], b: &[f32]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let ord = x.total_cmp(y);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(delta: Vec<f32>) -> ClientUpdate {
        ClientUpdate::new(delta, 1.0).unwrap()
    }

    #[test]
    fn median_ignores_a_minority_outlier() {
        let updates = vec![u(vec![1.0, -1.0]), u(vec![1.2, -0.8]), u(vec![1e9, 1e9])];
        assert_eq!(median_aggregate(&updates), vec![1.2, -0.8]);
    }

    #[test]
    fn even_cohort_median_averages_the_middle() {
        let updates = vec![u(vec![1.0]), u(vec![2.0]), u(vec![3.0]), u(vec![100.0])];
        assert_eq!(median_aggregate(&updates), vec![2.5]);
    }

    #[test]
    fn trimmed_mean_sheds_extremes() {
        let updates = vec![
            u(vec![-1e9]),
            u(vec![1.0]),
            u(vec![2.0]),
            u(vec![3.0]),
            u(vec![1e9]),
        ];
        // trim 0.2 over n=5 drops one value per side.
        assert_eq!(trimmed_mean_aggregate(&updates, 0.2), vec![2.0]);
    }

    #[test]
    fn zero_trim_is_the_unweighted_mean() {
        let updates = vec![u(vec![1.0, 4.0]), u(vec![3.0, 0.0])];
        assert_eq!(trimmed_mean_aggregate(&updates, 0.0), vec![2.0, 2.0]);
    }

    #[test]
    fn trimmed_mean_sheds_a_minority_of_nans() {
        let updates = vec![u(vec![f32::NAN]), u(vec![1.0]), u(vec![2.0]), u(vec![3.0])];
        let agg = trimmed_mean_aggregate(&updates, 0.25);
        assert!(agg[0].is_finite());
        // NaN sorts above every finite value under total_cmp, so the top
        // trim slot absorbs it and the kept middle is [2, 3].
        assert_eq!(agg, vec![2.5]);
        let med = median_aggregate(&updates);
        assert!(med[0].is_finite());
    }

    #[test]
    fn norm_clipping_defangs_a_scaled_update() {
        let honest = vec![u(vec![1.0, 0.0]), u(vec![0.0, 1.0]), u(vec![1.0, 1.0])];
        let mut cohort = honest.clone();
        cohort.push(u(vec![1000.0, 1000.0]));
        let agg = norm_clipped_aggregate(&cohort, 2.0);
        // Median norm is ~1.2; the attacker is clipped to ~2.4 instead of
        // contributing a norm-1414 update, so the aggregate stays small.
        assert!(
            l2_norm_f64(&agg) < 2.0,
            "aggregate norm {}",
            l2_norm_f64(&agg)
        );
        // Honest-only clipping is a no-op: identical to the plain mean.
        assert_eq!(
            norm_clipped_aggregate(&honest, 2.0),
            crate::aggregate_deltas(&honest)
        );
    }

    #[test]
    fn zero_cohort_norms_disable_clipping() {
        let updates = vec![u(vec![0.0, 0.0]), u(vec![0.0, 0.0]), u(vec![1.0, 0.0])];
        let agg = norm_clipped_aggregate(&updates, 3.0);
        assert_eq!(agg, crate::aggregate_deltas(&updates));
    }

    #[test]
    fn robust_rules_are_permutation_invariant() {
        let updates = vec![
            u(vec![1.0, -2.0, 0.5]),
            u(vec![0.5, 3.0, -1.0]),
            u(vec![-9.0, 0.1, 4.0]),
            u(vec![2.0, 2.0, 2.0]),
        ];
        let mut reversed = updates.clone();
        reversed.reverse();
        assert_eq!(
            trimmed_mean_aggregate(&updates, 0.25),
            trimmed_mean_aggregate(&reversed, 0.25)
        );
        assert_eq!(median_aggregate(&updates), median_aggregate(&reversed));
        assert_eq!(
            norm_clipped_aggregate(&updates, 2.0),
            norm_clipped_aggregate(&reversed, 2.0)
        );
    }

    #[test]
    #[should_panic(expected = "trim ratio must be in")]
    fn half_trim_rejected() {
        trimmed_mean_aggregate(&[u(vec![1.0])], 0.5);
    }
}
