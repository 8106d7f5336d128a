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
//! order) and bit-deterministic (`f32::total_cmp` order, fixed-order f64
//! accumulation). NaN coordinates sort to the extremes under `total_cmp`,
//! so trimming also sheds a minority of non-finite entries.
//!
//! The two order-statistic rules share one column sorter. It maps each
//! value to `total_cmp`'s integer key and sorts [`BLOCK`] coordinates at
//! once with a comparator network built for the cohort size, each
//! comparator a `min`/`max` over a block row that compiles to SIMD. The
//! sorted rows are exactly the per-coordinate `total_cmp` sort (keys tie
//! only for equal bits), and the kept rows are summed in ascending order
//! from `Sum`'s own start value, so the outputs are those of sorting each
//! column and calling `sum()`, bit for bit.

use crate::ClientUpdate;

fn check_shapes(updates: &[ClientUpdate]) -> usize {
    assert!(!updates.is_empty(), "cannot aggregate zero updates");
    let n = updates[0].delta.len();
    for u in updates {
        assert_eq!(u.delta.len(), n, "delta length mismatch");
    }
    n
}

/// Coordinates the column sorter handles at once: a comparator's
/// `min`/`max` runs over a row of this many keys.
const BLOCK: usize = 64;

/// `f32::total_cmp`'s key: ordering keys as `i32` orders floats as
/// `total_cmp` does (negatives get their magnitude bits flipped). The map
/// is its own inverse.
#[inline]
fn total_key(bits: i32) -> i32 {
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

#[inline]
fn key_value(key: i32) -> f32 {
    f32::from_bits(total_key(key) as u32)
}

/// Batcher's odd–even merge sort for `n` inputs, as `(lo, hi)` comparators
/// that leave the smaller value at `lo`. Built for the next power of two;
/// a comparator reaching past `n` would only ever meet `+inf` padding and
/// never swap, so it is dropped.
fn sorting_network(n: usize) -> Vec<(usize, usize)> {
    let size = n.next_power_of_two();
    let mut network = Vec::new();
    let mut p = 1;
    while p < size {
        let mut k = p;
        while k >= 1 {
            for j in (k % p..size - k).step_by(2 * k) {
                for i in 0..k.min(size - j - k) {
                    let (lo, hi) = (i + j, i + j + k);
                    if lo / (2 * p) == hi / (2 * p) && hi < n {
                        network.push((lo, hi));
                    }
                }
            }
            k /= 2;
        }
        p *= 2;
    }
    network
}

/// Sorts every coordinate's cohort values, [`BLOCK`] coordinates at a
/// time, handing `emit` each block's first coordinate and its rows of
/// [`total_key`]s: row `r` holds every coordinate's `r`-th smallest value.
/// In the last block, columns past the delta's end hold stale keys.
fn sorted_blocks(
    updates: &[ClientUpdate],
    dim: usize,
    mut emit: impl FnMut(usize, &[[i32; BLOCK]]),
) {
    let network = sorting_network(updates.len());
    let mut rows = vec![[0i32; BLOCK]; updates.len()];
    for start in (0..dim).step_by(BLOCK) {
        let end = dim.min(start + BLOCK);
        for (row, u) in rows.iter_mut().zip(updates) {
            for (key, &v) in row.iter_mut().zip(&u.delta[start..end]) {
                *key = total_key(v.to_bits() as i32);
            }
        }
        for &(lo, hi) in &network {
            let (low, high) = rows.split_at_mut(hi);
            for (a, b) in low[lo].iter_mut().zip(high[0].iter_mut()) {
                (*a, *b) = ((*a).min(*b), (*a).max(*b));
            }
        }
        emit(start, &rows);
    }
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
    let kept = (n - 2 * t) as f64;
    // `Sum`'s start value (`-0.0`, so an all-`-0.0` column keeps its sign).
    let zero: f64 = std::iter::empty::<f64>().sum();
    let mut out = vec![0.0f32; dim];
    sorted_blocks(updates, dim, |start, rows| {
        let mut sums = [zero; BLOCK];
        for row in &rows[t..n - t] {
            for (s, &key) in sums.iter_mut().zip(row) {
                *s += key_value(key) as f64;
            }
        }
        for (o, s) in out[start..].iter_mut().zip(&sums) {
            *o = (s / kept) as f32;
        }
    });
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
    let mut out = vec![0.0f32; dim];
    sorted_blocks(updates, dim, |start, rows| {
        let out = &mut out[start..];
        if n % 2 == 1 {
            for (o, &key) in out.iter_mut().zip(&rows[n / 2]) {
                *o = key_value(key);
            }
        } else {
            for ((o, &a), &b) in out.iter_mut().zip(&rows[n / 2 - 1]).zip(&rows[n / 2]) {
                *o = ((key_value(a) as f64 + key_value(b) as f64) / 2.0) as f32;
            }
        }
    });
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

    /// The per-coordinate `total_cmp` sort the block sorter replaced, kept
    /// as its oracle: `stat` sees each coordinate's sorted column.
    fn reference(updates: &[ClientUpdate], stat: impl Fn(&[f32]) -> f32) -> Vec<f32> {
        let mut column = vec![0.0f32; updates.len()];
        (0..updates[0].delta.len())
            .map(|j| {
                for (c, u) in column.iter_mut().zip(updates) {
                    *c = u.delta[j];
                }
                column.sort_unstable_by(f32::total_cmp);
                stat(&column)
            })
            .collect()
    }

    fn reference_trimmed_mean(updates: &[ClientUpdate], trim_ratio: f64) -> Vec<f32> {
        let n = updates.len();
        let t = ((trim_ratio * n as f64).floor() as usize).min((n - 1) / 2);
        reference(updates, |column| {
            let kept = &column[t..n - t];
            let sum: f64 = kept.iter().map(|&v| v as f64).sum();
            (sum / kept.len() as f64) as f32
        })
    }

    fn reference_median(updates: &[ClientUpdate]) -> Vec<f32> {
        let n = updates.len();
        reference(updates, |column| {
            if n % 2 == 1 {
                column[n / 2]
            } else {
                ((column[n / 2 - 1] as f64 + column[n / 2] as f64) / 2.0) as f32
            }
        })
    }

    /// Equal bits, except that a NaN computed by arithmetic need only be a
    /// NaN: Rust does not pin the payload of a NaN sum.
    fn assert_same(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            let same = if w.is_nan() {
                g.is_nan()
            } else {
                g.to_bits() == w.to_bits()
            };
            assert!(same, "{what} coordinate {j}: {g:?} vs {w:?}");
        }
    }

    /// A cohort of `n` deltas of length `dim` mixing normals, ties, ±0,
    /// ±inf, subnormals, NaNs of both signs, and all-`-0.0` columns.
    fn oracle_cohort(
        rng: &mut photon_tensor::SeedStream,
        n: usize,
        dim: usize,
    ) -> Vec<ClientUpdate> {
        let zero_columns: Vec<bool> = (0..dim).map(|_| rng.next_below(8) == 0).collect();
        (0..n)
            .map(|_| {
                let delta = zero_columns
                    .iter()
                    .map(|&zeros| match (zeros, rng.next_below(40)) {
                        (true, _) => -0.0,
                        (_, 0) => 0.0,
                        (_, 1) => -0.0,
                        (_, 2) => f32::INFINITY,
                        (_, 3) => f32::NEG_INFINITY,
                        (_, 4) => f32::from_bits(1 + rng.next_below(1 << 20) as u32),
                        (_, 5) => -f32::from_bits(1 + rng.next_below(1 << 20) as u32),
                        (_, 6) => f32::from_bits(0x7FC0_0000 | rng.next_below(1 << 20) as u32),
                        (_, 7) => f32::from_bits(0xFF80_0001 | rng.next_below(1 << 20) as u32),
                        (_, 8..=15) => [1.0, -1.0, 0.5][rng.next_below(3)],
                        _ => rng.next_normal(),
                    })
                    .collect();
                u(delta)
            })
            .collect()
    }

    #[test]
    fn block_sorter_matches_the_per_coordinate_sort_bit_for_bit() {
        let mut rng = photon_tensor::SeedStream::new(17);
        for n in 1..=33 {
            for dim in [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3] {
                let updates = oracle_cohort(&mut rng, n, dim);
                for trim in [0.0, 0.1, 0.2, 0.25, 0.4, 0.49] {
                    assert_same(
                        &trimmed_mean_aggregate(&updates, trim),
                        &reference_trimmed_mean(&updates, trim),
                        &format!("trimmed mean n={n} dim={dim} trim={trim}"),
                    );
                }
                let (got, want) = (median_aggregate(&updates), reference_median(&updates));
                if n % 2 == 1 {
                    // An odd median is one of the inputs: all bits, NaNs too.
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "median n={n} dim={dim}");
                } else {
                    assert_same(&got, &want, &format!("median n={n} dim={dim}"));
                }
            }
        }
    }

    #[test]
    fn sorting_network_sorts_every_zero_one_input() {
        // The 0-1 principle: a comparator network that sorts every 0-1
        // input sorts every input.
        for n in 1..=16 {
            let network = sorting_network(n);
            for mask in 0u32..1 << n {
                let mut v: Vec<u32> = (0..n).map(|i| mask >> i & 1).collect();
                for &(lo, hi) in &network {
                    assert!(lo < hi && hi < n);
                    if v[lo] > v[hi] {
                        v.swap(lo, hi);
                    }
                }
                assert!(v.is_sorted(), "n={n} input {mask:#b} -> {v:?}");
            }
        }
    }
}
