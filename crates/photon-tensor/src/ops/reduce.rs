/// Sum of all elements (f64 accumulator for stability).
pub fn sum(xs: &[f32]) -> f32 {
    xs.iter().map(|&v| v as f64).sum::<f64>() as f32
}

/// Arithmetic mean. Returns `0.0` for an empty slice.
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        sum(xs) / xs.len() as f32
    }
}

/// Independent f64 accumulators of [`dot`] and [`l2_norm`]: element `i`
/// lands in lane `i % LANES`, so the lanes' dependent add chains run side
/// by side and LLVM vectorises the loop, on every target, in plain code.
const LANES: usize = 8;

/// `Σ f(x_i, y_i)` in f64 over [`LANES`] accumulators, combined pairwise
/// in one fixed order: the same bits on every target and backend. The
/// accumulators start at `-0.0`, the identity of f64 addition, so an empty
/// or all-negative-zero sum keeps the serial sum's sign.
#[inline(always)]
fn lane_sum(a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f64) -> f64 {
    let mut acc = [-0.0f64; LANES];
    let (mut ca, mut cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    for (x, y) in (&mut ca).zip(&mut cb) {
        for j in 0..LANES {
            acc[j] += f(x[j], y[j]);
        }
    }
    for (j, (&x, &y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        acc[j] += f(x, y);
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Dot product, accumulated in f64 over independent lanes. NaN and
/// infinities propagate as in a serial sum.
///
/// # Panics
/// Panics if lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    lane_sum(a, b, |x, y| x as f64 * y as f64) as f32
}

/// Euclidean (L2) norm, accumulated in f64 over independent lanes. A NaN
/// entry gives NaN, an infinite one `+inf`.
pub fn l2_norm(xs: &[f32]) -> f32 {
    lane_sum(xs, xs, |x, _| x as f64 * x as f64).sqrt() as f32
}

/// Largest absolute value. Returns `0.0` for an empty slice.
pub fn max_abs(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// Index of the maximum element (first wins on ties).
///
/// # Panics
/// Panics if the slice is empty.
pub fn argmax(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate().skip(1) {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

/// Maximum element-wise absolute difference between two slices.
/// Useful for numerical comparisons in tests.
///
/// # Panics
/// Panics if lengths differ.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "max_abs_diff length mismatch");
    a.iter()
        .zip(b)
        .fold(0.0f32, |m, (&x, &y)| m.max((x - y).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedStream;

    /// The one-chain serial f64 sum the lanes replace: the reference.
    fn serial_sum(a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f64) -> f64 {
        a.iter().zip(b).map(|(&x, &y)| f(x, y)).sum()
    }

    fn dot_serial(a: &[f32], b: &[f32]) -> f32 {
        serial_sum(a, b, |x, y| x as f64 * y as f64) as f32
    }

    fn l2_norm_serial(xs: &[f32]) -> f32 {
        serial_sum(xs, xs, |x, _| x as f64 * x as f64).sqrt() as f32
    }

    /// The lanes' f64 sum is within 1e-12 of the serial one, relative to
    /// `Σ |f|` (a dot product may cancel to near zero), and their f32
    /// results are at most one rounding step apart.
    fn agrees(x: &[f32], y: &[f32], f: impl Fn(f32, f32) -> f64 + Copy) {
        let scale: f64 = x.iter().zip(y).map(|(&a, &b)| f(a, b).abs()).sum();
        let (lanes, serial) = (lane_sum(x, y, f), serial_sum(x, y, f));
        assert!(
            (lanes - serial).abs() <= 1e-12 * scale,
            "len {}: {lanes} vs serial {serial}",
            x.len()
        );
        let ulps = (lanes as f32).to_bits().abs_diff((serial as f32).to_bits());
        assert!(ulps <= 1, "len {}: {ulps} f32 steps apart", x.len());
    }

    #[test]
    fn lanes_match_the_serial_chain_at_every_length_and_offset() {
        let mut rng = SeedStream::new(11);
        let n = 1031 + 8;
        let a: Vec<f32> = (0..n).map(|_| rng.next_normal()).collect();
        let b: Vec<f32> = (0..n).map(|_| rng.next_normal()).collect();
        let ints_a: Vec<f32> = (0..n).map(|i| (i % 13) as f32 - 6.0).collect();
        let ints_b: Vec<f32> = (0..n).map(|i| (i % 7) as f32 - 3.0).collect();
        for len in 0..=1031 {
            for off in 0..8 {
                let (x, y) = (&a[off..off + len], &b[off..off + len]);
                agrees(x, y, |x, y| x as f64 * y as f64);
                agrees(x, x, |x, _| x as f64 * x as f64);
                // Small integers sum exactly in any order.
                let (x, y) = (&ints_a[off..off + len], &ints_b[off..off + len]);
                assert_eq!(dot(x, y), dot_serial(x, y), "len {len} off {off}");
                assert_eq!(l2_norm(x), l2_norm_serial(x), "len {len} off {off}");
            }
        }
    }

    #[test]
    fn nan_and_infinity_propagate_through_the_lanes() {
        for len in [1, 7, 8, 9, 64, 1031] {
            for at in [0, len / 2, len - 1] {
                let mut xs = vec![0.5f32; len];
                let ys = vec![2.0f32; len];
                xs[at] = f32::NAN;
                assert!(dot(&xs, &ys).is_nan(), "len {len} at {at}");
                assert!(dot(&ys, &xs).is_nan(), "len {len} at {at}");
                assert!(l2_norm(&xs).is_nan(), "len {len} at {at}");
                for inf in [f32::INFINITY, f32::NEG_INFINITY] {
                    xs[at] = inf;
                    assert_eq!(l2_norm(&xs), f32::INFINITY, "len {len} at {at}");
                    // inf × 0 is NaN, and NaN wins the sum.
                    let mut zs = ys.clone();
                    zs[at] = 0.0;
                    assert!(dot(&xs, &zs).is_nan(), "len {len} at {at}");
                }
            }
        }
    }

    #[test]
    fn reductions() {
        let xs = [1.0, -2.0, 3.0];
        assert_eq!(sum(&xs), 2.0);
        assert!((mean(&xs) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(max_abs(&xs), 3.0);
        assert_eq!(argmax(&xs), 2);
        assert!((l2_norm(&xs) - 14.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn dot_and_diff() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 1.0]), 1.0);
    }

    #[test]
    fn empty_slices() {
        assert_eq!(sum(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(max_abs(&[]), 0.0);
    }

    #[test]
    fn argmax_first_wins_on_tie() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
    }

    #[test]
    #[should_panic(expected = "argmax of empty")]
    fn argmax_empty_panics() {
        argmax(&[]);
    }
}
