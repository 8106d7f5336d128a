/// In-place element-wise addition: `dst[i] += src[i]`.
///
/// # Panics
/// Panics if lengths differ.
pub fn add_inplace(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add_inplace length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// In-place scaling: `dst[i] *= alpha`.
pub fn scale(alpha: f32, dst: &mut [f32]) {
    for d in dst.iter_mut() {
        *d *= alpha;
    }
}

/// `dst[i] += alpha * src[i]` (BLAS `saxpy`).
///
/// # Panics
/// Panics if lengths differ.
pub fn axpy(alpha: f32, src: &[f32], dst: &mut [f32]) {
    assert_eq!(dst.len(), src.len(), "axpy length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d += alpha * s;
    }
}

/// Linear interpolation towards `src`: `dst = (1 - t) * dst + t * src`.
///
/// Used by momentum-style server optimizers.
///
/// # Panics
/// Panics if lengths differ.
pub fn lerp_inplace(dst: &mut [f32], src: &[f32], t: f32) {
    assert_eq!(dst.len(), src.len(), "lerp_inplace length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d += t * (s - *d);
    }
}

/// Clamps every element to `[-bound, bound]`.
///
/// # Panics
/// Panics if `bound` is negative or NaN.
pub fn clip_inplace(dst: &mut [f32], bound: f32) {
    assert!(bound >= 0.0, "clip bound must be non-negative");
    for d in dst.iter_mut() {
        *d = d.clamp(-bound, bound);
    }
}

/// Adds a bias row vector to every row of a `(rows, cols)` matrix.
///
/// # Panics
/// Panics if `mat.len() != rows * cols` or `bias.len() != cols`.
pub fn add_bias_rows(mat: &mut [f32], bias: &[f32], rows: usize, cols: usize) {
    assert_eq!(mat.len(), rows * cols, "add_bias_rows matrix size");
    assert_eq!(bias.len(), cols, "add_bias_rows bias size");
    for r in 0..rows {
        let row = &mut mat[r * cols..(r + 1) * cols];
        for (m, b) in row.iter_mut().zip(bias) {
            *m += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut d = vec![1.0, 2.0, 3.0];
        add_inplace(&mut d, &[1.0, 1.0, 1.0]);
        assert_eq!(d, vec![2.0, 3.0, 4.0]);
        scale(0.5, &mut d);
        assert_eq!(d, vec![1.0, 1.5, 2.0]);
        axpy(10.0, &[1.0, 0.0, 1.0], &mut d);
        assert_eq!(d, vec![11.0, 1.5, 12.0]);
    }

    #[test]
    fn lerp_endpoints() {
        let mut d = vec![0.0, 10.0];
        lerp_inplace(&mut d, &[10.0, 0.0], 0.0);
        assert_eq!(d, vec![0.0, 10.0]);
        lerp_inplace(&mut d, &[10.0, 0.0], 1.0);
        assert_eq!(d, vec![10.0, 0.0]);
        lerp_inplace(&mut d, &[0.0, 10.0], 0.5);
        assert_eq!(d, vec![5.0, 5.0]);
    }

    #[test]
    fn clip_bounds() {
        let mut d = vec![-5.0, -0.5, 0.5, 5.0];
        clip_inplace(&mut d, 1.0);
        assert_eq!(d, vec![-1.0, -0.5, 0.5, 1.0]);
    }

    #[test]
    fn bias_rows() {
        let mut m = vec![0.0; 6];
        add_bias_rows(&mut m, &[1.0, 2.0, 3.0], 2, 3);
        assert_eq!(m, vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut d = vec![0.0; 2];
        add_inplace(&mut d, &[0.0; 3]);
    }
}
