#![allow(unsafe_code)] // `core::arch` intrinsics; every entry point re-checks CPU support.

//! SIMD microkernel backend: 8-wide f32 FMA register tiles via `core::arch`.
//!
//! On x86-64 the kernels require AVX2+FMA and are compiled with
//! `#[target_feature]`; the safe wrappers assert runtime support before
//! entering them, so constructing [`SimdBackend`] on an unsupported host
//! panics instead of executing illegal instructions. On aarch64 the GEMM
//! and vector primitives use NEON (baseline on AArch64); the
//! transcendental row kernels (GELU / softmax) delegate to the scalar
//! reference there. The `tt` GEMM layout is rare outside tests and always
//! delegates to the scalar kernel.
//!
//! Numerics: reductions are reassociated into 8-wide accumulator trees and
//! `exp` is a Cephes-style degree-6 polynomial (relative error ~1e-6), so
//! SIMD results are tolerance-equal — not bit-equal — to scalar. Within
//! this backend every kernel is a pure function of its inputs: replays are
//! bit-identical for a fixed backend.

use super::{scalar, Backend, ScalarBackend};
use crate::ops::Gemm;

const SCALAR_REF: ScalarBackend = ScalarBackend;

/// The SIMD backend (AVX2+FMA / NEON register-tiled kernels).
#[derive(Debug, Default, Clone, Copy)]
pub struct SimdBackend;

impl Backend for SimdBackend {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn gemm_nn(&self, spec: Gemm, a: &[f32], b: &[f32], c: &mut [f32]) {
        assert!(a.len() >= spec.m * spec.k, "gemm_nn: a too short");
        assert!(b.len() >= spec.k * spec.n, "gemm_nn: b too short");
        assert!(c.len() >= spec.m * spec.n, "gemm_nn: c too short");
        arch::gemm_nn(spec.m, spec.k, spec.n, spec.alpha, a, b, c);
    }

    fn gemm_nt(&self, spec: Gemm, a: &[f32], b: &[f32], c: &mut [f32]) {
        assert!(a.len() >= spec.m * spec.k, "gemm_nt: a too short");
        assert!(b.len() >= spec.k * spec.n, "gemm_nt: b too short");
        assert!(c.len() >= spec.m * spec.n, "gemm_nt: c too short");
        arch::gemm_nt(spec.m, spec.k, spec.n, spec.alpha, a, b, c);
    }

    fn gemm_tn(&self, spec: Gemm, a: &[f32], b: &[f32], c: &mut [f32]) {
        assert!(a.len() >= spec.m * spec.k, "gemm_tn: a too short");
        assert!(b.len() >= spec.k * spec.n, "gemm_tn: b too short");
        assert!(c.len() >= spec.m * spec.n, "gemm_tn: c too short");
        arch::gemm_tn(spec.m, spec.k, spec.n, spec.alpha, a, b, c);
    }

    fn gemm_tt_rows(
        &self,
        spec: Gemm,
        i0: usize,
        rows: usize,
        a: &[f32],
        b: &[f32],
        c_rows: &mut [f32],
    ) {
        // Doubly-strided access defeats the register tiles; this layout is
        // rare outside tests, so the reference kernel serves both backends.
        scalar::kernel_tt_rows(spec, i0, rows, a, b, c_rows);
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        arch::dot(a, b)
    }

    fn axpy(&self, alpha: f32, src: &[f32], dst: &mut [f32]) {
        assert_eq!(dst.len(), src.len(), "axpy length mismatch");
        arch::axpy(alpha, src, dst);
    }

    fn add(&self, out: &mut [f32], a: &[f32], b: &[f32]) {
        assert_eq!(out.len(), a.len(), "add length mismatch");
        assert_eq!(out.len(), b.len(), "add length mismatch");
        arch::add(out, a, b);
    }

    fn gelu(&self, out: &mut [f32], inp: &[f32]) {
        assert_eq!(out.len(), inp.len(), "gelu length mismatch");
        arch::gelu(out, inp);
    }

    fn gelu_grad(&self, dinp: &mut [f32], inp: &[f32], dout: &[f32]) {
        assert_eq!(dinp.len(), inp.len(), "gelu_grad length mismatch");
        assert_eq!(dinp.len(), dout.len(), "gelu_grad length mismatch");
        arch::gelu_grad(dinp, inp, dout);
    }

    fn layernorm_row(
        &self,
        out: &mut [f32],
        x: &[f32],
        weight: &[f32],
        bias: &[f32],
    ) -> (f32, f32) {
        let c = x.len();
        assert_eq!(out.len(), c, "layernorm_row length mismatch");
        assert_eq!(weight.len(), c, "layernorm_row length mismatch");
        assert_eq!(bias.len(), c, "layernorm_row length mismatch");
        arch::layernorm_row(out, x, weight, bias)
    }

    fn layernorm_grad_row(
        &self,
        dinp_row: &mut [f32],
        dweight: &mut [f32],
        dbias: &mut [f32],
        dout_row: &[f32],
        x: &[f32],
        weight: &[f32],
        mean: f32,
        rstd: f32,
    ) {
        let c = x.len();
        assert_eq!(dinp_row.len(), c, "layernorm_grad_row length mismatch");
        assert_eq!(dweight.len(), c, "layernorm_grad_row length mismatch");
        assert_eq!(dbias.len(), c, "layernorm_grad_row length mismatch");
        assert_eq!(dout_row.len(), c, "layernorm_grad_row length mismatch");
        assert_eq!(weight.len(), c, "layernorm_grad_row length mismatch");
        arch::layernorm_grad_row(dinp_row, dweight, dbias, dout_row, x, weight, mean, rstd);
    }

    fn softmax_row(&self, probs: &mut [f32], logits: &[f32]) {
        assert_eq!(probs.len(), logits.len(), "softmax_row length mismatch");
        arch::softmax_row(probs, logits);
    }
}

#[cfg(target_arch = "x86_64")]
mod arch {
    //! AVX2+FMA kernels. Every public wrapper asserts runtime CPU support
    //! before entering a `#[target_feature]` function, making the wrappers
    //! sound even if `SimdBackend` is constructed directly.

    use super::{Backend, SCALAR_REF};
    use core::arch::x86_64::*;

    fn require_simd() {
        assert!(
            crate::backend::simd_available(),
            "SIMD backend used on a host without AVX2+FMA"
        );
    }

    /// k-dimension block size (matches the scalar kernel's L2 blocking).
    const KC: usize = 256;

    pub(super) fn gemm_nn(
        m: usize,
        k: usize,
        n: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        require_simd();
        // SAFETY: AVX2+FMA verified above; slice bounds checked by caller.
        unsafe { gemm_nn_avx2(m, k, n, alpha, a, b, c) }
    }

    pub(super) fn gemm_tn(
        m: usize,
        k: usize,
        n: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        require_simd();
        // SAFETY: as above.
        unsafe { gemm_tn_avx2(m, k, n, alpha, a, b, c) }
    }

    pub(super) fn gemm_nt(
        m: usize,
        k: usize,
        n: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        require_simd();
        // SAFETY: as above.
        unsafe { gemm_nt_avx2(m, k, n, alpha, a, b, c) }
    }

    pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
        require_simd();
        // SAFETY: as above; equal lengths checked by caller.
        unsafe { dot_avx2(a, b) }
    }

    pub(super) fn axpy(alpha: f32, src: &[f32], dst: &mut [f32]) {
        require_simd();
        // SAFETY: as above.
        unsafe { axpy_avx2(alpha, src, dst) }
    }

    pub(super) fn add(out: &mut [f32], a: &[f32], b: &[f32]) {
        require_simd();
        // SAFETY: as above.
        unsafe { add_avx2(out, a, b) }
    }

    pub(super) fn gelu(out: &mut [f32], inp: &[f32]) {
        require_simd();
        // SAFETY: as above.
        unsafe { gelu_avx2(out, inp) }
    }

    pub(super) fn gelu_grad(dinp: &mut [f32], inp: &[f32], dout: &[f32]) {
        require_simd();
        // SAFETY: as above.
        unsafe { gelu_grad_avx2(dinp, inp, dout) }
    }

    pub(super) fn layernorm_row(out: &mut [f32], x: &[f32], w: &[f32], bias: &[f32]) -> (f32, f32) {
        require_simd();
        // SAFETY: as above.
        unsafe { layernorm_row_avx2(out, x, w, bias) }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn layernorm_grad_row(
        dinp: &mut [f32],
        dweight: &mut [f32],
        dbias: &mut [f32],
        dout: &[f32],
        x: &[f32],
        w: &[f32],
        mean: f32,
        rstd: f32,
    ) {
        require_simd();
        // SAFETY: as above.
        unsafe { layernorm_grad_row_avx2(dinp, dweight, dbias, dout, x, w, mean, rstd) }
    }

    pub(super) fn softmax_row(probs: &mut [f32], logits: &[f32]) {
        require_simd();
        // SAFETY: as above.
        unsafe { softmax_row_avx2(probs, logits) }
    }

    /// Horizontal sum of one 8-lane register.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    /// `C += alpha * A B`: 6x16 register tile (12 accumulators plus 2 B
    /// lanes plus 1 broadcast = 15 of 16 ymm), zero-initialized per k-block
    /// and merged into C with one FMA per lane so the inner loop is pure
    /// broadcast-load-FMA. Each output element keeps its own accumulator
    /// summed over `p` in order, so results are bit-identical regardless of
    /// tile shape.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_nn_avx2(
        m: usize,
        k: usize,
        n: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let alpha_v = _mm256_set1_ps(alpha);
        let mut p0 = 0usize;
        while p0 < k {
            let pe = (p0 + KC).min(k);
            let mut i = 0usize;
            while i + 6 <= m {
                let rows = [
                    i * k,
                    (i + 1) * k,
                    (i + 2) * k,
                    (i + 3) * k,
                    (i + 4) * k,
                    (i + 5) * k,
                ];
                let mut j = 0usize;
                while j + 16 <= n {
                    let mut acc = [[_mm256_setzero_ps(); 2]; 6];
                    for p in p0..pe {
                        let brow = bp.add(p * n + j);
                        let b0 = _mm256_loadu_ps(brow);
                        let b1 = _mm256_loadu_ps(brow.add(8));
                        for (accr, &row) in acc.iter_mut().zip(&rows) {
                            let s = _mm256_set1_ps(*ap.add(row + p));
                            accr[0] = _mm256_fmadd_ps(s, b0, accr[0]);
                            accr[1] = _mm256_fmadd_ps(s, b1, accr[1]);
                        }
                    }
                    for (r, accr) in acc.iter().enumerate() {
                        let crow = cp.add((i + r) * n + j);
                        let c0 = _mm256_loadu_ps(crow);
                        let c1 = _mm256_loadu_ps(crow.add(8));
                        _mm256_storeu_ps(crow, _mm256_fmadd_ps(alpha_v, accr[0], c0));
                        _mm256_storeu_ps(crow.add(8), _mm256_fmadd_ps(alpha_v, accr[1], c1));
                    }
                    j += 16;
                }
                while j + 8 <= n {
                    let mut acc = [_mm256_setzero_ps(); 6];
                    for p in p0..pe {
                        let b0 = _mm256_loadu_ps(bp.add(p * n + j));
                        for (accr, &row) in acc.iter_mut().zip(&rows) {
                            let s = _mm256_set1_ps(*ap.add(row + p));
                            *accr = _mm256_fmadd_ps(s, b0, *accr);
                        }
                    }
                    for (r, accr) in acc.iter().enumerate() {
                        let crow = cp.add((i + r) * n + j);
                        _mm256_storeu_ps(
                            crow,
                            _mm256_fmadd_ps(alpha_v, *accr, _mm256_loadu_ps(crow)),
                        );
                    }
                    j += 8;
                }
                while j < n {
                    for (r, &row) in rows.iter().enumerate() {
                        let mut s = 0.0f32;
                        for p in p0..pe {
                            s += *ap.add(row + p) * *bp.add(p * n + j);
                        }
                        *cp.add((i + r) * n + j) += alpha * s;
                    }
                    j += 1;
                }
                i += 6;
            }
            while i < m {
                let row = i * k;
                let mut j = 0usize;
                while j + 8 <= n {
                    let mut acc = _mm256_setzero_ps();
                    for p in p0..pe {
                        let s = _mm256_set1_ps(*ap.add(row + p));
                        acc = _mm256_fmadd_ps(s, _mm256_loadu_ps(bp.add(p * n + j)), acc);
                    }
                    let crow = cp.add(i * n + j);
                    _mm256_storeu_ps(crow, _mm256_fmadd_ps(alpha_v, acc, _mm256_loadu_ps(crow)));
                    j += 8;
                }
                while j < n {
                    let mut s = 0.0f32;
                    for p in p0..pe {
                        s += *ap.add(row + p) * *bp.add(p * n + j);
                    }
                    *cp.add(i * n + j) += alpha * s;
                    j += 1;
                }
                i += 1;
            }
            p0 = pe;
        }
    }

    /// `C += alpha * A^T B` with physical `A: (k, m)`: identical tile
    /// structure to `gemm_nn_avx2`, with the row scalars gathered from the
    /// transposed layout (`a[p*m + i + r]` — six contiguous loads).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_tn_avx2(
        m: usize,
        k: usize,
        n: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let alpha_v = _mm256_set1_ps(alpha);
        let mut p0 = 0usize;
        while p0 < k {
            let pe = (p0 + KC).min(k);
            let mut i = 0usize;
            while i + 6 <= m {
                let mut j = 0usize;
                while j + 16 <= n {
                    let mut acc = [[_mm256_setzero_ps(); 2]; 6];
                    for p in p0..pe {
                        let brow = bp.add(p * n + j);
                        let b0 = _mm256_loadu_ps(brow);
                        let b1 = _mm256_loadu_ps(brow.add(8));
                        let arow = ap.add(p * m + i);
                        for (r, accr) in acc.iter_mut().enumerate() {
                            let s = _mm256_set1_ps(*arow.add(r));
                            accr[0] = _mm256_fmadd_ps(s, b0, accr[0]);
                            accr[1] = _mm256_fmadd_ps(s, b1, accr[1]);
                        }
                    }
                    for (r, accr) in acc.iter().enumerate() {
                        let crow = cp.add((i + r) * n + j);
                        let c0 = _mm256_loadu_ps(crow);
                        let c1 = _mm256_loadu_ps(crow.add(8));
                        _mm256_storeu_ps(crow, _mm256_fmadd_ps(alpha_v, accr[0], c0));
                        _mm256_storeu_ps(crow.add(8), _mm256_fmadd_ps(alpha_v, accr[1], c1));
                    }
                    j += 16;
                }
                while j + 8 <= n {
                    let mut acc = [_mm256_setzero_ps(); 6];
                    for p in p0..pe {
                        let b0 = _mm256_loadu_ps(bp.add(p * n + j));
                        let arow = ap.add(p * m + i);
                        for (r, accr) in acc.iter_mut().enumerate() {
                            let s = _mm256_set1_ps(*arow.add(r));
                            *accr = _mm256_fmadd_ps(s, b0, *accr);
                        }
                    }
                    for (r, accr) in acc.iter().enumerate() {
                        let crow = cp.add((i + r) * n + j);
                        _mm256_storeu_ps(
                            crow,
                            _mm256_fmadd_ps(alpha_v, *accr, _mm256_loadu_ps(crow)),
                        );
                    }
                    j += 8;
                }
                while j < n {
                    for r in 0..6 {
                        let mut s = 0.0f32;
                        for p in p0..pe {
                            s += *ap.add(p * m + i + r) * *bp.add(p * n + j);
                        }
                        *cp.add((i + r) * n + j) += alpha * s;
                    }
                    j += 1;
                }
                i += 6;
            }
            while i < m {
                let mut j = 0usize;
                while j + 8 <= n {
                    let mut acc = _mm256_setzero_ps();
                    for p in p0..pe {
                        let s = _mm256_set1_ps(*ap.add(p * m + i));
                        acc = _mm256_fmadd_ps(s, _mm256_loadu_ps(bp.add(p * n + j)), acc);
                    }
                    let crow = cp.add(i * n + j);
                    _mm256_storeu_ps(crow, _mm256_fmadd_ps(alpha_v, acc, _mm256_loadu_ps(crow)));
                    j += 8;
                }
                while j < n {
                    let mut s = 0.0f32;
                    for p in p0..pe {
                        s += *ap.add(p * m + i) * *bp.add(p * n + j);
                    }
                    *cp.add(i * n + j) += alpha * s;
                    j += 1;
                }
                i += 1;
            }
            p0 = pe;
        }
    }

    /// `C += alpha * A B^T`: every output is a dot of two contiguous rows.
    /// Large problems are repacked to `gemm_nn` upstream; this serves the
    /// small/unpacked cases.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_nt_avx2(
        m: usize,
        k: usize,
        n: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                *c.get_unchecked_mut(i * n + j) += alpha * dot_avx2(a_row, b_row);
            }
        }
    }

    /// Four-chain 8-wide dot product with a scalar tail.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        let len = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 32 <= len {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 8)),
                _mm256_loadu_ps(bp.add(i + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 16)),
                _mm256_loadu_ps(bp.add(i + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 24)),
                _mm256_loadu_ps(bp.add(i + 24)),
                acc3,
            );
            i += 32;
        }
        while i + 8 <= len {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            i += 8;
        }
        let mut sum = hsum(_mm256_add_ps(
            _mm256_add_ps(acc0, acc1),
            _mm256_add_ps(acc2, acc3),
        ));
        while i < len {
            sum += *ap.add(i) * *bp.add(i);
            i += 1;
        }
        sum
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn axpy_avx2(alpha: f32, src: &[f32], dst: &mut [f32]) {
        let len = dst.len();
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let av = _mm256_set1_ps(alpha);
        let mut i = 0usize;
        while i + 16 <= len {
            let d0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(sp.add(i)), _mm256_loadu_ps(dp.add(i)));
            let d1 = _mm256_fmadd_ps(
                av,
                _mm256_loadu_ps(sp.add(i + 8)),
                _mm256_loadu_ps(dp.add(i + 8)),
            );
            _mm256_storeu_ps(dp.add(i), d0);
            _mm256_storeu_ps(dp.add(i + 8), d1);
            i += 16;
        }
        while i + 8 <= len {
            let d0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(sp.add(i)), _mm256_loadu_ps(dp.add(i)));
            _mm256_storeu_ps(dp.add(i), d0);
            i += 8;
        }
        while i < len {
            *dp.add(i) += alpha * *sp.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn add_avx2(out: &mut [f32], a: &[f32], b: &[f32]) {
        let len = out.len();
        let op = out.as_mut_ptr();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut i = 0usize;
        while i + 8 <= len {
            _mm256_storeu_ps(
                op.add(i),
                _mm256_add_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i))),
            );
            i += 8;
        }
        while i < len {
            *op.add(i) = *ap.add(i) + *bp.add(i);
            i += 1;
        }
    }

    /// Vector `exp` (Cephes `expf` polynomial): clamp, split `x = n ln2 + r`,
    /// evaluate a degree-6 polynomial on `r`, scale by `2^n` via exponent
    /// bits. Relative error ~1e-6 on the clamped domain.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn exp_avx2(x: __m256) -> __m256 {
        let x = _mm256_min_ps(x, _mm256_set1_ps(88.376_26));
        let x = _mm256_max_ps(x, _mm256_set1_ps(-87.336_54));
        let n = _mm256_round_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::LOG2_E)),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC,
        );
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693_359_4), x);
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.121_944_4e-4), r);
        let mut y = _mm256_set1_ps(1.987_569_1e-4);
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.398_199_9e-3));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(8.333_452e-3));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(4.166_579_6e-2));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.666_666_5e-1));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(0.5));
        let y = _mm256_fmadd_ps(
            y,
            _mm256_mul_ps(r, r),
            _mm256_add_ps(r, _mm256_set1_ps(1.0)),
        );
        let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(n),
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(y, pow2)
    }

    /// `tanh(t) = 1 - 2 / (exp(2t) + 1)`, saturating correctly for |t| large
    /// because `exp_avx2` clamps.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tanh_avx2(t: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let e = exp_avx2(_mm256_add_ps(t, t));
        _mm256_sub_ps(
            one,
            _mm256_div_ps(_mm256_set1_ps(2.0), _mm256_add_ps(e, one)),
        )
    }

    const GELU_CUBE: f32 = 0.044715;

    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gelu_avx2(out: &mut [f32], inp: &[f32]) {
        let len = out.len();
        let op = out.as_mut_ptr();
        let ip = inp.as_ptr();
        let s_v = _mm256_set1_ps(super::scalar::GELU_S);
        let cube_v = _mm256_set1_ps(GELU_CUBE);
        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
        let mut i = 0usize;
        while i + 8 <= len {
            let x = _mm256_loadu_ps(ip.add(i));
            let x2 = _mm256_mul_ps(x, x);
            // t = S * (x + 0.044715 x^3)
            let inner = _mm256_fmadd_ps(_mm256_mul_ps(cube_v, x2), x, x);
            let th = tanh_avx2(_mm256_mul_ps(s_v, inner));
            let y = _mm256_mul_ps(_mm256_mul_ps(half, x), _mm256_add_ps(one, th));
            _mm256_storeu_ps(op.add(i), y);
            i += 8;
        }
        if i < len {
            SCALAR_REF.gelu(&mut out[i..], &inp[i..]);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gelu_grad_avx2(dinp: &mut [f32], inp: &[f32], dout: &[f32]) {
        let len = dinp.len();
        let dp = dinp.as_mut_ptr();
        let ip = inp.as_ptr();
        let yp = dout.as_ptr();
        let s_v = _mm256_set1_ps(super::scalar::GELU_S);
        let cube_v = _mm256_set1_ps(GELU_CUBE);
        let three_cube = _mm256_set1_ps(3.0 * GELU_CUBE);
        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
        let mut i = 0usize;
        while i + 8 <= len {
            let x = _mm256_loadu_ps(ip.add(i));
            let dy = _mm256_loadu_ps(yp.add(i));
            let x2 = _mm256_mul_ps(x, x);
            let inner = _mm256_fmadd_ps(_mm256_mul_ps(cube_v, x2), x, x);
            let th = tanh_avx2(_mm256_mul_ps(s_v, inner));
            let sech2 = _mm256_fnmadd_ps(th, th, one);
            // local = 0.5 (1 + th) + x * 0.5 * sech2 * S * (1 + 3*0.044715 x^2)
            let poly = _mm256_fmadd_ps(three_cube, x2, one);
            let slope = _mm256_mul_ps(
                _mm256_mul_ps(_mm256_mul_ps(x, half), _mm256_mul_ps(sech2, s_v)),
                poly,
            );
            let local = _mm256_fmadd_ps(half, _mm256_add_ps(one, th), slope);
            let d = _mm256_fmadd_ps(local, dy, _mm256_loadu_ps(dp.add(i)));
            _mm256_storeu_ps(dp.add(i), d);
            i += 8;
        }
        if i < len {
            SCALAR_REF.gelu_grad(&mut dinp[i..], &inp[i..], &dout[i..]);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn layernorm_row_avx2(
        out: &mut [f32],
        x: &[f32],
        w: &[f32],
        bias: &[f32],
    ) -> (f32, f32) {
        let c = x.len();
        let xp = x.as_ptr();
        let mut sum_v = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= c {
            sum_v = _mm256_add_ps(sum_v, _mm256_loadu_ps(xp.add(i)));
            i += 8;
        }
        let mut sum = hsum(sum_v);
        while i < c {
            sum += *xp.add(i);
            i += 1;
        }
        let mean = sum / c as f32;

        let mean_v = _mm256_set1_ps(mean);
        let mut var_v = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= c {
            let d = _mm256_sub_ps(_mm256_loadu_ps(xp.add(i)), mean_v);
            var_v = _mm256_fmadd_ps(d, d, var_v);
            i += 8;
        }
        let mut var = hsum(var_v);
        while i < c {
            let d = *xp.add(i) - mean;
            var += d * d;
            i += 1;
        }
        let var = var / c as f32;
        let rstd = 1.0 / (var + super::scalar::LN_EPS).sqrt();

        let rstd_v = _mm256_set1_ps(rstd);
        let op = out.as_mut_ptr();
        let wp = w.as_ptr();
        let bp = bias.as_ptr();
        let mut i = 0usize;
        while i + 8 <= c {
            let norm = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(xp.add(i)), mean_v), rstd_v);
            let y = _mm256_fmadd_ps(norm, _mm256_loadu_ps(wp.add(i)), _mm256_loadu_ps(bp.add(i)));
            _mm256_storeu_ps(op.add(i), y);
            i += 8;
        }
        while i < c {
            *op.add(i) = (*xp.add(i) - mean) * rstd * *wp.add(i) + *bp.add(i);
            i += 1;
        }
        (mean, rstd)
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn layernorm_grad_row_avx2(
        dinp: &mut [f32],
        dweight: &mut [f32],
        dbias: &mut [f32],
        dout: &[f32],
        x: &[f32],
        w: &[f32],
        mean: f32,
        rstd: f32,
    ) {
        let c = x.len();
        let xp = x.as_ptr();
        let yp = dout.as_ptr();
        let wp = w.as_ptr();
        let mean_v = _mm256_set1_ps(mean);
        let rstd_v = _mm256_set1_ps(rstd);

        let mut dm_v = _mm256_setzero_ps();
        let mut dnm_v = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= c {
            let norm = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(xp.add(i)), mean_v), rstd_v);
            let dnorm = _mm256_mul_ps(_mm256_loadu_ps(wp.add(i)), _mm256_loadu_ps(yp.add(i)));
            dm_v = _mm256_add_ps(dm_v, dnorm);
            dnm_v = _mm256_fmadd_ps(dnorm, norm, dnm_v);
            i += 8;
        }
        let mut dnorm_mean = hsum(dm_v);
        let mut dnorm_norm_mean = hsum(dnm_v);
        while i < c {
            let norm = (*xp.add(i) - mean) * rstd;
            let dnorm = *wp.add(i) * *yp.add(i);
            dnorm_mean += dnorm;
            dnorm_norm_mean += dnorm * norm;
            i += 1;
        }
        dnorm_mean /= c as f32;
        dnorm_norm_mean /= c as f32;

        let dm = _mm256_set1_ps(dnorm_mean);
        let dnm = _mm256_set1_ps(dnorm_norm_mean);
        let dip = dinp.as_mut_ptr();
        let dwp = dweight.as_mut_ptr();
        let dbp = dbias.as_mut_ptr();
        let mut i = 0usize;
        while i + 8 <= c {
            let dy = _mm256_loadu_ps(yp.add(i));
            let norm = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(xp.add(i)), mean_v), rstd_v);
            let dnorm = _mm256_mul_ps(_mm256_loadu_ps(wp.add(i)), dy);
            _mm256_storeu_ps(dbp.add(i), _mm256_add_ps(_mm256_loadu_ps(dbp.add(i)), dy));
            _mm256_storeu_ps(
                dwp.add(i),
                _mm256_fmadd_ps(norm, dy, _mm256_loadu_ps(dwp.add(i))),
            );
            let di = _mm256_fnmadd_ps(norm, dnm, _mm256_sub_ps(dnorm, dm));
            _mm256_storeu_ps(
                dip.add(i),
                _mm256_fmadd_ps(di, rstd_v, _mm256_loadu_ps(dip.add(i))),
            );
            i += 8;
        }
        while i < c {
            let norm = (*xp.add(i) - mean) * rstd;
            let dnorm = *wp.add(i) * *yp.add(i);
            *dbp.add(i) += *yp.add(i);
            *dwp.add(i) += norm * *yp.add(i);
            *dip.add(i) += (dnorm - dnorm_mean - norm * dnorm_norm_mean) * rstd;
            i += 1;
        }
    }

    /// Softmax over one row. The last `len % 8` elements go through the
    /// same vector max / `exp` / sum as the full lanes, loaded and stored
    /// under a lane mask (dead lanes read as `-inf` for the max and add `0`
    /// to the sum): attention calls this on every causal prefix length, so a
    /// scalar libm tail would cost more than the vector body.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn softmax_row_avx2(probs: &mut [f32], logits: &[f32]) {
        let v = logits.len();
        let lp = logits.as_ptr();
        let pp = probs.as_mut_ptr();
        let body = v - v % 8;
        // All-ones in the lanes the tail occupies.
        let tail = _mm256_cmpgt_epi32(
            _mm256_set1_epi32((v % 8) as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let tail_ps = _mm256_castsi256_ps(tail);

        // SAFETY (both masked accesses below): a masked-off lane is neither
        // read nor written, and the live lanes are `body..v`, in bounds of
        // both slices (equal lengths checked by the caller).
        let mut max_v = _mm256_blendv_ps(
            _mm256_set1_ps(f32::NEG_INFINITY),
            _mm256_maskload_ps(lp.add(body), tail),
            tail_ps,
        );
        let mut i = 0usize;
        while i < body {
            max_v = _mm256_max_ps(max_v, _mm256_loadu_ps(lp.add(i)));
            i += 8;
        }
        // Horizontal max.
        let lo = _mm256_castps256_ps128(max_v);
        let hi = _mm256_extractf128_ps(max_v, 1);
        let s = _mm_max_ps(lo, hi);
        let s = _mm_max_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
        let max_b = _mm256_set1_ps(_mm_cvtss_f32(s));

        let mut sum_v = _mm256_setzero_ps();
        let mut i = 0usize;
        while i < body {
            let e = exp_avx2(_mm256_sub_ps(_mm256_loadu_ps(lp.add(i)), max_b));
            _mm256_storeu_ps(pp.add(i), e);
            sum_v = _mm256_add_ps(sum_v, e);
            i += 8;
        }
        let e = exp_avx2(_mm256_sub_ps(_mm256_maskload_ps(lp.add(body), tail), max_b));
        _mm256_maskstore_ps(pp.add(body), tail, e);
        sum_v = _mm256_add_ps(sum_v, _mm256_and_ps(e, tail_ps));

        let inv = 1.0 / hsum(sum_v);
        let inv_v = _mm256_set1_ps(inv);
        let mut i = 0usize;
        while i < body {
            _mm256_storeu_ps(pp.add(i), _mm256_mul_ps(_mm256_loadu_ps(pp.add(i)), inv_v));
            i += 8;
        }
        while i < v {
            *pp.add(i) *= inv;
            i += 1;
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    //! NEON kernels (baseline on AArch64, so no runtime detection needed).
    //! GEMM and the vector primitives are vectorized; the transcendental
    //! row kernels delegate to the scalar reference — on aarch64 the SIMD
    //! backend's win is the matmul path.

    use super::{Backend, SCALAR_REF};
    use core::arch::aarch64::*;

    const KC: usize = 256;

    pub(super) fn gemm_nn(
        m: usize,
        k: usize,
        n: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        // SAFETY: NEON is mandatory on aarch64; bounds checked by caller.
        unsafe { gemm_nn_neon(m, k, n, alpha, a, b, c) }
    }

    pub(super) fn gemm_tn(
        m: usize,
        k: usize,
        n: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        // SAFETY: as above.
        unsafe { gemm_tn_neon(m, k, n, alpha, a, b, c) }
    }

    pub(super) fn gemm_nt(
        m: usize,
        k: usize,
        n: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n..(i + 1) * n];
            for (j, cv) in c_row.iter_mut().enumerate() {
                *cv += alpha * dot(a_row, &b[j * k..(j + 1) * k]);
            }
        }
    }

    pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: NEON is baseline; equal lengths checked by caller.
        unsafe { dot_neon(a, b) }
    }

    pub(super) fn axpy(alpha: f32, src: &[f32], dst: &mut [f32]) {
        // SAFETY: as above.
        unsafe { axpy_neon(alpha, src, dst) }
    }

    pub(super) fn add(out: &mut [f32], a: &[f32], b: &[f32]) {
        // SAFETY: as above.
        unsafe { add_neon(out, a, b) }
    }

    pub(super) fn gelu(out: &mut [f32], inp: &[f32]) {
        SCALAR_REF.gelu(out, inp);
    }

    pub(super) fn gelu_grad(dinp: &mut [f32], inp: &[f32], dout: &[f32]) {
        SCALAR_REF.gelu_grad(dinp, inp, dout);
    }

    pub(super) fn layernorm_row(out: &mut [f32], x: &[f32], w: &[f32], bias: &[f32]) -> (f32, f32) {
        SCALAR_REF.layernorm_row(out, x, w, bias)
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn layernorm_grad_row(
        dinp: &mut [f32],
        dweight: &mut [f32],
        dbias: &mut [f32],
        dout: &[f32],
        x: &[f32],
        w: &[f32],
        mean: f32,
        rstd: f32,
    ) {
        SCALAR_REF.layernorm_grad_row(dinp, dweight, dbias, dout, x, w, mean, rstd);
    }

    pub(super) fn softmax_row(probs: &mut [f32], logits: &[f32]) {
        SCALAR_REF.softmax_row(probs, logits);
    }

    /// `C += alpha * A B`: 4x8 register tile of 4-lane accumulators,
    /// zero-initialized per k-block and merged with one FMA per lane.
    unsafe fn gemm_nn_neon(
        m: usize,
        k: usize,
        n: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let alpha_v = vdupq_n_f32(alpha);
        let mut p0 = 0usize;
        while p0 < k {
            let pe = (p0 + KC).min(k);
            let mut i = 0usize;
            while i + 4 <= m {
                let rows = [i * k, (i + 1) * k, (i + 2) * k, (i + 3) * k];
                let mut j = 0usize;
                while j + 8 <= n {
                    let mut acc = [[vdupq_n_f32(0.0); 2]; 4];
                    for p in p0..pe {
                        let brow = bp.add(p * n + j);
                        let b0 = vld1q_f32(brow);
                        let b1 = vld1q_f32(brow.add(4));
                        for (accr, &row) in acc.iter_mut().zip(&rows) {
                            let s = vdupq_n_f32(*ap.add(row + p));
                            accr[0] = vfmaq_f32(accr[0], s, b0);
                            accr[1] = vfmaq_f32(accr[1], s, b1);
                        }
                    }
                    for (r, accr) in acc.iter().enumerate() {
                        let crow = cp.add((i + r) * n + j);
                        vst1q_f32(crow, vfmaq_f32(vld1q_f32(crow), alpha_v, accr[0]));
                        vst1q_f32(
                            crow.add(4),
                            vfmaq_f32(vld1q_f32(crow.add(4)), alpha_v, accr[1]),
                        );
                    }
                    j += 8;
                }
                while j < n {
                    for (r, &row) in rows.iter().enumerate() {
                        let mut s = 0.0f32;
                        for p in p0..pe {
                            s += *ap.add(row + p) * *bp.add(p * n + j);
                        }
                        *cp.add((i + r) * n + j) += alpha * s;
                    }
                    j += 1;
                }
                i += 4;
            }
            while i < m {
                let row = i * k;
                let mut j = 0usize;
                while j + 4 <= n {
                    let mut acc = vdupq_n_f32(0.0);
                    for p in p0..pe {
                        acc = vfmaq_f32(
                            acc,
                            vdupq_n_f32(*ap.add(row + p)),
                            vld1q_f32(bp.add(p * n + j)),
                        );
                    }
                    let crow = cp.add(i * n + j);
                    vst1q_f32(crow, vfmaq_f32(vld1q_f32(crow), alpha_v, acc));
                    j += 4;
                }
                while j < n {
                    let mut s = 0.0f32;
                    for p in p0..pe {
                        s += *ap.add(row + p) * *bp.add(p * n + j);
                    }
                    *cp.add(i * n + j) += alpha * s;
                    j += 1;
                }
                i += 1;
            }
            p0 = pe;
        }
    }

    /// `C += alpha * A^T B` with physical `A: (k, m)`.
    unsafe fn gemm_tn_neon(
        m: usize,
        k: usize,
        n: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let alpha_v = vdupq_n_f32(alpha);
        let mut p0 = 0usize;
        while p0 < k {
            let pe = (p0 + KC).min(k);
            let mut i = 0usize;
            while i + 4 <= m {
                let mut j = 0usize;
                while j + 8 <= n {
                    let mut acc = [[vdupq_n_f32(0.0); 2]; 4];
                    for p in p0..pe {
                        let brow = bp.add(p * n + j);
                        let b0 = vld1q_f32(brow);
                        let b1 = vld1q_f32(brow.add(4));
                        let arow = ap.add(p * m + i);
                        for (r, accr) in acc.iter_mut().enumerate() {
                            let s = vdupq_n_f32(*arow.add(r));
                            accr[0] = vfmaq_f32(accr[0], s, b0);
                            accr[1] = vfmaq_f32(accr[1], s, b1);
                        }
                    }
                    for (r, accr) in acc.iter().enumerate() {
                        let crow = cp.add((i + r) * n + j);
                        vst1q_f32(crow, vfmaq_f32(vld1q_f32(crow), alpha_v, accr[0]));
                        vst1q_f32(
                            crow.add(4),
                            vfmaq_f32(vld1q_f32(crow.add(4)), alpha_v, accr[1]),
                        );
                    }
                    j += 8;
                }
                while j < n {
                    for r in 0..4 {
                        let mut s = 0.0f32;
                        for p in p0..pe {
                            s += *ap.add(p * m + i + r) * *bp.add(p * n + j);
                        }
                        *cp.add((i + r) * n + j) += alpha * s;
                    }
                    j += 1;
                }
                i += 4;
            }
            while i < m {
                let mut j = 0usize;
                while j + 4 <= n {
                    let mut acc = vdupq_n_f32(0.0);
                    for p in p0..pe {
                        acc = vfmaq_f32(
                            acc,
                            vdupq_n_f32(*ap.add(p * m + i)),
                            vld1q_f32(bp.add(p * n + j)),
                        );
                    }
                    let crow = cp.add(i * n + j);
                    vst1q_f32(crow, vfmaq_f32(vld1q_f32(crow), alpha_v, acc));
                    j += 4;
                }
                while j < n {
                    let mut s = 0.0f32;
                    for p in p0..pe {
                        s += *ap.add(p * m + i) * *bp.add(p * n + j);
                    }
                    *cp.add(i * n + j) += alpha * s;
                    j += 1;
                }
                i += 1;
            }
            p0 = pe;
        }
    }

    unsafe fn dot_neon(a: &[f32], b: &[f32]) -> f32 {
        let len = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        let mut acc2 = vdupq_n_f32(0.0);
        let mut acc3 = vdupq_n_f32(0.0);
        let mut i = 0usize;
        while i + 16 <= len {
            acc0 = vfmaq_f32(acc0, vld1q_f32(ap.add(i)), vld1q_f32(bp.add(i)));
            acc1 = vfmaq_f32(acc1, vld1q_f32(ap.add(i + 4)), vld1q_f32(bp.add(i + 4)));
            acc2 = vfmaq_f32(acc2, vld1q_f32(ap.add(i + 8)), vld1q_f32(bp.add(i + 8)));
            acc3 = vfmaq_f32(acc3, vld1q_f32(ap.add(i + 12)), vld1q_f32(bp.add(i + 12)));
            i += 16;
        }
        while i + 4 <= len {
            acc0 = vfmaq_f32(acc0, vld1q_f32(ap.add(i)), vld1q_f32(bp.add(i)));
            i += 4;
        }
        let mut sum = vaddvq_f32(vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3)));
        while i < len {
            sum += *ap.add(i) * *bp.add(i);
            i += 1;
        }
        sum
    }

    unsafe fn axpy_neon(alpha: f32, src: &[f32], dst: &mut [f32]) {
        let len = dst.len();
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let av = vdupq_n_f32(alpha);
        let mut i = 0usize;
        while i + 4 <= len {
            vst1q_f32(
                dp.add(i),
                vfmaq_f32(vld1q_f32(dp.add(i)), av, vld1q_f32(sp.add(i))),
            );
            i += 4;
        }
        while i < len {
            *dp.add(i) += alpha * *sp.add(i);
            i += 1;
        }
    }

    unsafe fn add_neon(out: &mut [f32], a: &[f32], b: &[f32]) {
        let len = out.len();
        let op = out.as_mut_ptr();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut i = 0usize;
        while i + 4 <= len {
            vst1q_f32(
                op.add(i),
                vaddq_f32(vld1q_f32(ap.add(i)), vld1q_f32(bp.add(i))),
            );
            i += 4;
        }
        while i < len {
            *op.add(i) = *ap.add(i) + *bp.add(i);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::simd_available;
    use crate::SeedStream;

    fn randv(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SeedStream::new(seed);
        (0..n).map(|_| rng.next_normal()).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let scale = 1.0f32.max(x.abs()).max(y.abs());
            assert!(
                (x - y).abs() <= tol * scale,
                "lane {i}: {x} vs {y} (tol {tol})"
            );
        }
    }

    #[test]
    fn simd_gemm_matches_scalar_all_layouts() {
        if !simd_available() {
            return;
        }
        let (sc, sd) = (ScalarBackend, SimdBackend);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (8, 16, 24),
            (13, 300, 17),
            (64, 64, 64),
        ] {
            let a = randv(m * k, 1);
            let b = randv(k * n, 2);
            let spec = Gemm::new(m, k, n).alpha(0.75);
            for (name, run) in [("nn", 0usize), ("nt", 1), ("tn", 2)] {
                let mut c1 = randv(m * n, 3);
                let mut c2 = c1.clone();
                match run {
                    0 => {
                        sc.gemm_nn(spec, &a, &b, &mut c1);
                        sd.gemm_nn(spec, &a, &b, &mut c2);
                    }
                    1 => {
                        sc.gemm_nt(spec, &a, &b, &mut c1);
                        sd.gemm_nt(spec, &a, &b, &mut c2);
                    }
                    _ => {
                        sc.gemm_tn(spec, &a, &b, &mut c1);
                        sd.gemm_tn(spec, &a, &b, &mut c2);
                    }
                }
                for (x, y) in c1.iter().zip(&c2) {
                    assert!(
                        (x - y).abs() <= 1e-3 * 1.0f32.max(x.abs()),
                        "{name} {m}x{k}x{n}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn simd_exp_path_accuracy() {
        if !simd_available() {
            return;
        }
        let sd = SimdBackend;
        // Softmax over a spread of magnitudes, including large negatives
        // that exercise the exp clamp, at every masked-tail width (attention
        // calls it on each causal prefix length, from one element up).
        for len in 1..=40 {
            let logits: Vec<f32> = (0..len).map(|i| (i as f32 - 18.0) * 2.3).collect();
            // One element past the row on each side must stay untouched.
            let mut p_simd = vec![f32::NAN; len + 2];
            let mut p_ref = vec![0.0f32; len];
            sd.softmax_row(&mut p_simd[1..=len], &logits);
            ScalarBackend.softmax_row(&mut p_ref, &logits);
            assert_close(&p_simd[1..=len], &p_ref, 1e-5);
            assert!(p_simd[0].is_nan() && p_simd[len + 1].is_nan(), "len {len}");
            let sum: f32 = p_simd[1..=len].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "softmax of {len} sums to {sum}");
        }
    }

    #[test]
    fn simd_gelu_matches_scalar() {
        if !simd_available() {
            return;
        }
        let sd = SimdBackend;
        let x: Vec<f32> = (0..41).map(|i| (i as f32 - 20.0) * 0.5).collect();
        let dy = randv(x.len(), 9);
        let mut y_simd = vec![0.0f32; x.len()];
        let mut y_ref = vec![0.0f32; x.len()];
        sd.gelu(&mut y_simd, &x);
        ScalarBackend.gelu(&mut y_ref, &x);
        assert_close(&y_simd, &y_ref, 1e-4);

        let mut d_simd = vec![0.1f32; x.len()];
        let mut d_ref = vec![0.1f32; x.len()];
        sd.gelu_grad(&mut d_simd, &x, &dy);
        ScalarBackend.gelu_grad(&mut d_ref, &x, &dy);
        assert_close(&d_simd, &d_ref, 1e-4);
    }
}
